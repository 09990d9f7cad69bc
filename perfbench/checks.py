"""Reference values and output checks for the benchmark.

Nothing here imports qrsp.  Every reference quantity comes from explicit
Pauli traces of a density matrix the benchmark built itself, so a check
never trusts the code it is checking.  Each check returns None when the
output is right and a one-line reason when it is not.
"""

import csv
import io
import json
import math

import numpy as np

EXACT_TOL = 1e-9
# Noisy characterize rows may sit COUNT_BOUND / sqrt(mean_total) from the
# ideal value.  Each Bloch coefficient is a count contrast with standard
# deviation at most 1 / sqrt(mean_total); the worst deviation seen over
# 48,000 reconstructions of every family and rank was 5.0 / sqrt(mean_total).
COUNT_BOUND = 8.0
# The concurrence takes square roots of eigenvalues that are zero for a
# low-rank state, so its error falls only as mean_total ** -1/4; the worst
# seen over the same reconstructions was 0.92 * mean_total ** -1/4.
CONCURRENCE_BOUND = 1.5
# payoff_mc may sit MC_SIGMAS reported standard errors from payoff_analytic.
MC_SIGMAS = 8.0

QUANTITIES = ("fidelity", "purity", "concurrence", "discord", "rsp_fidelity")
SWEEP_HEADER = ["target_index", "sx", "sy", "sz",
                "payoff_analytic_1", "payoff_mc_1", "stderr_1",
                "payoff_analytic_2", "payoff_mc_2", "stderr_2", "delta_p"]

_I2 = np.eye(2, dtype=complex)
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_A_OPS = [np.kron(s, _I2) for s in _PAULI]
_B_OPS = [np.kron(_I2, s) for s in _PAULI]
_E_OPS = [[np.kron(sa, sb) for sb in _PAULI] for sa in _PAULI]
_YY = _E_OPS[1][1]
_PSI_MINUS = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# states the benchmark builds
# ---------------------------------------------------------------------------

def werner_matrix(lam: float) -> np.ndarray:
    """lam |psi-><psi-| + (1 - lam) 1/4."""
    return lam * np.outer(_PSI_MINUS, _PSI_MINUS) + (1.0 - lam) / 4.0 * np.eye(4)


def rho_b_matrix(k: float, t: float) -> np.ndarray:
    """The state with a = b = (0, 0, t) and E = -k 1."""
    m = np.eye(4, dtype=complex) + t * (_A_OPS[2] + _B_OPS[2])
    m -= k * sum(_E_OPS[i][i] for i in range(3))
    return m / 4.0


def random_matrix(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Uniform simplex spectrum of the given rank in a Haar-random basis."""
    spectrum = np.zeros(4)
    spectrum[:rank] = rng.dirichlet(np.ones(rank))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    m = (u * spectrum) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def bloch(m: np.ndarray) -> tuple:
    """(a, b, E) from the Pauli traces of a 4x4 density matrix."""
    a = np.array([np.trace(op @ m).real for op in _A_OPS])
    b = np.array([np.trace(op @ m).real for op in _B_OPS])
    E = np.array([[np.trace(op @ m).real for op in row] for row in _E_OPS])
    return a, b, E


def state_file_doc(m: np.ndarray, form: str) -> dict:
    """The JSON document of the `file:` state grammar, in matrix or bloch form."""
    if form == "matrix":
        return {"matrix": [[[m[i, j].real, m[i, j].imag] for j in range(4)]
                           for i in range(4)]}
    a, b, E = bloch(m)
    return {"bloch": {"a": a.tolist(), "b": b.tolist(), "E": E.tolist()}}


# ---------------------------------------------------------------------------
# reference quantities
# ---------------------------------------------------------------------------

def _concurrence(m: np.ndarray) -> float:
    """Wootters concurrence from the Hermitian form sqrt(rho) rho~ sqrt(rho).

    Eigenvalues below 1e-12 are rounding noise and count as zero before
    the square root, as in the documented definition.
    """
    w, v = np.linalg.eigh(m)
    w = np.where(w < 1e-14 * w.max(), 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    r = np.linalg.eigvalsh(root @ _YY @ m.conj() @ _YY @ root)
    mu = np.sort(np.sqrt(np.where(r < 1e-12, 0.0, r)))[::-1]
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def ideal_quantities(m: np.ndarray) -> dict:
    """The five characterize rows of a noise-free state, from its Bloch form."""
    a, b, E = bloch(m)
    e2 = float((E * E).sum())
    k_max = np.linalg.eigvalsh(np.outer(a, a) + E @ E.T)[-1]
    w = np.clip(np.linalg.eigvalsh(E.T @ E), 0.0, None)
    return {
        "fidelity": 1.0,
        "purity": (1.0 + a @ a + b @ b + e2) / 4.0,
        "concurrence": _concurrence(m),
        "discord": max(0.0, 0.5 * (a @ a + e2 - k_max)),
        "rsp_fidelity": 0.5 * (w[0] + w[1]),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_characterize(text: str, ideal: dict, mean_total=None, angle=0.0):
    """Noise-free rows must equal the reference within 1e-9.  Noisy rows
    must be finite, in [0, 1] up to 1e-9 of rounding (a pure reconstruction
    can have purity 1 + 2e-16) and within the count-statistics bound; the
    fidelity may also drop by the preparation rotation, to cos^2(angle/2)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["quantity", "value"]:
        return f"bad characterize header {rows[:1]}"
    if [r[0] for r in rows[1:]] != list(QUANTITIES):
        return f"characterize rows {[r[0] for r in rows[1:]]}"
    for name, value in rows[1:]:
        v = float(value)
        if mean_total is None:
            if abs(v - ideal[name]) > EXACT_TOL:
                return f"{name} {v!r} != reference {ideal[name]!r}"
            continue
        if not (math.isfinite(v) and -EXACT_TOL <= v <= 1.0 + EXACT_TOL):
            return f"noisy {name} {v!r} outside [0, 1]"
        bound = COUNT_BOUND / math.sqrt(mean_total)
        if name == "concurrence":
            bound = CONCURRENCE_BOUND / mean_total ** 0.25
        if name == "fidelity":
            bound += math.sin(angle / 2.0) ** 2
        if abs(v - ideal[name]) > bound:
            return f"noisy {name} {v!r} more than {bound:.3g} from {ideal[name]!r}"
    return None


def check_sweep(text: str, E1: np.ndarray, E2: np.ndarray, n_targets: int):
    """Each payoff_analytic_i must be |E_i s|^2, each payoff_mc_i within
    MC_SIGMAS stderr_i of it, and delta_p their difference."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return f"bad sweep header {rows[:1]}"
    if len(rows) != n_targets + 1:
        return f"{len(rows) - 1} sweep rows, expected {n_targets}"
    for i, row in enumerate(rows[1:]):
        if int(row[0]) != i:
            return f"row {i} has target_index {row[0]}"
        v = [float(x) for x in row[1:]]
        s = np.array(v[0:3])
        if abs(s @ s - 1.0) > EXACT_TOL:
            return f"target {i} is not a unit vector"
        for E, (an, mc, se) in ((E1, v[3:6]), (E2, v[6:9])):
            es = E @ s
            if abs(an - es @ es) > EXACT_TOL:
                return f"target {i}: payoff_analytic {an!r} != |E s|^2 {es @ es!r}"
            if not abs(mc - an) <= MC_SIGMAS * se + 1e-12:
                return f"target {i}: payoff_mc {mc!r} is {abs(mc - an):.3g} from {an!r}, stderr {se:.3g}"
        if abs(v[9] - (v[3] - v[6])) > EXACT_TOL:
            return f"target {i}: delta_p {v[9]!r} != {v[3] - v[6]!r}"
    return None


def check_manifest(text: str, out_path: str, command: str):
    """A manifest must parse and name its command and its one output."""
    doc = json.loads(text)
    if doc.get("command") != command or doc.get("outputs") != [out_path]:
        return f"manifest names {doc.get('command')!r} / {doc.get('outputs')!r}"
    return None


def check_oracle(text: str):
    """oracle-check must have run on its one state and end with PASS."""
    lines = text.splitlines()
    if not lines or lines[-1] != "PASS":
        return f"oracle-check ended with {lines[-1:]!r}"
    if "states 1 " not in lines[0]:
        return f"oracle-check header {lines[0]!r}"
    return None
