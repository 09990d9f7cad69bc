"""Exact linear algebra for two-qubit states.

Density matrices live in the computational basis |00>, |01>, |10>, |11>.
The Bloch (Fano) form used throughout is

    rho = 1/4 ( 1x1 + sum_k a_k s_k x 1 + sum_l b_l 1 x s_l
                + sum_kl E_kl s_k x s_l ),

with s_1 = X, s_2 = Y, s_3 = Z.  All entropies are base 2.
"""

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9  # eigenvalues in [-PSD_TOL, 0) are treated as rounding noise

# The 16 operators s_i x s_j with s_0 = 1, at index 4 i + j.  _A_OPS[k],
# _B_OPS[l] and _E_OPS[k][l] (k, l in {0: X, 1: Y, 2: Z}) are views of it.
_BASIS = np.stack([np.kron(sa, sb) for sa in (IDENTITY_2, *PAULIS)
                   for sb in (IDENTITY_2, *PAULIS)])
_A_OPS = _BASIS.reshape(4, 4, 4, 4)[1:, 0]
_B_OPS = _BASIS.reshape(4, 4, 4, 4)[0, 1:]
_E_OPS = _BASIS.reshape(4, 4, 4, 4)[1:, 1:]


class StateError(ValueError):
    """Base class for density-matrix validation failures."""


class NotHermitian(StateError):
    pass


class NotUnitTrace(StateError):
    pass


class NotPositive(StateError):
    pass


class NotAState(StateError):
    """Bloch coefficients that do not assemble to a physical state."""


@dataclass(frozen=True)
class TwoQubitState:
    """A validated 4x4 density matrix.

    Construction rejects non-finite, non-Hermitian, non-unit-trace and
    non-PSD input with distinct errors; eigenvalues down to -1e-9 are accepted as
    rounding noise.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_density(self.matrix, 4, "matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def bloch(self) -> "BlochRep":
        """The Bloch triple (a, b, E), extracted on first use and then kept."""
        t = np.einsum("kij,ji->k", _BASIS, self.matrix).real.reshape(4, 4)
        return BlochRep(a=t[1:, 0], b=t[0, 1:], E=t[1:, 1:])


def _check_density(matrix, dim: int, label: str) -> np.ndarray:
    """`matrix` as a complex dim x dim density matrix; errors start with `label`."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise StateError(f"{label} must be a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StateError(f"{label} has non-finite entries")
    herm_defect = np.abs(m - m.conj().T).max()
    if herm_defect > HERMITICITY_TOL:
        raise NotHermitian(f"{label} is not Hermitian (defect {herm_defect:.3e})")
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotUnitTrace(f"{label} does not have unit trace (trace {tr:.12g})")
    min_eig = np.linalg.eigvalsh(m)[0]
    if min_eig < -PSD_TOL:
        raise NotPositive(f"{label} is not positive semidefinite "
                          f"(eigenvalue {min_eig:.3e} < -{PSD_TOL:.0e})")
    return m


def _unit_rows(v, name: str) -> np.ndarray:
    """v as an (n, 3) float array; ValueError unless each row has norm 1
    within 1e-9 (a non-finite row never does)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {v.shape}")
    n = np.sqrt(np.vecdot(v, v))
    bad = np.flatnonzero(~(np.abs(n - 1.0) <= 1e-9))
    if bad.size:
        i = bad[0]
        where = f" in row {i}" if len(v) > 1 else ""
        raise ValueError(f"{name} must be a unit vector, |{name}| = {n[i]:.6g}{where}")
    return v


def _unit(v, name: str) -> np.ndarray:
    """v as a float 3-vector; ValueError unless |v| is 1 within 1e-9."""
    return _unit_rows(np.reshape(v, (1, 3)), name)[0]


def as_state(rho) -> TwoQubitState:
    """Coerce an array-like into a validated TwoQubitState (no-op if already one)."""
    if isinstance(rho, TwoQubitState):
        return rho
    return TwoQubitState(np.asarray(rho))


@dataclass(frozen=True)
class BlochRep:
    """Local Bloch vectors a, b and 3x3 correlation tensor E, held as read-only
    float arrays.  Whether they form a state is for from_bloch to decide."""

    a: np.ndarray
    b: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name, shape in (("a", 3), ("b", 3), ("E", (3, 3))):
            arr = np.array(getattr(self, name), dtype=float).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# representation conversions
# ---------------------------------------------------------------------------

def to_bloch(rho) -> BlochRep:
    """Extract (a, b, E) via Pauli traces.

    a_k = Tr((s_k x 1) rho), b_l = Tr((1 x s_l) rho),
    E_kl = Tr((s_k x s_l) rho).  For Hermitian input the imaginary parts
    of these traces are below 1e-10 and are discarded.
    """
    return as_state(rho).bloch


def bloch_matrix(a, b, E) -> np.ndarray:
    """Assemble the (possibly unphysical) 4x4 matrix for raw Bloch coefficients."""
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    E = np.asarray(E, dtype=float).reshape(3, 3)
    m = np.eye(4, dtype=complex)
    for k in range(3):
        m += a[k] * _A_OPS[k]
        m += b[k] * _B_OPS[k]
        for l in range(3):
            m += E[k, l] * _E_OPS[k][l]
    return m / 4.0


def from_bloch(rep: BlochRep) -> TwoQubitState:
    """Inverse of to_bloch.  Raises NotAState if a coefficient is not finite
    or the assembly is not a state."""
    if not all(np.isfinite(x).all() for x in (rep.a, rep.b, rep.E)):
        raise NotAState("Bloch coefficients have non-finite entries")
    try:
        return TwoQubitState(bloch_matrix(rep.a, rep.b, rep.E))
    except StateError as exc:
        raise NotAState(f"Bloch coefficients do not give a state: {exc}") from exc


# ---------------------------------------------------------------------------
# scalar measures
# ---------------------------------------------------------------------------

def purity(rho) -> float:
    m = as_state(rho).matrix
    return float(np.einsum("ij,ji->", m, m).real)


def _zero_floor(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues at rounding-noise scale so sqrt cannot amplify
    them; keeps rank-deficient inputs exact."""
    top = max(float(w.max()), 0.0)
    return np.where(w < 1e-14 * top, 0.0, w)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = _zero_floor(w)
    return (v * np.sqrt(w)) @ v.conj().T


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Computed with eigendecomposition-based square roots; the result is
    clipped to [0, 1] to absorb rounding.
    """
    r = as_state(rho).matrix
    s = as_state(sigma).matrix
    root = _psd_sqrt(r)
    w = _zero_floor(np.linalg.eigvalsh(root @ s @ root))
    f = float(np.sqrt(w).sum() ** 2)
    return float(np.clip(f, 0.0, 1.0))


def von_neumann_entropy(rho) -> float:
    """Base-2 entropy of a 2x2 or 4x4 density matrix (or TwoQubitState)."""
    m = rho.matrix if isinstance(rho, TwoQubitState) else np.asarray(rho, dtype=complex)
    w = np.linalg.eigvalsh(m)
    # clamp eigenvalues in [-1e-9, 0) to 0 and renormalize to unit sum
    w = np.where((w < 0.0) & (w >= -PSD_TOL), 0.0, w)
    w = w / w.sum()
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def partial_trace(rho, side: str) -> np.ndarray:
    """Reduced 2x2 density matrix of side 'A' or 'B'."""
    m = as_state(rho).matrix.reshape(2, 2, 2, 2)
    if side == "A":
        return np.einsum("ikjk->ij", m)
    if side == "B":
        return np.einsum("kikj->ij", m)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def mutual_information(rho) -> float:
    """I(A:B) = H(A) + H(B) - H(AB), in bits."""
    rho = as_state(rho)
    return (von_neumann_entropy(partial_trace(rho, "A"))
            + von_neumann_entropy(partial_trace(rho, "B"))
            - von_neumann_entropy(rho))


def concurrence(rho) -> float:
    """Wootters concurrence.

    C = max(0, mu1 - mu2 - mu3 - mu4) with mu_i the descending square
    roots of the eigenvalues of the Hermitian sqrt(rho) rho~ sqrt(rho),
    rho~ = (Y x Y) rho* (Y x Y).  Eigenvalues below 1e-12 are treated as
    zero before the square root; they are rounding noise.
    """
    m = as_state(rho).matrix
    yy = _E_OPS[1][1]
    root = _psd_sqrt(m)
    w = np.linalg.eigvalsh(root @ yy @ m.conj() @ yy @ root)
    w = np.where(w < 1e-12, 0.0, w)
    mu = np.sqrt(w)[::-1]  # eigvalsh is ascending
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


# ---------------------------------------------------------------------------
# local unitaries
# ---------------------------------------------------------------------------

def su2_rotation(axis, angle: float) -> np.ndarray:
    """The 2x2 unitary exp(-i angle/2 axis.sigma) for a unit axis."""
    axis = _unit(axis, "axis")
    h = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    return np.cos(angle / 2.0) * IDENTITY_2 - 1.0j * np.sin(angle / 2.0) * h


def apply_local_unitaries(rho, u_a: np.ndarray, u_b: np.ndarray) -> TwoQubitState:
    """Conjugate by U_A x U_B.  Sends a -> O_A a, b -> O_B b, E -> O_A E O_B^T."""
    for u in (u_a, u_b):
        if np.abs(np.asarray(u) @ np.asarray(u).conj().T - IDENTITY_2).max() > 1e-9:
            raise ValueError("local operator is not unitary")
    w = np.kron(u_a, u_b)
    return TwoQubitState(w @ as_state(rho).matrix @ w.conj().T)


# ---------------------------------------------------------------------------
# state files and output text
# ---------------------------------------------------------------------------

def _float_array(value, field: str, shape: tuple) -> np.ndarray:
    """A JSON field as a float array of the given shape, or StateError naming it."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateError(f"'{field}' is not an array of numbers: {exc}") from exc
    if arr.shape != shape:
        raise StateError(f"'{field}' must have shape {shape}, got {arr.shape}")
    return arr


def load_state_file(path) -> TwoQubitState:
    """Read a state from a JSON document.

    Exactly one of the fields must be present:
      "matrix": 4x4 array of [re, im] pairs, row-major, basis |00>,|01>,|10>,|11>
      "bloch":  {"a": [3], "b": [3], "E": [[3],[3],[3]]}
    A document that is not UTF-8 JSON of this form raises StateError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise StateError(f"state file is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateError("state file must be a JSON object")
    has_m = "matrix" in doc
    has_b = "bloch" in doc
    if has_m == has_b:
        raise StateError("state file must contain exactly one of 'matrix' or 'bloch'")
    if has_m:
        arr = _float_array(doc["matrix"], "matrix", (4, 4, 2))
        return TwoQubitState(arr[..., 0] + 1.0j * arr[..., 1])
    bl = doc["bloch"]
    if not isinstance(bl, dict) or not {"a", "b", "E"} <= bl.keys():
        raise StateError("'bloch' must be an object with fields 'a', 'b' and 'E'")
    return from_bloch(BlochRep(a=_float_array(bl["a"], "bloch.a", (3,)),
                               b=_float_array(bl["b"], "bloch.b", (3,)),
                               E=_float_array(bl["E"], "bloch.E", (3, 3))))


def save_state_file(rho, path, form: str = "matrix") -> None:
    """Write a state file in 'matrix' or 'bloch' form (atomic replace)."""
    rho = as_state(rho)
    if form == "matrix":
        m = rho.matrix
        doc = {"matrix": [[[m[i, j].real, m[i, j].imag] for j in range(4)]
                          for i in range(4)]}
    elif form == "bloch":
        rep = to_bloch(rho)
        doc = {"bloch": {"a": rep.a.tolist(), "b": rep.b.tolist(),
                         "E": rep.E.tolist()}}
    else:
        raise ValueError(f"form must be 'matrix' or 'bloch', got {form!r}")
    _atomic_write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _atomic_write(path, text: str) -> None:
    """Write text to path through a temporary file and an atomic rename.
    The temporary file is removed when either step fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:  # leave nothing behind, then report the first error
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header, rows) -> str:
    """CSV text of one header row and the data rows, each ended by a newline.
    Fields are written with str, which is repr for a float, and unquoted:
    no caller's field holds a comma, a quote or a line break."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
