"""Factories for the two-qubit state families and randomized test ensembles."""

import numpy as np

from .qstate import (
    IDENTITY_2,
    PAULIS,
    TwoQubitState,
    _check_density,
    _unit,
    apply_local_unitaries,
    as_state,
)

_SQRT2 = np.sqrt(2.0)

# Bell kets in the basis |00>, |01>, |10>, |11>.
_BELL_KETS = {
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) / _SQRT2,   # (|10> + |01>)/sqrt2
    "psi_minus": np.array([0.0, -1.0, 1.0, 0.0]) / _SQRT2,  # (|10> - |01>)/sqrt2
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0]) / _SQRT2,   # (|00> + |11>)/sqrt2
    "phi_minus": np.array([1.0, 0.0, 0.0, -1.0]) / _SQRT2,  # (|00> - |11>)/sqrt2
}

WEIGHT_TOL = 1e-12  # mixture weights this far below zero are rounding noise


class InvalidWeights(ValueError):
    """A state-family parameter choice produced a negative mixture weight."""


def mix(components) -> TwoQubitState:
    """Convex combination of (weight, state) pairs.  Weights must be
    non-negative and sum to 1 within 1e-9; they are renormalized exactly."""
    comps = [(float(w), as_state(s)) for w, s in components]
    if not comps:
        raise ValueError("mixture needs at least one component")
    for w, _ in comps:
        if not w >= 0.0:  # also rejects NaN
            raise ValueError(f"mixture weight must be non-negative, got {w:.6g}")
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total:.12g}, expected 1")
    return TwoQubitState(sum(w * s.matrix for w, s in comps) / total)


def _projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def bell(kind: str) -> TwoQubitState:
    """One of the four Bell states: psi_plus, psi_minus, phi_plus, phi_minus."""
    if kind not in _BELL_KETS:
        raise ValueError(f"unknown Bell state {kind!r}; choose from {sorted(_BELL_KETS)}")
    return TwoQubitState(_projector(_BELL_KETS[kind]))


def maximally_mixed() -> TwoQubitState:
    return TwoQubitState(np.eye(4, dtype=complex) / 4.0)


def werner(lam: float) -> TwoQubitState:
    """Werner state lam |psi-><psi-| + (1-lam)/4 1.

    Bloch form: a = b = 0, E = -lam 1.  Requires 0 <= lam <= 1.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise InvalidWeights(f"werner parameter must be in [0, 1], got {lam:.6g}")
    m = lam * _projector(_BELL_KETS["psi_minus"]) + (1.0 - lam) / 4.0 * np.eye(4)
    return TwoQubitState(m)


def rho_b(k: float, t: float) -> TwoQubitState:
    """Four-component Bell/computational mixture with a = b = (0, 0, t), E = -k 1.

    Weights: psi_plus (1-k)/4, psi_minus (1+3k)/4, |00> (1+2t-k)/4,
    |11> (1-2t-k)/4.  Each weight must be >= -1e-12; tiny negatives are
    clamped to 0 so boundary points of the family are accepted.
    """
    k = float(k)
    t = float(t)
    weights = rho_b_weights(k, t)
    for name, w in weights.items():
        if not w >= -WEIGHT_TOL:  # also rejects NaN
            raise InvalidWeights(
                f"component {name} has weight {w:.6g} < -{WEIGHT_TOL:.0e} "
                f"at k={k:.6g}, t={t:.6g}")
    w = {name: max(0.0, val) for name, val in weights.items()}
    total = sum(w.values())
    m = (w["psi_plus"] * _projector(_BELL_KETS["psi_plus"])
         + w["psi_minus"] * _projector(_BELL_KETS["psi_minus"]))
    m[0, 0] += w["00"]
    m[3, 3] += w["11"]
    return TwoQubitState(m / total)


def rho_b_weights(k: float, t: float) -> dict:
    """The four mixture weights of rho_b keyed by component name."""
    return {
        "psi_plus": (1.0 - k) / 4.0,
        "psi_minus": (1.0 + 3.0 * k) / 4.0,
        "00": (1.0 + 2.0 * t - k) / 4.0,
        "11": (1.0 - 2.0 * t - k) / 4.0,
    }


def _qubit_from_bloch(r: np.ndarray) -> np.ndarray:
    return 0.5 * (IDENTITY_2 + r[0] * PAULIS[0] + r[1] * PAULIS[1] + r[2] * PAULIS[2])


def zero_discord(p: float, v, rho1, rho2) -> TwoQubitState:
    """Classical-quantum state  p P+ x rho1 + (1-p) P- x rho2.

    P+- project onto the +-v eigenstates on Alice's side; v must be a unit
    vector and rho1, rho2 valid single-qubit density matrices.  Every state
    of this family has zero geometric discord.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p:.6g}")
    v = _unit(v, "v")
    r1 = _check_density(rho1, 2, "rho1")
    r2 = _check_density(rho2, 2, "rho2")
    pv = _qubit_from_bloch(v)
    mv = _qubit_from_bloch(-v)
    return TwoQubitState(p * np.kron(pv, r1) + (1.0 - p) * np.kron(mv, r2))


# ---------------------------------------------------------------------------
# seeded random ensembles
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / _SQRT2)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(seed, rank: int = 4) -> TwoQubitState:
    """Random state of the given rank: uniform simplex spectrum, Haar basis.

    Deterministic for a fixed (seed, rank).
    """
    if rank not in (1, 2, 3, 4):
        raise ValueError(f"rank must be 1..4, got {rank}")
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(4)
    spectrum[:rank] = rng.dirichlet(np.ones(rank))
    u = haar_unitary(4, rng)
    m = (u * spectrum) @ u.conj().T
    return TwoQubitState(0.5 * (m + m.conj().T))


def _sphere_point(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _ball_point(rng: np.random.Generator) -> np.ndarray:
    return _sphere_point(rng) * rng.random() ** (1.0 / 3.0)


def random_zero_discord(seed) -> TwoQubitState:
    """Seeded random draw from the zero_discord family."""
    rng = np.random.default_rng(seed)
    return zero_discord(rng.random(), _sphere_point(rng),
                        _qubit_from_bloch(_ball_point(rng)),
                        _qubit_from_bloch(_ball_point(rng)))


def random_mixed_marginals(seed) -> TwoQubitState:
    """Random state with a = b = 0: Pauli twirl, then random local rotations."""
    rng = np.random.default_rng(seed)
    base = random_state(rng.integers(2**63), rank=4).matrix
    m = base.copy()
    for s in PAULIS:
        g = np.kron(s, s)
        m = m + g @ base @ g.conj().T
    m /= 4.0
    state = TwoQubitState(0.5 * (m + m.conj().T))
    return apply_local_unitaries(state, haar_unitary(2, rng), haar_unitary(2, rng))


def random_isotropic(seed) -> TwoQubitState:
    """Random state whose correlation tensor has three equal singular values.

    Built from rho_b(k, t) with independent local rotations on the two
    sides, so the local vector a points anywhere while |E s| is the same
    for every direction s.
    """
    rng = np.random.default_rng(seed)
    k = rng.uniform(-1.0 / 3.0, 1.0)
    t = rng.uniform(-(1.0 - k) / 2.0, (1.0 - k) / 2.0)
    state = rho_b(k, t)
    return apply_local_unitaries(state, haar_unitary(2, rng), haar_unitary(2, rng))
