"""Geometric quantum discord: closed form and a brute-force oracle.

The measure used here is the squared Hilbert-Schmidt distance to the
classical-quantum set, normalized so Bell states score 1:

    D^2(rho) = 2 min_chi Tr(rho - chi)^2,

with chi ranging over p P+v x rho1 + (1-p) P-v x rho2.  The closed form
is D^2 = (|a|^2 + |E|^2 - k_max)/2 where k_max is the largest eigenvalue
of K = a a^T + E E^T.
"""

from dataclasses import dataclass

import numpy as np

from .qstate import _A_OPS, as_state, schmidt_canonical, to_bloch
from .rsp import fibonacci_sphere

ANGLE_TOL = 1e-6  # radians; parallelism threshold for the special class
DEGENERACY_TOL = 1e-9  # singular values this close count as equal


class NotInSpecialClass(ValueError):
    """The reduced closed form was requested outside its validity class."""


@dataclass(frozen=True)
class DiscordReport:
    value: float
    k_max: float


def check_special_class(rho) -> tuple:
    """(flag, kappa): flag is True iff a = 0, a is parallel to the top
    eigenvector of E E^T (within 1e-6 rad), or E is isotropic.  kappa is
    the component of a along the top direction, NaN outside the class."""
    rep = to_bloch(rho)
    a = rep.a
    w, vecs = np.linalg.eigh(rep.E @ rep.E.T)  # ascending
    sv = np.sqrt(np.clip(w, 0.0, None))
    norm_a = np.linalg.norm(a)
    if norm_a <= 1e-9:
        return True, 0.0
    if sv[2] - sv[0] <= DEGENERACY_TOL:  # isotropic: every direction is a top direction
        return True, float(norm_a)
    top = vecs[:, sv >= sv[2] - DEGENERACY_TOL]  # top eigenspace of E E^T
    proj = top @ (top.T @ a)
    angle = np.arctan2(np.linalg.norm(a - proj), np.linalg.norm(proj))
    if angle <= ANGLE_TOL:
        return True, float(np.linalg.norm(proj))
    return False, float("nan")


def geometric_discord(rho) -> DiscordReport:
    """Closed-form geometric discord and the top eigenvalue k_max of
    a a^T + E E^T."""
    rep = to_bloch(rho)
    K = np.outer(rep.a, rep.a) + rep.E @ rep.E.T
    k_max = float(np.linalg.eigvalsh(K)[2])
    value = 0.5 * (rep.a @ rep.a + np.einsum("kl,kl->", rep.E, rep.E) - k_max)
    return DiscordReport(value=max(0.0, float(value)), k_max=k_max)


def discord_special_form(rho) -> float:
    """(E2^2 + E3^2)/2 from the two smallest singular values of E.

    Valid only in the special class; raises NotInSpecialClass otherwise.
    """
    special, _ = check_special_class(rho)
    if not special:
        raise NotInSpecialClass(
            "a is neither zero nor aligned with the top singular direction, "
            "and E is not isotropic")
    sv = schmidt_canonical(to_bloch(rho).E).singular_values
    return float(0.5 * (sv[1] ** 2 + sv[2] ** 2))


def is_zero_discord(rho, tol: float = 1e-9) -> bool:
    return geometric_discord(rho).value <= tol


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------
#
# The closest classical-quantum state to rho for a fixed measurement axis v
# on Alice's side is the dephased state chi = (rho + N rho N)/2 with
# N = v.sigma x 1 (Luo & Fu, PRA 82, 034302), so D^2 = min_v 2 Tr(rho - chi)^2.
# The search scores a Fibonacci grid of axes, then refines the best few by
# a (theta, phi) pattern search.  It never forms a x a^T + E E^T.

ORACLE_AXES = 500  # grid axes scored up front
ORACLE_REFINED = 4  # best grid axes refined by pattern search
_STEP_TOL = 1e-7  # radians; refinement stops once every step is below this

_GRID = fibonacci_sphere(ORACLE_AXES)
_MOVES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _dephased_distance(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2 Tr(rho - chi)^2 with chi = (rho + N rho N)/2, for each unit axis row of v."""
    n = np.einsum("bk,kij->bij", v, _A_OPS)
    d = m - 0.5 * (m + n @ m @ n)
    return 2.0 * np.einsum("bij,bij->b", d, d.conj()).real


def _axes(angles: np.ndarray) -> np.ndarray:
    """Unit axes for the (theta, phi) pairs along the last dimension."""
    st = np.sin(angles[..., 0])
    return np.stack([st * np.cos(angles[..., 1]), st * np.sin(angles[..., 1]),
                     np.cos(angles[..., 0])], axis=-1)


def geometric_discord_oracle(rho) -> float:
    """min over Alice's measurement axis v of 2 Tr(rho - chi_v)^2.

    Every candidate chi_v is a classical-quantum state, so the result is an
    upper bound on the true minimum.  The search is deterministic.
    """
    m = as_state(rho).matrix
    fx = _dephased_distance(m, _GRID)
    top = np.argsort(fx)[:ORACLE_REFINED]
    fx, best = fx[top], _GRID[top]
    x = np.stack([np.arccos(best[:, 2]), np.arctan2(best[:, 1], best[:, 0])], axis=1)
    step = np.full(ORACLE_REFINED, np.sqrt(4.0 * np.pi / ORACLE_AXES))  # grid spacing
    rows = np.arange(ORACLE_REFINED)
    while step.max() > _STEP_TOL:
        trial = x[:, None, :] + step[:, None, None] * _MOVES
        ft = _dephased_distance(m, _axes(trial).reshape(-1, 3)).reshape(ORACLE_REFINED, -1)
        j = ft.argmin(axis=1)
        moved = ft[rows, j] < fx
        x[moved] = trial[rows, j][moved]
        fx[moved] = ft[rows, j][moved]
        step[~moved] *= 0.5
    return float(fx.min())
