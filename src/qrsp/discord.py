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
from .rsp import _fibonacci_grid

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
# Because N^2 = 1, that objective is exactly Tr rho^2 - v.M v with
# M_kl = Re Tr(S_k rho S_l rho) and S_k = sigma_k x 1, so M comes from matrix
# traces, not from the Bloch triple.  The search scores a Fibonacci grid of
# axes, then refines the best few by a (theta, phi) pattern search.  It never
# forms a a^T + E E^T and never takes an eigenvalue.

ORACLE_AXES = 500  # grid axes scored up front
ORACLE_REFINED = 4  # best grid axes refined by pattern search
_STEP_TOL = 1e-7  # radians; refinement stops once every step is below this

_MOVES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _quadratic_form(m: np.ndarray) -> tuple:
    """(Tr rho^2, M) for each state matrix of the (n, 4, 4) stack m."""
    sm = _A_OPS @ m[:, None]  # S_k rho, (n, 3, 4, 4)
    # M is copied to a contiguous array, as _oracle_rows' row selections are:
    # matvec rounds differently on strided rows
    return (np.einsum("nij,nij->n", m, m.conj()).real,
            np.einsum("nkij,nlji->nkl", sm, sm).real.copy())


def _objective(purity: np.ndarray, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2 Tr(rho - chi_v)^2 = Tr rho^2 - v.M v for the unit axes v (..., 3)."""
    return purity - np.vecdot(v, np.matvec(M, v))


def _axes(angles: np.ndarray) -> np.ndarray:
    """Unit axes for the (theta, phi) pairs along the last dimension."""
    s, c = np.sin(angles), np.cos(angles)
    v = np.empty(angles.shape[:-1] + (3,))
    np.multiply(s[..., 0], c[..., 1], out=v[..., 0])
    np.multiply(s[..., 0], s[..., 1], out=v[..., 1])
    v[..., 2] = c[..., 0]
    return v


def _oracle_rows(m: np.ndarray) -> np.ndarray:
    """geometric_discord_oracle of each state matrix of the (n, 4, 4) stack m.

    The states and their refined axes step in lockstep.  A state leaves the
    search once every one of its steps is below _STEP_TOL, so each result
    equals that of a call on the state alone.
    """
    purity, M = _quadratic_form(m)
    grid = _fibonacci_grid(ORACLE_AXES)
    fx = _objective(purity[:, None], M[:, None], grid)
    top = np.argsort(fx, axis=1)[:, :ORACLE_REFINED]
    fx, best = np.take_along_axis(fx, top, axis=1), grid[top]
    x = np.stack([np.arccos(best[..., 2]), np.arctan2(best[..., 1], best[..., 0])], axis=-1)
    step = np.full(fx.shape, np.sqrt(4.0 * np.pi / ORACLE_AXES))  # grid spacing
    purity, M = purity[:, None, None], M[:, None, None]
    found, live = np.empty(len(m)), np.arange(len(m))
    rows, cols = live[:, None], np.arange(ORACLE_REFINED)
    while live.size:
        trial = x[:, :, None] + step[:, :, None, None] * _MOVES
        ft = _objective(purity, M, _axes(trial))
        j = ft.argmin(axis=2)
        fj = ft[rows, cols, j]
        moved = fj < fx
        x = np.where(moved[..., None], trial[rows, cols, j], x)
        fx = np.where(moved, fj, fx)
        step = np.where(moved, step, 0.5 * step)
        done = (step <= _STEP_TOL).all(axis=1)
        if done.any():
            found[live[done]] = fx[done].min(axis=1)
            live, x, fx, step, purity, M = (a[~done] for a in (live, x, fx, step, purity, M))
            rows = rows[:live.size]
    return found


def geometric_discord_oracle(rho) -> float:
    """min over Alice's measurement axis v of 2 Tr(rho - chi_v)^2.

    Every candidate chi_v is a classical-quantum state, so the result is an
    upper bound on the true minimum.  The search is deterministic.
    """
    return float(_oracle_rows(as_state(rho).matrix[None])[0])
