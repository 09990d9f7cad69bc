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

from .qstate import _A_OPS, as_state, to_bloch
from .rsp import _sphere_min

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
    sv = np.linalg.svd(to_bloch(rho).E)[1]  # compute_uv=False rounds differently
    return float(0.5 * (sv[1] ** 2 + sv[2] ** 2))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------
#
# The closest classical-quantum state to rho for a fixed measurement axis v
# on Alice's side is the dephased state chi = (rho + N rho N)/2 with
# N = v.sigma x 1 (Luo & Fu, PRA 82, 034302), so D^2 = min_v 2 Tr(rho - chi)^2.
# Because N^2 = 1, that objective is exactly Tr rho^2 - v.M v with
# M_kl = Re Tr(S_k rho S_l rho) and S_k = sigma_k x 1, so M comes from matrix
# traces, not from the Bloch triple.  rsp._sphere_min minimizes it; the
# oracle never forms a a^T + E E^T and never takes an eigenvalue.

ORACLE_AXES = 50  # Fibonacci axes scored to seed the descent


def _quadratic_form(m: np.ndarray) -> tuple:
    """(Tr rho^2, M) for each state matrix of the (n, 4, 4) stack m."""
    sm = _A_OPS @ m[:, None]  # S_k rho, (n, 3, 4, 4)
    # M is copied to a contiguous array, as _sphere_min needs: matvec rounds
    # differently on strided rows
    return (np.einsum("nij,nij->n", m, m.conj()).real,
            np.einsum("nkij,nlji->nkl", sm, sm).real.copy())


def _oracle_rows(m: np.ndarray) -> np.ndarray:
    """geometric_discord_oracle of each state matrix of the (n, 4, 4) stack m;
    each result equals that of a call on the state alone."""
    purity, M = _quadratic_form(m)
    return _sphere_min(purity, M, [ORACLE_AXES] * len(m))


def geometric_discord_oracle(rho) -> float:
    """min over Alice's measurement axis v of 2 Tr(rho - chi_v)^2.

    Every candidate chi_v is a classical-quantum state, so the result is an
    upper bound on the true minimum.  The search is deterministic.
    """
    return float(_oracle_rows(as_state(rho).matrix[None])[0])
