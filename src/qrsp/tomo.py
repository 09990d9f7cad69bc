"""Nine-setting Pauli tomography with Poissonian counting noise.

Each joint setting (k, l) measures s_k on Alice and s_l on Bob; the four
outcome probabilities are

    P(alpha, beta) = (1 + alpha a_k + beta b_l + alpha beta E_kl) / 4.

Counts are Poisson per outcome.  Reconstruction is linear inversion of
the empirical frequencies followed by a nearest-by-clipping PSD repair
(negative eigenvalues set to 0, trace renormalized) when needed.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .qstate import (
    IDENTITY_2,
    TwoQubitState,
    apply_local_unitaries,
    as_state,
    bloch_matrix,
    su2_rotation,
    to_bloch,
)

logger = logging.getLogger(__name__)

SETTINGS = tuple((k, l) for k in (1, 2, 3) for l in (1, 2, 3))
MAX_MEAN_TOTAL = 1e18  # below numpy's largest Poisson mean (~9.2e18); every p <= 1


class MissingSetting(ValueError):
    """A reconstruction needs all nine joint settings exactly once."""


class EmptyCounts(ValueError):
    """A setting arrived with zero total counts."""


@dataclass(frozen=True)
class CountRecord:
    """Counts (n_pp, n_pm, n_mp, n_mm) for joint setting (k, l), 1-based axes."""

    setting: tuple
    counts: tuple

    def __post_init__(self):
        k, l = self.setting
        if k not in (1, 2, 3) or l not in (1, 2, 3):
            raise ValueError(f"setting axes must be in {{1,2,3}}, got {(k, l)}")
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != 4 or any(c < 0 for c in counts):
            raise ValueError(f"counts must be four non-negative integers, got {counts}")
        object.__setattr__(self, "setting", (int(k), int(l)))
        object.__setattr__(self, "counts", counts)


def measurement_probabilities(rho, setting) -> np.ndarray:
    """Outcome probabilities (p_pp, p_pm, p_mp, p_mm) for one setting."""
    k, l = setting
    if k not in (1, 2, 3) or l not in (1, 2, 3):
        raise ValueError(f"setting axes must be in {{1,2,3}}, got {(k, l)}")
    rep = to_bloch(rho)
    a = rep.a[k - 1]
    b = rep.b[l - 1]
    e = rep.E[k - 1, l - 1]
    p = np.array([(1.0 + alpha * a + beta * b + alpha * beta * e) / 4.0
                  for alpha in (1, -1) for beta in (1, -1)])
    return np.clip(p, 0.0, None)


def sample_counts(rho, setting, mean_total: float, seed) -> CountRecord:
    """Poisson counts for one setting, mean mean_total * p per outcome."""
    if not 0 < mean_total <= MAX_MEAN_TOTAL:  # also rejects NaN
        raise ValueError(f"mean_total must be in (0, {MAX_MEAN_TOTAL:.0e}], got {mean_total}")
    p = measurement_probabilities(rho, setting)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_total * p)
    return CountRecord(setting=tuple(setting), counts=tuple(int(c) for c in counts))


def sample_tomography(rho, mean_total: float, seed):
    """Counts for all nine settings; setting (k, l) draws from the stream
    (seed, k, l) so settings are independent and order-free."""
    return [sample_counts(rho, (k, l), mean_total,
                          np.random.SeedSequence([int(seed), k, l]))
            for k, l in SETTINGS]


def mixture_by_duration(components, mean_rate: float, seed):
    """Counts for a duration-weighted mixture of states.

    Component i with weight w_i contributes Poisson counts of mean
    mean_rate * w_i * p per outcome, drawn from the stream (seed, k, l, i);
    per-setting counts are the sums over components.
    """
    if not 0 < mean_rate < np.inf:  # also rejects NaN
        raise ValueError(f"mean_rate must be positive and finite, got {mean_rate}")
    comps = [(as_state(s), float(w)) for s, w in components]
    if not comps:
        raise ValueError("mixture needs at least one component")
    for _, w in comps:
        if not 0.0 <= w < np.inf:  # also rejects NaN
            raise ValueError(f"weight {w:.6g} is not a finite non-negative duration")
        if mean_rate * w > MAX_MEAN_TOTAL:
            raise ValueError(f"mean_rate * weight {mean_rate * w:.3e} > {MAX_MEAN_TOTAL:.0e}")
    if sum(w for _, w in comps) <= 0.0:
        raise ValueError("duration weights sum to zero")
    records = []
    for k, l in SETTINGS:
        counts = np.zeros(4, dtype=np.int64)
        for i, (state, w) in enumerate(comps):
            if w > 0.0:
                counts += sample_counts(state, (k, l), mean_rate * w,
                                        np.random.SeedSequence([int(seed), k, l, i])).counts
        records.append(CountRecord(setting=(k, l), counts=counts))
    return records


def linear_inversion(records) -> TwoQubitState:
    """Reconstruct a state from nine count records.

    E_kl comes from the per-setting contrast; a_k and b_l are averaged
    over the three settings that share the axis.  If the assembled matrix
    is not PSD it is repaired by clipping negative eigenvalues to zero and
    renormalizing the trace (logged).
    """
    by_setting = {}
    for r in records:
        if r.setting in by_setting:
            raise ValueError(f"duplicate records for setting {r.setting}")
        by_setting[r.setting] = r
    missing = [s for s in SETTINGS if s not in by_setting]
    if missing:
        raise MissingSetting(f"missing settings: {missing}")

    a = np.zeros(3)
    b = np.zeros(3)
    E = np.zeros((3, 3))
    for (k, l), rec in by_setting.items():
        n_pp, n_pm, n_mp, n_mm = rec.counts
        total = n_pp + n_pm + n_mp + n_mm
        if total == 0:
            raise EmptyCounts(f"setting {(k, l)} has zero total counts")
        E[k - 1, l - 1] = (n_pp - n_pm - n_mp + n_mm) / total
        a[k - 1] += (n_pp + n_pm - n_mp - n_mm) / total / 3.0
        b[l - 1] += (n_pp - n_pm + n_mp - n_mm) / total / 3.0

    m = bloch_matrix(a, b, E)
    w, v = np.linalg.eigh(m)
    if w[0] < 0.0:
        logger.info("PSD repair: clipping %d negative eigenvalue(s), min %.3e",
                    int((w < 0.0).sum()), w[0])
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        m = (v * w) @ v.conj().T
        m = 0.5 * (m + m.conj().T)
    return TwoQubitState(m)


def perturb_local_rotation(rho, axis, angle: float) -> TwoQubitState:
    """Rotate Bob's qubit by `angle` about the unit vector `axis`.

    Sends b -> R b and E -> E R^T while leaving a fixed; all local-unitary
    invariants (discord, concurrence, protocol fidelity) are unchanged.
    """
    u = su2_rotation(axis, angle)
    return apply_local_unitaries(as_state(rho), IDENTITY_2, u)
