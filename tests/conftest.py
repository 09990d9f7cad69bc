"""Shared helpers for seeded randomized checks."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from qrsp.qstate import TwoQubitState


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def perp_pair(rng: np.random.Generator):
    """A (beta, target) pair with target orthogonal to beta."""
    beta = unit_vector(rng)
    s = np.cross(beta, rng.standard_normal(3))
    while np.linalg.norm(s) < 1e-6:
        s = np.cross(beta, rng.standard_normal(3))
    return beta, s / np.linalg.norm(s)


@st.composite
def drawn_states(draw):
    """rho = G G^+ / Tr(G G^+) for a drawn complex 4 x r matrix G, r in 1..4."""
    rank = draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8 * rank, max_size=8 * rank))
    g = np.array(parts).reshape(2, 4, rank)
    g = g[0] + 1j * g[1]
    m = g @ g.conj().T
    tr = np.trace(m).real
    assume(tr > 1e-3)
    return TwoQubitState(m / tr)
