"""Geometric discord: closed form, special-class reduction, brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsp.qstate import PAULIS, BlochRep, TwoQubitState, from_bloch, to_bloch
from qrsp.states import (
    bell,
    maximally_mixed,
    mix,
    random_state,
    random_zero_discord,
    rho_b,
    werner,
    zero_discord,
)
from qrsp.discord import (
    NotInSpecialClass,
    _dephased_distance,
    check_special_class,
    discord_special_form,
    geometric_discord,
    geometric_discord_oracle,
    is_zero_discord,
)


def _parallel_case_state():
    # a = 0.4 e_z along the top singular direction of E = diag(-0.1, -0.1, 0.6)
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    return mix([(0.05, bell("psi_plus")), (0.15, bell("psi_minus")),
                (0.6, TwoQubitState(p00)), (0.2, TwoQubitState(p11))])


def _skew_state():
    # a = 0.4 e_x is orthogonal to the top singular direction e_y of E
    return from_bloch(BlochRep(a=np.array([0.4, 0.0, 0.0]), b=np.zeros(3),
                               E=np.diag([0.0, 0.8, 0.0])))


def test_closed_form_werner_grid():
    for lam in np.linspace(0.0, 1.0, 21):
        report = geometric_discord(werner(lam))
        assert abs(report.value - lam**2) < 1e-12
        assert abs(report.k_max - lam**2) < 1e-12


def test_closed_form_rho_b_grid():
    for k in np.linspace(-1.0 / 3.0, 1.0, 12):
        for t in np.linspace(-(1 - k) / 2, (1 - k) / 2, 9):
            report = geometric_discord(rho_b(k, t))
            assert abs(report.value - k**2) < 1e-12
            assert abs(report.k_max - (k**2 + t**2)) < 1e-12


def test_closed_form_reference_values():
    assert abs(geometric_discord(werner(1.0 / 3.0)).value - 1.0 / 9.0) < 1e-12
    assert abs(geometric_discord(rho_b(0.2, 0.4)).value - 0.04) < 1e-12
    for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
        assert abs(geometric_discord(bell(kind)).value - 1.0) < 1e-12
    assert geometric_discord(maximally_mixed()).value == 0.0


def test_special_class_zero_a():
    report = geometric_discord(werner(0.7))
    assert report.special_class
    assert report.kappa == 0.0


def test_special_class_isotropic():
    flag, kappa = check_special_class(rho_b(0.2, 0.4))
    assert flag
    assert abs(kappa - 0.4) < 1e-12


def test_special_class_parallel():
    state = _parallel_case_state()
    rep = to_bloch(state)
    assert np.abs(rep.a - np.array([0.0, 0.0, 0.4])).max() < 1e-12
    assert np.abs(rep.E - np.diag([-0.1, -0.1, 0.6])).max() < 1e-12
    flag, kappa = check_special_class(state)
    assert flag
    assert abs(kappa - 0.4) < 1e-12
    assert abs(geometric_discord(state).value - 0.01) < 1e-12
    assert abs(discord_special_form(state) - 0.01) < 1e-12


def test_special_form_matches_closed_form_in_class():
    cases = [werner(0.3), werner(0.9), rho_b(0.2, 0.4), rho_b(-0.25, 0.1),
             _parallel_case_state(), bell("phi_minus")]
    for state in cases:
        assert abs(discord_special_form(state)
                   - geometric_discord(state).value) < 1e-12


def test_special_form_rejected_outside_class():
    state = _skew_state()
    report = geometric_discord(state)
    assert not report.special_class
    assert math.isnan(report.kappa)
    assert abs(report.value - 0.08) < 1e-12
    with pytest.raises(NotInSpecialClass):
        discord_special_form(state)


def test_value_stays_in_unit_interval():
    for seed in range(200):
        report = geometric_discord(random_state(seed, rank=1 + seed % 4))
        assert 0.0 <= report.value <= 1.0
    # the maximum is reached exactly on maximally entangled states
    for kind in ("psi_plus", "psi_minus", "phi_plus", "phi_minus"):
        assert abs(geometric_discord(bell(kind)).value - 1.0) < 1e-12


def test_zero_discord_family_scores_zero():
    for seed in range(50):
        assert geometric_discord(random_zero_discord(seed)).value < 1e-12
        assert is_zero_discord(random_zero_discord(seed))
    # hand-built member with mixed conditional states
    state = zero_discord(0.35, [0, 1, 0], np.diag([0.8, 0.2]), np.eye(2) / 2)
    assert geometric_discord(state).value < 1e-12
    assert not is_zero_discord(werner(0.5))


def _dephase(rho, v):
    # Pi_v(rho) built from the measurement branches: p P+ x rho1 + (1-p) P- x rho2
    m = rho.matrix.reshape(2, 2, 2, 2)
    branches = []
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sign * sum(vk * s for vk, s in zip(v, PAULIS)))
        cond = np.einsum("ij,jkil->kl", proj, m)  # Tr_A[(P x 1) rho]
        branches.append(cond)
    p = branches[0].trace().real
    return zero_discord(p, v, branches[0] / p, branches[1] / (1.0 - p)).matrix


def test_oracle_objective_matches_dephased_state():
    rng = np.random.default_rng(9)
    for seed in range(10):
        rho = random_state(seed, rank=1 + seed % 4)
        v = rng.standard_normal((5, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        found = _dephased_distance(rho.matrix, v)
        for vi, fi in zip(v, found):
            diff = rho.matrix - _dephase(rho, vi)
            assert abs(fi - 2.0 * np.trace(diff @ diff).real) < 1e-12


def test_oracle_reference_states():
    for state, expected in [(werner(1.0 / 3.0), 1.0 / 9.0),
                            (rho_b(0.2, 0.4), 0.04)]:
        found = geometric_discord_oracle(state)
        assert abs(found - expected) < 1e-9
        assert found >= expected - 1e-12


def test_oracle_deterministic():
    state = random_state(4)
    assert geometric_discord_oracle(state) == geometric_discord_oracle(state)


def test_oracle_dominates_closed_form():
    # every candidate is a valid classical-quantum state, so the searched
    # minimum can never undercut the analytic one
    for seed in range(20):
        state = random_state(seed, rank=1 + seed % 4)
        closed = geometric_discord(state).value
        found = geometric_discord_oracle(state)
        assert found >= closed - 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["random", "zero"]),
       rank=st.integers(1, 4))
def test_oracle_brackets_closed_form(seed, family, rank):
    state = random_state(seed, rank=rank) if family == "random" else random_zero_discord(seed)
    closed = geometric_discord(state).value
    found = geometric_discord_oracle(state)
    assert closed <= found + 1e-12
    assert found <= closed + 1e-9
