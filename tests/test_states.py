"""State-family factories: Bloch forms, weight validation, random ensembles."""

import numpy as np
import pytest

from qrsp.qstate import TwoQubitState, purity, to_bloch
from qrsp.states import (
    InvalidWeights,
    bell,
    haar_unitary,
    maximally_mixed,
    mix,
    random_isotropic,
    random_mixed_marginals,
    random_state,
    random_zero_discord,
    rho_b,
    rho_b_weights,
    werner,
    zero_discord,
)


def test_bell_states_pure_and_orthogonal():
    kinds = ["psi_plus", "psi_minus", "phi_plus", "phi_minus"]
    states = {k: bell(k) for k in kinds}
    for k in kinds:
        assert abs(purity(states[k]) - 1.0) < 1e-12
    for i, k1 in enumerate(kinds):
        for k2 in kinds[i + 1:]:
            overlap = np.trace(states[k1].matrix @ states[k2].matrix).real
            assert abs(overlap) < 1e-12


def test_bell_unknown_kind():
    with pytest.raises(ValueError, match="unknown Bell state"):
        bell("sigma_plus")


def test_maximally_mixed():
    rep = to_bloch(maximally_mixed())
    assert np.abs(rep.a).max() < 1e-15
    assert np.abs(rep.b).max() < 1e-15
    assert np.abs(rep.E).max() < 1e-15
    assert abs(purity(maximally_mixed()) - 0.25) < 1e-12


def test_werner_bloch_form_and_purity():
    for lam in np.linspace(0.0, 1.0, 21):
        rep = to_bloch(werner(lam))
        assert np.abs(rep.a).max() < 1e-12
        assert np.abs(rep.b).max() < 1e-12
        assert np.abs(rep.E + lam * np.eye(3)).max() < 1e-12
        assert abs(purity(werner(lam)) - 0.25 * (1 + 3 * lam**2)) < 1e-12


def test_werner_endpoints():
    assert np.abs(werner(0.0).matrix - maximally_mixed().matrix).max() < 1e-15
    assert np.abs(werner(1.0).matrix - bell("psi_minus").matrix).max() < 1e-15


@pytest.mark.parametrize("lam", [-0.01, 1.01, 2.0])
def test_werner_range_check(lam):
    with pytest.raises(InvalidWeights):
        werner(lam)


def test_rho_b_bloch_form_over_valid_region():
    # a = b = t e_z and E = -k 1 everywhere the four weights are nonnegative
    for k in np.linspace(-1.0 / 3.0, 1.0, 20):
        half_width = (1.0 - k) / 2.0
        for t in np.linspace(-half_width, half_width, 20):
            rep = to_bloch(rho_b(k, t))
            assert np.abs(rep.a - np.array([0.0, 0.0, t])).max() < 1e-12
            assert np.abs(rep.b - np.array([0.0, 0.0, t])).max() < 1e-12
            assert np.abs(rep.E + k * np.eye(3)).max() < 1e-12


def test_rho_b_reference_point():
    state = rho_b(0.2, 0.4)
    assert abs(purity(state) - 0.36) < 1e-12
    spectrum = np.sort(np.linalg.eigvalsh(state.matrix))
    assert np.abs(spectrum - np.array([0.0, 0.2, 0.4, 0.4])).max() < 1e-12
    # the |11> weight sits exactly on the boundary of the family
    w = rho_b_weights(0.2, 0.4)
    assert abs(w["11"]) < 1e-15
    assert abs(w["psi_plus"] - 0.2) < 1e-15
    assert abs(w["psi_minus"] - 0.4) < 1e-15
    assert abs(w["00"] - 0.4) < 1e-15


@pytest.mark.parametrize("k,t,name", [
    (0.2, 0.6, "11"),        # t beyond (1-k)/2
    (0.2, -0.6, "00"),
    (-0.5, 0.0, "psi_minus"),
    (1.2, 0.0, "psi_plus"),
])
def test_rho_b_invalid_weights_name_component(k, t, name):
    with pytest.raises(InvalidWeights, match=name):
        rho_b(k, t)


def test_rho_b_matches_explicit_mixture():
    k, t = 0.3, 0.1
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    built = mix([
        ((1 - k) / 4, bell("psi_plus")),
        ((1 + 3 * k) / 4, bell("psi_minus")),
        ((1 + 2 * t - k) / 4, TwoQubitState(p00)),
        ((1 - 2 * t - k) / 4, TwoQubitState(p11)),
    ])
    assert np.abs(built.matrix - rho_b(k, t).matrix).max() < 1e-15


def test_mixture_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        mix([])
    with pytest.raises(ValueError, match="negative"):
        mix([(-0.1, bell("psi_plus")), (1.1, bell("psi_minus"))])
    with pytest.raises(ValueError, match="mixture weight"):
        mix([(float("nan"), bell("psi_plus")), (1.0, bell("psi_minus"))])
    with pytest.raises(ValueError, match="sum to"):
        mix([(0.5, bell("psi_plus")), (0.6, bell("psi_minus"))])


def test_mix_renormalizes_trace_exactly():
    # weights off from 1 by just under the tolerance still yield unit trace
    eps = 5e-10
    out = mix([(0.5 + eps, bell("psi_plus")), (0.5, maximally_mixed())])
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-15


def test_mix_is_linear_in_bloch_coordinates():
    rng = np.random.default_rng(4)
    for seed in range(20):
        weights = rng.dirichlet(np.ones(3))
        parts = [random_state(np.random.SeedSequence([seed, j])) for j in range(3)]
        got = to_bloch(mix(list(zip(weights, parts))))
        reps = [to_bloch(s) for s in parts]
        want_a = sum(w * r.a for w, r in zip(weights, reps))
        want_b = sum(w * r.b for w, r in zip(weights, reps))
        want_E = sum(w * r.E for w, r in zip(weights, reps))
        assert np.abs(got.a - want_a).max() < 1e-12
        assert np.abs(got.b - want_b).max() < 1e-12
        assert np.abs(got.E - want_E).max() < 1e-12


def test_zero_discord_bloch_structure():
    p = 0.3
    v = np.array([0.0, 1.0, 0.0])
    r1 = np.array([0.5, 0.0, 0.0])
    r2 = np.array([0.0, 0.0, 0.2])
    rho1 = 0.5 * np.array([[1 + r1[2], r1[0] - 1j * r1[1]],
                           [r1[0] + 1j * r1[1], 1 - r1[2]]])
    rho2 = 0.5 * np.array([[1 + r2[2], r2[0] - 1j * r2[1]],
                           [r2[0] + 1j * r2[1], 1 - r2[2]]])
    rep = to_bloch(zero_discord(p, v, rho1, rho2))
    assert np.abs(rep.a - (2 * p - 1) * v).max() < 1e-12
    assert np.abs(rep.b - (p * r1 + (1 - p) * r2)).max() < 1e-12
    assert np.abs(rep.E - np.outer(v, p * r1 - (1 - p) * r2)).max() < 1e-12


def test_zero_discord_validation():
    good = np.eye(2) / 2
    with pytest.raises(ValueError, match="p must be"):
        zero_discord(1.5, [0, 0, 1], good, good)
    with pytest.raises(ValueError, match="unit vector"):
        zero_discord(0.5, [0, 0, 2], good, good)
    with pytest.raises(ValueError, match="rho1 is not Hermitian"):
        zero_discord(0.5, [0, 0, 1], np.array([[0.5, 1j], [1j, 0.5]]), good)
    with pytest.raises(ValueError, match="rho2 does not have unit trace"):
        zero_discord(0.5, [0, 0, 1], good, np.eye(2))
    with pytest.raises(ValueError, match="rho1 is not positive"):
        zero_discord(0.5, [0, 0, 1], np.diag([1.5, -0.5]), good)


def test_haar_unitary_properties():
    rng = np.random.default_rng(7)
    for dim in (2, 4):
        u = haar_unitary(dim, rng)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12
    u1 = haar_unitary(4, np.random.default_rng(42))
    u2 = haar_unitary(4, np.random.default_rng(42))
    assert np.abs(u1 - u2).max() == 0.0


def test_haar_unitary_entries_have_zero_mean():
    # Haar gives E[U_00] = 0 and E|U_00|^2 = 1/4; without the phase fix of
    # the QR factors the mean is about 0.29
    rng = np.random.default_rng(0)
    n = 4000
    mean = np.mean([haar_unitary(4, rng)[0, 0] for _ in range(n)])
    assert abs(mean) <= 5.0 * np.sqrt(0.25 / n)


def test_random_state_rank_and_determinism():
    for rank in (1, 2, 3, 4):
        spectrum = np.sort(np.linalg.eigvalsh(random_state(5, rank=rank).matrix))
        assert np.abs(spectrum[:4 - rank]).max() < 1e-12 if rank < 4 else True
        assert spectrum[4 - rank] > 1e-12 or rank == 4
    a = random_state(11).matrix
    b = random_state(11).matrix
    assert np.abs(a - b).max() == 0.0
    with pytest.raises(ValueError, match="rank"):
        random_state(0, rank=5)


def test_random_zero_discord_valid_and_deterministic():
    for seed in range(20):
        random_zero_discord(seed)  # constructor validates
    a = random_zero_discord(3).matrix
    b = random_zero_discord(3).matrix
    assert np.abs(a - b).max() == 0.0


def test_random_mixed_marginals_has_zero_local_vectors():
    for seed in range(50):
        rep = to_bloch(random_mixed_marginals(seed))
        assert np.linalg.norm(rep.a) < 1e-9
        assert np.linalg.norm(rep.b) < 1e-9


def test_random_isotropic_has_equal_singular_values():
    for seed in range(50):
        rep = to_bloch(random_isotropic(seed))
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(rep.E.T @ rep.E), 0.0, None))
        assert sv[2] - sv[0] < 1e-9
