"""Protocol algebra, fidelity oracle, Monte Carlo sampling, sweeps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrsp.qstate import BlochRep, from_bloch, to_bloch
from qrsp.states import (
    bell,
    maximally_mixed,
    random_state,
    rho_b,
    werner,
    zero_discord,
)
from qrsp.rsp import (
    ProtocolConfig,
    SweepRecord,
    SweepResult,
    ZeroProbabilityBranch,
    _fibonacci_grid,
    apply_correction,
    average_payoff,
    beta_for_target,
    bob_conditional_state,
    ensemble_state,
    fibonacci_sphere,
    optimal_alpha,
    outcome_probability,
    payoff,
    payoff_given_alpha,
    rsp_fidelity,
    rsp_fidelity_oracle,
    run_round,
    simulate,
    sweep,
    worst_beta,
)
from conftest import drawn_states, perp_pair, unit_vector

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def _x_correlated():
    # a = b = 0 with a single strong correlation axis
    return from_bloch(BlochRep(a=np.zeros(3), b=np.zeros(3),
                               E=np.diag([0.9, 0.0, 0.0])))


def test_outcome_probability_reference():
    state = rho_b(0.2, 0.4)
    assert abs(outcome_probability(state, EZ, 1) - 0.7) < 1e-12
    assert abs(outcome_probability(state, EZ, -1) - 0.3) < 1e-12
    with pytest.raises(ValueError, match="outcome"):
        outcome_probability(state, EZ, 0)
    with pytest.raises(ValueError, match="unit vector"):
        outcome_probability(state, [0, 0, 2], 1)


def test_bob_conditional_reference():
    state = rho_b(0.2, 0.4)
    plus = bob_conditional_state(state, EZ, 1)
    minus = bob_conditional_state(state, EZ, -1)
    assert np.abs(plus - np.array([0, 0, 1.0 / 7.0])).max() < 1e-12
    assert np.abs(minus - EZ).max() < 1e-12  # the rare branch is pure


def test_bob_conditional_zero_probability_branch():
    # a = +z exactly, so the -1 branch along z never occurs
    state = zero_discord(1.0, EZ, np.eye(2) / 2, np.eye(2) / 2)
    with pytest.raises(ZeroProbabilityBranch):
        bob_conditional_state(state, EZ, -1)


def test_apply_correction_geometry():
    assert np.abs(apply_correction(EX, EZ) + EX).max() < 1e-12
    assert np.abs(apply_correction(EZ, EZ) - EZ).max() < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(20):
        beta = unit_vector(rng)
        v = rng.standard_normal(3)
        twice = apply_correction(apply_correction(v, beta), beta)
        assert np.abs(twice - v).max() < 1e-12
        assert abs(apply_correction(v, beta) @ beta - v @ beta) < 1e-12


def test_ensemble_state_plane_projection():
    # in-plane part of r equals the in-plane part of E^T alpha, any state
    rng = np.random.default_rng(5)
    for seed in range(50):
        state = random_state(seed)
        rep = to_bloch(state)
        alpha = unit_vector(rng)
        beta = unit_vector(rng)
        r = ensemble_state(state, alpha, beta)
        lhs = r - (r @ beta) * beta
        ea = rep.E.T @ alpha
        rhs = ea - (ea @ beta) * beta
        assert np.abs(lhs - rhs).max() < 1e-12


def test_ensemble_state_skips_dead_branch():
    r1 = np.array([0.3, 0.0, 0.1])
    rho1 = 0.5 * np.array([[1 + r1[2], r1[0]], [r1[0], 1 - r1[2]]])
    state = zero_discord(1.0, EZ, rho1, np.eye(2) / 2)
    r = ensemble_state(state, EZ, EX)
    assert np.abs(r - r1).max() < 1e-12


def test_two_path_payoff_identity():
    # ensemble-vector payoff vs the direct (alpha . E s)^2 expression
    rng = np.random.default_rng(11)
    for seed in range(200):
        state = random_state(seed, rank=1 + seed % 4)
        beta, s = perp_pair(rng)
        alpha = unit_vector(rng)
        via_ensemble = payoff(ensemble_state(state, alpha, beta), s)
        direct = payoff_given_alpha(state, alpha, s)
        assert abs(via_ensemble - direct) < 1e-12


def test_optimal_alpha_maximizes():
    rng = np.random.default_rng(7)
    for seed in range(30):
        state = random_state(seed)
        s = unit_vector(rng)
        best = payoff_given_alpha(state, optimal_alpha(state, s), s)
        for _ in range(20):
            assert best >= payoff_given_alpha(state, unit_vector(rng), s) - 1e-12


def test_optimal_alpha_degenerate_convention():
    assert np.abs(optimal_alpha(maximally_mixed(), EZ) - EX).max() == 0.0


def test_average_payoff_reference():
    state = _x_correlated()
    assert abs(average_payoff(state, EZ) - 0.405) < 1e-12
    assert abs(average_payoff(state, EX) - 0.0) < 1e-12
    for lam in (0.2, 0.8):
        assert abs(average_payoff(werner(lam), EZ) - lam**2) < 1e-12


def test_average_payoff_matches_ring_quadrature():
    # equal-angle averaging is exact for the quadratic integrand
    rng = np.random.default_rng(3)
    for seed in range(10):
        state = random_state(seed)
        beta = unit_vector(rng)
        u = unit_vector(rng)
        u = u - (u @ beta) * beta
        u /= np.linalg.norm(u)
        w = np.cross(beta, u)
        angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
        ring = np.outer(np.cos(angles), u) + np.outer(np.sin(angles), w)
        vals = [payoff_given_alpha(state, optimal_alpha(state, s), s)
                for s in ring]
        assert abs(np.mean(vals) - average_payoff(state, beta)) < 1e-12


def test_worst_beta_minimizes():
    rng = np.random.default_rng(13)
    for seed in range(30):
        state = random_state(seed)
        floor = average_payoff(state, worst_beta(state))
        assert abs(floor - rsp_fidelity(state)) < 1e-12
        for _ in range(20):
            assert average_payoff(state, unit_vector(rng)) >= floor - 1e-12


def test_rsp_fidelity_reference_values():
    for lam in np.linspace(0.0, 1.0, 11):
        assert abs(rsp_fidelity(werner(lam)) - lam**2) < 1e-12
    assert abs(rsp_fidelity(rho_b(0.2, 0.4)) - 0.04) < 1e-12
    assert abs(rsp_fidelity(bell("psi_minus")) - 1.0) < 1e-12
    assert abs(rsp_fidelity(_x_correlated()) - 0.0) < 1e-12
    assert abs(rsp_fidelity(maximally_mixed()) - 0.0) < 1e-12


def test_fidelity_oracle_brackets_closed_form():
    for seed in range(20):
        state = random_state(seed)
        exact = rsp_fidelity(state)
        gridded = rsp_fidelity_oracle(state, grid_points=10000)
        assert gridded >= exact - 1e-12
        assert gridded <= exact + 5e-3
    # isotropic E: every beta is worst, the grid is exact
    for k, t in [(0.2, 0.4), (-0.3, 0.05), (0.7, 0.1)]:
        state = rho_b(k, t)
        assert abs(rsp_fidelity_oracle(state, grid_points=100)
                   - rsp_fidelity(state)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(rho=drawn_states(), n=st.integers(1, 2000))
def test_fidelity_oracle_is_the_minimum_average_payoff_on_its_grid(rho, n):
    grid_min = min(average_payoff(rho, beta) for beta in fibonacci_sphere(n))
    assert abs(rsp_fidelity_oracle(rho, grid_points=n) - grid_min) <= 1e-15


def test_protocol_config_validation():
    ProtocolConfig(beta=EZ, target=EX)  # fine
    ProtocolConfig(beta=EZ, target=EX, alpha=EX)
    with pytest.raises(ValueError, match="beta"):
        ProtocolConfig(beta=[0, 0, 0.5], target=EX)
    with pytest.raises(ValueError, match="target"):
        ProtocolConfig(beta=EZ, target=[1, 1, 1])
    with pytest.raises(ValueError, match="orthogonal"):
        ProtocolConfig(beta=EZ, target=EZ)
    with pytest.raises(ValueError, match="alpha"):
        ProtocolConfig(beta=EZ, target=EX, alpha=[2, 0, 0])


def test_run_round_consistency():
    config = ProtocolConfig(beta=EZ, target=EX)
    state = rho_b(0.2, 0.4)
    for seed in range(20):
        rnd = run_round(state, config, np.random.default_rng(seed))
        assert rnd.outcome in (1, -1)
        expect = bob_conditional_state(state, rnd.alpha_hat, rnd.outcome)
        assert np.abs(rnd.bob_conditional - expect).max() < 1e-12
        if rnd.outcome == -1:
            expect = apply_correction(expect, EZ)
        assert np.abs(rnd.corrected - expect).max() < 1e-12


def test_simulate_exact_when_branches_coincide():
    # for werner the corrected branches agree, so the MC payoff is exact
    config = ProtocolConfig(beta=EZ, target=EX)
    rec = simulate(werner(1.0 / 3.0), config, shots=10**6, seed=0)
    assert rec.payoff_mc == rec.payoff_analytic
    assert rec.stderr == 0.0
    assert abs(rec.payoff_analytic - 1.0 / 9.0) < 1e-12


def test_simulate_single_shot_hits_a_branch():
    state = random_state(1)
    config = ProtocolConfig(beta=EZ, target=EX)
    alpha = optimal_alpha(state, EX)
    b_plus = bob_conditional_state(state, alpha, 1)
    b_minus = apply_correction(bob_conditional_state(state, alpha, -1), EZ)
    options = {payoff(b_plus, EX), payoff(b_minus, EX)}
    for seed in range(10):
        rec = simulate(state, config, shots=1, seed=seed)
        assert min(abs(rec.payoff_mc - o) for o in options) < 1e-12


def test_simulate_deterministic_and_validates():
    config = ProtocolConfig(beta=EZ, target=EX)
    a = simulate(rho_b(0.2, 0.4), config, shots=1000, seed=42)
    b = simulate(rho_b(0.2, 0.4), config, shots=1000, seed=42)
    assert a.payoff_mc == b.payoff_mc and a.stderr == b.stderr
    with pytest.raises(ValueError, match="shots"):
        simulate(rho_b(0.2, 0.4), config, shots=0, seed=0)


def test_simulate_error_bars_cover():
    config = ProtocolConfig(beta=EZ, target=EX)
    for seed in range(10):
        state = random_state(seed)
        rec = simulate(state, config, shots=10**5, seed=seed)
        assert abs(rec.payoff_mc - rec.payoff_analytic) <= 4.0 * rec.stderr + 1e-12


def test_sweep_reference_separation():
    targets = fibonacci_sphere(58)
    high = sweep(werner(1.0 / 3.0), targets, shots=1000, seed=0)
    low = sweep(rho_b(0.2, 0.4), targets, shots=1000, seed=0)
    gaps = high.delta_p(low)
    assert np.abs(gaps - 16.0 / 225.0).max() < 1e-12


def test_isotropic_payoff_independent_of_target():
    targets = fibonacci_sphere(30)
    for k, t in [(0.2, 0.4), (-0.3, 0.1), (0.6, 0.0)]:
        result = sweep(rho_b(k, t), targets, shots=100, seed=0)
        payoffs = np.array([r.payoff_analytic for r in result.records])
        assert np.abs(payoffs - k**2).max() < 1e-12


def test_sweep_extreme_states():
    targets = fibonacci_sphere(20)
    singlet = sweep(bell("psi_minus"), targets, shots=100, seed=1)
    for rec in singlet.records:
        assert abs(rec.payoff_analytic - 1.0) < 1e-12
    noise = sweep(maximally_mixed(), targets, shots=100, seed=1)
    for rec in noise.records:
        assert rec.payoff_analytic == 0.0
        assert rec.payoff_mc == 0.0


def test_sweep_deterministic():
    targets = fibonacci_sphere(11)
    a = sweep(rho_b(0.2, 0.4), targets, shots=500, seed=9)
    b = sweep(rho_b(0.2, 0.4), targets, shots=500, seed=9)
    assert a.to_csv() == b.to_csv()


def _reference_sweep(rho, targets, shots, seed) -> SweepResult:
    """sweep by its per-target definition: 1-D `@`, np.linalg.norm, Python
    floats and one default_rng(SeedSequence([seed, i])) draw per target."""
    rep = to_bloch(rho)
    records = []
    for i, s in enumerate(targets):
        cross = np.array([-s[1], s[0], 0.0])
        n = np.linalg.norm(cross)
        beta = EX.copy() if n < 1e-9 else cross / n
        es = rep.E @ s
        n = np.linalg.norm(es)
        alpha = EX if n <= 1e-12 else es / n
        branches = []
        for outcome in (1, -1):
            p = 0.5 * (1.0 + outcome * (alpha @ rep.a))
            vec = np.zeros(3)
            if p > 1e-12:
                vec = (rep.b + outcome * (rep.E.T @ alpha)) / (2.0 * p)
                if outcome == -1:
                    vec = 2.0 * (vec @ beta) * beta - vec
            branches.append((p, vec))
        (p_plus, b_plus), (_, b_minus) = branches
        p_plus = float(np.clip(p_plus, 0.0, 1.0))
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        f = int(rng.binomial(shots, p_plus)) / shots
        base = float(b_minus @ s)
        step = float((b_plus - b_minus) @ s)
        if abs(step) <= 1e-12:
            step = 0.0
        g = base + f * step
        stderr = abs(2.0 * g * step) * np.sqrt(f * (1.0 - f) / shots)
        records.append(SweepRecord(target=s, beta=beta,
                                   payoff_analytic=float((base + p_plus * step) ** 2),
                                   payoff_mc=float(g ** 2), stderr=float(stderr),
                                   shots=shots))
    return SweepResult(records)


@st.composite
def _pure_products(draw):
    """|u><u| x |v><v| from two drawn Bloch directions: a branch along the
    optimal axis has probability 0, or within rounding of it."""
    u, v = (np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
            for _ in range(2))
    norms = np.linalg.norm(u), np.linalg.norm(v)
    assume(min(norms) > 1e-3)
    u, v = u / norms[0], v / norms[1]
    return from_bloch(BlochRep(a=u, b=v, E=np.outer(u, v)))


_AXES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@settings(max_examples=300, deadline=None)
@given(rho=st.one_of(drawn_states(), _pure_products(),
                     st.builds(random_state, st.integers(0, 2**32 - 1),
                               rank=st.integers(1, 4))),
       n=st.integers(1, 64),
       shots=st.integers(1, 10**6), seed=st.integers(0, 2**32 - 1))
def test_sweep_bit_identical_to_per_target_reference(rho, n, shots, seed):
    targets = np.vstack([fibonacci_sphere(n), _AXES])
    batched = sweep(rho, targets, shots, seed)
    reference = _reference_sweep(rho, targets, shots, seed)
    assert batched.to_csv() == reference.to_csv()
    assert np.array_equal([r.beta for r in batched.records],
                          [r.beta for r in reference.records])


def _reference_ensemble_state(rho, alpha, beta) -> np.ndarray:
    """ensemble_state as a loop over the two outcomes with the one-axis
    formulas, skipping a branch of probability <= 1e-12."""
    rep = to_bloch(rho)
    r = np.zeros(3)
    for outcome in (1, -1):
        p = 0.5 * (1.0 + outcome * (alpha @ rep.a))
        if p <= 1e-12:
            continue
        vec = (rep.b + outcome * (rep.E.T @ alpha)) / (2.0 * p)
        if outcome == -1:
            vec = 2.0 * (vec @ beta) * beta - vec
        r = r + p * vec
    return r


_UNIT = (st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)
         .filter(lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v)))


@settings(max_examples=300, deadline=None)
@given(rho=st.one_of(drawn_states(), _pure_products()), alpha=_UNIT, beta=_UNIT,
       along_a=st.sampled_from([0, 1, -1]))
def test_ensemble_state_bit_identical_to_branch_loop(rho, alpha, beta, along_a):
    a = to_bloch(rho).a
    if along_a and np.linalg.norm(a) > 1e-6:  # one branch of a pure product is dead
        alpha = along_a * a / np.linalg.norm(a)
    assert np.array_equal(ensemble_state(rho, alpha, beta),
                          _reference_ensemble_state(rho, alpha, beta))


def test_sweep_rejects_bad_targets():
    state = rho_b(0.2, 0.4)
    targets = fibonacci_sphere(5)
    targets[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="unit vector"):
        sweep(state, targets, shots=10, seed=0)
    with pytest.raises(ValueError, match="unit vector"):
        sweep(state, [[np.nan, 0.0, 0.0]], shots=10, seed=0)
    with pytest.raises(ValueError, match="shape"):
        sweep(state, np.ones((4, 2)) / np.sqrt(2.0), shots=10, seed=0)


def test_sweep_csv_round_trip():
    targets = fibonacci_sphere(7)
    result = sweep(random_state(3), targets, shots=100, seed=4)
    text = result.to_csv()
    back = SweepResult.from_csv(text)
    for r1, r2 in zip(result.records, back.records):
        assert np.abs(r1.target - r2.target).max() == 0.0
        assert np.abs(r1.beta - r2.beta).max() == 0.0
        assert r1.payoff_analytic == r2.payoff_analytic
        assert r1.payoff_mc == r2.payoff_mc
        assert r1.stderr == r2.stderr
        assert r1.shots == r2.shots
    assert back.to_csv() == text


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=9, max_size=9),
    st.integers(1, 10**12)), max_size=12))
def test_sweep_csv_round_trip_is_exact(rows):
    result = SweepResult(tuple(
        SweepRecord(target=np.array(v[0:3]), beta=np.array(v[3:6]), payoff_analytic=v[6],
                    payoff_mc=v[7], stderr=v[8], shots=shots) for v, shots in rows))
    back = SweepResult.from_csv(result.to_csv())
    assert len(back.records) == len(result.records)
    for r1, r2 in zip(result.records, back.records):
        assert np.array_equal(r1.target, r2.target)
        assert np.array_equal(r1.beta, r2.beta)
        assert (r1.payoff_analytic, r1.payoff_mc, r1.stderr, r1.shots) == \
            (r2.payoff_analytic, r2.payoff_mc, r2.stderr, r2.shots)


def test_sweep_csv_header_checked():
    with pytest.raises(ValueError, match="header"):
        SweepResult.from_csv("nope\n1,2,3\n")


def test_delta_p_validates():
    targets = fibonacci_sphere(5)
    a = sweep(werner(0.5), targets, shots=10, seed=0)
    b = sweep(werner(0.5), fibonacci_sphere(6), shots=10, seed=0)
    with pytest.raises(ValueError, match="lengths"):
        a.delta_p(b)
    c = sweep(werner(0.5), -targets, shots=10, seed=0)
    with pytest.raises(ValueError, match="different targets"):
        a.delta_p(c)


def test_fibonacci_sphere_coverage():
    pts = fibonacci_sphere(58)
    assert pts.shape == (58, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    min_angle = np.degrees(np.arccos(dots.max()))
    assert min_angle > 10.0
    assert np.linalg.norm(pts.mean(axis=0)) < 0.05
    assert pts[:, 2].max() > 0.9 and pts[:, 2].min() < -0.9
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_oracles_share_one_read_only_grid():
    _fibonacci_grid.cache_clear()
    rsp_fidelity_oracle(werner(0.5), grid_points=333)
    rsp_fidelity_oracle(rho_b(0.2, 0.4), grid_points=333)
    info = _fibonacci_grid.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    grid = _fibonacci_grid(333)
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 0.0
    public = fibonacci_sphere(333)
    assert np.array_equal(public, grid) and public.flags.writeable
    assert fibonacci_sphere(333) is not public


def test_beta_for_target_policy():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = unit_vector(rng)
        beta = beta_for_target(s)
        assert abs(np.linalg.norm(beta) - 1.0) < 1e-12
        assert abs(beta @ s) < 1e-9
        assert beta[2] == 0.0  # lies in the equatorial plane
    assert np.abs(beta_for_target(EZ) - EX).max() == 0.0
    assert np.abs(beta_for_target(-EZ) - EX).max() == 0.0
    assert np.abs(beta_for_target([1e-12, 0, 1]) - EX).max() == 0.0
