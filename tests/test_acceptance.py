"""Acceptance gate: eleven numbered end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every check prints ACCEPTANCE nn PASS/FAIL before asserting.
"""

import time

import numpy as np

from qrsp.cli import quantities_of
from qrsp.qstate import (
    TwoQubitState,
    concurrence,
    mutual_information,
    purity,
    state_fidelity,
    to_bloch,
)
from qrsp.discord import geometric_discord, geometric_discord_oracle
from qrsp.rsp import (
    ProtocolConfig,
    ensemble_state,
    fibonacci_sphere,
    optimal_alpha,
    payoff,
    payoff_given_alpha,
    rsp_fidelity,
    rsp_fidelity_oracle,
    simulate,
    sweep,
)
from qrsp.states import (
    bell,
    haar_unitary,
    maximally_mixed,
    random_isotropic,
    random_mixed_marginals,
    random_state,
    random_zero_discord,
    rho_b,
    rho_b_weights,
    werner,
)
from qrsp.qstate import apply_local_unitaries
from qrsp.tomo import linear_inversion, mixture_by_duration, sample_tomography

from conftest import perp_pair, unit_vector

WERNER_THIRD = werner(1.0 / 3.0)
RHO_B_REF = rho_b(0.2, 0.4)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _payoff_profile(state, targets) -> np.ndarray:
    """Per-target analytic payoff |E s|^2 at the optimal measurement axis."""
    E = to_bloch(state).E
    return np.einsum("nk,nk->n", targets @ E.T, targets @ E.T)


def test_01_summary_table_ideal_values():
    start = time.perf_counter()
    expected = {
        "werner": (quantities_of(WERNER_THIRD),
                   {"discord": 1 / 9, "rsp_fidelity": 1 / 9,
                    "concurrence": 0.0, "purity": 1 / 3}),
        "rho_b": (quantities_of(RHO_B_REF),
                  {"discord": 0.04, "rsp_fidelity": 0.04,
                   "concurrence": 0.2, "purity": 0.36}),
    }
    dev = max(abs(rows[name] - want)
              for rows, wants in expected.values()
              for name, want in wants.items())
    elapsed = time.perf_counter() - start
    _verdict(1, dev <= 1e-9 and elapsed < 1.0,
             f"max table deviation {dev:.2e} (tol 1e-9), {elapsed:.2f}s")


def test_02_entanglement_does_not_order_payoff():
    start = time.perf_counter()
    cw, cb = concurrence(WERNER_THIRD), concurrence(RHO_B_REF)
    fw, fb = rsp_fidelity(WERNER_THIRD), rsp_fidelity(RHO_B_REF)
    ok = (abs(cw) <= 1e-12 and abs(cb - 0.2) <= 1e-12
          and abs(fw - 1 / 9) <= 1e-12 and abs(fb - 1 / 25) <= 1e-12
          and cw < cb and fw > fb)
    elapsed = time.perf_counter() - start
    _verdict(2, ok and elapsed < 1.0,
             f"concurrence {cw:.3g} < {cb:.3g} yet fidelity {fw:.4g} > {fb:.4g}, "
             f"{elapsed:.2f}s")


def test_03_target_sweep_ideal_and_noisy():
    start = time.perf_counter()
    targets = fibonacci_sphere(58)
    high = sweep(WERNER_THIRD, targets, shots=100, seed=0)
    low = sweep(RHO_B_REF, targets, shots=100, seed=0)
    dev = max(max(abs(r.payoff_analytic - 1 / 9) for r in high.records),
              max(abs(r.payoff_analytic - 0.04) for r in low.records),
              np.abs(high.delta_p(low) - 16 / 225).max())
    ideal_ok = dev <= 1e-12 and time.perf_counter() - start < 1.0

    hits = 0
    worst = np.inf
    for seed in range(100):
        rec_w = linear_inversion(sample_tomography(WERNER_THIRD, 1e4, seed))
        rec_b = linear_inversion(sample_tomography(RHO_B_REF, 1e4, 10_000 + seed))
        floor = (_payoff_profile(rec_w, targets)
                 - _payoff_profile(rec_b, targets)).min()
        worst = min(worst, floor)
        if floor > 0.043:
            hits += 1
    elapsed = time.perf_counter() - start
    _verdict(3, ideal_ok and hits >= 95 and elapsed < 120.0,
             f"ideal deviation {dev:.2e} (tol 1e-12); noisy min delta_p > 0.043 "
             f"in {hits}/100 seeds (worst {worst:.4f}), {elapsed:.1f}s")


def test_04_discord_oracle_matches_closed_form():
    start = time.perf_counter()
    max_gap = 0.0
    worst_dom = 0.0
    for i in range(100):
        state = random_state(i, rank=1 + i % 4)
        closed = geometric_discord(state).value
        found = geometric_discord_oracle(state)
        max_gap = max(max_gap, abs(found - closed))
        worst_dom = max(worst_dom, closed - found)
    elapsed = time.perf_counter() - start
    _verdict(4, max_gap <= 1e-3 and worst_dom <= 1e-6 and elapsed < 300.0,
             f"max |oracle-closed| {max_gap:.2e} (tol 1e-3), worst dominance "
             f"{worst_dom:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_05_fidelity_grid_matches_eigenvalue_form():
    start = time.perf_counter()
    max_gap = 0.0
    for i in range(100):
        state = random_state(i, rank=1 + i % 4)
        max_gap = max(max_gap, abs(rsp_fidelity_oracle(state, grid_points=10_000)
                                   - rsp_fidelity(state)))
    iso_gap = 0.0
    for i in range(50):
        state = random_isotropic(i)
        iso_gap = max(iso_gap, abs(rsp_fidelity_oracle(state, grid_points=10_000)
                                   - rsp_fidelity(state)))
    elapsed = time.perf_counter() - start
    _verdict(5, max_gap <= 5e-3 and iso_gap <= 1e-6 and elapsed < 60.0,
             f"grid gap {max_gap:.2e} (tol 5e-3), isotropic gap {iso_gap:.2e} "
             f"(tol 1e-6), {elapsed:.1f}s")


def test_06_protocol_path_identity_and_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    max_dev = 0.0
    worst_dom = 0.0
    for i in range(1000):
        state = random_state(i, rank=1 + i % 4)
        beta, s = perp_pair(rng)
        alpha = unit_vector(rng)
        via_vector = payoff(ensemble_state(state, alpha, beta), s)
        direct = payoff_given_alpha(state, alpha, s)
        max_dev = max(max_dev, abs(via_vector - direct))
        es = to_bloch(state).E @ s
        best = payoff_given_alpha(state, optimal_alpha(state, s), s)
        trials = rng.standard_normal((100, 3))
        trials /= np.linalg.norm(trials, axis=1)[:, None]
        worst_dom = max(worst_dom, float(((trials @ es) ** 2).max()) - best)
    elapsed = time.perf_counter() - start
    _verdict(6, max_dev <= 1e-12 and worst_dom <= 1e-12 and elapsed < 30.0,
             f"path identity deviation {max_dev:.2e} (tol 1e-12), best-alpha "
             f"margin {worst_dom:.2e}, {elapsed:.1f}s")


def test_07_monte_carlo_error_bars():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    covered = 0
    for i in range(500):
        state = random_state(i, rank=1 + i % 4)
        beta, s = perp_pair(rng)
        rec = simulate(state, ProtocolConfig(beta=beta, target=s),
                       shots=10**5, seed=i)
        if abs(rec.payoff_mc - rec.payoff_analytic) <= 4.0 * rec.stderr:
            covered += 1
    elapsed = time.perf_counter() - start
    _verdict(7, covered >= 495 and elapsed < 120.0,
             f"within 4 standard errors in {covered}/500 runs (need 495), "
             f"{elapsed:.1f}s")


def test_08_fidelity_equals_discord_on_special_class():
    start = time.perf_counter()
    max_gap = 0.0
    for i in range(250):
        for state in (random_mixed_marginals(i), random_isotropic(1000 + i)):
            max_gap = max(max_gap, abs(rsp_fidelity(state)
                                       - geometric_discord(state).value))
    implication_ok = True
    for i in range(1000):
        state = random_state(i, rank=1 + i % 4)
        if rsp_fidelity(state) > 1e-9 and geometric_discord(state).value <= 1e-9:
            implication_ok = False
    elapsed = time.perf_counter() - start
    _verdict(8, max_gap <= 1e-9 and implication_ok and elapsed < 60.0,
             f"|fidelity - discord| {max_gap:.2e} on 500 special-class states "
             f"(tol 1e-9); positivity implication holds on 1000 states, "
             f"{elapsed:.1f}s")


def test_09_zero_discord_states_score_zero():
    start = time.perf_counter()
    max_d = 0.0
    max_f = 0.0
    for i in range(1000):
        state = random_zero_discord(i)
        max_d = max(max_d, geometric_discord(state).value)
        max_f = max(max_f, rsp_fidelity(state))
    elapsed = time.perf_counter() - start
    _verdict(9, max_d <= 1e-9 and max_f <= 1e-12 and elapsed < 30.0,
             f"max discord {max_d:.2e} (tol 1e-9), max fidelity {max_f:.2e} "
             f"(tol 1e-12) on 1000 states, {elapsed:.1f}s")


def test_10_local_unitary_invariance():
    start = time.perf_counter()
    pool = [WERNER_THIRD, RHO_B_REF] + [random_state(i) for i in range(18)]
    base_vals = [(geometric_discord(s).value, rsp_fidelity(s), concurrence(s),
                  purity(s), mutual_information(s)) for s in pool]
    rng = np.random.default_rng(5)
    max_dev = 0.0
    for i in range(1000):
        j = i % len(pool)
        rotated = apply_local_unitaries(pool[j], haar_unitary(2, rng),
                                        haar_unitary(2, rng))
        vals = (geometric_discord(rotated).value, rsp_fidelity(rotated),
                concurrence(rotated), purity(rotated),
                mutual_information(rotated))
        max_dev = max(max_dev, max(abs(x - y) for x, y in zip(vals, base_vals[j])))
    elapsed = time.perf_counter() - start
    _verdict(10, max_dev <= 1e-9 and elapsed < 30.0,
             f"max invariant drift {max_dev:.2e} over 1000 local unitaries "
             f"(tol 1e-9), {elapsed:.1f}s")


def test_11_duration_weighted_tomography_fidelity():
    start = time.perf_counter()
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    w = rho_b_weights(0.2, 0.4)
    preparations = {
        "werner": (WERNER_THIRD,
                   [(bell("psi_minus"), 1 / 3), (maximally_mixed(), 2 / 3)]),
        "rho_b": (RHO_B_REF,
                  [(bell("psi_plus"), w["psi_plus"]),
                   (bell("psi_minus"), w["psi_minus"]),
                   (TwoQubitState(p00), w["00"]),
                   (TwoQubitState(p11), max(0.0, w["11"]))]),
    }
    rates = {}
    for name, (ideal, components) in preparations.items():
        hits = 0
        for seed in range(200):
            rebuilt = linear_inversion(mixture_by_duration(components, 1e5, seed))
            if state_fidelity(rebuilt, ideal) > 0.99:
                hits += 1
        rates[name] = hits
    elapsed = time.perf_counter() - start
    ok = all(h >= 190 for h in rates.values()) and elapsed < 120.0
    _verdict(11, ok,
             f"fidelity > 0.99 in {rates['werner']}/200 (werner) and "
             f"{rates['rho_b']}/200 (rho_b) seeds (need 190), {elapsed:.1f}s")
