"""Tomography: outcome probabilities, Poisson sampling, linear inversion."""

import logging

import numpy as np
import pytest

from qrsp.qstate import purity, state_fidelity, to_bloch, su2_rotation
from qrsp.discord import geometric_discord
from qrsp.rsp import rsp_fidelity
from qrsp.states import bell, mix, random_state, rho_b, werner
from qrsp.tomo import (
    SETTINGS,
    CountRecord,
    EmptyCounts,
    MissingSetting,
    linear_inversion,
    measurement_probabilities,
    mixture_by_duration,
    perturb_local_rotation,
    sample_counts,
    sample_tomography,
)
from conftest import unitary_to_rotation

EZ = np.array([0.0, 0.0, 1.0])


def test_measurement_probabilities_reference():
    # three equal-axis settings of the lam = 1/3 state share one spectrum
    for k in (1, 2, 3):
        p = measurement_probabilities(werner(1.0 / 3.0), (k, k))
        assert np.abs(p - np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])).max() < 1e-12
    # cross-axis settings carry no signal for an isotropic E
    p = measurement_probabilities(werner(1.0 / 3.0), (1, 2))
    assert np.abs(p - 0.25).max() < 1e-12
    # the boundary state has one forbidden outcome on the z-z setting
    p = measurement_probabilities(rho_b(0.2, 0.4), (3, 3))
    assert np.abs(p - np.array([0.4, 0.3, 0.3, 0.0])).max() < 1e-12


def test_measurement_probabilities_normalized():
    rng = np.random.default_rng(1)
    for seed in range(30):
        state = random_state(seed)
        for setting in SETTINGS:
            p = measurement_probabilities(state, setting)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="setting axes"):
        measurement_probabilities(werner(0.5), (0, 1))


def test_sample_counts_poisson_moments():
    # fixed seeds; each outcome lands within 4 sigma of its Poisson mean
    mean_total = 10_000
    p = measurement_probabilities(werner(1.0 / 3.0), (3, 3))
    for seed in range(10):
        rec = sample_counts(werner(1.0 / 3.0), (3, 3), mean_total, seed)
        for c, mean in zip(rec.counts, mean_total * p):
            assert abs(c - mean) <= 4.0 * np.sqrt(mean)
    for bad in (0, np.nan, np.inf, 1e19):  # numpy's Poisson sampler stops near 9.2e18
        with pytest.raises(ValueError, match="mean_total"):
            sample_counts(werner(0.5), (1, 1), bad, 0)


def test_forbidden_outcome_never_counted():
    for seed in range(20):
        rec = sample_counts(rho_b(0.2, 0.4), (3, 3), 10_000, seed)
        assert rec.counts[3] == 0


def test_sample_tomography_streams_by_setting():
    records = sample_tomography(werner(0.6), 5000, seed=8)
    assert [r.setting for r in records] == list(SETTINGS)
    for r in records:
        direct = sample_counts(werner(0.6), r.setting, 5000,
                               np.random.SeedSequence([8, *r.setting]))
        assert direct.counts == r.counts


def test_count_record_validation():
    with pytest.raises(ValueError, match="setting axes"):
        CountRecord(setting=(0, 1), counts=(1, 2, 3, 4))
    with pytest.raises(ValueError, match="non-negative"):
        CountRecord(setting=(1, 1), counts=(1, -2, 3, 4))
    with pytest.raises(ValueError, match="four"):
        CountRecord(setting=(1, 1), counts=(1, 2, 3))


def test_linear_inversion_recovers_exact_frequencies():
    # counts proportional to the exact probabilities invert to the state
    scale = 10**12
    for seed in range(20):
        state = random_state(seed, rank=1 + seed % 4)
        records = []
        for setting in SETTINGS:
            p = measurement_probabilities(state, setting)
            records.append(CountRecord(setting=setting,
                                       counts=tuple(int(round(x * scale)) for x in p)))
        rebuilt = linear_inversion(records)
        truth = to_bloch(state)
        got = to_bloch(rebuilt)
        assert np.abs(got.a - truth.a).max() < 1e-9
        assert np.abs(got.b - truth.b).max() < 1e-9
        assert np.abs(got.E - truth.E).max() < 1e-9


def test_linear_inversion_validates_inputs():
    records = sample_tomography(werner(0.5), 1000, seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        linear_inversion(records + [records[0]])
    with pytest.raises(MissingSetting, match=r"\(3, 3\)"):
        linear_inversion(records[:-1])
    broken = records[:-1] + [CountRecord(setting=(3, 3), counts=(0, 0, 0, 0))]
    with pytest.raises(EmptyCounts, match=r"\(3, 3\)"):
        linear_inversion(broken)


def test_reconstruction_fidelity_at_bench_scale():
    # mean 1e4 counts per setting keeps fidelity above 0.99 almost surely
    hits = 0
    for seed in range(200):
        records = sample_tomography(werner(1.0 / 3.0), 10_000, seed)
        rebuilt = linear_inversion(records)
        if state_fidelity(rebuilt, werner(1.0 / 3.0)) > 0.99:
            hits += 1
    assert hits >= 190


def test_linear_inversion_unbiased_in_the_mean():
    # 500 reconstructions at mean 1e4: every E entry within 3 SEM of truth
    state = werner(1.0 / 3.0)
    truth = to_bloch(state).E
    samples = np.empty((500, 3, 3))
    for seed in range(500):
        samples[seed] = to_bloch(linear_inversion(
            sample_tomography(state, 10_000, seed))).E
    sem = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(samples.mean(axis=0) - truth) <= 3.0 * sem)


def test_psd_repair_logged(caplog):
    # a nearly pure state at low counts forces eigenvalue clipping
    state = werner(0.95)
    with caplog.at_level(logging.INFO, logger="qrsp.tomo"):
        for seed in range(5):
            rebuilt = linear_inversion(sample_tomography(state, 300, seed))
            assert np.linalg.eigvalsh(rebuilt.matrix)[0] >= -1e-12
    assert any("PSD repair" in r.message for r in caplog.records)


def test_psd_repair_rate_falls_with_counts(caplog):
    state = werner(0.95)

    def repair_rate(mean_total):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qrsp.tomo"):
            for seed in range(80):
                linear_inversion(sample_tomography(state, mean_total, seed))
        return sum("PSD repair" in r.message for r in caplog.records) / 80.0

    low, high = repair_rate(1000), repair_rate(100_000)
    assert low > 0.5
    assert high == 0.0


def test_mixture_by_duration_validation():
    for bad in (0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mean_rate"):
            mixture_by_duration([(werner(0.5), 1.0)], bad, 0)
    with pytest.raises(ValueError, match=r"mean_rate \* weight"):
        mixture_by_duration([(werner(0.5), 1e10)], 1e10, 0)
    with pytest.raises(ValueError, match="at least one"):
        mixture_by_duration([], 100, 0)
    with pytest.raises(ValueError, match="negative duration"):
        mixture_by_duration([(werner(0.5), -0.5)], 100, 0)
    for weights in ([1.0, np.nan], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="weight"):
            mixture_by_duration([(werner(0.5 + 0.1 * i), w) for i, w in enumerate(weights)],
                                100, 0)
    with pytest.raises(ValueError, match="sum to zero"):
        mixture_by_duration([(werner(0.5), 0.0)], 100, 0)


def test_mixture_by_duration_zero_weight_is_inert():
    a = mixture_by_duration([(werner(0.3), 1.0)], 2000, seed=5)
    b = mixture_by_duration([(werner(0.3), 1.0), (bell("phi_plus"), 0.0)],
                            2000, seed=5)
    assert [(r.setting, r.counts) for r in a] == [(r.setting, r.counts) for r in b]
    c = mixture_by_duration([(werner(0.3), 1.0)], 2000, seed=5)
    assert [(r.setting, r.counts) for r in a] == [(r.setting, r.counts) for r in c]


def test_single_component_mixture_matches_direct_sampling():
    # weight-1 mixtures and sample_counts draw from the same Poisson law;
    # empirical means over 300 seeds agree within 4 combined sigma
    state = werner(1.0 / 3.0)
    mean_total = 400.0
    p = measurement_probabilities(state, (3, 3))
    n = 300
    direct = np.zeros(4)
    mixed = np.zeros(4)
    for seed in range(n):
        direct += sample_counts(state, (3, 3), mean_total, seed).counts
        rec = next(r for r in mixture_by_duration([(state, 1.0)], mean_total, seed)
                   if r.setting == (3, 3))
        mixed += rec.counts
    sigma = np.sqrt(2.0 * mean_total * p / n)  # variance of a mean difference
    assert np.all(np.abs(direct / n - mixed / n) <= 4.0 * sigma)


def test_mixture_by_duration_reconstructs_blend():
    # equal dwell on psi+ and psi- looks like E = diag(0, 0, -1)
    records = mixture_by_duration(
        [(bell("psi_plus"), 0.5), (bell("psi_minus"), 0.5)], 10**6, seed=2)
    rep = to_bloch(linear_inversion(records))
    assert np.abs(rep.E - np.diag([0.0, 0.0, -1.0])).max() < 5e-3
    assert np.abs(rep.a).max() < 5e-3 and np.abs(rep.b).max() < 5e-3

    blend = mix([(0.7, rho_b(0.2, 0.4)), (0.3, werner(1.0 / 3.0))])
    records = mixture_by_duration(
        [(rho_b(0.2, 0.4), 0.7), (werner(1.0 / 3.0), 0.3)], 10**6, seed=4)
    assert state_fidelity(linear_inversion(records), blend) > 0.999


def test_perturb_identity_at_zero_angle():
    state = rho_b(0.2, 0.4)
    out = perturb_local_rotation(state, EZ, 0.0)
    assert np.abs(out.matrix - state.matrix).max() < 1e-12


def test_perturb_reference_rotation():
    # pi about z flips the x and y rows of Bob's frame
    lam = 1.0 / 3.0
    rep = to_bloch(perturb_local_rotation(werner(lam), EZ, np.pi))
    assert np.abs(rep.E - np.diag([lam, lam, -lam])).max() < 1e-12


def test_perturb_transforms_bloch_data():
    rng = np.random.default_rng(6)
    for seed in range(30):
        state = random_state(seed)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        R = unitary_to_rotation(su2_rotation(axis, angle))
        before = to_bloch(state)
        after = to_bloch(perturb_local_rotation(state, axis, angle))
        assert np.abs(after.a - before.a).max() < 1e-10
        assert np.abs(after.b - R @ before.b).max() < 1e-10
        assert np.abs(after.E - before.E @ R.T).max() < 1e-10


def test_perturb_preserves_invariants():
    rng = np.random.default_rng(12)
    for seed in range(10):
        state = random_state(seed)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        rotated = perturb_local_rotation(state, axis, rng.uniform(0, np.pi))
        assert abs(geometric_discord(rotated).value
                   - geometric_discord(state).value) < 1e-9
        assert abs(rsp_fidelity(rotated) - rsp_fidelity(state)) < 1e-9
        assert abs(purity(rotated) - purity(state)) < 1e-9
    with pytest.raises(ValueError, match="unit"):
        perturb_local_rotation(werner(0.5), [0, 0, 2], 0.3)
