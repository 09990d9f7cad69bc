"""Representation conversions, canonical form and scalar measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsp import discord, qstate, rsp, states
from qrsp.qstate import (
    BlochRep,
    NotAState,
    NotHermitian,
    NotPositive,
    NotUnitTrace,
    TwoQubitState,
    apply_local_unitaries,
    bloch_matrix,
    concurrence,
    from_bloch,
    load_state_file,
    mutual_information,
    partial_trace,
    purity,
    save_state_file,
    schmidt_canonical,
    state_fidelity,
    su2_rotation,
    to_bloch,
    unitary_to_rotation,
    von_neumann_entropy,
)
from conftest import drawn_states

# frozen reference values
ENTROPY_WERNER_THIRD = 1.792481250360578  # 1/2 + (1/2) log2(6), spectrum {1/2, 1/6 x3}
MI_WERNER_THIRD = 2.0 - ENTROPY_WERNER_THIRD


def test_pauli_constants():
    for s in qstate.PAULIS:
        np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)
        assert abs(np.trace(s)) < 1e-15
    np.testing.assert_allclose(
        qstate.SIGMA_X @ qstate.SIGMA_Y - qstate.SIGMA_Y @ qstate.SIGMA_X,
        2j * qstate.SIGMA_Z, atol=1e-15)


def test_to_bloch_singlet():
    rep = to_bloch(states.bell("psi_minus"))
    np.testing.assert_allclose(rep.a, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.b, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.E, -np.eye(3), atol=1e-12)


@pytest.mark.parametrize("kind,diag", [
    ("psi_plus", (1.0, 1.0, -1.0)),
    ("psi_minus", (-1.0, -1.0, -1.0)),
    ("phi_plus", (1.0, -1.0, 1.0)),
    ("phi_minus", (-1.0, 1.0, 1.0)),
])
def test_bell_correlation_tensors(kind, diag):
    rep = to_bloch(states.bell(kind))
    np.testing.assert_allclose(rep.E, np.diag(diag), atol=1e-12)


def test_to_bloch_rejects_invalid_input():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.2  # not Hermitian
    with pytest.raises(NotHermitian):
        to_bloch(bad)
    with pytest.raises(NotUnitTrace):
        to_bloch(np.eye(4, dtype=complex))
    with pytest.raises(NotPositive):
        to_bloch(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_psd_tolerance_accepts_rounding_noise():
    m = np.diag([0.6, 0.4 + 5e-10, -5e-10, 0.0]).astype(complex)
    TwoQubitState(m)  # eigenvalue -5e-10 is inside the -1e-9 tolerance
    with pytest.raises(NotPositive):
        TwoQubitState(np.diag([0.6, 0.4 + 5e-6, -5e-6, 0.0]).astype(complex))


def test_round_trip_seeded_states():
    for i in range(1000):
        rho = states.random_state(np.random.SeedSequence([100, i]), rank=1 + i % 4)
        rep = to_bloch(rho)
        back = from_bloch(rep)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)


def _to_bloch_reference(m: np.ndarray) -> tuple:
    """(a, b, E) by one trace per Pauli product, in the order of the 15 einsums
    that to_bloch's single batched einsum replaced."""
    i2 = qstate.IDENTITY_2
    a = np.array([np.einsum("ij,ji->", np.kron(s, i2), m).real for s in qstate.PAULIS])
    b = np.array([np.einsum("ij,ji->", np.kron(i2, s), m).real for s in qstate.PAULIS])
    E = np.array([[np.einsum("ij,ji->", np.kron(sa, sb), m).real for sb in qstate.PAULIS]
                  for sa in qstate.PAULIS])
    return a, b, E


@settings(max_examples=300, deadline=None)
@given(rho=drawn_states())
def test_to_bloch_bit_identical_to_per_operator_traces(rho):
    rep = to_bloch(rho)
    a, b, E = _to_bloch_reference(rho.matrix)
    assert np.array_equal(rep.a, a)
    assert np.array_equal(rep.b, b)
    assert np.array_equal(rep.E, E)


@settings(max_examples=200, deadline=None)
@given(rho=drawn_states())
def test_from_bloch_inverts_to_bloch(rho):
    np.testing.assert_allclose(from_bloch(to_bloch(rho)).matrix, rho.matrix,
                               rtol=0.0, atol=1e-12)


def test_from_bloch_rejects_unphysical():
    rep = BlochRep(a=np.zeros(3), b=np.zeros(3), E=np.eye(3))
    with pytest.raises(NotAState):
        from_bloch(rep)
    # the offending assembly is SWAP/2, lowest eigenvalue exactly -1/2
    m = bloch_matrix(np.zeros(3), np.zeros(3), np.eye(3))
    assert abs(np.linalg.eigvalsh(m)[0] + 0.5) < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_state_error(value, tmp_path):
    m = np.eye(4, dtype=complex) / 4.0
    m[1, 2] = m[2, 1] = value
    with pytest.raises(qstate.StateError, match="non-finite"):
        TwoQubitState(m)
    with pytest.raises(qstate.StateError, match="non-finite"):
        TwoQubitState(np.full((4, 4), value))
    # from_bloch refuses non-finite coefficients before it assembles a matrix
    with pytest.raises(NotAState, match="non-finite"):
        from_bloch(BlochRep(a=np.zeros(3), b=np.zeros(3), E=np.diag([value, 0.0, 0.0])))
    doc = tmp_path / "state.json"
    doc.write_text('{"bloch": {"a": [0, 0, 0], "b": [0, %s, 0], '
                   '"E": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}'
                   % {np.nan: "NaN", np.inf: "Infinity", -np.inf: "-Infinity"}[value])
    with pytest.raises(qstate.StateError):
        load_state_file(doc)
    for make in (lambda: states.werner(value), lambda: states.rho_b(value, 0.0),
                 lambda: states.rho_b(0.0, value)):
        with pytest.raises(states.InvalidWeights):
            make()


def test_bloch_rep_bounds():
    # BlochRep only holds the numbers; from_bloch is what refuses |a| > 1 or |E_kl| > 1
    with pytest.raises(NotAState):
        from_bloch(BlochRep(a=np.array([1.1, 0, 0]), b=np.zeros(3), E=np.zeros((3, 3))))
    with pytest.raises(NotAState):
        from_bloch(BlochRep(a=np.zeros(3), b=np.zeros(3), E=1.2 * np.eye(3)))


def test_schmidt_canonical_examples():
    form = schmidt_canonical(to_bloch(states.werner(0.7)).E)
    np.testing.assert_allclose(form.singular_values, [0.7, 0.7, 0.7], atol=1e-12)
    form = schmidt_canonical(np.diag([0.9, 0.0, 0.0]))
    np.testing.assert_allclose(form.singular_values, [0.9, 0.0, 0.0], atol=1e-12)


def test_schmidt_canonical_random():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        E = rng.uniform(-1.0, 1.0, size=(3, 3))
        form = schmidt_canonical(E)
        sv = form.singular_values
        assert sv[0] >= sv[1] >= sv[2] >= 0.0
        for rot in (form.rot_a, form.rot_b):
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-10)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-10
        np.testing.assert_allclose(form.rot_a @ E @ form.rot_b.T,
                                   form.signs @ np.diag(sv), atol=1e-9)
        # independent route: eigenvalues of E^T E
        ref = np.sqrt(np.clip(np.linalg.eigvalsh(E.T @ E), 0.0, None))[::-1]
        np.testing.assert_allclose(sv, ref, atol=1e-9)


def test_purity_values():
    assert abs(purity(states.maximally_mixed()) - 0.25) < 1e-12
    assert abs(purity(states.werner(1 / 3)) - 1 / 3) < 1e-12
    assert abs(purity(states.rho_b(0.2, 0.4)) - 0.36) < 1e-12
    for i in range(50):
        p = purity(states.random_state(np.random.SeedSequence([3, i]), rank=1 + i % 4))
        assert 0.25 - 1e-12 <= p <= 1.0 + 1e-12


def test_state_fidelity_values():
    w = states.werner(0.3)
    assert abs(state_fidelity(w, w) - 1.0) < 1e-12
    assert state_fidelity(states.bell("psi_plus"), states.bell("psi_minus")) < 1e-12
    f = state_fidelity(states.maximally_mixed(), states.bell("phi_plus"))
    assert abs(f - 0.25) < 1e-12


def test_state_fidelity_symmetric():
    for i in range(20):
        r1 = states.random_state(np.random.SeedSequence([4, i]), rank=1 + i % 4)
        r2 = states.random_state(np.random.SeedSequence([5, i]), rank=4)
        assert abs(state_fidelity(r1, r2) - state_fidelity(r2, r1)) < 1e-10
        assert -1e-12 <= state_fidelity(r1, r2) <= 1.0 + 1e-12


def test_entropy_values():
    assert von_neumann_entropy(states.bell("phi_minus")) < 1e-9
    assert abs(von_neumann_entropy(states.maximally_mixed()) - 2.0) < 1e-12
    assert abs(von_neumann_entropy(states.werner(1 / 3)) - ENTROPY_WERNER_THIRD) < 1e-12
    assert abs(von_neumann_entropy(np.eye(2) / 2.0) - 1.0) < 1e-12


def test_partial_trace():
    rho = TwoQubitState(np.diag([1.0, 0, 0, 0]).astype(complex))  # |00><00|
    np.testing.assert_allclose(partial_trace(rho, "A"), np.diag([1.0, 0]), atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, "B"), np.diag([1.0, 0]), atol=1e-12)
    red = partial_trace(states.rho_b(0.2, 0.4), "A")
    np.testing.assert_allclose(red, 0.5 * (np.eye(2) + 0.4 * qstate.SIGMA_Z), atol=1e-12)
    np.testing.assert_allclose(partial_trace(states.bell("psi_plus"), "B"),
                               np.eye(2) / 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        partial_trace(rho, "C")


def test_partial_trace_matches_bloch_vectors():
    for i in range(50):
        rho = states.random_state(np.random.SeedSequence([6, i]), rank=4)
        rep = to_bloch(rho)
        ra = partial_trace(rho, "A")
        a = np.array([np.trace(s @ ra).real for s in qstate.PAULIS])
        np.testing.assert_allclose(a, rep.a, atol=1e-10)


def test_mutual_information_values():
    assert abs(mutual_information(states.bell("phi_plus")) - 2.0) < 1e-9
    assert abs(mutual_information(states.werner(1 / 3)) - MI_WERNER_THIRD) < 1e-12
    # product state: E = a b^T factorizes, information is zero
    rng = np.random.default_rng(8)
    a = rng.uniform(-0.5, 0.5, 3)
    b = rng.uniform(-0.5, 0.5, 3)
    prod = from_bloch(BlochRep(a=a, b=b, E=np.outer(a, b)))
    assert abs(mutual_information(prod)) < 1e-9


def test_concurrence_values():
    assert abs(concurrence(states.bell("psi_minus")) - 1.0) < 1e-9
    assert abs(concurrence(states.rho_b(0.2, 0.4)) - 0.2) < 1e-9
    assert concurrence(states.werner(1 / 3)) == 0.0
    assert concurrence(states.maximally_mixed()) == 0.0


def test_concurrence_werner_formula():
    for lam in np.linspace(0.0, 1.0, 50):
        expected = max(0.0, (3.0 * lam - 1.0) / 2.0)
        assert abs(concurrence(states.werner(lam)) - expected) < 1e-9


def test_local_unitary_covariance():
    for i in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([7, i]))
        rho = states.random_state(rng.integers(2**63), rank=1 + i % 4)
        u_a = states.haar_unitary(2, rng)
        u_b = states.haar_unitary(2, rng)
        rotated = apply_local_unitaries(rho, u_a, u_b)
        rep = to_bloch(rho)
        rep2 = to_bloch(rotated)
        o_a = unitary_to_rotation(u_a)
        o_b = unitary_to_rotation(u_b)
        np.testing.assert_allclose(rep2.a, o_a @ rep.a, atol=1e-9)
        np.testing.assert_allclose(rep2.b, o_b @ rep.b, atol=1e-9)
        np.testing.assert_allclose(rep2.E, o_a @ rep.E @ o_b.T, atol=1e-9)
        assert abs(purity(rotated) - purity(rho)) < 1e-9
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9
        assert abs(mutual_information(rotated) - mutual_information(rho)) < 1e-9
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9
        np.testing.assert_allclose(schmidt_canonical(rep2.E).singular_values,
                                   schmidt_canonical(rep.E).singular_values,
                                   atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(rho=drawn_states(), seed=st.integers(0, 2**32 - 1))
def test_measures_invariant_under_local_unitaries(rho, seed):
    rng = np.random.default_rng(seed)
    rotated = apply_local_unitaries(rho, states.haar_unitary(2, rng),
                                    states.haar_unitary(2, rng))
    for measure in (lambda s: discord.geometric_discord(s).value, rsp.rsp_fidelity, purity,
                    concurrence):
        assert abs(measure(rotated) - measure(rho)) < 1e-9


def test_unitary_to_rotation_is_proper():
    rng = np.random.default_rng(12)
    for _ in range(50):
        u = states.haar_unitary(2, rng)
        o = unitary_to_rotation(u)
        np.testing.assert_allclose(o @ o.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(o) - 1.0) < 1e-12
    o = unitary_to_rotation(su2_rotation([0.0, 0.0, 1.0], np.pi))
    np.testing.assert_allclose(o, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_su2_rotation_rejects_bad_axis():
    with pytest.raises(ValueError):
        su2_rotation([1.0, 1.0, 0.0], 0.3)


def test_state_file_round_trip(tmp_path):
    rho = states.random_state(31, rank=3)
    for form in ("matrix", "bloch"):
        path = tmp_path / f"state_{form}.json"
        save_state_file(rho, path, form=form)
        back = load_state_file(path)
        assert state_fidelity(rho, back) > 1.0 - 1e-9
        if form == "matrix":
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)


def test_state_file_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"matrix": [[1]], "bloch": {}}')
    with pytest.raises(qstate.StateError):
        load_state_file(p)
    p.write_text('{"something": 1}')
    with pytest.raises(qstate.StateError):
        load_state_file(p)
    p.write_text('{"bloch": {"a": [0,0,0]}}')
    with pytest.raises(qstate.StateError):
        load_state_file(p)


def test_state_is_immutable():
    rho = states.werner(0.5)
    with pytest.raises((ValueError, RuntimeError)):
        rho.matrix[0, 0] = 9.0


def test_bloch_triple_is_extracted_lazily_and_once(monkeypatch):
    built = []

    class CountingBlochRep(BlochRep):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(qstate, "BlochRep", CountingBlochRep)
    rho = TwoQubitState(states.werner(0.5).matrix)
    assert built == []
    assert to_bloch(rho) is to_bloch(rho) is rho.bloch
    assert len(built) == 1
