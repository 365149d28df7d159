from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcfqc.channel import McfChannel, choi, verify_cptp
from mcfqc.cli import _ds_matrix_from_input
from mcfqc.linalg import DEFAULT_TOL, pair_to_dense, trace_norm
from mcfqc.presets import BOUND6_M, DEMO_CROSSTALK_5
from mcfqc.states import (
    Conclusion,
    is_ppt,
    max_entangled,
    partial_transpose,
    realignment_trace_norm,
)
from mcfqc.symmetric_states import (
    ClduiState,
    channel_from_ds,
    cldui_from_choi,
    cldui_is_ppt,
    cldui_realignment_test,
)

from oracle import ds_to_density
from sampling import random_cldui_state, random_cptp_channel, random_ds_state


def dicke_basis(d: int) -> list[np.ndarray]:
    """Orthonormal basis of the symmetric subspace, ordered by (i, j), i <= j."""
    basis = []
    for i in range(d):
        for j in range(i, d):
            v = np.zeros(d * d, dtype=complex)
            if i == j:
                v[i * d + i] = 1.0
            else:
                v[i * d + j] = v[j * d + i] = 1.0 / np.sqrt(2.0)
            basis.append(v)
    return basis


def dense_edge_case(name: str) -> ClduiState:
    """Pairs whose dense expansion .dm builds without re-checking it."""
    if name == "bound6":
        # three exactly-zero hat-block eigenvalues: on the PSD edge
        return choi(channel_from_ds(BOUND6_M))
    if name == "hat-at-half-floor":
        # P = I_3, uniform alpha with hat-block least eigenvalue -psd_floor / 2
        s = choi(McfChannel.with_uniform_dephasing(np.eye(3), -1.5 - 0.75 * DEFAULT_TOL.psd_floor))
        assert s.warnings == ()
        assert np.linalg.eigvalsh(s.coherences)[0] == pytest.approx(-DEFAULT_TOL.psd_floor / 2, abs=1e-16)
        return s
    d = int(name.removeprefix("random-d"))
    return random_cldui_state(d, np.random.default_rng(100 + d))


def bell_pair_tables(d):
    weights = np.eye(d) / d
    coherences = np.ones((d, d)) / d
    return ClduiState(weights, coherences)


class TestDickeBasis:
    def test_d2_vectors(self):
        basis = dicke_basis(2)
        s = 1 / np.sqrt(2)
        assert np.allclose(basis[0], [1, 0, 0, 0])
        assert np.allclose(basis[1], [0, s, s, 0])
        assert np.allclose(basis[2], [0, 0, 0, 1])

    @given(st.integers(2, 6))
    def test_count_and_orthonormality(self, d):
        basis = dicke_basis(d)
        assert len(basis) == d * (d + 1) // 2
        gram = np.array([[v.conj() @ w for w in basis] for v in basis])
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12


class TestCldulState:
    def test_rejects_negative_weights(self):
        w = np.full((2, 2), 0.4)
        w[0, 1] = -0.2
        with pytest.raises(ValueError, match="nonnegative"):
            ClduiState(w, np.eye(2) * 0.4)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClduiState(np.eye(2), np.eye(2))

    def test_rejects_indefinite_coherences(self):
        w = np.full((2, 2), 0.25)
        b = np.array([[0.25, 0.8], [0.8, 0.25]])
        with pytest.raises(ValueError, match="not PSD"):
            ClduiState(w, b)

    def test_rejects_diagonal_mismatch(self):
        w = np.full((2, 2), 0.25)
        b = np.diag([0.3, 0.2])
        with pytest.raises(ValueError, match="diagonals"):
            ClduiState(w, b)


class TestCldulDensity:
    def test_bell_tables_expand_to_max_entangled(self):
        for d in (2, 3):
            rho = bell_pair_tables(d).dm
            assert np.abs(rho.mat - max_entangled(d).mat).max() < 1e-12

    def test_uniform_tables_expand_to_maximally_mixed(self):
        d = 3
        s = ClduiState(np.full((d, d), 1 / d**2), np.eye(d) / d**2)
        rho = s.dm
        assert np.abs(rho.mat - np.eye(d * d) / d**2).max() < 1e-12

    def test_random_states_are_valid(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            rho = random_cldui_state(2 + trial % 4, rng).dm
            assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_unitary_invariance(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            d = 2 + trial % 4
            rho = random_cldui_state(d, rng).dm.mat
            for _ in range(5):
                u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))
                w = np.kron(u, u.conj())
                assert np.abs(w @ rho @ w.conj().T - rho).max() < 1e-12


    @pytest.mark.parametrize(
        "case", [f"random-d{d}" for d in range(2, 10)] + ["bound6", "hat-at-half-floor"]
    )
    def test_dense_spectrum_is_the_pair_spectrum(self, case):
        # What lets .dm skip the DensityMatrix checks: the pair decides the
        # dense state's spectrum and trace.
        s = dense_edge_case(case)
        off = ~np.eye(s.d, dtype=bool)
        expected = np.sort(np.concatenate([s.weights[off], np.linalg.eigvalsh(s.coherences)]))
        assert np.abs(np.linalg.eigvalsh(s.dm.mat) - expected).max() <= 1e-15
        assert np.trace(s.dm.mat).real == pytest.approx(s.weights.sum(), abs=1e-15)


class TestCldulFromChoi:
    def test_rejects_disagreeing_diagonals(self):
        # choi's pair passes through the constructor's check, the only
        # diagonal check left
        j = choi(McfChannel.with_uniform_dephasing(np.eye(2), 0.0))
        with pytest.raises(ValueError, match="diagonals"):
            replace(j, coherences=j.coherences + 1e-6 * np.eye(2))

    def test_identity_channel_d2(self):
        s = choi(McfChannel.with_uniform_dephasing(np.eye(2), 0.0))
        assert cldui_from_choi(s) is s
        assert np.abs(s.weights - np.eye(2) / 2).max() < 1e-15
        assert np.abs(s.coherences - np.full((2, 2), 0.5)).max() < 1e-15

    def test_demo_channel(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -0.8)
        s = choi(ch)
        assert np.abs(s.weights - DEMO_CROSSTALK_5 / 5).max() < 1e-15
        off = ~np.eye(5, dtype=bool)
        assert np.allclose(s.coherences[off], 0.04, atol=1e-15)

    def test_round_trip_to_density(self):
        # choi skips the physicality checks; the public constructor's pass
        rng = np.random.default_rng(2)
        for trial in range(30):
            d = 2 + trial % 4
            j = choi(random_cptp_channel(d, rng))
            rho = ClduiState(j.weights, j.coherences).dm
            assert np.abs(rho.mat - j.dm.mat).max() < 1e-12


class TestCldulCriteria:
    def test_bell_tables_are_npt(self):
        verdict = cldui_is_ppt(bell_pair_tables(3))
        assert verdict.flag == Conclusion.ENTANGLED
        assert verdict.value == pytest.approx(-1 / 3, abs=1e-12)
        generic = is_ppt(bell_pair_tables(3).dm)
        assert verdict.value == pytest.approx(generic.value, abs=1e-12)

    def test_fully_dephased_channel_is_ppt(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -1.0)
        verdict = cldui_is_ppt(choi(ch))
        assert verdict.flag == Conclusion.INCONCLUSIVE

    def test_bound6_tables_sit_exactly_on_the_ppt_boundary(self):
        s = ClduiState(BOUND6_M, BOUND6_M)
        verdict = cldui_is_ppt(s)
        assert verdict.flag == Conclusion.INCONCLUSIVE
        assert abs(verdict.value) < 1e-15

    def test_ppt_agreement_with_eigenvalue_route(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            d = 2 + trial % 5
            s = random_cldui_state(d, rng)
            fast = cldui_is_ppt(s)
            generic = is_ppt(s.dm)
            assert fast.flag == generic.flag

    def test_bell_realignment_value_is_d(self):
        verdict = cldui_realignment_test(bell_pair_tables(3))
        assert verdict.value == pytest.approx(3.0, abs=1e-12)
        assert verdict.flag == Conclusion.ENTANGLED

    def test_maximally_mixed_realignment_value(self):
        d = 2
        s = ClduiState(np.full((d, d), 1 / d**2), np.eye(d) / d**2)
        verdict = cldui_realignment_test(s)
        assert verdict.value == pytest.approx(0.5, abs=1e-12)
        assert verdict.flag == Conclusion.INCONCLUSIVE

    def test_fully_dephased_realignment_is_weight_trace_norm(self):
        # with no off-diagonal coherences the realigned matrix is just the
        # weight table, so the statistic is its trace norm (at most 1, since
        # the trace norm is bounded by the entrywise mass)
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -1.0)
        s = choi(ch)
        fast = cldui_realignment_test(s)
        assert fast.value == pytest.approx(trace_norm(s.weights), abs=1e-12)
        assert fast.value <= 1.0
        assert fast.flag == Conclusion.INCONCLUSIVE
        generic = realignment_trace_norm(s.dm)
        assert abs(fast.value - generic.value) < 1e-10

    def test_realignment_agreement_with_generic_route(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            d = 2 + trial % 5
            s = random_cldui_state(d, rng)
            fast = cldui_realignment_test(s)
            generic = realignment_trace_norm(s.dm)
            assert abs(fast.value - generic.value) < 1e-10
            assert fast.flag == generic.flag


class TestDsState:
    """The dense Dicke-diagonal state of a pair-weight matrix (tests/oracle.py)."""

    def test_point_mass_on_a_pair(self):
        rho = ds_to_density(np.diag([1.0, 0.0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho.mat - expected).max() == 0.0

    def test_uniform_weights_give_valid_state(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            rho = ds_to_density(random_ds_state(d, rng))
            assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_swap_invariance(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            rho = ds_to_density(random_ds_state(d, rng)).mat
            swap = np.zeros((d * d, d * d))
            for i in range(d):
                for j in range(d):
                    swap[i * d + j, j * d + i] = 1.0
            assert np.abs(swap @ rho @ swap - rho).max() < 1e-15

    def test_expansion_matches_projector_sum(self):
        # independent route: assemble the state directly from the basis op
        rng = np.random.default_rng(10)
        for d in (2, 3, 5):
            m = random_ds_state(d, rng)
            basis = dicke_basis(d)
            expected = np.zeros((d * d, d * d), dtype=complex)
            k = 0
            for i in range(d):
                for j in range(i, d):
                    weight = m[i, i] if i == j else 2 * m[i, j]
                    expected += weight * np.outer(basis[k], basis[k].conj())
                    k += 1
            assert np.abs(ds_to_density(m).mat - expected).max() < 1e-14


class TestDsPartialTranspose:
    """The partial transpose of a Dicke-diagonal state is the pair (M, M)."""

    def test_diagonal_pair_weights(self):
        m = _ds_matrix_from_input({"d": 2, "p": {"ii": [0.5, 0.5], "ij": [0.0]}})
        assert np.abs(m - np.diag([0.5, 0.5])).max() == 0.0
        g = pair_to_dense(m, m)
        off_positions = [1, 2]  # |01> and |10> diagonal entries
        assert all(g[k, k] == 0.0 for k in off_positions)

    def test_matches_generic_partial_transpose(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            d = 2 + trial % 4
            m = random_ds_state(d, rng)
            generic = partial_transpose(ds_to_density(m), "B")
            assert np.abs(pair_to_dense(m, m) - generic).max() < 1e-12

    def test_spectrum_decomposition(self):
        rng = np.random.default_rng(8)
        for d in (3, 4, 6):
            m = random_ds_state(d, rng)
            g = pair_to_dense(m, m)
            block_eigs = list(np.linalg.eigvalsh(m))
            off = [m[i, j] for i in range(d) for j in range(i + 1, d)]
            expected = np.sort(block_eigs + off + off)
            assert np.allclose(np.sort(np.linalg.eigvalsh(g)), expected, atol=1e-10)

    def test_bound6_partial_transpose_is_psd(self):
        g = partial_transpose(ds_to_density(BOUND6_M), "B")
        assert np.linalg.eigvalsh(g).min() > -1e-12
        assert np.abs(g - pair_to_dense(BOUND6_M, BOUND6_M)).max() < 1e-15

    def test_expansion_is_cldui_when_psd(self):
        # the partial transpose of a Dicke-diagonal state has the invariant
        # structure with both tables equal to the pair-weight matrix
        g = partial_transpose(ds_to_density(BOUND6_M), "B")
        s = ClduiState(BOUND6_M, BOUND6_M)
        assert np.abs(s.dm.mat - g).max() < 1e-12


class TestChannelFromDs:
    def test_bound6_derived_parameters(self):
        ch = channel_from_ds(BOUND6_M)
        assert ch.crosstalk[0, 0] == pytest.approx(1 / 3, abs=1e-15)
        assert ch.crosstalk[0, 1] == pytest.approx(1 / 4, abs=1e-15)
        assert ch.dephasing[0, 1].real == pytest.approx(-3 / 4, abs=1e-15)
        assert np.allclose(ch.crosstalk.sum(axis=1), 1.0, atol=1e-12)
        report = verify_cptp(ch)
        assert report.tp_ok and report.cp_ok

    def test_choi_realizes_the_pair_weight_matrix(self):
        ch = channel_from_ds(BOUND6_M)
        j = choi(ch)
        assert np.abs(j.coherences - BOUND6_M).max() < 1e-12
        g = partial_transpose(ds_to_density(BOUND6_M), "B")
        assert np.abs(j.dm.mat - g).max() < 1e-12

    def test_identity_pair_weights_give_full_dephasing(self):
        d = 4
        ch = channel_from_ds(np.eye(d) / d)
        assert np.abs(ch.crosstalk - np.eye(d)).max() == 0.0
        off = ~np.eye(d, dtype=bool)
        assert np.allclose(ch.dephasing[off], -1.0, atol=1e-15)
        j = choi(ch)
        expected = np.zeros((d * d, d * d))
        for i in range(d):
            expected[i * (d + 1), i * (d + 1)] = 1 / d
        assert np.abs(j.dm.mat - expected).max() < 1e-15

    def test_rejects_bad_mass_distribution(self):
        m = BOUND6_M.copy()
        m[0, 0] *= 0.9
        with pytest.raises(ValueError, match="sum to 1/d"):
            channel_from_ds(m)

    def test_rejects_asymmetric_tables(self):
        m = BOUND6_M.copy()
        m[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            channel_from_ds(m)

    def test_rejects_negative_entries(self):
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            channel_from_ds(-m)

    def test_round_trip_through_choi(self):
        ch = channel_from_ds(BOUND6_M)
        s = choi(ch)
        # reassembling the pair-weight matrix from the extracted tables
        assert np.abs(s.coherences - BOUND6_M).max() < 1e-12
        assert np.abs(s.weights - BOUND6_M).max() < 1e-12

