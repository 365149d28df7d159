import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcfqc.channel import (
    McfChannel,
    apply,
    channel_from_config,
    channel_to_config,
    choi,
    cp_boundary_uniform_alpha,
    extend_one_side,
    verify_cptp,
)
from mcfqc.linalg import DEFAULT_TOL
from mcfqc.presets import DEMO_CROSSTALK_5
from mcfqc.states import DensityMatrix, max_coherent, max_entangled

from oracle import channel_from_choi, cp_boundary_by_np_sum
from sampling import random_cptp_channel, random_density_matrix


class TestConstruction:
    def test_rejects_negative_crosstalk(self):
        p = np.eye(2).copy()
        p[0, 1] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            McfChannel.with_uniform_dephasing(p, -0.5)

    def test_rejects_non_hermitian_dephasing(self):
        a = np.array([[0, -0.5 + 0.1j], [-0.5 + 0.1j, 0]])
        with pytest.raises(ValueError, match="Hermitian"):
            McfChannel(np.eye(2), a)

    def test_rejects_amplifying_dephasing(self):
        with pytest.raises(ValueError, match="out of range"):
            McfChannel.with_uniform_dephasing(np.eye(3), 0.5)
        with pytest.raises(ValueError, match="out of range"):
            McfChannel.with_uniform_dephasing(np.eye(3), -2.5)

    def test_diagonal_alpha_is_stored_but_ignored(self):
        a = np.zeros((2, 2), dtype=complex)
        np.fill_diagonal(a, 7.0)  # would violate |1+alpha|<=1 if it were used
        ch = McfChannel(np.eye(2), a)
        rho = random_density_matrix(2, np.random.default_rng(0))
        assert np.abs(apply(ch, rho).mat - rho.mat).max() < 1e-15


class TestApply:
    def test_identity_channel_is_identity(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(4), 0.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_density_matrix(4, rng)
            assert np.abs(apply(ch, rho).mat - rho.mat).max() < 1e-15

    def test_demo_channel_on_max_coherent(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -0.8)
        out = apply(ch, max_coherent(5))
        # populations become the column sums of the crosstalk table over 5
        expected_diag = DEMO_CROSSTALK_5.sum(axis=0) / 5
        assert np.allclose(np.diag(out.mat).real, expected_diag, atol=1e-12)
        assert np.allclose(expected_diag, [0.22, 0.24, 0.12, 0.24, 0.18], atol=1e-12)
        off = ~np.eye(5, dtype=bool)
        assert np.allclose(np.abs(out.mat[off]), 0.04, atol=1e-12)

    def test_full_dephasing_kills_coherences(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -1.0)
        out = apply(ch, max_coherent(5))
        off = ~np.eye(5, dtype=bool)
        assert np.abs(out.mat[off]).max() == 0.0

    def test_dimension_mismatch(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(3), -0.5)
        with pytest.raises(ValueError, match="mismatch"):
            apply(ch, max_coherent(4))

    def test_tp_violation_requires_force(self):
        p = np.eye(2) * 0.9
        ch = McfChannel.with_uniform_dephasing(p, -0.5)
        with pytest.raises(ValueError, match="trace-preserving"):
            apply(ch, max_coherent(2))
        out = apply(ch, max_coherent(2), force=True)
        assert "not trace-preserving" in out.warnings

    def test_non_cp_result_carries_warning(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -1.2)
        out = apply(ch, max_coherent(5))
        assert "not completely positive" in out.warnings

    @given(st.floats(0.0, 1.0))
    def test_linearity(self, lam):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -0.8)
        rng = np.random.default_rng(2)
        r1 = random_density_matrix(5, rng)
        r2 = random_density_matrix(5, rng)
        mixed = DensityMatrix(lam * r1.mat + (1 - lam) * r2.mat)
        lhs = apply(ch, mixed).mat
        rhs = lam * apply(ch, r1).mat + (1 - lam) * apply(ch, r2).mat
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_stationary_states_with_identity_crosstalk(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5):
            ch = McfChannel.with_uniform_dephasing(np.eye(d), float(-rng.random()))
            for i in range(d):
                basis_state = np.zeros((d, d), dtype=complex)
                basis_state[i, i] = 1.0
                out = apply(ch, DensityMatrix(basis_state))
                assert np.array_equal(out.mat, basis_state)

    def test_dephasing_monotonicity(self):
        rng = np.random.default_rng(4)
        off = ~np.eye(4, dtype=bool)
        for _ in range(25):
            ch = random_cptp_channel(4, rng)
            rho = random_density_matrix(4, rng)
            out = apply(ch, rho)
            assert np.all(np.abs(out.mat[off]) <= np.abs(rho.mat[off]) + 1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ch = random_cptp_channel(3, rng)
            out = apply(ch, random_density_matrix(3, rng))
            assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


class TestChoi:
    def test_identity_channel_gives_max_entangled(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(3), 0.0)
        j = choi(ch)
        assert np.abs(j.dm.mat - max_entangled(3).mat).max() < 1e-12

    def test_unit_trace_for_random_channels(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            j = choi(random_cptp_channel(4, rng))
            assert np.trace(j.dm.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_one_sided_application(self):
        # The only comparison of the two constructions: run_protocol builds
        # its output state through the closed form alone.
        rng = np.random.default_rng(7)
        for d in (*range(2, 10), 12, 16):
            for _ in range(3):
                ch = random_cptp_channel(d, rng)
                assert np.abs(ch.dephasing.imag).max() > 0.0
                analytic = choi(ch).dm.mat
                numeric = extend_one_side(ch, max_entangled(d)).mat
                assert np.abs(analytic - numeric).max() < 1e-12

    def test_hat_block_embedding(self):
        rng = np.random.default_rng(8)
        ch = random_cptp_channel(3, rng)
        j = choi(ch)
        pairs = np.arange(3) * 4
        assert np.abs(j.dm.mat[np.ix_(pairs, pairs)] - j.coherences).max() == 0.0

    def test_non_cp_choi_is_marked(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(5), -2.0)
        j = choi(ch)
        assert "not completely positive" in j.dm.warnings
        assert np.trace(j.dm.mat).real == pytest.approx(1.0, abs=1e-12)


class TestVerifyCptp:
    def test_demo_crosstalk_is_trace_preserving(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -0.8)
        report = verify_cptp(ch)
        assert report.tp_ok
        assert max(report.row_sum_residuals) < 1e-12

    def test_cp_window_boundary_and_outside(self):
        boundary = McfChannel.with_uniform_dephasing(np.eye(5), -1.25)
        report = verify_cptp(boundary)
        assert report.cp_ok
        assert abs(report.choi_min_eig) < 1e-12
        outside = McfChannel.with_uniform_dephasing(np.eye(5), -2.0)
        report = verify_cptp(outside)
        assert not report.cp_ok
        assert report.choi_min_eig == pytest.approx(-0.6, abs=1e-12)

    def test_deficient_row_fails_tp(self):
        p = np.eye(3).copy()
        p[1, 1] = 0.9
        report = verify_cptp(McfChannel.with_uniform_dephasing(p, -0.5))
        assert not report.tp_ok

    def test_boundary_by_bisection(self):
        # g(t) = d t / (1 + t + d psd_floor) <= 1 gives t* = (1 + d psd_floor) / (d - 1);
        # at d = 2 that lies past t = 1, and the window stops at alpha = -2.
        floor = DEFAULT_TOL.psd_floor
        for d in range(2, 8):
            expected = max(-2.0, -d * (1 + floor) / (d - 1))
            assert abs(cp_boundary_uniform_alpha(np.eye(d)) - expected) <= 1e-15

    def test_boundary_on_random_crosstalk(self):
        # Oracle: the hat block's least eigenvalue from numpy, independent of
        # the determinant lemma the program decides with.
        floor = DEFAULT_TOL.psd_floor

        def hat_min(p, alpha):
            h = np.full(p.shape, (1.0 + alpha) / len(p))
            np.fill_diagonal(h, np.diag(p) / len(p))
            return np.linalg.eigvalsh(h)[0]

        for d in range(2, 10):
            for k in range(4):
                p = np.random.default_rng([d, k]).dirichlet(np.ones(d), size=d)
                boundary = cp_boundary_uniform_alpha(p)
                lo, hi = -2.0, -1.0  # floor-free edge, bisected on the eigensolve
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if hat_min(p, mid) >= 0.0 else (mid, hi)
                assert boundary <= hi + 1e-11
                assert hat_min(p, boundary) >= -floor - 1e-15
                assert boundary == -2.0 or hat_min(p, boundary - 1e-6) < -floor

    def test_boundary_within_one_ulp_of_the_np_sum_bisection(self, record_property):
        # The bisection sums with math.fsum; the oracle takes each step's sum
        # with np.sum. Tables: d = 2..40, Dirichlet concentrations 0.05 to 3,
        # every fourth with one diagonal entry pushed towards 0. Each result
        # must also pass the benchmark's two checks: at most the floor-free
        # edge plus 1e-11, and a hat block within psd_floor of PSD.
        floor = DEFAULT_TOL.psd_floor

        def hat_min(p, alpha):
            h = np.full(p.shape, (1.0 + alpha) / len(p))
            np.fill_diagonal(h, np.diag(p) / len(p))
            return np.linalg.eigvalsh(h)[0]

        def floor_free_edge(p):
            # d * hat = D + t (I - J) with t = -(1 + alpha) and D = diag(P_ii)
            # is PSD iff t * lambda_max(D^-1/2 (J - I) D^-1/2) <= 1: one
            # eigensolve, no bisection. The matrix is scaled by min(P_ii) so
            # that tiny diagonals cannot overflow it; a zero one closes the
            # window at t = 0.
            diag = np.diag(p)
            if diag.min() == 0.0:
                return -1.0
            r = np.sqrt(diag.min() / diag)
            k = np.outer(r, r)
            np.fill_diagonal(k, 0.0)
            return max(-2.0, -1.0 - diag.min() / np.linalg.eigvalsh(k)[-1])

        rng = np.random.default_rng(2026)
        tables = 2000
        moved = 0
        for n in range(tables):
            d = int(rng.integers(2, 41))
            p = rng.dirichlet(np.full(d, rng.uniform(0.05, 3.0)), size=d)
            if n % 4 == 0:
                i = rng.integers(d)
                p[i, i] = 10.0 ** rng.uniform(-15, -8)
                p[i] /= p[i].sum()
            boundary = cp_boundary_uniform_alpha(p)
            reference = cp_boundary_by_np_sum(p)
            assert abs(boundary - reference) <= math.ulp(reference)
            assert boundary <= floor_free_edge(p) + 1e-11
            assert hat_min(p, boundary) >= -floor - 1e-15
            moved += boundary != reference
        record_property("tables_moved_by_one_ulp", f"{moved} of {tables}")


class TestChannelFromChoi:
    def test_max_entangled_choi_gives_identity_action(self):
        action = channel_from_choi(choi(McfChannel.with_uniform_dephasing(np.eye(3), 0.0)).dm)
        rng = np.random.default_rng(9)
        rho = random_density_matrix(3, rng).mat
        assert np.abs(action(rho) - rho).max() < 1e-12

    def test_maximally_mixed_choi_depolarizes(self):
        d = 3
        j = DensityMatrix(np.eye(d * d) / d**2, factors=(d, d))
        action = channel_from_choi(j)
        rng = np.random.default_rng(10)
        rho = random_density_matrix(d, rng).mat
        assert np.abs(action(rho) - np.eye(d) / d).max() < 1e-12

    def test_round_trip_channel_choi_channel(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            d = 2 + trial % 4
            ch = random_cptp_channel(d, rng)
            action = channel_from_choi(choi(ch).dm)
            for _ in range(3):
                rho = random_density_matrix(d, rng)
                assert np.abs(action(rho.mat) - apply(ch, rho).mat).max() < 1e-10

    def test_rejects_non_tp_choi(self):
        d = 2
        mat = np.zeros((4, 4))
        mat[0, 0] = 1.0  # Tr_B is |0><0|, not 1/d
        j = DensityMatrix(mat, factors=(2, 2))
        with pytest.raises(ValueError, match="trace-preserving Choi"):
            channel_from_choi(j)


class TestExtendOneSide:
    def test_identity_channel_leaves_state_alone(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(3), 0.0)
        rng = np.random.default_rng(12)
        rho = random_density_matrix(9, rng, factors=(3, 3))
        assert np.abs(extend_one_side(ch, rho).mat - rho.mat).max() < 1e-15

    def test_max_entangled_input_reproduces_choi(self):
        rng = np.random.default_rng(13)
        ch = random_cptp_channel(4, rng)
        out = extend_one_side(ch, max_entangled(4))
        assert np.abs(out.mat - choi(ch).dm.mat).max() < 1e-12

    def test_product_input_stays_product(self):
        rng = np.random.default_rng(14)
        ch = random_cptp_channel(3, rng)
        a = random_density_matrix(3, rng)
        b = random_density_matrix(3, rng)
        rho = DensityMatrix(np.kron(a.mat, b.mat), factors=(3, 3))
        out = extend_one_side(ch, rho)
        expected = np.kron(a.mat, apply(ch, b).mat)
        assert np.abs(out.mat - expected).max() < 1e-12

    def test_dimension_guard(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(3), -0.5)
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="factors"):
            extend_one_side(ch, random_density_matrix(4, rng, factors=(2, 2)))


class TestConfig:
    def test_round_trip_matrix_form(self):
        rng = np.random.default_rng(16)
        ch = random_cptp_channel(3, rng)
        back = channel_from_config(channel_to_config(ch))
        assert np.abs(back.crosstalk - ch.crosstalk).max() == 0.0
        assert np.abs(back.dephasing - ch.dephasing).max() == 0.0

    def test_uniform_form(self):
        cfg = {"d": 2, "P": [[1.0, 0.0], [0.0, 1.0]], "alpha": {"uniform": -0.5}}
        ch = channel_from_config(cfg)
        assert ch.dephasing[0, 1] == -0.5
        assert ch.dephasing[0, 0] == 0.0

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            channel_from_config({"d": 2, "P": [[1, 0], [0, 1]], "alpha": {}})
        with pytest.raises(ValueError):
            channel_from_config({"d": 3, "P": [[1, 0], [0, 1]], "alpha": {"uniform": 0.0}})
