import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcfqc.states import (
    Conclusion,
    DensityMatrix,
    is_ppt,
    max_coherent,
    max_entangled,
    partial_transpose,
    realign,
    realignment_trace_norm,
    state_from_json,
    state_to_json,
)
from mcfqc.presets import BOUND6_M

from oracle import ds_to_density, partial_trace
from sampling import random_density_matrix, random_separable_state


def loop_partial_trace(mat, da, db, traced):
    # independent summation oracle, deliberately index-by-index
    if traced == "A":
        out = np.zeros((db, db), dtype=complex)
        for k in range(db):
            for l in range(db):
                out[k, l] = sum(mat[i * db + k, i * db + l] for i in range(da))
    else:
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(mat[i * db + k, j * db + k] for k in range(db))
    return out


def loop_realign(mat, d):
    # independent index-map oracle for the reshuffle
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i * d + j, k * d + l] = mat[i * d + k, j * d + l]
    return out


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_indefinite(self):
        m = np.array([[0.5, 1.0], [1.0, 0.5]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(m)

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError, match="factors"):
            DensityMatrix(np.eye(4) / 4, factors=(3, 2))

    def test_warnings_waive_trace_and_positivity(self):
        m = np.array([[0.5, 1.0], [1.0, 0.5]])
        dm = DensityMatrix(m, warnings=("not completely positive",))
        assert dm.warnings == ("not completely positive",)

    def test_mat_is_read_only(self):
        dm = max_coherent(3)
        with pytest.raises(ValueError):
            dm.mat[0, 0] = 9.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(6, rng, factors=(2, 3))
        back = state_from_json(state_to_json(rho))
        assert back.factors == (2, 3)
        assert np.abs(back.mat - rho.mat).max() == 0.0


class TestMaxEntangled:
    def test_d2_entries(self):
        rho = max_entangled(2)
        expected = np.zeros((4, 4))
        for r in (0, 3):
            for c in (0, 3):
                expected[r, c] = 0.5
        assert np.abs(rho.mat - expected).max() < 1e-15

    @given(st.integers(2, 6))
    def test_trace_and_purity(self, d):
        rho = max_entangled(d)
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho.mat @ rho.mat).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_partial_traces_are_maximally_mixed(self, d):
        rho = max_entangled(d)
        for side in ("A", "B"):
            reduced = loop_partial_trace(rho.mat, d, d, side)
            assert np.abs(reduced - np.eye(d) / d).max() < 1e-12
            fast = partial_trace(rho.mat, (d, d), traced=side)
            assert np.abs(fast - reduced).max() < 1e-14

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestMaxCoherent:
    def test_d5_entries(self):
        rho = max_coherent(5)
        assert np.abs(rho.mat - 0.2).max() < 1e-15

    def test_rank_one_spectrum(self):
        for d in (2, 4, 5):
            w = np.linalg.eigvalsh(max_coherent(d).mat)
            assert w[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.abs(w[:-1]).max() < 1e-12


class TestPartialTranspose:
    def test_bell_spectrum(self):
        g = partial_transpose(max_entangled(2), "B")
        w = np.sort(np.linalg.eigvalsh(g))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(1)
        a = random_density_matrix(2, rng).mat
        b = random_density_matrix(3, rng).mat
        rho = DensityMatrix(np.kron(a, b), factors=(2, 3))
        g = partial_transpose(rho, "B")
        assert np.linalg.eigvalsh(g).min() > -1e-12
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(g)), np.sort(np.linalg.eigvalsh(rho.mat)), atol=1e-12
        )

    def test_involution_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density_matrix(9, rng, factors=(3, 3))
            g = partial_transpose(rho, "B")
            # the intermediate is generally not PSD, so wrap it unchecked
            wrapped = DensityMatrix(g, factors=(3, 3), warnings=("intermediate",))
            gg = partial_transpose(wrapped, "B")
            assert np.abs(gg - rho.mat).max() == 0.0

    def test_sides_are_transposes_of_each_other(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(6, rng, factors=(2, 3))
        assert np.abs(partial_transpose(rho, "A") - partial_transpose(rho, "B").T).max() < 1e-15

    def test_requires_factors(self):
        with pytest.raises(ValueError, match="factors"):
            partial_transpose(max_coherent(4))


class TestIsPpt:
    def test_bell_state_is_npt(self):
        verdict = is_ppt(max_entangled(2))
        assert verdict.flag == Conclusion.ENTANGLED
        assert verdict.value == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed_inconclusive(self):
        rho = DensityMatrix(np.eye(9) / 9, factors=(3, 3))
        verdict = is_ppt(rho)
        assert verdict.flag == Conclusion.INCONCLUSIVE
        assert verdict.value == pytest.approx(1 / 9, abs=1e-12)

    def test_bound6_ds_state_is_ppt(self):
        # the pair-weight matrix is PSD and all weights are nonnegative, so
        # the partial-transpose spectrum is nonnegative
        rho = ds_to_density(BOUND6_M)
        verdict = is_ppt(rho)
        assert verdict.flag == Conclusion.INCONCLUSIVE
        assert verdict.value >= -1e-12

    def test_never_entangled_on_separable_mixtures(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            d = 2 + trial % 2
            rho = random_separable_state(d, d, rng)
            assert is_ppt(rho).flag == Conclusion.INCONCLUSIVE


class TestRealignment:
    def test_reshuffle_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(9, rng, factors=(3, 3))
        assert np.abs(realign(rho.mat, 3, 3) - loop_realign(rho.mat, 3)).max() == 0.0

    def test_max_entangled_value_is_d(self):
        # oracle: SVD of the explicitly reshuffled matrix
        rho = max_entangled(3)
        oracle = np.linalg.svd(loop_realign(rho.mat, 3), compute_uv=False).sum()
        verdict = realignment_trace_norm(rho)
        assert abs(verdict.value - oracle) < 1e-12
        assert verdict.value == pytest.approx(3.0, abs=1e-10)
        assert verdict.flag == Conclusion.ENTANGLED

    def test_pure_product_value_is_one(self):
        rng = np.random.default_rng(7)
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        pure = u @ a @ u.conj().T
        rho = DensityMatrix(np.kron(pure, pure), factors=(3, 3))
        assert realignment_trace_norm(rho).value == pytest.approx(1.0, abs=1e-10)

    def test_product_value_is_frobenius_product(self):
        rng = np.random.default_rng(8)
        a = random_density_matrix(3, rng).mat
        b = random_density_matrix(3, rng).mat
        rho = DensityMatrix(np.kron(a, b), factors=(3, 3))
        expected = np.linalg.norm(a) * np.linalg.norm(b)
        assert realignment_trace_norm(rho).value == pytest.approx(expected, abs=1e-10)

    def test_maximally_mixed_two_qubits(self):
        rho = DensityMatrix(np.eye(4) / 4, factors=(2, 2))
        verdict = realignment_trace_norm(rho)
        assert verdict.value == pytest.approx(0.5, abs=1e-12)
        assert verdict.flag == Conclusion.INCONCLUSIVE

    def test_reshuffle_is_involutive(self):
        rng = np.random.default_rng(9)
        rho = random_density_matrix(16, rng, factors=(4, 4)).mat
        assert np.abs(realign(realign(rho, 4, 4), 4, 4) - rho).max() == 0.0

    def test_separable_states_stay_below_one(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            d = 2 + trial % 2
            rho = random_separable_state(d, d, rng)
            assert realignment_trace_norm(rho).value <= 1.0 + 1e-9

    def test_rejects_unequal_factors(self):
        rng = np.random.default_rng(11)
        rho = random_density_matrix(6, rng, factors=(2, 3))
        with pytest.raises(ValueError, match="equal factor"):
            realignment_trace_norm(rho)
