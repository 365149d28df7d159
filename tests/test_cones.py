from collections import Counter

import numpy as np
import pytest

from mcfqc import cones
from mcfqc.cones import (
    Classification,
    CpStatus,
    SearchBudget,
    classify_ds,
    cp_factorize,
    cp_sufficient,
    is_dnn,
)
from mcfqc.presets import BOUND6_M
from mcfqc.states import Conclusion, is_ppt

from oracle import ds_to_density
from sampling import random_dnn_matrix

FAST_BUDGET = SearchBudget(restarts=20, max_iters=20_000, residual_target=1e-7, seed=0)
# A completely positive matrix whose restart 0 stalls under STACK_BUDGET while
# restarts 2, 6 and 9 reach the target at the same first check, before
# restart 1 does.
MISSED_BY_RESTART_0 = random_dnn_matrix(5, np.random.default_rng(49))
STACK_BUDGET = SearchBudget(restarts=10, max_iters=20_000, residual_target=1e-7, seed=1)


@pytest.fixture(scope="module")
def bound6_default():
    return cp_factorize(BOUND6_M)


def principal_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def coupled_power(d: int, rng: np.random.Generator) -> np.ndarray:
    """Crosstalk P = exp(LQ) of coupled-power theory: Q symmetric, with
    nonnegative off-diagonal rates spread over three decades and zero row
    sums, and a length L in [0.5, 5]."""
    rates = np.triu(10.0 ** rng.uniform(-3.0, 0.0, (d, d)), 1)
    rates = rates + rates.T
    w, v = np.linalg.eigh(rng.uniform(0.5, 5.0) * (rates - np.diag(rates.sum(axis=1))))
    return (v * np.exp(w)) @ v.T


def planted_cp(d: int, rng: np.random.Generator) -> np.ndarray:
    b = rng.random((d, d))
    return b @ b.T


class TestIsDnn:
    def test_bound6_matrix(self):
        assert is_dnn(BOUND6_M)

    def test_indefinite_nonnegative_matrix(self):
        assert not is_dnn([[1, 2], [2, 1]])

    def test_gram_of_nonnegative_factor(self):
        rng = np.random.default_rng(0)
        b = rng.random((5, 3))
        assert is_dnn(b @ b.T)

    def test_negative_entry(self):
        assert not is_dnn([[1.0, -0.1], [-0.1, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            is_dnn([[1.0, 0.5], [0.0, 1.0]])


class TestCpSufficient:
    def test_identity_is_diag_dominant(self):
        assert cp_sufficient(np.eye(4)) == "diag-dominant"

    def test_small_example(self):
        assert cp_sufficient([[2.0, 1.0], [1.0, 2.0]]) is not None

    def test_small_dimension_fallback(self):
        # PSD and nonnegative but not diagonally dominant
        m = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.9], [0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(m).min() > 0
        assert cp_sufficient(m) == "small-dimension"

    def test_bound6_matrix_has_no_cheap_certificate(self):
        assert cp_sufficient(BOUND6_M) is None

    def test_square_root_condition(self):
        m = planted_cp(5, np.random.default_rng(0))
        assert principal_sqrt(m).min() >= 0.0
        assert cp_sufficient(m / m.sum()) == "nonnegative-square-root"
        # not doubly nonnegative: no square root is taken
        assert cp_sufficient(np.ones((5, 5)) - 0.5 * np.eye(5)) is None


class TestCpFactorize:
    def test_planted_factorization_recovered(self):
        rng = np.random.default_rng(7)
        b = rng.random((6, 4))
        result = cp_factorize(b @ b.T, SearchBudget(restarts=100, max_iters=100_000, seed=1))
        assert result.found
        assert result.best_residual <= 1e-7
        assert result.factor.min() >= 0.0

    def test_random_small_dnn_factorizes(self):
        rng = np.random.default_rng(1)
        m = random_dnn_matrix(3, rng)
        result = cp_factorize(m, FAST_BUDGET)
        assert result.found

    def test_evidence_is_checkable(self):
        rng = np.random.default_rng(2)
        m = random_dnn_matrix(4, rng)
        result = cp_factorize(m, FAST_BUDGET)
        assert result.found
        recomputed = np.linalg.norm(m - result.factor @ result.factor.T)
        assert recomputed <= 1e-7

    def test_bound6_matrix_not_found(self):
        # no nonnegative factorization exists; the search must bottom out
        # well above the target instead of faking success
        result = cp_factorize(BOUND6_M, FAST_BUDGET)
        assert not result.found
        assert result.factor is None
        assert result.best_residual > 1e-4
        assert result.restarts_run == FAST_BUDGET.restarts

    def test_non_dnn_is_rejected_without_search(self):
        result = cp_factorize([[1.0, 2.0], [2.0, 1.0]], FAST_BUDGET)
        assert not result.found
        assert result.restarts_run == 0

    def test_determinism_per_seed(self):
        rng = np.random.default_rng(3)
        m = random_dnn_matrix(5, rng)
        budget = SearchBudget(restarts=4, max_iters=2_000, residual_target=1e-12, seed=11)
        a = cp_factorize(m, budget)
        b = cp_factorize(m, budget)
        assert a.best_residual == b.best_residual
        assert a.total_iterations == b.total_iterations
        assert a.restarts_run == b.restarts_run
        assert a.to_json_dict() == b.to_json_dict()
        # a search that ends inside a stack of restarts
        a = cp_factorize(MISSED_BY_RESTART_0, STACK_BUDGET)
        b = cp_factorize(MISSED_BY_RESTART_0, STACK_BUDGET)
        assert a.found and a.found_at_restart > 0
        assert a.to_json_dict() == b.to_json_dict()
        assert np.array_equal(a.factor, b.factor)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(restarts=0)
        with pytest.raises(ValueError):
            SearchBudget(residual_target=0.0)


class TestBatchedSearch:
    def test_bound6_default_budget_stalls_every_restart(self, bound6_default):
        assert not bound6_default.found
        assert bound6_default.restarts_run == 100
        assert bound6_default.exits == {"target": 0, "stall": 100, "budget": 0}
        assert bound6_default.best_residual == pytest.approx(5.409012367159599e-3, abs=1e-12)

    def test_tiny_budget_exits_on_budget(self):
        result = cp_factorize(BOUND6_M, SearchBudget(restarts=7, max_iters=30))
        assert result.exits == {"target": 0, "stall": 0, "budget": 7}
        assert result.total_iterations == 7 * 30
        # the last iterate is compared even though no periodic check came
        assert np.isfinite(result.best_residual)

    def test_restart_0_miss_reports_lowest_index_at_first_hit(self):
        m, budget = MISSED_BY_RESTART_0, STACK_BUDGET
        result = cp_factorize(m, budget)
        # Each restart descends alone exactly as it does inside a stack, so
        # the expected winner follows from per-restart runs: the earliest
        # check at which any restart hits, then the lowest index there.
        hit_at = {}
        for j in range(budget.restarts):
            start = cones._starts(m, budget.seed, range(j, j + 1))
            _, _, iters, exits = cones._descend(m, start, budget.max_iters, budget.residual_target)
            if exits[0] == "target":
                hit_at[j] = int(iters[0])
        first = min(hit_at.values())
        tied = [j for j, it in hit_at.items() if it == first]
        assert 0 not in hit_at and len(tied) > 1 and min(hit_at) < min(tied)
        assert result.found
        assert result.found_at_restart == min(tied)
        assert result.restarts_run == budget.restarts
        assert sum(result.exits.values()) == result.restarts_run
        assert result.exits["stall"] >= 1
        assert result.factor.min() >= 0.0
        assert np.linalg.norm(m - result.factor @ result.factor.T) <= budget.residual_target

    def test_stack_size_does_not_change_the_result(self, monkeypatch, bound6_default):
        sizes = []
        descend = cones._descend

        def recorded(m, b0, *args):
            sizes.append(b0.shape[0])
            return descend(m, b0, *args)

        monkeypatch.setattr(cones, "_descend", recorded)
        monkeypatch.setattr(cones, "_STACK_ENTRIES", 7 * 6 * 21)
        chunked = cp_factorize(BOUND6_M)
        assert sizes == [1] + [7] * 14 + [1]
        assert chunked.to_json_dict() == bound6_default.to_json_dict()

    def test_classify_ds_runs_each_check_once(self, monkeypatch):
        calls = Counter()
        check, eigvalsh, eigh = cones.checked_real_symmetric, np.linalg.eigvalsh, np.linalg.eigh

        def counted_check(*args, **kwargs):
            calls["checked_real_symmetric"] += 1
            return check(*args, **kwargs)

        def counted_eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(cones, "checked_real_symmetric", counted_check)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        classification, cone = classify_ds(MISSED_BY_RESTART_0, STACK_BUDGET)
        assert classification == Classification.SEPARABLE
        assert cone.evidence == "factorization"
        assert calls == {"checked_real_symmetric": 1, "eigvalsh": 1, "eigh": 1}

    def test_bound6_default_budget_iterations(self, bound6_default):
        # Restarts frozen at the step floor leave at their first flat check.
        assert bound6_default.total_iterations == 70_700

    def test_frozen_restarts_leave_at_their_first_flat_check(self):
        # The default budget's 100 starts in one stack: 56 reach the step
        # floor early and leave at the second check, iteration 100; the rest
        # stall after 12 flat checks, or reach the floor late.
        _, _, iters, exits = cones._descend(
            BOUND6_M, cones._starts(BOUND6_M, 0, range(100)), 100_000, 1e-7
        )
        assert exits == ["stall"] * 100
        assert int((iters == 100).sum()) == 56
        assert int(iters[iters != 100].min()) >= 950

    @pytest.mark.parametrize(
        "make, budget, pinned",
        [
            # (found_at_restart, best_residual, factor sum, factor Frobenius
            # norm) of the search that let floored restarts idle through 12
            # flat checks. Each search has a restart that leaves at the step
            # floor; the factor found must not move.
            (lambda: planted_cp(7, np.random.default_rng([11, 0, 3, 7, 0])),
             SearchBudget(restarts=10, seed=11),
             (1, 6.418986417042702e-08, 5.26741080062043, 0.4212616161920753)),
            (lambda: planted_cp(8, np.random.default_rng([11, 12, 0, 8, 0])),
             SearchBudget(restarts=10, seed=11),
             (9, 8.240112328493005e-08, 5.9087577105662135, 0.40969129079752925)),
            (lambda: planted_cp(8, np.random.default_rng([11, 18, 1, 8, 0])),
             SearchBudget(restarts=10, seed=11),
             (8, 7.663227113051962e-08, 5.967237410360674, 0.3977555825417852)),
            (lambda: random_dnn_matrix(6, np.random.default_rng([11, 0, 0, 6, 1])),
             SearchBudget(restarts=10, seed=11),
             (3, 8.327507017884752e-08, 4.489247463693592, 0.5473466423512912)),
            (lambda: random_dnn_matrix(6, np.random.default_rng([11, 23, 2, 6, 1])),
             SearchBudget(restarts=10, seed=11),
             (3, 8.86459731029988e-08, 4.41585512388923, 0.5731368093832918)),
            (lambda: MISSED_BY_RESTART_0, STACK_BUDGET,
             (2, 2.515646230710888e-08, 3.772845290173107, 0.5946139076486725)),
        ],
        ids=["planted-7", "planted-8a", "planted-8b", "wishart-6a", "wishart-6b", "missed-by-0"],
    )
    def test_floor_retirement_keeps_found_factors(self, make, budget, pinned):
        # Tolerances of 1e-9 relative let last-bit BLAS differences pass;
        # a changed trajectory moves these values far more.
        m = make()
        result = cp_factorize(m / m.sum(), budget)
        found_at, residual, total, norm = pinned
        assert result.found and result.found_at_restart == found_at
        assert result.best_residual == pytest.approx(residual, rel=1e-9)
        assert float(result.factor.sum()) == pytest.approx(total, rel=1e-9)
        assert float(np.linalg.norm(result.factor)) == pytest.approx(norm, rel=1e-9)
        assert result.exits["stall"] >= 1


class TestClassifyDs:
    def test_small_dimension_dnn_is_separable(self):
        rng = np.random.default_rng(4)
        classification, cone = classify_ds(random_dnn_matrix(3, rng), FAST_BUDGET)
        assert classification == Classification.SEPARABLE
        assert cone.dnn and cone.cp == CpStatus.YES

    def test_indefinite_matrix_is_npt(self):
        classification, cone = classify_ds([[1.0, 2.0], [2.0, 1.0]], FAST_BUDGET)
        assert classification == Classification.NPT_ENTANGLED
        assert cone.cp == CpStatus.NO
        assert cone.evidence == "not-dnn"

    def test_coupled_power_crosstalk_is_separable_without_search(self):
        # P = exp(LQ) has the nonnegative factor exp(LQ/2), its principal
        # square root, so P/d needs no search. Diagonal dominance, checked
        # first, settles the draws that couple weakly.
        rng = np.random.default_rng(0)
        evidence = Counter()
        for d in range(5, 12):
            for _ in range(4):
                m = coupled_power(d, rng) / d
                classification, cone = classify_ds(m)
                assert classification == Classification.SEPARABLE
                assert cone.search is None
                assert cone.evidence == cp_sufficient(m / m.sum())
                evidence[cone.evidence] += 1
                if cone.evidence == "diag-dominant":
                    continue
                assert cone.evidence == "nonnegative-square-root"
                assert cone.factor.min() >= 0.0
                assert np.linalg.norm(m / m.sum() - cone.factor @ cone.factor.T) <= 1e-7
        assert evidence["nonnegative-square-root"] >= 24

    def test_reducible_matrix_factor_is_clipped(self):
        # A direct sum of two positive blocks, each the square of a positive
        # definite positive matrix, with its indices shuffled. The root's
        # entries between the blocks are exact zeros computed as +-1e-17.
        clipped = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            roots = [rng.random((n, n)) for n in (3, 4)]
            m = np.zeros((7, 7))
            for block, r in zip((slice(0, 3), slice(3, 7)), roots):
                r = r + r.T + r.shape[0] * np.eye(r.shape[0])
                m[block, block] = r @ r
            order = rng.permutation(7)
            m = m[np.ix_(order, order)]
            a = m / m.sum()
            clipped += int(principal_sqrt(a).min() < 0.0)
            classification, cone = classify_ds(m)
            assert classification == Classification.SEPARABLE
            assert cone.evidence == "nonnegative-square-root" and cone.search is None
            assert cone.factor.min() >= 0.0
            assert np.all(cone.factor[m == 0.0] < 1e-15)
            assert np.linalg.norm(a - cone.factor @ cone.factor.T) <= 1e-7
        assert clipped > 0

    def test_bound6_root_is_negative_so_it_searches(self):
        assert principal_sqrt(BOUND6_M / BOUND6_M.sum()).min() == pytest.approx(-0.028, abs=5e-4)
        _, cone = classify_ds(BOUND6_M, FAST_BUDGET)
        assert cone.search is not None and cone.factor is None

    def test_bound6_matrix_is_candidate(self):
        classification, cone = classify_ds(BOUND6_M, FAST_BUDGET)
        assert classification == Classification.PPT_ENTANGLED_CANDIDATE
        assert cone.dnn
        assert cone.cp == CpStatus.UNKNOWN
        assert cone.evidence == "search-not-found"
        assert cone.search is not None and not cone.search.found

    def test_scale_invariance(self):
        c1, _ = classify_ds(BOUND6_M, FAST_BUDGET)
        c2, _ = classify_ds(37.0 * BOUND6_M, FAST_BUDGET)
        assert c1 == c2

    def test_small_dimensions_never_emit_candidates(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            for _ in range(10):
                classification, _ = classify_ds(random_dnn_matrix(d, rng), FAST_BUDGET)
                assert classification != Classification.PPT_ENTANGLED_CANDIDATE

    def test_non_dnn_bridges_to_npt_verdict_on_the_state(self):
        # a pair-weight matrix with a negative eigenvalue must show up as a
        # negative partial-transpose eigenvalue of the expanded state
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 5:
            d = 4
            m = np.abs(rng.standard_normal((d, d)))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.01 * rng.random(d))
            m /= m.sum()
            try:
                dnn = is_dnn(m)
            except ValueError:
                continue
            if dnn:
                continue
            rho = ds_to_density(m)
            assert is_ppt(rho).flag == Conclusion.ENTANGLED
            checked += 1
