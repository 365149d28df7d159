"""Doubly-nonnegative and completely-positive cone membership.

Deciding completely-positive membership exactly is NP-hard, so the search
here is heuristic: cheap sufficient conditions first, then a seeded
multi-restart projected-gradient factorization. A factorization that hits
the residual target is checkable evidence of membership; exhausting the
budget is reported as "not found", never as a proof of non-membership.
For orders below five the two cones coincide, so doubly-nonnegative
membership alone settles the question there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, checked_real_symmetric, matrix_to_literal


class CpStatus(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Classification(str, Enum):
    SEPARABLE = "separable"
    NPT_ENTANGLED = "npt-entangled"
    PPT_ENTANGLED_CANDIDATE = "ppt-entangled-candidate"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic budget for the factorization search."""

    restarts: int = 100
    max_iters: int = 100_000
    residual_target: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not self.residual_target > 0.0:
            raise ValueError("residual_target must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class FactorizationResult:
    """Outcome of the factorization search, found or not."""

    found: bool
    factor: np.ndarray | None
    best_residual: float
    restarts_run: int
    total_iterations: int
    found_at_restart: int | None

    def to_json_dict(self) -> dict:
        """Search statistics; the factor itself is serialized by ConeVerdict."""
        return {
            "found": self.found,
            "best_residual": self.best_residual,
            "restarts_run": self.restarts_run,
            "total_iterations": self.total_iterations,
            "found_at_restart": self.found_at_restart,
        }


@dataclass(frozen=True)
class ConeVerdict:
    """Cone membership with checkable evidence attached."""

    dnn: bool
    cp: CpStatus
    evidence: str
    factor: np.ndarray | None = None
    search: FactorizationResult | None = None

    def to_json_dict(self) -> dict:
        return {
            "dnn": self.dnn,
            "cp": self.cp.value,
            "evidence": self.evidence,
            "factor": None if self.factor is None else matrix_to_literal(self.factor),
            "search": None if self.search is None else self.search.to_json_dict(),
        }


def is_dnn(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Entrywise nonnegative and positive semidefinite."""
    a = checked_real_symmetric(m, "matrix", tol)
    if a.min() < -tol.eq_tol:
        return False
    return float(np.linalg.eigvalsh((a + a.T) / 2)[0]) >= -tol.psd_floor


def cp_sufficient(m, tol: Tolerance = DEFAULT_TOL) -> str | None:
    """Cheap sufficient conditions for completely-positive membership.

    Diagonal dominance of a symmetric nonnegative matrix suffices, as does
    order below five together with doubly-nonnegative membership. Returns
    the satisfied condition's name, or None; never a false positive.
    """
    a = checked_real_symmetric(m, "matrix", tol)
    if a.min() < -tol.eq_tol:
        return None
    off_row_sums = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    if np.all(np.diag(a) >= off_row_sums - tol.eq_tol):
        return "diag-dominant"
    if a.shape[0] < 5 and is_dnn(a, tol):
        return "small-dimension"
    return None


def _pgd_restart(
    m: np.ndarray,
    b0: np.ndarray,
    max_iters: int,
    target: float,
    check_every: int = 50,
    stall_checks: int = 12,
) -> tuple[np.ndarray, float, int]:
    # Projected gradient on F(B) = ||M - B B^T||_F^2 with Barzilai-Borwein
    # steps. A restart ends when the target is hit, the budget runs out, or
    # the best residual stops improving.
    b = b0
    g = 4.0 * (b @ b.T - m) @ b
    step = 1.0 / max(1.0, 8.0 * float(np.linalg.norm(m)))
    best_b, best_r = b, np.inf
    previous_best = np.inf
    stall = 0
    iters = 0
    for it in range(1, max_iters + 1):
        iters = it
        b_new = np.maximum(b - step * g, 0.0)
        g_new = 4.0 * (b_new @ b_new.T - m) @ b_new
        s = b_new - b
        y = g_new - g
        sy = float((s * y).sum())
        step = float((s * s).sum()) / sy if sy > 1e-30 else step * 0.5
        step = min(max(step, 1e-12), 1e6)
        b, g = b_new, g_new
        if it % check_every == 0:
            r = float(np.linalg.norm(m - b @ b.T))
            if r < best_r:
                best_b, best_r = b.copy(), r
            if best_r <= target:
                break
            if previous_best - best_r < max(1e-14, 1e-6 * best_r):
                stall += 1
                if stall >= stall_checks:
                    break
            else:
                stall = 0
            previous_best = best_r
    if best_r == np.inf:
        best_b, best_r = b.copy(), float(np.linalg.norm(m - b @ b.T))
    return best_b, best_r, iters


def cp_factorize(
    m,
    budget: SearchBudget = SearchBudget(),
    tol: Tolerance = DEFAULT_TOL,
) -> FactorizationResult:
    """Search for an entrywise-nonnegative B with M = B B^T.

    Runs seeded projected-gradient descents from random nonnegative starts
    with d(d+1)/2 columns. Restarts use independently derived seeds and are
    merged by best residual (lowest restart index wins ties), so the
    statistics are bit-identical for a fixed budget seed. A matrix that is
    not doubly nonnegative cannot be completely positive and is rejected
    without searching.
    """
    a = checked_real_symmetric(m, "matrix", tol)
    if not is_dnn(a, tol):
        return FactorizationResult(False, None, np.inf, 0, 0, None)
    d = a.shape[0]
    k = d * (d + 1) // 2
    scale = np.sqrt(max(float(a.mean()), 1e-12) / k)
    best_b: np.ndarray | None = None
    best_r = np.inf
    total_iters = 0
    restarts_run = 0
    found_at = None
    for restart in range(budget.restarts):
        rng = np.random.default_rng([budget.seed, restart])
        b0 = scale * (0.5 + rng.random((d, k)))
        b, r, iters = _pgd_restart(a, b0, budget.max_iters, budget.residual_target)
        total_iters += iters
        restarts_run += 1
        if r < best_r:
            best_b, best_r = b, r
        if best_r <= budget.residual_target:
            found_at = restart
            break
    found = best_r <= budget.residual_target
    return FactorizationResult(
        found=found,
        factor=best_b if found else None,
        best_residual=float(best_r),
        restarts_run=restarts_run,
        total_iterations=total_iters,
        found_at_restart=found_at,
    )


def classify_ds(
    m,
    budget: SearchBudget = SearchBudget(),
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Classification, ConeVerdict]:
    """Entanglement class of the Dicke-diagonal state behind a pair-weight matrix.

    The matrix is normalized to unit total mass first (all cone conditions
    are scale-invariant). Not doubly nonnegative means a negative
    partial-transpose eigenvalue, hence free entanglement. Doubly
    nonnegative plus any completely-positive evidence means separable.
    Doubly nonnegative at order >= 5 with the search exhausted is reported
    as a bound-entanglement candidate, since a failed search is not a proof.
    """
    a = checked_real_symmetric(m, "matrix", tol)
    mass = float(a.sum())
    if mass <= 0.0:
        raise ValueError("pair-weight matrix must have positive total mass")
    a = a / mass
    if not is_dnn(a, tol):
        return Classification.NPT_ENTANGLED, ConeVerdict(False, CpStatus.NO, "not-dnn")
    condition = cp_sufficient(a, tol)
    if condition is not None:
        return Classification.SEPARABLE, ConeVerdict(True, CpStatus.YES, condition)
    result = cp_factorize(a, budget, tol)
    if result.found:
        verdict = ConeVerdict(True, CpStatus.YES, "factorization", result.factor, result)
        return Classification.SEPARABLE, verdict
    verdict = ConeVerdict(True, CpStatus.UNKNOWN, "search-not-found", None, result)
    return Classification.PPT_ENTANGLED_CANDIDATE, verdict
