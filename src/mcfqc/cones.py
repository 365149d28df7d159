"""Doubly-nonnegative and completely-positive cone membership.

Deciding completely-positive membership exactly is NP-hard, so the search
here is heuristic: cheap sufficient conditions first (the last of them a
nonnegative principal square root, which is itself a factor), then a seeded
multi-restart projected-gradient factorization. Restart 0 runs alone, since
it settles most inputs that can be settled; the remaining restarts descend
together, as stacked arrays of bounded size. A restart stops when it stops
improving: at once if it is stationary or frozen at the step floor. It
reaches the residual target by descent, or by a few Gauss-Newton steps
taken from a copy of its iterate once it is near the target. A
factorization that hits the residual target is checkable evidence of
membership; exhausting the budget is reported as "not found", never as a
proof of non-membership. For orders below five the two cones coincide, so
doubly-nonnegative membership alone settles the question there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, checked_real_symmetric, matrix_to_literal

# Why a restart stopped; FactorizationResult.exits counts each.
_EXIT_REASONS = ("target", "stall", "budget")
# The descent compares residuals every _CHECK_EVERY iterations and at its last
# one; a restart has stalled after _STALL_CHECKS checks in a row that cut its
# best residual by less than a relative 1e-6, or after one such check with its
# step at the 4e-12 floor, where it barely moves, or with its iterate B
# stationary: a projected gradient ||B - max(B - H, 0)||_F of at most
# _STATIONARY * r * ||B||_F, where H = (B B^T - M) B and r = ||B B^T - M||_F,
# so that H itself is of order r ||B||_F. The stationarity test runs only at
# checks where some restart is flat.
_CHECK_EVERY = 50
_STALL_CHECKS = 12
_STATIONARY = 1e-3
# At a check, a restart whose residual r has fallen within _POLISH_FROM times
# the target tries up to _POLISH_STEPS Gauss-Newton steps from a copy of its
# iterate; whether or not they reach the target, it tries again only once its
# residual is at most _POLISH_RETRY * r.
_POLISH_FROM = 1e3
_POLISH_STEPS = 4
_POLISH_RETRY = 0.5
# Restarts after the first descend in stacks of at most this many factor
# entries (restarts x d x k): 256 kB per stacked array, which keeps a stack's
# working set near the per-core cache. All 99 restarts of a default budget
# share one stack up to order 8. Larger stacks measured slower per
# restart-iteration at orders 12 to 32.
_STACK_ENTRIES = 1 << 15


class CpStatus(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Classification(str, Enum):
    SEPARABLE = "separable"
    NPT_ENTANGLED = "npt-entangled"
    PPT_ENTANGLED_CANDIDATE = "ppt-entangled-candidate"


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
    """Outcome of the factorization search, found or not.

    ``exits`` counts the restarts run by why they stopped, one key per
    exit reason, and the counts sum to ``restarts_run``: "stall" for
    a restart whose best residual stopped improving, whether it was frozen
    at the step floor, stationary or neither, "budget" for one that ran
    ``max_iters`` iterations, and "target" for every restart still
    descending at the check where the search reached its target, by
    descent or by polish.
    """

    found: bool
    factor: np.ndarray | None
    best_residual: float
    restarts_run: int
    total_iterations: int
    found_at_restart: int | None
    exits: dict[str, int]

    def to_json_dict(self) -> dict:
        """Search statistics; the factor itself is serialized by ConeVerdict."""
        return {
            "found": self.found,
            "best_residual": self.best_residual,
            "restarts_run": self.restarts_run,
            "total_iterations": self.total_iterations,
            "found_at_restart": self.found_at_restart,
            "exits": dict(self.exits),
        }


@dataclass(frozen=True)
class ConeVerdict:
    """Cone membership with checkable evidence.

    ``factor`` is the nonnegative B with M = B B^T that proves membership,
    when one is known: the nonnegative square root or the search's factor.
    ``search`` is set only when the factorization search ran.
    """

    dnn: bool
    cp: CpStatus
    evidence: str
    search: FactorizationResult | None = None
    factor: np.ndarray | None = None

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
    return _is_dnn(checked_real_symmetric(m, "matrix", tol), tol)


def _is_dnn(a: np.ndarray, tol: Tolerance) -> bool:
    # is_dnn on a matrix checked_real_symmetric already returned
    if a.min() < -tol.eq_tol:
        return False
    return float(np.linalg.eigvalsh((a + a.T) / 2)[0]) >= -tol.psd_floor


def cp_sufficient(m, tol: Tolerance = DEFAULT_TOL) -> str | None:
    """Cheap sufficient conditions for completely-positive membership.

    Diagonal dominance of a symmetric nonnegative matrix suffices, as does
    doubly-nonnegative membership together with order below five or with a
    principal square root S that is entrywise nonnegative, up to ``eq_tol``,
    and within the default budget's residual target of a factor:
    ||M - S S^T||_F <= 1e-7. These are classify_ds's conditions in its order,
    so on a matrix of unit total mass this names the condition that settles
    it under the default budget without a search. Returns the satisfied
    condition's name, or None; never a false positive.
    """
    a = checked_real_symmetric(m, "matrix", tol)
    if a.min() < -tol.eq_tol:
        return None
    settled = _sufficient(a, tol, _is_dnn(a, tol), SearchBudget.residual_target)
    return None if settled is None else settled[0]


def _sufficient(
    a: np.ndarray, tol: Tolerance, dnn: bool, target: float
) -> tuple[str, np.ndarray | None] | None:
    # cp_sufficient on a checked nonnegative matrix, which dnn says is
    # doubly nonnegative or not: the satisfied condition and its factor, if
    # it has one. The square root costs an eigh, so it runs last.
    off_row_sums = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    if np.all(np.diag(a) >= off_row_sums - tol.eq_tol):
        return "diag-dominant", None
    if not dnn:
        return None
    if a.shape[0] < 5:
        return "small-dimension", None
    w, v = np.linalg.eigh(a)
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    if s.min() < -tol.eq_tol:
        return None
    s = np.maximum(s, 0.0)
    if not np.linalg.norm(a - s @ s.T) <= target:
        return None
    return "nonnegative-square-root", s


def _work_arrays(m: np.ndarray, pair: np.ndarray) -> tuple:
    # The arrays _descend reuses every iteration for the R restarts held in
    # `pair`, a (2, R, d, k) buffer of iterates B and gradients H. A
    # second buffer alternates with it as the old and the new iterate; each
    # comes with its views (buffer, B, B^T, B flat, H, H flat). `diff` takes
    # the new pair minus the old, (s, y), and `dots` the per-restart products
    # s.s and s.y. M is repeated per restart: a same-shape subtraction costs
    # less than a broadcast one.
    _, n, d, k = pair.shape

    def views(x):
        return x, x[0], x[0].transpose(0, 2, 1), x[0].reshape(n, -1), x[1], x[1].reshape(n, -1)

    diff = np.empty_like(pair)
    dots = np.empty((2, n, 1, 1))
    return (
        views(pair),
        views(np.empty_like(pair)),
        np.repeat(m[None], n, axis=0),
        np.empty((n, d, d)),
        diff,
        diff.reshape(2, n, 1, d * k),
        diff[0].reshape(n, d * k, 1),
        dots,
        dots.reshape(2, n),
    )


def _polish(m: np.ndarray, b: np.ndarray, target: float) -> tuple[np.ndarray, float] | None:
    """Gauss-Newton steps on the positive entries of the factor b, up to the target.

    Each step solves (J J^T) z = -vech(B B^T - M), where J is the Jacobian
    of vech(B B^T) in B's positive entries, moves those entries by J^T z,
    the least-norm solution of the linearized equations, and clips B at 0.
    Returns the first factor within the target and its residual
    ||B B^T - M||_F; None if none of the _POLISH_STEPS steps reaches the
    target or J J^T is singular, as when B has a zero row.
    """
    rows, cols = np.triu_indices(m.shape[0])
    for _ in range(_POLISH_STEPS):
        p, q = np.nonzero(b)
        # d(B B^T)_rc / dB_pq = [r == p] B_cq + [c == p] B_rq
        jac = (rows[:, None] == p) * b[cols[:, None], q]
        jac += (cols[:, None] == p) * b[rows[:, None], q]
        try:
            z = np.linalg.solve(jac @ jac.T, (m - b @ b.T)[rows, cols])
        except np.linalg.LinAlgError:
            return None
        b = b.copy()
        b[p, q] = np.maximum(b[p, q] + jac.T @ z, 0.0)
        r = float(np.linalg.norm(b @ b.T - m))
        if r <= target:
            return b, r
    return None


def _descend(
    m: np.ndarray, b0: np.ndarray, max_iters: int, target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Projected gradient descent from every start in the (R, d, k) stack b0 at once.

    Minimizes F(B) = ||B B^T - M||_F^2 / 4 over B >= 0, whose gradient is
    H = (B B^T - M) B. Each restart keeps its own Barzilai-Borwein step,
    clipped to [4e-12, 4e6] and halved when s.y is at most 2.5e-31. At every
    check the residual ||B B^T - M||_F comes from the B B^T - M the gradient
    step just formed; it updates each restart's best, and restarts that have
    stalled leave the stack. A check that did not cut a restart's best
    residual ends it at once if its step sits at the floor, where it would
    idle, or if its projected gradient is at most _STATIONARY times
    r ||B||_F, where it would only polish its residual; otherwise it stalls
    after _STALL_CHECKS such checks in a row. At a check, each restart with
    a residual above the target and at most its polish threshold, at first
    _POLISH_FROM times the target, runs _polish on a copy of its iterate and
    lowers the threshold to _POLISH_RETRY times its residual; a polished
    factor at the target becomes its best. The iterate itself never changes,
    so neither does any trajectory or exit before the first hit. The descent
    ends at the first check where some restart's best residual reaches the
    target, when the budget runs out, or when every restart has stalled.

    Returns per restart its best factor, the residual of that factor, the
    descent iterations it ran and its exit reason. Restarts still descending
    when the descent ends exit for the reason it ended: "target" or "budget".
    """
    n = b0.shape[0]
    best_b = b0.copy()
    best_r = np.full(n, np.inf)
    previous = np.full(n, np.inf)
    stalls = np.zeros(n, dtype=int)
    polish_at = np.full(n, _POLISH_FROM * target)
    iters = np.full(n, max_iters)
    exits = ["budget"] * n
    live = np.arange(n)
    pair = np.stack((b0, (b0 @ b0.transpose(0, 2, 1) - m) @ b0))
    old, new, m_stack, e, diff, diff_rows, s_col, dots, dots_flat = _work_arrays(m, pair)
    steps = [1.0 / max(0.25, 2.0 * float(np.linalg.norm(m)))] * n
    for it in range(1, max_iters + 1):
        x, _, _, b_flat, _, h_flat = old
        x_new, b_new, bt_new, b_new_flat, h_new, _ = new
        step_sizes = steps[0] if len(steps) == 1 else np.array(steps).reshape(-1, 1)
        np.multiply(h_flat, step_sizes, out=b_new_flat)
        np.subtract(b_flat, b_new_flat, out=b_new_flat)
        np.maximum(b_new_flat, 0.0, out=b_new_flat)
        np.matmul(b_new, bt_new, out=e)
        np.subtract(e, m_stack, out=e)
        np.matmul(e, b_new, out=h_new)
        np.subtract(x_new, x, out=diff)
        np.matmul(diff_rows, s_col, out=dots)
        # The steps stay Python floats, and a lone restart's multiplies as a
        # scalar: at a stack's usual sizes either costs less than more
        # small-array numpy calls.
        ss, sy = dots_flat.tolist()
        steps = [a / c if c > 2.5e-31 else step * 0.5 for a, c, step in zip(ss, sy, steps)]
        steps = [4e-12 if step < 4e-12 else 4e6 if step > 4e6 else step for step in steps]
        old, new = new, old
        if it % _CHECK_EVERY and it < max_iters:
            continue
        flat_e = e.reshape(live.size, 1, -1)
        r = np.sqrt((flat_e @ flat_e.transpose(0, 2, 1)).ravel())
        better = r < best_r[live]
        best_r[live[better]] = r[better]
        best_b[live[better]] = b_new[better]
        # The first polished hit ends the loop: a later one would have a
        # higher restart index, and the descent ends at this check anyway.
        for j in np.flatnonzero((r > target) & (r <= polish_at[live])):
            polish_at[live[j]] = _POLISH_RETRY * r[j]
            polished = _polish(m, b_new[j], target)
            if polished is not None:
                best_b[live[j]], best_r[live[j]] = polished
                break
        current = best_r[live]
        hit = bool((current <= target).any())
        if hit or it == max_iters:
            iters[live] = it
            if hit:
                for i in live:
                    exits[i] = "target"
            break
        flat = previous[live] - current < np.maximum(1e-14, 1e-6 * current)
        counts = np.where(flat, stalls[live] + 1, 0)
        stalls[live] = counts
        previous[live] = current
        done = counts >= _STALL_CHECKS
        if flat.any():
            # The projected gradient B - max(B - H, 0) is min(B, H), as B >= 0.
            _, _, _, b_flat, _, h_flat = old
            gap = np.linalg.norm(np.minimum(b_flat, h_flat), axis=1)
            stationary = gap <= _STATIONARY * r * np.linalg.norm(b_flat, axis=1)
            floored = np.array([step == 4e-12 for step in steps])
            done |= flat & (floored | stationary)
        if done.any():
            iters[live[done]] = it
            for i in live[done]:
                exits[i] = "stall"
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            steps = [step for step, kept in zip(steps, keep) if kept]
            work = _work_arrays(m, old[0][:, keep])
            old, new, m_stack, e, diff, diff_rows, s_col, dots, dots_flat = work
    return best_b, best_r, iters, exits


def _starts(a: np.ndarray, seed: int, restarts: range) -> np.ndarray:
    # The random nonnegative starts, with d(d+1)/2 columns, of the given
    # restarts, stacked; restart r draws from the seed (seed, r).
    d = a.shape[0]
    k = d * (d + 1) // 2
    scale = np.sqrt(max(float(a.mean()), 1e-12) / k)
    return np.stack([
        scale * (0.5 + np.random.default_rng([seed, restart]).random((d, k)))
        for restart in restarts
    ])


def _search(a: np.ndarray, budget: SearchBudget) -> FactorizationResult:
    # The factorization search on a checked doubly-nonnegative matrix.
    d = a.shape[0]
    per_stack = max(1, _STACK_ENTRIES // (d * d * (d + 1) // 2))
    bounds = [0, *range(1, budget.restarts, per_stack), budget.restarts]
    exits = dict.fromkeys(_EXIT_REASONS, 0)
    best_r = np.inf
    total_iters = 0
    for lo, hi in zip(bounds, bounds[1:]):
        factors, residuals, iters, reasons = _descend(
            a, _starts(a, budget.seed, range(lo, hi)), budget.max_iters, budget.residual_target
        )
        total_iters += int(iters.sum())
        for reason in reasons:
            exits[reason] += 1
        hits = np.flatnonzero(residuals <= budget.residual_target)
        if hits.size:
            i = int(hits[0])
            return FactorizationResult(
                True, factors[i].copy(), float(residuals[i]), hi, total_iters, lo + i, exits
            )
        best_r = min(best_r, float(residuals.min()))
    return FactorizationResult(False, None, best_r, budget.restarts, total_iters, None, exits)


def cp_factorize(
    m,
    budget: SearchBudget = SearchBudget(),
    tol: Tolerance = DEFAULT_TOL,
) -> FactorizationResult:
    """Search for an entrywise-nonnegative B with M = B B^T.

    Runs seeded projected-gradient descents from random nonnegative starts
    with d(d+1)/2 columns; restart r starts from the seed (budget.seed, r).
    A restart reaches the target by descent or, once near it, by
    Gauss-Newton steps from a copy of its iterate. Restart 0 runs alone. If
    it misses the target, restarts 1 onward descend together, in stacks
    capped in size, and the first check at which any restart of a stack
    reaches the target ends the search. Hence:

    - ``restarts_run`` counts the restarts started: restart 0 plus every
      stack started, in full, so a hit may leave it above
      ``found_at_restart + 1``;
    - ``total_iterations`` sums the descent iterations each started
      restart ran before it stopped; Gauss-Newton steps are not counted;
    - ``found_at_restart`` is the lowest index among the restarts at the
      target at that first check; its factor and residual are reported.

    Without a hit, ``best_residual`` is the least residual of any restart.
    The statistics are bit-identical for a fixed budget. A restart's descent
    does not depend on which restarts share its stack, so a search that
    finds nothing reports the same whatever the stack size. A matrix that
    is not doubly nonnegative cannot be completely positive and is rejected
    without searching.
    """
    a = checked_real_symmetric(m, "matrix", tol)
    if not _is_dnn(a, tol):
        no_exits = dict.fromkeys(_EXIT_REASONS, 0)
        return FactorizationResult(False, None, np.inf, 0, 0, None, no_exits)
    return _search(a, budget)


def classify_ds(
    m,
    budget: SearchBudget = SearchBudget(),
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Classification, ConeVerdict]:
    """Entanglement class of the Dicke-diagonal state behind a pair-weight matrix.

    The matrix is normalized to unit total mass first (all cone conditions
    are scale-invariant). Not doubly nonnegative means a negative
    partial-transpose eigenvalue, hence free entanglement. Doubly
    nonnegative plus any completely-positive evidence means separable: the
    conditions of cp_sufficient, the square root held to the budget's
    residual target, and then the search, which runs only if they all fail.
    Doubly nonnegative at order >= 5 with the search exhausted is reported
    as a bound-entanglement candidate, since a failed search is not a proof.
    Each check runs once, on the normalized matrix.
    """
    a = checked_real_symmetric(m, "matrix", tol)
    mass = float(a.sum())
    if mass <= 0.0:
        raise ValueError("pair-weight matrix must have positive total mass")
    a = a / mass
    if not _is_dnn(a, tol):
        return Classification.NPT_ENTANGLED, ConeVerdict(False, CpStatus.NO, "not-dnn")
    settled = _sufficient(a, tol, True, budget.residual_target)
    if settled is not None:
        evidence, factor = settled
        return Classification.SEPARABLE, ConeVerdict(True, CpStatus.YES, evidence, factor=factor)
    result = _search(a, budget)
    if result.found:
        verdict = ConeVerdict(True, CpStatus.YES, "factorization", result, result.factor)
        return Classification.SEPARABLE, verdict
    verdict = ConeVerdict(True, CpStatus.UNKNOWN, "search-not-found", result)
    return Classification.PPT_ENTANGLED_CANDIDATE, verdict
