"""States with diagonal-unitary and permutation symmetry.

Two parameterized families live here. The first is invariant under
U (x) U-conjugate for every diagonal unitary U and is described by a pair of
d x d tables: nonnegative weights on |ij><ij| and a Hermitian coherence
block on |ii><jj| (``ClduiState``, defined in ``states`` next to
DensityMatrix and imported here). The second is the family of mixtures of symmetric-pair
(Dicke) projectors, described by an upper-triangular weight table. The
partial transpose of the second family lands inside the first, with both
tables equal to the pair-weight matrix (diagonal p_ii, off-diagonal p_ij/2),
which is what connects fibre channels to these states: a channel whose
Choi operator realizes that matrix outputs the partial transpose of a
Dicke-diagonal state.

Both specialized entanglement tests exploit structure. The partial
transpose is the weights A_ii plus 2 x 2 blocks [[A_ij, B_ij], [B_ji, A_ji]],
so it is PSD iff (A_ij + A_ji)/2 >= sqrt(((A_ij - A_ji)/2)^2 + |B_ij|^2),
the least block eigenvalue. The realigned matrix decomposes exactly into the
weight table (on the index pairs (i,i)) plus a diagonal of coherences (on
the pairs (i,j), i != j), so its trace norm is
||A||_tr + sum_{i != j} |B_ij|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import McfChannel
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    check_distribution,
    checked_real,
    checked_real_symmetric,
    entrywise_one_norm,
    pair_to_dense,
    trace_norm,
)
from .states import ClduiState, Conclusion, CriterionVerdict, DensityMatrix


@dataclass(frozen=True)
class DsState:
    """Dicke-diagonal state given by an upper-triangular weight table.

    weights[i, j] with i <= j is the probability of the symmetric pair
    projector on (i, j); the strict lower triangle must be zero.
    """

    d: int
    weights: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.weights)
        if w.shape != (self.d, self.d):
            raise ValueError(f"weight table must be {self.d} x {self.d}")
        w = checked_real(w, "weights must be real").copy()
        if np.abs(np.tril(w, -1)).max() > 0.0:
            raise ValueError("weights must be upper triangular (use index i <= j)")
        check_distribution(w, "weights")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def cldui_from_choi(j: ClduiState, tol: Tolerance = DEFAULT_TOL) -> ClduiState:
    """Return the Choi state unchanged: ``choi`` already returns the pair.
    Kept for callers of the older two-step API."""
    return j


def cldui_is_ppt(s: ClduiState, tol: Tolerance = DEFAULT_TOL) -> CriterionVerdict:
    """Closed-form PPT test: the least eigenvalue over the 2 x 2 pair blocks
    [[A_ij, B_ij], [B_ji, A_ji]], thresholded like the generic route."""
    a, b = s.weights, s.coherences
    off = ~np.eye(s.d, dtype=bool)
    lows = (a + a.T) / 2 - np.sqrt(((a - a.T) / 2) ** 2 + np.abs(b) ** 2)
    # a single-core state has no pairs and is trivially PPT
    value = float(lows[off].min()) if off.any() else 0.0
    flag = Conclusion.ENTANGLED if value < -tol.psd_floor else Conclusion.INCONCLUSIVE
    return CriterionVerdict("cldui-ppt", value, flag)


def cldui_realignment_test(s: ClduiState, tol: Tolerance = DEFAULT_TOL) -> CriterionVerdict:
    """Realignment trace norm via the exact block decomposition.

    The realigned matrix is the weight table direct-summed with the
    off-diagonal coherences, so the trace norm is ||weights||_tr plus the
    absolute off-diagonal coherence mass. The one-norm gaps of both tables
    are reported as diagnostics alongside the decision statistic.
    """
    a, b = s.weights, s.coherences
    off = ~np.eye(s.d, dtype=bool)
    a_norm = trace_norm(a)
    value = a_norm + float(np.abs(b[off]).sum())
    flag = Conclusion.ENTANGLED if value > 1.0 + tol.eq_tol else Conclusion.INCONCLUSIVE
    details = {
        "weights_one_norm_gap": entrywise_one_norm(a) - a_norm,
        "coherences_one_norm_gap": entrywise_one_norm(b) - trace_norm(b),
    }
    return CriterionVerdict("cldui-realignment", value, flag, details)


def ds_to_density(s: DsState) -> DensityMatrix:
    """Mixture of symmetric-pair projectors with the given weights."""
    d = s.d
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            p = s.weights[i, j]
            if i == j:
                mat[i * d + i, i * d + i] += p
            else:
                for r in (i * d + j, j * d + i):
                    for c in (i * d + j, j * d + i):
                        mat[r, c] += p / 2
    return DensityMatrix(mat, factors=(d, d))


def m_matrix(s: DsState) -> np.ndarray:
    """Pair-weight matrix: diagonal p_ii, off-diagonal p_ij / 2."""
    w = s.weights
    m = (w + w.T) / 2
    np.fill_diagonal(m, np.diag(w))
    return m


def ds_from_m_matrix(m) -> DsState:
    """Inverse of m_matrix: p_ii from the diagonal, p_ij = 2 m_ij for i < j."""
    a = checked_real_symmetric(m, "pair-weight matrix", asymmetry="must be symmetric")
    d = a.shape[0]
    w = np.triu(2 * a, 1)
    np.fill_diagonal(w, np.diag(a))
    return DsState(d, w)


def ds_partial_transpose(s: DsState) -> tuple[np.ndarray, np.ndarray]:
    """Partial transpose of the expanded state together with its pair-weight matrix.

    The spectrum of the partial transpose is the spectrum of the pair-weight
    matrix joined with the off-diagonal weights p_ij / 2 (each twice).
    """
    m = m_matrix(s)
    return pair_to_dense(m, m), m


def channel_from_ds(m, tol: Tolerance = DEFAULT_TOL) -> McfChannel:
    """Design the fibre channel whose Choi operator realizes a pair-weight matrix.

    The crosstalk probabilities are d * m_ij and the (real) dephasing
    coefficients are d * m_ij - 1. Trace preservation forces every row and
    column of m to sum to 1/d; the requirement |1 + alpha_ij| <= 1 forces
    d * m_ij <= 1 off the diagonal. Asymmetric tables are rejected rather
    than symmetrized: they describe valid channels but not this family.
    """
    a = checked_real_symmetric(m, "pair-weight matrix", tol)
    d = a.shape[0]
    if a.min() < 0.0:
        raise ValueError("pair-weight matrix entries must be nonnegative")
    sums = np.concatenate([a.sum(axis=0), a.sum(axis=1)])
    if np.abs(sums - 1.0 / d).max() > tol.eq_tol:
        raise ValueError(
            "trace-preservation constraint violated: every row and column must sum to 1/d"
        )
    off = ~np.eye(d, dtype=bool)
    if (d * a[off]).max() > 1.0 + tol.eq_tol:
        raise ValueError("dephasing out of range: d * m_ij must be <= 1 off the diagonal")
    alpha = (d * a - 1.0).astype(complex)
    np.fill_diagonal(alpha, 0.0)
    return McfChannel(d * a, alpha)
