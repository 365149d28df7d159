"""Closed-form criteria on the pair of tables that fixes an invariant state.

A state invariant under U (x) U-conjugate for every diagonal unitary U is
described by a pair of d x d tables: nonnegative weights on |ij><ij| and a
Hermitian coherence block on |ii><jj| (``ClduiState``, defined in
``states`` next to DensityMatrix and imported here). The Choi state of a
fibre channel is such a pair. So is the partial transpose of a mixture of
symmetric-pair (Dicke) projectors: both of its tables equal the pair-weight
matrix M (diagonal p_ii, off-diagonal p_ij / 2), so a Dicke-diagonal state
is handled as its M alone. ``channel_from_ds`` designs the fibre channel
whose Choi state is the pair (M, M), that is, whose output is the partial
transpose of the Dicke-diagonal state.

Both entanglement tests exploit structure. The partial transpose is the
weights A_ii plus 2 x 2 blocks [[A_ij, B_ij], [B_ji, A_ji]], so it is PSD iff
(A_ij + A_ji)/2 >= sqrt(((A_ij - A_ji)/2)^2 + |B_ij|^2), the least block
eigenvalue. The realigned matrix decomposes exactly into the weight table
(on the index pairs (i,i)) plus a diagonal of coherences (on the pairs
(i,j), i != j), so its trace norm is ||A||_tr + sum_{i != j} |B_ij|.
"""

from __future__ import annotations

import numpy as np

from .channel import McfChannel
from .linalg import DEFAULT_TOL, Tolerance, checked_real_symmetric, trace_norm
from .states import ClduiState, Conclusion, CriterionVerdict


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
    absolute off-diagonal coherence mass.
    """
    off = ~np.eye(s.d, dtype=bool)
    value = trace_norm(s.weights) + float(np.abs(s.coherences[off]).sum())
    flag = Conclusion.ENTANGLED if value > 1.0 + tol.eq_tol else Conclusion.INCONCLUSIVE
    return CriterionVerdict("cldui-realignment", value, flag)


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
