"""Multicore-fibre channel model: crosstalk plus dephasing in the core basis.

A d-core fibre acts on a state written in the core basis by scrambling its
populations with a crosstalk table P (P[i, j] is the probability that light
entering core i exits core j) and damping each coherence rho_ij by a factor
1 + alpha_ij. With P the identity the map fixes every |i><i|, which is the
maximal fixed-point set a nontrivial channel can have.

The Choi operator of such a channel has a closed form: diagonal entries
P[i, j] / d plus a single d x d coherence block on the span of |ii> (the
"hat block"); ``choi`` returns it as that pair of tables, a ClduiState.
Complete positivity of the channel is equivalent to positive
semidefiniteness of that block, which keeps all physicality checks at d x d
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _json_number,
    as_matrix,
    checked_hermitian,
    checked_real,
    is_psd,
    matrix_from_literal,
    matrix_to_literal,
)
from .states import ClduiState, DensityMatrix, _trusted


def _checked_crosstalk(m) -> np.ndarray:
    """Real part (a view) of a square, real, nonnegative crosstalk table, else ValueError."""
    p = as_matrix(m)
    if p.shape[0] != p.shape[1]:
        raise ValueError("crosstalk table must be square")
    p = checked_real(p, "crosstalk table must be real")
    if p.min() < 0.0:
        raise ValueError("crosstalk probabilities must be nonnegative")
    return p


@dataclass(frozen=True)
class McfChannel:
    """Channel parameters: real crosstalk table and Hermitian dephasing table.

    The diagonal of ``dephasing`` is stored but never used by the map. The
    off-diagonal entries must satisfy |1 + alpha_ij| <= 1 (coherences can
    only shrink) and alpha_ji = conj(alpha_ij), without which Hermitian
    inputs would not map to Hermitian outputs.
    """

    crosstalk: np.ndarray
    dephasing: np.ndarray

    def __post_init__(self):
        p = _checked_crosstalk(self.crosstalk).copy()
        a = as_matrix(self.dephasing)
        if a.shape != p.shape:
            raise ValueError("dephasing table must match the crosstalk table shape")
        a = checked_hermitian(a, "dephasing table must be Hermitian (alpha_ji = conj(alpha_ij))")
        off = ~np.eye(a.shape[0], dtype=bool)
        if off.any() and np.abs(1.0 + a[off]).max() > 1.0 + DEFAULT_TOL.eq_tol:
            raise ValueError("dephasing out of range: |1 + alpha_ij| must be <= 1")
        p.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "crosstalk", p)
        object.__setattr__(self, "dephasing", a)

    @property
    def d(self) -> int:
        return self.crosstalk.shape[0]

    @classmethod
    def with_uniform_dephasing(cls, crosstalk, alpha: float) -> "McfChannel":
        """Broadcast a single real alpha to every off-diagonal entry."""
        p = as_matrix(crosstalk)
        d = p.shape[0]
        a = np.full((d, d), float(alpha), dtype=complex)
        np.fill_diagonal(a, 0.0)
        return cls(p, a)


@dataclass(frozen=True)
class CptpReport:
    """Physicality summary: trace preservation and complete positivity."""

    tp_ok: bool
    cp_ok: bool
    row_sum_residuals: tuple[float, ...]
    choi_min_eig: float

    def to_json_dict(self) -> dict:
        return {
            "tp_ok": self.tp_ok,
            "cp_ok": self.cp_ok,
            "row_sum_residuals": list(self.row_sum_residuals),
            "choi_min_eig": self.choi_min_eig,
        }


def hat_block(ch: McfChannel) -> np.ndarray:
    """The d x d coherence block of the Choi operator."""
    d = ch.d
    h = (1.0 + ch.dephasing) / d
    np.fill_diagonal(h, np.diag(ch.crosstalk) / d)
    return h


def verify_cptp(ch: McfChannel, tol: Tolerance = DEFAULT_TOL) -> CptpReport:
    """Trace preservation = unit row sums of P; complete positivity = PSD hat block."""
    residuals = np.abs(ch.crosstalk.sum(axis=1) - 1.0)
    tp_ok = bool(residuals.max() <= tol.eq_tol)
    cp_ok, lo = is_psd(hat_block(ch), tol)
    return CptpReport(tp_ok, cp_ok, tuple(float(r) for r in residuals), lo)


def _physicality_warnings(report: CptpReport, force: bool) -> tuple[str, ...]:
    warnings = []
    if not report.tp_ok:
        if not force:
            raise ValueError(
                "channel is not trace-preserving (crosstalk rows must sum to 1); "
                "pass force to evaluate the map anyway"
            )
        warnings.append("not trace-preserving")
    if not report.cp_ok:
        warnings.append("not completely positive")
    return tuple(warnings)


def _act(ch: McfChannel, x: np.ndarray) -> np.ndarray:
    # Linear action on an arbitrary d x d matrix: populations are scrambled
    # by P, coherences are damped entrywise by 1 + alpha.
    out = x * (1.0 + ch.dephasing)
    np.fill_diagonal(out, ch.crosstalk.T @ np.diag(x))
    return out


def apply(
    ch: McfChannel,
    rho: DensityMatrix,
    *,
    force: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> DensityMatrix:
    """Propagate a d-dimensional state through the fibre.

    Evaluation on trace-preserving but not completely positive parameter
    sets is permitted; the result then carries a warning marker instead of
    pretending to be a physical state.
    """
    return _apply(ch, rho, verify_cptp(ch, tol), force)


def _apply(ch: McfChannel, rho: DensityMatrix, cptp: CptpReport, force: bool) -> DensityMatrix:
    """apply, its warnings read from a verify_cptp report the caller holds."""
    if rho.dim != ch.d:
        raise ValueError(f"dimension mismatch: channel has {ch.d} cores, state has {rho.dim}")
    warnings = _physicality_warnings(cptp, force) + rho.warnings
    return _trusted(DensityMatrix, mat=_act(ch, rho.mat), factors=rho.factors, warnings=warnings)


def choi(ch: McfChannel, tol: Tolerance = DEFAULT_TOL) -> ClduiState:
    """Closed-form Choi state (equals feeding half of |Psi+> through the fibre).

    It is held as its pair of d x d tables: weights P / d and coherences the
    hat block; ``.dm`` builds the dense d^2 x d^2 state on request.
    """
    return _choi(ch, verify_cptp(ch, tol))


def _choi(ch: McfChannel, cptp: CptpReport) -> ClduiState:
    """The Choi state, its warnings read from a verify_cptp report the caller holds."""
    warnings = _physicality_warnings(cptp, force=True)
    return _trusted(ClduiState, weights=ch.crosstalk / ch.d, coherences=hat_block(ch), warnings=warnings)


def extend_one_side(
    ch: McfChannel,
    rho: DensityMatrix,
    *,
    force: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> DensityMatrix:
    """Send the second party of a bipartite state through the fibre.

    On the maximally entangled input this reproduces the Choi operator; on a
    product input it acts on the second factor alone.
    """
    d = ch.d
    if rho.factors != (d, d):
        raise ValueError(f"state must carry factors ({d}, {d}) to extend one side")
    warnings = _physicality_warnings(verify_cptp(ch, tol), force) + rho.warnings
    t = rho.mat.reshape(d, d, d, d)
    out = np.empty_like(t)
    for i in range(d):
        for j in range(d):
            out[i, :, j, :] = _act(ch, t[i, :, j, :])
    return _trusted(DensityMatrix, mat=out.reshape(d * d, d * d), factors=(d, d), warnings=warnings)


def cp_boundary_uniform_alpha(crosstalk, *, tol: Tolerance = DEFAULT_TOL) -> float:
    """Most negative uniform real alpha in [-2, -1] keeping the channel completely positive.

    With t = -(1 + alpha) >= 0, d * (hat + psd_floor * I) is
    diag(P_ii + t + d * psd_floor) - t * J, which by the matrix determinant
    lemma is PSD iff g(t) = t * sum_i 1 / (P_ii + t + d * psd_floor) <= 1.
    That inequality decides the result, not an eigensolve: g increases with
    t, and the result is -1 - t* for the largest double t* in [0, 1] with
    g(t*) <= 1 (or -2 when g(1) <= 1). At the result the hat block's
    computed least eigenvalue may round to just below -psd_floor.

    The crosstalk table is checked as McfChannel checks it, with the same
    messages. Each bisection step evaluates g on Python floats, its sum
    exactly rounded by math.fsum and so independent of any summation order;
    the result is at most 1 ulp from the one a numpy (pairwise) sum gives.
    """
    p = _checked_crosstalk(crosstalk)
    floor = p.shape[0] * tol.psd_floor
    shifted = [x + floor for x in np.diag(p).tolist()]

    def within(t: float) -> bool:
        return t * math.fsum([1.0 / (s + t) for s in shifted]) <= 1.0

    if within(1.0):
        return -2.0
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if within(mid):
            lo = mid
        else:
            hi = mid
    return -1.0 - lo


def channel_to_config(ch: McfChannel) -> dict:
    """Serialize to the channel config schema (lossless matrix form)."""
    return {
        "d": ch.d,
        "P": matrix_to_literal(ch.crosstalk),
        "alpha": {"matrix": matrix_to_literal(ch.dephasing)},
    }


def crosstalk_from_config(obj: dict) -> np.ndarray:
    """Parse the {"d": int, "P": [[...]]} part shared by channel and sweep configs."""
    if not isinstance(obj, dict):
        raise ValueError('config must be a JSON object with fields "d" and "P"')
    d = obj.get("d")
    if d.__class__ is not int:
        raise ValueError('"d" must be an integer, the number of cores')
    p = matrix_from_literal(obj.get("P"), '"P"')
    if p.shape != (d, d):
        raise ValueError(f"crosstalk table must be {d} x {d}, got {p.shape}")
    return checked_real(p, "crosstalk table must be real")


def channel_from_config(obj: dict) -> McfChannel:
    """Parse {"d": int, "P": [[...]], "alpha": {"uniform": x} | {"matrix": [[...]]}}.

    "alpha" holds exactly one of the two forms.
    """
    p = crosstalk_from_config(obj)
    d = p.shape[0]
    alpha = obj.get("alpha")
    if not isinstance(alpha, dict) or len({"uniform", "matrix"} & alpha.keys()) != 1:
        raise ValueError('"alpha" must be {"uniform": real} or {"matrix": [[...]]}, not both')
    if "uniform" in alpha:
        uniform = _json_number(alpha["uniform"], '"uniform" in "alpha" must be a real number')
        return McfChannel.with_uniform_dephasing(p, uniform)
    a = matrix_from_literal(alpha["matrix"], '"matrix" in "alpha"')
    if a.shape != (d, d):
        raise ValueError(f"dephasing table must be {d} x {d}, got {a.shape}")
    return McfChannel(p, a)
