"""Dense d^2 x d^2 reference constructions the tests check the package against.

The package works on d x d tables; these build the full bipartite matrices
entry by entry or by index contraction, independently of those tables.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from mcfqc.linalg import _JSON_NUMBER, DEFAULT_TOL, Tolerance, as_matrix
from mcfqc.states import DensityMatrix


def ds_to_density(m) -> DensityMatrix:
    """Dicke-diagonal state with pair-weight matrix m, built entry by entry.

    It mixes |ii> with weight m_ii and (|ij> + |ji>)/sqrt(2), i < j, with
    weight p_ij = 2 m_ij. Only the upper triangle of m is read.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    mat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        mat[i * d + i, i * d + i] = m[i, i]
        for j in range(i + 1, d):
            for r in (i * d + j, j * d + i):
                for c in (i * d + j, j * d + i):
                    mat[r, c] = m[i, j]
    return DensityMatrix(mat, factors=(d, d))


def partial_trace(mat, factors: tuple[int, int], traced: str = "A") -> np.ndarray:
    """Trace out one tensor factor of a (d_a*d_b) x (d_a*d_b) matrix."""
    da, db = factors
    t = as_matrix(mat).reshape(da, db, da, db)
    if traced == "A":
        return np.einsum("ikil->kl", t)
    if traced == "B":
        return np.einsum("ikjk->ij", t)
    raise ValueError("traced side must be 'A' or 'B'")


def channel_from_choi(dm: DensityMatrix, tol: Tolerance = DEFAULT_TOL):
    """Reconstruct the channel action E(rho) = d * Tr_A[J (rho^T (x) 1)].

    Takes the bipartite Choi state J as a DensityMatrix (``choi(ch).dm``).
    The factor d compensates for the unit normalization of the maximally
    entangled state used to define J, so that the round trip
    channel -> Choi -> channel closes exactly. Requires Tr_B(J) = 1/d (a
    trace-preserving Choi).
    """
    if dm.factors is None:
        raise ValueError("Choi operator must carry bipartite factors")
    da, db = dm.factors
    if da != db:
        raise ValueError("only square (d -> d) channels are supported")
    d = da
    reduced = partial_trace(dm.mat, (d, d), traced="B")
    if np.abs(reduced - np.eye(d) / d).max() > tol.eq_tol:
        raise ValueError("not trace-preserving Choi: Tr_B(J) != 1/d")
    j4 = dm.mat.reshape(d, d, d, d)

    def action(rho) -> np.ndarray:
        r = as_matrix(rho)
        if r.shape != (d, d):
            raise ValueError(f"dimension mismatch: expected {d} x {d} input")
        return d * np.einsum("ikjl,ij->kl", j4, r)

    return action


def matrix_from_literal_by_entry(rows, name: str = "matrix literal") -> np.ndarray:
    """matrix_from_literal as it was before its one-call conversion: every
    entry converted by its own complex() call."""

    def entry(e):
        if e.__class__ in _JSON_NUMBER:
            return complex(e)
        if isinstance(e, (list, tuple)) and len(e) == 2:
            re, im = e
            if re.__class__ in _JSON_NUMBER and im.__class__ in _JSON_NUMBER:
                return complex(re, im)
        raise ValueError(f"{name} entries must be numbers or [re, im] pairs, got {e!r}")

    if not (isinstance(rows, (list, tuple)) and rows and all(isinstance(r, (list, tuple)) for r in rows)):
        raise ValueError(f"{name} must be a non-empty list of rows, each a list of entries")
    if len(set(map(len, rows))) != 1:
        raise ValueError(f"rows of {name} must all have the same length")
    try:
        return as_matrix([[entry(e) for e in row] for row in rows])
    except OverflowError:
        raise ValueError(f"{name} entries must be finite") from None


def cp_boundary_by_np_sum(crosstalk, tol: Tolerance = DEFAULT_TOL) -> float:
    """cp_boundary_uniform_alpha as it was before it summed with math.fsum:
    the same bisection, each step's sum taken by np.sum."""
    diag = np.diag(np.asarray(crosstalk, dtype=float))
    shifted = diag + len(diag) * tol.psd_floor

    def within(t: float) -> bool:
        return t * float(np.sum(1.0 / (shifted + t))) <= 1.0

    if within(1.0):
        return -2.0
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if within(mid):
            lo = mid
        else:
            hi = mid
    return -1.0 - lo


def config_digest_by_json_dumps(obj) -> str:
    """pipeline.config_digest as it was before it hashed the package's own
    compact JSON text: the stdlib's canonical encoding."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
