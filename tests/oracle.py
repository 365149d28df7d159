"""Dense d^2 x d^2 reference constructions the tests check the package against.

The package works on d x d tables; these build the full bipartite matrices
entry by entry or by index contraction, independently of those tables.
"""

from __future__ import annotations

import numpy as np

from mcfqc.linalg import DEFAULT_TOL, Tolerance, as_matrix
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
