"""Seeded random generators for states, channels, and cone test matrices.

All generators take an explicit numpy Generator so that experiments and
tests stay reproducible.
"""

from __future__ import annotations

import numpy as np

from mcfqc.channel import McfChannel
from mcfqc.states import DensityMatrix
from mcfqc.symmetric_states import ClduiState


def random_density_matrix(dim: int, rng: np.random.Generator, factors=None) -> DensityMatrix:
    """Wishart-distributed full-rank state."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, factors=factors)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_separable_state(
    da: int, db: int, rng: np.random.Generator, terms: int = 8
) -> DensityMatrix:
    """Convex mixture of random pure product states (separable by construction)."""
    weights = rng.dirichlet(np.ones(terms))
    mat = np.zeros((da * db, da * db), dtype=complex)
    for w in weights:
        psi = np.kron(random_pure_state(da, rng), random_pure_state(db, rng))
        mat += w * np.outer(psi, psi.conj())
    return DensityMatrix(mat, factors=(da, db))


def random_cptp_channel(d: int, rng: np.random.Generator) -> McfChannel:
    """Random fibre channel that is trace-preserving and completely positive.

    The crosstalk rows are Dirichlet-distributed. The Choi hat block is
    built as a Gram matrix with the prescribed diagonal, which makes it PSD
    by construction and keeps every dephasing factor inside the unit disc.
    """
    p = rng.dirichlet(np.ones(d), size=d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gram = g @ g.conj().T
    norm = np.sqrt(np.diag(gram).real)
    unit = gram / np.outer(norm, norm)
    alpha = np.sqrt(np.outer(np.diag(p), np.diag(p))) * unit - 1.0
    np.fill_diagonal(alpha, 0.0)
    return McfChannel(p, alpha)


def random_cldui_state(d: int, rng: np.random.Generator) -> ClduiState:
    """Random valid (weights, coherences) pair; a mix of PPT and NPT instances."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    coh = g @ g.conj().T
    weights = rng.random((d, d))
    np.fill_diagonal(weights, np.diag(coh).real)
    total = weights.sum()
    return ClduiState(weights / total, coh / total)


def random_dnn_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random doubly-nonnegative matrix with unit total mass.

    A Wishart matrix shifted along the all-ones matrix until entrywise
    nonnegative; the shift preserves positive semidefiniteness.
    """
    g = rng.standard_normal((d, d))
    m = g @ g.T
    lowest = m.min()
    if lowest < 0:
        m = m + (-lowest + 0.1 * rng.random()) * np.ones((d, d))
    return m / m.sum()


def random_ds_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Pair-weight matrix M of a random Dicke-diagonal state with Dirichlet
    weights p: M_ii = p_ii and M_ij = M_ji = p_ij / 2."""
    m = np.zeros((d, d))
    probs = rng.dirichlet(np.ones(d * (d + 1) // 2))
    k = 0
    for i in range(d):
        for j in range(i, d):
            m[i, j] = m[j, i] = probs[k] if i == j else probs[k] / 2
            k += 1
    return m
