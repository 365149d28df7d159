"""Density matrices and the generic bipartite entanglement criteria.

The two criteria implemented here (positivity of the partial transpose and
the realigned-matrix trace norm) are one-sided: they can certify
entanglement but never separability, which is why a verdict's flag reads
"entangled" or "inconclusive", never "separable".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    check_distribution,
    checked_hermitian,
    checked_real,
    is_psd,
    matrix_from_literal,
    matrix_to_literal,
    pair_to_dense,
    trace_norm,
)


class Conclusion(str, Enum):
    """Outcome of a one-sided entanglement test."""

    ENTANGLED = "entangled"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CriterionVerdict:
    """A named criterion statistic together with its conclusion."""

    name: str
    value: float
    flag: Conclusion


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix with optional bipartite factors.

    A non-empty ``warnings`` tuple marks the output of a map evaluated
    outside its physical parameter range (e.g. a trace-preserving but not
    completely positive channel). Such matrices keep their Hermiticity
    guarantee but skip the trace and positivity checks, so that formal
    evaluations remain representable without pretending they are states.

    ``ClduiState.dm``, ``apply``, ``extend_one_side`` and ``max_entangled``
    skip the two checks as well: the pair's own checks or ``verify_cptp``
    (under the caller's tolerance) have decided them, or a warning waives
    them. Every other constructor checks both.
    """

    mat: np.ndarray
    factors: tuple[int, int] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self, physicality: bool = True):
        a = as_matrix(self.mat)
        n = a.shape[0]
        if a.shape[1] != n:
            raise ValueError("density matrix must be square")
        a = checked_hermitian(a)
        if self.factors is not None:
            da, db = self.factors
            if da < 1 or db < 1 or da * db != n:
                raise ValueError(f"factors {self.factors} incompatible with dimension {n}")
            object.__setattr__(self, "factors", (int(da), int(db)))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if physicality and not self.warnings:
            tr = complex(np.trace(a))
            if abs(tr - 1.0) > DEFAULT_TOL.eq_tol:
                raise ValueError(f"trace must be 1, got {tr}")
            ok, lo = is_psd(a)
            if not ok:
                raise ValueError(f"not positive semidefinite (min eigenvalue {lo:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class ClduiState:
    """Pair (weights, coherences) of d x d tables defining an invariant state:
    weights at |ij><ij|, coherences at |ii><jj|, every other entry zero.

    Validity requires entrywise nonnegative weights summing to 1, a PSD
    coherence block, and matching diagonals. As with DensityMatrix, a
    non-empty ``warnings`` tuple waives the positivity requirement on the
    coherence block so that unphysical-parameter evaluations stay
    representable.

    ``channel.choi``, which returns a fibre channel's Choi state as such a
    pair, skips the distribution and positivity checks: ``verify_cptp`` has
    decided them (see DensityMatrix). The diagonals are always checked.
    """

    weights: np.ndarray
    coherences: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self, physicality: bool = True):
        a = as_matrix(self.weights)
        d = a.shape[0]
        if a.shape[1] != d:
            raise ValueError("weight table must be square")
        a = checked_real(a, "weight table must be real").copy()
        if physicality:
            check_distribution(a, "weight table", "weight table entries")
        b = as_matrix(self.coherences)
        if b.shape != (d, d):
            raise ValueError("coherence block must match the weight table shape")
        b = checked_hermitian(b, "coherence block must be Hermitian")
        if np.abs(np.diag(a) - np.diag(b).real).max() > DEFAULT_TOL.eq_tol:
            raise ValueError("diagonals of the weight and coherence tables must agree")
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if physicality and not self.warnings:
            ok, lo = is_psd(b)
            if not ok:
                raise ValueError(f"coherence block not PSD (min eigenvalue {lo:.3e})")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", a)
        object.__setattr__(self, "coherences", b)

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    @property
    def dm(self) -> DensityMatrix:
        """The d^2 x d^2 state, built on each access, with factors (d, d).

        It is not checked again: its spectrum is the off-diagonal weights
        together with the coherence block's spectrum, and its trace is the
        weights' sum, so the pair's checks have decided both.
        """
        mat = pair_to_dense(self.weights, self.coherences)
        return _trusted(DensityMatrix, mat=mat, factors=(self.d, self.d), warnings=self.warnings)


def _trusted(cls, **fields):
    """Build a DensityMatrix or ClduiState without the physicality checks
    that its class docstring names."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    obj.__post_init__(physicality=False)
    return obj


def max_entangled(d: int) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_i |ii>, tagged with factors (d, d)."""
    if d < 2:
        raise ValueError("maximally entangled state needs d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return _trusted(DensityMatrix, mat=np.outer(v, v.conj()), factors=(d, d), warnings=())


def max_coherent(d: int) -> DensityMatrix:
    """Rank-1 single-system state with every entry equal to 1/d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return DensityMatrix(np.full((d, d), 1.0 / d, dtype=complex))


def partial_transpose(rho: DensityMatrix, side: str = "B") -> np.ndarray:
    """Transpose one tensor factor; applying it twice is the identity."""
    if rho.factors is None:
        raise ValueError("not bipartite: factors unset")
    da, db = rho.factors
    t = rho.mat.reshape(da, db, da, db)
    if side == "B":
        out = t.transpose(0, 3, 2, 1)
    elif side == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError("side must be 'A' or 'B'")
    return out.reshape(da * db, da * db)


def is_ppt(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> CriterionVerdict:
    """Peres criterion: a negative partial-transpose eigenvalue certifies entanglement."""
    _, lo = is_psd(partial_transpose(rho, "B"), tol)
    flag = Conclusion.ENTANGLED if lo < -tol.psd_floor else Conclusion.INCONCLUSIVE
    return CriterionVerdict("ppt", lo, flag)


def realign(mat, da: int, db: int) -> np.ndarray:
    """Reshuffle a bipartite matrix: out[(i,j),(k,l)] = in[(i,k),(j,l)].

    With this grouping the realignment of a product X (x) Y is the rank-1
    matrix vec(X) vec(Y)^T, so its trace norm is ||X||_F * ||Y||_F, and the
    realignment of the maximally entangled projector has trace norm d. For
    da == db the map is an involution.
    """
    return as_matrix(mat).reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def realignment_trace_norm(rho: DensityMatrix, tol: Tolerance = DEFAULT_TOL) -> CriterionVerdict:
    """Realignment criterion: separable states have realigned trace norm <= 1."""
    if rho.factors is None:
        raise ValueError("not bipartite: factors unset")
    da, db = rho.factors
    if da != db:
        raise ValueError("realignment test requires equal factor dimensions")
    value = trace_norm(realign(rho.mat, da, db))
    flag = Conclusion.ENTANGLED if value > 1.0 + tol.eq_tol else Conclusion.INCONCLUSIVE
    return CriterionVerdict("realignment", value, flag)


def state_to_json(rho: DensityMatrix) -> dict:
    """Serialize with the factor annotation; warnings are kept when present."""
    obj: dict = {}
    if rho.factors is not None:
        obj["d_a"], obj["d_b"] = rho.factors
    obj["mat"] = matrix_to_literal(rho.mat)
    if rho.warnings:
        obj["warnings"] = list(rho.warnings)
    return obj


# The warnings channel.apply marks an unphysical evaluation with; the only
# ones a state file may carry.
_APPLY_WARNINGS = ("not trace-preserving", "not completely positive")


def state_from_json(obj: dict) -> DensityMatrix:
    """Parse {"mat": [[...]]} with optional "d_a", "d_b" and "warnings", as written by state_to_json.

    "d_a" and "d_b" must be JSON integers, given both or neither, and
    "warnings" a list of the warnings ``channel.apply`` writes: a warning
    waives the state's trace and positivity checks, so no other text may.
    """
    if not isinstance(obj, dict) or "mat" not in obj:
        raise ValueError('state must be a JSON object with field "mat"')
    mat = matrix_from_literal(obj["mat"], '"mat"')
    for key in ("d_a", "d_b"):
        if obj.get(key) is not None and obj[key].__class__ is not int:
            raise ValueError(f'"{key}" must be an integer, a tensor factor dimension')
    factors = (obj.get("d_a"), obj.get("d_b"))
    if factors == (None, None):
        factors = None
    elif None in factors:
        raise ValueError('"d_a" and "d_b" must be given together, or neither')
    warnings = obj.get("warnings", [])
    if not isinstance(warnings, list) or not all(w in _APPLY_WARNINGS for w in warnings):
        raise ValueError('"warnings" must be a list of the warnings apply writes: '
                         + ", ".join(map(repr, _APPLY_WARNINGS)))
    return DensityMatrix(mat, factors=factors, warnings=tuple(warnings))
