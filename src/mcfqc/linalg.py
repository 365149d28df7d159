"""Dense complex linear algebra kernels, input checks and the JSON writer shared by every other module.

Everything operates on plain numpy arrays (complex128, row-major). All
objects in this package are small (at most a few dozen rows per tensor
factor), so decompositions go straight through LAPACK with no sparsity or
blocking concerns. Matrices reach JSON through ``matrix_to_literal`` and
``dump_json``, and come back through ``matrix_from_literal``.
"""

from __future__ import annotations

import marshal
import math
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used throughout.

    psd_floor bounds how negative an eigenvalue may be while still counting
    as nonnegative; eq_tol bounds entrywise comparisons. Both assume
    O(1)-scaled matrices, where double precision leaves ample headroom.
    """

    psd_floor: float = 1e-10
    eq_tol: float = 1e-10

    def __post_init__(self):
        for name in ("psd_floor", "eq_tol"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-6:
                raise ValueError(f"{name} must lie in (0, 1e-6], got {value}")


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting empty or non-finite input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def trace_norm(m) -> float:
    """Sum of singular values (invariant under unitaries on either side)."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def checked_hermitian(
    a: np.ndarray, message: str = "not Hermitian", tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Hermitian part (A + A†)/2 of a square as_matrix result, raising
    ValueError(message) if the anti-Hermitian part exceeds eq_tol."""
    if np.abs(a - a.conj().T).max() / 2 > tol.eq_tol:
        raise ValueError(message)
    return (a + a.conj().T) / 2


def checked_real(a: np.ndarray, message: str) -> np.ndarray:
    """Real part (a view) of an as_matrix result, raising ValueError(message)
    on any imaginary part."""
    if np.abs(a.imag).max() > 0.0:
        raise ValueError(message)
    return a.real


def checked_real_symmetric(m, name: str, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real square matrix symmetric within eq_tol; errors read "<name> must be
    real", "<name> must be square" and "<name> is not symmetric"."""
    a = checked_real(as_matrix(m), f"{name} must be real")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.abs(a - a.T).max() > tol.eq_tol:
        raise ValueError(f"{name} is not symmetric")
    return a


def check_distribution(a: np.ndarray, name: str, entries: str | None = None) -> None:
    """Raise unless a real table is nonnegative and sums to 1, both within the default eq_tol.

    The messages read "<entries> must be nonnegative" (entries defaults to
    name) and "<name> must sum to 1, got <sum>".
    """
    if a.min() < -DEFAULT_TOL.eq_tol:
        raise ValueError(f"{entries or name} must be nonnegative")
    if abs(a.sum() - 1.0) > DEFAULT_TOL.eq_tol:
        raise ValueError(f"{name} must sum to 1, got {a.sum()}")


def is_psd(m, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Decide positive semidefiniteness and report the minimum eigenvalue.

    The matrix is symmetrized before the eigensolve, which guards against
    accumulation error in composed operations; an anti-Hermitian part larger
    than eq_tol is rejected outright.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("not a square matrix")
    lo = float(np.linalg.eigvalsh(checked_hermitian(a, tol=tol))[0])
    return lo >= -tol.psd_floor, lo


def pair_to_dense(weights, coherences) -> np.ndarray:
    """Expand a (weights, coherences) pair of d x d tables to a d^2 x d^2 matrix.

    In the row-major product basis |ij>, weights[i, j] sits on the diagonal
    at |ij><ij| and coherences[i, j] at |ii><jj|; every other entry is zero.
    The tables overlap on |ii><ii|, where the coherences are written last.
    """
    d = weights.shape[0]
    mat = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d * d)
    mat[idx, idx] = weights.reshape(-1)
    diag_pairs = np.arange(d) * (d + 1)
    mat[np.ix_(diag_pairs, diag_pairs)] = coherences
    return mat


# The dtypes matrix_to_literal reads without a conversion.
_FLOAT_DTYPES = (np.dtype(float), np.dtype(complex))


class MatrixLiteral(list):
    """A matrix_to_literal result: a plain nested list to every caller, plus
    ``texts``, the float.__repr__ of each entry in row-major order ([re, im]
    pairs flattened), so that dump_json formats each float once however
    often the literal is written.

    ``shape`` is the nested list's: (rows, columns), or (rows, columns, 2)
    for pairs. ``key`` is the list's marshal form when the texts were made.
    dump_json uses the texts only while the list still marshals to it, so a
    literal a caller has changed is formatted again from its entries.
    """

    __slots__ = ("shape", "texts", "key")


def matrix_to_literal(m) -> MatrixLiteral:
    """Row-major JSON literal: bare floats if real, [re, im] pairs otherwise.

    A float64 or complex128 array that is 2-D, non-empty and finite is read
    as it is; anything else goes through as_matrix, which converts it or
    names what is wrong.
    """
    a = np.asarray(m)
    if not (a.dtype in _FLOAT_DTYPES and a.ndim == 2 and a.size and np.isfinite(a).all()):
        a = as_matrix(a)
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], -1) if a.imag.any() else a.real
    rows = a.tolist()
    lit = MatrixLiteral(rows)
    lit.shape = a.shape
    lit.texts = tuple(map(float.__repr__, a.ravel().tolist()))
    lit.key = marshal.dumps(rows, 2)
    return lit


# The classes json.load gives JSON numbers; bool, an int subclass, is not one.
_JSON_NUMBER = frozenset((int, float))
_PAIR = frozenset((list, tuple))
_FLOAT_MAX = sys.float_info.max


def _json_number(x, message: str) -> float:
    """x as a float if it is a finite JSON number (see _JSON_NUMBER), else
    ValueError(message). The range test is exact for ints of any size."""
    if x.__class__ in _JSON_NUMBER and -_FLOAT_MAX <= x <= _FLOAT_MAX:
        return float(x)
    raise ValueError(message)


def matrix_from_literal(rows, name: str = "matrix literal") -> np.ndarray:
    """Parse the row-major literal format written by matrix_to_literal.

    Each entry is either a JSON number or a [re, im] pair of JSON numbers;
    the two styles may be mixed freely within one matrix. Errors call the
    literal ``name``.

    A literal of numbers only, or of pairs only, is converted by one
    np.array call, pairs read as a complex view of the float pairs (so a
    signed zero in either part survives). A literal that mixes the two, or
    has an entry of neither kind, goes entry by entry, which names the
    first bad entry.
    """
    if not (isinstance(rows, (list, tuple)) and rows and all(isinstance(r, (list, tuple)) for r in rows)):
        raise ValueError(f"{name} must be a non-empty list of rows, each a list of entries")
    if len(set(map(len, rows))) != 1:
        raise ValueError(f"rows of {name} must all have the same length")
    shape = (len(rows), len(rows[0]))
    entries = list(chain.from_iterable(rows))
    kinds = set(map(type, entries))
    try:
        if kinds <= _JSON_NUMBER:
            return as_matrix(np.array(entries, dtype=float).reshape(shape))
        if kinds <= _PAIR and set(map(len, entries)) == {2}:
            parts = list(chain.from_iterable(entries))
            if set(map(type, parts)) <= _JSON_NUMBER:
                return as_matrix(np.array(parts, dtype=float).view(complex).reshape(shape))
        return as_matrix([[_entry(e, name) for e in row] for row in rows])
    except OverflowError:
        raise ValueError(f"{name} entries must be finite") from None


def _entry(e, name: str) -> complex:
    if e.__class__ in _JSON_NUMBER:
        return complex(e)
    if isinstance(e, (list, tuple)) and len(e) == 2:
        re, im = e
        if re.__class__ in _JSON_NUMBER and im.__class__ in _JSON_NUMBER:
            return complex(re, im)
    raise ValueError(f"{name} entries must be numbers or [re, im] pairs, got {e!r}")


def dump_json(obj, compact: bool = False) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) plus a newline;
    with compact, that of json.dumps(obj, sort_keys=True, separators=(",", ":")).

    Dict keys must be strings. With indent set, the stdlib leaves its C
    encoder and formats every float through a Python generator. This writer
    makes the same text, and writes a MatrixLiteral by filling the texts it
    carries into one template for the whole matrix, formatting no float.
    """
    out: list[str] = []
    if compact:
        _encode(obj, "", "", out)
        return "".join(out)
    _encode(obj, "\n", "  ", out)
    out.append("\n")
    return "".join(out)


def _encode(obj, nl: str, step: str, out: list[str]) -> None:
    # nl comes before obj's closing bracket: a newline and the indent of the
    # line obj closes on, or nothing when compact. step is one indent level.
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if obj.__class__ is MatrixLiteral and (text := _literal_text(obj, nl, step)):
            out.append(text)
            return
        inner = nl + step
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _encode(item, inner, step, out)
            sep = "," + inner
        out += nl, "]"
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + step
        colon = ": " if step else ":"
        sep = "{" + inner
        for key in sorted(obj):
            out += sep, encode_basestring_ascii(key), colon
            _encode(obj[key], inner, step, out)
            sep = "," + inner
        out += nl, "}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _literal_text(lit: MatrixLiteral, nl: str, step: str) -> str | None:
    """The text of a literal from its texts, by one template fill; None if
    it no longer marshals to its key (see MatrixLiteral)."""
    try:
        if marshal.dumps(list(lit), 2) != lit.key:
            return None
    except ValueError:  # an entry marshal cannot write, so not the literal's own
        return None
    template = "%s"
    for depth in reversed(range(len(lit.shape))):
        close = nl + step * depth
        item = close + step
        template = "[" + item + ("," + item).join([template] * lit.shape[depth]) + close + "]"
    return template % lit.texts
