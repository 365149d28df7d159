import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcfqc.channel import McfChannel, hat_block
from mcfqc.linalg import (
    Tolerance,
    dump_json,
    is_psd,
    matrix_from_literal,
    matrix_to_literal,
    trace_norm,
)

from oracle import matrix_from_literal_by_entry
from test_cli import JSON_TREES


def random_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-12)

    def test_diag_sign(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_matches_gram_eigenvalue_oracle(self):
        # independent oracle: singular values via eigendecomposition of M^dag M
        rng = np.random.default_rng(42)
        m = random_complex(6, rng)
        oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(m.conj().T @ m), 0.0)).sum()
        assert abs(trace_norm(m) - oracle) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        m = random_complex(5, rng)
        base = trace_norm(m)
        for _ in range(5):
            u = random_unitary(5, rng)
            v = random_unitary(5, rng)
            assert abs(trace_norm(u @ m @ v) - base) < 1e-10

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trace_norm(np.zeros((0, 0)))


class TestIsPsd:
    def test_identity(self):
        ok, lo = is_psd(np.eye(4))
        assert ok and lo == pytest.approx(1.0, abs=1e-12)

    def test_indefinite(self):
        ok, lo = is_psd([[1, 2], [2, 1]])
        assert not ok
        assert lo == pytest.approx(-1.0, abs=1e-12)

    def test_choi_block_spectrum_identity_crosstalk(self):
        # hat block of an identity-crosstalk channel with uniform alpha has
        # the rank-1-plus-shift spectrum {(1 - c)/d  (d-1 times), (1 + (d-1)c)/d}
        d, alpha = 5, -0.8
        c = 1 + alpha
        ch = McfChannel.with_uniform_dephasing(np.eye(d), alpha)
        h = hat_block(ch)
        ok, lo = is_psd(h)
        assert ok
        expected = np.sort([(1 - c) / d] * (d - 1) + [(1 + (d - 1) * c) / d])
        assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)
        assert lo == pytest.approx(0.16, abs=1e-12)

    def test_exhaustive_2x2_integer_hermitian_vs_characteristic_oracle(self):
        span = range(-3, 4)
        for a in span:
            for d in span:
                for re in span:
                    for im in span:
                        b = complex(re, im)
                        m = np.array([[a, b], [b.conjugate(), d]], dtype=complex)
                        # exact integer arithmetic: |b|^2 = re^2 + im^2
                        oracle = a >= 0 and d >= 0 and a * d - (re * re + im * im) >= 0
                        ok, _ = is_psd(m)
                        assert ok == oracle, f"disagreement at a={a} d={d} b={b}"

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            is_psd([[0, 1], [0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            is_psd(np.ones((2, 3)))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.psd_floor == 1e-10 and tol.eq_tol == 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1e-12, 1e-5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            Tolerance(psd_floor=bad)
        with pytest.raises(ValueError):
            Tolerance(eq_tol=bad)


class TestMatrixLiteral:
    def test_real_round_trip(self):
        m = np.array([[0.5, -1.25], [0.0, 3.0]])
        lit = matrix_to_literal(m)
        assert lit == [[0.5, -1.25], [0.0, 3.0]]
        assert np.array_equal(matrix_from_literal(lit), m.astype(complex))

    def test_complex_round_trip(self):
        m = np.array([[1 + 2j, 0], [0, -1j]])
        lit = matrix_to_literal(m)
        assert lit[0][0] == [1.0, 2.0]
        assert np.array_equal(matrix_from_literal(lit), m)

    def test_mixed_entries_parse(self):
        m = matrix_from_literal([[1, [0.0, 1.0]], [0, 2.5]])
        assert m[0, 1] == 1j and m[1, 1] == 2.5

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_literal([[[1.0, 2.0, 3.0]]])
        with pytest.raises(ValueError):
            matrix_from_literal([])


# JSON numbers, with the ints that straddle float precision and range.
NUMBERS = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from([
        -0.0, 2**53 + 1, -(2**53) - 1, 2**63, 2**64 + 1, 2**1024 - 2**970,
        2**1024 - 2**970 - 1, -(2**1024), 10**400,
    ]),
)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
SIGNED_ZERO_PAIRS = st.tuples(st.sampled_from([0.0, -0.0, 0, 1.5]), st.sampled_from([0.0, -0.0])).map(list)
BAD_ENTRIES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(NUMBERS, max_size=3),
    st.tuples(st.one_of(st.booleans(), st.text(max_size=1), PAIRS), NUMBERS).map(list),
    st.tuples(NUMBERS, st.one_of(st.booleans(), st.none())).map(list),
)
STYLES = {
    "real": NUMBERS,
    "pairs": st.one_of(PAIRS, SIGNED_ZERO_PAIRS),
    "mixed": st.one_of(NUMBERS, PAIRS, SIGNED_ZERO_PAIRS),
}


@st.composite
def literals(draw):
    """A literal of numbers, of pairs, or of both, row by row or entry by
    entry; sometimes with one bad entry or one row of another length."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    style = draw(st.sampled_from(sorted(STYLES) + ["rows"]))
    rows = []
    for _ in range(r):
        entry = STYLES[draw(st.sampled_from(["real", "pairs"]))] if style == "rows" else STYLES[style]
        rows.append(draw(st.lists(entry, min_size=c, max_size=c)))
    fault = draw(st.sampled_from(["none", "none", "entry", "ragged"]))
    if fault == "entry" and c:
        rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(BAD_ENTRIES)
    elif fault == "ragged":
        rows[draw(st.integers(0, r - 1))].append(draw(STYLES["mixed"]))
    return rows


def outcome(parse, rows):
    try:
        a = parse(rows, '"M"')
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return a.dtype, a.shape, a.tobytes()


class TestOneCallParsing:
    @settings(max_examples=500)
    @given(literals())
    @example([[[1, 2], [False, 0]], [[0, -0.0], [3, 4]]])
    @example([[1.0, True], [-0.0, 2**53 + 1]])
    @example([[[0, -0.0], [2**1024, 0]]])
    @example([[[1, 2], 3], [4, [-0.0, -0.0]]])
    @example([[float("nan"), 1], [1, 1]])
    def test_same_array_or_same_error_as_the_per_entry_parser(self, rows):
        assert outcome(matrix_from_literal, rows) == outcome(matrix_from_literal_by_entry, rows)

    def test_signed_zeros_survive_in_pairs(self):
        m = matrix_from_literal([[[-0.0, -0.0], [0.0, -0.0]], [[-0.0, 0.0], [1, 0]]])
        assert np.signbit(m.real).tolist() == [[True, False], [True, False]]
        assert np.signbit(m.imag).tolist() == [[True, True], [False, False]]

    @pytest.mark.parametrize("rows, error", [
        ([[1, True]], 'entries must be numbers or [re, im] pairs, got True'),
        ([[[1, 2], [3, 4, 5]]], "got [3, 4, 5]"),
        ([[[1, 2], [False, 0]]], "got [False, 0]"),
        ([[1, 10**400]], "entries must be finite"),
        ([[[0, -(10**400)]]], "entries must be finite"),
        ([[1, float("nan")]], "matrix has non-finite entries"),
        ([[[float("inf"), 0]]], "matrix has non-finite entries"),
        ([["1", 2]], "got '1'"),
    ])
    def test_errors_name_the_entry(self, rows, error):
        with pytest.raises(ValueError) as exc:
            matrix_from_literal(rows)
        assert error in str(exc.value)


def stdlib_texts(obj) -> tuple[str, str]:
    """The stdlib's indented (plus a newline) and compact texts of obj."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n",
            json.dumps(obj, sort_keys=True, separators=(",", ":")))


# Finite floats, with the ones whose shortest text is unusual.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7]),
)


@st.composite
def matrices(draw):
    """Real or complex matrices of shape 1 x 1, 1 x n, n x 1 or n x n."""
    n = draw(st.integers(2, 5))
    shape = draw(st.sampled_from([(1, 1), (1, n), (n, 1), (n, n)]))
    size = shape[0] * shape[1]
    re = draw(st.lists(FINITE, min_size=size, max_size=size))
    m = np.array(re).reshape(shape)
    if draw(st.booleans()):
        im = draw(st.lists(FINITE, min_size=size, max_size=size))
        m = m + 1j * np.array(im).reshape(shape)
    return m


class TestDumpJsonForms:
    """linalg.dump_json in both forms, and the literals it renders whole."""

    @given(JSON_TREES)
    def test_compact_matches_stdlib(self, obj):
        assert dump_json(obj, compact=True) == stdlib_texts(obj)[1]

    @given(matrices())
    def test_literal_renders_the_stdlib_bytes(self, m):
        lit = matrix_to_literal(m)
        for obj in (lit, {"m": lit, "n": [lit, 1.5]}):
            assert (dump_json(obj), dump_json(obj, compact=True)) == stdlib_texts(obj)

    def test_literal_formats_each_entry_once(self):
        m = np.array([[1 + 0.1j, -0.0], [1e16, 5e-324j]])
        lit = matrix_to_literal(m)
        assert lit == [[[1.0, 0.1], [-0.0, 0.0]], [[1e16, 0.0], [0.0, 5e-324]]]
        assert lit.texts == ("1.0", "0.1", "-0.0", "0.0", "1e+16", "0.0", "0.0", "5e-324")

    @pytest.mark.parametrize("change", [
        lambda lit: lit[0].__setitem__(0, -0.0),
        lambda lit: lit[0].__setitem__(1, 1),
        lambda lit: lit[1].__setitem__(1, True),
        lambda lit: lit[1].reverse(),
        lambda lit: lit.append([2.5, 0.5]),
        lambda lit: lit.__setitem__(0, (0.0, 1.0)),
        lambda lit: lit[0].append(3.0),
        lambda lit: lit.clear(),
    ])
    def test_changed_literal_is_formatted_again(self, change):
        # A literal whose entries a caller has changed no longer matches the
        # texts it carries; the writer formats its current entries instead.
        lit = matrix_to_literal(np.array([[0.0, 1.0], [2.0, 1.0]]))
        change(lit)
        assert (dump_json(lit), dump_json(lit, compact=True)) == stdlib_texts(lit)

    def test_changed_pair_is_formatted_again(self):
        lit = matrix_to_literal(np.array([[1j, 2.0]]))
        lit[0][0][1] = -0.0
        assert (dump_json(lit), dump_json(lit, compact=True)) == stdlib_texts(lit)

    def test_entry_the_stdlib_rejects(self):
        lit = matrix_to_literal(np.eye(2))
        lit[0][0] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_json(lit)
