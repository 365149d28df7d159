"""The benchmark workloads: seeded inputs, CLI operations, output checks.

Every input is generated here from the workload seed; the program receives
only the generated files. Every output check recomputes its expected value
with numpy from the generated input, never from the program's report. The
one exception is the check of ``sweep`` rows against the program's
``cp_boundary_uniform_alpha``, whose result is in turn checked against a
numpy recomputation of the edge.

Inputs come in blocks. The untraced run executes fresh blocks until its
time is up and stops only at a block boundary, so each run holds the same
mix of operation kinds. Each block is ordered so that the median and the
tail percentile (the 11th largest latency) fall inside one operation kind
rather than on the edge between two:

* ``certify-large``: one size, so every operation is alike.
* ``certify-small``: one channel per core count, an odd number of core
  counts, so the median is the middle core count and the tail the largest.
* ``cone-search``: 32 ``cp-test`` calls, then one ``demo-bound6``. The
  ``cp-test`` calls set the median; a 30 s run holds more than 11
  ``demo-bound6`` calls, so they set the tail. Every ``demo-bound6`` of a
  run uses the workload seed, so they all do the same work and the tail
  does not depend on how many of them fit in the run.
* ``sweep-small``: one table per core count, an odd number of core counts,
  so the median is the middle core count and the tail the largest.

``sweep-small`` is not listed in BENCHMARK.json: some seeds put a grid
point where ``1 + alpha`` is small enough that ``run_protocol``'s two PPT
routes disagree (the generic route thresholds an eigenvalue with
``psd_floor``, ``cldui_is_ppt`` a 2x2 determinant with ``eq_tol``), and the
``sweep`` call exits 1 with an internal consistency violation. It stays
runnable, unchanged, so that the defect shows until it is fixed.

The traced run replays the steps of ``run_protocol`` (and of
``classify_ds`` and ``sweep_alpha``) from outside: the same public
functions, in the same order, on the same inputs, each inside a span.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mcfqc.channel import (
    McfChannel,
    apply,
    channel_from_config,
    choi,
    cp_boundary_uniform_alpha,
    extend_one_side,
    verify_cptp,
)
from mcfqc.cones import SearchBudget, cp_factorize, cp_sufficient, is_dnn
from mcfqc.linalg import Tolerance, matrix_from_literal
from mcfqc.pipeline import run_protocol, sweep_alpha
from mcfqc.presets import BOUND6_M
from mcfqc.states import DensityMatrix, is_ppt, max_coherent, max_entangled, realignment_trace_norm
from mcfqc.symmetric_states import (
    channel_from_ds,
    cldui_from_choi,
    cldui_is_ppt,
    cldui_realignment_test,
)

from tracing import Tracer

# The CLI's defaults, passed explicitly so that the benchmark owns them.
TOL = Tolerance(psd_floor=1e-10, eq_tol=1e-10)
RESIDUAL_TARGET = 1e-7
TIMESTAMP = "2026-01-01T00:00:00Z"
CP_TEST_RESTARTS = 10
GRID_POINTS = 11


@dataclass
class Op:
    """One closed-loop operation: a CLI call, plus an optional library call.

    ``after`` runs inside the timed region right after the CLI returns and
    its result goes to ``check``, which returns None when the output is
    correct and a one-line reason otherwise. ``replay`` re-executes the
    operation's steps under spans for the traced run.
    """

    kind: str
    argv: list[str]
    check: Callable[[object], str | None]
    replay: Callable[[Tracer], None]
    after: Callable[[], object] | None = None


def _literal(m: np.ndarray) -> list:
    # The input format, written here rather than by matrix_to_literal so
    # that the inputs stay the same while the program changes.
    if np.iscomplexobj(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return [[float(x) for x in row] for row in m]


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _tol_args() -> list[str]:
    return ["--psd-floor", repr(TOL.psd_floor), "--eq-tol", repr(TOL.eq_tol)]


def _budget_args(seed: int, restarts: int | None = None) -> list[str]:
    args = ["--seed", str(seed), "--residual-target", repr(RESIDUAL_TARGET)]
    return args if restarts is None else args + ["--restarts", str(restarts)]


def _serialize(tr: Tracer, build: Callable[[], dict], path: Path, report: Path) -> None:
    """The CLI's JSON writer, replayed on ``build()``; counts the bytes the CLI wrote."""
    with tr.span("cli.serialize"):
        path.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    tr.add("cli.report_bytes", report.stat().st_size)


def _tol_json() -> dict:
    return {"psd_floor": TOL.psd_floor, "eq_tol": TOL.eq_tol}


# ---------------------------------------------------------------- replays


def replay_classify(tr: Tracer, m: np.ndarray, budget: SearchBudget) -> None:
    """classify_ds's steps: normalize, DNN test, sufficient conditions, search."""
    a = m / m.sum()
    if not is_dnn(a, TOL) or cp_sufficient(a, TOL) is not None or a.shape[0] < 5:
        return
    with tr.span("cones.search"):
        result = cp_factorize(a, budget, TOL)
    tr.add("cones.searches")
    tr.add("cones.found", int(result.found))
    tr.add("cones.restarts", result.restarts_run)
    tr.add("cones.iterations", result.total_iterations)


def replay_protocol(tr: Tracer, ch: McfChannel, budget: SearchBudget, force: bool):
    """run_protocol as a whole, then its steps one by one, then one state validation.

    Returns the report of the whole call.
    """
    with tr.span("pipeline.run_protocol"):
        report = run_protocol(ch, tol=TOL, budget=budget, force=force, timestamp=TIMESTAMP)
    with tr.span("pipeline.replay"):
        with tr.span("channel.verify_cptp"):
            verify_cptp(ch, TOL)
        with tr.span("states.max_entangled"):
            phi = max_entangled(ch.d)
        with tr.span("channel.extend_one_side"):
            output = extend_one_side(ch, phi, force=force, tol=TOL)
        with tr.span("channel.choi"):
            choi_op = choi(ch, TOL)
        with tr.span("symmetric_states.cldui_from_choi"):
            cldui = cldui_from_choi(choi_op, TOL)
        with tr.span("states.is_ppt"):
            is_ppt(output, TOL)
        with tr.span("symmetric_states.cldui_ppt"):
            cldui_is_ppt(cldui, TOL)
        with tr.span("states.realignment"):
            realignment_trace_norm(output, TOL)
        with tr.span("symmetric_states.cldui_realignment"):
            cldui_realignment_test(cldui, TOL)
        # run_protocol's pair-weight gate; the cones layer runs only past it
        with tr.span("cones.classify"):
            w = cldui.weights
            if (np.abs(w - w.T).max() <= TOL.eq_tol
                    and np.abs(cldui.coherences - w).max() <= TOL.eq_tol):
                replay_classify(tr, w, budget)
    with tr.span("states.density_validate"):
        DensityMatrix(choi_op.dm.mat, factors=choi_op.dm.factors, warnings=choi_op.dm.warnings)
    return report


# ---------------------------------------------------------------- certify


def random_channel(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Trace-preserving, completely positive channel with complex dephasing.

    Rows of P are Dirichlet draws. The hat block is a Gram matrix rescaled
    to the diagonal P_ii, so it is PSD by construction and |1 + alpha| <= 1.
    """
    p = rng.dirichlet(np.ones(d), size=d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    gram = g @ g.conj().T
    norm = np.sqrt(np.diag(gram).real)
    unit = np.triu(gram / np.outer(norm, norm), 1)
    unit = unit + unit.conj().T
    alpha = np.sqrt(np.outer(np.diag(p), np.diag(p))) * unit - 1.0
    np.fill_diagonal(alpha, 0.0)
    return p, alpha


def hat_block(p: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The Choi coherence block: (1 + alpha_ij)/d off the diagonal, P_ii/d on it."""
    d = p.shape[0]
    h = (1.0 + alpha) / d
    np.fill_diagonal(h, np.diag(p) / d)
    return h


def realignment_reference(p: np.ndarray, alpha: np.ndarray) -> float:
    """||A||_tr + sum_{i != j} |B_ij| with A = P/d and B the hat block."""
    d = p.shape[0]
    b = hat_block(p, alpha)
    off = ~np.eye(d, dtype=bool)
    return float(np.linalg.svd(p / d, compute_uv=False).sum() + np.abs(b[off]).sum())


def hat_min_eig(p: np.ndarray, alpha: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hat_block(p, alpha))[0])


def cp_edge(p: np.ndarray) -> float:
    """Lowest uniform alpha that keeps the channel completely positive.

    For c = 1 + alpha < 0, d * hat = diag(P_ii + |c|) - |c| J, which by the
    matrix determinant lemma is PSD iff |c| * sum_i 1/(P_ii + |c|) <= 1. The
    left side increases with |c|; bisect it to double precision.
    """
    diag = np.diag(p)
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid * float(np.sum(1.0 / (diag + mid))) <= 1.0:
            lo = mid
        else:
            hi = mid
    return -1.0 - lo


def boundary_problem(p: np.ndarray, boundary: float) -> str | None:
    """Why ``boundary`` is not P's CP boundary within ``psd_floor``, if it is not.

    The program accepts hat-block eigenvalues down to -psd_floor, so its
    boundary may lie below the exact edge (by 2% of the window in the
    narrowest windows seen), but not above it nor beyond that tolerance.
    """
    edge = cp_edge(p)
    if boundary > edge + 1e-11:
        return f"cp boundary {boundary!r} above the recomputed edge {edge!r}"
    alpha = np.full(p.shape, boundary)
    np.fill_diagonal(alpha, 0.0)
    if hat_min_eig(p, alpha) < -TOL.psd_floor - 1e-15:
        return f"cp boundary {boundary!r} is not completely positive within psd_floor"
    return None


@dataclass
class Certify:
    """``certify`` on random complex-dephasing channels.

    Each block certifies ``channels`` fresh channels of each size in
    ``dims``, all of them twice, so every report can be compared byte for
    byte with its repeat. With ``boundary`` set, each operation also runs
    ``cp_boundary_uniform_alpha`` on the channel's crosstalk table, the use
    of ``scripts/cp_window_scan.py``.
    """

    dims: tuple[int, ...] = (16,)
    channels: int = 2
    repeats: int = 2
    boundary: bool = False
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def sizes(self) -> dict:
        return {"d": list(self.dims), "dense_dim": [d * d for d in self.dims],
                "ops_per_block": len(self.dims) * self.channels * self.repeats,
                "cp_boundary": self.boundary}

    def block(self, seed: int, index: int, work: Path, prefix: str = "b") -> list[Op]:
        ops = []
        for d in self.dims:
            for j in range(self.channels):
                p, alpha = random_channel(d, np.random.default_rng([seed, index, d, j]))
                name = f"{prefix}{index}-{d}-{j}"
                cfg = _write(work / f"certify-{name}.json",
                             {"d": d, "P": _literal(p), "alpha": {"matrix": _literal(alpha)}})
                ops.append(self._op(cfg, work / f"certify-out{d}-{j}", p, alpha))
        return ops * self.repeats

    def _op(self, cfg: Path, outdir: Path, p, alpha) -> Op:
        report = outdir / "report.json"
        op = Op("certify", ["certify", "--input", str(cfg), "--outdir", str(outdir),
                            "--timestamp", TIMESTAMP, *_tol_args()],
                check=lambda boundary: self._check(cfg, report, p, alpha, boundary),
                replay=lambda tr: self._replay(tr, cfg, outdir, report, p),
                after=(lambda: cp_boundary_uniform_alpha(p, tol=TOL)) if self.boundary else None)
        return op

    def _check(self, cfg: Path, report: Path, p, alpha, boundary) -> str | None:
        if self.boundary and (problem := boundary_problem(p, boundary)):
            return problem
        raw = report.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests.setdefault(str(cfg), digest) != digest:
            return "report.json differs from the report of the same input"
        obj = json.loads(raw)
        expected = realignment_reference(p, alpha)
        for v in obj["verdicts"]:
            if v["name"] in ("realignment", "cldui-realignment") and abs(v["value"] - expected) > 1e-9:
                return f"{v['name']} value {v['value']!r}, recomputed {expected!r}"
        if obj["cptp"]["cp_ok"] != (hat_min_eig(p, alpha) >= -TOL.psd_floor):
            return "cp_ok disagrees with the recomputed hat-block minimum eigenvalue"
        return None

    def _replay(self, tr: Tracer, cfg: Path, outdir: Path, report: Path, p) -> None:
        with tr.span("cli.parse"):
            with open(cfg, encoding="utf-8") as fh:
                ch = channel_from_config(json.load(fh))
        result = replay_protocol(tr, ch, SearchBudget(residual_target=RESIDUAL_TARGET), False)
        _serialize(tr, lambda: {**result.to_json_dict(), "tolerances": _tol_json()},
                   outdir / "replay.json", report)
        if self.boundary:
            with tr.span("channel.cp_boundary"):
                cp_boundary_uniform_alpha(p, tol=TOL)


@dataclass
class CertifySmall(Certify):
    """``certify`` at d = 3..9, one channel per size, plus each table's CP boundary."""

    dims: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9)
    channels: int = 1
    boundary: bool = True


# ------------------------------------------------------------ cone-search


def planted_cp(d: int, rng: np.random.Generator) -> np.ndarray:
    """B B^T with B >= 0: completely positive by construction."""
    b = rng.random((d, d))
    return b @ b.T


def shifted_wishart(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Wishart matrix shifted along the all-ones matrix until nonnegative."""
    g = rng.standard_normal((d, d))
    m = g @ g.T
    if m.min() < 0:
        m = m + (-m.min() + 0.1 * rng.random()) * np.ones((d, d))
    return m / m.sum()


def is_dnn_reference(a: np.ndarray) -> bool:
    return bool(a.min() >= -TOL.eq_tol and np.linalg.eigvalsh(a)[0] >= -TOL.psd_floor)


def sufficient_reference(a: np.ndarray, evidence: str) -> bool:
    """Whether the named sufficient condition for complete positivity holds."""
    if evidence == "diag-dominant":
        diag = np.diag(a)
        return bool(a.min() >= -TOL.eq_tol and np.all(diag >= a.sum(axis=1) - diag - TOL.eq_tol))
    if evidence == "small-dimension":
        return a.shape[0] < 5 and is_dnn_reference(a)
    return False


def factor_problem(a: np.ndarray, factor) -> str | None:
    """Why ``factor`` is not a nonnegative B with ||a - B B^T||_F <= target, if it is not."""
    b = np.asarray(factor, dtype=float)
    if b.ndim != 2 or b.shape[0] != a.shape[0]:
        return f"factor has shape {b.shape}"
    if b.min() < 0.0:
        return f"factor has a negative entry {b.min()!r}"
    residual = float(np.linalg.norm(a - b @ b.T))
    if residual > RESIDUAL_TARGET:
        return f"factor residual {residual!r} above the target"
    return None


@dataclass
class ConeSearch:
    """``cp-test`` on doubly-nonnegative matrices, then one ``demo-bound6``.

    Each block holds ``per_class`` matrices of each generator at each
    order. Every ``demo-bound6`` report of a run must be byte-identical.

    ``cp-test`` runs with 10 restarts instead of 100: its inputs are found
    within 5, but about one shifted-Wishart draw in 300 is not found at
    all, and at 100 restarts that one call would cost as much as 150
    others, which made the throughput hinge on how many such draws a seed
    happens to make. Exhausting the full budget is ``demo-bound6``'s role.
    """

    orders: tuple[int, ...] = (5, 6, 7, 8)
    per_class: int = 4
    demo_restarts: int | None = None
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def sizes(self) -> dict:
        return {"orders": list(self.orders), "generators": ["planted", "shifted-wishart"],
                "cp_tests_per_block": 2 * self.per_class * len(self.orders),
                "cp_test_restarts": CP_TEST_RESTARTS,
                "demo_bound6_per_block": 1, "demo_bound6_restarts": self.demo_restarts or 100}

    def block(self, seed: int, index: int, work: Path, prefix: str = "b") -> list[Op]:
        ops = []
        for k in range(self.per_class):
            for d in self.orders:
                for g, gen in enumerate((planted_cp, shifted_wishart)):
                    m = gen(d, np.random.default_rng([seed, index, k, d, g]))
                    name = f"{prefix}{index}-{k}-{d}-{g}"
                    cfg = _write(work / f"cp-{name}.json", {"d": d, "M": _literal(m)})
                    ops.append(self._cp_test(cfg, work / f"cp-out{k}-{d}-{g}.json", m, seed))
        return ops + [self.demo(seed, work)]

    def _cp_test(self, cfg: Path, out: Path, m: np.ndarray, seed: int) -> Op:
        return Op("cp-test", ["cp-test", "--input", str(cfg), "--output", str(out),
                              *_tol_args(), *_budget_args(seed, CP_TEST_RESTARTS)],
                  check=lambda _: self._check_cp_test(out, m),
                  replay=lambda tr: self._replay_cp_test(tr, cfg, out, seed))

    def demo(self, seed: int, work: Path) -> Op:
        outdir = work / "demo-bound6"
        return Op("demo-bound6", ["demo-bound6", "--outdir", str(outdir), "--timestamp", TIMESTAMP,
                                  *_tol_args(), *_budget_args(seed, self.demo_restarts)],
                  check=lambda _: self._check_demo(outdir / "report.json", seed),
                  replay=lambda tr: self._replay_demo(tr, outdir, seed))

    def _budget(self, seed: int, restarts: int | None = None) -> SearchBudget:
        return SearchBudget(restarts=restarts or 100, seed=seed, residual_target=RESIDUAL_TARGET)

    def _check_cp_test(self, out: Path, m: np.ndarray) -> str | None:
        obj = json.loads(out.read_text(encoding="utf-8"))
        a = m / m.sum()
        if obj["dnn"] != is_dnn_reference(a):
            return f"dnn is {obj['dnn']}, recomputed {not obj['dnn']}"
        if "factor" in obj:
            return factor_problem(a, obj["factor"])
        if obj["classification"] == "separable" and not sufficient_reference(a, obj["evidence"]):
            return f"separable on evidence {obj['evidence']!r}, which does not hold"
        return None

    def _check_demo(self, report: Path, seed: int) -> str | None:
        raw = report.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests.setdefault(str(seed), digest) != digest:
            return "report.json differs from the report of the same search seed"
        classification = json.loads(raw)["ds_section"]["classification"]
        if classification != "ppt-entangled-candidate":
            return f"demo-bound6 classification is {classification!r}"
        return None

    def _replay_cp_test(self, tr: Tracer, cfg: Path, out: Path, seed: int) -> None:
        with tr.span("cli.parse"):
            with open(cfg, encoding="utf-8") as fh:
                m = matrix_from_literal(json.load(fh)["M"]).real
        with tr.span("cones.classify"):
            replay_classify(tr, m, self._budget(seed, CP_TEST_RESTARTS))

        def build():
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        _serialize(tr, build, out.with_suffix(".replay"), out)

    def _replay_demo(self, tr: Tracer, outdir: Path, seed: int) -> None:
        with tr.span("symmetric_states.channel_from_ds"):
            ch = channel_from_ds(BOUND6_M, TOL)
        result = replay_protocol(tr, ch, self._budget(seed, self.demo_restarts), False)
        _serialize(tr, lambda: {**result.to_json_dict(), "tolerances": _tol_json()},
                   outdir / "replay.json", outdir / "report.json")


# ------------------------------------------------------------ sweep-small


@dataclass
class SweepSmall:
    """``sweep`` over uniform alphas straddling each table's CP edge, then the edge.

    An operation is one ``sweep`` CLI call followed by one
    ``cp_boundary_uniform_alpha`` call on the same table, the use of
    ``scripts/cp_window_scan.py``. The grid stays inside [edge - 0.9 w,
    -1 - 0.05 w] with w = -1 - edge, where every channel is valid, and no
    grid point lies within 0.1 w of the edge.
    """

    dims: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9)

    @property
    def sizes(self) -> dict:
        return {"d": list(self.dims), "grid_points": GRID_POINTS,
                "ops_per_block": len(self.dims)}

    def block(self, seed: int, index: int, work: Path, prefix: str = "b") -> list[Op]:
        ops = []
        for d in self.dims:
            p = np.random.default_rng([seed, index, d]).dirichlet(np.ones(d), size=d)
            edge = cp_edge(p)
            grid = edge + (-1.0 - edge) * np.linspace(-0.9, 0.95, GRID_POINTS)
            name = f"{prefix}{index}-{d}"
            cfg = _write(work / f"sweep-{name}.json",
                         {"d": d, "P": _literal(p), "grid": [float(a) for a in grid]})
            ops.append(self._op(cfg, work / f"sweep-out{d}", p, grid, seed))
        return ops

    def _op(self, cfg: Path, outdir: Path, p, grid, seed: int) -> Op:
        return Op("sweep", ["sweep", "--input", str(cfg), "--outdir", str(outdir),
                            *_tol_args(), *_budget_args(seed)],
                  check=lambda boundary: self._check(outdir / "sweep.json", p, grid, boundary),
                  replay=lambda tr: self._replay(tr, cfg, outdir, seed),
                  after=lambda: cp_boundary_uniform_alpha(p, tol=TOL))

    def _check(self, table: Path, p, grid, boundary: float) -> str | None:
        if problem := boundary_problem(p, boundary):
            return problem
        rows = json.loads(table.read_text(encoding="utf-8"))["rows"]
        if [row["alpha"] for row in rows] != [float(a) for a in grid]:
            return "sweep rows do not follow the grid"
        for row in rows:
            if row["cp_ok"] != (row["alpha"] >= boundary):
                return f"cp_ok is {row['cp_ok']} at alpha {row['alpha']!r}, boundary {boundary!r}"
        return None

    def _replay(self, tr: Tracer, cfg: Path, outdir: Path, seed: int) -> None:
        with tr.span("cli.parse"):
            with open(cfg, encoding="utf-8") as fh:
                obj = json.load(fh)
            p = matrix_from_literal(obj["P"]).real
            grid = [float(a) for a in obj["grid"]]
        budget = SearchBudget(seed=seed, residual_target=RESIDUAL_TARGET)
        with tr.span("pipeline.sweep_alpha"):
            rows = sweep_alpha(p, grid, tol=TOL, budget=budget)
        for alpha in grid:
            ch = McfChannel.with_uniform_dephasing(p, alpha)
            probe = max_coherent(ch.d)
            replay_protocol(tr, ch, budget, force=True)
            with tr.span("channel.apply"):
                apply(ch, probe, force=True, tol=TOL)
        _serialize(tr, lambda: {"d": p.shape[0], "rows": [r.to_json_dict() for r in rows],
                                "tolerances": _tol_json()},
                   outdir / "replay.json", outdir / "sweep.json")
        with tr.span("channel.cp_boundary"):
            cp_boundary_uniform_alpha(p, tol=TOL)


WORKLOADS = {
    "certify-large": Certify,
    "certify-small": CertifySmall,
    "cone-search": ConeSearch,
    "sweep-small": SweepSmall,
}
