"""Command-line front end.

Exit codes: 0 on success, 1 on a validation error (the failed condition is
named on stderr), 2 on an I/O error. All numeric file output is written at
full double precision so that golden files can be diffed without tolerances.
Every JSON output, to stdout or to a file, is byte for byte
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, written by one
writer, ``_dump_json``: ``linalg.dump_json``, which also writes the compact
text the report's config digest hashes.

``main`` builds the argument parser on its first call in a process and
reuses it on every later call, so in-process callers that run many
commands pay for one build; ``build_parser()`` returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .channel import (
    McfChannel,
    _apply,
    apply,
    channel_from_config,
    channel_to_config,
    choi,
    crosstalk_from_config,
    verify_cptp,
)
from .cones import Classification, SearchBudget, classify_ds
from .linalg import (
    Tolerance,
    _json_number,
    check_distribution,
    checked_real,
    dump_json as _dump_json,
    matrix_from_literal,
    matrix_to_literal,
)
from .pipeline import run_protocol, sweep_alpha
from .presets import BOUND6_M, DEMO_ALPHA_GRID, DEMO_CROSSTALK_5
from .states import Conclusion, max_coherent, state_from_json, state_to_json
from .symmetric_states import channel_from_ds


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # I/O problems, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_tolerance_args(p: argparse.ArgumentParser):
    p.add_argument("--psd-floor", type=float, default=Tolerance.psd_floor,
                   help="eigenvalue threshold for positivity checks (default %(default)s)")
    p.add_argument("--eq-tol", type=float, default=Tolerance.eq_tol,
                   help="entrywise comparison threshold (default %(default)s)")


def _add_budget_args(p: argparse.ArgumentParser):
    p.add_argument("--restarts", type=int, default=SearchBudget.restarts,
                   help="random restarts for the factorization search (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=SearchBudget.max_iters,
                   help="iteration cap per restart (default %(default)s)")
    p.add_argument("--residual-target", type=float, default=SearchBudget.residual_target,
                   help="Frobenius residual declaring a factorization found (default %(default)s)")
    p.add_argument("--seed", type=int, default=SearchBudget.seed, help="search seed (default %(default)s)")


def _tolerance(args) -> Tolerance:
    return Tolerance(psd_floor=args.psd_floor, eq_tol=args.eq_tol)


def _budget(args) -> SearchBudget:
    return SearchBudget(
        restarts=args.restarts,
        max_iters=args.max_iters,
        residual_target=args.residual_target,
        seed=args.seed,
    )


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, obj):
    path.write_text(_dump_json(obj), encoding="utf-8")


def _write_csv(path: Path, mat):
    rows = np.asarray(mat, dtype=float).tolist()
    lines = [",".join(map(float.__repr__, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _alpha_label(alpha: float) -> str:
    """Shortest text that round-trips alpha, without a trailing ".0", for file names."""
    text = repr(alpha)
    return text[:-2] if text.endswith(".0") else text


def _emit(args, obj) -> int:
    if getattr(args, "output", None):
        _write_json(Path(args.output), obj)
    else:
        sys.stdout.write(_dump_json(obj))
    return 0


def _ds_matrix_from_input(obj: dict) -> np.ndarray:
    """Read a pair-weight matrix M from {"d", "M"} or {"d", "p": {"ii", "ij"}}, not both.

    The "p" form lists the Dicke weights: p_ii for i = 0..d-1, then p_ij for
    i < j in row-major order. They must form a distribution, and M has
    M_ii = p_ii and M_ij = M_ji = p_ij / 2.
    """
    if not isinstance(obj, dict):
        raise ValueError('input must be a JSON object with "d" and "M" or "p"')
    d = obj.get("d")
    if d.__class__ is not int or d < 1:
        raise ValueError('"d" must be a positive integer, the matrix order')
    if ("M" in obj) == ("p" in obj):
        raise ValueError('input must contain "M" or "p", not both')
    if "M" in obj:
        m = matrix_from_literal(obj["M"], '"M"')
        if m.shape != (d, d):
            raise ValueError(f"pair-weight matrix must be {d} x {d}, got {m.shape}")
        return checked_real(m, "pair-weight matrix must be real")
    malformed = '"p" must be {"ii": [d numbers], "ij": [d(d-1)/2 numbers]}'
    p = obj["p"]
    if not isinstance(p, dict) or not all(isinstance(p.get(k), list) for k in ("ii", "ij")):
        raise ValueError(malformed)
    diag = [_json_number(x, malformed) for x in p["ii"]]
    upper = [_json_number(x, malformed) for x in p["ij"]]
    if len(diag) != d or len(upper) != d * (d - 1) // 2:
        raise ValueError("weight lists must have lengths d and d(d-1)/2")
    w = np.zeros((d, d))
    w[np.triu_indices(d, 1)] = upper
    np.fill_diagonal(w, diag)
    check_distribution(w, "weights")
    return (w + w.T) / 2


def cmd_channel_check(args) -> int:
    tol = _tolerance(args)
    ch = channel_from_config(_load_json(args.input))
    report = verify_cptp(ch, tol)
    return _emit(args, {
        "d": ch.d,
        "cptp": report.to_json_dict(),
        "tolerances": asdict(tol),
    })


def cmd_apply(args) -> int:
    tol = _tolerance(args)
    ch = channel_from_config(_load_json(args.input))
    rho = state_from_json(_load_json(args.state)) if args.state else max_coherent(ch.d)
    out = apply(ch, rho, force=args.force, tol=tol)
    return _emit(args, {"state": state_to_json(out), "tolerances": asdict(tol)})


def cmd_choi(args) -> int:
    tol = _tolerance(args)
    ch = channel_from_config(_load_json(args.input))
    j = choi(ch, tol)
    return _emit(args, {
        "choi": state_to_json(j.dm),
        "hat_block": matrix_to_literal(j.coherences),
        "tolerances": asdict(tol),
    })


def cmd_certify(args) -> int:
    if args.csv and not args.outdir:
        raise ValueError("--csv needs --outdir, the directory the CSV files are written to")
    tol = _tolerance(args)
    ch = channel_from_config(_load_json(args.input))
    report = run_protocol(
        ch, tol=tol, budget=_budget(args), force=args.force, timestamp=args.timestamp
    )
    obj = report.to_json_dict()
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "report.json", obj)
        if args.csv:
            _write_csv(outdir / "cldui_weights.csv", np.abs(report.cldui.weights))
            _write_csv(outdir / "cldui_coherences.csv", np.abs(report.cldui.coherences))
        return 0
    return _emit(args, obj)


def cmd_design(args) -> int:
    tol = _tolerance(args)
    m = _ds_matrix_from_input(_load_json(args.input))
    ch = channel_from_ds(m, tol)
    report = verify_cptp(ch, tol)
    return _emit(args, {
        "channel": channel_to_config(ch),
        "cptp": report.to_json_dict(),
        "tolerances": asdict(tol),
    })


def cmd_cp_test(args) -> int:
    tol = _tolerance(args)
    m = _ds_matrix_from_input(_load_json(args.input))
    classification, cone = classify_ds(m, _budget(args), tol)
    obj = {k: v for k, v in cone.to_json_dict().items() if v is not None}
    obj["classification"] = classification.value
    obj["tolerances"] = asdict(tol)
    return _emit(args, obj)


def cmd_sweep(args) -> int:
    tol = _tolerance(args)
    cfg = _load_json(args.input)
    p = crosstalk_from_config(cfg)
    malformed = '"grid" must be a list of real alpha values'
    if not isinstance(cfg.get("grid"), list):
        raise ValueError(malformed)
    grid = [_json_number(a, malformed) for a in cfg["grid"]]
    rows = sweep_alpha(p, grid, tol=tol, budget=_budget(args))
    table = {
        "d": p.shape[0],
        "rows": [row.to_json_dict() for row in rows],
        "tolerances": asdict(tol),
    }
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "sweep.json", table)
        for row in rows:
            _write_csv(outdir / f"action_alpha_{_alpha_label(row.alpha)}.csv", np.abs(row.action))
        return 0
    return _emit(args, table)


def cmd_demo_fig1(args) -> int:
    """Heatmaps of the 5-core demo channel acting on the maximally coherent state."""
    tol = _tolerance(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rho = max_coherent(5)
    entries = []
    for alpha in DEMO_ALPHA_GRID:
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, alpha)
        cptp = verify_cptp(ch, tol)
        out = _apply(ch, rho, cptp, force=True)
        name = f"heatmap_alpha_{_alpha_label(alpha)}.csv"
        _write_csv(outdir / name, np.abs(out.mat))
        off = np.abs(out.mat[~np.eye(5, dtype=bool)])
        entries.append({
            "alpha": alpha,
            "file": name,
            "cp_ok": cptp.cp_ok,
            "diagonal": [float(x) for x in np.diag(out.mat).real],
            "off_diagonal_magnitude": float(off.max()),
        })
    _write_json(outdir / "crosstalk_table.json", {
        "d": 5, "P": matrix_to_literal(DEMO_CROSSTALK_5),
    })
    _write_json(outdir / "summary.json", {
        "input_state": {"description": "maximally coherent, every entry 0.2", "dim": 5},
        "rows": entries,
        "tolerances": asdict(tol),
    })
    return 0


def cmd_demo_bound6(args) -> int:
    """Design the bound-entanglement channel from the built-in 6 x 6 matrix and certify it."""
    tol = _tolerance(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "pair_weight_matrix.json", {
        "d": 6, "M": matrix_to_literal(BOUND6_M),
    })
    ch = channel_from_ds(BOUND6_M, tol)
    report = run_protocol(
        ch, tol=tol, budget=_budget(args), timestamp=args.timestamp
    )
    _write_json(outdir / "report.json", report.to_json_dict())

    # run_protocol refuses a channel that is not CPTP; the classification
    # alone tells a non-DNN M from one a sufficient condition or factor settled.
    failures = []
    if report.verdict("cldui-ppt").flag != Conclusion.INCONCLUSIVE:
        failures.append("protocol output is not PPT")
    ds = report.ds_section
    if ds is None:
        failures.append("pair-weight section missing from the report")
    elif ds.classification != Classification.PPT_ENTANGLED_CANDIDATE:
        failures.append(
            f"classification is {ds.classification.value} (evidence {ds.cone.evidence})"
        )
    for message in failures:
        print(f"demo-bound6: {message}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole CLI on every call; ``main`` reuses one per process."""
    parser = _Parser(
        prog="mcfqc",
        description="Multicore-fibre channels: physicality checks, Choi machinery, "
                    "and bound-entanglement certification.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("channel-check", parents=[], help="verify trace preservation and complete positivity")
    p.add_argument("--input", "-i", required=True, help="channel config JSON")
    p.add_argument("--output", "-o", help="write the result here instead of stdout")
    _add_tolerance_args(p)
    p.set_defaults(func=cmd_channel_check)

    p = sub.add_parser("apply", help="propagate a state through a channel")
    p.add_argument("--input", "-i", required=True, help="channel config JSON")
    p.add_argument("--state", help="input state JSON (default: maximally coherent)")
    p.add_argument("--force", action="store_true", help="evaluate unphysical parameter sets")
    p.add_argument("--output", "-o")
    _add_tolerance_args(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("choi", help="emit the Choi operator of a channel")
    p.add_argument("--input", "-i", required=True, help="channel config JSON")
    p.add_argument("--output", "-o")
    _add_tolerance_args(p)
    p.set_defaults(func=cmd_choi)

    p = sub.add_parser("certify", help="run the full certification protocol on a channel")
    p.add_argument("--input", "-i", required=True, help="channel config JSON")
    p.add_argument("--outdir", help="directory for report.json (default: print to stdout)")
    p.add_argument("--csv", action="store_true", help="also dump |matrix| CSV heatmaps")
    p.add_argument("--force", action="store_true", help="certify non-CP channels, marked unphysical")
    p.add_argument("--timestamp", help="ISO timestamp recorded in the provenance block")
    _add_tolerance_args(p)
    _add_budget_args(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("design", help="derive the channel realizing a pair-weight matrix")
    p.add_argument("--input", "-i", required=True, help='pair-weight JSON ({"d", "M"} or {"d", "p"})')
    p.add_argument("--output", "-o")
    _add_tolerance_args(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("cp-test", help="classify a pair-weight matrix through the matrix cones")
    p.add_argument("--input", "-i", required=True, help='pair-weight JSON ({"d", "M"} or {"d", "p"})')
    p.add_argument("--output", "-o")
    _add_tolerance_args(p)
    _add_budget_args(p)
    p.set_defaults(func=cmd_cp_test)

    p = sub.add_parser("sweep", help="sweep uniform dephasing values over a fixed crosstalk table")
    p.add_argument("--input", "-i", required=True, help='sweep config JSON {"d", "P", "grid"}')
    p.add_argument("--outdir", help="directory for sweep.json and CSV dumps")
    _add_tolerance_args(p)
    _add_budget_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo-fig1", help="built-in 5-core crosstalk/dephasing heatmap demo")
    p.add_argument("--outdir", required=True)
    _add_tolerance_args(p)
    p.set_defaults(func=cmd_demo_fig1)

    p = sub.add_parser("demo-bound6", help="built-in 6 x 6 bound-entanglement certification demo")
    p.add_argument("--outdir", required=True)
    p.add_argument("--timestamp", help="ISO timestamp recorded in the provenance block")
    _add_tolerance_args(p)
    _add_budget_args(p)
    p.set_defaults(func=cmd_demo_bound6)

    return parser


# Building the parser costs milliseconds (terminal-size and gettext lookups
# for every argument), more than a small certify call; parsing leaves the
# parser unchanged, so one instance serves every call.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; argv defaults to sys.argv[1:]. Returns the exit code.

    May be called repeatedly in one process. The parser is built on the
    first call and reused by every later one; each call still reads its
    inputs, recomputes and writes its outputs.
    """
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        print("run 'mcfqc --help' for the list of subcommands", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"mcfqc {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mcfqc {args.subcommand}: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
