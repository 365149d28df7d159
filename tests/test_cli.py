import hashlib
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcfqc.channel
import mcfqc.linalg
import mcfqc.pipeline
import mcfqc.states
from mcfqc import cli
from mcfqc.channel import channel_to_config, cp_boundary_uniform_alpha
from mcfqc.cli import build_parser
from mcfqc.cones import Classification, ConeVerdict, CpStatus, FactorizationResult, SearchBudget
from mcfqc.linalg import Tolerance, matrix_to_literal
from mcfqc.presets import BOUND6_M, DEMO_ALPHA_GRID, DEMO_CROSSTALK_5
from mcfqc.symmetric_states import channel_from_ds

from sampling import random_cptp_channel
from test_cones import MISSED_BY_RESTART_0
from test_pipeline import count_decompositions

FAST_SEARCH = ["--restarts", "5", "--max-iters", "5000"]
# Nonnegative factor of an order-5 matrix whose principal square root is
# nonnegative too, so cp-test settles it without a search.
PLANTED_CP_5 = np.random.default_rng(0).random((5, 15))
SEARCH_KEYS = {
    "found", "best_residual", "restarts_run", "total_iterations", "found_at_restart", "exits",
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mcfqc", *args],
        capture_output=True,
        text=True,
    )


def write_uniform_channel(path: Path, p, alpha) -> Path:
    cfg = {"d": len(p), "P": matrix_to_literal(p), "alpha": {"uniform": alpha}}
    target = path / "channel.json"
    target.write_text(json.dumps(cfg), encoding="utf-8")
    return target


def write_demo_channel(path: Path, alpha=-0.8) -> Path:
    return write_uniform_channel(path, DEMO_CROSSTALK_5, alpha)


def write_sweep(path: Path, p, grid) -> Path:
    target = path / "sweep.json"
    target.write_text(
        json.dumps({"d": len(p), "P": matrix_to_literal(p), "grid": grid}), encoding="utf-8"
    )
    return target


def write_bound6(path: Path, m=None) -> Path:
    m = BOUND6_M if m is None else m
    target = path / "m6.json"
    target.write_text(json.dumps({"d": m.shape[0], "M": matrix_to_literal(m)}), encoding="utf-8")
    return target


class TestExitCodes:
    def test_no_arguments_prints_usage(self):
        proc = run_cli()
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_missing_input_file_is_io_error(self, tmp_path):
        proc = run_cli("channel-check", "--input", str(tmp_path / "nope.json"))
        assert proc.returncode == 2

    def test_invalid_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        proc = run_cli("channel-check", "--input", str(bad))
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"d": 2, "P": [[1, None], [0, 1]], "alpha": {"uniform": 0.0}},
            [1, 2],
            {"d": [2], "P": [[1, 0], [0, 1]], "alpha": {"uniform": 0.0}},
        ],
        ids=["null-entry", "top-level-list", "list-d"],
    )
    def test_malformed_config_is_validation_error(self, tmp_path, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        proc = run_cli("channel-check", "-i", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("mcfqc channel-check: error: ")

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("channel-check", [1, 2], "config must be a JSON object"),
            ("channel-check", {"d": 2, "P": [[1, None], [0, 1]], "alpha": {"uniform": 0.0}},
             '"P" entries must be numbers'),
            ("channel-check", {"d": 2, "P": [[1, 0], [0, 1]]}, '"alpha" must be'),
            ("channel-check", {"d": "x", "P": [[1, 0], [0, 1]], "alpha": {"uniform": 0.0}},
             '"d" must be an integer'),
            ("channel-check", {"d": 2, "P": [1, 0], "alpha": {"uniform": 0.0}},
             '"P" must be a non-empty list of rows'),
            ("cp-test", {"d": 2, "p": {"ii": [0.5, 0.5]}}, '"p" must be {"ii"'),
            ("cp-test", {"d": 2, "M": [[0.5, None], [0.0, 0.5]]}, '"M" entries must be numbers'),
            ("sweep", {"d": 2, "P": [[1, 0], [0, 1]]}, '"grid" must be a list'),
            ("sweep", {"d": 2, "P": [[1, 0], [0, 1]], "grid": -1}, '"grid" must be a list'),
            ("apply", [1], 'state must be a JSON object with field "mat"'),
            ("apply", {}, 'state must be a JSON object with field "mat"'),
            ("channel-check", {"d": 2.7, "P": [[1, 0], [0, 1]], "alpha": {"uniform": 0.0}},
             '"d" must be an integer'),
            ("channel-check", {"d": True, "P": [[1]], "alpha": {"uniform": 0.0}},
             '"d" must be an integer'),
            ("channel-check", {"d": 2, "P": [["1", "0"], ["0", "1"]], "alpha": {"uniform": 0.0}},
             '"P" entries must be numbers'),
            ("channel-check", {"d": 2, "P": [[10**400, 0], [0, 1]], "alpha": {"uniform": 0.0}},
             '"P" entries must be finite'),
            ("channel-check", {"d": 2, "P": [[1, 0], [0, 1]], "alpha": {"uniform": "0"}},
             '"uniform" in "alpha" must be a real number'),
            ("channel-check",
             {"d": 2, "P": [[1, 0], [0, 1]], "alpha": {"matrix": [[0, [-1, "0"]], [-1, 0]]}},
             '"matrix" in "alpha" entries must be numbers'),
            ("sweep", {"d": 2, "P": [[1, 0], [0, 1]], "grid": "12"}, '"grid" must be a list'),
            ("cp-test", {"d": 2.0, "M": [[0.5, 0], [0, 0.5]]}, '"d" must be a positive integer'),
            ("cp-test", {"d": 2, "M": [[0.5, False], [0, 0.5]]}, '"M" entries must be numbers'),
            ("cp-test", {"d": 2, "p": {"ii": ["0.5", "0.5"], "ij": [0]}}, '"p" must be {"ii"'),
            ("cp-test", {"d": 2, "p": {"ii": "05", "ij": [0]}}, '"p" must be {"ii"'),
            ("apply", {"mat": [[2, 0, 0], [0, -1, 0], [0, 0, 0]], "warnings": "x"},
             '"warnings" must be a list of the warnings apply writes'),
            ("apply", {"mat": [[2, 0, 0], [0, -1, 0], [0, 0, 0]], "warnings": ["x"]},
             '"warnings" must be a list of the warnings apply writes'),
            ("apply", {"d_a": 1.5, "d_b": 3, "mat": np.eye(3).tolist()}, '"d_a" must be an integer'),
            ("apply", {"d_a": 1, "d_b": True, "mat": np.eye(1).tolist()}, '"d_b" must be an integer'),
            ("channel-check",
             {"d": 2, "P": [[1, 0], [0, 1]], "alpha": {"uniform": -0.5, "matrix": [[0, 5], [5, 0]]}},
             '"alpha" must be {"uniform": real} or {"matrix": [[...]]}, not both'),
            ("cp-test", {"d": 2, "M": [[0.5, 0], [0, 0.5]], "p": {"ii": [0.5, 0.5], "ij": [0]}},
             'input must contain "M" or "p", not both'),
            ("apply", {"d_a": 3, "mat": (np.eye(3) / 3).tolist()},
             '"d_a" and "d_b" must be given together'),
        ],
        ids=[
            "top-level-list", "null-entry", "no-alpha", "string-d", "flat-P",
            "p-without-ij", "null-in-M", "no-grid", "scalar-grid",
            "state-list", "state-without-mat", "fractional-d", "bool-d", "string-in-P",
            "huge-int-in-P", "string-uniform", "string-in-matrix-pair", "string-grid",
            "float-d-for-M", "bool-in-M", "string-in-p", "string-p-list",
            "string-warnings", "unknown-warning", "fractional-d_a", "bool-d_b",
            "uniform-and-matrix-alpha", "M-and-p", "d_a-without-d_b",
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, command, payload, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        argv = [command, "-i", str(bad)]
        if command == "apply":
            # the malformed file is the state; the channel is valid
            argv = [command, "-i", str(write_demo_channel(tmp_path)), "--state", str(bad)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mcfqc {command}: error: {field}")


class TestSharedParser:
    def test_calls_in_one_process_match_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        # main reuses its parser across calls; no call may see what an
        # earlier one parsed, printed or failed on.
        def call(argv):
            code = cli.main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        first_help = call(["--help"])
        assert first_help[0] == 0
        assert call(["certify", "--help"])[0] == 0
        code, out, err = call(["certify"])
        assert (code, out) == (1, "")
        assert err.startswith("usage: mcfqc certify") and "--input" in err

        certify = ["certify", "-i", str(write_demo_channel(tmp_path)), "--timestamp", "T"]
        code, out, _ = call([*certify, "--psd-floor", "1e-8"])
        assert code == 0 and json.loads(out)["tolerances"]["psd_floor"] == 1e-8
        code, out, _ = call(certify)
        assert code == 0
        assert json.loads(out)["tolerances"] == asdict(Tolerance())
        assert out == run_cli(*certify).stdout

        # The console script's path: argv taken from sys.argv.
        monkeypatch.setattr(sys, "argv", ["mcfqc", "--help"])
        assert call(None) == first_help
        assert first_help[1] == build_parser().format_help()


class TestDefaults:
    REQUIRED = {
        "channel-check": ["-i", "x"], "apply": ["-i", "x"], "choi": ["-i", "x"],
        "certify": ["-i", "x"], "design": ["-i", "x"], "cp-test": ["-i", "x"],
        "sweep": ["-i", "x"], "demo-fig1": ["--outdir", "x"], "demo-bound6": ["--outdir", "x"],
    }
    BUDGETED = {"certify", "cp-test", "sweep", "demo-bound6"}

    @pytest.mark.parametrize("sub", sorted(REQUIRED))
    def test_parsed_defaults_are_the_dataclass_defaults(self, sub):
        args = vars(build_parser().parse_args([sub, *self.REQUIRED[sub]]))
        tol = asdict(Tolerance())
        assert {k: args[k] for k in tol} == tol
        budget = asdict(SearchBudget())
        if sub in self.BUDGETED:
            assert {k: args[k] for k in budget} == budget
        else:
            assert not budget.keys() & args.keys()


class TestLoosenedTolerances:
    # A channel that passes channel-check only under the loosened flag: the
    # hat block's least eigenvalue is -2e-9 in the first case, and the first
    # crosstalk row sums to 1 + 5e-9 in the second.
    CASES = {
        "psd-floor": (np.eye(3), -1.5 - 3e-9, ["--psd-floor", "1e-8"]),
        "eq-tol": (np.array([[0.5 + 5e-9, 0.5], [0.5, 0.5]]), -0.5, ["--eq-tol", "1e-8"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_builders_agree_with_channel_check(self, tmp_path, case):
        p, alpha, flags = self.CASES[case]
        cfg = write_uniform_channel(tmp_path, p, alpha)
        proc = run_cli("channel-check", "--input", str(cfg), *flags)
        cptp = json.loads(proc.stdout)["cptp"]
        assert cptp["tp_ok"] and cptp["cp_ok"]
        for sub, key in (("choi", "choi"), ("apply", "state")):
            proc = run_cli(sub, "--input", str(cfg), *flags)
            assert proc.returncode == 0, proc.stderr
            assert "warnings" not in json.loads(proc.stdout)[key]
        proc = run_cli("certify", "--input", str(cfg), *flags, *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["cptp"] == cptp
        assert report["warnings"] == []
        proc = run_cli("sweep", "--input", str(write_sweep(tmp_path, p, [alpha])), *flags, *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["rows"][0]["cp_ok"] is True


class TestChannelCheck:
    def test_demo_channel_reports_cptp(self, tmp_path):
        cfg = write_demo_channel(tmp_path)
        proc = run_cli("channel-check", "--input", str(cfg))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["cptp"]["tp_ok"] is True
        assert obj["cptp"]["cp_ok"] is True
        assert obj["tolerances"] == {"psd_floor": 1e-10, "eq_tol": 1e-10}

    def test_tolerance_overrides_are_reported(self, tmp_path):
        cfg = write_demo_channel(tmp_path)
        proc = run_cli("channel-check", "--input", str(cfg), "--eq-tol", "1e-8")
        obj = json.loads(proc.stdout)
        assert obj["tolerances"]["eq_tol"] == 1e-8


class TestApplyAndChoi:
    def test_apply_default_state(self, tmp_path):
        cfg = write_demo_channel(tmp_path)
        proc = run_cli("apply", "--input", str(cfg))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        diag = [row[i] for i, row in enumerate(obj["state"]["mat"])]
        assert np.allclose(diag, [0.22, 0.24, 0.12, 0.24, 0.18], atol=1e-12)

    def test_apply_with_state_file(self, tmp_path):
        cfg = write_demo_channel(tmp_path, alpha=-1.0)
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"mat": matrix_to_literal(np.eye(5) / 5)}), encoding="utf-8")
        proc = run_cli("apply", "--input", str(cfg), "--state", str(state))
        assert proc.returncode == 0

    def test_apply_reads_back_the_warnings_it_writes(self, tmp_path, capsys):
        # Rows summing to 0.9 and alpha = -1.9: neither trace-preserving nor
        # completely positive, so the output carries both warnings.
        cfg = write_uniform_channel(tmp_path, 0.9 * np.eye(3), -1.9)
        state = tmp_path / "state.json"
        warnings = ["not trace-preserving", "not completely positive"]
        for rounds in (1, 2):
            argv = ["apply", "-i", str(cfg), "--force"]
            assert cli.main(argv + (["--state", str(state)] if rounds > 1 else [])) == 0
            out = json.loads(capsys.readouterr().out)["state"]
            assert out["warnings"] == warnings * rounds
            state.write_text(json.dumps(out), encoding="utf-8")

    def test_choi(self, tmp_path):
        cfg = write_demo_channel(tmp_path)
        proc = run_cli("choi", "--input", str(cfg))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["choi"]["d_a"] == 5
        hat = np.array(obj["hat_block"])
        assert hat.shape == (5, 5)

    def test_choi_output_bytes_are_pinned(self, tmp_path):
        # Pinned across commits; no LAPACK result reaches these bytes.
        proc = run_cli("choi", "--input", str(write_demo_channel(tmp_path)))
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "2fac03aaeed38346f639b45d1759560fc8e9992c58e0d81d7b1f7b092b273f48"
        )


class TestCertify:
    def test_writes_report_and_csv(self, tmp_path):
        cfg = write_demo_channel(tmp_path)
        outdir = tmp_path / "out"
        proc = run_cli(
            "certify", "--input", str(cfg), "--outdir", str(outdir), "--csv", *FAST_SEARCH
        )
        assert proc.returncode == 0
        report = json.loads((outdir / "report.json").read_text())
        names = {v["name"] for v in report["verdicts"]}
        assert names == {"cldui-ppt", "cldui-realignment"}
        assert (outdir / "cldui_weights.csv").exists()
        assert (outdir / "cldui_coherences.csv").exists()
        assert not (outdir / "output_state.csv").exists()

    def test_csv_needs_outdir(self, tmp_path, capsys):
        cfg = write_demo_channel(tmp_path)
        assert cli.main(["certify", "--input", str(cfg), "--csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("mcfqc certify: error: --csv needs --outdir")

    def test_report_bytes_are_pinned(self, tmp_path):
        # Pinned across commits. Unlike the choi output, these bytes take in
        # LAPACK results: the hat-block eigenvalue and the trace norms.
        cfg = write_demo_channel(tmp_path)
        reports = []
        for out in (tmp_path / "a", tmp_path / "b"):
            proc = run_cli("certify", "--input", str(cfg), "--outdir", str(out))
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert hashlib.sha256(reports[0]).hexdigest() == (
            "45bb4056d5a6dd6ec9119408b55698d2456e0c0ea483d9d0cd6c396ee6a25469"
        )

    def test_as_matrix_counts(self, tmp_path, monkeypatch):
        # The 2 parses, 3 constructor checks, the crosstalk check, the
        # hat-block is_psd and the realignment trace norm. Writing the
        # package's own float and complex arrays takes no as_matrix copy.
        calls = []
        real = mcfqc.linalg.as_matrix

        def counted(m):
            calls.append(np.shape(m))
            return real(m)

        cfg = tmp_path / "channel.json"
        ch = random_cptp_channel(6, np.random.default_rng(6))
        cfg.write_text(json.dumps(channel_to_config(ch)), encoding="utf-8")
        for module in (mcfqc.linalg, mcfqc.channel, mcfqc.states):
            monkeypatch.setattr(module, "as_matrix", counted)
        assert cli.main(["certify", "--input", str(cfg), "--outdir", str(tmp_path), *FAST_SEARCH]) == 0
        assert calls == [(6, 6)] * 8

    def test_non_cp_channel_needs_force(self, tmp_path):
        cfg = write_demo_channel(tmp_path, alpha=-1.2)
        proc = run_cli("certify", "--input", str(cfg), *FAST_SEARCH)
        assert proc.returncode == 1
        assert "completely positive" in proc.stderr
        proc = run_cli("certify", "--input", str(cfg), "--force", *FAST_SEARCH)
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["warnings"] == ["unphysical parameters"]

    def test_report_key_sets(self, tmp_path):
        cfg = tmp_path / "b6.json"
        cfg.write_text(json.dumps(channel_to_config(channel_from_ds(BOUND6_M))), encoding="utf-8")
        proc = run_cli("certify", "--input", str(cfg), *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert set(obj) == {
            "channel", "cptp", "cldui", "verdicts",
            "ds_section", "provenance", "warnings", "tolerances",
        }
        assert set(obj["ds_section"]) == {"classification", "cone"}
        cone = obj["ds_section"]["cone"]
        assert set(cone) == {"dnn", "cp", "evidence", "factor", "search"}
        assert cone["factor"] is None
        assert set(cone["search"]) == SEARCH_KEYS

    def test_ppt_boundary_channel(self, tmp_path):
        # 1 + alpha = 0.1 + 1e-9 puts the pair-block eigenvalue at -5e-10,
        # past psd_floor, and the 2 x 2 block determinant at only -5e-11.
        cfg = write_uniform_channel(tmp_path, np.array([[0.9, 0.1], [0.1, 0.9]]), -0.899999999)
        proc = run_cli("certify", "--input", str(cfg), *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        flags = {v["name"]: v["flag"] for v in json.loads(proc.stdout)["verdicts"]}
        assert flags["cldui-ppt"] == "entangled"

    @pytest.mark.parametrize("p, coherence", [
        ([[0.8267903866291353, 0.17320961337086482], [0.1311870754255553, 0.8688129245744447]],
         -0.8492589549107668),
        ([[0.8287159282458241, 0.17128407175417598], [0.19286768175682642, 0.8071323182431737]],
         -0.818244224537628),
    ])
    def test_pair_block_within_rounding_of_the_floor(self, tmp_path, p, coherence):
        # The least pair-block eigenvalue lies within about 1e-17 of
        # -psd_floor, where the dense partial-transpose eigensolve and the
        # closed form round to opposite sides; the report comes out.
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps(
            {"d": 2, "P": p, "alpha": {"matrix": [[0.0, coherence], [coherence, 0.0]]}}
        ), encoding="utf-8")
        proc = run_cli("certify", "--input", str(cfg), *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cptp"]["cp_ok"]


class TestDesign:
    def test_bound6_designs_a_cptp_channel(self, tmp_path):
        m6 = write_bound6(tmp_path)
        proc = run_cli("design", "--input", str(m6))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["cptp"]["tp_ok"] and obj["cptp"]["cp_ok"]
        p = np.array(obj["channel"]["P"])
        assert p[0, 1] == pytest.approx(0.25, abs=1e-15)

    def test_asymmetric_matrix_is_rejected(self, tmp_path):
        m = BOUND6_M.copy()
        m[0, 1] += 1e-3
        m6 = write_bound6(tmp_path, m)
        proc = run_cli("design", "--input", str(m6))
        assert proc.returncode == 1
        assert "not symmetric" in proc.stderr

    def test_mass_constraint_violation_is_named(self, tmp_path):
        m = 0.9 * BOUND6_M
        m6 = write_bound6(tmp_path, m)
        proc = run_cli("design", "--input", str(m6))
        assert proc.returncode == 1
        assert "sum to 1/d" in proc.stderr

    def test_weight_list_input_form(self, tmp_path):
        d = 3
        target = tmp_path / "p.json"
        target.write_text(
            json.dumps({"d": d, "p": {"ii": [1 / 9, 1 / 9, 1 / 9], "ij": [2 / 9] * 3}}),
            encoding="utf-8",
        )
        proc = run_cli("design", "--input", str(target))
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["cptp"]["tp_ok"]


class TestCpTest:
    def test_small_dnn_is_separable(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rng.random((3, 2))
        m = g @ g.T
        target = tmp_path / "m.json"
        target.write_text(json.dumps({"d": 3, "M": matrix_to_literal(m)}), encoding="utf-8")
        proc = run_cli("cp-test", "--input", str(target), *FAST_SEARCH)
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["classification"] == "separable"

    def test_bound6_is_candidate(self, tmp_path):
        m6 = write_bound6(tmp_path)
        proc = run_cli("cp-test", "--input", str(m6), *FAST_SEARCH)
        obj = json.loads(proc.stdout)
        assert obj["classification"] == "ppt-entangled-candidate"
        assert obj["dnn"] is True
        assert obj["search"]["found"] is False

    @pytest.mark.parametrize(
        "m, extra",
        [
            (np.eye(3) / 3, set()),
            (BOUND6_M, {"search"}),
            # its principal square root has a negative entry, -0.0136
            (MISSED_BY_RESTART_0, {"factor", "search"}),
            (PLANTED_CP_5 @ PLANTED_CP_5.T, {"factor"}),
        ],
        ids=["sufficient", "not-found", "factorized", "square-root"],
    )
    def test_output_key_sets(self, tmp_path, m, extra):
        target = write_bound6(tmp_path, m)
        proc = run_cli("cp-test", "--input", str(target), *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert set(obj) == {"classification", "dnn", "cp", "evidence", "tolerances"} | extra
        if "search" in obj:
            assert set(obj["search"]) == SEARCH_KEYS


def dicke_weights(d: int, rng: np.random.Generator, balanced: bool) -> tuple[list, list]:
    """Random Dicke weights as the "p" lists (ii, ij). Balanced weights have
    a pair-weight matrix whose rows sum to 1/d, which design accepts: a mix
    of symmetrized permutation matrices."""
    iu = np.triu_indices(d, 1)
    if not balanced:
        probs = rng.dirichlet(np.ones(d * (d + 1) // 2))
        return probs[:d].tolist(), probs[d:].tolist()
    mix = rng.dirichlet(np.ones(3))
    m = sum(c * np.eye(d)[rng.permutation(d)] for c in mix)
    m = (m + m.T) / (2 * d)
    return np.diag(m).tolist(), (2 * m[iu]).tolist()


def run_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPairWeightForms:
    @settings(max_examples=30)
    @given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), balanced=st.booleans())
    def test_p_and_m_forms_give_identical_output(self, d, seed, balanced):
        diag, upper = dicke_weights(d, np.random.default_rng(seed), balanced)
        m = np.zeros((d, d))
        m[np.triu_indices(d, 1)] = np.array(upper) / 2
        m = m + m.T + np.diag(diag)
        with tempfile.TemporaryDirectory() as tmp:
            forms = {
                "p": {"d": d, "p": {"ii": diag, "ij": upper}},
                "M": {"d": d, "M": matrix_to_literal(m)},
            }
            results = {}
            for name, obj in forms.items():
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(obj), encoding="utf-8")
                results[name] = [
                    run_in_process(["cp-test", "-i", str(path), "--restarts", "2", "--max-iters", "500"]),
                    run_in_process(["design", "-i", str(path)]),
                ]
        assert results["p"] == results["M"]
        (cp_code, cp_out, _), (design_code, _, _) = results["p"]
        assert cp_code == 0 and cp_out
        if balanced:
            assert design_code == 0


class TestSweep:
    def test_writes_table_and_heatmaps(self, tmp_path):
        cfg = write_sweep(tmp_path, np.eye(5), [0.0, -1.25, -2.0])
        outdir = tmp_path / "out"
        proc = run_cli("sweep", "--input", str(cfg), "--outdir", str(outdir), *FAST_SEARCH)
        assert proc.returncode == 0
        table = json.loads((outdir / "sweep.json").read_text())
        assert [row["cp_ok"] for row in table["rows"]] == [True, True, False]
        assert (outdir / "action_alpha_-1.25.csv").exists()

    def test_close_alphas_get_their_own_files(self, tmp_path):
        # The three alphas agree to 6 significant digits.
        grid = [-1.2500001, -1.2500002, -1.25000035]
        outdir = tmp_path / "out"
        proc = run_cli("sweep", "--input", str(write_sweep(tmp_path, np.eye(3), grid)),
                       "--outdir", str(outdir), *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads((outdir / "sweep.json").read_text())["rows"]
        assert sorted(f.name for f in outdir.glob("*.csv")) == sorted(
            f"action_alpha_{alpha!r}.csv" for alpha in grid
        )
        for row in rows:
            written = np.loadtxt(outdir / f"action_alpha_{row['alpha']!r}.csv", delimiter=",")
            assert np.array_equal(written, np.array(row["action_abs"]))

    def test_stdout_bytes_are_pinned(self, tmp_path):
        # Pinned across commits. The table's CP window ends at alpha ~ -1.2157:
        # five grid points lie inside it and five outside, so both the
        # verdicts and the forced rows reach these bytes.
        p = [[0.7, 0.1, 0.1, 0.1], [0.2, 0.6, 0.1, 0.1],
             [0.05, 0.15, 0.7, 0.1], [0.1, 0.1, 0.2, 0.6]]
        grid = [-0.5, -1.0, -1.1, -1.2, -1.215, -1.2158, -1.22, -1.3, -1.5, -2.0]
        proc = run_cli("sweep", "--input", str(write_sweep(tmp_path, np.array(p), grid)))
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["rows"]
        assert [row["cp_ok"] for row in rows] == [True] * 5 + [False] * 5
        assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == (
            "ccec078edeae8eef3bc922547e890b9fd0ad5497a251a3aa9c373a5e8aeadd68"
        )

    def test_complex_crosstalk_is_rejected(self, tmp_path):
        p = np.array([[0.9, 0.1 + 0.01j], [0.1, 0.9]])
        proc = run_cli("sweep", "--input", str(write_sweep(tmp_path, p, [-1.0])), *FAST_SEARCH)
        assert proc.returncode == 1
        assert "crosstalk table must be real" in proc.stderr


class TestDemoFig1:
    def test_outputs_match_closed_forms(self, tmp_path):
        outdir = tmp_path / "fig1"
        proc = run_cli("demo-fig1", "--outdir", str(outdir))
        assert proc.returncode == 0
        expected_diag = DEMO_CROSSTALK_5.sum(axis=0) / 5
        for alpha in (0.0, -0.8, -1.0, -1.2):
            rows = [
                [float(x) for x in line.split(",")]
                for line in (outdir / f"heatmap_alpha_{alpha:g}.csv").read_text().splitlines()
            ]
            mat = np.array(rows)
            assert np.allclose(np.diag(mat), expected_diag, atol=1e-12)
            off = ~np.eye(5, dtype=bool)
            assert np.allclose(mat[off], abs(1 + alpha) / 5, atol=1e-12)
        summary = json.loads((outdir / "summary.json").read_text())
        assert len(summary["rows"]) == 4
        assert (outdir / "crosstalk_table.json").exists()

    def test_byte_stable_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("demo-fig1", "--outdir", str(out1)).returncode == 0
        assert run_cli("demo-fig1", "--outdir", str(out2)).returncode == 0
        for name in ("summary.json", "heatmap_alpha_-0.8.csv", "crosstalk_table.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_decomposition_counts(self, tmp_path, monkeypatch):
        # The probe state is validated once; each alpha's CP/TP check also
        # marks its channel action.
        calls = count_decompositions(monkeypatch)
        assert cli.main(["demo-fig1", "--outdir", str(tmp_path)]) == 0
        assert calls == {("eigvalsh", 5): len(DEMO_ALPHA_GRID) + 1}


class TestDemoBound6:
    def test_pinned_outcome_with_reduced_budget(self, tmp_path):
        outdir = tmp_path / "b6"
        proc = run_cli("demo-bound6", "--outdir", str(outdir), *FAST_SEARCH)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((outdir / "report.json").read_text())
        assert report["cptp"]["tp_ok"] and report["cptp"]["cp_ok"]
        assert report["ds_section"]["classification"] == "ppt-entangled-candidate"
        assert (outdir / "pair_weight_matrix.json").exists()

    def test_byte_stable_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("demo-bound6", "--outdir", str(out), *FAST_SEARCH).returncode == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    @pytest.mark.parametrize("evidence", ["diag-dominant", "factorization"])
    def test_separable_classification_fails(self, tmp_path, capsys, monkeypatch, evidence):
        search = None
        if evidence == "factorization":
            exits = {"target": 1, "stall": 0, "budget": 0}
            search = FactorizationResult(True, np.sqrt(BOUND6_M), 0.0, 1, 50, 0, exits)
        verdict = ConeVerdict(True, CpStatus.YES, evidence, search)
        monkeypatch.setattr(mcfqc.pipeline, "classify_ds",
                            lambda *args: (Classification.SEPARABLE, verdict))
        assert cli.main(["demo-bound6", "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"demo-bound6: classification is separable (evidence {evidence})\n"


def stdlib_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, float("inf"), -float("inf"), float("nan")]),
)
# Lists that look like the writer's fast rows but must take its generic path.
NEAR_MISSES = st.sampled_from([
    [1.0, 2], [1.0], [True, 1.0], [1.0, 2.0, 3.0], [float("nan"), 1.0], (1.0, 2.0),
    [np.float64(0.1), 1.0], [],
])
ROWS = st.one_of(
    st.lists(FLOATS),
    st.lists(st.one_of(st.lists(FLOATS, min_size=2, max_size=2), NEAR_MISSES)),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64),
    st.text(), st.sampled_from(["\u00e9\u4e2d\U0001f600", "\x00\x1f\t\"\\", ""]),
)
JSON_TREES = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=30,
)


def _certify_at(d):
    def argv(tmp_path):
        ch = random_cptp_channel(d, np.random.default_rng(d))
        cfg = tmp_path / "channel.json"
        cfg.write_text(json.dumps(channel_to_config(ch)), encoding="utf-8")
        return ["certify", "--input", str(cfg), *FAST_SEARCH]
    return argv


def _certify_uniform_at(d):
    # Uniform real dephasing inside the CP interval: the output state is real,
    # so its rows are plain floats rather than [re, im] pairs.
    def argv(tmp_path):
        p = random_cptp_channel(d, np.random.default_rng(d)).crosstalk
        alpha = (cp_boundary_uniform_alpha(p) - 1.0) / 2
        return ["certify", "--input", str(write_uniform_channel(tmp_path, p, alpha)), *FAST_SEARCH]
    return argv


CLI_OUTPUTS = {
    **{f"certify-d{d}": _certify_at(d) for d in (2, 3, 6, 9, 16)},
    "certify-uniform-d9": _certify_uniform_at(9),
    "certify-forced": lambda t: [
        "certify", "--input", str(write_demo_channel(t, alpha=-1.2)), "--force", *FAST_SEARCH],
    "demo-bound6": lambda t: ["demo-bound6", "--outdir", str(t / "b6"), "--restarts", "3"],
    "cp-test-factor-search": lambda t: [
        "cp-test", "--input", str(write_bound6(t, MISSED_BY_RESTART_0)), *FAST_SEARCH],
    "cp-test-square-root": lambda t: [
        "cp-test", "--input", str(write_bound6(t, PLANTED_CP_5 @ PLANTED_CP_5.T)), *FAST_SEARCH],
    "sweep": lambda t: [
        "sweep", "--input", str(write_sweep(t, DEMO_CROSSTALK_5, [0.0, -0.8, -1.2])), *FAST_SEARCH],
    "choi": lambda t: ["choi", "--input", str(write_demo_channel(t))],
    "apply": lambda t: ["apply", "--input", str(write_demo_channel(t, alpha=-1.2)), "--force"],
    "channel-check": lambda t: ["channel-check", "--input", str(write_demo_channel(t))],
    "design": lambda t: ["design", "--input", str(write_bound6(t))],
}


class TestDumpJson:
    """cli._dump_json writes the stdlib's indent=2, sort_keys=True text."""

    @given(JSON_TREES)
    def test_matches_stdlib(self, obj):
        assert cli._dump_json(obj) == stdlib_dump(obj)

    @pytest.mark.parametrize("case", sorted(CLI_OUTPUTS))
    def test_matches_stdlib_on_cli_outputs(self, tmp_path, monkeypatch, capsys, case):
        written = []
        dump = cli._dump_json

        def recording(obj):
            written.append(obj)
            return dump(obj)

        monkeypatch.setattr(cli, "_dump_json", recording)
        assert cli.main(CLI_OUTPUTS[case](tmp_path)) == 0
        assert written
        for obj in written:
            assert dump(obj) == stdlib_dump(obj)

    @pytest.mark.parametrize("obj", [{"m": np.eye(2)}, [1.0, np.int64(3)], [[1.0, np.bool_(True)]]])
    def test_rejects_what_the_stdlib_rejects(self, obj):
        with pytest.raises(TypeError) as expected:
            stdlib_dump(obj)
        with pytest.raises(TypeError) as raised:
            cli._dump_json(obj)
        assert str(raised.value) == str(expected.value)
