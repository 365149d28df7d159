import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import mcfqc.cones
import mcfqc.linalg
import mcfqc.pipeline
import mcfqc.states
from mcfqc import cli
from mcfqc.channel import McfChannel, channel_to_config
from mcfqc.cones import Classification, SearchBudget
from mcfqc.linalg import DEFAULT_TOL
from mcfqc.pipeline import config_digest, run_protocol, sweep_alpha
from mcfqc.presets import BOUND6_M, DEMO_CROSSTALK_5
from mcfqc.states import Conclusion, is_ppt, max_entangled, realignment_trace_norm
from mcfqc.symmetric_states import channel_from_ds

from oracle import config_digest_by_json_dumps
from sampling import random_cptp_channel

FAST_BUDGET = SearchBudget(restarts=10, max_iters=10_000, residual_target=1e-7, seed=0)


def count_decompositions(monkeypatch) -> Counter:
    """Count numpy's eigvalsh and svd calls by name and matrix order."""
    calls = Counter()
    for name in ("eigvalsh", "svd"):
        def counted(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name, np.shape(a)[0]] += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def no_dense_state(monkeypatch):
    """Make every expansion of a table pair to its d^2 x d^2 matrix fail."""
    def refuse(*args):
        raise AssertionError("a dense d^2 x d^2 state was built")

    monkeypatch.setattr(mcfqc.linalg, "pair_to_dense", refuse)
    monkeypatch.setattr(mcfqc.states, "pair_to_dense", refuse)


class TestRunProtocol:
    def test_identity_channel(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(4), 0.0)
        report = run_protocol(ch, budget=FAST_BUDGET)
        assert np.abs(report.cldui.dm.mat - max_entangled(4).mat).max() < 1e-12
        assert report.verdict("cldui-ppt").flag == Conclusion.ENTANGLED
        assert report.verdict("cldui-realignment").value == pytest.approx(4.0, abs=1e-10)
        assert report.warnings == ()

    def test_fully_dephasing_channel(self):
        d = 3
        ch = McfChannel.with_uniform_dephasing(np.eye(d), -1.0)
        report = run_protocol(ch, budget=FAST_BUDGET)
        expected = np.zeros((d * d, d * d))
        for i in range(d):
            expected[i * (d + 1), i * (d + 1)] = 1 / d
        assert np.abs(report.cldui.dm.mat - expected).max() < 1e-15
        for v in report.verdicts:
            assert v.flag == Conclusion.INCONCLUSIVE

    def test_bound6_channel(self):
        report = run_protocol(channel_from_ds(BOUND6_M), budget=FAST_BUDGET)
        assert report.cptp.tp_ok and report.cptp.cp_ok
        assert report.verdict("cldui-ppt").flag == Conclusion.INCONCLUSIVE
        assert report.ds_section is not None
        assert report.ds_section.classification == Classification.PPT_ENTANGLED_CANDIDATE
        assert np.abs(report.cldui.weights - BOUND6_M).max() < 1e-12

    def test_ds_section_absent_for_generic_channels(self):
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -0.8)
        report = run_protocol(ch, budget=FAST_BUDGET)
        assert report.ds_section is None

    def test_rejects_non_tp_channel(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(2) * 0.9, -0.5)
        with pytest.raises(ValueError, match="trace-preserving"):
            run_protocol(ch, budget=FAST_BUDGET)

    def test_non_cp_channel_needs_force(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(5), -2.0)
        with pytest.raises(ValueError, match="completely positive"):
            run_protocol(ch, budget=FAST_BUDGET)
        report = run_protocol(ch, budget=FAST_BUDGET, force=True)
        assert report.warnings == ("unphysical parameters",)
        assert report.cldui.dm.warnings == ("not completely positive",)
        assert not report.cptp.cp_ok

    def test_redundant_routes_always_agree(self):
        # The closed-form route of each criterion and the dense route on the
        # reported state reach the same flag.
        rng = np.random.default_rng(0)
        for trial in range(20):
            d = 2 + trial % 5
            report = run_protocol(random_cptp_channel(d, rng), budget=FAST_BUDGET)
            dm = report.cldui.dm
            assert report.verdict("cldui-ppt").flag == is_ppt(dm).flag
            assert report.verdict("cldui-realignment").flag == realignment_trace_norm(dm).flag

    def test_dense_verdicts_describe_the_reported_state(self):
        # The dense criteria on the reported state are the oracle for the
        # closed-form values, to rounding. The partial transpose's spectrum is
        # the pair-block eigenvalues plus the weights A_ii, so the dense
        # minimum also takes those in.
        rng = np.random.default_rng(12)
        for trial in range(25):
            d = (2, 3, 4, 5, 6, 8, 12)[trial % 7]
            report = run_protocol(random_cptp_channel(d, rng), budget=FAST_BUDGET)
            dm = report.cldui.dm
            ppt, dense_ppt = report.verdict("cldui-ppt"), is_ppt(dm)
            realign, dense_realign = report.verdict("cldui-realignment"), realignment_trace_norm(dm)
            assert ppt.flag == dense_ppt.flag
            lowest_weight = np.diag(report.cldui.weights).min()
            assert abs(dense_ppt.value - min(ppt.value, lowest_weight)) < 1e-14
            assert realign.flag == dense_realign.flag
            assert abs(realign.value - dense_realign.value) < 1e-10

    def test_decomposition_counts(self, monkeypatch):
        # No d^2 x d^2 decomposition: the d x d ones are the one hat-block
        # check and the closed-form realignment trace norm.
        calls = count_decompositions(monkeypatch)
        report = run_protocol(random_cptp_channel(5, np.random.default_rng(13)), budget=FAST_BUDGET)
        assert report.ds_section is None
        assert calls == {("eigvalsh", 5): 1, ("svd", 5): 1}

    @given(
        d=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        mixing=st.floats(0.05, 0.45),
        pair=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        floors=st.floats(-4.0, 4.0),
        phase=st.floats(0.0, 2 * np.pi),
    )
    @example(d=2, seed=0, mixing=0.2, pair=(0, 1), floors=-1.0, phase=0.0)
    @example(d=3, seed=1, mixing=0.3, pair=(2, 0), floors=-1.0 + 1e-9, phase=1.0)
    def test_routes_agree_at_the_ppt_edge(self, d, seed, mixing, pair, floors, phase):
        # One coherent pair (i, j) whose 2 x 2 partial-transpose block has
        # least eigenvalue floors * psd_floor; every other pair is fully
        # dephased. A dominant diagonal keeps the channel CPTP. The report
        # must come out for every k; its flag is pinned only away from
        # k = -1, since the construction and both routes round at about
        # 1e-16 absolute, and that close to -psd_floor rounding decides.
        i, j = (k % d for k in pair)
        assume(i != j)
        rng = np.random.default_rng(seed)
        p = (1 - mixing) * np.eye(d) + mixing * rng.dirichlet(np.ones(d), size=d)
        target = floors * DEFAULT_TOL.psd_floor
        mean, half_gap = (p[i, j] + p[j, i]) / (2 * d), (p[i, j] - p[j, i]) / (2 * d)
        assume(mean - target >= abs(half_gap))
        alpha = -np.ones((d, d), dtype=complex)
        alpha[i, j] = d * np.sqrt((mean - target) ** 2 - half_gap**2) * np.exp(1j * phase) - 1
        alpha[j, i] = np.conj(alpha[i, j])
        ch = McfChannel(p, alpha)
        report = run_protocol(ch, budget=FAST_BUDGET)
        assert report.cptp.cp_ok
        if abs(floors + 1.0) > 1e-4:
            expected = Conclusion.ENTANGLED if floors < -1 else Conclusion.INCONCLUSIVE
            assert report.verdict("cldui-ppt").flag == expected
            assert is_ppt(report.cldui.dm).flag == expected

    def test_builds_no_dense_state(self, no_dense_state):
        report = run_protocol(random_cptp_channel(12, np.random.default_rng(14)), budget=FAST_BUDGET)
        obj = report.to_json_dict()
        assert "output_state" not in obj
        assert len(obj["cldui"]["weights"]) == 12
        with pytest.raises(AssertionError, match="dense"):
            report.cldui.dm

    def test_cli_certify_at_d64_stays_at_table_scale(self, no_dense_state, tmp_path):
        cfg = tmp_path / "channel.json"
        ch = random_cptp_channel(64, np.random.default_rng(64))
        cfg.write_text(json.dumps(channel_to_config(ch)), encoding="utf-8")
        outdir = tmp_path / "out"
        assert cli.main(["certify", "--input", str(cfg), "--outdir", str(outdir)]) == 0
        assert (outdir / "report.json").stat().st_size < 1_500_000

    def test_report_payload_is_reproducible(self):
        ch = channel_from_ds(BOUND6_M)
        a = run_protocol(ch, budget=FAST_BUDGET).to_json_dict()
        b = run_protocol(ch, budget=FAST_BUDGET).to_json_dict()
        assert a == b

    def test_config_digest_is_pinned(self):
        # Pinned across commits: the digest covers the serialized channel,
        # budget, force flag and tolerances, and no LAPACK result.
        ch = McfChannel.with_uniform_dephasing(DEMO_CROSSTALK_5, -0.8)
        report = run_protocol(ch, budget=SearchBudget(restarts=5, max_iters=5000))
        assert report.provenance["config_sha256"] == (
            "66fa32e3aa3d2512f2c3979c9224cbd545d9fd52844d3ff4e400bc67a09ea5d6"
        )

    def test_provenance_hash_tracks_config(self):
        ch = McfChannel.with_uniform_dephasing(np.eye(3), -0.5)
        r1 = run_protocol(ch, budget=FAST_BUDGET)
        r2 = run_protocol(ch, budget=SearchBudget(restarts=11, max_iters=10_000, seed=0))
        assert r1.provenance["config_sha256"] != r2.provenance["config_sha256"]
        assert r1.provenance["seed"] == 0

    def test_config_digest_is_stable(self):
        assert config_digest({"a": 1}) == config_digest({"a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    @given(d=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from(["real", "complex", "uniform"]))
    def test_config_digest_matches_json_dumps(self, d, seed, alpha):
        # The digest hashes linalg.dump_json's compact text; the stdlib's
        # canonical encoding of the same config must give the same hash.
        rng = np.random.default_rng(seed)
        ch = random_cptp_channel(d, rng)
        if alpha == "real":
            ch = McfChannel(ch.crosstalk, ch.dephasing.real)
        channel = channel_to_config(ch)
        if alpha == "uniform":
            channel["alpha"] = {"uniform": float(rng.uniform(-1.0, 0.0))}
        config = {"channel": channel, "budget": {"restarts": 5, "max_iters": 5000,
                                                 "residual_target": 1e-7, "seed": seed},
                  "force": bool(seed % 2), "tolerances": {"psd_floor": 1e-10, "eq_tol": 1e-10}}
        assert config_digest(config) == config_digest_by_json_dumps(config)


class TestSweepAlpha:
    def test_cp_window_pattern_for_identity_crosstalk(self):
        rows = sweep_alpha(np.eye(5), [0.0, -0.5, -1.25, -2.0], budget=FAST_BUDGET)
        assert [row.cp_ok for row in rows] == [True, True, True, False]
        assert [row.alpha for row in rows] == [0.0, -0.5, -1.25, -2.0]

    def test_empty_grid(self):
        assert sweep_alpha(np.eye(3), [], budget=FAST_BUDGET) == []

    def test_demo_grid_action_pattern(self):
        grid = [0.0, -0.8, -1.0, -1.2]
        rows = sweep_alpha(DEMO_CROSSTALK_5, grid, budget=FAST_BUDGET)
        expected_diag = DEMO_CROSSTALK_5.sum(axis=0) / 5
        off = ~np.eye(5, dtype=bool)
        for row, alpha in zip(rows, grid):
            assert np.allclose(np.diag(row.action).real, expected_diag, atol=1e-12)
            assert np.allclose(np.abs(row.action[off]), abs(1 + alpha) / 5, atol=1e-12)

    def test_decomposition_counts(self, monkeypatch):
        # Each row's protocol run and channel action share one hat-block
        # check; the probe state is validated once for the whole grid.
        grid = [0.0, -0.8, -1.0, -1.2]
        calls = count_decompositions(monkeypatch)
        assert len(sweep_alpha(DEMO_CROSSTALK_5, grid, budget=FAST_BUDGET)) == len(grid)
        assert calls == {("eigvalsh", 5): len(grid) + 1, ("svd", 5): len(grid)}

    def test_runs_no_cone_search(self, monkeypatch):
        # At alpha = q - 1 the output is the pair (M, M) with M = P/6, which
        # run_protocol classifies; a sweep row has no cone section. A pair
        # (M, M) under uniform dephasing has M = (q J + c I)/d, whose square
        # root is nonnegative, so no uniform-dephasing row reaches the search.
        q = 0.14
        p = np.full((6, 6), q) + np.diag(np.full(6, 0.3 - q))
        grid = [q - 1.0, -0.5, 0.0]
        classified, searches = [], []
        classify, search = mcfqc.pipeline.classify_ds, mcfqc.cones._search
        monkeypatch.setattr(mcfqc.pipeline, "classify_ds",
                            lambda *args: classified.append(args) or classify(*args))
        monkeypatch.setattr(mcfqc.cones, "_search",
                            lambda *args: searches.append(args) or search(*args))
        rows = sweep_alpha(p, grid, budget=FAST_BUDGET)
        assert classified == [] and searches == []
        reports = []
        for row, alpha in zip(rows, grid):
            ch = McfChannel.with_uniform_dephasing(p, alpha)
            reports.append(run_protocol(ch, budget=FAST_BUDGET, force=True))
            assert row.verdicts == reports[-1].verdicts
        assert len(classified) == 1 and searches == []
        cone = reports[0].ds_section.cone
        assert cone.evidence == "nonnegative-square-root" and cone.search is None

    def test_row_serialization(self):
        rows = sweep_alpha(np.eye(2), [-0.5], budget=FAST_BUDGET)
        obj = rows[0].to_json_dict()
        assert obj["alpha"] == -0.5
        assert obj["cp_ok"] is True
        assert [v["name"] for v in obj["verdicts"]] == ["cldui-ppt", "cldui-realignment"]
