"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that a deliberately wrong expected value shows up as a failed
operation.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

TINY = {
    "certify-large": lambda: workloads.Certify(dims=(3,)),
    "certify-small": lambda: workloads.CertifySmall(dims=(3, 4)),
    "cone-search": lambda: workloads.ConeSearch(orders=(5,), per_class=1, demo_restarts=2),
    "sweep-small": lambda: workloads.SweepSmall(dims=(3, 4)),
}

# One reference per workload, replaced by a wrong one.
WRONG = {
    "certify-large": ("realignment_reference", lambda p, alpha: 0.5),
    "certify-small": ("cp_edge", lambda p: -1.5),
    "cone-search": ("is_dnn_reference", lambda a: False),
    "sweep-small": ("cp_edge", lambda p: -1.5),
}


def bench(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(workloads.WORKLOADS, workload, TINY[workload])
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, workload, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines, result = bench(monkeypatch, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("error_rate 0 fraction") for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_wrong_expected_value_trips_error_rate(monkeypatch, capsys, workload):
    name, wrong = WRONG[workload]
    monkeypatch.setattr(workloads, name, wrong)
    lines, result = bench(monkeypatch, capsys, workload, 0)
    assert result["failed"] >= 1 and not result["correct"]
    rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(rate.split()[1]) > 0
