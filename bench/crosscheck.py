#!/usr/bin/env python3
"""Baseline cross-check: traced single operations at the sizes of the known baseline.

    python3 bench/crosscheck.py

Runs the traced pass of ``run.py`` once on ``certify`` of one random
channel at d = 16, 24 and 32, and once on ``demo-bound6`` at its default
budget and seed 0. Prints, and writes to ``.bench_out/crosscheck.json``,
the ``run_protocol`` time, the serializer's share of the ``certify`` call,
and the search's restarts, iterations and time per iteration. The d = 32
call needs about 0.6 GB of memory.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main() -> int:
    threads = run.configure_environment(os.environ)
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import mcfqc.cli
    import workloads

    client = run.Client(mcfqc.cli.main)
    rows = {}
    with run.workspace() as work:
        for d in (16, 24, 32):
            ops = workloads.Certify(dims=(d,), channels=1, repeats=1).block(0, 0, work)
            metrics, details = run.run_traced(client, ops, [], 0.0)
            rows[f"certify d={d}"] = {
                "op_s": details["traced_s"],
                "run_protocol_s": metrics["pipeline.run_protocol_s"],
                "serialize_s": metrics["cli.serialize_s"],
                "serializer_share": metrics["cli.serialize_s"] / details["traced_s"],
                "report_bytes": metrics["cli.report_bytes"],
                "eig_calls": metrics["linalg.eig_calls"],
            }
        demo = workloads.ConeSearch().demo(0, work)
        metrics, details = run.run_traced(client, [demo], [], 0.0)
        rows["demo-bound6 seed 0"] = {
            "op_s": details["traced_s"],
            "search_s": metrics["cones.search_s"],
            "restarts": metrics["cones.restarts"],
            "iterations": metrics["cones.iterations"],
            "iterations_per_restart": metrics["cones.iterations"] / metrics["cones.restarts"],
            "us_per_iteration": metrics["cones.us_per_iteration"],
        }
    for name, row in rows.items():
        print(name, " ".join(f"{key}={value:.4g}" for key, value in row.items()))
    for message in client.failures:
        print(f"failed: {message}")
    record = {"environment": run.environment(np, threads, 0, {}), "rows": rows,
              "failures": client.failures}
    (run.OUT / "crosscheck.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if client.failures else 0


if __name__ == "__main__":
    sys.exit(main())
