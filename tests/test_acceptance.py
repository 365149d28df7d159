"""Acceptance suite.

Every criterion below runs at desk scale (d <= 7) and prints one
[PASS]/[FAIL] line. Run through pytest, or standalone:

    python tests/test_acceptance.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from mcfqc.channel import (
    McfChannel,
    apply,
    choi,
    cp_boundary_uniform_alpha,
    verify_cptp,
)
from mcfqc.cones import Classification, SearchBudget, classify_ds, cp_factorize, cp_sufficient, is_dnn
from mcfqc.linalg import pair_to_dense
from mcfqc.presets import BOUND6_M, DEMO_ALPHA_GRID, DEMO_CROSSTALK_5
from mcfqc.states import (
    DensityMatrix,
    is_ppt,
    max_entangled,
    realignment_trace_norm,
)
from mcfqc.symmetric_states import (
    channel_from_ds,
    cldui_is_ppt,
    cldui_realignment_test,
)

from oracle import channel_from_choi
from sampling import (
    random_cldui_state,
    random_cptp_channel,
    random_density_matrix,
    random_dnn_matrix,
    random_ds_state,
    random_separable_state,
)

PINNED_BUDGET = SearchBudget(restarts=100, max_iters=100_000, residual_target=1e-7, seed=0)


def _report(label: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_1_choi_round_trip():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        d = 2 + trial % 5
        ch = random_cptp_channel(d, rng)
        action = channel_from_choi(choi(ch).dm)
        for _ in range(5):
            rho = random_density_matrix(d, rng)
            err = np.abs(action(rho.mat) - apply(ch, rho).mat).max()
            worst = max(worst, float(err))
    _report(
        "criterion 1: channel -> Choi -> channel round trip (50 channels, d=2..6)",
        worst <= 1e-10,
        f"worst entrywise error {worst:.2e}",
    )


def test_criterion_2_demo_heatmaps():
    expected_diag = np.array([0.22, 0.24, 0.12, 0.24, 0.18])
    ok = bool(np.allclose(DEMO_CROSSTALK_5.sum(axis=0) / 5, expected_diag, atol=1e-15))
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "mcfqc", "demo-fig1", "--outdir", tmp],
            capture_output=True,
            text=True,
        )
        ok = ok and proc.returncode == 0
        off = ~np.eye(5, dtype=bool)
        for alpha in DEMO_ALPHA_GRID:
            path = Path(tmp) / f"heatmap_alpha_{alpha:g}.csv"
            mat = np.array(
                [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()]
            )
            worst = max(worst, float(np.abs(np.diag(mat) - expected_diag).max()))
            worst = max(worst, float(np.abs(mat[off] - abs(1 + alpha) / 5).max()))
    _report(
        "criterion 2: demo heatmaps match the closed forms for every alpha",
        ok and worst <= 1e-12,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_3_cp_window():
    worst = 0.0
    upper_ok = True
    for d in range(2, 8):
        located = cp_boundary_uniform_alpha(np.eye(d))
        worst = max(worst, abs(located - (-d / (d - 1))))
        at_zero = McfChannel.with_uniform_dephasing(np.eye(d), 0.0)
        upper_ok = upper_ok and verify_cptp(at_zero).cp_ok
        try:
            McfChannel.with_uniform_dephasing(np.eye(d), 1e-9)
            upper_ok = False  # any positive alpha must be rejected outright
        except ValueError:
            pass
    _report(
        "criterion 3: complete-positivity window is [-d/(d-1), 0] for d=2..7",
        worst <= 1e-9 and upper_ok,
        f"worst boundary error {worst:.2e}",
    )


def test_criterion_4_bound_entanglement_demo():
    checks = []
    sums = np.concatenate([BOUND6_M.sum(axis=0), BOUND6_M.sum(axis=1)])
    checks.append(("row/column sums 1/6", bool(np.abs(sums - 1 / 6).max() <= 1e-12)))

    ch = channel_from_ds(BOUND6_M)
    report = verify_cptp(ch)
    checks.append(("derived channel trace-preserving", report.tp_ok))
    checks.append(("derived channel completely positive", report.cp_ok))

    output = choi(ch).dm
    ppt = is_ppt(output)
    checks.append(("protocol output PPT", ppt.value >= -1e-10))

    checks.append(("pair-weight matrix doubly nonnegative", is_dnn(BOUND6_M)))
    checks.append(("no cheap membership certificate", cp_sufficient(BOUND6_M) is None))

    search = cp_factorize(BOUND6_M, PINNED_BUDGET)
    checks.append(
        (f"factorization not found (best residual {search.best_residual:.2e})", not search.found)
    )

    classification, _ = classify_ds(BOUND6_M, PINNED_BUDGET)
    checks.append(
        ("classified as candidate", classification == Classification.PPT_ENTANGLED_CANDIDATE)
    )

    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "mcfqc", "demo-bound6", "--outdir", tmp],
            capture_output=True,
            text=True,
        )
        checks.append(("demo subcommand exits 0", proc.returncode == 0))

    failed = [name for name, ok in checks if not ok]
    _report(
        "criterion 4: bound-entanglement demo on the 6 x 6 matrix",
        not failed,
        "; ".join(failed) if failed else f"search residual {search.best_residual:.2e}",
    )


def test_criterion_5_criterion_equivalences():
    rng = np.random.default_rng(505)
    flags_agree = True
    worst_value_gap = 0.0
    for trial in range(100):
        d = 2 + trial % 5
        s = random_cldui_state(d, rng)
        rho = s.dm
        flags_agree = flags_agree and cldui_is_ppt(s).flag == is_ppt(rho).flag
        gap = abs(cldui_realignment_test(s).value - realignment_trace_norm(rho).value)
        worst_value_gap = max(worst_value_gap, gap)

    worst_spectrum_gap = 0.0
    for trial in range(50):
        d = 2 + trial % 5
        m = random_ds_state(d, rng)
        g = pair_to_dense(m, m)
        off = [m[i, j] for i in range(d) for j in range(i + 1, d)]
        expected = np.sort(list(np.linalg.eigvalsh(m)) + off + off)
        gap = np.abs(np.sort(np.linalg.eigvalsh(g)) - expected).max()
        worst_spectrum_gap = max(worst_spectrum_gap, float(gap))

    _report(
        "criterion 5: specialized criteria match the generic routes (100 + 50 states)",
        flags_agree and worst_value_gap <= 1e-10 and worst_spectrum_gap <= 1e-10,
        f"value gap {worst_value_gap:.2e}, spectrum gap {worst_spectrum_gap:.2e}",
    )


def test_criterion_6_realignment_anchors():
    worst_bell = 0.0
    for d in range(2, 6):
        worst_bell = max(worst_bell, abs(realignment_trace_norm(max_entangled(d)).value - d))

    rng = np.random.default_rng(606)
    sep_ok = True
    for trial in range(50):
        d = 2 + trial % 2
        value = realignment_trace_norm(random_separable_state(d, d, rng)).value
        sep_ok = sep_ok and value <= 1 + 1e-9

    mixed = realignment_trace_norm(DensityMatrix(np.eye(4) / 4, factors=(2, 2))).value
    _report(
        "criterion 6: realignment anchors (Bell, separable, maximally mixed)",
        worst_bell <= 1e-10 and sep_ok and abs(mixed - 0.5) <= 1e-12,
        f"bell error {worst_bell:.2e}, mixed value {mixed!r}",
    )


def test_criterion_7_small_dimension_cone_collapse():
    rng = np.random.default_rng(707)
    budget = SearchBudget(restarts=100, max_iters=100_000, residual_target=1e-7, seed=7)
    all_found = True
    no_candidates = True
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(50):
            m = random_dnn_matrix(d, rng)
            result = cp_factorize(m, budget)
            all_found = all_found and result.found
            worst = max(worst, result.best_residual)
            classification, _ = classify_ds(m, budget)
            no_candidates = no_candidates and (
                classification != Classification.PPT_ENTANGLED_CANDIDATE
            )
    _report(
        "criterion 7: every random DNN matrix factorizes for d < 5 (150 matrices)",
        all_found and no_candidates,
        f"worst residual {worst:.2e}",
    )


def test_criterion_8_stationarity_and_dephasing():
    rng = np.random.default_rng(808)
    stationary_ok = True
    for d in (2, 4, 7):
        ch = McfChannel.with_uniform_dephasing(np.eye(d), float(-1.5 * rng.random()))
        for i in range(d):
            basis_state = np.zeros((d, d), dtype=complex)
            basis_state[i, i] = 1.0
            out = apply(ch, DensityMatrix(basis_state), force=True)
            stationary_ok = stationary_ok and np.array_equal(out.mat, basis_state)

    monotone_ok = True
    for trial in range(100):
        d = 2 + trial % 5
        ch = random_cptp_channel(d, rng)
        rho = random_density_matrix(d, rng)
        out = apply(ch, rho)
        off = ~np.eye(d, dtype=bool)
        monotone_ok = monotone_ok and bool(
            np.all(np.abs(out.mat[off]) <= np.abs(rho.mat[off]) + 1e-15)
        )
    _report(
        "criterion 8: identity-crosstalk channels fix the core basis; coherences never grow",
        stationary_ok and monotone_ok,
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(
        (k, v) for k, v in globals().items() if k.startswith("test_criterion_")
    ):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"       {exc}")
    print(f"\n{8 - failures} of 8 acceptance criteria passed")
    sys.exit(1 if failures else 0)
