"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Criteria 1-3 are exact-formula and numerical gates; 4-9 are directional
properties of the simulation measured on the shared harnesses; 10 checks
byte-level reproducibility of the command-line pipeline; 11 bounds the whole
pipeline's wall time.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from rgdlab import cli, clmetrics, driver, fileio, replay, rgd, tinylm


def check(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)

    def rank(values):
        order = np.argsort(values, kind="stable")
        ranks = np.empty(len(values))
        ranks[order] = np.arange(1, len(values) + 1)
        for v in np.unique(values):
            idx = np.flatnonzero(values == v)
            if len(idx) > 1:
                ranks[idx] = ranks[idx].mean()
        return ranks

    rx, ry = rank(xs), rank(ys)
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def mean_over_runs(harness, strategy, attr):
    values = [getattr(r.report, attr) for key, r in harness.runs.items()
              if key[0] == strategy]
    return sum(values) / len(values)


def test_criterion_01_formula_oracles(tmp_path, capsys):
    start = time.time()
    matrix = clmetrics.PerfMatrix(
        order=("A", "B", "C"),
        rows=((80.0,), (70.0, 90.0), (60.0, 85.0, 88.0)),
        a0=(75.0, 88.0, 85.0),
    )
    report = clmetrics.compute_report(matrix)
    assert report.fap == pytest.approx((60 + 85 + 88) / 3, abs=1e-9)
    assert report.f_ra == pytest.approx(12.5, abs=1e-9)
    assert report.bwt == pytest.approx(-12.5, abs=1e-9)
    assert report.fwt == pytest.approx(10 / 3, abs=1e-9)
    assert report.cap == pytest.approx(86.0, abs=1e-9)

    path = tmp_path / "matrix.csv"
    fileio.write_matrix(matrix, path)
    assert cli.main(["metrics", "--matrix", str(path)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row == "77.667,12.5,-12.5,3.333,86.0"

    assert replay.allocate_rgd({"a": 2.0, "b": 1.0, "c": 1.0}, 100).counts == {
        "a": 50, "b": 25, "c": 25}
    assert replay.allocate_rgd({"a": 1.0, "b": 1.0, "c": 1.0}, 10).counts == {
        "a": 4, "b": 3, "c": 3}
    assert rgd.PplRecord("t", "e", 2 * math.log(2.0), 2 * math.log(4.0), 2).rgd() == 0.5

    elapsed = time.time() - start
    check(elapsed < 1.0, f"criterion 1: formula oracles exact, {elapsed:.2f}s < 1s")


def test_criterion_02_metric_identity_property():
    start = time.time()
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 1000:
        t = int(rng.integers(2, 9))
        matrix = clmetrics.PerfMatrix(
            order=tuple(f"t{i}" for i in range(t)),
            rows=tuple(tuple(float(v) for v in rng.uniform(0, 100, size=i + 1))
                       for i in range(t)),
            a0=tuple(float(v) for v in rng.uniform(0, 100, size=t)),
        )
        report = clmetrics.compute_report(matrix)
        gap = report.fap - (report.cap + (t - 1) / t * report.bwt)
        assert abs(gap) <= 1e-9, f"identity broke by {gap} on T={t}"
        checked += 1
    elapsed = time.time() - start
    check(elapsed < 5.0,
          f"criterion 2: FAP == CAP + (T-1)/T*BWT on 1000 random matrices, {elapsed:.2f}s < 5s")


def test_criterion_03_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        n_content = int(rng.integers(2, 9))
        vocab = tinylm.Vocab.build(f"w{i}" for i in range(n_content))
        model = tinylm.init_model(
            vocab,
            context_len=int(rng.integers(2, 4)),
            embed_dim=int(rng.integers(3, 6)),
            hidden_dim=int(rng.integers(4, 9)),
            seed=int(rng.integers(0, 10000)),
        )
        v = len(vocab)
        context = [int(t) for t in rng.integers(0, v, size=rng.integers(0, 4))]
        target = [int(t) for t in rng.integers(0, v, size=rng.integers(2, 6))]
        worst = max(worst, tinylm.grad_check(model, (context, target), epsilon=1e-5))
    elapsed = time.time() - start
    check(worst < 1e-4 and elapsed < 30.0,
          f"criterion 3: grad check max rel err {worst:.2e} < 1e-4 over 20 models, "
          f"{elapsed:.1f}s < 30s")


def test_criterion_04_forgetting_occurs(harness5):
    f_ra = mean_over_runs(harness5, "none", "f_ra")
    plan = harness5.result.plan
    within_budget = harness5.elapsed < 300.0
    check(f_ra >= 10.0 and within_budget,
          f"criterion 4: no-replay F.Ra {f_ra:.2f} >= 10 over "
          f"{len(plan.run_seeds)} seeds x {len(plan.orders)} orders, "
          f"harness {harness5.elapsed:.0f}s < 300s")


def test_criterion_05_replay_mitigates(harness5):
    f_none = mean_over_runs(harness5, "none", "f_ra")
    f_equal = mean_over_runs(harness5, "equal", "f_ra")
    check(f_equal <= 0.5 * f_none,
          f"criterion 5: equal-allocation F.Ra {f_equal:.2f} <= 50% of no-replay "
          f"{f_none:.2f} ({100 * (1 - f_equal / f_none):.0f}% reduction)")


def test_criterion_06_rgd_allocation_vs_equal(harness8):
    plan = harness8.result.plan
    diffs = []
    for seed in plan.run_seeds:
        for order in plan.orders:
            rgd_fap = harness8.runs[("rgd-mean", seed, order)].report.fap
            eq_fap = harness8.runs[("equal", seed, order)].report.fap
            diffs.append(rgd_fap - eq_fap)
    mean_diff = sum(diffs) / len(diffs)
    wins = sum(d > 0 for d in diffs)
    ok = mean_diff >= -0.5 and wins > len(diffs) / 2
    check(ok, f"criterion 6: FAP(rgd) - FAP(equal) mean {mean_diff:+.2f} >= -0.5, "
              f"strictly greater in {wins}/{len(diffs)} paired runs")


def test_criterion_07_rgd_rises_with_forgetting(harness5):
    plan = harness5.result.plan
    rises = []
    for seed in plan.run_seeds:
        for order in plan.orders:
            record = harness5.runs[("none", seed, order)]
            for task in driver.most_forgotten_tasks(record.report):
                own_stage = record.result.order.index(task)
                own = record.result.summaries[own_stage][task].mean
                final = record.result.summaries[-1][task].mean
                rises.append(final > own)
    fraction = sum(rises) / len(rises)
    check(fraction >= 0.8,
          f"criterion 7: task-level difficulty rises from own stage to final in "
          f"{fraction:.0%} of (run, top-3 task) cases ({sum(rises)}/{len(rises)})")


def test_criterion_08_partial_rationale_recovery(harness5):
    k_grid = list(harness5.result.plan.k_grid)
    gaps, rhos = [], []
    for probe in harness5.result.probes:
        accs = [acc for _, acc in probe.partial]
        gaps.append(accs[-1] - accs[0])
        rhos.append(spearman(k_grid, accs))
    mean_gap = sum(gaps) / len(gaps)
    mean_rho = sum(rhos) / len(rhos)
    ok = mean_gap >= 10.0 and mean_rho >= 0.6
    check(ok, f"criterion 8: acc(k=1) - acc(k=0) mean {mean_gap:+.1f} >= 10 and "
              f"spearman(k, acc) mean {mean_rho:.3f} >= 0.6 on forgotten tasks")


def test_criterion_09_tap_recovery(harness5):
    weak, strict = [], []
    for probe in harness5.result.probes:
        best, instruction_only = max(acc for _, _, acc in probe.tap), probe.tap[0][2]
        weak.append(best >= instruction_only)
        strict.append(best > instruction_only)
    strict_fraction = sum(strict) / len(strict)
    check(all(weak),
          f"criterion 9: best prefix-prompt accuracy >= instruction-only in every "
          f"probe ({len(weak)} probes); strict improvement in {strict_fraction:.0%}")


def test_criterion_10_reproducibility(tmp_path):
    config = {
        "suite": {"num_tasks": 3, "train_per_task": 60, "eval_per_task": 20,
                  "probe_per_task": 16, "seed": 5},
        "train": {"learning_rate": 0.15, "epochs": 3, "batch_size": 16},
        "warmup": {"learning_rate": 0.25, "epochs": 6, "batch_size": 16},
        "warmup_examples": 400,
        "strategies": ["none", "rgd-mean"],
        "run_seeds": [7],
        "orders": [0, 1],
        "replay": {"budget": 8},
        "output_dir": "unused",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli.main(["run-seq", "--config", str(cfg_path), "--out", str(out_b)]) == 0

    compared = []
    for rel in ("report.csv", "report_raw.json", "config.json",
                "runs/none-o0-s7/matrix.csv", "runs/none-o1-s7/matrix.csv",
                "runs/rgd-mean-o0-s7/matrix.csv", "runs/rgd-mean-o1-s7/matrix.csv",
                "runs/rgd-mean-o0-s7/plans.jsonl", "runs/rgd-mean-o1-s7/plans.jsonl",
                "runs/rgd-mean-o0-s7/summaries.jsonl",
                "runs/rgd-mean-o0-s7/checkpoints/stage-03.json"):
        same = filecmp.cmp(out_a / rel, out_b / rel, shallow=False)
        compared.append(same)
        assert same, f"{rel} differs between identical executions"
    check(all(compared),
          f"criterion 10: {len(compared)} artifacts byte-identical across two runs")


def test_criterion_11_pipeline_budget(harness5, harness8):
    # everything from suite generation through the comparison report
    start = time.time()
    records = fileio.experiment_table_records(harness5.result)
    table = fileio.emit_report(records, None, None)
    assert "CL," in table and "EA," in table
    total = harness5.elapsed + harness8.elapsed + (time.time() - start)
    check(total < 900.0,
          f"criterion 11: acceptance pipeline (suite gen through report) "
          f"{total:.0f}s < 900s")


def test_multitask_upper_bound(harness5):
    # the multi-task model outscores the no-replay sequential FAP
    multi = np.mean([np.mean(list(scores.values()))
                     for scores in harness5.result.multis.values()])
    cl_fap = mean_over_runs(harness5, "none", "fap")
    check(multi >= cl_fap,
          f"support: multi-task mean {multi:.2f} >= no-replay FAP {cl_fap:.2f}")
