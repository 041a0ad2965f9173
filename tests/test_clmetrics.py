"""Tests for task scoring and the continual-learning metric suite."""

import numpy as np
import pytest

from rgdlab.clmetrics import (
    PerfMatrix,
    answer_accuracy,
    bwt,
    cap,
    compute_report,
    fap,
    forgetting_rate,
    fwt,
    per_task_forgetting,
)
from rgdlab.errors import InputError, MetricUndefinedError


@pytest.fixture
def shared():
    """Three-task reference matrix used across the formula tests."""
    return PerfMatrix(
        order=("A", "B", "C"),
        rows=((80.0,), (70.0, 90.0), (60.0, 85.0, 88.0)),
        a0=(75.0, 88.0, 85.0),
    )


def random_matrix(rng):
    t = int(rng.integers(1, 9))
    rows = tuple(tuple(float(v) for v in rng.uniform(0, 100, size=i + 1))
                 for i in range(t))
    a0 = tuple(float(v) for v in rng.uniform(0, 100, size=t))
    return PerfMatrix(order=tuple(f"t{i}" for i in range(t)), rows=rows, a0=a0)


class TestAnswerAccuracy:
    def test_marker_parse(self):
        pred = "the key word fits in this row . [RESULT] yes".split()
        assert answer_accuracy([pred], ["yes"]) == 100.0

    def test_missing_marker_is_wrong(self):
        assert answer_accuracy([["yes"]], ["yes"]) == 0.0

    def test_case_insensitive_trimmed(self):
        assert answer_accuracy([["[RESULT]", "Yes"]], ["yes "]) == 100.0

    def test_last_marker_wins(self):
        pred = ["[RESULT]", "no", "then", "[RESULT]", "yes"]
        assert answer_accuracy([pred], ["yes"]) == 100.0

    def test_multi_token_answer(self):
        assert answer_accuracy([["[RESULT]", "not", "sure"]], ["not sure"]) == 100.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            answer_accuracy([["a"]], ["a", "b"])

    def test_percentage(self):
        preds = [["[RESULT]", "yes"], ["[RESULT]", "no"], ["[RESULT]", "no"], ["nope"]]
        assert answer_accuracy(preds, ["yes", "yes", "no", "no"]) == 50.0


class TestMetricFormulas:
    def test_fap(self, shared):
        assert fap(shared) == pytest.approx((60 + 85 + 88) / 3, abs=1e-12)

    def test_fap_degenerate(self):
        m = PerfMatrix(order=("A",), rows=((42.0,),), a0=(40.0,))
        assert fap(m) == 42.0
        assert cap(m) == 42.0
        assert fwt(m) == pytest.approx(2.0)

    def test_constant_matrix(self):
        m = PerfMatrix(order=("A", "B"), rows=((70.0,), (70.0, 70.0)), a0=(70.0, 70.0))
        assert fap(m) == cap(m) == 70.0
        assert bwt(m) == 0.0
        assert forgetting_rate(m) == 0.0
        assert fwt(m) == 0.0

    def test_forgetting_rate(self, shared):
        assert forgetting_rate(shared) == pytest.approx(12.5, abs=1e-12)

    def test_forgetting_rate_two_tasks(self):
        m = PerfMatrix(order=("A", "B"), rows=((90.0,), (70.0, 80.0)), a0=(90.0, 80.0))
        assert forgetting_rate(m) == pytest.approx(20.0)

    def test_forgetting_nonnegative_when_peak_at_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = random_matrix(rng)
            if m.num_tasks < 2:
                continue
            assert forgetting_rate(m) >= min(0.0, -bwt(m)) - 1e-12

    def test_bwt(self, shared):
        assert bwt(shared) == pytest.approx(-12.5, abs=1e-12)

    def test_bwt_positive_on_improvement(self):
        m = PerfMatrix(order=("A", "B"), rows=((50.0,), (80.0, 70.0)), a0=(50.0, 60.0))
        assert bwt(m) == pytest.approx(30.0)

    def test_fwt(self, shared):
        assert fwt(shared) == pytest.approx(10 / 3, abs=1e-12)

    def test_fwt_zero_when_a0_matches_diagonal(self, shared):
        m = PerfMatrix(order=shared.order, rows=shared.rows, a0=(80.0, 90.0, 88.0))
        assert fwt(m) == 0.0

    def test_cap(self, shared):
        assert cap(shared) == pytest.approx(86.0, abs=1e-12)

    def test_undefined_below_two_tasks(self):
        m = PerfMatrix(order=("A",), rows=((50.0,),), a0=(50.0,))
        with pytest.raises(MetricUndefinedError):
            bwt(m)
        with pytest.raises(MetricUndefinedError):
            forgetting_rate(m)


class TestPerfMatrix:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            PerfMatrix(order=("A", "B"), rows=((50.0,),), a0=(50.0, 50.0))
        with pytest.raises(InputError):
            PerfMatrix(order=("A", "B"), rows=((50.0,), (50.0,)), a0=(50.0, 50.0))

    def test_range_validation(self):
        with pytest.raises(InputError):
            PerfMatrix(order=("A",), rows=((150.0,),), a0=(50.0,))
        with pytest.raises(InputError):
            PerfMatrix(order=("A",), rows=((50.0,),), a0=(float("nan"),))


class TestReport:
    def test_shared_matrix_report(self, shared):
        report = compute_report(shared)
        assert report.fap == pytest.approx(77.6666666667, abs=1e-6)
        assert report.f_ra == pytest.approx(12.5)
        assert report.bwt == pytest.approx(-12.5)
        assert report.fwt == pytest.approx(10 / 3)
        assert report.cap == pytest.approx(86.0)
        assert report.per_task_forgetting == {"A": 20.0, "B": 5.0}

    def test_identity_on_random_matrices(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            m = random_matrix(rng)
            if m.num_tasks < 2:
                continue
            report = compute_report(m)
            t = m.num_tasks
            assert report.fap == pytest.approx(
                report.cap + (t - 1) / t * report.bwt, abs=1e-9)
            checked += 1

    def test_relabeling_tasks_preserves_metrics(self, shared):
        # renaming task ids (the labels travel with the columns) changes the
        # forgetting map's keys and nothing else
        renamed = PerfMatrix(order=tuple(f"renamed-{t}" for t in shared.order),
                             rows=shared.rows, a0=shared.a0)
        base = compute_report(shared)
        other = compute_report(renamed)
        assert (other.fap, other.f_ra, other.bwt, other.fwt, other.cap) == (
            base.fap, base.f_ra, base.bwt, base.fwt, base.cap)
        assert other.per_task_forgetting == {
            f"renamed-{t}": v for t, v in base.per_task_forgetting.items()}

    def test_per_task_forgetting_uses_peak(self):
        m = PerfMatrix(order=("A", "B", "C"),
                       rows=((60.0,), (90.0, 80.0), (40.0, 70.0, 90.0)),
                       a0=(50.0, 50.0, 50.0))
        # task A peaked at stage 2 (90), not its own stage (60)
        assert per_task_forgetting(m)["A"] == pytest.approx(50.0)
