import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_scored,
    oracle_auc,
    oracle_balanced_accuracy,
    oracle_f1,
    oracle_max_f1,
    random_instance,
)
from mmfuse.evaluation import (
    MetricError,
    auc_roc,
    evaluate,
    results_table,
    write_curve_csv,
)


class TestScoredExample:
    def test_score_range_enforced(self):
        for metric in (evaluate, auc_roc):
            with pytest.raises(ValueError):
                metric(make_scored([1.5, 0.2], [True, False]))
            with pytest.raises(ValueError):
                metric(make_scored([0.3, -0.1], [True, False]))


class TestAuc:
    def test_perfect_separation(self):
        scored = make_scored([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
        assert auc_roc(scored) == 1.0

    def test_hand_case(self):
        scored = make_scored([0.6, 0.7, 0.2], [1, 0, 0])
        assert auc_roc(scored) == pytest.approx(0.5, abs=1e-12)

    def test_ties_count_half(self):
        scored = make_scored([0.5, 0.5], [1, 0])
        assert auc_roc(scored) == pytest.approx(0.5, abs=1e-12)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(42)
        scores = rng.random(10_000)
        labels = np.arange(10_000) < 5_000
        assert auc_roc(make_scored(scores, labels)) == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc_roc(make_scored([0.1, 0.9], [1, 1]))

    def test_class_swap_symmetry(self, rng):
        scores, labels = random_instance(rng, 60)
        direct = auc_roc(make_scored(scores, labels))
        swapped = auc_roc(make_scored(1.0 - scores, ~labels))
        assert swapped == pytest.approx(direct, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng)
        direct = auc_roc(make_scored(scores, labels))
        squashed = auc_roc(make_scored(1.0 / (1.0 + np.exp(-(scores * 4 - 2))), labels))
        assert squashed == pytest.approx(direct, abs=1e-12)


class TestFScores:
    def test_perfect_classifier(self):
        report = evaluate(make_scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]))
        assert report.f1_at_half == 1.0
        assert report.max_f1 == 1.0

    def test_hand_case_best_is_accept_all(self):
        report = evaluate(make_scored([0.9, 0.2, 0.8], [1, 1, 0]))
        assert report.max_f1 == pytest.approx(0.8, abs=1e-12)
        assert report.max_f1_threshold == pytest.approx(0.2, abs=1e-12)

    def test_random_scores_max_f1_two_thirds(self):
        rng = np.random.default_rng(7)
        scores = rng.random(10_000)
        labels = np.arange(10_000) < 5_000
        max_f1 = evaluate(make_scored(scores, labels)).max_f1
        assert max_f1 == pytest.approx(2.0 / 3.0, abs=0.005)

    def test_max_f1_at_least_f1_at_half(self, rng):
        for _ in range(50):
            scores, labels = random_instance(rng)
            report = evaluate(make_scored(scores, labels))
            assert report.max_f1 >= report.f1_at_half - 1e-12

    def test_no_positives_rejected(self):
        with pytest.raises(MetricError):
            evaluate(make_scored([0.4, 0.6], [0, 0]))


class TestBalancedAccuracy:
    def test_perfect_classifier(self):
        scored = make_scored([0.9, 0.1], [1, 0])
        assert evaluate(scored).balanced_accuracy == 1.0

    def test_all_predicted_hate_is_half(self):
        scored = make_scored([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0])
        assert evaluate(scored).balanced_accuracy == pytest.approx(0.5, abs=1e-12)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(11)
        scores = rng.random(10_000)
        labels = np.arange(10_000) < 5_000
        acc = evaluate(make_scored(scores, labels)).balanced_accuracy
        assert 100.0 * acc == pytest.approx(50.0, abs=1.0)


class TestOracleEquivalence:
    def test_two_hundred_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            scores, labels = random_instance(rng)
            scored = make_scored(scores, labels)
            assert auc_roc(scored) == pytest.approx(oracle_auc(scores, labels), abs=1e-12)
            report = evaluate(scored)
            assert report.f1_at_half == pytest.approx(oracle_f1(scores, labels, 0.5), abs=1e-12)
            assert report.max_f1 == pytest.approx(oracle_max_f1(scores, labels), abs=1e-12)
            assert report.balanced_accuracy == pytest.approx(
                oracle_balanced_accuracy(scores, labels), abs=1e-12
            )

    def test_tied_scores_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(6, 40))
            scores = rng.integers(0, 4, n) / 4.0  # heavy ties
            labels = rng.integers(0, 2, n).astype(bool)
            labels[0], labels[1] = True, False
            scored = make_scored(scores, labels)
            assert auc_roc(scored) == pytest.approx(oracle_auc(scores, labels), abs=1e-12)
            assert evaluate(scored).max_f1 == pytest.approx(oracle_max_f1(scores, labels), abs=1e-12)


class TestCurves:
    def test_roc_endpoints(self, rng):
        scores, labels = random_instance(rng, 40)
        roc = evaluate(make_scored(scores, labels)).roc_points
        assert roc[0][1:] == (0.0, 0.0)
        assert roc[-1][1:] == (1.0, 1.0)

    def test_perfect_classifier_passes_corner(self):
        scored = make_scored([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        roc = evaluate(scored).roc_points
        assert any(fpr == 0.0 and tpr == 1.0 for _, fpr, tpr in roc)

    def test_trapezoid_area_equals_auc(self, rng):
        for _ in range(100):
            scores, labels = random_instance(rng)
            scored = make_scored(scores, labels)
            roc = evaluate(scored).roc_points
            fpr = np.array([p[1] for p in roc])
            tpr = np.array([p[2] for p in roc])
            area = float(np.trapezoid(tpr, fpr))
            assert area == pytest.approx(auc_roc(scored), abs=1e-12)

    def test_pr_precision_one_at_zero_predicted(self, rng):
        scores, labels = random_instance(rng, 20)
        pr = evaluate(make_scored(scores, labels)).pr_points
        assert pr[0][1:] == (0.0, 1.0)

    def test_curve_csv_header(self, tmp_path, rng):
        scores, labels = random_instance(rng, 10)
        pr = evaluate(make_scored(scores, labels)).pr_points
        path = tmp_path / "pr.csv"
        write_curve_csv(pr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,x,y"
        assert len(lines) == len(pr) + 1

    def test_curve_csv_bytes_are_csv_writers(self, tmp_path, rng):
        scores, labels = random_instance(rng, 30)
        points = evaluate(make_scored(scores, labels)).roc_points + [
            (float("inf"), -0.0, 5e-324),
            (1e300, 2.2250738585072014e-308, -1e300),
            (0.1, 1 / 3, 0.0),
        ]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["threshold", "x", "y"])
        for row in points:
            writer.writerow([repr(value) for value in row])
        write_curve_csv(points, tmp_path / "curve.csv")
        assert (tmp_path / "curve.csv").read_bytes() == buf.getvalue().encode()


class TestEvaluateAndTable:
    def test_evaluate_bundles_everything(self, rng):
        scores, labels = random_instance(rng, 50)
        report = evaluate(make_scored(scores, labels))
        assert 0.0 <= report.balanced_accuracy <= 1.0
        assert report.max_f1 >= report.f1_at_half
        assert len(report.roc_points) >= 2

    RANDOM_ROW = ("Random", "-", 0.666, 0.499, 0.502)

    def test_table_random_row_rendering(self):
        csv_text, aligned = results_table([self.RANDOM_ROW])
        assert csv_text.splitlines()[0] == "Model,Inputs,F,AUC,ACC"
        assert csv_text.splitlines()[1] == "Random,-,0.666,0.499,50.2"
        assert "Random" in aligned and "50.2" in aligned

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            results_table([])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            results_table([("", *self.RANDOM_ROW[1:])])
