import warnings

import numpy as np
import pytest

from crossemo.corpus import CorpusManifest
from crossemo.errors import ClassSetMismatch, EmptyMatrix, UnknownLabel
from crossemo.evaluation import (
    ConfusionMatrix,
    aggregate_folds,
    confusion_from_predictions,
    evaluate_model,
    metric_set,
    one_vs_rest,
    predictions_to_csv,
)
from conftest import make_record


def brute_force_metrics(pairs, classes):
    """Independent recount straight from raw pairs (the oracle)."""
    n = len(classes)
    idx = {c: i for i, c in enumerate(classes)}
    ua_terms, wa_terms, recalls = [], [], []
    total = len(pairs)
    for c in classes:
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        tn = total - tp - fn - fp
        ua_terms.append((tp + tn) / total)
        if tp + fn > 0 and tn + fp > 0:
            wa_terms.append(0.5 * (tp / (tp + fn) + tn / (tn + fp)))
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
    ua = 100 * (ua_terms[0] if n == 2 else float(np.mean(ua_terms)))
    wa = 100 * (wa_terms[0] if n == 2 else float(np.mean(wa_terms)))
    recall = 100 * float(np.mean(recalls))
    overall = 100 * sum(1 for t, p in pairs if t == p) / total
    return ua, wa, recall, overall


BINARY = ConfusionMatrix(("pos", "neg"), np.array([[3, 1], [2, 4]]))


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        pairs = [("a", "a"), ("b", "b"), ("a", "a")]
        cm = confusion_from_predictions(pairs, ("a", "b"))
        assert np.array_equal(cm.counts, [[2, 0], [0, 1]])

    def test_single_off_diagonal(self):
        cm = confusion_from_predictions([("happy", "sad")], ("happy", "sad"))
        assert cm.counts[0, 1] == 1 and cm.total == 1

    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        classes = ("a", "b", "c")
        pairs = [(classes[rng.integers(3)], classes[rng.integers(3)]) for _ in range(200)]
        cm = confusion_from_predictions(pairs, classes)
        for i, c in enumerate(classes):
            assert cm.counts[i].sum() == sum(1 for t, _ in pairs if t == c)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            confusion_from_predictions([("x", "a")], ("a", "b"))


class TestBinaryReduce:
    def test_definition(self):
        assert [int(a[0]) for a in one_vs_rest(BINARY)] == [3, 4, 2, 1]

    def test_symmetric_swap(self):
        assert [int(a[1]) for a in one_vs_rest(BINARY)] == [4, 3, 1, 2]

    def test_components_sum_to_total(self):
        cm = confusion_from_predictions(
            [("a", "b"), ("b", "c"), ("c", "c"), ("a", "a")], ("a", "b", "c")
        )
        assert np.array_equal(sum(one_vs_rest(cm)), [cm.total] * 3)


class TestMetricFormulas:
    def test_binary_ua_70(self):
        assert metric_set(BINARY).ua_eq1 == pytest.approx(70.0)

    def test_binary_wa_7083(self):
        assert metric_set(BINARY).wa_eq2 == pytest.approx(70.833, abs=0.01)

    def test_perfect_predictions_100(self):
        cm = ConfusionMatrix(("a", "b", "c", "d"), np.diag([5, 6, 7, 8]))
        m = metric_set(cm)
        assert m.ua_eq1 == 100.0
        assert m.wa_eq2 == 100.0
        assert m.mean_class_recall == 100.0
        assert m.overall_accuracy == 100.0

    def test_conventional_balanced_case(self):
        m = metric_set(ConfusionMatrix(("a", "b"), np.array([[8, 2], [4, 6]])))
        assert m.mean_class_recall == pytest.approx(70.0)
        assert m.overall_accuracy == pytest.approx(70.0)

    def test_conventional_imbalanced_case(self):
        m = metric_set(ConfusionMatrix(("a", "b"), np.array([[90, 10], [5, 5]])))
        assert m.mean_class_recall == pytest.approx(70.0)
        assert m.overall_accuracy == pytest.approx(100 * 95 / 110, abs=0.01)

    def test_binary_balanced_ua_equals_overall(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(1, 30, size=2)
            # balanced truth: equal row sums
            cm = ConfusionMatrix(
                ("x", "y"), np.array([[a[0], 50 - a[0]], [a[1], 50 - a[1]]])
            )
            m = metric_set(cm)
            assert m.ua_eq1 == pytest.approx(m.overall_accuracy, abs=1e-12)

    def test_oracle_recomputation_random(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            n_classes = int(rng.integers(2, 5))
            classes = tuple(f"c{i}" for i in range(n_classes))
            n = int(rng.integers(10, 200))
            pairs = [
                (classes[rng.integers(n_classes)], classes[rng.integers(n_classes)])
                for _ in range(n)
            ]
            if len({t for t, _ in pairs}) < n_classes:
                continue  # avoid degenerate-class warnings here
            cm = confusion_from_predictions(pairs, classes)
            m = metric_set(cm)
            ua, wa, recall, overall = brute_force_metrics(pairs, classes)
            assert m.ua_eq1 == pytest.approx(ua, abs=1e-9)
            assert m.wa_eq2 == pytest.approx(wa, abs=1e-9)
            assert m.mean_class_recall == pytest.approx(recall, abs=1e-9)
            assert m.overall_accuracy == pytest.approx(overall, abs=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        classes = ("a", "b", "c")
        pairs = [(classes[rng.integers(3)], classes[rng.integers(3)]) for _ in range(300)]
        cm = confusion_from_predictions(pairs, classes)
        base = metric_set(cm)
        mapping = {"a": "z1", "b": "z2", "c": "z0"}
        permuted_pairs = [(mapping[t], mapping[p]) for t, p in pairs]
        permuted = metric_set(
            confusion_from_predictions(permuted_pairs, ("z0", "z1", "z2"))
        )
        for key in ("ua_eq1", "wa_eq2", "mean_class_recall", "overall_accuracy"):
            assert getattr(base, key) == pytest.approx(getattr(permuted, key), abs=1e-12)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            metric_set(ConfusionMatrix(("a", "b"), np.zeros((2, 2), dtype=int)))

    def test_binary_is_the_first_class_value_exactly(self):
        # both one-vs-rest reductions of a 2x2 matrix are the same numbers
        # swapped, so the macro-average is the first class's value, bit for bit
        def first_class(counts):
            (tp, fn), (fp, tn) = counts.tolist()
            if tp + fn == 0 or tn + fp == 0:
                return None  # no counts, or one class never true: EmptyMatrix
            return (100.0 * ((tp + tn) / (tp + tn + fp + fn)),
                    100.0 * (0.5 * (tp / (tp + fn) + tn / (tn + fp))))

        mismatches = []
        for cells in np.ndindex(7, 7, 7, 7):
            counts = np.array(cells).reshape(2, 2)
            expected = first_class(counts)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    m = metric_set(ConfusionMatrix(("a", "b"), counts))
                    got = (m.ua_eq1, m.wa_eq2)
                except EmptyMatrix:
                    got = None
            if got != expected:
                mismatches.append((cells, got, expected))
        assert mismatches == []

    def test_degenerate_class_warns_and_skips(self):
        cm = ConfusionMatrix(("a", "b", "c"), np.array([[5, 1, 0], [2, 4, 0], [0, 0, 0]]))
        with pytest.warns(UserWarning, match="'c' degenerate in wa_eq2"):
            with pytest.warns(UserWarning, match="'c' has no true instances"):
                value = metric_set(cm).wa_eq2
        assert 0 <= value <= 100


class TestAggregateFolds:
    def test_hand_arithmetic(self):
        mean, std = aggregate_folds([76, 78, 77, 75, 76])
        assert mean == pytest.approx(76.4)
        assert std == pytest.approx(1.0198, abs=1e-3)

    def test_single_fold_omits_std(self):
        mean, std = aggregate_folds([80.0])
        assert mean == 80.0 and std is None

    def test_constant_values_zero_std(self):
        assert aggregate_folds([5, 5, 5]) == (5.0, 0.0)


class HandBuiltModel:
    """Eval-only stand-in: logits = feature mean * weights + bias."""

    def __init__(self, weights, bias=None):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = np.zeros_like(self.weights) if bias is None else np.asarray(bias, dtype=float)
        self.mode = "eval"

    def set_mode(self, mode):
        self.mode = mode

    def forward(self, feats, dropout_rng=None):
        from crossemo.nn.tensor import Tensor

        pooled = feats.mean(axis=(1, 2))
        return Tensor(pooled[:, None] * self.weights[None, :] + self.bias[None, :])


class ArrayStore:
    def __init__(self, table):
        self.table = table

    def batch(self, ids):
        return np.stack([self.table[u] for u in ids]).astype(np.float32)


def two_class_setup():
    records, table = [], {}
    for i in range(10):
        emotion = "angry" if i % 2 == 0 else "happy"
        rec = make_record(i, emotion=emotion)
        records.append(rec)
        value = -0.5 if emotion == "angry" else 0.5
        table[rec.id] = np.full((4, 3), value, dtype=np.float32)
    return CorpusManifest("sep", tuple(records)), ArrayStore(table)


class TestEvaluateModel:
    def test_separable_hand_built_model_scores_100(self):
        manifest, store = two_class_setup()
        model = HandBuiltModel([-1.0, 1.0])
        result = evaluate_model(model, ("angry", "happy"), manifest, store)
        assert result.metrics.ua_eq1 == 100.0
        assert result.metrics.mean_class_recall == 100.0

    def test_deterministic(self):
        manifest, store = two_class_setup()
        model = HandBuiltModel([-1.0, 1.0])
        a = evaluate_model(model, ("angry", "happy"), manifest, store)
        b = evaluate_model(model, ("angry", "happy"), manifest, store)
        assert [p.predicted for p in a.predictions] == [p.predicted for p in b.predictions]

    def test_absent_class_predictions_count_as_errors(self):
        # model always predicts the class missing from the test set
        manifest, store = two_class_setup()
        model = HandBuiltModel([0.0, 0.0, 0.0], bias=[0.0, 0.0, 10.0])  # always neutral
        with pytest.warns(UserWarning, match="'neutral' degenerate in wa_eq2"):
            with pytest.warns(UserWarning, match="'neutral' has no true instances"):
                result = evaluate_model(model, ("angry", "happy", "neutral"), manifest, store)
        assert result.metrics.overall_accuracy == 0.0
        tp, tn, fp, fn = one_vs_rest(result.confusion)
        assert fp[2] == 10 and tp[2] == 0

    def test_restrict_classes_reargmaxes(self):
        manifest, store = two_class_setup()
        model = HandBuiltModel([-1.0, 1.0, 0.0], bias=[0.0, 0.0, 10.0])
        with pytest.warns(UserWarning, match="'neutral' degenerate in wa_eq2"):
            with pytest.warns(UserWarning, match="'neutral' has no true instances"):
                unrestricted = evaluate_model(
                    model, ("angry", "happy", "neutral"), manifest, store)
        assert unrestricted.metrics.overall_accuracy == 0.0
        restricted = evaluate_model(
            model, ("angry", "happy", "neutral"), manifest, store, restrict_classes=True
        )
        assert restricted.restricted
        assert restricted.metrics.overall_accuracy == 100.0
        assert restricted.confusion.classes == ("angry", "happy")

    def test_class_set_mismatch(self):
        manifest, store = two_class_setup()
        model = HandBuiltModel([1.0])
        with pytest.raises(ClassSetMismatch):
            evaluate_model(model, ("sad",), manifest, store)

    def test_predictions_csv(self):
        manifest, store = two_class_setup()
        model = HandBuiltModel([-1.0, 1.0])
        result = evaluate_model(model, ("angry", "happy"), manifest, store)
        csv = predictions_to_csv(result)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("utt_id,true,predicted,score_")
        assert len(lines) == 11
