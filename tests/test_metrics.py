import numpy as np
import pytest

from fmbff import metrics as mx
from fmbff.errors import DimensionError, UsageError


def brute_force(pred_mask, gt_mask):
    """Independent pixel-loop reimplementation of the five metrics."""
    tp = tn = fp = fn = 0
    for p, g in zip(pred_mask.ravel(), gt_mask.ravel()):
        if p and g:
            tp += 1
        elif p and not g:
            fp += 1
        elif not p and g:
            fn += 1
        else:
            tn += 1

    def ratio(n, d):
        return n / d if d else 1.0

    return {
        "acc": ratio(tp + tn, tp + tn + fp + fn),
        "sn": ratio(tp, tp + fn),
        "sp": ratio(tn, tn + fp),
        "j": ratio(tp, tp + fp + fn),
        "d": ratio(2 * tp, 2 * tp + fp + fn),
    }


class TestConfusion:
    def test_counts(self):
        pred = np.array([[[0.9, 0.1], [0.8, 0.2]]])
        gt = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        c = mx.confusion(pred[None], gt[None])[0]
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)

    def test_threshold_inclusive(self):
        pred = np.array([[[mx.THRESHOLD]]])
        gt = np.array([[[1.0]]])
        c = mx.confusion(pred[None], gt[None])[0]
        assert c.tp == 1

    def test_batched(self):
        pred = np.ones((3, 1, 2, 2))
        gt = np.ones((3, 1, 2, 2))
        out = mx.confusion(pred, gt)
        assert len(out) == 3 and all(c.tp == 4 for c in out)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mx.confusion(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)))


class TestMetricsFrom:
    def test_all_ones_confusion(self):
        # tp=tn=fp=fn=1: acc=sn=sp=d=1/2, jaccard=1/3
        vals = mx.metrics_from(mx.Confusion(tp=1, tn=1, fp=1, fn=1))
        assert vals["acc"] == 0.5
        assert vals["sn"] == 0.5
        assert vals["sp"] == 0.5
        assert vals["j"] == pytest.approx(1 / 3)
        assert vals["d"] == 0.5

    def test_perfect(self):
        vals = mx.metrics_from(mx.Confusion(tp=5, tn=11, fp=0, fn=0))
        assert all(v == 1.0 for v in vals.values())

    def test_zero_denominators(self):
        # all-background image predicted all-background: every foreground
        # denominator is zero and reads as vacuously perfect
        vals = mx.metrics_from(mx.Confusion(tp=0, tn=16, fp=0, fn=0))
        assert vals == {"acc": 1.0, "sn": 1.0, "sp": 1.0, "j": 1.0, "d": 1.0}

    def test_precision_optional(self):
        vals = mx.metrics_from(mx.Confusion(tp=3, tn=0, fp=1, fn=0), include_precision=True)
        assert vals["pr"] == 0.75
        assert "pr" not in mx.metrics_from(mx.Confusion(tp=3, tn=0, fp=1, fn=0))

    def test_dice_jaccard_identity(self):
        # D = 2J / (1 + J) whenever both denominators are nonzero
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, fn = rng.integers(1, 50, size=3)
            vals = mx.metrics_from(mx.Confusion(tp=int(tp), tn=0, fp=int(fp), fn=int(fn)))
            assert abs(vals["d"] - 2 * vals["j"] / (1 + vals["j"])) <= 1e-12

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            pred = rng.random((4, 4)) > rng.random()
            gt = rng.random((4, 4)) > rng.random()
            c = mx.confusion(pred.astype(float)[None, None], gt.astype(float)[None, None])[0]
            assert mx.metrics_from(c) == brute_force(pred, gt)


class TestAggregate:
    def test_single_image_zero_std(self):
        report = mx.aggregate({"a": {m: 0.7 for m in mx.METRIC_NAMES}})
        for m in mx.METRIC_NAMES:
            assert report.aggregate[m] == (0.7, 0.0)

    def test_two_image_example(self):
        rows = {
            "a": {"acc": 1, "sn": 1, "sp": 1, "j": 0.2, "d": 1},
            "b": {"acc": 1, "sn": 1, "sp": 1, "j": 0.4, "d": 1},
        }
        report = mx.aggregate(rows)
        mean, std = report.aggregate["j"]
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(0.1)  # population std

    def test_idempotent(self):
        rows = {"a": {m: 0.5 for m in mx.METRIC_NAMES}}
        r1 = mx.aggregate(rows)
        r2 = mx.aggregate(r1.per_image)
        assert r1.aggregate == r2.aggregate

    def test_empty_raises(self):
        with pytest.raises(UsageError):
            mx.aggregate({})

    def test_folds(self):
        rows = {f"s{i}": {m: i / 10 for m in mx.METRIC_NAMES} for i in range(4)}
        report = mx.aggregate(rows, folds=[["s0", "s1"], ["s2", "s3"]])
        assert len(report.folds) == 2
        assert report.folds[0][1]["d"][0] == pytest.approx(0.05)
        assert report.folds[1][1]["d"][0] == pytest.approx(0.25)

    def test_empty_fold_raises(self):
        rows = {"a": {m: 1.0 for m in mx.METRIC_NAMES}}
        with pytest.raises(UsageError):
            mx.aggregate(rows, folds=[["missing"]])


class TestReports:
    def _report(self, include_precision=False):
        pred = {"img1": np.ones((1, 2, 2)), "img2": np.zeros((1, 2, 2))}
        gt = {"img1": np.ones((1, 2, 2)), "img2": np.ones((1, 2, 2))}
        return mx.evaluate(pred, gt, include_precision=include_precision)

    def test_csv_header(self):
        text = mx.to_csv(self._report())
        assert text.splitlines()[0] == "id,acc,sn,sp,j,d"

    def test_csv_header_with_precision(self):
        text = mx.to_csv(self._report(include_precision=True))
        assert text.splitlines()[0] == "id,acc,sn,sp,j,d,pr"

    def test_csv_rows(self):
        lines = mx.to_csv(self._report()).strip().splitlines()
        assert lines[1].startswith("img1,1.000000")
        assert lines[2].startswith("img2,0.000000")

    def test_text_contains_mean_and_std(self):
        text = mx.to_text(self._report())
        assert "mean" in text and "std" in text

    def test_text_fold_lines(self):
        pred = {"a": np.ones((1, 2, 2)), "b": np.ones((1, 2, 2))}
        gt = {"a": np.ones((1, 2, 2)), "b": np.ones((1, 2, 2))}
        report = mx.evaluate(pred, gt, folds=[["a"], ["b"]])
        text = mx.to_text(report)
        assert "fold1" in text and "fold2" in text
