"""Confusion counts and the five segmentation metrics, with aggregation.

Per-image metrics are macro-averaged (unweighted per-image mean with
population std), mirroring a mean +/- std presentation.  Precision is
included as an optional sixth column.

Zero-denominator rule, applied uniformly: a metric whose denominator is
zero has no error pixels of the kinds it penalizes, so it reports 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError

METRIC_NAMES = ("acc", "sn", "sp", "j", "d")
# A probability (or ground-truth value) at or above this is foreground.
THRESHOLD = 0.5


@dataclass
class Confusion:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    per_image: dict  # id -> dict of metric -> value
    aggregate: dict  # metric -> (mean, std)
    folds: list | None  # list of (fold ids, aggregate dict)
    columns: tuple


def confusion(pred, gt):
    """Per-image confusion counts for N x 1 x H x W probability maps."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"pred {pred.shape} and gt {gt.shape} differ")
    binary = pred >= THRESHOLD
    truth = gt >= THRESHOLD
    out = []
    for p, g in zip(binary, truth):
        tp = int(np.count_nonzero(p & g))
        tn = int(np.count_nonzero(~p & ~g))
        fp = int(np.count_nonzero(p & ~g))
        fn = int(np.count_nonzero(~p & g))
        out.append(Confusion(tp=tp, tn=tn, fp=fp, fn=fn))
    return out


def _ratio(num, den):
    return num / den if den > 0 else 1.0


def metrics_from(c: Confusion, include_precision=False):
    values = {
        "acc": _ratio(c.tp + c.tn, c.total),
        "sn": _ratio(c.tp, c.tp + c.fn),
        "sp": _ratio(c.tn, c.tn + c.fp),
        "j": _ratio(c.tp, c.tp + c.fp + c.fn),
        "d": _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn),
    }
    if include_precision:
        values["pr"] = _ratio(c.tp, c.tp + c.fp)
    return values


def _aggregate_rows(rows, columns):
    agg = {}
    for name in columns:
        vals = np.array([row[name] for row in rows], dtype=np.float64)
        agg[name] = (float(vals.mean()), float(vals.std()))  # population std
    return agg


def aggregate(per_image, folds=None) -> MetricsReport:
    """Mean and population std over per-image metric dicts (id -> values);
    the ``pr`` column is added when the rows carry precision."""
    if not per_image:
        raise UsageError("aggregate over an empty report set")
    columns = METRIC_NAMES + (("pr",) if "pr" in next(iter(per_image.values())) else ())
    agg = _aggregate_rows(list(per_image.values()), columns)
    fold_aggs = None
    if folds is not None:
        fold_aggs = []
        for fold_ids in folds:
            rows = [per_image[i] for i in fold_ids if i in per_image]
            if not rows:
                raise UsageError("fold contains no evaluated ids")
            fold_aggs.append((list(fold_ids), _aggregate_rows(rows, columns)))
    return MetricsReport(
        per_image=dict(per_image),
        aggregate=agg,
        folds=fold_aggs,
        columns=columns,
    )


def evaluate(pred_by_id, gt_by_id, folds=None, include_precision=False):
    """Confusion + metrics for matching id -> map dicts, then aggregate."""
    per_image = {}
    for sid, pred in pred_by_id.items():
        c = confusion(pred[None], gt_by_id[sid][None])[0]
        per_image[sid] = metrics_from(c, include_precision)
    return aggregate(per_image, folds=folds)


# ---------------------------------------------------------------------------
# report emission


def to_text(report: MetricsReport) -> str:
    cols = report.columns
    width = max([len(i) for i in report.per_image] + [9])

    def line(label, values):
        return label.ljust(width) + "".join(f"  {v:8.4f}" for v in values) + "\n"

    header = "id".ljust(width) + "".join(f"  {c:>8}" for c in cols)
    rule = "-" * len(header) + "\n"
    lines = [header + "\n", rule]
    lines += [line(sid, [row[c] for c in cols]) for sid, row in report.per_image.items()]
    lines.append(rule)
    lines += [line(label, [report.aggregate[c][k] for c in cols])
              for k, label in enumerate(("mean", "std"))]
    lines += [line(f"fold{i + 1}", [agg[c][0] for c in cols])
              for i, (_ids, agg) in enumerate(report.folds or ())]
    return "".join(lines)


def to_csv(report: MetricsReport) -> str:
    cols = report.columns
    lines = ["id," + ",".join(cols)]
    for sid, row in report.per_image.items():
        lines.append(sid + "," + ",".join(f"{row[c]:.6f}" for c in cols))
    return "\n".join(lines) + "\n"
