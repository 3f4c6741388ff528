"""Every metric the benchmark reports: name, unit, and what it should move.

``END_TO_END`` holds the user-facing figures of each workload, measured with
tracing off.  Names ending in ``_norm`` are in probe units: the CPU time
of the work divided by the CPU time of the speed probe of ``probe.py`` run
next to it (see that file).  ``setup_s`` is CPU seconds scaled the same way
to a machine on which the probe takes ``probe.PROBE_REFERENCE_S``; the other
times are wall seconds.  ``SLOTS`` maps them onto the four names every workload prints
on its last line (the names in BENCHMARK.json's ``end_to_end``), because the
result line must carry the same metric names for every workload.

``PER_LAYER`` holds the traced figures.  Each entry records which end-to-end
metric it should move and on which workload.  Entries marked ``all`` are
measured on every workload and appear on the traced result line (BENCHMARK.json's
``per_layer``); the rest are measured on only some workloads, so they appear
in the report line and the saved report, not on the result line.
"""

WORKLOADS = ("step_64", "pipeline_32", "gradcheck_f64")

# name -> (unit, better, workloads it applies to, what it is)
END_TO_END = {
    "setup_s": ("s", "lower", WORKLOADS,
                "CPU seconds from process start until the first timed operation is ready, "
                "scaled by the probe (median of several processes)"),
    "train_step_p50_s": ("s", "lower", ("step_64",), "median train step"),
    "train_step_tail_s": ("s", "lower", ("step_64",),
                          "highest percentile of train steps with >= 10 samples beyond it"),
    "train_samples_per_s": ("1/s", "higher", ("step_64",), "training samples per second"),
    "eval_batch_p50_s": ("s", "lower", ("step_64",), "median eval-mode forward batch"),
    "train_step_norm": ("probe", "lower", ("step_64",),
                        "median over train steps of step CPU / probe CPU"),
    "eval_batch_norm": ("probe", "lower", ("step_64",),
                        "median over eval batches of batch CPU / probe CPU"),
    "peak_rss_mb": ("MiB", "lower", WORKLOADS,
                    "peak resident memory of the workload process (pipeline_32: largest child)"),
    "pipeline_wall_s": ("s", "lower", ("pipeline_32",), "synth + train + eval + predict"),
    "cli_eval_images_per_s": ("1/s", "higher", ("pipeline_32",),
                              "images per second of the eval command"),
    "predict_latency_s": ("s", "lower", ("pipeline_32",),
                          "one predict command, process start and checkpoint load included"),
    "pipeline_norm": ("probe", "lower", ("pipeline_32",),
                      "synth + train + eval + predict, in probe units"),
    "predict_norm": ("probe", "lower", ("pipeline_32",),
                     "median over predict commands, in probe units"),
    "gradcheck_wall_s": ("s", "lower", ("gradcheck_f64",), "all five gradcheck suites"),
    "gradcheck_norm": ("probe", "lower", ("gradcheck_f64",),
                       "all five gradcheck suites, in probe units"),
    "failed_share": ("ratio", "lower", WORKLOADS, "failed operations / attempted operations"),
    # gradcheck_f64 has no inference call of its own; this fills its
    # forward_norm slot with the mean cost of one finite-difference evaluation.
    "gradcheck_forward_norm": ("probe", "lower", ("gradcheck_f64",),
                               "gradcheck_norm / forward evaluations"),
}

# Result-line name -> the END_TO_END metric it carries on each workload.
SLOTS = {
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "work_norm": {"step_64": "train_step_norm", "pipeline_32": "pipeline_norm",
                  "gradcheck_f64": "gradcheck_norm"},
    "forward_norm": {"step_64": "eval_batch_norm", "pipeline_32": "predict_norm",
                     "gradcheck_f64": "gradcheck_forward_norm"},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
}
SLOT_UNITS = {"setup_s": "s", "work_norm": "probe", "forward_norm": "probe", "peak_rss_mb": "MiB"}

TRAIN = "train_step_p50_s, train_samples_per_s"
_STEP = f"{TRAIN}, eval_batch_p50_s on step_64"


def _engine():
    moves = {
        "conv2d.dw3x3": _STEP,
        "conv2d.1x1": _STEP,
        "conv2d.3x3": f"{TRAIN} on step_64",
        "conv2d.pooled": "gradcheck_wall_s on gradcheck_f64",
        "bilinear_resize": _STEP,
        "dropout": f"{TRAIN} on step_64",
        "concat": _STEP,
        "norm": _STEP,
        "attention": "gradcheck_wall_s on gradcheck_f64",
        "elementwise": "gradcheck_wall_s on gradcheck_f64; " + _STEP,
    }
    out = {}
    for cls, what in moves.items():
        out[f"engine.{cls}.fwd_s"] = ("s", "all", what)
        out[f"engine.{cls}.bwd_s"] = ("s", "all", what)
        out[f"engine.{cls}.calls"] = ("count", "all", "explains gradcheck_wall_s on gradcheck_f64")
    for cls in ("dw3x3", "1x1", "3x3"):
        out[f"engine.conv2d.{cls}.gflop"] = (
            "GFLOP", "all", "computed from shapes (2*N*Cout*Ho*Wo*Cin/groups*kh*kw, forward); "
            "base for GFLOP/s, moves nothing by itself")
    out["engine.bilinear_resize.useful_share"] = ("ratio", "all", f"{TRAIN} on step_64")
    out["engine.bilinear_resize.same_size"] = ("count", "all", f"{TRAIN} on step_64")
    out["engine.backward.self_s"] = ("s", "all", "gradcheck_wall_s on gradcheck_f64")
    out["engine.backward.nodes"] = ("count", "all", "gradcheck_wall_s on gradcheck_f64")
    out["engine.graph_mb"] = ("MiB", "all", "peak_rss_mb on step_64")
    return out


def _blocks():
    out = {}
    for b in ("fmcab", "biffm", "vitm", "frm_up", "frm_fuse"):
        what = (f"{TRAIN} on step_64" if b.startswith("frm")
                else "gradcheck_wall_s on gradcheck_f64")
        out[f"blocks.{b}.fwd_s"] = ("s", "all", what)
        out[f"blocks.{b}.bwd_s"] = ("s", "all", what)
        out[f"blocks.{b}.calls"] = ("count", "all", what)
    return out


def _model():
    out = {"model.encoder.fwd_s": ("s", "all", f"{TRAIN} on step_64"),
           "model.encoder.bwd_s": ("s", "all", f"{TRAIN} on step_64")}
    for i in range(1, 5):
        out[f"model.dec{i}.fwd_s"] = ("s", "all", f"{TRAIN} on step_64")
        out[f"model.dec{i}.bwd_s"] = ("s", "all", f"{TRAIN} on step_64")
    out["model.head.fwd_s"] = ("s", "all", f"{TRAIN} on step_64")
    return out


_PIPE = "pipeline_wall_s on pipeline_32"

# name -> (unit, workloads measured on, what it should move)
PER_LAYER = {
    **_engine(),
    **_blocks(),
    **_model(),
    "train.loss.fwd_s": ("s", "step_64 pipeline_32", f"{TRAIN} on step_64"),
    "train.loss.bwd_s": ("s", "step_64 pipeline_32", f"{TRAIN} on step_64"),
    "train.backward_s": ("s", "all", f"{TRAIN} on step_64"),
    "train.adam_step_s": ("s", "step_64 pipeline_32", f"{TRAIN} on step_64 (predicted <= 1%)"),
    "train.validation_dice_s": ("s", "pipeline_32", _PIPE),
    "train.epoch_s": ("s", "pipeline_32", _PIPE),
    "train.save_checkpoint_s": ("s", "pipeline_32", _PIPE),
    "train.checkpoint_bytes": ("bytes", "pipeline_32", _PIPE),
    "train.load_checkpoint_s": ("s", "pipeline_32",
                                f"{_PIPE}, predict_latency_s on pipeline_32"),
    "data.generate_synthetic_s": ("s", "pipeline_32",
                                  f"{_PIPE}, setup_s on step_64"),
    "data.write_dataset_s": ("s", "pipeline_32", _PIPE),
    "data.dataset_bytes": ("bytes", "pipeline_32", _PIPE),
    "data.load_dataset_s": ("s", "pipeline_32", _PIPE),
    "metrics.evaluate_s": ("s", "pipeline_32", "cli_eval_images_per_s on pipeline_32"),
    "metrics.evaluate.images": ("count", "pipeline_32", "cli_eval_images_per_s on pipeline_32"),
    "cli.import_s": ("s", "pipeline_32",
                     "setup_s and predict_latency_s on pipeline_32"),
    "cli.synth_s": ("s", "pipeline_32", _PIPE),
    "cli.train_s": ("s", "pipeline_32", _PIPE),
    "cli.eval_s": ("s", "pipeline_32", f"{_PIPE}, cli_eval_images_per_s on pipeline_32"),
    "cli.predict_s": ("s", "pipeline_32", "predict_latency_s on pipeline_32"),
    **{f"gradcheck.{b}_s": ("s", "gradcheck_f64", "gradcheck_wall_s on gradcheck_f64")
       for b in ("fmcab", "biffm", "vitm", "frm", "model")},
    "gradcheck.forward_evals": ("count", "all", "gradcheck_wall_s on gradcheck_f64"),
    "trace.overhead_share": ("ratio", "all",
                             "none: traced unit time / untraced unit time - 1"),
    "trace.engine_share": ("ratio", "all",
                           "none: engine fwd + bwd + backward self time / traced unit time"),
}

RESULT_LINE_PER_LAYER = [n for n, (_u, where, _m) in PER_LAYER.items() if where == "all"]


def unit(name):
    if name in PER_LAYER:
        return PER_LAYER[name][0]
    if name in SLOT_UNITS:
        return SLOT_UNITS[name]
    return END_TO_END[name][0]


def better(name):
    """Direction of improvement of a per-layer metric."""
    return "higher" if name.endswith("useful_share") else "lower"
