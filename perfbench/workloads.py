"""One benchmark workload in its own process.

    python3 perfbench/workloads.py --workload step_64 --seed 1 --seconds 30 \\
        --trace 0 [--setup-only] [--shape full]

Prints one JSON object on its last stdout line.  ``run.py`` launches this
with ``PYTHONPATH=src`` and single-threaded BLAS; it is not meant to be run
by hand.  Load is one client in a closed loop: each operation starts when
the previous one has finished.

Each timed operation is measured in wall seconds, for the report, and in
CPU seconds (user + system) of the process doing the work, divided by the
CPU seconds of the speed probe of ``probe.py`` run next to it in the same
process: the result line carries these probe units.  On a shared host the
wall time of the same code spreads with the load of other tenants (waiting
for a core or for the page cache), and its CPU time with their use of the
caches and memory bandwidth, by up to a factor of two over tens of seconds;
the probe slows down with the work and cancels most of that.  Probes run
outside every timed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from probe import PROBE_REFERENCE_S, Segments, in_units, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Model shapes: the ROADMAP reference config, and the criterion-7 tiny one
# used by the smoke test.
SHAPES = {
    "full": {"size": 64, "enc": (8, 16, 32, 64), "dec": (16, 8, 8, 8), "heads": 4, "groups": 4},
    "tiny": {"size": 16, "enc": (4, 4, 4, 4), "dec": (2, 2, 2, 2), "heads": 2, "groups": 2},
}
BATCH = 8
STEP_SAMPLES = 64
MIN_SAMPLES = 3

# pipeline_32 sizes; the tiny variant keeps every command but shrinks the data.
PIPELINES = {
    "full": {"n": 80, "size": 32, "epochs": 3, "folds": 5, "shape": None},
    "tiny": {"n": 10, "size": 16, "epochs": 1, "folds": 5, "shape": "tiny"},
}
# Output checks of the full pipeline, from seeds 0-23 at the commit that
# introduced the benchmark: best validation Dice ranged 0.316-0.723 (three
# epochs are too few for a tighter floor), while the last epoch's mean loss
# was 0.61-0.70 of the first epoch's.  The floor catches a model that stops
# predicting foreground; the loss ratio catches a model that stops learning.
DICE_FLOOR = {"full": 0.15, "tiny": 0.0}
LOSS_RATIO_CEILING = 0.8
# predict is timed this many times per pipeline (median reported): one
# 0.8 s command spreads too much from run to run on its own.
PREDICT_REPEATS = 9
COMMAND_TIMEOUT_S = 150


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("step_64", "pipeline_32", "gradcheck_f64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shape", choices=tuple(SHAPES), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    setup, run = WORKLOADS[args.workload]
    state = setup(args)
    # CPU seconds since the process was created (interpreter start, imports
    # and the workload's own set-up), scaled by the probe run right after it
    # to a machine on which the probe takes PROBE_REFERENCE_S.
    setup_cpu = time.process_time()
    setup_s = setup_cpu * PROBE_REFERENCE_S / probe()
    if args.setup_only:
        if "work" in state:
            shutil.rmtree(state["work"], ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return
    result = run(state, args)
    result["setup_s"] = setup_s
    result["environment"] = environment(args.seed)
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# step_64


def model_config(shape):
    from fmbff.model import ModelConfig

    s = SHAPES[shape]
    return ModelConfig(
        input_size=(s["size"], s["size"]), encoder_widths=s["enc"], decoder_widths=s["dec"],
        heads=s["heads"], shuffle_groups=s["groups"],
    )


def setup_step(args):
    import numpy as np

    from fmbff import data, engine, model, train

    params = model.build_model(model_config(args.shape))
    size = SHAPES[args.shape]["size"]
    samples = data.generate_synthetic(STEP_SAMPLES, size=(size, size), seed=args.seed)
    batches = [
        (np.stack([s.image for s in samples[k : k + BATCH]]),
         np.stack([s.mask for s in samples[k : k + BATCH]]))
        for k in range(0, STEP_SAMPLES, BATCH)
    ]
    state = train.TrainState(lr=1e-3, rng=np.random.default_rng(args.seed))
    return {"np": np, "engine": engine, "model": model, "train": train,
            "params": params, "batches": batches, "state": state}


def train_step(s, k):
    """One train step on batch k; returns the loss value."""
    engine, model, train = s["engine"], s["model"], s["train"]
    x, y = s["batches"][k % len(s["batches"])]
    trace = model.model_forward(engine.Tensor(x), s["params"], mode="train", rng=s["state"].rng)
    loss = train.loss(trace.f_out, y)
    value = loss.item()
    engine.backward(loss)
    train.adam_step(s["params"].store, s["state"], s["state"].lr)
    return value


def eval_batch(s, k):
    """One eval-mode forward batch; returns True when every probability is valid."""
    x, _ = s["batches"][k % len(s["batches"])]
    out = s["model"].model_forward(s["engine"].Tensor(x), s["params"], mode="eval").f_out.data
    return bool(s["np"].all((out > 0) & (out < 1)))


def _timed(fn, *args):
    """Returns (wall seconds, CPU seconds, fn's value)."""
    t, c = time.perf_counter(), time.process_time()
    value = fn(*args)
    return time.perf_counter() - t, time.process_time() - c, value


def run_step(s, args):
    train_step(s, 0)  # warm-up: first-touch allocation and lazy imports
    eval_batch(s, 0)
    probe()
    if args.trace:
        return trace_step(s, args)
    # Train steps and eval batches alternate, so both medians sample the
    # whole run: the machine's speed drifts over tens of seconds.  The probe
    # between them gauges that speed for both.
    steps, steps_cpu, losses, evals, evals_cpu, eval_ok, probes = [], [], [], [], [], [], []
    start = time.perf_counter()
    k = 1
    while len(steps) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        dt, cpu, value = _timed(train_step, s, k)
        steps.append(dt)
        steps_cpu.append(cpu)
        losses.append(value)
        probes.append(probe())
        dt, cpu, ok = _timed(eval_batch, s, k)
        evals.append(dt)
        evals_cpu.append(cpu)
        eval_ok.append(ok)
        k += 1
    failed = sum(not math.isfinite(v) for v in losses) + eval_ok.count(False)
    n = len(steps)
    # The highest percentile with at least ten samples beyond it; a run of
    # ten steps or fewer has none.
    tail_p = math.floor(100 * (1 - 10 / n)) if n > 10 else None
    tail = sorted(steps)[math.ceil(tail_p / 100 * n) - 1] if tail_p is not None else None
    return {
        "attempted": n + len(evals),
        "failed": failed,
        "e2e": {
            "train_step_p50_s": statistics.median(steps),
            "train_step_tail_s": tail,
            "train_samples_per_s": BATCH * n / sum(steps),
            "eval_batch_p50_s": statistics.median(evals),
            "train_step_norm": statistics.median(c / p for c, p in zip(steps_cpu, probes)),
            "eval_batch_norm": statistics.median(c / p for c, p in zip(evals_cpu, probes)),
            "peak_rss_mb": peak_rss_mib(),
        },
        "notes": {"train_step_tail": {"percentile": tail_p, "samples": n},
                  "train_step_s": steps, "eval_batch_s": evals,
                  "train_step_cpu_s": steps_cpu, "eval_batch_cpu_s": evals_cpu,
                  "probe_s": probes},
    }


def _snapshot(s):
    st = s["state"]
    return (
        s["params"].store.copy_values(),
        {n: (b.running_mean.copy(), b.running_var.copy(), b.count)
         for n, b in s["params"].bn_states.items()},
        {n: m.copy() for n, m in st.adam_m.items()},
        {n: v.copy() for n, v in st.adam_v.items()},
        st.adam_t,
        st.rng.bit_generator.state,
    )


def _restore(s, snap):
    values, bn, m, v, t, rng = snap
    st = s["state"]
    s["params"].store.load_values(values)
    for n, (mean, var, count) in bn.items():
        b = s["params"].bn_states[n]
        b.running_mean, b.running_var, b.count = mean.copy(), var.copy(), count
    st.adam_m = {n: a.copy() for n, a in m.items()}
    st.adam_v = {n: a.copy() for n, a in v.items()}
    st.adam_t = t
    st.rng.bit_generator.state = rng


def trace_step(s, args):
    """A bitwise fidelity pair, then untraced and traced steps in turn."""
    from tracer import Tracer, derive

    # Fidelity: the same step from the same state, untraced then traced,
    # must give the same loss bits and the same parameters.
    tr = Tracer()
    k = 1
    snap = _snapshot(s)
    loss_plain = train_step(s, k)
    params_plain = s["params"].store.copy_values()
    _restore(s, snap)
    tr.install()
    with tr.span("unit"):
        loss_traced = train_step(s, k)
    tr.uninstall()
    params_traced = s["params"].store.copy_values()
    identical = (s["np"].float64(loss_plain).tobytes() == s["np"].float64(loss_traced).tobytes()
                 and all(params_plain[n].tobytes() == params_traced[n].tobytes()
                         for n in params_plain))

    # Alternating keeps the machine's drift out of the overhead figure.
    untraced, traced, losses = [], [], [loss_traced]
    start = time.perf_counter()
    while len(traced) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        k += 1
        dt, _cpu, value = _timed(train_step, s, k)
        untraced.append(dt)
        losses.append(value)
        k += 1
        tr.install()
        t = time.perf_counter()
        with tr.span("unit"):
            losses.append(train_step(s, k))
        traced.append(time.perf_counter() - t)
        tr.uninstall()
    tr.save(os.path.join(OUT, "spans-step_64.npz"))

    per_unit = tr.layer_metrics(tr.units())
    layers = derive({name: statistics.median(u[name] for u in per_unit) for name in per_unit[0]})
    untraced_p50 = statistics.median(untraced)
    layers["trace.overhead_share"] = statistics.median(traced) / untraced_p50 - 1
    layers["trace.engine_share"] = _engine_time(layers) / statistics.median(traced)
    coverage = layers.pop("engine.backward.untraced") == 0
    failed = sum(not math.isfinite(v) for v in losses) + (not identical) + (not coverage)
    return {
        "attempted": len(losses) + 2,  # steps, plus the two fidelity checks
        "failed": failed,
        "layers": layers,
        "notes": {"fidelity_bitwise": identical, "all_closures_traced": coverage,
                  "untraced_step_p50_s": untraced_p50, "traced_step_s": traced},
    }


def _engine_time(layers):
    return sum(v for n, v in layers.items()
               if n.startswith("engine.") and n.endswith(("fwd_s", "bwd_s", "self_s")))


# ---------------------------------------------------------------------------
# pipeline_32


def setup_pipeline(args):
    import fmbff.cli  # noqa: F401  (what every command pays before its work)

    cfg = PIPELINES[args.shape]
    lines = [f"model.input_size = {cfg['size']}x{cfg['size']}",
             f"train.max_epochs = {cfg['epochs']}", f"train.batch_size = {BATCH}", "train.seed = 0"]
    if cfg["shape"]:
        s = SHAPES[cfg["shape"]]
        lines += [f"model.encoder_widths = {','.join(map(str, s['enc']))}",
                  f"model.decoder_widths = {','.join(map(str, s['dec']))}",
                  f"model.heads = {s['heads']}", f"model.shuffle_groups = {s['groups']}"]
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    config = os.path.join(work, "config.ini")
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"cfg": cfg, "work": work, "config": config}


def _command(argv, traced, out):
    """Run one CLI command; returns (wall seconds, exit code, what it wrote).

    Traced, the command runs under ``traced_cli.py`` and writes its
    per-layer totals to ``out``; untraced, under ``probed_cli.py``, which
    writes its probe segments there.  Returns None for a missing file.
    """
    wrapper = "traced_cli.py" if traced else "probed_cli.py"
    cmd = [sys.executable, os.path.join(HERE, wrapper), out] + argv
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
    try:
        code = proc.wait(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = -1
    wall = time.perf_counter() - t
    if not os.path.exists(out):
        return wall, code, None
    with open(out) as fh:
        return wall, code, json.load(fh)


def pipeline_once(p, args, k, traced=False, predicts=1):
    """synth -> train -> eval -> predict (``predicts`` times).

    Returns per-command wall seconds and probe units (lists for predict; no
    units when traced), exit codes, output checks and, when traced, each
    command's per-layer totals.  Wall seconds leave out the probes.
    """
    cfg = p["cfg"]
    d = os.path.join(p["work"], f"u{k}")
    ds, run, rep, pred = (os.path.join(d, x) for x in ("data", "run", "eval", "pred"))
    ckpt = os.path.join(run, "ckpt.fmbf")
    image = os.path.join(ds, "images", "synth0000.ppm")
    commands = {
        "synth": ["synth", "--n", str(cfg["n"]), "--size", f"{cfg['size']}x{cfg['size']}",
                  "--seed", str(args.seed), "--out", ds],
        "train": ["train", "--data", ds, "--config", p["config"], "--out", run],
        "eval": ["eval", "--data", ds, "--ckpt", ckpt, "--folds", str(cfg["folds"]), "--out", rep],
        "predict": ["predict", "--image", image, "--ckpt", ckpt, "--out", pred],
    }
    runs = [(name, argv) for name, argv in commands.items()]
    runs += [("predict", commands["predict"])] * (predicts - 1)
    times, units, codes, layers = {}, {}, {}, []
    for i, (name, argv) in enumerate(runs):
        wall, code, written = _command(argv, traced, os.path.join(d, f"out-{i}.json"))
        codes[name] = codes.get(name) or code
        if traced:
            times[name] = wall
            layers += [written] if written else []
        else:
            # A command that crashed wrote nothing; its exit code counts it.
            written = written or {"cpu": [], "probes": [], "probe_wall": 0.0}
            times.setdefault(name, []).append(wall - written["probe_wall"])
            units.setdefault(name, []).append(in_units(written["cpu"], written["probes"]))
    checks = _check_pipeline(cfg, args.shape, ds, run, rep, pred, image) if all(
        c == 0 for c in codes.values()) else {"outputs": False}
    shutil.rmtree(d, ignore_errors=True)
    return times, units, codes, checks, layers


def _check_pipeline(cfg, shape, ds, run, rep, pred, image):
    from fmbff import data

    with open(os.path.join(run, "history.csv")) as fh:
        rows = [[float(v) for v in line.split(",")] for line in fh.read().splitlines()[1:]]
    # train() restores the best epoch, so the final model's Dice is the best one.
    final_dice = max((r[3] for r in rows), default=float("nan"))
    with open(os.path.join(rep, "report.csv")) as fh:
        report_rows = fh.read().splitlines()[1:]
    mask = data.read_mask(os.path.join(pred, "synth0000_mask.pgm"))
    return {
        "history_rows": len(rows) == cfg["epochs"],
        "loss_decreased": len(rows) < 2 or rows[-1][1] <= LOSS_RATIO_CEILING * rows[0][1],
        "val_dice_floor": final_dice >= DICE_FLOOR[shape],
        "report_rows": len(report_rows) == cfg["n"],
        "predict_shape": mask.shape[1:] == data.read_image(image).shape[1:],
        "final_val_dice": final_dice,
    }


def _pipeline_failures(codes, checks):
    bad_codes = sum(c != 0 for c in codes.values())
    bad_checks = sum(v is False for v in checks.values())
    return bad_codes + bad_checks


def run_pipeline(p, args):
    try:
        if args.trace:
            return trace_pipeline(p, args)
        walls, evals, predicts, failed, attempted, dice = [], [], [], 0, 0, []
        norms, predict_norms = [], []
        start = time.perf_counter()
        k = 0
        while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
            times, units, codes, checks, _ = pipeline_once(p, args, k, predicts=PREDICT_REPEATS)
            walls.append(_first(times))
            norms.append(_first(units))
            evals.append(p["cfg"]["n"] / times["eval"][0])
            predicts.extend(times["predict"])
            predict_norms.extend(units["predict"])
            failed += _pipeline_failures(codes, checks)
            attempted += len(codes) + 5
            dice.append(checks.get("final_val_dice"))
            k += 1
        return {
            "attempted": attempted,
            "failed": failed,
            "e2e": {
                "pipeline_wall_s": statistics.median(walls),
                "cli_eval_images_per_s": statistics.median(evals),
                "predict_latency_s": statistics.median(predicts),
                "pipeline_norm": statistics.median(norms),
                "predict_norm": statistics.median(predict_norms),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            },
            "notes": {"pipelines": k, "final_val_dice": dice, "predict_s": predicts,
                      "predict_norm": predict_norms},
        }
    finally:
        shutil.rmtree(p["work"], ignore_errors=True)


def _first(per_command):
    """The four commands, with the first predict only."""
    return sum(v[0] for v in per_command.values())


def trace_pipeline(p, args):
    times, _units, codes, checks, _ = pipeline_once(p, args, 0)
    untraced = _first(times)
    ttimes, _units, tcodes, tchecks, per_process = pipeline_once(p, args, 1, traced=True)
    traced = sum(ttimes.values())
    from tracer import derive

    layers = {}
    for proc in per_process:
        for name, value in proc.items():
            layers[name] = layers.get(name, 0.0) + value
    derive(layers)
    # One import per command: report the mean, not the sum.
    layers["cli.import_s"] /= max(1, len(per_process))
    layers["engine.graph_mb"] = max(proc["engine.graph_mb"] for proc in per_process)
    layers["trace.overhead_share"] = traced / untraced - 1
    layers["trace.engine_share"] = _engine_time(layers) / traced
    coverage = layers.pop("engine.backward.untraced") == 0
    return {
        "attempted": 2 * (len(codes) + 5) + 1,
        "failed": _pipeline_failures(codes, checks) + _pipeline_failures(tcodes, tchecks)
        + (not coverage),
        "layers": layers,
        "notes": {"untraced_pipeline_s": untraced, "traced_pipeline_s": traced,
                  "all_closures_traced": coverage, "traced_processes": len(per_process)},
    }


# ---------------------------------------------------------------------------
# gradcheck_f64


def setup_gradcheck(args):
    from fmbff import gradcheck

    return {"gradcheck": gradcheck}


def gradcheck_once(g):
    """All five suites; returns (wall seconds, per-suite wall seconds, entries,
    failures)."""
    gc = g["gradcheck"]
    suites, entries, failures = {}, 0, 0
    for block in gc.BLOCK_NAMES:
        dt, _cpu, (errors, tolerance) = _timed(gc.run_suite, block)
        suites[block] = dt
        entries += len(errors)
        failures += sum(not err <= tolerance for _, err in errors)
    return sum(suites.values()), suites, entries, failures


def run_gradcheck(g, args):
    from tracer import ForwardCounter, Tracer, derive

    if args.trace:
        untraced = gradcheck_once(g)[0]
        tr = Tracer().install()
        traced, _, entries, failures = gradcheck_once(g)
        tr.uninstall()
        tr.save(os.path.join(OUT, "spans-gradcheck_f64.npz"))
        layers = derive(tr.layer_metrics()[0])
        layers["trace.overhead_share"] = traced / untraced - 1
        layers["trace.engine_share"] = _engine_time(layers) / traced
        coverage = layers.pop("engine.backward.untraced") == 0
        return {"attempted": entries + 1, "failed": failures + (not coverage),
                "layers": layers,
                "notes": {"untraced_s": untraced, "traced_s": traced,
                          "all_closures_traced": coverage}}

    walls, norms, suites_all, evals, attempted, failed = [], [], [], [], 0, 0
    probe()  # warm-up
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
        seg = Segments()
        counter = ForwardCounter(before=seg.tick).install()
        wall, suites, entries, failures = gradcheck_once(g)
        counter.uninstall()
        seg.close()
        # The probes ran inside the suites' spans but are not their time.
        walls.append(wall - seg.probe_wall)
        norms.append(seg.units())
        suites_all.append(suites)
        evals.append(counter.count)
        attempted += entries
        failed += failures
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "gradcheck_wall_s": statistics.median(walls),
            "gradcheck_norm": statistics.median(norms),
            "gradcheck_forward_norm": statistics.median(u / e for u, e in zip(norms, evals)),
            "peak_rss_mb": peak_rss_mib(),
        },
        "notes": {"passes": len(walls), "forward_evals": evals[-1], "suite_s_with_probes": suites_all},
    }


# ---------------------------------------------------------------------------


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(seed):
    """What the workload process actually ran with."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FMBFF_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS (NumPy's and SciPy's)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    threads = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


WORKLOADS = {
    "step_64": (setup_step, run_step),
    "pipeline_32": (setup_pipeline, run_pipeline),
    "gradcheck_f64": (setup_gradcheck, run_gradcheck),
}

if __name__ == "__main__":
    main()
