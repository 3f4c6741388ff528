"""fmbff benchmark: one command, three workloads, every metric by name and unit.

    python3 perfbench/run.py --workload step_64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; nothing needs installing (the workload
processes run with ``PYTHONPATH=src``).  Workloads:

  step_64        train steps then eval-mode batches, default ModelConfig, 64x64, batch 8
  pipeline_32    ``python -m fmbff.cli`` synth -> train -> eval -> predict at 32x32
  gradcheck_f64  gradcheck.run_suite over all five suites, float64

Each workload runs in its own process with single-threaded BLAS, so its
peak RSS is its own.  The result line gives work in probe units: CPU time
divided by that of a fixed reference computation run next to it, which
cancels most of a shared host's drift in speed (see probe.py).  The report
also holds the wall times.  Set-up time, in CPU seconds scaled the same way
to a fixed probe time, is the median over several fresh processes.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
makes a separate traced run that reports the per-layer metrics of
``catalog.py`` and the tracing overhead.

Output: a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The whole
report, with the environment, goes to
``perfbench/out/report-<workload>-seed<n>-trace<t>.json``.  Exits 2 without
a result when the checkout has no ``src/fmbff``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 7  # fresh processes timed for setup_s, the workload's own included
DEADLINE_S = 170  # the whole run, set-up processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--shape", choices=("full", "tiny"), default="full",
                   help="tiny: the criterion-7 model shape, for the smoke test")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fmbff", "__init__.py")):
        sys.exit(f"error: {ROOT} holds no src/fmbff; run from a checkout of the repository")

    started = time.monotonic()
    env = dict(os.environ)
    inherited = {v: env.get(v) for v in THREAD_VARS + ("FMBFF_THREADS",)}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.update({v: "1" for v in THREAD_VARS})

    base = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--shape", args.shape]
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_child(base + ["--setup-only"], env, started)["setup_s"])
    result = _child(base, env, started)
    setups.append(result["setup_s"])
    result["environment"]["inherited"] = inherited

    report = build_report(args, result, statistics.median(setups), setups)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    print(json.dumps(report["result"]))


def _child(base, env, started):
    """Run one workload process; returns its JSON result or exits non-zero."""
    proc = subprocess.Popen(base, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"error: workload process exceeded the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.exit(f"error: workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def build_report(args, result, setup_s, setups):
    attempted, failed = result["attempted"], result["failed"]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "shape": args.shape,
              "environment": result["environment"], "notes": result.get("notes", {})}
    if args.trace:
        layers = result["layers"]
        report["per_layer"] = {
            n: {"value": layers[n], "unit": u, "moves": moves}
            for n, (u, where, moves) in catalog.PER_LAYER.items()
            if where == "all" or args.workload in where.split()
        }
        line = {n: layers[n] for n in catalog.RESULT_LINE_PER_LAYER}
    else:
        e2e = dict(result["e2e"], setup_s=setup_s, failed_share=failed / attempted)
        report["end_to_end"] = {
            n: {"value": e2e[n], "unit": u, "better": b}
            for n, (u, b, where, _what) in catalog.END_TO_END.items() if args.workload in where
        }
        report["setup_samples_s"] = setups
        line = {slot: e2e[by[args.workload]] for slot, by in catalog.SLOTS.items()}
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": catalog.unit(n)} for n, v in line.items()},
    }
    return report


def print_report(report):
    print(f"fmbff benchmark: {report['workload']} seed={report['seed']} "
          f"trace={report['trace']} shape={report['shape']}")
    env = report["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "inherited"))
    print("inherited thread settings: "
          + ", ".join(f"{k}={v}" for k, v in env["inherited"].items()))
    table = report.get("end_to_end") or report["per_layer"]
    for name, m in table.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value:>14s} {m['unit']}")
    for key, value in report["notes"].items():
        print(f"  note {key}: {value}")


if __name__ == "__main__":
    main()
