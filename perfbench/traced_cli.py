"""Run one fmbff CLI command with the tracer installed.

    python3 perfbench/traced_cli.py <metrics.json> <fmbff command and arguments>

Writes the command's per-layer totals to ``metrics.json`` and its spans to
``perfbench/out/spans-pipeline_32-<command>.npz``; exits with the command's
exit code.  Needs ``PYTHONPATH=src``.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

if __name__ == "__main__":
    t = time.perf_counter()
    import fmbff.cli

    import_s = time.perf_counter() - t

    from tracer import Tracer

    out, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer().install()
    code = fmbff.cli.main(argv)
    tr.uninstall()
    tr.save(os.path.join(HERE, "out", f"spans-pipeline_32-{argv[0]}.npz"))
    layers = tr.layer_metrics()[0]
    layers["cli.import_s"] = import_s
    with open(out, "w") as fh:
        json.dump(layers, fh)
    sys.exit(code)
