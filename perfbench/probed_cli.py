"""Run one fmbff CLI command with speed probes between its model evaluations.

    python3 perfbench/probed_cli.py <segments.json> <fmbff command and arguments>

Runs ``fmbff.cli.main`` on the arguments, as ``python -m fmbff.cli`` does.
The command's CPU time, from process creation to its end (less this
wrapper's own imports), is cut into
segments of at least ``probe.SEGMENT_S`` CPU seconds at top-level model or block
evaluations, each followed by the probe of ``probe.py``; the segments go to
``segments.json``.  Exits with the command's exit code.  Needs
``PYTHONPATH=src``.
"""

import json
import sys
import time

if __name__ == "__main__":
    import fmbff.cli

    before = time.process_time()
    from probe import Segments
    from tracer import ForwardCounter

    out, argv = sys.argv[1], sys.argv[2:]
    # The first segment counts the process from its creation, less the
    # benchmark's own imports just above.
    seg = Segments(start=time.process_time() - before)
    counter = ForwardCounter(before=seg.tick).install()
    code = fmbff.cli.main(argv)
    counter.uninstall()
    seg.close()
    with open(out, "w") as fh:
        json.dump(seg.as_dict(), fh)
    sys.exit(code)
