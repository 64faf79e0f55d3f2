"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fig8-dsp --seed 1 --seconds 45 --trace 0

Workloads (README.md says why each exists):

* ``fig8-dsp``       batch ``SimEngine.run()`` on the fig-8 hot-path recipe
* ``replay-stream``  ``repro replay --synthetic`` with the journal on
* ``service-tcp``    ``repro serve`` over TCP under an open-loop client;
                     runnable, but not gated by ``BENCHMARK.json``

With ``--trace 0`` the result carries every end-to-end metric; with
``--trace 1`` a traced run gives the per-layer table instead.  The last
line of standard output is the JSON result; the lines before it are
notes for a human reader.  Run it from the root of a checkout: the
program is imported from ``src/`` there.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = ("fig8-dsp", "replay-stream", "service-tcp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import common  # after the path set-up: imports the program

    try:
        if args.workload == "service-tcp":
            import service

            result = service.measure(args.seed, args.seconds, traced=bool(args.trace))
        else:
            import batch

            if args.workload == "fig8-dsp":
                from fig8 import Fig8 as Workload
            else:
                from replay import Replay as Workload
            if args.trace:
                result = batch.measure_traced(Workload(), args.seed)
            else:
                result = batch.measure(Workload(), args.seed, args.seconds)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    for note in result.notes:
        print(note)
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
