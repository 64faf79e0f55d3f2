"""``repro serve`` under the layer tracer, for the traced service-tcp run.

    python3 perfbench/serve_traced.py OUT.json serve --listen ... --data-dir ...

Installs the :class:`~tracer.Tracer` (plus an ``idle`` span around the
event loop's selector wait), runs ``repro.cli.main`` with the remaining
arguments, and writes the per-layer report to OUT.json when the server
exits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro import cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install(idle=True)
    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        tracer.close()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"report": tracer.report(wall)}, fh)


if __name__ == "__main__":
    sys.exit(main())
