"""Recompute ``references.json``: the expected ``RunMetrics.as_dict()``
digest of every input in the batch workloads' shipped pools.

    python3 perfbench/record_references.py

The digests come from the reference paths, never from the code being
measured: fig8-dsp runs the stateless object-path oracle (no array core,
no priority index, views rebuilt each epoch); replay-stream runs the
same ``repro replay`` command on the object path
(``REPRO_ARRAY_CORE=0``).  The benchmark itself never recomputes them.
Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    os.environ["REPRO_ARRAY_CORE"] = "0"
    from common import WORK, digest
    from fig8 import Fig8, build
    from replay import Replay, replay

    refs = {"fig8-dsp": {}, "replay-stream": {}}
    for j in range(Fig8.pool):
        engine, _ = build(j, oracle=True)
        refs["fig8-dsp"][str(j)] = digest(engine.run().as_dict())
        print("fig8-dsp", j, refs["fig8-dsp"][str(j)], flush=True)
    for j in range(Replay.pool):
        stats, _, _, _ = replay(j)
        refs["replay-stream"][str(j)] = digest(stats["metrics"])
        print("replay-stream", j, refs["replay-stream"][str(j)], flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
