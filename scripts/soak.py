#!/usr/bin/env python
"""Seeded randomized soak harness with fault-plan minimization.

Runs N seeded cases of one soak mode under strict runtime invariants.
With no mode flag it runs the plain chaos soak; ``--crash-recovery``,
``--elastic``, ``--replay`` and ``--service`` select the other modes.
Every case is fully determined by ``(mode, base_seed, case_index)``, so
any failure reproduces from the command line or from its artifact
(``repro sweep --only <artifact.json>``).  The modes, the kill-resume
oracle and the case runner live in :mod:`repro.sweep.soakcases`.

Usage::

    PYTHONPATH=src python scripts/soak.py --runs 50 --seed 0 --out soak_failures
    PYTHONPATH=src python scripts/soak.py --crash-recovery --runs 21 --seed 0
    PYTHONPATH=src python scripts/soak.py --elastic --runs 30 --seed 0 --jobs 2
    PYTHONPATH=src python scripts/soak.py --replay --runs 20 --seed 0
    PYTHONPATH=src python scripts/soak.py --service --runs 10 --seed 0

Exit status is non-zero iff at least one case failed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.sweep.soakcases import MODES, run_mode  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"Without a mode flag: {MODES['plain'].about}.",
    )
    parser.add_argument("--runs", type=int, default=50, help="number of cases")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes via the sweep fabric executor (default 1 = "
            "serial).  Cases are fully seeded, so parallel runs produce "
            "the same outcomes and the same case-ordered output"
        ),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("soak_failures"),
        help="directory for repro artifacts",
    )
    flags = parser.add_mutually_exclusive_group()
    for mode in MODES.values():
        if mode.name != "plain":
            flags.add_argument(
                f"--{mode.name}",
                dest="mode",
                action="store_const",
                const=mode.name,
                help=mode.about,
            )
    parser.set_defaults(mode="plain")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    return run_mode(args.mode, args.runs, args.seed, args.out, jobs=args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
