"""Whether a command's peak memory, or its page faults, grow with its ``--intervals``.

Runs ``COMMAND ... --intervals SIZE`` at each of two sizes, the smaller
first, and reads the peak RSS and the minor page faults of each from
``getrusage(RUSAGE_CHILDREN)``.  Its ``ru_maxrss`` is the largest peak
among the children waited for so far, so the smaller run has to go
first; its ``ru_minflt`` is their sum, so a run's faults are the rise
across it.  Exits 1 when the larger run's peak exceeds the smaller's by
more than ``--max-growth-mb`` MB, or by more than
``--max-bytes-per-interval`` bytes per added interval, or when the
larger run makes more than ``--max-fault-growth`` minor faults beyond
the smaller's.  Memory that a command frees and allocates again on
every block of rows shows as faults that grow with the rows, while its
peak stays flat.  Needs a Linux ``resource`` module (``ru_maxrss`` in
KiB).  Each run takes seconds, so this is not part of the test suite;
the workflow runs it, for example:

    python tests/peak_growth.py --sizes 200000 2000000 --max-growth-mb 8 \\
        agecast ledger --k 20 --out peak.csv
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def run(command: list[str], size: int) -> tuple[int, int]:
    """The peak RSS in KiB among the children so far, and this run's minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    argv = [*command, "--intervals", str(size)]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_maxrss, usage.ru_minflt - before


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", nargs=2, type=int, required=True, metavar=("SMALL", "LARGE")
    )
    bound = parser.add_mutually_exclusive_group(required=True)
    bound.add_argument("--max-growth-mb", type=float)
    bound.add_argument("--max-bytes-per-interval", type=float)
    bound.add_argument("--max-fault-growth", type=int)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    small_size, large_size = args.sizes
    if not args.command or small_size >= large_size:
        parser.error("give a command, and SMALL below LARGE")
    (small, small_faults), (large, large_faults) = (
        run(args.command, size) for size in (small_size, large_size)
    )
    growth_mb = (large - small) / 1024
    slope = (large - small) * 1024 / (large_size - small_size)
    print(
        f"peak RSS: {small / 1024:.1f} MB at {small_size} intervals, "
        f"{large / 1024:.1f} MB at {large_size}; {slope:.1f} bytes per added interval"
    )
    print(f"minor faults: {small_faults} at {small_size} intervals, {large_faults} at {large_size}")
    if args.max_fault_growth is not None:
        over = large_faults - small_faults > args.max_fault_growth
        what = "minor page faults grow"
    elif args.max_growth_mb is not None:
        over = growth_mb > args.max_growth_mb
        what = "peak memory grows"
    else:
        over = slope > args.max_bytes_per_interval
        what = "peak memory grows"
    if over:
        print(f"{what} with --intervals beyond the bound", file=sys.stderr)
    return int(over)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
