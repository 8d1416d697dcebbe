"""Whether a command's peak memory grows with its ``--intervals``.

Runs ``COMMAND ... --intervals SIZE`` at each of two sizes, the smaller
first, and reads the peak RSS of each from ``getrusage(RUSAGE_CHILDREN)``.
That is the largest peak among the children waited for so far, so the
smaller run has to go first.  Exits 1 when the larger run's peak exceeds
the smaller's by more than ``--max-growth-mb`` MB, or by more than
``--max-bytes-per-interval`` bytes per added interval.  Needs a Linux
``resource`` module (``ru_maxrss`` in KiB).  Each run takes seconds, so
this is not part of the test suite; the workflow runs it, for example:

    python tests/peak_growth.py --sizes 200000 2000000 --max-growth-mb 8 \\
        agecast ledger --k 20 --out peak.csv
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def peak_kib(command: list[str], size: int) -> int:
    argv = [*command, "--intervals", str(size)]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", nargs=2, type=int, required=True, metavar=("SMALL", "LARGE")
    )
    bound = parser.add_mutually_exclusive_group(required=True)
    bound.add_argument("--max-growth-mb", type=float)
    bound.add_argument("--max-bytes-per-interval", type=float)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    small_size, large_size = args.sizes
    if not args.command or small_size >= large_size:
        parser.error("give a command, and SMALL below LARGE")
    small, large = (peak_kib(args.command, size) for size in (small_size, large_size))
    growth_mb = (large - small) / 1024
    slope = (large - small) * 1024 / (large_size - small_size)
    print(
        f"peak RSS: {small / 1024:.1f} MB at {small_size} intervals, "
        f"{large / 1024:.1f} MB at {large_size}; {slope:.1f} bytes per added interval"
    )
    if args.max_growth_mb is None:
        over = slope > args.max_bytes_per_interval
    else:
        over = growth_mb > args.max_growth_mb
    if over:
        print("peak memory grows with --intervals beyond the bound", file=sys.stderr)
    return int(over)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
