"""How often each ``agecast validate`` check fails over a fixed seed list.

Runs the 14 checks at the ``validate`` defaults (100000 intervals, 8
replications, tolerance 0.02) once per master seed in 1..100, in this
process, and prints one markdown row per check: its FAIL count and the
seeds that failed.  It changes no threshold; it only counts, and exits
1 when any check failed on any seed, so that the docstrings' claims of
"failed on 0 of the seeds 1..100" are checked.  Slow (about 50 s on
two CPUs), so it is not part of the test suite; CI runs it as a step of
its own:

    PYTHONPATH=src python3 tests/gate_seeds.py
"""

from __future__ import annotations

import time

from agecast import simulator
from agecast.validation import CHECK_NAMES, ValidationSettings, run_checks

SEEDS = range(1, 101)


def main() -> int:
    failed_seeds: dict[str, list[int]] = {name: [] for name in CHECK_NAMES}
    start = time.perf_counter()
    for seed in SEEDS:
        for result in run_checks(ValidationSettings(seed=seed)):
            if not result.passed:
                failed_seeds[result.name].append(seed)
    elapsed = time.perf_counter() - start
    # the layout before STREAM_VERSION existed was version 1
    version = getattr(simulator, "STREAM_VERSION", 1)
    print(f"stream version {version}, seeds {SEEDS.start}..{SEEDS.stop - 1}, {elapsed:.0f} s")
    print()
    print("| check | FAIL | failing seeds |")
    print("| --- | --- | --- |")
    for name in CHECK_NAMES:
        seeds = failed_seeds[name]
        print(f"| {name} | {len(seeds)} | {' '.join(map(str, seeds))} |")
    total = sum(len(seeds) for seeds in failed_seeds.values())
    print(f"| all | {total} | |")
    return 1 if total else 0


if __name__ == "__main__":
    raise SystemExit(main())
