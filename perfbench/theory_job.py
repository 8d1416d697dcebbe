"""Closed-form ages for k = 1..K on Exp(1) and on the shifted law 1 + Exp(1).

The ``theory_k1000`` workload: calls ``priority_age`` and
``age_nonpriority`` as a user plotting the large-k curves would, and
writes ``{"exp": [[k, priority, nonpriority], ...], "sexp": [...]}`` as
JSON (floats round-trip exactly).  Run with the agecast sources on
``PYTHONPATH``:

    python3 perfbench/theory_job.py --k-max 1000 --out ages.json
"""

from __future__ import annotations

import argparse
import json

from agecast import theory
from agecast.order_stats import ServiceDistribution

# label -> (rate, shift)
LAWS = {"exp": (1.0, 0.0), "sexp": (1.0, 1.0)}


def run(k_max: int, out_path: str) -> None:
    curves = {}
    for label, (rate, shift) in LAWS.items():
        dist = ServiceDistribution(rate=rate, shift=shift)
        # module attribute lookups, so a traced run sees wrapped functions
        curves[label] = [
            [k, theory.priority_age(dist, k).value, theory.age_nonpriority(dist, k).value]
            for k in range(1, k_max + 1)
        ]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(curves, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k-max", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    run(args.k_max, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
