"""Output checks for each workload, run outside the timed region.

An operation is one checked output: a sweep row, a ledger file, a
(law, k) closed-form point or a validate check.  Each check function
returns an :class:`Outcome` for one child.  The tolerances are the ones
``agecast validate`` already applies to the same identities.  Run with
the agecast sources on ``PYTHONPATH``:

    python3 perfbench/checks.py --workload ledger_k20 --seed 1729 \\
        --returncode 0 --data ledger_k20.csv
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import CHECK_NAMES, Workload, build

# exponential_age_identity: ages that must coincide, absolute
ABS_IDENTITY = 1e-10
# shifted_exp_reduction: reduced vs generic priority age, relative
REL_REDUCTION = 1e-12

SWEEP_HEADER = (
    "sweep_value", "delta_p_theory", "delta_p_sim", "delta_p_stderr",
    "delta_e_theory", "delta_e_sim", "delta_e_stderr", "lower_bound",
    "relerr_p", "relerr_e",
)
LEDGER_HEADER = b"j,Y_j,X_1j,X_nonp_j,delivered\n"


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> "Outcome":
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)
        return self


def _relerr(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _sweep_row_problem(w: Workload, k: int, row: dict[str, float]) -> str | None:
    from agecast.theory import age_priority_shifted_exp

    if row["sweep_value"] != k:
        return f"sweep_value {row['sweep_value']!r}"
    p, e = row["delta_p_theory"], row["delta_e_theory"]
    if _relerr(p, age_priority_shifted_exp(w.rate, w.shift, k)) > REL_REDUCTION:
        return "delta_p_theory differs from age_priority_shifted_exp"
    if abs((e - p) - w.shift / k) > ABS_IDENTITY:
        return "delta_e_theory - delta_p_theory differs from c/k"
    if not row["lower_bound"] <= p:
        return "lower bound above delta_p_theory"
    for side, theory in (("p", p), ("e", e)):
        relerr = _relerr(row[f"delta_{side}_sim"], theory)
        if not relerr <= w.tolerance:
            return f"delta_{side}_sim off by {relerr:.4f} > tolerance {w.tolerance}"
        if not math.isclose(row[f"relerr_{side}"], relerr, rel_tol=1e-12, abs_tol=1e-15):
            return f"relerr_{side} does not match the simulated and theory columns"
        if not 0.0 < row[f"delta_{side}_stderr"] < math.inf:
            return f"delta_{side}_stderr not a positive number"
    return None


def check_sweep(w: Workload, seed: int, returncode: int, data: bytes) -> Outcome:
    n = w.operations
    if returncode != 0:
        return Outcome(n).fail(f"exit code {returncode}", n)
    records = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not records or tuple(records[0]) != SWEEP_HEADER:
        return Outcome(n).fail("CSV header differs from the fixed schema", n)
    body = records[1:]
    if len(body) != n:
        return Outcome(n).fail(f"{len(body)} CSV rows, expected {n}", n)
    out = Outcome(n)
    for k, record in zip(w.k_values, body):
        try:
            row = dict(zip(SWEEP_HEADER, map(float, record), strict=True))
        except ValueError:
            out.fail(f"k={k}: unparsable row {record}")
            continue
        problem = _sweep_row_problem(w, k, row)
        if problem is not None:
            out.fail(f"k={k}: {problem}")
    return out


def check_ledger(w: Workload, seed: int, returncode: int, data: bytes) -> Outcome:
    import numpy as np
    from agecast.order_stats import ServiceDistribution
    from agecast.simulator import simulate_ledger

    out = Outcome(1)
    if returncode != 0:
        return out.fail(f"exit code {returncode}")
    if not data.startswith(LEDGER_HEADER):
        return out.fail("ledger header differs from the fixed schema")
    try:
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return out.fail(f"unparsable ledger: {exc}")
    if table.shape != (w.intervals, 5):
        return out.fail(f"ledger shape {table.shape}, expected ({w.intervals}, 5)")
    j, y, x1, x_nonp, delivered = table.T
    # the CLI seeds the ledger stream straight from --seed
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ref = simulate_ledger(ServiceDistribution(w.rate, w.shift), w.k_values[0], w.intervals, rng)
    if not np.array_equal(j, np.arange(1, w.intervals + 1)):
        return out.fail("row numbers are not 1..N")
    for name, got, want in (("Y_j", y, ref.y), ("X_1j", x1, ref.x1), ("X_nonp_j", x_nonp, ref.x_nonp)):
        if not np.array_equal(got, want):
            return out.fail(f"{name} differs from simulate_ledger for seed {seed}")
    if not np.array_equal(delivered, ref.delivered) or not np.array_equal(delivered, x_nonp < y):
        return out.fail("delivered differs from X_nonp_j < Y_j")
    return out


def check_theory(w: Workload, seed: int, returncode: int, data: bytes) -> Outcome:
    from agecast.theory import age_exponential, age_priority_shifted_exp

    from theory_job import LAWS

    n = w.operations
    if returncode != 0:
        return Outcome(n).fail(f"exit code {returncode}", n)
    try:
        curves = json.loads(data)
    except ValueError as exc:
        return Outcome(n).fail(f"unparsable output: {exc}", n)
    out = Outcome(n)
    for label, (rate, shift) in LAWS.items():
        points = {int(k): (p, e) for k, p, e in curves.get(label, [])}
        for k in w.k_values:
            if k not in points:
                out.fail(f"{label} k={k}: missing")
                continue
            p, e = points[k]
            if shift == 0.0:
                base = age_exponential(rate, k)
                ok = abs(p - base) <= ABS_IDENTITY and abs(e - base) <= ABS_IDENTITY
            else:
                ok = (
                    _relerr(p, age_priority_shifted_exp(rate, shift, k)) <= REL_REDUCTION
                    and abs((e - p) - shift / k) <= ABS_IDENTITY
                )
            if not ok:
                out.fail(f"{label} k={k}: ages {p!r}, {e!r} break the closed-form identities")
    return out


def check_validate(w: Workload, seed: int, returncode: int, data: bytes) -> Outcome:
    status = {}
    for line in data.decode("utf-8").splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            status[parts[1]] = parts[0]
    out = Outcome(len(CHECK_NAMES))
    for name in CHECK_NAMES:
        if status.get(name) != "PASS":
            out.fail(f"{name}: {status.get(name, 'not reported')}")
    if returncode != 0 and out.failed == 0:
        out.fail(f"exit code {returncode} with every check reported PASS", out.attempted)
    return out


CHECKS = {
    "sweep_k_sexp": check_sweep,
    "ledger_k20": check_ledger,
    "theory_k1000": check_theory,
    "validate_all": check_validate,
}


def main(argv=None) -> int:
    """Check one child's output and print the outcome as JSON.

    Runs as its own process, so that the benchmark's runner stays small:
    on Linux a child's peak RSS starts from the runner's.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--returncode", type=int, required=True)
    parser.add_argument("--data", required=True, help="the child's output file")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = build(args.tiny)[args.workload]
    # a child that died before writing its output left no file
    data = Path(args.data).read_bytes() if Path(args.data).exists() else b""
    outcome = CHECKS[workload.name](workload, args.seed, args.returncode, data)
    print(json.dumps(asdict(outcome)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
