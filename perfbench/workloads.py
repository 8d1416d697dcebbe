"""The benchmark's four workloads: what one child runs and how much work it does.

Every workload runs as a fresh child process.  The three CLI workloads
call the same entry point as the installed ``agecast`` script; the
``theory_k1000`` workload runs ``theory_job.py``, which calls the closed
forms as a library user would.  The workload seed is the only input that
changes between runs, and it reaches the program only as ``--seed``.
Sizes the CLI would default are passed explicitly, so a later change of
a CLI default cannot silently resize a workload.  Why each workload was
chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# what the installed ``agecast`` console script runs
CLI_ENTRY = "import sys; from agecast.cli import main; sys.exit(main())"

# the 14 checks ``agecast validate`` runs by default, in its order; each is
# one checked operation and one per-layer span
CHECK_NAMES = (
    "exponential_age_identity", "priority_bound_dominance",
    "shifted_exp_reduction", "formula_path_equivalence",
    "conditional_interval_mixture", "harmonic_series_identity",
    "order_stat_monotonicity", "order_stat_monte_carlo",
    "simulation_moments", "cycle_bookkeeping", "estimator_agreement",
    "age_regression", "csv_round_trip", "simulation_determinism",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cli_args`` holds the ``agecast`` arguments before ``--seed`` and
    ``--out``; it is empty for the library workload, which instead
    evaluates the closed forms for every k in ``k_values``.  ``work``
    counts the units of ``unit`` one child completes and ``operations``
    the outputs the checks verify per child.
    """

    name: str
    unit: str
    work: int
    operations: int
    cli_args: tuple[str, ...] = ()
    k_values: tuple[int, ...] = ()
    rate: float = 1.0
    shift: float = 0.0
    intervals: int = 0
    tolerance: float = 0.0
    suffix: str = ".csv"
    # the output checked is the child's stdout, not a file it writes
    stdout_report: bool = False

    @property
    def library(self) -> bool:
        return not self.cli_args

    def program_args(self, seed: int, out_path: str) -> list[str]:
        """Arguments for ``agecast.cli.main`` or for ``theory_job.py``."""
        if self.library:
            return ["--k-max", str(self.k_values[-1]), "--out", out_path]
        args = [*self.cli_args, "--seed", str(seed)]
        if not self.stdout_report:
            args += ["--out", out_path]
        return args

    def command(self, seed: int, out_path: str) -> list[str]:
        """The child process for one untraced run."""
        args = self.program_args(seed, out_path)
        if self.library:
            return [sys.executable, str(BENCH_DIR / "theory_job.py"), *args]
        return [sys.executable, "-c", CLI_ENTRY, *args]


def build(tiny: bool = False) -> dict[str, Workload]:
    """The workloads at full size, or shrunk for the benchmark's own test.

    ``validate_all`` keeps its size when shrunk.
    """
    k_max, intervals, replications = (3, 20_000, 4) if tiny else (20, 100_000, 8)
    ledger_k, ledger_rows = (3, 2_000) if tiny else (20, 1_000_000)
    theory_k = 20 if tiny else 1000
    ks = tuple(range(1, k_max + 1))
    sweep = Workload(
        name="sweep_k_sexp",
        unit="intervals",
        work=len(ks) * replications * intervals,
        operations=len(ks),
        cli_args=(
            "sweep-k", "--dist", "sexp", "--lambda", "1", "--shift", "1",
            "--k", f"1..{k_max}", "--intervals", str(intervals),
            "--replications", str(replications), "--tolerance", "0.02",
        ),
        k_values=ks,
        rate=1.0,
        shift=1.0,
        tolerance=0.02,
    )
    ledger = Workload(
        name="ledger_k20",
        unit="rows",
        work=ledger_rows,
        operations=1,
        cli_args=(
            "ledger", "--dist", "exp", "--lambda", "1", "--shift", "0",
            "--k", str(ledger_k), "--intervals", str(ledger_rows),
        ),
        k_values=(ledger_k,),
        intervals=ledger_rows,
    )
    theory = Workload(
        name="theory_k1000",
        unit="points",
        work=2 * theory_k,
        operations=2 * theory_k,
        k_values=tuple(range(1, theory_k + 1)),
        suffix=".json",
    )
    validate = Workload(
        name="validate_all",
        unit="checks",
        work=len(CHECK_NAMES),
        operations=len(CHECK_NAMES),
        cli_args=(
            # already short; its statistical gates are sized for these defaults
            "validate", "--intervals", "100000", "--replications", "8",
            "--tolerance", "0.02",
        ),
        suffix=".txt",
        stdout_report=True,
    )
    return {w.name: w for w in (sweep, ledger, theory, validate)}
