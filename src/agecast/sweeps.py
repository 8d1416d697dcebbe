"""Parameter sweeps comparing closed-form ages against simulation.

A sweep walks the priority group size k or the service-time shift c,
evaluates both closed forms at each point, runs the simulator with the
same master seed, and emits one CSV row per point under a fixed schema.
The points of either sweep share their draws (common random numbers), so
the curves move smoothly.  A c sweep reuses the same raw uniforms at each
shift.  A k sweep runs all its points in one pass per replication
(``agecast.simulator.run_k_sweep``): node i's service times are the same
at every k >= i, so each point adds one node to the previous one's
priority group.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

from .order_stats import MAX_K, ServiceDistribution, check_count, check_real
from .simulator import SimConfig, check_simulable, run_k_sweep, run_simulation
from .theory import age_nonpriority, age_priority_lower_bound, priority_age

__all__ = [
    "CSV_COLUMNS",
    "AgeReport",
    "AgeRow",
    "SweepSpec",
    "read_report_csv",
    "sweep_k",
    "sweep_shift",
    "write_report_csv",
]

@dataclass(frozen=True)
class SweepSpec:
    """One sweep request.

    ``variable`` is ``"k"`` or ``"c"``.  For a k sweep ``shift`` is the
    fixed shift (zero for plain exponential); for a c sweep ``k`` is the
    fixed group size and ``values`` enumerates shifts.  ``out_path`` of
    None keeps the report in memory only.  The law and run-size fields
    follow the rules of the ServiceDistribution and SimConfig each point
    builds, so each c value is a valid shift; ``k`` is a valid group size
    for either variable, and every k is at most ``MAX_K``.
    """

    variable: str
    values: tuple
    rate: float
    shift: float
    k: int
    num_intervals: int
    replications: int
    seed: int
    tolerance: float
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.variable not in ("k", "c"):
            raise ValueError(f"sweep variable must be 'k' or 'c', got {self.variable!r}")
        if len(self.values) == 0:
            raise ValueError("sweep values must be non-empty")
        if self.variable == "k":
            values = tuple(check_count("k values", v, 1, MAX_K) for v in self.values)
        else:
            values = tuple(
                check_simulable(
                    ServiceDistribution(self.rate, check_real("c values", v))
                ).shift
                for v in self.values
            )
        k = check_count("fixed k", self.k, 1, MAX_K)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(f"sweep values must be strictly increasing, got {values}")
        config = SimConfig(
            dist=ServiceDistribution(rate=self.rate, shift=self.shift),
            k=k,
            num_intervals=self.num_intervals,
            seed=self.seed,
            replications=self.replications,
        )
        for name, value in (
            ("values", values),
            ("k", k),
            ("rate", config.dist.rate),
            ("shift", config.dist.shift),
            ("num_intervals", config.num_intervals),
            ("replications", config.replications),
            ("seed", config.seed),
            ("tolerance", check_real("tolerance", self.tolerance)),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AgeRow:
    """One sweep point; ``lower_bound`` is None for plain-exponential runs."""

    sweep_value: float
    delta_p_theory: float
    delta_p_sim: float
    delta_p_stderr: float
    delta_e_theory: float
    delta_e_sim: float
    delta_e_stderr: float
    lower_bound: float | None
    relerr_p: float
    relerr_e: float


# the sweep CSV header: AgeRow's fields, in declaration order
CSV_COLUMNS = tuple(field.name for field in fields(AgeRow))


@dataclass(frozen=True)
class AgeReport:
    """All rows of one sweep plus the tolerance they were run against."""

    variable: str
    rows: tuple[AgeRow, ...]
    tolerance: float

    def max_relerr(self) -> float:
        return max(max(r.relerr_p, r.relerr_e) for r in self.rows)

    def within_tolerance(self) -> bool:
        return self.max_relerr() <= self.tolerance

    def gaps(self) -> tuple[float, ...]:
        """Theory gap delta_e - delta_p per row."""
        return tuple(r.delta_e_theory - r.delta_p_theory for r in self.rows)


def _sweep(spec: SweepSpec, configs, sims, include_bound: bool) -> AgeReport:
    """One row per sweep value, from its SimConfig and its SimResult.

    The report is also written to ``spec.out_path`` when that is set.
    """
    rows = []
    for sweep_value, config, sim in zip(spec.values, configs, sims):
        dist, k = config.dist, config.k
        bound = None
        if include_bound:
            bound = age_priority_lower_bound(dist.rate, dist.shift, k)
        theory_p = priority_age(dist, k)
        theory_e = age_nonpriority(dist, k)
        rows.append(
            AgeRow(
                sweep_value=float(sweep_value),
                delta_p_theory=theory_p.value,
                delta_p_sim=sim.age_priority_hat,
                delta_p_stderr=sim.age_priority_se,
                delta_e_theory=theory_e.value,
                delta_e_sim=sim.age_nonpriority_hat,
                delta_e_stderr=sim.age_nonpriority_se,
                lower_bound=bound,
                relerr_p=abs(sim.age_priority_hat - theory_p.value) / theory_p.value,
                relerr_e=abs(sim.age_nonpriority_hat - theory_e.value) / theory_e.value,
            )
        )
    report = AgeReport(variable=spec.variable, rows=tuple(rows), tolerance=spec.tolerance)
    if spec.out_path is not None:
        write_report_csv(report, spec.out_path)
    return report


def _config(spec: SweepSpec, dist: ServiceDistribution, k: int) -> SimConfig:
    return SimConfig(
        dist=dist,
        k=k,
        num_intervals=spec.num_intervals,
        seed=spec.seed,
        replications=spec.replications,
    )


def sweep_k(spec: SweepSpec) -> AgeReport:
    """Sweep the priority group size at a fixed service law.

    One simulator pass per replication serves every k.  The lower-bound
    column is filled for shifted laws and left empty for the plain
    exponential.
    """
    if spec.variable != "k":
        raise ValueError(f"sweep_k needs a k-variable spec, got {spec.variable!r}")
    dist = ServiceDistribution(rate=spec.rate, shift=spec.shift)
    configs = [_config(spec, dist, k) for k in spec.values]
    return _sweep(spec, configs, run_k_sweep(configs), spec.shift > 0)


def sweep_shift(spec: SweepSpec) -> AgeReport:
    """Sweep the service-time shift at a fixed group size.

    Each c runs its own simulation.  Rows keep the lower-bound column
    populated even at c = 0 so the whole sweep shares one schema.
    """
    if spec.variable != "c":
        raise ValueError(f"sweep_shift needs a c-variable spec, got {spec.variable!r}")
    configs = [
        _config(spec, ServiceDistribution(rate=spec.rate, shift=c), spec.k)
        for c in spec.values
    ]
    return _sweep(spec, configs, map(run_simulation, configs), True)


def _format_cell(value: float | None) -> str:
    # repr round-trips float64 exactly, keeping emitted files byte-stable
    return "" if value is None else repr(float(value))


def write_report_csv(report: AgeReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([_format_cell(getattr(row, column)) for column in CSV_COLUMNS])


def read_report_csv(path, variable: str = "", tolerance: float = 0.0) -> AgeReport:
    """Re-parse an emitted CSV into the identical row tuple.

    Raises ValueError naming the line when the header or a row does not
    follow the schema.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != CSV_COLUMNS:
            raise ValueError(f"line 1: unexpected CSV header {header}")
        rows = []
        for record in reader:
            try:
                if len(record) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} cells, got {len(record)}")
                rows.append(AgeRow(*(float(c) if c else None for c in record)))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return AgeReport(variable=variable, rows=tuple(rows), tolerance=tolerance)
