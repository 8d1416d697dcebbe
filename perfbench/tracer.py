"""Traced in-process run of one workload, and the per-layer metrics it yields.

The traced run wraps each agecast layer's public functions at the module
attribute its caller looks up (``agecast.simulator.generate_intervals``,
``agecast.sweeps.run_simulation``, ``agecast.theory.order_stat_mean``,
...), runs the workload once in this process and writes its spans and
counters as JSON when the run ends.  agecast itself is not changed.  Run
with the agecast sources on ``PYTHONPATH``:

    python3 perfbench/tracer.py --workload validate_all --seed 1729 \\
        --out OUTPUT --trace-out TRACE.json

A span is ``[id, parent id, name, start s, end s, attrs]``; a span's self
time is its duration minus the durations of its children, which run one
after another in this single thread.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict

from workloads import CHECK_NAMES, build

# the group sizes benchmarks/bench_backends.py times the kernel at; here the
# rates are read off the traced kernel calls instead
KERNEL_K = (1, 5, 20)

SPAN_LAYERS = (
    "kernels.generate_intervals",
    "simulator.from_intervals",
    "simulator.accumulate_priority",
    "simulator.accumulate_nonpriority",
    "simulator.run_simulation",
    "simulator.write_ledger_csv",
    "simulator.sample_path_cross_check",
    "theory.age_nonpriority",
    "theory.priority_age",
    "sweeps.sweep_k",
    "sweeps.write_report_csv",
    *(f"validation.{name}" for name in CHECK_NAMES),
    "cli.main",
)

# every per-layer metric, in report order, with its unit
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
    "kernels.generate_intervals.calls": "count",
    "kernels.uniforms": "count",
    "kernels.uniforms_per_s": "1/s",
    "kernels.bytes_computed": "B",
    "kernels.peak_mb": "MB",
    **{f"kernels.k{k}.intervals_per_s": "1/s" for k in KERNEL_K},
    "simulator.cycles": "count",
    "simulator.write_ledger_csv.bytes": "B",
    "simulator.write_ledger_csv.rows_per_s": "1/s",
    "order_stats.order_stat_mean.calls": "count",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.other.self_s": "s",
    "trace_overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0, None])
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid][3:5] = start, end

    def wrap(self, owner, attr: str, name: str, attrs=None, memory: bool = False) -> None:
        """Replace ``owner.attr`` by a version that records a span.

        ``attrs(arguments, result)`` adds fields to the span; ``memory``
        records the tracemalloc peak of the call, with tracemalloc
        started and stopped outside the span's timing.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            if memory:
                tracemalloc.start()
            try:
                result = self.call(name, original, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1] if memory else None
            finally:
                if memory:
                    tracemalloc.stop()
            fields = {} if attrs is None else attrs(signature.bind(*args, **kwargs).arguments, result)
            if memory:
                fields["peak_bytes"] = peak
            self.spans[sid][5] = fields or None
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a version that only counts its calls."""
        original = getattr(owner, attr)
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each module attribute its callers use."""
    import agecast.cli as cli
    import agecast.simulator as simulator
    import agecast.sweeps as sweeps
    import agecast.theory as theory
    import agecast.validation as validation

    tracer.wrap(
        simulator, "generate_intervals", "kernels.generate_intervals",
        attrs=lambda a, r: {"n": int(a["num_intervals"]), "k": int(a["k"])},
        memory=True,
    )
    tracer.wrap(
        simulator.CycleLedger, "from_intervals", "simulator.from_intervals",
        attrs=lambda a, r: {"cycles": r.num_cycles},
    )
    for attr in ("accumulate_priority", "accumulate_nonpriority"):
        tracer.wrap(simulator, attr, f"simulator.{attr}")
    for module in (sweeps, validation):
        tracer.wrap(module, "run_simulation", "simulator.run_simulation")
    tracer.wrap(
        cli, "write_ledger_csv", "simulator.write_ledger_csv",
        attrs=lambda a, r: {"rows": a["ledger"].num_intervals, "bytes": os.path.getsize(a["path"])},
    )
    tracer.wrap(validation, "sample_path_cross_check", "simulator.sample_path_cross_check")
    for module in (theory, sweeps, validation):
        tracer.wrap(module, "age_nonpriority", "theory.age_nonpriority")
    for module in (theory, sweeps):
        tracer.wrap(module, "priority_age", "theory.priority_age")
    for module in (theory, validation):
        tracer.count(module, "order_stat_mean", "order_stats.order_stat_mean.calls")
    for module in (cli, validation):
        tracer.wrap(module, "sweep_k", "sweeps.sweep_k")
    for module in (sweeps, validation):
        tracer.wrap(module, "write_report_csv", "sweeps.write_report_csv")

    run_checks = cli.run_checks

    @functools.wraps(run_checks)
    def traced_run_checks(settings, names=None):
        # one public run_checks call per check, in validate's order
        wanted = set(validation.CHECK_NAMES if names is None else names)
        results = []
        for name in validation.CHECK_NAMES:
            if name in wanted:
                results += tracer.call(f"validation.{name}", run_checks, settings, (name,))
        return results

    cli.run_checks = traced_run_checks


def run_traced(workload_name: str, seed: int, out_path: str, tiny: bool) -> tuple[int, dict]:
    """Run one workload under the tracer; return its exit code and trace."""
    workload = build(tiny)[workload_name]
    tracer = Tracer()

    def load():
        import agecast  # noqa: F401
        import agecast.cli  # noqa: F401

    def body() -> int:
        tracer.call("cli.import", load)
        install(tracer)
        args = workload.program_args(seed, out_path)
        if workload.library:
            import theory_job

            return tracer.call("bench.theory_job", theory_job.main, args)
        import agecast.cli

        return tracer.call("cli.main", agecast.cli.main, args)

    code = tracer.call("run", body)
    origin = tracer.spans[0][3]
    for span in tracer.spans:
        span[3] -= origin
        span[4] -= origin
    trace = {"workload": workload_name, "seed": seed, "spans": tracer.spans, "counters": tracer.counters}
    return code, trace


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, except ``trace_overhead_frac``."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    # span name -> [(attrs, self time)]
    by_name: dict[str, list] = defaultdict(list)
    for sid, parent, name, start, end, attrs in spans:
        by_name[name].append((attrs, (end - start) - child_time[sid]))

    def self_s(name: str) -> float:
        return sum(s for _, s in by_name.get(name, ()))

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    kernel = by_name.get("kernels.generate_intervals", [])
    uniforms = sum(a["n"] * (a["k"] + 1) for a, _ in kernel)
    ledger = [a for a, _ in by_name.get("simulator.write_ledger_csv", [])]

    metrics = {f"{layer}.self_s": self_s(layer) for layer in SPAN_LAYERS}
    metrics.update({
        "kernels.generate_intervals.calls": len(kernel),
        "kernels.uniforms": uniforms,
        "kernels.uniforms_per_s": per_s(uniforms, self_s("kernels.generate_intervals")),
        # computed, not measured: 8 B per drawn uniform plus 8 B per transformed value
        "kernels.bytes_computed": 16 * uniforms,
        "kernels.peak_mb": max((a["peak_bytes"] for a, _ in kernel), default=0) / 2**20,
    })
    for k in KERNEL_K:
        at_k = [(a["n"], s) for a, s in kernel if a["k"] == k]
        metrics[f"kernels.k{k}.intervals_per_s"] = per_s(sum(n for n, _ in at_k), sum(s for _, s in at_k))
    metrics.update({
        "simulator.cycles": sum(a["cycles"] for a, _ in by_name.get("simulator.from_intervals", [])),
        "simulator.write_ledger_csv.bytes": sum(a["bytes"] for a in ledger),
        "simulator.write_ledger_csv.rows_per_s": per_s(
            sum(a["rows"] for a in ledger), self_s("simulator.write_ledger_csv")
        ),
        "order_stats.order_stat_mean.calls": trace["counters"].get("order_stats.order_stat_mean.calls", 0),
        "cli.import_s": self_s("cli.import"),
        "trace.wall_s": spans[0][4] - spans[0][3],
        # the tracer's own spans: the root and the theory job's loop
        "trace.other.self_s": self_s("run") + self_s("bench.theory_job"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="the workload's output file")
    parser.add_argument("--trace-out", required=True, help="where to write spans and counters")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    code, trace = run_traced(args.workload, args.seed, args.out, args.tiny)
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
