"""agecast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep_k_sexp [--seed 1729] \\
        [--seconds 30] [--trace 0|1]

Workloads: ``sweep_k_sexp``, ``ledger_k20``, ``theory_k1000`` and
``validate_all`` (see ``workloads.py``).  ``BENCHMARK.json`` gates on all
but ``theory_k1000``, whose run medians spread too widely on a shared
2-vCPU host; it stays runnable for before/after numbers.  The agecast
sources are taken from ``src/`` next to this directory; without them the
benchmark exits with code 2.

Load shape: a closed loop from one process.  The runner starts one
child, waits for it to exit, checks its output outside the timed region,
then starts the next, until the children's wall time would pass
``--seconds``.  Thread pools are left as users get them and recorded in
the host block.  The runner itself imports neither numpy nor agecast:
on Linux a child's peak RSS starts from its parent's, so host probing
and output checks run in processes of their own.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's children: ``setup_s`` (a fresh interpreter importing ``agecast``
and ``agecast.cli``, measured several times), ``wall_s`` (child spawn to
exit), ``work_per_s``, ``cpu_s`` (user plus system, from ``wait4``) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced children with traced
ones (``tracer.py``) and reports the per-layer metrics of the traced run
with the median wall time, plus ``trace_overhead_frac``.

Every child of a run gets ``--seed`` as its seed.  Human-readable lines
come first; the last line of standard output is the JSON result.  A full
record, with samples, quartiles, checks and spans, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import host
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 11
SETUP_COMMAND = "import agecast, agecast.cli"
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Sample:
    """One child process: wall time, CPU time, peak RSS and exit code."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def run_child(argv: list[str], env: dict, stdout_path: Path) -> Sample:
    """Run one child to completion; stdout and stderr go to files."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start
    # wait4 reaped the child; tell Popen so it never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
    )


def helper(script: str, args: list[str], env: dict) -> dict:
    """Run one of this directory's helper scripts; parse its JSON line."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _digest(path: Path) -> str:
    sha = hashlib.sha256()
    if path.exists():
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


class Checker:
    """Checks every child's output with ``checks.py`` and keeps the totals.

    Every child of a run gets the same seed, so a correct program writes
    the same bytes each time; an output already checked keeps the
    verdict it got then.
    """

    def __init__(self, workload: workloads.Workload, seed: int, tiny: bool, env: dict) -> None:
        self.args = ["--workload", workload.name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[int, str], dict] = {}

    def check(self, returncode: int, output: Path) -> None:
        key = (returncode, _digest(output))
        if key not in self._verdicts:
            self._verdicts[key] = helper(
                "checks.py", self.args + ["--returncode", str(returncode), "--data", str(output)], self.env
            )
        verdict = self._verdicts[key]
        self.attempted += verdict["attempted"]
        self.failed += verdict["failed"]
        for problem in verdict["problems"]:
            if problem not in self.problems:
                self.problems.append(problem)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # validate's temporary files stay inside the checkout too
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters importing the package and its CLI."""
    argv = [sys.executable, "-c", SETUP_COMMAND]
    path = OUT_DIR / "setup.stdout"
    run_child(argv, env, path)  # warm-up: byte-compiles and fills the page cache
    times = []
    for _ in range(SETUP_REPEATS):
        sample = run_child(argv, env, path)
        if sample.returncode != 0:
            raise RuntimeError(f"'{SETUP_COMMAND}' failed; see {path.with_suffix('.stderr')}")
        times.append(sample.wall_s)
    return times


def measure(seconds: float, kinds: list) -> list[list[Sample]]:
    """Run each kind of child in turn until the next round would pass ``seconds``.

    One untimed round comes first: the first large allocations of a run
    are slower on this kind of host, and that cost is not the program's.
    Only the children's own wall time counts against ``seconds``; checks
    between children do not.  At least one timed round always runs.
    """
    for kind in kinds:
        kind()
    samples: list[list[Sample]] = [[] for _ in kinds]
    spent = 0.0
    while True:
        for kind, got in zip(kinds, samples):
            got.append(kind())
            spent += got[-1].wall_s
        next_round = sum(statistics.median(s.wall_s for s in got) for got in samples)
        if spent + next_round > seconds:
            return samples


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.build()))
    parser.add_argument("--seed", type=int, default=1729, help="workload seed (default 1729)")
    parser.add_argument("--seconds", type=float, default=30.0, help="children's wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunk workloads, for the self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error(f"seed must fit in 64 unsigned bits, got {args.seed}")
    if not args.seconds > 0:
        parser.error(f"seconds must be positive, got {args.seconds}")
    return args


def timed(workload, args, command, env, checked) -> tuple[dict, dict]:
    """End-to-end metrics: untraced children, medians over the run."""
    setup = measure_setup(env)
    (samples,) = measure(args.seconds, [lambda: checked(command)])
    series = {
        "wall_s": [s.wall_s for s in samples],
        "work_per_s": [workload.work / s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": setup,
    }
    summary = {metric: summarize(values) for metric, values in series.items()}
    print(f"{workload.name}: {len(samples)} runs of {workload.work} {workload.unit}, seed {args.seed}")
    for metric, unit in END_TO_END.items():
        s = summary[metric]
        shown = f"{workload.unit}/s" if metric == "work_per_s" else unit
        print(f"  {metric:<12} {s['median']:.6g} {shown}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    values = {metric: summary[metric]["median"] for metric in END_TO_END}
    return values, {"samples": [asdict(s) for s in samples], "summary": summary}


def traced(workload, args, command, output, checked) -> tuple[dict, dict]:
    """Per-layer metrics: traced and untraced children in turn."""
    trace_path = OUT_DIR / f"{workload.name}.trace.json"
    tracer_argv = [
        sys.executable, str(BENCH_DIR / "tracer.py"), "--workload", workload.name,
        "--seed", str(args.seed), "--out", str(output), "--trace-out", str(trace_path),
    ] + (["--tiny"] if args.tiny else [])
    traces = []

    def traced_child() -> Sample:
        trace_path.unlink(missing_ok=True)
        sample = checked(tracer_argv)
        if trace_path.exists():
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
        return sample

    untraced, traced_samples = measure(args.seconds, [lambda: checked(command), traced_child])
    if len(traces) != len(traced_samples) + 1:
        raise RuntimeError(f"a traced run wrote no trace; see {OUT_DIR}")
    # the first trace is the untimed warm-up round's
    per_run = [tracer.layer_metrics(t) for t in traces[1:]]
    # one whole run, so that its self times add up to its wall time
    chosen = sorted(per_run, key=lambda m: m["trace.wall_s"])[(len(per_run) - 1) // 2]
    overhead = (
        statistics.median(s.wall_s for s in traced_samples)
        / statistics.median(s.wall_s for s in untraced)
        - 1.0
    )
    values = {**chosen, "trace_overhead_frac": overhead}
    print(
        f"{workload.name}: {len(traced_samples)} traced and {len(untraced)} untraced runs, "
        f"seed {args.seed}; per-layer metrics of the median traced run"
    )
    for metric, unit in tracer.PER_LAYER.items():
        print(f"  {metric:<46} {values[metric]:.6g} {unit}")
    detail = {
        "untraced": [asdict(s) for s in untraced],
        "traced": [asdict(s) for s in traced_samples],
        "per_run_layers": per_run,
        "traces": traces,
    }
    return values, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "agecast" / "__init__.py").is_file():
        print(f"perfbench: no agecast sources at {SRC / 'agecast'}", file=sys.stderr)
        return 2
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.tiny)[args.workload]
    env = child_env()
    checker = Checker(workload, args.seed, args.tiny, env)
    output = OUT_DIR / f"{workload.name}{workload.suffix}"
    stdout = output if workload.stdout_report else output.with_suffix(".stdout")
    command = workload.command(args.seed, str(output))

    def checked(argv: list[str]) -> Sample:
        output.unlink(missing_ok=True)
        sample = run_child(argv, env, stdout)
        checker.check(sample.returncode, output)
        return sample

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    record["host"] = helper("host.py", [], env)
    print(host.describe(record["host"]))
    if args.trace:
        values, detail = traced(workload, args, command, output, checked)
        units = tracer.PER_LAYER
    else:
        values, detail = timed(workload, args, command, env, checked)
        units = END_TO_END
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}

    failed_frac = checker.failed / checker.attempted
    print(f"  {'failed_frac':<12} {failed_frac:.6g} ratio  ({checker.failed} of {checker.attempted} operations)")
    for problem in checker.problems[:20]:
        print(f"  check failed: {problem}")
    record.update(detail, attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems, metrics=metrics)
    result_path = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record), encoding="utf-8")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
