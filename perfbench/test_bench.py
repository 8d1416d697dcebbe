"""The benchmark's own test: every workload at a tiny size, and the checks.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.build(tiny=True)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        # self times, the import and the tracer's own share tile the traced wall time
        parts = sum(v for m, v in values.items() if m.endswith(".self_s")) + values["cli.import_s"]
        assert parts == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(values[m["name"]] > 0 for m in wanted)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "sweep_k_sexp", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _output(workload: workloads.Workload, tmp_path: Path) -> bytes:
    """One correct output of ``workload``, made in this process."""
    from agecast.cli import main

    import theory_job

    out = tmp_path / f"out{workload.suffix}"
    args = workload.program_args(7, str(out))
    assert (theory_job.main(args) if workload.library else main(args)) == 0
    return out.read_bytes() if out.exists() else b""


def _set_cell(data: bytes, row: int, column: int, text: str) -> bytes:
    lines = data.decode().split("\n")
    cells = lines[row].split(",")
    cells[column] = text
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


def test_corrupted_sweep_cell_fails_one_operation(tmp_path):
    w = TINY["sweep_k_sexp"]
    data = _output(w, tmp_path)
    assert checks.check_sweep(w, 7, 0, data).failed == 0
    # delta_p_sim of k=2, pushed far outside the tolerance
    sim = float(data.decode().split("\n")[2].split(",")[2])
    outcome = checks.check_sweep(w, 7, 0, _set_cell(data, 2, 2, repr(sim * 1.5)))
    assert (outcome.attempted, outcome.failed) == (w.operations, 1)


def test_flipped_ledger_delivery_fails(tmp_path):
    w = TINY["ledger_k20"]
    data = _output(w, tmp_path)
    assert checks.check_ledger(w, 7, 0, data).failed == 0
    flag = data.decode().split("\n")[5].split(",")[4]
    assert checks.check_ledger(w, 7, 0, _set_cell(data, 5, 4, "0" if flag == "1" else "1")).failed == 1
    # the same rows are wrong for another seed
    assert checks.check_ledger(w, 8, 0, data).failed == 1


def test_failed_validate_check_counts(tmp_path, capsys):
    w = TINY["validate_all"]
    _output(w, tmp_path)
    report = capsys.readouterr().out.encode()
    assert checks.check_validate(w, 7, 0, report).failed == 0
    outcome = checks.check_validate(w, 7, 1, report.replace(b"PASS  csv_round_trip", b"FAIL  csv_round_trip"))
    assert (outcome.attempted, outcome.failed) == (len(workloads.CHECK_NAMES), 1)


def test_wrong_closed_form_point_fails(tmp_path):
    w = TINY["theory_k1000"]
    data = _output(w, tmp_path)
    assert checks.check_theory(w, 7, 0, data).failed == 0
    curves = json.loads(data)
    curves["sexp"][4][2] += 1e-6  # non-priority age at k=5 breaks the c/k gap
    outcome = checks.check_theory(w, 7, 0, json.dumps(curves).encode())
    assert (outcome.attempted, outcome.failed) == (w.operations, 1)
