"""Argument parsing, config files, exit codes and end-to-end runs."""

import faulthandler
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import agecast
from agecast.cli import _age_text, main, parse_config
from agecast.simulator import _run_bytes, simulate_ledger
from agecast.sweeps import CSV_COLUMNS, SweepSpec, read_report_csv


def expect_usage_error(argv):
    # refused while parsing (SystemExit) or by the run before any output
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2


class TestParsing:
    def test_sweep_k_range(self):
        command, spec = parse_config(["sweep-k", "--k", "2..4", "--lambda", "2.0"])
        assert command == "sweep-k"
        assert isinstance(spec, SweepSpec)
        assert spec.values == (2, 3, 4)
        assert spec.rate == 2.0
        assert spec.shift == 0.0
        assert spec.num_intervals == 100_000
        assert spec.replications == 8
        assert spec.seed == 1729
        assert spec.tolerance == 0.02
        assert spec.out_path is None

    def test_sweep_k_single_value(self):
        _, spec = parse_config(["sweep-k", "--k", "7"])
        assert spec.values == (7,)

    def test_sweep_shift(self):
        command, spec = parse_config(
            [
                "sweep-shift", "--dist", "sexp", "--k", "5",
                "--c-values", "0,0.5,1", "--lambda", "2",
            ]
        )
        assert command == "sweep-shift"
        assert spec.variable == "c"
        assert spec.values == (0.0, 0.5, 1.0)
        assert spec.k == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-k", "--k", "2", "--lambda", "0"],
            ["sweep-k", "--k", "2", "--lambda", "fast"],
            ["sweep-k", "--k", "3..1"],
            ["sweep-k", "--k", "x"],
            ["sweep-k", "--k", "2", "--shift", "-1"],
            ["sweep-k", "--k", "2", "--shift", "1"],
            ["sweep-k", "--k", "2", "--seed", "-3"],
            ["sweep-k"],
            ["sweep-shift", "--dist", "exp", "--k", "2", "--c-values", "0,1"],
            ["sweep-shift", "--dist", "sexp", "--k", "2"],
            ["sweep-shift", "--dist", "sexp", "--k", "1..3", "--c-values", "0,1"],
            ["sweep-shift", "--dist", "sexp", "--k", "2", "--c-values", "1,0"],
            ["ledger", "--k", "2"],
            ["ledger", "--k", "1..3", "--out", "x.csv"],
            ["validate", "--checks", "no_such_check"],
            ["no-such-command"],
            ["sweep-k", "--k", "2", "--intervals", "1"],
            ["validate", "--intervals", "1"],
            ["validate", "--replications", "0"],
            ["ledger", "--k", "2", "--intervals", "0", "--out", "x.csv"],
            ["ledger", "--k", "2", "--seed", "-1", "--out", "x.csv"],
            ["validate", "--tolerance", "nan"],
            ["validate", "--tolerance", "inf"],
            ["ledger", "--dist", "exp", "--shift", "1", "--k", "2", "--out", "x.csv"],
            ["validate", "--checks", ","],
            ["validate", "--checks", ""],
            ["sweep-k", "--k", "4194304"],
            ["sweep-shift", "--dist", "sexp", "--k", "4194304", "--c-values", "0,1"],
            # refused from its length, before a billion-entry range is built
            ["sweep-k", "--k", "1..1000000000"],
            ["sweep-k", "--k=-1000000000..1"],
            ["ledger", "--k=-1000000000..1", "--out", "x.csv"],
            # too short to form a cycle or both delivery outcomes
            ["validate", "--intervals", "2", "--replications", "2"],
            [
                "validate", "--intervals", "3", "--replications", "1",
                "--checks", "estimator_agreement",
            ],
            [
                "validate", "--intervals", "2", "--replications", "1",
                "--checks", "simulation_moments",
            ],
            # laws whose closed forms would overflow
            [
                "sweep-k", "--k", "1", "--lambda", "1e-320",
                "--intervals", "100", "--replications", "2",
            ],
            [
                "sweep-shift", "--dist", "sexp", "--k", "2", "--c-values", "0,1e308",
                "--intervals", "100", "--replications", "2",
            ],
            # laws whose simulated service times round to the shift
            [
                "ledger", "--dist", "sexp", "--lambda", "1e100", "--shift", "1",
                "--k", "2", "--intervals", "5", "--out", "x.csv",
            ],
            [
                "sweep-k", "--dist", "sexp", "--lambda", "1e100", "--shift", "1e100",
                "--k", "1", "--intervals", "100", "--replications", "2",
            ],
            [
                "sweep-shift", "--dist", "sexp", "--lambda", "1e6", "--k", "2",
                "--c-values", "0,1e4", "--intervals", "100", "--replications", "2",
            ],
            # one cycle, too few to correlate M with the closing interval
            [
                "validate", "--intervals", "3", "--replications", "1",
                "--checks", "cycle_bookkeeping",
            ],
            # arrays larger than any host's memory, refused before they are made
            [
                "sweep-k", "--k", "1..2", "--intervals", "10000000000000",
                "--replications", "2", "--out", "x.csv",
            ],
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        expect_usage_error(argv)

    @pytest.mark.skipif(not hasattr(os, "sysconf"), reason="needs os.sysconf")
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-k", "--k", "1..2", "--intervals", "10000000000000"],
            [
                "sweep-shift", "--dist", "sexp", "--k", "2", "--c-values", "0,1",
                "--intervals", "10000000000000",
            ],
            # the replication workspaces and order_stat_monte_carlo's column of
            # intervals draws would exceed memory; refused when parsed, before
            # any check runs
            ["validate", "--intervals", "20000000000"],
        ],
    )
    def test_request_beyond_memory_is_refused_naming_intervals(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert "intervals too large" in capsys.readouterr().err

    @pytest.mark.parametrize("answer", [ValueError("unrecognized configuration name"), -1])
    def test_memory_check_is_skipped_without_sysconf(self, monkeypatch, answer):
        def sysconf(name):
            if isinstance(answer, Exception):
                raise answer
            return answer

        monkeypatch.setattr(os, "sysconf", sysconf, raising=False)
        _, spec = parse_config(["sweep-k", "--k", "1..2", "--intervals", "10000000000000"])
        assert spec.num_intervals == 10**13
        _, (ledger, _) = parse_config(
            ["ledger", "--k", "2", "--intervals", "10000000000000", "--out", "x.csv"]
        )
        assert ledger.num_intervals == 10**13
        _, (settings, _) = parse_config(["validate", "--intervals", "20000000000"])
        assert settings.num_intervals == 2 * 10**10

    def test_validate_is_refused_by_the_arrays_its_checks_hold(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pages = {"SC_PHYS_PAGES": 34_000, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__, raising=False)
        memory = 34_000 * 4096
        # age_regression's runs on 2 threads and order_stat_monte_carlo's 16
        # bytes per draw fit; with the 33 bytes per interval of a whole
        # ledger for cycle_bookkeeping, which now streams, they would not
        assert _run_bytes(10**6, 8) + 33 * 10**6 > memory >= _run_bytes(10**6, 8) + 16 * 10**6
        assert _run_bytes(1_100_000, 8) + 16 * 1_100_000 > memory
        _, (settings, _) = parse_config(["validate", "--intervals", "1000000"])
        assert settings.num_intervals == 10**6
        with pytest.raises(SystemExit) as exc:
            parse_config(["validate", "--intervals", "1100000"])
        assert exc.value.code == 2
        assert "intervals too large" in capsys.readouterr().err

    def test_a_ledger_of_any_length_is_accepted(self):
        # the writer holds a few tasks of rows whatever the length, so no
        # memory check refuses it; parsed only, never run
        _, (spec, out) = parse_config(
            ["ledger", "--k", "2", "--intervals", "10000000000000", "--out", "x.csv"]
        )
        assert (spec.num_intervals, out) == (10**13, "x.csv")

    def test_largest_k_accepted(self):
        _, spec = parse_config(["sweep-k", "--k", "4194303"])
        assert spec.values == (4194303,)

    def test_ledger_k_capped_like_sweeps(self, capsys):
        # parsed only: a run at this k would draw k+1 columns per interval
        for k in ("5000000", "5000000..5000000"):
            with pytest.raises(SystemExit) as exc:
                parse_config(["ledger", "--k", k, "--out", "x.csv"])
            assert exc.value.code == 2
            assert "k must be at most 4194303, got 5000000" in capsys.readouterr().err
        _, (ledger, _) = parse_config(["ledger", "--k", "4194303", "--out", "x.csv"])
        assert ledger.k == 4194303


class TestConfigFile:
    def test_file_values_override_defaults(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# sweep setup\n\nlambda = 2.0\nk = 1..2\nintervals = 5000\n",
            encoding="utf-8",
        )
        _, spec = parse_config(["sweep-k", "--config", str(config)])
        assert spec.rate == 2.0
        assert spec.values == (1, 2)
        assert spec.num_intervals == 5000

    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lambda=2.0\nk=1..2\n", encoding="utf-8")
        _, spec = parse_config(
            ["sweep-k", "--config", str(config), "--lambda", "3.0"]
        )
        assert spec.rate == 3.0
        assert spec.values == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("velocity=9\n", encoding="utf-8")
        expect_usage_error(["sweep-k", "--k", "1", "--config", str(config)])

    def test_malformed_line_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n", encoding="utf-8")
        expect_usage_error(["sweep-k", "--k", "1", "--config", str(config)])

    def test_bad_value_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lambda=-2\n", encoding="utf-8")
        expect_usage_error(["sweep-k", "--k", "1", "--config", str(config)])

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["ledger", "--k", "2", "--intervals", "10", "--out", "o.csv"], "replications=3"),
            (["sweep-k", "--k", "1"], "c_values=1,2"),
            (["validate"], "lambda=2"),
        ],
    )
    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys, argv, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        expect_usage_error(argv + ["--config", str(config)])
        key = line.partition("=")[0].replace("lambda", "rate")
        assert f"unknown key {key!r} for {argv[0]}" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path):
        expect_usage_error(
            ["sweep-k", "--k", "1", "--config", str(tmp_path / "absent.cfg")]
        )


class TestLedgerCommand:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "draws.csv"
        code = main(
            [
                "ledger", "--k", "2", "--intervals", "50",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "j,Y_j,X_1j,X_nonp_j,delivered"
        assert len(lines) == 51
        assert f"wrote {out}" in capsys.readouterr().out

    # 100000 rows are formatted on a worker pool; two CPUs make one on any host
    POOLED = ["ledger", "--k", "3", "--intervals", "100000", "--seed", "13"]

    @pytest.fixture(autouse=True)
    def no_hang(self):
        # a pool that hangs ends the test run with every thread's traceback
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_pooled_dump_leaves_no_workers(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "draws.csv"
        assert main(self.POOLED + ["--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        # the forked workers flush none of the parent's output
        assert capsys.readouterr().out.count("wrote") == 1

    @pytest.mark.parametrize(
        "cpus, argv",
        [(1, ["ledger", "--k", "3", "--intervals", "5000", "--seed", "11"]), (2, POOLED)],
    )
    def test_printed_deliveries_are_those_of_the_whole_draw(
        self, tmp_path, monkeypatch, capsys, cpus, argv
    ):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        out = tmp_path / "draws.csv"
        assert main(argv + ["--out", str(out)]) == 0
        _, (spec, _) = parse_config(argv + ["--out", str(out)])
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        ledger = simulate_ledger(spec.dist, spec.k, spec.num_intervals, rng)
        deliveries = int(ledger.delivered.sum())
        assert capsys.readouterr().out == (
            f"wrote {out}: {spec.num_intervals} intervals, {deliveries} deliveries\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2_and_leaves_no_workers(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(self.POOLED + ["--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []


class TestSweepCommands:
    def test_sweep_k_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "by_k.csv"
        argv = [
            "sweep-k", "--k", "1..2", "--intervals", "3000",
            "--replications", "2", "--seed", "3",
            "--tolerance", "0.2", "--out", str(out),
        ]
        assert main(argv) == 0
        report = read_report_csv(out)
        assert len(report.rows) == 2
        printed = capsys.readouterr().out
        assert "k=1" in printed and "k=2" in printed
        assert f"wrote {out}" in printed

        again = tmp_path / "again.csv"
        assert main(argv[:-1] + [str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_csv_independent_of_blas_threads(self, tmp_path):
        # each run is a fresh process, since BLAS reads its thread count
        # once at load time
        package_root = str(Path(agecast.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (package_root, env.get("PYTHONPATH")))
            )
            subprocess.run(
                [
                    sys.executable, "-m", "agecast.cli", "sweep-k",
                    "--dist", "sexp", "--lambda", "1", "--shift", "1",
                    "--k", "1..3", "--intervals", "20000",
                    "--replications", "2", "--seed", "7", "--out", str(out),
                ],
                env=env,
                check=True,
                capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sweep_shift_end_to_end(self, tmp_path):
        out = tmp_path / "by_c.csv"
        code = main(
            [
                "sweep-shift", "--dist", "sexp", "--k", "2",
                "--c-values", "0,1", "--lambda", "1",
                "--intervals", "3000", "--replications", "2",
                "--seed", "4", "--tolerance", "0.2", "--out", str(out),
            ]
        )
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_zero_tolerance_fails_but_still_writes(self, tmp_path, capsys):
        out = tmp_path / "strict.csv"
        code = main(
            [
                "sweep-k", "--k", "1", "--intervals", "3000",
                "--replications", "2", "--seed", "3",
                "--tolerance", "0", "--out", str(out),
            ]
        )
        assert code == 1
        assert out.exists()
        assert "tolerance exceeded" in capsys.readouterr().err

    def test_too_short_sweep_exits_2_and_leaves_no_thread(self, capsys):
        before = threading.active_count()
        assert main(["sweep-k", "--k", "1..3", "--intervals", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "agecast: replication too short to observe both delivery outcomes\n"
        assert captured.out == ""
        assert threading.active_count() == before

    def test_ages_out_of_fixed_point_range_print_in_e_notation(self, capsys):
        argv = ["sweep-k", "--k", "1..2", "--intervals", "1000", "--replications", "2"]
        # 6 decimals showed 0.000000 at rate 1e100, and 101-digit integers at 1e-100
        assert main(argv + ["--lambda", "1e100"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (
            "k=1  delta_p=2.000000e-100 (sim 1.893185e-100 +- 2.819715e-102)"
            "  delta_e=2.000000e-100 (sim 1.877555e-100 +- 1.611431e-102)"
        )
        # the W^2 samples, about 1e200, have a variance about 1e400 that
        # must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--lambda", "1e-100"]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (
            "k=1  delta_p=2.000000e+100 (sim 1.893185e+100 +- 2.819715e+98)"
            "  delta_e=2.000000e+100 (sim 1.877555e+100 +- 1.611431e+98)"
        )

    @pytest.mark.parametrize(
        "value, text",
        [
            (0.0, "0.000000"),
            (3.25, "3.250000"),
            (5.000001e-7, "0.000001"),
            (5e-7, "5.000000e-07"),
            (4e-7, "4.000000e-07"),
            (9999999999999998.0, "9999999999999998.000000"),
            (1e16, "1.000000e+16"),
            (float("inf"), "inf"),
            (float("nan"), "nan"),
        ],
    )
    def test_age_text(self, value, text):
        assert _age_text(value) == text

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir.csv"
        code = main(
            [
                "sweep-k", "--k", "1", "--intervals", "3000",
                "--replications", "2", "--out", str(out),
            ]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestValidateCommand:
    def test_fast_subset_passes(self, capsys):
        code = main(
            [
                "validate",
                "--checks", "harmonic_series_identity,order_stat_monotonicity",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "2/2 checks passed" in printed
        assert "FAIL" not in printed

    def test_zero_tolerance_regression_fails(self, capsys):
        code = main(
            [
                "validate", "--checks", "age_regression",
                "--tolerance", "0", "--intervals", "2000",
                "--replications", "2",
            ]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        assert "0/1 checks passed" in printed

    def test_too_short_run_exits_2_and_leaves_no_thread(self, monkeypatch, capsys):
        # several checks raise on two CPUs; the first in check order is reported
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        before = threading.active_count()
        assert main(["validate", "--intervals", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "agecast: simulation moments need at least 2 samples of yf, got 1\n"
        assert captured.out == ""
        assert threading.active_count() == before

    @pytest.mark.parametrize("intervals", ["4", "5"])
    def test_constant_cycle_counts_pass_without_warnings(self, intervals, capsys):
        # 2 or 3 cycles of one interval each at the default seed: a
        # constant M has no correlation to estimate
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["validate", "--intervals", intervals, "--checks", "cycle_bookkeeping"]
            )
        assert code == 0
        assert "|corr(M, closing Y)| = 0.0000" in capsys.readouterr().out

    def test_failed_allocation_exits_2(self, monkeypatch, capsys):
        # what the memory check cannot foresee still ends without a traceback
        def out_of_memory(spec):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(agecast.cli, "sweep_k", out_of_memory)
        assert main(["sweep-k", "--k", "1..2", "--intervals", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "agecast: out of memory: Unable to allocate 1.00 TiB\n"
        assert captured.out == ""

    def test_closed_stdout_exits_2(self, monkeypatch, capsys):
        # a reader that went away (agecast validate | head -1) is an
        # unwritable output like any other, not a traceback
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["validate", "--checks", "harmonic_series_identity"])
        assert code == 2
        assert "cannot write output: [Errno 32] Broken pipe" in capsys.readouterr().err


def test_import_loads_neither_numpy_random_nor_a_pool_module():
    # numpy loads numpy.random on first use, which adds about 6 MB of RSS
    # to the import; agecast needs it only once it runs.  The ledger's
    # float kernel builds its tables on import, for the ledger alone
    package_root = str(Path(agecast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    lazy = ("numpy.random", "multiprocessing", "concurrent.futures", "agecast._shortest")
    code = "import sys, agecast.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code, *lazy], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.split() == []


def run_fresh(code, **env_changes):
    """The stdout of a fresh interpreter running ``code`` with agecast importable."""
    package_root = str(Path(agecast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_threads():
    # OpenBLAS starts one thread per CPU when numpy loads it unless told not to
    code = "import os, agecast.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    assert run_fresh(code, OPENBLAS_NUM_THREADS=None) == "1"


def test_a_blas_thread_count_the_user_set_wins():
    code = "import os, agecast.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh(code, OPENBLAS_NUM_THREADS="3") == "3"


def test_package_names_load_on_first_use():
    code = "import sys, agecast; print('numpy' in sys.modules)"
    assert run_fresh(code) == "False"
    for name in agecast.__all__:
        assert getattr(agecast, name) is not None
    assert set(agecast.__all__) <= set(dir(agecast))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        agecast.nothing
