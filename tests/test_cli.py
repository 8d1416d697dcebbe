"""Argument parsing, config files, exit codes and end-to-end runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import agecast
from agecast.cli import main, parse_config
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
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        expect_usage_error(argv)

    def test_largest_k_accepted(self):
        _, spec = parse_config(["sweep-k", "--k", "4194303"])
        assert spec.values == (4194303,)

    def test_ledger_k_capped_like_sweeps(self, capsys):
        # parsed only: a run at this k would draw blocks of k+1 doubles
        for k in ("5000000", "5000000..5000000"):
            with pytest.raises(SystemExit) as exc:
                parse_config(["ledger", "--k", k, "--out", "x.csv"])
            assert exc.value.code == 2
            assert "k must be at most 4194303, got 5000000" in capsys.readouterr().err
        _, (_, ledger_k, *_) = parse_config(["ledger", "--k", "4194303", "--out", "x.csv"])
        assert ledger_k == 4194303


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
