"""Seeded outputs pinned bit for bit.

A refactor of the simulator, the estimators or the checks must leave
these numbers and bytes exactly as they are.  They change only with a
contract change (the random-stream layout, the CSV schema or a check's
detail line), which is declared in CHANGES.md together with the new pins.
"""

import hashlib

from agecast import ServiceDistribution, SimConfig, run_simulation
from agecast.cli import main


def test_readme_quick_start_hats():
    law = ServiceDistribution.shifted_exponential(1.0, 1.0)
    sim = run_simulation(SimConfig(dist=law, k=1, num_intervals=100_000, seed=1729))
    assert sim.age_priority_hat == 3.2487716960831516
    assert sim.age_nonpriority_hat == 4.241061565046557


def sweep_csv_sha256(tmp_path, argv):
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--tolerance", "1", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_sweep_k_csv(tmp_path):
    digest = sweep_csv_sha256(
        tmp_path,
        [
            "sweep-k", "--dist", "sexp", "--lambda", "1", "--shift", "1",
            "--k", "1..4", "--intervals", "5000", "--replications", "2",
            "--seed", "5",
        ],
    )
    assert digest == SWEEP_K_SHA256


def test_sweep_shift_csv(tmp_path):
    digest = sweep_csv_sha256(
        tmp_path,
        [
            "sweep-shift", "--dist", "sexp", "--lambda", "2", "--k", "3",
            "--c-values", "0,0.5,1", "--intervals", "5000", "--replications", "2",
            "--seed", "9",
        ],
    )
    assert digest == SWEEP_SHIFT_SHA256


def ledger_csv_sha256(tmp_path, k, intervals, seed, *options):
    out = tmp_path / "ledger.csv"
    argv = ["ledger", "--k", str(k), "--intervals", str(intervals), "--seed", str(seed)]
    assert main(argv + [*options, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_ledger_csv_short(tmp_path):
    assert ledger_csv_sha256(tmp_path, 3, 5_000, 11) == LEDGER_5000_SHA256


def test_ledger_csv_long(tmp_path):
    assert ledger_csv_sha256(tmp_path, 3, 100_000, 13) == LEDGER_100000_SHA256


def test_ledger_csv_below_one_and_negative_exponents(tmp_path):
    # 12298 positional fields below 1, most of them 0.000..., and 2702 in
    # exponent form with negative exponents
    digest = ledger_csv_sha256(tmp_path, 3, 5_000, 17, "--lambda", "3e3")
    assert digest == LEDGER_FAST_SHA256


def test_ledger_csv_large_integers_and_positive_exponents(tmp_path):
    # 978 positional fields with 13 to 16 digits before the point, 664 of
    # them ending in .0, and 14022 in exponent form from e+16 up
    digest = ledger_csv_sha256(tmp_path, 3, 5_000, 17, "--lambda", "1e-17")
    assert digest == LEDGER_SLOW_SHA256


def test_validate_stdout(capsys):
    assert main(["validate", "--intervals", "2000", "--replications", "2"]) == 0
    assert capsys.readouterr().out == VALIDATE_STDOUT
    # at the defaults, every streamed run spans several blocks of rows
    streamed = "order_stat_monte_carlo,simulation_moments,cycle_bookkeeping"
    assert main(["validate", "--checks", streamed, "--seed", "5"]) == 0
    assert capsys.readouterr().out == STREAMED_STDOUT


SWEEP_K_SHA256 = "6acc9511ee4aa64bf81412e3401607e7fdf53654aff79b6545282fd4d73b36cf"
SWEEP_SHIFT_SHA256 = "3e506be975b95159913c6c86314cf8262b8388fb882b70e3825a66d2541145e0"
LEDGER_5000_SHA256 = "2c17399188783c64ee2462cc390afe8567c97f8ea05ef8681fc75b0e7566280b"
LEDGER_100000_SHA256 = "6bd7210d69119194bf941db9fe540f6410c49269c08c1d7681b97c8be8254a55"
LEDGER_FAST_SHA256 = "03b5721c49c07447891fbb1c954571e06fe303bd3b511de036a73105aefd8963"
LEDGER_SLOW_SHA256 = "049511b89e507e7c356e5ac091dca1a5399ee76037ba4ea8873632bd2895e3bd"
VALIDATE_STDOUT = """\
PASS  exponential_age_identity      max deviation 3.553e-15 over k=1..200, four rates
PASS  priority_bound_dominance      0 violations over 9000 grid points; gap shrinks from k=10 to k=1000: True
PASS  shifted_exp_reduction         max relative deviation 2.059e-16
PASS  formula_path_equivalence      max relative deviation 4.203e-16 over 50 random laws
PASS  conditional_interval_mixture  max deviation 3.553e-15 over k=1..200 grids
PASS  harmonic_series_identity      max relative deviation 8.694e-15 up to k=10000
PASS  order_stat_monotonicity       strict mean growth, var growth
PASS  order_stat_monte_carlo        worst moment deviation 2.49 se over 20 laws, 10000 draws each
PASS  simulation_moments            worst deviation 3.13 se (y at rate=1.0, shift=0.0, k=2)
PASS  cycle_bookkeeping             interval tiling True, span bound True, |corr(M, closing Y)| = 0.0465
PASS  estimator_agreement           worst deviation at 0.09 of allowance
PASS  age_regression                max relative error 0.00697 vs tolerance 0.02 (priority exp k=1)
PASS  csv_round_trip                rows identical True, bytes identical True
PASS  simulation_determinism        bit-identical repeat
14/14 checks passed
"""
STREAMED_STDOUT = """\
PASS  order_stat_monte_carlo  worst moment deviation 2.17 se over 20 laws, 100000 draws each
PASS  simulation_moments      worst deviation 1.07 se (w at rate=1.0, shift=1.0, k=5)
PASS  cycle_bookkeeping       interval tiling True, span bound True, |corr(M, closing Y)| = 0.0058
3/3 checks passed
"""
