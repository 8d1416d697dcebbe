"""Sweep drivers, report math and the CSV schema."""

import math

import numpy as np
import pytest

from agecast.sweeps import (
    CSV_COLUMNS,
    SweepSpec,
    read_report_csv,
    sweep_k,
    sweep_shift,
    write_report_csv,
)


def k_spec(**overrides):
    base = dict(
        variable="k",
        values=(1, 2, 5),
        rate=1.0,
        shift=0.0,
        k=1,
        num_intervals=4000,
        replications=2,
        seed=11,
        tolerance=0.05,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture(scope="module")
def exp_report():
    return sweep_k(k_spec())


@pytest.fixture(scope="module")
def sexp_report():
    return sweep_k(k_spec(shift=1.0, seed=12))


@pytest.fixture(scope="module")
def shift_report():
    return sweep_shift(
        k_spec(
            variable="c",
            values=(0.0, 0.5, 1.0, 2.0),
            rate=2.0,
            k=5,
            seed=13,
        )
    )


class TestSweepSpec:
    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(variable="rho"), "variable"),
            (dict(values=()), "non-empty"),
            (dict(values=(2, 1)), "increasing"),
            (dict(values=(1, 1)), "increasing"),
            (dict(values=(1, 2.5)), "k values"),
            (dict(variable="c", values=(-0.5, 1.0)), "nonnegative"),
            (dict(variable="c", values=(0.0, 1.0), k=0), "fixed k"),
            (dict(rate=0.0), "rate"),
            (dict(shift=-1.0), "shift"),
            (dict(tolerance=-0.1), "tolerance"),
            (dict(values=(1, "2")), "k values"),
            (dict(values=(None,)), "k values"),
            (dict(values=(0, 1)), "k values"),
            (dict(variable="c", values=(0.0, math.nan)), "c values"),
            (dict(variable="c", values=(math.inf,)), "c values"),
            (dict(variable="c", values=("1",)), "c values"),
            (dict(variable="c", values=(0.0, 1.0), k=2.0), "fixed k"),
            (dict(rate="1"), "rate"),
            (dict(rate=None), "rate"),
            (dict(rate=math.nan), "rate"),
            (dict(rate=math.inf), "rate"),
            (dict(rate=-1), "rate"),
            (dict(shift=None), "shift"),
            (dict(shift=math.inf), "shift"),
            (dict(tolerance="0.1"), "tolerance"),
            (dict(tolerance=math.nan), "tolerance"),
            (dict(tolerance=math.inf), "tolerance"),
            (dict(num_intervals=1), "num_intervals"),
            (dict(num_intervals=4000.0), "num_intervals"),
            (dict(replications=0), "replications"),
            (dict(seed=-1), "seed"),
            (dict(values=(1, 4194304)), "k values must be at most 4194303"),
            (dict(variable="c", values=(0.0, 1.0), k=4194304), "fixed k must be at most"),
            (dict(rate=1e-320), "rate must lie in"),
            (dict(variable="c", values=(0.0, 1e308)), "shift must be at most"),
        ],
    )
    def test_rejects_bad_specs(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            k_spec(**overrides)

    def test_numpy_scalars_accepted(self):
        spec = k_spec(
            values=tuple(np.int64(v) for v in (1, 2, 5)),
            rate=np.float32(1.5),
            shift=np.int64(1),
            num_intervals=np.int64(4000),
            seed=np.uint64(11),
            tolerance=np.float32(0.5),
        )
        assert spec.values == (1, 2, 5)
        assert all(type(v) is int for v in spec.values)
        for name in ("num_intervals", "replications", "seed"):
            assert type(getattr(spec, name)) is int
        for name in ("rate", "shift", "tolerance"):
            assert type(getattr(spec, name)) is float
        assert (spec.rate, spec.shift, spec.tolerance) == (1.5, 1.0, 0.5)
        spec = k_spec(variable="c", values=(np.int64(0), np.float32(0.5)), k=np.int64(5))
        assert spec.values == (0.0, 0.5)
        assert all(type(v) is float for v in spec.values)
        assert type(spec.k) is int and spec.k == 5

    def test_wrong_variable_routing(self):
        with pytest.raises(ValueError, match="sweep_k"):
            sweep_k(k_spec(variable="c", values=(0.0, 1.0)))
        with pytest.raises(ValueError, match="sweep_shift"):
            sweep_shift(k_spec())


class TestSweepK:
    def test_row_shape(self, exp_report):
        assert exp_report.variable == "k"
        assert [row.sweep_value for row in exp_report.rows] == [1.0, 2.0, 5.0]

    def test_exponential_classes_age_alike(self, exp_report):
        for row in exp_report.rows:
            assert row.delta_e_theory == pytest.approx(row.delta_p_theory, abs=1e-10)
            assert row.lower_bound is None

    def test_relerr_recomputes(self, exp_report):
        for row in exp_report.rows:
            assert row.relerr_p == pytest.approx(
                abs(row.delta_p_sim - row.delta_p_theory) / row.delta_p_theory
            )
            assert row.relerr_e == pytest.approx(
                abs(row.delta_e_sim - row.delta_e_theory) / row.delta_e_theory
            )

    def test_sim_tracks_theory(self, exp_report):
        assert exp_report.max_relerr() < 0.05

    def test_shifted_rows_carry_bound(self, sexp_report):
        for row in sexp_report.rows:
            assert row.lower_bound is not None
            assert row.lower_bound < row.delta_p_theory

    def test_gap_is_shift_over_k(self, sexp_report):
        # for the shifted exponential the class gap collapses to c/k
        gaps = sexp_report.gaps()
        for gap, k in zip(gaps, (1, 2, 5)):
            assert gap == pytest.approx(1.0 / k, rel=1e-9)


class TestSweepShift:
    def test_zero_shift_closes_the_gap(self, shift_report):
        first = shift_report.rows[0]
        assert first.sweep_value == 0.0
        assert first.delta_e_theory == pytest.approx(first.delta_p_theory, abs=1e-10)

    def test_gap_grows_linearly_with_shift(self, shift_report):
        gaps = shift_report.gaps()
        for gap, c in zip(gaps, (0.0, 0.5, 1.0, 2.0)):
            assert gap == pytest.approx(c / 5, abs=1e-9)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_known_point(self, shift_report):
        row = shift_report.rows[2]
        assert row.sweep_value == 1.0
        assert row.delta_p_theory == pytest.approx(2.6562581063553825, rel=1e-12)

    def test_bound_present_on_every_row(self, shift_report):
        assert all(row.lower_bound is not None for row in shift_report.rows)


class TestReportCsv:
    def test_round_trip(self, tmp_path, exp_report, sexp_report):
        for name, report in (("exp.csv", exp_report), ("sexp.csv", sexp_report)):
            path = tmp_path / name
            write_report_csv(report, path)
            again = read_report_csv(path)
            assert again.rows == report.rows
            rewrite = tmp_path / ("re_" + name)
            write_report_csv(again, rewrite)
            assert rewrite.read_bytes() == path.read_bytes()

    def test_header(self, tmp_path, exp_report):
        path = tmp_path / "report.csv"
        write_report_csv(exp_report, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_report_csv(path)

    def test_columns_follow_the_documented_header(self):
        assert CSV_COLUMNS == (
            "sweep_value", "delta_p_theory", "delta_p_sim", "delta_p_stderr",
            "delta_e_theory", "delta_e_sim", "delta_e_stderr", "lower_bound",
            "relerr_p", "relerr_e",
        )

    def test_rejects_truncated_row(self, tmp_path, exp_report):
        path = tmp_path / "cut.csv"
        write_report_csv(exp_report, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: text.index("\n", text.index("\n") + 1) - 30], encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 10 cells"):
            read_report_csv(path)

    def test_rejects_bad_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "x," * 9 + "x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: could not convert"):
            read_report_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: unexpected CSV header"):
            read_report_csv(path)

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        sweep_k(k_spec(values=(1, 2), num_intervals=2000, out_path=str(first)))
        sweep_k(k_spec(values=(1, 2), num_intervals=2000, out_path=str(second)))
        assert first.read_bytes() == second.read_bytes()

    def test_empty_bound_cells_for_plain_exponential(self, tmp_path, exp_report):
        path = tmp_path / "exp.csv"
        write_report_csv(exp_report, path)
        body = path.read_text(encoding="utf-8").splitlines()[1:]
        bound_col = CSV_COLUMNS.index("lower_bound")
        assert all(line.split(",")[bound_col] == "" for line in body)


class TestTolerance:
    def test_zero_tolerance_never_passes(self, exp_report):
        strict = type(exp_report)(
            variable=exp_report.variable, rows=exp_report.rows, tolerance=0.0
        )
        assert not strict.within_tolerance()
        assert strict.max_relerr() > 0.0

    def test_generous_tolerance_passes(self, exp_report):
        assert exp_report.within_tolerance()
