"""Command-line harness for sweeps, validation and ledger dumps.

Four subcommands: ``sweep-k`` walks the priority group size,
``sweep-shift`` walks the service-time shift, ``validate`` runs the
named self-checks and ``ledger`` dumps raw per-interval draws.  A
subcommand's options may come from a ``key=value`` config file via
``--config``; explicit flags win over file values.  Exit codes: 0 on success, 1 when a
tolerance or self-check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

# agecast calls no BLAS routine, so a CLI process needs no BLAS thread pool;
# OpenBLAS reads this when numpy loads it, which the imports below do first
# unless the caller loaded numpy already.  A value the user set wins.  This
# runs on import, not only in main: a program that imports agecast.cli
# before numpy gets one BLAS thread, and so do the processes it starts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .order_stats import MAX_K, ServiceDistribution
from .simulator import (
    InsufficientDataError,
    LedgerSpec,
    _run_bytes,
    write_ledger_csv,
)
from .sweeps import SweepSpec, sweep_k, sweep_shift
from .validation import ValidationSettings, run_checks, select_checks

__all__ = ["main", "parse_config"]

def _k_values(text: str) -> tuple[int, ...]:
    """Parse --k: a single integer or an inclusive range a..b."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"k range must be integers a..b, got {text!r}"
            )
        if hi < lo:
            raise argparse.ArgumentTypeError(
                f"k range must satisfy a <= b, got {text!r}"
            )
        # checked before the range is built; a longer range is never valid,
        # since every k lies in 1..MAX_K
        if hi - lo >= MAX_K:
            raise argparse.ArgumentTypeError(
                f"k range must hold at most {MAX_K} values, got {text!r}"
            )
        return tuple(range(lo, hi + 1))
    try:
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"k must be an integer or range a..b, got {text!r}"
        )


def _c_values(text: str) -> tuple[float, ...]:
    """Parse --c-values: a comma list of shifts."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"c-values must be a comma list of numbers, got {text!r}"
        )


def _checks(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("checks must name at least one check")
    try:
        return select_checks(names)
    except ValueError as exc:
        # argparse shows its own message for a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


# dest -> (flag, default, argparse keywords).  A config-file value
# converts with the flag's ``type`` (str when it has none).  The types
# check syntax, plus the guards that must run before a value is built;
# the request objects built from these values own the domain ranges.
_OPTIONS = {
    "dist": ("--dist", "exp", dict(choices=("exp", "sexp"), help="service law family")),
    "rate": ("--lambda", 1.0, dict(type=float, help="exponential rate lambda (> 0)")),
    "shift": ("--shift", 0.0, dict(type=float, help="service-time shift c (>= 0)")),
    "k": ("--k", None,
          dict(type=_k_values, help="priority group size: integer or range a..b")),
    "c_values": ("--c-values", None,
                 dict(type=_c_values, help="comma list of shifts to sweep")),
    "intervals": ("--intervals", 100_000,
                  dict(type=int, help="intervals per replication")),
    "replications": ("--replications", 8,
                     dict(type=int, help="independent replications")),
    "seed": ("--seed", 1729, dict(type=int, help="master seed")),
    "out": ("--out", None, dict(help="output CSV path")),
    "tolerance": ("--tolerance", 0.02,
                  dict(type=float, help="max allowed |sim - theory| / theory")),
    "checks": ("--checks", None,
               dict(type=_checks, help="comma list of check names (default: all)")),
    "config": ("--config", None,
               dict(help="key=value file; flags override file values")),
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agecast",
        description="Average age of information: closed forms vs simulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names, _, _) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        for name in names.split():
            flag, _, keywords = _OPTIONS[name]
            sub.add_argument(flag, dest=name, default=None, **keywords)
    return parser


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"config file: {exc}")
    values = {}
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"config file line {number}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "rate"
        values[key] = text.strip()
    return values


def _merge_options(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Built-in defaults, overridden by config file, overridden by flags."""
    given = {
        name: value
        for name, value in vars(args).items()
        if name != "command" and value is not None
    }
    merged = {name: default for name, (_, default, _) in _OPTIONS.items()}
    if args.config is not None:
        # a config file holds the subcommand's options, but never another config file
        keys = set(_COMMANDS[args.command][1].split()) - {"config"}
        for key, text in _read_config_file(args.config, parser).items():
            if key not in keys:
                parser.error(f"config file: unknown key {key!r} for {args.command}")
            try:
                merged[key] = _OPTIONS[key][2].get("type", str)(text)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                parser.error(f"config file: {key}: {exc}")
    merged.update(given)
    if merged["dist"] not in ("exp", "sexp"):
        parser.error(f"dist must be exp or sexp, got {merged['dist']!r}")
    return merged


def _single_k(merged: dict) -> int:
    if merged["k"] is None:
        raise ValueError("k is required")
    if len(merged["k"]) != 1:
        raise ValueError(f"k must be a single integer here, got {merged['k']}")
    return merged["k"][0]


def _check_exp_shift(merged: dict) -> None:
    if merged["dist"] == "exp" and merged["shift"] not in (0, 0.0):
        raise ValueError("shift must be 0 for dist exp; use --dist sexp")


def _check_memory(num_bytes: int) -> None:
    """Refuse a run whose arrays alone exceed this host's physical memory."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return  # no sysconf here, or no such names in it
    # a name the system cannot answer reads -1
    if min(pages, page_size) > 0 and num_bytes > pages * page_size:
        raise ValueError(
            f"intervals too large: the run's arrays need {num_bytes} bytes, "
            f"more than the {pages * page_size} bytes of memory here"
        )


def _sweep_spec(merged: dict, variable: str, values: tuple, shift: float, k: int):
    spec = SweepSpec(
        variable=variable,
        values=values,
        rate=merged["rate"],
        shift=shift,
        k=k,
        num_intervals=merged["intervals"],
        replications=merged["replications"],
        seed=merged["seed"],
        tolerance=merged["tolerance"],
        out_path=merged["out"],
    )
    _check_memory(_run_bytes(spec.num_intervals, spec.replications))
    return spec


def _sweep_k_request(merged: dict) -> SweepSpec:
    _check_exp_shift(merged)
    if merged["k"] is None:
        raise ValueError("k is required")
    return _sweep_spec(merged, "k", merged["k"], merged["shift"], merged["k"][0])


def _sweep_shift_request(merged: dict) -> SweepSpec:
    if merged["dist"] == "exp":
        raise ValueError("sweep-shift varies the shift; dist must be sexp")
    if merged["c_values"] is None:
        raise ValueError("c-values is required")
    return _sweep_spec(merged, "c", merged["c_values"], 0.0, _single_k(merged))


def _validate_request(merged: dict) -> tuple:
    """(settings, check names or None for all) of one validate run."""
    settings = ValidationSettings(
        seed=merged["seed"],
        num_intervals=merged["intervals"],
        replications=merged["replications"],
        tolerance=merged["tolerance"],
    )
    _check_memory(_run_bytes(settings.num_intervals, settings.replications))
    return settings, merged["checks"]


def _ledger_request(merged: dict) -> tuple:
    """(LedgerSpec, out path) of one ledger dump."""
    _check_exp_shift(merged)
    if merged["out"] is None:
        raise ValueError("out is required for ledger dumps")
    spec = LedgerSpec(
        dist=ServiceDistribution(rate=merged["rate"], shift=merged["shift"]),
        k=_single_k(merged),
        num_intervals=merged["intervals"],
        seed=merged["seed"],
    )
    return spec, merged["out"]


def _age_text(value: float) -> str:
    """``value`` to 6 decimals, or to 7 significant digits where 6 decimals
    show no nonzero digit or more than 16 integer digits."""
    text = f"{value:.6f}"
    if value and (not text.strip("-0.") or abs(value) >= 1e16):
        return f"{value:.6e}"
    return text


def _print_report(report, out_path) -> None:
    label = report.variable
    for row in report.rows:
        bound = "" if row.lower_bound is None else f"  bound={_age_text(row.lower_bound)}"
        print(
            f"{label}={row.sweep_value:g}"
            f"  delta_p={_age_text(row.delta_p_theory)} (sim {_age_text(row.delta_p_sim)}"
            f" +- {_age_text(row.delta_p_stderr)})"
            f"  delta_e={_age_text(row.delta_e_theory)} (sim {_age_text(row.delta_e_sim)}"
            f" +- {_age_text(row.delta_e_stderr)}){bound}"
        )
    print(f"max relative error {report.max_relerr():.6f} (tolerance {report.tolerance:g})")
    if out_path is not None:
        print(f"wrote {out_path}")


def _run_sweep(sweep, spec: SweepSpec) -> int:
    report = sweep(spec)
    _print_report(report, spec.out_path)
    if not report.within_tolerance():
        print("tolerance exceeded", file=sys.stderr)
        return 1
    return 0


def _run_validate(request: tuple) -> int:
    settings, names = request
    results = run_checks(settings, names)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _run_ledger(request: tuple) -> int:
    spec, out_path = request
    deliveries = write_ledger_csv(spec, out_path)
    print(f"wrote {out_path}: {spec.num_intervals} intervals, {deliveries} deliveries")
    return 0


# subcommand -> (help, its option dests in --help order, request builder, runner).
# A builder turns the merged options into its runner's request and raises
# ValueError on a usage error.  Runners look sweep_k, sweep_shift, run_checks
# and write_ledger_csv up when they run, so a patched module attribute is used.
_COMMANDS = {
    "sweep-k": (
        "sweep the priority group size",
        "dist rate shift k intervals replications seed out tolerance config",
        _sweep_k_request,
        lambda spec: _run_sweep(sweep_k, spec),
    ),
    "sweep-shift": (
        "sweep the service-time shift",
        "dist rate k c_values intervals replications seed out tolerance config",
        _sweep_shift_request,
        lambda spec: _run_sweep(sweep_shift, spec),
    ),
    "validate": (
        "run the named self-checks",
        "intervals replications seed tolerance checks config",
        _validate_request,
        _run_validate,
    ),
    "ledger": (
        "dump per-interval draws to CSV",
        "dist rate shift k intervals seed out config",
        _ledger_request,
        _run_ledger,
    ),
}


def parse_config(argv=None):
    """Parse flags plus optional config file into one request object.

    Returns ``(command, request)``, where the request is what the
    command's builder in ``_COMMANDS`` makes (a SweepSpec for the two
    sweeps).  Usage problems exit with code 2 and a message naming the
    offending field.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    merged = _merge_options(args, parser)
    try:
        return args.command, _COMMANDS[args.command][2](merged)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    """Run one subcommand; an unwritable output, too short a run or a failed
    allocation exits 2."""
    command, request = parse_config(argv)
    try:
        return _COMMANDS[command][3](request)
    except OSError as exc:
        print(f"agecast: cannot write output: {exc}", file=sys.stderr)
    except InsufficientDataError as exc:
        print(f"agecast: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"agecast: out of memory: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
