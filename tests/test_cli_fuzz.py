"""Every argv ends in exit 0, 1 or 2, never in a traceback.

The argvs stay small enough to run in a few milliseconds each: ``main``
gets at most 50 intervals, 4 replications and 5 values of k, and
``validate`` only the checks that read the run size and seed, and each
parsed request is asserted to be that small before ``main`` runs it.
Huge k, intervals and replications go through ``parse_config`` alone.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from agecast.cli import _COMMANDS, _OPTIONS, main, parse_config
from agecast.order_stats import MAX_K
from agecast.validation import CHECK_NAMES

# the checks that read the run size or the seed; the others evaluate fixed
# grids of closed forms and would only slow the search down
FAST_CHECKS = (
    "shifted_exp_reduction",
    "formula_path_equivalence",
    "order_stat_monte_carlo",
    "simulation_moments",
    "cycle_bookkeeping",
    "estimator_agreement",
    "age_regression",
    "csv_round_trip",
    "simulation_determinism",
)

# each subcommand's options by flag name, but --config, which every
# invocation below may add
COMMAND_OPTIONS = {
    command: [_OPTIONS[dest][0].removeprefix("--") for dest in dests.split() if dest != "config"]
    for command, (_, dests, _, _) in _COMMANDS.items()
}
# the options each subcommand needs, and the run sizes and validate's
# --checks, whose defaults would make a run too long for the search
REQUIRED = {
    "sweep-k": ["k", "intervals", "replications"],
    "sweep-shift": ["dist", "k", "c-values", "intervals", "replications"],
    "validate": ["checks", "intervals", "replications"],
    "ledger": ["k", "out", "intervals"],
}


def mostly(good, bad):
    """Text from ``good`` about three times in four, else from ``bad``."""
    # hypothesis shrinks toward and favours 0, which therefore picks ``good``
    return st.integers(0, 3).flatmap(lambda pick: bad if pick == 3 else good)


# extreme floats, and the ends of the law range, which print in e-notation
odd_floats = st.one_of(
    st.floats().map(repr),
    st.sampled_from(
        [
            "-0", "1e-320", "5e-324", "1e-100", "1e100", "1e308",
            "1.7976931348623157e308", "1e400", "-1e400", "nan", "-inf", "0x1p3",
            "1_0", " 2 ", "", "fast",
        ]
    ),
)


def floats(low, high):
    return mostly(st.floats(low, high).map(repr), odd_floats)


def counts(low, high):
    return mostly(
        st.integers(low, high).map(str),
        st.one_of(
            st.integers(-2, high).map(str), st.sampled_from(["", "1.5", "1e1", "0x10", "n"])
        ),
    )


@st.composite
def k_ranges(draw, low, high, longest):
    """``a..b`` with a in [low, high] and at most ``longest`` values, or b < a."""
    lo = draw(st.integers(low, high))
    hi = lo + draw(st.integers(-2, longest - 1))
    return f"{lo}..{hi}"


small_ks = mostly(
    st.one_of(st.integers(1, 8).map(str), k_ranges(1, 8, 5)),
    st.one_of(
        st.integers(-2, 25).map(str),
        k_ranges(-2, 25, 5),
        st.sampled_from(["", "..", "1..", "..3", "a..b", "1..2..3", "1.5", " 3 .. 5 "]),
        # refused before anything is drawn
        st.sampled_from([str(MAX_K + 1), f"1..{10**30}", f"{-(10**9)}..1"]),
    ),
)

c_values = mostly(
    st.lists(st.floats(0, 5), min_size=1, max_size=4, unique=True).map(
        lambda shifts: ",".join(map(repr, sorted(shifts)))
    ),
    st.one_of(
        st.lists(odd_floats.filter(lambda text: "," not in text), min_size=1, max_size=4).map(
            ",".join
        ),
        st.sampled_from(["", ",", "1,,2", "0,a", "1,0", "0,1e4"]),
    ),
)

check_lists = mostly(
    st.lists(st.sampled_from(FAST_CHECKS), min_size=1, max_size=4).map(",".join),
    st.sampled_from(
        [
            "", ",", "no_such_check", "cycle_bookkeeping,no_such_check",
            " cycle_bookkeeping , csv_round_trip",
        ]
    ),
)

SMALL_VALUES = {
    "dist": mostly(st.sampled_from(["exp", "sexp"]), st.sampled_from(["EXP", "", "gamma"])),
    "lambda": mostly(floats(1e-3, 1e3), st.sampled_from(["1e-100", "1e100", "1e-300"])),
    "shift": mostly(st.sampled_from(["0", "0.0"]), floats(0, 10)),
    "k": small_ks,
    "c-values": c_values,
    "intervals": counts(3, 50),
    "replications": counts(1, 4),
    "seed": mostly(
        st.integers(0, 2**64 - 1).map(str),
        st.one_of(
            st.integers(-(2**70), 2**70).map(str),
            st.sampled_from(["18446744073709551616", "1.5", "", "x"]),
        ),
    ),
    # a directory cannot be written, nor a file in a missing one
    "out": mostly(st.just("out.csv"), st.sampled_from(["missing/out.csv", "."])),
    "tolerance": floats(0, 1),
    "checks": check_lists,
}

# config-file lines beside the option values: comments, blanks, malformed
# lines, unknown keys, another subcommand's keys and a nested config
JUNK_LINES = st.sampled_from(
    [
        "", "# a comment", "no equals sign", "unknown_key=1", "config=other.cfg",
        "c-values=0,1", "lambda=2", "replications=3", "checks=cycle_bookkeeping",
        "k=2..3", "intervals=20", "out=out.csv", "=", "k=",
    ]
)


@st.composite
def invocations(draw, values):
    """(argv, config-file bytes or None) for one subcommand."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    names = COMMAND_OPTIONS[command]
    required = REQUIRED[command]
    chosen = required + draw(
        st.lists(st.sampled_from([n for n in names if n not in required]), unique=True)
    )
    argv, lines = [command], []
    for name in chosen:
        text = draw(values[name])
        if draw(st.booleans()):
            argv.append(f"--{name}={text}")
        else:
            lines.append(f"{name}={text}")
    lines += draw(st.lists(JUNK_LINES, max_size=2))
    config = None
    if lines or draw(st.booleans()):
        config = "\n".join(lines).encode()
        if draw(st.integers(0, 9)) == 9:
            config += b"\xff\xfe not utf-8\n"
    if draw(st.integers(0, 19)) == 19:
        argv.append(draw(st.sampled_from(["-h", "--bogus", "extra"])))
    return argv, config


def run(entry, argv, config):
    """Run ``entry(argv)`` in a fresh directory; (exit code, stderr)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            if config is not None:
                with open("run.cfg", "wb") as handle:
                    handle.write(config)
                argv = [*argv, "--config", "run.cfg"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = entry(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(here)
    return code, err.getvalue()


def small_main(argv):
    """``main``, once the request it parses is known to be a small run."""
    command, request = parse_config(argv)
    if command == "validate":
        settings, names = request
        num_intervals, replications = settings.num_intervals, settings.replications
        assert names is not None and set(names) <= set(FAST_CHECKS), names
    elif command == "ledger":
        num_intervals, replications = request[0].num_intervals, 1
    else:
        num_intervals, replications = request.num_intervals, request.replications
        assert len(request.values) <= 5, request.values
    assert num_intervals <= 50 and replications <= 4, (num_intervals, replications)
    return main(argv)


@given(invocations(SMALL_VALUES))
@settings(max_examples=120, deadline=None)
def test_every_small_argv_exits_0_1_or_2(invocation):
    code, err = run(small_main, *invocation)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


HUGE_VALUES = {
    **SMALL_VALUES,
    "k": st.one_of(
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from([str(MAX_K), str(MAX_K + 1)]),
        k_ranges(MAX_K - 8, MAX_K + 8, 8),
        k_ranges(-(2**70), 2**70, 8),
        # refused from its length, before the range is built
        st.integers(MAX_K + 1, 2**70).map(lambda high: f"1..{high}"),
    ),
    "intervals": st.integers(-(2**70), 2**70).map(str),
    "replications": st.integers(-(2**70), 2**70).map(str),
    "checks": st.lists(st.sampled_from(CHECK_NAMES), min_size=1).map(",".join),
}


def parse_only(argv):
    parse_config(argv)
    return 0


@given(invocations(HUGE_VALUES))
@settings(max_examples=200, deadline=None)
def test_every_huge_request_parses_or_exits_2(invocation):
    code, err = run(parse_only, *invocation)
    assert code in (0, 2), err
    assert "Traceback" not in err
