"""How many random doubles ``write_reprs`` formats differently from ``repr``.

Draws uniformly random bit patterns of non-negative finite doubles from
a fixed seed, formats each chunk with ``agecast._shortest.write_reprs``
(through :func:`float_reprs`, which the tests share), every chunk in one
reused scratch, and with ``repr``,
and prints the count, the mismatches (the first few in full) and the run
time.  It exits 1 on any mismatch.  Slow (about 3 s per million doubles
on one core), so it is not part of the test suite:

    PYTHONPATH=src python3 tests/repr_sweep.py [COUNT]

COUNT defaults to 10**8.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from agecast._shortest import write_reprs
from agecast.simulator import _Workspace

SEED = 2020
CHUNK = 2**16
# the bit pattern of inf; below it lie 0.0 and every positive finite double
INF_BITS = 0x7FF0000000000000


def float_reprs(values, scratch: _Workspace) -> np.ndarray:
    """``write_reprs``' text of each value less its comma, as a NUL-padded ``S24`` array.

    ``float_reprs(x, scratch).tolist()`` equals ``[repr(v).encode() for v
    in x.tolist()]`` for a 1-d ``x`` of non-negative finite doubles.
    ``scratch`` is the workspace that ``write_reprs`` formats in.  The
    NULs between a field's characters are dropped, as the ledger's
    compaction drops them: a stable sort of each field on its NULs keeps
    the other characters in order and moves the NULs to its end.
    """
    values = np.ascontiguousarray(values, np.float64).reshape(-1)
    out = np.empty((values.size, 3), "<u8")
    write_reprs(values, out, scratch)
    text = out.view(np.uint8).reshape(-1, 24)
    text[text == ord(",")] = 0  # a repr holds no comma
    order = np.argsort(text == 0, axis=1, kind="stable")
    return np.take_along_axis(text, order, axis=1).view("S24").reshape(-1)


def main(argv: list[str]) -> int:
    count = int(float(argv[0])) if argv else 10**8
    rng = np.random.default_rng(SEED)
    mismatches = []
    scratch = _Workspace(CHUNK)
    start = time.perf_counter()
    for offset in range(0, count, CHUNK):
        size = min(CHUNK, count - offset)
        values = rng.integers(0, INF_BITS, size=size, dtype=np.uint64).view(np.float64)
        got = float_reprs(values, scratch).tolist()
        want = list(map(repr, values.tolist()))
        if b"\n".join(got) != "\n".join(want).encode():
            mismatches += [
                (value, text)
                for value, text, oracle in zip(values.tolist(), got, want)
                if text != oracle.encode()
            ]
    elapsed = time.perf_counter() - start
    print(f"seed {SEED}: {count} doubles, {len(mismatches)} mismatches, {elapsed:.0f} s")
    for value, text in mismatches[:10]:
        print(f"  {value!r}: got {text!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
