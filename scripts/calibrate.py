"""Print the crossover tables that the backend rule's constants come from.

Run from the repository root, on an otherwise idle machine:
  OPENBLAS_NUM_THREADS=1 taskset -c 0 python scripts/calibrate.py
  python scripts/calibrate.py --repeat 3    # fewer samples, a rougher table

Each table times the same work on both sides of one constant of
`gf._backend`, by moving that constant in this process only, and prints the
median time per call in microseconds:
  echelon  `Echelon(F, w, rows).rref()` of w rows of width w, dense rows
           and rows of rank-one 2 x w/2 matrices, on lists and on int64, over
           F_13, F_4 and F_{7^4}: one floor for every kind of field
           (`_ECHELON_MIN_WIDTH`);
  scan     `_min_distance` of a random 2-dim space of 3x3 matrices over F_q
           for q + 1 = 8 .. 32 words, on lists and on int64 (`_SCAN_MIN_WORDS`);
  residue  `residue` T - C R over F_13 for C b x r and R r x w, in int64 and
           in float64, by its work b r w (`_FLOAT64_MIN_WORK`);
  leaf     `Echelon(F_13, ...)` of dense rows, of random rank-one m x m
           members and of the banded m^2 - m/2 members of a dual-power base
           (`construct._power_members`, s = m/2, as `construct-sweep` verifies
           them) with `exactla._LEAF_ROWS` at 2, 4, 8 and 16.
A constant sits where the last column, the array time over the list time
(or float64 over int64), crosses 1.
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from perfbase import construct, exactla, gf  # noqa: E402

ECHELON_CASES = tuple((q, w) for q in (13, 4, 2401)  # F_13, F_4, F_{7^4}
                      for w in (12, 16, 20, 24, 28, 32, 40))
SCAN_FIELDS = (7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)  # q + 1 = 8 .. 32 words
RESIDUE_SHAPES = ((1, 4, 16), (25, 2, 16), (2, 8, 64), (4, 4, 100), (8, 8, 24),
                  (8, 8, 32), (4, 8, 64), (8, 16, 16), (8, 8, 40), (4, 4, 225),
                  (8, 8, 64), (16, 16, 16), (32, 8, 32), (64, 16, 64))
LEAF_ROWS = (2, 4, 8, 16)
LEAF_CASES = (("dense", 40), ("rank-one", 6), ("rank-one", 10), ("rank-one", 15),
              ("dual-power", 10), ("dual-power", 14))
_NEVER = 1 << 62  # a threshold no input reaches


def _field(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    deg = 1
    while p ** deg < q:
        deg += 1
    return gf.field_make(p, deg)


def _per_call(fn, repeat):
    """Median seconds per call of fn() over `repeat` samples of at least 1 ms."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(1e-3 / max(once, 1e-7)))
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _with(module, name, value, fn, repeat):
    """Time fn with module.name set to value, restoring it after."""
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        return _per_call(fn, repeat)
    finally:
        setattr(module, name, old)


def _rank_one_rows(rng, F, count, n, m):
    rows = []
    for _ in range(count):
        u = [rng.randrange(F.q) for _ in range(n)]
        u[rng.randrange(n)] = 1
        v = [rng.randrange(F.q) for _ in range(m)]
        v[rng.randrange(m)] = 1
        rows.append(exactla.FqMatrix.outer(F, u, v).vectorize())
    return rows


def _dense_rows(rng, F, count, width):
    return [tuple(rng.randrange(F.q) for _ in range(width)) for _ in range(count)]


def _dual_power_rows(rng, F, m):
    """The m^2 - m/2 members of the dual-power base of a random companion with
    no zero in its bottom row, s = m/2, as rows of width m^2."""
    spec = construct.CompanionSpec(F, m, tuple(rng.randrange(1, F.q) for _ in range(m)))
    return construct._power_members(spec, m, m // 2)[0].reshape(m * m - m // 2, -1).tolist()


def table(kind, sizes, repeat=9):
    """Rows (kind, case, {label: microseconds}, ratio) of one table; `sizes`
    are (field order, width) cases for "echelon", field orders for "scan",
    (b, r, w) shapes for "residue" and ("dense", "rank-one" or "dual-power",
    m) cases for "leaf"."""
    rng = random.Random(kind)
    F13 = gf.field_make(13)
    out = []
    for size in sizes:
        if kind == "echelon":
            F, w = _field(size[0]), size[1]
            for label, rows in (("dense", _dense_rows(rng, F, w, w)),
                                ("rank-one", _rank_one_rows(rng, F, w, 2, w // 2))):

                def run():
                    return exactla.Echelon(F, w, rows).rref()

                times = {"lists": _with(gf, "_ECHELON_MIN_WIDTH", _NEVER, run, repeat),
                         "int64": _with(gf, "_ECHELON_MIN_WIDTH", 0, run, repeat)}
                out.append((kind, f"F_{F.q} {label} w={w}", times))
        elif kind == "scan":
            F = _field(size)
            rows = [tuple(rng.randrange(F.q) for _ in range(9)) for _ in range(2)]

            def run():
                return exactla._min_distance(F, rows, _NEVER, 3)

            times = {"lists": _with(gf, "_SCAN_MIN_WORDS", _NEVER, run, repeat),
                     "int64": _with(gf, "_SCAN_MIN_WORDS", 0, run, repeat)}
            out.append((kind, f"F_{size} {size + 1} words", times))
        elif kind == "residue":
            b, r, w = size
            T = np.array(_dense_rows(rng, F13, b, w), dtype=np.int64)
            C = np.array(_dense_rows(rng, F13, b, r), dtype=np.int64)
            R = np.array(_dense_rows(rng, F13, r, w), dtype=np.int64)

            def run():
                return F13._int64.residue(T, C, R)

            times = {"int64": _with(gf, "_FLOAT64_MIN_WORK", _NEVER, run, repeat),
                     "float64": _with(gf, "_FLOAT64_MIN_WORK", 0, run, repeat)}
            out.append((kind, f"{b}x{r}x{w} work={b * r * w}", times))
        elif kind == "leaf":
            label, m = size
            rows = {"dense": lambda: _dense_rows(rng, F13, m, m),
                    "rank-one": lambda: _rank_one_rows(rng, F13, m * m - 2, m, m),
                    "dual-power": lambda: _dual_power_rows(rng, F13, m)}[label]()
            width = len(rows[0])

            def run():
                return exactla.Echelon(F13, width, rows).rank

            times = {f"leaf={leaf}": _with(exactla, "_LEAF_ROWS", leaf, run, repeat)
                     for leaf in LEAF_ROWS}
            out.append((kind, f"{label} {len(rows)}x{width}", times))
        else:
            raise ValueError(f"unknown table {kind!r}")
    return [(k, case, {label: t * 1e6 for label, t in times.items()},
             list(times.values())[-1] / list(times.values())[0])
            for k, case, times in out]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=9, help="samples per time")
    args = parser.parse_args(argv)
    print(f"constants: _ECHELON_MIN_WIDTH={gf._ECHELON_MIN_WIDTH} "
          f"_SCAN_MIN_WORDS={gf._SCAN_MIN_WORDS} "
          f"_FLOAT64_MIN_WORK={gf._FLOAT64_MIN_WORK} _LEAF_ROWS={exactla._LEAF_ROWS}")
    for kind, sizes in (("echelon", ECHELON_CASES), ("scan", SCAN_FIELDS),
                        ("residue", RESIDUE_SHAPES), ("leaf", LEAF_CASES)):
        print(f"\n{kind}")
        for _, case, times, ratio in table(kind, sizes, args.repeat):
            cells = "  ".join(f"{label} {us:9.1f} us" for label, us in times.items())
            print(f"  {case:<24} {cells}  last/first {ratio:5.2f}")


if __name__ == "__main__":
    main()
