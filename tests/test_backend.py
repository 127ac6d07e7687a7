"""Boundary tests of the backend rule `gf._backend`.

For each of its thresholds, an input one below it and an input at it take
different kernels where the field allows both, and every kernel gives the
same answer: `Echelon.rref()` and the flags of `extend` at
`_ECHELON_MIN_WIDTH`, `_min_distance` at `_SCAN_MIN_WORDS`, and `residue` in
float64 against int64 at `_FLOAT64_MIN_WORK` and at the 2^53 bound of exact
float64 sums.  Each input also runs with the threshold moved to either
extreme, so both kernels see the same input.  The fields are F_13, F_4,
F_625, 2^31 - 1 (no int64 echelon, no float64 product) and 2^61 - 1 (object
arrays, lists everywhere else).  The echelon rule is one for every field:
F_4 and F_625 rows at the width floor run on int64, as F_13 rows do.
"""

import importlib.util
import json
import math
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from perfbase import construct, exactla, gf
from perfbase.exactla import Echelon, _combine, _normalized_vectors
from perfbase.gf import field_make
from test_echelon import profile_rows, reference_profile, reference_rref

FIELDS = [(13, 1), (2, 2), (5, 4), ((1 << 31) - 1, 1), ((1 << 61) - 1, 1)]
IDS = ["F13", "F4", "F625", "F2^31-1", "F2^61-1"]
NEVER = 1 << 62  # a threshold no input reaches


def both_extremes(monkeypatch, name, run):
    """run() with the rule as it is, then with `name` at 0 and at NEVER."""
    out, rule = [run()], getattr(gf, name)
    for value in (0, NEVER):
        monkeypatch.setattr(gf, name, value)
        out.append(run())
    monkeypatch.setattr(gf, name, rule)
    return out


@pytest.mark.parametrize("p,k", FIELDS, ids=IDS)
def test_echelon_on_both_sides_of_its_width_floor(p, k, monkeypatch):
    F = field_make(p, k)
    floor = gf._ECHELON_MIN_WIDTH
    rng = random.Random(f"echelon-floor-{F.q}")
    for width in (floor - 1, floor):
        numpy = F.q <= 625 and width == floor  # int64 sums overflow at 2^31 - 1
        assert (gf._backend(F, "echelon", width, width) is np.int64) == numpy
        assert Echelon(F, width)._np == numpy
        for n, cap in ((3, None), (12, 5), (width + 4, None), (9, 0)):
            rows = profile_rows(rng, F, n, width, cap)
            want = reference_profile(F, rows, width)

            def run():
                E = Echelon(F, width)
                return E.extend(rows), *E.rref()

            assert both_extremes(monkeypatch, "_ECHELON_MIN_WIDTH", run) == [want] * 3


def test_echelon_backends_agree_on_the_dual_power_traffic(monkeypatch):
    """`Echelon.extend` of the members that `construct-sweep` verifies, every
    (m, s) of its square and rectangular schedules over F_13 and two cases over
    F_9: the same flags and RREF on numpy and on lists."""
    monkeypatch.syspath_prepend(pathlib.Path(__file__).resolve().parent.parent / "perfbench")
    import workloads

    F13, F9 = field_make(13), field_make(3, 2)
    cases = ([(F13, m, m, s) for m, s in workloads.SQUARE]
             + [(F13, m, n, s) for m, n, s in workloads.RECT]
             + [(F9, 5, 5, 2), (F9, 6, 3, 4)])
    rng = random.Random("dual-power-traffic")
    for F, m, n, s in cases:
        spec = construct.CompanionSpec(F, m, tuple(rng.randrange(1, F.q) for _ in range(m)))
        members = construct._power_members(spec, n, s)[0].reshape(n * m - s, n * m)

        def run():
            E = Echelon(F, n * m)
            return E.extend(members), *E.rref()

        default, numpy, lists = both_extremes(monkeypatch, "_ECHELON_MIN_WIDTH", run)
        assert default == numpy == lists and all(default[0]), (F.q, m, n, s)


BEFORE_NUMPY = """
import json, sys
from perfbase import gf
F, big = gf.field_make(5), gf.field_make((1 << 61) - 1)
work = gf._NUMPY_IMPORT_WORK
def lists(field, op, *args):
    return gf._backend(field, op, *args) == "lists"
def loaded():
    return "numpy" in sys.modules
first, then = map(json.loads, sys.argv[1:])
print([lists(F, "echelon", 101, 101), lists(F, "scan", 16, 4, work - 1),
       lists(big, "echelon", 512, 512), lists(big, "scan", 1 << 20, 2, work), loaded(),
       lists(F, *first), loaded(), lists(F, *then)])
"""


@pytest.mark.parametrize("first", [["echelon", 102, 102],
                                   ["scan", 16, 4, gf._NUMPY_IMPORT_WORK]])
def test_echelon_and_scan_stay_on_lists_until_numpy_pays(first):
    # before numpy is loaded an echelon or scan past its floor stays on lists
    # while its list work, width^3 or the scan's, is below the numpy import;
    # past it, or past the int64 bound, the floors alone decide once more
    out = subprocess.run([sys.executable, "-c", BEFORE_NUMPY, json.dumps(first),
                          json.dumps(["echelon", 20, 20])],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str([True] * 4 + [False, False, True, False])


def reference_distance(F, rows, width):
    """Least rank (width given) or weight of a nonzero combination: every
    projective word, each ranked by `reference_rref`."""
    best = len(rows[0])
    for coeffs in _normalized_vectors(F, len(rows)):
        word = _combine(F, coeffs, rows, len(rows[0]))
        stat = (sum(map(bool, word)) if width is None else
                reference_rref(F, [word[i:i + width] for i in range(0, len(word), width)],
                               width)[1])
        best = min(best, stat)
    return best


@pytest.mark.parametrize("p,k", FIELDS, ids=IDS)
def test_distance_scan_on_both_sides_of_its_word_floor(p, k, monkeypatch):
    # the word count of a scan is (q^k - 1) / (q - 1), so the floor is moved
    # to the input: at `needed` the scan is at the floor, at `needed + 1`
    # one word below it
    F = field_make(p, k)
    dim = 2 if F.q < 1000 else 1
    needed = exactla._projective_count(F.q, dim)
    rng = random.Random(f"scan-floor-{F.q}")
    batched = []
    scan_np = exactla._min_distance_np
    monkeypatch.setattr(exactla, "_min_distance_np",
                        lambda *args: batched.append(args) or scan_np(*args))
    for _ in range(4):
        rows = [tuple(rng.choice((0, 1, F.q - 1, rng.randrange(F.q))) for _ in range(6))
                for _ in range(dim)]
        if reference_rref(F, rows, 6)[1] < dim:
            continue
        want = [reference_distance(F, rows, 3), reference_distance(F, rows, None)]
        for floor in (needed + 1, needed, 0, NEVER):
            monkeypatch.setattr(gf, "_SCAN_MIN_WORDS", floor)
            fits = (F.p - 1) ** 2 * dim < 1 << 63
            numpy = floor <= needed and fits
            assert (gf._backend(F, "scan", needed, dim) is np.int64) == numpy
            del batched[:]
            got = [exactla._min_distance(F, rows, 1 << 24, 3),
                   exactla._min_distance(F, rows, 1 << 24)]
            assert got == want and len(batched) == 2 * numpy, (floor, rows)


def residue_case(rng, F, b, r, w, dtype):
    """T, C, R of the given shapes, p - 1 for most entries: the largest sums."""
    def block(n, m):
        return [[rng.choice((F.q - 1, F.q - 1, 0, rng.randrange(F.q))) for _ in range(m)]
                for _ in range(n)]
    T, C, R = block(b, w), block(b, r), block(r, w)
    want = [list(row) for row in T]
    for i in range(b):
        for j, c in enumerate(C[i]):
            want[i] = F.sub_scaled(want[i], c, R[j])
    return [np.array(X, dtype=dtype) for X in (T, C, R)], want


@pytest.mark.parametrize("p,k", FIELDS, ids=IDS)
def test_residue_on_both_sides_of_its_work_floor(p, k, monkeypatch):
    F = field_make(p, k)
    floor = gf._FLOAT64_MIN_WORK
    rng = random.Random(f"residue-floor-{F.q}")
    for b, r, w in ((1, 1, floor - 1), (1, 1, floor), (1, 7, (floor - 1) // 7),
                    (2, 8, floor // 16), (3, 5, 7)):
        dtype = gf._backend(F, "array", terms=r)
        assert dtype is (np.int64 if (F.p - 1) ** 2 * r < 1 << 63 else object)
        floats = p == 13 and b * r * w >= floor  # 2^31 - 1 is past the 2^53 bound
        assert (gf._backend(F, "residue", b * r * w, r) is np.float64) == floats
        (T, C, R), want = residue_case(rng, F, b, r, w, dtype)
        got = both_extremes(monkeypatch, "_FLOAT64_MIN_WORK",
                            lambda: F._int64.residue(T, C, R))
        assert all(X.dtype == dtype and X.tolist() == want for X in got), (b, r, w)


@pytest.mark.parametrize("terms", [1, 64, 2048])
def test_residue_on_both_sides_of_the_float64_bound(terms, monkeypatch):
    # the largest prime with (p - 1)^2 terms < 2^53 forms a product of that
    # many terms at the work floor in float64, the next prime in int64; both
    # give the list residue with every entry at p - 1 in the sum
    top = math.isqrt(((1 << 53) - 1) // terms) + 1
    inside = next(p for p in range(top, 2, -1) if gf._is_prime(p))
    outside = next(p for p in range(top, 2 * top) if gf._is_prime(p))
    w = -(-gf._FLOAT64_MIN_WORK // terms)
    rng = random.Random(terms)
    for p, floats in ((inside, True), (outside, False)):
        F = field_make(p)
        assert (gf._backend(F, "residue", terms * w, terms) is np.float64) == floats
        assert gf._backend(F, "array", terms=terms) is np.int64
        C = np.full((1, terms), p - 1, dtype=np.int64)
        R = np.full((terms, w), p - 1, dtype=np.int64)
        T = np.array([[rng.randrange(p) for _ in range(w)]], dtype=np.int64)
        want = [[(t - terms * (p - 1) ** 2) % p for t in T[0].tolist()]]
        got = both_extremes(monkeypatch, "_FLOAT64_MIN_WORK",
                            lambda: F._int64.residue(T, C, R))
        assert all(X.dtype == np.int64 and X.tolist() == want for X in got), p


def test_calibration_script_prints_each_table_on_a_tiny_size(monkeypatch, capsys):
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"
    spec = importlib.util.spec_from_file_location("calibrate", path)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    def constants():
        return (gf._ECHELON_MIN_WIDTH, gf._SCAN_MIN_WORDS, gf._FLOAT64_MIN_WORK,
                exactla._LEAF_ROWS)

    before = constants()
    for kind, size, labels in (("echelon", (4, 4), ["lists", "int64"]),
                               ("scan", 3, ["lists", "int64"]),
                               ("residue", (1, 2, 3), ["int64", "float64"]),
                               ("leaf", ("rank-one", 2), ["leaf=2", "leaf=4", "leaf=8",
                                                          "leaf=16"]),
                               ("leaf", ("dual-power", 4), ["leaf=2", "leaf=4", "leaf=8",
                                                            "leaf=16"])):
        rows = calibrate.table(kind, [size], repeat=1)
        assert rows and all(row[0] == kind and list(row[2]) == labels for row in rows)
        assert all(us > 0 for row in rows for us in row[2].values())
    assert constants() == before  # moved only within the script's own calls
    # the echelon table times the one floor over a prime and two extension fields
    assert {q for q, _ in calibrate.ECHELON_CASES} == {13, 4, 2401}
    for name, sizes in (("ECHELON_CASES", ((13, 4), (4, 4), (2401, 4))),
                        ("SCAN_FIELDS", (7,)), ("RESIDUE_SHAPES", ((1, 2, 3),)),
                        ("LEAF_CASES", (("rank-one", 2), ("dual-power", 4)))):
        monkeypatch.setattr(calibrate, name, sizes)
    calibrate.main(["--repeat", "1"])
    out = capsys.readouterr().out
    echelon = out.split("\nscan\n")[0]
    assert all(f"F_{q} {rows} w=4" in echelon
               for q in (13, 4, 2401) for rows in ("dense", "rank-one"))
    # the leaf table times the banded dual-power members: 4^2 - 2 rows of width 16
    assert "dual-power 14x16" in out.split("\nleaf\n")[1]
