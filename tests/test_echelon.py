"""Differential tests of the echelon kernel against the plain list RREF.

`reference_rref` and `reference_verify_base` are the Gauss-Jordan
elimination and the two-pass base check that `exactla.Echelon` replaced,
kept here as the simple path the kernel must agree with.  Both backends are
exercised over prime and extension fields alike, as the backend rule
`gf._backend` has one echelon floor for every field: the numpy one by forcing
that floor, `gf._ECHELON_MIN_WIDTH`, down and by widths at or above it, the
list one by narrower rows and by primes whose sums overflow int64.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbase import exactla, gf, tensor3
from perfbase.errors import ShapeMismatch
from perfbase.exactla import Echelon, FqMatrix, MatrixSpace
from perfbase.gf import field_make
from perfbase.tensor3 import BaseCandidate, VerificationReport, verify_base

FIELDS = [(2, 1), (13, 1), (3, 2), (5, 4)]  # F_2, F_13, F_9, F_625


def reference_rref(F, rows, width):
    """Gauss-Jordan over Field methods: (nonzero rows, rank, pivots)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, v) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return [tuple(x) for x in rows[:r]], r, tuple(pivots)


def reference_residue(F, red_rows, pivots, vec):
    vec = list(vec)
    for row, pc in zip(red_rows, pivots):
        c = vec[pc]
        if c:
            vec = [F.sub(a, F.mul(c, b)) for a, b in zip(vec, row)]
    return tuple(vec)


def reference_verify_base(cand):
    """The base check before the kernel: RREF rank per member, then a
    sequential elimination for independence, then a second span."""
    target = cand.target
    F = target.field
    width = target.n * target.m
    bad_rank = None
    for idx, A in enumerate(cand.matrices):
        if reference_rref(F, A.rows, A.m)[1] != 1:
            bad_rank = idx
            break
    dependent = None
    rows, pivots = [], []
    for idx, A in enumerate(cand.matrices):
        vec = list(A.vectorize())
        for row, pc in zip(rows, pivots):
            c = vec[pc]
            if c:
                vec = [F.sub(a, F.mul(c, b)) for a, b in zip(vec, row)]
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            dependent = idx
            break
        inv = F.inv(vec[lead])
        rows.append([F.mul(inv, v) for v in vec])
        pivots.append(lead)
    missing = None
    if dependent is None:
        span_rows, _, span_piv = reference_rref(
            F, [A.vectorize() for A in cand.matrices] or [[0] * width], width)
        for idx, B in enumerate(target.basis):
            if any(reference_residue(F, span_rows, span_piv, B.vectorize())):
                missing = idx
                break
    return VerificationReport(
        all_rank_one=bad_rank is None,
        independent=dependent is None,
        contains_target=dependent is None and missing is None,
        base_size=len(cand.matrices),
        target_dim=target.dim,
        bad_rank_index=bad_rank,
        dependent_index=dependent,
        missing_target_index=missing,
    )


def random_rows(rng, F, n, width, rank_cap=None):
    """n random rows; with rank_cap, combinations of rank_cap random rows."""
    if rank_cap is None:
        return [tuple(rng.randrange(F.q) for _ in range(width)) for _ in range(n)]
    gens = random_rows(rng, F, rank_cap, width)
    out = []
    for _ in range(n):
        acc = [0] * width
        for g in gens:
            c = rng.randrange(F.q)
            acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, g)]
        out.append(tuple(acc))
    return out


@pytest.fixture(params=["default", "numpy-forced"])
def backend(request, monkeypatch):
    if request.param == "numpy-forced":
        monkeypatch.setattr(gf, "_ECHELON_MIN_WIDTH", 1)
    return request.param


def check_against_reference(F, rows, width, probes):
    red, rank, pivots = reference_rref(F, rows, width)
    E = Echelon(F, width)
    fresh = [E.insert(r) for r in rows]
    assert E.rank == rank
    assert E.rref() == (tuple(red), pivots)
    # insert reports exactly the rows that grow the rank of the prefix
    prefix_ranks = [reference_rref(F, rows[:i + 1], width)[1] for i in range(len(rows))]
    assert fresh == [b > a for a, b in zip([0] + prefix_ranks, prefix_ranks)]
    # built in one go, as a MatrixSpace keeps it, the same echelon
    built = Echelon(F, width, rows)
    assert built.rref() == E.rref()
    assert [built.insert(v) for v in probes] == [E.insert(v) for v in probes]
    assert built.rref() == E.rref()
    red, rank, pivots = reference_rref(F, list(rows) + list(probes), width)
    assert E.rref() == (tuple(red), pivots)
    M = FqMatrix(F, list(rows) + list(probes))
    m_red, m_rank, m_piv = M.rref()
    assert (m_rank, m_piv) == (rank, pivots)
    assert m_red.rows[:rank] == tuple(red)
    assert all(not any(r) for r in m_red.rows[rank:])
    assert M.rank() == rank
    probes = probes + random_rows(random.Random(width), F, 3, width)
    for vec in probes:
        res = reference_residue(F, red, pivots, vec)
        assert E.reduce(vec) == res
        assert E.contains(vec) == (not any(res))
        coords = E.coords(vec)
        if any(res):
            assert coords is None
        else:
            assert coords == tuple(vec[pc] for pc in pivots)
            acc = [0] * width
            for c, row in zip(coords, red):
                acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, row)]
            assert tuple(acc) == tuple(vec)


@pytest.mark.parametrize("p,deg", FIELDS)
def test_echelon_matches_reference_rref(p, deg, backend):
    F = field_make(p, deg)
    rng = random.Random(f"echelon-{p}-{deg}-{backend}")
    for trial in range(30):
        width = rng.choice([1, 2, 3, 5, 8, 12])
        n = rng.randrange(1, 10)
        kind = trial % 3
        if kind == 0:
            rows = random_rows(rng, F, n, width)
        elif kind == 1:  # rank-deficient
            rows = random_rows(rng, F, n, width, rank_cap=rng.randrange(0, min(n, width) + 1))
        else:  # zero
            rows = [(0,) * width] * n
        probes = random_rows(rng, F, 3, width) + rows[:2] + [(0,) * width]
        check_against_reference(F, rows, width, probes)


@pytest.mark.parametrize("p", [2, 13])
def test_numpy_backend_at_its_natural_width(p):
    F = field_make(p)
    width = gf._ECHELON_MIN_WIDTH + 3
    assert Echelon(F, width)._np and not Echelon(F, width - 4)._np
    rng = random.Random(p)
    for cap in (None, 5, 0):
        rows = random_rows(rng, F, 12, width, rank_cap=cap)
        probes = random_rows(rng, F, 2, width) + rows[:2]
        check_against_reference(F, rows, width, probes)


def reference_profile(F, rows, width):
    """For each row, whether it grows the rank of the rows before it, from
    the `reference_rref` of each prefix; and the RREF rows and pivots of all."""
    red, pivots, grew = [], (), []
    for vec in rows:
        grew.append(any(reference_residue(F, red, pivots, vec)))
        if grew[-1]:
            red, _, pivots = reference_rref(F, red + [vec], width)
    return grew, tuple(red), pivots


def profile_rows(rng, F, n, width, cap):
    """n rows of rank at most `cap`, with zero and dependent rows at the first
    leaf boundary (rows 7 to 9), in the first half, in the second and last."""
    rows = random_rows(rng, F, n, width, rank_cap=cap)
    for i in (7, 8, 9, n // 4, 3 * n // 4, n - 1):
        if 0 < i < n:
            rows[i] = (0,) * width if i % 2 else tuple(reference_combine(F, rng, rows[:i]))
    return rows


def check_extend(F, rows, width, probes):
    grew, red, pivots = reference_profile(F, rows, width)
    one = Echelon(F, width)
    assert [one.insert(vec) for vec in rows] == grew
    E = Echelon(F, width)
    assert E.extend(rows) == grew
    assert E.rref() == one.rref() == (red, pivots)
    assert Echelon(F, width, rows).rref() == (red, pivots)
    # later single inserts agree with the one-at-a-time echelon
    assert [E.insert(v) for v in probes] == [one.insert(v) for v in probes]
    assert E.rref() == one.rref()
    # extend on an echelon that already holds rows
    for k in (1, len(rows) // 2):
        held = Echelon(F, width, rows[:k])
        assert held.extend(rows[k:]) == grew[k:]
        assert held.rref() == (red, pivots)
    assert E.extend([]) == []


# the largest prime p with (p - 1)^2 * 40 < 2^63: at width 40 the products of
# the numpy backend run at the int64 limit
_TOP_AT_40 = math.isqrt(((1 << 63) - 1) // 40) + 1
LARGEST_AT_40 = next(p for p in range(_TOP_AT_40, 2, -1)
                     if all(p % d for d in range(2, math.isqrt(p) + 1)))


def banded_rows(rng, F, n, width, windows):
    """n random rows in blocks of `_LEAF_ROWS`: block k is nonzero only in
    columns lo..hi-1 for (lo, hi) = windows[k % len(windows)], and its first
    row at both ends of that window."""
    rows = []
    for i in range(n):
        lo, hi = windows[i // exactla._LEAF_ROWS % len(windows)]
        row = [0] * width
        row[lo:hi] = [rng.randrange(F.q) for _ in range(lo, hi)]
        if i % exactla._LEAF_ROWS == 0 and hi > lo:
            row[lo], row[hi - 1] = rng.randrange(1, F.q), rng.randrange(1, F.q)
        rows.append(tuple(row))
    return rows


def staircase(width, n, band, step):
    """n windows, the i-th [step i, step i + band) cut at the last column: the
    shape of the dual-power members, each nonzero in a few rows of its matrix."""
    return [(min(step * i, width - 1), min(step * i + band, width)) for i in range(n)]


def banded_cases(width):
    """Windows per leaf: at the left edge, in the middle, ending at the last
    column, all zero, a single column, those mixed, and a staircase."""
    edges = [(0, 6), (width // 2 - 3, width // 2 + 3), (width - 5, width), (0, 0),
             (width // 3, width // 3 + 1)]
    return [[w] for w in edges] + [edges, edges[::-1], staircase(width, 8, 7, 4)]


# F_4 and F_9 by (p, deg) take the banded batches only: those are at least as
# wide as the echelon floor, so they run on the numpy path under either backend
EXTENSIONS = {4: (2, 2), 9: (3, 2)}


@pytest.mark.parametrize("p", [2, 13, LARGEST_AT_40, 4, 9])
def test_extend_gives_the_row_rank_profile(p, backend):
    F = field_make(*EXTENSIONS.get(p, (p,)))
    if p == LARGEST_AT_40:  # no prime above it up to the first p the rule refuses
        assert Echelon(F, 40)._np and _TOP_AT_40 ** 2 * 40 >= 1 << 63
    rng = random.Random(f"extend-{p}-{backend}")
    cases = [(n, width, cap) for n in (1, 2, 8, 9, 10, 17, 33) for width in (5, 24)
             for cap in (0, 3, width // 2, None)]
    cases += [(200, 40, cap) for cap in (0, 1, 20, None)] + [(64, 40, 39), (100, 24, None)]
    for n, width, cap in [] if p in EXTENSIONS else cases:
        rows = profile_rows(rng, F, n, width, cap)
        probes = random_rows(rng, F, 2, width) + rows[:2] + [(0,) * width]
        check_extend(F, rows, width, probes)
    # banded batches: one leaf, leaves that the halving aligns, and leaves it does not
    for width, n in itertools.product((24, 40), (8, 32, 20)):
        assert Echelon(F, width)._np
        for windows in banded_cases(width):
            rows = banded_rows(rng, F, n, width, windows)
            probes = random_rows(rng, F, 2, width) + rows[:2] + [(0,) * width]
            check_extend(F, rows, width, probes)


def test_each_leaf_works_on_its_nonzero_window(monkeypatch):
    """A leaf's row operations see only the columns between its first and last
    nonzero column: a staircase batch of width 100 gives the same profile."""
    F, width = field_make(13), 100
    rows = banded_rows(random.Random("window"), F, 48, width, staircase(width, 6, 24, 15))
    grew, red, pivots = reference_profile(F, rows, width)
    assert Echelon(F, width)._np
    windows, seen = [], []
    eliminate, sub_scaled = exactla._eliminate, gf._Int64Field.sub_scaled

    def leaf(arith, B):
        if len(B) <= exactla._LEAF_ROWS:
            cols = np.flatnonzero(B.any(axis=0))
            windows.append(int(cols[-1]) + 1 - int(cols[0]) if cols.size else 0)
        return eliminate(arith, B)

    def watched(self, T, c, row, a=None):
        seen.append((T.shape[-1], windows[-1]))
        return sub_scaled(self, T, c, row, a)

    monkeypatch.setattr(exactla, "_eliminate", leaf)
    monkeypatch.setattr(gf._Int64Field, "sub_scaled", watched)
    E = Echelon(F, width)
    assert E.extend(rows) == grew
    monkeypatch.undo()
    assert E.rref() == (red, pivots)
    assert seen and all(cols <= window < width for cols, window in seen)


def test_backend_choice_depends_only_on_the_input():
    wide = gf._ECHELON_MIN_WIDTH
    assert Echelon(field_make(13), wide)._np
    assert not Echelon(field_make(13), wide - 1)._np
    # one floor for every field: extension-field rows as wide run on int64
    assert Echelon(field_make(2, 2), wide)._np and Echelon(field_make(5, 4), wide)._np
    assert not Echelon(field_make(2, 2), wide - 1)._np
    assert not Echelon(field_make(5, 4), wide - 1)._np
    # sums of products would overflow int64: lists, whatever the width
    assert not Echelon(field_make(2 ** 31 - 1), 4 * wide)._np


def test_echelon_rejects_wrong_length(backend):
    E = Echelon(field_make(13), 4, [(1, 2, 3, 4)])
    with pytest.raises(ShapeMismatch):
        E.insert((1, 2, 3))
    with pytest.raises(ShapeMismatch):
        E.reduce((1, 2, 3, 4, 5))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_matrix_space_matches_reference(pdeg, n, m, data):
    F = field_make(*pdeg)
    k = data.draw(st.integers(0, 5))
    entries = st.integers(0, F.q - 1)
    mats = [FqMatrix(F, [[data.draw(entries) for _ in range(m)] for _ in range(n)])
            for _ in range(k)]
    V = MatrixSpace(F, (n, m), mats)
    red, rank, pivots = reference_rref(
        F, [A.vectorize() for A in mats] or [[0] * (n * m)], n * m)
    assert V._rrows == tuple(red) and V._pivots == pivots and V.dim == rank
    assert tuple(B.vectorize() for B in V.basis) == tuple(red)
    probe = FqMatrix(F, [[data.draw(entries) for _ in range(m)] for _ in range(n)])
    res = reference_residue(F, red, pivots, probe.vectorize())
    assert V.reduce_vector(probe.vectorize()) == res
    assert V.contains(probe) == (not any(res))
    assert V.coordinates(probe) == (None if any(res) else
                                    tuple(probe.vectorize()[pc] for pc in pivots))


def test_matrix_space_queries_on_the_numpy_backend():
    F = field_make(13)
    rng = random.Random("space-np")
    for _ in range(10):
        n, m = 5, 5
        k = rng.randrange(0, 8)
        gens = random_rows(rng, F, k, n * m, rank_cap=rng.randrange(0, k + 1) if k else 0)
        V = MatrixSpace(F, (n, m), [FqMatrix.from_vector(F, g, n, m) for g in gens])
        assert V._echelon()._np
        red, rank, pivots = reference_rref(F, gens or [[0] * (n * m)], n * m)
        assert V._rrows == tuple(red) and V._pivots == pivots
        for vec in random_rows(rng, F, 3, n * m) + gens[:2]:
            A = FqMatrix.from_vector(F, vec, n, m)
            res = reference_residue(F, red, pivots, vec)
            assert V.reduce_vector(vec) == res
            assert V.contains(A) == (not any(res))
            assert V.coordinates(A) == (None if any(res) else
                                        tuple(vec[pc] for pc in pivots))


# --- intersect against the coefficient-kernel intersection ---------------------------


def reference_intersect(U, W):
    """The intersection before Zassenhaus: the null space of the relation
    sum lambda_i u_i - sum mu_j w_j = 0, mapped back through U's basis."""
    F = U.field
    size = U.n * U.m
    k1, k2 = U.dim, W.dim
    if k1 == 0 or k2 == 0:
        return MatrixSpace.zero(F, U.shape)
    rows = [[u[c] for u in U._rrows] + [F.neg(w[c]) for w in W._rrows]
            for c in range(size)]
    red, _, pivots = reference_rref(F, rows, k1 + k2)
    members = []
    for fc in (c for c in range(k1 + k2) if c not in pivots):
        coeffs = [0] * (k1 + k2)
        coeffs[fc] = 1
        for row, pc in zip(red, pivots):
            coeffs[pc] = F.neg(row[fc])
        acc = [0] * size
        for c, u in zip(coeffs[:k1], U._rrows):
            acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, u)]
        members.append(FqMatrix.from_vector(F, acc, U.n, U.m))
    return MatrixSpace(F, U.shape, members)


def space_of(F, vecs, n, m):
    return MatrixSpace(F, (n, m), [FqMatrix.from_vector(F, v, n, m) for v in vecs])


@pytest.mark.parametrize("p,deg", [(2, 1), (13, 1), (3, 2)])
def test_intersect_matches_reference(p, deg, backend):
    F = field_make(p, deg)
    rng = random.Random(f"intersect-{p}-{deg}-{backend}")
    # doubled widths 12 and 18 run on lists, 20 and 24 on numpy
    for n, m in [(2, 3), (3, 3), (2, 5), (3, 4)]:
        size = n * m
        full = random_rows(rng, F, size, size)
        while reference_rref(F, full, size)[1] < size:
            full = random_rows(rng, F, size, size)
        k = rng.randrange(1, size)
        U = space_of(F, full[:k], n, m)
        pairs = [
            (U, space_of(F, full[k:], n, m)),  # complementary
            (U, space_of(F, full[:1] + random_rows(rng, F, 2, size), n, m)),  # meeting
            (U, space_of(F, [], n, m)),  # zero
            (space_of(F, [], n, m), U),
            (U, space_of(F, [[F.add(a, b) for a, b in zip(x, y)]  # equal
                             for x, y in zip(full[:k], full[1:k] + full[:1])]
                         + full[:1], n, m)),
        ]
        for _ in range(4):
            gens = random_rows(rng, F, rng.randrange(0, size), size,
                               rank_cap=rng.randrange(0, size))
            pairs.append((U, space_of(F, gens + full[:rng.randrange(0, k + 1)], n, m)))
        dims = []
        for A, B in pairs:
            inter = A.intersect(B)
            assert inter == reference_intersect(A, B)
            # the wrapped rows and pivots are those a new elimination gives
            again = MatrixSpace(F, inter.shape, list(inter.basis))
            assert (inter._rrows, inter._pivots) == (again._rrows, again._pivots)
            assert inter == B.intersect(A)
            dims.append(inter.dim)
        assert dims[0] == 0 and dims[1] >= 1 and dims[4] == k


# --- verify_base against the two-pass check ----------------------------------------


def rank_one(rng, F, n, m):
    u = [rng.randrange(F.q) for _ in range(n)]
    v = [rng.randrange(F.q) for _ in range(m)]
    return FqMatrix(F, [[F.mul(a, b) for b in v] for a in u])


def mutated_candidate(rng, F, n, m):
    """A random base-like candidate with a few members spoiled."""
    k = rng.randrange(1, n * m + 1)
    members = [rank_one(rng, F, n, m) for _ in range(k)]
    mode = rng.randrange(5)
    if mode == 0 and k > 1:  # a dependent member
        i = rng.randrange(1, k)
        members[i] = members[rng.randrange(i)].scale(rng.randrange(F.q))
    elif mode == 1:  # a rank-two member
        i = rng.randrange(k)
        members[i] = members[i] + rank_one(rng, F, n, m)
    elif mode == 2:  # a zero member
        members[rng.randrange(k)] = FqMatrix.zeros(F, n, m)
    tdim = rng.randrange(0, n * m + 1)
    target = MatrixSpace(F, (n, m), [
        FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)] for _ in range(n)])
        for _ in range(tdim)])
    if mode == 3:  # a target the members span
        target = MatrixSpace(F, (n, m), members[:rng.randrange(1, k + 1)])
    return BaseCandidate(tuple(members), target)


@pytest.mark.parametrize("p,deg", FIELDS)
def test_verify_base_reports_match_reference(p, deg, backend):
    F = field_make(p, deg)
    rng = random.Random(f"verify-{p}-{deg}-{backend}")
    seen = set()
    for _ in range(60):
        n, m = rng.choice([(1, 2), (2, 2), (2, 3), (3, 3), (3, 4)])
        cand = mutated_candidate(rng, F, n, m)
        report = verify_base(cand)
        assert report == reference_verify_base(cand)
        seen.update(name for name in ("bad_rank_index", "dependent_index",
                                      "missing_target_index")
                    if getattr(report, name) is not None)
        if report.passed:
            seen.add("passed")
    # the corpus reaches every kind of failure witness and some passes
    assert seen == {"bad_rank_index", "dependent_index", "missing_target_index",
                    "passed"}


def test_verify_base_reports_match_reference_on_wide_bases():
    F = field_make(13)
    rng = random.Random("verify-wide")
    n, m = 6, 7
    assert Echelon(F, n * m)._np
    for _ in range(8):
        cand = mutated_candidate(rng, F, n, m)
        assert verify_base(cand) == reference_verify_base(cand)


@pytest.mark.parametrize("p,deg,n,m", [(5, 1, 2, 3), (13, 1, 4, 5), (3, 2, 3, 3)])
def test_verify_base_compares_rows_only_at_equal_dimension(p, deg, n, m, monkeypatch):
    # k independent unit matrices against targets of k and fewer dimensions:
    # at equal dimension the span's RREF rows are compared with the target's,
    # and `first_missing` runs only when they differ or the dimensions do
    F = field_make(p, deg)
    units = [FqMatrix.unit(F, n, m, i, j) for i in range(n) for j in range(m)]
    k = n * m - 2
    calls = []
    first_missing = Echelon.first_missing

    def counted(self, vectors):
        calls.append(1)
        return first_missing(self, vectors)

    monkeypatch.setattr(Echelon, "first_missing", counted)

    def check(members, target_members, missing, looked):
        calls.clear()
        cand = BaseCandidate(tuple(members), MatrixSpace(F, (n, m), target_members))
        report = verify_base(cand)
        assert report == reference_verify_base(cand)
        assert report.independent and report.missing_target_index == missing
        assert report.contains_target == (missing is None)
        assert len(calls) == looked

    # the same span, members reordered and scaled: no reduction of the target
    check([U.scale(2) for U in reversed(units[:k])], units[:k], None, 0)
    # as many members as the target's dimension, spanning another space: the
    # target's row k - 1 (E at position k) is the first outside the span
    check(units[:k], units[:k - 1] + [units[k]], k - 1, 1)
    # more members than the target's dimension, covering it or not
    check(units[:k + 1], units[:k], None, 1)
    check(units[:k], units[:2] + [units[k + 1]], 2, 1)


PRIME_AND_EXTENSION = [(13, 1), (LARGEST_AT_40, 1), (2, 2), (3, 2), (5, 4)]
PRIME_AND_EXTENSION_IDS = [str(p ** k) for p, k in PRIME_AND_EXTENSION]


@pytest.mark.parametrize("p,k", PRIME_AND_EXTENSION, ids=PRIME_AND_EXTENSION_IDS)
def test_batched_rank_one_test_matches_is_rank_one(p, k):
    F = field_make(p, k)
    rng = random.Random(f"rank-one-{F.q}")
    for n, m in [(5, 8), (1, 6), (6, 1), (3, 3)]:
        mats = [FqMatrix.zeros(F, n, m), FqMatrix.unit(F, n, m, n - 1, m - 1)]
        for zeros in range(4):  # rank one with the first rows, then columns, zero
            u = [rng.randrange(1, F.q) for _ in range(n)]
            v = [rng.randrange(1, F.q) for _ in range(m)]
            u[:zeros], v[:zeros // 2] = [0] * min(zeros, n), [0] * min(zeros // 2, m)
            mats.append(FqMatrix.outer(F, u, v))
            mats.append(mats[-1] + rank_one(rng, F, n, m))  # rank two, mostly
            mats.append(FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)]
                                     for _ in range(n)]))
        if n > 2:  # two proportional rows and one outside their line
            row = [rng.randrange(1, F.q) for _ in range(m)]
            other = [F.add(x, 1) for x in row]
            mats.append(FqMatrix(F, [[0] * m, row, F.scale(3, row)] + [other] * (n - 3)))
        M = np.array([A.rows for A in mats], dtype=np.int64)
        assert tensor3._rank_one_np(F._int64, M).tolist() == [A.is_rank_one() for A in mats]
        assert any(A.is_rank_one() for A in mats) and not all(A.is_rank_one() for A in mats)


@pytest.mark.parametrize("p,k", PRIME_AND_EXTENSION, ids=PRIME_AND_EXTENSION_IDS)
def test_verify_base_reports_agree_on_both_backends(p, k, monkeypatch):
    # corrupted 4x6 candidates, whose 24-wide rows run on numpy by default
    F = field_make(p, k)
    rng = random.Random(f"reports-{F.q}")
    n, m, k = 4, 6, 20
    members = [rank_one(rng, F, n, m) for _ in range(k)]
    target = MatrixSpace(F, (n, m), members)
    assert target.dim == k
    cands = [BaseCandidate(tuple(members), target)]
    for i in (0, 9, k - 1):  # a member of rank two at index i
        bad = list(members)
        bad[i] = members[i] + rank_one(rng, F, n, m)
        cands.append(BaseCandidate(tuple(bad), target))
    for i in (k // 4, 9, 3 * k // 4):  # a dependent member in either half
        dep = list(members)
        dep[i] = members[rng.randrange(i)].scale(rng.randrange(1, F.q))
        cands.append(BaseCandidate(tuple(dep), target))
        dep = list(members)
        dep[i] = members[0] + members[i - 1]
        cands.append(BaseCandidate(tuple(dep), target))
    extra = MatrixSpace(F, (n, m), members + [rank_one(rng, F, n, m)])
    cands.append(BaseCandidate(tuple(members), extra))  # a span missing a row
    cands.append(BaseCandidate(tuple(members[:-1]), target))
    reports = []
    for width in (1, 10 ** 9):
        monkeypatch.setattr(gf, "_ECHELON_MIN_WIDTH", width)
        reports.append([verify_base(c) for c in cands])
    assert reports[0] == reports[1] == [reference_verify_base(c) for c in cands]
    assert reports[0][0].passed and not any(r.passed for r in reports[0][1:])
    assert [r.bad_rank_index for r in reports[0][1:4]] == [0, 9, k - 1]
    assert [r.dependent_index for r in reports[0][4:10]] == [5, 5, 9, 9, 15, 15]
    assert all(r.missing_target_index is not None for r in reports[0][-2:])


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4), st.data())
def test_is_rank_one_matches_rank(pdeg, n, m, data):
    F = field_make(*pdeg)
    elem = st.integers(0, F.q - 1)
    if data.draw(st.booleans()):  # outer products, often rank one
        u = [data.draw(elem) for _ in range(n)]
        v = [data.draw(elem) for _ in range(m)]
        A = FqMatrix(F, [[F.mul(a, b) for b in v] for a in u])
    else:
        A = FqMatrix(F, [[data.draw(elem) for _ in range(m)] for _ in range(n)])
    assert A.is_rank_one() == (reference_rref(F, A.rows, m)[1] == 1) == (A.rank() == 1)


@pytest.mark.parametrize("p,deg", [(2, 1), (13, 1), (3, 2)])
def test_solve_combination_with_dependent_rows(p, deg, backend):
    # x . rows == t whenever t is in the row span, dependent rows included;
    # None exactly for targets outside it
    F = field_make(p, deg)
    rng = random.Random(f"solve-{p}-{deg}-{backend}")
    for width, k, cap in [(6, 4, 2), (9, 5, 3), (24, 6, 4)]:
        rows = random_rows(rng, F, k, width, rank_cap=cap)
        targets = (random_rows(rng, F, 3, width)
                   + [tuple(reference_combine(F, rng, rows))])
        rank = reference_rref(F, rows, width)[1]
        for t, x in zip(targets, exactla._solve_combination(F, rows, targets)):
            inside = reference_rref(F, rows + [t], width)[1] == rank
            assert (x is not None) == inside
            if inside:
                assert tuple(reference_combine(F, None, rows, x)) == t


def reference_combine(F, rng, rows, coeffs=None):
    """sum c_i rows[i], with random coefficients when none are given."""
    if coeffs is None:
        coeffs = [rng.randrange(F.q) for _ in rows]
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, row)]
    return acc
