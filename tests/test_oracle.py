"""The oracle's table search against the one-test-at-a-time DFS it replaced.

`reference_levels` is that DFS, kept here as the test oracle: it reduces
every candidate against the chosen rows and against V at every node and
charges one test per candidate tried.  The table search must give the same
tensor rank, the same witness and the same number of membership tests at
every candidate rank R from the start level on, so its guard fires on
exactly the same inputs from there.  The start, `tensor3.rank_lower_bound`,
is checked against an independent Griesmer sum and diagonalizability test
here, the reference finds no witness below it, from Kruskal's start on, and
on whole families of small spaces it is at most the tensor rank.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from perfbase import tensor3
from perfbase.cli import main
from perfbase.errors import GuardExceeded, ParametersOutOfRange
from perfbase.exactla import (
    FqMatrix,
    MatrixSpace,
    _projective_count,
)
from perfbase.gf import field_make
from perfbase.tensor3 import exhaustive_trk, kruskal_bound, rank_one_matrices

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)
F7 = field_make(7)
F8 = field_make(2, 3)
F9 = field_make(3, 2)


# --- the reference search -------------------------------------------------------


def _leading_index(vec):
    return next((i for i, v in enumerate(vec) if v), None)


def _reduce_against(F, rows, pivots, vec):
    vec = list(vec)
    for row, pc in zip(rows, pivots):
        c = vec[pc]
        if c:
            vec = [F.sub(a, F.mul(c, b)) for a, b in zip(vec, row)]
    return vec


def _reference_search(F, candidates, R, vrows, vpivots, budget):
    n_cand = len(candidates)

    def dfs(start, chosen, arows, apivots, avrows, avpivots):
        t = len(chosen)
        if t == R:
            return list(chosen) if len(avrows) == R else None
        for idx in range(start, n_cand):
            if n_cand - idx < R - t:
                break
            budget[0] -= 1
            if budget[0] < 0:
                raise GuardExceeded("reference search exceeded its guard")
            vec = candidates[idx]
            red = _reduce_against(F, arows, apivots, vec)
            lead = _leading_index(red)
            if lead is None:
                continue  # dependent on chosen
            redv = _reduce_against(F, avrows, avpivots, vec)
            leadv = _leading_index(redv)
            new_av = len(avrows) + (1 if leadv is not None else 0)
            if new_av > R:
                continue  # span + V can no longer shrink back to R
            arows.append([F.mul(F.inv(red[lead]), v) for v in red])
            apivots.append(lead)
            if leadv is not None:
                avrows.append([F.mul(F.inv(redv[leadv]), v) for v in redv])
                avpivots.append(leadv)
            chosen.append(idx)
            hit = dfs(idx + 1, chosen, arows, apivots, avrows, avpivots)
            if hit is not None:
                return hit
            chosen.pop()
            arows.pop()
            apivots.pop()
            if leadv is not None:
                avrows.pop()
                avpivots.pop()
        return None

    return dfs(0, [], [], [], [list(r) for r in vrows], list(vpivots))


def _scanned_distance(V):
    """The least rank of a nonzero member of V when V has at most 4096 words
    up to scalar, else None."""
    if (V.field.q ** V.dim - 1) // (V.field.q - 1) > 4096:
        return None
    return min(A.rank() for A in V.iter_elements(nonzero_only=True))


def kruskal_start(V):
    """Kruskal's bound when V has at most 4096 words up to scalar, else dim V."""
    d = _scanned_distance(V)
    return V.dim if d is None else kruskal_bound(V.dim, d)


def griesmer_start(V):
    """Griesmer's bound, the sum of ceil(d / q^i) over i < dim V, when V has
    at most 4096 words up to scalar, else dim V."""
    d = _scanned_distance(V)
    if d is None:
        return V.dim
    return sum(math.ceil(Fraction(d, V.field.q ** i)) for i in range(V.dim))


def _diagonalizable(F, M):
    """Whether M is diagonalizable over F: its eigenspaces, of dimension
    n - rank(M - c I) for each c in F, add up to n."""
    eye = FqMatrix.identity(F, M.n)
    return sum(M.n - (M - eye.scale(c)).rank() for c in range(F.q)) == M.n


def reference_diagonal_bound(V):
    """n if A^-1 V is simultaneously diagonalizable, n + 1 if not, None
    without an invertible A.  A is the first invertible member of V's
    canonical basis, or of a pencil, the first invertible member of all of
    V.  The verdict does not depend on which invertible member A is."""
    n = V.n
    if n != V.m:
        return None
    members = V.iter_elements(nonzero_only=True) if V.dim == 2 else V.basis
    A = next((B for B in members if B.rank() == n), None)
    if A is None:
        return None
    M = [A.inverse() @ B for B in V.basis]
    split = (all(_diagonalizable(V.field, X) for X in M)
             and all(X @ Y == Y @ X for X, Y in itertools.combinations(M, 2)))
    return n if split else n + 1


def reference_start(V):
    """The first level the oracle searches: the larger of Kruskal's and
    Griesmer's starts, raised by the diagonal bound when that is at most n."""
    start = max(kruskal_start(V), griesmer_start(V))
    if V.n == V.m and start <= V.n:
        start = max(start, reference_diagonal_bound(V) or 0)
    return start


def reference_levels(V, limit, start=None):
    """(R, witness vectors or None, tests) per level, as `tensor3._rank_levels`,
    from `start`, or from `reference_start(V)` when not given."""
    n, m = V.shape
    candidates = [A.vectorize() for A in rank_one_matrices(V.field, n, m)]
    budget = [limit]
    out = []
    for R in range(reference_start(V) if start is None else start, n * m + 1):
        before = budget[0]
        found = _reference_search(V.field, candidates, R, V._rrows, V._pivots,
                                  budget)
        witness = None if found is None else [candidates[i] for i in found]
        out.append((R, witness, before - budget[0]))
        if witness is not None:
            return out
    raise AssertionError("the full unit basis always succeeds")


def table_levels(V, limit=tensor3.DEFAULT_GUARD, start=None):
    return [(R, None if w is None else [tuple(v) for v in w], tests)
            for R, w, tests in tensor3._rank_levels(V, limit, start)]


# --- the spaces compared ------------------------------------------------------------


def _space(F, mats):
    return MatrixSpace.from_matrices([FqMatrix(F, A) for A in mats])


def _tensor3_cases():
    """Every exhaustive_trk input of test_tensor3.py and criterion 5."""
    cases = [MatrixSpace.from_matrices([FqMatrix.identity(F, 2)])
             for F in (F2, F3)]
    for a1 in range(3):
        for a2 in range(3):
            cases.append(_space(F3, [[[1, 0], [0, 1]], [[0, 1], [a1, a2]]]))
    for F in (F2, F3):
        cases.append(MatrixSpace.from_matrices(
            [FqMatrix.identity(F, 2)]).dual_complement())
    cases.append(MatrixSpace.from_matrices(
        [FqMatrix.identity(F2, 3)]).dual_complement())
    rng = random.Random(5)
    for _ in range(10):
        mats = [[[rng.randrange(2) for _ in range(3)] for _ in range(2)]
                for _ in range(2)]
        V = _space(F2, mats)
        if V.dim:
            cases.append(V)
    return cases


def _random_spaces(F, n, dims, seed):
    rng = random.Random(seed)
    out = []
    for dim in dims:
        while True:
            V = _space(F, [[[rng.randrange(F.q) for _ in range(n)]
                            for _ in range(n)] for _ in range(dim)])
            if V.dim == dim:
                out.append(V)
                break
    return out


SMALL_FIELD_CASES = (
    [(F, V) for F in (F2, F3, F4) for V in _random_spaces(F, 2, (1, 2, 3), F.q)]
    + [(F2, V) for V in _random_spaces(F2, 3, (1, 2, 3, 6), 21)]
    + [(F3, V) for V in _random_spaces(F3, 3, (1, 2, 7), 31)]
    + [(F4, V) for V in _random_spaces(F4, 3, (1, 7, 8), 41)]
    + [(F, V) for F in (F8, F9) for V in _random_spaces(F, 2, (1, 2, 3), F.q)])


def _assert_same_levels(V):
    new = table_levels(V)
    assert new == reference_levels(V, tensor3.DEFAULT_GUARD)
    trk, wit = exhaustive_trk(V)
    assert (trk, [A.vectorize() for A in wit.matrices]) == new[-1][:2]
    return new


def test_table_search_matches_reference_on_tensor3_cases():
    for V in _tensor3_cases():
        _assert_same_levels(V)


@pytest.mark.parametrize("F,V", SMALL_FIELD_CASES,
                         ids=[f"{F!r}-{V!r}" for F, V in SMALL_FIELD_CASES])
def test_table_search_matches_reference_on_small_fields(F, V):
    levels = _assert_same_levels(V)
    assert levels[-1][2] > 0


def _pencil(F, bottom):
    """<I, C> for the companion matrix C with the given bottom row."""
    n = len(bottom)
    C = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)] + [list(bottom)]
    return _space(F, [[[int(i == j) for j in range(n)] for i in range(n)], C])


CUBIC_BOTTOMS_F3 = list(itertools.product(range(3), repeat=3))
# x^3 (nilpotent C), x^3 - x (split), x^3 - x - 2 (irreducible) and six
# more: tensor rank 3 and 4, one level searched and two
SOME_CUBIC_BOTTOMS_F3 = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 0, 2), (1, 1, 1),
                         (1, 2, 2), (2, 0, 1), (2, 1, 0), (2, 2, 1)]


@pytest.mark.parametrize("bottom", list(itertools.product(range(2), repeat=3)))
def test_table_search_matches_reference_on_cubic_pencils_over_f2(bottom):
    _assert_same_levels(_pencil(F2, bottom))


@pytest.mark.parametrize("bottom", SOME_CUBIC_BOTTOMS_F3)
def test_table_search_matches_reference_on_cubic_pencils_over_f3(bottom):
    _assert_same_levels(_pencil(F3, bottom))


@pytest.mark.slow
@pytest.mark.parametrize("bottom", CUBIC_BOTTOMS_F3)
def test_table_search_matches_reference_on_every_cubic_pencil_over_f3(bottom):
    _assert_same_levels(_pencil(F3, bottom))


# --- the start level -------------------------------------------------------------


def _all_two_dim_spaces(F):
    """Every 2-dim space of 2x2 matrices over F, once each."""
    spaces = {}
    for a, b in itertools.combinations(itertools.product(range(F.q), repeat=4), 2):
        V = _space(F, [[a[:2], a[2:]], [b[:2], b[2:]]])
        if V.dim == 2:
            spaces.setdefault(V._rrows, V)
    return list(spaces.values())


# <I, X, Y> over F_2 with idempotents X and Y that do not commute (XY = 0,
# YX != 0): the diagonal bound gives 4 above Kruskal's 3.  With Y' in place
# of Y they commute, and the bound stays 3.  I stays in the canonical basis.
_X = [[0, 1, 0], [0, 1, 0], [0, 0, 0]]
PROJECTION_SPACES = [
    _space(F2, [[[int(i == j) for j in range(3)] for i in range(3)], _X, Y])
    for Y in ([[0, 0, 0], [0, 0, 0], [0, 1, 1]], [[0, 0, 1], [0, 0, 0], [0, 0, 1]])]

START_CASES = (_tensor3_cases() + [V for _, V in SMALL_FIELD_CASES] + PROJECTION_SPACES
               + [_pencil(F2, b) for b in itertools.product(range(2), repeat=3)]
               + [_pencil(F3, b) for b in CUBIC_BOTTOMS_F3])


@pytest.mark.parametrize("V", START_CASES, ids=map(repr, START_CASES))
def test_no_witness_below_the_start_level(V):
    # the levels the diagonal bound skips, from Kruskal's start on, are
    # refuted by the reference search
    n, m = V.shape
    candidates = [A.vectorize() for A in rank_one_matrices(V.field, n, m)]
    start = tensor3.rank_lower_bound(V)[0]
    assert start == reference_start(V)
    for R in range(kruskal_start(V), start):
        assert _reference_search(V.field, candidates, R, V._rrows, V._pivots,
                                 [tensor3.DEFAULT_GUARD]) is None, R


VERDICT_CASES = (
    [_pencil(F, b) for F in (F2, F3, F4, F5, F8, F9)
     for b in itertools.product(range(F.q), repeat=2)]
    + [_pencil(F, b) for F in (F2, F3, F4) for b in itertools.product(range(F.q), repeat=3)]
    + _all_two_dim_spaces(F2) + _all_two_dim_spaces(F3) + _all_two_dim_spaces(F4)
    + [V for V in START_CASES if V.n == V.m])


def test_diagonal_bound_matches_the_eigenspace_count(monkeypatch):
    # the oracle's start on every case, then rank_lower_bound's diagonal
    # verdict against counting eigenspaces: with the distance scan made to
    # give d = 1, Kruskal's bound is dim V <= n and cannot hide the verdict.
    # A space of one member is left out: the test is skipped there, as its
    # true Kruskal bound, the rank of the member, is n when the member is
    # invertible
    for V in VERDICT_CASES:
        assert tensor3.rank_lower_bound(V)[0] == reference_start(V), V
    monkeypatch.setattr(tensor3, "_min_distance", lambda *args: 1)
    verdicts = []
    for V in VERDICT_CASES:
        if 1 < V.dim <= V.n:
            verdict = reference_diagonal_bound(V)
            expected = ((verdict, "diagonal") if verdict is not None and verdict > V.dim
                        else (V.dim, "dimension"))
            assert tensor3.rank_lower_bound(V) == expected, V
            verdicts.append(None if verdict is None else verdict - V.n)
    assert len(verdicts) > 500 and {None, 0, 1} <= set(verdicts)


def test_rank_lower_bound_stops_at_its_goal():
    # <I, C(x^3)> over F_3: dimension 2, Kruskal 3 from a scan of 4 words,
    # diagonal 4.  A bound that reaches the goal ends the call, so a goal
    # the dimension reaches runs no scan, and a guard of 0 does not fire
    V = _pencil(F3, (0, 0, 0))
    assert tensor3.rank_lower_bound(V, 2, guard=0) == (2, "dimension")
    with pytest.raises(GuardExceeded):
        tensor3.rank_lower_bound(V, 3, guard=3)
    assert tensor3.rank_lower_bound(V, 3, guard=4) == (3, "kruskal")
    assert tensor3.rank_lower_bound(V, 4, guard=4) == (4, "diagonal")
    assert tensor3.rank_lower_bound(V) == (4, "diagonal")


# <I, C(f)> over F_2 for the two irreducible cubics f: every nonzero member
# is invertible, so d = 3 > q, and Griesmer's 3 + 2 = 5 is the tensor rank,
# one above Kruskal's 4
IRREDUCIBLE_CUBICS_F2 = [(1, 1, 0), (1, 0, 1)]


@pytest.mark.parametrize("bottom", IRREDUCIBLE_CUBICS_F2)
def test_griesmer_bound_starts_past_the_refuted_level(bottom):
    # from Kruskal's start the table search refutes R = 4 as the reference
    # does; from the bound it searches R = 5 alone, with the same tests
    V = _pencil(F2, bottom)
    assert kruskal_start(V) == 4 and griesmer_start(V) == 5
    assert tensor3.rank_lower_bound(V) == (5, "griesmer")
    levels = table_levels(V, start=4)
    assert levels == reference_levels(V, tensor3.DEFAULT_GUARD, start=4)
    assert [(R, w is None) for R, w, _ in levels] == [(4, True), (5, False)]
    assert table_levels(V) == levels[1:]


def _identity_pencils(F, n):
    """Every 2-dim space <I, M> of n x n matrices over F, once each."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    spaces = {}
    for e in itertools.product(range(F.q), repeat=n * n):
        V = _space(F, [eye, [e[i * n:(i + 1) * n] for i in range(n)]])
        if V.dim == 2:
            spaces.setdefault(V._rrows, V)
    return list(spaces.values())


BOUND_FAMILIES = {
    "3x3-identity-pencils-F2": (lambda: _identity_pencils(F2, 3), 255),
    "3x3-identity-pencils-F3": (lambda: _identity_pencils(F3, 3), 3280),
    "2x2-pencils-F2": (lambda: _all_two_dim_spaces(F2), 35),
    "2x2-pencils-F3": (lambda: _all_two_dim_spaces(F3), 130),
    "2x2-pencils-F4": (lambda: _all_two_dim_spaces(F4), 357),
}


@pytest.mark.parametrize("family", [
    pytest.param(name, marks=[pytest.mark.slow] if name == "3x3-identity-pencils-F3" else [])
    for name in BOUND_FAMILIES])
def test_rank_lower_bound_is_at_most_the_tensor_rank(family):
    # the oracle starts from dim V here, a bound that needs no proof, as
    # from rank_lower_bound it could not return less than the bound.  The
    # 3280 spaces over F_3 take about 9 s, so they are `slow`
    build, count = BOUND_FAMILIES[family]
    spaces = build()
    assert len(spaces) == count
    kinds = set()
    for V in spaces:
        bound, kind = tensor3.rank_lower_bound(V)
        assert bound <= exhaustive_trk(V, start=V.dim)[0], V
        kinds.add(kind)
    if family == "3x3-identity-pencils-F2":
        assert "griesmer" in kinds


def _block_diagonal(*blocks):
    n = sum(map(len, blocks))
    M = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            M[at + i][at:at + len(row)] = row
        at += len(block)
    return M


@pytest.mark.parametrize("blocks,before,trk", [
    # invariant factors (x+1, x+1, x^2+x): diagonalizable, trk = n
    (([[1]], [[1]], [[0, 1], [0, 1]]), (2, "dimension"), 4),
    # (x+1, x^3+x^2): not diagonalizable, trk = n + 1
    (([[1]], [[0, 1, 0], [0, 0, 1], [0, 0, 1]]), (3, "kruskal"), 5),
])
def test_diagonal_bound_finds_an_invertible_member_off_the_canonical_basis(
        blocks, before, trk):
    # <I, M> over F_2 for M in rational canonical form: neither member of
    # the canonical basis is invertible, but their sum is.  The bound took
    # the value `before` when it read only the canonical basis
    V = _space(F2, [[[int(i == j) for j in range(4)] for i in range(4)],
                    _block_diagonal(*blocks)])
    assert all(B._inverse() is None for B in V.basis)
    assert kruskal_start(V) == griesmer_start(V) == before[0]
    assert tensor3.rank_lower_bound(V) == (trk, "diagonal")
    assert reference_diagonal_bound(V) == trk
    assert exhaustive_trk(V, start=before[0])[0] == trk


# (R, witness, tests) per level on spaces where the reference search takes
# seconds, each witness vector packed as a base-q integer.  Pinned from the
# earlier two-class implementation, whose int64 and list tables both gave
# exactly these levels; the refuted levels below the diagonal bound, which
# that implementation also searched, are left out.
PINNED_LEVELS = [
    (F5, 3, 51, [
        [(3, [1, 6826, 761191], 404098)],
        [(4, [1, 156255, 1536416, 1441871], 92948)],
        [(8, [101, 106, 796926, 875056, 812526, 2016, 5166, 409526], 188)]]),
    (F7, 2, 71, [
        [(2, [1, 1653], 46)],
        [(3, [1, 1100, 1485], 19)],
        [(3, [29, 1100, 1485], 19)]]),
]


def test_table_search_matches_pinned_levels():
    for F, n, seed, expected in PINNED_LEVELS:
        spaces = _random_spaces(F, n, (1, 2, n * n - 1), seed)
        packed = [[(R, None if w is None else
                    [sum(x * F.q ** j for j, x in enumerate(v)) for v in w], tests)
                   for R, w, tests in table_levels(V)] for V in spaces]
        assert packed == expected, F


def test_benchmark_oracle_reference_is_reproduced(monkeypatch):
    # the least-witness contract on every item of the `oracle` benchmark's
    # default seed, rebuilt in memory as perfbench/make_oracle_reference.py
    # builds it
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench)
    import workloads

    rebuilt = {}
    for pass_index in range(workloads.CHUNKS):
        oracle = workloads.Oracle(workloads.DEFAULT_SEED, pass_index)
        for item in oracle.items:
            if item[0] not in rebuilt:
                trk, witness = oracle.run(item)
                rebuilt[item[0]] = [trk, [workloads.rows_of(A) for A in witness.matrices]]
    with open(workloads.ORACLE_REFERENCE) as fh:
        assert rebuilt == json.load(fh)


# --- row classes ---------------------------------------------------------------------


def _tables(F, n, m):
    """The oracle's tables over F, ready for n x m rows."""
    tables = tensor3._Tables(F)
    tables.candidates(n, m)
    return tables


def _as_table(tables, rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


def _multiples(F, u, v):
    return any(all(F.mul(c, a) == b for a, b in zip(u, v)) for c in range(1, F.q))


def _class_bits(rows, i):
    return sum(1 << j for j, v in enumerate(rows) if v == rows[i])


def _prime_powers(limit):
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k, rest = 0, q
        while rest % p == 0:
            k, rest = k + 1, rest // p
        if rest == 1:
            yield p, k


def test_inverse_table_inverts_every_unit_of_small_fields():
    # a^(q-2) as gathers (or products mod p) against Field.inv, every field
    # with q <= 125
    fields = list(_prime_powers(125))
    assert len(fields) == 30 + 12
    for p, k in fields:
        F = field_make(p, k)
        inv = tensor3._Tables(F).inv.tolist()
        assert inv[1:] == [F.inv(a) for a in range(1, F.q)], F


def test_inverse_table_is_built_once_per_field_and_read_only():
    for F in (F5, F9):
        first, second = tensor3._Tables(F).inv, tensor3._Tables(F).inv
        assert first is second is F._int64.inverses
        assert not first.flags.writeable


@pytest.mark.parametrize("p,k", [(7, 4), (2, 16), (524269, 1)])
def test_inverse_table_inverts_sampled_units_of_large_fields(p, k):
    F = field_make(p, k)
    inv = tensor3._Tables(F).inv
    assert len(inv) == F.q
    for a in random.Random(F.q).sample(range(1, F.q), 500) + [1, F.q - 1]:
        assert int(inv[a]) == F.inv(a)


@pytest.mark.parametrize("F,n", [(F2, 3), (F3, 3), (F4, 2), (F5, 2), (F7, 2),
                                 (F8, 2), (F9, 2)])
def test_classes_are_exact_projective_classes(F, n):
    # every vector of F^n, twice, in a shuffled order: ids agree exactly for
    # scalar multiples, the zero rows have an id of their own, and masks hold
    # the rows of each class
    rows = list(itertools.product(range(F.q), repeat=n)) * 2
    random.Random(F.q).shuffle(rows)
    tables = _tables(F, 1, n)
    bits, ids, masks = tables.classes(_as_table(tables, rows), len(rows))
    assert bits == sum(1 << i for i, r in enumerate(rows) if any(r))
    assert len(ids) == len(rows)
    for i, u in enumerate(rows):
        for j, v in enumerate(rows):
            same = (not any(u) and not any(v)) or (
                any(u) and any(v) and _multiples(F, u, v))
            assert (ids[i] == ids[j]) == same, (u, v)
    assert len(set(ids)) == 1 + (F.q ** n - 1) // (F.q - 1)
    assert masks == {c: _class_bits(ids, i) for i, c in enumerate(ids)}


def test_classes_read_only_the_first_stop_rows():
    rows = [[1, 2, 0], [0, 0, 0], [2, 4, 0], [0, 1, 3], [1, 1, 0], [0, 0, 0],
            [0, 3, 4]]
    tables = _tables(F5, 1, 3)
    bits, ids, masks = tables.classes(_as_table(tables, rows), len(rows))
    assert bits == 0b1011101
    assert ids[0] == ids[2] and ids[3] == ids[6] and ids[1] == ids[5]
    assert len({ids[0], ids[1], ids[3], ids[4]}) == 4
    # a class of one row has no mask
    assert masks == {ids[0]: 0b101, ids[1]: 0b100010, ids[3]: 0b1001000}
    bits, ids, masks = tables.classes(_as_table(tables, rows), 4)
    assert bits == 0b1101 and len(ids) == 4
    assert masks == {ids[0]: 0b101}


@pytest.mark.parametrize("F,V", [(F, V) for F, V in SMALL_FIELD_CASES
                                 if V.shape == (2, 2)])
def test_a_pick_zeroes_exactly_the_class_of_its_row(F, V):
    # the lemma the search rests on: after picking the nonzero row i, the
    # nonzero later rows are the nonzero rows outside row i's class
    n, m = V.shape
    tables = _tables(F, n, m)
    A = tables.candidates(n, m)
    pivots = set(V._pivots)
    Q = tables.quotient(A, V, [j for j in range(n * m) if j not in pivots])
    for T in (A, Q):
        size = len(T)
        bits, ids, masks = tables.classes(T, size)
        for i in range(size):
            if bits >> i & 1:
                child, _, _ = tables.classes(tables.pick(T, i), size)
                # a class of one row has no mask: only row i is in it
                assert child == (bits & ~masks.get(ids[i], 0)) >> (i + 1)


@pytest.mark.parametrize("F", [F4, F8, F9])
def test_table_arithmetic_matches_the_field(F):
    # the log, antilog and Zech gathers against Field arithmetic, entry by entry
    V = _random_spaces(F, 2, (2,), F.q)[0]
    tables = _tables(F, 2, 2)
    A = tables.candidates(2, 2)
    assert A.tolist() == [list(B.vectorize()) for B in rank_one_matrices(F, 2, 2)]
    free = [j for j in range(4) if j not in V._pivots]
    assert tables.quotient(A, V, free).tolist() == [
        [V.reduce_vector(row)[j] for j in free] for row in A.tolist()]
    for i in random.Random(F.q).sample(range(len(A)), 5):
        row = A[i].tolist()
        lead = next(j for j, x in enumerate(row) if x)
        unit = [F.mul(F.inv(row[lead]), x) for x in row]
        assert tables.pick(A, i).tolist() == [
            F.sub_scaled(r, r[lead], unit) for r in A[i + 1:].tolist()]


def test_packed_class_ids_fit_in_int64():
    # class ids pack a row of n*m entries as a base-q integer.  Every
    # (q, n, m) with nm > 1 that the oracle's size check admits has
    # q^(nm) < 2^63, and q < 2^19 (the inverse table has q entries); 1x1
    # spaces build no tables.  Extension fields have at most 2^16 elements.
    limit = (1 << 19) + 64  # past the next prime above 2^19
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    primes = [p for p in range(limit + 1) if sieve[p]]
    powers = sorted(p ** k for p in primes if p < 1 << 8
                    for k in range(2, 17) if p ** k <= 1 << 16)
    checked = {}
    for n in range(1, 21):
        for m in range(1, 21):
            width = n * m
            if width == 1:
                continue
            cap = tensor3.ORACLE_MAX_ENTRIES // width
            for kind, qs in (("prime", primes), ("extension", powers)):
                for q in qs:
                    if _projective_count(q, n) * _projective_count(q, m) > cap:
                        break  # the count grows with q
                    assert q ** width < 1 << 63 and q < 1 << 19, (q, n, m)
                    checked[kind] = checked.get(kind, 0) + 1
                else:
                    assert kind == "extension", f"{n}x{m} admits a prime beyond 2^19"
    assert checked["prime"] > 40000 and checked["extension"] == 334


def test_oracle_over_a_prime_beyond_int64_products():
    p = (1 << 61) - 1
    F = field_make(p)
    trk, wit = exhaustive_trk(_space(F, [[[5]]]))
    assert trk == 1 and wit.matrices[0].rows == ((1,),)


@pytest.mark.parametrize("F", [F4, F5])
def test_one_by_one_space_is_answered_directly(F):
    # one candidate, [1]: it is the witness at R = 1 after one test
    V = _space(F, [[[3]]])
    assert table_levels(V) == table_levels(V, 1) == [(1, [(1,)], 1)]
    for limit in (0, -3):
        with pytest.raises(GuardExceeded) as info:
            exhaustive_trk(V, limit=limit)
        assert info.value.progress == {"phase": "oracle", "R": 1, "tests_used": 0}


# --- the guard --------------------------------------------------------------------------


@pytest.mark.parametrize("deg", [1, 2])
def test_guard_boundary_is_the_exact_test_count(deg):
    F = field_make(2, deg)
    for V in _random_spaces(F, 3, (2, 3), 7):
        levels = table_levels(V)
        total = sum(tests for _, _, tests in levels)
        trk, _ = exhaustive_trk(V, limit=total)
        assert trk == levels[-1][0]
        with pytest.raises(GuardExceeded) as info:
            exhaustive_trk(V, limit=total - 1)
        assert info.value.progress == {"phase": "oracle", "R": trk,
                                       "tests_used": total - 1}


def test_guard_on_a_quartic_pencil_over_f5():
    # <I, C((x-1)^2 (x-2)(x-3))>: 24336 candidates; C is not diagonalizable,
    # so the search starts at R = 5, undecided there
    with pytest.raises(GuardExceeded) as info:
        exhaustive_trk(_pencil(F5, (4, 2, 3, 2)), limit=10 ** 6)
    assert info.value.progress == {"phase": "oracle", "R": 5, "tests_used": 10 ** 6}


# A 3-dim space of 3x3 matrices over F_3, from a seeded search: d = 2 <= q,
# so Kruskal's and Griesmer's bounds are both 4 > n, which the diagonal
# bound cannot raise, and its tensor rank is 5
KRUSKAL_GAP_F3 = [[[1, 0, 0], [1, 0, 0], [2, 1, 0]],
                  [[0, 1, 0], [0, 1, 1], [2, 1, 0]],
                  [[0, 0, 1], [2, 0, 2], [2, 2, 1]]]


def test_guard_progress_names_the_rank_reached():
    V = _space(F3, KRUSKAL_GAP_F3)
    assert tensor3.rank_lower_bound(V) == (4, "kruskal")
    levels = table_levels(V)
    assert [(R, w is None) for R, w, _ in levels] == [(4, True), (5, False)]
    first = levels[0][2]
    with pytest.raises(GuardExceeded) as info:
        exhaustive_trk(V, limit=first + 1)
    assert info.value.progress == {"phase": "oracle", "R": levels[1][0],
                                   "tests_used": first + 1}
    with pytest.raises(GuardExceeded) as info:
        exhaustive_trk(V, limit=0)
    assert info.value.progress == {"phase": "oracle", "R": levels[0][0],
                                   "tests_used": 0}


# --- input size ---------------------------------------------------------------------------


def test_oversized_space_is_refused_before_enumeration():
    F7 = field_make(7)
    V = MatrixSpace.from_matrices([FqMatrix.identity(F7, 6)])
    t0 = time.perf_counter()
    with pytest.raises(ParametersOutOfRange):
        exhaustive_trk(V)
    assert time.perf_counter() - t0 < 0.5


def test_size_limit_boundary():
    # 1 x m over F_2: 2^m - 1 candidates of m entries
    assert (2 ** 16 - 1) * 16 < tensor3.ORACLE_MAX_ENTRIES < (2 ** 17 - 1) * 17
    ones = lambda m: _space(F2, [[[1] * m]])
    assert exhaustive_trk(ones(16))[0] == 1
    with pytest.raises(ParametersOutOfRange):
        exhaustive_trk(ones(17))


def test_the_zero_space_has_rank_zero_and_an_empty_witness():
    for F, shape in ((F3, (2, 2)), (F4, (1, 3))):
        trk, witness = exhaustive_trk(MatrixSpace.zero(F, shape))
        assert trk == 0 and witness.matrices == () and witness.target.dim == 0


# The child caps its own address space; the cap does not reach this process.
_MEMORY_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from perfbase.exactla import FqMatrix, MatrixSpace
from perfbase.gf import field_make
from perfbase.tensor3 import exhaustive_trk
F = field_make(int(sys.argv[1]))
row = [int(x) for x in sys.argv[2].split(",")]
trk, _ = exhaustive_trk(MatrixSpace.from_matrices([FqMatrix(F, [row])]))
# VmHWM starts afresh at exec; ru_maxrss would include the parent's RSS
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(trk, peak_kb)
"""


@pytest.mark.parametrize("p,row", [(2, [1] * 16), (524269, [1, 5])])
def test_oracle_memory_is_linear_in_the_candidates(p, row):
    # 65,535 and 524,270 candidates, each its own row class: one bit mask per
    # class took 550 MB on the first and a MemoryError under this cap on the
    # second
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _MEMORY_CHILD, str(p), ",".join(map(str, row))],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    trk, peak_kb = map(int, out.stdout.split())
    assert trk == 1 and peak_kb < 200 * 1024


def _oracle_cli(tmp_path, capsys, obj, *extra):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(obj))
    rc = main(["oracle", str(space), *extra])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_refuses_oversized_space(tmp_path, capsys):
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    rc, out = _oracle_cli(tmp_path, capsys, {
        "field": {"p": 7}, "basis": [{"n": 6, "m": 6, "entries": eye}]})
    assert rc == 2 and out["kind"] == "input"


@pytest.mark.parametrize("obj", [
    {"field": {"p": 3}},
    {"field": {"p": 3}, "basis": []},
    {"basis": [{"n": 1, "m": 1, "entries": [[1]]}]},
    {"field": {"p": 3}, "basis": [{"n": 1, "m": 1}]},
    {"field": {"p": 3}, "basis": {"n": 1}},
    {"field": {"p": 3}, "basis": [[1]]},
    {"field": [3], "basis": [{"n": 1, "m": 1, "entries": [[1]]}]},
    [1, 2],
])
def test_cli_malformed_oracle_input_is_an_input_error(tmp_path, capsys, obj):
    rc, out = _oracle_cli(tmp_path, capsys, obj)
    assert rc == 2 and out["kind"] == "input" and not out["ok"]


def test_cli_malformed_oracle_input_has_no_traceback(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"field": {"p": 3}}))
    proc = subprocess.run([sys.executable, "-m", "perfbase", "oracle", str(space)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["kind"] == "input"


def test_cli_guard_exit_reports_progress(tmp_path, capsys):
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    obj = {"field": {"p": 2}, "basis": [{"n": 3, "m": 3, "entries": eye}]}
    rc, out = _oracle_cli(tmp_path, capsys, obj, "--guard", "0")
    assert rc == 3 and out["kind"] == "guard"
    assert out["progress"] == {"phase": "oracle", "R": 3, "tests_used": 0}
    # mid-search: the space spends its guard in its second level
    first = table_levels(_space(F3, KRUSKAL_GAP_F3))[0][2]
    obj = {"field": {"p": 3},
           "basis": [{"n": 3, "m": 3, "entries": A} for A in KRUSKAL_GAP_F3]}
    rc, out = _oracle_cli(tmp_path, capsys, obj, "--guard", str(first + 1))
    assert rc == 3 and out["kind"] == "guard"
    assert out["progress"] == {"phase": "oracle", "R": 5, "tests_used": first + 1}
