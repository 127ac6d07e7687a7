"""3-tensors as slice lists, base verification, and a tiny-instance rank oracle.

A tensor is stored as its k slices (n x m matrices); its first slice space is
the span of the slices.  A base candidate is a claimed list of rank-one
matrices together with the target space it must cover; verification checks
rank-one-ness, linear independence, and containment, reporting a witness for
the first failure of each kind.

The oracle enumerates rank-one matrices up to scalar (both factors normalized
to leading coefficient one) and searches independent subsets in lexicographic
order, so the returned witness is the lexicographically least successful
subset.  It starts at the Kruskal bound dim V + d - 1, with d from the
package's one distance scan `exactla._min_distance` when V has at most 4096
words up to scalar, and at dim V otherwise.  Each candidate is reduced modulo
V once.  Every node of the search then holds the residues of the remaining
candidates modulo the chosen span and modulo the chosen span plus V, so a
membership test reads whether two table rows are zero, and a pick updates the
later rows of each table with one rank-one update: int64 numpy over prime
fields, lists with `Field` arithmetic over extension fields.  A work guard
bounds the number of subset-membership tests, counted as if the candidates
were tested one at a time; sharded runs must reduce with lexicographic
minimum to preserve that contract.  Inputs whose candidate list would exceed
ORACLE_MAX_ENTRIES are refused before any enumeration.

The completion check (is one rank-one N enough to bring a target into a
span?) runs one exact solve per normalized left factor u on the Echelon
kernel, over every field alike: the residues of u (x) v are linear in v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded, ParametersOutOfRange, ShapeMismatch
from .exactla import (
    Echelon,
    FqMatrix,
    MatrixSpace,
    _int64_safe,
    _min_distance,
    _normalized_vectors,
    _projective_count,
    _scale,
    _solve_combination,
)
from .gf import Field

DEFAULT_GUARD = 100_000_000


@dataclass(frozen=True)
class Tensor3:
    """k slices of shape n x m over a common field."""

    field: Field
    slices: tuple

    def __post_init__(self):
        if not self.slices:
            raise ShapeMismatch("a tensor needs at least one slice")
        shape = self.slices[0].shape
        for s in self.slices:
            if s.field != self.field or s.shape != shape:
                raise ShapeMismatch("slices must share field and shape")

    @property
    def shape(self):
        n, m = self.slices[0].shape
        return (len(self.slices), n, m)

    def is_1_nondegenerate(self) -> bool:
        return slice_space(self).dim == len(self.slices)


@dataclass(frozen=True)
class BaseCandidate:
    """A claimed perfect base: rank-one matrices and the space to cover."""

    matrices: tuple
    target: MatrixSpace

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))

    @property
    def size(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class VerificationReport:
    all_rank_one: bool
    independent: bool
    contains_target: bool
    base_size: int
    target_dim: int
    bad_rank_index: int | None = None
    dependent_index: int | None = None
    missing_target_index: int | None = None

    @property
    def passed(self) -> bool:
        return self.all_rank_one and self.independent and self.contains_target

    def to_dict(self):
        return {
            "all_rank_one": self.all_rank_one,
            "independent": self.independent,
            "contains_target": self.contains_target,
            "passed": self.passed,
            "base_size": self.base_size,
            "target_dim": self.target_dim,
            "bad_rank_index": self.bad_rank_index,
            "dependent_index": self.dependent_index,
            "missing_target_index": self.missing_target_index,
        }


def slice_space(X: Tensor3) -> MatrixSpace:
    """Span of the slices; the tensor is 1-nondegenerate iff dim == k."""
    n, m = X.slices[0].shape
    return MatrixSpace(X.field, (n, m), X.slices)


def kruskal_bound(dim: int, d: int) -> int:
    """Lower bound dim + d - 1 on the tensor rank of a code (0 for dim 0)."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if d < 1:
        raise ValueError("distance must be at least 1")
    return 0 if dim == 0 else dim + d - 1


def verify_base(cand: BaseCandidate) -> VerificationReport:
    """Check rank-one-ness, independence, and target containment.

    One incremental elimination of the members gives the first member that
    depends on the earlier ones; target containment is then tested against
    the same echelon.
    """
    target = cand.target
    field = target.field
    shape = target.shape
    for idx, A in enumerate(cand.matrices):
        if A.field != field or A.shape != shape:
            raise ShapeMismatch(f"member {idx} has wrong field or shape")
    bad_rank = next((idx for idx, A in enumerate(cand.matrices)
                     if not A.is_rank_one()), None)

    span = Echelon(field, target.n * target.m)
    dependent = next((idx for idx, A in enumerate(cand.matrices)
                      if not span.insert(A.vectorize())), None)
    missing = span.first_missing(target._rrows) if dependent is None else None
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


def _leading_index(vec):
    for i, v in enumerate(vec):
        if v:
            return i
    return None


# --- rank-one enumeration and the exact oracle -----------------------------------


def rank_one_matrices(field: Field, n: int, m: int):
    """All rank-one n x m matrices up to scalar, in canonical order.

    Both factors are normalized to leading coefficient 1; the order is
    lexicographic in (u, v) encodings with u varying slowest.
    """
    out = []
    for u in _normalized_vectors(field, n):
        for v in _normalized_vectors(field, m):
            out.append(FqMatrix(field,
                                [[field.mul(a, b) for b in v] for a in u]))
    return out


# exhaustive_trk refuses a space whose candidate list would hold more entries
# than this (candidates x n*m) before it enumerates anything.  The search
# keeps two residue tables per level of depth, and 2^20 entries make 8 MB.
ORACLE_MAX_ENTRIES = 1 << 20


def exhaustive_trk(V: MatrixSpace, limit: int = DEFAULT_GUARD):
    """Exact tensor rank of V with a lexicographically least witness.

    Searches subsets of the canonical rank-one list by size, requiring each
    pick to grow the chosen span and pruning branches whose span together
    with V already exceeds the subset size.  Raises GuardExceeded, with
    `progress = {"phase", "R", "tests_used"}`, once more than `limit`
    subset-membership tests would run, and ParametersOutOfRange before any
    enumeration when the candidate list would exceed ORACLE_MAX_ENTRIES.
    """
    for R, witness, _ in _rank_levels(V, limit):
        if witness is not None:
            n, m = V.shape
            mats = [FqMatrix.from_vector(V.field, vec, n, m) for vec in witness]
            return R, BaseCandidate(tuple(mats), V)
    raise AssertionError("the full unit basis always succeeds")  # unreachable


def _rank_levels(V: MatrixSpace, limit: int):
    """Yield (R, witness vectors or None, membership tests) for R = bound, ...

    The first level with a witness is the tensor rank; the generator stops
    there.  `limit` bounds the tests of all levels together.
    """
    field = V.field
    n, m = V.shape
    width = n * m
    cap = ORACLE_MAX_ENTRIES // width
    # a side above 20 has over 2^20 >= cap vectors alone; q^n is not formed
    if (max(n, m) > 20 or _projective_count(field.q, n)
            * _projective_count(field.q, m) > cap):
        raise ParametersOutOfRange(
            f"the oracle's rank-one candidates of {n}x{m} matrices over"
            f" F_{field.q} exceed {ORACLE_MAX_ENTRIES} entries")
    k = V.dim
    if k == 0:
        yield 0, [], 0
        return
    tables, A, Q = _candidate_tables(V)
    start = k  # raised to the Kruskal bound when V's scan is at most 4096 words
    if _projective_count(field.q, k) <= 4096:
        start = kruskal_bound(k, _min_distance(field, V._rrows, 4096, m))
    budget = [limit]
    for R in range(start, width + 1):
        before = budget[0]
        found = _search_subsets(tables, A, Q, k, R, budget, limit)
        witness = None if found is None else [tables.vector(A, i) for i in found]
        yield R, witness, before - budget[0]
        if witness is not None:
            return


def rank_one_completion_exists(span_space: MatrixSpace, targets,
                               guard: int = DEFAULT_GUARD):
    """Is there one rank-one N putting some target inside span + <N>?

    A target T already inside the span counts immediately.  Otherwise, for a
    normalized left factor u, the residue of u (x) v modulo the span is v R_u,
    where row j of R_u is the residue of u (x) e_j; so some u (x) v puts T in
    span + <u (x) v> exactly when the residue of T is a combination v of the
    rows of R_u, and then u (x) v is a witness.  One solve per u decides every
    target.  The witness comes from the first u in canonical order and, for
    that u, the lowest target index.  The guard counts the (u, v) pairs of
    normalized factors and is checked once, before the scan: GuardExceeded
    carries `progress = {"phase": "completion", "needed", "guard"}`.
    Returns (found, detail), detail holding `pairs_scanned` when nothing is
    found.
    """
    F = span_space.field
    n, m = span_space.shape
    for j, T in enumerate(targets):
        if span_space.contains(T):
            return True, {"target_index": j, "inside_span": True}
    pairs = _projective_count(F.q, n) * _projective_count(F.q, m)
    if pairs > guard:
        raise GuardExceeded(
            "completion scan exceeded its guard",
            progress={"phase": "completion", "needed": pairs, "guard": guard})
    residues = [span_space.reduce_vector(T.vectorize()) for T in targets]
    for u in _normalized_vectors(F, n):
        R_u = [span_space.reduce_vector(
                   [a if c == j else 0 for a in u for c in range(m)])
               for j in range(m)]
        for j, v in enumerate(_solve_combination(F, R_u, residues)):
            if v is not None:
                N = FqMatrix(F, [[F.mul(a, c) for c in v] for a in u])
                return True, {"target_index": j, "witness": N}
    return False, {"pairs_scanned": pairs}


# --- the oracle's subset search ---------------------------------------------------
#
# Each DFS node holds two residue tables for the candidates from `start` on:
# A, their residues modulo span(chosen), and Q, their residues modulo
# span(chosen) + V, taken in the coordinates of K^{nm} that are not pivots of
# V.  A candidate is independent of the chosen ones when its A row is nonzero,
# and grows span(chosen) + V when its Q row is nonzero, so a membership test
# is a lookup.  A pick eliminates its own row's lead column from the later
# rows of each table, one rank-one update per table.


class _NumpyTables:
    """Residue tables as int64 arrays, over prime fields small enough that
    the products of two entries, summed over a row, fit in int64."""

    def __init__(self, field):
        import numpy

        self.np = numpy
        self.field = field
        self.p = field.p

    def candidates(self, n, m):
        np, p = self.np, self.p
        U = np.array(list(_normalized_vectors(self.field, n)), dtype=np.int64)
        W = np.array(list(_normalized_vectors(self.field, m)), dtype=np.int64)
        return (U[:, None, :, None] * W[None, :, None, :] % p).reshape(-1, n * m)

    def quotient(self, A, V, free):
        np = self.np
        rows = np.array(V._rrows, dtype=np.int64)
        A = (A - A[:, list(V._pivots)] @ rows) % self.p
        return np.ascontiguousarray(A[:, free])

    def vector(self, T, i):
        return tuple(T[i].tolist())

    def nonzero(self, T, stop):
        """Bit i set when row i < stop of the table is nonzero."""
        mask = T[:stop].any(axis=1)
        return int.from_bytes(self.np.packbits(mask, bitorder="little").tobytes(),
                              "little")

    def pick(self, T, i):
        """(rows after i modulo row i, whether row i was nonzero)."""
        p = self.p
        row = T[i]
        rest = T[i + 1:]
        lead = _leading_index(row.tolist())
        if lead is None:
            return rest, False
        row = row * pow(int(row[lead]), p - 2, p) % p
        out = rest[:, lead, None] * row
        self.np.subtract(rest, out, out=out)
        out %= p
        return out, True


class _ListTables:
    """Residue tables as lists of lists, with `Field` arithmetic."""

    def __init__(self, field):
        self.field = field

    def candidates(self, n, m):
        return [list(A.vectorize()) for A in rank_one_matrices(self.field, n, m)]

    def quotient(self, A, V, free):
        return [[res[j] for j in free] for res in map(V.reduce_vector, A)]

    def vector(self, T, i):
        return tuple(T[i])

    def nonzero(self, T, stop):
        bits = 0
        for i in range(stop):
            if any(T[i]):
                bits |= 1 << i
        return bits

    def pick(self, T, i):
        F = self.field
        row = T[i]
        rest = T[i + 1:]
        lead = _leading_index(row)
        if lead is None:
            return rest, False
        row = _scale(F, F.inv(row[lead]), row)
        return [F.sub_scaled(r, r[lead], row) if r[lead] else r for r in rest], True


def _candidate_tables(V: MatrixSpace):
    """(tables, A, Q): the rank-one candidates in canonical order, and their
    residues modulo V in V's non-pivot coordinates."""
    field = V.field
    n, m = V.shape
    width = n * m
    if _int64_safe(field, width):
        tables = _NumpyTables(field)
    else:
        tables = _ListTables(field)
    A = tables.candidates(n, m)
    pivots = set(V._pivots)
    free = [j for j in range(width) if j not in pivots]
    return tables, A, tables.quotient(A, V, free)


def _search_subsets(tables, A, Q, k, R, budget, limit):
    """Indices of the lexicographically least R-subset of the candidates
    that is independent and spans V, or None.

    Each candidate a node tests costs one unit of `budget`, as in a search
    that tests them one at a time: candidates that cannot be picked are
    charged in bulk, and a pick at depth R - 1 is decided from the tables
    without a child node.
    """
    n_cand = len(A)

    def charge(tests):
        budget[0] -= tests
        if budget[0] < 0:
            raise GuardExceeded(
                "rank oracle exceeded its membership-test guard",
                progress={"phase": "oracle", "R": R,
                          "tests_used": max(limit, 0)})

    def dfs(t, start, av, A, Q):
        # av = dim(span(chosen) + V); a pick must keep it at most R.  The
        # node tests its first `stop` candidates: a later pick would leave
        # fewer candidates after it than the R - t - 1 picks still needed.
        stop = n_cand - start - (R - t) + 1
        if stop <= 0:
            return None
        independent = tables.nonzero(A, stop)
        outside = tables.nonzero(Q, stop)
        viable = independent & ~outside if av == R else independent
        if t == R - 1:
            # A viable last pick gives R independent members inside a span
            # of dim R containing V (av < R means V is inside span(chosen)).
            if not viable:
                charge(stop)
                return None
            i = (viable & -viable).bit_length() - 1
            charge(i + 1)
            return [start + i]
        tested = 0
        while viable:
            low = viable & -viable
            viable ^= low
            i = low.bit_length() - 1
            charge(i + 1 - tested)
            tested = i + 1
            A2, _ = tables.pick(A, i)
            Q2, grew = tables.pick(Q, i)
            hit = dfs(t + 1, start + i + 1, av + grew, A2, Q2)
            if hit is not None:
                return [start + i] + hit
        charge(stop - tested)
        return None

    return dfs(0, 0, k, A, Q)
