"""3-tensors as slice lists, base verification, and a tiny-instance rank oracle.

A tensor is stored as its k slices (n x m matrices); its first slice space is
the span of the slices.  A base candidate is a claimed list of rank-one
matrices together with the target space it must cover; verification checks
rank-one-ness, linear independence, and containment, reporting a witness for
the first failure of each kind.

The oracle enumerates rank-one matrices up to scalar (both factors normalized
to leading coefficient one) and searches independent subsets in lexicographic
order, so the returned witness is the lexicographically least successful
subset.  It starts at `rank_lower_bound`, the package's one lower bound on
a tensor rank, so no level it skips can hold a witness.  A search node holds
the residues of the later candidates modulo the chosen span and modulo the
chosen span plus V, as int64 arrays over every field, with the field's int64
form `Field._int64`, built once per field by `gf`.  A node two picks or
more above the last reads the projective class of each table row once, as a
base-q integer, and its children's membership tests are bit operations on
the rows of those classes, so only a child with a viable pick gets tables.
A node whose children make the last pick reads only its rows' nonzero bits,
and each viable child's from that child's own tables.  A 1x1
space has one candidate and is answered without tables.  A work guard bounds
the number of subset-membership tests, counted as if the candidates were
tested one at a time; sharded runs must reduce with lexicographic minimum to
preserve that contract.  Inputs whose candidate list would exceed
ORACLE_MAX_ENTRIES are refused before any enumeration.

The completion check (is one rank-one N enough to bring a target into a
span?) runs one exact solve per normalized left factor u on the Echelon
kernel, over every field alike: the residues of u (x) v are linear in v.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain

from .errors import GuardExceeded, ParametersOutOfRange, ShapeMismatch
from .exactla import (
    Echelon,
    FqMatrix,
    MatrixSpace,
    _least_rank,
    _normalized_vectors,
    _projective_count,
    _reduced,
    _scan_guard,
    _solve_combination,
    _unvectorize,
)
from .gf import Field, _backend

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
    _array = None  # not a field: set only by `_from_array`

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))

    @classmethod
    def _from_array(cls, A, target):
        """The candidate of the matrices of A (`FqMatrix._from_array`), which
        carries A, read-only, so that `verify_base` checks that very array."""
        cand = cls(FqMatrix._from_array(target.field, A), target)
        A.flags.writeable = False
        object.__setattr__(cand, "_array", A)
        return cand

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
        return {**asdict(self), "passed": self.passed}


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


def rank_lower_bound(V: MatrixSpace, goal: float = float("inf"), guard: int | None = None):
    """(value, kind): a lower bound on the tensor rank of V and its proof.

    Tried cheapest first, until one reaches `goal`; a kind is named only
    when it raises the value.  "dimension": dim V.  "kruskal": dim V + d - 1,
    by a distance scan bounded by `guard` (without one, only on at most 4096
    words up to scalar).  "griesmer": the sum of ceil(d / q^i) over
    i < dim V, from the same d.  Proof: a least base A_1..A_R of V is
    independent, so the coordinates c(B) of B in V, with B = sum c_i A_i,
    form an injective F_q-linear map V -> F_q^R, and rank B <= wt c(B).  So
    c(V) is an [R, dim V, >= d]_q linear code, Griesmer's bound (IBM J. Res.
    Dev. 1960) holds for it, and the bound grows with d.  It exceeds
    Kruskal's exactly when d > q and dim V > 1.  "diagonal", for n x n V while the value
    is at most n: with A an invertible member of V, if any, and M_j =
    A^-1 B_j over V's canonical basis B_j, n if every M_j^q = M_j and M_j
    commute, else n + 1.  A is the first invertible member of the canonical
    basis, or for a pencil (dim 2, canonical basis B_1, B_2) of B_1, B_2
    and B_2 + c B_1 for the units c of encodings 1 to min(n, q) - 1.  These
    are min(n, q) + 1 members up to scalar, and det(x B_1 + y B_2) is
    either 0, when no member is invertible, or has at most n roots up to
    scalar; when q < n they are all of V's members.  So a pencil's A is
    found whenever V has one.  Proof: V holds A, so trk >= n.  If trk = n, then
    B = U D_B W^t for every B in V, with D_B diagonal and U, W invertible as
    A is, so the M_j = W^-t (D_A^-1 D_B) W^t are simultaneously
    diagonalizable.  Over F_q, M is diagonalizable exactly when its minimal
    polynomial divides x^q - x, that is, when M^q = M; and commuting
    diagonalizable matrices are simultaneously diagonalizable.  (More than
    n independent M_j never are, but then dim V > n.)
    """
    field, k, (n, m) = V.field, V.dim, V.shape
    q = field.q
    value, kind = k, "dimension"
    if 0 < k < goal and (guard is not None or _projective_count(q, k) <= 4096):
        d = _least_rank(V, 4096 if guard is None else guard)
        if d > 1:
            value, kind = kruskal_bound(k, d), "kruskal"
        griesmer = sum(-(-d // q ** i) for i in range(k))
        if value < goal and griesmer > value:
            value, kind = griesmer, "griesmer"
    if n == m and value <= n and value < goal and k > 1:  # one member: M = [I]
        members = V.basis
        if k == 2:
            B1, B2 = members
            members = chain(members, (B2 + B1.scale(c) for c in range(1, min(n, q))))
        inverse = next((inv for A in members if (inv := A._inverse()) is not None), None)
        if inverse is not None:
            M = [inverse @ B for B in V.basis]
            bound = n + 1 - (all(X.power(q) == X for X in M) and all(
                X @ Y == Y @ X for i, X in enumerate(M) for Y in M[:i]))
            if bound > value:
                value, kind = bound, "diagonal"
    return value, kind


def verify_base(cand: BaseCandidate) -> VerificationReport:
    """Check rank-one-ness, independence, and target containment.

    One elimination of the members, `Echelon.extend`, gives the first member
    that depends on the earlier ones; target containment is then tested
    against the same echelon.  When the independent members span as many
    dimensions as the target has, containment is equality, and RREF is
    unique: the span's canonical rows are compared with the target's, and the
    target is reduced only when they differ, to find the first missing row.
    On numpy (`gf._backend`, by width, over F_p and F_{p^k} alike) the members
    are one int64 array, `cand._array` if carried, one rank-one batch.
    """
    target = cand.target
    field = target.field
    shape = target.shape
    for idx, A in enumerate(cand.matrices):
        if A.field != field or A.shape != shape:
            raise ShapeMismatch(f"member {idx} has wrong field or shape")
    span = Echelon(field, target.n * target.m)
    if _backend(field, "echelon", span.width, span.width) != "lists":
        import numpy as np
        M = cand._array if cand._array is not None else np.array(
            [A.rows for A in cand.matrices], dtype=np.int64).reshape(-1, *shape)
        rank_one, vectors = _rank_one_np(field._int64, M).tolist(), M.reshape(len(M), -1)
    else:
        rank_one = map(FqMatrix.is_rank_one, cand.matrices)  # stops at the first False
        vectors = [A.vectorize() for A in cand.matrices]
    bad_rank = next((idx for idx, one in enumerate(rank_one) if not one), None)
    grew = span.extend(vectors)
    dependent = grew.index(False) if False in grew else None
    missing = None
    if dependent is None and not (span.rank == target.dim
                                  and span.rref()[0] == target._rrows):
        missing = span.first_missing(target._rrows)
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


def _rank_one_np(arith, M):
    """Which matrices of an int64 batch, over any field, have rank one.  A nonzero
    matrix's first nonzero row, scaled to 1 at its lead column j, is a unit
    row v; the matrix has rank one exactly when it equals (its column j) v."""
    import numpy as np
    idx = np.arange(len(M))
    nonzero = M.any(axis=2)
    first = M[idx, nonzero.argmax(axis=1)]
    lead = (first != 0).argmax(axis=1)
    unit = arith.scaled(arith.inv(first[idx, lead])[:, None], first)
    outer = arith.scaled(M[idx, :, lead][:, :, None], unit[:, None, :])
    return nonzero.any(axis=1) & (outer == M).all(axis=(1, 2))


# --- rank-one enumeration and the exact oracle -----------------------------------


def rank_one_matrices(field: Field, n: int, m: int):
    """All rank-one n x m matrices up to scalar, in canonical order.

    Both factors are normalized to leading coefficient 1; the order is
    lexicographic in (u, v) encodings with u varying slowest.
    """
    return [FqMatrix.outer(field, u, v) for u in _normalized_vectors(field, n)
            for v in _normalized_vectors(field, m)]


# exhaustive_trk refuses a space whose candidate list would hold more entries
# than this (candidates x n*m) before it enumerates anything.  The search
# keeps two residue tables per level of depth, and 2^20 entries make 8 MB.
ORACLE_MAX_ENTRIES = 1 << 20


def exhaustive_trk(V: MatrixSpace, limit: int = DEFAULT_GUARD, start: int | None = None):
    """Exact tensor rank of V with a lexicographically least witness.

    Searches subsets of the canonical rank-one list by size, from `start`
    on, which must be a lower bound such as a caller's value of
    `rank_lower_bound(V)` (computed when not given); each pick grows the
    chosen span, and a branch whose span with V exceeds the subset size is
    cut.  Raises GuardExceeded, with `progress = {"phase", "R",
    "tests_used"}`, once more than `limit` subset-membership tests would
    run, and ParametersOutOfRange before any enumeration when the candidate
    list would exceed ORACLE_MAX_ENTRIES.
    """
    for R, witness, _ in _rank_levels(V, limit, start):
        if witness is not None:
            mats = [_unvectorize(V.field, vec, *V.shape) for vec in witness]
            return R, BaseCandidate(tuple(mats), V)
    raise AssertionError("the full unit basis always succeeds")  # unreachable


def _rank_levels(V: MatrixSpace, limit: int, start: int | None = None):
    """Yield (R, witness vectors or None, tests) from R = `start`, a lower
    bound on the tensor rank, or `rank_lower_bound(V)` when not given.

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
    if width == 1:  # one candidate, [1], which spans V; p may be huge here
        if limit < 1:
            raise _guard_exceeded(1, limit)
        yield 1, [(1,)], 1
        return
    tables = _Tables(field)
    A = tables.candidates(n, m)
    Q = tables.quotient(A, V, [j for j in range(width) if j not in V._pivots])
    budget = [limit]
    if start is None:
        start = rank_lower_bound(V)[0]
    for R in range(start, width + 1):
        before = budget[0]
        found = _search_subsets(tables, A, Q, k, R, budget, limit)
        witness = None if found is None else [tuple(map(int, A[i])) for i in found]
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
    normalized factors and is checked once, before the scan (`_scan_guard`):
    GuardExceeded carries `progress = {"phase": "completion", "needed", "guard"}`.
    Targets of another field or shape raise as `MatrixSpace.contains` does,
    and the span's rows are reduced once per call.  Returns (found, detail),
    detail holding `pairs_scanned` when nothing is found.
    """
    F = span_space.field
    n, m = span_space.shape
    vecs = [span_space._vector(T) for T in targets]
    span = span_space._echelon()
    residues = [span.reduce(vec) for vec in vecs]
    for j, res in enumerate(residues):
        if not any(res):
            return True, {"target_index": j, "inside_span": True}
    pairs = _scan_guard(_projective_count(F.q, n) * _projective_count(F.q, m), guard,
                        "completion", "rank-one pairs")
    for u in _normalized_vectors(F, n):
        R_u = [span.reduce([a if c == j else 0 for a in u for c in range(m)])
               for j in range(m)]
        for j, v in enumerate(_solve_combination(F, R_u, residues)):
            if v is not None:
                N = FqMatrix.outer(F, u, v)
                return True, {"target_index": j, "witness": N}
    return False, {"pairs_scanned": pairs}


# --- the oracle's subset search ---------------------------------------------------
#
# A DFS node holds two residue tables for the candidates from `start` on: A,
# their residues modulo span(chosen), and Q, their residues modulo
# span(chosen) + V, in V's non-pivot coordinates.  A candidate is independent
# of the chosen ones when its A row is nonzero, and grows span(chosen) + V
# when its Q row is nonzero.  Picking row i zeroes exactly the later rows
# that are scalar multiples of row i, so a node can read each table's row
# classes once and derive its children's nonzero rows with bit operations.


class _Tables:
    """Residue tables as int64 arrays.  Their arithmetic is `arith`, the
    field's int64 form `Field._int64`: over F_p the size check keeps p below
    2^19 once nm > 1, so its products and sums fit in int64.  A class id
    packs the row scaled to leading coefficient 1 as a base-q integer, which
    is exact: q^(nm) < 2^63 for every input the oracle admits."""

    def __init__(self, field):
        self.arith = field._int64
        # a^(q-2) = 1/a for a != 0, and inv[0] only ever scales a zero row
        self.inv = self.arith.inverses

    def candidates(self, n, m):
        import numpy as np
        field = self.arith.field
        self.powers = field.q ** np.arange(n * m, dtype=np.int64)
        U = np.array(list(_normalized_vectors(field, n)), dtype=np.int64)
        W = np.array(list(_normalized_vectors(field, m)), dtype=np.int64)
        return self.arith.scaled(U[:, None, :, None],
                                 W[None, :, None, :]).reshape(-1, n * m)

    def quotient(self, A, V, free):
        import numpy as np
        A = _reduced(self.arith, A, np.array(V._rrows, dtype=np.int64), list(V._pivots))
        return np.ascontiguousarray(A[:, free])

    @staticmethod
    def nonzero(T, stop):
        """The bits of the nonzero rows i < stop of T."""
        import numpy as np
        rows = np.packbits(T[:stop].any(axis=1), bitorder="little")
        return int.from_bytes(rows.tobytes(), "little")

    def classes(self, T, stop):
        """(bits, ids, masks) for the rows i < stop of T: bits as `nonzero`,
        ids[i] is the class id of row i (0 for a zero row), and masks maps
        each class of two rows or more to the bits of its rows.  A pick of
        row i clears only the later rows of its class, so a one-row class
        needs no mask, and N one-row classes do not cost N^2 bits."""
        import numpy as np
        T, w = T[:stop], T.shape[1]  # w = 0 when V is the whole space
        lead = T[np.arange(len(T)), (T != 0).argmax(axis=1)] if w else 0
        ids = (self.arith.scaled(self.inv[lead, None], T) @ self.powers[:w]).tolist()
        masks, first = {}, {}  # first: class id -> its first row
        for i, c in enumerate(ids):
            j = first.setdefault(c, i)
            if j != i:
                masks[c] = masks.get(c, 1 << j) | 1 << i
        zero = masks.get(0) or (1 << first[0] if 0 in first else 0)
        return ((1 << len(ids)) - 1) & ~zero, ids, masks

    def pick(self, T, i):
        """The rows after i modulo the nonzero row i."""
        row, rest = T[i], T[i + 1:]
        lead = next(j for j, x in enumerate(row.tolist()) if x)
        return self.arith.sub_scaled(rest, rest[:, lead, None],
                                     self.arith.scaled(self.inv[row[lead]], row))


def _guard_exceeded(R, limit):
    return GuardExceeded("rank oracle exceeded its membership-test guard",
                         progress={"phase": "oracle", "R": R,
                                   "tests_used": max(limit, 0)})


def _search_subsets(tables, A, Q, k, R, budget, limit):
    """Indices of the lexicographically least R-subset of the candidates
    that is independent and spans V, or None.

    Each candidate a node tests costs one unit of `budget`, as in a search
    that tests them one at a time: candidates that cannot be picked are
    charged in bulk.  A node with no viable pick is decided from its
    parent's bits without tables, and a node whose pick is the last from
    its own bits, which its parent reads from the node's tables.
    """
    n_cand = len(A)

    def charge(tests):
        budget[0] -= tests
        if budget[0] < 0:
            raise _guard_exceeded(R, limit)

    def last(start, stop, viable):
        # A viable last pick gives R independent members inside a span of
        # dim R containing V (av < R means V is inside span(chosen)).
        if not viable:
            charge(stop)
            return None
        i = (viable & -viable).bit_length() - 1
        charge(i + 1)
        return [start + i]

    def node(t, start, av, A, Q):
        # av = dim(span(chosen) + V); a pick must keep it at most R.  The
        # node tests its first `stop` candidates: a later pick would leave
        # fewer candidates after it than the R - t - 1 picks still needed.
        # Its classes and bits take one row more, the last one its children
        # test.  There are at least nm >= R candidates, so stop >= 1.
        stop = n_cand - start - (R - t) + 1
        if t == R - 1:  # the root, when R = 1: its picks are last picks
            independent = tables.nonzero(A, stop)
            return last(start, stop, independent & ~tables.nonzero(Q, stop)
                        if av == R else independent)
        # Most nodes whose children make the last pick have one viable pick,
        # so such a node reads only its bits, and each viable child's from
        # the child's tables.  Any other node reads its classes, whose masks
        # cut children with no viable pick before they get tables.  At
        # av == R every viable pick has a zero Q row, so no pick reads Q's
        # classes: its child keeps Q, and Q's bits shift past the pick
        leaves = t + 2 == R
        if leaves:
            independent = tables.nonzero(A, stop + 1)
        else:
            independent, ids_a, masks_a = tables.classes(A, stop + 1)
        if av < R and not leaves:
            outside, ids_q, masks_q = tables.classes(Q, stop + 1)
        else:
            outside = tables.nonzero(Q, stop + 1)
        viable = independent if av < R else independent & ~outside
        viable &= (1 << stop) - 1
        tested = 0
        while viable:
            low = viable & -viable
            viable ^= low
            i = low.bit_length() - 1
            charge(i + 1 - tested)
            tested = i + 1
            # the pick zeroes the later rows of row i's class; a pick with a
            # zero Q row leaves Q as it is
            grew = outside >> i & 1
            if leaves:
                independent2 = tables.nonzero(tables.pick(A, i), stop - i)
                outside2 = (tables.nonzero(tables.pick(Q, i), stop - i) if grew
                            else outside >> (i + 1))
            else:
                independent2 = (independent & ~masks_a.get(ids_a[i], 0)) >> (i + 1)
                outside2 = (outside & ~masks_q.get(ids_q[i], 0) if grew
                            else outside) >> (i + 1)
            viable2 = independent2 & ~outside2 if av + grew == R else independent2
            if leaves or not viable2:
                hit = last(start + i + 1, stop - i, viable2)
            else:
                hit = node(t + 1, start + i + 1, av + grew, tables.pick(A, i),
                           tables.pick(Q, i) if grew else Q[i + 1:])
            if hit is not None:
                return [start + i] + hit
        charge(stop - tested)
        return None

    return node(0, 0, k, A, Q)
