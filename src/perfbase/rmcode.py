"""Rank-metric codes over F_q^{n x m} and their tensor-rank certificates.

Vector codes over F_{q^m} expand to matrix codes through a coordinate basis;
evaluation codes of (twisted) linearized polynomials give the classical MRD
families.  The dual of a one-dimensional such code admits an explicit
(nm-m+1)-base, one-dimensional codes admit evaluation-interpolation bases of
size m+s-1, and shortening plus row extension turns those into codes meeting
the tensor-rank lower bound for every admissible parameter set.  `build_mtr`
builds each core per (q, m, k, d) once per process; the k = m core is the seed.

Minimum distances are computed exhaustively by `exactla._min_distance`
(one word per scalar class, under a guard); `min_rank_distance` and
`min_hamming_distance` are its public faces, and no estimation is ever used.
Scans may be sharded externally as long as results reduce with `min`.

The base field of every expansion here is prime: all constructions at desk
scale live over F_p.  Scalars given to a code, a basis or a polynomial are
encoded by `Field.encode`, the package's one coercion rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .construct import (
    CompanionSpec,
    ConstructionResult,
    _finish,
    _power_members,
    _power_target,
    y_matrix,
)
from .errors import (
    BadEta,
    BadSubset,
    CaseNotCovered,
    DependentBasis,
    FieldTooSmall,
    FieldMismatch,
    InternalVerificationError,
    InvalidWitness,
    NotABase,
    NotCoprime,
    ParametersOutOfRange,
    ShapeMismatch,
)
from .exactla import (
    DEFAULT_SCAN_GUARD,
    Echelon,
    FqMatrix,
    MatrixSpace,
    _combine,
    _min_distance,
    _projective_count,
    _scan_guard,
    _solve_combination,
    _unvectorize,
)
from .gf import Field, FieldElement, field_make, find_primitive, norm
from .tensor3 import BaseCandidate, kruskal_bound, verify_base

_GABIDULIN_CHECK = 1 << 14  # `gabidulin` re-checks MRD on scans of this many points or fewer


# --- coordinate bases ---------------------------------------------------------------


class GammaBasis:
    """An ordered basis of F_{q^m} over a prime F_q for coordinate expansion."""

    def __init__(self, ext_field: Field, elements=None):
        self.ext_field = ext_field
        self.base_field = field_make(ext_field.p)
        self.m = ext_field.deg
        if elements is None:
            alpha = find_primitive(ext_field)
            encs = [ext_field.pow(alpha.enc, i) for i in range(self.m)]
        else:
            encs = list(map(ext_field.encode, elements))
            if len(encs) != self.m:
                raise DependentBasis("need exactly m basis elements")
        self.elements = tuple(encs)
        G = FqMatrix(self.base_field,
                     [ext_field.coeffs_of(e) for e in self.elements])
        self._G = G
        self._Ginv = G._inverse()
        if self._Ginv is None:
            raise DependentBasis("coordinate matrix is singular")

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def power(q: int, m: int) -> "GammaBasis":
        """Power basis 1, a, ..., a^{m-1} of the canonical primitive element.

        Equal arguments return the same (immutable) basis object.
        """
        return GammaBasis(field_make(q, m))

    @property
    def q(self) -> int:
        return self.base_field.p

    def expand_scalar(self, theta) -> tuple:
        """Coordinates of a scalar with respect to this basis."""
        return gamma_expand([theta], self).rows[0]

    def generator_companion(self) -> CompanionSpec:
        """Companion of the minimal polynomial of the basis generator.

        Only meaningful for a power basis (elements 1, a, ..., a^{m-1}); the
        bottom row is the coordinate vector of a^m.
        """
        if self.m < 2:
            raise ParametersOutOfRange("companions need m >= 2")
        top = self.ext_field.pow(self._generator(), self.m)
        return CompanionSpec(self.base_field, self.m, self.expand_scalar(top))

    def _generator(self) -> int:
        """The a of a power basis (1, a, ..., a^{m-1}); 1 when m = 1.

        ParametersOutOfRange for a basis of m >= 2 elements of any other form.
        """
        if self.m == 1:
            return 1
        a = self.elements[1]
        if any(self.elements[i] != self.ext_field.pow(a, i)
               for i in range(self.m)):
            raise ParametersOutOfRange("not a power basis")
        return a

    def mult_matrix(self, beta) -> FqMatrix:
        """Right-multiplication matrix of beta in this coordinate frame."""
        enc = self.ext_field.encode(beta)
        return gamma_expand(self.ext_field.scale(enc, self.elements), self)

    def frame_change_from(self, other: "GammaBasis") -> FqMatrix:
        """T with expand_self(theta) = expand_other(theta) @ T ... inverse map."""
        if other.ext_field != self.ext_field:
            raise FieldMismatch("bases of different extension fields")
        return other._G @ self._Ginv


def gamma_expand(v, gamma: GammaBasis) -> FqMatrix:
    """Coordinate matrix of a vector over the extension field."""
    ext = gamma.ext_field
    q = ext.q
    coeffs = [ext.coeffs_of(x % q if type(x) is int else ext.encode(x)) for x in v]
    return FqMatrix(gamma.base_field, coeffs) @ gamma._Ginv


# --- codes ---------------------------------------------------------------------------


class VectorCode:
    """A subspace of F_{q^m}^n given by independent generator rows."""

    def __init__(self, ext_field: Field, generators):
        self.ext_field = ext_field
        rows = [tuple(map(ext_field.encode, g)) for g in generators]
        if not rows:
            raise ParametersOutOfRange("need at least one generator row")
        self.n = len(rows[0])
        if any(len(r) != self.n for r in rows):
            raise ShapeMismatch("ragged generator rows")
        if FqMatrix(ext_field, rows).rank() != len(rows):
            raise DependentBasis("generator rows are dependent")
        self.generators = tuple(rows)

    @property
    def dim(self) -> int:
        return len(self.generators)


class RankCode:
    """A matrix rank-metric code: an F_q-subspace of n x m matrices."""

    def __init__(self, space: MatrixSpace):
        self.space = space
        self._distance = None

    @property
    def field(self):
        return self.space.field

    @property
    def n(self):
        return self.space.n

    @property
    def m(self):
        return self.space.m

    @property
    def k(self) -> int:
        return self.space.dim

    def distance(self, guard: int = DEFAULT_SCAN_GUARD) -> int:
        if self._distance is None:  # a memo hit is guarded as its scan was
            self._distance = min_rank_distance(self, guard)
        elif self.k:
            _scan_guard(self.field, self.k, guard)
        return self._distance

    def __repr__(self):
        return f"RankCode[{self.n}x{self.m}, k={self.k}]"


class BlockCode:
    """A linear block code over F_q with the Hamming metric."""

    def __init__(self, field: Field, generators):
        self.field = field
        rows = [tuple(map(field.encode, g)) for g in generators]
        if not rows:
            raise ParametersOutOfRange("need at least one generator row")
        self.length = len(rows[0])
        if FqMatrix(field, rows).rank() != len(rows):
            raise DependentBasis("generator rows are dependent")
        self.generators = tuple(rows)
        self._distance = None

    @property
    def k(self) -> int:
        return len(self.generators)

    def distance(self, guard: int = DEFAULT_SCAN_GUARD) -> int:
        if self._distance is None:  # a memo hit is guarded as its scan was
            self._distance = min_hamming_distance(self, guard)
        else:
            _scan_guard(self.field, self.k, guard)
        return self._distance

    def is_mds(self, guard: int = DEFAULT_SCAN_GUARD) -> bool:
        return self.distance(guard) == self.length - self.k + 1


def gamma_expand_code(C: VectorCode, gamma: GammaBasis) -> RankCode:
    """The F_q-span of the expanded codewords; dimension m * dim(C)."""
    if C.ext_field != gamma.ext_field:
        raise FieldMismatch("code and basis live in different extensions")
    ext = gamma.ext_field
    scales = [ext.p ** j for j in range(gamma.m)]  # coefficient-basis scalars
    mats = []
    for g in C.generators:
        for s in scales:
            mats.append(gamma_expand(ext.scale(s, g), gamma))
    space = MatrixSpace(gamma.base_field, (C.n, gamma.m), mats)
    if space.dim != gamma.m * C.dim:
        raise InternalVerificationError("expansion dimension mismatch")
    return RankCode(space)


# --- exhaustive distance scans -------------------------------------------------------


def min_rank_distance(C: RankCode, guard: int = DEFAULT_SCAN_GUARD) -> int:
    """Exact minimum rank over nonzero codewords; n+1 for the zero code."""
    if C.k == 0:
        return C.n + 1
    return _min_distance(C.field, C.space._rrows, guard, C.m)


def min_hamming_distance(B: BlockCode, guard: int = DEFAULT_SCAN_GUARD) -> int:
    """Exact minimum Hamming weight over nonzero codewords."""
    return _min_distance(B.field, B.generators, guard)


# --- MRD / MTR predicates and duality -------------------------------------------------


def is_mrd(C: RankCode, guard: int = DEFAULT_SCAN_GUARD) -> bool:
    """Equality in the rank-metric dimension bound k = m(n-d+1)."""
    if C.k == 0:
        return False
    return C.k == C.m * (C.n - C.distance(guard) + 1)


def is_mtr(C: RankCode, trk_witness: BaseCandidate,
           guard: int = DEFAULT_SCAN_GUARD) -> bool:
    """Witness verifies for C and has the minimal size k + d - 1."""
    if trk_witness.target.shape != C.space.shape \
            or trk_witness.target.field != C.field:
        raise InvalidWitness("witness ambient does not match the code")
    cand = BaseCandidate(trk_witness.matrices, C.space)
    if not verify_base(cand).passed:
        return False
    return cand.size == kruskal_bound(C.k, C.distance(guard))


def dual_code(C: RankCode) -> RankCode:
    """Orthogonal complement under the trace form, with fresh parameters."""
    return RankCode(C.space.dual_complement())


# --- linearized polynomials and evaluation codes ---------------------------------------


@dataclass(frozen=True)
class LinearizedPoly:
    """Coefficients f_0..f_{k-1} (plus a twist) paired with q-power exponents."""

    ext_field: Field
    s: int
    coeffs: tuple
    eta: int = 0

    def __post_init__(self):
        encode = self.ext_field.encode
        object.__setattr__(self, "coeffs", tuple(map(encode, self.coeffs)))
        object.__setattr__(self, "eta", encode(self.eta))

    def evaluate(self, u) -> FieldElement:
        ext = self.ext_field
        q = ext.p
        order = ext.q - 1
        enc = ext.encode(u)
        acc = 0
        for i, f in enumerate(self.coeffs):
            if f and enc:
                power = ext.pow(enc, pow(q, self.s * i, order))
                acc = ext.add(acc, ext.mul(f, power))
        if self.eta and self.coeffs and self.coeffs[0] and enc:
            kk = len(self.coeffs)
            power = ext.pow(enc, pow(q, self.s * kk, order))
            acc = ext.add(acc, ext.mul(self.eta, ext.mul(self.coeffs[0], power)))
        return FieldElement(ext, acc)


def gabidulin(U_basis, k: int, s: int, eta, gamma: GammaBasis | None = None):
    """Evaluation code of twisted linearized polynomials on a subspace basis.

    Returns the vector code; the expansion of any such code is MRD, which is
    re-checked exhaustively whenever the scan is small enough.
    """
    entries = [x if isinstance(x, FieldElement) else None for x in U_basis]
    if any(e is None for e in entries):
        raise ParametersOutOfRange("U_basis must be field elements")
    ext = entries[0].field
    n = len(entries)
    m = ext.deg
    if not 1 <= k < n:
        raise ParametersOutOfRange("need 1 <= k < n")
    if math.gcd(s, m) != 1:
        raise NotCoprime("the Frobenius step must be coprime to m")
    eta_enc = ext.encode(eta)
    # as gcd(s, m) = 1, prod_{l<m} eta^(q^(sl)) is the norm of eta onto F_q
    sign = ext.pow(ext.neg(1), m * k)
    if eta_enc and norm(FieldElement(ext, eta_enc), ext.p).enc == sign:
        raise BadEta("the twist violates the norm condition")
    gamma = gamma or GammaBasis(ext)
    coords = gamma_expand(list(map(ext.encode, entries)), gamma)
    if coords.rank() != n:
        raise DependentBasis("U_basis entries are F_q-dependent")
    rows = []
    for i in range(k):
        coeffs = [0] * k
        coeffs[i] = 1
        f = LinearizedPoly(ext, s, tuple(coeffs), eta_enc if i == 0 else 0)
        rows.append([f.evaluate(e).enc for e in entries])
    code = VectorCode(ext, rows)
    if _projective_count(ext.p, m * k) <= _GABIDULIN_CHECK:
        d = min_rank_distance(gamma_expand_code(code, gamma))
        if d != n - k + 1:
            raise InternalVerificationError("evaluation code is not MRD")
    return code


# --- base extension along dependent rows -----------------------------------------------


def extend_base_lindep(base_s: BaseCandidate, lambdas) -> BaseCandidate:
    """Append rows that are fixed combinations of the first s rows.

    Members and canonical target rows r gain the same dependent rows, [r; Lambda r],
    one `_combine` per coefficient row: ranks and spanning are kept, the target's RREF
    is read off, with r's pivots, and a member of another field or shape raises.
    """
    target = base_s.target
    F, s, m = target.field, target.n, target.m
    lam = [list(map(F.encode, row)) for row in lambdas]
    if any(len(row) != s for row in lam):
        raise ShapeMismatch("each coefficient row must have s entries")
    if not lam:
        return base_s

    def extend(vec):  # row-major [r; Lambda r]
        rows = [vec[i:i + m] for i in range(0, s * m, m)]
        return vec + tuple(v for c in lam for v in _combine(F, c, rows, m))

    members = tuple(_unvectorize(F, extend(target._vector(M)), s + len(lam), m)
                    for M in base_s.matrices)
    return BaseCandidate(members, MatrixSpace._of(
        F, (s + len(lam), m), tuple(map(extend, target._rrows)), target._pivots))


# --- one-dimensional code bases ---------------------------------------------------------


def one_dim_power_base(gamma: GammaBasis, s: int) -> ConstructionResult:
    """(m+s-1)-base for the expansion of the one-dimensional power code.

    Built by evaluation at m+s-2 points plus a leading-coefficient term: each
    member is an outer product of a point-power column with the coordinates
    of the matching interpolation polynomial evaluated at the generator.
    Needs a power basis and q >= m+s-2 distinct points.
    """
    return _finish(_power_candidate(gamma, s), "one-dim-interpolation",
                   {"q": gamma.q, "m": gamma.m, "s": s}, {})


def _power_candidate(gamma: GammaBasis, s: int) -> BaseCandidate:
    """The unverified base of `one_dim_power_base`.

    For each point c, the member's row is the power-basis coordinates of
    l_c(a) = prod_{c' != c} (a - c') / (c - c'), computed in F_{q^m}; the
    last member carries prod_c (a - c) in its bottom row.
    """
    Fq = gamma.base_field
    ext = gamma.ext_field
    m = gamma.m
    if not 1 <= s <= m:
        raise ParametersOutOfRange("need 1 <= s <= m")
    npts = m + s - 2
    if Fq.q < npts:
        raise FieldTooSmall(f"need q >= {npts} evaluation points")
    a = gamma._generator()
    # a base-field scalar c is the extension element of encoding c
    diffs = [ext.sub(a, c) for c in range(npts)]
    values = []
    for c in range(npts):
        num = denom = 1
        for c2 in range(npts):
            if c2 != c:
                num = ext.mul(num, diffs[c2])
                denom = Fq.mul(denom, Fq.sub(c, c2))
        values.append(ext.mul(num, Fq.inv(denom)))
    pi_all = 1
    for diff in diffs:
        pi_all = ext.mul(pi_all, diff)
    coords = gamma_expand(values + [pi_all], gamma).rows
    members = [FqMatrix.outer(Fq, [Fq.pow(c, t) for t in range(s)], coords[c])
               for c in range(npts)]
    members.append(FqMatrix.outer(Fq, [0] * (s - 1) + [1], coords[npts]))
    target = gamma_expand_code(power_vector_code(gamma, s), gamma).space
    return BaseCandidate(tuple(members), target)


def power_vector_code(gamma: GammaBasis, s: int) -> VectorCode:
    """The one-dimensional code spanned by (1, a, ..., a^{s-1})."""
    ext = gamma.ext_field
    return VectorCode(ext, [[gamma.elements[i] if i < gamma.m else 0
                             for i in range(s)]])


def one_dim_row_base(gamma: GammaBasis, v_row) -> ConstructionResult:
    """Base of the expansion of a single-row code with arbitrary entries.

    The entry span is realized as a scalar multiple of a power span (found by
    intersecting shifted copies), and the power base is transported through
    the scalar's multiplication matrix on the right and the entries' power
    coordinates on the left.  Ints are reduced mod q; an element of another
    field raises FieldMismatch.
    """
    v = list(map(gamma.ext_field.encode, v_row))
    return _finish(_row_candidate(gamma, v), "one-dim-row",
                   {"q": gamma.q, "m": gamma.m, "row": list(v)}, {})


def _row_candidate(gamma: GammaBasis, v) -> BaseCandidate:
    """The unverified base of `one_dim_row_base` for a row of encodings.

    With v_t / pi = sum_j Lam[t][j] a^j (j < s), the expansion of the row is
    Lam times the expansion of the power row (1, a, ..., a^{s-1}) times M_pi,
    so the power base maps through the one left factor Lam.
    """
    ext = gamma.ext_field
    Fq = gamma.base_field
    m = gamma.m
    if not any(v):
        raise ParametersOutOfRange("the row must be nonzero")
    span = MatrixSpace(Fq, (1, m), [FqMatrix._of(Fq, (row,))
                                    for row in gamma_expand(v, gamma).rows])
    s = span.dim
    pi = _power_multiple(gamma, span, s)
    mult_pi = gamma.mult_matrix(pi)
    # coefficients of v_t / pi in the power frame, restricted to degree < s
    pi_inv = ext.inv(pi)
    coords = gamma_expand(ext.scale(pi_inv, v), gamma).rows
    if any(any(row[s:]) for row in coords):
        raise InternalVerificationError("entry left the power span")
    Lam = FqMatrix(Fq, [row[:s] for row in coords])
    if Lam.rank() != s:
        raise InternalVerificationError("the entries no longer span the power span")
    power = _power_candidate(gamma, s)
    return BaseCandidate(
        tuple(Lam @ A @ mult_pi for A in power.matrices),
        MatrixSpace(Fq, (len(v), m), [Lam @ B @ mult_pi for B in power.target.basis]))


def _power_multiple(gamma: GammaBasis, span: MatrixSpace, s: int) -> int:
    """A scalar pi with pi * (power span of dimension s) equal to `span`."""
    if s == gamma.m:
        return 1
    # B -> B * alpha^{-1}; alpha = elements[1] exists, since m == 1 forces s == m
    one = FqMatrix.identity(gamma.base_field, 1)
    shift = gamma.mult_matrix(gamma.ext_field.inv(gamma.elements[1]))
    shifted = cur = span
    for _ in range(s - 1):
        cur = cur.transform(one, shift)
        shifted = shifted.intersect(cur)
        if shifted.dim == 0:
            raise CaseNotCovered(
                "entry span is not a scalar multiple of a power span")
    row = _combine(gamma.base_field, shifted._rrows[0], gamma._G.rows, gamma.m)
    return gamma.ext_field.enc_of(row)  # the scalar whose expansion is that row


# --- headline constructions ---------------------------------------------------------------


def dual_gabidulin_mtr_base(q: int, m: int, n: int,
                            gamma: GammaBasis | None = None):
    """The dual of a one-dimensional evaluation code plus its minimal base.

    With M the companion of the power basis's generator a, theta (1, a, ...,
    a^{n-1}) expands to [x; xM; ...; xM^{n-1}], x the coordinates of theta,
    so the code is the dual power span of Y_n M^r, r < m (s = m), of
    dimension m(n-1) and distance 2.  The base is the dual-powers-rect members
    of s = m-1: nm-m+1 of them, matching the tensor-rank lower bound exactly.
    In another frame gamma both move by T^{-t}, T = gamma.frame_change_from(power).
    A gamma of another field raises FieldMismatch, whatever its encodings.
    """
    if q < m:
        raise FieldTooSmall("need q >= m")
    if not 2 <= n <= m:
        raise ParametersOutOfRange("need 2 <= n <= m")
    power = GammaBasis.power(q, m)
    spec, Fq = power.generator_companion(), power.base_field
    space = _power_target(spec, m, y_matrix(Fq, n, m))
    members = FqMatrix._from_array(Fq, _power_members(spec, n, m - 1)[0])
    if gamma is not None and (gamma.ext_field != power.ext_field
                              or gamma.elements != power.elements):
        Tt_inv = gamma.frame_change_from(power).transpose().inverse()
        space = space.transform(FqMatrix.identity(Fq, n), Tt_inv)
        members = tuple(A @ Tt_inv for A in members)
    return RankCode(space), _finish(BaseCandidate(members, space), "gabidulin-dual-mtr",
                                    {"q": q, "m": m, "n": n}, {})


def two_dim_bound(G_rows, gamma: GammaBasis):
    """Tensor-rank bounds and a witness for a two-row generator matrix.

    Returns (lower, upper, candidate): the lower bound is the
    dimension-plus-distance bound k + d - 1 with d the exact distance of the
    expanded code, the upper bound is the size of the pruned union of the
    two single-row bases.
    """
    ext = gamma.ext_field
    Fq = gamma.base_field
    m = gamma.m
    rows = [list(map(ext.encode, g)) for g in G_rows]
    if len(rows) != 2:
        raise ParametersOutOfRange("need exactly two generator rows")
    if Fq.q < 2 * m - 3:
        raise FieldTooSmall("need q >= 2m-3")
    gmat = FqMatrix(ext, rows)
    red, rank, _ = gmat.rref()
    if rank == 1:
        res = one_dim_row_base(gamma, red.rows[0])
        size = res.candidate.size
        return size, size, res.candidate
    parts = [_row_candidate(gamma, red.rows[i]) for i in range(2)]
    union = parts[0].matrices + parts[1].matrices
    grew = Echelon(Fq, union[0].n * union[0].m).extend([A.vectorize() for A in union])
    picked = [A for A, g in zip(union, grew) if g]
    target = parts[0].target.sum_with(parts[1].target)
    cand = _finish(BaseCandidate(tuple(picked), target), "two-dim-bound",
                   {"q": Fq.p, "m": m}, {}).candidate
    # rank weight is invariant under F_{q^m} scalars, so the q^m + 1
    # projective codewords row0 and a*row0 + row1 attain the distance
    row0, row1 = red.rows[0], red.rows[1]
    words = itertools.chain([row0], (_combine(ext, (a, 1), (row0, row1), len(row0))
                                     for a in range(ext.q)))
    d = min(gamma_expand(w, gamma).rank() for w in words)
    lower = kruskal_bound(target.dim, d)
    return lower, len(picked), cand


def psi_block(C: RankCode, A: BaseCandidate) -> BlockCode:
    """Coordinates of the code with respect to a base, as a block code."""
    try:
        cand = BaseCandidate(A.matrices, C.space)
        ok = verify_base(cand).passed
    except ShapeMismatch:
        ok = False
    if not ok:
        raise NotABase("the candidate does not cover the code")
    rows = _solve_combination(C.field, [M.vectorize() for M in A.matrices],
                              C.space._rrows)
    if None in rows:
        raise InternalVerificationError("target row is not a combination")
    return BlockCode(C.field, rows)


def shorten_mtr(C: RankCode, A: BaseCandidate, S):
    """Intersection of the code with the span of selected base members.

    Below the distance the intersection is zero; from the distance upward it
    is a minimal-tensor-rank subcode of dimension |S| - d + 1 whose witness
    is the selected members themselves, and whose distance is d, recorded
    unscanned.  Returns (code, witness-or-None).
    """
    R = len(A.matrices)
    S = sorted(set(map(operator.index, S)))
    if any(i < 0 or i >= R for i in S):
        raise BadSubset(f"indices must lie in 0..{R - 1}")
    d = C.distance()
    if d != C.n:
        raise ParametersOutOfRange("shortening needs distance equal to the row count")
    if len(A.matrices) != C.k + d - 1:
        raise InvalidWitness("witness size must be k + d - 1")
    if len(S) <= d - 1:
        return RankCode(MatrixSpace.zero(C.field, C.space.shape)), None
    chosen = [A.matrices[i] for i in S]
    inter = C.space.intersect(MatrixSpace(C.field, C.space.shape, chosen))
    expected = len(S) - d + 1
    if inter.dim != expected:
        raise InternalVerificationError(
            f"shortening produced dimension {inter.dim}, expected {expected}")
    code = RankCode(inter)
    # a nonzero subcode of C has words of rank at least d, as words of C, and
    # at most n = d, as n-row matrices: its distance is d
    code._distance = d
    return code, BaseCandidate(tuple(chosen), inter)


@functools.lru_cache(maxsize=64)
def _mtr_core(q, m, k, d):
    """`build_mtr`'s seed shortened to dimension k: the n = d code and its
    witness.  The k = m core is the seed, the power base on d rows and its
    code C0, scanned here once; every other core shortens it."""
    if k < m:
        return shorten_mtr(*_mtr_core(q, m, m, d), range(k + d - 1))
    base = _power_candidate(GammaBasis.power(q, m), d)
    C0 = RankCode(base.target)
    C0.distance()
    return C0, base


def build_mtr(q: int, n: int, m: int, k: int, d: int):
    """An [n x m, k, d] code meeting the tensor-rank bound, with witness.

    Pipeline: expand the one-dimensional power code on d rows (an
    [d x m, m, d] code with an (m+d-1)-base), shorten to dimension k, then
    append n-d zero rows to code and witness.  Cores are built once per
    (q, m, k, d) per process; the k = m core is the seed, the one scanned, and
    every shortened core takes its distance d.
    """
    code, result = _build_mtr(q, n, m, k, d)
    return code, result.candidate


def _build_mtr(q, n, m, k, d):
    """`build_mtr` with its witness's ConstructionResult, which holds the
    verification report the CLI's certificate carries."""
    if not (1 <= k <= m and 1 <= d <= n and d <= m):
        raise ParametersOutOfRange("need 1 <= k <= m and 1 <= d <= min(n, m)")
    if q < m + d - 2:
        raise FieldTooSmall("need q >= m + d - 2")
    core, witness = _mtr_core(q, m, k, d)
    witness = extend_base_lindep(witness, [[0] * d] * (n - d))
    sub = RankCode(witness.target)
    sub._distance = core._distance  # appended zero rows change no rank
    return sub, _finish(BaseCandidate(witness.matrices, sub.space), "build-mtr",
                        {"q": q, "n": n, "m": m, "k": k, "d": d}, {})
