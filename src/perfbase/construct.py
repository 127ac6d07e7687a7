"""Explicit perfect-base constructions for companion-matrix tensor families.

Covers the power-family dual bases built from shift-conjugated rank ones,
their rectangular truncations, left-factor variants, the inverse-power family
bases (diagonalizable part plus one or two companion-difference corrections),
the singular-companion glue, and the square-plus-one-column pencil base.
A companion's left eigenrow for a root e of f is the coefficient row of
f(x)/(x - e), and its inverse is closed form: neither takes an elimination.
A row w is the polynomial sum w_j x^j and wM = x w mod f, so the block form's
rows for a rootless cofactor g of degree r are the shifts x^j f/g, j < r; as
F[x]/(f) = F[x]/(f/g) x F[x]/(g), they and the eigenrows are independent.
Every rank-one member is built from its two factors, u v^t by
`FqMatrix.outer`: a spectral projector, a geometric epsilon member, a unit
matrix or a three-term sign member.  The power-family bases, the largest,
stay in arrays of the field's int64 form `Field._int64` from their target's
slices to the member array A = u (x) v that `verify_base` checks.  The
corrections that complete a base are differences of powers, Y (M^e - M_h^e).

Every public constructor verifies its own output once (rank one,
independent, contains the target) before returning; a failure raises
InternalVerificationError and is always a bug, never a caller error.  All
constructors are pure.  The one helper that verifies, `_finish`, runs only
at a public entry, on the object it returns.  Compositions (the singular
glue, rmcode's dual evaluation codes) take members from the unverified
builder `_power_members`, not from a public constructor, so no part of a
result is verified on its own.  `_finish` also finishes rmcode's
constructions and the `oracle` certificate of the command line.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGammaSet,
    BadN,
    CaseNotCovered,
    CharTwo,
    FieldMismatch,
    FieldTooSmall,
    InternalVerificationError,
    ParametersOutOfRange,
    RepeatedRoot,
    Singular,
    SingularM,
    UnsupportedCofactorDegree,
    ZeroGamma,
)
from .exactla import FqMatrix, MatrixSpace, _dual
from .gf import Field, FieldElement, FqPolynomial, _backend, poly_roots
from .tensor3 import BaseCandidate, VerificationReport, verify_base


@dataclass(frozen=True)
class CompanionSpec:
    """A companion matrix given by its bottom row (a_1, ..., a_m)."""

    field: Field
    m: int
    bottom: tuple

    def __post_init__(self):
        if self.m < 2:
            raise ParametersOutOfRange("companion matrices need m >= 2")
        enc = tuple(map(self.field.encode, self.bottom))
        if len(enc) != self.m:
            raise ParametersOutOfRange("bottom row length must equal m")
        object.__setattr__(self, "bottom", enc)

    @classmethod
    def from_polynomial(cls, f: FqPolynomial) -> "CompanionSpec":
        """Spec of the companion of a monic polynomial x^m - a_m x^{m-1} - ... - a_1."""
        if not f.is_monic() or f.degree < 2:
            raise ParametersOutOfRange("need a monic polynomial of degree >= 2")
        F = f.field
        return cls(F, f.degree, tuple(F.neg(c) for c in f.coeffs[:-1]))

    @property
    def invertible(self) -> bool:
        return self.bottom[0] != 0

    def char_poly(self) -> FqPolynomial:
        F = self.field
        return FqPolynomial(F, [F.neg(a) for a in self.bottom] + [1])


@dataclass(frozen=True)
class GammaSet:
    """Ordered distinct nonzero scalars (1, gamma_1, ..., gamma_{s-1})."""

    field: Field
    elements: tuple

    def __post_init__(self):
        # an int must already be an encoding: -1 or q + 1 is refused, not reduced
        try:
            encs = tuple(map(self.field.encode, self.elements))
        except FieldMismatch:
            raise BadGammaSet("element of another field") from None
        if any(e != x for e, x in zip(encs, self.elements)):
            raise BadGammaSet("element outside the field")
        if not encs or encs[0] != 1:
            raise BadGammaSet("the first element must be 1")
        if 0 in encs:
            raise BadGammaSet("elements must be nonzero")
        if len(set(encs)) != len(encs):
            raise BadGammaSet("elements must be distinct")
        object.__setattr__(self, "elements", encs)

    def __len__(self):
        return len(self.elements)

    @classmethod
    def canonical(cls, field: Field, s: int) -> "GammaSet":
        """The s smallest units in canonical order (always starting at 1)."""
        if s < 1:
            raise ParametersOutOfRange(f"s must be at least 1, got {s}")
        if s > field.q - 1:
            raise FieldTooSmall(f"need {s} distinct units, field has {field.q - 1}")
        return cls(field, tuple(range(1, s + 1)))


@dataclass(frozen=True)
class ConstructionResult:
    """A self-verified base together with its provenance and auxiliaries."""

    candidate: BaseCandidate
    construction: str
    params: dict
    auxiliary: dict
    report: VerificationReport


def _finish(candidate, construction, params, auxiliary) -> ConstructionResult:
    """Verify a candidate and wrap it; InternalVerificationError if it fails."""
    report = verify_base(candidate)
    if not report.passed:
        raise InternalVerificationError(
            f"{construction} failed self-verification: {report.to_dict()}")
    vars(candidate).pop("_array", None)  # results are kept; a builder's array is not
    return ConstructionResult(candidate, construction, dict(params),
                              dict(auxiliary), report)


# --- companion machinery -----------------------------------------------------------


def companion(spec: CompanionSpec) -> FqMatrix:
    """Identity superdiagonal block over the bottom row (a_1, ..., a_m)."""
    m = spec.m
    return FqMatrix._of(spec.field, tuple(tuple([int(j == i + 1) for j in range(m)])
                                          for i in range(m - 1)) + (spec.bottom,))


def companion_inverse(spec: CompanionSpec) -> FqMatrix:
    """Closed-form inverse: shifted identity under a single corrected first row."""
    if not spec.invertible:
        raise SingularM("companion with a_1 = 0 is singular")
    F = spec.field
    m = spec.m
    inv = F.inv(spec.bottom[0])
    first = tuple([F.neg(F.mul(a, inv)) for a in spec.bottom[1:]] + [inv])
    return FqMatrix._of(F, (first,) + tuple(tuple([int(j == i - 1) for j in range(m)])
                                            for i in range(1, m)))


def _cyclic_spec(field: Field, m: int) -> CompanionSpec:
    """The companion of x^m - 1, whose transpose is `shift_J`."""
    return CompanionSpec(field, m, (1,) + (0,) * (m - 1))


def shift_J(field: Field, m: int) -> FqMatrix:
    """Cyclic permutation matrix: left multiplication shifts rows down by one."""
    if m < 2:
        raise ParametersOutOfRange("shift matrices need m >= 2")
    return companion(_cyclic_spec(field, m)).transpose()


def epsilon(gamma, m: int) -> FqMatrix:
    """Rank-one matrix with geometric first row and -gamma-scaled second row."""
    if not isinstance(gamma, FieldElement):
        raise ZeroGamma("gamma must be a field element")
    field = gamma.field
    g = field.encode(gamma)
    if g == 0:
        raise ZeroGamma("gamma must be nonzero")
    if m < 2:
        raise ParametersOutOfRange("need m >= 2")
    return FqMatrix.outer(field, [1, field.neg(g)] + [0] * (m - 2),
                          [field.pow(g, m - 1 - j) for j in range(m)])


def y_matrix(field: Field, n: int, m: int) -> FqMatrix:
    """The truncation (I_n | 0) selecting the first n rows."""
    return FqMatrix(field, [[1 if j == i else 0 for j in range(m)]
                            for i in range(n)])


def _times(B: FqMatrix, dtype):
    """X -> X B on arrays of `dtype`: the residue of zero modulo -B = (p - 1) B."""
    arith = B.field._int64
    neg = arith.scaled(B.field.p - 1, np.array(B.rows, dtype=dtype))
    return lambda X: arith.residue(np.zeros_like(X), X, neg)


def _power_target(spec: CompanionSpec, s: int, left: FqMatrix | None = None) -> MatrixSpace:
    """Dual of the span of left M^r for r < s; left defaults to the identity.
    The s slices are one array chain, and `_dual` eliminates them once."""
    F, m = spec.field, spec.m
    dtype = _backend(F, "array", terms=m)
    X = np.eye(m, dtype=dtype) if left is None else np.array(left.rows, dtype=dtype)
    step, slices = _times(companion(spec), dtype), [X]
    for _ in range(s - 1):
        slices.append(X := step(X))
    return _dual(F, X.shape, np.reshape(slices, (s, -1))[:, ::-1])


def _power_members(spec: CompanionSpec, nrows: int, s: int,
                   S: GammaSet | None = None, left: FqMatrix | None = None):
    """Checked members J^i E (M^{-i})^t of the nrows x m dual-power base.

    Per shift index i: the geometric members first (in S order, while
    i <= nrows-2), then the single-entry members for columns s+1..m (while
    i <= nrows-1).  Rows beyond `nrows` are never touched, so the members
    are built at the truncated shape directly.  Member u v^t takes v from
    V_i = H (M^{-i})^t, where H stacks the geometric rows over the unit rows
    e_{s+1}..e_m, so V_{i+1} = V_i (M^{-1})^t is one array product; all u v^t
    are one `scaled` broadcast, and with `left` = B they are B^t u v^t.
    Returns (A, S, inverse): the members as one array, the gamma set (by
    default canonical), and B^-1 from the elimination that checks B, or None.
    """
    if not spec.invertible:
        raise SingularM("a_1 = 0: use the singular-companion constructor")
    if not 1 <= s <= spec.m - 1:
        raise ParametersOutOfRange(f"s must lie in 1..{spec.m - 1}")
    if spec.field.q < s + 1:
        raise FieldTooSmall(f"need q >= {s + 1}")
    if S is None:
        S = GammaSet.canonical(spec.field, s)
    if S.field != spec.field or len(S) != s:
        raise BadGammaSet("gamma set must have s elements of the same field")
    F, m, n = spec.field, spec.m, nrows
    inverse = None
    if left is not None and (left.shape != (m, m) or left.field != F
                             or (inverse := left._inverse()) is None):
        raise Singular("B must be an invertible m x m matrix")
    dtype = _backend(F, "array", terms=m)
    geo = [list(itertools.accumulate([g] * (m - 1), F.mul, initial=1))[::-1]
           for g in S.elements]
    V = np.array(geo + [[int(j == k) for j in range(m)] for k in range(s, m)],
                 dtype=dtype)
    step = _times(companion_inverse(spec).transpose(), dtype)
    blocks = [V]
    for _ in range(n - 1):
        blocks.append(V := step(V))
    # u = e_i - g e_{i+1} beside the geometric rows, e_i beside the unit rows
    U = np.zeros((n, m, n), dtype=dtype)
    U[range(n), :, range(n)] = 1
    U[range(n - 1), :s, range(1, n)] = [F.neg(g) for g in S.elements]
    keep = np.ones(n * m, dtype=bool)
    keep[(n - 1) * m:(n - 1) * m + s] = False  # row n-1 has no geometric member
    U, W = U.reshape(n * m, n)[keep], np.concatenate(blocks)[keep]
    if left is not None:
        U = _times(left, dtype)(U)  # the rows (B^t u)^t = u^t B
    return F._int64.scaled(U[:, :, None], W[:, None, :]), S, inverse


# --- power-family dual bases -----------------------------------------------------


def base_dual_powers(spec: CompanionSpec, s: int,
                     S: GammaSet | None = None) -> ConstructionResult:
    """(m^2-s)-base for the dual of the span of I, M, ..., M^{s-1}."""
    A, S, _ = _power_members(spec, spec.m, s, S)
    return _finish(BaseCandidate._from_array(A, _power_target(spec, s)), "dual-powers",
                   {"m": spec.m, "s": s, "bottom": list(spec.bottom),
                    "gammas": list(S.elements)}, {})


def base_dual_powers_rect(spec: CompanionSpec, n: int, s: int,
                          S: GammaSet | None = None) -> ConstructionResult:
    """(nm-s)-base for the dual of the truncated power span in K^{n x m}."""
    if not 2 <= n <= spec.m:
        raise ParametersOutOfRange("need 2 <= n <= m")
    A, S, _ = _power_members(spec, n, s, S)
    target = _power_target(spec, s, y_matrix(spec.field, n, spec.m))
    return _finish(BaseCandidate._from_array(A, target), "dual-powers-rect",
                   {"m": spec.m, "n": n, "s": s, "bottom": list(spec.bottom),
                    "gammas": list(S.elements)}, {})


def base_left_factor(spec: CompanionSpec, s: int, B: FqMatrix,
                     S: GammaSet | None = None) -> ConstructionResult:
    """(m^2-s)-base for the dual of the span of B^{-1}M^r, r < s."""
    m = spec.m
    A, S, inverse = _power_members(spec, m, s, S, B)
    cand = BaseCandidate._from_array(A, _power_target(spec, s, inverse))
    return _finish(cand, "left-factor",
                   {"m": m, "s": s, "bottom": list(spec.bottom),
                    "gammas": list(S.elements), "B": [list(r) for r in B.rows]},
                   {})


# --- eigen machinery for the inverse-power family ---------------------------------


def _left_eigenrows(spec: CompanionSpec, eig_encs) -> FqMatrix:
    """Lead-normalized left eigenvectors of the companion, one row per eigenvalue.

    The row for a root e of f is the coefficient row of f(x)/(x - e), and a
    nonzero remainder says e is not a root.  For a full list of eigenvalues
    this is P with P M P^{-1} diagonal.
    """
    F, f = spec.field, spec.char_poly()
    rows = []
    for e in eig_encs:
        w, rem = f.divmod(FqPolynomial(F, (F.neg(e), 1)))
        if not rem.is_zero():
            raise InternalVerificationError(f"{e} is not an eigenvalue")
        lead = next(v for v in w.coeffs if v)
        rows.append(F.scale(F.inv(lead), w.coeffs))
    P = FqMatrix(F, rows)
    if P.rank() != P.n:
        raise InternalVerificationError("eigenvector rows were dependent")
    return P


def _split_block_form(spec: CompanionSpec, alpha_encs, g: FqPolynomial):
    """(P, P^{-1}): P M P^{-1} = diag(alphas) over a trailing companion block of g.

    The top rows are left eigenvectors for the distinct linear roots.  As wM
    is x w mod f for a row w read as sum w_j x^j, the left kernel of g(M) is
    the multiples of L = f/g, and the trailing rows are the shifts x^j L, j < r.
    By CRT, F[x]/(f) = F[x]/(L) x F[x]/(g), they are independent of the
    eigenrows; P's one elimination checks that and gives P^{-1}.
    """
    r = g.degree
    L, rem = spec.char_poly().divmod(g)
    if not rem.is_zero():
        raise InternalVerificationError("cofactor does not divide the char poly")
    rows = list(_left_eigenrows(spec, alpha_encs).rows) if alpha_encs else []
    rows += [(0,) * j + L.coeffs + (0,) * (r - 1 - j) for j in range(r)]
    P = FqMatrix(spec.field, rows)
    if (Pinv := P._inverse()) is None:
        raise InternalVerificationError("block-form rows were dependent")
    return P, Pinv


def _projectors(X: FqMatrix, nrows=None):
    """Rank-one conjugates X^{-1} E_{i,i} X = (column i of X^{-1}) (row i of X),
    optionally row-truncated."""
    cols = zip(*X.inverse().rows[:nrows])
    return [FqMatrix.outer(X.field, col, row) for col, row in zip(cols, X.rows)]


def _beta_pool(field: Field, root_encs, count, allow_zero_fallback):
    """The `count` smallest scalars distinct from the roots and from zero.

    Zero joins the pool only when the strict rule would exhaust the field and
    the caller's construction tolerates a singular split companion.
    """
    excluded = set(root_encs)
    strict = [e for e in range(1, field.q) if e not in excluded]
    if len(strict) >= count:
        return strict[:count], False
    if allow_zero_fallback and 0 not in excluded and 1 + len(strict) >= count:
        return ([0] + strict)[:count], True
    raise FieldTooSmall(
        f"need {count} fresh scalars outside {sorted(excluded)} in a field of {field.q}")


def _factor_char_poly(spec: CompanionSpec):
    """Distinct linear roots plus the rootless cofactor of the companion poly."""
    roots, cofactor = poly_roots(spec.char_poly(), spec.field)
    encs = [r.enc for r in roots]
    if len(set(encs)) != len(encs):
        raise RepeatedRoot("the linear part must have distinct roots")
    return encs, cofactor


# --- inverse-power family ----------------------------------------------------------


def base_inverse_family(spec: CompanionSpec,
                        extra_powers=()) -> ConstructionResult:
    """Base for the span of I, M, M^{-1} (and optional extra powers of M).

    Size m, m+1, or m+2 according to the degree r of the rootless cofactor
    (0, 2, or >= 3).  Extra powers are only available for r <= 3: beyond that
    no single rank-one correction can absorb them.
    """
    if not spec.invertible:
        raise SingularM("the inverse-power family needs an invertible companion")
    extra_powers = tuple(map(operator.index, extra_powers))
    alphas, g = _factor_char_poly(spec)
    r = g.degree
    F = spec.field
    m = spec.m
    M = companion(spec)
    if r == 0:
        P = _left_eigenrows(spec, alphas)
        members = _projectors(P)
        aux = {"P": P}
    else:
        if r >= 4 and extra_powers:
            raise UnsupportedCofactorDegree(
                "extra powers need a cofactor of degree at most 3")
        members, aux = _block_split(spec, alphas, g, m)
    slices = [FqMatrix.identity(F, m), M, companion_inverse(spec)]
    for e in extra_powers:
        slices.append(M.power(e))
    target = MatrixSpace(F, (m, m), slices)
    cand = BaseCandidate(tuple(members), target)
    return _finish(cand, "inverse-family",
                   {"m": m, "bottom": list(spec.bottom),
                    "extra_powers": list(extra_powers)}, aux)


def _block_split(spec: CompanionSpec, alpha_encs, g: FqPolynomial, nrows: int):
    """Members from the block form of M with a rootless cofactor g of degree r >= 2.

    P puts M in block form (`_split_block_form`); M_h is the companion of r
    fresh split scalars standing in for the g-block, and Q diagonalizes it, so
    the projectors of QP are rank ones.  The corrections P^{-1} D P, for D the
    bottom-right embedding of M_g - M_h (and of M_g^{-1} - M_h^{-1} when
    r >= 3), restore the g-block.  Every member keeps its first `nrows` rows.
    Returns (members, auxiliary matrices).
    """
    F = spec.field
    m, r = spec.m, g.degree
    betas, _ = _beta_pool(F, alpha_encs, r, allow_zero_fallback=(r == 2))
    h = FqPolynomial.from_roots(F, betas)
    gspec, hspec = CompanionSpec.from_polynomial(g), CompanionSpec.from_polynomial(h)
    Mg, Mh = companion(gspec), companion(hspec)
    P, Pinv = _split_block_form(spec, alpha_encs, g)
    Q = _identity_block_diag(F, m - r, _left_eigenrows(hspec, betas))
    members = _projectors(Q @ P, nrows)
    aux = {"P": P, "Q": Q, "M_h": Mh, "D1": _embed_bottom_right(F, m, Mg - Mh)}
    if r >= 3:
        aux["D2"] = _embed_bottom_right(
            F, m, companion_inverse(gspec) - companion_inverse(hspec))
    members += [FqMatrix._of(F, (Pinv @ aux[D] @ P).rows[:nrows])
                for D in ("D1", "D2") if D in aux]
    return members, aux


def _identity_block_diag(F, head: int, B: FqMatrix) -> FqMatrix:
    """Block diagonal of I_head and B; head may be zero."""
    n = head + B.n
    return FqMatrix(F, [[int(j == i) for j in range(n)] for i in range(head)]
                    + [(0,) * head + row for row in B.rows])


def _embed_bottom_right(F, m, B: FqMatrix) -> FqMatrix:
    """The square B in the bottom-right corner of an m x m zero matrix."""
    off = m - B.n
    return FqMatrix(F, [(0,) * m] * off + [(0,) * off + row for row in B.rows])


# --- rectangular small-n family ----------------------------------------------------


def base_rect_small_n(spec: CompanionSpec, n: int,
                      L: FqMatrix | None = None,
                      N: FqMatrix | None = None) -> ConstructionResult:
    """Base for the n-row family (Y_n M^{-1} | Y_n | ... | Y_n M^{m-2}), n in {2,3}.

    Split characteristic polynomial: m members (truncated spectral
    projectors).  For n = 3 and a cofactor of degree 2: the block-form
    members.  Otherwise the truncated projectors of a fully split companion
    M_h plus the corrections D_i = Y (M^e - M_h^e), for e = -1 (e = m - 1 when
    M_h is singular, which only n = 2 allows) and, for n = 3, also e = m - 2,
    matching the displayed worked instance exactly.
    """
    if n not in (2, 3):
        raise ParametersOutOfRange("this family covers n = 2 and n = 3 only")
    if not spec.invertible:
        raise SingularM("the family includes M^{-1}")
    F = spec.field
    m = spec.m
    if n > m:
        raise ParametersOutOfRange("need n <= m")
    if L is None:
        L = FqMatrix.identity(F, n)
    if N is None:
        N = FqMatrix.identity(F, m)
    if (L.shape != (n, n) or N.shape != (m, m) or L.field != F or N.field != F
            or not L.is_invertible() or not N.is_invertible()):
        raise BadN("L and N must be invertible of shapes n x n and m x m")

    alphas, g = _factor_char_poly(spec)
    r = g.degree
    M = companion(spec)
    Y = y_matrix(F, n, m)
    aux = {}

    if r == 0:
        P = _left_eigenrows(spec, alphas)
        core = _projectors(P, nrows=n)
        aux["P"] = P
    elif n == 3 and r == 2:
        core, aux = _block_split(spec, alphas, g, n)
    else:
        betas, used_zero = _beta_pool(F, alphas, r, allow_zero_fallback=(n == 2))
        h = FqPolynomial.from_roots(F, alphas + betas)
        Mh = companion(hspec := CompanionSpec.from_polynomial(h))
        P = _left_eigenrows(hspec, sorted(alphas + betas))
        core = _projectors(P, nrows=n)
        aux.update({"P": P, "M_h": Mh})
        # a singular M_h (zero was used) has no inverse: its top power stands in
        powers = [m - 1 if used_zero else -1] + ([m - 2] if n == 3 else [])
        for k, e in enumerate(powers, start=1):
            aux[f"D{k}"] = Y @ (M.power(e) - Mh.power(e))
            core.append(aux[f"D{k}"])

    members = [L @ A @ N for A in core]
    slices = [L @ (Y @ companion_inverse(spec)) @ N]
    cur = Y
    for _ in range(m - 1):
        slices.append(L @ cur @ N)
        cur = cur @ M
    target = MatrixSpace(F, (n, m), slices)
    cand = BaseCandidate(tuple(members), target)
    return _finish(cand, "rect-small-n",
                   {"m": m, "n": n, "bottom": list(spec.bottom)}, aux)


# --- singular companions ------------------------------------------------------------


def base_singular(spec: CompanionSpec, s: int) -> ConstructionResult:
    """(m^2-s)-base for the dual power span when the companion may be singular.

    Dispatches on the least index i with a_i != 0: an invertible companion
    takes the main construction's members, the mid-range cases glue a
    shift-dual base with a trailing-block base, and the i in {m-1, m} fringes
    use the 2x2 quadratic or singular pair on the trailing block.
    """
    members, case = _singular_members(spec, s)
    return _finish(BaseCandidate(tuple(members), _power_target(spec, s)), "singular",
                   {"m": spec.m, "s": s, "bottom": list(spec.bottom),
                    "case": case}, {})


def _singular_members(spec: CompanionSpec, s: int):
    """The members of `base_singular` and the name of the case that built them."""
    m = spec.m
    F = spec.field
    nz = [j for j, a in enumerate(spec.bottom, start=1) if a != 0]
    i = nz[0] if nz else None

    if i == 1:
        if 1 <= s <= m - 1:
            return FqMatrix._from_array(F, _power_members(spec, m, s)[0]), "invertible"
        if m == 2 and s == 2:
            return _quadratic_pair(F, spec.bottom[0], spec.bottom[1]), "quadratic"
        raise CaseNotCovered("invertible companion with s out of range")

    if s == 1:
        return _shift_dual_members(F, m, m, 1), "identity-dual"

    if i is None:
        raise CaseNotCovered(
            "all-zero bottom row with s >= 2 has no known perfect dual")

    if 2 <= i <= m - 1 and 1 <= s <= m - i:
        tail = CompanionSpec(F, m - i + 1, spec.bottom[i - 1:])
        tail_members = FqMatrix._from_array(F, _power_members(tail, tail.m, s)[0])
        return _glue(spec, s, i, tail_members), "glued"

    if i == m - 1 and s == 2:
        pair = _quadratic_pair(F, spec.bottom[m - 2], spec.bottom[m - 1])
        return _glue(spec, s, i, pair), "glued-quadratic"

    if i == m and s == 2:
        pair = _singular_pair(F, spec.bottom[m - 1])
        if m == 2:
            return pair, "trailing-pair"
        return _glue(spec, s, m - 1, pair), "glued-trailing"

    raise CaseNotCovered(f"no construction for least nonzero index {i}, s={s}")


def _shift_dual_members(F, m, nrows, s):
    """Dual-power members of the cyclic-shift companion J, on `nrows` rows.

    With nrows = m and s = 1 they are a base of the trace-zero space.
    """
    A = _power_members(_cyclic_spec(F, m), nrows, s)[0]
    return FqMatrix._from_array(F, A)


def _quadratic_pair(F, a1, a2):
    """Two geometric rank-ones from the distinct unit roots of a1 x^2 + a2 x - 1."""
    poly = FqPolynomial(F, (F.neg(1), a2, a1))
    roots, _ = poly_roots(poly, F)
    encs = sorted({r.enc for r in roots} - {0})
    if len(roots) != 2 or len(encs) != 2:
        raise CaseNotCovered(
            "the associated quadratic has no two distinct unit roots")
    return [epsilon(FieldElement(F, e), 2) for e in encs]


def _singular_pair(F, a2):
    """The displayed 2-base for a 2x2 companion with zero first column, a2 != 0."""
    inv = F.inv(a2)
    return [FqMatrix.outer(F, [0, 1], [1, 0]),
            FqMatrix.outer(F, [1, F.neg(inv)], [inv, 1])]


def _glue(spec, s, i, tail_members):
    """Stack a shift-dual base over an embedded trailing-block base and the
    units below row i left of column i, each member once, in that order."""
    F, m = spec.field, spec.m
    padded = [FqMatrix(F, A.rows + ((0,) * m,) * (m - i))
              for A in _shift_dual_members(F, m, i, s)]
    embedded = [_embed_bottom_right(F, m, A) for A in tail_members]  # of size m - i + 1
    units = [FqMatrix.unit(F, m, m, k, j) for k in range(i, m) for j in range(i - 1)]
    members = list(dict.fromkeys(padded + embedded + units))
    if len(members) != m * m - s:
        raise InternalVerificationError(
            f"glued base has {len(members)} members, expected {m * m - s}")
    return members


# --- the square-plus-one-column pencil ----------------------------------------------


def atkinson_base(n: int, field: Field) -> ConstructionResult:
    """(n^2+n-2)-base for the dual of the two-slice shift pencil in K^{n x (n+1)}.

    Needs characteristic != 2: the two three-term families coincide mod 2 and
    the construction loses n-1 members.
    """
    if field.p == 2:
        raise CharTwo("the two sign families coincide in characteristic 2")
    if n < 2:
        raise ParametersOutOfRange("need n >= 2")
    m = n + 1
    members = []
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if j == i or j == i + 1:
                continue
            members.append(FqMatrix.unit(field, n, m, i - 1, j - 1))
    # (e_i - e_{i+1}) (e_i + e_{i+1} + e_{i+2})^t and
    # (e_i + e_{i+1}) (e_i - e_{i+1} + e_{i+2})^t; -1 is field.neg(1), not the
    # int -1, which encodes q - 1
    minus = field.neg(1)
    for su, sv in ((minus, 1), (1, minus)):
        for i in range(n - 1):
            pad = [0] * (n - i - 2)
            members.append(FqMatrix.outer(field, [0] * i + [1, su] + pad,
                                          [0] * i + [1, sv, 1] + pad))
    spec = _cyclic_spec(field, m)
    target = _power_target(spec, 2, y_matrix(field, n, m))
    cand = BaseCandidate(tuple(members), target)
    return _finish(cand, "atkinson", {"n": n}, {})
