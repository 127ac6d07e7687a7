import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from perfbase import construct, rmcode, tensor3
from perfbase.construct import (
    CompanionSpec,
    GammaSet,
    atkinson_base,
    base_dual_powers,
    base_dual_powers_rect,
    base_inverse_family,
    base_left_factor,
    base_rect_small_n,
    base_singular,
    companion,
    companion_inverse,
    epsilon,
    shift_J,
    y_matrix,
)
from perfbase.errors import (
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
from perfbase.exactla import FqMatrix, MatrixSpace, trace_pair
from perfbase.gf import FieldElement, FqPolynomial, field_make
from test_exactla import ref_nullspace

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)


def spec_of(F, *bottom):
    return CompanionSpec(F, len(bottom), tuple(bottom))


# --- companion machinery -----------------------------------------------------


def test_companion_bottom_rows_bit_exact():
    f = FqPolynomial(F7, (4, 1, 0, 0, 0, 1))  # x^5 + x + 4
    assert CompanionSpec.from_polynomial(f).bottom == (3, 6, 0, 0, 0)
    g = FqPolynomial.from_roots(F7, [1, 2, 3, 4, 5])
    assert CompanionSpec.from_polynomial(g).bottom == (1, 6, 1, 6, 1)
    h = FqPolynomial(F3, (2, 0, 1))  # x^2 - 1
    assert companion(CompanionSpec.from_polynomial(h)) \
        == FqMatrix(F3, [[0, 1], [1, 0]])
    for make in (lambda: CompanionSpec(F5, 1, (1,)),
                 lambda: CompanionSpec(F5, 3, (1, 0)),
                 lambda: CompanionSpec.from_polynomial(FqPolynomial(F5, (1, 0, 2)))):
        with pytest.raises(ParametersOutOfRange):
            make()


def test_companion_inverse_closed_form():
    spec = spec_of(F7, 6, 5, 5, 2, 4)
    M = companion(spec)
    assert M @ companion_inverse(spec) == FqMatrix.identity(F7, 5)
    with pytest.raises(SingularM):
        companion_inverse(spec_of(F7, 0, 5, 5))


def test_shift_and_epsilon_displays():
    J = shift_J(F5, 4)
    A = FqMatrix(F5, [[i * 4 + j for j in range(4)] for i in range(4)])
    shifted = J @ A
    assert shifted.rows == (A.rows[3], A.rows[0], A.rows[1], A.rows[2])
    E1 = epsilon(F5.one(), 4)
    assert E1.rows == ((1, 1, 1, 1), (4, 4, 4, 4), (0,) * 4, (0,) * 4)
    a = F5.element(2)
    Ea = epsilon(a, 4)
    assert Ea.rows[0] == (3, 4, 2, 1)  # (a^3, a^2, a, 1)
    assert Ea.rows[1] == tuple(F5.neg(F5.mul(2, v)) for v in Ea.rows[0])
    assert Ea.rank() == 1
    with pytest.raises(ZeroGamma):
        epsilon(F5.zero(), 4)
    with pytest.raises(ZeroGamma):
        epsilon(3, 3)  # an int, not a field element
    for make in (lambda: shift_J(F5, 1), lambda: epsilon(a, 1)):
        with pytest.raises(ParametersOutOfRange):
            make()


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([5, 7]), st.integers(2, 5), st.data())
def test_shift_power_block_pattern(q, m, data):
    # the top rows of (J^j)^t M^{i-j} carry a shifted identity block
    F = field_make(q)
    bottom = tuple([data.draw(st.integers(1, q - 1))]
                   + [data.draw(st.integers(0, q - 1)) for _ in range(m - 1)])
    spec = spec_of(F, *bottom)
    M = companion(spec)
    J = shift_J(F, m)
    for i in range(m):
        for j in range(m):
            X = J.power(j).transpose() @ M.power(i - j)
            if i >= j:
                height, offset = m - i, i
            else:
                height, offset = m - j, i
            for r in range(height):
                for c in range(m):
                    expected = 1 if c == offset + r else None
                    if expected is not None and c == offset + r:
                        assert X.rows[r][c] == 1
                    elif c < offset or (i < j and c >= offset + height):
                        assert X.rows[r][c] == 0
                    elif c != offset + r and c < offset + height:
                        assert X.rows[r][c] == 0


def test_power_orthogonality_kernels():
    # every member of the shift family pairs to zero with the spanned powers
    spec = spec_of(F5, 2, 1, 4, 3)
    m, s = 4, 2
    S = GammaSet.canonical(F5, s)
    M = companion(spec)
    Minv_t = companion_inverse(spec).transpose()
    J = shift_J(F5, m)
    powers = [M.power(r) for r in range(s)]
    T = FqMatrix.identity(F5, m)
    for i in range(m):
        for j in range(s + 1, m + 1):
            member = J.power(i) @ FqMatrix.unit(F5, m, m, 0, j - 1) @ T
            assert all(trace_pair(P, member).enc == 0 for P in powers)
        if i <= m - 2:
            for g in S.elements:
                member = J.power(i) @ epsilon(F5.element(g), m) @ T
                assert all(trace_pair(P, member).enc == 0 for P in powers)
    # and the excluded shift of the geometric member is NOT orthogonal
        T = Minv_t @ T


def test_independence_block_matrix_rank():
    # the banded block matrix assembled from the seed-row blocks has full rank
    q, m, s = 5, 4, 3
    F = field_make(q)
    spec = spec_of(F, 1, 2, 0, 3)
    S = GammaSet.canonical(F, s)
    Minv_t = companion_inverse(spec).transpose()

    L1 = [[F.pow(g, m - 1 - t) for t in range(s)] for g in S.elements]
    L2 = [[F.pow(g, m - s - 1 - t) for t in range(m - s)] for g in S.elements]
    L3 = [[F.neg(F.pow(g, m - t)) for t in range(m)] for g in S.elements]
    B0_1 = FqMatrix(F, [l1 + l2 for l1, l2 in zip(L1, L2)]
                    + [[0] * s + [1 if t == r else 0 for t in range(m - s)]
                       for r in range(m - s)])
    B0_2 = FqMatrix(F, L3 + [[0] * m for _ in range(m - s)])
    Bbar = FqMatrix(F, [[0] * s + [1 if t == r else 0 for t in range(m - s)]
                        for r in range(m - s)])

    rows = []
    T = FqMatrix.identity(F, m)
    for i in range(m - 1):
        left = B0_1 @ T
        right = B0_2 @ T
        for r in range(m):
            row = [0] * (m * m)
            for c in range(m):
                row[i * m + c] = left.rows[r][c]
                row[(i + 1) * m + c] = right.rows[r][c]
            rows.append(row)
        T = Minv_t @ T
    tail = Bbar @ T
    for r in range(m - s):
        row = [0] * (m * m)
        for c in range(m):
            row[(m - 1) * m + c] = tail.rows[r][c]
        rows.append(row)
    B = FqMatrix(F, rows)
    assert B.n == m * m - s
    assert B.rank() == m * m - s


# --- the power-dual constructions ------------------------------------------------


def test_base_dual_powers_shape_example():
    spec = spec_of(F5, 1, 0, 0, 0)
    res = base_dual_powers(spec, 3)
    assert res.candidate.size == 13 and res.report.passed
    # first members follow the geometric-then-unit order
    assert res.candidate.matrices[0] == epsilon(F5.one(), 4)
    assert res.candidate.matrices[3] == FqMatrix.unit(F5, 4, 4, 0, 3)


def test_base_dual_powers_small_and_counts():
    res = base_dual_powers(spec_of(F3, 1, 1), 1)
    assert res.candidate.size == 3 and res.report.passed
    target_i = MatrixSpace.from_matrices([FqMatrix.identity(F3, 2)]).dual_complement()
    assert all(target_i.contains(A) for A in res.candidate.matrices)
    for m in (3, 4):
        spec = spec_of(F7, *([1] + [0] * (m - 1)))
        res = base_dual_powers(spec, m - 1)
        assert res.candidate.size == m * m - m + 1


def test_base_dual_powers_errors():
    with pytest.raises(SingularM):
        base_dual_powers(spec_of(F5, 0, 1, 0, 0), 2)
    with pytest.raises(FieldTooSmall):
        base_dual_powers(spec_of(F2, 1, 0, 0, 0), 3)
    with pytest.raises(BadGammaSet):
        base_dual_powers(spec_of(F5, 1, 0, 0, 0), 2,
                         GammaSet(F5, (1, 2, 3)))
    with pytest.raises(BadGammaSet):
        GammaSet(F5, (2, 1))
    with pytest.raises(BadGammaSet):
        GammaSet(F5, (1, 0))
    with pytest.raises(BadGammaSet):
        GammaSet(F5, (1, 2, 2))
    with pytest.raises(FieldTooSmall):
        GammaSet.canonical(F5, 5)
    with pytest.raises(ParametersOutOfRange):
        base_dual_powers(spec_of(F5, 1, 0, 0, 0), 0)


def test_specs_and_gamma_sets_encode_their_scalars():
    F9, F25 = field_make(3, 2), field_make(5, 2)
    foreign = FieldElement(F25, 20)
    # the foreign element used to become the bottom entry 20 % 9 = 2
    with pytest.raises(FieldMismatch):
        CompanionSpec(F9, 2, (foreign, 1))
    assert CompanionSpec(F9, 2, (FieldElement(F9, 5), 10)).bottom == (5, 1)
    with pytest.raises(TypeError):
        CompanionSpec(F5, 2, (1.5, 1))
    assert GammaSet(F9, (1, FieldElement(F9, 8))).elements == (1, 8)
    # a gamma is an encoding in [0, q): -1 is not reduced to 8, and an
    # element of another field is refused like any value outside F_9
    for bad in (-1, 9, foreign):
        with pytest.raises(BadGammaSet):
            GammaSet(F9, (1, bad))
    with pytest.raises(TypeError):
        GammaSet(F9, (1, 2.5))


def test_base_dual_powers_rect_reduces_to_square():
    spec = spec_of(F5, 2, 0, 1, 0)
    sq = base_dual_powers(spec, 2)
    rect = base_dual_powers_rect(spec, 4, 2)
    assert sq.candidate.matrices == rect.candidate.matrices


def test_base_dual_powers_rect_counts_and_exclusions():
    spec = spec_of(F7, 1, 2, 3, 4, 5)
    n, m, s = 3, 5, 4
    res = base_dual_powers_rect(spec, n, s)
    assert res.candidate.size == n * m - s == 11 and res.report.passed
    with pytest.raises(ParametersOutOfRange):
        base_dual_powers_rect(spec, 1, s)

    # excluded members with shift index >= n vanish under row truncation
    J = shift_J(F7, m)
    Y = y_matrix(F7, n, m)
    T = companion_inverse(spec).transpose().power(n)
    excluded = J.power(n) @ FqMatrix.unit(F7, m, m, 0, m - 1) @ T
    assert (Y @ excluded).is_zero()
    # the geometric member at shift n-1 pairs nonzero with the n-1st power
    M = companion(spec)
    T1 = companion_inverse(spec).transpose().power(n - 1)
    geo = Y @ (J.power(n - 1) @ epsilon(F7.one(), m) @ T1)
    assert trace_pair(Y @ M.power(n - 1), geo).enc != 0


def test_base_left_factor_refuses_a_singular_factor():
    spec = spec_of(F5, 1, 0, 0, 0)
    for B in (FqMatrix.zeros(F5, 4, 4), FqMatrix.identity(F5, 3)):
        with pytest.raises(Singular):
            base_left_factor(spec, 2, B)


def test_base_left_factor():
    spec = spec_of(F5, 2, 1, 0, 3)
    S = GammaSet.canonical(F5, 2)
    plain = base_dual_powers(spec, 2, S)
    viaI = base_left_factor(spec, 2, FqMatrix.identity(F5, 4), S)
    assert plain.candidate.matrices == viaI.candidate.matrices

    lam = FqMatrix.identity(F5, 4).scale(3)
    scaled = base_left_factor(spec, 2, lam, S)
    assert scaled.report.passed
    assert scaled.candidate.matrices == tuple(A.scale(3)
                                              for A in plain.candidate.matrices)

    rng = random.Random(3)
    while True:
        B = FqMatrix(F5, [[rng.randrange(5) for _ in range(4)]
                          for _ in range(4)])
        if B.is_invertible():
            break
    res = base_left_factor(spec, 2, B, S)
    assert res.candidate.size == 14 and res.report.passed


def reference_power_members(spec, nrows, s, S, B=None):
    """The dual-power members one `outer` at a time: per shift i, e_i - g
    e_{i+1} against the geometric row times (M^{-i})^t, then e_i against the
    rows s.. of (M^{-i})^t; with B, each member is B^t times it."""
    F, m = spec.field, spec.m
    Minv_t = companion_inverse(spec).transpose()
    T = FqMatrix.identity(F, m)
    geos = [FqMatrix(F, [[F.pow(g, m - 1 - j) for j in range(m)]]) for g in S.elements]
    members = []
    for i in range(nrows):
        e_i = [0] * nrows
        e_i[i] = 1
        if i <= nrows - 2:
            for g, geo in zip(S.elements, geos):
                u = list(e_i)
                u[i + 1] = F.neg(g)
                members.append(FqMatrix.outer(F, u, (geo @ T).rows[0]))
        members += [FqMatrix.outer(F, e_i, row) for row in T.rows[s:]]
        T = Minv_t @ T
    if B is not None:
        members = [B.transpose() @ A for A in members]
    return tuple(members)


@pytest.mark.parametrize("p,k", [(13, 1), (2, 2), (3, 2), (5, 2)],
                         ids=["F13", "F4", "F9", "F25"])
def test_power_members_equal_the_one_outer_at_a_time_reference(p, k):
    F = field_make(p, k)
    q = F.q
    rng = random.Random(q)
    for m in (3, 4, 5, 7):
        spec = CompanionSpec(F, m, (rng.randrange(1, q),)
                             + tuple(rng.randrange(q) for _ in range(m - 1)))
        while True:
            B = FqMatrix(F, [[rng.randrange(q) for _ in range(m)] for _ in range(m)])
            if B.is_invertible():
                break
        for s in range(1, min(m - 1, q - 1) + 1):
            gammas = [1] + rng.sample(range(2, q), s - 1)
            for S in (GammaSet.canonical(F, s), GammaSet(F, tuple(gammas))):
                square = reference_power_members(spec, m, s, S)
                assert base_dual_powers(spec, s, S).candidate.matrices == square
                assert base_left_factor(spec, s, B, S).candidate.matrices \
                    == reference_power_members(spec, m, s, S, B)
                for n in range(2, m):  # truncated
                    assert base_dual_powers_rect(spec, n, s, S).candidate.matrices \
                        == reference_power_members(spec, n, s, S)


@pytest.mark.parametrize("p", [10 ** 9 + 7, (1 << 61) - 1])
def test_power_members_over_primes_beyond_int64_products(p):
    # (p - 1)^2 overflows int64 here, so the members are built from arrays
    # of Python ints
    F = field_make(p)
    spec = spec_of(F, 3, p - 1, 5, 1 << 29)
    S = GammaSet(F, (1, p - 2))
    B = FqMatrix(F, [[1, 2, 0, 0], [0, 1, 0, p - 5], [0, 0, 1, 0], [7, 0, 0, 1]])
    assert base_dual_powers(spec, 2, S).candidate.matrices \
        == reference_power_members(spec, 4, 2, S)
    assert base_dual_powers_rect(spec, 3, 2, S).candidate.matrices \
        == reference_power_members(spec, 3, 2, S)
    assert base_left_factor(spec, 2, B, S).candidate.matrices \
        == reference_power_members(spec, 4, 2, S, B)


CARRY_FIELDS = [field_make(13), field_make(3, 2), field_make((1 << 61) - 1)]


def _invertible(rng, F, m):
    while True:
        B = FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)] for _ in range(m)])
        if B.is_invertible():
            return B


@pytest.mark.parametrize("F", CARRY_FIELDS, ids=["F13", "F9", "F2^61-1"])
def test_a_carried_array_is_verified_and_then_dropped(monkeypatch, F):
    # the three power-family bases hand verify_base the read-only array their
    # members were made from (on numpy over F_13, 5x5 and 4x5); the report is
    # the one the members get alone, and the result does not keep the array
    carried = []

    def recording(cand):
        carried.append(cand._array)
        return tensor3.verify_base(cand)

    monkeypatch.setattr(construct, "verify_base", recording)
    rng = random.Random(F.q)
    spec = CompanionSpec(F, 5, tuple(rng.randrange(1, F.q) for _ in range(5)))
    B = _invertible(rng, F, 5)
    for build in (lambda: base_dual_powers(spec, 2), lambda: base_dual_powers_rect(spec, 4, 2),
                  lambda: base_left_factor(spec, 2, B)):
        carried.clear()
        result = build()
        (A,) = carried
        cand = result.candidate
        assert not A.flags.writeable
        assert A.tolist() == [[list(row) for row in M.rows] for M in cand.matrices]
        assert cand._array is None and "_array" not in vars(cand)
        alone = tensor3.verify_base(tensor3.BaseCandidate(cand.matrices, cand.target))
        assert result.report == alone and alone.passed


@pytest.mark.parametrize("F", CARRY_FIELDS, ids=["F13", "F9", "F2^61-1"])
def test_a_carried_array_of_failing_members_gets_their_report(F):
    # a member of rank two, a repeated member, a member short and a target of
    # another companion: each report equals the one without the array
    rng = random.Random(F.q)
    spec = CompanionSpec(F, 5, tuple(rng.randrange(1, F.q) for _ in range(5)))
    other = CompanionSpec(F, 5, (1,) + (0,) * 4)
    A = construct._power_members(spec, 5, 2)[0]
    target = construct._power_target(spec, 2)
    rank_two, repeated = A.copy(), A.copy()
    rank_two[3] = 0
    rank_two[3, 0, 0] = rank_two[3, 1, 1] = 1
    repeated[7] = repeated[2]
    cases = [(A, target, None), (rank_two, target, "bad_rank_index"),
             (repeated, target, "dependent_index"), (A[:-1], target, "missing_target_index"),
             (A, construct._power_target(other, 2), "missing_target_index")]
    for members, T, failure in cases:
        plain = tensor3.BaseCandidate(FqMatrix._from_array(F, members), T)
        report = tensor3.verify_base(tensor3.BaseCandidate._from_array(members.copy(), T))
        assert report == tensor3.verify_base(plain)
        assert report.passed if failure is None else getattr(report, failure) is not None


def test_the_public_candidate_takes_no_array():
    A = construct._power_members(spec_of(F7, 3, 1, 4), 3, 1)[0]
    members = FqMatrix._from_array(F7, A)
    target = construct._power_target(spec_of(F7, 3, 1, 4), 1)
    with pytest.raises(TypeError):
        tensor3.BaseCandidate(members, target, A)
    with pytest.raises(TypeError):
        tensor3.BaseCandidate(members, target, _array=A)
    assert tensor3.BaseCandidate(members, target)._array is None


# --- inverse-power family ----------------------------------------------------------


def test_inverse_family_diagonalizable():
    spec = CompanionSpec.from_polynomial(FqPolynomial.from_roots(F7, [1, 2, 3]))
    res = base_inverse_family(spec)
    assert res.candidate.size == 3 and res.report.passed


def test_inverse_family_sizes_by_cofactor_degree():
    quad = FqPolynomial(F7, (1, 0, 1))  # rootless over F_7
    cubic = FqPolynomial(F7, (4, 0, 6, 1))
    f2 = FqPolynomial.from_roots(F7, [1, 2]) * quad
    f3 = FqPolynomial.from_roots(F7, [1]) * cubic
    r2 = base_inverse_family(CompanionSpec.from_polynomial(f2), extra_powers=(2, -2))
    assert r2.candidate.size == 4 + 1 and r2.report.passed
    r3 = base_inverse_family(CompanionSpec.from_polynomial(f3), extra_powers=(2,))
    assert r3.candidate.size == 4 + 2 and r3.report.passed


def test_inverse_family_negative_example_bit_exact():
    spec = spec_of(F7, 3, 6, 0, 0, 0)  # x^5 + x + 4
    res = base_inverse_family(spec)
    assert res.candidate.size == 7 and res.report.passed
    assert res.auxiliary["M_h"].rows[-1] == (1, 6, 1, 6, 1)
    assert res.auxiliary["D1"].rows[-1] == (2, 0, 6, 1, 6)
    assert res.auxiliary["D2"].rows[0] == (4, 1, 6, 1, 4)
    with pytest.raises(UnsupportedCofactorDegree):
        base_inverse_family(spec, extra_powers=(2,))


def test_inverse_family_errors():
    with pytest.raises(SingularM):
        base_inverse_family(spec_of(F7, 0, 1, 0))
    doubled = FqPolynomial.from_roots(F7, [1, 1, 2])
    with pytest.raises(RepeatedRoot):
        base_inverse_family(CompanionSpec.from_polynomial(doubled))
    with pytest.raises(FieldTooSmall):
        base_inverse_family(spec_of(F2, 1, 1, 0))


def nullspace_eigenrows(spec, encs):
    """The null-space route: lead-normalized null rows of C^t - eI."""
    F, m = spec.field, spec.m
    Ct = companion(spec).transpose()
    rows = []
    for e in encs:
        (v,) = ref_nullspace(F, (Ct - FqMatrix.identity(F, m).scale(e)).rows, m)
        lead = next(x for x in v if x)
        rows.append(tuple(F.scale(F.inv(lead), v)))
    return tuple(rows)


SMALL_FIELDS = [F2, F3, F5, F7, field_make(2, 2), field_make(2, 3), field_make(3, 2)]


def test_left_eigenrows_equal_the_nullspace_route():
    # every companion with a root over small fields, singular ones included
    cases = 0
    for F in SMALL_FIELDS:
        for m in range(2, 5):
            if F.q ** m > 5000:
                continue
            for bottom in itertools.product(range(F.q), repeat=m):
                spec = CompanionSpec(F, m, bottom)
                f = spec.char_poly()
                roots = [e for e in range(F.q) if f.evaluate(e) == 0]
                if not roots:
                    continue
                cases += 1
                assert construct._left_eigenrows(spec, roots).rows \
                    == nullspace_eigenrows(spec, roots)
    assert cases == 6289


def orbit_block_form(spec, alpha_encs, g):
    """The search route: g(M) by Horner, the null rows of g(M)^t, and the
    first nonzero combination (first coefficient fastest) whose orbit w, wM,
    ..., wM^{r-1} completes the eigenrows to an invertible P."""
    F, m, r = spec.field, spec.m, g.degree
    M = companion(spec)
    gM = FqMatrix.zeros(F, m, m)
    for c in reversed(g.coeffs):
        gM = gM @ M + FqMatrix.identity(F, m).scale(c)
    null = ref_nullspace(F, gM.transpose().rows, m)
    assert len(null) == r
    top = list(construct._left_eigenrows(spec, alpha_encs).rows) if alpha_encs else []
    for coeffs in itertools.islice(itertools.product(range(F.q), repeat=r), 1, None):
        w = FqMatrix(F, [coeffs[::-1]]) @ FqMatrix(F, null)
        orbit = [w]
        for _ in range(r - 1):
            orbit.append(orbit[-1] @ M)
        P = FqMatrix(F, top + [o.rows[0] for o in orbit])
        if P.is_invertible():
            return P, P.inverse()
    raise AssertionError("no cyclic row")


def test_split_block_form_equals_the_orbit_route():
    # every companion with distinct roots and a rootless cofactor of degree >= 2
    cases = 0
    for F in SMALL_FIELDS:
        for m in range(2, 7):
            if F.q ** m > 1000:
                continue
            for bottom in itertools.product(range(F.q), repeat=m):
                spec = CompanionSpec(F, m, bottom)
                try:
                    alphas, g = construct._factor_char_poly(spec)
                except RepeatedRoot:
                    continue
                if g.degree < 2:
                    continue
                cases += 1
                assert construct._split_block_form(spec, alphas, g) \
                    == orbit_block_form(spec, alphas, g)
    assert cases == 2980


def test_eigen_machinery_self_checks():
    spec = spec_of(F3, 1, 0)  # x^2 - 1, roots 1 and 2
    with pytest.raises(InternalVerificationError, match="0 is not an eigenvalue"):
        construct._left_eigenrows(spec, [1, 0])
    with pytest.raises(InternalVerificationError, match="rows were dependent"):
        construct._left_eigenrows(spec, [2, 2])
    split = CompanionSpec.from_polynomial(FqPolynomial.from_roots(F7, [1, 2, 3]))
    coprime = FqPolynomial(F7, (1, 0, 1))  # x^2 + 1, rootless over F_7
    with pytest.raises(InternalVerificationError, match="does not divide"):
        construct._split_block_form(split, [1, 2, 3], coprime)


def test_split_block_form_refuses_dependent_rows(monkeypatch):
    # f = (x - 1)(x^2 + 1) over F_7; an "eigenrow" equal to L = f/g = x - 1
    spec = CompanionSpec.from_polynomial(
        FqPolynomial.from_roots(F7, [1]) * FqPolynomial(F7, (1, 0, 1)))
    g = FqPolynomial(F7, (1, 0, 1))
    assert construct._split_block_form(spec, [1], g)[0].rows[1:] \
        == ((6, 1, 0), (0, 6, 1))
    monkeypatch.setattr(construct, "_left_eigenrows",
                        lambda spec, encs: FqMatrix(F7, [(6, 1, 0)]))
    with pytest.raises(InternalVerificationError, match="block-form rows were dependent"):
        construct._split_block_form(spec, [1], g)


def test_block_split_inverts_no_companion(monkeypatch):
    spec = spec_of(F7, 3, 6, 0, 0, 0)  # cofactor of degree 4, so D2 is built
    inverted = []
    original = FqMatrix.inverse
    monkeypatch.setattr(FqMatrix, "inverse",
                        lambda X: inverted.append(X) or original(X))
    res = base_inverse_family(spec)
    assert "D2" in res.auxiliary
    # only the 5 x 5 conjugator QP; M_g and M_h are 4 x 4
    assert [X.n for X in inverted] == [5] and inverted[0] != companion(spec)


# --- rectangular small-n family ------------------------------------------------------


def worked_spec():
    f = FqPolynomial.from_roots(F7, [1, 2]) * FqPolynomial(F7, (4, 0, 6, 1))
    return CompanionSpec.from_polynomial(f)


def test_rect_small_n_worked_example_bit_exact():
    spec = worked_spec()
    assert spec.bottom == (6, 5, 5, 2, 4)
    res = base_rect_small_n(spec, 3)
    assert res.candidate.size == 7 and res.report.passed
    assert res.auxiliary["M_h"].rows[-1] == (1, 6, 1, 6, 1)
    assert res.auxiliary["D1"].rows[0] == (4, 6, 1, 5, 5)
    assert all(v == 0 for v in res.auxiliary["D1"].rows[1])
    assert res.auxiliary["D2"].rows[2] == (5, 6, 4, 3, 3)
    assert all(v == 0 for v in res.auxiliary["D2"].rows[0])


def test_rect_small_n_diagonalizable_and_transforms():
    spec = CompanionSpec.from_polynomial(FqPolynomial.from_roots(F7, [1, 2, 3, 4]))
    res = base_rect_small_n(spec, 2)
    assert res.candidate.size == 4 and res.report.passed

    rng = random.Random(8)

    def rand_inv(F, n):
        while True:
            X = FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)]
                             for _ in range(n)])
            if X.is_invertible():
                return X

    spec = worked_spec()
    res = base_rect_small_n(spec, 3, L=rand_inv(F7, 3), N=rand_inv(F7, 5))
    assert res.candidate.size == 7 and res.report.passed


def test_rect_small_n_zero_fallback_at_q_equal_m():
    # no strict scalars remain, so 0 joins the split companion's roots
    f = FqPolynomial(F5, (2, 4, 4, 0, 0, 1))
    spec = CompanionSpec.from_polynomial(f)
    res = base_rect_small_n(spec, 2)
    assert res.candidate.size == 6 and res.report.passed
    assert res.auxiliary["M_h"].rows[-1][0] == 0  # singular split companion


def test_rect_small_n_refusals():
    spec = worked_spec()  # m = 5 over F_7
    for n in (1, 4):
        with pytest.raises(ParametersOutOfRange):
            base_rect_small_n(spec, n)
    with pytest.raises(ParametersOutOfRange):
        base_rect_small_n(spec_of(F7, 1, 2), 3)  # n > m
    with pytest.raises(SingularM):
        base_rect_small_n(spec_of(F7, 0, 1, 2), 2)
    with pytest.raises(BadN):
        base_rect_small_n(spec, 2, L=FqMatrix.zeros(F7, 2, 2))
    with pytest.raises(BadN):
        base_rect_small_n(spec, 2, N=FqMatrix.identity(F7, 4))


def test_inverse_family_refuses_non_integer_powers():
    # 2.5 and "2" both used to build the base for (2,) and label it [2]
    spec = worked_spec()
    assert base_inverse_family(spec, (2,)).params["extra_powers"] == [2]
    for bad in ((2.5,), ("2",)):
        with pytest.raises(TypeError):
            base_inverse_family(spec, bad)


# --- singular companions ---------------------------------------------------------------


def test_singular_trailing_pair_bit_exact():
    a2 = 3
    res = base_singular(spec_of(F5, 0, a2), 2)
    inv = pow(a2, -1, 5)
    assert [list(map(list, A.rows)) for A in res.candidate.matrices] == [
        [[0, 0], [1, 0]],
        [[inv, 1], [(-inv * inv) % 5, (-inv) % 5]],
    ]
    assert res.report.passed


def test_singular_quadratic_pair():
    # a1 x^2 + a2 x - 1 with two distinct unit roots
    res = base_singular(spec_of(F5, 1, 0), 2)  # x^2 - 1: roots 1 and 4
    assert res.candidate.size == 2 and res.report.passed
    for A in res.candidate.matrices:
        g = A.rows[0][0]
        assert A.rows == ((g, 1), ((-g * g) % 5, (-g) % 5))
    with pytest.raises(CaseNotCovered):
        base_singular(spec_of(F3, 2, 0), 2)  # 2x^2 - 1 has no roots in F_3


def test_singular_glued_cases():
    res = base_singular(spec_of(F5, 0, 1, 2, 0), 2)
    assert res.candidate.size == 14 and res.report.passed
    res = base_singular(spec_of(F5, 0, 0, 2, 1), 2)
    assert res.candidate.size == 14 and res.report.passed
    res = base_singular(spec_of(F5, 0, 0, 0, 2), 2)
    assert res.candidate.size == 14 and res.report.passed
    res = base_singular(spec_of(F5, 0, 0, 0), 1)
    assert res.candidate.size == 8 and res.report.passed
    with pytest.raises(CaseNotCovered):
        base_singular(spec_of(F5, 0, 1, 0, 0), 3)
    with pytest.raises(CaseNotCovered):
        base_singular(spec_of(F5, 0, 0, 0), 2)


def test_singular_delegates_when_invertible():
    res = base_singular(spec_of(F5, 1, 0, 0, 0), 2)
    assert res.candidate.size == 14 and res.report.passed
    with pytest.raises(CaseNotCovered):
        base_singular(spec_of(F5, 1, 0, 0), 3)


def test_glue_refuses_a_repeated_member(monkeypatch):
    original = construct._shift_dual_members

    def repeating(*args):
        members = original(*args)
        return members[:1] + members[:-1]

    monkeypatch.setattr(construct, "_shift_dual_members", repeating)
    with pytest.raises(InternalVerificationError, match="glued base has 13 members"):
        base_singular(spec_of(F5, 0, 1, 2, 0), 2)


# --- the pencil base ---------------------------------------------------------------------


def test_atkinson_base_small():
    res = atkinson_base(2, F3)
    assert res.candidate.size == 4 and res.report.passed
    res = atkinson_base(3, F5)
    assert res.candidate.size == 10 and res.report.passed
    with pytest.raises(ParametersOutOfRange):
        atkinson_base(1, F5)


def test_atkinson_base_over_extension_fields():
    # the sign -1 is field.neg(1), encoding p - 1: the int -1 is reduced
    # mod q to q - 1, which over F_9 and F_25 is another element
    for F in (field_make(3, 2), field_make(5, 2)):
        for n in (2, 3, 4):
            res = atkinson_base(n, F)
            assert res.candidate.size == n * n + n - 2 and res.report.passed


def test_atkinson_char_two_families_coincide():
    with pytest.raises(CharTwo):
        atkinson_base(2, F2)
    # over F_2 the two sign families become equal member by member
    n, m = 3, 4
    for i in range(1, n):
        rows_a = [[0] * m for _ in range(n)]
        rows_b = [[0] * m for _ in range(n)]
        for t in range(3):
            rows_a[i - 1][i - 1 + t] = 1 % 2
            rows_a[i][i - 1 + t] = (-1) % 2
            rows_b[i - 1][i - 1 + t] = (1 if t != 1 else -1) % 2
            rows_b[i][i - 1 + t] = (1 if t != 1 else -1) % 2
        assert rows_a == rows_b


def test_atkinson_spans_match_shift_family():
    # same dual space as the truncated power construction with gammas {1, -1}
    for F, n in ((F3, 2), (F5, 3)):
        m = n + 1
        res = atkinson_base(n, F)
        spec = CompanionSpec(F, m, (1,) + (0,) * n)
        S = GammaSet(F, (1, F.q - 1))
        rect = base_dual_powers_rect(spec, n, 2, S)
        lhs = MatrixSpace(F, (n, m), res.candidate.matrices)
        rhs = MatrixSpace(F, (n, m), rect.candidate.matrices)
        assert lhs == rhs


# --- randomized constructor sweep -----------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([5, 7, 9]), st.integers(2, 6), st.data())
def test_constructors_self_verify_randomized(q, m, data):
    F = field_make(*{5: (5, 1), 7: (7, 1), 9: (3, 2)}[q])
    s = data.draw(st.integers(1, min(m - 1, q - 1)))
    bottom = tuple([data.draw(st.integers(1, q - 1))]
                   + [data.draw(st.integers(0, q - 1)) for _ in range(m - 1)])
    spec = CompanionSpec(F, m, bottom)
    res = base_dual_powers(spec, s)
    assert res.report.passed and res.candidate.size == m * m - s
    n = data.draw(st.integers(2, m))
    res = base_dual_powers_rect(spec, n, s)
    assert res.report.passed and res.candidate.size == n * m - s


# --- each result is verified once ------------------------------------------------------

def _two_row_bound():
    g = rmcode.GammaBasis.power(5, 4)
    return rmcode.two_dim_bound([[1, 0, 524, 498], [0, 1, 415, 311]], g)


def _one_dim_row():
    g = rmcode.GammaBasis.power(5, 4)
    a = g.elements[1]
    return rmcode.one_dim_row_base(g, [1, 0, a, g.ext_field.add(1, a)])


@pytest.mark.parametrize("build", [
    pytest.param(lambda: base_singular(spec_of(F5, 1, 0, 0, 0), 2), id="invertible"),
    pytest.param(lambda: base_singular(spec_of(F5, 0, 0, 0), 1), id="identity-dual"),
    pytest.param(lambda: base_singular(spec_of(F5, 0, 1, 2, 0), 2), id="glued"),
    pytest.param(lambda: base_singular(spec_of(F7, 0, 3, 1, 2, 4), 3), id="glued-m5"),
    pytest.param(lambda: base_singular(spec_of(F5, 0, 0, 2, 1), 2), id="glued-quadratic"),
    pytest.param(lambda: base_singular(spec_of(F5, 0, 0, 0, 2), 2), id="glued-trailing"),
    pytest.param(lambda: rmcode.dual_gabidulin_mtr_base(5, 3, 3), id="gabidulin-dual"),
    pytest.param(_one_dim_row, id="one-dim-row"),
    pytest.param(lambda: rmcode.build_mtr(7, 4, 4, 2, 3), id="build-mtr"),
    pytest.param(_two_row_bound, id="two-dim-bound-two-rows"),
])
def test_composed_constructions_verify_once(monkeypatch, build):
    calls = []

    def counting(cand):
        calls.append(cand)
        return tensor3.verify_base(cand)

    for module in (construct, rmcode):
        monkeypatch.setattr(module, "verify_base", counting)
    out = build()
    # a result, (code, result), (code, witness) or (lower, upper, witness)
    returned = out[-1] if isinstance(out, tuple) else out
    if isinstance(returned, construct.ConstructionResult):
        assert returned.report.passed
        returned = returned.candidate
    # one check, on the very object that is returned
    assert len(calls) == 1 and calls[0] is returned
