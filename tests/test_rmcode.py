import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from perfbase import exactla, gf, rmcode
from perfbase.construct import CompanionSpec, companion, y_matrix
from perfbase.errors import (
    BadEta,
    BadSubset,
    CaseNotCovered,
    DependentBasis,
    FieldMismatch,
    FieldTooSmall,
    GuardExceeded,
    InternalVerificationError,
    InvalidWitness,
    NotABase,
    NotCoprime,
    NotPrime,
    ParametersOutOfRange,
    ShapeMismatch,
)
from perfbase.exactla import FqMatrix, MatrixSpace
from perfbase.gf import FieldElement, FqPolynomial, field_make
from perfbase.rmcode import (
    BlockCode,
    _power_multiple,
    GammaBasis,
    LinearizedPoly,
    RankCode,
    VectorCode,
    _mtr_core,
    _power_candidate,
    build_mtr,
    dual_code,
    dual_gabidulin_mtr_base,
    extend_base_lindep,
    gabidulin,
    gamma_expand,
    gamma_expand_code,
    is_mrd,
    is_mtr,
    min_hamming_distance,
    min_rank_distance,
    one_dim_power_base,
    one_dim_row_base,
    power_vector_code,
    psi_block,
    shorten_mtr,
    two_dim_bound,
)
from perfbase.tensor3 import BaseCandidate, kruskal_bound, verify_base

F5 = field_make(5)


# --- expansion ---------------------------------------------------------------------


def test_gamma_expand_power_identity():
    g = GammaBasis.power(3, 3)
    ext = g.ext_field
    M = companion(g.generator_companion())
    for s in (1, 2, 3):
        for i in range(4):
            v = [ext.mul(g.elements[t], ext.pow(g.elements[1], i))
                 for t in range(s)]
            assert gamma_expand(v, g) == y_matrix(g.base_field, s, 3) @ M.power(i)


def test_gamma_expand_zero_and_dims():
    g = GammaBasis.power(3, 3)
    Z = gamma_expand([0, 0], g)
    assert Z.is_zero() and Z.shape == (2, 3)
    code = power_vector_code(g, 3)
    C = gamma_expand_code(code, g)
    assert C.k == 3 and C.distance() == 3


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 3 ** 3 - 1), st.integers(0, 3 ** 3 - 1))
def test_gamma_expand_is_injective_linear(e1, e2):
    g = GammaBasis.power(3, 3)
    ext = g.ext_field
    v1, v2 = [e1, e2], [e2, ext.add(e1, e2)]
    lhs = gamma_expand([ext.add(a, b) for a, b in zip(v1, v2)], g)
    rhs_rows = [[g.base_field.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(gamma_expand(v1, g).rows,
                                  gamma_expand(v2, g).rows)]
    assert lhs.rows == tuple(tuple(r) for r in rhs_rows)
    if any(v1):
        assert not gamma_expand(v1, g).is_zero()


def test_expansion_dimension_formula():
    for q, m, gens in [(3, 3, 1), (5, 3, 2), (7, 2, 1)]:
        g = GammaBasis.power(q, m)
        ext = g.ext_field
        rng = random.Random(q * m)
        while True:
            rows = [[rng.randrange(ext.q) for _ in range(3)]
                    for _ in range(gens)]
            if FqMatrix(ext, rows).rank() == gens:
                break
        C = gamma_expand_code(VectorCode(ext, rows), g)
        assert C.k == m * gens


# --- distances ---------------------------------------------------------------------


def test_min_rank_distance_examples():
    g = GammaBasis.power(3, 3)
    zero = RankCode(MatrixSpace.zero(g.base_field, (3, 3)))
    assert min_rank_distance(zero) == 4  # n + 1
    C = gamma_expand_code(power_vector_code(g, 3), g)
    assert min_rank_distance(C) == 3
    D = dual_code(C)
    assert D.k == 6 and min_rank_distance(D) == 2
    with pytest.raises(GuardExceeded):
        min_rank_distance(D, guard=10)


def test_min_rank_distance_matches_naive_scan():
    rng = random.Random(21)
    for _ in range(10):
        mats = [FqMatrix(F5, [[rng.randrange(5) for _ in range(3)]
                              for _ in range(2)]) for _ in range(2)]
        space = MatrixSpace(F5, (2, 3), mats)
        if space.dim == 0:
            continue
        C = RankCode(space)
        naive = min(A.rank()
                    for A in space.iter_elements(nonzero_only=True))
        assert min_rank_distance(C) == naive


def test_min_hamming_distance():
    B = BlockCode(F5, [(1, 1, 1, 0), (0, 0, 1, 1)])
    # naive scan over all 24 nonzero words
    words = set()
    for a in range(5):
        for b in range(5):
            if a == b == 0:
                continue
            w = tuple((a * x + b * y) % 5 for x, y in zip(*B.generators))
            words.add(w)
    naive = min(sum(1 for v in w if v) for w in words)
    assert min_hamming_distance(B) == naive


def test_distance_scan_guard_boundary_and_progress():
    # the guard counts projective codewords: (q^k - 1) / (q - 1)
    g = GammaBasis.power(3, 3)
    D = dual_code(gamma_expand_code(power_vector_code(g, 3), g))
    B = BlockCode(F5, [(1, 1, 1, 0), (0, 0, 1, 1)])
    for scan, code, needed, d in ((min_rank_distance, D, 364, 2),
                                  (min_hamming_distance, B, 6, 2)):
        with pytest.raises(GuardExceeded) as exc:
            scan(code, guard=needed - 1)
        assert exc.value.progress == {"phase": "distance", "needed": needed,
                                      "guard": needed - 1}
        assert scan(code, guard=needed) == d


def test_a_memoised_distance_is_guarded_as_its_scan():
    # a scan, then memo hits: under a smaller guard each raises what a fresh
    # code's scan raises, and under the scan's guard it answers again
    g = GammaBasis.power(3, 3)

    def fresh_rank():
        return dual_code(gamma_expand_code(power_vector_code(g, 3), g))

    def fresh_block():
        return BlockCode(F5, [(1, 1, 1, 0), (0, 0, 1, 1)])

    for fresh, needed, d in ((fresh_rank, 364, 2), (fresh_block, 6, 2)):
        code = fresh()
        assert code.distance(needed) == d
        for guard in (needed - 1, 0):
            with pytest.raises(GuardExceeded) as hit:
                code.distance(guard)
            with pytest.raises(GuardExceeded) as scan:
                fresh().distance(guard)
            assert str(hit.value) == str(scan.value) == f"{needed} codewords exceed the guard"
            assert hit.value.progress == scan.value.progress == {
                "phase": "distance", "needed": needed, "guard": guard}
        assert code.distance(needed) == code.distance() == d


def test_a_carried_core_distance_is_guarded_as_its_scan(monkeypatch):
    code, _ = build_mtr(7, 3, 3, 2, 3)
    assert code.distance(10 ** 6) == 3
    with pytest.raises(GuardExceeded) as exc:
        code.distance(0)
    assert exc.value.progress == {"phase": "distance", "needed": 8, "guard": 0}
    # a taller code of the same core carries the core's distance, unscanned,
    # and under the same guard
    scans = []
    monkeypatch.setattr(exactla, "_min_distance", lambda *a: scans.append(a))
    tall, _ = build_mtr(7, 4, 3, 2, 3)
    with pytest.raises(GuardExceeded) as exc:
        tall.distance(7)
    assert exc.value.progress == {"phase": "distance", "needed": 8, "guard": 7}
    assert tall.distance(8) == 3 and scans == []
    # the zero code scans nothing, so no guard refuses it, fresh or memoised
    zero = RankCode(MatrixSpace.zero(F5, (2, 2)))
    assert zero.distance(-1) == zero.distance(-1) == 3


def test_distance_is_basis_independent():
    ext = field_make(3, 3)
    power = GammaBasis(ext)
    other = GammaBasis(ext, [power.elements[1], 1, power.elements[2]])
    code = VectorCode(ext, [[1, power.elements[1], 4]])
    d1 = gamma_expand_code(code, power).distance()
    d2 = gamma_expand_code(code, other).distance()
    assert d1 == d2


def _combinations(F, vectors):
    """Every F-linear combination of the vectors, by brute force."""
    out = []
    for coeffs in itertools.product(range(F.q), repeat=len(vectors)):
        acc = [0] * len(vectors[0])
        for c, vec in zip(coeffs, vectors):
            acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, vec)]
        out.append(tuple(acc))
    return out


def _brute_rank(F, rows):
    """log_q of the size of the row space: no elimination involved."""
    size = len(set(_combinations(F, rows)))
    return round(math.log(size, F.q))


def test_min_rank_distance_extension_field_matches_brute_force():
    F9 = field_make(3, 2)
    rng = random.Random(9)
    seen = set()
    for _ in range(12):
        n, m = rng.choice([(2, 2), (2, 3)])
        mats = [FqMatrix(F9, [[rng.randrange(9) for _ in range(m)] for _ in range(n)])
                for _ in range(2)]
        if rng.random() < 0.4:  # a rank-one member makes d = 1 likely
            u, v = [rng.randrange(9) for _ in range(n)], [rng.randrange(9) for _ in range(m)]
            mats[1] = FqMatrix(F9, [[F9.mul(a, b) for b in v] for a in u])
        space = MatrixSpace(F9, (n, m), mats)
        if space.dim == 0:
            continue
        words = _combinations(F9, [B.vectorize() for B in space.basis])
        brute = min(_brute_rank(F9, [w[i * m:(i + 1) * m] for i in range(n)])
                    for w in words if any(w))
        assert min_rank_distance(RankCode(space)) == brute
        seen.add(brute)
    assert seen == {1, 2}


def test_min_hamming_distance_extension_field_matches_brute_force():
    F9 = field_make(3, 2)
    rng = random.Random(90)
    seen = set()
    for _ in range(12):
        length = rng.choice([3, 4, 5])
        gens = [[rng.randrange(9) for _ in range(length)] for _ in range(2)]
        if FqMatrix(F9, gens).rank() != 2:
            continue
        B = BlockCode(F9, gens)
        brute = min(sum(1 for v in w if v)
                    for w in _combinations(F9, B.generators) if any(w))
        assert min_hamming_distance(B) == brute
        seen.add(brute)
    assert len(seen) > 1


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_distance_scan_backends_match_brute_force(monkeypatch, q):
    # k = 2 scans fewer words than the numpy crossover, k = 3 more; each
    # input runs on both backends
    p = {4: 2, 8: 2, 9: 3}.get(q, q)
    F = field_make(p, round(math.log(q, p)))
    assert (exactla._projective_count(q, 2) < gf._SCAN_MIN_WORDS
            <= exactla._projective_count(q, 3))
    batched = []
    scan_np = exactla._min_distance_np
    monkeypatch.setattr(exactla, "_min_distance_np",
                        lambda *args: batched.append(args) or scan_np(*args))
    rng = random.Random(q)
    seen = set()
    for k in (2, 3):
        for tries in range(16):  # four inputs, and more until d = 2 is seen
            if tries >= 4 and {d for _, d in seen} == {1, 2}:
                break
            m = rng.choice([2, 3])
            mats = [FqMatrix(F, [[rng.randrange(q) for _ in range(m)]
                                 for _ in range(2)]) for _ in range(k)]
            if rng.random() < 0.4:  # a rank-one member makes d = 1 likely
                u = [rng.randrange(q) for _ in range(2)]
                v = [rng.randrange(q) for _ in range(m)]
                mats[0] = FqMatrix(F, [[F.mul(a, b) for b in v] for a in u])
            space = MatrixSpace(F, (2, m), mats)
            if space.dim != k:
                continue
            rows = [B.vectorize() for B in space.basis]
            words = [w for w in _combinations(F, rows) if any(w)]
            rank = min(_brute_rank(F, [w[:m], w[m:]]) for w in words)
            weight = min(sum(1 for v in w if v) for w in words)
            for threshold in (1, 1 << 30):
                monkeypatch.setattr(gf, "_SCAN_MIN_WORDS", threshold)
                del batched[:]
                assert exactla._min_distance(F, rows, 1 << 24, m) == rank
                assert exactla._min_distance(F, rows, 1 << 24) == weight
                assert len(batched) == (2 if threshold == 1 else 0)
            seen.add((k, rank))
    assert {k for k, _ in seen} == {2, 3} and {d for _, d in seen} == {1, 2}


def test_min_rank_distance_beyond_the_int64_rule_scans_lists(monkeypatch):
    # over p = 2^61 - 1 a product of two entries overflows int64, so even a
    # scan that the word count would send to numpy runs on lists
    monkeypatch.setattr(gf, "_SCAN_MIN_WORDS", 1)
    p = (1 << 61) - 1
    F = field_make(p)
    u, v = (3 << 40, 5), (7, 11 << 35)
    rank_one = FqMatrix(F, [[a * b % p for b in v] for a in u])
    invertible = FqMatrix(F, [[1 << 40, 3], [5, 1 << 50]])
    for A, d in ((rank_one, 1), (invertible, 2)):
        assert min_rank_distance(RankCode(MatrixSpace(F, (2, 2), [A]))) == d


# --- evaluation codes ----------------------------------------------------------------


def test_gabidulin_basic_and_errors():
    ext = field_make(2, 3)
    g = GammaBasis(ext)
    U = [FieldElement(ext, g.elements[0]), FieldElement(ext, g.elements[1])]
    code = gabidulin(U, 1, 1, 0)
    C = gamma_expand_code(code, g)
    assert C.distance() == 2  # MRD: n - k + 1
    with pytest.raises(BadEta):
        gabidulin(U, 1, 1, FieldElement(ext, 3))
    with pytest.raises(NotCoprime):
        ext4 = field_make(2, 4)
        g4 = GammaBasis(ext4)
        U4 = [FieldElement(ext4, g4.elements[i]) for i in range(3)]
        gabidulin(U4, 1, 2, 0)
    with pytest.raises(DependentBasis):
        gabidulin([FieldElement(ext, 1), FieldElement(ext, 1)], 1, 1, 0)
    with pytest.raises(ParametersOutOfRange):
        gabidulin(U, 2, 1, 0)
    with pytest.raises(ParametersOutOfRange):
        gabidulin([1, 2], 1, 1, 0)  # encodings, not field elements


def test_gabidulin_encodes_its_basis_by_the_field():
    # an element of F_25 was read as an encoding in F_9 (DependentBasis)
    with pytest.raises(FieldMismatch):
        gabidulin([FieldElement(field_make(3, 2), 1),
                   FieldElement(field_make(5, 2), 10)], 1, 1, 0)


def test_gabidulin_twisted_valid_eta():
    ext = field_make(3, 2)  # norms onto F_3 hit every unit
    g = GammaBasis(ext)
    U = [FieldElement(ext, g.elements[0]), FieldElement(ext, g.elements[1])]
    # (-1)^{mk} = (-1)^2 = 1; pick eta with norm != 1
    target = None
    for e in range(1, 9):
        if ext.pow(e, (9 - 1) // (3 - 1)) != 1:
            target = e
            break
    code = gabidulin(U, 1, 1, FieldElement(ext, target))
    C = gamma_expand_code(code, g)
    assert C.distance() == 2


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2), (3, 3)])
def test_gabidulin_refuses_eta_exactly_by_the_norm_condition(p, m):
    # BadEta exactly when eta != 0 and prod_{l<m} eta^(q^(sl)), formed by
    # hand, is (-1)^{mk}; at m = 2 the points 1, a, a^2 are dependent, which
    # is refused only after the twist is checked
    ext = field_make(p, m)
    g = GammaBasis(ext)
    refused = set()
    for k in (1, 2):
        sign = ext.neg(1) if m * k % 2 else 1
        U = [FieldElement(ext, ext.pow(g.elements[1], i)) for i in range(k + 1)]
        for s in (s for s in range(1, 2 * m + 1) if math.gcd(s, m) == 1):
            for eta in range(ext.q):
                product = 1
                for l in range(m):
                    product = ext.mul(product, ext.pow(eta, p ** (s * l)))
                bad = eta != 0 and product == sign
                try:
                    gabidulin(U, k, s, FieldElement(ext, eta), g)
                except BadEta:
                    assert bad, (k, s, eta)
                    refused.add(eta)
                except DependentBasis:
                    assert not bad and k + 1 > m
                else:
                    assert not bad, (k, s, eta)
    assert refused


# --- predicates and duality -------------------------------------------------------------


def test_is_mrd_and_dual_mrd():
    g = GammaBasis.power(3, 3)
    C = gamma_expand_code(power_vector_code(g, 3), g)
    D = dual_code(C)
    assert is_mrd(C) and is_mrd(D)
    full = RankCode(MatrixSpace.full(g.base_field, (2, 3)))
    assert is_mrd(full) and full.distance() == 1
    assert not is_mrd(RankCode(MatrixSpace(g.base_field, (2, 3), [])))
    # MRD duality across every evaluation-code instance with q <= 3, nm <= 9
    for q, m, n, k in [(2, 2, 2, 1), (2, 3, 2, 1), (2, 3, 3, 1), (2, 3, 3, 2),
                       (3, 3, 2, 1), (3, 3, 3, 1), (3, 3, 3, 2), (2, 4, 2, 1)]:
        gb = GammaBasis.power(q, m)
        ext = gb.ext_field
        U = [FieldElement(ext, gb.elements[i]) for i in range(n)]
        code = gamma_expand_code(gabidulin(U, k, 1, 0), gb)
        assert is_mrd(code)
        assert is_mrd(dual_code(code))


def test_dual_is_involution_and_dim_complementary():
    rng = random.Random(4)
    for _ in range(10):
        mats = [FqMatrix(F5, [[rng.randrange(5) for _ in range(3)]
                              for _ in range(3)]) for _ in range(3)]
        C = RankCode(MatrixSpace(F5, (3, 3), mats))
        D = dual_code(C)
        assert C.k + D.k == 9
        assert dual_code(D).space == C.space


def test_is_mtr_full_space():
    F3 = field_make(3)
    full = RankCode(MatrixSpace.full(F3, (2, 2)))
    units = tuple(FqMatrix.unit(F3, 2, 2, i, j)
                  for i in range(2) for j in range(2))
    assert is_mtr(full, BaseCandidate(units, full.space))
    assert not is_mtr(full, BaseCandidate(units[:3], full.space))
    wide = MatrixSpace.full(F3, (2, 3))
    with pytest.raises(InvalidWitness):
        is_mtr(full, BaseCandidate(units, wide))


# --- base extension -----------------------------------------------------------------------


WORKED_BASE = [
    [[4, 2, 0, 1], [3, 4, 0, 2], [1, 3, 0, 4]],
    [[1, 1, 0, 1], [3, 3, 0, 3], [4, 4, 0, 4]],
    [[3, 0, 2, 4], [2, 0, 3, 1], [3, 0, 2, 4]],
    [[2, 3, 3, 4], [2, 3, 3, 4], [2, 3, 3, 4]],
    # first row restored from the extension row 4*(3,4,4,0) = (2,1,1,0):
    # the printed (3,3,4,0) contradicts it and would make the member rank 2
    [[3, 4, 4, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 1]],
]
WORKED_EXTENDED = [
    [[4, 2, 0, 1], [3, 4, 0, 2], [1, 3, 0, 4], [2, 1, 0, 3]],
    [[1, 1, 0, 1], [3, 3, 0, 3], [4, 4, 0, 4], [1, 1, 0, 1]],
    [[3, 0, 2, 4], [2, 0, 3, 1], [3, 0, 2, 4], [4, 0, 1, 2]],
    [[2, 3, 3, 4], [2, 3, 3, 4], [2, 3, 3, 4], [3, 2, 2, 1]],
    [[3, 4, 4, 0], [0, 0, 0, 0], [0, 0, 0, 0], [2, 1, 1, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 1], [0, 4, 2, 2]],
]


def worked_pencil():
    spec = CompanionSpec.from_polynomial(FqPolynomial(F5, (2, 4, 4, 0, 1)))
    M = companion(spec)
    Nbar = FqMatrix(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    target = MatrixSpace(F5, (3, 4), [Nbar @ M.power(i) for i in range(4)])
    return M, BaseCandidate(tuple(FqMatrix(F5, A) for A in WORKED_BASE), target)


def test_extend_base_lindep_worked_example():
    M, cand = worked_pencil()
    assert verify_base(cand).passed
    ext = extend_base_lindep(cand, [[4, 3, 2]])
    assert [[list(r) for r in A.rows] for A in ext.matrices] == WORKED_EXTENDED
    N = FqMatrix(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [4, 3, 2, 0]])
    target = MatrixSpace(F5, (4, 4), [N @ M.power(i) for i in range(4)])
    assert verify_base(BaseCandidate(ext.matrices, target)).passed
    # both codes certify tensor rank 6: dim 4, distance 3, witness 6
    assert RankCode(cand.target).distance() == 3
    assert RankCode(target).distance() == 3
    assert kruskal_bound(4, 3) == 6 == len(ext.matrices)


def test_extend_base_lindep_checks_its_coefficient_rows():
    _, cand = worked_pencil()
    assert extend_base_lindep(cand, []) is cand
    with pytest.raises(ShapeMismatch):
        extend_base_lindep(cand, [[1, 2]])
    F7 = field_make(7)
    with pytest.raises(FieldMismatch):  # a coefficient of another field
        extend_base_lindep(cand, [[F7.element(1), 0, 0]])
    # a member over another field, with other than s = 3 rows, or with other
    # than m = 4 columns is refused before any row is combined
    for bad, error in ((FqMatrix(F7, [[1, 0, 0, 0]] * 3), FieldMismatch),
                       (FqMatrix(F5, [[1, 0, 0, 0]] * 2), ShapeMismatch),
                       (FqMatrix(F5, [[1, 0, 0]] * 3), ShapeMismatch)):
        with pytest.raises(error):
            extend_base_lindep(BaseCandidate(cand.matrices + (bad,), cand.target),
                               [[1, 2, 3]])


def test_extend_base_lindep_zero_rows():
    _, cand = worked_pencil()
    ext = extend_base_lindep(cand, [[0, 0, 0], [0, 0, 0]])
    assert all(A.rows[3] == (0,) * 4 and A.rows[4] == (0,) * 4
               for A in ext.matrices)
    assert verify_base(ext).passed


def test_extend_base_lindep_reads_off_the_eliminated_target():
    # [r; Lambda r] over the canonical rows r is the RREF an elimination of
    # the extended basis finds, with the same pivots, and each member M becomes
    # [M; Lambda M], over prime and extension fields alike, the zero space
    # included; Lambda is also given as field elements, as ints outside
    # [0, q), and all zero, the only Lambda `build_mtr` passes
    rng, spell = random.Random(29), random.Random(30)
    fields = [field_make(2), field_make(7), field_make(2, 2), field_make(3, 2),
              field_make(5, 2)]
    for case in range(750):
        F = fields[case % len(fields)]
        s, m = rng.randint(1, 3), rng.randint(1, 3)
        mats = [FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)] for _ in range(s)])
                for _ in range(rng.randint(0, s * m))]
        target = MatrixSpace(F, (s, m), mats)
        lam = [[rng.randrange(F.q) for _ in range(s)] for _ in range(rng.randint(1, 3))]
        members = tuple(
            FqMatrix(F, [[spell.randrange(F.q) for _ in range(m)] for _ in range(s)])
            for _ in range(spell.randint(1, 3)))
        zero = [[0] * s for _ in lam]
        for coeffs, given in (
                (lam, lam),
                (lam, [[F.element(c) for c in row] for row in lam]),
                (lam, [[c + F.q * spell.randint(-3, 3) for c in row] for row in lam]),
                (zero, zero)):
            ext = extend_base_lindep(BaseCandidate(members, target), given)
            Lam = FqMatrix(F, coeffs)
            want = MatrixSpace(F, (s + len(lam), m),
                               [FqMatrix.row_stack(F, (B, Lam @ B)) for B in target.basis])
            got = ext.target
            assert (got._rrows, got._pivots) == (want._rrows, want._pivots)
            assert got.shape == want.shape and got == want
            assert ext.matrices == tuple(FqMatrix.row_stack(F, (M, Lam @ M))
                                         for M in members)
            assert all(type(v) is int for row in got._rrows for v in row)
            assert all(type(v) is int for M in ext.matrices for row in M.rows for v in row)


# --- one-dimensional bases -----------------------------------------------------------------


@pytest.mark.parametrize("q,m", [(5, 4), (7, 4), (3, 3), (2, 2), (7, 3)])
def test_one_dim_power_base_all_row_counts(q, m):
    g = GammaBasis.power(q, m)
    for s in range(1, m + 1):
        if q < m + s - 2:
            continue
        res = one_dim_power_base(g, s)
        assert res.candidate.size == m + s - 1
        assert res.report.passed
        # the target is the expansion of the one-dimensional power code
        C = RankCode(res.candidate.target)
        assert C.k == m and C.distance() == s


def _lagrange_mod_minpoly(gamma, s):
    """Reference members of `one_dim_power_base`: each Lagrange polynomial on
    the points 0..m+s-3 (and their product, for the last member) as a
    polynomial over F_q, reduced modulo the generator's minimal polynomial."""
    Fq, m = gamma.base_field, gamma.m
    minpoly = (gamma.generator_companion().char_poly() if m > 1
               else FqPolynomial(Fq, (Fq.neg(1), 1)))
    points = range(m + s - 2)

    def coords(f):
        return (list((f % minpoly).coeffs) + [0] * m)[:m]

    members = []
    pi_all = FqPolynomial(Fq, (1,))
    for c in points:
        pi_all = pi_all * FqPolynomial(Fq, (Fq.neg(c), 1))
        lag, denom = FqPolynomial(Fq, (1,)), 1
        for c2 in points:
            if c2 != c:
                lag = lag * FqPolynomial(Fq, (Fq.neg(c2), 1))
                denom = Fq.mul(denom, Fq.sub(c, c2))
        r = coords(lag.scale(Fq.inv(denom)))
        members.append(FqMatrix(Fq, [[Fq.mul(Fq.pow(c, t), b) for b in r]
                                     for t in range(s)]))
    rows = [[0] * m for _ in range(s)]
    rows[s - 1] = coords(pi_all)
    members.append(FqMatrix(Fq, rows))
    return tuple(members)


POWER_BASE_CASES = [(q, m, s) for q in (2, 3, 5, 7, 11, 13)
                    for m in range(1, 17) if q ** m <= 1 << 16
                    for s in range(1, m + 1) if q >= m + s - 2]


def test_power_base_case_count():
    assert len(POWER_BASE_CASES) == 56


@pytest.mark.parametrize("q,m,s", POWER_BASE_CASES)
def test_power_candidate_matches_lagrange_mod_minpoly(q, m, s):
    g = GammaBasis.power(q, m)
    assert _power_candidate(g, s).matrices == _lagrange_mod_minpoly(g, s)


def test_one_dim_power_base_needs_a_power_basis_and_covers_m_1():
    power = GammaBasis.power(5, 3)
    ext = power.ext_field
    a = power.elements[1]
    # a * (1, a, a^2) is a basis, but not of the form (1, b, b^2)
    shifted = GammaBasis(ext, [ext.mul(a, x) for x in power.elements])
    with pytest.raises(ParametersOutOfRange, match="not a power basis"):
        one_dim_power_base(shifted, 2)
    res = one_dim_power_base(GammaBasis.power(5, 1), 1)
    assert res.candidate.matrices == (FqMatrix(F5, [[1]]),)
    assert res.report.passed


def test_one_dim_row_base_needs_a_power_basis_and_covers_m_1():
    power = GammaBasis.power(5, 3)
    ext = power.ext_field
    a = power.elements[1]
    shifted = GammaBasis(ext, [ext.mul(a, x) for x in power.elements])
    with pytest.raises(ParametersOutOfRange, match="not a power basis"):
        one_dim_row_base(shifted, shifted.elements)
    res = one_dim_row_base(GammaBasis.power(5, 1), [1, 2, 3])
    assert res.report.passed and res.candidate.size == 1
    assert res.candidate.target.shape == (3, 1)


def test_scalars_of_another_field_are_refused():
    g9 = GammaBasis(field_make(3, 2))
    foreign = FieldElement(field_make(5, 2), 4)
    with pytest.raises(FieldMismatch):
        gamma_expand([foreign], g9)
    with pytest.raises(FieldMismatch):
        g9.mult_matrix(foreign)
    with pytest.raises(FieldMismatch):
        VectorCode(g9.ext_field, [[1, foreign]])
    with pytest.raises(FieldMismatch):
        one_dim_row_base(g9, [1, foreign])
    with pytest.raises(FieldMismatch):
        GammaBasis(g9.ext_field, [1, foreign])


def test_int_scalars_are_reduced_mod_q():
    g9 = GammaBasis(field_make(3, 2))
    res = one_dim_row_base(g9, [1, 30])
    assert res.params["row"] == [1, 3]
    assert res.candidate.matrices == one_dim_row_base(g9, [1, 3]).candidate.matrices
    assert gamma_expand([13, -1], g9) == gamma_expand([4, 8], g9)
    assert g9.mult_matrix(10) == g9.mult_matrix(1)


def test_codes_and_polynomials_encode_their_scalars():
    # a raw IndexError, or an unreduced generator, before
    F7, F9 = field_make(7), field_make(3, 2)
    assert LinearizedPoly(F9, 1, (30,), 0).evaluate(1) == \
        LinearizedPoly(F9, 1, (3,), 0).evaluate(1)
    assert LinearizedPoly(F9, 1, (1,), 10).eta == 1
    assert BlockCode(F9, [[30, 1]]).distance() == 2
    assert BlockCode(F7, [[30, 1]]).generators == ((2, 1),)
    foreign = FieldElement(field_make(5, 2), 4)
    with pytest.raises(FieldMismatch):
        BlockCode(F9, [[foreign, 1]])
    with pytest.raises(FieldMismatch):
        LinearizedPoly(F9, 1, (foreign,), 0)
    for bad in (2.5, "1"):
        with pytest.raises(TypeError):
            BlockCode(F7, [[bad, 1]])
        with pytest.raises(TypeError):
            VectorCode(F9, [[1, bad]])


def test_code_and_basis_constructors_refuse_bad_generators():
    F7, F9 = field_make(7), field_make(3, 2)
    with pytest.raises(DependentBasis):
        GammaBasis(F9, [1])  # one element for m = 2
    with pytest.raises(DependentBasis):
        GammaBasis(F9, [1, 2])  # 2 is the base-field scalar 2 * 1
    with pytest.raises(ParametersOutOfRange):
        GammaBasis(F7).generator_companion()  # m = 1
    with pytest.raises(FieldMismatch):
        GammaBasis(F9).frame_change_from(GammaBasis(field_make(5, 2)))
    with pytest.raises(ParametersOutOfRange):
        VectorCode(F9, [])
    with pytest.raises(ShapeMismatch):
        VectorCode(F9, [[1, 0], [0]])
    with pytest.raises(DependentBasis):
        VectorCode(F9, [[1, 3], [2, 6]])
    with pytest.raises(ParametersOutOfRange):
        BlockCode(F7, [])
    with pytest.raises(ShapeMismatch):
        BlockCode(F7, [[1, 0], [0]])
    with pytest.raises(DependentBasis):
        BlockCode(F7, [[1, 3], [2, 6]])


def test_one_dimensional_and_two_row_bases_refuse_bad_parameters():
    g = GammaBasis.power(5, 3)
    for s in (0, 4):
        with pytest.raises(ParametersOutOfRange):
            one_dim_power_base(g, s)
    small = GammaBasis.power(3, 4)  # F_3 has too few points for m = 4
    with pytest.raises(FieldTooSmall):
        one_dim_power_base(small, 3)
    with pytest.raises(ParametersOutOfRange):
        one_dim_row_base(g, [0, 0])
    for rows in ([[1, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(ParametersOutOfRange):
            two_dim_bound(rows, g)
    with pytest.raises(FieldTooSmall):
        two_dim_bound([[1, 0, 0], [0, 1, 0]], small)
    with pytest.raises(FieldMismatch):
        gamma_expand_code(VectorCode(field_make(3, 2), [[1]]), g)
    with pytest.raises(FieldTooSmall):
        dual_gabidulin_mtr_base(3, 4, 2)
    for n in (1, 4):
        with pytest.raises(ParametersOutOfRange):
            dual_gabidulin_mtr_base(5, 3, n)


def test_one_dim_row_base_general_rows():
    g = GammaBasis.power(5, 4)
    ext = g.ext_field
    a = g.elements[1]
    row = [1, 0, a, ext.add(1, a)]
    res = one_dim_row_base(g, row)
    assert res.report.passed
    C = RankCode(res.candidate.target)
    assert C.k == 4
    assert res.candidate.size == 4 + C.distance() - 1


@pytest.mark.parametrize("q,m", [(5, 3), (7, 3), (3, 4)])
def test_power_multiple_matches_brute_force(q, m):
    g = GammaBasis.power(q, m)
    ext = g.ext_field

    def span(scalars):
        return MatrixSpace(g.base_field, (1, m),
                           [FqMatrix(g.base_field, [g.expand_scalar(x)]) for x in scalars])

    # every nonzero c, by the span c * (1, a, ..., a^{s-1}) it gives, for s < m
    multiples = {}
    for s in range(1, m):
        for c in range(1, ext.q):
            V = span([ext.mul(c, g.elements[i]) for i in range(s)])
            multiples.setdefault(V, []).append(c)
    rng = random.Random(f"power-multiple-{q}-{m}")
    outcomes = set()
    for _ in range(60):
        V = span([rng.randrange(1, ext.q) for _ in range(rng.randrange(1, m + 2))])
        try:
            pi = _power_multiple(g, V, V.dim)
        except CaseNotCovered:
            assert V not in multiples
            outcomes.add("not covered")
        else:
            assert V.dim == m or pi in multiples[V]
            outcomes.add("covered")
    # over F_3^4 only 40 of the 130 planes are multiples of span(1, a)
    assert outcomes == ({"covered", "not covered"} if m == 4 else {"covered"})


def test_two_dim_bound_examples():
    g = GammaBasis.power(7, 3)
    a = g.elements[1]
    e = g.ext_field
    lo, hi, cand = two_dim_bound([[1, 0, a], [0, 1, e.pow(a, 2)]], g)
    assert (lo, hi) == (7, 8)
    assert verify_base(cand).passed

    g4 = GammaBasis.power(5, 4)
    rows = [[1, 0, 524, 498], [0, 1, 415, 311]]
    # rows chosen so the code really attains the generic distance m - 1
    lo, hi, cand = two_dim_bound(rows, g4)
    assert (lo, hi) == (10, 12)
    assert verify_base(cand).passed
    assert RankCode(cand.target).distance() == 3  # m - 1


def test_two_dim_bound_lower_uses_the_real_distance():
    # the expanded code contains rank-one codewords, so d = 1, not m - 1
    g = GammaBasis.power(7, 3)
    lo, hi, cand = two_dim_bound([[1, 0, 0], [0, 1, 0]], g)
    assert RankCode(cand.target).distance() == 1
    assert lo == 6 <= hi
    assert verify_base(cand).passed


def test_two_dim_bound_distance_beyond_the_scan_guard():
    # the F_11-span of the expansion has 21.4M projective codewords, more
    # than the default scan guard; a 2-row Gabidulin code is MRD, d = 3
    g = GammaBasis.power(11, 4)
    e = g.ext_field
    row0 = list(g.elements)
    row1 = [e.pow(x, 11) for x in row0]
    lo, hi, cand = two_dim_bound([row0, row1], g)
    assert lo == kruskal_bound(8, 3) == 10
    assert lo <= hi
    assert verify_base(cand).passed


def test_two_dim_bound_degenerate_rows():
    g = GammaBasis.power(7, 3)
    a = g.elements[1]
    e = g.ext_field
    rows = [[1, a, 0], [2, e.mul(2, a), 0]]
    lo, hi, cand = two_dim_bound(rows, g)
    assert lo == hi == cand.size
    assert verify_base(cand).passed


# --- headline constructions -------------------------------------------------------------------


@pytest.mark.parametrize("q,m,n,size", [(3, 3, 3, 7), (5, 4, 3, 9), (3, 3, 2, 4)])
def test_dual_gabidulin_mtr_base(q, m, n, size):
    code, res = dual_gabidulin_mtr_base(q, m, n)
    assert res.candidate.size == size
    assert code.k == m * (n - 1)
    d = code.distance()
    assert size == kruskal_bound(code.k, d)
    assert is_mtr(code, res.candidate)


def test_dual_gabidulin_code_is_the_dual_of_the_expanded_evaluation_code(monkeypatch):
    # against the route it replaced: expand theta (1, a, ..., a^{n-1}) and
    # dualise; in another frame, transform the expanded primal by T first
    cases = [(q, m, n) for q in (2, 3, 5, 7, 11, 13) for m in range(2, 5)
             if q >= m and q ** m <= 1 << 16 for n in range(2, m + 1)]
    assert len(cases) == 28
    for q, m, n in cases:
        power = GammaBasis.power(q, m)
        ext, a = power.ext_field, power.elements[1]
        swapped = GammaBasis(ext, (a, 1) + power.elements[2:])
        for gamma in (None, swapped):
            with monkeypatch.context() as patch:
                calls = count_calls(patch, "VectorCode", "gamma_expand_code", "dual_code")
                code, res = dual_gabidulin_mtr_base(q, m, n, gamma)
            assert calls == {"VectorCode": 0, "gamma_expand_code": 0, "dual_code": 0}
            primal = gamma_expand_code(
                VectorCode(ext, [[ext.pow(a, i) for i in range(n)]]), power).space
            if gamma is not None:
                primal = primal.transform(FqMatrix.identity(power.base_field, n),
                                          gamma.frame_change_from(power))
            assert code.space == dual_code(RankCode(primal)).space
            assert res.candidate.target is code.space and res.report.passed
            assert (code.k, res.candidate.size) == (m * (n - 1), n * m - m + 1)


def test_dual_gabidulin_accepts_alternate_basis():
    ext = field_make(3, 3)
    power = GammaBasis(ext)
    other = GammaBasis(ext, [power.elements[1], 1, power.elements[2]])
    code, res = dual_gabidulin_mtr_base(3, 3, 3, gamma=other)
    assert res.report.passed and is_mtr(code, res.candidate)


def test_dual_gabidulin_refuses_a_basis_of_another_field():
    # F_27 modulo x^3 + 2x + 1; the default modulus is x^3 + 2x^2 + 1
    other = field_make(3, 3, (1, 2, 0, 1))
    assert other != GammaBasis.power(3, 3).ext_field
    for encs in ([1, 3, 9], [3, 1, 9]):  # the power basis's encodings, then swapped
        with pytest.raises(FieldMismatch):
            dual_gabidulin_mtr_base(3, 3, 3, GammaBasis(other, encs))
    # the power basis, however given, keeps the power-frame code
    code, _ = dual_gabidulin_mtr_base(3, 3, 3)
    for gamma in (GammaBasis.power(3, 3), GammaBasis(field_make(3, 3), [1, 3, 9])):
        assert dual_gabidulin_mtr_base(3, 3, 3, gamma)[0].space == code.space


def test_psi_block_identity_and_mds():
    F3 = field_make(3)
    full = RankCode(MatrixSpace.full(F3, (2, 2)))
    units = tuple(FqMatrix.unit(F3, 2, 2, i, j)
                  for i in range(2) for j in range(2))
    B = psi_block(full, BaseCandidate(units, full.space))
    assert B.length == 4 and B.k == 4 and B.distance() == 1

    code, res = dual_gabidulin_mtr_base(3, 3, 3)
    B = psi_block(code, res.candidate)
    assert (B.length, B.k, B.distance()) == (7, 6, 2)
    assert B.is_mds()
    with pytest.raises(NotABase):
        psi_block(code, BaseCandidate(units[:1],
                                      MatrixSpace.full(F3, (2, 2))))


def test_self_checks_catch_a_broken_step(monkeypatch):
    # each check raises once the step it re-checks is made to go wrong
    ext = field_make(5, 3)
    g = GammaBasis(ext)  # the power basis (1, a, a^2)
    with monkeypatch.context() as patch:
        patch.setattr(rmcode, "gamma_expand",
                      lambda v, gamma: FqMatrix.zeros(gamma.base_field, len(v), gamma.m))
        with pytest.raises(InternalVerificationError, match="expansion dimension"):
            gamma_expand_code(power_vector_code(g, 3), g)
    U = [FieldElement(ext, e) for e in g.elements[:2]]
    with monkeypatch.context() as patch:
        patch.setattr(rmcode, "min_rank_distance", lambda C: 1)
        with pytest.raises(InternalVerificationError, match="not MRD"):
            gabidulin(U, 1, 1, 0)
    with monkeypatch.context() as patch:
        patch.setattr(rmcode, "_power_multiple", lambda gamma, span, s: 1)
        with pytest.raises(InternalVerificationError, match="left the power span"):
            rmcode._row_candidate(g, [g.elements[2]])  # a^2 is not a multiple of 1
    row = list(g.elements)  # spans F_125, so pi = 1; every other expansion collapses
    real = rmcode.gamma_expand
    with monkeypatch.context() as patch:
        patch.setattr(rmcode, "gamma_expand", lambda v, gamma: real(v, gamma) if v is row
                      else FqMatrix(gamma.base_field, [real(v, gamma).rows[0]] * len(v)))
        with pytest.raises(InternalVerificationError, match="no longer span"):
            rmcode._row_candidate(g, row)
    code, res = dual_gabidulin_mtr_base(3, 3, 3)
    with monkeypatch.context() as patch:
        patch.setattr(rmcode, "_solve_combination",
                      lambda field, rows, targets: [None] * len(targets))
        with pytest.raises(InternalVerificationError, match="not a combination"):
            psi_block(code, res.candidate)
    # unpatched, each step passes its check
    assert gamma_expand_code(power_vector_code(g, 3), g).space.dim == 3
    gabidulin(U, 1, 1, 0)
    rmcode._row_candidate(g, [g.elements[2]])
    rmcode._row_candidate(g, row)
    psi_block(code, res.candidate)


def test_shorten_mtr_cases():
    code, wit = build_mtr(7, 3, 3, 3, 3)
    sub, w = shorten_mtr(code, wit, range(len(wit.matrices)))
    assert sub.k == code.k and w is not None
    sub, w = shorten_mtr(code, wit, range(2))
    assert sub.k == 0 and w is None and sub.distance() == 4
    sub, w = shorten_mtr(code, wit, range(3))
    assert sub.k == 1 and sub.distance() == 3
    assert is_mtr(sub, BaseCandidate(w.matrices, sub.space))


def test_shorten_mtr_refusals():
    code, wit = build_mtr(7, 3, 3, 3, 3)
    for S in ([0, 5], [-1, 1]):
        with pytest.raises(BadSubset):
            shorten_mtr(code, wit, S)
    low, low_wit = build_mtr(7, 3, 3, 2, 2)  # distance 2 on 3 rows
    with pytest.raises(ParametersOutOfRange):
        shorten_mtr(low, low_wit, [0, 1])
    with pytest.raises(InvalidWitness):
        shorten_mtr(code, BaseCandidate(wit.matrices[:-1], wit.target), [0, 1, 2])


def test_shorten_mtr_refuses_non_integer_indices():
    # floats were truncated, so [0.9, 1.5, 2.2, 3.7] gave the code of
    # [0, 1, 2, 3], and strings were parsed
    code, wit = build_mtr(7, 3, 3, 3, 3)
    for S in ([0.9, 1.5, 2.2, 3.7], ["1", "2", "3"]):
        with pytest.raises(TypeError):
            shorten_mtr(code, wit, S)


def test_shortened_codes_carry_the_seed_distance(monkeypatch):
    # every nonzero shortening of a criterion-7 seed C0 (distance d = n) is
    # returned with distance d already recorded, and a fresh scan agrees
    scans = count_calls(monkeypatch, "_min_distance")
    rng = random.Random(31)
    for q, m, d in sorted({(q, m, d) for q, n, m, k, d in criterion_7_parameters()}):
        base = _power_candidate(GammaBasis.power(q, m), d)
        C0 = RankCode(base.target)
        assert C0.distance() == d == C0.n
        R = len(base.matrices)
        for size in range(R + 1):
            subsets = [range(size)] + [rng.sample(range(R), size) for _ in range(2)]
            for S in subsets:
                scans["_min_distance"] = 0
                code, wit = shorten_mtr(C0, base, S)
                assert scans["_min_distance"] == 0
                if size <= d - 1:
                    assert code.k == 0 and wit is None and code._distance is None
                    assert code.distance() == C0.n + 1
                    continue
                assert code.k == size - d + 1 and code._distance == d
                assert min_rank_distance(RankCode(code.space)) == d
                assert scans["_min_distance"] == 1


def test_shorten_mtr_checks_the_dimension_it_produced(monkeypatch):
    # the recorded distance rests on the intersection being a nonzero subcode
    # of the stated dimension; a wrong one raises and leaves no core but the seed
    _mtr_core.cache_clear()
    C0, base = _mtr_core(7, 3, 3, 3)
    monkeypatch.setattr(MatrixSpace, "intersect", lambda self, other: self)
    with pytest.raises(InternalVerificationError, match="shortening produced dimension 3"):
        shorten_mtr(C0, base, range(3))
    with pytest.raises(InternalVerificationError, match="shortening produced dimension 3"):
        build_mtr(7, 3, 3, 2, 3)
    assert _mtr_core.cache_info().currsize == 1
    monkeypatch.undo()
    code, _ = build_mtr(7, 3, 3, 2, 3)
    assert code.k == 2 and _mtr_core.cache_info().currsize == 2


def test_build_mtr_examples():
    code, wit = build_mtr(7, 3, 3, 2, 3)
    assert (code.k, code.distance(), len(wit.matrices)) == (2, 3, 4)
    assert verify_base(wit).passed
    code, wit = build_mtr(5, 3, 4, 2, 1)
    assert (code.k, code.distance(), len(wit.matrices)) == (2, 1, 2)
    code, wit = build_mtr(7, 4, 4, 4, 4)  # the full one-dimensional code
    assert (code.k, code.distance(), len(wit.matrices)) == (4, 4, 7)
    with pytest.raises(ParametersOutOfRange):
        build_mtr(7, 3, 3, 4, 3)


# --- the MTR seed: the k = m core ------------------------------------------------------


def criterion_7_parameters():
    for q in (5, 7):
        for n in range(1, 5):
            for m in range(1, 5):
                for k in range(1, m + 1):
                    for d in range(1, min(n, m) + 1):
                        if q >= m + d - 2:
                            yield q, n, m, k, d


def count_calls(monkeypatch, *names):
    """Count the calls of the named `rmcode` functions, which still run.  A
    rank scan runs in `exactla`, from `_least_rank`: it counts as `_min_distance`."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(rmcode, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(rmcode, name, counting(name))
    if "_min_distance" in names:
        monkeypatch.setattr(exactla, "_min_distance", rmcode._min_distance)
    return calls


def test_mtr_seed_is_one_shared_object():
    assert _mtr_core(7, 3, 3, 3) is _mtr_core(7, 3, 3, 3)
    C0, base = _mtr_core(7, 3, 3, 3)
    assert C0.space is base.target and len(base.matrices) == 3 + 3 - 1


def test_mtr_seeds_are_unchanged_by_the_full_sweep():
    _mtr_core.cache_clear()
    params = list(criterion_7_parameters())
    for q, n, m, k, d in params:
        code, wit = build_mtr(q, n, m, k, d)
        assert (code.k, code.distance(), len(wit.matrices)) == (k, d, k + d - 1)
    keys = sorted({(q, m, m, d) for q, n, m, k, d in params})
    assert len(keys) == 19
    kept = {key: _mtr_core(*key) for key in keys}
    _mtr_core.cache_clear()
    for key, (C0, base) in kept.items():
        fresh_C0, fresh = _mtr_core(*key)
        assert fresh is not base
        assert base.target._rrows == fresh.target._rrows
        assert base.matrices == fresh.matrices
        assert C0._distance == fresh_C0.distance() == key[3]


def test_warm_mtr_calls_do_no_seed_work(monkeypatch):
    _mtr_core.cache_clear()
    calls = count_calls(monkeypatch, "_power_candidate", "_min_distance")
    for k in (2, 3):
        code, wit = build_mtr(7, 4, 4, k, 3)
        assert (code.k, len(wit.matrices)) == (k, k + 2)
    # the seed's build and its distance scan, once for both calls
    assert calls == {"_power_candidate": 1, "_min_distance": 1}


# --- the MTR core memo -----------------------------------------------------------------


def sweep_criterion_7():
    for q, n, m, k, d in criterion_7_parameters():
        code, wit = build_mtr(q, n, m, k, d)
        assert (code.k, code.distance(), len(wit.matrices)) == (k, d, k + d - 1)


def test_mtr_cores_are_built_and_scanned_once_per_sweep(monkeypatch):
    _mtr_core.cache_clear()
    sweep_criterion_7()
    keys = sorted({(q, m, k, d) for q, n, m, k, d in criterion_7_parameters()})
    assert _mtr_core.cache_info().currsize == len(keys) == 56
    calls = []
    for module, name in ((rmcode, "shorten_mtr"), (rmcode, "_min_distance"),
                         (exactla, "_min_distance")):
        monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    sweep_criterion_7()
    assert calls == []
    monkeypatch.undo()
    kept = {key: _mtr_core(*key) for key in keys}
    _mtr_core.cache_clear()
    for key, (core, wit) in kept.items():
        fresh, fresh_wit = _mtr_core(*key)
        assert fresh is not core
        assert (core.space._rrows, core.space._pivots) == \
            (fresh.space._rrows, fresh.space._pivots)
        assert wit.matrices == fresh_wit.matrices and wit.target == fresh_wit.target
        assert core._distance == fresh.distance() == key[3]


def test_a_cold_sweep_scans_each_seed_once_and_no_core(monkeypatch):
    _mtr_core.cache_clear()
    calls = count_calls(monkeypatch, "_power_candidate", "_min_distance", "shorten_mtr")
    sweep_criterion_7()
    # one build and one scan per seed, the k = m core; a shortening per core
    # below it; one memo holds them all
    assert calls == {"_power_candidate": 19, "_min_distance": 19, "shorten_mtr": 56 - 19}
    assert _mtr_core.cache_info().currsize == 56
    for q, m, d in sorted({(q, m, d) for q, n, m, k, d in criterion_7_parameters()}):
        C0, base = _mtr_core(q, m, m, d)
        assert C0.space is base.target and C0._distance == d


def test_each_mtr_call_returns_a_new_code_and_witness():
    for n in (3, 4):  # the core itself, and extended by a zero row
        first, second = build_mtr(7, n, 3, 2, 3), build_mtr(7, n, 3, 2, 3)
        assert first[0] is not second[0] and first[1] is not second[1]
        assert first[0].space == second[0].space
        assert first[1].matrices == second[1].matrices
        assert first[0].distance() == second[0].distance() == 3


def test_refused_mtr_calls_leave_no_core():
    _mtr_core.cache_clear()
    build_mtr(7, 3, 3, 2, 3)
    assert _mtr_core.cache_info().currsize == 2  # the core and its seed
    for args, error in [((5, 4, 4, 2, 4), FieldTooSmall),
                        ((7, 3, 3, 4, 3), ParametersOutOfRange),
                        ((7, 2, 3, 1, 3), ParametersOutOfRange),
                        ((6, 2, 2, 1, 1), NotPrime)]:
        with pytest.raises(error):
            build_mtr(*args)
        assert _mtr_core.cache_info().currsize == 2


def test_refused_mtr_calls_leave_the_seed_memo_unchanged():
    # the seed is the k = m core: refused calls add no seed, and the seed they
    # leave behind is the one built before them
    _mtr_core.cache_clear()
    build_mtr(7, 3, 3, 2, 3)
    seed = _mtr_core(7, 3, 3, 3)
    before = _mtr_core.cache_info().currsize
    for args, error in [((5, 4, 4, 2, 4), FieldTooSmall),
                        ((7, 3, 3, 4, 3), ParametersOutOfRange),
                        ((7, 2, 3, 1, 3), ParametersOutOfRange),
                        ((6, 2, 2, 1, 1), NotPrime)]:
        with pytest.raises(error):
            build_mtr(*args)
        assert _mtr_core.cache_info().currsize == before
    assert _mtr_core(7, 3, 3, 3) is seed


def test_mtr_cores_match_the_uncached_pipeline():
    # shortening, row extension and the distance scan done afresh for every
    # tuple give what the shared core gives
    for q, n, m, k, d in criterion_7_parameters():
        code, result = rmcode._build_mtr(q, n, m, k, d)
        base = _power_candidate(GammaBasis.power(q, m), d)
        _, wit = shorten_mtr(RankCode(base.target), base, range(k + d - 1))
        wit = extend_base_lindep(wit, [[0] * d for _ in range(n - d)])
        assert (code.space._rrows, code.space._pivots) == \
            (wit.target._rrows, wit.target._pivots)
        assert result.candidate.matrices == wit.matrices
        assert result.report.to_dict() == verify_base(wit).to_dict()
        assert code.distance() == min_rank_distance(RankCode(wit.target)) == d


def test_singleton_and_kruskal_on_constructed_codes():
    for q, m, n in [(3, 3, 2), (3, 3, 3), (5, 3, 2)]:
        code, res = dual_gabidulin_mtr_base(q, m, n)
        d = code.distance()
        assert code.k <= m * (n - d + 1)
        assert res.candidate.size >= kruskal_bound(code.k, d)
    for q, n, m, k, d in [(5, 2, 3, 2, 2), (7, 3, 3, 1, 2), (5, 3, 3, 3, 1)]:
        code, wit = build_mtr(q, n, m, k, d)
        assert code.k <= m * (n - code.distance() + 1)
        assert len(wit.matrices) == kruskal_bound(code.k, code.distance())
