"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The final criterion is an
exhaustive check of all 2801^2 rank-one extensions, one solve per left factor.
"""

import random
import time

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
)
from perfbase.exactla import FqMatrix, MatrixSpace
from perfbase.gf import FqPolynomial, field_make, poly_roots
from perfbase.rmcode import (
    build_mtr,
    dual_gabidulin_mtr_base,
    extend_base_lindep,
    is_mtr,
)
from perfbase.tensor3 import (
    BaseCandidate,
    exhaustive_trk,
    kruskal_bound,
    rank_one_completion_exists,
    verify_base,
)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)


def _report(num, elapsed, budget, detail):
    line = f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s / budget {budget}s) - {detail}"
    print(line)
    assert elapsed < budget, line


def test_criterion_1_thirteen_member_bases_for_random_specs():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    S = GammaSet(F5, (1, 2, 3))
    for _ in range(25):
        bottom = tuple([rng.randrange(1, 5)]
                       + [rng.randrange(5) for _ in range(3)])
        spec = CompanionSpec(F5, 4, bottom)
        result = base_dual_powers(spec, 3, S)
        # independent re-verification against the power-span dual
        M = companion(spec)
        target = MatrixSpace(
            F5, (4, 4), [M.power(r) for r in range(3)]).dual_complement()
        report = verify_base(BaseCandidate(result.candidate.matrices, target))
        assert result.candidate.size == 13
        assert report.passed
    _report(1, time.perf_counter() - t0, 5,
            "25 random specs -> 13-member verified bases (m=4, s=3, F_5)")


def test_criterion_2_seven_member_base_bit_exact():
    t0 = time.perf_counter()
    f = FqPolynomial.from_roots(F7, [1, 2]) * FqPolynomial(F7, (4, 0, 6, 1))
    spec = CompanionSpec.from_polynomial(f)
    assert spec.bottom == (6, 5, 5, 2, 4)
    result = base_rect_small_n(spec, 3)
    aux = result.auxiliary
    assert aux["M_h"].rows[-1] == (1, 6, 1, 6, 1)
    assert aux["D1"].rows[0] == (4, 6, 1, 5, 5)
    assert all(v == 0 for row in aux["D1"].rows[1:] for v in row)
    assert aux["D2"].rows[2] == (5, 6, 4, 3, 3)
    assert all(v == 0 for row in aux["D2"].rows[:2] for v in row)
    assert result.candidate.size == 7
    assert verify_base(result.candidate).passed
    _report(2, time.perf_counter() - t0, 1,
            "companion bottoms, D1, D2 and the 7-member base are bit-exact")


# seed members of the row-extension instance; the fifth member's first row is
# restored from its own extension coefficients (4*(3,4,4,0) = (2,1,1,0)); the
# printed variant would have rank 2 and contradicts the printed fourth row
CRIT3_SEED = [
    [[4, 2, 0, 1], [3, 4, 0, 2], [1, 3, 0, 4]],
    [[1, 1, 0, 1], [3, 3, 0, 3], [4, 4, 0, 4]],
    [[3, 0, 2, 4], [2, 0, 3, 1], [3, 0, 2, 4]],
    [[2, 3, 3, 4], [2, 3, 3, 4], [2, 3, 3, 4]],
    [[3, 4, 4, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 1]],
]
CRIT3_EXTENDED = [
    [[4, 2, 0, 1], [3, 4, 0, 2], [1, 3, 0, 4], [2, 1, 0, 3]],
    [[1, 1, 0, 1], [3, 3, 0, 3], [4, 4, 0, 4], [1, 1, 0, 1]],
    [[3, 0, 2, 4], [2, 0, 3, 1], [3, 0, 2, 4], [4, 0, 1, 2]],
    [[2, 3, 3, 4], [2, 3, 3, 4], [2, 3, 3, 4], [3, 2, 2, 1]],
    [[3, 4, 4, 0], [0, 0, 0, 0], [0, 0, 0, 0], [2, 1, 1, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 1], [0, 4, 2, 2]],
]


def test_criterion_3_row_extension_bit_exact():
    t0 = time.perf_counter()
    spec = CompanionSpec.from_polynomial(FqPolynomial(F5, (2, 4, 4, 0, 1)))
    M = companion(spec)
    Nbar = FqMatrix(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    seed_target = MatrixSpace(F5, (3, 4),
                              [Nbar @ M.power(i) for i in range(4)])
    seed = BaseCandidate(tuple(FqMatrix(F5, A) for A in CRIT3_SEED),
                         seed_target)
    assert verify_base(seed).passed
    ext = extend_base_lindep(seed, [[4, 3, 2]])
    assert [[list(r) for r in A.rows] for A in ext.matrices] == CRIT3_EXTENDED
    N = FqMatrix(F5, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [4, 3, 2, 0]])
    target = MatrixSpace(F5, (4, 4), [N @ M.power(i) for i in range(4)])
    assert verify_base(BaseCandidate(ext.matrices, target)).passed
    _report(3, time.perf_counter() - t0, 1,
            "the six extended members are bit-exact and verify")


def test_criterion_4_dual_evaluation_codes_meet_the_bound():
    t0 = time.perf_counter()
    expected = {(3, 3, 3): 7, (5, 4, 3): 9, (3, 3, 2): 4}
    for (q, m, n), size in expected.items():
        code, result = dual_gabidulin_mtr_base(q, m, n)
        assert result.candidate.size == size
        d = code.distance()  # exhaustive scan
        assert size == kruskal_bound(code.k, d)
        assert is_mtr(code, result.candidate)
    assert 2 * 3 - 3 + 1 == expected[(3, 3, 2)]
    _report(4, time.perf_counter() - t0, 30,
            "dual bases of sizes 7, 9, 4 meet dimension+distance-1 exactly")


def test_criterion_5_oracle_agrees_with_the_dichotomy():
    t0 = time.perf_counter()
    for a1 in range(3):
        for a2 in range(3):
            M = FqMatrix(F3, [[0, 1], [a1, a2]])
            V = MatrixSpace.from_matrices([FqMatrix.identity(F3, 2), M])
            roots, _ = poly_roots(
                FqPolynomial(F3, ((-a1) % 3, (-a2) % 3, 1)), F3)
            distinct = len(roots) == 2 and roots[0].enc != roots[1].enc
            trk, wit = exhaustive_trk(V)
            assert trk == (2 if distinct else 3)
            assert verify_base(wit).passed
    for F in (F2, F3):
        V = MatrixSpace.from_matrices([FqMatrix.identity(F, 2)]).dual_complement()
        constructed = base_singular(CompanionSpec(F, 2, (0, 0)), 1)
        trk, wit = exhaustive_trk(V)
        assert trk == constructed.candidate.size == 3  # m^2 - 1
        assert verify_base(wit).passed
    _report(5, time.perf_counter() - t0, 60,
            "pencil oracle matches the eigenvalue dichotomy; identity duals at m^2-1")


def test_criterion_6_randomized_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(515253)
    fields = {5: F5, 7: F7, 9: field_make(3, 2)}
    instances = 0
    failures = 0

    def check(result, expected_size=None):
        nonlocal instances, failures
        instances += 1
        if not result.report.passed:
            failures += 1
        if expected_size is not None and result.candidate.size != expected_size:
            failures += 1
        target = result.candidate.target
        if target.dual_complement().dual_complement() != target:
            failures += 1

    def random_spec(F, m):
        return CompanionSpec(F, m, tuple(
            [rng.randrange(1, F.q)] + [rng.randrange(F.q)
                                       for _ in range(m - 1)]))

    while instances < 176:
        q = rng.choice([5, 7, 9])
        F = fields[q]
        m = rng.randrange(2, 7)
        s = rng.randrange(1, min(m, q))
        spec = random_spec(F, m)
        if instances % 2 == 0:
            check(base_dual_powers(spec, s), m * m - s)
        else:
            n = rng.randrange(2, m + 1)
            check(base_dual_powers_rect(spec, n, s), n * m - s)

    # specialty constructors across the same fields
    for q in (5, 7, 9):
        F = fields[q]
        roots = rng.sample(range(1, q), 3)
        check(base_inverse_family(
            CompanionSpec.from_polynomial(FqPolynomial.from_roots(F, roots))), 3)
        rootless = _random_rootless_quadratic(rng, F)
        f = FqPolynomial.from_roots(F, rng.sample(range(1, q), 2)) * rootless
        check(base_inverse_family(CompanionSpec.from_polynomial(f),
                                  extra_powers=(2, -2)), 5)
        spec = CompanionSpec.from_polynomial(f)
        check(base_rect_small_n(spec, 2), 5)
        check(base_rect_small_n(spec, 3), 5)
        m = rng.randrange(3, 6)
        sing = CompanionSpec(F, m, (0, rng.randrange(1, q))
                             + tuple(rng.randrange(q) for _ in range(m - 2)))
        check(base_singular(sing, rng.randrange(1, m - 1)))
        spec = random_spec(F, 4)
        B = _random_invertible(rng, F, 4)
        check(base_left_factor(spec, 2, B), 14)
        check(atkinson_base(rng.randrange(2, 4), F))
        check(base_singular(CompanionSpec(F, 3, (0, 0, 0)), 1), 8)

    # dimension and tensor-rank bound invariants on constructed codes
    for q, m, n in [(3, 3, 2), (3, 3, 3), (5, 3, 2), (7, 3, 3)]:
        code, result = dual_gabidulin_mtr_base(q, m, n)
        d = code.distance()
        assert code.k <= m * (n - d + 1)  # dimension bound
        assert result.candidate.size >= kruskal_bound(code.k, d)
        assert is_mtr(code, result.candidate)
    for q, n, m, k, d in [(5, 2, 3, 2, 2), (7, 3, 4, 3, 2), (5, 3, 3, 1, 3)]:
        code, wit = build_mtr(q, n, m, k, d)
        dd = code.distance()
        assert code.k <= m * (n - dd + 1)
        assert len(wit.matrices) == kruskal_bound(code.k, dd)

    assert instances >= 200 and failures == 0
    _report(6, time.perf_counter() - t0, 120,
            f"{instances} randomized constructions verified, zero failures")


def _random_rootless_quadratic(rng, F):
    while True:
        g = FqPolynomial(F, (rng.randrange(F.q), rng.randrange(F.q), 1))
        roots, _ = poly_roots(g, F)
        if not roots:
            return g


def _random_invertible(rng, F, n):
    while True:
        B = FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)]
                         for _ in range(n)])
        if B.is_invertible():
            return B


def test_criterion_7_full_parameter_sweep():
    t0 = time.perf_counter()
    built = 0
    for q in (5, 7):
        for n in range(1, 5):
            for m in range(1, 5):
                for k in range(1, m + 1):
                    for d in range(1, min(n, m) + 1):
                        if q < m + d - 2:
                            continue
                        code, wit = build_mtr(q, n, m, k, d)
                        assert code.k == k
                        assert code.distance() == d
                        assert len(wit.matrices) == k + d - 1
                        assert verify_base(wit).passed
                        built += 1
    _report(7, time.perf_counter() - t0, 120,
            f"{built} codes built with verified dimension, distance, witness")


def test_criterion_8_no_rank_one_extension_for_higher_powers():
    t0 = time.perf_counter()
    spec = CompanionSpec(F7, 5, (3, 6, 0, 0, 0))
    result = base_inverse_family(spec)
    span = MatrixSpace(F7, (5, 5), result.candidate.matrices)
    M = companion(spec)
    targets = [M.power(j) for j in (2, -2, 3, -3)]
    for T in targets:
        assert not span.contains(T)
    found, info = rank_one_completion_exists(span, targets, guard=10_000_000)
    assert not found
    assert info["pairs_scanned"] == 2801 ** 2
    _report(8, time.perf_counter() - t0, 600,
            "no single rank-one extension reaches powers +-2, +-3 "
            f"({info['pairs_scanned']} pairs)")
