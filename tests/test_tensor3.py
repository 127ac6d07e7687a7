import random

import pytest

from perfbase import exactla
from perfbase.construct import CompanionSpec, base_dual_powers, companion, y_matrix
from perfbase.errors import FieldMismatch, GuardExceeded, ShapeMismatch
from perfbase.exactla import FqMatrix, MatrixSpace
from perfbase.gf import FqPolynomial, field_make, poly_roots
from perfbase.tensor3 import (
    BaseCandidate,
    Tensor3,
    exhaustive_trk,
    kruskal_bound,
    rank_one_completion_exists,
    rank_one_matrices,
    slice_space,
    verify_base,
)

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)


def test_slice_space_dims():
    I2 = FqMatrix.identity(F3, 2)
    t = Tensor3(F3, (I2, FqMatrix.zeros(F3, 2, 2)))
    assert slice_space(t).dim == 1
    assert not t.is_1_nondegenerate()
    M = FqMatrix(F3, [[0, 1], [1, 0]])
    t = Tensor3(F3, (I2, M))
    assert slice_space(t).dim == 2 and t.is_1_nondegenerate()
    for slices in ((), (I2, FqMatrix.zeros(F3, 2, 3))):
        with pytest.raises(ShapeMismatch):
            Tensor3(F3, slices)


def test_slice_space_worked_family_dim_five():
    f = FqPolynomial.from_roots(F7, [1, 2]) * FqPolynomial(F7, (4, 0, 6, 1))
    M = companion(CompanionSpec.from_polynomial(f))
    Y = y_matrix(F7, 3, 5)
    slices = [Y @ M.power(i) for i in (-1, 0, 1, 2, 3)]
    assert slice_space(Tensor3(F7, tuple(slices))).dim == 5


def test_kruskal_bound():
    assert kruskal_bound(6, 2) == 7
    assert kruskal_bound(1, 1) == 1
    assert kruskal_bound(0, 3) == 0
    n, m = 3, 4
    assert kruskal_bound(m * (n - 1), 2) == n * m - m + 1
    for dim, d in ((2, 0), (-1, 1)):
        with pytest.raises(ValueError):
            kruskal_bound(dim, d)


def test_verify_base_accepts_power_dual_construction():
    spec = CompanionSpec(F5, 4, (1, 0, 0, 0))
    result = base_dual_powers(spec, 3)
    cand = result.candidate
    assert len(cand.matrices) == 13
    report = verify_base(cand)
    assert report.passed and report.target_dim == 13


def test_verify_base_failure_witnesses():
    target = MatrixSpace.from_matrices([FqMatrix.unit(F3, 2, 2, 1, 1)])
    zero_member = BaseCandidate(
        (FqMatrix.zeros(F3, 2, 2), FqMatrix.unit(F3, 2, 2, 0, 0)), target)
    rep = verify_base(zero_member)
    assert not rep.all_rank_one and rep.bad_rank_index == 0

    wrong_span = BaseCandidate((FqMatrix.unit(F3, 2, 2, 0, 0),), target)
    rep = verify_base(wrong_span)
    assert rep.all_rank_one and rep.independent
    assert not rep.contains_target and rep.missing_target_index == 0

    dup = BaseCandidate(
        (FqMatrix.unit(F3, 2, 2, 0, 0), FqMatrix.unit(F3, 2, 2, 0, 0).scale(2)),
        target)
    rep = verify_base(dup)
    assert not rep.independent and rep.dependent_index == 1


def test_rank_one_enumeration_counts():
    # (q^n - 1)(q^m - 1) / (q-1)^2 projective pairs
    assert len(rank_one_matrices(F3, 2, 2)) == 16
    assert len(rank_one_matrices(F2, 3, 3)) == 49
    assert all(A.rank() == 1 for A in rank_one_matrices(F3, 2, 2))


def test_exhaustive_trk_identity_span():
    trk, wit = exhaustive_trk(MatrixSpace.from_matrices([FqMatrix.identity(F3, 2)]))
    assert trk == 2
    assert verify_base(wit).passed


def test_exhaustive_trk_pencil_dichotomy():
    # distinct eigenvalues give m, otherwise m+1
    for a1 in range(3):
        for a2 in range(3):
            M = FqMatrix(F3, [[0, 1], [a1, a2]])
            V = MatrixSpace.from_matrices([FqMatrix.identity(F3, 2), M])
            roots, _ = poly_roots(FqPolynomial(F3, ((-a1) % 3, (-a2) % 3, 1)), F3)
            distinct = len(roots) == 2 and roots[0].enc != roots[1].enc
            trk, wit = exhaustive_trk(V)
            assert trk == (2 if distinct else 3)
            assert verify_base(wit).passed


def test_exhaustive_trk_matches_construction_upper_bounds():
    for F in (F2, F3):
        V = MatrixSpace.from_matrices([FqMatrix.identity(F, 2)]).dual_complement()
        trk, _ = exhaustive_trk(V)
        assert trk == 3  # m^2 - 1
    V = MatrixSpace.from_matrices([FqMatrix.identity(F2, 3)]).dual_complement()
    trk, wit = exhaustive_trk(V)
    assert trk == 8 and verify_base(wit).passed


def test_exhaustive_trk_at_least_kruskal():
    rng = random.Random(5)
    for _ in range(10):
        mats = [FqMatrix(F2, [[rng.randrange(2) for _ in range(3)]
                              for _ in range(2)]) for _ in range(2)]
        V = MatrixSpace(F2, (2, 3), mats)
        if V.dim == 0:
            continue
        d = min(A.rank() for A in V.iter_elements(nonzero_only=True))
        trk, _ = exhaustive_trk(V)
        assert trk >= kruskal_bound(V.dim, d)


def test_exhaustive_trk_witness_is_lexicographically_least():
    V = MatrixSpace.from_matrices([FqMatrix.identity(F2, 2)])
    trk, wit = exhaustive_trk(V)
    ordering = {A.rows: i for i, A in enumerate(rank_one_matrices(F2, 2, 2))}
    indices = [ordering[A.rows] for A in wit.matrices]
    assert indices == sorted(indices)
    # no earlier pair works: check exhaustively
    cands = rank_one_matrices(F2, 2, 2)
    best = None
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            span = MatrixSpace(F2, (2, 2), [cands[i], cands[j]])
            if span.dim == 2 and span.contains(FqMatrix.identity(F2, 2)):
                best = [i, j]
                break
        if best:
            break
    assert indices == best


def test_exhaustive_trk_guard():
    V = MatrixSpace.from_matrices([FqMatrix.identity(F3, 3)]).dual_complement()
    with pytest.raises(GuardExceeded):
        exhaustive_trk(V, limit=10)


def test_slice_space_equivariance():
    rng = random.Random(11)

    def rand_inv(F, n):
        while True:
            X = FqMatrix(F, [[rng.randrange(F.q) for _ in range(n)]
                             for _ in range(n)])
            if X.is_invertible():
                return X

    for _ in range(10):
        slices = tuple(FqMatrix(F3, [[rng.randrange(3) for _ in range(3)]
                                     for _ in range(2)]) for _ in range(2))
        X = Tensor3(F3, slices)
        P = rand_inv(F3, 2)
        Q = rand_inv(F3, 3)
        lhs = slice_space(Tensor3(F3, tuple(P @ S @ Q for S in slices)))
        V = slice_space(X)
        if V.dim == 0:
            continue
        rhs = V.transform(P, Q)
        assert lhs == rhs


def _minors_vanish(F, rows):
    """Every 2x2 minor is zero: rank at most one, without elimination."""
    n, m = len(rows), len(rows[0])
    return all(F.mul(rows[i][j], rows[k][l]) == F.mul(rows[i][l], rows[k][j])
               for i in range(n) for k in range(i + 1, n)
               for j in range(m) for l in range(j + 1, m))


def _proportional(F, vec, ref):
    """Is vec a nonzero scalar multiple of the nonzero vector ref?"""
    lead = next(i for i, b in enumerate(ref) if b)
    if vec[lead] == 0:
        return False
    lam = F.mul(vec[lead], F.inv(ref[lead]))
    return all(a == F.mul(lam, b) for a, b in zip(vec, ref))


def reference_completion(span, targets):
    """The completion check as one loop over every projective rank-one N:
    T lies in span + <N> when the residue of N is a multiple of T's."""
    F = span.field
    n, m = span.shape
    residues = [span.reduce_vector(T.vectorize()) for T in targets]
    count = 0
    for N in rank_one_matrices(F, n, m):
        count += 1
        res = span.reduce_vector(N.vectorize())
        for j, rj in enumerate(residues):
            if _proportional(F, res, rj):
                return True, {"target_index": j, "witness": N}
    return False, {"pairs_scanned": count}


def check_completion_against_reference(F):
    # T lies in span + <N> for a rank-one N outside the span exactly when
    # span + <T> holds a rank-one matrix outside the span
    rng = random.Random(99)
    outcomes = set()
    for _ in range(10):
        n, m = rng.choice([(2, 3), (3, 3)])
        rand = lambda: FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)]
                                    for _ in range(n)])
        span = MatrixSpace(F, (n, m), [rand()])
        targets = [T for T in (rand(), rand()) if not span.contains(T)]
        if not targets:
            continue
        found, detail = rank_one_completion_exists(span, targets)
        ref_found, ref_detail = reference_completion(span, targets)
        assert found == ref_found
        brute = []
        for j, T in enumerate(targets):
            pencil = MatrixSpace(F, (n, m), list(span.basis) + [T])
            brute.append(any(any(A.vectorize()) and _minors_vanish(F, A.rows)
                             and not span.contains(A)
                             for A in pencil.iter_elements()))
        assert found == any(brute)
        if found:
            N, j = detail["witness"], detail["target_index"]
            assert brute[j] and _minors_vanish(F, N.rows) and any(N.vectorize())
            assert span.sum_with(MatrixSpace(F, (n, m), [N])).contains(targets[j])
        else:
            assert detail == ref_detail
            assert detail["pairs_scanned"] == len(rank_one_matrices(F, n, m))
        outcomes.add(found)
    assert outcomes == {True, False}


def test_rank_one_completion_extension_field_matches_brute_force():
    check_completion_against_reference(field_make(3, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_one_completion_prime_field_matches_brute_force(p):
    check_completion_against_reference(field_make(p))


def test_rank_one_completion_takes_the_first_left_factor_and_lowest_target():
    # both targets are rank one, so each is its own witness; the lowest wins
    span = MatrixSpace(F3, (2, 2), [FqMatrix.identity(F3, 2)])
    targets = [FqMatrix(F3, [[0, 1], [0, 0]]), FqMatrix(F3, [[0, 0], [1, 0]])]
    found, detail = rank_one_completion_exists(span, targets)
    assert found and detail["target_index"] == 0
    # u = (1, 0) is the first normalized vector, and v = (0, 1) solves it
    assert detail["witness"] == targets[0]


def test_rank_one_completion_of_a_target_inside_the_span():
    # answered before the guard is read: no scan is needed
    span = MatrixSpace(F3, (2, 2), [FqMatrix(F3, [[1, 0], [0, 1]])])
    targets = [FqMatrix(F3, [[0, 1], [0, 0]]), FqMatrix(F3, [[2, 0], [0, 2]])]
    assert rank_one_completion_exists(span, targets, guard=0) == (
        True, {"target_index": 1, "inside_span": True})


@pytest.mark.parametrize("F", [F2, field_make(2, 2)])
def test_rank_one_completion_guard_boundary(F):
    # the guard counts (u, v) pairs and is checked before the scan
    span = MatrixSpace(F, (2, 3), [FqMatrix(F, [[1, 0, 1], [0, 1, 1]])])
    targets = [FqMatrix(F, [[1, 1, 1], [1, 0, 0]])]
    pairs = len(rank_one_matrices(F, 2, 3))
    with pytest.raises(GuardExceeded) as exc:
        rank_one_completion_exists(span, targets, guard=pairs - 1)
    assert exc.value.progress == {"phase": "completion", "needed": pairs,
                                  "guard": pairs - 1}
    found, detail = rank_one_completion_exists(span, targets, guard=pairs)
    assert (found, detail) == reference_completion(span, targets)
    assert detail == {"pairs_scanned": pairs}


def test_rank_one_completion_refuses_targets_of_another_field_or_shape():
    # checked for every target before any answer, as MatrixSpace.contains does
    span = MatrixSpace(F5, (2, 2), [FqMatrix.identity(F5, 2)])
    inside = FqMatrix.identity(F5, 2)
    with pytest.raises(FieldMismatch):
        rank_one_completion_exists(span, [inside, FqMatrix.identity(field_make(2, 2), 2)])
    with pytest.raises(ShapeMismatch):
        rank_one_completion_exists(span, [inside, FqMatrix.zeros(F5, 1, 4)])


# 4, 13 and 40 left factors; the 3x3 and 4x5 spans find no completion, so
# every left factor is scanned, and the 4x5 span's rows are on numpy
@pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4, 5)])
def test_rank_one_completion_reduces_the_span_once_per_call(monkeypatch, shape):
    built = []

    class CountingEchelon(exactla.Echelon):
        def __init__(self, field, width, vectors=()):
            built.append(width)
            super().__init__(field, width, vectors)

    n, m = shape
    rng = random.Random(f"completion-{n}x{m}")
    span = MatrixSpace(F3, shape, [FqMatrix(F3, [[rng.randrange(3) for _ in range(m)]
                                                 for _ in range(n)])])
    targets = [FqMatrix(F3, [[rng.randrange(3) for _ in range(m)] for _ in range(n)])
               for _ in range(3)]
    targets = [T for T in targets if not span.contains(T)]
    monkeypatch.setattr(exactla, "Echelon", CountingEchelon)
    found, detail = rank_one_completion_exists(span, targets)
    assert built.count(n * m) == 1  # the span; the per-u solves are wider
    assert (found, detail) == reference_completion(span, targets)
