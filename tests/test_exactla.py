import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbase import construct, exactla, gf, tensor3
from perfbase.errors import FieldMismatch, ShapeMismatch, Singular
from perfbase.exactla import (
    Echelon,
    FqMatrix,
    MatrixSpace,
    _unvectorize,
    trace_pair,
)
from perfbase.gf import FieldElement, FqPolynomial, field_make

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)


def rand_matrix(rng, F, n, m):
    return FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)] for _ in range(n)])


def rand_invertible(rng, F, n):
    while True:
        M = rand_matrix(rng, F, n, n)
        if M.is_invertible():
            return M


def test_matrix_entries_and_scalars_are_encoded_by_the_field():
    # a float or a string used to be truncated or parsed: 2.5 became 2
    for bad in (2.5, "3"):
        with pytest.raises(TypeError):
            FqMatrix(F5, [[bad]])
        with pytest.raises(TypeError):
            FqMatrix(F5, [[1]]).scale(bad)
    F9 = field_make(3, 2)
    assert FqMatrix(F5, [[7, -1, np.int64(12)]]).rows == ((2, 4, 2),)
    assert FqMatrix(F9, [[FieldElement(F9, 4), 10]]).rows == ((4, 1),)
    with pytest.raises(FieldMismatch):
        FqMatrix(F9, [[FieldElement(field_make(5, 2), 4)]])


@pytest.mark.parametrize("p,k", [(2, 1), (13, 1), (3, 2), (5, 4), (2, 16)],
                         ids=["F2", "F13", "F9", "F625", "F65536"])
def test_outer_is_the_product_of_its_factors(p, k):
    F = field_make(p, k)
    rng = random.Random(F.q)
    for trial in range(60):
        u = [rng.choice((0, rng.randrange(F.q))) for _ in range(rng.randint(1, 5))]
        v = [rng.randrange(F.q) for _ in range(rng.randint(1, 5))]
        if trial % 10 == 0:
            u = [0] * len(u)
        elif trial % 10 == 1:
            v = [0] * len(v)
        A = FqMatrix.outer(F, u, v)
        assert A.rows == tuple(tuple(F.mul(a, b) for b in v) for a in u)
        assert A == FqMatrix(F, A.rows) and A.shape == (len(u), len(v))
        assert A.is_rank_one() == (any(u) and any(v))
        zero_rows = {id(row) for a, row in zip(u, A.rows) if not a}
        assert len(zero_rows) <= 1  # one shared tuple


@pytest.mark.parametrize("p,k", [(2, 1), (13, 1), (3, 2), (5, 4), ((1 << 61) - 1, 1)],
                         ids=["F2", "F13", "F9", "F625", "F2^61-1"])
def test_from_array_of_outers_is_outer_of_each_pair_of_rows(p, k):
    # the matrices of one array broadcast u v^t, of Python ints where int64
    # products overflow; every zero row of the batch is one shared tuple
    F = field_make(p, k)
    dtype = gf._backend(F, "array")
    rng = random.Random(p)
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    U = [[rng.choice((0, rng.randrange(F.q))) for _ in range(n)] for _ in range(30)]
    V = [[rng.choice((0, rng.randrange(F.q))) for _ in range(m)] for _ in range(30)]
    U[0] = [0] * n
    U_, V_ = np.array(U, dtype=dtype), np.array(V, dtype=dtype)
    got = FqMatrix._from_array(F, F._int64.scaled(U_[:, :, None], V_[:, None, :]))
    assert got == tuple(FqMatrix.outer(F, u, v) for u, v in zip(U, V))
    assert all(type(x) is int for A in got for row in A.rows for x in row)
    zero_rows = {id(row) for u, A in zip(U, got) for a, row in zip(u, A.rows) if not a}
    assert len(zero_rows) == 1


def test_outer_encodes_its_factors():
    F9 = field_make(3, 2)
    assert FqMatrix.outer(F5, [6, -1], [7, np.int64(10)]).rows == ((2, 0), (3, 0))
    assert FqMatrix.outer(F9, [FieldElement(F9, 4)], [10]).rows == ((4,),)
    with pytest.raises(FieldMismatch):
        FqMatrix.outer(F9, [1], [FieldElement(field_make(5, 2), 4)])
    with pytest.raises(FieldMismatch):
        FqMatrix.outer(F9, [FieldElement(F3, 1)], [1])
    for u, v in (([2.5], [1]), ([1], [1, 0.5]), (["1"], [1])):
        with pytest.raises(TypeError):
            FqMatrix.outer(F5, u, v)
    for u, v in (([], [1]), ([1], []), ([], [])):
        with pytest.raises(ShapeMismatch):
            FqMatrix.outer(F5, u, v)


def test_rref_examples():
    red, rank, pivots = FqMatrix.identity(F5, 3).rref()
    assert (rank, pivots) == (3, (0, 1, 2))
    assert red == FqMatrix.identity(F5, 3)
    red, rank, pivots = FqMatrix.zeros(F5, 2, 3).rref()
    assert (rank, pivots) == (0, ())
    assert FqMatrix(F5, [[1, 2], [2, 4]]).rank() == 1


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 3 ** 12 - 1), st.permutations(range(3)))
def test_rref_idempotent_and_rank_stable(code, perm):
    entries = []
    for _ in range(12):
        code, digit = divmod(code, 3)
        entries.append(digit)
    M = FqMatrix(F3, [entries[i * 4:(i + 1) * 4] for i in range(3)])
    red, rank, _ = M.rref()
    again, rank2, _ = red.rref()
    assert again == red and rank2 == rank
    permuted = FqMatrix(F3, [M.rows[p] for p in perm])
    assert permuted.rank() == rank


def test_vectorize_units():
    assert FqMatrix.unit(F3, 2, 2, 0, 1).vectorize() == (0, 1, 0, 0)
    assert FqMatrix.unit(F3, 2, 2, 1, 0).vectorize() == (0, 0, 1, 0)


def test_trace_pair_examples():
    I2 = FqMatrix.identity(F5, 2)
    assert trace_pair(I2, I2).enc == 2
    assert trace_pair(FqMatrix.unit(F5, 2, 2, 0, 0),
                      FqMatrix.unit(F5, 2, 2, 1, 1)).enc == 0
    with pytest.raises(ShapeMismatch):
        trace_pair(I2, FqMatrix.zeros(F5, 2, 3))
    # the dot of the vectorizations against the trace of the whole product
    for F in (F5, field_make(2, 2), field_make((1 << 61) - 1)):
        rng = random.Random(f"trace-pair-{F.q}")
        for _ in range(50):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            A, B = (FqMatrix(F, [[rng.randrange(F.q) for _ in range(m)] for _ in range(n)])
                    for _ in range(2))
            assert trace_pair(A, B) == (A @ B.transpose()).trace()


def test_trace_pair_equals_vector_dot_exhaustive_f2():
    mats = [FqMatrix.from_vector(F2, [(code >> i) & 1 for i in range(4)], 2, 2)
            for code in range(16)]
    for A in mats:
        for B in mats:
            dot = sum(a * b for a, b in zip(A.vectorize(), B.vectorize())) % 2
            assert trace_pair(A, B).enc == dot


def test_trace_pair_quadratic_kernel_identity():
    # for the 2x2 geometric rank-one, pairing with the companion is
    # 1 - a1*g^2 - a2*g
    F7 = field_make(7)
    for a1 in range(7):
        for a2 in range(7):
            M = FqMatrix(F7, [[0, 1], [a1, a2]])
            for g in range(1, 7):
                E = FqMatrix(F7, [[g, 1], [(-g * g) % 7, (-g) % 7]])
                expected = (1 - a1 * g * g - a2 * g) % 7
                assert trace_pair(E, M).enc == expected


def test_dual_complement_extremes():
    full = MatrixSpace.full(F3, (2, 2))
    assert full.dual_complement().dim == 0
    zero = MatrixSpace.zero(F3, (2, 2))
    assert zero.dual_complement().dim == 4
    span_i = MatrixSpace.from_matrices([FqMatrix.identity(F3, 2)])
    dual = span_i.dual_complement()
    assert dual.dim == 3
    assert all(B.trace().enc == 0 for B in dual.basis)


def assert_canonical(S):
    """S holds the rows and pivots that eliminating its basis again gives;
    `MatrixSpace.__eq__` compares rows only."""
    again = MatrixSpace(S.field, S.shape, list(S.basis))
    assert (S._rrows, S._pivots) == (again._rrows, again._pivots)


def test_dual_dimensions_and_involution_random_corpus():
    # widths 20 and 25 run on numpy, narrower ones on lists, over every field
    fields = [F2, F3, F5, field_make(13), field_make(2, 2), field_make(3, 2)]
    rng = random.Random(1234)
    for _ in range(120):
        F = rng.choice(fields)
        n, m = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4), (4, 5), (5, 5)])
        k = rng.randrange(0, n * m + 1)
        V = MatrixSpace(F, (n, m),
                        [rand_matrix(rng, F, n, m) for _ in range(k)])
        D = V.dual_complement()
        assert V.dim + D.dim == n * m
        assert all(trace_pair(A, B).enc == 0 for A in V.basis[:3] for B in D.basis)
        assert D.dual_complement() == V
        W = MatrixSpace(F, (n, m), [rand_matrix(rng, F, n, m)
                                    for _ in range(rng.randrange(0, n * m + 1))])
        for S in (D, V.sum_with(W)):
            assert_canonical(S)


@pytest.mark.parametrize("F,n,m", [(field_make(13), 14, 14), (field_make(3, 2), 3, 4)])
def test_derived_spaces_eliminate_only_their_inputs(monkeypatch, F, n, m):
    # the dual eliminates the space's own rows, the intersection its
    # Zassenhaus echelon, and neither eliminates its result again; the dual
    # of a 7-dim space of 14x14 matrices once eliminated 7 + 189 vectors
    rng = random.Random(f"counted-{F.q}")
    V = MatrixSpace(F, (n, m), [rand_matrix(rng, F, n, m) for _ in range(7)])
    A = MatrixSpace(F, (n, m), list(V.basis[:5]) + [rand_matrix(rng, F, n, m)])
    B = MatrixSpace(F, (n, m), list(V.basis[2:]) + [rand_matrix(rng, F, n, m)])
    assert V.dim == 7 and A.intersect(B).dim >= 3
    inserted = []

    class Counting(Echelon):
        __slots__ = ()

        def insert(self, vec):
            if not self._np:  # the numpy path counts in `extend`
                inserted.append(1)
            return super().insert(vec)

        def extend(self, vectors):
            if self._np:  # on lists `extend` calls `insert`
                inserted.extend([1] * len(vectors))
            return super().extend(vectors)

    monkeypatch.setattr(exactla, "Echelon", Counting)
    for run, bound in ((V.dual_complement, V.dim), (lambda: A.intersect(B), A.dim + B.dim),
                       (lambda: A.sum_with(B), A.dim + B.dim)):
        inserted.clear()
        run()
        assert 0 < len(inserted) <= bound


# --- the array dual against the list path ---------------------------------------------
#
# `dual_complement` builds its null vectors as one array, and construct's
# `_power_target` forms its slices as one array chain.  Each is compared here
# with the list implementation it replaced: a null vector per free column,
# and a space's pivots found by scanning for each row's leading entry.

def ref_nullspace(field, rows, width):
    red_rows, pivots = Echelon(field, width, rows).rref()
    pivot_set = set(pivots)
    basis = []
    for fc in range(width):
        if fc in pivot_set:
            continue
        vec = [0] * width
        vec[fc] = 1
        for row, pc in zip(red_rows, pivots):
            vec[pc] = field.neg(row[fc])
        basis.append(tuple(vec))
    return basis


def ref_space_of(field, shape, rows):
    return MatrixSpace._of(field, shape, rows,
                           tuple(next(j for j, v in enumerate(r) if v) for r in rows))


def ref_dual_complement(V):
    basis = ref_nullspace(V.field, [r[::-1] for r in V._rrows], V.n * V.m)
    return ref_space_of(V.field, V.shape, tuple(v[::-1] for v in reversed(basis)))


def ref_power_target(spec, s, left=None):
    M = construct.companion(spec)
    cur = FqMatrix.identity(spec.field, spec.m) if left is None else left
    slices = []
    for _ in range(s):
        slices.append(cur)
        cur = cur @ M
    return ref_dual_complement(MatrixSpace(spec.field, cur.shape, slices))


def assert_same_space(got, want):
    assert got == want
    assert (got._rrows, got._pivots) == (want._rrows, want._pivots)
    assert all(type(x) is int for row in got._rrows for x in row)
    assert all(type(pc) is int for pc in got._pivots)


ARRAY_PATH_FIELDS = [(13, 1), (2, 2), (3, 2), (5, 4), ((1 << 61) - 1, 1)]
ARRAY_PATH_IDS = ["F13", "F4", "F9", "F625", "F2^61-1"]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (13, 1), ((1 << 61) - 1, 1)],
                         ids=["F2", "F4", "F13", "F2^61-1"])
def test_full_space_is_the_eliminated_unit_matrices(p, k):
    # `MatrixSpace.full` wraps the identity rows with pivots 0..nm-1 and
    # eliminates nothing: the same space as its n m unit matrices eliminated
    F = field_make(p, k)
    for shape in [(1, 1), (1, 4), (3, 1), (2, 2), (3, 4), (5, 5)]:
        n, m = shape
        units = [FqMatrix.unit(F, n, m, i, j) for i in range(n) for j in range(m)]
        full = MatrixSpace.full(F, shape)
        assert_same_space(full, MatrixSpace(F, shape, units))
        assert full.dim == n * m and full.dual_complement().dim == 0


@pytest.mark.parametrize("p,k", ARRAY_PATH_FIELDS, ids=ARRAY_PATH_IDS)
def test_dual_complement_matches_the_list_reference(p, k):
    # widths 20 and more run the echelon on numpy over F_13; the zero space,
    # the full space and random subspaces, dependent spanning sets included.
    # The sum and the intersection pass on the pivots their echelon found.
    F = field_make(p, k)
    rng = random.Random(f"dual-{F.q}")
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 4), (4, 5), (5, 5)]:
        spaces = [MatrixSpace.zero(F, (n, m)), MatrixSpace.full(F, (n, m))]
        for _ in range(6):
            mats = [sparse_matrix(rng, F, n, m) for _ in range(rng.randrange(n * m + 2))]
            spaces.append(MatrixSpace(F, (n, m), mats + mats[:2]))
        for V in spaces:
            assert_same_space(V.dual_complement(), ref_dual_complement(V))
            W = rng.choice(spaces)
            for S in (V.sum_with(W), V.intersect(W)):
                assert_same_space(S, ref_space_of(F, S.shape, S._rrows))


@pytest.mark.parametrize("p,k", ARRAY_PATH_FIELDS, ids=ARRAY_PATH_IDS)
def test_power_target_matches_the_list_reference(p, k):
    # every s up to m, with left the identity, a truncation (I_n | 0) and the
    # inverse of a random invertible B, as the three constructors pass it
    F = field_make(p, k)
    rng = random.Random(f"target-{F.q}")
    for m in (2, 3, 4, 6):
        spec = construct.CompanionSpec(F, m, tuple(rng.randrange(F.q) for _ in range(m)))
        B = rand_invertible(rng, F, m).inverse()
        for s in range(1, m + 1):
            for left in (None, construct.y_matrix(F, rng.randint(1, m), m), B):
                assert_same_space(construct._power_target(spec, s, left),
                                  ref_power_target(spec, s, left))


def test_space_contains():
    V = MatrixSpace.from_matrices([FqMatrix.unit(F3, 2, 2, 0, 0)])
    assert V.contains(FqMatrix.zeros(F3, 2, 2))
    assert not V.contains(FqMatrix.unit(F3, 2, 2, 1, 1))
    with pytest.raises(ShapeMismatch):
        V.contains(FqMatrix.zeros(F3, 2, 3))


def test_equivalence_transform_preserves_member_ranks_and_dim():
    rng = random.Random(99)
    for _ in range(20):
        V = MatrixSpace(F5, (3, 3),
                        [rand_matrix(rng, F5, 3, 3) for _ in range(3)])
        L = rand_invertible(rng, F5, 3)
        N = rand_invertible(rng, F5, 3)
        W = V.transform(L, N)
        assert W.dim == V.dim
        assert sorted((L @ B @ N).rank() for B in V.basis) \
            == sorted(B.rank() for B in V.basis)
    with pytest.raises(Singular):
        V.transform(FqMatrix.zeros(F5, 3, 3), N)


def test_transform_dual_identity():
    # the dual of PXQ is (P^t)^{-1} X-dual (Q^t)^{-1}
    rng = random.Random(7)
    for _ in range(10):
        V = MatrixSpace(F5, (3, 3),
                        [rand_matrix(rng, F5, 3, 3) for _ in range(2)])
        P = rand_invertible(rng, F5, 3)
        Q = rand_invertible(rng, F5, 3)
        lhs = V.transform(P, Q).dual_complement()
        rhs = V.dual_complement().transform(P.transpose().inverse(),
                                            Q.transpose().inverse())
        assert lhs == rhs


def test_space_equality_is_canonical():
    A = FqMatrix(F3, [[1, 1], [0, 0]])
    B = FqMatrix(F3, [[2, 2], [0, 0]])
    assert MatrixSpace.from_matrices([A]) == MatrixSpace.from_matrices([B])


def test_intersection_and_sum():
    E = lambda i, j: FqMatrix.unit(F3, 2, 2, i, j)
    U = MatrixSpace.from_matrices([E(0, 0), E(0, 1)])
    W = MatrixSpace.from_matrices([E(0, 0), E(1, 0)])
    inter = U.intersect(W)
    assert inter.dim == 1 and inter.contains(E(0, 0))
    assert U.sum_with(W).dim == 3


def test_inverse_and_power():
    M = FqMatrix(F5, [[1, 1], [0, 1]])
    assert M @ M.inverse() == FqMatrix.identity(F5, 2)
    assert M.power(0) == FqMatrix.identity(F5, 2)
    assert M.power(-2) == M.inverse() @ M.inverse()
    with pytest.raises(Singular):
        FqMatrix.zeros(F5, 2, 2).inverse()


def test_matrix_refusals():
    F9 = field_make(3, 2)
    A = FqMatrix(F5, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(FieldMismatch):
        A @ FqMatrix(F9, [[1], [2], [0]])
    with pytest.raises(FieldMismatch):
        A + FqMatrix(F9, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(ShapeMismatch):
        A @ A
    for op in (lambda M: M.power(2), lambda M: M.trace()):
        with pytest.raises(ShapeMismatch):
            op(A)
    with pytest.raises(Singular):
        A.inverse()
    with pytest.raises(FieldMismatch):
        FqMatrix.row_stack(F5, [A, FqMatrix(F9, [[1, 2, 3]])])
    with pytest.raises(ShapeMismatch):
        FqMatrix.row_stack(F5, [A, FqMatrix(F5, [[1, 2]])])
    with pytest.raises(ShapeMismatch):
        FqMatrix.from_vector(F5, [1, 2, 3, 4, 5], 2, 3)
    with pytest.raises(ShapeMismatch):
        FqMatrix(F5, [])


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (7, 1), (7, 4)],
                         ids=["F2", "F4", "F7", "F2401"])
def test_matrix_methods_match_the_encoding_constructor(p, k):
    # the methods wrap results of field operations without re-encoding them;
    # the reference passes the same entries through FqMatrix(F, rows)
    F = field_make(p, k)
    rng = random.Random(p * 10 + k)

    def same(M, rows):
        ref = FqMatrix(F, rows)
        assert M == ref and M.rows == ref.rows and M.shape == ref.shape
        assert all(type(row) is tuple for row in M.rows)
        assert all(type(v) is int for row in M.rows for v in row)

    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A, B = rand_matrix(rng, F, n, m), rand_matrix(rng, F, n, m)
        same(A.transpose(), [[A.rows[i][j] for i in range(n)] for j in range(m)])
        same(A + B, [[F.add(a, b) for a, b in zip(ra, rb)]
                     for ra, rb in zip(A.rows, B.rows)])
        same(A - B, [[F.sub(a, b) for a, b in zip(ra, rb)]
                     for ra, rb in zip(A.rows, B.rows)])
        same(-A, [[F.neg(a) for a in row] for row in A.rows])
        same(FqMatrix.zeros(F, n, m), [[0] * m for _ in range(n)])
        same(FqMatrix.identity(F, n),
             [[1 if i == j else 0 for j in range(n)] for i in range(n)])
    for n, m in [(0, 2), (2, 0), (0, 0), (-1, 2), (2, -1)]:
        with pytest.raises(ShapeMismatch):
            FqMatrix(F, [[0] * m for _ in range(n)])
        with pytest.raises(ShapeMismatch):
            FqMatrix.zeros(F, n, m)
    for n in (0, -1):
        with pytest.raises(ShapeMismatch):
            FqMatrix.identity(F, n)


def test_matrix_space_refusals():
    F9 = field_make(3, 2)
    A = FqMatrix.unit(F5, 2, 2, 0, 1)
    with pytest.raises(FieldMismatch):
        MatrixSpace(F5, (2, 2), [A, FqMatrix.identity(F9, 2)])
    with pytest.raises(ShapeMismatch):
        MatrixSpace(F5, (2, 2), [A, FqMatrix.identity(F5, 3)])
    with pytest.raises(ShapeMismatch):
        MatrixSpace.from_matrices([])
    V = MatrixSpace.from_matrices([A])
    with pytest.raises(ShapeMismatch):
        V.contains(FqMatrix.identity(F5, 3))


@pytest.mark.parametrize("method", ["sum_with", "intersect"])
def test_space_pairs_refuse_another_field_then_another_shape(method):
    # the kinds and order of `FqMatrix._check_same`: another field is a
    # FieldMismatch even when the shape differs too
    F9 = field_make(3, 2)
    V = MatrixSpace.from_matrices([FqMatrix.unit(F5, 2, 2, 0, 1)])
    for other, kind in ((MatrixSpace.full(F9, (2, 2)), FieldMismatch),
                        (MatrixSpace.full(F9, (2, 3)), FieldMismatch),
                        (MatrixSpace.full(F5, (2, 3)), ShapeMismatch)):
        with pytest.raises(kind):
            getattr(V, method)(other)
    same = getattr(V, method)(MatrixSpace.full(F5, (2, 2)))
    assert same.dim == {"sum_with": 4, "intersect": 1}[method]


def test_space_queries_refuse_another_field_or_shape():
    # a 2x6 matrix has as many entries as a 3x4 one, and F_4 encodings are
    # valid F_5 encodings, so neither can be read as a member of the space
    V = MatrixSpace.full(F5, (3, 4))
    wide = FqMatrix(F5, [[1] * 6, [0] * 6])
    other_field = FqMatrix(field_make(2, 2), [[1, 2, 3, 0]] * 3)
    for query in (V.contains, V.coordinates):
        with pytest.raises(ShapeMismatch):
            query(wide)
        with pytest.raises(FieldMismatch):
            query(other_field)


def test_a_space_holds_its_rows_once():
    assert set(MatrixSpace.__slots__) == {"field", "n", "m", "_rrows", "_pivots"}
    V = MatrixSpace.full(F5, (2, 3))
    held = [getattr(V, name) for name in MatrixSpace.__slots__]
    assert not any(isinstance(x, Echelon) for x in held)
    assert not any(isinstance(x, tuple) and x and isinstance(x[0], FqMatrix)
                   for x in held)


@pytest.mark.parametrize("shape", [(2, 3), (4, 5)], ids=["lists", "numpy"])
@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (13, 1), (7, 4)],
                         ids=["F2", "F4", "F13", "F2401"])
def test_basis_is_built_from_the_rows(p, k, shape):
    F = field_make(p, k)
    n, m = shape
    rng = random.Random(f"basis-{F.q}-{n}x{m}")
    V = MatrixSpace(F, shape, [rand_matrix(rng, F, n, m) for _ in range(n * m // 2)])
    assert V._echelon()._np == (n * m >= 20)  # one width floor for every field
    assert V.dim > 0
    assert V.basis == tuple(_unvectorize(F, r, n, m) for r in V._rrows)
    assert V.basis == V.basis
    assert all(V.coordinates(B) == tuple(int(i == j) for j in range(V.dim))
               for i, B in enumerate(V.basis))


# --- row combinations against entry-by-entry reference loops ------------------------
#
# Products, polynomial arithmetic, space enumeration and construct's
# combination stream combine rows with `Field.sub_scaled`.  Each is compared
# here with the plain add/mul loop it replaces.

def ref_matmul(A, B):
    F = A.field
    cols = tuple(zip(*B.rows))
    out = []
    for row in A.rows:
        new = []
        for col in cols:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = F.add(acc, F.mul(a, b))
            new.append(acc)
        out.append(new)
    return FqMatrix(F, out)


def ref_trace_pair(A, B):
    F = A.field
    acc = 0
    for ra, rb in zip(A.rows, B.rows):
        for a, b in zip(ra, rb):
            if a and b:
                acc = F.add(acc, F.mul(a, b))
    return FieldElement(F, acc)


def ref_poly_mul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return FqPolynomial(F, out).coeffs


def ref_poly_divmod(F, a, b):
    rem = list(a)
    d = len(b) - 1
    lead_inv = F.inv(b[-1])
    quo = [0] * max(0, len(rem) - d)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        factor = F.mul(c, lead_inv)
        quo[k - d] = factor
        for j, oc in enumerate(b):
            rem[k - d + j] = F.sub(rem[k - d + j], F.mul(factor, oc))
    return FqPolynomial(F, quo).coeffs, FqPolynomial(F, rem).coeffs


def ref_iter_elements(V, nonzero_only, projective):
    F = V.field
    size = V.n * V.m

    def combine(coeffs):
        acc = [0] * size
        for c, row in zip(coeffs, V._rrows):
            if c:
                acc = [F.add(a, F.mul(c, b)) for a, b in zip(acc, row)]
        return FqMatrix.from_vector(F, acc, V.n, V.m)

    if projective:
        for lead in range(V.dim):
            for tail in itertools.product(range(F.q), repeat=V.dim - lead - 1):
                yield combine((0,) * lead + (1,) + tail)
        if not nonzero_only:
            yield FqMatrix.zeros(F, V.n, V.m)
        return
    for coeffs in itertools.product(range(F.q), repeat=V.dim):
        if nonzero_only and not any(coeffs):
            continue
        yield combine(coeffs)


def sparse_matrix(rng, F, n, m):
    """Random entries, a third of them zero, and now and then a zero row."""
    return FqMatrix(F, [[0] * m if rng.random() < 0.2 else
                        [rng.choice((0, rng.randrange(1, F.q))) for _ in range(m)]
                        for _ in range(n)])


@pytest.mark.parametrize("p,k,trials", [(5, 1, 40), (13, 1, 40), ((1 << 61) - 1, 1, 40),
                                        (2, 2, 200), (3, 2, 200),
                                        (5, 2, 200), (7, 4, 200), (2, 16, 30)],
                         ids=["F5", "F13", "F2^61-1", "F4", "F9", "F25", "F2401", "F65536"])
def test_products_match_the_reference_loop(p, k, trials):
    F = field_make(p, k)
    rng = random.Random(f"matmul-{F.q}")
    for _ in range(trials):
        n, inner, m = (rng.randint(1, 5) for _ in range(3))
        A, B = sparse_matrix(rng, F, n, inner), sparse_matrix(rng, F, inner, m)
        P = A @ B
        assert P == ref_matmul(A, B)
        assert all(type(v) is int and 0 <= v < F.q for row in P.rows for v in row)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2)], ids=["F4", "F9"])
def test_trace_pair_matches_the_reference_loop(p, k):
    F = field_make(p, k)
    rng = random.Random(f"trace-{F.q}")
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        A, B = sparse_matrix(rng, F, n, m), sparse_matrix(rng, F, n, m)
        assert trace_pair(A, B) == ref_trace_pair(A, B)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (2, 16)], ids=["F9", "F25", "F65536"])
def test_polynomial_products_and_division_match_the_reference_loops(p, k):
    F = field_make(p, k)
    rng = random.Random(f"poly-{F.q}")
    for _ in range(300):
        a, b = ([rng.choice((0, rng.randrange(1, F.q)))
                 for _ in range(rng.randint(0, 7))] for _ in range(2))
        fa, fb = FqPolynomial(F, a), FqPolynomial(F, b)
        assert (fa * fb).coeffs == ref_poly_mul(F, fa.coeffs, fb.coeffs)
        if fb.is_zero():
            continue
        quo, rem = fa.divmod(fb)
        assert (quo.coeffs, rem.coeffs) == ref_poly_divmod(F, fa.coeffs, fb.coeffs)
        assert quo * fb + rem == fa and rem.degree < fb.degree


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["F2", "F3", "F4", "F9"])
def test_iter_elements_matches_the_reference_loop(p, k):
    F = field_make(p, k)
    rng = random.Random(f"elements-{F.q}")
    for trial in range(12):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        gens = [sparse_matrix(rng, F, n, m) for _ in range(trial % 4)]
        V = MatrixSpace(F, (n, m), gens)
        if F.q ** V.dim > 729:
            continue
        for nonzero_only, projective in itertools.product((False, True), repeat=2):
            got = list(V.iter_elements(nonzero_only, projective))
            assert got == list(ref_iter_elements(V, nonzero_only, projective))
            full = F.q ** V.dim
            nonzero = (full - 1) // (F.q - 1) if projective else full - 1
            assert len(got) == nonzero + (not nonzero_only)


# --- the int64 field kernel ---------------------------------------------------------


def _small_fields(limit):
    """Every field with q <= limit, as (p, k)."""
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = round(math.log(q, p))
        if p ** k == q:
            out.append((p, k))
    return out


def _kernel_matches_the_field(F, a, b, cs, rng):
    """Each operation of the field's int64 form on the pairs (a_i, b_i) and
    the scalars cs against `Field.mul`, `Field.sub_scaled` and `Field.inv`."""
    K = F._int64
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    C = np.array(cs, dtype=np.int64)[:, None]
    assert K.scaled(A, B).tolist() == [F.mul(x, y) for x, y in zip(a, b)]
    assert K.scaled(C, B).tolist() == [[F.mul(c, y) for y in b] for c in cs]
    units = [x for x in a if x]
    assert K.inv(np.array(units, dtype=np.int64)).tolist() == list(map(F.inv, units))
    # the rank-one update, plain and fused with a scale of T by a
    assert K.sub_scaled(A, C, B).tolist() == [F.sub_scaled(a, c, b) for c in cs]
    fused = K.sub_scaled(np.broadcast_to(A, (len(cs), len(a))), C, B, C[::-1])
    assert fused.tolist() == [F.sub_scaled([F.mul(s, x) for x in a], c, b)
                              for s, c in zip(cs[::-1], cs)]
    # the residue T - C R against a fold of Field.sub_scaled, and with one
    # row T broadcast against every row of C, as the distance scan calls it
    w, r = 7, 3
    T = [[rng.randrange(F.q) for _ in range(w)] for _ in range(len(cs))]
    R = [[rng.randrange(F.q) for _ in range(w)] for _ in range(r)]
    Cm = [[rng.choice(cs) for _ in range(r)] for _ in cs]

    def fold(t, coeffs):
        for c, row in zip(coeffs, R):
            t = F.sub_scaled(t, c, row)
        return t

    got = K.residue(np.array(T), np.array(Cm), np.array(R))
    assert got.tolist() == [fold(t, coeffs) for t, coeffs in zip(T, Cm)]
    got = K.residue(np.array(T[:1]), np.array(Cm), np.array(R))
    assert got.tolist() == [fold(T[0], coeffs) for coeffs in Cm]


@pytest.mark.parametrize("p,k", _small_fields(125), ids=lambda v: str(v))
def test_int64_kernel_matches_the_field_on_every_small_field(p, k):
    # every pair (a, b) of F_q, and the scalars 0, 1, -1 and three more
    F = field_make(p, k)
    assert len(_small_fields(125)) == 42
    rng = random.Random(F.q)
    pairs = list(itertools.product(range(F.q), repeat=2))
    cs = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(3)]
    _kernel_matches_the_field(F, [x for x, _ in pairs], [y for _, y in pairs], cs, rng)


@pytest.mark.parametrize("p,k", [(7, 4), (2, 16), (524269, 1)])
def test_int64_kernel_matches_the_field_on_sampled_large_fields(p, k):
    F = field_make(p, k)
    rng = random.Random(F.q)
    a = [rng.randrange(F.q) for _ in range(2000)] + [0, 1, F.q - 1]
    b = [rng.randrange(F.q) for _ in range(2000)] + [F.q - 1, 0, 1]
    cs = [0, 1, F.q - 1] + [rng.randrange(F.q) for _ in range(5)]
    _kernel_matches_the_field(F, a, b, cs, rng)


def _primes_at_the_float64_bound(terms):
    """The largest prime p with (p-1)^2 * terms < 2^53, and the next prime."""
    p = math.isqrt(((1 << 53) - 1) // terms) + 1
    while not gf._is_prime(p):
        p -= 1
    above = p + 1
    while not gf._is_prime(above):
        above += 1
    return p, above


@pytest.mark.parametrize("terms", [1, 20, 64, 511])
def test_residue_is_exact_on_both_sides_of_the_float64_bound(terms, monkeypatch):
    # entries of p - 1 make the largest sums the bound admits: with the
    # backend rule's size floor at zero the largest prime inside it forms the
    # product in float64, the next one in int64, and with the floor above
    # the product inside the bound the int64 product gives the same residue
    inside, outside = _primes_at_the_float64_bound(terms)
    rng = random.Random(terms)
    work = 3 * terms * 5
    for p, floats in ((inside, True), (outside, False)):
        F = field_make(p)
        assert gf._backend(F, "array", terms=terms) is np.int64
        T = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
        C = [[p - 1] * terms, [rng.randrange(p) for _ in range(terms)], [1] * terms]
        R = [[p - 1] * 4 + [rng.randrange(p)] for _ in range(terms)]
        want = [[(t - sum(c[k] * R[k][j] for k in range(terms))) % p
                 for j, t in enumerate(row)] for row, c in zip(T, C)]
        for floor in (0, work + 1):
            monkeypatch.setattr(gf, "_FLOAT64_MIN_WORK", floor)
            dtype = gf._backend(F, "residue", work, terms)
            assert dtype is (np.float64 if floats and floor == 0 else np.int64)
            got = F._int64.residue(np.array(T), np.array(C), np.array(R))
            assert got.dtype == np.int64 and got.tolist() == want, (p, floor)


def test_scans_use_the_int64_form_the_field_built_once(monkeypatch):
    # two 2x2 k = 2 scans over F_(2^16), an echelon over F_13 and the
    # oracle's tables take the arrays the field built with its tables
    built = []
    init = gf._Int64Field.__init__

    def counted(self, field, *tables):
        built.append(field)
        init(self, field, *tables)

    monkeypatch.setattr(gf._Int64Field, "__init__", counted)
    F = gf.Field(2, 16)
    assert built == [F]
    form = F._int64
    assert not any(t.flags.writeable for t in (form.log, form.antilog, form.zech, form.lneg))
    rows = [(1, 2, 3, 4), (5, 6, 7, 8)]
    first = exactla._min_distance(F, rows, 1 << 24, 2)
    assert exactla._min_distance(F, rows, 1 << 24, 2) == first
    assert tensor3._Tables(F).arith is form
    F13 = gf.Field(13)
    E = Echelon(F13, 20, [[1] * 20, list(range(20))])
    assert E.rank == 2 and built == [F, F13] and F._int64 is form
