"""Exact dense linear algebra over a Field.

Matrices store entries by canonical integer encoding; all arithmetic is exact
(no pivot-magnitude concerns can exist).  Entries and scalars given to a
matrix are encoded by `Field.encode`, the package's one coercion rule, with
plain ints reduced inline.  Every rank-one matrix u v^t of the package is
built from its two factors by `FqMatrix.outer`, or as one array and wrapped
by `FqMatrix._from_array`.  Matrix spaces always keep a canonical
RREF-reduced basis of their vectorized members, so equality of spaces is
equality of canonical bases.

All row reduction goes through one kernel, the incremental `Echelon`
(`insert`, `extend`, `reduce`, `contains`, `coords`, `rank`): `FqMatrix.rref`,
`rank` and `inverse`, every `MatrixSpace` (`intersect` by Zassenhaus
included), `tensor3.verify_base` and its completion check, the solve
`_solve_combination` and rmcode's probe loops use it.  It keeps its rows
fully reduced, so the rows sorted by pivot are the unique RREF, and the
flags of `extend` are the row rank profile, whatever the order of
elimination.  A `MatrixSpace` holds only its canonical rows, and each
residue, membership or coordinate query reduces them again in a new
`Echelon`.  `full`, `dual_complement` (`_dual`, one array of null vectors),
`intersect` and `sum_with` wrap the canonical rows they derive with their
pivots (`MatrixSpace._of`), never eliminating them again;
`tensor3.verify_base` extends one echelon by all its members, on numpy as
one array, and compares a span of the target's dimension with the target's
rows.  `gf._backend`, the package's one backend rule, picks by width and the
int64 bound alone, for every field: numpy, a batch as one recursive
elimination with its work in the int64 form's `residue` (`_eliminate`), whose
pieces of at most `_LEAF_ROWS` rows go row by row on their nonzero column
window, or Python lists.

Every minimum distance is one scan, `_min_distance`: rmcode's
`min_rank_distance` and `min_hamming_distance` (behind certificate
verification and gabidulin's MRD check) and the oracle's starting level.  It
visits one word per scalar class under a guard, in int64 batches with
fraction-free elimination (no inverses), or on lists with an `Echelon` per
word, as `gf._backend` says.  Both numpy paths compute with the field's
int64 form, `Field._int64`; this module reads no field table.  numpy is
imported on first use, by the first `gf._backend` answer that is an array
dtype: a small certificate's echelons and scans stay on lists and never
load it.  `construct` imports it at module top, so library constructions
pay for it once, at import, never inside their first timed call.

`Field.sub_scaled` is the one row combination on lists.  Every sum
sum c_i * row_i, a vector times a matrix included, is `_combine`, a fold of
it: extension-field `FqMatrix` products, `MatrixSpace.iter_elements`, the list
scan's words, and rmcode's two-row distance words, dependent-row extension and
power multiple.  The one exception, rmcode's coordinate expansion `gamma_expand`,
is an `FqMatrix` product that changes the basis of a batch of rows.

Everything here except a filling `Echelon` is immutable after construction
and safe for concurrent use.
"""

from __future__ import annotations

import itertools
import operator

from .errors import FieldMismatch, GuardExceeded, ShapeMismatch, Singular
from .gf import Field, FieldElement, _backend, _power


class FqMatrix:
    """Dense n x m matrix over a Field; rows stored as tuples of encodings."""

    __slots__ = ("field", "n", "m", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        q = field.q
        self.rows = tuple(tuple([v % q if type(v) is int else field.encode(v)
                                 for v in row]) for row in rows)
        self.n = len(self.rows)
        if self.n == 0:
            raise ShapeMismatch("matrix needs at least one row")
        self.m = len(self.rows[0])
        if self.m == 0 or any(len(r) != self.m for r in self.rows):
            raise ShapeMismatch("ragged or empty rows")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _of(cls, field, rows):
        """Wrap a nonempty tuple of equal-length tuples of valid encodings."""
        M = object.__new__(cls)
        M.field = field
        M.rows = rows
        M.n = len(rows)
        M.m = len(rows[0])
        return M

    @classmethod
    def zeros(cls, field, n, m):
        if n < 1 or m < 1:
            raise ShapeMismatch("matrix needs at least one row and column")
        return cls._of(field, ((0,) * m,) * n)

    @classmethod
    def identity(cls, field, n):
        if n < 1:
            raise ShapeMismatch("matrix needs at least one row")
        return cls._of(field, tuple(tuple([1 if i == j else 0 for j in range(n)])
                                    for i in range(n)))

    @classmethod
    def unit(cls, field, n, m, i, j):
        """E_{i,j} = e_i e_j^t with one 1 entry, indices 0-based."""
        u, v = [0] * n, [0] * m
        u[i] = v[j] = 1
        return cls.outer(field, u, v)

    @classmethod
    def outer(cls, field, u, v):
        """The rank-one (or zero) matrix u v^t: entry (i, j) is u_i v_j.

        Every entry of u and v is encoded by `Field.encode`; a zero u_i gives
        a zero row, and all zero rows are one shared tuple.
        """
        u = list(map(field.encode, u))
        v = list(map(field.encode, v))
        if not u or not v:
            raise ShapeMismatch("outer product of an empty vector")
        zero = (0,) * len(v)
        return cls._of(field, tuple(tuple(field.scale(a, v)) if a else zero
                                    for a in u))

    @classmethod
    def _from_array(cls, field, A):
        """The matrices of an array (count, n, m) of encodings, as int64 or as
        Python ints: the entries are Python ints, and all zero rows are one
        shared tuple."""
        zero = (0,) * A.shape[2]
        nonzero = A.any(axis=2)
        rows = map(tuple, A[nonzero].tolist())
        return tuple(cls._of(field, tuple([next(rows) if a else zero for a in u]))
                     for u in nonzero.tolist())

    @classmethod
    def from_vector(cls, field, vec, n, m):
        vec = tuple(vec)
        if len(vec) != n * m:
            raise ShapeMismatch("vector length does not match shape")
        return cls(field, [vec[i * m:(i + 1) * m] for i in range(n)])

    @classmethod
    def row_stack(cls, field, matrices):
        """The rows of the matrices, in order, as one matrix."""
        matrices = tuple(matrices)
        if any(M.field != field for M in matrices):
            raise FieldMismatch("row stack across fields")
        if not matrices or any(M.m != matrices[0].m for M in matrices):
            raise ShapeMismatch("row stack of matrices of different widths")
        return cls._of(field, sum((M.rows for M in matrices), ()))

    # -- basics ------------------------------------------------------------------

    @property
    def shape(self):
        return (self.n, self.m)

    def __eq__(self, other):
        return (isinstance(other, FqMatrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(",".join(str(v) for v in row) for row in self.rows)
        return f"FqMatrix({self.n}x{self.m})[{body}]"

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def vectorize(self):
        """Row-major flattening (a_11, ..., a_1m, a_21, ..., a_nm)."""
        return tuple(itertools.chain.from_iterable(self.rows))

    def transpose(self):
        return FqMatrix._of(self.field, tuple(zip(*self.rows)))

    def __add__(self, other):
        self._check_same(other)
        F = self.field
        return FqMatrix._of(F, tuple(tuple(map(F.add, ra, rb))
                                     for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._check_same(other)
        F = self.field
        return FqMatrix._of(F, tuple(tuple(map(F.sub, ra, rb))
                                     for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        F = self.field
        return FqMatrix._of(F, tuple(tuple(map(F.neg, row)) for row in self.rows))

    def scale(self, c):
        F = self.field
        ce = F.encode(c)
        return FqMatrix._of(F, tuple(tuple(F.scale(ce, row)) for row in self.rows))

    def __matmul__(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrix product across fields")
        if self.m != other.n:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        F = self.field
        if F.deg == 1:
            p = F.p
            cols = tuple(zip(*other.rows))
            out = tuple(tuple([sum(map(operator.mul, row, col)) % p for col in cols])
                        for row in self.rows)
            return FqMatrix._of(F, out)
        return FqMatrix._of(F, tuple(tuple(_combine(F, row, other.rows, other.m))
                                     for row in self.rows))

    def power(self, e: int):
        if self.n != self.m:
            raise ShapeMismatch("powers need a square matrix")
        if e < 0:
            return self.inverse().power(-e)
        return _power(operator.matmul, self, e, FqMatrix.identity(self.field, self.n))

    def trace(self) -> FieldElement:
        if self.n != self.m:
            raise ShapeMismatch("trace needs a square matrix")
        F = self.field
        acc = 0
        for i in range(self.n):
            acc = F.add(acc, self.rows[i][i])
        return FieldElement(F, acc)

    def _check_same(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    # -- elimination ----------------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (matrix, rank, pivot columns).

        The nonzero rows come first, in pivot order, then the zero rows.
        """
        rows, pivots = Echelon(self.field, self.m, self.rows).rref()
        rank = len(rows)
        rows += ((0,) * self.m,) * (self.n - rank)
        return FqMatrix._of(self.field, rows), rank, pivots

    def rank(self) -> int:
        return Echelon(self.field, self.m, self.rows).rank

    def is_rank_one(self) -> bool:
        """Nonzero, and every row a multiple of the first nonzero row."""
        F = self.field
        first = next((row for row in self.rows if any(row)), None)
        if first is None:
            return False
        lead = next(j for j, v in enumerate(first) if v)
        unit = F.scale(F.inv(first[lead]), first)  # first, scaled to unit[lead] == 1
        for row in self.rows:
            c = row[lead]
            if c == 0:
                if any(row):
                    return False
            elif F.scale(c, unit) != list(row):
                return False
        return True

    def inverse(self):
        if self.n != self.m:
            raise Singular("only square matrices invert")
        inverse = self._inverse()
        if inverse is None:
            raise Singular("matrix is singular")
        return inverse

    def _inverse(self):
        """The inverse of a square matrix, or None when it is singular: one
        elimination of [A | I], which is also the invertibility check."""
        n = self.n
        aug = [row + tuple(1 if j == i else 0 for j in range(n))
               for i, row in enumerate(self.rows)]
        rows, pivots = Echelon(self.field, 2 * n, aug).rref()
        if pivots[:n] != tuple(range(n)):
            return None
        return FqMatrix._of(self.field, tuple(row[n:] for row in rows))

    def is_invertible(self) -> bool:
        return self.n == self.m and self.rank() == self.n


def trace_pair(A: FqMatrix, B: FqMatrix) -> FieldElement:
    """Trace bilinear form Tr(A B^t) = dot of the vectorizations."""
    A._check_same(B)
    return (A @ B.transpose()).trace()


# --- the echelon kernel -----------------------------------------------------------

_LEAF_ROWS = 8  # `_eliminate` splits a batch of more rows in two


def _combine(F, coeffs, rows, width):
    """sum c_i * rows[i] as a list of `width` encodings: a fold of
    `Field.sub_scaled` that skips zero coefficients."""
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            acc = F.sub_scaled(acc, F.neg(c), row)
    return acc


class Echelon:
    """Incremental reduced row echelon form of vectors of one width.

    The rows are kept fully reduced: each row has a 1 at its pivot column and
    every other row is zero there.  So the residue of a vector is the vector
    minus, for each row, its entry at that row's pivot times the row; those
    entries, in pivot order, are its coordinates in the canonical basis
    `rref()`, the unique RREF of everything inserted.

    Rows that `gf._backend` sends to numpy, by width over any field, live in an
    int64 array, a residue as one product and a batch inserted by `_eliminate`;
    other rows are Python lists.  Not safe to fill from several threads at once.
    """

    __slots__ = ("field", "width", "_rows", "_pivots", "_np")

    def __init__(self, field: Field, width: int, vectors=()):
        self.field = field
        self.width = width
        self._pivots = []  # in insertion order, the order of the rows
        self._np = _backend(field, "echelon", width, width) != "lists"
        self._rows = []
        if self._np:
            import numpy as np
            self._rows = np.zeros((0, width), dtype=np.int64)
        self.extend(vectors)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def insert(self, vec) -> bool:
        """Add a vector; True when it was not already in the span."""
        if self._np:
            return self.extend([vec])[0]
        F = self.field
        vec = self._residue(vec)
        lead = next((j for j, v in enumerate(vec) if v), None)
        if lead is None:
            return False
        vec = F.scale(F.inv(vec[lead]), vec)
        rows = self._rows
        for i, row in enumerate(rows):
            if row[lead]:
                rows[i] = F.sub_scaled(row, row[lead], vec)
        rows.append(vec)
        self._pivots.append(lead)
        return True

    def extend(self, vectors) -> list:
        """`insert` each of a sequence of vectors in order; for each, whether
        it grew the span.  On numpy one product reduces the batch by the held
        rows, `_eliminate` the batch itself, and one more product clears the
        new pivots from the held rows."""
        if not self._np:
            if hasattr(vectors, "tolist"):  # an array: list rows hold Python ints
                vectors = vectors.tolist()
            return [self.insert(vec) for vec in vectors]
        if not len(vectors):
            return []
        arith = self.field._int64
        grew, rows, pivots = _eliminate(arith, self._residue_np(vectors))
        if pivots:
            import numpy as np
            self._rows = np.concatenate((_reduced(arith, self._rows, rows, pivots), rows))
            self._pivots += pivots
        return grew

    def reduce(self, vec) -> tuple:
        """The residue of a vector modulo the span (zero when contained)."""
        if self._np:
            return tuple(self._residue_np(vec).tolist())
        return tuple(self._residue(vec))

    def contains(self, vec) -> bool:
        return self.first_missing([vec]) is None

    def first_missing(self, vectors):
        """Index of the first of a sequence of vectors outside the span, or None."""
        if not self._np:
            return next((i for i, vec in enumerate(vectors)
                         if any(self._residue(vec))), None)
        if not len(vectors):
            return None
        outside = self._residue_np(vectors).any(axis=1)
        return int(outside.argmax()) if outside.any() else None

    def coords(self, vec):
        """Coefficients of vec in the `rref()` rows; None if not contained."""
        if not self.contains(vec):
            return None
        return tuple(vec[pc] for pc in sorted(self._pivots))

    def rref(self):
        """(rows, pivots): the rows as tuples in pivot order, and the pivots."""
        order = sorted(range(self.rank), key=self._pivots.__getitem__)
        rows = self._rows.tolist() if self._np else self._rows
        return (tuple(tuple(rows[i]) for i in order),
                tuple(self._pivots[i] for i in order))

    # -- list backend ---------------------------------------------------------

    def _residue(self, vec):
        if len(vec) != self.width:
            raise ShapeMismatch(f"vector of length {len(vec)}, expected {self.width}")
        F = self.field
        vec = list(vec)
        for row, pc in zip(self._rows, self._pivots):
            c = vec[pc]
            if c:
                vec = F.sub_scaled(vec, c, row)
        return vec

    # -- numpy backend --------------------------------------------------------

    def _residue_np(self, vectors):
        """Residues of a vector or of the rows of a matrix, as int64."""
        import numpy as np
        V = np.asarray(vectors, dtype=np.int64)
        if V.shape[-1:] != (self.width,):
            raise ShapeMismatch(f"vectors of shape {V.shape}, expected width {self.width}")
        return _reduced(self.field._int64, V, self._rows, self._pivots)


def _reduced(arith, T, R, pivots):
    """Residues of the rows of T modulo fully reduced int64 rows R: one product."""
    return arith.residue(T, T[..., pivots], R) if pivots else T


def _eliminate(arith, B):
    """For each row of an int64 batch B over any field, whether it is outside
    the span of the rows before it; and B's fully reduced rows and their
    pivots.  The second half is reduced by the first half's rows, then
    eliminated, and its pivots are cleared from the first half's rows, each by
    one `residue`; at most `_LEAF_ROWS` rows go row by row (Jeannerod, Pernet,
    Storjohann, J. Symbolic Comput. 2013), on the columns [lo, hi) from their
    first to their last nonzero one.  That is exact: a row operation of the
    leaf combines only the leaf's rows, so the columns outside stay zero, and
    the reduced rows go back into zero rows of full width (structured Gaussian
    elimination: LaMacchia, Odlyzko, CRYPTO 1990)."""
    import numpy as np
    if len(B) > _LEAF_ROWS:
        half = len(B) // 2
        grew, top, pivots = _eliminate(arith, B[:half])
        more, low, new = _eliminate(arith, _reduced(arith, B[half:], top, pivots))
        return (grew + more, np.concatenate((_reduced(arith, top, low, new), low)),
                pivots + new)
    lo, hi = 0, B.shape[1]  # the window; one row, with no other row to update, keeps it full
    if len(B) > 1:
        cols = B.any(axis=0).nonzero()[0]
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
    W, grew, pivots = B[:, lo:hi], [], []
    for i in range(len(W)):
        nonzero = W[i].nonzero()[0]
        grew.append(bool(nonzero.size))
        if nonzero.size:
            lead = int(nonzero[0])
            row = arith.scaled(arith.field.inv(int(W[i, lead])), W[i])
            W = arith.sub_scaled(W, W[:, lead, None], row)  # a new array
            W[i] = row
            pivots.append(lo + lead)
    if hi - lo == B.shape[1]:
        return grew, W[grew], pivots
    rows = np.zeros((len(pivots), B.shape[1]), dtype=B.dtype)
    rows[:, lo:hi] = W[grew]
    return grew, rows, pivots


def _solve_combination(field, rows, targets):
    """For each target t, coefficients x with sum x_i rows[i] == t, or None
    when t is outside the row span.

    The rows are inserted with an identity block appended, [r_i | e_i], so
    each echelon row carries its expression in the rows, dependent ones
    included; the residue of [t | 0] is [0 | -x] exactly when t is a
    combination.
    """
    k = len(rows)
    width = len(rows[0])
    span = Echelon(field, width + k,
                   [tuple(r) + tuple(int(i == j) for j in range(k))
                    for i, r in enumerate(rows)])
    out = []
    for t in targets:
        res = span.reduce(tuple(t) + (0,) * k)
        out.append(None if any(res[:width])
                   else [field.neg(c) for c in res[width:]])
    return out


# --- the exact distance scan --------------------------------------------------------

def _projective_count(q, k) -> int:
    """(q^k - 1) / (q - 1): nonzero vectors of F_q^k up to a scalar."""
    return (q ** k - 1) // (q - 1)


def _normalized_vectors(field, length):
    """Nonzero vectors with first nonzero coordinate 1, lexicographically."""
    for lead in range(length):
        for tail in itertools.product(range(field.q), repeat=length - lead - 1):
            yield (0,) * lead + (1,) + tail


DEFAULT_SCAN_GUARD = 1 << 24  # the words a distance scan visits unless told otherwise


def _scan_guard(field, k, guard) -> int:
    """(q^k - 1) / (q - 1), the words a scan of k rows visits, if `guard` allows."""
    if (needed := _projective_count(field.q, k)) > guard:
        raise GuardExceeded(f"{needed} codewords exceed the guard", progress={
            "phase": "distance", "needed": needed, "guard": guard})
    return needed


def _min_distance(field, rows, guard, width=None) -> int:
    """Least rank, or Hamming weight, of a nonzero combination of `rows`.

    `rows` are independent vectors.  With `width`, each combination is read
    as a row-major matrix with rows of that width and its rank is taken;
    without, its number of nonzero entries.  One word per scalar class is
    scanned, (q^k - 1) / (q - 1) of them; more than `guard` raises
    GuardExceeded with `progress = {"phase": "distance", "needed", "guard"}`
    before any work (`_scan_guard`).  `gf._backend` picks the backend.
    """
    k = len(rows)
    needed = _scan_guard(field, k, guard)
    size = len(rows[0])
    # on lists a word is a fold of k rows, then one pass of its entries, or a
    # rank by an echelon of rows `width` wide: about size (k + width) multiply-adds
    if _backend(field, "scan", needed, k, needed * size * (k + (width or 1))) != "lists":
        return _min_distance_np(field, rows, width)
    best = size
    for coeffs in _normalized_vectors(field, k):
        word = _combine(field, coeffs, rows, size)
        if width is None:
            stat = sum(map(bool, word))
        else:
            stat = Echelon(field, width, [word[i:i + width]
                                          for i in range(0, size, width)]).rank
        if stat < best:
            best = stat
            if best == 1:
                break
    return best


def _min_distance_np(field, rows, width):
    """`_min_distance` in int64 batches: for each lead row l, the words B_l -
    c B_(l+1:) for all c are those with coefficient 1 at l and 0 before it."""
    import numpy as np
    arith, q = field._int64, field.q
    basis = np.array(rows, dtype=np.int64)
    k, size = basis.shape
    chunk = max(1, (1 << 18) // size)  # words per batch
    best = size
    for lead in range(k):
        free = k - lead - 1
        total = q ** free
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            coeffs = np.zeros((idx.size, free), dtype=np.int64)
            for t in range(free):
                idx, coeffs[:, t] = np.divmod(idx, q)
            words = arith.residue(basis[lead, None], coeffs, basis[lead + 1:])
            stats = (np.count_nonzero(words, axis=1) if width is None
                     else _np_ranks(words.reshape(len(words), -1, width), field))
            best = min(best, int(stats.min()))
            if best == 1:
                return 1
    return best


def _np_ranks(W, field):
    """The rank of each matrix of an int64 batch of encodings over `field`.

    Fraction-free elimination: a pivot a in column j, from a row not yet a
    pivot row, clears the column by r <- a r - r[j] (pivot row), which needs
    no inverse and over F_p no product above (p - 1)^2.  As a != 0 this
    keeps the span of the rows not yet used; used rows are never read again.
    """
    import numpy as np
    if W.shape[2] > W.shape[1]:  # eliminate along the shorter side
        W = W.transpose(0, 2, 1)
    B, n, m = W.shape
    batch = np.arange(B)
    used = np.zeros((B, n), dtype=bool)
    for j in range(m):
        col = W[:, :, j]
        eligible = (col != 0) & ~used
        piv = eligible.argmax(axis=1)
        has = eligible[batch, piv]
        used[batch[has], piv[has]] = True
        pivot = W[batch, piv]
        a = np.where(has, pivot[:, j], 1)
        W = field._int64.sub_scaled(W, col[:, :, None], pivot[:, None, :], a[:, None, None])
    return used.sum(axis=1)


def _unvectorize(field, vec, n, m) -> FqMatrix:
    """The n x m matrix of a row-major vector of valid encodings."""
    return FqMatrix._of(field, tuple(tuple(vec[i * m:(i + 1) * m]) for i in range(n)))


class MatrixSpace:
    """An F_q-subspace of n x m matrices with a canonical RREF basis.

    The space holds its canonical rows once, as `_rrows` in pivot order with
    their `_pivots`.  `basis` builds the matrices from those rows on each
    read, and residues, membership and coordinates reduce against an
    `Echelon` of the rows built for each call.
    """

    __slots__ = ("field", "n", "m", "_rrows", "_pivots")

    def __init__(self, field: Field, shape, matrices):
        self.field = field
        self.n, self.m = shape
        vecs = [self._vector(M) for M in matrices]
        self._rrows, self._pivots = Echelon(field, self.n * self.m, vecs).rref()

    @classmethod
    def _of(cls, field, shape, rows, pivots):
        """Wrap rows that are already the canonical RREF, in pivot order, with
        their pivots, the column of each row's leading entry."""
        S = object.__new__(cls)
        S.field = field
        S.n, S.m = shape
        S._rrows = rows
        S._pivots = pivots
        return S

    @classmethod
    def from_matrices(cls, matrices):
        mats = list(matrices)
        if not mats:
            raise ShapeMismatch("need at least one matrix to infer the shape")
        return cls(mats[0].field, mats[0].shape, mats)

    @classmethod
    def zero(cls, field, shape):
        return cls(field, shape, [])

    @classmethod
    def full(cls, field, shape):
        """All n x m matrices: the identity rows are the canonical RREF."""
        size = shape[0] * shape[1]
        return cls._of(field, shape, tuple((0,) * i + (1,) + (0,) * (size - 1 - i)
                                           for i in range(size)), tuple(range(size)))

    @property
    def dim(self) -> int:
        return len(self._rrows)

    @property
    def shape(self):
        return (self.n, self.m)

    def __eq__(self, other):
        return (isinstance(other, MatrixSpace) and self.field == other.field
                and self.shape == other.shape and self._rrows == other._rrows)

    def __hash__(self):
        return hash((self.field, self.shape, self._rrows))

    def __repr__(self):
        return f"MatrixSpace({self.n}x{self.m}, dim={self.dim})"

    @property
    def basis(self):
        """The canonical basis as matrices, built from the rows on each read."""
        return tuple(_unvectorize(self.field, r, self.n, self.m) for r in self._rrows)

    def _vector(self, A: FqMatrix):
        """The vectorization of A, a matrix of this space's field and shape."""
        if A.field != self.field:
            raise FieldMismatch("matrix over a different field than the space")
        if A.shape != self.shape:
            raise ShapeMismatch(f"{A.shape} matrix in a space of {self.shape} matrices")
        return A.vectorize()

    def _echelon(self):
        """A new `Echelon` of the canonical rows."""
        return Echelon(self.field, self.n * self.m, self._rrows)

    def reduce_vector(self, vec):
        """Residue of a coordinate vector modulo the space.  Each call reduces
        the space's rows again."""
        return self._echelon().reduce(vec)

    def contains(self, A: FqMatrix) -> bool:
        """Is A in the space?  Each call reduces the space's rows again."""
        vec = self._vector(A)
        return self._echelon().contains(vec)

    def coordinates(self, A: FqMatrix):
        """Coefficients of A in the canonical basis; None if not contained.
        Each call reduces the space's rows again."""
        vec = self._vector(A)
        return self._echelon().coords(vec)

    def dual_complement(self) -> "MatrixSpace":
        """Orthogonal complement under the trace bilinear form (`_dual`)."""
        return _dual(self.field, self.shape, [r[::-1] for r in self._rrows])

    def transform(self, L: FqMatrix, N: FqMatrix) -> "MatrixSpace":
        """The space {L B N : B in basis}; L and N must be invertible."""
        if not L.is_invertible() or not N.is_invertible():
            raise Singular("equivalence transforms need invertible factors")
        return MatrixSpace(self.field, (L.n, N.m),
                           [L @ B @ N for B in self.basis])

    def sum_with(self, other: "MatrixSpace") -> "MatrixSpace":
        if self.shape != other.shape or self.field != other.field:
            raise ShapeMismatch("sum of spaces with different ambient")
        return MatrixSpace._of(self.field, self.shape, *Echelon(
            self.field, self.n * self.m, self._rrows + other._rrows).rref())

    def intersect(self, other: "MatrixSpace") -> "MatrixSpace":
        """Intersection by Zassenhaus: echelon [u | u] and [w | 0] together.

        The rows whose pivot lies in the right half are [0 | x], and those x
        span the intersection.  The echelon is fully reduced, so the x rows,
        in pivot order, are already the intersection's canonical RREF.
        """
        if self.shape != other.shape or self.field != other.field:
            raise ShapeMismatch("intersection across ambients")
        size = self.n * self.m
        E = Echelon(self.field, 2 * size,
                    [u + u for u in self._rrows]
                    + [w + (0,) * size for w in other._rrows])
        rows, pivots = E.rref()
        k = sum(pc < size for pc in pivots)  # the left-half pivots come first
        return MatrixSpace._of(self.field, self.shape, tuple(r[size:] for r in rows[k:]),
                               tuple(pc - size for pc in pivots[k:]))

    def iter_elements(self, nonzero_only=False, projective=False):
        """All members as coefficient combinations of the canonical basis.

        With projective=True, one representative per scalar class (first
        nonzero coefficient normalized to 1).
        """
        F = self.field
        k = self.dim
        size = self.n * self.m

        def combine(coeffs):
            return _unvectorize(F, _combine(F, coeffs, self._rrows, size), self.n, self.m)

        if projective:
            yield from map(combine, _normalized_vectors(F, k))
            if not nonzero_only:
                yield FqMatrix.zeros(F, self.n, self.m)
            return
        for coeffs in itertools.product(range(F.q), repeat=k):
            if nonzero_only and not any(coeffs):
                continue
            yield combine(coeffs)


def _dual(field, shape, reversed_rows):
    """The trace-form orthogonal complement of a span of reversed n x m vectors.

    Only those rows are eliminated.  Reversed back, each row i of their
    echelon ends in a 1 at a column t_i where every other row is 0, so the
    null vector e_f - sum_i row_i[f] e_(t_i) of a free column f has its
    first nonzero at f (row_i[f] != 0 forces f < t_i): those vectors, by
    ascending f, are the canonical RREF, the free columns their pivots, and
    they are one array (-1 is the encoding p - 1 in every field).
    """
    import numpy as np
    width = shape[0] * shape[1]
    E = Echelon(field, width, reversed_rows)
    free = np.delete(np.arange(width), E._pivots)
    dtype = _backend(field, "array")
    R = np.array(E._rows, dtype=dtype).reshape(-1, width)  # in `E._pivots` order
    null = np.zeros((len(free), width), dtype=dtype)
    null[range(len(free)), free] = 1
    null[:, E._pivots] = field._int64.scaled(field.p - 1, R[:, free].T)
    return MatrixSpace._of(field, shape, tuple(map(tuple, null[::-1, ::-1].tolist())),
                           tuple((width - 1 - free[::-1]).tolist()))
