"""Independent prime-field checker for benchmark outputs.

Works on plain integer matrices (lists of rows) over F_p and imports nothing
from perfbase, so a defect in the library's own linear algebra cannot make a
wrong output look right.  Rank-one-ness is decided by 2x2 minors;
independence, containment and ranks by a separate mod-p elimination.

Every check returns a list of problem strings; an empty list means the output
is correct.
"""

import itertools


def flat(A):
    return [v for row in A for v in row]


def nonzero_minor(A, p):
    """(i, i2, j, j2) of the first nonzero 2x2 minor of A, or None."""
    n, m = len(A), len(A[0])
    for i, i2 in itertools.combinations(range(n), 2):
        for j, j2 in itertools.combinations(range(m), 2):
            if (A[i][j] * A[i2][j2] - A[i][j2] * A[i2][j]) % p:
                return (i, i2, j, j2)
    return None


def is_rank_one(A, p):
    return any(v % p for v in flat(A)) and nonzero_minor(A, p) is None


class Echelon:
    """Incrementally reduced row basis over F_p, keyed by pivot column."""

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot column -> row normalised to 1 at the pivot

    def reduce(self, vec):
        p = self.p
        vec = [v % p for v in vec]
        for col, row in self.rows.items():
            c = vec[col]
            if c:
                vec = [(a - c * b) % p for a, b in zip(vec, row)]
        return vec

    def add(self, vec):
        """Insert vec; return False if it was already in the span."""
        p = self.p
        vec = self.reduce(vec)
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            return False
        inv = pow(vec[lead], p - 2, p)
        vec = [(v * inv) % p for v in vec]
        for col, row in self.rows.items():
            c = row[lead]
            if c:
                self.rows[col] = [(a - c * b) % p for a, b in zip(row, vec)]
        self.rows[lead] = vec
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    @property
    def rank(self):
        return len(self.rows)


def rank(vectors, p):
    ech = Echelon(p)
    for v in vectors:
        ech.add(v)
    return ech.rank


def matmul(A, B, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
            for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def companion(bottom, p):
    """Ones on the superdiagonal over the bottom row (a_1, ..., a_m)."""
    m = len(bottom)
    rows = [[1 if j == i + 1 else 0 for j in range(m)] for i in range(m - 1)]
    return rows + [[a % p for a in bottom]]


def inverse(A, p):
    """Inverse by Gauss-Jordan on [A | I]; None if A is singular."""
    n = len(A)
    aug = [list(row) + e for row, e in zip(A, identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [(v * inv) % p for v in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def power(A, e, p):
    if e < 0:
        A, e = inverse(A, p), -e
    out = identity(len(A))
    for _ in range(e):
        out = matmul(out, A, p)
    return out


def orthogonal_complement(vectors, width, p):
    """Basis of {x : x . v = 0 for every v} under the dot product mod p."""
    ech = Echelon(p)
    for v in vectors:
        ech.add(v)
    pivots = set(ech.rows)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        x = [0] * width
        x[free] = 1
        for col, row in ech.rows.items():
            x[col] = (-row[free]) % p
        basis.append(x)
    return basis


def power_span_dual(bottom, s, nrows, p):
    """Vectorised basis of the dual of span{Y C^r : r < s}, Y = first nrows rows."""
    C = companion(bottom, p)
    m = len(bottom)
    cur = identity(m)[:nrows]
    slices = []
    for _ in range(s):
        slices.append(flat(cur))
        cur = matmul(cur, C, p)
    return orthogonal_complement(slices, nrows * m, p)


def min_rank(basis, p):
    """Minimum rank over nonzero members of the span of the given matrices."""
    n, m = len(basis[0]), len(basis[0][0])
    vecs = [flat(B) for B in basis]
    best = None
    k = len(vecs)
    for lead in range(k):
        for rest in itertools.product(range(p), repeat=k - lead - 1):
            coeffs = (1,) + rest
            word = [sum(c * v[i] for c, v in zip(coeffs, vecs[lead:])) % p
                    for i in range(n * m)]
            r = rank([word[i * m:(i + 1) * m] for i in range(n)], p)
            if best is None or r < best:
                best = r
                if best == 1:
                    return best
    return best


def check_base(members, target, p):
    """A perfect base: rank-one members, independent, span contains target.

    members are matrices; target is a list of vectorised matrices.
    """
    problems = []
    for i, A in enumerate(members):
        if not is_rank_one(A, p):
            problems.append(f"member {i} is not rank one")
            break
    ech = Echelon(p)
    for i, A in enumerate(members):
        if not ech.add(flat(A)):
            problems.append(f"member {i} is dependent on earlier members")
            break
    for j, t in enumerate(target):
        if not ech.contains(t):
            problems.append(f"target vector {j} lies outside the span")
            break
    return problems


def roots(coeffs, p):
    """Roots in F_p of the polynomial with coefficients low to high."""
    return [x for x in range(p)
            if sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0]


def tamper(A, p, rng):
    """Copy of a rank-one A with one entry changed so a 2x2 minor is nonzero.

    Picks a nonzero anchor (i2, j2) and changes entry (i, j) with i != i2,
    j != j2 by a nonzero delta: the minor on rows {i, i2} and columns
    {j, j2} was zero and becomes delta * A[i2][j2].
    """
    n, m = len(A), len(A[0])
    anchors = [(i, j) for i in range(n) for j in range(m) if A[i][j] % p]
    i2, j2 = rng.choice(anchors)
    i = rng.choice([r for r in range(n) if r != i2])
    j = rng.choice([c for c in range(m) if c != j2])
    B = [list(row) for row in A]
    B[i][j] = (B[i][j] + rng.randrange(1, p)) % p
    if nonzero_minor(B, p) is None:
        raise RuntimeError("tampering failed to create a nonzero minor")
    return B
