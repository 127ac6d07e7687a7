"""The in-process workloads: seeded inputs, one timed library call per item.

Each workload object holds the items of one pass.  `run` is the timed call;
`check` runs afterwards and compares the output with the answer known from
the inputs and with the independent checker in checker.py.  Library calls go
through module attributes (`rmcode.build_mtr`), so traced runs see them.
"""

import itertools
import json
import os
import random
import statistics
import time

import checker
import speed
from perfbase import construct, exactla, gf, rmcode, tensor3

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_REFERENCE = os.path.join(HERE, "oracle_reference.json")
DEFAULT_SEED = 1
CHUNKS = 10  # pass k draws its varying inputs from seeded chunk k mod CHUNKS


def rng_for(name, seed, *extra):
    return random.Random(":".join(str(x) for x in (name, seed) + extra))


def rows_of(A):
    return [list(r) for r in A.rows]


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def bottom_row(coeffs, p):
    """Companion bottom row of a monic polynomial given low to high."""
    return tuple((-c) % p for c in coeffs[:-1])


def rootless(rng, degree, p):
    """A random monic polynomial of the given degree with no root in F_p."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        if not checker.roots(coeffs, p):
            return coeffs


def from_roots(roots, p):
    coeffs = [1]
    for r in roots:
        coeffs = poly_mul(coeffs, [(-r) % p, 1], p)
    return coeffs


# --- mtr-sweep ------------------------------------------------------------------------


class MtrSweep:
    """Every admissible (q, n, m, k, d) for q in {5, 7} and n, m <= 4.

    Each item builds a code meeting the tensor-rank bound, scans its distance
    and re-verifies its witness.  The seed permutes the order.
    """

    name = "mtr-sweep"

    def __init__(self, seed, pass_index):
        items = [(q, n, m, k, d)
                 for q in (5, 7) for n in range(1, 5) for m in range(1, 5)
                 for k in range(1, m + 1) for d in range(1, min(n, m) + 1)
                 if q >= m + d - 2]
        rng_for(self.name, seed).shuffle(items)
        self.items = items

    def label(self, item):
        return "mtr q=%d n=%d m=%d k=%d d=%d" % item

    def run(self, item):
        code, witness = rmcode.build_mtr(*item)
        return code, witness, code.distance(), tensor3.verify_base(witness)

    def check(self, item, out):
        q, n, m, k, d = item
        code, witness, dist, report = out
        if (code.k, dist, len(witness.matrices)) != (k, d, k + d - 1):
            return [f"got k={code.k} d={dist} witness={len(witness.matrices)}"]
        if not report.passed:
            return ["library report failed"]
        basis = [rows_of(B) for B in code.space.basis]
        if checker.rank([checker.flat(B) for B in basis], q) != k:
            return ["checker: code dimension differs from k"]
        if checker.min_rank(basis, q) != d:
            return ["checker: code distance differs from d"]
        return checker.check_base([rows_of(A) for A in witness.matrices],
                                  [checker.flat(B) for B in basis], q)


# --- construct-sweep ------------------------------------------------------------------

SQUARE = [(m, m // 2) for m in range(6, 15)]            # (m, s) over F_13
RECT = [(m, (m + 1) // 2, m // 3) for m in range(6, 16)]  # (m, n, s) over F_13


class ConstructSweep:
    """Dual-power bases over F_13 for m = 6..14 plus the specialty families over F_7.

    The (m, n, s) schedule is fixed, with the default gamma sets, so every
    seed does about the same amount of elimination.  Each pass draws its own
    companion bottom rows and specialty specs from the seed (chunk k mod
    CHUNKS for pass k), and its own order.  Bottom rows have no zero entry:
    zeros make an instance's elimination up to a fifth cheaper, which moved
    the tail with the seed.  A pass has an even number of items, 32, so the
    median falls between the 16th and 17th cheapest, the m=6 square and the
    m=9 rectangle, whose order changes with the seed.
    """

    name = "construct-sweep"

    def __init__(self, seed, pass_index):
        # items are (kind, library arguments, expected size, (target function,
        # its arguments)); the checker derives the target after the timed phase
        rng = rng_for(self.name, seed, pass_index % CHUNKS)
        F13, F7 = gf.field_make(13), gf.field_make(7)
        items = []

        def spec13(m):
            bottom = tuple(rng.randrange(1, 13) for _ in range(m))
            return construct.CompanionSpec(F13, m, bottom)

        for m, s in SQUARE:
            spec = spec13(m)
            items.append(("dual-powers", (spec, s), m * m - s,
                          (checker.power_span_dual, spec.bottom, s, m, 13)))
        for m, n, s in RECT:
            spec = spec13(m)
            items.append(("dual-powers-rect", (spec, n, s), n * m - s,
                          (checker.power_span_dual, spec.bottom, s, n, 13)))
        items.extend(self._specialty(rng, F7))
        rng.shuffle(items)
        self.items = items

    @staticmethod
    def _specialty(rng, F7):
        """Inverse-family, rect-small-n, singular and Atkinson instances over F_7.

        Expected sizes follow the constructions: the inverse family has m,
        m+1 or m+2 members for a rootless cofactor of degree 0, 2 or 3; the
        n-row family has m when split and m+1 for n=2 or a quadratic
        cofactor; singular companions give m^2-s; the pencil n^2+n-2.
        """
        p = 7
        out = []

        def spec(coeffs):
            return construct.CompanionSpec(F7, len(coeffs) - 1, bottom_row(coeffs, p))

        def inverse_target(coeffs, extras=()):
            C = checker.companion(bottom_row(coeffs, p), p)
            mats = [checker.identity(len(C)), C, checker.inverse(C, p)]
            mats += [checker.power(C, e, p) for e in extras]
            return [checker.flat(A) for A in mats]

        def rect_target(coeffs, n):
            C = checker.companion(bottom_row(coeffs, p), p)
            m = len(C)
            Y = checker.identity(m)[:n]
            mats = [checker.matmul(Y, checker.inverse(C, p), p)]
            mats += [checker.matmul(Y, checker.power(C, e, p), p) for e in range(m - 1)]
            return [checker.flat(A) for A in mats]

        split = from_roots(rng.sample(range(1, 7), 5), p)
        quad = poly_mul(from_roots(rng.sample(range(1, 7), 2), p), rootless(rng, 2, p), p)
        cubic = poly_mul(from_roots(rng.sample(range(1, 7), 2), p), rootless(rng, 3, p), p)
        out.append(("inverse-family", (spec(split), ()), 5, (inverse_target, split)))
        out.append(("inverse-family", (spec(quad), (2, -2)), 5,
                    (inverse_target, quad, (2, -2))))
        out.append(("inverse-family", (spec(cubic), ()), 7, (inverse_target, cubic)))
        for n in (2, 3):
            out.append(("rect-small-n", (spec(quad), n), 5, (rect_target, quad, n)))
            out.append(("rect-small-n", (spec(split), n), 5, (rect_target, split, n)))
        for m, s in ((4, 2), (5, 3)):
            bottom = (0, rng.randrange(1, 7)) + tuple(rng.randrange(7) for _ in range(m - 2))
            out.append(("singular", (construct.CompanionSpec(F7, m, bottom), s),
                        m * m - s, (checker.power_span_dual, bottom, s, m, p)))
        for n in (2, 3, 4, 7):
            bottom = (1,) + (0,) * n
            out.append(("atkinson", (n, F7), n * n + n - 2,
                        (checker.power_span_dual, bottom, 2, n, p)))
        return out

    CALLS = {
        "dual-powers": "base_dual_powers",
        "dual-powers-rect": "base_dual_powers_rect",
        "inverse-family": "base_inverse_family",
        "rect-small-n": "base_rect_small_n",
        "singular": "base_singular",
        "atkinson": "atkinson_base",
    }

    def label(self, item):
        kind, args, size, _ = item
        return f"{kind} size={size}"

    def run(self, item):
        kind, args, _, _ = item
        return getattr(construct, self.CALLS[kind])(*args)

    def check(self, item, result):
        kind, args, size, (target_fn, *target_args) = item
        if result.candidate.size != size:
            return [f"{kind}: {result.candidate.size} members, expected {size}"]
        if not result.report.passed:
            return [f"{kind}: library report failed"]
        p = result.candidate.target.field.p
        return checker.check_base([rows_of(A) for A in result.candidate.matrices],
                                  target_fn(*target_args), p)


# --- oracle ---------------------------------------------------------------------------


def planted_subspace(rng, dim, rank):
    """A seeded dim-subspace of 3x3 matrices over F_3 with tensor rank `rank`.

    It is a random subspace of the span of `rank` random independent
    rank-one matrices, so its tensor rank is at most `rank`; it is kept only
    if its Kruskal bound dim + d - 1 (d its minimum rank) equals `rank`,
    which makes the rank exact.  Returns the basis matrices.
    """
    p = n = 3

    def rank_one():
        while True:
            x = [rng.randrange(p) for _ in range(n)]
            y = [rng.randrange(p) for _ in range(n)]
            if any(x) and any(y):
                return [[a * b % p for b in y] for a in x]

    while True:
        members = [rank_one() for _ in range(rank)]
        if checker.rank([checker.flat(A) for A in members], p) != rank:
            continue
        mats = []
        for _ in range(dim):
            coeffs = [rng.randrange(p) for _ in range(rank)]
            mats.append([[sum(c * A[i][j] for c, A in zip(coeffs, members)) % p
                          for j in range(n)] for i in range(n)])
        if (checker.rank([checker.flat(A) for A in mats], p) == dim
                and dim + checker.min_rank(mats, p) - 1 == rank):
            return mats


class Oracle:
    """Exact tensor rank by exhaustive search on tiny matrix spaces.

    Every pass runs all 35 companion pencils <I, C(f)> of cubics over F_2 and
    F_3.  Each pass also takes its own seeded chunk: two 2x2 pencils over
    each of F_3, F_5 and F_7, and a planted 2-dim and 3-dim subspace of 3x3
    matrices over F_3 (tensor rank 3 and 4).  Planting keeps the search cost
    of the random items bounded: a random subspace whose rank exceeds its
    Kruskal bound makes the search exhaust a whole level first, costs up to
    a second, and made the tail depend on the seed.  Two pencils per field
    keep the median item inside the dense band of 3x3 pencil costs.
    """

    name = "oracle"

    def __init__(self, seed, pass_index):
        chunk = pass_index % CHUNKS
        rng = rng_for(self.name, seed, chunk)
        fields = {p: gf.field_make(p) for p in (2, 3, 5, 7)}
        specs = []
        for p in (2, 3):
            for bottom in itertools.product(range(p), repeat=3):
                C = checker.companion(bottom, p)
                specs.append((f"companion/F{p}/{bottom}", p, [checker.identity(3), C], None))
        for p in (3, 5, 7):
            for a1, a2 in rng.sample(list(itertools.product(range(p), repeat=2)), 2):
                specs.append((f"pencil/F{p}/{a1},{a2}", p,
                              [checker.identity(2), [[0, 1], [a1, a2]]], None))
        for dim in (2, 3):
            specs.append((f"subspace/{chunk}/dim{dim}", 3,
                          planted_subspace(rng, dim, dim + 1), dim + 1))
        rng.shuffle(specs)
        self.items = []
        for key, p, mats, planted in specs:
            F = fields[p]
            n = len(mats[0])
            V = exactla.MatrixSpace(F, (n, n), [exactla.FqMatrix(F, A) for A in mats])
            self.items.append((key, p, mats, planted, V))
        self.seed = seed
        self.reference = None

    def label(self, item):
        return item[0]

    def run(self, item):
        return tensor3.exhaustive_trk(item[4])

    def check(self, item, out):
        key, p, mats, planted, _ = item
        trk, witness = out
        wit = [rows_of(A) for A in witness.matrices]
        if len(wit) != trk:
            return [f"{key}: witness size {len(wit)} != trk {trk}"]
        problems = checker.check_base(wit, [checker.flat(A) for A in mats], p)
        if problems:
            return [f"{key}: {problems[0]}"]
        dim = checker.rank([checker.flat(A) for A in mats], p)
        if trk < dim + checker.min_rank(mats, p) - 1:
            return [f"{key}: trk {trk} below the Kruskal bound"]
        if planted is not None and trk != planted:
            return [f"{key}: trk {trk}, the planted rank is {planted}"]
        if key.startswith("pencil/"):
            a1, a2 = mats[1][1]
            # characteristic polynomial x^2 - a2 x - a1
            expected = 2 if len(checker.roots([-a1, -a2, 1], p)) == 2 else 3
            if trk != expected:
                return [f"{key}: trk {trk}, the eigenvalue dichotomy gives {expected}"]
        if self.seed == DEFAULT_SEED and self.reference is None:
            with open(ORACLE_REFERENCE) as fh:
                self.reference = json.load(fh)
        if self.reference is not None and self.reference.get(key) != [trk, wit]:
            return [f"{key}: (trk, witness) differs from the committed reference"]
        return []


IN_PROCESS = {w.name: w for w in (MtrSweep, ConstructSweep, Oracle)}


# --- gf microbenchmark ----------------------------------------------------------------

MICRO = [  # metric name, (p, deg), operation
    ("gf.mul_per_s.prime", (13, 1), "mul"),
    ("gf.mul_per_s.tabled", (5, 3), "mul"),
    ("gf.mul_per_s.large", (7, 4), "mul"),
    ("gf.add_per_s.large", (7, 4), "add"),
    ("gf.inv_per_s.large", (7, 4), "inv"),
]
MICRO_PAIRS = 2000
MICRO_SECONDS = 0.05
MICRO_REPEATS = 5


def gf_rates(seed):
    """Field operations per second on seeded operands, at the reference speed.

    Each of MICRO_REPEATS repeats runs the operation over MICRO_PAIRS operand
    pairs until MICRO_SECONDS have passed; the rate is scaled by speed
    samples taken around it, and the median of the repeats is reported.
    """
    rng = rng_for("gf-micro", seed)
    rates = {}
    for name, (p, deg), op in MICRO:
        F = gf.field_make(p, deg)
        args = [(rng.randrange(1, F.q), rng.randrange(1, F.q))
                for _ in range(MICRO_PAIRS)]
        fn = getattr(F, op)
        F.mul(1, 1)  # builds the lookup tables of small extension fields
        samples = []
        for _ in range(MICRO_REPEATS):
            before = speed.sample()
            ops = 0
            t0 = time.perf_counter()
            while True:
                if op == "inv":
                    for a, _ in args:
                        fn(a)
                else:
                    for a, b in args:
                        fn(a, b)
                ops += MICRO_PAIRS
                elapsed = time.perf_counter() - t0
                if elapsed >= MICRO_SECONDS:
                    break
            samples.append(ops / speed.scale(elapsed, before, speed.sample()))
        rates[name] = statistics.median(samples)
    return rates
