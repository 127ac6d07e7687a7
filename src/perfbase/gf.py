"""Exact arithmetic in prime fields F_p and extension fields F_{p^deg}.

Elements are stored by their canonical integer encoding: an element with
coefficient vector (c_0, ..., c_{deg-1}) over F_p (with respect to the power
basis of the modulus root) encodes to sum(c_i * p**i).  The encoding order is
the canonical element order used for every "smallest"/tie-breaking rule in
the rest of the package.

`field_make` builds each field once per process: it memoises one Field per
normalised (p, deg, modulus), so the irreducible search, the primitive
element and the arithmetic tables are paid for once however often a field
is asked for.  Each kind of field has one arithmetic path.  Prime fields
work with machine integers mod p.  Extension fields walk the powers of the
primitive element g once, at construction, to build log, antilog and Zech
tables: multiply and invert add or negate logs, and a + b =
g^(la + zech[lb - la]) with zech[i] = log(1 + g^i) (Lidl and Niederreiter,
*Finite Fields*).  The modulus search and the primitive element work on
plain ints mod p, with `_poly_mulmod` as the one polynomial multiply; the
walk takes g e for every e from one numpy array product.  Tables take O(q)
memory, so extension fields stop at 2^16 elements: F_{2^16} takes
0.10-0.17 s on an Intel Xeon (0.06 s of it the irreducible search, which
doubles in time with each degree over F_2) and 10.5 MB of tables (by
tracemalloc; the lists share their ints), and a larger field is refused
before any search.

This module is the one home of the tables and of their int64 array form,
`_Int64Field`, built once per Field with its tables as `Field._int64` (its
read-only `inverses` lazily, on first use): the arithmetic of `exactla`'s
numpy `Echelon`, its batched distance scan, `verify_base`'s rank-one batch,
the oracle's residue tables and `construct`'s power-family members.  No
other module reads the tables.  `_backend`, the one backend rule, makes
every choice between Python lists and int64, float64 or object arrays.
numpy is imported on first use: by `_backend`, on its first array answer,
and by an extension field's table build.  Prime fields and list work need
none of it.

`Field.encode` is the package's one rule for turning a scalar into an
encoding, and every entry point that takes a scalar goes through it.

Field and FieldElement are immutable after construction; all operations are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys

from .errors import (
    DegreeMismatch,
    FieldMismatch,
    NotASubfield,
    NotIrreducible,
    NotPrime,
    ParametersOutOfRange,
)

# Fields are defined for p below this bound; certificates and oracle inputs
# are untrusted, so a larger p is refused before any arithmetic.
_P_LIMIT = 1 << 64

# `poly_roots` evaluates f at every element, so it refuses a larger field;
# at p = 1000003, below this, it takes about 4-5 s (Intel Xeon, Python 3.11).
_ROOTS_LIMIT = 1 << 20

# The prime bases 2..37 make Miller-Rabin exact for every n below
# 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 2017), far above _P_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """An exact finite field F_{p^deg} with a fixed monic irreducible modulus."""

    __slots__ = ("p", "deg", "q", "modulus", "_log", "_antilog", "_zech", "_int64")

    def __init__(self, p: int, deg: int = 1, modulus=None):
        if p >= _P_LIMIT:
            raise ParametersOutOfRange(f"p = {p} is not below 2^64")
        # the degree first, so p ** deg is never formed for a huge degree
        if deg > 16 or (deg >= 2 and p ** deg > 1 << 16):
            raise ParametersOutOfRange(
                f"extension field {p}^{deg} exceeds 2^16 elements")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if deg < 1:
            raise DegreeMismatch("degree must be >= 1")
        self.p = p
        self.deg = deg
        self.q = p ** deg
        if deg == 1:
            if modulus is not None:
                raise DegreeMismatch("prime fields take no modulus")
            self.modulus = ()
        else:
            if modulus is None:
                coeffs = _smallest_irreducible(p, deg)
            else:
                coeffs = tuple(operator.index(c) % p for c in modulus)
                if len(coeffs) != deg + 1 or coeffs[-1] != 1:
                    raise DegreeMismatch(
                        f"modulus must be monic of degree {deg}")
                if not _poly_is_irreducible(coeffs, p):
                    raise NotIrreducible(
                        f"modulus {coeffs} is reducible over F_{p}")
            self.modulus = coeffs
        self._int64 = self._build_tables() if deg > 1 else _Int64Field(self)

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.p == other.p and self.deg == other.deg
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.deg, self.modulus))

    def __repr__(self):
        if self.deg == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.deg})"

    # -- encodings ------------------------------------------------------------

    def coeffs_of(self, enc: int):
        """Coefficient vector (c_0, ..., c_{deg-1}) of an encoding."""
        p = self.p
        out = []
        for _ in range(self.deg):
            enc, c = divmod(enc, p)
            out.append(c)
        return tuple(out)

    def enc_of(self, coeffs) -> int:
        enc = 0
        for c in reversed(tuple(coeffs)):
            enc = enc * self.p + operator.index(c) % self.p
        return enc

    def encode(self, value) -> int:
        """The encoding of a scalar: the package's one coercion rule.

        An element of this field gives its encoding and one of another field
        raises FieldMismatch; an int (numpy integers included) is reduced mod
        q; a float, a string or any other type raises TypeError.
        """
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch("element belongs to a different field")
            return value.enc
        return operator.index(value) % self.q

    def element(self, value) -> "FieldElement":
        """Wrap a scalar (by `encode`) or a coefficient sequence as an element."""
        if isinstance(value, (tuple, list)):
            return FieldElement(self, self.enc_of(value))
        return FieldElement(self, self.encode(value))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        """All elements in canonical (encoding) order."""
        return (FieldElement(self, e) for e in range(self.q))

    # -- arithmetic on encodings ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.deg == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        return self._antilog[la + self._zech[log[b] - la]]

    def neg(self, a: int) -> int:
        if self.deg == 1:
            return (-a) % self.p
        return self.mul(a, self.p - 1)  # -1 encodes as p - 1

    def sub(self, a: int, b: int) -> int:
        if self.deg == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.deg == 1:
            return (a * b) % self.p
        log = self._log
        return self._antilog[log[a] + log[b]]

    def scale(self, c: int, vec) -> list:
        """c * vec, entrywise, as a list."""
        if self.deg == 1:
            p = self.p
            return [c * a % p for a in vec]
        mul = self.mul
        return [mul(c, a) for a in vec]

    def sub_scaled(self, vec, c: int, row) -> list:
        """vec - c * row, entrywise, as a list: the row update of elimination.

        In an extension field log(-c) is looked up once; then an entry with
        both terms nonzero costs one Zech and one antilog lookup, as in `add`.
        """
        if self.deg == 1:
            p = self.p
            return [(a - c * b) % p for a, b in zip(vec, row)]
        if not c:
            return list(vec)
        log, antilog, zech, order = self._log, self._antilog, self._zech, self.q - 1
        ln = log[self.neg(c)]
        return [(antilog[(la := log[a]) + zech[(ln + log[b] - la) % order]]
                 if a else antilog[ln + log[b]]) if b else a
                for a, b in zip(vec, row)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.deg == 1:
            return pow(a, self.p - 2, self.p)
        return self._antilog[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(self.mul, a, e)

    def _build_tables(self):
        """Log, antilog and Zech tables from the powers of the primitive
        element: lists for the scalar methods and the int64 form it returns.

        antilog has length 4(q-1) + 1: two periods of g^i, so a sum of two
        logs needs no reduction, then zeros from 2(q-1) through 4(q-1).
        log[0] is 2(q-1), so a product with a zero factor lands in the zeros
        and `mul` needs no branch; where 1 + g^i = 0, zech[i] is log[0] too,
        so `add` gives a + (-a) = 0 without one.

        Multiplying by g is F_p-linear, so the base-p digit rows of all q
        encodings, times the deg x deg matrix whose row j is g x^j, give g e
        for every e in one array product; the walk follows that list from 1.
        """
        import numpy as np
        p, deg, q = self.p, self.deg, self.q
        order = q - 1
        tail = [(-c) % p for c in self.modulus[:-1]]  # x^deg, reduced mod f
        one = [1] + [0] * (deg - 1)
        # the elements of F_p, encoded below p, have orders dividing p - 1
        g = _least_primitive(
            q, p, lambda a, e: _poly_powmod(self.coeffs_of(a), e, tail, p) == one)
        times_g = np.array([_poly_mulmod(self.coeffs_of(g), self.coeffs_of(p ** j), tail, p)
                            for j in range(deg)], dtype=np.int64)
        place = p ** np.arange(deg, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // place % p
        successor = ((digits @ times_g % p) @ place).tolist()
        walk, x = [], 1
        for _ in range(order):
            walk.append(x)
            x = successor[x]
        self._antilog = walk + walk + [0] * (2 * order + 1)
        walk = np.array(walk, dtype=np.int64)
        log = np.full(q, 2 * order, dtype=np.int64)
        log[walk] = np.arange(order)
        # 1 + x adds 1 to the constant coefficient, the lowest base-p digit
        one_plus = np.where(walk % p == p - 1, walk + 1 - p, walk + 1)
        zech = log[one_plus]
        antilog = np.concatenate((walk, walk, np.zeros(2 * order + 1, dtype=np.int64)))
        # log(-a) = log(a) + log(-1) for a != 0, and -1 encodes as p - 1
        lneg = np.where(log < order, (log + log[p - 1]) % order, log)
        for table in (log, antilog, zech, lneg):  # shared by every caller
            table.flags.writeable = False
        # the lists share their ints: antilog's are the walk's, zech's are log's
        self._log = log.tolist()
        self._zech = list(map(self._log.__getitem__, one_plus.tolist()))
        return _Int64Field(self, log, antilog, zech, lneg)


# --- the backend rule -------------------------------------------------------------
#
# Floors from the tables `scripts/calibrate.py` prints (Intel Xeon, Python 3.11,
# numpy 2.4, one OpenBLAS thread).  Over F_13 they cross lower, for echelons at
# 12 wide and scans at 8 words; the floors stay until end-to-end runs show that
# narrow spans gain.  They do not at 12 wide: `mtr-sweep`, which makes many
# narrow echelons, ran 19 % fewer items/s (5 of 5 pairs) and its median item
# took 46 % longer.  One echelon floor for every field: at 20 wide int64 takes
# 0.3x the list time over F_13, 0.8x over F_{7^4}, 1.4x over F_4 (1.0x at 28).
_ECHELON_MIN_WIDTH = 20  # `Echelon` rows this wide run on int64, not lists, over any field
_SCAN_MIN_WORDS = 16  # distance scans of this many words run in int64 batches
_FLOAT64_MIN_WORK = 2048  # F_p residues of b r w multiply-adds use float64, not int64
# Before numpy is loaded, an echelon or scan of less list work than this, in
# multiply-adds, stays on lists: importing numpy takes 0.12-0.19 s cold, a
# dense square list echelon 72-132 ns a multiply-add (width^3 of them) at 64-192
# wide over F_5, F_13, F_4 and F_49, and a list rank scan 115-360 ns (Intel Xeon,
# Python 3.11, numpy 2.4).  So an echelon stays on lists up to 101 wide.
_NUMPY_IMPORT_WORK = 1 << 20


def _backend(field, op, size=0, terms=1, work=0):
    """"lists", or the dtype of the arrays that `op` computes with over `field`.

    `size` is the width of an "echelon", the words of a "scan" or the
    multiply-adds of a "residue"; an "array" built for products has none.
    `terms` is the longest sum of products of two entries below p that `op`
    forms.  int64 holds it when (p - 1)^2 terms < 2^63, else arrays hold
    Python ints (object); gathers over F_{p^k}, where p < 2^8, form none.
    float64 holds it when (p - 1)^2 terms < 2^53, as every partial sum is then
    an integer below 2^53, exact in any order, with or without FMA (Dumas,
    Gautier and Pernet, "Finite field linear algebra subroutines", ISSAC 2002).

    numpy is imported here, on the first answer that is an array dtype.  Until
    then an echelon or scan past its floor and within the int64 bound stays
    on lists while its list work, size^2 terms for an "echelon" and `work`
    for a "scan", is below `_NUMPY_IMPORT_WORK`; so a small `perfbase verify`
    never loads numpy.
    """
    if op == "echelon":  # the most frequent question, and mostly on narrow rows
        if size < _ECHELON_MIN_WIDTH or (field.p - 1) ** 2 * terms >= 1 << 63:
            return "lists"
        work = size * size * terms  # a square elimination
    elif op == "scan" and (size < _SCAN_MIN_WORDS or (field.p - 1) ** 2 * terms >= 1 << 63):
        return "lists"
    either = op in ("echelon", "scan")  # the ops that may stay on lists
    np = sys.modules.get("numpy")  # None until some caller has imported numpy
    if np is None:
        if either and work < _NUMPY_IMPORT_WORK:
            return "lists"
        import numpy as np
    if either:
        return np.int64
    top = (field.p - 1) ** 2 * terms
    if op == "residue" and field.deg == 1 and size >= _FLOAT64_MIN_WORK and top < 1 << 53:
        return np.float64
    return np.int64 if top < 1 << 63 else object


class _Int64Field:
    """A field's arithmetic on int64 arrays of encodings: products mod p over
    F_p, within `_backend`'s int64 bound, and gathers from the tables over
    F_{p^k}, where a zero factor gives a zero product without a branch."""

    def __init__(self, field, *tables):
        """Over F_{p^k}, `tables` are the log, antilog, Zech and log(-a)
        arrays that `Field._build_tables` makes; over F_p there are none."""
        self.field, self.q = field, field.q
        if tables:
            self.log, self.antilog, self.zech, self.lneg = tables

    def scaled(self, c, T):
        """c * T, entrywise; c broadcasts against T."""
        if self.field.deg == 1:
            return c * T % self.q
        return self.antilog[self.log[c] + self.log[T]]

    def sub_scaled(self, T, c, row, a=None):
        """T - c * row, or a * T - c * row with a: the rank-one update of
        elimination.  c * row has the shape of the result."""
        if self.field.deg == 1:
            out = (T if a is None else a * T) - c * row
            out %= self.q
            return out
        import numpy as np
        if a is not None:
            T = self.scaled(a, T)
        lp = self.lneg[c] + self.log[row]  # log(-c * row)
        prod, la = self.antilog[lp], self.log[T]
        both = self.antilog[la + self.zech[(lp - la) % (self.q - 1)]]
        return np.where(T == 0, prod, np.where(prod == 0, T, both))

    def residue(self, T, C, R):
        """T - C R, the residue of T modulo fully reduced rows R when C holds
        T's entries at their pivots: a product over F_p, in the dtype
        `_backend` names, and a fold over F_{p^k}."""
        if self.field.deg == 1:
            import numpy as np
            if _backend(self.field, "residue", C.size * R.shape[-1], R.shape[-2]) is np.float64:
                P = (C.astype(np.float64) @ R.astype(np.float64)).astype(np.int64)
            else:
                P = C @ R
            return (T - P) % self.q
        for j, row in enumerate(R):
            T = self.sub_scaled(T, C[..., j, None], row)
        return T

    def inv(self, a):
        """a^(q-2), entrywise: 1/a for a != 0."""
        import numpy as np
        return _power(self.scaled, a, self.q - 2, np.ones_like(a))

    @functools.cached_property
    def inverses(self):
        """`inv` of every encoding, read-only: built on first use, once."""
        import numpy as np
        table = self.inv(np.arange(self.q, dtype=np.int64))
        table.flags.writeable = False
        return table


class FieldElement:
    """A single element of a Field, identified by its canonical encoding."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: int):
        self.field = field
        self.enc = enc

    @property
    def coeffs(self):
        return self.field.coeffs_of(self.enc)

    def __int__(self):
        return self.enc

    def __repr__(self):
        return f"{self.field!r}:{self.enc}"

    def __eq__(self, other):
        """Equal to an element or int that `Field.encode` maps to self.enc."""
        if isinstance(other, FieldElement) and other.field != self.field:
            return False
        try:
            return self.enc == self.field.encode(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.enc))

    def __bool__(self):
        return self.enc != 0

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.enc, self.field.encode(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.enc, self.field.encode(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self.field.encode(other), self.enc))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.enc))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.enc, self.field.encode(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(
            self.field,
            self.field.mul(self.enc, self.field.inv(self.field.encode(other))))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.enc, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.enc))


class FqPolynomial:
    """Univariate polynomial over a Field; coefficients low to high.

    Trailing zeros are trimmed at construction; the zero polynomial has
    degree -1 by convention.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        encs = list(map(field.encode, coeffs))
        while encs and encs[-1] == 0:
            encs.pop()
        self.field = field
        self.coeffs = tuple(encs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def from_roots(cls, field: Field, roots) -> "FqPolynomial":
        poly = cls(field, (1,))
        for r in roots:
            poly = poly * cls(field, (field.neg(field.encode(r)), 1))
        return poly

    def to_string(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, FqPolynomial)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"poly[{self.to_string()}]"

    def __add__(self, other):
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return FqPolynomial(self.field, [self.field.add(a, b) for a, b in pairs])

    def __sub__(self, other):
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return FqPolynomial(self.field, [self.field.sub(a, b) for a, b in pairs])

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPolynomial.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                out[i:i + len(b)] = F.sub_scaled(out[i:i + len(b)], F.neg(x), b)
        return FqPolynomial(F, out)

    def scale(self, c) -> "FqPolynomial":
        F = self.field
        enc = F.encode(c)
        return FqPolynomial(F, F.scale(enc, self.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = F.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            factor = F.mul(c, lead_inv)
            quo[k - d] = factor
            rem[k - d:k + 1] = F.sub_scaled(rem[k - d:k + 1], factor, other.coeffs)
        return FqPolynomial(F, quo), FqPolynomial(F, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def evaluate(self, x) -> FieldElement:
        F = self.field
        enc = F.encode(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, enc), c)
        return FieldElement(F, acc)


# --- irreducibility ------------------------------------------------------------

def _poly_mulmod(a, b, tail, p: int) -> list:
    """a * b mod f over F_p, on coefficient lists (low to high) of length at
    most deg = len(tail), where x^deg = tail mod f: the one polynomial
    multiply."""
    n = len(tail)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k] % p
        if c:
            for j, t in enumerate(tail, k - n):
                prod[j] += c * t
    return [c % p for c in prod[:n]]


def _poly_powmod(a, e: int, tail, p: int) -> list:
    """a^e mod f, with the `_poly_mulmod` conventions."""
    return _power(lambda s, t: _poly_mulmod(s, t, tail, p), a, e,
                  [1] + [0] * (len(tail) - 1))


def _poly_coprime(a, b, p: int) -> bool:
    """Whether gcd(a, b) = 1 over F_p, for coefficient lists; b[-1] != 0."""
    while len(b) > 1:
        a, inv = list(a), pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a.pop() * inv % p
            for j, y in enumerate(b[:-1], len(a) + 1 - len(b)):
                a[j] = (a[j] - c * y) % p
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


def _poly_is_irreducible(coeffs, p: int) -> bool:
    """Irreducibility over F_p of a monic coefficient tuple of degree >= 2.

    A root in F_p is a linear factor, and up to degree 3 every reducible
    polynomial has one.  Beyond, f is irreducible iff gcd(x^(p^i) - x, f) = 1
    for 1 <= i <= deg/2 (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 14); without a root, i = 1 holds already.
    """
    deg = len(coeffs) - 1
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if not acc:
            return False
    if deg <= 3:
        return True
    tail = [(-c) % p for c in coeffs[:-1]]
    t = _poly_powmod([0, 1], p, tail, p)  # x^p mod f
    for _ in range(deg // 2 - 1):
        t = _poly_powmod(t, p, tail, p)
        if not _poly_coprime([(c - (j == 1)) % p for j, c in enumerate(t)],
                             coeffs, p):
            return False
    return True


def _smallest_irreducible(p: int, deg: int):
    """Lexicographically smallest (by (c_0, ..., c_{deg-1})) monic irreducible."""
    for low in itertools.product(range(p), repeat=deg):
        coeffs = low + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise NotIrreducible(f"no irreducible of degree {deg} over F_{p}")  # unreachable


# --- public operations -----------------------------------------------------------

def field_make(p: int, deg: int = 1, modulus=None) -> Field:
    """Build F_{p^deg}; the modulus defaults to the canonical irreducible.

    Equal arguments return the same Field object; a modulus may be given as
    a tuple, a list or an FqPolynomial.  A prime field's empty modulus, the
    one it reports, names the field as no modulus does.
    """
    if modulus is not None:
        if isinstance(modulus, FqPolynomial):
            modulus = modulus.coeffs
        modulus = tuple(map(operator.index, modulus))
        if deg == 1 and not modulus:
            modulus = None
    return _cached_field(p, deg, modulus)


# bounded: a process works in a handful of fields at a time
@functools.lru_cache(maxsize=64)
def _cached_field(p: int, deg: int, modulus) -> Field:
    return Field(p, deg, modulus)


def find_primitive(field: Field) -> FieldElement:
    """Smallest element (canonical order) of multiplicative order q-1.

    An extension field found it while building its tables (antilog[1] = g);
    a prime field searches each time it is asked.
    """
    if field.deg > 1:
        return FieldElement(field, field._antilog[1])
    q = field.q
    return FieldElement(
        field, _least_primitive(q, 1, lambda a, e: pow(a, e, q) == 1))


def _least_primitive(q: int, start: int, is_one) -> int:
    """Least a >= start of order q - 1, where is_one(a, e) says a^e = 1:
    a is primitive iff a^((q-1)/r) != 1 for every prime r dividing q-1."""
    exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
    return next(a for a in range(start, q)
                if not any(is_one(a, e) for e in exponents))


def _prime_factors(n: int):
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    r = 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


def _power(mul, a, e: int, one=1):
    """a^e for e >= 0 by square-and-multiply with the given multiply."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def norm(theta: FieldElement, sub_q: int) -> FieldElement:
    """Relative norm onto the subfield of order sub_q: theta^((q-1)/(sub_q-1)).

    The result is returned in the ambient field; its value lies in the
    sub_q-element subfield.
    """
    field = theta.field
    e = 0
    n = sub_q
    while n % field.p == 0 and n > 1:
        n //= field.p
        e += 1
    if n != 1 or e == 0 or field.deg % e != 0:
        raise NotASubfield(f"{sub_q} is not a subfield order of {field!r}")
    exponent = (field.q - 1) // (sub_q - 1)
    return theta ** exponent


def poly_roots(f: FqPolynomial, field: Field):
    """All roots of f in the field (with multiplicity) plus the rootless cofactor.

    Roots are found by exhaustive evaluation and removed by repeated division;
    they are returned in canonical order, repeated by multiplicity.  A field
    above `_ROOTS_LIMIT` raises ParametersOutOfRange before the scan.
    """
    if f.is_zero():
        raise ValueError("root extraction needs a nonzero polynomial")
    if f.field != field:
        raise FieldMismatch("polynomial is over a different field")
    if field.q > _ROOTS_LIMIT:
        raise ParametersOutOfRange(
            f"root search over F_{field.q} exceeds 2^20 elements")
    roots = []
    g = f
    for enc in range(field.q):
        linear = FqPolynomial(field, (field.neg(enc), 1))
        while g.degree >= 1 and g.evaluate(enc).enc == 0:
            roots.append(FieldElement(field, enc))
            g = g // linear
    return tuple(roots), g
