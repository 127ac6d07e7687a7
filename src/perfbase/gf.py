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
primitive element g once, at construction, with `Field._mul_slow` (the one
polynomial multiply) to build log, antilog and Zech tables: multiply and
invert add or negate logs, and a + b = g^(la + zech[lb - la]) with
zech[i] = log(1 + g^i) (Lidl and Niederreiter, *Finite Fields*).  So
extension fields stop at 2^16 elements: F_{2^16} takes about 4 s (half of
it the irreducible search, which doubles in time with each degree) and
7 MB of tables, and a larger field is refused before any search.

Field and FieldElement are immutable after construction; all operations are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

import functools
import itertools

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

    __slots__ = (
        "p", "deg", "q", "modulus",
        "_reduction_tail", "_log", "_antilog", "_zech",
    )

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
                coeffs = tuple(int(c) % p for c in modulus)
                if len(coeffs) != deg + 1 or coeffs[-1] != 1:
                    raise DegreeMismatch(
                        f"modulus must be monic of degree {deg}")
                if not _poly_is_irreducible(coeffs, p):
                    raise NotIrreducible(
                        f"modulus {coeffs} is reducible over F_{p}")
            self.modulus = coeffs
        # x^deg == -(low part of modulus), used to fold products back down
        self._reduction_tail = tuple((-c) % p for c in self.modulus[:-1])
        if deg > 1:
            self._build_tables()

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
            enc = enc * self.p + (c % self.p)
        return enc

    def element(self, value) -> "FieldElement":
        """Wrap an encoding (int) or coefficient sequence as an element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.q)
        return FieldElement(self, self.enc_of(value))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self):
        """All elements in canonical (encoding) order."""
        return (FieldElement(self, e) for e in range(self.q))

    def units(self):
        return (FieldElement(self, e) for e in range(1, self.q))

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
        if not (a and b):
            return 0
        log = self._log
        return self._antilog[log[a] + log[b]]

    def _mul_slow(self, a: int, b: int) -> int:
        p = self.p
        ca = self.coeffs_of(a)
        cb = self.coeffs_of(b)
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # fold degrees >= deg using x^deg = reduction tail
        tail = self._reduction_tail
        for k in range(len(prod) - 1, self.deg - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j, t in enumerate(tail):
                    prod[k - self.deg + j] = (prod[k - self.deg + j] + c * t) % p
        return self.enc_of(prod[: self.deg])

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
        """Log, antilog and Zech tables from the powers of the primitive element.

        antilog has length 3(q-1): two periods of g^i, so a sum of two logs
        needs no reduction, then q-1 zeros.  Where 1 + g^i = 0, zech[i] is
        2(q-1), so `add` lands in the zeros and a + (-a) needs no branch.
        """
        p, order = self.p, self.q - 1
        g = _least_primitive(self.q, self._mul_slow)
        log = [0] * self.q
        antilog = [0] * (3 * order)
        x = 1
        for i in range(order):
            log[x] = i
            antilog[i] = antilog[i + order] = x
            x = self._mul_slow(x, g)
        zech = [2 * order] * order
        for i in range(order):
            x = antilog[i]
            # 1 + x adds 1 to the constant coefficient, the lowest base-p digit
            one_plus = x + 1 if x % p != p - 1 else x + 1 - p
            if one_plus:
                zech[i] = log[one_plus]
        self._log, self._antilog, self._zech = log, antilog, zech


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
        if isinstance(other, FieldElement):
            return self.field == other.field and self.enc == other.enc
        if isinstance(other, int):
            return self.enc == other % self.field.q if self.field.deg == 1 \
                else self.enc == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.enc))

    def __bool__(self):
        return self.enc != 0

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements from different fields")
            return other.enc
        if isinstance(other, int):
            return other % self.field.q
        raise TypeError(f"cannot combine field element with {type(other)}")

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.enc, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.enc, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._coerce(other), self.enc))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.enc))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.enc, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(
            self.field,
            self.field.mul(self.enc, self.field.inv(self._coerce(other))))

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
        encs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise FieldMismatch("coefficient from a different field")
                encs.append(c.enc)
            else:
                encs.append(int(c) % field.q)
        while encs and encs[-1] == 0:
            encs.pop()
        self.field = field
        self.coeffs = tuple(encs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field: Field, roots) -> "FqPolynomial":
        poly = cls(field, (1,))
        for r in roots:
            enc = r.enc if isinstance(r, FieldElement) else int(r) % field.q
            poly = poly * cls(field, (field.neg(enc), 1))
        return poly

    @classmethod
    def from_string(cls, field: Field, text: str) -> "FqPolynomial":
        """Parse the exchange format: comma-separated encodings, low to high."""
        return cls(field, [int(t) for t in text.split(",")])

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
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
               for i in range(n)]
        return FqPolynomial(F, out)

    def __sub__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = [F.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
               for i in range(n)]
        return FqPolynomial(F, out)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPolynomial.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
        return FqPolynomial(F, out)

    def scale(self, c) -> "FqPolynomial":
        enc = c.enc if isinstance(c, FieldElement) else int(c)
        F = self.field
        return FqPolynomial(F, [F.mul(x, enc) for x in self.coeffs])

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
            for j, oc in enumerate(other.coeffs):
                rem[k - d + j] = F.sub(rem[k - d + j], F.mul(factor, oc))
        return FqPolynomial(F, quo), FqPolynomial(F, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "FqPolynomial":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other) -> "FqPolynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def evaluate(self, x) -> FieldElement:
        F = self.field
        enc = x.enc if isinstance(x, FieldElement) else int(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, enc), c)
        return FieldElement(F, acc)

    def pow_mod(self, e: int, modpoly: "FqPolynomial") -> "FqPolynomial":
        result = FqPolynomial(self.field, (1,))
        base = self % modpoly
        while e:
            if e & 1:
                result = (result * base) % modpoly
            base = (base * base) % modpoly
            e >>= 1
        return result


# --- irreducibility ------------------------------------------------------------

def _poly_is_irreducible(coeffs, p: int) -> bool:
    """Irreducibility over F_p: root scan for degree <= 3, gcd criterion beyond."""
    deg = len(coeffs) - 1
    Fp = field_make(p)
    f = FqPolynomial(Fp, coeffs)
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if deg <= 3:
        return all(f.evaluate(a).enc != 0 for a in range(p))
    x = FqPolynomial.x(Fp)
    t = x
    for _ in range(deg // 2):
        t = t.pow_mod(p, f)
        g = (t - x).gcd(f)
        if g.degree > 0:
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
    a tuple, a list or an FqPolynomial.
    """
    if modulus is not None:
        if isinstance(modulus, FqPolynomial):
            modulus = modulus.coeffs
        modulus = tuple(int(c) for c in modulus)
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
    return FieldElement(field, _least_primitive(field.q, field.mul))


def _least_primitive(q: int, mul) -> int:
    """a is primitive iff a^((q-1)/r) != 1 for every prime r dividing q-1."""
    exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
    return next(a for a in range(1, q)
                if all(_power(mul, a, e) != 1 for e in exponents))


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


def _power(mul, a: int, e: int) -> int:
    """a^e for e >= 0 by square-and-multiply with the given multiply."""
    result = 1
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
    they are returned in canonical order, repeated by multiplicity.
    """
    if f.is_zero():
        raise ValueError("root extraction needs a nonzero polynomial")
    if f.field != field:
        raise FieldMismatch("polynomial is over a different field")
    roots = []
    g = f
    for enc in range(field.q):
        linear = FqPolynomial(field, (field.neg(enc), 1))
        while g.degree >= 1 and g.evaluate(enc).enc == 0:
            roots.append(FieldElement(field, enc))
            g = g // linear
    return tuple(roots), g
