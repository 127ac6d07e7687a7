import functools
import itertools
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbase import gf
from perfbase.errors import (
    DegreeMismatch,
    FieldMismatch,
    NotASubfield,
    NotIrreducible,
    NotPrime,
    ParametersOutOfRange,
)
from perfbase.gf import (
    _is_prime,
    Field,
    FieldElement,
    FqPolynomial,
    field_make,
    find_primitive,
    norm,
    poly_roots,
)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
PRIME_POWERS_LE_49 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
]


def test_field_make_prime_and_validation():
    F5 = field_make(5)
    assert (F5.p, F5.deg, F5.q) == (5, 1, 5)
    assert field_make(7).q == 7
    with pytest.raises(NotPrime):
        field_make(6)
    with pytest.raises(NotIrreducible):
        field_make(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(DegreeMismatch):
        field_make(5, 1, [1])


def multiplicative_order(F, a):
    """Order of a nonzero element by repeated multiplication."""
    order, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        order += 1
    return order


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    for n in range(10 ** 5):
        assert _is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_on_pseudoprimes_and_large_primes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
                  825265, 321197185, 5394826801, 232250619601, 9746347772161]
    assert not any(_is_prime(n) for n in carmichael)
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not _is_prime(3825123056546413051)  # ... to every prime base up to 31
    assert not _is_prime(4294967291 * 4294967279)  # two primes just below 2^32
    for p in ((1 << 61) - 1, (1 << 64) - 59, 10 ** 18 + 9, 4294967291):
        assert _is_prime(p)
    for c in ((1 << 64) - 1, (1 << 61) + 1, 10 ** 18 + 7):
        assert not _is_prime(c)


def test_primes_up_to_2_64_are_fast_and_larger_p_out_of_range():
    t0 = time.perf_counter()
    assert field_make((1 << 64) - 59).q == (1 << 64) - 59
    with pytest.raises(NotPrime):
        field_make((1 << 64) - 1)
    assert time.perf_counter() - t0 < 0.5
    for p in (1 << 64, (1 << 89) - 1):
        with pytest.raises(ParametersOutOfRange):
            field_make(p)


def test_field_make_singles_out_smallest_irreducible():
    F4 = field_make(2, 2)
    assert F4.modulus == (1, 1, 1)
    # exhaustive scan oracle: the only monic irreducible quadratic over F_2
    good = []
    for c0, c1 in itertools.product(range(2), repeat=2):
        f = FqPolynomial(field_make(2), (c0, c1, 1))
        if all(f.evaluate(a).enc for a in range(2)):
            good.append((c0, c1, 1))
    assert good == [(1, 1, 1)]


@pytest.mark.parametrize("p,deg", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, deg):
    F = field_make(p, deg)
    if F.q > 9:
        pytest.skip("axiom sweep is cubic in q")
    els = range(F.q)
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0


@pytest.mark.parametrize("p,deg", PRIME_POWERS_LE_49)
def test_encoding_bijection(p, deg):
    F = field_make(p, deg)
    seen = set()
    for e in range(F.q):
        coeffs = F.coeffs_of(e)
        assert all(0 <= c < p for c in coeffs)
        assert F.enc_of(coeffs) == e
        seen.add(coeffs)
    assert len(seen) == F.q


@pytest.mark.parametrize("p,deg,expected", [(5, 1, 2), (2, 1, 1), (7, 1, 3)])
def test_find_primitive_examples(p, deg, expected):
    F = field_make(p, deg)
    # oracle: direct power enumeration of every element's order
    orders = {a: multiplicative_order(F, a) for a in range(1, F.q)}
    smallest = min(a for a, o in orders.items() if o == F.q - 1)
    assert smallest == expected
    assert find_primitive(F).enc == expected


EXTENSIONS_LE_125 = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5),
                     (7, 2), (2, 6), (3, 4), (11, 2), (5, 3)]
LARGE_TABLED = [(7, 3), (5, 4), (7, 4)]  # F_343, F_625, F_2401
# F_{67^2} and F_{251^2} have more than 4096 elements
SAMPLED_EXTENSIONS = LARGE_TABLED + [(67, 2), (251, 2)]


def reference_mul(F, a, b):
    """a * b by the schoolbook polynomial multiply, folding with the modulus."""
    p, deg = F.p, F.deg
    ca, cb = F.coeffs_of(a), F.coeffs_of(b)
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
    tail = [(-c) % p for c in F.modulus[:-1]]
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j, t in enumerate(tail):
                prod[k - deg + j] = (prod[k - deg + j] + c * t) % p
    return F.enc_of(prod[:deg])


def slow_pow(F, a, e):
    """a^e by repeated squaring over the polynomial multiply alone."""
    result = 1
    while e:
        if e & 1:
            result = reference_mul(F, result, a)
        a = reference_mul(F, a, a)
        e >>= 1
    return result


# The base-p digit loops that Field.add, neg and sub ran before the Zech
# tables: the reference the table paths are compared with.

def reference_add(F, a, b):
    p = F.p
    out = 0
    mult = 1
    while a or b:
        a, ca = divmod(a, p)
        b, cb = divmod(b, p)
        out += ((ca + cb) % p) * mult
        mult *= p
    return out


def reference_neg(F, a):
    p = F.p
    out = 0
    mult = 1
    while a:
        a, ca = divmod(a, p)
        out += ((-ca) % p) * mult
        mult *= p
    return out


def reference_sub(F, a, b):
    p = F.p
    out = 0
    mult = 1
    while a or b:
        a, ca = divmod(a, p)
        b, cb = divmod(b, p)
        out += ((ca - cb) % p) * mult
        mult *= p
    return out


def check_against_references(F, a, b):
    assert F.add(a, b) == reference_add(F, a, b)
    assert F.sub(a, b) == reference_sub(F, a, b)
    assert F.neg(a) == reference_neg(F, a)
    assert F.mul(a, b) == reference_mul(F, a, b)
    if a:
        assert F.inv(a) == slow_pow(F, a, F.q - 2)


@pytest.mark.parametrize("p,deg", EXTENSIONS_LE_125)
def test_table_arithmetic_matches_polynomial_path_exhaustive(p, deg):
    F = field_make(p, deg)
    for a in range(F.q):
        assert F.neg(a) == reference_neg(F, a)
        for b in range(F.q):
            assert F.add(a, b) == reference_add(F, a, b)
            assert F.sub(a, b) == reference_sub(F, a, b)
        for b in range(a, F.q):
            assert F.mul(a, b) == reference_mul(F, a, b)
    for a in range(1, F.q):
        assert F.inv(a) == slow_pow(F, a, F.q - 2)


@pytest.mark.parametrize("p,deg", [(p, 1) for p in range(2, 126) if _is_prime(p)]
                         + EXTENSIONS_LE_125)
def test_sub_matches_add_of_neg_exhaustive(p, deg):
    F = field_make(p, deg)
    for a in range(F.q):
        for b in range(F.q):
            assert F.sub(a, b) == F.add(a, F.neg(b))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(SAMPLED_EXTENSIONS), st.data())
def test_table_arithmetic_matches_polynomial_path_sampled(pdeg, data):
    F = field_make(*pdeg)
    a = data.draw(st.integers(min_value=0, max_value=F.q - 1))
    b = data.draw(st.integers(min_value=0, max_value=F.q - 1))
    check_against_references(F, a, b)


@pytest.mark.parametrize("p,deg", SAMPLED_EXTENSIONS)
def test_table_arithmetic_at_zero_one_and_opposites(p, deg):
    # the Zech table's one undefined entry is where a + b = 0
    F = field_make(p, deg)
    for a in (0, 1, p - 1, p, F.q - 1, find_primitive(F).enc):
        for b in (0, a, F.neg(a), 1, F.q - 1):
            check_against_references(F, a, b)
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.pow(a, -3) == F.pow(F.inv(a), 3) == slow_pow(F, F.inv(a), 3)
        else:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)


@pytest.mark.parametrize(
    "p,deg", [pd for pd in PRIME_POWERS_LE_49 if pd[1] > 1] + [(5, 3)] + LARGE_TABLED)
def test_find_primitive_matches_order_oracle(p, deg):
    F = field_make(p, deg)
    oracle = next(a for a in range(1, F.q)
                  if multiplicative_order(F, a) == F.q - 1)
    assert find_primitive(F).enc == oracle


def test_find_primitive_canonical_values():
    assert find_primitive(field_make(7, 4)).enc == 13
    assert find_primitive(field_make(5, 4)).enc == 30


def test_field_make_returns_one_object_per_field():
    F = field_make(3, 3)
    assert field_make(3, 3) is F
    G = field_make(3, 3, modulus=F.modulus)
    assert G == F
    assert field_make(3, 3, modulus=list(F.modulus)) is G
    assert field_make(3, 3, modulus=FqPolynomial(field_make(3), F.modulus)) is G
    assert field_make(3) is field_make(3)


def test_field_make_caches_no_errors():
    for _ in range(2):
        with pytest.raises(NotPrime):
            field_make(6)
        with pytest.raises(NotIrreducible):
            field_make(2, 2, modulus=[1, 0, 1])


def test_field_make_refuses_extensions_beyond_2_16_before_building(monkeypatch):
    F = Field(251, 2)  # fresh: its tables are built here, above 4096 elements
    for a in range(1, F.q, 97):
        b = (a * 31 + 5) % F.q
        assert F.mul(a, b) == reference_mul(F, a, b)
        assert reference_mul(F, a, F.inv(a)) == 1
    # the degree is checked before p ** deg is formed
    t0 = time.perf_counter()
    for p, deg in ((257, 2), (3, 11), (2, 17), (2, 10 ** 9)):
        with pytest.raises(ParametersOutOfRange):
            field_make(p, deg)
    assert time.perf_counter() - t0 < 0.1

    class SearchStarted(Exception):
        pass

    def search(p, deg):
        raise SearchStarted

    # at the boundaries the rule lets the field through to its modulus search
    monkeypatch.setattr(gf, "_smallest_irreducible", search)
    for p, deg in ((2, 16), (3, 10), (251, 2)):
        with pytest.raises(SearchStarted):
            Field(p, deg)


# The FqPolynomial gcd test and modulus search that built every extension
# field before the int-list search, with the FqPolynomial power and gcd they
# used: the reference the int-list search is compared with.

def reference_pow_mod(f, e, modpoly):
    result = FqPolynomial(f.field, (1,))
    base = f % modpoly
    while e:
        if e & 1:
            result = (result * base) % modpoly
        base = (base * base) % modpoly
        e >>= 1
    return result


def reference_gcd_degree(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.degree


def reference_is_irreducible(coeffs, p):
    deg = len(coeffs) - 1
    Fp = field_make(p)
    f = FqPolynomial(Fp, coeffs)
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if deg <= 3:
        return all(f.evaluate(a).enc != 0 for a in range(p))
    x = FqPolynomial(Fp, (0, 1))
    t = x
    for _ in range(deg // 2):
        t = reference_pow_mod(t, p, f)
        if reference_gcd_degree(t - x, f) > 0:
            return False
    return True


def reference_smallest_irreducible(p, deg):
    for low in itertools.product(range(p), repeat=deg):
        coeffs = low + (1,)
        if reference_is_irreducible(coeffs, p):
            return coeffs


def reducible_monics(p, deg):
    """Every reducible monic polynomial of degree deg over F_p: the products
    of two monic factors of positive degree."""
    def monics(d):
        return [low + (1,) for low in itertools.product(range(p), repeat=d)]

    out = set()
    for i in range(1, deg // 2 + 1):
        for f in monics(i):
            for g in monics(deg - i):
                prod = [0] * (deg + 1)
                for a, x in enumerate(f):
                    for b, y in enumerate(g, a):
                        prod[b] += x * y
                out.add(tuple(c % p for c in prod))
    return out


FIELDS_LE_2_12 = [(p, deg) for p in range(2, 65) if _is_prime(p)
                  for deg in range(2, 13) if p ** deg <= 1 << 12]


@pytest.mark.parametrize("p,deg", FIELDS_LE_2_12)
def test_irreducibility_and_modulus_match_the_references(p, deg):
    # every monic polynomial against the factor products; the gcd reference
    # would take about 5 s on all of them (Intel Xeon, Python 3.11), so it
    # sees those with p^deg <= 2^10
    reducible = reducible_monics(p, deg)
    for low in itertools.product(range(p), repeat=deg):
        coeffs = low + (1,)
        irreducible = gf._poly_is_irreducible(coeffs, p)
        assert irreducible == (coeffs not in reducible), coeffs
        if p ** deg <= 1 << 10:
            assert irreducible == reference_is_irreducible(coeffs, p), coeffs
    assert gf._smallest_irreducible(p, deg) == \
        reference_smallest_irreducible(p, deg)


def test_reducible_modulus_is_refused():
    def product(p, *factors):
        out = FqPolynomial(field_make(p), (1,))
        for f in factors:
            out = out * FqPolynomial(field_make(p), f)
        return out

    # without a root in F_p, so only the gcd test can refuse them
    for p, factors in ((7, [(1, 0, 1), (3, 1, 1)]), (7, [(1, 0, 1)] * 2),
                       (2, [(1, 1, 1)] * 6), (3, [(2, 0, 0, 1, 1), (1, 0, 1)])):
        f = product(p, *factors)
        assert all(f.evaluate(a).enc for a in range(p))
        with pytest.raises(NotIrreducible):
            Field(p, f.degree, modulus=f.coeffs)
    with pytest.raises(NotIrreducible):
        Field(5, 3, modulus=(0, 1, 1, 1))  # root 0
    with pytest.raises(NotIrreducible):
        Field(2, 12, modulus=(1,) + (0,) * 11 + (1,))  # root 1


def reference_tables(F):
    """Least primitive g by its factored order test, then log, antilog and
    Zech tables from g^i, one reference_mul per power, in `gf`'s layout:
    log[0] = 2(q-1), and antilog is zero from 2(q-1) through 4(q-1)."""
    q, order = F.q, F.q - 1
    exponents = [order // r for r in range(2, q) if order % r == 0
                 and _is_prime(r)]
    mul = functools.partial(reference_mul, F)
    g = next(a for a in range(1, q)
             if all(gf._power(mul, a, e) != 1 for e in exponents))
    log, antilog, x = [2 * order] * q, [0] * (4 * order + 1), 1
    for i in range(order):
        log[x] = i
        antilog[i] = antilog[i + order] = x
        x = mul(x, g)
    zech = [2 * order] * order
    for i in range(order):
        one_plus = reference_add(F, antilog[i], 1)
        if one_plus:
            zech[i] = log[one_plus]
    return log, antilog, zech


@pytest.mark.parametrize("p,deg", FIELDS_LE_2_12 + [(67, 2)])
def test_tables_match_a_walk_with_the_reference_multiply(p, deg):
    F = Field(p, deg)
    assert (F._log, F._antilog, F._zech) == reference_tables(F)


@pytest.mark.parametrize("p,deg", [(2, 2), (3, 2), (7, 4), (2, 16)])
def test_table_lists_equal_their_arrays_and_share_their_ints(p, deg):
    # the scalar methods' lists hold the int64 form's values; antilog's
    # nonzero ints are the walk's, repeated, and zech's are log's
    F = Field(p, deg)
    form, order = F._int64, F.q - 1
    assert F._log == form.log.tolist()
    assert F._antilog == form.antilog.tolist()
    assert F._zech == form.zech.tolist()
    assert all(F._antilog[i] is F._antilog[i + order] for i in range(order))
    assert all(z is F._log[F._antilog[i] + 1 - (F._antilog[i] % p == p - 1) * p]
               for i, z in enumerate(F._zech))


def test_fields_are_built_on_plain_ints(monkeypatch):
    class Used(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Used

    modulus = field_make(7, 4).modulus
    monkeypatch.setattr(gf, "FqPolynomial", refuse)
    monkeypatch.setattr(gf, "field_make", refuse)
    for F in (Field(7, 4), Field(2, 12), Field(7, 4, modulus=modulus)):
        assert F.mul(F.p, F.inv(F.p)) == 1


def reference_sub_scaled(F, vec, c, row):
    """vec - c * row by one Field.add and one Field.mul per entry."""
    nc = F.neg(c)
    return [F.add(a, F.mul(nc, b)) if b else a for a, b in zip(vec, row)]


@pytest.mark.parametrize("p,deg", [(2, 1), (5, 1), (7, 1)] + EXTENSIONS_LE_125
                         + [(7, 4)])
def test_sub_scaled_matches_add_and_mul(p, deg):
    F = field_make(p, deg)
    if F.q <= 125:  # every pair (a, b), zeros included
        vec = [a for a in range(F.q) for _ in range(F.q)]
        row = list(range(F.q)) * F.q
    else:
        rnd = random.Random(p ** deg)
        vec = [rnd.randrange(F.q) if rnd.random() < 0.8 else 0 for _ in range(4000)]
        row = [rnd.randrange(F.q) if rnd.random() < 0.8 else 0 for _ in range(4000)]
    g = find_primitive(F).enc
    for c in (0, 1, F.neg(1), g, F.q - 1):
        assert F.sub_scaled(vec, c, row) == reference_sub_scaled(F, vec, c, row)
    assert F.sub_scaled(vec, 1, vec) == [0] * len(vec)  # a + (-a)
    assert F.sub_scaled(vec, F.neg(1), [F.neg(a) for a in vec]) == [0] * len(vec)


def test_tables_are_safe_to_share_between_threads():
    F = Field(7, 4)
    pairs = [(a, (a * 37 + 11) % F.q) for a in range(F.q)]
    expected = [reference_mul(F, a, b) for a, b in pairs]
    results = {}
    start = threading.Barrier(8, timeout=60)

    def work(i):
        start.wait()
        results[i] = [F.mul(a, b) for a, b in pairs]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == expected for i in range(8))


@pytest.mark.parametrize("p,deg", SMALL_FIELDS + [(5, 2), (3, 3)])
def test_find_primitive_order_is_exact(p, deg):
    F = field_make(p, deg)
    g = find_primitive(F)
    assert multiplicative_order(F, g.enc) == F.q - 1


def test_norm_examples():
    F4 = field_make(2, 2)
    omega = F4.element(2)  # a root of the modulus
    assert norm(omega, 2).enc == 1  # omega^3
    assert norm(F4.zero(), 2).enc == 0
    assert norm(F4.one(), 2).enc == 1
    with pytest.raises(NotASubfield):
        norm(omega, 3)
    F8 = field_make(2, 3)
    with pytest.raises(NotASubfield):
        norm(F8.one(), 4)  # 4 = 2^2 but 2 does not divide 3


def test_norm_is_multiplicative():
    F9 = field_make(3, 2)
    for a in range(1, 9):
        for b in range(1, 9):
            lhs = norm(F9.element(F9.mul(a, b)), 3)
            rhs = norm(F9.element(a), 3) * norm(F9.element(b), 3)
            assert lhs == rhs


def test_poly_roots_worked_example():
    F7 = field_make(7)
    g = FqPolynomial(F7, (4, 0, 6, 1))  # rootless cubic
    f = FqPolynomial.from_roots(F7, [1, 2]) * g
    roots, cofactor = poly_roots(f, F7)
    assert sorted(r.enc for r in roots) == [1, 2]
    assert cofactor == g
    with pytest.raises(ValueError):
        poly_roots(FqPolynomial.zero(F7), F7)
    with pytest.raises(FieldMismatch):
        poly_roots(f, field_make(5))


def test_poly_roots_refuses_a_field_beyond_2_20_before_the_scan():
    # 2^20 + 7 is the least prime above the bound; a scan of F_1000003,
    # below it, takes seconds
    F = field_make(1048583)
    t0 = time.perf_counter()
    with pytest.raises(ParametersOutOfRange):
        poly_roots(FqPolynomial(F, (1, 1)), F)
    assert time.perf_counter() - t0 < 0.1


def test_poly_roots_power_and_rootless():
    F7 = field_make(7)
    m = 4
    xm = FqPolynomial(F7, (0,) * m + (1,))
    roots, cofactor = poly_roots(xm, F7)
    assert [r.enc for r in roots] == [0] * m
    assert cofactor.coeffs == (1,)
    f = FqPolynomial(F7, (4, 1, 0, 0, 0, 1))  # x^5 + x + 4
    # oracle: evaluate everywhere
    assert all(f.evaluate(a).enc for a in range(7))
    roots, cofactor = poly_roots(f, F7)
    assert roots == ()
    assert cofactor == f


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=6))
def test_poly_roots_factorization_identity(p, coeffs, lead):
    F = field_make(p)
    f = FqPolynomial(F, [c % p for c in coeffs] + [lead % p])
    if f.is_zero():
        return
    roots, cofactor = poly_roots(f, F)
    product = cofactor
    for r in roots:
        product = product * FqPolynomial(F, (F.neg(r.enc), 1))
    assert product == f
    assert all(cofactor.evaluate(a).enc for a in range(p)) or cofactor.degree < 1


def test_polynomial_text_format_round_trip():
    F5 = field_make(5)
    f = FqPolynomial(F5, (2, 4, 4, 0, 1))
    assert f.degree == 4
    assert f.to_string() == "2,4,4,0,1"
    assert f.evaluate(0).enc == 2


def test_polynomial_division():
    F7 = field_make(7)
    f = FqPolynomial(F7, (3, 1, 4, 1))
    g = FqPolynomial(F7, (2, 1))
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree
    with pytest.raises(ZeroDivisionError):
        f.divmod(FqPolynomial.zero(F7))


# --- the one scalar rule, Field.encode ------------------------------------------------


def test_encode_is_the_one_scalar_rule():
    F9, F25 = field_make(3, 2), field_make(5, 2)
    assert F9.encode(FieldElement(F9, 5)) == 5
    assert [F9.encode(v) for v in (30, -1, np.int64(12), True)] == [3, 8, 3, 1]
    with pytest.raises(FieldMismatch):
        F9.encode(FieldElement(F25, 20))
    for bad in (2.5, 3.0, "3", None, (1, 2)):
        with pytest.raises(TypeError):
            F9.encode(bad)
    assert F9.element(30) == F9.element(3) and F9.element([0, 1]).enc == 3
    with pytest.raises(FieldMismatch):
        F9.element(FieldElement(F25, 1))


def test_polynomial_entry_points_encode_their_scalars():
    # each raised a raw IndexError, or used a foreign encoding, before
    F9, F25 = field_make(3, 2), field_make(5, 2)
    f = FqPolynomial(F9, [1, 2])
    foreign = FieldElement(F25, 20)
    assert f.evaluate(30) == f.evaluate(3)
    assert f.scale(30) == f.scale(3)
    with pytest.raises(FieldMismatch):
        f.scale(foreign)
    with pytest.raises(FieldMismatch):
        FqPolynomial.from_roots(F9, [foreign])
    with pytest.raises(FieldMismatch):
        FqPolynomial(F9, [foreign])
    assert FqPolynomial.from_roots(F9, [10]) == FqPolynomial.from_roots(F9, [1])
    for bad in (2.5, "1"):
        with pytest.raises(TypeError):
            FqPolynomial(F9, [1, bad])
        with pytest.raises(TypeError):
            f.evaluate(bad)


def test_element_equality_with_ints_reduces_mod_q_in_every_field():
    F7, F9, F25 = field_make(7), field_make(3, 2), field_make(5, 2)
    assert FieldElement(F7, 3) == 10 and FieldElement(F9, 1) == 10
    assert FieldElement(F9, 8) == -1 and FieldElement(F9, 1) != 2
    assert FieldElement(F9, 1) != FieldElement(F25, 1)
    assert FieldElement(F9, 1) != 1.0 and FieldElement(F9, 1) != "1"
    with pytest.raises(TypeError):
        FieldElement(F9, 1) + 0.5
    with pytest.raises(FieldMismatch):
        FieldElement(F9, 1) * FieldElement(F25, 1)


@pytest.mark.parametrize("q", [(7, 1), (3, 2)], ids=["F7", "F9"])
def test_element_methods_match_the_field_methods_they_wrap(q):
    F = field_make(*q)
    elements = list(F.elements())
    assert [x.enc for x in elements] == list(range(F.q))
    assert all(x.field is F for x in elements)
    for x in elements:
        a = x.enc
        assert (-x).enc == F.neg(a)
        assert bool(x) == (a != 0) and int(x) == a
        assert x.coeffs == F.coeffs_of(a)
        assert hash(x) == hash(FieldElement(F, a))
        assert repr(x) == f"{F!r}:{a}"
        if a:
            assert x.inverse().enc == F.inv(a)
        for y in elements:
            b = y.enc
            assert (x - y).enc == F.sub(a, b) and (x - b).enc == F.sub(a, b)
            assert (a - y).enc == F.sub(a, b)  # __rsub__
            if b:
                assert (x / y).enc == F.mul(a, F.inv(b)) == (x / b).enc
    assert len({FieldElement(F, a) for a in range(F.q)} | set(elements)) == F.q
