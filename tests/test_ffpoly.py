"""Base arithmetic: F_q codes, polynomial kernels, factoring, characters."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from cmtk.errors import BudgetError, DomainError
from cmtk.ffpoly import (
    Fq,
    _edf,
    Poly,
    PrimePoly,
    as_prime,
    factor_monic,
    fq_from_q,
    irreducible_count,
    irreducibles,
    jacobi_symbol,
    kchar,
    kadd,
    kdec,
    kderiv,
    kdivmod,
    kenc,
    kgcd,
    kjacobi,
    kmod,
    kmonics,
    kmonics_avoiding,
    kmul,
    kscale,
    ksub,
    kxgcd,
    log_tables,
    monic_polys,
    parse_poly,
    poly_from_text,
    primitive_modulus,
    quadratic_character,
)

F3 = Fq(3)
F5 = Fq(5)
F9 = Fq(3, 2)
F25 = Fq(5, 2)


def P(field, text):
    return poly_from_text(field, text)


# ---------------------------------------------------------------------------
# field codes


def test_prime_field_ops():
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.inv(2) == 2
    assert F3.neg(1) == 2
    assert F5.pow_elt(2, 4) == 1


def test_extension_field_tables():
    # canonical modulus for F_9 is T^2+T+2 over F_3 (code-smallest primitive)
    assert F9.modulus == (2, 1, 1)
    # T (code 3) generates the unit group
    seen = set()
    x = 1
    for _ in range(8):
        x = F9.mul(x, 3)
        seen.add(x)
    assert len(seen) == 8
    # addition is digitwise mod p: codes 4 = T+1 and 5 = T+2 sum to 2T = code 6
    assert F9.add(3, 3) == 6
    assert F9.add(4, 5) == 6
    assert F9.add(4, 8) == 0  # (T+1) + (2T+2) = 0


def test_extension_field_inverse_and_legendre():
    for c in range(1, 9):
        assert F9.mul(c, F9.inv(c)) == 1
    squares = {F9.mul(c, c) for c in range(1, 9)}
    for c in range(1, 9):
        assert F9.legendre(c) == (1 if c in squares else -1)
    assert F9.legendre(0) == 0
    # -1 = 2 is a square in F_9 (q = 1 mod 4)
    assert F9.legendre(2) == 1
    assert F3.legendre(2) == -1


def test_canonical_nonsquare():
    assert F3.canonical_nonsquare() == 2
    assert F5.canonical_nonsquare() == 2
    # in F_9 the prime-subfield elements 1, 2 are squares; 3 encodes T
    assert F9.canonical_nonsquare() == 3


def test_field_constructor_rejects():
    with pytest.raises(DomainError):
        Fq(2)
    with pytest.raises(DomainError):
        Fq(4)
    with pytest.raises(DomainError):
        fq_from_q(6)
    with pytest.raises(DomainError):
        Fq(3, 12)  # 3^12 > 2^16


# ---------------------------------------------------------------------------
# polynomial surface


def test_poly_basic_arith():
    T = parse_poly(F3, "T")
    f = 2 * T**3 + T + 1
    assert f.coeffs == (1, 1, 0, 2)
    assert f.degree == 3
    assert f.norm == 27
    assert (f - f).is_zero
    g = f.monic()
    assert g.is_monic and (2 * g - f).is_zero
    q, r = divmod(f, T + 1)
    assert ((T + 1) * q + r - f).is_zero
    assert r.degree < 1


def test_poly_code_order_is_degree_then_lex():
    polys = [Poly(F3, c) for c in [(), (1,), (2,), (0, 1), (1, 1), (0, 0, 1)]]
    codes = [p.code for p in polys]
    assert codes == sorted(codes)
    assert [p.code for p in monic_polys(F3, 1)] == [3, 4, 5]


def test_text_round_trip():
    f = P(F3, "2*T^3+T+1")
    assert f.text() == "2*T^3+T+1"
    assert poly_from_text(F3, f.text()) == f
    assert P(F3, "T^2 - 1") == P(F3, "T^2+2")
    assert P(F3, "0").is_zero
    with pytest.raises(DomainError):
        poly_from_text(F3, "T^^2")


def test_eval_and_derivative():
    f = P(F3, "T^3+2*T+1")
    T = parse_poly(F3, "T")
    # f(x) is the remainder of f mod T - x; T^3+2T = 0 on F_3
    assert [(f % (T - x)).coeffs for x in range(3)] == [(1,), (1,), (1,)]
    assert kderiv(F3, f.coeffs) == (2,)  # 3T^2 + 2 = 2
    assert kderiv(F3, P(F3, "T^3+1").coeffs) == ()


# ---------------------------------------------------------------------------
# irreducibility and factoring


def test_known_small_factorizations():
    f = P(F3, "T^2+2*T")
    fac = factor_monic(f)
    assert [(p.text(), m) for p, m in fac] == [("T", 1), ("T+2", 1)]
    fac = factor_monic(P(F3, "T^2"))
    assert [(p.text(), m) for p, m in fac] == [("T", 2)]
    # T^2+1 is irreducible over F_3 (no root, degree 2)
    assert as_prime(F3, "T^2+1").witness == "rabin"
    with pytest.raises(DomainError, match="is not monic irreducible"):
        as_prime(F3, "T^2+2")  # = (T+1)(T+2)


def test_factor_inseparable_power():
    # f = (T+1)^3 has zero derivative over F_3
    f = (parse_poly(F3, "T") + 1) ** 3
    assert kderiv(F3, f.coeffs) == ()
    fac = factor_monic(f)
    assert [(p.text(), m) for p, m in fac] == [("T+1", 3)]


def test_factor_monic_returns_a_prime_as_is():
    # a PrimePoly is certified by its type: no factorization runs
    p = irreducibles(F3, 2)[0]
    assert factor_monic(p)[0][0] is p
    assert factor_monic(p) == [(p, 1)]
    assert factor_monic(P(F3, p.text()))[0][0].witness == "split-recombine"


def test_factor_mixed_multiplicities():
    T = parse_poly(F3, "T")
    f = (T**2 + 1) ** 2 * T**3 * (T + 2)
    fac = factor_monic(f)
    assert {(p.text(), m) for p, m in fac} == {("T", 3), ("T+2", 1), ("T^2+1", 2)}
    # canonical ordering: by degree then coefficients
    assert [p.text() for p, _ in fac] == ["T", "T+2", "T^2+1"]


@pytest.mark.parametrize("q", [3, 9])
def test_edf_splits_equal_degree_products(q):
    # products of 2-4 distinct primes of one degree split into those primes
    # within the bounded candidate range; a single prime of a larger degree
    # than claimed exhausts it and fails loudly
    F = fq_from_q(q)
    rng = random.Random(q)
    for d in (1, 2, 3) if q == 3 else (1, 2):
        primes = [p.coeffs for p in irreducibles(F, d)]
        for k in range(2, min(4, len(primes)) + 1):
            for chosen in (primes[:k], primes[-k:], rng.sample(primes, k)):
                f = (1,)
                for p in chosen:
                    f = kmul(F, f, p)
                assert sorted(_edf(F, f, d), key=lambda p: kenc(F, p)) == sorted(
                    chosen, key=lambda p: kenc(F, p)
                )
    with pytest.raises(AssertionError, match="no split"):
        _edf(F, irreducibles(F, 2)[0].coeffs, 1)


@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
def test_factor_multiplicativity(ca, cb):
    a = Poly(F3, kdec(F3, 3**4 + ca))
    b = Poly(F3, kdec(F3, 3**4 + cb))
    combined = {}
    for p, m in factor_monic(a) + factor_monic(b):
        combined[p.coeffs] = combined.get(p.coeffs, 0) + m
    product = {p.coeffs: m for p, m in factor_monic(a * b)}
    assert combined == product


@given(st.sampled_from([(3, 1), (3, 2)]), st.integers(1, 5))
def test_counts_match_moebius_and_degree_sum(qe, t):
    p, e = qe
    F = Fq(p, e)
    q = F.q
    if t * q**t > 10_000_000:
        return
    assert len(irreducibles(F, t)) == irreducible_count(q, t)
    # sum over d | t of d * N_d = q^t  (decomposition of T^{q^t} - T)
    total = sum(
        d * irreducible_count(q, d) for d in range(1, t + 1) if t % d == 0
    )
    assert total == q**t


def test_irreducibles_budget():
    with pytest.raises(BudgetError):
        irreducibles(F25, 5, budget=1000)


def test_irreducibles_budget_checked_on_cache_hit():
    assert len(irreducibles(F3, 5)) == 48
    with pytest.raises(BudgetError):
        irreducibles(F3, 5, budget=10)
    with pytest.raises(DomainError):
        irreducibles(F3, 0)


def test_prime_is_a_poly_whatever_its_witness():
    sieved = irreducibles(F3, 1)[1]
    checked = as_prime(F3, "T+1")
    plain = P(F3, "T+1")
    assert isinstance(sieved, PrimePoly) and isinstance(sieved, Poly)
    assert (sieved.witness, checked.witness) == ("sieve", "rabin")
    assert sieved == checked == plain and plain == sieved
    assert hash(sieved) == hash(checked) == hash(plain)
    assert len({sieved, checked, plain}) == 1
    assert parse_poly(F3, sieved) is sieved
    assert str(sieved) == "T+1" and parse_poly(F3, str(sieved)) == sieved
    assert jacobi_symbol(sieved, as_prime(F3, "T")) == jacobi_symbol(plain, as_prime(F3, "T"))
    assert quadratic_character(P(F3, "T"), sieved) == quadratic_character(P(F3, "T"), plain)


def test_counts_f3():
    assert [irreducible_count(3, t) for t in (1, 2, 3, 4)] == [3, 3, 8, 18]


# ---------------------------------------------------------------------------
# quadratic characters


def test_character_examples():
    p = as_prime(F3, "T")
    assert quadratic_character(P(F3, "T+1"), p) == 1
    assert quadratic_character(P(F3, "T+2"), p) == -1
    assert quadratic_character(P(F3, "T"), p) == 0
    # constants at an even-degree prime are always squares
    p2 = as_prime(F3, "T^2+1")
    assert quadratic_character(P(F3, "2"), p2) == 1
    assert quadratic_character(P(F3, "2"), p) == -1


@given(st.integers(1, 3**3 - 1), st.integers(1, 3**3 - 1), st.sampled_from([1, 2, 3]))
def test_character_multiplicative(ca, cb, t):
    a = Poly(F3, kdec(F3, ca))
    b = Poly(F3, kdec(F3, cb))
    for p in irreducibles(F3, t):
        xa, xb = quadratic_character(a, p), quadratic_character(b, p)
        assert quadratic_character(a * b, p) == xa * xb


@given(st.integers(1, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_jacobi_matches_euler_on_primes(cm, cb):
    m = kdec(F5, cm)
    b = kdec(F5, 5**3 + cb)  # monic cubic
    for p in irreducibles(F5, 3):
        assert kjacobi(F5, m, p.coeffs) == kchar(F5, m, p.coeffs)
    # jacobi over composite b is multiplicative across b's factors
    j = kjacobi(F5, m, b)
    prod = 1
    for p, mult in factor_monic(Poly(F5, b)):
        prod *= kchar(F5, m, p.coeffs) ** mult
    assert j == prod


def test_jacobi_extension_field():
    for p in irreducibles(F9, 2):
        for code in range(1, 81):
            m = kdec(F9, code)
            assert kjacobi(F9, m, p.coeffs) == kchar(F9, m, p.coeffs)


@pytest.mark.parametrize("q", [3, 7, 27])
def test_jacobi_matches_euler_q_3_mod_4(q):
    # q = 3 mod 4 is where reciprocity flips the sign when both degrees
    # are odd (degree-3 primes leave odd-degree residues); m runs over
    # non-monic polynomials and multiples of p
    F = fq_from_q(q)
    c0 = F.canonical_nonsquare()
    lowers = [kdec(F, code) for code in range(1, 3 * q)]
    lowers += [kdec(F, code * 7919 % q**5) for code in range(1, 40)]
    for t in (1, 2, 3):
        primes = irreducibles(F, t)
        for p in primes[:: max(1, len(primes) // 12)]:
            pc = p.coeffs
            for m in lowers:
                for a in (kscale(F, m, c0), kmul(F, m, pc), kscale(F, kmul(F, m, pc), c0)):
                    assert kjacobi(F, a, pc) == kchar(F, a, pc), (q, a, pc)


# ---------------------------------------------------------------------------
# enc/dec invariants


@given(st.integers(0, 10**6))
def test_enc_dec_round_trip(code):
    assert kenc(F5, kdec(F5, code)) == code


def test_prime_norm():
    assert as_prime(F3, "T^2+1").norm == 9
    assert math.isclose(as_prime(F5, "T").norm, 5)


# ---------------------------------------------------------------------------
# table arithmetic of F_{p^e} against base-p digits (e = 1 included: prime
# fields run on the same tables)

TABLE_QS = (3, 5, 7, 13, 9, 25, 27, 49, 81, 125)


def digit_add(F, a, b):
    """Sum of two codes digit by digit mod p (no tables)."""
    p, out, mult = F.p, 0, 1
    for _ in range(F.e):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def digit_neg(F, a):
    p, out, mult = F.p, 0, 1
    for _ in range(F.e):
        out += ((-a) % p) * mult
        a //= p
        mult *= p
    return out


def digit_mul(F, a, b):
    """Product of two codes as F_p-polynomials reduced mod F.modulus (no tables)."""
    p, e, mod = F.p, F.e, F.modulus
    x = [(a // p**i) % p for i in range(e)]
    y = [(b // p**i) % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += xi * yj
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k] % p
        for j in range(e + 1):
            prod[k - e + j] -= c * mod[j]
    return sum((c % p) * p**i for i, c in enumerate(prod[:e]))


def power_basis_by_division(p, n):
    """(W, exp, log, zech) of F_{p^n} one element at a time: T^k mod W by kmod.

    zech comes from adding 1 to g^k with kadd, and log[0] = 2N.
    """
    base = Fq(p)
    W = primitive_modulus(p, n)
    N = p**n - 1
    powers, x = [], (1,)
    for _ in range(N):
        powers.append(x)
        x = kmod(base, (0,) + x, W)
    assert x == (1,)
    exp = [kenc(base, x) for x in powers]
    log = [2 * N] * (N + 1)
    for k, code in enumerate(exp):
        log[code] = k
    zech = [log[kenc(base, kadd(base, x, (1,)))] for x in powers]
    return W, exp, log, zech


@pytest.mark.parametrize(
    "p, n", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (5, 3), (3, 8), (5, 1), (7, 1), (13, 1)]
)
def test_log_tables_match_power_basis_by_division(p, n):
    W, exp, log, zech = log_tables(p, n)
    assert (W, list(exp), list(log), list(zech)) == power_basis_by_division(p, n)
    assert sorted(exp) == list(range(1, p**n))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 257])
def test_prime_modulus_is_the_smallest_primitive_root_shift(p):
    # T + c is primitive iff T = -c has multiplicative order p - 1
    def order(g):
        k, x = 1, g
        while x != 1:
            k, x = k + 1, x * g % p
        return k

    c = next(c for c in range(1, p) if order(-c % p) == p - 1)
    assert primitive_modulus(p, 1) == (c, 1)


@pytest.mark.parametrize("q", [3, 9])
def test_monics_avoiding_matches_division(q):
    F = fq_from_q(q)
    rng = random.Random(q)
    for d in range(4):
        for _ in range(5):
            divisors = [kdec(F, F.q**k + rng.randrange(F.q**k)) for k in (1, 1, 2) if k <= d]
            expected = [m for m in kmonics(F, d) if all(kmod(F, m, g) for g in divisors)]
            assert kmonics_avoiding(F, d, divisors) == expected


# sha256 of json [modulus, _exp, _log, _zech, _neg], pinned before FqSpec read log_tables
FIELD_TABLE_DIGESTS = {
    9: "1e4959d4c83c9511b551739a5431ec2883390512d33945391a6b69dc2dd2430f",
    25: "748c1dceea1469b4ee30af715f6f99d77315b6d90721a4f6c3d23fdd4b5b8cc6",
    27: "f682d7a77a156b18ce53a2de6a9d7a35185d12b4f27de0a63d6e37498d95f107",
    49: "a69812c98c1303a3bd285c184338a2072ca219c68f18f44854d9ef8b810e9853",
    81: "c95edf8b3d9eabf79421d0c1b8878b6547cf723f1b969acdb8e974b26a448084",
    125: "39a65e54dba916f398d99598ac91643b3dad0893631c918b2eca883c8983f46b",
    3**10: "f26760d3288690e0b67f338075d1cad0e58cd7ad242a98a135658326bcde7021",
}


@pytest.mark.parametrize("q", sorted(FIELD_TABLE_DIGESTS))
def test_field_table_digest_is_pinned(q):
    F = fq_from_q(q)
    tables = [list(F.modulus), list(F._exp), list(F._log), list(F._zech), list(F._neg)]
    digest = hashlib.sha256(json.dumps(tables).encode()).hexdigest()
    assert digest == FIELD_TABLE_DIGESTS[q]


@pytest.mark.parametrize("q", TABLE_QS)
def test_field_tables_match_digit_arithmetic(q):
    F = fq_from_q(q)
    for a in range(q):
        assert F.neg(a) == digit_neg(F, a)
        for b in range(q):
            assert F.add(a, b) == digit_add(F, a, b)
            assert F.sub(a, b) == digit_add(F, a, digit_neg(F, b))
            assert F.mul(a, b) == digit_mul(F, a, b)


class Schoolbook:
    """Polynomials over F_q on coefficient lists, from the digit helpers only."""

    def __init__(self, F):
        q = F.q
        self.addt = [[digit_add(F, a, b) for b in range(q)] for a in range(q)]
        self.mult = [[digit_mul(F, a, b) for b in range(q)] for a in range(q)]
        self.negt = [digit_neg(F, a) for a in range(q)]
        self.invt = [None] + [self.mult[a].index(1) for a in range(1, q)]

    @staticmethod
    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def add(self, a, b):
        n = max(len(a), len(b))
        a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
        return self.trim(self.addt[x][y] for x, y in zip(a, b))

    def sub(self, a, b):
        return self.add(a, [self.negt[y] for y in b])

    def scale(self, a, c):
        return self.trim(self.mult[x][c] for x in a)

    def mul(self, a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.addt[out[i + j]][self.mult[x][y]]
        return self.trim(out)

    def divmod(self, a, b):
        rem, db = list(a), len(b) - 1
        quot = [0] * max(len(a) - db, 0)
        for i in range(len(a) - 1 - db, -1, -1):
            c = self.mult[rem[i + db]][self.invt[b[-1]]]
            quot[i] = c
            for j, y in enumerate(b):
                rem[i + j] = self.addt[rem[i + j]][self.negt[self.mult[c][y]]]
        return self.trim(quot), self.trim(rem[:db])

    def monic(self, a):
        return self.scale(a, self.invt[a[-1]]) if a else a

    def deriv(self, a):
        # i a_i as a_i added to itself i times
        out = []
        for i in range(1, len(a)):
            acc = 0
            for _ in range(i):
                acc = self.addt[acc][a[i]]
            out.append(acc)
        return self.trim(out)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def xgcd(self, a, b):
        (r0, u0, v0), (r1, u1, v1) = (a, (1,), ()), (b, (), (1,))
        while r1:
            quo, r = self.divmod(r0, r1)
            (r0, u0, v0), (r1, u1, v1) = (r1, u1, v1), (
                r,
                self.sub(u0, self.mul(quo, u1)),
                self.sub(v0, self.mul(quo, v1)),
            )
        if not r0:
            return (), u0, v0
        c = self.invt[r0[-1]]
        return self.scale(r0, c), self.scale(u0, c), self.scale(v0, c)


@pytest.mark.parametrize("q", TABLE_QS)
def test_kernels_match_schoolbook_on_digits(q):
    F = fq_from_q(q)
    ref = Schoolbook(F)
    rng = random.Random(q)

    def poly(deg, top=None):
        if deg < 0:
            return ()
        return tuple(rng.randrange(q) for _ in range(deg)) + (top or rng.randrange(1, q),)

    for k in range(3000):
        a = poly(rng.randrange(-1, 8))
        kind = k % 3  # zero, monic and non-monic divisors in turn
        b = () if kind == 0 else poly(rng.randrange(0, 5), 1 if kind == 1 else None)
        c = rng.randrange(q)
        assert kadd(F, a, b) == ref.add(a, b)
        assert ksub(F, a, b) == ref.sub(a, b)
        assert kscale(F, a, c) == ref.scale(a, c)
        assert kmul(F, a, b) == ref.mul(a, b)
        assert kgcd(F, a, b) == ref.gcd(a, b)
        assert kxgcd(F, a, b) == ref.xgcd(a, b)
        assert kderiv(F, a) == ref.deriv(a)
        if b:
            assert kdivmod(F, a, b) == ref.divmod(a, b)
        else:
            with pytest.raises(ZeroDivisionError):
                kdivmod(F, a, b)
