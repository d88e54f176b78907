"""Exact arithmetic in F_q and the polynomial ring A = F_q[T], q odd.

Field elements are encoded as integers 0..q-1, q = p^e: the base-p digit
string of a residue modulo a fixed primitive modulus of degree e (the
code-smallest one, recorded on the FqSpec, so encodings are
reproducible); for prime q that is the residue itself.

Polynomials are coefficient tuples, constant term first, with no trailing
zeros; the zero polynomial is the empty tuple.  The absolute value is
|a| = q^deg(a).  Every polynomial has a stable integer code (base-q value
of its coefficient string); code order coincides with the canonical
ordering used for deterministic output: degree first, then coefficients
compared from the leading one down.

The private k* functions operate on raw coefficient tuples and carry the
hot loops; Poly is the public surface.  A prime is a PrimePoly: a Poly
that is monic irreducible and records how that was witnessed.
"""

from __future__ import annotations

import functools
import re
from array import array
from dataclasses import dataclass

from .errors import DEFAULT_ENUM_BUDGET, DomainError, admit

MAX_Q = 1 << 16

# ---------------------------------------------------------------------------
# small integer helpers


def _is_prime_int(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_int(n):
    """Trial-division factorization of a positive integer, {prime: mult}."""
    if n < 1:
        raise DomainError("factor_int needs a positive integer")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _moebius(n):
    mu = 1
    for _, m in factor_int(n).items():
        if m > 1:
            return 0
        mu = -mu
    return mu


# ---------------------------------------------------------------------------
# the coefficient field


class FqSpec:
    """Arithmetic in F_q, q = p^e with p an odd prime and q <= 2^16.

    Elements are integer codes 0..q-1: the base-p digit string of the
    residue written on the power basis of T modulo `modulus`, the
    canonical primitive modulus: the code-smallest monic irreducible of
    degree e over F_p whose residue class of T generates the
    multiplicative group (T + c for e = 1, so a code is its residue).
    Since T is then a generator g, every
    operation is a table lookup on discrete logarithms, n = q - 1, read
    from log_tables(p, e):

    * _log[c] = log_g c for c != 0, and _log[0] = 2n;
    * _exp[k] = g^(k mod n) for 0 <= k < 2n, and 0 on 2n <= k < 3n, so a
      zero factor (log 2n) plus any log below n lands on 0;
    * _zech[k] = log_g(1 + g^k) for 0 <= k < n, or 2n at k = n/2, where
      1 + g^k = 0 since -1 = g^(n/2); a log difference in (-n, n) indexes
      it directly through Python's negative indices;
    * _neg[c] = -c = g^(log c + n/2).

    Then g^x + g^y = _exp[x + _zech[y - x]] for x, y < n.  The k* kernels
    read these tables inline.
    """

    __slots__ = ("p", "e", "q", "modulus", "_exp", "_log", "_zech", "_neg", "_leg")

    def __init__(self, p, e):
        self.p = p
        self.e = e
        self.q = p**e
        n = self.q - 1
        self.modulus, exp, log, zech = log_tables(p, e)
        self._exp = exp = tuple(exp) * 2 + (0,) * n
        self._log = log = tuple(log)
        self._zech = tuple(zech)
        self._neg = tuple(exp[x + n // 2] for x in log)
        self._leg = tuple(
            0 if c == 0 else (1 if log[c] % 2 == 0 else -1) for c in range(self.q)
        )

    # -- element operations (codes in, codes out) ---------------------------

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        x = self._log[a]
        return self._exp[x + self._zech[self._log[b] - x]]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow_elt(self, a, k):
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def legendre(self, c):
        """Quadratic character of a constant: +1 square, -1 non-square, 0 zero."""
        return self._leg[c]

    def canonical_nonsquare(self):
        """Code-smallest non-square unit; exists since q is odd."""
        for c in range(1, self.q):
            if self._leg[c] == -1:
                return c
        raise AssertionError("odd q must have a non-square")

    def __repr__(self):
        return f"FqSpec(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, FqSpec) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((FqSpec, self.p, self.e))


def primitive_modulus(p, e):
    """Code-smallest monic primitive polynomial of degree e over F_p."""
    q = p**e
    # T generates the q - 1 units modulo f iff no T^k below is 1
    cofactors = [(q - 1) // ell for ell in factor_int(q - 1)]
    if e == 1:  # f = T + c, so T = -c; integer pow, as F_p's tables are built from f
        return next((c, 1) for c in range(1, p) if all(pow(-c, k, p) != 1 for k in cofactors))
    base = Fq(p)
    for lower in range(p**e):
        f = kdec(base, p**e + lower)
        if f[0] == 0 or not kis_irreducible(base, f):
            continue  # T must be a unit modulo f
        if any(kpow_mod(base, (0, 1), k, f) == (1,) for k in cofactors):
            continue
        return f
    raise AssertionError("no primitive polynomial found")


def log_tables(p, n):
    """(W, exp, log, zech) of F_{p^n} = F_p[T]/W; FqSpec and _ext_tables cache them.

    W = primitive_modulus(p, n) and g = T mod W; codes are base-p digits on
    the power basis, N = p^n - 1: exp[k] = g^k, log[c] = log_g c with
    log[0] = 2N, zech[k] = log_g(1 + g^k) (2N where that is 0).  Each step
    multiplies by T: the digits move up, and the digit h pushed out comes
    back as h T^n, adding h (-w_j) digitwise at each nonzero tap w_j of W.
    """
    W = primitive_modulus(p, n)
    N = p**n - 1
    top = p ** (n - 1)
    taps = [(p**j, (-w) % p) for j, w in enumerate(W[:-1]) if w]
    wrap = [[(pj, h * c % p) for pj, c in taps] for h in range(p)]
    exp = array("i", bytes(4 * N))
    log = array("i", bytes(4 * (N + 1)))
    log[0] = 2 * N
    code = 1
    for k in range(N):
        exp[k] = code
        log[code] = k
        h, code = divmod(code, top)
        code *= p
        for pj, c in wrap[h]:
            d = code // pj % p
            code += ((d + c) % p - d) * pj
    zech = array("i", [log[v - v % p + (v + 1) % p] for v in exp])
    return W, exp, log, zech


def Fq(p, e=1):
    """Construct (and cache) the field F_{p^e}; p odd prime, p^e <= 2^16.

    Specs are interned: the same (p, e) always returns the same object.
    """
    return _fq_interned(int(p), int(e))


@functools.cache
def _fq_interned(p, e):
    if not _is_prime_int(p) or p == 2:
        raise DomainError(f"p must be an odd prime, got {p}")
    if e < 1 or p**e > MAX_Q:
        raise DomainError(f"q = p^e must satisfy 1 <= e and q <= {MAX_Q}")
    return FqSpec(p, e)


def fq_from_q(q):
    """Field with q elements from q alone (q an odd prime power)."""
    fac = factor_int(q)
    if len(fac) != 1:
        raise DomainError(f"q = {q} is not a prime power")
    (p, e), = fac.items()
    return Fq(p, e)


# ---------------------------------------------------------------------------
# raw polynomial kernels: coefficient tuples, constant first, trimmed


def ktrim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def kdeg(a):
    return len(a) - 1  # zero polynomial gets -1


def kenc(F, a):
    q = F.q
    code = 0
    for c in reversed(a):
        code = code * q + c
    return code


def kdec(F, code):
    q = F.q
    out = []
    while code:
        out.append(code % q)
        code //= q
    return tuple(out)


def kadd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    exp, log, zech = F._exp, F._log, F._zech
    out = list(a)
    for i, c in enumerate(b):
        if c:
            o = out[i]
            if o:
                x = log[o]
                out[i] = exp[x + zech[log[c] - x]]
            else:
                out[i] = c
    return ktrim(out)


def kneg(F, a):
    return tuple(map(F._neg.__getitem__, a))


def ksub(F, a, b):
    return kadd(F, a, kneg(F, b))


def kscale(F, a, c):
    if c == 0:
        return ()
    exp, log = F._exp, F._log
    y = log[c]
    return tuple(exp[log[x] + y] for x in a)


def kmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    exp, log, zech, n = F._exp, F._log, F._zech, F.q - 1
    logs_b = [(j, log[bj]) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            x = log[ai]
            for j, y in logs_b:
                k, s = i + j, x + y  # a_i b_j = g^s
                o = out[k]
                if o:
                    z = log[o]
                    out[k] = exp[z + zech[(s - z) % n]]
                else:
                    out[k] = exp[s]
    return ktrim(out)


def kdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return (), a
    # subtracting (c / lc(b)) b_j adds g^(log c + m_j), where
    # m_j = log b_j - log lc(b) + n/2; the top term cancels and is not read again
    exp, log, zech, n = F._exp, F._log, F._zech, F.q - 1
    lc = log[b[-1]]
    logs_b = [(j, (log[bj] - lc + n // 2) % n) for j, bj in enumerate(b[:-1]) if bj]
    rem = list(a)
    quot = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = rem[i + db]
        if c:
            x = log[c]
            quot[i] = exp[x - lc + n]
            for j, y in logs_b:
                k, s = i + j, x + y
                o = rem[k]
                if o:
                    z = log[o]
                    rem[k] = exp[z + zech[(s - z) % n]]
                else:
                    rem[k] = exp[s]
    return ktrim(quot), ktrim(rem[:db])


def kmod(F, a, b):
    return kdivmod(F, a, b)[1]


def kdiv_exact(F, a, b):
    q, r = kdivmod(F, a, b)
    if r:
        raise AssertionError("inexact polynomial division")
    return q


def kmonic(F, a):
    """(monic multiple of a, leading coefficient)."""
    if not a:
        raise DomainError("zero polynomial has no monic normalization")
    lc = a[-1]
    if lc == 1:
        return a, lc
    return kscale(F, a, F.inv(lc)), lc


def kgcd(F, a, b):
    while b:
        a, b = b, kmod(F, a, b)
    if not a:
        return ()
    return kmonic(F, a)[0]


def kxgcd(F, a, b):
    """(g, u, v) with g = u*a + v*b, g monic (or zero)."""
    r0, r1 = a, b
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = kdivmod(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, ksub(F, u0, kmul(F, q, u1))
        v0, v1 = v1, ksub(F, v0, kmul(F, q, v1))
    if not r0:
        return (), u0, v0
    lc = r0[-1]
    if lc != 1:
        c = F.inv(lc)
        r0, u0, v0 = kscale(F, r0, c), kscale(F, u0, c), kscale(F, v0, c)
    return r0, u0, v0


def kpow_mod(F, a, k, mod):
    if k < 0:
        raise DomainError("negative exponent in kpow_mod")
    result = kmod(F, (1,), mod)
    a = kmod(F, a, mod)
    while k:
        if k & 1:
            result = kmod(F, kmul(F, result, a), mod)
        a = kmod(F, kmul(F, a, a), mod)
        k >>= 1
    return result


def kderiv(F, a):
    # i mod p has the same code in F_p and, as a constant, in F_{p^e}
    return ktrim([F.mul(i % F.p, a[i]) for i in range(1, len(a))])


def kmonics(F, d):
    """All monic polynomials of degree d in canonical order."""
    for lower in range(F.q**d):
        yield kdec(F, F.q**d + lower)


def kmonics_avoiding(F, d, divisors):
    """The monic polynomials of degree d that no divisor divides, in canonical order.

    A strike sieve: each divisor (monic, of degree at most d) strikes its
    monic multiples of degree d.
    """
    size = F.q**d
    struck = bytearray(size)
    for g in divisors:
        for c in kmonics(F, d - kdeg(g)):
            struck[kenc(F, kmul(F, g, c)) - size] = 1
    return [kdec(F, size + lower) for lower in range(size) if not struck[lower]]


# ---------------------------------------------------------------------------
# irreducibility, factorization


def kis_irreducible(F, f):
    """Deterministic full irreducibility test (Rabin) for monic f."""
    t = kdeg(f)
    if t < 1:
        return False
    if f[0] == 0 and t > 1:
        return False
    x = (0, 1)
    # powers of Frobenius applied to T modulo f
    frob = [kmod(F, x, f)]
    for _ in range(t):
        frob.append(kpow_mod(F, frob[-1], F.q, f))
    for ell in factor_int(t):
        g = kgcd(F, ksub(F, frob[t // ell], frob[0]), f)
        if g != (1,):
            return False
    return frob[t] == frob[0]


def _kpth_root(F, f):
    """p-th root of f when f' = 0 (all exponents divisible by p)."""
    p = F.p
    k = F.p ** (F.e - 1)
    out = []
    for i in range(0, len(f), p):
        out.append(F.pow_elt(f[i], k))
    return ktrim(out)


def _edf(F, f, d):
    """Split monic squarefree f, all of whose prime factors have degree d.

    The candidates r are the non-constant residues mod f in canonical
    order, codes q .. q^n - 1.  Some r splits f: by CRT one of them is 0
    modulo one prime factor and 1 modulo another, so gcd(r, f) is proper.
    """
    n = kdeg(f)
    if n == d:
        return [f]
    half = (F.q**d - 1) // 2
    for code in range(F.q, F.q**n):
        r = kdec(F, code)
        g = kgcd(F, r, f)
        if 0 < kdeg(g) < n:
            return _edf(F, g, d) + _edf(F, kdiv_exact(F, f, g), d)
        s = kpow_mod(F, r, half, f)
        g = kgcd(F, ksub(F, s, (1,)), f)
        if 0 < kdeg(g) < n:
            return _edf(F, g, d) + _edf(F, kdiv_exact(F, f, g), d)
    raise AssertionError(f"equal-degree splitting found no split of a degree-{n} product")


def _factor_squarefree(F, f):
    """Distinct-degree then equal-degree splitting of monic squarefree f."""
    out = []
    x = (0, 1)
    cur = f
    h = kmod(F, x, cur)
    d = 0
    while kdeg(cur) > 0:
        d += 1
        if 2 * d > kdeg(cur):
            out.append(cur)
            break
        h = kpow_mod(F, h, F.q, cur)
        g = kgcd(F, ksub(F, h, kmod(F, x, cur)), cur)
        if kdeg(g) > 0:
            out.extend(_edf(F, g, d))
            cur = kdiv_exact(F, cur, g)
            h = kmod(F, h, cur)
    return out


def kfactor_monic(F, f):
    """Factor monic f into {prime tuple: multiplicity}."""
    if kdeg(f) <= 0:
        return {}
    df = kderiv(F, f)
    if not df:
        sub = kfactor_monic(F, _kpth_root(F, f))
        return {pp: F.p * m for pp, m in sub.items()}
    s = kdiv_exact(F, f, kgcd(F, f, df))
    out = {}
    rem = f
    for prime in _factor_squarefree(F, s):
        m = 0
        while True:
            quot, r = kdivmod(F, rem, prime)
            if r:
                break
            rem = quot
            m += 1
        out[prime] = m
    for pp, m in kfactor_monic(F, rem).items():
        out[pp] = out.get(pp, 0) + m
    return out


def kis_squarefree(F, f):
    if kdeg(f) <= 0:
        return kdeg(f) == 0
    df = kderiv(F, f)
    if not df:
        return False
    return kgcd(F, f, df) == (1,)


# ---------------------------------------------------------------------------
# quadratic characters


def kchar(F, m, prime):
    """Quadratic character of m modulo an irreducible: Euler criterion."""
    r = kmod(F, m, prime)
    if not r:
        return 0
    s = kpow_mod(F, r, (F.q ** kdeg(prime) - 1) // 2, prime)
    if s == (1,):
        return 1
    if kadd(F, s, (1,)) == ():
        return -1
    raise AssertionError("Euler criterion returned a non-sign")


def kjacobi(F, a, b):
    """Jacobi symbol (a/b) for monic b, via quadratic reciprocity.

    Agrees with kchar when b is irreducible; never factors anything.
    """
    if not b or b[-1] != 1:
        raise DomainError("kjacobi needs a monic lower argument")
    recip_sign_active = ((F.q - 1) // 2) % 2 == 1  # q = 3 mod 4
    if F.e == 1:
        return _kjacobi_prime(F.p, F._leg, recip_sign_active, list(a), list(b))
    result = 1
    a = kmod(F, a, b)
    while True:
        db = kdeg(b)
        if db == 0:
            return result
        if not a:
            return 0
        lc = a[-1]
        da = kdeg(a)
        if F.legendre(lc) == -1 and db % 2 == 1:
            result = -result
        if da == 0:
            return result
        a0 = kscale(F, a, F.inv(lc)) if lc != 1 else a
        if recip_sign_active and da % 2 == 1 and db % 2 == 1:
            result = -result
        a, b = kmod(F, b, a0), a0


def _kjacobi_prime(p, leg, recip_sign_active, a, b):
    """kjacobi over F_p on lists: the same chain as the generic body.

    The divisor is always monic, so each remainder step needs no inverse;
    coefficients are reduced mod p only when read as a pivot or once the
    remainder is complete.  The one integer mod-p path left in F_q
    arithmetic, kept because it is faster: on a shared 2-vCPU machine the
    criterion-08 sweep took 68-72 s with F_p sent through the table body,
    against 41-47 s on this chain.
    """
    result = 1
    while True:
        db = len(b) - 1
        if db == 0:
            return result
        for i in range(len(a) - 1 - db, -1, -1):  # a <- a mod b
            c = a[i + db] % p
            if c:
                for j in range(db):
                    a[i + j] -= c * b[j]
        a = [c % p for c in a[:db]]
        while a and not a[-1]:
            a.pop()
        if not a:
            return 0
        lc = a[-1]
        da = len(a) - 1
        if leg[lc] == -1 and db % 2 == 1:
            result = -result
        if da == 0:
            return result
        if lc != 1:
            inv = pow(lc, -1, p)
            a = [c * inv % p for c in a]
        if recip_sign_active and da % 2 == 1 and db % 2 == 1:
            result = -result
        a, b = b, a


# ---------------------------------------------------------------------------
# public polynomials and primes


@dataclass(frozen=True, slots=True)
class Poly:
    """Polynomial over a fixed F_q; immutable, hashable, exact."""

    field: FqSpec
    coeffs: tuple

    @classmethod
    def make(cls, field, coeffs):
        return cls(field, ktrim(tuple(int(c) % field.q for c in coeffs)))

    @classmethod
    def constant(cls, field, c):
        return cls(field, ktrim((int(c) % field.q,)))

    # equal values are equal whatever the subclass (a PrimePoly is a Poly)
    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def norm(self):
        """|a| = q^deg(a); the zero polynomial has norm 0."""
        if self.is_zero:
            return 0
        return self.field.q**self.degree

    @property
    def code(self):
        """Integer code; realizes the canonical (degree, leading-lex) order."""
        return kenc(self.field, self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise DomainError("mixed coefficient fields")
            return other
        if isinstance(other, int):
            return Poly.constant(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return other
        return Poly(self.field, kadd(self.field, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, kneg(self.field, self.coeffs))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return other
        return Poly(self.field, ksub(self.field, self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return other
        return Poly(self.field, kmul(self.field, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._lift(other)
        q, r = kdivmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative polynomial power")
        result = Poly.constant(self.field, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def monic(self):
        return Poly(self.field, kmonic(self.field, self.coeffs)[0])

    def gcd(self, other):
        other = self._lift(other)
        return Poly(self.field, kgcd(self.field, self.coeffs, other.coeffs))

    def is_squarefree(self):
        return kis_squarefree(self.field, self.coeffs)

    # -- text / JSON ----------------------------------------------------------

    def text(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("T" if c == 1 else f"{c}*T")
            else:
                terms.append(f"T^{i}" if c == 1 else f"{c}*T^{i}")
        return "+".join(terms)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Poly(q={self.field.q}, {self.text()})"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(T(?:\^(\d+))?)?$")


def poly_from_text(field, s):
    """Parse "2*T^3+T+1" style text; coefficients reduced into 0..q-1."""
    s = s.replace(" ", "").replace("−", "-")
    if not s:
        raise DomainError("empty polynomial text")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise DomainError(f"cannot parse polynomial text {s!r}")
    acc = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise DomainError(f"cannot parse polynomial term {chunk!r}")
        coef = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            exp = 0
        elif m.group(3) is not None:
            exp = int(m.group(3))
        else:
            exp = 1
        if coef >= field.q and field.e > 1:
            raise DomainError(
                f"coefficient {coef} is not an element code of F_{field.q}"
            )
        c = coef % field.q if field.e == 1 else coef
        if sign == -1:
            c = field.neg(c)
        acc[exp] = field.add(acc.get(exp, 0), c)
    if not acc:
        return Poly(field, ())
    coeffs = [0] * (max(acc) + 1)
    for exp, c in acc.items():
        coeffs[exp] = c
    return Poly(field, ktrim(coeffs))


def parse_poly(field, text):
    """A Poly as is; anything else parsed as text like "2*T^3+T+1"."""
    if isinstance(text, Poly):
        return text
    return poly_from_text(field, str(text).strip())


@dataclass(frozen=True, slots=True, eq=False)
class PrimePoly(Poly):
    """Monic irreducible polynomial with its irreducibility witnessed.

    The default construction path runs the full deterministic test; the
    internal constructors record the exhaustive method that certified the
    factor instead.  No root-free or degree shortcut is ever stored.
    Equality and hashing are those of the Poly: the witness is ignored.
    """

    witness: str = "unchecked"

    def __post_init__(self):
        if self.witness == "unchecked":
            if not self.is_monic or not kis_irreducible(self.field, self.coeffs):
                raise DomainError(
                    f"Poly(q={self.field.q}, {self.text()}) is not monic irreducible"
                )
            object.__setattr__(self, "witness", "rabin")

    @property
    def poly(self):
        """The prime itself; kept for callers that still unwrap it."""
        return self

    def __repr__(self):
        return f"PrimePoly(q={self.field.q}, {self.text()})"


def as_prime(field, p):
    """Coerce a Poly / text / PrimePoly to a verified PrimePoly."""
    if isinstance(p, PrimePoly):
        return p
    p = parse_poly(field, p)
    return PrimePoly(p.field, p.coeffs)


# ---------------------------------------------------------------------------
# factorization and enumeration (public)


def factor_monic(f):
    """Factor a monic polynomial; list of (PrimePoly, multiplicity).

    Primes are sorted canonically; the product of prime powers equals f.
    A PrimePoly is its own factorization: the type already certifies it.
    """
    if isinstance(f, PrimePoly):
        return [(f, 1)]
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    if not f.is_monic:
        raise DomainError("factor_monic needs a monic polynomial")
    F = f.field
    fac = kfactor_monic(F, f.coeffs)
    out = [
        (PrimePoly(F, pp, "split-recombine"), m) for pp, m in fac.items()
    ]
    out.sort(key=lambda t: kenc(F, t[0].coeffs))
    return out


def factor_any(f):
    """(leading coefficient, factorization of the monic part)."""
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    return f.leading, factor_monic(f.monic())


def irreducible_count(q, t):
    """Number of monic irreducibles of degree t over F_q (divisor sum)."""
    if t < 1:
        raise DomainError("degree must be >= 1")
    total = 0
    for d in range(1, t + 1):
        if t % d == 0:
            total += _moebius(d) * q ** (t // d)
    assert total % t == 0
    return total // t


def irreducibles(field, t, budget=DEFAULT_ENUM_BUDGET):
    """All monic irreducibles of degree t, canonically ordered.

    Sieve by striking products (smallest factor has degree <= t/2), so
    membership in the output is itself an exhaustive irreducibility
    witness.  Enumeration work ~ t*q^t is checked against the budget on
    every call, cached or not.
    """
    if t < 1:
        raise DomainError("degree must be >= 1")
    admit(t * field.q**t, budget, "irreducible enumeration", q=field.q, t=t)
    return _irreducible_sieve(field, t)


@functools.cache
def _irreducible_sieve(field, t):
    smaller = (g.coeffs for d in range(1, t // 2 + 1) for g in _irreducible_sieve(field, d))
    result = tuple(PrimePoly(field, f, "sieve") for f in kmonics_avoiding(field, t, smaller))
    expected = irreducible_count(field.q, t)
    if len(result) != expected:
        raise AssertionError(
            f"sieve found {len(result)} irreducibles of degree {t}, expected {expected}"
        )
    return result


def quadratic_character(m, prime):
    """chi(m mod p): +1 if a nonzero square in A/p, -1 if not, 0 if p | m.

    Completely multiplicative in m for m coprime to p; +1 on all of
    F_q^* when deg p is even.
    """
    p = as_prime(m.field, prime)
    if m.is_zero:
        raise DomainError("character of the zero polynomial")
    return kchar(m.field, m.coeffs, p.coeffs)


def jacobi_symbol(m, b):
    """Reciprocity-chain Jacobi symbol (m/b), b monic; no factoring."""
    return kjacobi(m.field, m.coeffs, b.coeffs)


def monic_polys(field, degree):
    """Iterator over monic polynomials of the given degree, canonical order."""
    for c in kmonics(field, degree):
        yield Poly(field, c)
