"""Imaginary quadratic extensions K = F_q(T)(sqrt(m)) and their orders.

A radicand m must be squarefree and "imaginary": the degree valuation has
a single extension to K.  That happens in exactly two ways — deg m odd
(infinity ramifies) or deg m even with non-square leading coefficient
(infinity is inert, residue degree 2).  Constant extensions (m a constant
times a square) are rejected so that the unit group of every order is
F_q^* and all unit indices collapse to 1.

Class groups are computed two independent ways:

* the zeta / point-counting oracle: count affine points of y^2 = m(t)
  over F_{q^i} for i <= genus, assemble the numerator L(u) of the zeta
  function through Newton's identities and the functional equation, and
  read off h = L(1).  The counts run on discrete logarithms in
  F_{q^i} = F_{p^(e i)}: Horner's rule evaluates m at every t at once,
  multiplication adds logs, addition goes through a Zech-log table, and
  m(t) is a square iff its log is even (tables built once per (q, i)).
  The pass, value_classes, also feeds splitcount's split-prime counts;

* reduced binary forms (a, b) with b^2 = D mod a for the order radicand
  D = f^2 m, composed by the classical extended-gcd composition and
  reduced by the degree-dropping step.  This path needs deg D odd
  (ramified type); inert fields go through the oracle and only for the
  maximal order.  The forms are found by a walk over the monic a of
  degree <= g_D as products of prime powers p^k in increasing code,
  cut where D has no root mod p^k.  Roots mod p^k come from a table
  built by squaring once per (q, p^k), less those of non-invertible
  forms; roots mod a p^k are joined from those mod a and mod p^k by
  CRT.  No composite modulus is tabled.

Both are exact; tests pit one against the other and against the
conductor formula h(R) = h_K |f| prod_{p | f} (1 - chi(p)/|p|).
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add

from .errors import DEFAULT_ENUM_BUDGET, DomainError, FieldRejected, UnsupportedPath, admit
from .ffpoly import (
    Poly,
    factor_monic,
    irreducibles,
    jacobi_symbol,
    kadd,
    kdec,
    kdiv_exact,
    kenc,
    kfactor_monic,
    kgcd,
    kmod,
    kmonic,
    kmul,
    kneg,
    ksub,
    kxgcd,
    log_tables,
    parse_poly,
)

# ---------------------------------------------------------------------------
# the field


@dataclass(frozen=True, slots=True)
class ImagQuadField:
    """An imaginary quadratic extension of F_q(T), defined by y^2 = m."""

    field: object  # FqSpec
    m: Poly
    infinity_type: str  # "ramified" | "inert"
    genus: int

    def json_obj(self):
        return {
            "q": self.field.q,
            "m": self.m.text(),
            "genus": self.genus,
            "infinity_type": self.infinity_type,
        }

    def __repr__(self):
        return (
            f"ImagQuadField(q={self.field.q}, m={self.m.text()}, "
            f"{self.infinity_type}, g={self.genus})"
        )


def analyze_quadratic(field, m):
    """Validate a radicand and build the field record.

    Raises FieldRejected with reason "zero", "constant_extension",
    "not_squarefree", or "real" when m does not define an imaginary
    quadratic (geometric) extension.
    """
    m = parse_poly(field, m)
    if m.is_zero:
        raise FieldRejected("zero", "radicand is zero")
    if m.degree == 0:
        raise FieldRejected(
            "constant_extension",
            f"m = {m.text()} is constant: sqrt(m) generates a constant extension",
        )
    monic_part = m.monic()
    if not monic_part.is_squarefree():
        if all(mult % 2 == 0 for _, mult in factor_monic(monic_part)):
            raise FieldRejected(
                "constant_extension",
                f"m = {m.text()} is a constant times a square: constant extension",
            )
        raise FieldRejected("not_squarefree", f"m = {m.text()} is not squarefree")
    if m.degree % 2 == 1:
        return ImagQuadField(field, m, "ramified", (m.degree - 1) // 2)
    if field.legendre(m.leading) == 1:
        raise FieldRejected(
            "real",
            f"m = {m.text()} has even degree and square leading coefficient: "
            "infinity splits (real type)",
        )
    return ImagQuadField(field, m, "inert", m.degree // 2 - 1)


# ---------------------------------------------------------------------------
# point-counting / zeta oracle


@functools.cache
def _ext_tables(field, i):
    """Zech-log tables of F_{q^i} = F_{p^n}, n = e i, cached per (field, i).

    Read from ffpoly.log_tables(p, n): g = T modulo the code-smallest
    primitive polynomial of degree n over F_p, and N = p^n - 1.  Returns
    (N, zech, cls, clog):

    * zech[x] = log_g(1 + g^x) for 0 <= x < 2N (x read mod N), or 2N
      where 1 + g^x = 0; zech[x] = 0 on the block 2N <= x < 3N, so an
      accumulator that is zero (log 2N) plus c comes out as c;
    * cls[x] = zech[x] mod 2, or 2 where zech[x] = 2N;
    * clog[c] = log_g of the F_q element with code c (None for 0), F_q
      embedded through a root of field.modulus; any root gives the same
      point counts, since the roots are Galois conjugate.
    """
    p, n = field.p, field.e * i
    N = p**n - 1
    _, _, log, zech = log_tables(p, n)
    zech.extend(zech)
    zech.extend(array("i", bytes(4 * N)))
    cls = bytes(2 if z == 2 * N else z & 1 for z in zech)

    def log_at(coeffs, x):
        """log_g of sum_j c_j g^(j x) for codes c_j in F_p; None if the sum is 0."""
        acc = None
        for j, c in enumerate(coeffs):
            if c:
                term = (log[c] + j * x) % N
                if acc is None:
                    acc = term
                else:
                    z = zech[(term - acc) % N]
                    acc = None if z == 2 * N else (acc + z) % N
        return acc

    step = N // (field.q - 1)  # F_q^x is generated by g^step
    # log_g of the image of T, a root of field.modulus
    root = next(b for b in range(step, N, step) if log_at(field.modulus, b) is None)
    clog = [None] + [
        log_at([(code // p**j) % p for j in range(field.e)], root) for code in range(1, field.q)
    ]
    return N, zech, cls, clog


def _shifts(start, k, N):
    """(start + k l) mod N for l = 0 .. N-1."""
    start %= N
    if k == 1:
        return chain(range(start, N), range(start))
    return map(N.__rmod__, range(start, start + k * N, k))


SQUARE, NONSQUARE, ZERO = 0, 1, 2  # the classes value_classes gives m(x)
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # SQUARE <-> NONSQUARE


def value_classes(m, i):
    """Class of m(x) for every x in F_{q^i}: SQUARE, NONSQUARE or ZERO.

    Byte l is the class of m(g^l) for 0 <= l < N, byte N that of m(0);
    g and N = q^i - 1 come from _ext_tables, so every radicand gets the
    same x at the same index.  "Square" is taken in F_{q^i}.

    Horner's rule for all t = g^l at once, in discrete logs: if the
    accumulator is g^a and the next nonzero coefficient c = g^L sits k
    degrees lower, the new accumulator is a t^k + c = g^(L + zech[a +
    k l - L]).  Only the argument u of zech is kept, one list entry per
    t: u' = zech[u] + (L - L' + k' l) mod N.  After the lowest nonzero
    coefficient, of degree k, m(t) is 0 where zech[u] = 2N and otherwise
    has log L + k l + zech[u]; it is a square iff that log is even, so
    the parity class of zech[u] is flipped where L + k l is odd.
    """
    N, zech, cls, clog = _ext_tables(m.field, i)
    terms = [(j, clog[c]) for j, c in enumerate(m.coeffs) if c]
    deg, L = terms.pop()
    u = [2 * N] * N  # Horner starts from zero
    for j, next_L in reversed(terms):
        u = list(map(add, map(zech.__getitem__, u), _shifts(L - next_L, deg - j, N)))
        deg, L = j, next_L
    classes = bytearray(map(cls.__getitem__, u))
    if deg % 2 == 0:
        if L & 1:
            classes = classes.translate(_FLIP)
    else:
        odd = 1 - (L & 1)  # the first l with L + deg l odd
        classes[odd::2] = classes[odd::2].translate(_FLIP)
    c0 = m.coeffs[0]
    classes.append(ZERO if c0 == 0 else clog[c0] & 1)
    return classes


def affine_point_count(K, i):
    """Number of t in F_{q^i} weighted by solutions of y^2 = m(t)."""
    classes = value_classes(K.m, i)
    return classes.count(ZERO) + 2 * classes.count(SQUARE)


def point_count(K, i):
    """N_i: points of the smooth projective model over F_{q^i}."""
    n = affine_point_count(K, i)
    if K.infinity_type == "ramified":
        return n + 1
    return n + (2 if i % 2 == 0 else 0)


def zeta_numerator(K, budget=DEFAULT_ENUM_BUDGET):
    """Coefficients [a_0..a_{2g}] of L(u) = prod (1 - alpha_j u).

    Built from the power sums s_i = q^i + 1 - N_i via Newton's identities
    for i <= g, then completed by the functional equation
    a_{2g-k} = q^{g-k} a_k.
    """
    g, q = K.genus, K.field.q
    if g == 0:
        return [1]
    evals = q * (q**g - 1) // (q - 1)  # |F_{q^i}| points for each i = 1..g
    admit(evals, budget, "point counting", genus=g, q=q)
    s = [0] * (g + 1)
    for i in range(1, g + 1):
        s[i] = q**i + 1 - point_count(K, i)
    a = [0] * (2 * g + 1)
    a[0] = 1
    for k in range(1, g + 1):
        acc = sum(s[i] * a[k - i] for i in range(1, k + 1))
        if acc % k:
            raise AssertionError("Newton identity produced a non-integer")
        a[k] = -acc // k
    for k in range(g):
        a[2 * g - k] = q ** (g - k) * a[k]
    return a


def class_number_zeta(K, budget=DEFAULT_ENUM_BUDGET):
    """h of the maximal order, as L(1); independent of the form machinery."""
    h = sum(zeta_numerator(K, budget))
    if h < 1:
        raise AssertionError("zeta numerator evaluated to a non-positive h")
    return h


# ---------------------------------------------------------------------------
# orders and forms


@dataclass(frozen=True, slots=True)
class QuadOrder:
    """The order R = A + f O_K inside K, modeled as A[sqrt(D)], D = f^2 m.

    D is set once at construction; equality and hashing read K and the
    conductor only, which determine it.
    """

    K: ImagQuadField
    conductor: Poly
    D: Poly = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "D", self.conductor * self.conductor * self.K.m)

    @classmethod
    def make(cls, K, conductor=None):
        if conductor is None:
            conductor = Poly.constant(K.field, 1)
        else:
            conductor = parse_poly(K.field, conductor)
        if conductor.is_zero or not conductor.is_monic:
            raise DomainError("conductor must be monic and nonzero")
        return cls(K, conductor)

    @property
    def is_maximal(self):
        return self.conductor.degree == 0

    @property
    def conductor_norm(self):
        return self.conductor.norm

    @property
    def genus_parameter(self):
        """g_D: reduced forms have deg a <= g_D (ramified type only)."""
        return (self.D.degree - 1) // 2

    def json_obj(self):
        return {
            "field": self.K.json_obj(),
            "conductor": self.conductor.text(),
            "D": self.D.text(),
        }


@functools.cache
def _prime_power_roots(field, pk):
    """Map r^2 mod pk -> canonically ordered tuple of residues r, for a prime power pk.

    Only the r whose leading coefficient has the smaller code of {c, -c}
    are squared; -r has the same square.  Values that share a prime with
    pk need no special case: the table holds whatever roots they have.
    """
    q = field.q
    table = {(): [()]}
    for c in range(1, q):
        if c < field.neg(c):
            for j in range(len(pk) - 1):
                for code in range(c * q**j, (c + 1) * q**j):
                    r = kdec(field, code)
                    table.setdefault(kmod(field, kmul(field, r, r), pk), []).extend(
                        (r, kneg(field, r))
                    )
    by_code = functools.partial(kenc, field)
    return {sq: tuple(sorted(rs, key=by_code)) for sq, rs in table.items()}


@functools.cache
def _crt_cofactor(field, a, pk):
    """t = a^-1 mod pk, so that e = a t is the CRT idempotent: 0 mod a, 1 mod pk (checked)."""
    t = kmod(field, kxgcd(field, a, pk)[1], pk)
    if kmod(field, kmul(field, a, t), pk) != (1,):
        raise AssertionError("CRT moduli are not coprime")
    return t


@functools.cache
def _crt_roots(field, a, roots_a, pk, roots_pk):
    """Roots mod a pk from roots mod a and mod pk (coprime), canonically ordered.

    r = r_a + e (r_pk - r_a) for the idempotent e = a t, where e x mod a pk
    is a (t x mod pk); r is reduced mod a pk as it stands.
    """
    t = _crt_cofactor(field, a, pk)
    out = [
        kadd(field, ra, kmul(field, a, kmod(field, kmul(field, t, ksub(field, rp, ra)), pk)))
        for ra in roots_a
        for rp in roots_pk
    ]
    out.sort(key=functools.partial(kenc, field))
    return tuple(out)


def sqrtmod(field, value, a):
    """All residues r mod a with r^2 = value (mod a), canonically ordered.

    Roots mod each prime power p^k || a come from its table and are
    joined by CRT, primes in increasing code as in the forms walk.
    """
    a = kmonic(field, a)[0]
    modulus, roots = (1,), ((),)
    for p, k in sorted(kfactor_monic(field, a).items(), key=lambda pm: kenc(field, pm[0])):
        pk = p
        for _ in range(k - 1):
            pk = kmul(field, pk, p)
        roots_pk = _prime_power_roots(field, pk).get(kmod(field, value, pk))
        if roots_pk is None:
            return ()
        roots = roots_pk if modulus == (1,) else _crt_roots(field, modulus, roots, pk, roots_pk)
        modulus = kmul(field, modulus, pk)
    return roots


@dataclass(frozen=True, slots=True)
class FormClass:
    """Binary form (a, b) of radicand D: a monic, deg b < deg a, a | b^2 - D.

    Corresponds to the R-ideal aA + (b + sqrt(D))A; the third coefficient
    is c = (b^2 - D)/a.  Invertible (proper) iff gcd(a, b, c) = 1.

    Every prime of g = gcd(a, b, c) divides the conductor f, as g^2 divides
    b^2 - ac = D = f^2 m and m is squarefree; so is_invertible computes c
    only when gcd(a, f) != 1.  Construction checks a | b^2 - D, except in
    enumerate_reduced_forms (_built), whose walk proves it.
    """

    order: QuadOrder
    a: Poly
    b: Poly

    def __post_init__(self):
        F = self.order.K.field
        bb = kmul(F, self.b.coeffs, self.b.coeffs)
        if kmod(F, ksub(F, bb, self.order.D.coeffs), self.a.coeffs):
            raise DomainError("b^2 is not congruent to D modulo a")
        if not self.a.is_monic:
            raise DomainError("form coefficient a must be monic")
        if self.b.degree >= self.a.degree and not self.b.is_zero:
            raise DomainError("form requires deg b < deg a")

    @classmethod
    def _built(cls, order, a, b):
        """A form enumerate_reduced_forms proved invertible with a | b^2 - D: no re-check."""
        form = object.__new__(cls)
        for name, value in (("order", order), ("a", a), ("b", b)):
            object.__setattr__(form, name, value)
        return form

    @property
    def c(self):
        F = self.order.K.field
        num = ksub(F, kmul(F, self.b.coeffs, self.b.coeffs), self.order.D.coeffs)
        return Poly(F, kdiv_exact(F, num, self.a.coeffs))

    @property
    def is_invertible(self):
        order, F, a = self.order, self.order.K.field, self.a.coeffs
        if order.is_maximal or kgcd(F, a, order.conductor.coeffs) == (1,):
            return True
        return kgcd(F, kgcd(F, a, self.b.coeffs), self.c.coeffs) == (1,)

    @property
    def is_reduced(self):
        return self.a.degree <= self.order.genus_parameter

    def inverse(self):
        F = self.order.K.field
        return FormClass(self.order, self.a, Poly(F, kmod(F, kneg(F, self.b.coeffs), self.a.coeffs)))

    def key(self):
        F = self.order.K.field
        return (kenc(F, self.a.coeffs), kenc(F, self.b.coeffs))

    def json_obj(self):
        return [self.a.text(), self.b.text()]

    def __repr__(self):
        return f"FormClass(a={self.a.text()}, b={self.b.text()})"


def principal_form(order):
    one = Poly.constant(order.K.field, 1)
    zero = Poly(order.K.field, ())
    return FormClass(order, one, zero)


def compose_raw(f1, f2):
    """Gauss composition, no reduction: ideal product divided by its content.

    With e = gcd(a1, a2, b1 + b2) the product ideal is e * (a3, b3 + sqrt D),
    a3 = a1 a2 / e^2 and b3 = (u a1 b2 + v a2 b1 + w (b1 b2 + D)) / e mod a3,
    where u a1 + v a2 + w (b1 + b2) = e comes from two extended gcds.
    """
    if f1.order is not f2.order and f1.order != f2.order:
        raise DomainError("cannot compose forms of different orders")
    order = f1.order
    F = order.K.field
    a1, b1 = f1.a.coeffs, f1.b.coeffs
    a2, b2 = f2.a.coeffs, f2.b.coeffs
    D = order.D.coeffs
    d1, u1, v1 = kxgcd(F, a1, a2)
    e, u2, w = kxgcd(F, d1, kadd(F, b1, b2))
    a3 = kdiv_exact(F, kdiv_exact(F, kmul(F, a1, a2), e), e)
    u = kmul(F, u2, u1)
    v = kmul(F, u2, v1)
    num = kadd(
        F,
        kadd(F, kmul(F, kmul(F, u, a1), b2), kmul(F, kmul(F, v, a2), b1)),
        kmul(F, w, kadd(F, kmul(F, b1, b2), D)),
    )
    b3 = kmod(F, kdiv_exact(F, num, e), a3)
    return FormClass(order, Poly(F, a3), Poly(F, b3))


def reduce_form(form):
    """Apply (a, b) -> ((b^2 - D)/a monic, -b mod new a) until reduced.

    Each step strictly drops deg a while deg a > g_D, so this terminates;
    only valid for ramified-type radicands (deg D odd).
    """
    order = form.order
    if order.D.degree % 2 == 0:
        raise UnsupportedPath("form reduction requires a ramified-type radicand")
    F = order.K.field
    gD = order.genus_parameter
    a, b = form.a.coeffs, form.b.coeffs
    D = order.D.coeffs
    while len(a) - 1 > gD:
        c = kdiv_exact(F, ksub(F, kmul(F, b, b), D), a)
        new_a, _ = kmonic(F, c)
        if len(new_a) >= len(a):
            raise AssertionError("reduction failed to drop the degree")
        a = new_a
        b = kmod(F, kneg(F, b), a)
    return FormClass(order, Poly(F, a), Poly(F, b))


def compose(f1, f2):
    """Composition followed by reduction: the class-group operation."""
    return reduce_form(compose_raw(f1, f2))


# ---------------------------------------------------------------------------
# class groups


@dataclass(frozen=True)
class ClassGroup:
    """Pic(R) for an order R: h plus (on the forms path) representatives."""

    order: QuadOrder
    h: int
    path: str  # "forms" | "zeta"
    forms: tuple = ()

    def element_order(self, form):
        """Multiplicative order of the class of `form` in Pic(R)."""
        if self.path != "forms":
            raise UnsupportedPath("element orders need the forms path")
        ident = principal_form(self.order).key()
        cur = reduce_form(form) if not form.is_reduced else form
        n = 1
        while cur.key() != ident:
            cur = compose(cur, form)
            n += 1
            if n > self.h:
                raise AssertionError("element order exceeded the group order")
        return n

    def json_obj(self):
        obj = {
            "order": self.order.json_obj(),
            "h": str(self.h),
            "path": self.path,
        }
        if self.path == "forms":
            obj["representatives"] = [f.json_obj() for f in self.forms]
        return obj


def enumerate_reduced_forms(order, budget=DEFAULT_ENUM_BUDGET):
    """All invertible reduced forms of radicand D, canonically ordered.

    a is a product of prime powers p^k || a, and b joins one root r of D
    mod each p^k from its table.  So a | b^2 - D, as _crt_cofactor checks
    the a t = 1 mod p^k that makes b = r mod p^k; and p | gcd(a, b, c) iff
    p | r and r^2 = D mod p^{k+1}, which needs p | f.  Those r are dropped
    from the tables, so every form the walk builds is emitted, unchecked.
    """
    if order.D.degree % 2 == 0:
        raise UnsupportedPath(
            "reduced-form enumeration requires a ramified-type radicand"
        )
    F = order.K.field
    gD = order.genus_parameter
    admit(F.q ** (2 * gD), budget, "form enumeration", deg_D=order.D.degree)
    D, f = order.D.coeffs, order.conductor.coeffs
    # per prime p of degree <= g_D: (p^k, roots of D mod p^k of invertible forms)
    # for k = 1, 2, ... up to degree g_D or the first p^k mod which D has no root
    local = []
    for d in range(1, gD + 1):
        for p in irreducibles(F, d, budget):
            p = p.coeffs
            powers, pk = [], p
            while len(pk) - 1 <= gD:
                roots = _prime_power_roots(F, pk).get(kmod(F, D, pk))
                if roots is None:
                    break
                pk1 = kmul(F, pk, p)
                if not kmod(F, f, p):
                    roots = tuple(
                        r for r in roots if kmod(F, r, p) or kmod(F, ksub(F, kmul(F, r, r), D), pk1)
                    )
                powers.append((pk, roots))  # kept if empty: p^(k+1) may have roots
                pk = pk1
            if powers:
                local.append(powers)
    out = []
    build = functools.partial(FormClass._built, order)

    def walk(a, roots, start):
        """Emit the forms of a, then extend a by prime powers after local[start - 1]."""
        A = Poly(F, a)
        out.extend(build(A, Poly(F, b)) for b in roots)
        room = gD - (len(a) - 1)
        for i in range(start, len(local)):
            if len(local[i][0][0]) - 1 > room:
                break  # primes come by degree
            for pk, roots_pk in local[i]:
                if len(pk) - 1 > room:
                    break
                if not roots_pk:
                    continue
                if a == (1,):
                    walk(pk, roots_pk, i + 1)
                else:
                    walk(kmul(F, a, pk), _crt_roots(F, a, roots, pk, roots_pk), i + 1)

    walk((1,), ((),), 0)
    out.sort(key=FormClass.key)
    return tuple(out)


def class_group(order, budget=DEFAULT_ENUM_BUDGET):
    """Pic(R): forms path for ramified radicands, zeta path for inert f=1."""
    if order.K.infinity_type == "inert":
        if not order.is_maximal:
            raise UnsupportedPath(
                "inert-type class groups are supported only for the maximal "
                "order (conductor 1): the form-reduction path needs deg D odd"
            )
        return ClassGroup(order, class_number_zeta(order.K, budget), "zeta")
    forms = enumerate_reduced_forms(order, budget)
    return ClassGroup(order, len(forms), "forms", forms)


def conductor_local_factor(m, p, mult):
    """(chi(p), |p|^(mult-1) (|p| - chi(p))) for p^mult || f: h(R) / h_K is their product."""
    chi = jacobi_symbol(m, p)
    return chi, p.norm ** (mult - 1) * (p.norm - chi)


def order_class_number(K, conductor=None, budget=DEFAULT_ENUM_BUDGET):
    """Conductor formula h(R) = h_K |f| prod_{p|f} (1 - chi(p)/|p|).

    Returns (h, audit); every factor is exact (the product of local
    factors |p|^{e-1} (|p| - chi(p)) is an integer).  h_K comes from the
    point-counting oracle, so this path is independent of form
    enumeration.  The unit index [O_K^* : R^*] is 1 because constant
    extensions are rejected.
    """
    order = QuadOrder.make(K, conductor)
    h_max = class_number_zeta(K, budget)
    audit = {
        "h_max": str(h_max),
        "unit_index": "1",
        "conductor": order.conductor.text(),
        "conductor_norm": str(order.conductor_norm),
        "local_factors": [],
    }
    h = h_max
    for p, mult in factor_monic(order.conductor):
        chi, local = conductor_local_factor(K.m, p, mult)
        audit["local_factors"].append(
            {
                "prime": p.text(),
                "norm": str(p.norm),
                "multiplicity": mult,
                "chi": chi,
                "factor": str(local),
            }
        )
        h *= local
    audit["h"] = str(h)
    return h, audit


def hK_lower_bound(q, g):
    """Exact rational lower bound for h_K in terms of q and the genus.

    (q - 1)(q^{2g} - 2 g q^g + 1) / (2 g (q^{g+1} - 1)); by convention 1
    for g = 0 (where h_K is literally 1).
    """
    if g < 0:
        raise DomainError("genus must be nonnegative")
    if g == 0:
        return Fraction(1)
    return Fraction((q - 1) * (q ** (2 * g) - 2 * g * q**g + 1), 2 * g * (q ** (g + 1) - 1))
