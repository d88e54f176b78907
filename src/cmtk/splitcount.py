"""Exact split-prime counting and the explicit density window that feeds it.

A splitting spec is a list of imaginary quadratic radicands m_1..m_r;
the compositum M = k(sqrt m_1, ..., sqrt m_r) is multiquadratic, and a
prime splits in M iff every quadratic character chi(m_i, p) is +1.  The
degree [M:k] and its constant/geometric split (n_c, n_g) are computed
exactly from the span of the radicands' square classes; the genus of M
is bounded by iterating the Castelnuovo inequality pairwise.

pi_M(t), the number of degree-t primes split in M, is counted from
points, not by listing primes.  For x in F_{q^d} let eta_d be the
quadratic character of F_{q^d}, and put

  G_d = #{x : eta_d(m_i(x)) = 1 for every i},
  Z_d = #{x : m_i(x) = 0 for some i}.

An x of minimal field F_{q^e} is one of the e roots of a prime P of
degree e, and eta_d(m_i(x)) = chi(m_i, P)^(d/e) when P does not divide
m_i.  So x counts in G_d iff P splits, if d/e is odd, and iff P is
unramified, if d/e is even; x counts in Z_d iff P is ramified.  With
R_e, U_e, N_e the numbers of ramified, unramified and split primes of
degree e, summing over e | d gives

  Z_d = sum_{e | d} e R_e,
  G_d = sum_{e | d} e (N_e if d/e is odd, else U_e),

and U_e = irreducible_count(q, e) - R_e.  Read upwards over the divisors
of t, the first identity gives R_d from the R_e of its proper divisors,
and the second gives N_d once R_d (so U_d) is known; pi_M(t) = N_t.
G_d and Z_d come from one Horner pass per radicand over F_{q^d}
(quadfield.value_classes).

The effective density statement: for n_c | t, the exact count pi_M(t)
differs from q^t/(n_g t) by less than 4(g_M + 2) q^{t/2} (the base
k = F_q(T) has e = 1, g_k = 0).  For odd t the radius is irrational, so
window membership is decided by comparing squares; every emitted value
is an exact integer or rational.  The lower end of that window at even
t, q^t/(n t) - 4(g + 2) q^{t/2}, is written once, in supply_lower_bound;
every split-prime supply bound here and in certify is a call to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DEFAULT_ENUM_BUDGET, DomainError, admit
from .ffpoly import factor_monic, irreducible_count, parse_poly
from .quadfield import NONSQUARE, SQUARE, ZERO, analyze_quadratic, value_classes


def castelnuovo_bound(g1, n1, g2, n2):
    """Genus bound n2*g1 + n1*g2 + (n1-1)(n2-1) for a compositum.

    n_i is the degree [F_i : k]; under linear disjointness [F1F2 : F1]
    equals n2, which is the classical statement's co-degree.
    """
    if n1 < 1 or n2 < 1 or g1 < 0 or g2 < 0:
        raise DomainError("degrees must be >= 1 and genera >= 0")
    return n2 * g1 + n1 * g2 + (n1 - 1) * (n2 - 1)


def compositum_genus_bound(genera):
    """(g_bound, 2^r) for the compositum of r quadratics of the given genera.

    g_bound iterates castelnuovo_bound one quadratic at a time; 2^r is
    the degree the iteration assumes (linear disjointness).
    """
    g_bound, deg = 0, 1
    for g in genera:
        g_bound = castelnuovo_bound(g_bound, deg, g, 2)
        deg *= 2
    return g_bound, deg


def supply_lower_bound(q, n, g_bound, t):
    """Split-prime supply bound q^t/(n t) - 4(g_bound + 2) q^{t/2}, even t >= 2.

    The lower end of the density window for a field of (geometric)
    degree n over k whose genus is at most g_bound.
    """
    if t < 2 or t % 2:
        raise DomainError("the lower bound is used at even t >= 2 only")
    return Fraction(q**t, n * t) - 4 * (g_bound + 2) * q ** (t // 2)


def _square_class(m):
    """(odd-multiplicity prime set, leading-coefficient non-square flag)."""
    F = m.field
    primes = frozenset(
        p.coeffs for p, mult in factor_monic(m.monic()) if mult % 2 == 1
    )
    return primes, F.legendre(m.leading) == -1


@dataclass(frozen=True)
class SplittingSpec:
    """The compositum of quadratic extensions given by a radicand list."""

    field: object
    radicands: tuple
    n_c: int  # constant extension degree (1 or 2)
    n_g: int  # geometric extension degree
    genus_bound: int  # iterated Castelnuovo bound for g_M

    @classmethod
    def make(cls, field, radicands):
        polys = tuple(parse_poly(field, m) for m in radicands)
        g_bound, _ = compositum_genus_bound(analyze_quadratic(field, m).genus for m in polys)
        # span of the square classes inside k^x / (k^x)^2
        span = {(frozenset(), False)}
        for m in polys:
            cls_m = _square_class(m)
            span |= {
                (ps ^ cls_m[0], flag ^ cls_m[1]) for ps, flag in span
            }
        n = len(span)
        n_c = 2 if (frozenset(), True) in span else 1
        return cls(field, polys, n_c, n // n_c, g_bound)

    @property
    def degree(self):
        return self.n_c * self.n_g

    def json_obj(self):
        return {
            "q": self.field.q,
            "radicands": [m.text() for m in self.radicands],
            "n_c": self.n_c,
            "n_g": self.n_g,
            "genus_bound": self.genus_bound,
        }


_IS_SQUARE = bytes.maketrans(bytes([SQUARE, NONSQUARE, ZERO]), b"\x01\x00\x00")
_IS_ZERO = bytes.maketrans(bytes([SQUARE, NONSQUARE, ZERO]), b"\x00\x00\x01")


def _point_counts(spec, d):
    """(G_d, Z_d) of the module docstring, from one value_classes pass per radicand.

    One byte per x, 1 where the condition holds for one radicand; the
    bytes are read as ints, ANDed (squares) and ORed (zeros) over the
    radicands, and the set bits counted.
    """
    squares, zeros = int.from_bytes(b"\x01" * spec.field.q**d, "little"), 0
    for m in spec.radicands:
        classes = value_classes(m, d)
        squares &= int.from_bytes(classes.translate(_IS_SQUARE), "little")
        zeros |= int.from_bytes(classes.translate(_IS_ZERO), "little")
    return squares.bit_count(), zeros.bit_count()


def count_split_primes(spec, t, budget=DEFAULT_ENUM_BUDGET):
    """Exact number of monic primes of degree t split in the compositum.

    Counted from points (see the module docstring): for each d | t, one
    Horner pass per radicand over the q^d points of F_{q^d}, on the
    cached Zech-log tables of quadfield (about 15 q^d bytes each).  No
    prime is listed and no character symbol is taken.  The budget is
    checked against t q^t before any table is built.
    """
    if t < 1:
        raise DomainError("degree must be >= 1")
    q = spec.field.q
    admit(t * q**t, budget, "split-prime count", q=q, t=t)
    divisors = [d for d in range(1, t + 1) if t % d == 0]
    split, unramified, ramified = {}, {}, {}
    for d in divisors:
        good, zero = _point_counts(spec, d)
        lower = [e for e in divisors if e < d and d % e == 0]
        ramified[d] = _exact_div(zero - sum(e * ramified[e] for e in lower), d)
        unramified[d] = irreducible_count(q, d) - ramified[d]
        good -= sum(e * (split if (d // e) % 2 else unramified)[e] for e in lower)
        split[d] = _exact_div(good, d)
    return split[t]


def _exact_div(n, d):
    if n % d:
        raise AssertionError(f"point count {n} is not a multiple of the degree {d}")
    return n // d


@dataclass(frozen=True)
class DensityWindow:
    """Exact window |pi_M(t) - center| < radius, radius^2 rational."""

    t: int
    center: Fraction
    radius_sq: Fraction

    @property
    def radius_exact(self):
        """The radius as a Fraction when it is rational (even t), else None."""
        r2 = self.radius_sq
        num, den = r2.numerator, r2.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
        return None

    def contains(self, count):
        """Strict membership, decided exactly by comparing squares."""
        return (Fraction(count) - self.center) ** 2 < self.radius_sq

    def json_obj(self):
        obj = {
            "t": self.t,
            "center": str(self.center),
            "radius_squared": str(self.radius_sq),
        }
        r = self.radius_exact
        if r is not None:
            obj["radius"] = str(r)
        return obj


def cebotarev_window(spec, t):
    """Window for pi_M(t): center q^t/(n_g t), radius 4(g_M + 2) q^{t/2}.

    Requires n_c | t (otherwise the density statement does not apply and
    the exact count is 0 for n_c = 2 anyway).  g_M is replaced by its
    Castelnuovo bound, which only widens the window.
    """
    if t < 1:
        raise DomainError("t must be >= 1")
    if t % spec.n_c:
        raise DomainError(f"window needs n_c = {spec.n_c} dividing t = {t}")
    q = spec.field.q
    center = Fraction(q**t, spec.n_g * t)
    coeff = 4 * (spec.genus_bound + 2)
    return DensityWindow(t, center, Fraction(coeff * coeff * q**t))


def pi_lower_bound(spec, t):
    """Exact lower bound q^t/(n_g t) - 4(g_M_bound + 2) q^{t/2}, even t."""
    return supply_lower_bound(spec.field.q, spec.n_g, spec.genus_bound, t)


def pi_lower_bound_genera(q, g1, g2, t):
    """Two-quadratic worst-case bound (q^t/t)/4 - (8 (g1 + g2) + 12) q^{t/2}.

    supply_lower_bound at geometric degree at most 4 and the Castelnuovo
    bound g_M <= 2 g1 + 2 g2 + 1; valid for any compositum of two
    imaginary quadratic fields of genera g1, g2.  Even t only.
    """
    return supply_lower_bound(q, 4, compositum_genus_bound((g1, g2))[0], t)


def split_audit(spec, t, budget=DEFAULT_ENUM_BUDGET):
    """JSON-ready record tying the exact count to the window and bound."""
    exact = count_split_primes(spec, t, budget)
    obj = {"spec": spec.json_obj(), "exact": exact}
    if t % spec.n_c == 0:
        window = cebotarev_window(spec, t)
        obj.update(window.json_obj())
        obj["inside_window"] = window.contains(exact)
    else:
        obj["t"] = t
        obj["inside_window"] = None
    if t % 2 == 0:
        obj["lower_bound"] = str(pi_lower_bound(spec, t))
    obj["constants"] = {
        "C1": str(Fraction(1, spec.n_g)),
        # coefficients of pi_lower_bound_genera: 4 (g_M + 2) = 8 (g1 + g2) + 12
        "C2": "8",
        "C3": "12",
        "g_M_bound": spec.genus_bound,
    }
    return obj
