"""CM points: heights, bounded catalogues, and the class-group Galois action.

A CM point is a Drinfeld module with complex multiplication by an order R
of conductor f inside an imaginary quadratic K = k(sqrt m); its height is
H_CM = q^g |f|.  For a fixed height bound B only finitely many (m, f)
qualify, and each pair carries exactly |Pic(R)| points, so catalogues
list (m, f, genus, h, H_CM) rows.

The Galois action on the points with endomorphism ring R factors through
Pic(R): the Frobenius attached to a monic n whose prime factors all split
in R (and avoid the conductor) acts as composition with [N]^-1, where N
is the canonical product of split primes above n — for each p | n the
prime (p, b) with the smaller canonical root b.  Composing the N-form
without reduction keeps its first coefficient equal to n, which is the
norm bookkeeping that makes the isogeny degree visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    DomainError,
    NotSplitError,
    UnsupportedPath,
    admit,
)
from .ffpoly import (
    Poly,
    as_prime,
    factor_monic,
    irreducibles,
    jacobi_symbol,
    kenc,
    kmonics_avoiding,
    kmul,
    kscale,
    monic_polys,
    parse_poly,
)
from .quadfield import (
    FormClass,
    ImagQuadField,
    QuadOrder,
    analyze_quadratic,
    class_number_zeta,
    compose_raw,
    conductor_local_factor,
    principal_form,
    reduce_form,
    sqrtmod,
)


@dataclass(frozen=True, slots=True)
class CMPoint:
    """A CM point: an order R plus a class of Pic(R) picking the module."""

    order: QuadOrder
    cls: FormClass

    @property
    def height(self):
        return self.order.K.field.q**self.order.K.genus * self.order.conductor_norm

    def json_obj(self):
        return {
            "m": self.order.K.m.text(),
            "f": self.order.conductor.text(),
            "genus": self.order.K.genus,
            "H_CM": str(self.height),
            "class": self.cls.json_obj(),
        }


# ---------------------------------------------------------------------------
# bounded enumeration


@dataclass(frozen=True, slots=True)
class CatalogueRow:
    """One endomorphism-ring stratum: (m, f) plus its point count h."""

    m: Poly
    conductor: Poly
    genus: int
    h: int
    height: int

    def sort_key(self):
        F = self.m.field
        return (self.height, kenc(F, self.m.coeffs), kenc(F, self.conductor.coeffs))

    def json_obj(self, row_id, text):
        """The row's object; text maps each coefficient tuple to its rendering."""
        return {
            "m": text[self.m.coeffs],
            "f": text[self.conductor.coeffs],
            "genus": self.genus,
            "h": str(self.h),
            "H_CM": str(self.height),
            "id": row_id,
        }


def _squarefree_monics(field, d):
    """Monic squarefree polynomials of degree d in canonical order.

    The monics that no P^2 divides, P monic irreducible with 2 deg P <= d.
    """
    squares = (
        kmul(field, P.coeffs, P.coeffs) for k in range(1, d // 2 + 1) for P in irreducibles(field, k)
    )
    return [Poly(field, m) for m in kmonics_avoiding(field, d, squares)]


def _imaginary_radicands_of_genus(field, g):
    """Fields K = k(sqrt m) of genus g, one radicand per square-scaling class.

    Ramified type (deg 2g+1) contributes monic squarefree m and c0*m for
    the canonical non-square c0; inert type (deg 2g+2) contributes c0*m
    only, since a square leading coefficient would make the field real.
    The sieve makes every m squarefree, so the fields need no further
    validation.
    """
    c0 = field.canonical_nonsquare()
    out = []
    for degree, scalings, kind in ((2 * g + 1, (1, c0), "ramified"), (2 * g + 2, (c0,), "inert")):
        for m in _squarefree_monics(field, degree):
            for c in scalings:
                out.append(ImagQuadField(field, Poly(field, kscale(field, m.coeffs, c)), kind, g))
    return out


def _orbit_images(F, m):
    """Normal forms of sigma^k(m)(aT + b) for a in F_q^x, b in F_q, sigma^k(c) = c^(p^k).

    T -> aT + b is an automorphism of A fixing infinity, and Frobenius on
    the coefficients keeps every point count, so each image defines a
    field with the L-polynomial of k(sqrt m).  Each image is scaled by a
    square unit into the catalogue's normal form, leading coefficient 1
    or c0, which does not change the field.  For each b, m(T + b) comes
    from synthetic division; T -> g^s T then adds j s to the log of
    coefficient j.  Everything is read from F's log/Zech tables, as in
    the k* kernels; the set includes m itself.
    """
    exp, log, zech, n, p = F._exp, F._log, F._zech, F.q - 1, F.p
    c0_log = log[F.canonical_nonsquare()]
    d = len(m) - 1
    images = set()
    conj = m
    for _ in range(F.e):
        for b in range(F.q):
            c = list(conj)
            if b:
                y = log[b]
                for i in range(d):
                    for j in range(d - 1, i - 1, -1):  # c_j += b c_(j+1)
                        hi = c[j + 1]
                        if hi:
                            w = log[hi] + y
                            lo = c[j]
                            if lo:
                                x = log[lo]
                                c[j] = exp[x + zech[(w - x) % n]]
                            else:
                                c[j] = exp[w]
            logs = [log[x] for x in c]  # 2n for a zero coefficient, so exp gives 0
            top = logs[d]
            for s in range(n):
                lead = top + d * s
                t = -lead if lead % 2 == 0 else c0_log - lead  # a square unit
                images.add(tuple(exp[x + (j * s + t) % n] for j, x in enumerate(logs)))
        conj = tuple(exp[log[x] * p % n] if x else 0 for x in conj)
    return images


def _class_numbers(radicands, budget):
    """h_K of each radicand, with one zeta pass per orbit of _orbit_images.

    The first radicand of an orbit, in list order, gets the zeta pass; its
    images wait in a memo until the walk reaches them, so the memo holds
    only the orbits still pending.  Every image is itself a listed radicand
    of the genus, so the memo ends empty.
    """
    pending = {}
    out = []
    for K in radicands:
        key = K.m.coeffs
        h = pending.pop(key, None)
        if h is None:
            h = class_number_zeta(K, budget)
            pending.update(dict.fromkeys(_orbit_images(K.field, key), h))
            del pending[key]
        out.append(h)
    if pending:
        raise AssertionError("an orbit image is not a listed radicand")
    return out


def enumerate_cm_points(field, bound, budget=DEFAULT_ENUM_BUDGET):
    """Catalogue of all (m, f) with q^g |f| < bound, canonically sorted.

    Radicands are listed once per F_q^x-square scaling class; each row
    carries h = |Pic(R)| from the conductor formula, so the total number
    of CM points of height < bound is the sum of the h column.  h_K is
    computed by one zeta pass per orbit of radicands under T -> aT + b
    and Frobenius (_class_numbers), and each conductor is factored once.
    """
    if bound < 1:
        raise DomainError("height bound must be >= 1")
    q = field.q
    rows = []
    # q^g |f| < bound  <=>  g + deg f <= level_max
    level_max = -1
    while q ** (level_max + 1) < bound:
        level_max += 1
    work = sum(
        2 * q ** (2 * g + 2) * q ** (level_max - g) for g in range(level_max + 1)
    )
    admit(work, budget, "CM catalogue scan", bound=bound)
    for g in range(level_max + 1):
        radicands = _imaginary_radicands_of_genus(field, g)
        fields = [(K.m, h) for K, h in zip(radicands, _class_numbers(radicands, budget))]
        for deg_f in range(level_max - g + 1):
            height = q ** (g + deg_f)
            conductors = [(f, factor_monic(f)) for f in monic_polys(field, deg_f)]
            for m, h_K in fields:
                for f, primes in conductors:
                    h = h_K
                    for p, mult in primes:
                        h *= conductor_local_factor(m, p, mult)[1]
                    rows.append(CatalogueRow(m, f, g, h, height))
    rows.sort(key=CatalogueRow.sort_key)
    return rows


def catalogue_total(rows):
    """Total number of CM points represented by a catalogue."""
    return sum(row.h for row in rows)


def catalogue_json(rows):
    """Row objects with their index as id; each distinct m and f is rendered once."""
    polys = {p.coeffs: p for row in rows for p in (row.m, row.conductor)}
    text = {coeffs: p.text() for coeffs, p in polys.items()}
    return [row.json_obj(i, text) for i, row in enumerate(rows)]


def point_from_row(row, field):
    """The principal-class CM point of a catalogue row."""
    K = analyze_quadratic(field, row.m)
    order = QuadOrder.make(K, row.conductor)
    return CMPoint(order, principal_form(order))


# ---------------------------------------------------------------------------
# Galois action


def split_prime_form(order, p, conjugate=False):
    """The canonical prime form (p, b) above a split prime p.

    Requires chi(m, p) = +1 and p coprime to the conductor; of the two
    square roots of D modulo p the canonically smaller one is chosen
    (the other via conjugate=True).  A PrimePoly is taken as already
    certified; anything else is tested for irreducibility once.
    """
    F = order.K.field
    p = as_prime(F, p)
    chi = jacobi_symbol(order.K.m, p)
    if chi != 1:
        raise NotSplitError(
            f"prime {p.text()} has character {chi}, not split", prime=p.text()
        )
    if (order.conductor % p).is_zero:
        raise NotSplitError(
            f"prime {p.text()} divides the conductor", prime=p.text()
        )
    roots = sqrtmod(F, order.D.coeffs, p.coeffs)
    if len(roots) != 2:
        raise AssertionError("split prime must carry exactly two roots")
    b = roots[1] if conjugate else roots[0]
    return FormClass(order, p, Poly(F, b))


def acting_ideal_form(order, n, conjugate=False):
    """Unreduced form of the canonical ideal N above monic n, norm <n>.

    Built by raw (unreduced) composition of the split prime forms, one
    factor per prime multiplicity; the first coefficient stays exactly n
    because every composition gcd is 1.
    """
    F = order.K.field
    n = parse_poly(F, n)
    if n.is_zero or not n.is_monic:
        raise DomainError("the acting modulus n must be monic and nonzero")
    if n.degree == 0:
        return principal_form(order)
    result = None
    for p, mult in factor_monic(n):
        prime_form = split_prime_form(order, p, conjugate)
        for _ in range(mult):
            result = prime_form if result is None else compose_raw(result, prime_form)
    if result.a != n:
        raise AssertionError("acting ideal lost its norm during composition")
    return result


def _acting_inverse(order, n, conjugate):
    """Reduced [N]^-1 for the canonical ideal N above n (forms path only)."""
    if order.K.infinity_type != "ramified":
        raise UnsupportedPath(
            "the class-group action needs the forms path (ramified radicand)"
        )
    return reduce_form(acting_ideal_form(order, n, conjugate)).inverse()


def galois_isogeny_step(point, n, conjugate=False):
    """Apply the Frobenius attached to n: compose with [N]^-1 and reduce."""
    inverse = _acting_inverse(point.order, n, conjugate)
    return CMPoint(point.order, reduce_form(compose_raw(point.cls, inverse)))


def galois_orbit(point, p, conjugate=False, budget=DEFAULT_ENUM_BUDGET):
    """Orbit of a point under repeated sigma_p; returns (points, cycle length).

    The cycle length is the multiplicative order of [P] in Pic(R).  The
    acting ideal is built once; every step is one compose and reduce.
    An orbit longer than budget steps raises BudgetError.
    """
    order = point.order
    inverse = _acting_inverse(order, p, conjugate)
    start_key = (reduce_form(point.cls) if not point.cls.is_reduced else point.cls).key()
    orbit = [point]
    cur = point
    for steps in range(1, budget + 1):
        cur = CMPoint(order, reduce_form(compose_raw(cur.cls, inverse)))
        if cur.cls.key() == start_key:
            return orbit, steps
        orbit.append(cur)
    raise BudgetError(
        f"orbit did not close within {budget} steps", steps=budget, budget=budget
    )


SPLIT_PRIME_MAX_DEGREE = 8


def find_split_prime(order):
    """Code-smallest prime that splits in R and misses the conductor."""
    F = order.K.field
    for t in range(1, SPLIT_PRIME_MAX_DEGREE + 1):
        for p in irreducibles(F, t):
            if jacobi_symbol(order.K.m, p) != 1:
                continue
            if (order.conductor % p).is_zero:
                continue
            return p
    raise BudgetError(
        f"no split prime of degree <= {SPLIT_PRIME_MAX_DEGREE} found",
        budget_degree=SPLIT_PRIME_MAX_DEGREE,
    )
