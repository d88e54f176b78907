"""Heegner-hypothesis field search and the conductor tower above a prime.

For a fixed monic level n, a quadratic field K = k(sqrt m) satisfies the
Heegner hypothesis when every prime dividing n splits in K (principality
of the relevant ideals is automatic over a rational function field).
The searcher scans squarefree imaginary radicands in canonical order and
keeps those passing every local character test; a second, construction-
faithful mode restricts to odd-degree monic primes congruent to 1 mod n,
for which the character conditions hold identically.

The tower over a split-avoiding prime p is the chain of orders with
conductor p^j.  Each level carries a distinguished ideal class of norm
n - the unreduced product of the canonical split primes above the
divisors of n - and its class number obeys the level recursion
h_j = h_K |p|^{j-1} (|p| - chi(p)) for j >= 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import DEFAULT_ENUM_BUDGET, DomainError, FieldRejected, NotSplitError, admit
from .ffpoly import (
    Poly,
    as_prime,
    factor_monic,
    irreducibles,
    jacobi_symbol,
    kdec,
    parse_poly,
)
from .quadfield import QuadOrder, analyze_quadratic, order_class_number
from .cmcat import acting_ideal_form


@dataclass(frozen=True)
class HeegnerSearchSpec:
    """Level n, optional tower prime p, and search budgets."""

    n: Poly
    p: object  # PrimePoly or None
    max_degree: int
    count: int
    primes: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the primes of the level, factored once for the search and its JSON
        object.__setattr__(self, "primes", tuple(p for p, _ in factor_monic(self.n)))

    @classmethod
    def make(cls, field, n, p=None, max_degree=6, count=10):
        n = parse_poly(field, n)
        if n.is_zero or not n.is_monic:
            raise DomainError("the level must be monic and nonzero")
        if p is not None:
            p = as_prime(field, p)
            if (n % p).is_zero:
                raise DomainError(
                    f"tower prime {p.text()} divides the level {n.text()}"
                )
        if max_degree < 1 or count < 1:
            raise DomainError("budgets must be >= 1")
        return cls(n, p, max_degree, count)

    @property
    def field(self):
        return self.n.field

    def level_primes(self):
        return self.primes


@dataclass(frozen=True)
class HeegnerSearch:
    """Search outcome: the fields found plus an exhausted-budget flag."""

    fields: tuple
    exhausted: bool  # True iff the degree budget ran out before `count`

    def json_obj(self, spec):
        return {
            "level": spec.n.text(),
            "exhausted": self.exhausted,
            "fields": [heegner_field_json(K, spec) for K in self.fields],
        }


def heegner_field_json(K, spec):
    return {
        "m": K.m.text(),
        "genus": K.genus,
        "checks": [
            {"prime": p.text(), "chi": jacobi_symbol(K.m, p)}
            for p in spec.level_primes()
        ],
    }


def _passes(field, m, level_primes):
    try:
        K = analyze_quadratic(field, m)
    except FieldRejected:
        return None
    if all(jacobi_symbol(m, p) == 1 for p in level_primes):
        return K
    return None


def find_heegner_fields(spec, mode="direct", budget=DEFAULT_ENUM_BUDGET):
    """Quadratic fields in which every prime dividing the level splits.

    direct mode scans all radicands in canonical order; lemma mode scans
    only odd-degree monic primes congruent to 1 mod the level (the
    construction that proves infinitude), for which every character
    condition holds automatically.  The budget bounds the number of
    radicands scanned in direct mode (a longer range that does not reach
    `count` within it is refused) and each degree's prime sieve in lemma
    mode.
    """
    field = spec.field
    level_primes = spec.level_primes()
    found = []
    if mode == "direct":
        codes = range(field.q, field.q ** (spec.max_degree + 1))
        for code in codes[:budget]:
            K = _passes(field, Poly.make(field, kdec(field, code)), level_primes)
            if K is not None:
                found.append(K)
                if len(found) == spec.count:
                    return HeegnerSearch(tuple(found), False)
        admit(len(codes), budget, "Heegner radicand scan", found=len(found))
        return HeegnerSearch(tuple(found), True)
    if mode == "lemma":
        one = Poly.constant(field, 1)
        for t in range(1, spec.max_degree + 1, 2):
            for p in irreducibles(field, t, budget):
                if (p % spec.n) != (one % spec.n):
                    continue
                K = _passes(field, p, level_primes)
                assert K is not None, "a prime 1 mod n must pass every check"
                found.append(K)
                if len(found) == spec.count:
                    return HeegnerSearch(tuple(found), False)
        return HeegnerSearch(tuple(found), True)
    raise DomainError(f"unknown search mode {mode!r}")


@dataclass(frozen=True)
class TowerLevel:
    """One floor of the conductor tower: order, norm-n ideal class, |Pic|."""

    level: int
    order: QuadOrder
    ideal: object  # FormClass of first coefficient n
    h: int

    def json_obj(self):
        return {
            "level": self.level,
            "conductor": self.order.conductor.text(),
            "ideal": self.ideal.json_obj(),
            "h": str(self.h),
        }


def order_tower(K, p, n, levels, budget=DEFAULT_ENUM_BUDGET):
    """Orders of conductor p^j for j = 0..levels, with norm-n ideals.

    Requires the Heegner hypothesis for n in K; violations raise a typed
    error naming the offending prime.  The tower prime must avoid n so
    the ideal survives at every level.
    """
    field = K.field
    p = as_prime(field, p)
    n = parse_poly(field, n)
    if n.is_zero or not n.is_monic:
        raise DomainError("the level must be monic and nonzero")
    if levels < 0:
        raise DomainError("levels must be >= 0")
    for q_prime, _ in factor_monic(n):
        if jacobi_symbol(K.m, q_prime) != 1:
            raise NotSplitError(
                f"Heegner hypothesis fails: {q_prime.text()} does not "
                f"split in k(sqrt {K.m.text()})",
                prime=q_prime,
            )
        if q_prime == p:
            raise DomainError(
                f"tower prime {p.text()} divides the level {n.text()}"
            )
    tower = []
    for j in range(levels + 1):
        order = QuadOrder.make(K, p**j)
        ideal = acting_ideal_form(order, n)
        h, _ = order_class_number(K, order.conductor, budget)
        tower.append(TowerLevel(j, order, ideal, h))
    return tower
