"""Effective certification that high CM points force special subvarieties.

The engine has four moving parts:

* an admissible-prime search (even degree, split in every coordinate CM
  field, coprime to every conductor, norm at least max(13, d));
* the improper-intersection test: some coordinate class number exceeds
  4 [F:k] (|p|+1)^2 d^2;
* a solver for the minimal height bound B = B(d, [F:k], q): above B,
  every (genus, conductor) shape admits an even t satisfying the
  three-inequality system simultaneously;
* the ladder of d-1 prime degrees t_1 < ... < t_{d-1} whose growth
  condition drives the induction on deg(Y).

Every split-prime supply condition is a call to
splitcount.supply_lower_bound, the one place the Chebotarev bound
q^t/(n t) - 4(g + 2) q^{t/2} is written.

Everything is exact: inequalities are evaluated over Fraction and
recorded with both sides as strings, so a certificate can be re-audited
from its own JSON.  Every recorded inequality is strict; integer floor
conditions q^t >= X are stored in the shifted form q^t > X - 1.

The base field F is taken to be k itself: over a rational function
field the class number is 1, so F only enters through the scaling
parameter F_deg and through splitting conditions that degenerate to the
coordinate CM fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import SCHEMA_VERSION
from .errors import DEFAULT_ENUM_BUDGET, BudgetError, DomainError
from .ffpoly import (
    factor_monic,
    irreducible_count,
    irreducibles,
    jacobi_symbol,
)
from .cmcat import CMPoint
from .quadfield import hK_lower_bound, order_class_number
from .splitcount import compositum_genus_bound, pi_lower_bound_genera, supply_lower_bound

DEFAULT_PRIME_DEGREE_BUDGET = 12
DEFAULT_HEIGHT_GRID = 2**40
DEFAULT_T_BUDGET = 64
STABLE_WINDOW = 8


# ---------------------------------------------------------------------------
# certificate plumbing


@dataclass(frozen=True)
class Inequality:
    """A strict inequality lhs > rhs with both sides recorded exactly."""

    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool

    @classmethod
    def check(cls, name, lhs, rhs):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return cls(name, lhs, rhs, lhs > rhs)

    def json_obj(self):
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class Certificate:
    """Verdict plus the exact inequality instances that support it."""

    verdict: str  # "certified" | "inconclusive"
    primes: tuple
    inequalities: tuple
    constants: dict
    budget: dict

    def __post_init__(self):
        if self.verdict not in ("certified", "inconclusive"):
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "certified" and not all(
            ineq.holds for ineq in self.inequalities
        ):
            raise DomainError("certified verdict with a failing inequality")

    def json_obj(self):
        return {
            "version": SCHEMA_VERSION,
            "verdict": self.verdict,
            "primes": list(self.primes),
            "inequalities": [i.json_obj() for i in self.inequalities],
            "constants": self.constants,
            "budget": self.budget,
        }


def reaudit(obj):
    """Re-check a certificate JSON object from its recorded raw values.

    Returns True iff every inequality's holds flag matches an exact
    re-comparison of its sides and a certified verdict is backed by all
    inequalities holding.
    """
    for ineq in obj["inequalities"]:
        if (Fraction(ineq["lhs"]) > Fraction(ineq["rhs"])) != ineq["holds"]:
            return False
    if obj["verdict"] == "certified":
        return all(ineq["holds"] for ineq in obj["inequalities"])
    return True


# ---------------------------------------------------------------------------
# hypotheses and class-number lower bounds


@dataclass(frozen=True)
class CurveHypothesis:
    """Ambient data: Y of degree d in the n-th power, defined over F."""

    field: object
    d: int
    n: int
    F_deg: int
    points: tuple

    @classmethod
    def make(cls, field, d, n, F_deg, points=()):
        points = tuple(points)
        if d < 1 or n < 1 or F_deg < 1:
            raise DomainError("need d >= 1, n >= 1, F_deg >= 1")
        for pt in points:
            if not isinstance(pt, CMPoint):
                raise DomainError("coordinates must be CM points")
            if pt.order.K.field is not field:
                raise DomainError("CM point over a different base field")
        return cls(field, d, n, F_deg, points)

    @property
    def norm_floor(self):
        return max(13, self.d)


def pic_lower_bound(q, g, conductor):
    """hK_lower_bound * |f| * prod over distinct primes p | f of (1 - 1/|p|).

    Always a valid lower bound for the class number of the order of
    conductor f, whatever the characters chi(p) are.
    """
    bound = hK_lower_bound(q, g)
    for p, mult in factor_monic(conductor.monic()):
        bound *= p.norm**mult * Fraction(p.norm - 1, p.norm)
    return bound


def worst_unit_product(q, deg_f):
    """Minimum of prod_{p | f}(1 - 1/|p|) over monic f of degree deg_f.

    Attained by packing as many distinct smallest-degree primes as fit;
    leftover degree rides along as multiplicity and does not move the
    product.
    """
    if deg_f < 0:
        raise DomainError("conductor degree must be >= 0")
    product = Fraction(1)
    remaining = deg_f
    d = 1
    while remaining >= d:
        take = min(irreducible_count(q, d), remaining // d)
        product *= Fraction(q**d - 1, q**d) ** take
        remaining -= take * d
        d += 1
    return product


def pic_lower_bound_worst(q, g, deg_f):
    """pic_lower_bound minimized over all conductor shapes of a degree."""
    return hK_lower_bound(q, g) * q**deg_f * worst_unit_product(q, deg_f)


# ---------------------------------------------------------------------------
# admissible primes and the improper-intersection test


def find_admissible_prime(
    hyp,
    max_degree=DEFAULT_PRIME_DEGREE_BUDGET,
    budget=DEFAULT_ENUM_BUDGET,
):
    """First canonical even-degree prime passing all admissibility checks.

    Checks, in order: |p| >= max(13, d) (whole degrees skipped below the
    floor), p coprime to every coordinate conductor, p split in every
    coordinate CM field.  Returns (prime, trace); the trace records per
    degree how many candidates were rejected and why.
    """
    field = hyp.field
    trace = []
    for t in range(2, max_degree + 1, 2):
        if field.q**t < hyp.norm_floor:
            trace.append({"degree": t, "reason": "norm_below_floor"})
            continue
        rejected = {}
        first = []
        for p in irreducibles(field, t, budget):
            reason = None
            for i, pt in enumerate(hyp.points):
                if (pt.order.conductor % p).is_zero:
                    reason = f"divides_conductor_{i}"
                    break
                if jacobi_symbol(pt.order.K.m, p) != 1:
                    reason = f"not_split_{i}"
                    break
            if reason is None:
                trace.append(
                    {
                        "degree": t,
                        "accepted": p.text(),
                        "rejected": rejected,
                        "examples": first,
                    }
                )
                return p, trace
            rejected[reason] = rejected.get(reason, 0) + 1
            if len(first) < 3:
                first.append({"prime": p.text(), "reason": reason})
        trace.append({"degree": t, "rejected": rejected, "examples": first})
    raise BudgetError(
        "no admissible prime within the degree budget",
        degree_budget=max_degree,
        trace=trace,
    )


def _improper_threshold(norm, d):
    """4 (|p|+1)^2 d^2: a class number above it forces an improper intersection."""
    return 4 * (norm + 1) ** 2 * d**2


@dataclass(frozen=True)
class ImproperCheck:
    """The per-coordinate class-number inequalities at a chosen prime."""

    satisfied: bool
    witness: int  # index of the first coordinate that passes, or -1
    inequalities: tuple


def check_improper(prime, hyp, pic_sizes):
    """|Pic(R_i)| / F_deg > 4 (|p|+1)^2 d^2 for some coordinate i."""
    rhs = _improper_threshold(prime.norm, hyp.d)
    ineqs = tuple(
        Inequality.check(
            f"improper_intersection_{i}", Fraction(pic, hyp.F_deg), rhs
        )
        for i, pic in enumerate(pic_sizes)
    )
    witness = next((i for i, iq in enumerate(ineqs) if iq.holds), -1)
    return ImproperCheck(witness >= 0, witness, ineqs)


def certify_point(
    point,
    d=1,
    F_deg=1,
    max_degree=DEFAULT_PRIME_DEGREE_BUDGET,
    budget=DEFAULT_ENUM_BUDGET,
):
    """End-to-end certificate for one CM coordinate on a degree-d curve.

    Searches an admissible prime, computes the exact class number of the
    point's order, and runs the improper-intersection test.  The
    returned certificate carries only the witnessing inequality, so the
    certified invariant (all recorded inequalities hold) stays intact.
    """
    field = point.order.K.field
    hyp = CurveHypothesis.make(field, d, 2, F_deg, (point,))
    try:
        prime, trace = find_admissible_prime(hyp, max_degree, budget)
    except BudgetError as err:
        return Certificate(
            "inconclusive",
            (),
            (),
            {"d": d, "F_deg": F_deg, "q": field.q, "reason": str(err)},
            {"prime_degree_budget": max_degree},
        )
    h, audit = order_class_number(point.order.K, point.order.conductor, budget)
    frag = check_improper(prime, hyp, [h])
    floor_ineq = Inequality.check(
        "prime_norm_floor", prime.norm, hyp.norm_floor - 1
    )
    ineqs = [floor_ineq]
    verdict = "inconclusive"
    if frag.satisfied:
        ineqs.extend(frag.inequalities[i] for i in (frag.witness,))
        verdict = "certified" if floor_ineq.holds else "inconclusive"
    else:
        ineqs.extend(frag.inequalities)
    return Certificate(
        verdict,
        (
            {
                "prime": prime.text(),
                "degree": prime.degree,
                "norm": str(prime.norm),
            },
        ),
        tuple(ineqs),
        {
            "d": d,
            "F_deg": F_deg,
            "q": field.q,
            "class_number": str(h),
            "class_number_audit": audit,
            "degrees_scanned": len(trace),
        },
        {"prime_degree_budget": max_degree, "enum_budget": budget},
    )


# ---------------------------------------------------------------------------
# the minimal height bound


def _config_witness(q, d, F_deg, g, deg_f, level, t_budget):
    """Smallest even t certifying the (g, deg_f) shape at a height level.

    The partner coordinate is adversarial: subject to height at most
    q^level it maximizes the density-window burden, which puts all of
    its height into genus (coefficient 8 q^{t/2} per genus unit beats
    1 per conductor-degree unit).  Conditions:

      (A)  q^t >= max(13, d)
      (B)  pi_lower_bound_genera(q, g, level, t)  >  deg_f
      (C)  pic_lower_bound_worst(q, g, deg_f) / F_deg > 4 (q^t + 1)^2 d^2

    The right side of (C) grows with t, so only the first t passing (A)
    and (B) needs testing against (C).

    Returns (t, None) on success, else (None, diagnosis).
    """
    floor = max(13, d)
    pic = pic_lower_bound_worst(q, g, deg_f) / F_deg
    for t in range(2, t_budget + 1, 2):
        qt = q**t
        if qt < floor:
            continue
        if pi_lower_bound_genera(q, g, level, t) <= deg_f:
            continue
        if pic > _improper_threshold(qt, d):
            return t, None
        return None, {"failed": "class_number_floor", "first_viable_t": t}
    return None, {"failed": "split_prime_supply", "t_budget": t_budget}


def minimal_height_bound(
    d,
    F_deg,
    q,
    grid=DEFAULT_HEIGHT_GRID,
    t_budget=DEFAULT_T_BUDGET,
):
    """Smallest grid height bound above which every CM shape certifies.

    Heights on the grid are the exact values q^level (level = genus +
    conductor degree).  A level is feasible when every split of it into
    (g, deg_f) admits a witnessing even t against the worst-case
    conductor shape and an adversarial partner coordinate of the same
    height.  B is q^(last infeasible level + 1); at least STABLE_WINDOW
    feasible levels above it must fit inside the grid, otherwise the
    search fails loudly with the frontier.
    """
    if d < 1 or F_deg < 1:
        raise DomainError("need d >= 1 and F_deg >= 1")
    levels = 0
    while q ** (levels + 1) <= grid:
        levels += 1
    last_bad, failing, boundary = -1, None, []
    for level in range(levels + 1):
        witnesses = []
        bad = None
        for g in range(level + 1):
            t, diag = _config_witness(q, d, F_deg, g, level - g, level, t_budget)
            if t is None:
                bad = {"g": g, "deg_f": level - g, **diag}
                break
            witnesses.append({"g": g, "deg_f": level - g, "t": t})
        if bad is not None:
            last_bad, failing = level, bad
            boundary = []
        elif not boundary:
            boundary = witnesses
    if levels - last_bad <= STABLE_WINDOW:
        raise BudgetError(
            "height grid exhausted before the feasible region stabilized",
            frontier={
                "grid_levels": levels,
                "last_infeasible_level": last_bad,
                "failing_config": failing,
                "window": STABLE_WINDOW,
            },
        )
    bound = q ** (last_bad + 1)
    audit = {
        "q": q,
        "d": d,
        "F_deg": F_deg,
        "grid_levels": levels,
        "t_budget": t_budget,
        "stabilization_window": STABLE_WINDOW,
        "last_infeasible_level": last_bad,
        "last_failing_config": failing,
        "boundary_level": last_bad + 1,
        "boundary_witnesses": boundary,
        "bound": str(bound),
    }
    return bound, audit


# ---------------------------------------------------------------------------
# the Step-3 ladder


def step3_ladder(
    d,
    n,
    degY,
    F_deg,
    heights,
    t_budget=DEFAULT_T_BUDGET,
):
    """Greedy minimal even degrees t_1 < ... < t_{d-1} for the induction.

    heights is one (genus, conductor polynomial) pair per coordinate,
    so len(heights) == n.  Conditions, all recorded in the certificate:

      * q^{t_1} >= max(13, degY);
      * supply: enough degree-t_j primes split in every coordinate field
        and coprime to every conductor (density bound > sum deg f_i);
      * growth: q^{t_{j+1}} >= degY^{2^j} prod_{m<=j} (2 q^{t_m} + 2)^{n 2^{j-m}};
      * class numbers: pic_lower_bound(g_i, f_i) / F_deg >
        |p_{d-1}|^2 (2 |p_{d-1}| + 2)^n for every coordinate i.

    The growth and supply conditions relax as t grows, so greedy minimal
    choices also minimize t_{d-1}, where the class-number condition is
    easiest; if it still fails the system is inconsistent at this budget.
    """
    if d < 2:
        raise DomainError("the ladder needs d >= 2")
    heights = list(heights)
    if not heights or len(heights) != n:
        raise DomainError("need exactly one (genus, conductor) per coordinate")
    field = heights[0][1].field
    q = field.q
    g_bound, deg = compositum_genus_bound(g for g, _ in heights)
    conductor_deg = sum(f.degree for _, f in heights)
    ineqs = []
    ladder = []
    floor = max(13, degY)
    for j in range(d - 1):
        if j == 0:
            growth_rhs = floor - 1
            name = "prime_norm_floor"
        else:
            growth_rhs = degY ** (2**j)
            for m, tm in enumerate(ladder, start=1):
                growth_rhs *= (2 * q**tm + 2) ** (n * 2 ** (j - m))
            growth_rhs -= 1
            name = f"ladder_growth_{j}"
        t_lo = 2 if not ladder else ladder[-1] + 2
        chosen = None
        for t in range(t_lo, t_budget + 1, 2):
            if q**t <= growth_rhs:
                continue
            if supply_lower_bound(q, deg, g_bound, t) > conductor_deg:
                chosen = t
                break
        if chosen is None:
            t = t_budget if t_budget % 2 == 0 else t_budget - 1
            supply = supply_lower_bound(q, deg, g_bound, t)
            failing = name if q**t <= growth_rhs else f"split_prime_supply_{j}"
            ineqs.append(
                Inequality.check(name, q**t, growth_rhs)
                if failing == name
                else Inequality.check(f"split_prime_supply_{j}", supply, conductor_deg)
            )
            return ladder, Certificate(
                "inconclusive",
                tuple(
                    {"index": i, "degree": tj, "norm": str(q**tj)}
                    for i, tj in enumerate(ladder)
                ),
                tuple(ineqs),
                {"q": q, "d": d, "n": n, "degY": degY, "F_deg": F_deg,
                 "first_failing": failing},
                {"t_budget": t_budget},
            )
        ladder.append(chosen)
        ineqs.append(Inequality.check(name, q**chosen, growth_rhs))
        supply = supply_lower_bound(q, deg, g_bound, chosen)
        ineqs.append(
            Inequality.check(f"split_prime_supply_{j}", supply, conductor_deg)
        )
    t_last = ladder[-1]
    class_rhs = Fraction(q ** (2 * t_last) * (2 * q**t_last + 2) ** n)
    for i, (g, f) in enumerate(heights):
        pic = pic_lower_bound(q, g, f)
        ineqs.append(
            Inequality.check(
                f"class_number_floor_{i}", pic / F_deg, class_rhs
            )
        )
    verdict = "certified" if all(iq.holds for iq in ineqs) else "inconclusive"
    constants = {
        "q": q,
        "d": d,
        "n": n,
        "degY": degY,
        "F_deg": F_deg,
        "compositum_genus_bound": g_bound,
        "C1": str(Fraction(1, deg)),
    }
    if verdict == "inconclusive":
        constants["first_failing"] = next(
            iq.name for iq in ineqs if not iq.holds
        )
    return ladder, Certificate(
        verdict,
        tuple(
            {"index": i, "degree": tj, "norm": str(q**tj)}
            for i, tj in enumerate(ladder)
        ),
        tuple(ineqs),
        constants,
        {"t_budget": t_budget},
    )
