"""Regular-tree combinatorics, Hecke coset representatives, covering groups.

Vertices of the (r)-regular tree are addressed by reduced words: the
first step from the origin picks one of r directions, every later step
one of r-1 non-backtracking directions.  Addresses double as geodesics
from the origin, so distances come from longest common prefixes and the
median of three vertices is the deepest pairwise meeting point — no
adjacency structure is ever materialized.

The arithmetic half of the module lives over A = F_q[T]: coset
representatives (a, b; 0, d) for the degree-N Hecke correspondence, the
index psi(N) = |N| prod_{p|N}(1 + 1/|p|), degree bounds for Hecke images
of curves, and the orders of the Galois groups of the two standard
covers attached to a level N, computed by determinant-fiber convolution
over the residue ring and cross-checked against the closed formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_ENUM_BUDGET, DomainError, admit
from .ffpoly import (
    Poly,
    factor_monic,
    kadd,
    kdec,
    kenc,
    kgcd,
    kmod,
    kmul,
)

# ---------------------------------------------------------------------------
# the regular tree


def _common_prefix(v, w):
    """Length of the longest common prefix of two addresses."""
    return next((k for k, (a, b) in enumerate(zip(v, w)) if a != b), min(len(v), len(w)))


@dataclass(frozen=True, slots=True)
class RegularTree:
    """The infinite r-regular tree, r >= 3, with reduced-word addresses."""

    arity: int

    def __post_init__(self):
        if self.arity < 3:
            raise DomainError("regular tree needs arity >= 3")

    # -- addresses -----------------------------------------------------------

    def check(self, v):
        if v and not 0 <= v[0] < self.arity:
            raise DomainError(f"first symbol {v[0]} out of range 0..{self.arity - 1}")
        for s in v[1:]:
            if not 0 <= s < self.arity - 1:
                raise DomainError(
                    f"symbol {s} out of range 0..{self.arity - 2} after the first"
                )
        return tuple(v)

    def parse(self, text):
        """Parse a dotted address like "2.0.3"; empty string is the origin."""
        text = text.strip()
        if not text:
            return ()
        try:
            v = tuple(int(s) for s in text.split("."))
        except ValueError:
            raise DomainError(f"malformed tree address {text!r}") from None
        return self.check(v)

    @staticmethod
    def format(v):
        return ".".join(str(s) for s in v)

    def neighbors(self, v):
        """All adjacent addresses (parent last for a non-origin vertex)."""
        out = [v + (s,) for s in range(self.arity - 1 if v else self.arity)]
        if v:
            out.append(v[:-1])
        return out

    # -- metric ---------------------------------------------------------------

    def distance(self, v, w):
        v, w = self.check(v), self.check(w)
        return len(v) + len(w) - 2 * _common_prefix(v, w)

    def median(self, v1, v2, v3):
        """Center of the tripod plus the three arm lengths.

        The center is the deepest of the three pairwise meeting points;
        the arms satisfy n_i + n_j = distance(v_i, v_j) and are pairwise
        edge-disjoint.
        """
        vs = [self.check(v1), self.check(v2), self.check(v3)]
        pairs = [(_common_prefix(vs[i], vs[j]), i) for i, j in ((0, 1), (0, 2), (1, 2))]
        depth, which = max(pairs)
        center = vs[which][:depth]
        arms = tuple(self.distance(center, v) for v in vs)
        return center, arms[0], arms[1], arms[2]


def count_avoiding_geodesics(tree, n, k_avoid):
    """Non-backtracking length-n paths whose first edge avoids k marked edges.

    (r - k)(r - 1)^{n-1} for n >= 1; the empty path counts once.
    """
    r = tree.arity
    if not 0 <= k_avoid < r:
        raise DomainError("k_avoid must lie in 0..r-1")
    if n < 0:
        raise DomainError("path length must be >= 0")
    if n == 0:
        return 1
    return (r - k_avoid) * (r - 1) ** (n - 1)


# ---------------------------------------------------------------------------
# degree bound of the composite correspondence


BIGDEGREE_MODES = ("norm_plus_one", "norm")


def bigdegree_bound(n3_or_factors, mode="norm_plus_one"):
    """Lower-bound factor prod_p (|p|-1) base^{n_p - 1} / (2 n_p + 1).

    mode "norm_plus_one" uses base |p|+1 (the displayed classical form);
    mode "norm" uses base |p|, which is what counting non-backtracking
    paths through the tree actually yields — never larger than the other
    mode.  Accepts a monic polynomial (factored here) or an explicit
    list of (norm, multiplicity) pairs; 1 gives the empty product.
    """
    if mode not in BIGDEGREE_MODES:
        raise DomainError(f"mode must be one of {BIGDEGREE_MODES}")
    if isinstance(n3_or_factors, Poly):
        factors = [(p.norm, mult) for p, mult in factor_monic(n3_or_factors.monic())]
    else:
        factors = list(n3_or_factors)
    out = Fraction(1)
    for norm, mult in factors:
        base = norm + 1 if mode == "norm_plus_one" else norm
        out *= Fraction((norm - 1) * base ** (mult - 1), 2 * mult + 1)
    return out


# ---------------------------------------------------------------------------
# Hecke cosets


@dataclass(frozen=True, slots=True)
class HeckeCosetRep:
    """Upper-triangular representative (a, b; 0, d), ad = N, gcd(a,b,d) = 1."""

    a: Poly
    b: Poly
    d: Poly

    @property
    def level(self):
        return (self.a * self.d).monic()

    def json_obj(self):
        return {"a": self.a.text(), "b": self.b.text(), "d": self.d.text()}


def monic_divisors(N):
    """All monic divisors of a monic N, canonically ordered."""
    F = N.field
    divisors = [Poly.constant(F, 1)]
    for p, mult in factor_monic(N):
        power = Poly.constant(F, 1)
        powers = []
        for _ in range(mult):
            power = power * p
            powers.append(power)
        divisors = divisors + [d * pw for d in divisors for pw in powers]
    divisors.sort(key=lambda g: g.code)
    return divisors


def hecke_coset_reps(N):
    """Representatives of Gamma_0-cosets of the degree-N correspondence.

    One rep (a, b; 0, d) per monic pair ad = N and residue b mod d with
    gcd(a, b, d) = 1; their number is psi(N).
    """
    F = N.field
    N = N.monic()
    out = []
    for d in monic_divisors(N):
        a = N // d
        base = F.q**d.degree
        for lower in range(base):
            b = Poly(F, kdec(F, lower))
            if kgcd(F, kgcd(F, a.coeffs, b.coeffs), d.coeffs) == (1,):
                out.append(HeckeCosetRep(a, b, d))
    out.sort(key=lambda rep: (rep.d.code, rep.b.code))
    return out


def psi(N):
    """Index psi(N) = |N| prod_{p | N} (1 + 1/|p|) of the level subgroup.

    Equals the coset count of hecke_coset_reps; multiplicative, with
    local factor |p|^{e-1}(|p| + 1) at p^e.
    """
    if N.is_zero:
        raise DomainError("psi needs a nonzero argument")
    out = 1
    for p, mult in factor_monic(N.monic()):
        out *= p.norm ** (mult - 1) * (p.norm + 1)
    return out


def degree_bounds(n, N, degY, degY2=None):
    """Degree bookkeeping for Hecke images inside the n-fold product.

    components: a degree-degY curve has at most degY irreducible
    components; intersection: Bezout bound degY * degY2; hecke_image:
    2^n psi(N)^n degY bounds the degree of the full Hecke image.
    """
    if n < 1 or degY < 1:
        raise DomainError("n and degY must be positive")
    out = {
        "components": degY,
        "hecke_image": 2**n * psi(N) ** n * degY,
    }
    if degY2 is not None:
        out["intersection"] = degY * degY2
    return out


# ---------------------------------------------------------------------------
# covering-group orders


def _residues(F, N):
    return [kdec(F, code) for code in range(F.q**N.degree)]


def covering_group_orders(N, budget=DEFAULT_ENUM_BUDGET):
    """Orders of the Galois groups of the two standard covers at level N.

    Gal(Y(N)/M) is det-one-constant matrices mod constant scalars, of
    order |SL2(A/N)|; Gal(Y2(N)/M) further quotients by the scalars
    whose square is a constant.  Both are counted by convolving the
    fiber sizes of the product map over A/N (never by enumerating 2x2
    matrices), and checked against |SL2| = |N|^3 prod(1 - |p|^-2).
    When N is a prime of even degree the second group has PSL2 order.
    The convolution takes |A/N|^2 products; a larger count than budget
    raises BudgetError before anything is built.
    """
    F = N.field
    N = N.monic()
    if N.degree == 0:
        return {
            "level": N.text(),
            "ring_size": 1,
            "gal_full_level": 1,
            "gal_quotient_level": 1,
        }
    size = F.q**N.degree
    admit(size * size, budget, "covering convolution", ring_size=size)
    Nc = N.coeffs
    residues = _residues(F, N)
    # fiber sizes of multiplication: pc[y] = #{(a, d) : ad = y}
    pc = [0] * size
    for a in residues:
        for d in residues:
            pc[kenc(F, kmod(F, kmul(F, a, d), Nc))] += 1
    # det_count[delta] = #{(a,b,c,d) : ad - bc = delta} = sum_y pc[delta + y] pc[y]
    def det_count(delta):
        dc = (delta,)
        total = 0
        for y in residues:
            total += pc[kenc(F, kmod(F, kadd(F, dc, y), Nc))] * pc[kenc(F, y)]
        return total

    counts = [det_count(delta) for delta in range(1, F.q)]
    if len(set(counts)) != 1:
        raise AssertionError("determinant fibers over units must have equal size")
    sl2 = counts[0]
    fac = factor_monic(N)
    formula = N.norm**3
    for p, _ in fac:
        formula = formula * (p.norm**2 - 1) // p.norm**2
    if sl2 != formula:
        raise AssertionError(
            f"convolution |SL2| = {sl2} disagrees with the closed formula {formula}"
        )
    # scalars with square in F_q^*: lambda a unit, lambda^2 mod N constant
    z1 = 0
    for lam in residues:
        if kgcd(F, lam, Nc) != (1,):
            continue
        sq = kmod(F, kmul(F, lam, lam), Nc)
        if len(sq) == 1:
            z1 += 1
    gl2_1 = sl2 * (F.q - 1)
    if gl2_1 % z1:
        raise AssertionError("scalar subgroup does not divide the det-1 group")
    out = {
        "level": N.text(),
        "ring_size": size,
        "gal_full_level": sl2,
        "gal_quotient_level": gl2_1 // z1,
    }
    if len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree % 2 == 0:
        psl2 = sl2 // 2
        if out["gal_quotient_level"] != psl2:
            raise AssertionError(
                "even-degree prime level must give the PSL2 order"
            )
        out["psl2"] = psl2
    return out
