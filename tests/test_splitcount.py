"""Split-prime counts, the exact density window, and genus bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmtk import quadfield
from cmtk.errors import BudgetError, DomainError, FieldRejected
from cmtk.ffpoly import Fq, Poly, irreducible_count, irreducibles, jacobi_symbol, parse_poly
from cmtk.quadfield import analyze_quadratic
from cmtk.splitcount import (
    DensityWindow,
    SplittingSpec,
    castelnuovo_bound,
    cebotarev_window,
    compositum_genus_bound,
    count_split_primes,
    pi_lower_bound,
    pi_lower_bound_genera,
    split_audit,
    supply_lower_bound,
)

F3 = Fq(3)
F5 = Fq(5)


def _accepted_radicands(field, max_deg):
    out = []
    for code in range(field.q, field.q ** (max_deg + 1)):
        m = Poly.make(field, _digits(code, field.q))
        try:
            analyze_quadratic(field, m)
        except FieldRejected:
            continue
        out.append(m)
    return out


def _digits(code, q):
    ds = []
    while code:
        code, r = divmod(code, q)
        ds.append(r)
    return ds


def _splits_by_residue_ring(m, p):
    """Oracle: p splits iff m is a nonzero square in F_q[T]/(p)."""
    field = m.field
    qt = field.q ** p.degree
    squares = set()
    for code in range(1, qt):
        r = Poly.make(field, _digits(code, field.q))
        squares.add(((r * r) % p).coeffs)
    residue = (m % p).coeffs
    return residue != () and residue in squares


def _brute_force_split_count(spec, t):
    """Oracle: sieve every monic prime of degree t, test each radicand's symbol."""
    return sum(
        1
        for p in irreducibles(spec.field, t)
        if all(jacobi_symbol(m, p) == 1 for m in spec.radicands)
    )


def _oracle_specs(field):
    """Radicand lists with every shape the point counter must get right.

    w is a non-prime-field element for q = 9, 25 (so clog's subfield
    embedding is exercised) and -1 otherwise; c is a non-square.
    """
    q, c = field.q, field.canonical_nonsquare()
    w = field.p if field.e > 1 else q - 1
    lin = (0, 1)  # T: a ramified prime of degree 1
    inert = (0, c, c)  # c (T^2 + T): non-monic, shares the factor T with lin
    lin_quad = (0, field.neg(c), 0, 1)  # T (T^2 - c): ramified in degrees 1 and 2
    cubic = next(
        (w, a1, 0, 1) for a1 in range(q) if Poly.make(field, (w, a1, 0, 1)).is_squarefree()
    )
    scaled = tuple(field.mul(w, a) for a in cubic)  # non-monic, non-prime-field leading
    twisted = tuple(field.mul(c, a) for a in cubic)  # cubic and twisted: n_c = 2
    rads = [
        [],
        [lin],
        [inert],
        [lin_quad],
        [lin, inert],
        [scaled],
        [cubic, twisted],
        [lin, inert, scaled],
        [lin_quad, cubic, twisted],
    ]
    return [SplittingSpec.make(field, [Poly.make(field, m) for m in ms]) for ms in rads]


ORACLE_DEGREES = {(3, 1): 6, (5, 1): 4, (7, 1): 4, (3, 2): 4, (5, 2): 3}


@pytest.mark.parametrize("p, e", sorted(ORACLE_DEGREES))
def test_point_counter_matches_brute_force(p, e):
    field = Fq(p, e)
    specs = _oracle_specs(field)
    assert {spec.n_c for spec in specs} == {1, 2}
    assert {len(spec.radicands) for spec in specs} == {0, 1, 2, 3}
    for spec in specs:
        for t in range(1, ORACLE_DEGREES[(p, e)] + 1):
            exact = count_split_primes(spec, t)
            where = (field.q, [m.text() for m in spec.radicands], t)
            assert exact == _brute_force_split_count(spec, t), where
            if not spec.radicands:
                assert exact == irreducible_count(field.q, t), where
            if spec.n_c == 2 and t % 2:
                assert exact == 0, where


def test_ramified_primes_of_degree_t_do_not_split():
    # T is ramified in k(sqrt T): of the q linear primes, T itself and the
    # (q - 1)/2 translates T + a with -a a non-square are not split
    for q in (3, 5, 7, 11):
        assert count_split_primes(SplittingSpec.make(Fq(q), ["T"]), 1) == (q - 1) // 2


def test_split_count_budget_refused_before_any_table():
    spec = SplittingSpec.make(F3, ["T", "T+1"])
    built = quadfield._ext_tables.cache_info().misses
    with pytest.raises(BudgetError) as err:
        split_audit(spec, 30)
    assert err.value.info == {"q": 3, "t": 30, "budget": 10**7}
    assert quadfield._ext_tables.cache_info().misses == built
    # t q^t is the bound: a budget equal to it passes, one less is refused
    assert count_split_primes(spec, 2, budget=18) == count_split_primes(spec, 2)
    with pytest.raises(BudgetError):
        count_split_primes(spec, 2, budget=17)
    with pytest.raises(DomainError):
        count_split_primes(spec, 0)


def test_castelnuovo_examples():
    assert castelnuovo_bound(0, 2, 0, 2) == 1
    assert castelnuovo_bound(1, 2, 2, 2) == 7
    # a degree-1 factor contributes nothing
    assert castelnuovo_bound(5, 3, 0, 1) == 5
    with pytest.raises(DomainError):
        castelnuovo_bound(0, 0, 0, 2)
    with pytest.raises(DomainError):
        castelnuovo_bound(-1, 2, 0, 2)


def test_empty_spec_counts_all_primes():
    spec = SplittingSpec.make(F3, [])
    assert (spec.n_c, spec.n_g, spec.genus_bound) == (1, 1, 0)
    w = cebotarev_window(spec, 2)
    assert w.center == Fraction(9, 2)
    assert w.radius_exact == 24
    assert count_split_primes(spec, 2) == len(irreducibles(F3, 2)) == 3
    assert w.contains(3)


def test_single_radicand_degrees():
    spec = SplittingSpec.make(F3, ["T"])
    assert (spec.n_c, spec.n_g, spec.degree) == (1, 2, 2)
    assert spec.genus_bound == 0
    # chi(T, T+1) = legendre(-1+...) : T = -1 mod T+1, and -1 = 2 is a
    # non-square in F_3; chi(T, T+2) = legendre(1) = +1.
    assert count_split_primes(spec, 1) == 1
    assert [count_split_primes(spec, t) for t in (2, 3, 4)] == [1, 4, 8]


def test_constant_class_detection():
    dep = SplittingSpec.make(F3, ["T", "2*T"])
    assert (dep.n_c, dep.n_g, dep.degree) == (2, 2, 4)
    # no prime of odd degree splits in a constant extension
    assert count_split_primes(dep, 1) == 0
    assert count_split_primes(dep, 3) == 0
    assert count_split_primes(dep, 2) >= 1

    scaled = SplittingSpec.make(F3, ["2*T"])
    assert (scaled.n_c, scaled.n_g) == (1, 2)

    triple = SplittingSpec.make(F3, ["T", "2*T", "T+1"])
    assert (triple.n_c, triple.n_g, triple.degree) == (2, 4, 8)


def test_repeated_radicand_does_not_grow_span():
    once = SplittingSpec.make(F3, ["T"])
    twice = SplittingSpec.make(F3, ["T", "T"])
    assert (twice.n_c, twice.n_g) == (once.n_c, once.n_g)
    for t in (1, 2, 3):
        assert count_split_primes(twice, t) == count_split_primes(once, t)
    # the genus bound is iterated over the inputs as given, so the
    # redundant copy may only increase it
    assert twice.genus_bound >= once.genus_bound


def test_window_preconditions():
    dep = SplittingSpec.make(F3, ["T", "2*T"])
    with pytest.raises(DomainError):
        cebotarev_window(dep, 3)
    with pytest.raises(DomainError):
        cebotarev_window(dep, 0)
    spec = SplittingSpec.make(F3, ["T"])
    with pytest.raises(DomainError):
        pi_lower_bound(spec, 3)
    with pytest.raises(DomainError):
        pi_lower_bound_genera(3, 0, 0, 5)


def test_window_membership_is_strict_and_exact():
    w = DensityWindow(2, Fraction(9, 2), Fraction(576))
    # |c - 9/2| < 24 admits exactly the integers -19 .. 28
    assert w.contains(28)
    assert not w.contains(29)
    assert w.contains(0)
    assert not w.contains(-20)


def test_odd_degree_radius_is_irrational_but_squared_works():
    spec = SplittingSpec.make(F3, ["T"])
    w = cebotarev_window(spec, 3)
    assert w.radius_exact is None
    assert w.radius_sq == Fraction(64 * 27)
    assert w.contains(count_split_primes(spec, 3))


def test_window_contains_exact_count_small_sweep():
    pools = {3: _accepted_radicands(F3, 3), 5: _accepted_radicands(F5, 2)}
    for q, pool in pools.items():
        field = Fq(q)
        specs = [SplittingSpec.make(field, [m]) for m in pool[:6]]
        specs += [
            SplittingSpec.make(field, [pool[i], pool[j]])
            for i, j in [(0, 1), (0, 3), (1, 4), (2, 5)]
        ]
        for spec in specs:
            for t in range(1, 5):
                if t % spec.n_c:
                    continue
                w = cebotarev_window(spec, t)
                assert w.contains(count_split_primes(spec, t)), (
                    q,
                    [m.text() for m in spec.radicands],
                    t,
                )


def test_counts_match_residue_ring_oracle():
    pool = _accepted_radicands(F3, 3)[:8]
    for m in pool:
        spec = SplittingSpec.make(F3, [m])
        for t in (1, 2):
            oracle = sum(
                1 for p in irreducibles(F3, t) if _splits_by_residue_ring(m, p)
            )
            assert count_split_primes(spec, t) == oracle


def test_pinned_constants_example():
    assert pi_lower_bound_genera(3, 0, 0, 4) == Fraction(81, 16) - 108
    assert pi_lower_bound_genera(3, 0, 0, 4) == Fraction(-1647, 16)
    assert pi_lower_bound_genera(3, 1, 2, 4) == Fraction(81, 16) - 36 * 9


def test_pinned_two_field_bound_is_the_general_formula():
    assert compositum_genus_bound([]) == (0, 1)
    assert compositum_genus_bound([1, 2]) == (7, 4)  # 2 g1 + 2 g2 + 1
    for q in (3, 5, 7, 9, 25):
        for g1 in range(8):
            for g2 in range(8):
                for t in range(2, 30, 2):
                    pinned = Fraction(q**t, 4 * t) - (8 * (g1 + g2) + 12) * q ** (t // 2)
                    assert pi_lower_bound_genera(q, g1, g2, t) == pinned
    for t in (-2, 0, 3):
        with pytest.raises(DomainError):
            supply_lower_bound(3, 1, 0, t)


def test_positive_lower_bound_is_honest():
    spec = SplittingSpec.make(F3, ["T"])
    lb = pi_lower_bound(spec, 10)
    assert lb > 0
    exact = count_split_primes(spec, 10)
    assert Fraction(exact) > lb
    # the generic two-quadratic constants are weaker than the exact window
    assert pi_lower_bound_genera(3, 0, 0, 10) <= lb


def test_genera_bound_below_exact_count_when_positive():
    spec = SplittingSpec.make(F3, ["T", "T+1"])
    t = 12
    lb = pi_lower_bound_genera(3, 0, 0, t)
    assert lb > 0
    assert Fraction(count_split_primes(spec, t)) > lb


def test_split_audit_record():
    spec = SplittingSpec.make(F3, ["T", "T+1"])
    obj = split_audit(spec, 4)
    assert obj["exact"] == 3
    assert obj["center"] == "81/16"
    assert obj["radius"] == "108"
    assert obj["inside_window"] is True
    assert obj["lower_bound"] == "-1647/16"
    assert obj["constants"] == {
        "C1": "1/4",
        "C2": "8",
        "C3": "12",
        "g_M_bound": 1,
    }
    dep = SplittingSpec.make(F3, ["T", "2*T"])
    odd = split_audit(dep, 3)
    assert odd["inside_window"] is None
    assert "lower_bound" not in odd


@given(st.data())
def test_window_membership_hypothesis(data):
    pool = _accepted_radicands(F3, 2)
    picks = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    )
    spec = SplittingSpec.make(F3, picks)
    t = data.draw(st.sampled_from([t for t in (1, 2, 3, 4) if t % spec.n_c == 0]))
    assert cebotarev_window(spec, t).contains(count_split_primes(spec, t))
