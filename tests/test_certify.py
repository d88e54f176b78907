"""Admissible primes, improper intersections, the height bound, the ladder."""

from fractions import Fraction

import pytest

from cmtk.errors import BudgetError, DomainError
from cmtk.ffpoly import Fq, factor_monic, irreducibles, jacobi_symbol, parse_poly
from cmtk.quadfield import QuadOrder, analyze_quadratic, principal_form
from cmtk.cmcat import CMPoint
from cmtk.certify import (
    Certificate,
    CurveHypothesis,
    Inequality,
    certify_point,
    check_improper,
    find_admissible_prime,
    minimal_height_bound,
    pic_lower_bound,
    pic_lower_bound_worst,
    reaudit,
    step3_ladder,
    worst_unit_product,
)
from cmtk.quadfield import order_class_number

F3 = Fq(3)
ONE = parse_poly(F3, "1")


def _point(m_text, f_text="1"):
    K = analyze_quadratic(F3, parse_poly(F3, m_text))
    R = QuadOrder.make(K, parse_poly(F3, f_text))
    return CMPoint(R, principal_form(R))


def test_admissible_prime_skips_below_norm_floor():
    hyp = CurveHypothesis.make(F3, 1, 2, 1, (_point("T"), _point("T+1")))
    prime, trace = find_admissible_prime(hyp)
    assert prime.degree == 4  # 3^2 = 9 < 13 <= 3^4
    assert trace[0] == {"degree": 2, "reason": "norm_below_floor"}
    assert jacobi_symbol(parse_poly(F3, "T"), prime) == 1
    assert jacobi_symbol(parse_poly(F3, "T+1"), prime) == 1
    # canonical: every smaller degree-4 prime is rejected for a reason
    for p in irreducibles(F3, 4):
        if p.code == prime.code:
            break
        assert (
            jacobi_symbol(parse_poly(F3, "T"), p) != 1
            or jacobi_symbol(parse_poly(F3, "T+1"), p) != 1
        )


def test_admissible_prime_empty_hypothesis():
    hyp = CurveHypothesis.make(F3, 1, 2, 1, ())
    prime, _ = find_admissible_prime(hyp)
    assert prime.code == irreducibles(F3, 4)[0].code


def test_adversarial_conductor_forces_degree_six():
    m = parse_poly(F3, "T")
    blocker = ONE
    for p in irreducibles(F3, 4):
        if jacobi_symbol(m, p) == 1:
            blocker = blocker * p
    hyp = CurveHypothesis.make(F3, 1, 2, 1, (_point("T", blocker.text()),))
    prime, trace = find_admissible_prime(hyp)
    assert prime.degree == 6
    deg4 = next(e for e in trace if e["degree"] == 4)
    assert "accepted" not in deg4
    assert any(r.startswith("divides_conductor") for r in deg4["rejected"])


def test_admissible_prime_budget_error():
    hyp = CurveHypothesis.make(F3, 1, 2, 1, (_point("T"),))
    with pytest.raises(BudgetError) as exc:
        find_admissible_prime(hyp, max_degree=2)
    assert exc.value.info["degree_budget"] == 2


def test_hypothesis_validation():
    with pytest.raises(DomainError):
        CurveHypothesis.make(F3, 0, 2, 1, ())
    with pytest.raises(DomainError):
        CurveHypothesis.make(F3, 1, 2, 0, ())
    with pytest.raises(DomainError):
        CurveHypothesis.make(F3, 1, 2, 1, ("not a point",))
    with pytest.raises(DomainError):
        CurveHypothesis.make(Fq(5), 1, 2, 1, (_point("T"),))


def test_check_improper_arithmetic():
    hyp = CurveHypothesis.make(F3, 1, 2, 1, ())
    prime = irreducibles(F3, 4)[0]
    frag = check_improper(prime, hyp, [1000])
    assert not frag.satisfied
    one = frag.inequalities[0]
    assert (one.lhs, one.rhs) == (1000, 26896)  # 4 * 82^2
    assert check_improper(prime, hyp, [10**6]).satisfied
    # "some i" semantics and the witness index
    frag2 = check_improper(prime, hyp, [1000, 10**6, 5])
    assert frag2.satisfied and frag2.witness == 1
    # scaling by F_deg
    hyp2 = CurveHypothesis.make(F3, 1, 2, 3, ())
    frag3 = check_improper(prime, hyp2, [3 * 26896 + 1])
    assert frag3.satisfied
    assert not check_improper(prime, hyp2, [3 * 26896]).satisfied


def test_check_improper_monotone_in_pic():
    hyp = CurveHypothesis.make(F3, 1, 2, 1, ())
    prime = irreducibles(F3, 4)[0]
    seen_true = False
    for pic in range(26890, 26910):
        ok = check_improper(prime, hyp, [pic]).satisfied
        assert ok or not seen_true
        seen_true = seen_true or ok


def test_certificate_invariant_and_reaudit():
    good = Inequality.check("a", 2, 1)
    bad = Inequality.check("b", 1, 2)
    with pytest.raises(DomainError):
        Certificate("certified", (), (good, bad), {}, {})
    with pytest.raises(DomainError):
        Certificate("maybe", (), (), {}, {})
    cert = Certificate("certified", (), (good,), {}, {})
    obj = cert.json_obj()
    assert reaudit(obj)
    tampered = dict(obj)
    tampered["inequalities"] = [dict(obj["inequalities"][0], lhs="0")]
    assert not reaudit(tampered)
    flipped = dict(obj)
    flipped["inequalities"] = [dict(obj["inequalities"][0], holds=False)]
    assert not reaudit(flipped)


def test_certify_point_small_class_number_inconclusive():
    cert = certify_point(_point("T"))
    assert cert.verdict == "inconclusive"
    assert cert.primes[0]["degree"] == 4
    names = [iq.name for iq in cert.inequalities]
    assert "prime_norm_floor" in names
    assert reaudit(cert.json_obj())


def test_certify_point_end_to_end_certified():
    # genus 7 with both degree-1 primes inert in K: h = h_K * 4 * 4 = 29808
    point = _point("T^15+T^2+2", "T^2+T")
    cert = certify_point(point)
    assert cert.verdict == "certified"
    assert cert.constants["class_number"] == "29808"
    improper = [
        iq for iq in cert.inequalities if iq.name.startswith("improper")
    ]
    assert len(improper) == 1 and improper[0].holds
    assert improper[0].rhs == 26896
    assert reaudit(cert.json_obj())
    # the chosen prime avoids the conductor and splits
    p = parse_poly(F3, cert.primes[0]["prime"])
    assert not (point.order.conductor % p).is_zero
    assert jacobi_symbol(point.order.K.m, p) == 1


def test_certify_point_budget_bounds_the_class_number():
    # the genus-7 zeta pass evaluates 3 + 3^2 + ... + 3^7 = 3279 points
    point = _point("T^15+T^2+2", "T^2+T")
    with pytest.raises(BudgetError) as err:
        certify_point(point, budget=3278)
    assert err.value.info == {"genus": 7, "q": 3, "budget": 3278}
    cert = certify_point(point, budget=3279)
    assert cert.verdict == "certified"
    assert cert.budget["enum_budget"] == 3279


def test_worst_unit_product_values_and_minimality():
    assert [worst_unit_product(3, k) for k in range(6)] == [
        Fraction(1),
        Fraction(2, 3),
        Fraction(4, 9),
        Fraction(8, 27),
        Fraction(8, 27),
        Fraction(64, 243),
    ]
    from cmtk.ffpoly import monic_polys

    for deg in (1, 2, 3, 4):
        best = min(
            _unit_product(f) for f in monic_polys(F3, deg)
        )
        assert best == worst_unit_product(3, deg)


def _unit_product(f):
    prod = Fraction(1)
    for p, _ in factor_monic(f):
        prod *= Fraction(p.norm - 1, p.norm)
    return prod


def test_pic_lower_bound_below_true_class_numbers():
    pool = ["T", "T+1", "T^3+2*T+1", "T^3+T^2+2"]
    conductors = ["1", "T", "T+1", "T^2", "T^2+1", "T^2+T"]
    checked = 0
    for m_text in pool:
        K = analyze_quadratic(F3, parse_poly(F3, m_text))
        for f_text in conductors:
            f = parse_poly(F3, f_text)
            h, _ = order_class_number(K, f)
            lb = pic_lower_bound(3, K.genus, f)
            assert lb <= h, (m_text, f_text, lb, h)
            checked += 1
    assert checked == 24
    # worst-case bound is below every same-degree conductor's bound
    for f_text in conductors[1:]:
        f = parse_poly(F3, f_text)
        assert pic_lower_bound_worst(3, 1, f.degree) <= pic_lower_bound(
            3, 1, f
        )


def test_minimal_height_bound_default_grid_fails_loudly():
    with pytest.raises(BudgetError) as exc:
        minimal_height_bound(1, 1, 3)
    frontier = exc.value.info["frontier"]
    assert frontier["grid_levels"] == 25
    assert frontier["last_infeasible_level"] == 25
    assert frontier["failing_config"]["failed"] == "class_number_floor"


def test_minimal_height_bound_anchor():
    # regression anchor from this solver, not externally known ground truth
    B, audit = minimal_height_bound(1, 1, 3, grid=3**70)
    assert B == 3**52
    assert audit["last_infeasible_level"] == 51
    assert audit["boundary_level"] == 52
    assert len(audit["boundary_witnesses"]) == 53
    assert all(w["t"] % 2 == 0 for w in audit["boundary_witnesses"])
    fail = audit["last_failing_config"]
    assert fail["failed"] == "class_number_floor"
    # re-derive the failure from public pieces: at the first viable t the
    # worst-case class-number bound misses the intersection threshold
    t = fail["first_viable_t"]
    pic = pic_lower_bound_worst(3, fail["g"], fail["deg_f"])
    assert pic <= 4 * (3**t + 1) ** 2


def test_minimal_height_bound_monotonicity():
    B, _ = minimal_height_bound(1, 1, 3, grid=3**70)
    B_f2, _ = minimal_height_bound(1, 2, 3, grid=3**70)
    B_d2, _ = minimal_height_bound(2, 1, 3, grid=3**70)
    assert B_f2 >= B and B_d2 >= B
    B5, audit5 = minimal_height_bound(1, 1, 5, grid=5**50)
    assert B5 == 5 ** (audit5["last_infeasible_level"] + 1)


def test_step3_preconditions():
    with pytest.raises(DomainError):
        step3_ladder(1, 2, 1, 1, [(0, ONE), (0, ONE)])
    with pytest.raises(DomainError):
        step3_ladder(2, 2, 1, 1, [(0, ONE)])
    with pytest.raises(DomainError):
        step3_ladder(2, 2, 1, 1, [])
    with pytest.raises(DomainError):  # no even t >= 2 within the budget
        step3_ladder(2, 2, 1, 1, [(0, ONE), (0, ONE)], t_budget=1)


def test_step3_d2_single_prime_system():
    ladder, cert = step3_ladder(2, 2, 1, 1, [(0, ONE), (0, ONE)])
    assert ladder == [12]
    assert cert.verdict == "inconclusive"
    assert cert.constants["first_failing"] == "class_number_floor_0"
    # the supply bound at t = 12 is the pinned-constant bound
    supply = next(
        iq for iq in cert.inequalities if iq.name == "split_prime_supply_0"
    )
    assert supply.lhs == Fraction(3**12, 4 * 12) - 12 * 3**6
    assert reaudit(cert.json_obj())


def test_step3_d3_large_heights_certified():
    big = parse_poly(F3, "T") ** 300
    ladder, cert = step3_ladder(3, 3, 2, 1, [(0, big)] * 3)
    assert ladder == [16, 52]
    assert cert.verdict == "certified"
    assert reaudit(cert.json_obj())
    # growth inequality re-substitution, plus minimality of t_2
    t1, t2 = ladder
    rhs = 2**2 * (2 * 3**t1 + 2) ** 3
    assert 3**t2 >= rhs
    assert 3 ** (t2 - 2) < rhs
    growth = next(
        iq for iq in cert.inequalities if iq.name == "ladder_growth_1"
    )
    assert growth.lhs == 3**t2 and growth.rhs == rhs - 1


def test_step3_ladder_strictly_increasing():
    big = parse_poly(F3, "T") ** 300
    for d in (3, 4):
        ladder, cert = step3_ladder(d, 2, 2, 1, [(0, big)] * 2, t_budget=200)
        assert len(ladder) == d - 1
        assert all(a < b for a, b in zip(ladder, ladder[1:]))
        assert all(t % 2 == 0 for t in ladder)
        for j in range(1, d - 1):
            rhs = 2 ** (2**j)
            for m, tm in enumerate(ladder[:j], start=1):
                rhs *= (2 * 3**tm + 2) ** (2 * 2 ** (j - m))
            assert 3 ** ladder[j] >= rhs


def test_step3_budget_exhaustion_identifies_failure():
    big = parse_poly(F3, "T") ** 300
    ladder, cert = step3_ladder(3, 3, 2, 1, [(0, big)] * 3, t_budget=20)
    assert cert.verdict == "inconclusive"
    assert cert.constants["first_failing"].startswith("ladder_growth")
