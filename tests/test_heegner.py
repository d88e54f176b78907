"""Heegner-hypothesis searches and the conductor-tower recursion."""

import pytest

from cmtk.errors import BudgetError, DomainError, NotSplitError
from cmtk.ffpoly import Fq, as_prime, parse_poly, quadratic_character
from cmtk.quadfield import analyze_quadratic, order_class_number
from cmtk.heegner import (
    HeegnerSearchSpec,
    find_heegner_fields,
    heegner_field_json,
    order_tower,
)

F3 = Fq(3)


def _spec(n_text, **kw):
    return HeegnerSearchSpec.make(F3, n_text, **kw)


def test_spec_validation():
    with pytest.raises(DomainError):
        _spec("2*T")  # not monic
    with pytest.raises(DomainError):
        _spec("0")
    with pytest.raises(DomainError):
        _spec("T^2+T", p="T")  # tower prime divides the level
    with pytest.raises(DomainError):
        _spec("T", count=0)


def test_trivial_level_returns_canonical_radicands():
    res = find_heegner_fields(_spec("1", count=5))
    assert [K.m.text() for K in res.fields] == ["T", "T+1", "T+2", "2*T", "2*T+1"]
    assert not res.exhausted
    big = find_heegner_fields(_spec("1", max_degree=1, count=10**6))
    assert big.exhausted
    assert [K.m.text() for K in big.fields] == ["T", "T+1", "T+2", "2*T", "2*T+1", "2*T+2"]


def test_direct_scan_stops_at_budget():
    spec = _spec("1", max_degree=2, count=10**6)  # 3^3 - 3 = 24 radicands
    assert find_heegner_fields(spec, budget=24).exhausted
    with pytest.raises(BudgetError) as err:
        find_heegner_fields(spec, budget=5)
    assert err.value.info == {"found": 5, "budget": 5}


def test_level_T_constant_term_is_square():
    res = find_heegner_fields(_spec("T", count=10))
    assert len(res.fields) == 10
    codes = [K.m.code for K in res.fields]
    assert codes == sorted(codes)
    pT = as_prime(F3, parse_poly(F3, "T"))
    for K in res.fields:
        assert K.m.coeffs[0] == 1  # the only nonzero square in F_3
        assert quadratic_character(K.m, pT) == 1
        analyze_quadratic(F3, K.m)  # idempotent re-validation


def test_level_TT1_both_checks_and_json():
    spec = _spec("T^2+T", count=8)
    res = find_heegner_fields(spec)
    assert len(res.fields) == 8
    for K in res.fields:
        obj = heegner_field_json(K, spec)
        assert {c["prime"] for c in obj["checks"]} == {"T", "T+1"}
        assert all(c["chi"] == 1 for c in obj["checks"])
        assert obj["genus"] == K.genus


def test_lemma_mode_scans_primes_congruent_to_one():
    spec = _spec("T^2+T", count=6)
    res = find_heegner_fields(spec, mode="lemma")
    one = parse_poly(F3, "1")
    for K in res.fields:
        assert K.m.is_monic and K.m.degree % 2 == 1
        assert (K.m % spec.n) == one
        for p in spec.level_primes():
            assert quadratic_character(K.m, p) == 1
    with pytest.raises(DomainError):
        find_heegner_fields(spec, mode="fast")


def test_lemma_mode_can_exhaust():
    res = find_heegner_fields(_spec("T^2", max_degree=1, count=3), mode="lemma")
    assert res.fields == () and res.exhausted


def test_tower_base_and_trivial_level():
    K = analyze_quadratic(F3, parse_poly(F3, "T+1"))
    base = order_tower(K, "T+2", "T", 0)
    assert len(base) == 1
    assert base[0].order.is_maximal
    assert base[0].ideal.a == parse_poly(F3, "T")
    trivial = order_tower(K, "T+2", "1", 2)
    assert all(lev.ideal.a == parse_poly(F3, "1") for lev in trivial)


def test_tower_recursion_split_and_inert_prime():
    # p = T+1 is split for m = 2T^2+2T+1 (m(-1) = 1) and inert for
    # m = 2T^2+T+1 (m(-1) = 2)
    pT1 = as_prime(F3, parse_poly(F3, "T+1"))
    for m_text, chi in (("2*T^2+2*T+1", 1), ("2*T^2+T+1", -1)):
        K = analyze_quadratic(F3, parse_poly(F3, m_text))
        assert quadratic_character(K.m, pT1) == chi
        tower = order_tower(K, "T+1", "T", 3)
        hs = [lev.h for lev in tower]
        assert hs[1] == hs[0] * (3 - chi)
        assert hs[2] == hs[1] * 3 and hs[3] == hs[2] * 3
        for j, lev in enumerate(tower):
            assert lev.level == j
            assert lev.order.conductor == parse_poly(F3, "T+1") ** j
            assert lev.ideal.a == parse_poly(F3, "T")
            h_direct, _ = order_class_number(K, lev.order.conductor)
            assert lev.h == h_direct


def test_tower_rejects_heegner_violations():
    K_ram = analyze_quadratic(F3, parse_poly(F3, "T"))
    with pytest.raises(NotSplitError) as exc:
        order_tower(K_ram, "T+1", "T", 1)
    assert "T" in str(exc.value)
    K_inert = analyze_quadratic(F3, parse_poly(F3, "2*T+1"))
    assert quadratic_character(K_inert.m, as_prime(F3, parse_poly(F3, "T+1"))) == -1
    with pytest.raises(NotSplitError):
        order_tower(K_inert, "T", "T+1", 1)
    K_ok = analyze_quadratic(F3, parse_poly(F3, "T+1"))
    with pytest.raises(DomainError):
        order_tower(K_ok, "T", "T", 1)  # tower prime divides the level
    with pytest.raises(DomainError):
        order_tower(K_ok, "T+2", "T", -1)


def test_tower_recursion_across_search_output():
    spec = _spec("T", count=6)
    res = find_heegner_fields(spec)
    pT2 = as_prime(F3, parse_poly(F3, "T+2"))
    for K in res.fields:
        if (K.m % pT2).is_zero:
            continue  # ramified tower prime: recursion still holds, skip variety
        chi = quadratic_character(K.m, pT2)
        tower = order_tower(K, "T+2", "T", 2)
        assert tower[1].h == tower[0].h * (3 - chi)
        assert tower[2].h == tower[1].h * 3
