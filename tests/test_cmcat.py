"""CM catalogue: heights, bounded enumeration, Galois action bookkeeping."""

import random

import pytest
from hypothesis import given, strategies as st

from cmtk import cmcat
from cmtk.errors import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    DomainError,
    NotSplitError,
    UnsupportedPath,
)
from cmtk.cmcat import (
    CMPoint,
    _class_numbers,
    _imaginary_radicands_of_genus,
    _orbit_images,
    _squarefree_monics,
    acting_ideal_form,
    catalogue_json,
    catalogue_total,
    enumerate_cm_points,
    find_split_prime,
    galois_isogeny_step,
    galois_orbit,
    point_from_row,
    split_prime_form,
)
from cmtk.ffpoly import (
    Fq,
    Poly,
    as_prime,
    fq_from_q,
    irreducibles,
    jacobi_symbol,
    kenc,
    monic_polys,
    parse_poly,
    poly_from_text,
    quadratic_character,
)
from cmtk.quadfield import (
    QuadOrder,
    analyze_quadratic,
    class_group,
    class_number_zeta,
    order_class_number,
    principal_form,
)

F3 = Fq(3)


def _point(m_text, f_text):
    K = analyze_quadratic(F3, m_text)
    order = QuadOrder.make(K, f_text)
    return CMPoint(order, principal_form(order))


# ---------------------------------------------------------------------------
# heights


def test_height_examples():
    assert _point("T^3+2*T+1", "T").height == 9  # g = 1, |f| = 3
    assert _point("T", "1").height == 1


# ---------------------------------------------------------------------------
# catalogue


def test_catalogue_bound_one_empty():
    assert enumerate_cm_points(F3, 1) == []


def test_catalogue_bound_two_is_genus_zero_maximal():
    rows = enumerate_cm_points(F3, 2)
    assert len(rows) == 12
    assert all(r.genus == 0 and r.conductor.degree == 0 and r.h == 1 for r in rows)
    # both scaling classes of ramified radicands appear
    texts = {r.m.text() for r in rows}
    assert {"T", "2*T", "T+1", "2*T+2"} <= texts
    # inert rows carry the non-square leading coefficient
    assert "2*T^2+T" in texts and "T^2+T" not in texts


def test_catalogue_monotone_in_bound():
    r3 = {(r.m.coeffs, r.conductor.coeffs) for r in enumerate_cm_points(F3, 3)}
    r9 = {(r.m.coeffs, r.conductor.coeffs) for r in enumerate_cm_points(F3, 9)}
    assert r3 <= r9


def test_catalogue_rows_strictly_below_bound_and_sorted():
    rows = enumerate_cm_points(F3, 9)
    assert all(r.height < 9 for r in rows)
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_catalogue_heights_are_formula_values():
    for r in enumerate_cm_points(F3, 9):
        assert r.height == 3**r.genus * r.conductor.norm


def test_catalogue_class_numbers_recompute():
    rows = enumerate_cm_points(F3, 9)
    total = 0
    for r in rows:
        K = analyze_quadratic(F3, r.m)
        h, _ = order_class_number(K, r.conductor)
        assert h == r.h
        total += h
    assert total == catalogue_total(rows)


def test_catalogue_json_shape():
    rows = enumerate_cm_points(F3, 3)
    out = catalogue_json(rows)
    assert [o["id"] for o in out] == list(range(len(rows)))
    assert set(out[0]) == {"m", "f", "genus", "h", "H_CM", "id"}
    assert out[0]["h"] == "1"


def test_catalogue_budget():
    with pytest.raises(BudgetError):
        enumerate_cm_points(F3, 3**9, budget=1000)


# ---------------------------------------------------------------------------
# one zeta pass per orbit of radicands under T -> aT + b and Frobenius


def _brute_orbit(F, m):
    """Normal forms of the orbit of m, by Poly substitution and FqSpec ops."""
    c0 = F.canonical_nonsquare()
    out = set()
    conj = m
    for _ in range(F.e):
        for a in range(1, F.q):
            for b in range(F.q):
                image = Poly(F, ())
                for c in reversed(conj):
                    image = image * Poly(F, (b, a)) + Poly.constant(F, c)
                lead = image.leading
                unit = F.inv(lead) if F.legendre(lead) == 1 else F.mul(c0, F.inv(lead))
                out.add((image * Poly.constant(F, unit)).coeffs)
        conj = tuple(F.pow_elt(c, F.p) for c in conj)
    return out


@pytest.mark.parametrize("q, max_genus", [(3, 3), (5, 2), (9, 1)])
def test_orbit_sharing_matches_direct_zeta(q, max_genus):
    # includes degrees with p | deg m: 3 and 6 at q = 3, 5 at q = 5
    F = fq_from_q(q)
    for g in range(max_genus + 1):
        radicands = _imaginary_radicands_of_genus(F, g)
        shared = _class_numbers(radicands, DEFAULT_ENUM_BUDGET)
        assert shared == [class_number_zeta(K) for K in radicands]


@pytest.mark.parametrize("q", [25, 27])
def test_orbit_images_of_sampled_radicands(q):
    # Frobenius has order e = 2 and 3 here; representatives are drawn, not listed
    F = fq_from_q(q)
    c0 = F.canonical_nonsquare()
    rng = random.Random(q)
    for degree, leads in ((3, (1, c0)), (4, (c0,))):
        sampled = 0
        while sampled < 2:
            m = Poly(F, (*(rng.randrange(q) for _ in range(degree)), rng.choice(leads)))
            if not m.is_squarefree():
                continue
            sampled += 1
            h = class_number_zeta(analyze_quadratic(F, m))
            images = _orbit_images(F, m.coeffs)
            assert images == _brute_orbit(F, m.coeffs)
            for coeffs in images:
                image = Poly(F, coeffs)
                assert image.degree == degree and image.is_squarefree()
                assert image.leading in leads
                assert class_number_zeta(analyze_quadratic(F, image)) == h


@pytest.mark.parametrize("q, bound, max_genus", [(3, 30, 3), (9, 10, 1)])
def test_catalogue_runs_one_zeta_pass_per_orbit(q, bound, max_genus, monkeypatch):
    F = fq_from_q(q)
    canonical = {}  # radicand -> least code in its orbit
    for g in range(max_genus + 1):
        for K in _imaginary_radicands_of_genus(F, g):
            if K.m.coeffs not in canonical:
                orbit = _brute_orbit(F, K.m.coeffs)
                least = min(kenc(F, c) for c in orbit)
                canonical.update(dict.fromkeys(orbit, least))
    calls = []
    zeta = cmcat.class_number_zeta

    def counted(K, budget):
        calls.append(canonical[K.m.coeffs])
        return zeta(K, budget)

    monkeypatch.setattr(cmcat, "class_number_zeta", counted)
    enumerate_cm_points(F, bound)
    assert sorted(calls) == sorted(set(canonical.values()))  # one pass per orbit


@pytest.mark.parametrize("q, max_degree", [(3, 6), (9, 3)])
def test_squarefree_sieve_matches_gcd_test(q, max_degree):
    F = fq_from_q(q)
    for d in range(max_degree + 1):
        assert _squarefree_monics(F, d) == [m for m in monic_polys(F, d) if m.is_squarefree()]


# ---------------------------------------------------------------------------
# split primes and the acting ideal


def test_split_prime_form_canonical_and_conjugate():
    point = _point("T", "T+1")
    p = poly_from_text(F3, "T+2")  # chi(T mod T+2) = legendre(1) = +1
    form = split_prime_form(point.order, p)
    conj = split_prime_form(point.order, p, conjugate=True)
    assert form.a == p and conj.a == p
    assert form.b != conj.b
    assert form.b.code < conj.b.code  # canonical root is the smaller one
    assert (form.b + conj.b) % p == poly_from_text(F3, "0")


def test_split_prime_rejections():
    point = _point("T", "T+1")
    with pytest.raises(NotSplitError):  # chi(T mod T+1) = legendre(2) = -1
        split_prime_form(point.order, poly_from_text(F3, "T+1"))
    with pytest.raises(NotSplitError):  # ramified: p = m
        split_prime_form(point.order, poly_from_text(F3, "T"))
    point2 = _point("T", "T+2")
    with pytest.raises(NotSplitError):  # divides the conductor
        split_prime_form(point2.order, poly_from_text(F3, "T+2"))


def test_split_prime_form_rejects_composite_with_jacobi_one():
    # (T^2+1)(T^2+T+2): both factors are inert for m, so the Jacobi
    # symbol is +1 although p is not prime
    point = _point("T^3+2*T+1", "1")
    p = poly_from_text(F3, "T^4+T^3+T+2")
    assert jacobi_symbol(point.order.K.m, p) == 1
    with pytest.raises(DomainError) as exc:
        split_prime_form(point.order, p)
    assert exc.type is DomainError


def test_acting_ideal_norm_bookkeeping():
    point = _point("T", "T+1")
    p = poly_from_text(F3, "T+2")
    ideal = acting_ideal_form(point.order, p * p)  # norm <p^2>
    assert ideal.a == (p * p).monic()
    ident = acting_ideal_form(point.order, poly_from_text(F3, "1"))
    assert ident.key() == principal_form(point.order).key()


# ---------------------------------------------------------------------------
# the action


def test_identity_and_principal_action():
    point = _point("T", "T+1")
    assert galois_isogeny_step(point, "1").cls.key() == point.cls.key()


def test_orbit_length_equals_element_order():
    point = _point("T", "T+1")
    cg = class_group(point.order)
    p = find_split_prime(point.order)
    orbit, length = galois_orbit(point, p)
    assert length == cg.element_order(split_prime_form(point.order, p))
    assert len(orbit) == length
    # free action: orbit points pairwise distinct
    keys = {pt.cls.key() for pt in orbit}
    assert len(keys) == length


def test_order_two_class_double_step():
    # h = 2 group: m = T, f = T+2; the non-principal class has order 2
    point = _point("T", "T+2")
    cg = class_group(point.order)
    assert cg.h == 2
    p = find_split_prime(point.order)
    form = split_prime_form(point.order, p)
    if cg.element_order(form) == 2:
        once = galois_isogeny_step(point, p)
        assert once.cls.key() != point.cls.key()
        twice = galois_isogeny_step(once, p)
        assert twice.cls.key() == point.cls.key()


def test_galois_action_accepts_library_primes():
    # the PrimePoly of find_split_prime acts exactly as the plain Poly does
    point = _point("T^3+2*T+1", "T")
    order = point.order
    p = find_split_prime(order)
    plain = Poly(F3, p.coeffs)
    assert p.text() == "T+1" and p.witness == "sieve"
    assert parse_poly(F3, p) is p
    assert plain == p and hash(plain) == hash(p)
    assert as_prime(F3, "T+1") == p  # witness "rabin" against "sieve"
    assert acting_ideal_form(order, p).key() == acting_ideal_form(order, plain).key()
    stepped = galois_isogeny_step(point, p)
    assert stepped.cls.key() == galois_isogeny_step(point, plain).cls.key()
    orbit, length = galois_orbit(point, p)
    plain_orbit, plain_length = galois_orbit(point, plain)
    assert length == plain_length
    assert [pt.cls.key() for pt in orbit] == [pt.cls.key() for pt in plain_orbit]


def test_orbit_factors_its_prime_once(monkeypatch):
    # acting_ideal_form takes the PrimePoly as its own factorization, so
    # sqrtmod's factoring of the prime is the only one
    import cmtk.ffpoly as ffpoly
    import cmtk.quadfield as quadfield

    point = _point("T^3+2*T+1", "T")
    p = find_split_prime(point.order)
    factored = []
    real = ffpoly.kfactor_monic

    def counting(F, f):
        if len(f) > 1:  # recursion ends on constants
            factored.append(f)
        return real(F, f)

    monkeypatch.setattr(ffpoly, "kfactor_monic", counting)
    monkeypatch.setattr(quadfield, "kfactor_monic", counting)
    _, length = galois_orbit(point, p)
    assert length == 14
    assert factored == [p.coeffs]


def test_orbit_budget_bounds_the_walk():
    # h = 14 and [P] generates Pic(R): the orbit takes exactly 14 steps
    point = _point("T^3+2*T+1", "T")
    p = find_split_prime(point.order)
    assert galois_orbit(point, p, budget=14)[1] == 14
    with pytest.raises(BudgetError) as err:
        galois_orbit(point, p, budget=13)
    assert err.value.info == {"steps": 13, "budget": 13}


def test_action_is_homomorphism():
    point = _point("T^3+2*T+1", "1")
    splits = [
        p
        for t in (1, 2)
        for p in irreducibles(F3, t)
        if quadratic_character(point.order.K.m, p) == 1
    ]
    assert len(splits) >= 2
    n1, n2 = splits[0], splits[1]
    lhs = galois_isogeny_step(galois_isogeny_step(point, n1), n2)
    rhs = galois_isogeny_step(point, n1 * n2)
    assert lhs.cls.key() == rhs.cls.key()


def test_action_constant_on_order():
    point = _point("T", "T+1")
    stepped = galois_isogeny_step(point, "T+2")
    assert stepped.order is point.order
    assert stepped.height == point.height


def test_inert_action_unsupported():
    K = analyze_quadratic(F3, "2*T^2+T")
    order = QuadOrder.make(K)
    from cmtk.quadfield import FormClass

    point = CMPoint(order, principal_form(order))
    with pytest.raises(UnsupportedPath):
        galois_isogeny_step(point, "T+1")


def test_inert_orbit_unsupported():
    K = analyze_quadratic(F3, "2*T^2+T")
    order = QuadOrder.make(K)
    with pytest.raises(UnsupportedPath):
        galois_orbit(CMPoint(order, principal_form(order)), "T+1")


def test_orbit_equals_iterated_steps():
    # h = 14 and [P] generates Pic(R); start from a non-principal class
    K = analyze_quadratic(F3, "T^3+2*T+1")
    order = QuadOrder.make(K, "T")
    cg = class_group(order)
    point = CMPoint(order, cg.forms[3])
    p = find_split_prime(order)
    keys = {}
    for conjugate in (False, True):
        orbit, length = galois_orbit(point, p, conjugate)
        assert length == cg.h == 14
        cur, stepped = point, [point]
        for _ in range(length - 1):
            cur = galois_isogeny_step(cur, p, conjugate)
            stepped.append(cur)
        assert galois_isogeny_step(cur, p, conjugate).cls.key() == point.cls.key()
        keys[conjugate] = [pt.cls.key() for pt in orbit]
        assert keys[conjugate] == [pt.cls.key() for pt in stepped]
    # the conjugate prime acts by the inverse class: the same cycle reversed
    assert keys[True] == keys[False][:1] + keys[False][:0:-1]


def test_point_from_row_and_json():
    rows = enumerate_cm_points(F3, 3)
    pt = point_from_row(rows[-1], F3)
    obj = pt.json_obj()
    assert set(obj) == {"m", "f", "genus", "H_CM", "class"}
    assert obj["class"] == ["1", "0"]


@given(st.sampled_from(range(12)))
def test_orbit_lengths_divide_h(idx):
    # genus-1 maximal orders: first few squarefree cubics
    cubics = []
    from cmtk.ffpoly import kdec

    for lower in range(3**3):
        m = Poly(F3, kdec(F3, 3**3 + lower))
        if m.is_squarefree():
            cubics.append(m)
        if len(cubics) == 12:
            break
    m = cubics[idx]
    K = analyze_quadratic(F3, m)
    order = QuadOrder.make(K)
    cg = class_group(order)
    point = CMPoint(order, principal_form(order))
    p = find_split_prime(order)
    _, length = galois_orbit(point, p)
    assert cg.h % length == 0
