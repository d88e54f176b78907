"""Quadratic fields: rejection taxonomy, zeta oracle vs forms, Eq-style formula."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmtk import quadfield
from cmtk.errors import BudgetError, FieldRejected, UnsupportedPath
from cmtk.ffpoly import (
    Fq,
    Poly,
    factor_monic,
    fq_from_q,
    irreducibles,
    kadd,
    kdec,
    kenc,
    kmod,
    kmul,
    monic_polys,
    poly_from_text,
    quadratic_character,
)
from cmtk.quadfield import (
    ClassGroup,
    FormClass,
    QuadOrder,
    _ext_tables,
    affine_point_count,
    analyze_quadratic,
    class_group,
    class_number_zeta,
    compose,
    compose_raw,
    enumerate_reduced_forms,
    hK_lower_bound,
    order_class_number,
    point_count,
    principal_form,
    reduce_form,
    sqrtmod,
    zeta_numerator,
)

F3 = Fq(3)
F5 = Fq(5)


def P3(s):
    return poly_from_text(F3, s)


def _imaginary_radicands(F, degree):
    """All squarefree imaginary radicands of the given degree (both scalings)."""
    out = []
    c0 = F.canonical_nonsquare()
    for lower in range(F.q**degree):
        m = Poly(F, kdec(F, F.q**degree + lower))
        if not m.is_squarefree():
            continue
        if degree % 2 == 1:
            out.append(m)
            out.append(m * c0)
        else:
            out.append(m * c0)
    return out


RAD3_D1 = _imaginary_radicands(F3, 1)
RAD3_D3 = _imaginary_radicands(F3, 3)


# ---------------------------------------------------------------------------
# analyze_quadratic


def test_analyze_spec_examples():
    K = analyze_quadratic(F3, "T^3+2*T+1")
    assert (K.infinity_type, K.genus) == ("ramified", 1)
    K = analyze_quadratic(F3, "2*T^2+T")
    assert (K.infinity_type, K.genus) == ("inert", 0)
    with pytest.raises(FieldRejected) as exc:
        analyze_quadratic(F3, "T^2+1")  # leading coefficient 1 is a square
    assert exc.value.reason == "real"


def test_analyze_rejections():
    for text, reason in [
        ("0", "zero"),
        ("2", "constant_extension"),
        ("2*T^2", "constant_extension"),  # 2 * T^2: constant times a square
        ("T^2+2*T+1", "constant_extension"),  # (T+1)^2
        ("T^3+2*T^2", "not_squarefree"),  # T^2 (T+2)
        ("T^4+2*T^2", "not_squarefree"),  # T^2 (T^2+2), rejected before 'real'
    ]:
        with pytest.raises(FieldRejected) as exc:
            analyze_quadratic(F3, text)
        assert exc.value.reason == reason, text


def test_genus_formula():
    assert analyze_quadratic(F3, "T").genus == 0
    assert analyze_quadratic(F3, "T^5+2*T+1").genus == 2
    assert analyze_quadratic(F3, "2*T^4+T+1").genus == 1


def test_field_json_record():
    K = analyze_quadratic(F3, "T^3+2*T+1")
    assert K.json_obj() == {
        "q": 3,
        "m": "T^3+2*T+1",
        "genus": 1,
        "infinity_type": "ramified",
    }


# ---------------------------------------------------------------------------
# point counting / zeta oracle


def test_point_count_genus_one_example():
    K = analyze_quadratic(F3, "T^3+2*T+1")
    # m(0)=m(1)=m(2)=1, a square: 2 points each, plus the ramified infinity
    assert point_count(K, 1) == 7
    assert zeta_numerator(K) == [1, 3, 3]
    assert class_number_zeta(K) == 7


def test_zeta_genus_zero():
    assert class_number_zeta(analyze_quadratic(F3, "T")) == 1
    assert class_number_zeta(analyze_quadratic(F3, "2*T^2+T")) == 1


def test_zeta_functional_equation_and_weil_bound():
    for m in ["T^3+2*T+1", "T^5+2*T+1", "2*T^4+T+1", "T^5+2*T+2"]:
        K = analyze_quadratic(F3, m)
        g, q = K.genus, 3
        a = zeta_numerator(K)
        assert len(a) == 2 * g + 1 and a[0] == 1
        for k in range(g):
            assert a[2 * g - k] == q ** (g - k) * a[k]
        h = sum(a)
        # Weil interval: (sqrt(q)-1)^{2g} <= h <= (sqrt(q)+1)^{2g}
        assert (q**0.5 - 1) ** (2 * g) <= h <= (q**0.5 + 1) ** (2 * g) + 1e-9


def _tuple_affine_point_counts(fields, i):
    """Brute-force oracle: y^2 = m(t) over F_q[T]/(w), w the first irreducible of degree i.

    Residues are coefficient tuples, arithmetic is kmul/kadd/kmod, and
    squares are looked up in the set of all nonzero residues squared.
    """
    F = fields[0].field
    w = irreducibles(F, i)[0].coeffs
    squares = {kmod(F, kmul(F, r, r), w) for r in (kdec(F, c) for c in range(1, F.q**i))}
    counts = []
    for K in fields:
        total = 0
        for code in range(F.q**i):
            t = kdec(F, code)
            v = ()
            for c in reversed(K.m.coeffs):
                v = kmod(F, kadd(F, kmul(F, v, t), (c,)), w)
            if not v:
                total += 1
            elif v in squares:
                total += 2
        counts.append(total)
    return counts


def _oracle_fields(q, per_type):
    """Seeded ramified and inert fields of degree <= 4, and one monomial.

    For q > p every radicand has a coefficient outside F_p.
    """
    F = fq_from_q(q)
    rng = random.Random(q)
    fields = {"ramified": [], "inert": []}
    while min(len(v) for v in fields.values()) < per_type:
        degree = rng.randrange(1, 5)
        coeffs = tuple(rng.randrange(q) for _ in range(degree)) + (rng.randrange(1, q),)
        if q > F.p and max(coeffs) < F.p:
            continue
        try:
            K = analyze_quadratic(F, Poly(F, coeffs))
        except FieldRejected:
            continue
        if len(fields[K.infinity_type]) < per_type and K not in fields[K.infinity_type]:
            fields[K.infinity_type].append(K)
    monomial = analyze_quadratic(F, Poly(F, (0, q - 1)))  # m(t) = c t needs no addition
    return fields["ramified"] + fields["inert"] + [monomial]


@pytest.mark.parametrize("q, per_type", [(3, 8), (5, 6), (9, 4), (25, 2)])
def test_affine_point_count_matches_tuple_oracle(q, per_type):
    fields = _oracle_fields(q, per_type)
    for i in (1, 2, 3):
        expected = _tuple_affine_point_counts(fields, i)
        assert [affine_point_count(K, i) for K in fields] == expected, i


# sha256 of json [N, zech, cls, clog], pinned before the tables came from log_tables
EXT_TABLE_DIGESTS = {
    (3, 8): "734652d5b396d39dd73de2eddb893c938b6e0367afbdf285031bcefea5788906",
    (5, 6): "6802e80da1bd48552c18c0fe29eb5de90d3432adb9148311c65d41844a02e962",
    (9, 4): "9d23e8ba976decf14877d7293521d780ba39f8394f0075966ae9e18078582bd5",
    (25, 3): "2d54000d016e2f3e979c7606adaea122ddd248b409a02b76d967b80fc8b50d3f",
    (27, 2): "5de7930805c2c38d6ac11fa9cc1f260d617cb0e346b057f9ac620714ff188230",
    (3, 11): "7fd4e00d1b09e5e1db76f5ee908b003c3042ee14c09ad72d9c859e6242e04d5c",
}


@pytest.mark.parametrize("q, i", sorted(EXT_TABLE_DIGESTS))
def test_ext_tables_digest_is_pinned(q, i):
    N, zech, cls, clog = _ext_tables(fq_from_q(q), i)
    blob = json.dumps([N, list(zech), list(cls), clog]).encode()
    assert hashlib.sha256(blob).hexdigest() == EXT_TABLE_DIGESTS[q, i]


def test_zeta_budget():
    K = analyze_quadratic(F3, "T^5+2*T+1")
    with pytest.raises(BudgetError):
        class_number_zeta(K, budget=3)


# ---------------------------------------------------------------------------
# forms: enumeration, composition, reduction


def test_maximal_order_forms_match_zeta_spec_examples():
    K = analyze_quadratic(F3, "T")
    assert class_group(QuadOrder.make(K)).h == 1
    K = analyze_quadratic(F3, "T^3+2*T+1")
    cg = class_group(QuadOrder.make(K))
    assert cg.h == 7 == class_number_zeta(K)
    assert cg.path == "forms"


def test_conductor_examples_both_signs():
    K = analyze_quadratic(F3, "T")
    # chi(T mod T+2) = legendre(1) = +1: h = 3 * (1 - 1/3) = 2
    h_plus, audit = order_class_number(K, "T+2")
    assert h_plus == 2 and audit["local_factors"][0]["chi"] == 1
    # chi(T mod T+1) = legendre(2) = -1: h = 3 * (1 + 1/3) = 4
    h_minus, audit = order_class_number(K, "T+1")
    assert h_minus == 4 and audit["local_factors"][0]["chi"] == -1
    assert class_group(QuadOrder.make(K, "T+2")).h == 2
    assert class_group(QuadOrder.make(K, "T+1")).h == 4
    # ramified conductor prime: chi = 0, h = |f| = 3
    h_ram, audit = order_class_number(K, "T")
    assert h_ram == 3 and audit["local_factors"][0]["chi"] == 0
    assert class_group(QuadOrder.make(K, "T")).h == 3


def test_formula_audit_record():
    K = analyze_quadratic(F3, "T")
    h, audit = order_class_number(K, "T^2+2*T")  # f = T(T+2)
    assert audit["h_max"] == "1" and audit["unit_index"] == "1"
    assert audit["conductor_norm"] == "9"
    assert h == 3 * 2  # (3 - 0) * (3 - 1)
    assert audit["h"] == str(h)


def test_group_axioms_small():
    def composition_table(cg):
        """table[i][j] = index in cg.forms of the reduced composite of forms i, j."""
        keys = [f.key() for f in cg.forms]
        return [[keys.index(compose(f, g).key()) for g in cg.forms] for f in cg.forms]

    K = analyze_quadratic(F3, "T")
    cg = class_group(QuadOrder.make(K, "T+1"))
    ident = principal_form(cg.order)
    assert cg.forms[0].key() == ident.key()
    for f in cg.forms:
        assert compose(f, ident).key() == f.key()
        assert compose(f, f.inverse()).key() == ident.key()
    table = composition_table(cg)
    n = len(table)
    for row in table:
        assert sorted(row) == list(range(n))  # Latin square
    for i in range(n):
        for j in range(n):
            assert table[i][j] == table[j][i]  # abelian


def test_associativity_sampled(rng):
    K = analyze_quadratic(F3, "T^3+2*T+1")
    cg = class_group(QuadOrder.make(K))
    forms = cg.forms
    for _ in range(100):
        x, y, z = (forms[rng.randrange(len(forms))] for _ in range(3))
        left = compose(compose(x, y), z)
        right = compose(x, compose(y, z))
        assert left.key() == right.key()


def test_element_orders_divide_h():
    K = analyze_quadratic(F3, "T^3+2*T+1")
    cg = class_group(QuadOrder.make(K))
    orders = sorted(cg.element_order(f) for f in cg.forms)
    assert orders[0] == 1  # identity
    assert all(cg.h % n == 0 for n in orders)
    assert 7 in orders  # h = 7 prime: the group is cyclic


def test_reduction_reaches_canonical_rep():
    K = analyze_quadratic(F3, "T^3+2*T+1")
    order = QuadOrder.make(K)
    # b = T^2 satisfies b^2 - D = T^4 - T^3 - 2T - 1 ... build a valid unreduced form:
    # take a = monic multiple: for any form (a,b) from composition without reduction
    cg = class_group(order)
    f, g = cg.forms[1], cg.forms[2]
    raw = compose_raw(f, g)
    red = reduce_form(raw)
    assert red.is_reduced and red.key() in {x.key() for x in cg.forms}


def test_uniqueness_of_reduced_representatives():
    # no two distinct reduced invertible forms are equivalent, for deg D <= 6
    cases = [("T^3+2*T+1", "1"), ("T", "T+1"), ("T", "T^2+1"), ("T^3+T^2+2", "1")]
    for m_text, f_text in cases:
        K = analyze_quadratic(F3, m_text)
        order = QuadOrder.make(K, f_text)
        cg = class_group(order)
        ident_key = principal_form(order).key()
        assert cg.h == order_class_number(K, f_text)[0]
        for i, f in enumerate(cg.forms):
            for g in cg.forms[i + 1 :]:
                assert compose(f, g.inverse()).key() != ident_key


@given(st.sampled_from(RAD3_D1 + RAD3_D3), st.integers(0, 3**2 - 1))
def test_formula_matches_enumeration(m, f_lower):
    # conductors: all monic of degree <= 2 paired with deg m <= 3 keeps deg D <= 7
    f = Poly(F3, kdec(F3, 3**2 + f_lower)) if f_lower else P3("T")
    try:
        K = analyze_quadratic(F3, m)
    except FieldRejected:
        return
    if K.infinity_type == "inert":
        return
    h_formula, _ = order_class_number(K, f)
    h_forms = class_group(QuadOrder.make(K, f)).h
    assert h_formula == h_forms


def test_inert_paths():
    K = analyze_quadratic(F3, "2*T^4+T+1")  # inert, g = 1
    cg = class_group(QuadOrder.make(K))
    assert cg.path == "zeta" and cg.h == class_number_zeta(K)
    with pytest.raises(UnsupportedPath):
        class_group(QuadOrder.make(K, "T"))
    # the conductor formula itself still applies on top of the oracle h
    h, _ = order_class_number(K, "T")
    assert h == cg.h * (3 - quadratic_character(K.m, "T"))


def test_invertibility_excludes_conductor_divisors():
    # D = T^2 * T = T^3 (f = T, m = T): the form (T, 0) has c = -T, gcd = T
    K = analyze_quadratic(F3, "T")
    order = QuadOrder.make(K, "T")
    bad = FormClass(order, P3("T"), P3("0"))
    assert not bad.is_invertible
    assert all(f.is_invertible for f in enumerate_reduced_forms(order))


def test_order_sets_D_once_and_keeps_equality():
    K = analyze_quadratic(F3, "T^3+2*T+1")
    f = P3("T^2+1")
    order, again = QuadOrder.make(K, f), QuadOrder.make(K, "T^2+1")
    assert order.D == f * f * K.m
    assert QuadOrder.make(K).D == K.m
    assert order == again and hash(order) == hash(again)
    assert order != QuadOrder.make(K, "T+1")


@pytest.mark.parametrize("q", [3, 5, 9])
def test_invertibility_shortcut_matches_full_gcd(q):
    # is_invertible accepts on gcd(a, f) = 1 and runs the full gcd(a, b, c)
    # only when a shares a prime with the conductor f; check it against
    # the full gcd on every reduced (a, b), for conductors with one prime,
    # a repeated prime and two distinct primes
    F = fq_from_q(q)
    T, one = Poly(F, (0, 1)), Poly.constant(F, 1)
    shared = {True: 0, False: 0}  # forms with gcd(a, f) != 1, by invertibility
    for degree in (1, 3):
        K = analyze_quadratic(F, _imaginary_radicands(F, degree)[0])
        for f in (T + 1, T * T, T * (T + 1)):
            order = QuadOrder.make(K, f)
            D = order.D
            for d in range(order.genus_parameter + 1):
                for a in monic_polys(F, d):
                    for b in sqrtmod(F, D.coeffs, a.coeffs):
                        b = Poly(F, b)
                        full = a.gcd(b).gcd((b * b - D) // a) == one
                        assert FormClass(order, a, b).is_invertible == full
                        if a.gcd(f) != one:
                            shared[full] += 1
    # a non-invertible form is hit, and so is an invertible one that
    # only the full gcd can accept
    assert shared[False] > 0 and shared[True] > 0


def _brute_sqrt_table(F, a):
    """r^2 mod a -> residues r in code order, by squaring every residue mod a."""
    table = {}
    for code in range(F.q ** (len(a) - 1)):
        r = kdec(F, code)
        table.setdefault(kmod(F, kmul(F, r, r), a), []).append(r)
    return {sq: tuple(rs) for sq, rs in table.items()}


@pytest.mark.parametrize("q, top", [(3, 4), (5, 3), (9, 2), (25, 1)])
def test_sqrtmod_matches_brute_force_table(q, top):
    # every monic a of degree <= top; values zero, units (squares and
    # not), multiples of each prime p | a and of p^2, and unreduced ones
    F = fq_from_q(q)
    rng = random.Random(q)
    one = Poly.constant(F, 1)
    seen = dict.fromkeys(("zero", "unit", "p", "p^2", "no root", "> 2 roots"), 0)
    for d in range(top + 1):
        for a in monic_polys(F, d):
            table = _brute_sqrt_table(F, a.coeffs)
            primes = factor_monic(a)

            def residue():
                return Poly(F, kdec(F, rng.randrange(F.q**d)))

            squares = rng.sample(sorted(table), min(3, len(table)))
            values = [Poly(F, ())] + [Poly(F, sq) for sq in squares]
            values += [residue() for _ in range(2)]
            values += [p * residue() for p, _ in primes]
            values += [p * p * residue() for p, mult in primes if mult > 1]
            for v in values:
                v = v % a
                expected = table.get(v.coeffs, ())
                assert sqrtmod(F, v.coeffs, a.coeffs) == expected
                assert sqrtmod(F, (v + a * residue()).coeffs, a.coeffs) == expected
                g = v.gcd(a) if not v.is_zero else None
                if g is None:
                    seen["zero"] += 1
                elif g == one:
                    seen["unit"] += 1
                else:
                    seen["p^2" if any((g % (p * p)).is_zero for p, _ in primes) else "p"] += 1
                seen["no root"] += not expected
                seen["> 2 roots"] += len(expected) > 2
    # a nonzero multiple of p needs deg a >= 2, one of p^2 deg a >= 3
    required = ["zero", "unit", "no root"] + ["p", "> 2 roots"] * (top >= 2) + ["p^2"] * (top >= 3)
    assert all(seen[kind] for kind in required), seen


@pytest.mark.parametrize(
    "q, m, f",
    [
        (3, "T^3+T", "T"),  # f shares T with m
        (3, "T^3+2*T+1", "T^2"),  # repeated prime
        (3, "T", "T^2"),  # both
        (3, "T^3+2*T+1", "T^2+2*T+1"),  # (T+1)^2
        (5, "T^3+T", "T^2+2*T"),  # two primes shared with m
        (5, "T", "T^2+2*T+1"),
        (9, "T", "T^2"),
    ],
)
def test_reduced_forms_match_brute_force(q, m, f):
    F = fq_from_q(q)
    order = QuadOrder.make(analyze_quadratic(F, m), f)
    D, one = order.D, Poly.constant(F, 1)
    expected = []
    for d in range(order.genus_parameter + 1):
        for a in monic_polys(F, d):
            for code in range(F.q**d):
                b = Poly(F, kdec(F, code))
                if ((b * b - D) % a).is_zero and a.gcd(b).gcd((b * b - D) // a) == one:
                    expected.append((kenc(F, a.coeffs), code))
    forms = enumerate_reduced_forms(order)
    assert [form.key() for form in forms] == expected
    assert len(forms) == order_class_number(order.K, f)[0]


@pytest.mark.parametrize("q", [3, 5, 9])
def test_walk_keeps_exactly_the_invertible_roots(q):
    # the walk drops the roots of forms that are not invertible from its
    # prime-power tables; check its keys against every root from sqrtmod
    # with the full gcd(a, b, c), for conductors with repeated and mixed
    # primes, and that every emitted form has a | b^2 - D
    F = fq_from_q(q)
    T, one = Poly(F, (0, 1)), Poly.constant(F, 1)
    conductors = [T * T, T * T * T, T * T * (T + 1), (T + 1) * (T + 1)]
    radicands = [T, next(m for m in _imaginary_radicands(F, 3) if m.coeffs[0])]  # T | m, T ∤ m
    kept_with_p_dividing_b = 0  # invertible forms with p | a, p | f and p | b
    for m in radicands:
        K = analyze_quadratic(F, m)
        for f in conductors:
            order = QuadOrder.make(K, f)
            if q**order.genus_parameter > 1000:  # keep the brute force small (q = 9, deg D = 9)
                continue
            D = order.D
            expected = []
            for d in range(order.genus_parameter + 1):
                for a in monic_polys(F, d):
                    for b in sqrtmod(F, D.coeffs, a.coeffs):
                        b = Poly(F, b)
                        if a.gcd(b).gcd((b * b - D) // a) == one:
                            expected.append((kenc(F, a.coeffs), kenc(F, b.coeffs)))
                            kept_with_p_dividing_b += not a.gcd(b).gcd(f) == one
            forms = enumerate_reduced_forms(order)
            assert [form.key() for form in forms] == sorted(expected)
            assert all(((form.b * form.b - D) % form.a).is_zero for form in forms)
    # so dropping every root with p | r would fail
    assert kept_with_p_dividing_b > 0


def test_walk_builds_only_emitted_forms_without_gcd(monkeypatch):
    # on a non-maximal order the walk calls neither kgcd nor the a | b^2 - D
    # re-check in __post_init__, and builds exactly the h forms it emits
    K = analyze_quadratic(F3, "T^3+2*T+1")
    order = QuadOrder.make(K, "T^3+T^2")  # T^2 (T + 1): a repeated and a second prime
    h, _ = order_class_number(K, order.conductor)
    calls = dict.fromkeys(("kgcd", "post_init", "built"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(quadfield, "kgcd", counted("kgcd", quadfield.kgcd))
    monkeypatch.setattr(FormClass, "__post_init__", counted("post_init", FormClass.__post_init__))
    built = FormClass._built.__func__
    monkeypatch.setattr(FormClass, "_built", classmethod(counted("built", built)))
    assert class_group(order).h == h
    assert calls == {"kgcd": 0, "post_init": 0, "built": h}


def test_forms_budget():
    K = analyze_quadratic(F3, "T^5+2*T+1")
    with pytest.raises(BudgetError):
        class_group(QuadOrder.make(K, "T^2+1"), budget=10)


# ---------------------------------------------------------------------------
# lower bound


def test_hK_lower_bound_values():
    assert hK_lower_bound(3, 1) == Fraction(1, 2)
    assert hK_lower_bound(3, 2) == Fraction(92, 104)
    assert hK_lower_bound(5, 1) == Fraction(64, 48)
    assert hK_lower_bound(3, 0) == 1


def test_class_number_respects_lower_bound():
    pools = [(F3, RAD3_D1 + RAD3_D3), (F5, _imaginary_radicands(F5, 1))]
    # a few genus-2 fields as well
    deg5 = [m for m in _imaginary_radicands(F3, 5)[:20]]
    pools.append((F3, deg5))
    for F, pool in pools:
        for m in pool:
            K = analyze_quadratic(F, m)
            assert class_number_zeta(K) >= hK_lower_bound(F.q, K.genus)


def test_class_group_json_record():
    K = analyze_quadratic(F3, "T")
    cg = class_group(QuadOrder.make(K, "T+1"))
    obj = cg.json_obj()
    assert obj["h"] == "4" and obj["path"] == "forms"
    assert len(obj["representatives"]) == 4
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in obj["representatives"])
