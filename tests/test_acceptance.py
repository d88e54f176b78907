"""The eleven acceptance criteria, one test each, run in order.

Every test checks one end-to-end property against an independent exact
oracle, appends a single PASS/FAIL verdict line to the terminal summary
(see conftest), and asserts its own wall-clock budget.  Shared heavy
data (the criterion-1 field sweep, the criterion-2 conductor pairs, the
B < 30 catalogue) is built once by the first criterion that needs it,
so each budget covers the work it introduces.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import validate

import conftest
from cmtk import (
    CMPoint,
    CurveHypothesis,
    HeegnerSearchSpec,
    Poly,
    QuadOrder,
    RegularTree,
    SplittingSpec,
    analyze_quadratic,
    as_prime,
    bigdegree_bound,
    catalogue_total,
    cebotarev_window,
    certify_point,
    check_improper,
    class_group,
    class_number_zeta,
    compose,
    count_avoiding_geodesics,
    count_split_primes,
    enumerate_cm_points,
    enumerate_reduced_forms,
    factor_monic,
    find_admissible_prime,
    find_heegner_fields,
    find_split_prime,
    fq_from_q,
    galois_orbit,
    hK_lower_bound,
    hecke_coset_reps,
    irreducibles,
    jacobi_symbol,
    load_schema,
    minimal_height_bound,
    monic_polys,
    order_class_number,
    order_tower,
    parse_poly,
    point_from_row,
    principal_form,
    psi,
    quadratic_character,
    reaudit,
    reduce_form,
    split_prime_form,
    step3_ladder,
    FieldRejected,
)

F3 = fq_from_q(3)
REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 20260816


class _Criterion:
    """Times one criterion and records its verdict line."""

    def __init__(self, number, budget_s=None):
        self.number = number
        self.budget_s = budget_s
        self.detail = ""

    def note(self, detail):
        self.detail = detail

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            conftest.ACCEPTANCE_LINES.append(
                f"criterion {self.number:02d}: FAIL after {elapsed:.1f}s "
                f"- {exc_type.__name__}: {str(exc)[:120]}"
            )
            return False
        if self.budget_s is not None and elapsed >= self.budget_s:
            conftest.ACCEPTANCE_LINES.append(
                f"criterion {self.number:02d}: FAIL - ran {elapsed:.1f}s, "
                f"budget {self.budget_s}s"
            )
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.1f}s)"
            )
        line = f"criterion {self.number:02d}: PASS in {elapsed:5.1f}s"
        if self.detail:
            line += f" - {self.detail}"
        conftest.ACCEPTANCE_LINES.append(line)
        return False


def _nonsquare(field):
    for c in range(2, field.q):
        if field.legendre(c) == -1:
            return c
    raise AssertionError("odd field without a non-square constant")


_shared = {}


def _c1_fields():
    """Every squarefree odd-degree m with deg m <= 5, both scaling classes."""
    if "c1" in _shared:
        return _shared["c1"]
    out = []
    for q in (3, 5):
        F = fq_from_q(q)
        eps = Poly.constant(F, _nonsquare(F))
        for deg in (1, 3, 5):
            accepted_monic = 0
            for m0 in monic_polys(F, deg):
                kept_this_m = 0
                for m in (m0, eps * m0):
                    try:
                        K = analyze_quadratic(F, m)
                    except FieldRejected:
                        continue
                    kept_this_m += 1
                    out.append((q, K))
                assert kept_this_m in (0, 2)  # scaling never changes squarefreeness
                accepted_monic += kept_this_m // 2
            # cardinality oracle: # monic squarefree of degree n
            expected = q if deg == 1 else q**deg - q ** (deg - 1)
            assert accepted_monic == expected, (q, deg, accepted_monic, expected)
    _shared["c1"] = out
    return out


def _c2_pairs():
    """>= 25 (m, f) orders over F_3 with deg(f^2 m) <= 8, mixed conductor types.

    Pairs are picked in canonical order, at most six per character
    signature (the sorted set of chi(p) over primes p | f), which forces
    split, inert, ramified, and mixed conductors into the sample.
    """
    if "c2" in _shared:
        return _shared["c2"]
    eps = Poly.constant(F3, _nonsquare(F3))
    buckets = {}
    selected = []
    for deg_m in (1, 3, 5):
        for m0 in monic_polys(F3, deg_m):
            for m in (m0, eps * m0):
                try:
                    K = analyze_quadratic(F3, m)
                except FieldRejected:
                    continue
                for deg_f in range(1, (8 - deg_m) // 2 + 1):
                    for f in monic_polys(F3, deg_f):
                        chars = tuple(
                            sorted(
                                {
                                    quadratic_character(K.m, p)
                                    for p, _ in factor_monic(f)
                                }
                            )
                        )
                        if buckets.get(chars, 0) >= 6:
                            continue
                        buckets[chars] = buckets.get(chars, 0) + 1
                        h, _ = order_class_number(K, f)
                        selected.append((K, f, h))
    _shared["c2"] = selected
    return selected


def _c4_rows():
    if "c4" not in _shared:
        _shared["c4"] = enumerate_cm_points(F3, 30)
    return _shared["c4"]


def _poly_gcd(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------


def test_criterion_01_class_group_against_point_counts():
    with _Criterion(1, budget_s=60) as c:
        fields = _c1_fields()
        for q, K in fields:
            h_forms = class_group(QuadOrder.make(K)).h
            h_zeta = class_number_zeta(K)
            assert h_forms == h_zeta, (q, K.m.text(), h_forms, h_zeta)
        c.note(f"{len(fields)} fields, forms h == L(1) exactly")


def test_criterion_02_conductor_formula_vs_enumeration():
    with _Criterion(2, budget_s=120) as c:
        pairs = _c2_pairs()
        assert len(pairs) >= 25
        seen = {1: 0, -1: 0, 0: 0}
        for K, f, h in pairs:
            assert (f * f * K.m).degree <= 8
            order = QuadOrder.make(K, f)
            assert len(enumerate_reduced_forms(order)) == h, (K.m.text(), f.text())
            for p, _ in factor_monic(f):
                seen[quadratic_character(K.m, p)] += 1
        assert all(seen[chi] >= 5 for chi in (1, -1, 0)), seen
        c.note(
            f"{len(pairs)} orders; conductor primes split/inert/ramified = "
            f"{seen[1]}/{seen[-1]}/{seen[0]}"
        )


def test_criterion_03_class_number_lower_bound():
    with _Criterion(3) as c:
        checked = 0
        for q, K in _c1_fields():
            if K.genus < 1:
                continue
            h = class_number_zeta(K)
            bound = hK_lower_bound(q, K.genus)
            assert Fraction(h) >= bound, (q, K.m.text(), h, bound)
            checked += 1
        assert checked > 0
        c.note(f"{checked} fields with g >= 1, exact rational comparison")


def test_criterion_04_catalogue_finiteness_and_total():
    with _Criterion(4, budget_s=60) as c:
        rows = _c4_rows()
        key = lambda r: (r.height, r.m.code, r.conductor.code, r.h)
        prev_total = -1
        for B in (1, 5, 12, 20, 30):
            sub = enumerate_cm_points(F3, B)
            assert [key(r) for r in sub] == [key(r) for r in rows[: len(sub)]]
            assert all(r.height < B for r in sub)
            total = catalogue_total(sub)
            assert total >= prev_total
            prev_total = total
        # independent recomputation of every row's class number
        zeta_memo = {}
        total = 0
        for r in rows:
            if r.m.code not in zeta_memo:
                K = analyze_quadratic(F3, r.m)
                zeta_memo[r.m.code] = (K, class_number_zeta(K))
            K, hK = zeta_memo[r.m.code]
            h = hK
            for p, e in factor_monic(r.conductor):
                h *= p.norm ** (e - 1) * (p.norm - quadratic_character(K.m, p))
            assert h == r.h
            total += h
        assert total == catalogue_total(rows)
        # spot-check the formula against raw form enumeration
        forms_checked = 0
        for r in rows[::97]:
            if r.m.degree % 2 == 1 and 2 * r.conductor.degree + r.m.degree <= 8:
                order = QuadOrder.make(zeta_memo[r.m.code][0], r.conductor)
                assert len(enumerate_reduced_forms(order)) == r.h
                forms_checked += 1
        assert forms_checked > 0
        c.note(f"{len(rows)} rows, total {total}; {forms_checked} form re-counts")


def test_criterion_05_galois_action_orbits():
    with _Criterion(5) as c:
        groups = orbits = 0
        for K, f, h in _c2_pairs():
            if h > 50:
                continue
            order = QuadOrder.make(K, f)
            cg = class_group(order)
            assert cg.h == h
            index = {reduce_form(form).key(): i for i, form in enumerate(cg.forms)}

            def idx(form):
                return index[reduce_form(form).key()]

            p = find_split_prime(order)
            pf = split_prime_form(order, p)
            pf_bar = split_prime_form(order, p, conjugate=True)
            # norm-correct: both prime forms have norm exactly p, and their
            # product is the principal class (p p-bar = (p))
            assert pf.a == p and pf_bar.a == p
            assert idx(compose(pf, pf_bar)) == idx(cg.forms[0])
            ord_p = cg.element_order(pf)
            assert ord_p == cg.element_order(pf_bar)  # inverse classes
            acting = None  # the one fixed norm-p class implementing the step
            for start in cg.forms:
                orbit, length = galois_orbit(CMPoint(order, start), p)
                assert length == ord_p  # free: no start closes early
                keys = {reduce_form(pt.cls).key() for pt in orbit}
                assert len(keys) == length
                cycle = orbit + [orbit[0]]
                for cur, nxt in zip(cycle, cycle[1:]):
                    if acting is None:
                        acting = next(
                            g
                            for g in (pf, pf_bar)
                            if idx(compose(cur.cls, g)) == idx(nxt.cls)
                        )
                    assert idx(compose(cur.cls, acting)) == idx(nxt.cls)
                orbits += 1
            groups += 1
        assert groups >= 10
        c.note(f"{groups} groups with h <= 50, {orbits} free orbits")


def test_criterion_06_tree_suite():
    with _Criterion(6, budget_s=30) as c:
        rng = random.Random(SEED)

        def random_vertex(tree, max_depth=12):
            depth = rng.randrange(max_depth + 1)
            if depth == 0:
                return ()
            word = [rng.randrange(tree.arity)]
            word += [rng.randrange(tree.arity - 1) for _ in range(depth - 1)]
            return tuple(word)

        for r in (3, 4, 10):
            tree = RegularTree(r)
            for _ in range(1000):
                v1, v2, v3 = (random_vertex(tree) for _ in range(3))
                _, n1, n2, n3 = tree.median(v1, v2, v3)
                assert n1 + n2 == tree.distance(v1, v2)
                assert n1 + n3 == tree.distance(v1, v3)
                assert n2 + n3 == tree.distance(v2, v3)

        def bfs_count(tree, n, k_avoid):
            if n == 0:
                return 1
            first = tree.neighbors(())[k_avoid:]
            paths = [((), v) for v in first]
            for _ in range(n - 1):
                paths = [
                    path + (w,)
                    for path in paths
                    for w in tree.neighbors(path[-1])
                    if w != path[-2]
                ]
            return len(paths)

        for r in range(3, 11):
            tree = RegularTree(r)
            for n in range(5):
                for k in range(3):
                    assert count_avoiding_geodesics(tree, n, k) == bfs_count(
                        tree, n, k
                    )

        for _ in range(100):
            F = fq_from_q(rng.choice((3, 5)))
            parts = rng.randrange(1, 4)
            N3 = Poly.constant(F, 1)
            for _ in range(parts):
                p = rng.choice(irreducibles(F, rng.randrange(1, 4)))
                N3 = N3 * p ** rng.randrange(1, 3)
            assert bigdegree_bound(N3, mode="norm") <= bigdegree_bound(
                N3, mode="norm_plus_one"
            )
        c.note("3000 medians, BFS geodesics r<=10 n<=4 k<=2, 100 degree bounds")


def test_criterion_07_hecke_cosets_and_psi():
    with _Criterion(7) as c:
        levels = 0
        for q in (3, 5):
            F = fq_from_q(q)
            for deg in range(4):
                for N in monic_polys(F, deg):
                    assert len(hecke_coset_reps(N)) == psi(N)
                    levels += 1
            small = [
                N for deg in (1, 2) for N in monic_polys(F, deg)
            ]
            coprime_pairs = 0
            for i, N1 in enumerate(small):
                for N2 in small[i:]:
                    if _poly_gcd(N1, N2).degree == 0:
                        assert psi(N1 * N2) == psi(N1) * psi(N2)
                        coprime_pairs += 1
            assert coprime_pairs > 40
        c.note(f"{levels} levels |reps| == psi; multiplicativity exact")


def test_criterion_08_cebotarev_window():
    with _Criterion(8, budget_s=120) as c:
        specs_checked = memberships = 0
        for q in (3, 5):
            F = fq_from_q(q)
            eps = Poly.constant(F, _nonsquare(F))
            rng = random.Random(SEED + q)
            primes = {t: irreducibles(F, t) for t in range(1, 7)}

            def squarefree_classes(degs, sample=None):
                # imaginary square classes: both scalings at odd degree,
                # the non-square scaling alone at even degree
                out = []
                for deg in degs:
                    for m0 in monic_polys(F, deg):
                        if not m0.is_squarefree():
                            continue
                        if deg % 2:
                            out.extend((m0, eps * m0))
                        else:
                            out.append(eps * m0)
                if sample is not None and len(out) > sample:
                    out = rng.sample(out, sample)
                return out

            masks = {}

            def mask_for(m):
                if m.code not in masks:
                    masks[m.code] = {
                        t: sum(
                            1 << i
                            for i, p in enumerate(primes[t])
                            if jacobi_symbol(m, p) == 1
                        )
                        for t in range(1, 7)
                    }
                return masks[m.code]

            def check_spec(radicands):
                nonlocal specs_checked, memberships
                spec = SplittingSpec.make(F, radicands)
                assert len(radicands) <= 2 and spec.genus_bound <= 5
                ms = [mask_for(m) for m in radicands]
                for t in range(1, 7):
                    if t % spec.n_c:
                        continue
                    bits = (1 << len(primes[t])) - 1
                    for mk in ms:
                        bits &= mk[t]
                    exact = bits.bit_count()
                    window = cebotarev_window(spec, t)
                    assert window.contains(exact), (
                        q,
                        [m.text() for m in radicands],
                        t,
                        exact,
                    )
                    memberships += 1
                specs_checked += 1
                return spec

            def random_deep_classes(degs, count):
                # draw by coefficient code: degree 8+ is too large to list
                out, seen = [], set()
                while len(out) < count:
                    deg = rng.choice(degs)
                    coeffs = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
                    m0 = Poly.make(F, coeffs)
                    if not m0.is_squarefree() or m0.code in seen:
                        continue
                    seen.add(m0.code)
                    if deg % 2 and rng.random() < 0.5:
                        out.append(m0)
                    else:
                        out.append(eps * m0)
                return out

            core = squarefree_classes((1, 2, 3))
            check_spec([])
            for m in core:
                check_spec([m])
            for i, m1 in enumerate(core):
                for m2 in core[i + 1 :]:
                    check_spec([m1, m2])
            # complete singles out to genus 3 over F_3, sampled elsewhere
            deep_degs = (4, 5, 6, 7) if q == 3 else (4, 5)
            deep = squarefree_classes(deep_degs, sample=None if q == 3 else 150)
            for m in deep:
                check_spec([m])
            for m in random_deep_classes((8, 9, 10, 11), 60):
                check_spec([m])  # single radicands up to the full g_M <= 5
            # sampled mixed-degree pairs at the g_M <= 5 boundary
            genus1 = squarefree_classes((3, 4), sample=12)
            genus2 = squarefree_classes((5, 6), sample=6)
            small = squarefree_classes((1, 2), sample=6)
            pairs = [(a, b) for a in genus1 for b in rng.sample(small, 3)]
            pairs += [(a, b) for a in genus2 for b in rng.sample(small, 2)]
            pairs += [
                (a, b) for a, b in zip(genus1[::2], genus1[1::2]) if a.code != b.code
            ]
            for m1, m2 in pairs:
                check_spec([m1, m2])
            # tie the bitmask counter back to the library's own counter
            for m in rng.sample(core, 10):
                spec = SplittingSpec.make(F, [m])
                t = spec.n_c * 2
                bits = mask_for(m)[t]
                assert bits.bit_count() == count_split_primes(spec, t)
        c.note(f"{specs_checked} specs, {memberships} strict window memberships")


def test_criterion_09_certifier_soundness():
    with _Criterion(9, budget_s=600) as c:
        emitted = []

        # (a) + desk-scale pipeline: a genuinely certified genus-7 point
        K7 = analyze_quadratic(F3, parse_poly(F3, "T^15+T^2+2"))
        order7 = QuadOrder.make(K7, parse_poly(F3, "T^2+T"))
        point7 = CMPoint(order7, principal_form(order7))
        cert7 = certify_point(point7)
        assert cert7.verdict == "certified"
        emitted.append(cert7)

        # (b) B* for d = 1, F_deg = 1, q = 3 on an explicit grid
        bound, audit = minimal_height_bound(1, 1, 3, grid=3**70)
        assert bound == 3**52
        rows = _c4_rows()
        above = [r for r in rows if r.height > bound]
        assert above == []  # the quantifier is vacuous at B = 30 scale...
        assert max(r.height for r in rows) <= 27 < bound
        # ...so exercise the pipeline's constructive content directly:
        hyp = CurveHypothesis.make(F3, 1, 1, 1, (point7,))
        prime, _ = find_admissible_prime(hyp)
        h7, _ = order_class_number(K7, order7.conductor)
        frag = check_improper(prime, hyp, [h7])
        assert frag.satisfied and h7 == 29808
        # and every catalogue point runs the same pipeline without error
        sampled = rows[:: len(rows) // 20]
        for r in sampled:
            p_row = point_from_row(r, F3)
            hyp_row = CurveHypothesis.make(F3, 1, 1, 1, (p_row,))
            prime_row, _ = find_admissible_prime(hyp_row)
            check_improper(prime_row, hyp_row, [r.h])

        # inconclusive certificates must re-audit too
        cert_small = certify_point(point_from_row(rows[0], F3))
        assert cert_small.verdict == "inconclusive"
        emitted.append(cert_small)

        # (c) ladder re-substitution into the growth inequality
        big = parse_poly(F3, "T") ** 300
        ladder, cert_ladder = step3_ladder(3, 3, 2, 1, [(0, big)] * 3)
        assert ladder == [16, 52] and cert_ladder.verdict == "certified"
        emitted.append(cert_ladder)
        n, degY = 3, 2
        for j in range(1, len(ladder)):
            rhs = degY ** (2**j)
            for mth, t_m in enumerate(ladder[: j + 1], start=1):
                if mth <= j:
                    rhs *= (2 * 3**t_m + 2) ** (n * 2 ** (j - mth))
            assert 3 ** ladder[j] >= rhs, (j, ladder)
            recorded = next(
                iq
                for iq in cert_ladder.inequalities
                if iq.name == f"ladder_growth_{j}"
            )
            assert recorded.lhs == 3 ** ladder[j] and recorded.rhs == rhs - 1

        for cert in emitted:
            obj = cert.json_obj()
            assert reaudit(obj)
            if cert.verdict == "certified":
                assert all(iq.holds for iq in cert.inequalities)
        c.note(
            f"B* = 3^52; catalogue max height 27 so the quantifier is vacuous; "
            f"pipeline run on {len(sampled) + 1} points, "
            f"{len(emitted)} certificates re-audited"
        )


def test_criterion_10_heegner_search_and_tower():
    with _Criterion(10, budget_s=60) as c:
        n = parse_poly(F3, "T^2+T")  # T(T+1)
        spec = HeegnerSearchSpec.make(F3, n, count=10)
        search = find_heegner_fields(spec)
        assert len(search.fields) == 10 and not search.exhausted
        level_primes = [p for p, _ in factor_monic(n)]
        assert len(level_primes) == 2
        for K in search.fields:
            analyze_quadratic(F3, K.m)  # re-validates imaginary + squarefree
            for p in level_primes:
                assert quadratic_character(K.m, p) == 1

        K0 = search.fields[0]
        p = as_prime(F3, parse_poly(F3, "T+2"))
        tower = order_tower(K0, p, n, 3)
        chi = quadratic_character(K0.m, p)
        hs = [lev.h for lev in tower]
        assert hs[1] == hs[0] * (3 - chi)
        for j in (1, 2):
            assert hs[j + 1] == hs[j] * 3  # p divides the conductor from level 1 on
        hK = class_number_zeta(K0)
        assert hs[0] == hK
        for j, lev in enumerate(tower):
            assert lev.order.conductor == p**j
            assert lev.ideal.a == n  # the norm-n ideal survives every level
        c.note(
            f"10 fields re-validated; tower h = {hs} with chi({p.text()}) = {chi}"
        )


def test_criterion_11_byte_identical_artifacts(tmp_path):
    with _Criterion(11) as c:
        outs = []
        for sub in ("run1", "run2"):
            out = tmp_path / sub
            subprocess.run(
                [sys.executable, str(REPO_ROOT / "scripts" / "build_artifacts.py"),
                 "--out", str(out)],
                check=True,
                capture_output=True,
                cwd=REPO_ROOT,
            )
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert len(names) >= 10
        schema = load_schema()
        for name in names:
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"artifact {name} differs between runs"
            validate(json.loads(b1), schema)
        c.note(f"{len(names)} artifacts byte-identical across two fresh runs")
