"""The four workloads: seeded inputs, the timed pass, and output oracles.

Every workload turns a seed into a list of input specs made only of
integers and polynomial texts (so a run can be replayed from its
report), builds cmtk objects from them during set-up, and then runs one
timed pass over them.  Output oracles run after the timed region.

* catalogue: ``cm-enumerate`` through the CLI handler at q = 3, B < 30
  and q = 9, B < 10.  Fixed by (q, bound); the seed does not alter it.
  Item: one catalogue row.  Unit call: one CLI invocation.
* forms: forms-path ``class_group`` on a seeded sample of small ramified
  orders over q = 3, 5, 9.  Item and unit call: one class group.
* orbits: a seeded draw of one large ramified order from a committed
  pool; it gets ``class_group``, ``find_split_prime`` and
  ``galois_orbit`` from every class.  Item: one orbit step.  Unit call:
  one cmtk call.  One order per pass keeps the tail percentile low
  enough (about the 95th) to repeat from run to run.
* splitting: ``split_audit`` on seeded single and paired radicands,
  ``certify_point`` on sampled catalogue points and the genus-7 demo
  point, ``find_heegner_fields`` in both modes and
  ``minimal_height_bound``.  Item and unit call: one audit, certificate
  or search.  Each audit's exact count is recounted by the benchmark's
  own root counter (perfbench/curvecount.py), then checked against its
  density window.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from cmtk import certify, cli, cmcat, ffpoly, heegner, quadfield, splitcount
from cmtk.errors import FieldRejected

from curvecount import CurveCounter, SplitCounter
from reference import Reference

HERE = Path(__file__).resolve().parent

# sha256 of the canonical CLI output, recorded at the seed commit
CATALOGUE_DIGESTS = {
    (3, 30): "7a3301e2d8b3daeff995e4526ef1f34bde0e5fb8ba1389a0494dafb6077720b0",
    (9, 10): "dea9f182462b41b146260a333e9d8b26ec77917a8bfcd243fd0af31bc689c97f",
    (3, 12): "58575024acef3d89050d2279d7b6ec0c4398d9ad554171f819c3f66984a86705",
}


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _field(q):
    return ffpoly.fq_from_q(q)


def _poly(q, text):
    return ffpoly.parse_poly(_field(q), text)


def _random_radicand(rng, F, degree):
    """A squarefree imaginary radicand of the given degree, as text.

    Odd degree: monic or the canonical non-square times monic; even
    degree: the non-square scaling (a square leading coefficient would
    make the field real).
    """
    c0 = F.canonical_nonsquare()
    while True:
        m = ffpoly.Poly.make(F, [rng.randrange(F.q) for _ in range(degree)] + [1])
        if m.is_squarefree():
            break
    scale = c0 if degree % 2 == 0 else rng.choice((1, c0))
    return (m * scale).text()


def _random_monic(rng, F, degree):
    return ffpoly.Poly.make(F, [rng.randrange(F.q) for _ in range(degree)] + [1]).text()


class Outcome:
    """What one timed pass produced: unit-call times, results and reference slices."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.reference = Reference(clock)
        self.calls = []  # (start, end, reference time inside) per unit call
        self.results = []  # (spec index, value or exception)

    def timed(self, index, fn, *args):
        if self.tracer is not None:
            self.tracer.run_id = len(self.calls)  # spans carry their unit call
        inside = self.reference.inside_ns
        t0 = self.clock()
        try:
            value = fn(*args)
        except Exception as exc:  # a raising unit call is a failed call
            value = exc
        t1 = self.clock()
        self.calls.append((t0, t1, self.reference.inside_ns - inside))
        self.results.append((index, value))
        return value


# ---------------------------------------------------------------------------
# catalogue


class Catalogue:
    name = "catalogue"
    digests = CATALOGUE_DIGESTS

    def inputs(self, seed, size):
        if size == "tiny":
            return [{"q": 3, "bound": 12}, {"q": 9, "bound": 2}]
        return [{"q": 3, "bound": 30}, {"q": 9, "bound": 10}]

    def prepare(self, spec):
        return ["cm-enumerate", "--q", str(spec["q"]), "--bound", str(spec["bound"])]

    def run(self, specs, prepared, outcome):
        for i, argv in enumerate(prepared):
            outcome.timed(i, _cli_text, argv)

    def check(self, specs, prepared, outcome):
        failures, items, counts = [], 0, {"rows": 0, "radicands": 0, "total_h": 0}
        for index, value in outcome.results:
            spec = specs[index]
            where = f"cm-enumerate q={spec['q']} bound={spec['bound']}"
            if isinstance(value, Exception):
                failures.append(f"{where}: raised {value!r}")
                continue
            code, text = value
            if code != 0:
                failures.append(f"{where}: exit code {code}")
                continue
            rows = json.loads(text)["result"]["rows"]
            items += len(rows)
            problems = []
            expected = self.digests.get((spec["q"], spec["bound"]))
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            if expected is not None and digest != expected:
                problems.append(f"digest {digest} != {expected}")
            problem, radicands, total = _rederive_catalogue(spec["q"], text)
            if problem:
                problems.append(problem)
            if problems:
                failures.append(f"{where}: " + "; ".join(problems))
            counts["rows"] += len(rows)
            counts["radicands"] += radicands
            counts["total_h"] += total
        return failures, items, counts


def _cli_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rederive_catalogue(q, text):
    """Re-derive every row's h and the total from an independent h_K.

    h_K comes from the benchmark's own point counter, memoised per
    radicand; the conductor formula h = h_K prod |p|^(e-1) (|p| - chi(p))
    supplies the rest, as in acceptance criterion 04.
    """
    F = _field(q)
    counter = CurveCounter(F.p, F.e, F.modulus)
    result = json.loads(text)["result"]
    memo = {}
    total = 0
    for row in result["rows"]:
        m = ffpoly.parse_poly(F, row["m"])
        if m.coeffs not in memo:
            memo[m.coeffs] = counter.class_number(m.coeffs)
        h = memo[m.coeffs]
        for p, e in ffpoly.factor_monic(ffpoly.parse_poly(F, row["f"])):
            h *= p.norm ** (e - 1) * (p.norm - ffpoly.quadratic_character(m, p))
        if str(h) != row["h"]:
            return f"row {row['id']}: h {row['h']} != re-derived {h}", len(memo), total
        total += h
    if str(total) != result["total"]:
        return f"total {result['total']} != re-derived {total}", len(memo), total
    return None, len(memo), total


# ---------------------------------------------------------------------------
# forms

# (deg m, deg f) strata per q; deg D = deg m + 2 deg f stays at most 7
FORMS_STRATA = {
    3: ((1, 0), (3, 0), (5, 0), (1, 1), (3, 1), (5, 1), (1, 2), (3, 2), (1, 3)),
    5: ((1, 0), (3, 0), (5, 0), (1, 1), (3, 1), (1, 2)),
    9: ((1, 0), (3, 0), (5, 0), (1, 1), (3, 1), (1, 2)),
}
FORMS_PER_STRATUM = {"full": 40, "tiny": 2}


class Forms:
    name = "forms"

    def inputs(self, seed, size):
        rng = _rng(self.name, seed)
        per = FORMS_PER_STRATUM[size]
        specs = []
        for q, strata in FORMS_STRATA.items():
            F = _field(q)
            for dm, df in strata:
                seen = set()
                for _ in range(20 * per):  # small strata hold fewer distinct orders
                    if len(seen) == per:
                        break
                    key = (_random_radicand(rng, F, dm), _random_monic(rng, F, df))
                    if key not in seen:
                        seen.add(key)
                        specs.append({"q": q, "m": key[0], "f": key[1]})
        return specs

    def prepare(self, spec):
        q = spec["q"]
        K = quadfield.analyze_quadratic(_field(q), _poly(q, spec["m"]))
        return quadfield.QuadOrder.make(K, _poly(q, spec["f"]))

    def run(self, specs, prepared, outcome):
        for i, order in enumerate(prepared):
            outcome.timed(i, quadfield.class_group, order)

    def check(self, specs, prepared, outcome):
        failures, forms = [], 0
        for index, value in outcome.results:
            spec, order = specs[index], prepared[index]
            where = f"class_group q={spec['q']} m={spec['m']} f={spec['f']}"
            if isinstance(value, Exception):
                failures.append(f"{where}: raised {value!r}")
                continue
            h_formula, _ = quadfield.order_class_number(order.K, order.conductor)
            if value.path != "forms" or value.h != len(value.forms):
                failures.append(f"{where}: not a forms-path group")
            elif value.h != h_formula:
                failures.append(f"{where}: forms h {value.h} != conductor formula {h_formula}")
            forms += len(value.forms)
        return failures, len(outcome.results), {"class_groups": len(outcome.results), "forms": forms}


# ---------------------------------------------------------------------------
# orbits

ORBIT_POOL = HERE / "orbit_pool.json"
ORBITS_PER_PASS = {"full": 1, "tiny": 1}
TINY_ORBIT_POOL = [{"q": 3, "m": "T^3+2*T+1", "f": "T"}]


class Orbits:
    name = "orbits"

    def inputs(self, seed, size):
        if size == "tiny":
            pool = TINY_ORBIT_POOL
        else:
            pool = json.loads(ORBIT_POOL.read_text())["orders"]
        picked = _rng(self.name, seed).sample(pool, ORBITS_PER_PASS[size])
        return [{"q": o["q"], "m": o["m"], "f": o["f"]} for o in picked]

    prepare = Forms.prepare

    def run(self, specs, prepared, outcome):
        for i, order in enumerate(prepared):
            group = outcome.timed(i, quadfield.class_group, order)
            if isinstance(group, Exception):
                continue
            prime = outcome.timed(i, cmcat.find_split_prime, order)
            if isinstance(prime, Exception):
                continue
            for form in group.forms:
                point = cmcat.CMPoint(order, form)
                outcome.timed(i, cmcat.galois_orbit, point, prime.poly)

    def check(self, specs, prepared, outcome):
        failures, steps, orbits = [], 0, 0
        group = prime = None
        expected_len = None
        for index, value in outcome.results:
            spec, order = specs[index], prepared[index]
            where = f"orbits q={spec['q']} m={spec['m']} f={spec['f']}"
            if isinstance(value, Exception):
                failures.append(f"{where}: raised {value!r}")
                continue
            if isinstance(value, quadfield.ClassGroup):
                group, prime, expected_len = value, None, None
                h_formula, _ = quadfield.order_class_number(order.K, order.conductor)
                if value.h != h_formula:
                    failures.append(f"{where}: forms h {value.h} != conductor formula {h_formula}")
                continue
            if isinstance(value, ffpoly.PrimePoly):
                prime = value
                form = cmcat.split_prime_form(order, prime.poly)
                expected_len = group.element_order(form)
                continue
            orbit, length = value
            keys = {quadfield.reduce_form(pt.cls).key() for pt in orbit}
            if length != expected_len or len(orbit) != length or len(keys) != length:
                failures.append(
                    f"{where}: orbit of length {length} with {len(keys)} distinct classes, "
                    f"element order of the prime form {expected_len}"
                )
            steps += length
            orbits += 1
        return failures, steps, {"orbit_steps": steps, "orbits": orbits}


# ---------------------------------------------------------------------------
# splitting

SPLIT_DEGREES = {"full": {3: range(1, 9), 5: range(1, 7)}, "tiny": {3: range(1, 5), 5: range(1, 5)}}
# radicand degrees per audit at each (q, t): the seed draws coefficients only,
# so every seed gets audits of the same shapes and about the same cost
SPLIT_SLOTS = {
    "full": ((1,), (3,), (5,), (1, 3), (2, 4), (1, 5)),
    "tiny": ((1,), (1, 3)),
}
# (genus, conductor degree) of the sampled catalogue points, height 3^(g + deg f) < 30
CERT_SHAPES = {
    "full": tuple((g, df) for g in range(4) for df in range(4 - g)),
    "tiny": ((0, 1), (1, 0)),
}
HEEGNER_LEVEL_DEGREES = {"full": (1, 2), "tiny": (1,)}
DEMO_POINT = {"q": 3, "m": "T^15+T^2+2", "f": "T^2+T"}
DEMO_CLASS_NUMBER = "29808"
BSTAR = {"q": 3, "d": 1, "F_deg": 1, "grid": str(3**70)}
BSTAR_ANCHOR = 3**52  # acceptance criterion 09
_SPLIT_COUNTERS = {}  # p -> SplitCounter, whose field tables serve every audit


class Splitting:
    name = "splitting"

    def inputs(self, seed, size):
        rng = _rng(self.name, seed)
        specs = []
        for q, degrees in SPLIT_DEGREES[size].items():
            F = _field(q)
            for t in degrees:
                for slot in SPLIT_SLOTS[size]:
                    rads = [_random_radicand(rng, F, d) for d in slot]
                    specs.append({"kind": "split", "q": q, "t": t, "radicands": rads})
        F3 = _field(3)
        for g, deg_f in CERT_SHAPES[size]:
            for degree in (2 * g + 1, 2 * g + 2):  # ramified and inert
                specs.append(
                    {
                        "kind": "certify",
                        "q": 3,
                        "m": _random_radicand(rng, F3, degree),
                        "f": _random_monic(rng, F3, deg_f),
                    }
                )
        if size == "full":
            specs.append({"kind": "certify", **DEMO_POINT})
        for degree in HEEGNER_LEVEL_DEGREES[size]:
            level = _random_monic(rng, F3, degree)
            for mode in ("direct", "lemma"):
                specs.append({"kind": "heegner", "q": 3, "level": level, "mode": mode})
        specs.append({"kind": "bstar", **BSTAR})
        return specs

    def prepare(self, spec):
        kind, q = spec["kind"], spec["q"]
        F = _field(q)
        if kind == "split":
            return splitcount.SplittingSpec.make(F, spec["radicands"])
        if kind == "certify":
            K = quadfield.analyze_quadratic(F, _poly(q, spec["m"]))
            order = quadfield.QuadOrder.make(K, _poly(q, spec["f"]))
            return cmcat.CMPoint(order, quadfield.principal_form(order))
        if kind == "heegner":
            return heegner.HeegnerSearchSpec.make(F, spec["level"], count=10)
        return (spec["d"], spec["F_deg"], q, int(spec["grid"]))

    def run(self, specs, prepared, outcome):
        for i, (spec, obj) in enumerate(zip(specs, prepared)):
            kind = spec["kind"]
            if kind == "split":
                outcome.timed(i, splitcount.split_audit, obj, spec["t"])
            elif kind == "certify":
                outcome.timed(i, certify.certify_point, obj)
            elif kind == "heegner":
                outcome.timed(i, heegner.find_heegner_fields, obj, spec["mode"])
            else:
                outcome.timed(i, certify.minimal_height_bound, *obj)

    def check(self, specs, prepared, outcome):
        failures = []
        counts = {"audits": 0, "split_primes": 0, "certificates": 0, "heegner_fields": 0}
        for index, value in outcome.results:
            spec, obj = specs[index], prepared[index]
            where = json.dumps(spec, sort_keys=True)
            if isinstance(value, Exception):
                failures.append(f"{where}: raised {value!r}")
                continue
            problem = getattr(self, f"_check_{spec['kind']}")(spec, obj, value, counts)
            if problem:
                failures.append(f"{where}: {problem}")
        return failures, len(outcome.results), counts

    @staticmethod
    def _check_split(spec, obj, audit, counts):
        counts["audits"] += 1
        counts["split_primes"] += audit["exact"]
        F = obj.field
        if F.e != 1:
            raise ValueError("the split-count oracle works over prime fields only")
        counter = _SPLIT_COUNTERS.setdefault(F.p, SplitCounter(F.p))
        expected = counter.count([m.coeffs for m in obj.radicands], spec["t"])
        if audit["exact"] != expected:
            return f"count {audit['exact']} != {expected} counted by roots in F_(q^t)"
        if audit["inside_window"] is None:
            # n_c = 2 and t odd: a constant extension admits no split prime
            return None if audit["exact"] == 0 else f"count {audit['exact']} where 0 is forced"
        if audit["inside_window"] is not True:
            return f"count {audit['exact']} outside its density window"
        return None

    @staticmethod
    def _check_certify(spec, point, cert, counts):
        counts["certificates"] += 1
        obj = cert.json_obj()
        if not certify.reaudit(obj):
            return "certificate failed its re-audit"
        if spec["m"] == DEMO_POINT["m"] and (
            cert.verdict != "certified"
            or obj["constants"]["class_number"] != DEMO_CLASS_NUMBER
        ):
            return f"demo point: verdict {cert.verdict}, h {obj['constants'].get('class_number')}"
        return None

    @staticmethod
    def _check_heegner(spec, search_spec, search, counts):
        F = search_spec.field
        counts["heegner_fields"] += len(search.fields)
        codes = [K.m.code for K in search.fields]
        if codes != sorted(set(codes)):
            return "fields not distinct and in canonical order"
        one = ffpoly.Poly.constant(F, 1) % search_spec.n
        for K in search.fields:
            try:
                quadfield.analyze_quadratic(F, K.m)
            except FieldRejected as exc:
                return f"field {K.m.text()} rejected on re-validation: {exc}"
            for p in search_spec.level_primes():
                if ffpoly.jacobi_symbol(K.m, p) != 1:
                    return f"level prime {p.text()} does not split in k(sqrt {K.m.text()})"
            if spec["mode"] == "lemma" and K.m % search_spec.n != one:
                return f"lemma-mode radicand {K.m.text()} is not 1 mod the level"
        return None

    @staticmethod
    def _check_bstar(spec, args, value, counts):
        bound, audit = value
        if bound != spec["q"] ** audit["boundary_level"]:
            return f"bound {bound} is not q^boundary_level"
        if bound != BSTAR_ANCHOR:
            return f"B* = {bound}, anchor {BSTAR_ANCHOR}"
        return None


WORKLOADS = {w.name: w for w in (Catalogue(), Forms(), Orbits(), Splitting())}
