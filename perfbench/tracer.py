"""Per-layer tracing of cmtk from outside the package.

The tracer replaces, for the length of a traced pass, the functions each
cmtk module imports from a module below it (for example quadfield's
binding of ``kmul`` or cmcat's binding of ``sqrtmod``), plus a few
functions inside their own module whose internal callers matter
(``quadfield.class_number_zeta`` is reached from ``order_class_number``).
Nothing under ``src/`` changes; ``uninstall`` puts every original back.

Two kinds of wrapper:

* leaves: everything defined in ``ffpoly`` except ``irreducibles``, and
  ``jsonio``.  They call nothing traced, are called millions of times,
  and are kept as a call count and a summed time per function.
* spans: everything else.  Each call is recorded with its name, start,
  duration, self time, parent span and the index of the unit call (the
  run id) that caused it.

A span's self time is its duration minus the time of the spans and
leaves it called directly.  A traced pass samples the reference kernel
like an untraced one; ``pause`` takes each slice out of the spans and
the leaf it interrupted, so no layer is charged for it.

Every frame also counts the leaves and spans it called directly, and
``calibrate`` measures what one wrapped call costs inside the wrapper's
timed region and outside it.  ``summary`` takes these costs out of
every time it reports: a call's inside share from the callee, its
outside share from the caller, and both from every enclosing span.  The
corrected self times of all layers plus the benchmark's own loop then
add up to the traced wall time minus the estimated overhead, which the
caller can hold against an untraced pass.  Functions of ``treeiso`` are
not wrapped: no workload reaches them.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import time

_now = time.perf_counter_ns

LAYER_OF = {
    "cmtk.ffpoly": "ffpoly",
    "cmtk.quadfield": "quadfield",
    "cmtk.cmcat": "cmcat",
    "cmtk.splitcount": "splitcount",
    "cmtk.certify": "certify",
    "cmtk.heegner": "heegner",
    "cmtk.cli": "cli",
    "cmtk.jsonio": "cli",
}
LAYERS = ("ffpoly", "quadfield", "cmcat", "splitcount", "certify", "heegner", "cli")
IMPORTERS = ("quadfield", "cmcat", "splitcount", "certify", "heegner", "cli")
# functions wrapped in their defining module as well, so calls from
# inside that module (or through a function-local import) are seen
OWN = {
    "ffpoly": ("irreducibles",),
    "quadfield": (
        "class_group",
        "order_class_number",
        "class_number_zeta",
        "enumerate_reduced_forms",
        "sqrtmod",
        "compose_raw",
        "reduce_form",
    ),
    "cmcat": ("find_split_prime", "galois_orbit"),
    "splitcount": ("split_audit", "count_split_primes"),
    "certify": ("certify_point", "find_admissible_prime", "minimal_height_bound"),
    "heegner": ("find_heegner_fields",),
    "cli": ("main",),
}
SPAN_IN_FFPOLY = ("irreducibles",)
KERNELS = ("kmul", "kdivmod", "kmod", "kdiv_exact", "kgcd", "kxgcd", "kpow_mod")
CHARACTERS = ("quadratic_character", "jacobi_symbol")


class Tracer:
    """Installs the wrappers, collects spans and counts, and summarises them."""

    def __init__(self):
        # frame: name, layer, start, child ns, id, leaves called, spans called
        self.root = ["bench", "bench", 0, 0, 0, 0, 0]
        self.stack = [self.root]
        self.spans = []
        self.leaves = {}  # "layer.name" -> [calls, ns]
        self.run_id = -1
        self.counts = {
            "zeta_calls": 0,
            "zeta_keys": set(),
            "point_evals": 0,
            "sqrt_calls": 0,
            "sqrt_keys": set(),
            "irr_calls": 0,
            "irr_hits": 0,
            "irr_keys": set(),
            "forms_found": 0,
            "rows": 0,
            "orbit_steps": 0,
            "primes_tested": 0,
            "primes_split": 0,
            "primes_scanned": 0,
            "admissible_found": 0,
            "radicands_scanned": 0,
            "heegner_hits": 0,
            "bytes_out": 0,
            "zeta_by_call": {},  # run id -> [calls, set of radicands]
        }
        self._ids = itertools.count(1)
        self._saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        mods = {name: importlib.import_module(f"cmtk.{name}") for name in LAYER_OF_SHORT}
        for imp in IMPORTERS:
            mod = mods[imp]
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ in LAYER_OF
                    and fn.__module__ != mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    self._patch(mod, attr, fn, importer=imp)
        for modname, attrs in OWN.items():
            mod = mods[modname]
            for attr in attrs:
                self._patch(mod, attr, getattr(mod, attr), importer=modname)

    def pause(self, ns, frame):
        """Take ns of foreign work, done at the interrupted ``frame``, out of the trace.

        Called from a signal handler that ran the reference kernel
        (perfbench/reference.py).  Every open span starts ns later; if
        the handler interrupted a leaf, the leaf's time and its caller's
        child time are lowered by ns ahead of the leaf adding them.
        """
        for open_frame in self.stack:
            open_frame[2] += ns
        while frame is not None:
            if frame.f_code is _SPAN_CODE:
                return
            if frame.f_code is _LEAF_CODE:
                frame.f_locals["rec"][1] -= ns
                self.stack[-1][3] -= ns
                return
            frame = frame.f_back

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _patch(self, mod, attr, fn, importer):
        layer = LAYER_OF[fn.__module__]
        name = f"{layer}.{fn.__name__}"
        is_leaf = fn.__module__ == "cmtk.jsonio" or (
            layer == "ffpoly" and fn.__name__ not in SPAN_IN_FFPOLY
        )
        observe = _OBSERVERS.get((importer, fn.__name__)) or _OBSERVERS.get(fn.__name__)
        if is_leaf:
            wrapper = self._leaf(fn, name, observe)
        else:
            wrapper = self._span(fn, name, layer, observe)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, wrapper)

    def _leaf(self, fn, name, observe):
        rec = self.leaves.setdefault(name, [0, 0])
        stack = self.stack
        tracer = self

        def leaf(*args, **kwargs):
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                rec[0] += 1
                rec[1] += dt
                caller = stack[-1]
                caller[3] += dt
                caller[5] += 1
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        return leaf

    def _span(self, fn, name, layer, observe):
        stack, spans, ids = self.stack, self.spans, self._ids
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, layer, 0, 0, next(ids), 0, 0]
            stack.append(frame)
            frame[2] = start = _now()  # pause() may move frame[2] on
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = _now() - frame[2]
                stack.pop()
                parent[3] += dur
                parent[6] += 1
                spans.append(
                    (
                        frame[4], parent[4], tracer.run_id, name, layer,
                        start, dur, dur - frame[3], frame[5], frame[6],
                    )
                )
                if observe is not None:
                    observe(tracer, args, result, error)
            return result

        return span

    # -- summary -----------------------------------------------------------

    def _corrected(self, cost):
        """Per span (inclusive ns, self ns) with the calibrated wrapper cost taken out.

        Spans are recorded as they end, so a span's children come before
        it; ``inside`` carries the overhead of finished children up to
        their parent.
        """
        leaf = cost["leaf_in"] + cost["leaf_out"]
        span_in, span_out = cost["span_in"], cost["span_out"]
        inside, out = {}, []
        for sid, parent, _run, _name, _layer, _start, dur, self_ns, n_leaf, n_span in self.spans:
            total = span_in + n_leaf * leaf + inside.pop(sid, 0)
            inside[parent] = inside.get(parent, 0) + span_out + total
            out.append(
                (dur - total, self_ns - span_in - n_leaf * cost["leaf_out"] - n_span * span_out)
            )
        return out

    def estimated_overhead_ns(self, cost):
        leaf_calls = sum(calls for calls, _ns in self.leaves.values())
        return leaf_calls * (cost["leaf_in"] + cost["leaf_out"]) + len(self.spans) * (
            cost["span_in"] + cost["span_out"]
        )

    def summary(self, wall_ns, cost):
        """Per-layer metrics of a pass that took wall_ns: counts, and times net of cost."""
        c = self.counts
        spans = self.spans
        corrected = self._corrected(cost)
        by_name = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for s, (incl, self_ns) in zip(spans, corrected):
            rec = by_name.setdefault(s[3], [0, 0, 0])
            rec[0] += 1
            rec[1] += incl
            rec[2] += self_ns
            layer_self[s[4]] += self_ns
        # inclusive time of irreducibles counts only outermost calls
        irr_ids = {s[0] for s in spans if s[3] == "ffpoly.irreducibles"}
        irr_incl = sum(
            incl
            for s, (incl, _self) in zip(spans, corrected)
            if s[3] == "ffpoly.irreducibles" and s[1] not in irr_ids
        )
        leaf_ns = {k: ns - calls * cost["leaf_in"] for k, (calls, ns) in self.leaves.items()}
        for key, ns in leaf_ns.items():
            layer_self[key.split(".", 1)[0]] += ns
        root = self.root
        bench_self = wall_ns - root[3] - root[5] * cost["leaf_out"] - root[6] * cost["span_out"]

        def calls(*names):
            return sum(self.leaves.get(n, (0, 0))[0] for n in names)

        def leaf_s(*names):
            return sum(leaf_ns.get(n, 0) for n in names) / 1e9

        def span_calls(name):
            return by_name.get(name, (0, 0, 0))[0]

        def incl_s(name):
            return by_name.get(name, (0, 0, 0))[1] / 1e9

        def self_s(name):
            return by_name.get(name, (0, 0, 0))[2] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        kernels = tuple(f"ffpoly.{k}" for k in KERNELS)
        chars = tuple(f"ffpoly.{k}" for k in CHARACTERS)
        char_calls = calls(*chars)
        out = {
            "ffpoly.kernel_calls": (calls(*kernels), "count"),
            "ffpoly.kernel_self_s": (leaf_s(*kernels), "s"),
            "ffpoly.factor_calls": (calls("ffpoly.factor_monic"), "count"),
            "ffpoly.factor_s": (leaf_s("ffpoly.factor_monic"), "s"),
            "ffpoly.irreducibles_calls": (c["irr_calls"], "count"),
            "ffpoly.irreducibles_s": (irr_incl / 1e9, "s"),
            "ffpoly.irreducibles_cache_hit_ratio": (ratio(c["irr_hits"], c["irr_calls"]), "ratio"),
            "ffpoly.char_calls": (char_calls, "count"),
            "ffpoly.char_s": (leaf_s(*chars), "s"),
            "ffpoly.euler_char_share": (
                ratio(calls("ffpoly.quadratic_character"), char_calls),
                "ratio",
            ),
            "quadfield.zeta_calls": (c["zeta_calls"], "count"),
            "quadfield.zeta_distinct": (len(c["zeta_keys"]), "count"),
            "quadfield.zeta_useful_ratio": (ratio(len(c["zeta_keys"]), c["zeta_calls"]), "ratio"),
            "quadfield.point_count_s": (incl_s("quadfield.class_number_zeta"), "s"),
            "quadfield.point_evals": (c["point_evals"], "count"),
            "quadfield.sqrt_moduli": (len(c["sqrt_keys"]), "count"),
            "quadfield.sqrt_calls": (c["sqrt_calls"], "count"),
            "quadfield.sqrt_hit_ratio": (
                ratio(c["sqrt_calls"] - len(c["sqrt_keys"]), c["sqrt_calls"]),
                "ratio",
            ),
            "quadfield.sqrtmod_s": (incl_s("quadfield.sqrtmod"), "s"),
            "quadfield.enum_forms_s": (incl_s("quadfield.enumerate_reduced_forms"), "s"),
            "quadfield.forms_found": (c["forms_found"], "count"),
            "quadfield.compose_calls": (span_calls("quadfield.compose_raw"), "count"),
            "quadfield.compose_s": (incl_s("quadfield.compose_raw"), "s"),
            "quadfield.reduce_s": (incl_s("quadfield.reduce_form"), "s"),
            "cmcat.rows": (c["rows"], "count"),
            "cmcat.catalogue_self_s": (self_s("cmcat.enumerate_cm_points"), "s"),
            "cmcat.orbit_steps": (c["orbit_steps"], "count"),
            "cmcat.orbit_self_s": (self_s("cmcat.galois_orbit"), "s"),
            "cmcat.split_prime_s": (incl_s("cmcat.find_split_prime"), "s"),
            "splitcount.primes_tested": (c["primes_tested"], "count"),
            "splitcount.split_ratio": (ratio(c["primes_split"], c["primes_tested"]), "ratio"),
            "splitcount.count_s": (incl_s("splitcount.count_split_primes"), "s"),
            "certify.primes_scanned": (c["primes_scanned"], "count"),
            "certify.admissible_ratio": (
                ratio(c["admissible_found"], c["primes_scanned"]),
                "ratio",
            ),
            "certify.search_s": (incl_s("certify.find_admissible_prime"), "s"),
            "certify.solver_s": (incl_s("certify.minimal_height_bound"), "s"),
            "heegner.radicands_scanned": (c["radicands_scanned"], "count"),
            "heegner.hit_ratio": (ratio(c["heegner_hits"], c["radicands_scanned"]), "ratio"),
            "heegner.search_s": (incl_s("heegner.find_heegner_fields"), "s"),
            "jsonio.dump_s": (leaf_s("cli.canonical_dumps"), "s"),
            "jsonio.bytes_out": (c["bytes_out"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
        out["bench.self_s"] = (bench_self / 1e9, "s")
        return out

    def details(self, wall_ns, cost, scale):
        """What the metrics do not carry: per-unit-call zeta counts, call totals, costs.

        Times are multiplied by ``scale``, as the metrics are.
        """
        return {
            "wrapper_cost_ns": {k: v * scale for k, v in cost.items()},
            "estimated_overhead_s": self.estimated_overhead_ns(cost) * scale / 1e9,
            "uncorrected_self_s": {
                k: v * scale for k, v in self._uncorrected_self_s(wall_ns).items()
            },
            "zeta_by_call": {
                str(run): {"calls": calls, "distinct": len(keys)}
                for run, (calls, keys) in sorted(self.counts["zeta_by_call"].items())
            },
            "leaf_calls": sum(calls for calls, _ns in self.leaves.values()),
            "span_calls": len(self.spans),
            "leaves_uncorrected": {
                k: {"calls": c, "s": ns * scale / 1e9} for k, (c, ns) in sorted(self.leaves.items())
            },
        }

    def _uncorrected_self_s(self, wall_ns):
        layer_self = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            layer_self[s[4]] += s[7]
        for key, (_calls, ns) in self.leaves.items():
            layer_self[key.split(".", 1)[0]] += ns
        layer_self["bench"] = wall_ns - self.root[3]
        return {k: v / 1e9 for k, v in layer_self.items()}

    def write_spans(self, path):
        """Write every span as one JSON array per line, after a header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


SPAN_FIELDS = (
    "id", "parent", "run", "name", "layer", "start_ns", "dur_ns", "self_ns",
    "leaves_called", "spans_called",
)


def _inner_code(make):
    return next(c for c in make.__code__.co_consts if inspect.iscode(c))


_LEAF_CODE = _inner_code(Tracer._leaf)
_SPAN_CODE = _inner_code(Tracer._span)


def _probe(a, b, c):
    return a


def _probe_loop(fn, calls):
    t0 = _now()
    for _ in range(calls):
        fn(0, 1, 2)
    return (_now() - t0) / calls


def _kernel_loop(kmul, kadd, kmod, field, calls):
    """Per-call time of kernel calls shaped like one Horner step of point counting."""
    a, b, w, one = (1, 2, 1), (2, 0, 1), (1, 2, 0, 1), (1,)
    rounds = calls // 3
    t0 = _now()
    for _ in range(rounds):
        kmod(field, kadd(field, kmul(field, a, b), one), w)
    return (_now() - t0) / (3 * rounds)


def calibrate(calls=15_000, repeats=7):
    """Per-call cost, in ns, of a leaf and of a span wrapper.

    ``*_in`` is the part inside the wrapper's own timed region (it lands
    in the callee's recorded time), ``*_out`` the rest (it lands in the
    caller's).  Leaves are measured on cmtk's own kmul/kadd/kmod, the
    most-called leaves, over F_3, since a wrapper around an empty
    function costs less than one around a real kernel; spans on an empty
    function.  Each figure is the median over ``repeats`` rounds of
    ``calls`` calls against the same loop calling the functions bare.
    """
    from cmtk import ffpoly

    field = ffpoly.fq_from_q(3)
    kernels = (ffpoly.kmul, ffpoly.kadd, ffpoly.kmod)
    rounds = {"leaf_in": [], "leaf_out": [], "span_in": [], "span_out": []}
    for _ in range(repeats):
        probe = Tracer()
        bare = _kernel_loop(*kernels, field, calls)
        leaves = [probe._leaf(fn, f"probe.{fn.__name__}", None) for fn in kernels]
        total = _kernel_loop(*leaves, field, calls) - bare
        recorded = probe.root[3] / (calls // 3 * 3)  # what the wrappers timed, per call
        rounds["leaf_in"].append(max(recorded - bare, 0.0))
        rounds["leaf_out"].append(total - rounds["leaf_in"][-1])

        probe.root[3] = 0
        bare = _probe_loop(_probe, calls)
        total = _probe_loop(probe._span(_probe, "probe.span", "probe", None), calls) - bare
        inside = max(probe.root[3] / calls - bare, 0.0)
        rounds["span_in"].append(inside)
        rounds["span_out"].append(total - inside)
    return {k: statistics.median(v) for k, v in rounds.items()}


LAYER_OF_SHORT = tuple(k.split(".", 1)[1] for k in LAYER_OF)


# -- boundary observers: counts taken from call arguments and results ----


def _zeta(t, args, result, error):
    c, K = t.counts, args[0]
    q = K.field.q
    key = (q, K.m.coeffs)
    c["zeta_calls"] += 1
    c["zeta_keys"].add(key)
    c["point_evals"] += sum(q**i for i in range(1, K.genus + 1))
    per_call = c["zeta_by_call"].setdefault(t.run_id, [0, set()])
    per_call[0] += 1
    per_call[1].add(key)


def _sqrt(t, args, result, error):
    c = t.counts
    c["sqrt_calls"] += 1
    c["sqrt_keys"].add((args[0].q, tuple(args[2])))


def _irreducibles(t, args, result, error):
    c, key = t.counts, (args[0].q, args[1])
    c["irr_calls"] += 1
    if key in c["irr_keys"]:
        c["irr_hits"] += 1
    c["irr_keys"].add(key)


def _forms(t, args, result, error):
    if error is None:
        t.counts["forms_found"] += len(result)


def _rows(t, args, result, error):
    if error is None:
        t.counts["rows"] += len(result)


def _orbit(t, args, result, error):
    if error is None:
        t.counts["orbit_steps"] += result[1]


def _count_split(t, args, result, error):
    from cmtk.ffpoly import irreducible_count

    c, spec, degree = t.counts, args[0], args[1]
    c["primes_tested"] += irreducible_count(spec.field.q, degree)
    if error is None:
        c["primes_split"] += result


def _admissible(t, args, result, error):
    c = t.counts
    if error is None:
        trace = result[1]
        c["admissible_found"] += 1
        c["primes_scanned"] += 1
    else:
        trace = getattr(error, "info", {}).get("trace", [])
    c["primes_scanned"] += sum(sum(e.get("rejected", {}).values()) for e in trace)


def _heegner_candidate(t, args, result, error):
    t.counts["radicands_scanned"] += 1


def _heegner(t, args, result, error):
    if error is None:
        t.counts["heegner_hits"] += len(result.fields)


def _dump(t, args, result, error):
    t.counts["bytes_out"] += len(result)


_OBSERVERS = {
    "class_number_zeta": _zeta,
    "sqrtmod": _sqrt,
    "irreducibles": _irreducibles,
    "enumerate_reduced_forms": _forms,
    "enumerate_cm_points": _rows,
    "galois_orbit": _orbit,
    "count_split_primes": _count_split,
    "find_admissible_prime": _admissible,
    ("heegner", "analyze_quadratic"): _heegner_candidate,
    "find_heegner_fields": _heegner,
    "canonical_dumps": _dump,
}
