"""Command-line front end: one subcommand per capability, canonical JSON out.

Exit codes: 0 success, 1 usage errors (unknown flags or subcommands),
2 domain errors (typed message on stderr), 3 exhausted budgets.  All
output is the versioned envelope from jsonio, so identical invocations
are byte-identical; --format table renders the same result as text.

A --config FILE holds key=value lines mirroring value-taking long flags
(e.g. "q = 5"); entries are expanded right after the subcommand, so
explicit flags on the command line override the file.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DEFAULT_ENUM_BUDGET, BudgetError, CmtkError, DomainError
from .ffpoly import as_prime, factor_any, fq_from_q, parse_poly
from .quadfield import QuadOrder, analyze_quadratic, class_group, order_class_number
from .cmcat import (
    catalogue_json,
    catalogue_total,
    enumerate_cm_points,
    galois_orbit,
    point_from_row,
    CMPoint,
)
from .quadfield import FormClass, principal_form
from .treeiso import (
    BIGDEGREE_MODES,
    RegularTree,
    bigdegree_bound,
    count_avoiding_geodesics,
    covering_group_orders,
    degree_bounds,
    hecke_coset_reps,
    psi,
)
from .splitcount import SplittingSpec, split_audit
from .certify import (
    DEFAULT_HEIGHT_GRID,
    DEFAULT_PRIME_DEGREE_BUDGET,
    DEFAULT_T_BUDGET,
    certify_point,
    minimal_height_bound,
)
from .heegner import HeegnerSearchSpec, find_heegner_fields, order_tower
from .jsonio import canonical_dumps, envelope, render_table


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _split_csv(text):
    return [part.strip() for part in text.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-ready result object)


def _cmd_factor(ns, field):
    f = parse_poly(field, ns.poly)
    unit, factors = factor_any(f)
    return {
        "input": f.text(),
        "unit": unit,
        "factors": [
            {"prime": p.text(), "multiplicity": mult, "witness": p.witness}
            for p, mult in factors
        ],
    }


def _cmd_classgroup(ns, field):
    K = analyze_quadratic(field, parse_poly(field, ns.m))
    conductor = parse_poly(field, ns.f)
    h, audit = order_class_number(K, conductor, ns.enum_budget)
    result = {
        "q": ns.q,
        "m": K.m.text(),
        "f": conductor.text(),
        "genus": K.genus,
        "infinity_type": K.infinity_type,
        "h": str(h),
        "path": "conductor-formula",
        "audit": audit,
    }
    if ns.with_reps:
        cg = class_group(QuadOrder.make(K, conductor), ns.enum_budget)
        result["path"] = cg.path
        obj = cg.json_obj()
        if "representatives" in obj:
            result["representatives"] = obj["representatives"]
    return result


def _cmd_cm_enumerate(ns, field):
    rows = enumerate_cm_points(field, ns.bound, ns.enum_budget)
    return {
        "q": ns.q,
        "bound": ns.bound,
        "total": str(catalogue_total(rows)),
        "rows": catalogue_json(rows),
    }


def _cmd_cm_orbit(ns, field):
    K = analyze_quadratic(field, parse_poly(field, ns.m))
    order = QuadOrder.make(K, parse_poly(field, ns.f))
    if (ns.a is None) != (ns.b is None):
        raise DomainError("--a and --b must be given together")
    if ns.a is None:
        start = principal_form(order)
    else:
        start = FormClass(order, parse_poly(field, ns.a), parse_poly(field, ns.b))
        if not start.is_invertible:
            raise DomainError("the start form is not invertible: gcd(a, b, c) != 1")
    prime = as_prime(field, ns.prime)
    point = CMPoint(order, start)
    orbit, length = galois_orbit(
        point, prime, conjugate=ns.conjugate, budget=ns.enum_budget
    )
    return {
        "q": ns.q,
        "m": K.m.text(),
        "f": order.conductor.text(),
        "prime": prime.text(),
        "conjugate": ns.conjugate,
        "start": start.json_obj(),
        "length": length,
        "orbit": [pt.cls.json_obj() for pt in orbit],
    }


def _cmd_tree(ns, field):
    if ns.op == "bigdegree":
        if ns.poly is None:
            raise DomainError("bigdegree needs --poly")
        value = bigdegree_bound(parse_poly(field, ns.poly), mode=ns.mode)
        return {"op": "bigdegree", "mode": ns.mode, "value": str(value)}
    tree = RegularTree(ns.arity)
    vertices = _split_csv(ns.vertices or "")
    if ns.op == "distance":
        if len(vertices) != 2:
            raise DomainError("distance needs --vertices with two addresses")
        v, w = (tree.parse(x) for x in vertices)
        return {
            "op": "distance",
            "arity": ns.arity,
            "value": tree.distance(v, w),
        }
    if ns.op == "median":
        if len(vertices) != 3:
            raise DomainError("median needs --vertices with three addresses")
        v1, v2, v3 = (tree.parse(x) for x in vertices)
        center, n1, n2, n3 = tree.median(v1, v2, v3)
        return {
            "op": "median",
            "arity": ns.arity,
            "center": tree.format(center),
            "legs": [n1, n2, n3],
        }
    if ns.op == "geodesics":
        count = count_avoiding_geodesics(tree, ns.n, ns.k_avoid)
        return {
            "op": "geodesics",
            "arity": ns.arity,
            "n": ns.n,
            "k_avoid": ns.k_avoid,
            "count": str(count),
        }
    raise DomainError(f"unknown tree op {ns.op!r}")


def _cmd_hecke(ns, field):
    N = parse_poly(field, ns.level)
    reps = hecke_coset_reps(N)
    result = {
        "q": ns.q,
        "level": N.text(),
        "psi": str(psi(N)),
        "reps": [r.json_obj() for r in reps],
    }
    for flag, value in (("--deg-y2", ns.deg_y2), ("--n-power", ns.n_power)):
        if value is not None and ns.deg_y is None:
            raise DomainError(f"{flag} needs --deg-y")
    if ns.deg_y is not None:
        n = 2 if ns.n_power is None else ns.n_power
        bounds = degree_bounds(n, N, ns.deg_y, ns.deg_y2)
        result["degree_bounds"] = {k: str(v) for k, v in bounds.items()}
    if ns.covering:
        orders = covering_group_orders(N, budget=ns.enum_budget)
        result["covering"] = {k: str(v) for k, v in orders.items()}
    return result


def _cmd_split_count(ns, field):
    spec = SplittingSpec.make(field, _split_csv(ns.radicands))
    return split_audit(spec, ns.t, ns.enum_budget)


def _cmd_certify(ns, field):
    rows = enumerate_cm_points(field, ns.bound, ns.enum_budget)
    if not 0 <= ns.point < len(rows):
        raise DomainError(
            f"catalogue id {ns.point} out of range (bound {ns.bound} has "
            f"{len(rows)} rows)"
        )
    point = point_from_row(rows[ns.point], field)
    cert = certify_point(
        point,
        d=ns.d,
        F_deg=ns.F_deg,
        max_degree=ns.prime_degree_budget,
        budget=ns.enum_budget,
    )
    result = cert.json_obj()
    result["catalogue_id"] = ns.point
    result["point"] = point.json_obj()
    return result


def _cmd_minimal_B(ns, field):
    bound, audit = minimal_height_bound(
        ns.d, ns.F_deg, ns.q, grid=ns.grid, t_budget=ns.t_budget
    )
    return {"q": ns.q, "d": ns.d, "F_deg": ns.F_deg, "B": str(bound), "audit": audit}


def _cmd_heegner(ns, field):
    spec = HeegnerSearchSpec.make(
        field,
        ns.level,
        p=ns.prime,
        max_degree=ns.max_degree,
        count=ns.count,
    )
    search = find_heegner_fields(spec, mode=ns.mode, budget=ns.enum_budget)
    result = search.json_obj(spec)
    if ns.levels is not None:
        if spec.p is None:
            raise DomainError("a tower needs --prime")
        if not search.fields:
            raise DomainError("no field found to build the tower on")
        tower = order_tower(
            search.fields[0], spec.p, spec.n, ns.levels, ns.enum_budget
        )
        result["tower"] = [lev.json_obj() for lev in tower]
    return result


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser():
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--q", type=int, default=3)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--config", default=None, help="key=value flag file")
    # the work budget, on the subcommands that pass it on
    enum = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    enum.add_argument("--enum-budget", type=int, default=DEFAULT_ENUM_BUDGET)

    parser = _Parser(prog="cmtk", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def sub(name, handler, *parents):
        p = subs.add_parser(name, parents=[common, *parents], allow_abbrev=False)
        p.set_defaults(func=handler)
        return p

    p = sub("factor", _cmd_factor)
    p.add_argument("--poly", required=True)

    p = sub("classgroup", _cmd_classgroup, enum)
    p.add_argument("--m", required=True)
    p.add_argument("--f", default="1")
    p.add_argument("--with-reps", action="store_true")

    p = sub("cm-enumerate", _cmd_cm_enumerate, enum)
    p.add_argument("--bound", type=int, required=True)

    p = sub("cm-orbit", _cmd_cm_orbit, enum)
    p.add_argument("--m", required=True)
    p.add_argument("--f", default="1")
    p.add_argument("--prime", required=True)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--conjugate", action="store_true")

    p = sub("tree", _cmd_tree)
    p.add_argument(
        "--op",
        required=True,
        choices=("distance", "median", "geodesics", "bigdegree"),
    )
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--vertices", default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k-avoid", type=int, default=0)
    p.add_argument("--poly", default=None)
    p.add_argument("--mode", choices=BIGDEGREE_MODES, default=BIGDEGREE_MODES[0])

    p = sub("hecke", _cmd_hecke, enum)
    p.add_argument("--level", required=True)
    p.add_argument("--deg-y", type=int, default=None)
    p.add_argument("--deg-y2", type=int, default=None)
    p.add_argument("--n-power", type=int, default=None)
    p.add_argument("--covering", action="store_true")

    p = sub("split-count", _cmd_split_count, enum)
    p.add_argument("--radicands", default="")
    p.add_argument("--t", type=int, required=True)

    p = sub("certify", _cmd_certify, enum)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--f-deg", dest="F_deg", type=int, default=1)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--point", type=int, required=True)
    p.add_argument(
        "--prime-degree-budget", type=int, default=DEFAULT_PRIME_DEGREE_BUDGET
    )

    p = sub("minimal-B", _cmd_minimal_B)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--f-deg", dest="F_deg", type=int, default=1)
    p.add_argument("--t-budget", type=int, default=DEFAULT_T_BUDGET)
    p.add_argument("--grid", type=int, default=DEFAULT_HEIGHT_GRID)

    p = sub("heegner", _cmd_heegner, enum)
    p.add_argument("--level", required=True)
    p.add_argument("--prime", default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--mode", choices=("direct", "lemma"), default="direct")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--count", type=int, default=10)

    return parser


def _apply_config(argv):
    """Expand --config FILE into flags placed just after the subcommand."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        sys.stderr.write("cmtk: error: --config needs a file path\n")
        raise SystemExit(1)
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    flags = []
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    sys.stderr.write(
                        f"cmtk: error: bad config line {raw.strip()!r}\n"
                    )
                    raise SystemExit(1)
                flags.extend([f"--{key.strip()}", value.strip()])
    except OSError as err:
        sys.stderr.write(f"cmtk: error: cannot read config: {err}\n")
        raise SystemExit(1)
    return rest[:1] + flags + rest[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if ns.q < 3 or ns.q % 2 == 0:
            raise DomainError("q must be an odd prime power >= 3")
        # each budget flag sits only on the subcommands that read it
        budgets = ("enum_budget", "prime_degree_budget", "grid", "t_budget")
        if any(vars(ns).get(b, 1) < 1 for b in budgets):
            raise DomainError("budgets must be positive")
        field = fq_from_q(ns.q)
        result = ns.func(ns, field)
    except BudgetError as err:
        sys.stderr.write(f"cmtk: budget exhausted: {err}\n")
        return 3
    except CmtkError as err:
        sys.stderr.write(f"cmtk: {type(err).__name__}: {err}\n")
        return 2
    if ns.format == "table":
        sys.stdout.write(render_table(result) + "\n")
    else:
        sys.stdout.write(canonical_dumps(envelope(ns.command, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
