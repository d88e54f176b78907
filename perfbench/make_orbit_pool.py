#!/usr/bin/env python3
"""Build perfbench/orbit_pool.json, the order pool of the orbits workload.

    PYTHONPATH=src python3 perfbench/make_orbit_pool.py

Scans ramified orders over F_3 with g_D = 5 (deg m + 2 deg f = 11) in
a fixed pseudo-random order and keeps those whose code-smallest split
prime has degree 2 and order ORD in a class group with H_MIN <= h <=
H_MAX.  Alike orders (same g_D, same prime degree, the same orbit
length) make one ``galois_orbit`` call
cost about the same on every order a seed draws, and a narrow band of
h keeps the share of the pass spent in ``class_group`` alike, so the
run-to-run spread of the orbits workload comes from the code and not
from the draw.  The scan is deterministic; rerunning it reproduces the file.
"""

import json
import random
import sys
from pathlib import Path

from cmtk import cmcat, ffpoly, quadfield

HERE = Path(__file__).resolve().parent
POOL_SIZE = 10
ORD = 20
H_MIN, H_MAX = 200, 250
PRIME_DEGREE = 2
SHAPES = ((11, 0), (9, 1), (7, 2), (5, 3))


def main():
    F = ffpoly.fq_from_q(3)
    c0 = F.canonical_nonsquare()
    rng = random.Random("orbit-pool")
    pool, seen, tried = [], set(), 0
    while len(pool) < POOL_SIZE:
        dm, df = rng.choice(SHAPES)
        m = ffpoly.Poly.make(F, [rng.randrange(3) for _ in range(dm)] + [1])
        if not m.is_squarefree():
            continue
        m = m * rng.choice((1, c0))
        f = ffpoly.Poly.make(F, [rng.randrange(3) for _ in range(df)] + [1])
        if (m.text(), f.text()) in seen:
            continue
        seen.add((m.text(), f.text()))
        tried += 1
        order = quadfield.QuadOrder.make(quadfield.analyze_quadratic(F, m), f)
        prime = cmcat.find_split_prime(order)
        if prime.degree != PRIME_DEGREE:
            continue
        group = quadfield.class_group(order)
        if not H_MIN <= group.h <= H_MAX:
            continue
        ord_p = group.element_order(cmcat.split_prime_form(order, prime.poly))
        if ord_p != ORD:
            continue
        pool.append(
            {
                "q": 3,
                "m": m.text(),
                "f": f.text(),
                "g_D": order.genus_parameter,
                "h": group.h,
                "prime": prime.poly.text(),
                "ord": ord_p,
            }
        )
        print(f"{len(pool):2d}/{POOL_SIZE} after {tried} orders: {pool[-1]}", file=sys.stderr)
    doc = {
        "about": "orders for the orbits workload; built by perfbench/make_orbit_pool.py",
        "criteria": {
            "q": 3,
            "g_D": 5,
            "split_prime_degree": PRIME_DEGREE,
            "h": [H_MIN, H_MAX],
            "ord": ORD,
        },
        "orders_scanned": tried,
        "orders": pool,
    }
    (HERE / "orbit_pool.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
