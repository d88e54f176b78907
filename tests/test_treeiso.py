"""Tree metrics and medians, Hecke cosets, psi, covering-group orders."""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cmtk.errors import BudgetError, DomainError
from cmtk.ffpoly import Fq, Poly, kdec, poly_from_text
from cmtk.treeiso import (
    RegularTree,
    bigdegree_bound,
    count_avoiding_geodesics,
    covering_group_orders,
    degree_bounds,
    hecke_coset_reps,
    monic_divisors,
    psi,
)

F3 = Fq(3)
F5 = Fq(5)


def P3(s):
    return poly_from_text(F3, s)


def address_strategy(r, max_len=5):
    first = st.integers(0, r - 1)
    rest = st.lists(st.integers(0, r - 2), max_size=max_len - 1)
    empty = st.just(())
    word = st.builds(lambda f, tail: (f, *tail), first, rest)
    return st.one_of(empty, word)


def _geodesic_vertices(v, w):
    k = 0
    for a, b in zip(v, w):
        if a != b:
            break
        k += 1
    down = [v[:i] for i in range(len(v), k - 1, -1)]
    up = [w[:i] for i in range(k + 1, len(w) + 1)]
    return down + up


def _edges(path):
    return {frozenset((path[i], path[i + 1])) for i in range(len(path) - 1)}


def _bfs_distance(tree, v, w):
    seen = {v}
    queue = deque([(v, 0)])
    while queue:
        cur, d = queue.popleft()
        if cur == w:
            return d
        for nxt in tree.neighbors(cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, d + 1))
    raise AssertionError("tree BFS must reach every vertex")


def _bfs_avoiding_paths(tree, n, k_avoid):
    """Independent oracle: non-backtracking walks via explicit adjacency."""
    if n == 0:
        return 1
    total = 0
    stack = [((), child, 1) for child in tree.neighbors(()) if child[0] >= k_avoid]
    while stack:
        prev, cur, length = stack.pop()
        if length == n:
            total += 1
            continue
        for nxt in tree.neighbors(cur):
            if nxt != prev:
                stack.append((cur, nxt, length + 1))
    return total


# ---------------------------------------------------------------------------
# addresses and the metric


def test_parse_format_round_trip():
    tree = RegularTree(4)
    for text in ["", "3", "2.0.1", "0.2.2.0"]:
        assert tree.format(tree.parse(text)) == text


def test_malformed_addresses_rejected():
    tree = RegularTree(4)
    with pytest.raises(DomainError):
        tree.parse("2.0.3")  # 3 >= r - 1 after the first symbol
    with pytest.raises(DomainError):
        tree.parse("4")  # first symbol >= r
    with pytest.raises(DomainError):
        tree.parse("1..2")
    with pytest.raises(DomainError):
        RegularTree(2)


def test_distance_examples():
    tree = RegularTree(4)
    v = tree.parse("2.0.1")
    assert tree.distance(v, v) == 0
    assert tree.distance((), tree.parse("1")) == 1
    assert tree.distance((), v) == 3
    assert tree.distance(tree.parse("2.0"), tree.parse("2.1")) == 2


@given(address_strategy(4, 4), address_strategy(4, 4))
def test_distance_matches_bfs(v, w):
    tree = RegularTree(4)
    assert tree.distance(v, w) == _bfs_distance(tree, v, w)


@given(address_strategy(3), address_strategy(3), address_strategy(3))
def test_metric_axioms(u, v, w):
    tree = RegularTree(3)
    assert tree.distance(u, v) == tree.distance(v, u)
    assert (tree.distance(u, v) == 0) == (u == v)
    assert tree.distance(u, w) <= tree.distance(u, v) + tree.distance(v, w)


# ---------------------------------------------------------------------------
# medians


def test_median_degenerate_cases():
    tree = RegularTree(4)
    v = tree.parse("2.1")
    assert tree.median(v, v, v) == (v, 0, 0, 0)
    # middle vertex on the geodesic of the outer two
    v1, v2, v3 = tree.parse("2.0.1"), tree.parse("2.0"), tree.parse("1")
    center, n1, n2, n3 = tree.median(v1, v2, v3)
    assert center == v2 and n2 == 0
    assert n1 == tree.distance(center, v1) and n3 == tree.distance(center, v3)


@given(
    st.sampled_from([3, 4, 10]),
    st.data(),
)
def test_median_postconditions(r, data):
    tree = RegularTree(r)
    v1 = data.draw(address_strategy(r))
    v2 = data.draw(address_strategy(r))
    v3 = data.draw(address_strategy(r))
    center, n1, n2, n3 = tree.median(v1, v2, v3)
    arms = {1: (v1, n1), 2: (v2, n2), 3: (v3, n3)}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        (vi, ni), (vj, nj) = arms[i], arms[j]
        assert ni + nj == tree.distance(vi, vj)
    # the three center-to-v_i paths are pairwise edge-disjoint
    paths = [_edges(_geodesic_vertices(center, v)) for v in (v1, v2, v3)]
    assert not (paths[0] & paths[1])
    assert not (paths[0] & paths[2])
    assert not (paths[1] & paths[2])


# ---------------------------------------------------------------------------
# geodesic counting


def test_avoiding_geodesics_examples():
    tree = RegularTree(4)
    assert count_avoiding_geodesics(tree, 0, 2) == 1
    assert count_avoiding_geodesics(tree, 1, 2) == 2
    assert count_avoiding_geodesics(tree, 2, 2) == 6


@given(st.sampled_from([3, 4, 6]), st.integers(0, 3), st.integers(0, 2))
def test_avoiding_geodesics_against_bfs(r, n, k):
    tree = RegularTree(r)
    assert count_avoiding_geodesics(tree, n, k) == _bfs_avoiding_paths(tree, n, k)


def test_avoiding_geodesics_domain():
    tree = RegularTree(4)
    with pytest.raises(DomainError):
        count_avoiding_geodesics(tree, 1, 4)
    with pytest.raises(DomainError):
        count_avoiding_geodesics(tree, -1, 0)


# ---------------------------------------------------------------------------
# degree-bound modes


def test_bigdegree_examples():
    assert bigdegree_bound([(3, 1)], "norm_plus_one") == Fraction(2, 3)
    assert bigdegree_bound([(3, 1)], "norm") == Fraction(2, 3)
    assert bigdegree_bound([(3, 2)], "norm_plus_one") == Fraction(8, 5)
    assert bigdegree_bound([(3, 2)], "norm") == Fraction(6, 5)
    assert bigdegree_bound(P3("1")) == 1
    with pytest.raises(DomainError):
        bigdegree_bound([(3, 1)], "exact")


def test_bigdegree_accepts_polynomials():
    # N = T^2 (T^2+1): local factors (3-1)3^{2-1}/5 and (9-1)/3
    val = bigdegree_bound(P3("T^2") * P3("T^2+1"), "norm")
    assert val == Fraction(2 * 3, 5) * Fraction(8, 3)


def test_bigdegree_norm_mode_matches_geodesic_count():
    for norm, mult in [(3, 1), (3, 2), (9, 3), (5, 2)]:
        tree = RegularTree(norm + 1)
        expected = Fraction(count_avoiding_geodesics(tree, mult, 2), 2 * mult + 1)
        assert bigdegree_bound([(norm, mult)], "norm") == expected


@given(
    st.lists(
        st.tuples(st.sampled_from([3, 5, 9, 25]), st.integers(1, 4)), max_size=4
    )
)
def test_bigdegree_norm_never_exceeds_norm_plus_one(factors):
    assert bigdegree_bound(factors, "norm") <= bigdegree_bound(factors, "norm_plus_one")


# ---------------------------------------------------------------------------
# Hecke cosets and psi


def test_hecke_reps_level_T():
    reps = hecke_coset_reps(P3("T"))
    flat = {(r.a.text(), r.b.text(), r.d.text()) for r in reps}
    assert flat == {("T", "0", "1"), ("1", "0", "T"), ("1", "1", "T"), ("1", "2", "T")}
    assert len(reps) == psi(P3("T")) == 4


def test_hecke_reps_identity_level():
    reps = hecke_coset_reps(P3("1"))
    assert len(reps) == 1 == psi(P3("1"))


def test_psi_examples():
    assert psi(P3("T^2")) == 12 == len(hecke_coset_reps(P3("T^2")))
    assert psi(P3("T^2+T")) == 16 == len(hecke_coset_reps(P3("T^2+T")))


def test_reps_are_primitive_with_correct_level():
    N = P3("T^2+T")
    for rep in hecke_coset_reps(N):
        assert rep.level == N
        assert rep.a.gcd(rep.b).gcd(rep.d).degree == 0
        assert rep.b.is_zero or rep.b.degree < rep.d.degree


@given(st.integers(0, 3**3 - 1), st.integers(0, 3**3 - 1))
def test_rep_count_equals_psi(c1, c2):
    N = Poly(F3, kdec(F3, 3**3 + c1))
    assert len(hecke_coset_reps(N)) == psi(N)
    M = Poly(F3, kdec(F3, 3**3 + c2))
    if N.gcd(M).degree == 0:
        assert psi(N * M) == psi(N) * psi(M)


def test_rep_count_equals_psi_f5():
    for lower in range(0, 25, 3):
        N = Poly(F5, kdec(F5, 25 + lower))
        assert len(hecke_coset_reps(N)) == psi(N)


def test_monic_divisors():
    divs = monic_divisors(P3("T^2+T"))
    assert [d.text() for d in divs] == ["1", "T", "T+1", "T^2+T"]


# ---------------------------------------------------------------------------
# degree bounds


def test_degree_bounds_examples():
    assert degree_bounds(2, P3("T"), 1)["hecke_image"] == 64
    assert degree_bounds(1, P3("1"), 5, 3) == {
        "components": 5,
        "hecke_image": 10,
        "intersection": 15,
    }
    with pytest.raises(DomainError):
        degree_bounds(0, P3("T"), 1)


# ---------------------------------------------------------------------------
# covering groups


def test_covering_orders_level_T():
    rec = covering_group_orders(P3("T"))
    assert rec["gal_full_level"] == 24  # |SL2(F_3)|
    assert rec["gal_quotient_level"] == 24  # odd-degree prime: Z^1 = F_q^*
    assert "psl2" not in rec


def test_covering_orders_even_degree_prime():
    rec = covering_group_orders(P3("T^2+1"))
    assert rec["gal_full_level"] == 720  # |SL2(F_9)|
    assert rec["gal_quotient_level"] == 360 == rec["psl2"]  # |PSL2(F_9)|


def test_covering_orders_trivial_and_budget():
    rec = covering_group_orders(P3("1"))
    assert rec["gal_full_level"] == 1 and rec["gal_quotient_level"] == 1
    with pytest.raises(BudgetError):
        covering_group_orders(P3("T^5"), budget=81)


def test_covering_orders_composite_level():
    # N = T(T+1): SL2(A/N) = SL2(F_3) x SL2(F_3)
    rec = covering_group_orders(P3("T^2+T"))
    assert rec["gal_full_level"] == 24 * 24


def test_covering_orders_brute_force_oracle():
    # tiny four-loop matrix enumeration over A/T = F_3
    q = 3
    count_det1 = 0
    scalars_sq_const = 0
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q == 1:
                        count_det1 += 1
    rec = covering_group_orders(P3("T"))
    assert rec["gal_full_level"] == count_det1
