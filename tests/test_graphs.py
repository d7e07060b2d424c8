"""Monomial graph girth, cross-validated against brute force."""

import functools
import itertools
import math
from collections import deque

import networkx as nx
import pytest

from gfpp import graphs, permpoly
from gfpp.digits import star_reduce
from gfpp.field import Field, factor_prime_power
from gfpp.graphs import _difference_table, _monomial_table, girth, girth_at_least, girth_scan

XY_XY2 = ((1, 1), (1, 2))


@pytest.fixture(scope="module")
def f3():
    return Field(3, 1)


@pytest.fixture(scope="module")
def f5():
    return Field(5, 1)


def pointwise_tables(field, f_exps, g_exps):
    # The q x q tables [x][y] -> x^a y^b of f and g, by Field.pow and
    # Field.mul at every point.
    q = field.q
    pw, mul = field.pow, field.mul
    tables = []
    for a, b in (f_exps, g_exps):
        xa = [pw(x, a) for x in range(q)]
        yb = [pw(y, b) for y in range(q)]
        tables.append([[mul(xa[x], yb[y]) for y in range(q)] for x in range(q)])
    return tuple(tables)


def adjacency(field, f_exps, g_exps):
    # u -> the ids of u's q neighbors, from pointwise field arithmetic.
    # Point (x, p2, p3) has id x*q^2 + p2*q + p3 and line [y, l2, l3] id
    # q^3 + y*q^2 + l2*q + l3; they are adjacent iff p2 + l2 = f(x, y) and
    # p3 + l3 = g(x, y).
    q = field.q
    q2, q3 = q * q, q**3
    ftab, gtab = pointwise_tables(field, f_exps, g_exps)
    diff = [[field.sub(a, b) for b in range(q)] for a in range(q)]

    @functools.cache
    def neighbors(u):
        v1, r = divmod(u % q3, q2)
        v2, v3 = divmod(r, q)
        if u >= q3:  # a line [v1, v2, v3]: its points (t, f(t, v1) - v2, ...)
            return [t * q2 + diff[ftab[t][v1]][v2] * q + diff[gtab[t][v1]][v3]
                    for t in range(q)]
        return [q3 + t * q2 + diff[ftab[v1][t]][v2] * q + diff[gtab[v1][t]][v3]
                for t in range(q)]

    return neighbors


def plain_girth(field, f_exps, g_exps, sources=None):
    # Shortest cycle through a vertex of `sources`, by default (1, 0, 0):
    # from each source a BFS that keeps parents and takes the least walk
    # any non-tree edge closes.  It stops only at a depth d with
    # 2d >= best, since every edge it scans from there closes a walk of
    # length at least 2d.
    q = field.q
    neighbors = adjacency(field, f_exps, g_exps)
    best = math.inf
    for src in (q * q,) if sources is None else sources:
        dist = {src: 0}
        parent = {src: None}
        queue = deque((src,))
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                break
            for w in neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def test_neighbors_of_origin(f3):
    # (0, 0, 0) lies on the lines [y, 0, 0], since f(0, y) = g(0, y) = 0.
    assert adjacency(f3, *XY_XY2)(0) == [27 + y * 9 for y in range(3)]


@pytest.mark.parametrize("q_args,exps", [((3, 1), (1, 2)), ((3, 1), (2, 4)), ((5, 1), (1, 2))])
def test_regularity_and_symmetry(q_args, exps):
    # Every point has q distinct line neighbors and every line q distinct
    # point neighbors, and adjacency is symmetric.
    field = Field(*q_args)
    q, q3 = field.q, field.q**3
    neighbors = adjacency(field, (1, 1), exps)
    for u in range(2 * q3):
        nbrs = neighbors(u)
        assert len(set(nbrs)) == q
        assert all((w >= q3) != (u >= q3) and u in neighbors(w) for w in nbrs)


def test_regularity_q9():
    field = Field(3, 2)
    neighbors = adjacency(field, *XY_XY2)
    for u in range(2 * 9**3):
        assert len(set(neighbors(u))) == 9


def test_girth_of_flagship_graph(f3, f5):
    assert girth(f3, *XY_XY2) == 8
    assert girth(f5, *XY_XY2) == 8


def test_girth_of_non_pp_exponent_is_small(f3):
    value = girth(f3, (1, 1), (2, 4))
    assert value == plain_girth(f3, (1, 1), (2, 4), range(2 * 27))
    assert value in (4, 6)


# Monomial pairs outside the family G_q(XY, X^kY^2k): the orbit argument
# behind the one BFS source holds for every pair (f, g).
EXPLICIT_EXPS = [((1, 1), (1, 2)), ((2, 1), (1, 3)), ((0, 1), (1, 0)),
                 ((1, 2), (2, 1)), ((1, 1), (1, 1))]


def graph_cases(field, explicit=True):
    family = [((1, 1), (k, 2 * k)) for k in range(1, field.q)]
    return family + (EXPLICIT_EXPS if explicit else [])


@pytest.mark.parametrize("q_args", [(3, 1), (5, 1), (7, 1)])
def test_orbit_sources_match_all_sources(q_args):
    field = Field(*q_args)
    q = field.q
    for exps in graph_cases(field, explicit=q <= 5):
        assert girth(field, *exps) == plain_girth(field, *exps, range(2 * q**3)), exps


@pytest.mark.parametrize("q_args", [(3, 1), (5, 1)])
def test_girth_matches_networkx_on_explicit_graph(q_args):
    """The table-driven BFS against networkx on the graph built from
    pointwise arithmetic."""
    field = Field(*q_args)
    for exps in graph_cases(field):
        G = nx.Graph()
        neighbors = adjacency(field, *exps)
        for u in range(field.q**3):
            G.add_edges_from((u, w) for w in neighbors(u))
        assert nx.girth(G) == girth(field, *exps), exps


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_girth_equals_the_plain_bfs(q):
    """girth and girth_at_least, which stop their BFS early, against a BFS
    that runs to the end, on every graph of the family and on all 81
    exponent tuples in 0..2."""
    field = Field(*factor_prime_power(q))
    cases = [((1, 1), (k, 2 * k)) for k in range(1, q)]
    cases += [((a, b), (c, d)) for a, b, c, d in itertools.product(range(3), repeat=4)]
    for exps in cases:
        exact = plain_girth(field, *exps)
        assert girth(field, *exps) == exact, exps
        for bound in (4, 6, 8, 10):
            assert girth_at_least(field, *exps, bound) == (exact >= bound), (exps, bound)


@pytest.mark.parametrize("q_args", [(3, 1), (5, 1), (3, 2), (11, 1)])
def test_girth_at_least_8_scans_depths_0_to_2_only(q_args, monkeypatch):
    # XY, XY^2 has girth 8, so from (1, 0, 0) depth 1 holds q vertices and
    # depth 2 holds q(q-1).  A depth-3 scan could find only 8-cycles, so
    # the depth-3 vertices are marked but never queued.
    pops = []

    class CountingDeque(deque):
        def popleft(self):
            pops.append(1)
            return super().popleft()

    monkeypatch.setattr(graphs, "deque", CountingDeque)
    field = Field(*q_args)
    q = field.q
    assert girth_at_least(field, *XY_XY2, 8)
    assert len(pops) == 1 + q + q * (q - 1)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_monomial_tables_equal_pointwise_arithmetic(q):
    # exponent pairs with zeros on either axis, and the family's (k, 2k)
    field = Field(*factor_prime_power(q))
    pairs = list(itertools.product(range(3), repeat=2))
    pairs += [(k, 2 * k) for k in range(1, q)]
    for pair in pairs:
        assert _monomial_table(field, *pair) == pointwise_tables(field, pair, pair)[0], pair


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_difference_table_equals_field_sub(q):
    field = Field(*factor_prime_power(q))
    assert _difference_table(field) == [[field.sub(a, b) for b in range(q)]
                                        for a in range(q)]


def test_girth_is_even(f3, f5):
    for field in (f3, f5):
        for k in range(1, field.q):
            value = girth(field, (1, 1), (k, 2 * k))
            assert value == math.inf or value % 2 == 0


def test_girth_at_least_consistent_with_exact(f3, f5):
    for field in (f3, f5, Field(3, 2)):
        for k in range(1, field.q):
            exps = ((1, 1), (k, 2 * k))
            exact = girth(field, *exps)
            # At bound 2 only the source is scanned, and its scan closes
            # no cycle.
            for bound in (2, 4, 6, 8):
                assert girth(field, *exps, bound=bound) == min(exact, bound)
                assert girth_at_least(field, *exps, bound) == (exact >= bound), (field.q, k, bound)


@pytest.mark.parametrize("q_args,expected", [((3, 1), [1]), ((5, 1), [1]), ((3, 2), [1, 3])])
def test_girth_scan(q_args, expected):
    field = Field(*q_args)
    _, verdict = girth_scan(field, permpoly.sweep(field))
    assert verdict["witnesses"] == expected
    assert verdict["expected"] == expected
    assert verdict["implication_ok"]
    assert verdict["passed"]


@pytest.mark.parametrize("q,orbits", [(9, 5), (25, 14), (27, 10)])
def test_girth_scan_runs_one_bfs_per_frobenius_orbit(q, orbits, monkeypatch):
    # Patched at the module attribute, which the benchmark's tracer wraps.
    field = Field(*factor_prime_power(q))
    calls = []
    real = graphs.girth_at_least
    monkeypatch.setattr(graphs, "girth_at_least",
                        lambda *args: calls.append(args[2][0]) or real(*args))
    girth_scan(field, permpoly.sweep(field))
    assert len(calls) == len(set(calls)) == orbits


@pytest.mark.parametrize("q", [9, 25, 27])
def test_girth_scan_witnesses_equal_a_bfs_at_every_k(q):
    field = Field(*factor_prime_power(q))
    _, verdict = girth_scan(field, permpoly.sweep(field))
    per_k = [k for k in range(1, q) if girth_at_least(field, (1, 1), (k, 2 * k), 8)]
    assert verdict["witnesses"] == per_k == permpoly.p_powers(field)


@pytest.mark.parametrize("q", [9, 25, 27, 125])
def test_frobenius_maps_the_table_of_k_onto_the_table_of_pk(q):
    # The isomorphism of the module docstring, on the value tables:
    # x^((pk)*) y^((2pk)*) is the p-th power of x^k y^(2k).
    field = Field(*factor_prime_power(q))
    frob = [field.pow(x, field.p) for x in range(q)]
    for k in range(1, q):
        pk, p2k = (star_reduce(field.p * n, q) for n in (k, 2 * k))
        image = [[frob[v] for v in row] for row in _monomial_table(field, k, 2 * k)]
        assert _monomial_table(field, pk, p2k) == image, k
