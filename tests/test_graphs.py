"""Monomial graph adjacency and girth, cross-validated against brute force."""

import itertools
import math
from collections import deque

import networkx as nx
import pytest

from gfpp import graphs
from gfpp.cli import factor_prime_power
from gfpp.errors import CapExceededError
from gfpp.field import Field
from gfpp.graphs import (MonomialGraph, _difference_table, girth, girth_at_least,
                         girth_scan, neighbors)


@pytest.fixture(scope="module")
def f3():
    return Field(3, 1)


@pytest.fixture(scope="module")
def f5():
    return Field(5, 1)


def xy_xy2(field):
    return MonomialGraph(field, (1, 1), (1, 2))


def test_neighbors_of_origin(f3):
    g = xy_xy2(f3)
    assert neighbors(g, "P", (0, 0, 0)) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]


def test_neighbors_rejects_bad_side(f3):
    with pytest.raises(ValueError):
        neighbors(xy_xy2(f3), "Q", (0, 0, 0))


def all_vertices(q):
    return [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]


@pytest.mark.parametrize("q_args,exps", [((3, 1), (1, 2)), ((3, 1), (2, 4)), ((5, 1), (1, 2))])
def test_regularity_and_symmetry(q_args, exps):
    field = Field(*q_args)
    q = field.q
    g = MonomialGraph(field, (1, 1), exps)
    edge_count = 0
    for v in all_vertices(q):
        nbrs = neighbors(g, "P", v)
        assert len(nbrs) == q
        assert len(set(nbrs)) == q
        edge_count += q
        for w in nbrs:
            assert v in neighbors(g, "L", w)
    assert edge_count == q**4
    for w in all_vertices(q):
        nbrs = neighbors(g, "L", w)
        assert len(set(nbrs)) == q


def test_regularity_q9():
    field = Field(3, 2)
    g = xy_xy2(field)
    for v in all_vertices(9):
        assert len(set(neighbors(g, "P", v))) == 9
        assert len(set(neighbors(g, "L", v))) == 9


def test_girth_of_flagship_graph(f3, f5):
    assert girth(xy_xy2(f3)) == 8
    assert girth(xy_xy2(f5)) == 8


def test_girth_of_non_pp_exponent_is_small(f3):
    g = MonomialGraph(f3, (1, 1), (2, 4))
    value = girth(g)
    brute = girth(g, all_sources=True)
    assert value == brute
    assert value < 8
    assert value in (4, 6)


# Monomial pairs outside the family G_q(XY, X^kY^2k): the orbit argument
# behind the one BFS source holds for every pair (f, g).
EXPLICIT_EXPS = [((1, 1), (1, 2)), ((2, 1), (1, 3)), ((0, 1), (1, 0)),
                 ((1, 2), (2, 1)), ((1, 1), (1, 1))]


def graph_cases(field, explicit=True):
    family = [MonomialGraph(field, (1, 1), (k, 2 * k)) for k in range(1, field.q)]
    extra = [MonomialGraph(field, f, g) for f, g in EXPLICIT_EXPS] if explicit else []
    return family + extra


@pytest.mark.parametrize("q_args", [(3, 1), (5, 1), (7, 1)])
def test_orbit_sources_match_all_sources(q_args):
    field = Field(*q_args)
    # All-sources BFS at q = 7 takes about 1 s for the family alone.
    for g in graph_cases(field, explicit=field.q <= 5):
        assert girth(g) == girth(g, all_sources=True), g


@pytest.mark.parametrize("q_args", [(3, 1), (5, 1)])
def test_girth_matches_networkx_on_explicit_graph(q_args):
    """The table-driven BFS against networkx on the graph built from
    the pointwise `neighbors`."""
    field = Field(*q_args)
    for g in graph_cases(field):
        G = nx.Graph()
        for v in all_vertices(field.q):
            G.add_edges_from((("P", v), ("L", w)) for w in neighbors(g, "P", v))
        assert nx.girth(G) == girth(g), g


def pointwise_tables(graph):
    # MonomialGraph.monomial_tables by Field.pow and Field.mul at every point
    field = graph.field
    q = field.q
    pw, mul = field.pow, field.mul
    tables = []
    for a, b in (graph.f_exps, graph.g_exps):
        xa = [pw(x, a) for x in range(q)]
        yb = [pw(y, b) for y in range(q)]
        tables.append([[mul(xa[x], yb[y]) for y in range(q)] for x in range(q)])
    return tuple(tables)


def plain_girth(graph):
    # Shortest cycle through (1, 0, 0): a full BFS with no early stop, on
    # adjacency from pointwise field arithmetic.  Point (x, p2, p3) has id
    # x*q^2 + p2*q + p3 and line [y, l2, l3] id q^3 + y*q^2 + l2*q + l3.
    field = graph.field
    q = field.q
    q2, q3 = q * q, q**3
    ftab, gtab = pointwise_tables(graph)
    diff = [[field.sub(a, b) for b in range(q)] for a in range(q)]

    def adjacent(u):
        line, (v1, r) = u >= q3, divmod(u % q3, q2)
        v2, v3 = divmod(r, q)
        for t in range(q):
            f, g = (ftab[t][v1], gtab[t][v1]) if line else (ftab[v1][t], gtab[v1][t])
            yield (0 if line else q3) + t * q2 + diff[f][v2] * q + diff[g][v3]

    src = q2  # (1, 0, 0)
    dist = {src: 0}
    parent = {src: None}
    queue = deque((src,))
    best = math.inf
    while queue:
        u = queue.popleft()
        for w in adjacent(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
            elif w != parent[u]:
                best = min(best, dist[u] + dist[w] + 1)
    return best


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_girth_equals_the_plain_bfs(q):
    """girth and girth_at_least, which stop their BFS early, against a BFS
    that runs to the end, on every graph of the family and on all 81
    exponent tuples in 0..2."""
    field = Field(*factor_prime_power(q))
    cases = [((1, 1), (k, 2 * k)) for k in range(1, q)]
    cases += [((a, b), (c, d)) for a, b, c, d in itertools.product(range(3), repeat=4)]
    for f_exps, g_exps in cases:
        g = MonomialGraph(field, f_exps, g_exps)
        exact = plain_girth(g)
        assert girth(g) == exact, g
        for bound in (4, 6, 8, 10):
            assert girth_at_least(g, bound) == (exact >= bound), (g, bound)


@pytest.mark.parametrize("q_args", [(3, 1), (5, 1), (3, 2), (11, 1)])
def test_girth_at_least_8_scans_depths_0_to_2_only(q_args, monkeypatch):
    # XY, XY^2 has girth 8, so from (1, 0, 0) depth 1 holds q vertices and
    # depth 2 holds q(q-1).  A depth-3 scan could find only 8-cycles, so
    # the BFS pops the first depth-3 vertex and stops there.
    pops = []

    class CountingDeque(deque):
        def popleft(self):
            pops.append(1)
            return super().popleft()

    monkeypatch.setattr(graphs, "deque", CountingDeque)
    field = Field(*q_args)
    q = field.q
    assert girth_at_least(xy_xy2(field), 8)
    assert len(pops) == 1 + q + q * (q - 1) + 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_monomial_tables_equal_pointwise_arithmetic(q):
    # exponent pairs with zeros on either axis, and the family's (k, 2k)
    field = Field(*factor_prime_power(q))
    pairs = list(itertools.product(range(3), repeat=2))
    pairs += [(k, 2 * k) for k in range(1, q)]
    for pair in pairs:
        g = MonomialGraph(field, pair, (1, 1))
        assert g.monomial_tables() == pointwise_tables(g), pair


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 25, 27])
def test_difference_table_equals_field_sub(q):
    field = Field(*factor_prime_power(q))
    assert _difference_table(field) == [[field.sub(a, b) for b in range(q)]
                                        for a in range(q)]


def test_girth_is_even(f3, f5):
    for field in (f3, f5):
        for k in range(1, field.q):
            value = girth(MonomialGraph(field, (1, 1), (k, 2 * k)))
            assert value == math.inf or value % 2 == 0


def test_girth_at_least_consistent_with_exact(f3, f5):
    for field in (f3, f5, Field(3, 2)):
        for k in range(1, field.q):
            g = MonomialGraph(field, (1, 1), (k, 2 * k))
            exact = girth(g)
            for bound in (4, 6, 8):
                assert girth_at_least(g, bound) == (exact >= bound), (field.q, k, bound)


def test_girth_cap(f3):
    with pytest.raises(CapExceededError):
        girth(xy_xy2(Field(19, 1)))
    with pytest.raises(CapExceededError):
        girth(xy_xy2(Field(5, 1)), cap=3)
    assert girth(xy_xy2(f3), cap=3) == 8


@pytest.mark.parametrize("q_args,expected", [((3, 1), [1]), ((5, 1), [1]), ((3, 2), [1, 3])])
def test_girth_scan(q_args, expected):
    _, verdict = girth_scan(Field(*q_args))
    assert verdict["witnesses"] == expected
    assert verdict["expected"] == expected
    assert verdict["implication_ok"]
    assert verdict["passed"]
