"""Bipartite monomial incidence graphs on two copies of F_q^3 and their girth.

A point (p1, p2, p3) and a line [l1, l2, l3] are adjacent iff

    p2 + l2 = f(p1, l1)   and   p3 + l3 = g(p1, l1),

where f = X^a Y^b and g = X^c Y^d are monomials.  Every vertex has exactly
q neighbors (the free first coordinate of the other side determines the
rest), so adjacency is computed on demand; nothing is materialized beyond
the q x q monomial value tables and the q x q difference table a - b that
the BFS builds here, keeping BFS state at O(q^3).

Girth search runs BFS from the single source (1, 0, 0).  A line has
exactly one neighbor for each value of p1, so two points on a common line
differ in p1, and every cycle passes through a point with p1 != 0.  The
translations that shift (p2, p3, l2, l3) act transitively on each
{p1 = c} slice, and for nonzero λ, μ the scalings

    (p1, p2, p3) -> (λp1, λ^a μ^b p2, λ^c μ^d p3),
    [l1, l2, l3] -> [μl1, λ^a μ^b l2, λ^c μ^d l3]

preserve adjacency, since f(λx, μy) = λ^a μ^b f(x, y) and likewise for g.
Together they make the points with p1 != 0 one orbit, that of (1, 0, 0),
so an automorphism carries a shortest cycle to one through (1, 0, 0);
BFS from a vertex on a shortest cycle finds its length.
"""

from __future__ import annotations

import math
from collections import deque

from . import permpoly
from .errors import CapExceededError

DEFAULT_GIRTH_CAP = 17

_NO_CYCLE = 1 << 30


class MonomialGraph:
    """G_q(X^a Y^b, X^c Y^d) with implicit q-regular adjacency."""

    def __init__(self, field, f_exps, g_exps):
        self.field = field
        self.f_exps = (int(f_exps[0]), int(f_exps[1]))
        self.g_exps = (int(g_exps[0]), int(g_exps[1]))
        self._tables = None

    def __repr__(self) -> str:
        return "MonomialGraph(q=%d, f=X^%dY^%d, g=X^%dY^%d)" % (
            self.field.q, *self.f_exps, *self.g_exps)

    def monomial_tables(self):
        """(f_values, g_values) as q x q tables indexed [x][y]; cached."""
        if self._tables is None:
            field = self.field
            q = field.q
            fa, fb = self.f_exps
            ga, gb = self.g_exps
            pw = field.pow
            mul = field.mul
            xa = [pw(x, fa) for x in range(q)]
            yb = [pw(y, fb) for y in range(q)]
            xc = [pw(x, ga) for x in range(q)]
            yd = [pw(y, gb) for y in range(q)]
            ftab = [[mul(xa[x], yb[y]) for y in range(q)] for x in range(q)]
            gtab = [[mul(xc[x], yd[y]) for y in range(q)] for x in range(q)]
            self._tables = (ftab, gtab)
        return self._tables


def neighbors(graph: MonomialGraph, side: str, vertex) -> list[tuple[int, int, int]]:
    """The q vertices adjacent to `vertex` on the opposite side.

    side is "P" for points and "L" for lines; the free coordinate of the
    result runs through the field's canonical element order.
    """
    field = graph.field
    sub = field.sub
    mul = field.mul
    pw = field.pow
    fa, fb = graph.f_exps
    ga, gb = graph.g_exps
    v1, v2, v3 = vertex
    out = []
    if side == "P":
        x1f = pw(v1, fa)
        x1g = pw(v1, ga)
        for t in range(field.q):
            out.append((t, sub(mul(x1f, pw(t, fb)), v2), sub(mul(x1g, pw(t, gb)), v3)))
    elif side == "L":
        y1f = pw(v1, fb)
        y1g = pw(v1, gb)
        for t in range(field.q):
            out.append((t, sub(mul(pw(t, fa), y1f), v2), sub(mul(pw(t, ga), y1g), v3)))
    else:
        raise ValueError("side must be 'P' or 'L', got %r" % (side,))
    return out


def _min_cycle_from(q, rows, stab, src, best):
    """Shortest cycle detectable by BFS from src, clamped above by `best`.

    Point ids are p1*q^2 + p2*q + p3 and line ids (q + l1)*q^2 + l2*q + l3,
    so u // q^2 indexes `rows`: (f(p1, .), g(p1, .)) for a point and
    (f(., l1), g(., l1)) for a line.  In a bipartite graph non-tree edges
    join adjacent BFS levels, so a candidate found while scanning depth d
    has length at least 2d and the search can stop once 2d >= best.
    """
    q2 = q * q
    q3 = q2 * q
    n = 2 * q3
    dist = [-1] * n
    parent = [-1] * n
    dist[src] = 0
    queue = deque((src,))
    pop = queue.popleft
    push = queue.append
    while queue:
        u = pop()
        d = dist[u]
        if 2 * d >= best:
            break
        nd = d + 1
        pu = parent[u]
        row, r = divmod(u, q2)
        v2, v3 = divmod(r, q)
        frow, grow = rows[row]
        base = q3 if row < q else 0
        for t in range(q):
            w = base + t * q2 + stab[frow[t]][v2] * q + stab[grow[t]][v3]
            dw = dist[w]
            if dw < 0:
                dist[w] = nd
                parent[w] = u
                push(w)
            elif w != pu:
                c = d + dw + 1
                if c < best:
                    best = c
    return best


def _shortest_cycle(graph: MonomialGraph, cap, best, all_sources=False):
    """Least of `best` and the cycle lengths BFS detects from the sources.

    The source is (1, 0, 0), whose orbit every cycle meets (see the
    module docstring), or every vertex when all_sources is set.
    """
    field = graph.field
    q = field.q
    cap = DEFAULT_GIRTH_CAP if cap is None else cap
    if q > cap:
        raise CapExceededError("q = %d exceeds the girth cap %d" % (q, cap))
    ftab, gtab = graph.monomial_tables()
    rows = list(zip(ftab, gtab)) + list(zip(zip(*ftab), zip(*gtab)))
    stab = [[field.sub(a, b) for b in range(q)] for a in range(q)]
    sources = range(2 * q**3) if all_sources else (q * q,)
    for src in sources:
        best = _min_cycle_from(q, rows, stab, src, best)
    return best


def girth(graph: MonomialGraph, *, cap: int | None = None, all_sources: bool = False):
    """Length of a shortest cycle (even, >= 4), or math.inf if acyclic.

    By default BFS runs from (1, 0, 0) alone, since every cycle meets its
    orbit; all_sources=True searches from every point and line instead and
    exists to cross-validate that shortcut.
    """
    best = _shortest_cycle(graph, cap, _NO_CYCLE, all_sources)
    return math.inf if best == _NO_CYCLE else best


def girth_at_least(graph: MonomialGraph, bound: int, *, cap: int | None = None) -> bool:
    """Early-exit test for girth >= bound: BFS from (1, 0, 0), whose orbit
    every cycle meets, stops at depth bound/2, or sooner once a shorter
    cycle is seen."""
    return _shortest_cycle(graph, cap, bound) >= bound


def girth_scan(field, *, cap: int | None = None, records=None) -> tuple[list[dict], dict]:
    """For every 1 <= k <= q-1, test girth(G_q(XY, X^k Y^2k)) >= 8.

    Returns one girth row per sweep row of `records` and the field's
    verdict.  The verdict asserts the passing set (its witnesses) equals
    the p-powers, and that every passing k has both polynomial families
    PP (implication cross-check).
    """
    q = field.q
    if records is None:
        records = permpoly.sweep(field)
    passing = []
    for k in range(1, q):
        graph = MonomialGraph(field, (1, 1), (k, 2 * k))
        if girth_at_least(graph, 8, cap=cap):
            passing.append(k)
    expected = permpoly.p_powers(field)
    implication_ok = all(r["a_pp"] and r["b_pp"] for r in records if r["k"] in passing)
    rows = [{"kind": "girth", "q": q, "k": r["k"], "girth_ge_8": r["k"] in passing,
             "a_pp": r["a_pp"], "b_pp": r["b_pp"], "p_power": r["k_is_p_power"]}
            for r in records]
    verdict = {"section": "girth", "q": q, "witnesses": passing,
               "expected": expected, "implication_ok": implication_ok,
               "passed": passing == expected and implication_ok}
    return rows, verdict
