"""Bipartite monomial incidence graphs on two copies of F_q^3 and their girth.

A point (p1, p2, p3) and a line [l1, l2, l3] are adjacent iff

    p2 + l2 = f(p1, l1)   and   p3 + l3 = g(p1, l1),

where f = X^a Y^b and g = X^c Y^d are monomials, given by their exponent
pairs f_exps = (a, b) and g_exps = (c, d).  Every vertex has exactly q
neighbors (the free first coordinate of the other side determines the
rest), so adjacency is computed on demand; nothing is materialized beyond
the q x q monomial value tables and the q x q difference table a - b that
the BFS builds here, and the BFS state of one byte per vertex, 2q^3 bytes
in all.  The monomial tables come from the field's discrete-log tables
(Field.log_tables) and the difference table from the base-p digits of the
element indices, not from pointwise field arithmetic.

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

In the family G_q(XY, X^k Y^2k) the girth is constant on the Frobenius
orbits k -> (p*k)*.  As x -> x^p is an automorphism of GF(q), the
bijection (p1, p2, p3) -> (p1, p2, p3^p), [l1, l2, l3] -> [l1, l2, l3^p]
keeps p2 + l2 = p1*l1, and p3 + l3 = p1^k l1^2k holds iff its p-th power
p3^p + l3^p = p1^(pk) l1^(2pk) does.  So it maps G_q(XY, X^k Y^2k) onto
G_q(XY, X^(pk)* Y^(2pk)*), whose starred exponents are positive and so
give the same values, 0 at 0 included.
"""

import math
from collections import deque

from .field import p_powers, per_orbit


def _monomial_table(field, a, b):
    """The q x q table [x][y] -> x^a y^b, built from the log tables."""
    exp, log, _ = field.log_tables()
    m = field.q - 1
    exp2 = exp + exp  # a*log x and b*log y, each reduced mod m, sum below 2m
    yb = [b * n % m for n in log[1:]]
    if a == 0:  # 0^0 = 1: row x = 0 is y^b
        table = [[1 if b == 0 else 0] + [exp[n] for n in yb]]
    else:
        table = [[0] * (m + 1)]
    for lx in log[1:]:
        ax = a * lx % m
        table.append([exp[ax] if b == 0 else 0] + [exp2[ax + n] for n in yb])
    return table


def _difference_table(field):
    """The q x q table [a][b] -> a - b, built from base-p digits.

    An element's index is its coefficient vector read as base-p digits,
    and subtraction works coefficient by coefficient mod p.  So for
    a = s*n + u and b = t*n + v with n = p^j and u, v < n, the index of
    a - b is ((s - t) mod p)*n plus the entry [u][v] of the table for the
    first n elements, and each table comes from the one before.
    """
    p = field.p
    table, n = [[0]], 1
    for _ in range(field.e):
        high = [[(s - t) % p * n for t in range(p)] for s in range(p)]
        table = [[h + d for h in hs for d in row] for hs in high for row in table]
        n *= p
    return table


def _min_cycle_from(q, rows, stab, src, best):
    """Shortest cycle detectable by BFS from src, clamped above by `best`.

    Point ids are p1*q^2 + p2*q + p3 and line ids (q + l1)*q^2 + l2*q + l3,
    so u // q^2 indexes `rows`: (f(p1, .), g(p1, .)) for a point and
    (f(., l1), g(., l1)) for a line.

    BFS scans the vertices depth by depth.  An edge from u at depth d to a
    vertex w found before closes a walk of length d + depth(w) + 1, and
    the graph is bipartite, so depth(w) is d - 1 or d + 1.  The edge to
    u's parent closes nothing, and any other edge to depth d - 1 was
    already counted when w was scanned, since u then had depth
    depth(w) + 1.  So a scan at depth d finds only walks of length 2d + 2:
    the first one is the answer, and the scan is needed only while
    2d + 2 < best.  A vertex found at depth d + 1 is marked, so that an
    edge to it closes a walk, but queued only if that rule will scan it,
    and this push rule is the only depth limit: the source's own scan
    closes nothing, as its q neighbors are distinct.  No parent is kept;
    `level` holds depth + 1 for each vertex found and 0 for the rest.
    Until a cycle closes, each depth holds q - 1 times as many vertices as
    the one before, so depths stay far below the byte's 255.
    """
    q2 = q * q
    q3 = q2 * q
    level = bytearray(2 * q3)
    level[src] = 1
    queue = deque((src,))
    pop = queue.popleft
    push = queue.append
    while queue:
        u = pop()
        lu = level[u]  # d + 1
        ln = lu + 1
        scanned = 2 * ln < best  # whether a vertex found now is scanned
        row, r = divmod(u, q2)
        v2, v3 = divmod(r, q)
        frow, grow = rows[row]
        base = q3 if row < q else 0
        for t in range(q):
            w = base + t * q2 + stab[frow[t]][v2] * q + stab[grow[t]][v3]
            lw = level[w]
            if not lw:
                level[w] = ln
                if scanned:
                    push(w)
            elif lw == ln:
                return 2 * lu
    return best


def girth(field, f_exps, g_exps, *, bound=math.inf):
    """Length of a shortest cycle of G_q(X^a Y^b, X^c Y^d), or `bound`
    when no cycle is shorter: BFS from (1, 0, 0), whose orbit every cycle
    meets, queues only the vertices at depths d with 2d + 2 < bound."""
    ftab, gtab = (_monomial_table(field, *exps) for exps in (f_exps, g_exps))
    rows = list(zip(ftab, gtab)) + list(zip(zip(*ftab), zip(*gtab)))
    q = field.q
    return _min_cycle_from(q, rows, _difference_table(field), q * q, bound)


def girth_at_least(field, f_exps, g_exps, bound: int) -> bool:
    """Whether the girth is at least `bound`; the BFS stops at the first
    cycle it finds.  girth_scan calls it once per Frobenius orbit, and the
    benchmark's tracer (perfbench/tracer.py) wraps it by this name."""
    return girth(field, f_exps, g_exps, bound=bound) >= bound


def girth_scan(field, flags) -> tuple[list[bool], dict]:
    """For every 1 <= k <= q-1, test girth(G_q(XY, X^k Y^2k)) >= 8, once per
    Frobenius orbit through per_orbit (see the module docstring), so the
    e p-powers, the orbit of 1, share one full-depth BFS.

    Returns the ge8 flag of every k, in order, and the field's verdict: the
    passing set (its witnesses) equals the p-powers, and every passing k
    has both families PP in `flags`, the field's permpoly.sweep.
    """
    ge8 = per_orbit(field.p, field.e,
                    lambda k: girth_at_least(field, (1, 1), (k, 2 * k), 8))
    passing = [k for k, ok in enumerate(ge8, 1) if ok]
    expected = p_powers(field.p, field.e)
    implication_ok = all(a_pp and b_pp for (a_pp, b_pp), ok in zip(flags, ge8) if ok)
    verdict = {"section": "girth", "q": field.q, "witnesses": passing,
               "expected": expected, "implication_ok": implication_ok,
               "passed": passing == expected and implication_ok}
    return ge8, verdict
