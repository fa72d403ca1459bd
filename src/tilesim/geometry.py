"""Lamplighter-group and Diestel-Leader arithmetic, plus generation of the
finite labelled windows (balls, tetrahedra, grid patches) that everything
else runs on.

A group point is a marker height n plus a finitely supported assignment of
digits to half-integer positions; position k + 1/2 is stored as the integer
k.  Digits strictly below the marker take values in {0..q-1}, those at or
above it in {0..p-1}; the lamplighter is the (2,2) case, where a digit is
just a lamp and the generators act by

    a: step up, touch nothing;        b: step up, flipping the lamp crossed.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import NamedTuple

from .graphs import (CapacityError, LabelGraph, add_edge_pair, alphabet, rose,
                     skey)


class GroupPoint(NamedTuple):
    """A point of the lamplighter group or of DL(p,q).

    digits is a sorted tuple of (stored position, value) with no zero
    values, so equality and hashing are structural.  As a tuple, a point
    hashes as hash((marker, digits, p, q)), computed in C on every use.
    """

    marker: int
    digits: tuple = ()
    p: int = 2
    q: int = 2

    def digit(self, k):
        for pos, val in self.digits:
            if pos == k:
                return val
        return 0

    def is_identity(self):
        return self.marker == 0 and not self.digits


def identity(p=2, q=2):
    return GroupPoint(0, (), p, q)


def _pack(marker, vals, p, q):
    out = []
    for k in sorted(vals):
        base = q if k < marker else p
        v = vals[k] % base
        if v:
            out.append((k, v))
    return GroupPoint(marker, tuple(out), p, q)


def multiply(x, y):
    """Product (r,m)(s,n) = (t, m+n) with t_i = r_i + s_{i-m}, digits taken
    mod the base relevant to the resulting marker."""
    if (x.p, x.q) != (y.p, y.q):
        raise ValueError("mixed (p,q) parameters")
    m = x.marker + y.marker
    vals = {}
    for k, v in x.digits:
        vals[k] = vals.get(k, 0) + v
    for k, v in y.digits:
        kk = k + x.marker
        vals[kk] = vals.get(kk, 0) + v
    return _pack(m, vals, x.p, x.q)


def inverse(x):
    vals = {}
    for k, v in x.digits:
        vals[k - x.marker] = -v
    return _pack(-x.marker, vals, x.p, x.q)


def _flip(digits, k):
    vals = dict(digits)
    vals[k] = vals.get(k, 0) + 1
    return vals


def step(x, token):
    """One lamplighter generator step (tokens a, A, b, B)."""
    if token == "a":
        return GroupPoint(x.marker + 1, x.digits, x.p, x.q)
    if token == "A":
        return GroupPoint(x.marker - 1, x.digits, x.p, x.q)
    if token == "b":
        return _pack(x.marker + 1, _flip(x.digits, x.marker), x.p, x.q)
    if token == "B":
        return _pack(x.marker - 1, _flip(x.digits, x.marker - 1), x.p, x.q)
    raise ValueError("unknown generator %r" % (token,))


def dl_step(x, direction, i, j):
    """One DL(p,q) move along an (i,j)-labelled edge, 'up' or 'dn'."""
    if direction == "up":
        if x.digit(x.marker) != i:
            raise ValueError("no up-edge labelled (%r,%r) here" % (i, j))
        vals = dict(x.digits)
        vals[x.marker] = j
        return _pack(x.marker + 1, vals, x.p, x.q)
    if direction == "dn":
        if x.digit(x.marker - 1) != j:
            raise ValueError("no down-edge labelled (%r,%r) here" % (i, j))
        vals = dict(x.digits)
        vals[x.marker - 1] = i
        return _pack(x.marker - 1, vals, x.p, x.q)
    raise ValueError("direction must be 'up' or 'dn'")


def evaluate_word(word, p=2, q=2):
    """Evaluate a generator word left to right.

    The word is split on whitespace.  A token made only of the letters
    a, A, b and B is read letter by letter as lamplighter generators
    (so whitespace between letters is ignored); for DL, tokens up:i:j
    and dn:i:j are also accepted.
    """
    x = identity(p, q)
    for tok in word.split():
        if set(tok).issubset(GENERATORS):
            for letter in tok:
                x = step(x, letter)
            continue
        parts = tok.split(":")
        if len(parts) != 3 or parts[0] not in ("up", "dn"):
            raise ValueError("bad token %r" % (tok,))
        x = dl_step(x, parts[0], int(parts[1]), int(parts[2]))
    return x


def canonical(x):
    """Canonical form "(n; k1, k2, ...)" (lamplighter) or "(n; k:d, ...)"."""
    if x.p == 2 and x.q == 2:
        parts = ["%d" % k for k, _ in x.digits]
    else:
        parts = ["%d:%d" % (k, v) for k, v in x.digits]
    return "(%d;%s)" % (x.marker, " " + ", ".join(parts) if parts else "")


GENERATORS = ("a", "b", "A", "B")
GEN_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def cayley_label_graph():
    """One-vertex alphabet with edges a, b and their inverses A, B."""
    return rose(GENERATORS, GEN_INVERSE)


def dl_label_graph(p, q):
    """One-vertex alphabet with an up-edge per digit pair (i,j)."""
    spec = {}
    rev = {}
    for i in range(p):
        for j in range(q):
            add_edge_pair(spec, None, rev, ("up", i, j), ("dn", i, j), 1, 1)
    return alphabet([1], spec, rev)


def _dl_params(edge_ids):
    """(p, q) when the ids are DL edge labels ("up" or "dn", i, j), with
    i < p and j < q, else None: the one reader of DL alphabets."""
    ids = list(edge_ids)
    if ids and all(isinstance(e, tuple) and len(e) == 3
                   and e[0] in ("up", "dn") and isinstance(e[1], int)
                   and isinstance(e[2], int) for e in ids):
        return max(e[1] for e in ids) + 1, max(e[2] for e in ids) + 1
    return None


def dl_collapse_label(label):
    """The lamplighter reading of a DL(2,2) edge label."""
    direction, i, j = label
    if direction == "up":
        return "a" if i == j else "b"
    return "A" if i == j else "B"


def alphabet_label_graph(symbols, base):
    """Alphabet for graphs decorated by a symbol per vertex: one vertex per
    symbol, one (s, g, t)-edge per symbol pair and base-alphabet edge g.
    Unchecked: it is an alphabet for any symbols, as base's reversal g -> g'
    is an involution, and so is (s, g, t) -> (t, g', s)."""
    spec = {}
    rev = {} if base.reversal is not None else None
    symbols = sorted(symbols, key=repr)
    for g in base.edge_ids():
        for s in symbols:
            for t in symbols:
                spec[(s, g, t)] = (s, t)
                if rev is not None:
                    rev[(s, g, t)] = (t, base.reversal[g], s)
    return LabelGraph._trusted({s: s for s in symbols}, spec,
                               {e: e for e in spec}, rev, None)


# -- windows -----------------------------------------------------------------


@dataclass(eq=False)
class Window:
    """A finite induced piece of a Cayley or DL graph, with group points as
    vertex ids.

    The geometry is read off the graph's alphabet: mode, p, q are
    "cayley", 2, 2 over cayley_label_graph() and "dl", p, q over
    dl_label_graph(p, q), p, q >= 2; any other alphabet raises ValueError.

    Induced: every edge of the Cayley or DL graph between two window
    points is a window edge.  Each edge t -> h labelled lab has the id
    (t, lab), and its reversed twin the id (h, reversed lab).

    The window is numbered once, when it is made, and every layer above
    reads that form instead of sorting or hashing the points again:
    _points, the points in skey order (points()); _index, point ->
    number; _heads, label -> int row whose i-th entry is the head number
    of the edge (point i, label), or -1; and _cells, each complete
    height-1 cell as a tuple of point numbers, dl_cell_points of its base
    (lower points first, the base itself first), bases in point order.
    So a window's graph must not be changed after the window is made."""

    graph: LabelGraph

    def __post_init__(self):
        g = self.graph
        a = g.label_graph
        pq = _dl_params(a.edges) if a is not None else None
        if pq and min(pq) >= 2 and a == dl_label_graph(*pq):
            self.mode, (self.p, self.q) = "dl", pq
        elif a == cayley_label_graph():
            self.mode, self.p, self.q = "cayley", 2, 2
        else:
            raise ValueError("a window lies over the Cayley or a DL alphabet")
        self._points = pts = tuple(sorted(g.vlabel, key=skey))
        self._index = index = {pt: i for i, pt in enumerate(pts)}
        self._heads = heads = {lab: [-1] * len(pts) for lab in
                               sorted(a.edges, key=skey)}
        for (t, lab), (_, h) in g.edges.items():
            heads[lab][index[t]] = index[h]
        # a cell's upper points are the heads of up(0,j) out of its base,
        # its lower points those of dn(i,0) out of the first upper point;
        # on a Cayley window these labels read as a/b and A/B
        ups = [("up", 0, j) for j in range(self.q)]
        downs = [("dn", i, 0) for i in range(self.p)]
        if self.mode == "cayley":
            ups = [dl_collapse_label(lab) for lab in ups]
            downs = [dl_collapse_label(lab) for lab in downs]
        ups = [heads[lab] for lab in ups]
        downs = [heads[lab] for lab in downs]
        cells = []
        for b, pt in enumerate(pts):
            if pt.digit(pt.marker):
                continue
            upper = [row[b] for row in ups]
            if min(upper) < 0:
                continue
            lower = [row[upper[0]] for row in downs]
            if min(lower) >= 0:
                cells.append(tuple(lower + upper))
        self._cells = cells

    def points(self):
        return self._points

    def __contains__(self, pt):
        return pt in self.graph.vlabel


def point_neighbors(pt, mode):
    """All Cayley/DL neighbours of a point (whether or not in a window)."""
    if mode == "cayley":
        return [step(pt, g) for g in GENERATORS]
    out = []
    i = pt.digit(pt.marker)
    for j in range(pt.q):
        out.append(dl_step(pt, "up", i, j))
    j = pt.digit(pt.marker - 1)
    for i2 in range(pt.p):
        out.append(dl_step(pt, "dn", i2, j))
    return out


def _induced_graph(points, label_graph, forward):
    """The graph induced on points over label_graph.  forward(pt) lists
    (label, reversed label, neighbour) triples, one per edge pair; each
    neighbour inside gets the edge (pt, label) and its reversed twin
    (neighbour, reversed label).  Endpoints are the points' own objects, so
    later lookups of an endpoint compare by identity.  Unchecked: every
    caller's forward steps by a generator, injectively, with an edge pair of
    label_graph over its one vertex 1, so ids are distinct and twins swap."""
    own = {pt: pt for pt in points}
    vlabel = dict.fromkeys(own, 1)
    edges = {}
    elabel = {}
    rev = {}
    for pt in points:
        for lab, rlab, im in forward(pt):
            im = own.get(im)
            if im is not None:
                add_edge_pair(edges, elabel, rev, (pt, lab), (im, rlab),
                              pt, im, lab, rlab)
    return LabelGraph._trusted(vlabel, edges, elabel, rev, label_graph)


def _cayley_window(points, budget):
    if len(points) > budget:
        raise CapacityError("window exceeds %d vertices" % budget,
                            "window vertices", len(points), budget)
    return _induced_graph(points, cayley_label_graph(), lambda pt: [
        (g, GEN_INVERSE[g], step(pt, g)) for g in ("a", "b")])


def ball(r, budget=500000):
    """Word-metric ball of radius r around the identity."""
    if r < 0:
        raise ValueError("negative radius")
    seen = {identity()}
    frontier = [identity()]
    for _ in range(r):
        nxt = []
        for pt in frontier:
            for g in GENERATORS:
                im = step(pt, g)
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        if len(seen) > budget:
            raise CapacityError("ball exceeds %d vertices" % budget,
                                "ball vertices", len(seen), budget)
        frontier = nxt
    return Window(_cayley_window(seen, budget))


def tetrahedron(lo, hi, budget=500000):
    """All points with marker in [lo,hi] and lamp support inside (lo,hi)."""
    if lo > hi:
        raise ValueError("empty height range")
    positions = list(range(lo, hi))
    count = (hi - lo + 1) * 2 ** len(positions)
    if count > budget:
        raise CapacityError("tetrahedron exceeds %d vertices" % budget,
                            "tetrahedron vertices", count, budget)
    points = []
    for n in range(lo, hi + 1):
        for size in range(len(positions) + 1):
            for supp in itertools.combinations(positions, size):
                points.append(GroupPoint(n, tuple((k, 1) for k in supp)))
    return Window(_cayley_window(points, budget))


def dl_window(p, q, lo, hi, budget=500000):
    """The DL(p,q) analogue of a tetrahedron: markers in [lo,hi], digit
    support inside (lo,hi)."""
    if p < 2 or q < 2:
        raise ValueError("p, q must be at least 2")
    if lo > hi:
        raise ValueError("empty height range")
    count = sum(q ** (n - lo) * p ** (hi - n) for n in range(lo, hi + 1))
    if count > budget:
        raise CapacityError("window exceeds %d vertices" % budget,
                            "window vertices", count, budget)
    points = []
    for n in range(lo, hi + 1):
        below = list(range(lo, n))
        above = list(range(n, hi))
        ranges = [range(q)] * len(below) + [range(p)] * len(above)
        for combo in itertools.product(*ranges):
            digits = tuple((k, v) for k, v in zip(below + above, combo) if v)
            points.append(GroupPoint(n, digits, p, q))

    def up_edges(pt):
        if pt.marker >= hi:
            return ()
        i = pt.digit(pt.marker)
        return [(("up", i, j), ("dn", i, j), dl_step(pt, "up", i, j))
                for j in range(q)]

    return Window(_induced_graph(points, dl_label_graph(p, q), up_edges))


def _inside(window, d):
    """Per point number, whether all its walks of length <= d stay inside
    the window: the first round drops the boundary, the points with fewer
    edges out in the window than the full degree p + q (4 on a Cayley
    window), and each later one the points with a window neighbour (an
    edge's head) dropped before."""
    nbrs = [[] for _ in window._points]
    for row in window._heads.values():
        for i, h in enumerate(row):
            if h >= 0:
                nbrs[i].append(h)
    if d <= 0:
        return [True] * len(nbrs)
    inside = [len(hs) >= window.p + window.q for hs in nbrs]
    for _ in range(d - 1):
        inside = [ok and all([inside[h] for h in hs])
                  for ok, hs in zip(inside, nbrs)]
    return inside


def boundary_vertices(window):
    """Window vertices with at least one graph neighbour outside."""
    return {pt for pt, ok in zip(window._points, _inside(window, 1))
            if not ok}


def interior_vertices(window, d):
    """Vertices all of whose walks of length <= d stay inside the window."""
    return {pt for pt, ok in zip(window._points, _inside(window, d)) if ok}


# -- height-1 cells -----------------------------------------------------------


def cell_points(g):
    """The height-1 cell read from g: (g, g ab^-1, g a, g b).

    At a base (no lamp at the marker position) this is dl_cell_points(g),
    lower points then upper; at a point whose marker lamp is lit it is the
    other reading of the same cell, with each pair swapped."""
    return (g, multiply(g, evaluate_word("aB")),
            step(g, "a"), step(g, "b"))


def dl_cell_points(g):
    """The cell at a base point g (marker n, digit 0 at position n): p lower
    points followed by q upper points, each in digit order at position n.
    On the lamplighter, DL(2,2), these are the four points of
    cell_points(g) in its order."""
    vals = dict(g.digits)
    lower = []
    for i in range(g.p):
        vals[g.marker] = i
        lower.append(_pack(g.marker, vals, g.p, g.q))
    upper = []
    for j in range(g.q):
        vals[g.marker] = j
        upper.append(_pack(g.marker + 1, vals, g.p, g.q))
    return tuple(lower), tuple(upper)


def window_cells(window):
    """Base points of the complete cells inside the window, sorted by repr.
    A base is a point with digit 0 at its marker position, and its cell is
    dl_cell_points(base), in Cayley and DL windows alike; the cells are
    read off the window's edges once, when the window is made."""
    pts = window._points
    return [pts[cell[0]] for cell in window._cells]


# -- grid windows ---------------------------------------------------------------


PLANE_DIRS = ("E", "N", "W", "S")
PLANE_INVERSE = {"E": "W", "W": "E", "N": "S", "S": "N"}
PLANE_STEP = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


def plane_label_graph():
    return rose(PLANE_DIRS, PLANE_INVERSE)


QUADRANT_LABELS = ("NE", "NES", "NEW", "NESW")


def quadrant_vertex_label(x, y):
    lab = "NE"
    if y > 0:
        lab += "S"
    if x > 0:
        lab += "W"
    return lab


def grid_alphabet(labels, moves):
    """Alphabet over labelled grid vertices.  moves maps E and N to the
    (tail label, head label) pairs such an edge may join; each pair also
    gets its W or S twin, reversed."""
    spec = {}
    rev = {}
    for d, pairs in moves.items():
        di = PLANE_INVERSE[d]
        for s, t in pairs:
            add_edge_pair(spec, None, rev, (d, s, t), (di, t, s), s, t)
    return alphabet(list(labels), spec, rev)


def quadrant_label_graph():
    """Alphabet for the quarter plane: a vertex knows which of the four
    directions point to more quarter plane."""
    return grid_alphabet(QUADRANT_LABELS, {
        "E": [("NE", "NEW"), ("NEW", "NEW"), ("NES", "NESW"),
              ("NESW", "NESW")],
        "N": [("NE", "NES"), ("NES", "NES"), ("NEW", "NESW"),
              ("NESW", "NESW")]})


def grid_patch(points, vertex_label=None, label_graph=None):
    """The grid graph induced on a set of (x, y) points: an E or N edge,
    with its W or S twin, between each pair of unit neighbours.

    Without vertex_label the patch lies over plane_label_graph(), with
    vertex label 1 and bare direction edge labels.  With it, vertex (x, y)
    is labelled vertex_label(x, y) and an edge (direction, tail label, head
    label) over label_graph (see grid_alphabet)."""
    if vertex_label is None:
        label_graph = plane_label_graph()
        vlabel = {pt: 1 for pt in points}
    else:
        vlabel = {pt: vertex_label(*pt) for pt in points}
    edges = {}
    elabel = {}
    rev = {}
    for s in sorted(vlabel):
        for d in ("E", "N"):
            dx, dy = PLANE_STEP[d]
            t = (s[0] + dx, s[1] + dy)
            if t in vlabel:
                di = PLANE_INVERSE[d]
                if vertex_label is None:
                    lab, rlab = d, di
                else:
                    lab = (d, vlabel[s], vlabel[t])
                    rlab = (di, vlabel[t], vlabel[s])
                add_edge_pair(edges, elabel, rev, (s, d), (t, di), s, t,
                              lab, rlab)
    return LabelGraph(vlabel, edges, elabel, rev, label_graph)


def plane_window(xlo, xhi, ylo, yhi):
    """Grid patch [xlo,xhi] x [ylo,yhi] of the plane, over the one-vertex
    E/N/W/S alphabet."""
    return grid_patch([(x, y) for x in range(xlo, xhi + 1)
                       for y in range(ylo, yhi + 1)])


def quadrant_window(w, h):
    """Grid patch [0,w) x [0,h) of the quarter plane, over the quadrant
    alphabet (vertex labels say which directions stay in the quarter)."""
    return grid_patch([(x, y) for x in range(w) for y in range(h)],
                      quadrant_vertex_label, quadrant_label_graph())
