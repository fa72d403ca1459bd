"""Tile systems: Wang tiles and tetrahedron systems on the lamplighter
group, their Diestel-Leader variants, target graphs for hom-shifts, the
conversions between all three, and the concrete builtin systems (the comb,
the one-directional rays, and the sea-level family).

Conventions.  A Wang tile is a 4-tuple of edge colours in direction order
(a, b, a-inverse, b-inverse); two tiles match along an a-edge when the first
coordinate of the tail tile equals the third of the head tile, and likewise
b against fourth.  A tetrahedron system constrains the height-1 cells
(g, g a b^-1, g a, g b); since the same cell is read from both of its lower
points, a constraint set is only meaningful once it is closed under swapping
(positions 1,2) and (3,4), and construction enforces that closure by
intersection.  DL systems constrain the (p+q)-point cells of DL(p,q), lower
points first, ordered by digit value; these cells have a single reading, so
no closure is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import shlex
import warnings

from .graphs import (LabelGraph, add_edge_pair, read_lines, rose, skey,
                     _fmt, _naming_line, _parse_token)
from .geometry import (GEN_INVERSE, GroupPoint, evaluate_word,
                       cayley_label_graph)


# The Wang side rule of the docstring above: per generator g, the sides
# (i, j) such that side i of a g-edge's tail tile meets side j of its head's.
_WANG_SIDES = {"a": (0, 2), "b": (1, 3)}


def _swap(t):
    return (t[1], t[0], t[3], t[2])


@dataclass(eq=True)
class WangTileset:
    """Finite set of diamond tiles over an edge-colour set.

    tiles is an ordered tuple of 4-tuples (a, b, a^-1, b^-1); tile ids are
    positions in it.  seeds pins tiles at points: tuple of (GroupPoint, id).
    """

    colors: frozenset
    tiles: tuple
    seeds: tuple = ()
    names: tuple | None = None

    def __post_init__(self):
        self.colors = frozenset(self.colors)
        self.tiles = tuple(tuple(t) for t in self.tiles)
        self.seeds = tuple(self.seeds)
        for t in self.tiles:
            _check_tile(t, 4, self.colors)
        if len(set(self.tiles)) != len(self.tiles):
            raise ValueError("duplicate tiles")
        if self.names is not None and len(self.names) != len(self.tiles):
            raise ValueError("names do not match tiles")
        _check_seeds(self.seeds, len(self.tiles))


@dataclass(eq=True)
class TetraSystem:
    """Vertex colours constrained on height-1 cells.

    mode "cayley", p = q = 2: cells are the lamplighter (g, g a b^-1, g a,
    g b) and allowed is closed under the two-base swap (closure by
    intersection, with a warning, since a tuple whose swap is missing can
    never occur anyway).  mode "dl", p, q >= 2: cells are the DL(p,q)
    cells, p lower points then q upper.  Windows must match (mode, p, q)."""

    alphabet: tuple
    allowed: frozenset
    seeds: tuple = ()
    mode: str = "cayley"
    p: int = 2
    q: int = 2
    names: tuple | None = None

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        self.allowed = frozenset(tuple(t) for t in self.allowed)
        self.seeds = tuple(self.seeds)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate symbols")
        if not ((self.mode, self.p, self.q) == ("cayley", 2, 2)
                or self.mode == "dl" and min(self.p, self.q) >= 2):
            raise ValueError("(mode, p, q) must be ('cayley', 2, 2) or "
                             "('dl', p, q) with p, q >= 2")
        n = self.arity()
        ok = set(self.alphabet)
        for t in self.allowed:
            _check_tile(t, n, ok, "cell tuple")
        if self.mode == "cayley":
            closed = frozenset(t for t in self.allowed
                               if _swap(t) in self.allowed)
            if closed != self.allowed:
                warnings.warn("cell constraints not swap-closed; dropping "
                              "%d unusable tuples" %
                              (len(self.allowed) - len(closed)))
                self.allowed = closed
        if self.names is not None and len(self.names) != len(self.alphabet):
            raise ValueError("names do not match alphabet")
        _check_seeds(self.seeds, len(self.alphabet))

    def arity(self):
        return self.p + self.q


@dataclass(eq=True)
class DhsTarget:
    """A finite labelled graph as tiling target; tiles are its vertices in
    deterministic order."""

    graph: LabelGraph
    seeds: tuple = ()

    def __post_init__(self):
        self.seeds = tuple(self.seeds)
        _check_seeds(self.seeds, self.graph.num_vertices())


def _check_tile(t, n, symbols, what="tile"):
    if len(t) != n or any(x not in symbols for x in t):
        raise ValueError("bad %s %r" % (what, t))


def _check_seeds(seeds, ntiles):
    for pt, idx in seeds:
        if not isinstance(pt, GroupPoint):
            raise ValueError("seed location %r is not a group point" % (pt,))
        if not 0 <= idx < ntiles:
            raise ValueError("seed tile %r out of range" % (idx,))


def tile_count(ts):
    return len(decoration_symbols(ts))


def tile_label(ts, idx):
    """Display string for a tile id: its name when one was given."""
    if getattr(ts, "names", None):
        return ts.names[idx]
    return repr(decoration_symbols(ts)[idx])


def parse_tile_ref(ts, token):
    """A tile id from user input: a 0-based index or a builtin tile name."""
    names = getattr(ts, "names", None)
    if names and token in names:
        return names.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise ValueError("unknown tile %r" % (token,))
    if not 0 <= idx < tile_count(ts):
        raise ValueError("tile id %d out of range" % idx)
    return idx


def decoration_symbols(ts):
    """Concrete per-tile symbols, indexed like tile ids.

    These are the values a decorated window carries as vertex labels:
    tile names when given, otherwise the tiles themselves.
    """
    if isinstance(ts, WangTileset):
        return tuple(ts.names) if ts.names else tuple(ts.tiles)
    if isinstance(ts, TetraSystem):
        return tuple(ts.alphabet)
    return tuple(ts.graph.vertices())


# -- conversions ---------------------------------------------------------------


def wang_to_tetra(w):
    """Cell constraints equivalent to a Wang tileset: the cell colours are
    the tiles themselves and a cell is allowed when its four internal edges
    match."""
    allowed = set()
    for al, ga in itertools.product(w.tiles, repeat=2):
        if al[0] != ga[2]:
            continue
        for be, de in itertools.product(w.tiles, repeat=2):
            if be[0] == de[2] and al[1] == de[3] and be[1] == ga[3]:
                allowed.add((al, be, ga, de))
    return TetraSystem(w.tiles, frozenset(allowed), w.seeds,
                       names=w.names)


def tetra_to_wang(t):
    """Wang tiles equivalent to a cell system: a tile records the cell above
    and the cell below a point, which must agree on the point's colour."""
    if t.mode != "cayley":
        raise ValueError("only lamplighter cell systems convert to tiles")
    if t.seeds:
        raise ValueError("seeds do not transport through this conversion; "
                         "re-seed the result")
    cells = sorted(t.allowed, key=skey)
    tiles = []
    for above in cells:
        for below in cells:
            if above[0] == below[2]:
                tiles.append((above, above, below, _swap(below)))
    return WangTileset(frozenset(cells), tuple(tiles))


def wang_to_dhs(w):
    """The target graph whose homomorphisms from a window are exactly its
    Wang tilings: one vertex per tile, one a/b-edge per matching pair."""
    base = cayley_label_graph()
    vlabel = {t: 1 for t in w.tiles}
    edges = {}
    elabel = {}
    rev = {}
    for g, (i, j) in _WANG_SIDES.items():
        gi = GEN_INVERSE[g]
        for s in w.tiles:
            for t in w.tiles:
                if s[i] == t[j]:
                    add_edge_pair(edges, elabel, rev, (s, g, t), (t, gi, s),
                                  s, t, g, gi)
    graph = LabelGraph(vlabel, edges, elabel, rev, base)
    order = graph.vertices()
    seeds = tuple((pt, order.index(w.tiles[idx])) for pt, idx in w.seeds)
    return DhsTarget(graph, seeds)


def sft_words(gens, n):
    """All words of length at most n over the generator tuple, in (length,
    position) order; patterns are symbol tuples aligned with this list."""
    out = []
    for k in range(n + 1):
        out.extend(itertools.product(gens, repeat=k))
    return out


def sft_to_dhs(gens, n, symbols, allowed):
    """Pattern graph of a word SFT: one vertex per allowed pattern and an
    s-edge P -> P' whenever P' agrees with P shifted by s."""
    words = sft_words(gens, n)
    pos = {w: i for i, w in enumerate(words)}
    short = sft_words(gens, n - 1) if n > 0 else []
    base = rose(gens)
    allowed = sorted(set(allowed), key=skey)
    for p in allowed:
        if len(p) != len(words) or any(x not in symbols for x in p):
            raise ValueError("bad pattern %r" % (p,))
    vlabel = {p: 1 for p in allowed}
    edges = {}
    elabel = {}
    for p in allowed:
        for s in gens:
            for p2 in allowed:
                if all(p2[pos[w]] == p[pos[(s,) + w]] for w in short):
                    e = (p, s, p2)
                    edges[e] = (p, p2)
                    elabel[e] = s
    return DhsTarget(LabelGraph(vlabel, edges, elabel, None, base))


def dhs_to_sft(target):
    """Radius-1 word SFT of an oriented target graph: patterns record a
    vertex and one successor choice per generator."""
    g = target.graph
    if g.reversal is not None:
        raise ValueError("expected an oriented target")
    gens = tuple(sorted({g.elabel[e] for e in g.edges}, key=skey))
    succ = {(g.tail(e), g.elabel[e], g.head(e)) for e in g.edges}
    symbols = tuple(g.vertices())
    words = sft_words(gens, 1)
    allowed = set()
    for combo in itertools.product(symbols, repeat=len(words)):
        p = dict(zip(words, combo))
        if all((p[()], s, p[(s,)]) in succ for s in gens):
            allowed.add(combo)
    return gens, 1, symbols, frozenset(allowed)


# -- builtin systems -----------------------------------------------------------


COMB_TILE_NAMES = ("spine", "tooth", "web", "antitooth", "above", "below")


def comb_tileset():
    """Six Wang tiles marking a spine line with teeth rays above and
    antiteeth rays below it."""
    tiles = (("a", "b", "a", "d"),   # spine
             ("t", "b", "s", "b"),   # tooth
             ("s", "o", "s", "o"),   # web
             ("s", "d", "r", "d"),   # antitooth
             ("t", "o", "t", "o"),   # above
             ("r", "o", "r", "o"))   # below
    return WangTileset(frozenset("abdorst"), tiles, names=COMB_TILE_NAMES)


def _bool_quads(rule):
    out = set()
    for t in itertools.product((False, True), repeat=4):
        if rule(*t) and rule(*_swap(t)):
            out.add(t)
    return frozenset(out)


def ray_left_system():
    """Marked points propagate up both ways and continue down one way: the
    marked set is a left-pointing ray bundle."""
    def rule(al, be, ga, de):
        return ((not (al or be) or (ga and de))
                and (not (ga or de) or (al != be)))
    return TetraSystem((False, True), _bool_quads(rule))


def ray_right_system():
    """Mirror of the left ray: up one way, down both ways."""
    def rule(al, be, ga, de):
        return ((not (al or be) or (ga != de))
                and (not (ga or de) or (al and be)))
    return TetraSystem((False, True), _bool_quads(rule))


def product_tileset(t1, t2, joint=None):
    """Componentwise product of two cell systems, filtered by an optional
    joint constraint: a callable on a pair of component cells that says
    whether they may sit together.  The joint is applied in both cell
    readings, so the result is swap-closed whenever the factors are.
    """
    if t1.mode != "cayley" or t2.mode != "cayley":
        raise ValueError("products are for lamplighter cell systems")
    ok = joint if joint is not None else lambda c1, c2: True
    symbols = tuple((x, y) for x in t1.alphabet for y in t2.alphabet)
    allowed = set()
    for c1 in t1.allowed:
        for c2 in t2.allowed:
            if (ok(c1, c2) and ok(_swap(c1), _swap(c2))):
                allowed.add(tuple(zip(c1, c2)))
    return TetraSystem(symbols, frozenset(allowed))


def lr_system():
    """Left and right rays forced to share their marked line: doubly-marked
    points persist along the a-direction."""
    def joint(c1, c2):
        al = (c1[0], c2[0])
        ga = (c1[2], c2[2])
        return (al == (True, True)) == (ga == (True, True))
    return product_tileset(ray_left_system(), ray_right_system(), joint)


SEA_SYMBOLS = ("NW", "UP", "NE", "SEA", "SW", "DN", "SE")
_LEVEL = {"NW": 1, "UP": 1, "NE": 1, "SEA": 0, "SW": -1, "DN": -1, "SE": -1}


def sea_system():
    """Sea-level cells: a marked level with a binary tree above each column
    and below each row, in free directions."""
    def rule(t):
        al, be, ga, de = t
        if _LEVEL[al] != _LEVEL[be] or _LEVEL[ga] != _LEVEL[de]:
            return False
        if _LEVEL[ga] - _LEVEL[al] not in (0, 1):
            return False
        if al == "SEA" and {ga, de} != {"NW", "NE"}:
            return False
        if ga == "SEA" and {al, be} != {"SW", "SE"}:
            return False
        if _LEVEL[al] == 1 and not (be == al and {ga, de} == {"UP", al}):
            return False
        if _LEVEL[ga] == -1 and not (de == ga and {al, be} == {"DN", ga}):
            return False
        return True

    allowed = {t for t in itertools.product(SEA_SYMBOLS, repeat=4)
               if rule(t) and rule(_swap(t))}
    return TetraSystem(SEA_SYMBOLS, frozenset(allowed))


def sea_level_system():
    """The full sea-level system: the doubly-marked line of lr_system pins
    the tree directions, leaving a rigid grid at the marked level."""
    def joint(c1, c2):
        al_lr, ga_lr = c1[0], c1[2]
        al_s, be_s, ga_s, de_s = c2
        if al_lr[0]:
            if al_s == "SEA" and not (ga_s == "NW" and de_s == "NE"):
                return False
            if al_s == "NW" and ga_s != "NW":
                return False
            if al_s == "NE" and de_s != "NE":
                return False
        if ga_lr[1]:
            if ga_s == "SEA" and not (al_s == "SW" and be_s == "SE"):
                return False
            if ga_s == "SW" and al_s != "SW":
                return False
            if ga_s == "SE" and be_s != "SE":
                return False
        return True
    return product_tileset(lr_system(), sea_system(), joint)


def dl_ray_system(p, q):
    """DL(p,q) version of the left ray: a marked lower point forces every
    upper point, and any marked upper point forces exactly one lower."""
    if p < 2 or q < 2:
        raise ValueError("p, q must be at least 2")
    allowed = set()
    for t in itertools.product((False, True), repeat=p + q):
        lows, ups = t[:p], t[p:]
        if any(lows) and not all(ups):
            continue
        if any(ups) and sum(lows) != 1:
            continue
        allowed.add(t)
    return TetraSystem((False, True), frozenset(allowed), mode="dl", p=p, q=q)


def builtin_tileset(name):
    """A builtin system by name; dl_ray takes parameters as dl_ray:p:q."""
    parts = name.split(":")
    fixed = {"comb": comb_tileset, "ray_left": ray_left_system,
             "ray_right": ray_right_system, "omega_lr": lr_system,
             "omega_sea": sea_system, "omega_full": sea_level_system}
    if parts[0] in fixed:
        if len(parts) != 1:
            raise ValueError("%s takes no parameters" % parts[0])
        return fixed[parts[0]]()
    if parts[0] == "dl_ray":
        if len(parts) != 3:
            raise ValueError("expected dl_ray:p:q")
        return dl_ray_system(int(parts[1]), int(parts[2]))
    raise ValueError("unknown builtin tileset %r" % (name,))


BUILTIN_TILESETS = ("comb", "ray_left", "ray_right", "omega_lr", "omega_sea",
                    "omega_full", "dl_ray:p:q")


# -- reference configurations ---------------------------------------------------


def lamp_runs(pt):
    """Maximal runs of lit lamps, as (lowest, highest) stored positions."""
    runs = []
    for k, _ in pt.digits:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return [tuple(r) for r in runs]


def on_comb_spine_region(pt):
    """Whether the lamp state is a single contiguous run (or no lamps):
    the points where the comb geometry determines the tile."""
    return len(lamp_runs(pt)) <= 1


def comb_configuration(pt):
    """Tile id of the reference comb tiling: spine on the lamp-free line,
    teeth, webs and antiteeth along single lamp runs, background elsewhere."""
    runs = lamp_runs(pt)
    if not runs:
        return 0                                   # spine
    if len(runs) > 1:
        return 4                                   # above (background)
    (low, high), n = runs[0], pt.marker
    if n == high + 1:
        return 1                                   # tooth
    if n == low:
        return 3                                   # antitooth
    if low < n <= high:
        return 2                                   # web
    if n > high + 1:
        return 4                                   # above
    return 5                                       # below


def lr_configuration(pt):
    """The doubly-marked-line colours: (no lamp at or above the marker,
    no lamp below the marker)."""
    return (all(k < pt.marker for k, _ in pt.digits),
            all(k >= pt.marker for k, _ in pt.digits))


def omega_configuration(pt):
    """The unique sea-level configuration seeded at the identity."""
    n = pt.marker
    if n == 0:
        arrow = "SEA"
    elif n > 0:
        vals = [pt.digit(k) for k in range(0, n)]
        if not any(vals):
            arrow = "NW"
        elif all(vals):
            arrow = "NE"
        else:
            arrow = "UP"
    else:
        vals = [pt.digit(k) for k in range(n, 0)]
        if not any(vals):
            arrow = "SW"
        elif all(vals):
            arrow = "SE"
        else:
            arrow = "DN"
    return (lr_configuration(pt), arrow)


# -- window constraint scopes ----------------------------------------------------


def window_scopes(ts, window):
    """Fully-contained constraint scopes of a tileset over a window, as
    (vertex tuple, set of allowed tile-id tuples) pairs, deterministically
    ordered.  Edge scopes are emitted once per reversal orbit, in
    edge_ids() order, read off the window's numbered form as points()
    order times labels in skey order; cell scopes once per cell, as
    dl_cell_points of its base (window_cells), lower points first, which
    on the lamplighter is the DL(2,2) cell."""
    pts = window.points()
    return [(tuple([pts[i] for i in scope]), allowed)
            for scope, allowed in _scopes(ts, window)]


def _scopes(ts, window):
    """window_scopes with each point given by its number in the window."""
    have = (window.mode, window.p, window.q)
    want = (("cayley", 2, 2) if isinstance(ts, WangTileset) else have
            if isinstance(ts, DhsTarget) else (ts.mode, ts.p, ts.q))
    if want != have:
        raise ValueError("a %s needs a %r window, not %r"
                         % (type(ts).__name__, want, have))
    if isinstance(ts, WangTileset):
        pairs = {lab: frozenset((s, t) for s, x in enumerate(ts.tiles)
                                for t, y in enumerate(ts.tiles) if x[i] == y[j])
                 for lab, (i, j) in _WANG_SIDES.items()}
        return [(th, pairs[lab]) for lab, th in _window_edges(window, pairs)]
    if isinstance(ts, TetraSystem):
        index = {x: i for i, x in enumerate(ts.alphabet)}
        allowed = frozenset(tuple(index[x] for x in t) for t in ts.allowed)
        return [(cell, allowed) for cell in window._cells]
    g = ts.graph
    order = {v: i for i, v in enumerate(g.vertices())}
    by_label = {}
    for e in g.edge_ids():
        by_label.setdefault(g.elabel[e], set()).add(
            (order[g.tail(e)], order[g.head(e)]))
    # each reversal orbit is one edge and its twin back, and the first of
    # the two in edge_ids() order is the one whose tail comes first
    return [(th, frozenset(by_label.get(lab, ())))
            for lab, th in _window_edges(window, window._heads)
            if th[0] < th[1]]


def _window_edges(window, labels):
    """(label, (tail, head)) of each window edge with a label in labels,
    as point numbers, in points() order and then labels in skey order.
    Window edge ids are (tail, label), so this is edge_ids() order."""
    rows = [(lab, window._heads[lab]) for lab in sorted(labels, key=skey)]
    return [(lab, (i, row[i])) for i in range(len(window._points))
            for lab, row in rows if row[i] >= 0]


def vertex_candidates(ts, window, pt):
    """Tile ids a window vertex may carry before any edge or cell
    constraints; only target graphs with vertex labels restrict this."""
    if isinstance(ts, DhsTarget):
        g = ts.graph
        want = window.graph.vlabel[pt]
        return [i for i, v in enumerate(g.vertices()) if g.vlabel[v] == want]
    return list(range(tile_count(ts)))


def _candidates(ts, window):
    """vertex_candidates of each point as a tuple, in points() order;
    computed once per vertex label, which is all they depend on."""
    vlabel = window.graph.vlabel
    by_label = {}
    out = []
    for pt in window.points():
        cs = by_label.get(vlabel[pt])
        if cs is None:
            cs = by_label[vlabel[pt]] = tuple(vertex_candidates(ts, window,
                                                                pt))
        out.append(cs)
    return out


def tiling_ok(window, ts, assignment, extra_seeds=()):
    """Re-validate an assignment against the raw window constraints."""
    pts = window.points()
    if len(assignment) != len(pts):
        return False
    # a point missing from the assignment reads None, no candidate
    tiles = [assignment.get(pt) for pt in pts]
    for t, cs in zip(tiles, _candidates(ts, window)):
        if t not in cs:
            return False
    for scope, allowed in _scopes(ts, window):
        if tuple([tiles[i] for i in scope]) not in allowed:
            return False
    for pt, idx in tuple(ts.seeds) + tuple(extra_seeds):
        if pt not in window.graph.vlabel or assignment[pt] != idx:
            return False
    return True


# -- random instances ------------------------------------------------------------


def random_wang_tileset(rng, ncolors=2, ntiles=4):
    """A small random Wang tileset (deterministic under a seeded rng)."""
    colors = tuple("c%d" % i for i in range(ncolors))
    tiles = set()
    guard = 0
    while len(tiles) < ntiles:
        tiles.add(tuple(rng.choice(colors) for _ in range(4)))
        guard += 1
        if guard > 1000:
            break
    return WangTileset(frozenset(colors), tuple(sorted(tiles)))


def random_tetra_system(rng, nsymbols=2, density=0.5):
    """A small random swap-closed cell system."""
    symbols = tuple(range(nsymbols))
    allowed = set()
    for t in itertools.product(symbols, repeat=4):
        if _swap(t) in allowed or rng.random() < density:
            allowed.add(t)
            allowed.add(_swap(t))
    return TetraSystem(symbols, frozenset(allowed))


# -- file format -----------------------------------------------------------------


def tileset_to_text(ts):
    """Line format: kind, colour/alphabet list, one line per tile or cell,
    seeds as generator words.  DL systems add a params line, and named
    tiles or symbols a names line."""
    if isinstance(ts, WangTileset):
        lines = ["kind wang", "colors " + " ".join(
            map(_fmt, sorted(ts.colors, key=skey)))]
        lines += ["tile " + " ".join(map(_fmt, t)) for t in ts.tiles]
    elif isinstance(ts, TetraSystem):
        lines = (["kind tetra"] if ts.mode == "cayley"
                 else ["kind dl", "params %d %d" % (ts.p, ts.q)])
        lines.append("alphabet " + " ".join(map(_fmt, ts.alphabet)))
        lines += ["tetra " + " ".join(map(_fmt, t))
                  for t in sorted(ts.allowed, key=skey)]
    else:
        raise ValueError("cannot serialize %r" % type(ts).__name__)
    if ts.names is not None:
        lines.append(" ".join(["names"] + [_fmt(x) for x in ts.names]))
    for pt, idx in ts.seeds:
        lines.append("seed %s %d" % (shlex.quote(_point_word(pt)), idx))
    return "\n".join(lines) + "\n"


def _point_word(pt):
    """A generator word evaluating to the point.

    Lamplighter: walk to each lit lamp, light it, walk to the marker.
    DL: descend to the lowest needed level writing zeros, ascend writing the
    below-marker digits, then descend to the marker writing the rest.
    """
    if (pt.p, pt.q) == (2, 2):
        word = []
        here = 0
        for k, _ in pt.digits:
            word.append("a" * (k - here) if k >= here else "A" * (here - k))
            word.append("bA")
            here = k
        k = pt.marker
        word.append("a" * (k - here) if k >= here else "A" * (here - k))
        return "".join(word) or "aA"
    m = pt.marker
    positions = [k for k, _ in pt.digits]
    lo = min([0, m] + positions)
    hi = max([0, m] + [k + 1 for k in positions])
    toks = ["dn:0:0"] * (0 - lo)
    for k in range(lo, hi):
        toks.append("up:0:%d" % (pt.digit(k) if k < m else 0))
    for k in range(hi - 1, m - 1, -1):
        toks.append("dn:%d:0" % pt.digit(k))
    return " ".join(toks) or "up:0:0 dn:0:0"


def tileset_from_text(text):
    """Read tileset_to_text's format; '#' starts a comment.  Keys: kind (1
    value: wang, tetra or dl), params (2: p, q; kind dl only), colors and
    tile (Wang: a colour per side) or alphabet and tetra (cell systems: a
    symbol per cell point), names (one per tile or symbol) and seed (2: a
    generator word, a tile index).  All but tile, tetra and seed are
    once-only, and a line of the other kind's keys is an error.  A fault
    on a line is a ValueError naming that line."""
    what = "tileset"
    records = read_lines(text, what, {
        "kind": (1,), "params": (2,), "colors": None, "alphabet": None,
        "names": None, "tile": None, "tetra": None, "seed": (2,)},
        ("kind", "params", "colors", "alphabet", "names"))
    line = {key: (raw, values) for raw, key, values in records}
    if "kind" not in line:
        raise ValueError("missing kind line")
    raw, (kind,) = line["kind"]
    with _naming_line(what, raw):
        if kind not in ("wang", "tetra", "dl"):
            raise ValueError("unknown kind %r" % (kind,))
    p = q = 2
    if "params" in line:
        raw, values = line["params"]
        with _naming_line(what, raw):
            p, q = map(int, values)
            if min(p, q) < 2:
                raise ValueError("p, q must be at least 2")
            if kind != "dl":
                raise ValueError("params need kind dl")
    key, tile_key = (("colors", "tile") if kind == "wang"
                     else ("alphabet", "tetra"))
    if key not in line:
        raise ValueError("missing %s line" % key)
    symbols = [_parse_token(t) for t in line[key][1]]
    stray = {"colors", "alphabet", "tile", "tetra"} - {key, tile_key}
    tiles = {}  # tile or cell tuple -> None, in line order
    for raw, key, values in records:
        with _naming_line(what, raw):
            if key in stray:
                raise ValueError("%s line in a kind %s file" % (key, kind))
            if key == tile_key:
                tile = tuple(map(_parse_token, values))
                if tile in tiles:
                    raise ValueError("repeated %s" % key)
                _check_tile(tile, p + q, symbols, key)
                tiles[tile] = None
    count = len(tiles) if kind == "wang" else len(symbols)
    names, seeds = None, []
    for raw, key, values in records:
        with _naming_line(what, raw):
            if key == "names":
                names = tuple(map(_parse_token, values))
                if len(names) != count:
                    raise ValueError("%d names for %d tiles"
                                     % (len(names), count))
            elif key == "seed":
                seeds.append((evaluate_word(values[0], p, q),
                              int(values[1])))
                _check_seeds(seeds[-1:], count)
    if kind == "wang":
        return WangTileset(frozenset(symbols), tuple(tiles), seeds, names)
    return TetraSystem(tuple(symbols), frozenset(tiles), seeds,
                       "cayley" if kind == "tetra" else "dl", p, q, names)
