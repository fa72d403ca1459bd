"""Simulators: finite translation devices between labelled-graph alphabets.

A simulator from alphabet A to alphabet B is a finite graph carrying two
labellings: one over the path subdivision of B (so each state either sits
over a B-vertex, a "settled" state, or over an edge midpoint, an "in
transit" state) and one over A.  Applying a simulator to a window labelled
over A pulls the window back along the A-labelling and flattens the result:
coherent chains of transit states collapse into single B-edges between
settled pairs.  That composite, flat(alpha_pullback(...)), is the
definition and the tests' reference; apply_simulator computes it as one
walk over numbered (point, state) pairs and never builds the pullback.

The same data can be repackaged as a graph-walking automaton: one
relabelling of the A-vertices plus, per B-edge, a finite word acceptor whose
accepted walks through the window trace out the simulated edges.  flat is
one such walker, run by gwa_simulated_graph: per B-edge c it accepts the
coherent paths (0,c,0) | (0,c,1)(1,c,1)*(1,c,0).  Both directions of the
repackaging live here, together with simulator composition and the
concrete simulators the rest of the package uses.

Everything is finite and windows have boundaries, so every operation that
walks a window also reports which output vertices may be missing edges
because a walk left the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    LabelGraph,
    Morphism,
    add_edge_pair,
    alpha_pullback,
    base_of_subdivision,
    labelled,
    path_subdivision,
    read_lines,
    simplify,
    skey,
    vertex_blowup,
    _cell_lines,
    _dot,
    _edge_labels,
    _fmt,
    _naming_line,
    _parse_token,
    _read_cells,
)
from .geometry import (
    Window,
    alphabet_label_graph,
    boundary_vertices,
    cayley_label_graph,
    dl_label_graph,
    grid_patch,
    plane_label_graph,
    quadrant_label_graph,
    quadrant_vertex_label,
    _dl_params,
    GEN_INVERSE,
)
from .tilesets import decoration_symbols, comb_tileset, sea_level_system


@dataclass
class Simulator:
    """A finite graph with two labellings.

    graph: labelled over path_subdivision(B) for the target alphabet B.
    alpha: a second labelling of the same graph, into the source alphabet A.

    apply_simulator's walk tables are compiled once, when the simulator is
    made, so graph and alpha must not be changed afterwards.  States,
    target edges c (edge_ids() order) and source labels are numbered;
    _moves[state * len(_bedges) + c] holds (source label, head state, head
    in transit) per simulator edge out of the state over a piece of c,
    _starts[state] the c it starts walks along, ascending, and _settled
    the settled states over each source vertex.
    """

    graph: LabelGraph
    alpha: Morphism

    def __post_init__(self):
        if self.alpha.domain != self.graph:
            raise ValueError("alpha does not label the simulator graph")
        bstar = self.graph.label_graph
        if bstar is None:
            raise ValueError("simulator graph carries no target labelling")
        b = base_of_subdivision(bstar)
        sg, amap = self.graph, self.alpha
        self._b, self._bedges = b, b.edge_ids()
        nc = len(self._bedges)
        cnum = {c: k for k, c in enumerate(self._bedges)}
        self._states = states = list(sg.vlabel)
        qnum = {q: i for i, q in enumerate(states)}
        self._lnum = lnum = {lab: i
                             for i, lab in enumerate(amap.codomain.edges)}
        self._moves = moves = [()] * (len(states) * nc)
        starts = [set() for _ in states]
        for e, (t, h) in sg.edges.items():
            i, c, j = sg.elabel[e]
            x = qnum[t] * nc + cnum[c]
            moves[x] += ((lnum[amap.emap[e]], qnum[h], j),)
            if i == 0:
                starts[qnum[t]].add(cnum[c])
        self._starts = [sorted(ks) for ks in starts]
        self._settled = {}
        for q, lab in sg.vlabel.items():
            if lab[0] == "v":
                self._settled.setdefault(amap.vmap[q], []).append(qnum[q])
        # the end of the skey of a (point, state) pair, see apply_simulator
        self._keys = [repr(q) + ")" for q in states]

    def source_alphabet(self):
        return self.alpha.codomain

    def target_alphabet(self):
        return self._b

    def num_states(self):
        return self.graph.num_vertices()


def identity_simulator(a):
    """The do-nothing simulator from an alphabet to itself: one settled
    state per vertex, one (0,e,0) edge per alphabet edge."""
    return _settled_simulator(a, a, {v: v for v in a.vlabel},
                              {e: e for e in a.edges})


def blowup_simulator(a, k):
    """Simulator from a to its vertex blow-up a^k; applying it blows up the
    window.  k maps vertices of a to copy counts."""
    ak = vertex_blowup(a, k)
    return _settled_simulator(a, ak, {(v, i): v for (v, i) in ak.vlabel},
                              {(i, e, j): e for (i, e, j) in ak.edges})


def _settled_simulator(a, b, vmap, emap):
    """The simulator from a to b with b's cells as states and edges: vertex
    v a settled state over v, edge e over (0,e,0), with labels vmap[v] and
    emap[e] in a."""
    g = labelled(path_subdivision(b), {v: ("v", v) for v in b.vertices()},
                 b.edges, {e: (0, e, 0) for e in b.edges}, b.reversal)
    return Simulator(g, Morphism(vmap, emap, g, a))


def _window_graph(window, frontier):
    """Coerce a Window or bare LabelGraph plus optional frontier override."""
    if isinstance(window, Window):
        graph = window.graph
        if frontier is None:
            frontier = boundary_vertices(window)
    else:
        graph = window
        if frontier is None:
            frontier = ()
    return graph, set(frontier)


def apply_simulator(window, s, frontier=None):
    """Translate a window labelled over the simulator's source alphabet.

    Returns (graph, incomplete): a graph over the target alphabet whose
    vertices are (window vertex, settled state) pairs, plus the set of
    output vertices that may be missing edges because a coherent chain ran
    into the frontier.  The frontier defaults to the window boundary for a
    Window and to the empty set for a bare graph.

    The result is flat(alpha_pullback(graph, s.graph, s.alpha)) with the
    pullback's frontier pairs those over frontier points.  flat runs its
    walker on the pullback; this computes the same graph without building
    the pullback: the simulator numbers its states and target edges when
    it is made (see Simulator), each call numbers the points, pair number
    point * states + state stands for a pullback vertex, and from every
    settled pair one walk per target edge c follows the coherent paths
    (0,c,0) and (0,c,1)(1,c,1)*(1,c,0) through the pairs.
    A pair is incomplete when it sits over a frontier point or one of its
    walks passes a midpoint over one.  Vertices come in skey order, as
    flat keeps them, and edge ids are (tail pair, c, head pair).  The
    output is unchecked, as flat's output meets the axioms: a walk for c
    runs from a pair over c's tail to one over c's head, and over an
    unoriented window and simulator it retraces as a walk for c'.
    """
    graph, frontier = _window_graph(window, frontier)
    if graph.label_graph != s.alpha.codomain:
        raise ValueError("window labels do not match the simulator source")
    sg, b, bedges, moves, starts = (s.graph, s._b, s._bedges, s._moves,
                                    s._starts)
    states, lnum = s._states, s._lnum
    n, nc, nl = len(states), len(bedges), len(lnum)
    pts = list(graph.vlabel)
    pnum = {p: i for i, p in enumerate(pts)}
    out = {}  # point * nl + source label -> heads of the window edges
    for (t, h), lab in zip(graph.edges.values(), _edge_labels(graph)):
        out.setdefault(pnum[t] * nl + lnum[lab], []).append(pnum[h])
    front = {pnum[p] for p in frontier if p in pnum}
    # skey of (p, q) is "(" + repr(p) + ", " + repr(q) + ")": one repr per
    # point and one per state, joined, instead of one per pair
    keyed = []
    for i, (p, lab) in enumerate(graph.vlabel.items()):
        qs = s._settled.get(lab)
        if qs:
            head = "(%r, " % (p,)
            keyed.extend((head + s._keys[q], i * n + q) for q in qs)
    keyed.sort()

    vlabel = {}
    edges = {}
    elabel = {}
    incomplete = set()
    pair = {x: (pts[x // n], states[x % n]) for _, x in keyed}
    for x, u in pair.items():
        vlabel[u] = sg.vlabel[u[1]][1]
        touched = x // n in front
        for k in starts[x % n]:
            heads = set()
            mids = set()
            todo = [x]
            for y in todo:
                p, q = divmod(y, n)
                for li, q2, transit in moves[q * nc + k]:
                    for p2 in out.get(p * nl + li, ()):
                        z = p2 * n + q2
                        if not transit:
                            heads.add(z)
                        elif z not in mids:
                            mids.add(z)
                            todo.append(z)
                            touched = touched or p2 in front
            c = bedges[k]
            for z in heads:
                v = pair[z]
                e = (u, c, v)
                edges[e] = (u, v)
                elabel[e] = c
        if touched:
            incomplete.add(u)
    rev = None
    if graph.reversal is not None and sg.reversal is not None:
        rev = {e: (e[2], b.reversal[e[1]], e[0]) for e in edges}
    return (LabelGraph._trusted(vlabel, edges, elabel, rev, b),
            frozenset(incomplete))


# -- composition --------------------------------------------------------------


def subdivide_morphism(m):
    """The morphism induced between path subdivisions."""
    dom = path_subdivision(m.domain)
    cod = path_subdivision(m.codomain)
    vmap = {("v", v): ("v", m.vmap[v]) for v in m.domain.vertices()}
    emap = {}
    for e in m.domain.edge_ids():
        vmap[("e", m.domain.edge_orbit(e))] = \
            ("e", m.codomain.edge_orbit(m.emap[e]))
        emap.update(((i, e, j), (i, m.emap[e], j))
                    for i in (0, 1) for j in (0, 1))
    return Morphism(vmap, emap, dom, cod)


def compose_simulators(s, t):
    """The simulator that applies s and then t in one pass.

    States are pairs (state of s, cell of the subdivided t-graph): while s
    crosses one of its edges, t advances by half-transitions, and the pair
    is in transit whenever either component is.  Double subdivision tags
    (i,(i',c,j'),j) collapse to (max(i,i'), c, max(j,j')).
    """
    if s.target_alphabet() != t.source_alphabet():
        raise ValueError("simulator targets do not chain")
    tsub = subdivide_morphism(t.alpha)
    u0 = alpha_pullback(s.graph, tsub.domain, tsub)
    c = t.target_alphabet()

    def retag_vertex(lab):
        kind, x = lab
        return x if kind == "v" else ("e", c.edge_orbit(x[1]))

    def retag_edge(lab):
        i, (i2, c0, j2), j = lab
        return (max(i, i2), c0, max(j, j2))

    graph = labelled(t.graph.label_graph,
                     {uv: retag_vertex(u0.vlabel[uv]) for uv in u0.vlabel},
                     u0.edges,
                     {ee: retag_edge(u0.elabel[ee]) for ee in u0.edges},
                     u0.reversal)
    alpha = Morphism({uv: s.alpha.vmap[uv[0]] for uv in graph.vlabel},
                     {ee: s.alpha.emap[ee[0]] for ee in graph.elabel},
                     graph, s.alpha.codomain)
    return Simulator(graph, alpha)


# -- graph-walking automata ----------------------------------------------------


@dataclass
class GwaAutomaton:
    """A nondeterministic acceptor whose letters are source-alphabet edges.
    Initial and final states must be disjoint, so accepted runs are
    nonempty.

    The transition table is compiled once, when the automaton is made, so
    its fields must not be changed afterwards: _trans maps (state, letter)
    to the states its transitions reach, and _live holds the states with a
    transition out."""

    states: frozenset
    initial: frozenset
    final: frozenset
    transitions: frozenset  # of (state, letter, state) triples

    def __post_init__(self):
        self.states = frozenset(self.states)
        self.initial = frozenset(self.initial)
        self.final = frozenset(self.final)
        self.transitions = frozenset(self.transitions)
        if not self.initial <= self.states or not self.final <= self.states:
            raise ValueError("initial or final states not among the states")
        if self.initial & self.final:
            raise ValueError("initial and final states must be disjoint")
        self._trans, self._live = {}, set()
        for (q, letter, q2) in self.transitions:
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition through unknown state")
            self._trans.setdefault((q, letter), []).append(q2)
            self._live.add(q)


@dataclass
class Gwa:
    """A graph-walking translator: a partial relabelling of source-alphabet
    vertices (None marking vertices that vanish) plus one automaton per
    target edge whose accepted walks become the simulated edges."""

    lam: dict       # source vertex -> target vertex or None
    machines: dict  # target edge -> GwaAutomaton
    source: LabelGraph
    target: LabelGraph

    def __post_init__(self):
        if set(self.lam) != set(self.source.vlabel):
            raise ValueError("lam is not total on source vertices")
        for w in self.lam.values():
            if w is not None and w not in self.target.vlabel:
                raise ValueError("lam image %r missing from target" % (w,))
        if set(self.machines) != set(self.target.edges):
            raise ValueError("need exactly one machine per target edge")
        for m in self.machines.values():
            for (_, letter, _) in m.transitions:
                if letter not in self.source.edges:
                    raise ValueError("letter %r is not a source edge"
                                     % (letter,))


def _tail_index(graph):
    by_tail = {}
    for e, (t, _) in graph.edges.items():
        by_tail.setdefault(t, []).append(e)
    return by_tail


def _run(graph, by_tail, machine, u, boundary):
    trans, live = machine._trans, machine._live
    touched = u in boundary
    seen = {(u, q) for q in machine.initial}
    queue = list(seen)
    out = set()
    while queue:
        v, q = queue.pop()
        for e in by_tail.get(v, ()):
            for q2 in trans.get((q, graph.elabel[e]), ()):
                w = graph.head(e)
                if (w, q2) in seen:
                    continue
                seen.add((w, q2))
                queue.append((w, q2))
                if w in boundary and (q2 not in machine.final or q2 in live):
                    touched = True
                if q2 in machine.final:
                    out.add(w)
    return out, touched


def run_gwa(graph, machine, u, boundary=None):
    """Successor vertices of u under one automaton: every v reachable by a
    walk from u spelling an accepted word.  Also reports whether the search
    touched the boundary mid-run, in which case the set may be incomplete.

    graph may be a Window or a bare LabelGraph.  A boundary of None means
    the window's boundary vertices, or none for a bare graph; any other
    boundary, the empty one included, is used as given.
    """
    graph, boundary = _window_graph(graph, boundary)
    return _run(graph, _tail_index(graph), machine, u, boundary)


def gwa_simulated_graph(graph, gwa, boundary=None):
    """Run every machine from every surviving vertex.

    Returns (simulated graph over the target alphabet, incomplete sources).
    The incomplete sources are the surviving vertices in the boundary and
    those with a run that touched it.  The output is oriented: each
    accepted run contributes one directed edge.  Runs landing on a vertex
    whose relabelling does not match the machine's edge head are ignored;
    a well-formed walker never produces them.  graph and boundary are read
    as run_gwa reads them.
    """
    graph, boundary = _window_graph(graph, boundary)
    if graph.label_graph != gwa.source:
        raise ValueError("graph labels do not match the walker source")
    vlabel = {}
    for u in graph.vertices():
        w = gwa.lam[graph.vlabel[u]]
        if w is not None:
            vlabel[u] = w
    by_tail = _tail_index(graph)
    by_target_tail = {}
    for e in gwa.target.edge_ids():
        by_target_tail.setdefault(gwa.target.tail(e), []).append(e)
    edges = {}
    elabel = {}
    incomplete = boundary.intersection(vlabel)
    for u in sorted(vlabel, key=skey):
        for e in by_target_tail.get(vlabel[u], ()):
            succ, touched = _run(graph, by_tail, gwa.machines[e], u,
                                 boundary)
            if touched:
                incomplete.add(u)
            for v in succ:
                if vlabel.get(v) == gwa.target.head(e):
                    x = (u, e, v)
                    edges[x] = (u, v)
                    elabel[x] = e
    out = LabelGraph(vlabel, edges, elabel, None, gwa.target)
    return out, frozenset(incomplete)


def flat(g, frontier=None):
    """Collapse a graph labelled over a subdivided alphabet b* back to one
    over b: the vertices over b-vertices stay, and each coherent path
    (0,c,0) | (0,c,1)(1,c,1)*(1,c,0) from u to v becomes one c-edge u -> v.
    That is gwa_simulated_graph of a walker with one three-state machine
    per c, midpoints mapped to None; over an unoriented g each path
    retraces as one for c'.  With frontier (vertex ids of g), returns
    (graph, incomplete): the kept vertices in the frontier or with a path
    through a frontier midpoint.
    """
    if g.label_graph is None:
        raise ValueError("flat needs a labelled graph")
    bstar = g.label_graph
    b = base_of_subdivision(bstar)
    lam = {x: x[1] if x[0] == "v" else None for x in bstar.vlabel}
    machines = {c: GwaAutomaton((0, 1, 2), (0,), (2,), (
        (0, (0, c, 0), 2), (0, (0, c, 1), 1), (1, (1, c, 1), 1),
        (1, (1, c, 0), 2))) for c in b.edges}
    out, incomplete = gwa_simulated_graph(g, Gwa(lam, machines, bstar, b),
                                          frontier or ())
    if g.reversal is not None:
        out = LabelGraph(out.vlabel, out.edges, out.elabel, {
            e: (e[2], b.reversal[e[1]], e[0]) for e in out.edges}, b)
    return out if frontier is None else (out, incomplete)


def _state_copies(s):
    """Simulator states grouped by source label, in deterministic order."""
    copies = {}
    for v in s.graph.vertices():
        copies.setdefault(s.alpha.vmap[v], []).append(v)
    return copies


def simulator_to_gwa(s):
    """Unroll a simulator into a walker over the blown-up source alphabet.

    Each source vertex gets one copy per simulator state carried over it;
    the copy indices baked into the blown-up edge labels make accepted runs
    correspond exactly to coherent chains.  Returns (gwa, copy counts).
    """
    a, b = s.source_alphabet(), s.target_alphabet()
    copies = _state_copies(s)
    k = {lab: len(copies.get(lab, ())) for lab in a.vlabel}
    ak = vertex_blowup(a, k)
    lam = {}
    for (lab, i) in ak.vlabel:
        blab = s.graph.vlabel[copies[lab][i]]
        lam[(lab, i)] = blab[1] if blab[0] == "v" else None
    idx = {}
    for vs in copies.values():
        for i, v in enumerate(vs):
            idx[v] = i
    by_beta = {}
    for es in s.graph.edge_ids():
        by_beta.setdefault(s.graph.elabel[es], []).append(es)
    machines = {}
    for e in b.edge_ids():
        orb = b.edge_orbit(e)
        states = set()
        initial = set()
        final = set()
        for v in s.graph.vertices():
            blab = s.graph.vlabel[v]
            if blab == ("v", b.tail(e)):
                states.add((v, 1))
                initial.add((v, 1))
            if blab == ("e", orb):
                states.add((v, 2))
            if blab == ("v", b.head(e)):
                states.add((v, 3))
                final.add((v, 3))
        transitions = set()
        for i in (0, 1):
            for j in (0, 1):
                for es in by_beta.get((i, e, j), ()):
                    t, h = s.graph.edges[es]
                    letter = (idx[t], s.alpha.emap[es], idx[h])
                    transitions.add(((t, 1 + i), letter, (h, 3 - j)))
        machines[e] = GwaAutomaton(states, initial, final, transitions)
    return Gwa(lam, machines, ak, b), k


def _alive_states(gwa, machine, e):
    """States lying on some complete run of the machine for edge e: forward
    reachable from a legal entry and backward reachable from a legal exit."""
    et, eh = gwa.target.edges[e]
    succ = {}
    pred = {}
    entries = set()
    exits = set()
    for (q, letter, q2) in machine.transitions:
        succ.setdefault(q, set()).add(q2)
        pred.setdefault(q2, set()).add(q)
        at, ah = gwa.source.edges[letter]
        if q in machine.initial and gwa.lam[at] == et:
            entries.add(q2)
        if q2 in machine.final and gwa.lam[ah] == eh:
            exits.add(q)

    def closure(start, step):
        seen = set(start)
        queue = list(start)
        while queue:
            q = queue.pop()
            for q2 in step.get(q, ()):
                if q2 not in seen:
                    seen.add(q2)
                    queue.append(q2)
        return seen

    return closure(entries, succ) & closure(exits, pred)


def gwa_to_simulator(gwa):
    """Repackage a walker as a simulator.

    Surviving source vertices become settled states; each machine state
    that some complete run passes through becomes a transit state over the
    machine's edge (states no complete run visits are dropped, so a walker
    with only one-step runs yields a simulator with only (0,e,0) edges).
    The result is oriented: runs have a direction.
    """
    a, b = gwa.source, gwa.target
    bstar = path_subdivision(b)
    vlabel = {}
    avmap = {}
    for u in a.vertices():
        if gwa.lam[u] is not None:
            vlabel[("lam", u)] = ("v", gwa.lam[u])
            avmap[("lam", u)] = u
    edges = {}
    elabel = {}
    aemap = {}
    for e in b.edge_ids():
        machine = gwa.machines[e]
        orb = b.edge_orbit(e)
        et, eh = b.edges[e]
        alive = _alive_states(gwa, machine, e)
        forced = {}

        def force(q, w):
            if forced.setdefault(q, w) != w:
                raise ValueError("machine state %r would need two source "
                                 "labels" % (q,))

        def add(tag, tr, tail, head, blab, aedge):
            eid = (tag, e, tr)
            edges[eid] = (tail, head)
            elabel[eid] = blab
            aemap[eid] = aedge

        for tr in sorted(machine.transitions, key=skey):
            q, aedge, q2 = tr
            at, ah = a.edges[aedge]
            enters = q in machine.initial and gwa.lam[at] == et
            leaves = q2 in machine.final and gwa.lam[ah] == eh
            if enters and leaves:
                add("full", tr, ("lam", at), ("lam", ah), (0, e, 0), aedge)
            if enters and q2 in alive:
                add("in", tr, ("lam", at), ("q", e, q2), (0, e, 1), aedge)
                force(q2, ah)
            if q in alive and q2 in alive:
                add("mid", tr, ("q", e, q), ("q", e, q2), (1, e, 1), aedge)
                force(q, at)
                force(q2, ah)
            if q in alive and leaves:
                add("out", tr, ("q", e, q), ("lam", ah), (1, e, 0), aedge)
                force(q, at)
        for q in sorted(forced, key=skey):
            vlabel[("q", e, q)] = ("e", orb)
            avmap[("q", e, q)] = forced[q]
    graph = LabelGraph(vlabel, edges, elabel, None, bstar)
    alpha = Morphism(avmap, aemap, graph, a)
    return Simulator(graph, alpha)


# -- decorated windows ---------------------------------------------------------


def relabel_graph(g, symbol_of, symbols):
    """Redecorate a labelled graph by a symbol per vertex; edge labels
    become (tail symbol, old label, head symbol) over the matching decorated
    alphabet.  Unchecked once each symbol is found in symbols: g meets the
    axioms, so every new label is an alphabet cell and follows reversal."""
    a = alphabet_label_graph(tuple(symbols), g.label_graph)
    vlabel = {v: symbol_of(v) for v in g.vlabel}
    for v, sym in vlabel.items():
        if sym not in a.vlabel:
            raise ValueError("vertex %r labelled by unknown %r" % (v, sym))
    elabel = {e: (vlabel[t], lab, vlabel[h])
              for (e, (t, h)), lab in zip(g.edges.items(), _edge_labels(g))}
    rev = dict(g.reversal) if g.reversal is not None else None
    return LabelGraph._trusted(vlabel, dict(g.edges), elabel, rev, a)


def decorate_window(window, ts, assignment):
    """A copy of the window whose vertex labels are the tile symbols of an
    assignment (point -> tile id).  A point without a tile id in
    range(number of tiles) is a ValueError naming the point."""
    symbols = decoration_symbols(ts)
    n = len(symbols)

    def symbol_of(v):
        i = assignment.get(v, -1)
        if 0 <= i < n:
            return symbols[i]
        raise ValueError("point %r has tile id %r, not one in range(%d)"
                         % (v, assignment.get(v), n))

    return relabel_graph(window.graph, symbol_of, symbols)


def patch_frontier(g):
    """Frontier of a bare grid patch: vertices whose out-degree falls short
    of what their label promises (4 in the plane, one per letter of a
    quarter-plane label)."""
    deg = {v: 0 for v in g.vlabel}
    for (t, _) in g.edges.values():
        deg[t] += 1
    out = set()
    for v, lab in g.vlabel.items():
        expected = 4 if lab == 1 else len(lab)
        if deg[v] < expected:
            out.add(v)
    return out


def quadrant_patch(points):
    """The quarter-plane-labelled grid graph induced on points of N x N."""
    return grid_patch(points, quadrant_vertex_label, quadrant_label_graph())


# -- comparisons ---------------------------------------------------------------


def edge_triples(g):
    """The set of (tail, label, head) triples of a graph."""
    return frozenset((t, g.elabel[e], h) for e, (t, h) in g.edges.items())


def rename_vertices(g, fn):
    """Rebuild a graph through an injective vertex renaming; edge ids become
    (tail, label, head) triples, merging parallel duplicates."""
    vmap = {v: fn(v) for v in g.vlabel}
    if len(set(vmap.values())) != len(vmap):
        raise ValueError("vertex renaming is not injective")
    renamed = LabelGraph({vmap[v]: lab for v, lab in g.vlabel.items()},
                         {e: (vmap[t], vmap[h])
                          for e, (t, h) in g.edges.items()},
                         g.elabel, g.reversal, g.label_graph)
    return simplify(renamed)


# -- the concrete simulators -----------------------------------------------------


class _SimBuilder:
    """Accumulates states and drawn edges; every drawn edge gets its
    reversal added automatically (both alphabets must be unoriented)."""

    def __init__(self, a, b):
        self.a = a
        self.bstar = path_subdivision(b)
        self.vlabel = {}
        self.avmap = {}
        self.edges = {}
        self.elabel = {}
        self.aemap = {}
        self.rev = {}

    def state(self, sid, alab, blab):
        self.vlabel[sid] = blab
        self.avmap[sid] = alab

    def edge(self, eid, t, h, alab, blab):
        rid = ("r", eid)
        add_edge_pair(self.edges, self.elabel, self.rev, eid, rid, t, h,
                      blab, self.bstar.reversal[blab])
        self.aemap[eid] = alab
        self.aemap[rid] = self.a.reversal[alab]

    def draw(self, t, h, gen, blab):
        """Edge (t, h, gen) from state t to state h, over the edge gen
        between their labels in a Cayley alphabet."""
        self.edge((t, h, gen), t, h, (self.avmap[t], gen, self.avmap[h]),
                  blab)

    def build(self):
        g = LabelGraph(self.vlabel, self.edges, self.elabel, self.rev,
                       self.bstar)
        return Simulator(g, Morphism(self.avmap, self.aemap, g, self.a))


def quadrant_to_plane():
    """Fold a quarter-plane-labelled graph out to a whole plane.

    Nine states, one per sign pair: moving east in the quarter plane moves
    east or west in the plane depending on the tracked sign of x, and the
    walk branches both ways on the axis; same for north/south.
    """
    bld = _SimBuilder(quadrant_label_graph(), plane_label_graph())

    def qlab(i, j):
        return "NE" + ("S" if j else "") + ("W" if i else "")

    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            bld.state((i, j), qlab(i, j), ("v", 1))
    # Per axis, sign 0 steps to +1 and to -1, and +1 and -1 to themselves.
    moves = ((0, 1), (0, -1), (1, 1), (-1, -1))
    for j in (-1, 0, 1):
        for x, x2 in moves:
            bld.edge(((x, j), (x2, j), "E"), (x, j), (x2, j),
                     ("E", qlab(abs(x), j), qlab(1, j)),
                     (0, "E" if x2 > 0 else "W", 0))
    for i in (-1, 0, 1):
        for y, y2 in moves:
            bld.edge(((i, y), (i, y2), "N"), (i, y), (i, y2),
                     ("N", qlab(i, abs(y)), qlab(i, 1)),
                     (0, "N" if y2 > 0 else "S", 0))
    return bld.build()


# Comb states in transit, as (circuit, stage) pairs, with the comb tile
# their stage sits on.  The raise circuit climbs a tooth one notch; the
# lower circuit slides an antitooth one notch down.
_COMB_RAISE = (("turn", "antitooth"), ("down", "web"), ("spine", "spine"),
               ("cross", "antitooth"), ("up", "web"), ("tooth", "tooth"))
_COMB_LOWER = (("turn", "tooth"), ("up", "web"), ("spine", "spine"),
               ("cross", "tooth"), ("down", "web"), ("land", "antitooth"))


def comb_to_plane():
    """Simulate a plane from the reference comb decoration.

    Teeth rows track x > 0 and antiteeth rows x < 0; east/west moves are
    single lamplighter steps along a row, while north/south moves walk a
    hexagonal circuit over the neighbouring web and spine tiles.
    """
    a = alphabet_label_graph(decoration_symbols(comb_tileset()),
                             cayley_label_graph())
    bld = _SimBuilder(a, plane_label_graph())
    for tile in ("spine", "tooth", "antitooth"):
        bld.state(tile, tile, ("v", 1))
    for stage, tile in _COMB_RAISE:
        bld.state(("raise", stage), tile, ("e", "N"))
    for stage, tile in _COMB_LOWER:
        bld.state(("lower", stage), tile, ("e", "N"))

    bld.draw("spine", "tooth", "b", (0, "E", 0))
    bld.draw("spine", "spine", "a", (0, "N", 0))
    bld.draw("antitooth", "spine", "b", (0, "E", 0))
    bld.draw("antitooth", "antitooth", "b", (0, "E", 0))
    bld.draw("tooth", "tooth", "b", (0, "E", 0))
    # the raise circuit: A (down the tooth), b (cross the gap), a* (back
    # up), b (onto the raised tooth)
    bld.draw("tooth", ("raise", "turn"), "A", (0, "N", 1))
    bld.draw("tooth", ("raise", "down"), "A", (0, "N", 1))
    bld.draw(("raise", "down"), ("raise", "turn"), "A", (1, "N", 1))
    bld.draw(("raise", "down"), ("raise", "down"), "A", (1, "N", 1))
    bld.draw(("raise", "turn"), ("raise", "spine"), "b", (1, "N", 1))
    bld.draw(("raise", "turn"), ("raise", "cross"), "b", (1, "N", 1))
    bld.draw(("raise", "cross"), ("raise", "up"), "a", (1, "N", 1))
    bld.draw(("raise", "cross"), ("raise", "tooth"), "a", (1, "N", 1))
    bld.draw(("raise", "up"), ("raise", "up"), "a", (1, "N", 1))
    bld.draw(("raise", "up"), ("raise", "tooth"), "a", (1, "N", 1))
    bld.draw(("raise", "tooth"), "tooth", "b", (1, "N", 0))
    bld.draw(("raise", "spine"), "tooth", "b", (1, "N", 0))
    # the lower circuit mirrors it below the spine: a* (up the antitooth),
    # B (cross), A* (down), B (onto the lowered antitooth)
    bld.draw("antitooth", ("lower", "turn"), "a", (0, "S", 1))
    bld.draw("antitooth", ("lower", "up"), "a", (0, "S", 1))
    bld.draw(("lower", "up"), ("lower", "turn"), "a", (1, "S", 1))
    bld.draw(("lower", "up"), ("lower", "up"), "a", (1, "S", 1))
    bld.draw(("lower", "turn"), ("lower", "spine"), "B", (1, "S", 1))
    bld.draw(("lower", "turn"), ("lower", "cross"), "B", (1, "S", 1))
    bld.draw(("lower", "cross"), ("lower", "down"), "A", (1, "S", 1))
    bld.draw(("lower", "cross"), ("lower", "land"), "A", (1, "S", 1))
    bld.draw(("lower", "down"), ("lower", "down"), "A", (1, "S", 1))
    bld.draw(("lower", "down"), ("lower", "land"), "A", (1, "S", 1))
    bld.draw(("lower", "land"), "antitooth", "B", (1, "S", 0))
    bld.draw(("lower", "spine"), "antitooth", "B", (1, "S", 0))
    return bld.build()


_QUAD_OF = {(True, True): "NE", (True, False): "NES",
            (False, True): "NEW", (False, False): "NESW"}


def sea_to_quadrant():
    """Simulate the quarter plane from the sea-level decoration.

    Marker-zero points are grid points; an east step is the binary
    increment walk b^t a B A^t through the lamps above the marker and a
    north step is its mirror below.  Each circuit is instantiated once per
    quarter-plane edge and fanned out over the four line-colour pairs.
    """
    ts = sea_level_system()
    a = alphabet_label_graph(ts.alphabet, cayley_label_graph())
    b = quadrant_label_graph()
    bld = _SimBuilder(a, b)
    inv_quad = {v: k for k, v in _QUAD_OF.items()}
    pairs = sorted(_QUAD_OF)
    for p in pairs:
        bld.state(("sea", p), (p, "SEA"), ("v", _QUAD_OF[p]))
    families = (("east", "E", "NW", "a", "b"),
                ("north", "N", "SW", "A", "B"))
    slots = ("carry", "flip", "back")
    for fam, d, arrow, x, y in families:
        xi, yi = GEN_INVERSE[x], GEN_INVERSE[y]
        for (e, (q1, q2)) in [(eid, eid[1:]) for eid in b.edge_ids()
                              if eid[0] == d]:
            p1, p2 = inv_quad[q1], inv_quad[q2]
            sea1, sea2 = ("sea", p1), ("sea", p2)
            for slot in slots:
                for p in pairs:
                    bld.state((fam, (q1, q2), slot, p), (p, arrow),
                              ("e", e))

            def st(slot, p, inst=(q1, q2)):
                return (fam, inst, slot, p)

            for p in pairs:
                bld.draw(sea1, st("flip", p), x, (0, e, 1))
                bld.draw(st("flip", p), sea2, yi, (1, e, 0))
                bld.draw(sea1, st("carry", p), y, (0, e, 1))
                bld.draw(st("back", p), sea2, xi, (1, e, 0))
                for p2_ in pairs:
                    bld.draw(st("carry", p), st("carry", p2_), y, (1, e, 1))
                    bld.draw(st("carry", p), st("flip", p2_), x, (1, e, 1))
                    bld.draw(st("flip", p), st("back", p2_), yi, (1, e, 1))
                    bld.draw(st("back", p), st("back", p2_), xi, (1, e, 1))
    return bld.build()


def rectangle_compress():
    """Compress runs over bad vertices of a good/bad-decorated plane graph:
    good points survive and stretches of bad points in a row or column
    collapse into single edges."""
    a = alphabet_label_graph(("bad", "good"), plane_label_graph())
    b = plane_label_graph()
    bld = _SimBuilder(a, b)
    bld.state("keep", "good", ("v", 1))
    for d in ("E", "N", "W", "S"):
        bld.state(("skip", d), "bad", ("e", b.edge_orbit(d)))
    for d in ("E", "N"):
        bld.edge(("keep", "keep", d), "keep", "keep",
                 ("good", d, "good"), (0, d, 0))
    for d in ("E", "N", "W", "S"):
        bld.edge(("keep", ("skip", d), d), "keep", ("skip", d),
                 ("good", d, "bad"), (0, d, 1))
        bld.edge((("skip", d), ("skip", d), d), ("skip", d), ("skip", d),
                 ("bad", d, "bad"), (1, d, 1))
        bld.edge((("skip", d), "keep", d), ("skip", d), "keep",
                 ("bad", d, "good"), (1, d, 0))
    return bld.build()


BUILTIN_SIMULATORS = ("quadrant_to_plane", "comb_to_plane",
                      "sea_to_quadrant", "rectangle_compress")


def builtin_simulator(name):
    builders = {"quadrant_to_plane": quadrant_to_plane,
                "comb_to_plane": comb_to_plane,
                "sea_to_quadrant": sea_to_quadrant,
                "rectangle_compress": rectangle_compress}
    if name not in builders:
        raise ValueError("unknown simulator %r" % (name,))
    return builders[name]()


def random_simulator(rng, a, b):
    """A small random simulator between one-vertex unoriented alphabets,
    for property tests: two settled states, two transit states and up to
    six edges."""
    settled, transit, nedges = 2, 2, 6
    if len(a.vlabel) != 1 or len(b.vlabel) != 1:
        raise ValueError("random simulators use one-vertex alphabets")
    av = a.vertices()[0]
    bv = b.vertices()[0]
    bedges = b.edge_ids()
    aedges = a.edge_ids()
    orbs = sorted({b.edge_orbit(e) for e in bedges}, key=skey)
    bld = _SimBuilder(a, b)
    states = []
    torb = {}
    for i in range(settled):
        bld.state(("s", i), av, ("v", bv))
        states.append(("s", i))
    for i in range(transit):
        orb = rng.choice(orbs)
        torb[("t", i)] = orb
        bld.state(("t", i), av, ("e", orb))
        states.append(("t", i))
    count = 0
    attempts = 0
    while count < nedges and attempts < 50 * nedges:
        attempts += 1
        t = rng.choice(states)
        h = rng.choice(states)
        alab = rng.choice(aedges)
        if t[0] == "s" and h[0] == "s":
            blab = (0, rng.choice(bedges), 0)
        elif t[0] == "s":
            c = rng.choice((torb[h], b.reversal[torb[h]]))
            blab = (0, c, 1)
        elif h[0] == "s":
            c = rng.choice((torb[t], b.reversal[torb[t]]))
            blab = (1, c, 0)
        else:
            if torb[t] != torb[h]:
                continue
            c = rng.choice((torb[t], b.reversal[torb[t]]))
            blab = (1, c, 1)
        bld.edge(("e", count), t, h, alab, blab)
        count += 1
    return bld.build()


# -- serialization ---------------------------------------------------------------


_BASE_ALPHABETS = (("cayley", cayley_label_graph),
                   ("plane", plane_label_graph),
                   ("quadrant", quadrant_label_graph))


def _alphabet_spec(a):
    """Recognize an alphabet as (spec string, decoration symbols): a base
    alphabet itself, or the alphabet of graphs decorated over one."""
    bases = [(name, build()) for name, build in _BASE_ALPHABETS]
    inner = [e[1] for e in a.edges if isinstance(e, tuple) and len(e) == 3]
    bases += [("dl %d %d" % pq, dl_label_graph(*pq))
              for pq in (_dl_params(a.edges), _dl_params(inner)) if pq]
    symbols = tuple(a.vertices())
    for name, base in bases:
        if a == base:
            return name, ()
        if a == alphabet_label_graph(symbols, base):
            return name, symbols
    raise ValueError("alphabet has no serializable description")


def _base_alphabet(toks):
    """The base alphabet named by the tokens of an alpha or beta line."""
    if len(toks) == 3 and toks[0] == "dl":
        return dl_label_graph(int(toks[1]), int(toks[2]))
    builders = dict(_BASE_ALPHABETS)
    if len(toks) != 1 or toks[0] not in builders:
        raise ValueError("unknown alphabet %r" % " ".join(toks))
    return builders[toks[0]]()


def simulator_to_text(s):
    """Text form: alphabet descriptions, then one line per state and edge
    with both labels."""
    lines = ["simulator"]
    for tag, alphabet_ in (("alpha", s.alpha.codomain),
                           ("beta", s.target_alphabet())):
        spec, symbols = _alphabet_spec(alphabet_)
        lines.append("%s %s" % (tag, spec))
        for sym in symbols:
            lines.append("symbol %s" % _fmt(sym))
    return "\n".join(lines + _cell_lines(s.graph, s.alpha)) + "\n"


def simulator_from_text(text):
    """Read simulator_to_text's format; '#' starts a comment.

    The first line is the header simulator (no values).  Keys: alpha and
    beta (1 value, a base alphabet, or 3: dl p q), once each; symbol (1
    value), a decoration symbol of the alphabet line above it; vertex (3
    values: id, source label, target label) and edge (5: id, tail, head,
    source label, target label, or 7 with rev and the reverse edge's
    id)."""
    what = "simulator"
    records = read_lines(text, what, {
        "simulator": (0,), "alpha": (1, 3), "beta": (1, 3), "symbol": (1,),
        "vertex": (3,), "edge": (5, 7)}, ("simulator", "alpha", "beta"))
    bases, symbols, current = {}, {"alpha": {}, "beta": {}}, None
    for i, (raw, key, values) in enumerate(records):
        with _naming_line(what, raw):
            if i == 0 and key != "simulator":
                raise ValueError("expected a simulator header")
            if key in ("alpha", "beta"):
                current = key
                bases[key] = _base_alphabet(values)
            elif key == "symbol":
                if current is None:
                    raise ValueError("symbol line before alpha/beta")
                sym = _parse_token(values[0])
                if sym in symbols[current]:
                    raise ValueError("repeated symbol %r" % (sym,))
                symbols[current][sym] = None
    if len(bases) < 2:
        raise ValueError("missing alphabet description")
    a, b = (alphabet_label_graph(tuple(symbols[tag]), bases[tag])
            if symbols[tag] else bases[tag] for tag in ("alpha", "beta"))
    g, vmap, emap = _read_cells(records, what, path_subdivision(b), True)
    return Simulator(g, Morphism(vmap, emap, g, a))


def simulator_to_dot(s, name="simulator"):
    """GraphViz export; node labels show state, source label and target
    label, edges show both labels."""
    g = s.graph
    return _dot(g, name,
                lambda v: "%s : %s : %s" % (v, s.alpha.vmap[v], g.vlabel[v]),
                lambda e: "%s : %s" % (s.alpha.emap[e], g.elabel[e]))
