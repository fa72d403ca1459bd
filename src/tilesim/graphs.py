"""Graphs with labels in a fixed "alphabet" graph, and the operations on
them that the rest of the package is built from.

A graph here is a set of vertices and a set of directed edges, each edge
knowing its tail and head.  An unoriented graph additionally carries an
involution ' on edges (reversal) that swaps tail and head; a fixed point of
the involution is a "half" edge and is allowed.  A labelled graph carries a
reference to another graph (its label graph) and labels every cell by a cell
of the label graph, consistently: edge labels are edges, vertex labels are
vertices, the label of an endpoint is the corresponding endpoint of the edge
label, and reversal commutes with labelling.

Cell ids are arbitrary hashable values.  Operations build ids out of the
input ids (pairs, tuples, tagged values) so that provenance survives
composition; nothing below ever depends on ids being integers.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
import ast
import functools
import gc
import itertools
import math
import operator
import shlex


class CapacityError(Exception):
    """Raised when an enumeration or construction exceeds its budget.

    what names the quantity that ran over, size is how large it got (or
    would have got) and budget is the bound it passed; each is None when
    the raiser does not know it."""

    def __init__(self, message, what=None, size=None, budget=None):
        super().__init__(message)
        self.what = what
        self.size = size
        self.budget = budget


def skey(x):
    """Deterministic sort key for arbitrary hashable ids."""
    return repr(x)


@dataclass(eq=True)
class LabelGraph:
    """A graph, possibly unoriented, possibly labelled over another graph.

    vlabel: vertex id -> label.
    edges:  edge id -> (tail id, head id).
    elabel: edge id -> label.
    reversal: None for an oriented graph, else an involution on edge ids.
    label_graph: None when this graph is itself an alphabet (in which case
        every cell is labelled by its own id), else the alphabet graph.
    """

    vlabel: dict
    edges: dict
    elabel: dict
    reversal: dict | None = None
    label_graph: "LabelGraph | None" = None

    def __post_init__(self):
        validate(self)

    @classmethod
    def _trusted(cls, vlabel, edges, elabel, reversal, label_graph):
        """A LabelGraph from a builder whose output meets the axioms for
        every input it accepts; nothing is checked."""
        g = cls.__new__(cls)
        g.vlabel, g.edges, g.elabel = vlabel, edges, elabel
        g.reversal, g.label_graph = reversal, label_graph
        return g

    # -- small conveniences ------------------------------------------------

    def vertices(self):
        return sorted(self.vlabel, key=skey)

    def edge_ids(self):
        return sorted(self.edges, key=skey)

    def tail(self, e):
        return self.edges[e][0]

    def head(self, e):
        return self.edges[e][1]

    def num_vertices(self):
        return len(self.vlabel)

    def num_edges(self):
        return len(self.edges)

    def edge_orbit(self, e):
        """Representative of {e, e'} (e itself when oriented)."""
        if self.reversal is None:
            return e
        return min(e, self.reversal[e], key=skey)


def _edge_labels(g):
    """g.elabel's labels in g.edges order.

    Invariant: every builder writes edges and elabel in the same order,
    keyed by one id object per edge, built once and stored in both dicts.
    Then this is elabel.values() itself, read by position; for any other
    graph, such as one read from text or changed after it was built, each
    label is looked up by its id."""
    elabel, edges = g.elabel, g.edges
    if len(elabel) == len(edges) and all(map(operator.is_, elabel, edges)):
        return elabel.values()
    return map(elabel.__getitem__, edges)


def validate(g):
    """Check the graph axioms one after another; raise ValueError at the
    first violation."""
    for e, (t, h) in g.edges.items():
        if t not in g.vlabel or h not in g.vlabel:
            raise ValueError("edge %r has a dangling endpoint" % (e,))
        if e not in g.elabel:
            raise ValueError("edge %r has no label" % (e,))
    if set(g.elabel) != set(g.edges):
        raise ValueError("elabel keys differ from edge ids")
    if g.reversal is not None:
        for e, f in g.reversal.items():
            if e not in g.edges or f not in g.edges:
                raise ValueError("reversal mentions unknown edge")
            if g.reversal.get(f) != e:
                raise ValueError("reversal is not an involution at %r" % (e,))
            if g.edges[f] != (g.edges[e][1], g.edges[e][0]):
                raise ValueError("reversal of %r does not swap endpoints" % (e,))
        if set(g.reversal) != set(g.edges):
            raise ValueError("reversal is not total on edges")
    b = g.label_graph
    if b is None:
        # Alphabet graph: cells are labelled by their own ids.
        for v, lab in g.vlabel.items():
            if lab != v:
                raise ValueError("alphabet vertex %r not self-labelled" % (v,))
        for e, lab in g.elabel.items():
            if lab != e:
                raise ValueError("alphabet edge %r not self-labelled" % (e,))
        return
    for v, lab in g.vlabel.items():
        if lab not in b.vlabel:
            raise ValueError("vertex %r labelled by unknown %r" % (v, lab))
    for e, (t, h) in g.edges.items():
        lab = g.elabel[e]
        if lab not in b.edges:
            raise ValueError("edge %r labelled by unknown %r" % (e, lab))
        bt, bh = b.edges[lab]
        if g.vlabel[t] != bt or g.vlabel[h] != bh:
            raise ValueError("labelling of edge %r is not a morphism" % (e,))
    if g.reversal is not None:
        if b.reversal is None:
            raise ValueError("unoriented graph over an oriented alphabet")
        for e, f in g.reversal.items():
            if g.elabel[f] != b.reversal[g.elabel[e]]:
                raise ValueError("labelling of %r ignores reversal" % (e,))


def alphabet(vertex_names, edge_spec, reversal=None):
    """Build an alphabet graph.

    edge_spec: edge name -> (tail name, head name).
    reversal: None, or edge name -> edge name (involution).
    """
    vlabel = {v: v for v in vertex_names}
    edges = dict(edge_spec)
    elabel = {e: e for e in edges}
    rev = dict(reversal) if reversal is not None else None
    return LabelGraph(vlabel, edges, elabel, rev, None)


def rose(edge_names, reversal=None):
    """One-vertex alphabet whose vertex is named 1."""
    return alphabet([1], {e: (1, 1) for e in edge_names}, reversal)


def labelled(b, vlabel, edges, elabel, reversal=None):
    """A graph over b built from copies of the given maps."""
    return LabelGraph(dict(vlabel), dict(edges), dict(elabel),
                      dict(reversal) if reversal is not None else None, b)


def disjoint_union(g1, g2):
    """Disjoint union; ids become (0, id) and (1, id)."""
    if g1.label_graph != g2.label_graph:
        raise ValueError("disjoint union over different alphabets")
    vlabel, edges, elabel = {}, {}, {}
    rev = {} if g1.reversal is not None and g2.reversal is not None else None
    for i, g in enumerate((g1, g2)):
        vlabel.update(((i, v), lab) for v, lab in g.vlabel.items())
        for e, (t, h) in g.edges.items():
            x = (i, e)
            edges[x] = ((i, t), (i, h))
            elabel[x] = g.elabel[e]
        if rev is not None:
            rev.update(((i, e), (i, f)) for e, f in g.reversal.items())
    if g1.label_graph is None:
        # The union of two alphabets is again an alphabet.
        return alphabet(vlabel, edges, rev)
    return LabelGraph(vlabel, edges, elabel, rev, g1.label_graph)


def add_edge_pair(edges, elabel, rev, e, r, t, h, lab=None, rlab=None):
    """Write edge e: t -> h, its reversed twin r: h -> t and both reversal
    entries.  With elabel (None for an alphabet's edge spec), e is labelled
    lab and r rlab."""
    edges[e] = (t, h)
    edges[r] = (h, t)
    if elabel is not None:
        elabel[e] = lab
        elabel[r] = rlab
    rev[e] = r
    rev[r] = e


def induced_subgraph(g, keep_vertices):
    """Subgraph on a vertex subset, keeping edges with both endpoints kept."""
    keep = set(keep_vertices)
    vlabel = {v: g.vlabel[v] for v in keep}
    edges = {e: th for e, th in g.edges.items() if th[0] in keep and th[1] in keep}
    elabel = {e: g.elabel[e] for e in edges}
    rev = None
    if g.reversal is not None:
        rev = {e: g.reversal[e] for e in edges}
    return LabelGraph(vlabel, edges, elabel, rev, g.label_graph)


# -- morphisms -------------------------------------------------------------


@dataclass(eq=True, slots=True)
class Morphism:
    """A graph morphism: vertex map + edge map commuting with tail, head and
    (when both sides are unoriented) reversal.  When domain and codomain are
    labelled over the same alphabet the maps must preserve labels.  The maps
    are any Mapping: a plain dict, or the read-only rows enumerate_homs
    returns, which decode one shared string of codes.  The class is
    slotted, so an instance keeps no __dict__."""

    vmap: Mapping
    emap: Mapping
    domain: LabelGraph
    codomain: LabelGraph

    def __post_init__(self):
        validate_morphism(self)


def validate_morphism(m):
    g, h = m.domain, m.codomain
    if m.vmap.keys() != g.vlabel.keys() or m.emap.keys() != g.edges.keys():
        raise ValueError("morphism maps have wrong domains")
    for v, w in m.vmap.items():
        if w not in h.vlabel:
            raise ValueError("vertex image %r missing" % (w,))
    for e, d in m.emap.items():
        if d not in h.edges:
            raise ValueError("edge image %r missing" % (d,))
        t, hd = g.edges[e]
        if h.edges[d] != (m.vmap[t], m.vmap[hd]):
            raise ValueError("morphism breaks endpoints at %r" % (e,))
    if g.reversal is not None and h.reversal is not None:
        for e, d in m.emap.items():
            if m.emap[g.reversal[e]] != h.reversal[d]:
                raise ValueError("morphism breaks reversal at %r" % (e,))
    if g.label_graph is not None and g.label_graph == h.label_graph:
        for v, w in m.vmap.items():
            if g.vlabel[v] != h.vlabel[w]:
                raise ValueError("morphism breaks vertex label at %r" % (v,))
        for e, d in m.emap.items():
            if g.elabel[e] != h.elabel[d]:
                raise ValueError("morphism breaks edge label at %r" % (e,))


def labelling_morphism(g):
    """The structural morphism from a labelled graph to its alphabet."""
    if g.label_graph is None:
        raise ValueError("graph has no alphabet")
    return Morphism(dict(g.vlabel), dict(g.elabel), g, g.label_graph)


# -- hom enumeration -------------------------------------------------------


def backtrack(rows, fits):
    """Depth-first search for one entry per row, trying rows in order and
    each row's entries in order; fits(img, i) says whether img[i] may
    follow img[:i].  Yields img, one list overwritten as the search goes
    on, at every complete assignment.  The search is a loop, so no
    recursion limit applies however many rows there are."""
    n = len(rows)
    img = [None] * n
    resume = [0] * n
    depth = 0
    while depth >= 0:
        if depth == n:
            yield img
            depth -= 1
            continue
        row = rows[depth]
        k = resume[depth]
        while k < len(row):
            img[depth] = row[k]
            k += 1
            if fits(img, depth):
                break
        else:
            resume[depth] = 0
            depth -= 1
            continue
        resume[depth] = k
        depth += 1


@contextmanager
def _gc_paused():
    """Turn the cyclic garbage collector off for the block if it is on.
    On every exit, run the young collection the block owes, if generation
    0 is over its threshold, and turn it back on; a collector that was off
    stays off, with no collection.  The block must make no cycles."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_count()[0] > gc.get_threshold()[0]:
            gc.collect(0)
        gc.enable()


@_gc_paused()
def enumerate_homs(g, h, limit=None, budget=10 ** 6):
    """All label-preserving morphisms g -> h, in a deterministic order.

    The search runs over a form compiled once per call.  h's vertices are
    numbered in h.vertices() order and h's edges indexed by (label, tail
    number, head number).  Position p of _vertex_order(g) (each vertex
    after the first in its component touches an earlier one) has as
    candidates the numbers of h's vertices with its label, and as earlier
    neighbours the earlier positions that share an edge with it.  An edge
    orbit, one reversal orbit of g.edge_ids(), closes at the later of its
    end positions.

    A result is one string of small-int codes in search order: position p
    contributes its vertex's number, then the codes of the edge images of
    the orbits closing at p, in orbit order, each representative's before
    its partner's.  An edge's code is its place in h.edges.  The string is
    bytes when h has at most 256 vertices and 256 edges, else a tuple of
    ints.

    Each position has an option table.  Its key is the tuple of the
    earlier neighbours' vertex numbers; its value lists, in candidate
    order, every candidate whose edges to them and to itself are in the
    index, as (candidate index, candidate, piece, choices).  choices
    holds, per orbit closing at p, orbit_images' list of its images; when
    each orbit has one choice, piece is the candidate's code followed by
    the orbits' codes, else piece is None.  A table is built the first
    time its key comes up in a call, and all of them start over once they
    hold _HOM_TABLE_LIMIT options, so their memory stays bounded.

    The iterative search takes each position's options in order, writing
    each taken piece, or only its candidate's code, to the position's
    fixed slice of one code buffer, so the search state stays linear in
    the size of g.  A complete vertex map whose orbits have one image each
    is one result, a copy of the buffer; otherwise its results run over
    the product of the orbits' choices in orbit order, the last orbit
    varying fastest, each written to the buffer in turn.  Results come in
    that order, and `limit` stops after the first `limit` of them.

    The tail is the positions from the first s on whose earlier neighbours
    all come before s.  Given the codes before s, its results are the
    product of its tables, the last position varying fastest: one
    itertools.product over the codes before s and each tail table's
    pieces, joined once per result.  The search goes one option at a time
    instead if a table is empty, an orbit so far or in the block has other
    than one image, or the budget or `limit` would end the search within
    the block.

    One emit loop makes the results of a complete vertex map and of a tail
    block: each one's two _Rows and Morphism come from __new__ with their
    slots filled, so no Python function runs per result.  A _Row is a
    read-only Mapping that decodes the result's code string through a key
    index and a table shared by the call's results: vmaps have the keys of
    _vertex_order(g), emaps those of g.edge_ids() in orbit order, each
    orbit's representative before its partner, and a row equals the dict
    with the same items in the same order.

    `budget` bounds the explored assignments and raises CapacityError when
    exhausted.  A unit is charged per vertex candidate tried and per
    morphism built: taking an option charges the candidates from the last
    one taken at its position up to itself, and an exhausted table the
    rest of its position's candidates, so a tail block is charged, per
    position p, p's candidate count times the product of the table sizes
    before p, plus one per result.  The error gives budget + 1 as the
    size, where a count one candidate at a time would have stopped.

    The candidates and the edge index are read from h.vlabel, h.edges and
    h.elabel on each call and the tables live for one call, so vertex
    images keep their labels and edge images their endpoints and labels
    by construction, and a later call sees h as it is then.  validate(h)
    runs at entry, and validate(g) when g's edge ids or reversal orbits
    fail the search's own check or compiling g meets a vertex, label or
    edge that g lacks, so a target, or a domain, changed after it was built
    raises validate's ValueError before any result, and every result
    passes validate_morphism by construction.

    The call runs under _gc_paused, as its results form no cycles.
    """
    if g.label_graph != h.label_graph:
        raise ValueError("hom between graphs over different alphabets")
    if limit is not None and limit <= 0:
        return []
    validate(h)
    hverts = h.vertices()
    hid = {w: k for k, w in enumerate(hverts)}
    by_label = {}
    for k, w in enumerate(hverts):
        by_label.setdefault(h.vlabel[w], []).append(k)
    # Each index entry holds its edges in skey order.
    index = {}
    for d, lab in h.elabel.items():
        t, hd = h.edges[d]
        index.setdefault((lab, hid[t], hid[hd]), []).append(d)
    for ds in index.values():
        if len(ds) > 1:
            ds.sort(key=skey)
    # Compiling a g that names a vertex, label or edge it lacks fails by a
    # KeyError, and validate(g) then names the fault, so a valid g is not
    # validated.
    try:
        order = _vertex_order(g)
        n = len(order)
        pos = {v: i for i, v in enumerate(order)}
        rows = [by_label.get(g.vlabel[v], []) for v in order]
        # Per position p: its earlier neighbours, its edges as (label,
        # tail slot, head slot) checks, and its closing orbits as (label,
        # tail slot, head slot, whether the image must be self-reversed,
        # whether it has a partner).  A slot indexes the key with p's own
        # candidate appended, so slot -1 is p itself.
        earlier = [set() for _ in order]
        for t, hd in g.edges.values():
            i, j = pos[t], pos[hd]
            if i != j:
                earlier[max(i, j)].add(min(i, j))
        nbrs = [sorted(qs) for qs in earlier]
        slots = [dict(zip(qs, range(len(qs)))) for qs in nbrs]
        for p, sl in enumerate(slots):
            sl[p] = -1
        checks = [[] for _ in order]
        for e, (t, hd) in g.edges.items():
            p = max(pos[t], pos[hd])
            checks[p].append((g.elabel[e], slots[p][pos[t]],
                              slots[p][pos[hd]]))
        unoriented = g.reversal is not None and h.reversal is not None
        orbit_ids = []
        closing = [[] for _ in order]
        # Per orbit: its closing position p, its index among p's closing
        # orbits and where its images start among theirs; filled[p] counts
        # p's images.
        orbit_at = []
        filled = [0] * n
        seen = set()
        for e in g.edge_ids():
            if e in seen:
                continue
            partner = g.reversal[e] if unoriented else e
            seen.update((e, partner))
            t, hd = g.edges[e]
            p = max(pos[t], pos[hd])
            orbit_ids.append((e, None if partner == e else partner))
            orbit_at.append((p, len(closing[p]), filled[p]))
            filled[p] += 1 if partner == e else 2
            closing[p].append((g.elabel[e], slots[p][pos[t]],
                               slots[p][pos[hd]], unoriented and partner == e,
                               partner != e))
        # In a result's codes, position p's vertex code is at lo[p] and an
        # orbit's first edge code at starts[orbit]; vindex and eindex give
        # each key of vmap (`order`) and emap (`flat`) its offset.  Those
        # are the keys of every result, so the edge domain is checked here,
        # once, as is that each partner is its representative's reversed
        # twin with the reversed label, which orbit_images takes for granted
        # (order holds g.vlabel's keys by _vertex_order's construction).  A
        # g that fails (an edge in flat twice means g.reversal is no longer
        # an involution) is not a graph, and validate raises its error.
        lo = list(itertools.accumulate((1 + f for f in filled), initial=0))
        starts = [lo[p] + 1 + start for p, _i, start in orbit_at]
        flat = [x for pair in orbit_ids for x in pair if x is not None]
        vindex = {v: lo[p] for p, v in enumerate(order)}
        eindex = {e: s + x for s, pair in zip(starts, orbit_ids)
                  for x, e in enumerate(pair) if e is not None}
        brev = g.label_graph.reversal if g.label_graph is not None else None
        if (len(eindex) < len(flat) or set(flat) != g.edges.keys()
                or not all(p is None or (
                    g.reversal.get(p) == e and g.edges[p] == g.edges[e][::-1]
                    and (brev is None
                         or g.elabel[p] == brev.get(g.elabel[e])))
                    for e, p in orbit_ids)):
            validate(g)
    except KeyError as err:
        # validate raises; should it pass g, err is a fault of this code
        raise validate(g) or err
    hr = h.reversal
    vtable = tuple(hverts)
    etable = list(h.edges)
    ecode = {d: i for i, d in enumerate(etable)}
    # Codes are bytes, which the collector does not track, when both tables
    # fit a byte, else a tuple of ints; join concatenates a tuple of them.
    if max(len(vtable), len(etable)) <= 256:
        pack, buf, join = bytes, bytearray(lo[n]), b"".join
    else:
        pack, buf = tuple, [0] * lo[n]
        join = functools.partial(sum, start=())
    keys = [_tuple_getter([lo[q] for q in qs]) for qs in nbrs]
    spent = 0

    def overspent():
        return CapacityError("hom enumeration budget exceeded: more than %d "
                             "assignments" % budget, "hom assignments",
                             budget + 1, budget)

    def orbit_images(lab, ti, hi, self_rev, paired):
        """The packed codes of each image of an orbit whose ends map to
        vertex numbers ti, hi: (d,), or (d, h.reversal[d]) for an orbit with
        a partner, in skey order of d.  By the index and the filter below,
        d has the right endpoints and label and a self-reversed d is; h and
        g passed validate's checks, so a partner image is right too."""
        return [pack([ecode[d], ecode[hr[d]]] if paired else [ecode[d]])
                for d in index[(lab, ti, hi)]
                if not self_rev or hr[d] == d]

    def options(p, key):
        """Position p's option table for key, as the docstring above says."""
        out = []
        for k, c in enumerate(rows[p]):
            ends = key + (c,)
            for lab, a, b in checks[p]:
                if (lab, ends[a], ends[b]) not in index:
                    break
            else:
                piece, choices = pack([c]), []
                for lab, a, b, self_rev, paired in closing[p]:
                    ch = orbit_images(lab, ends[a], ends[b], self_rev, paired)
                    choices.append(ch)
                    if piece is not None and len(ch) == 1:
                        piece += ch[0]
                    else:
                        piece = None
                out.append((k, c, piece, choices))
        return out

    def product_of(choices):
        """Yield buf packed with each combination of the orbits' choices."""
        for combo in itertools.product(*choices):
            for s, codes in zip(starts, combo):
                buf[s:s + len(codes)] = codes
            yield pack(buf)

    # Per position from n - 1 down: the last earlier neighbour of it or later.
    tops = itertools.accumulate((qs[-1] if qs else -1 for qs in nbrs[::-1]),
                                max)
    tail = min((p for p, top in zip(range(n - 1, -1, -1), tops) if top < p),
               default=n)

    results = []
    tables = [{} for _ in order]
    stored = 0

    def table(p):
        nonlocal stored
        key = keys[p](buf)
        o = tables[p].get(key)
        if o is None:
            if stored >= _HOM_TABLE_LIMIT:
                for t in tables:
                    t.clear()
                stored = 0
            o = tables[p][key] = options(p, key)
            stored += len(o) + 1
        return o

    def tail_block():
        """The tail's block as a batch, as the docstring says, or None."""
        nonlocal spent
        block = [table(p) for p in range(tail, n)]
        size, charge = 1, 0
        for p, o in enumerate(block, tail):
            charge += size * len(rows[p])
            size *= len(o)
        if (not size or spent + charge + size > budget
                or (limit is not None and len(results) + size >= limit)
                or not all(x[2] is not None for o in block for x in o)):
            return None
        spent += charge
        combos = itertools.product([pack(buf[:lo[tail]])],
                                   *[[x[2] for x in o] for o in block])
        return map(join, combos), size

    # Per depth: the option list, the next option and the candidate index
    # of the last one taken; the choices taken; and whether the orbits
    # closed before it all had one choice.  buf holds the codes taken so
    # far, so the table keys read the earlier neighbours' vertex codes from
    # it.
    opts = [None] * n
    nxt = [0] * n
    last = [-1] * n
    taken = [None] * n
    single = [True] * (n + 1)
    new_row, new_morphism = _Row.__new__, Morphism.__new__
    depth = 0
    while depth >= 0:
        # A batch of results is (code strings, how many).
        if depth == n:
            if single[n]:
                batch = (pack(buf),), 1
            else:
                choices = [taken[p][i] for p, i, _ in orbit_at]
                batch = product_of(choices), math.prod(map(len, choices))
        elif depth == tail and opts[depth] is None and single[depth]:
            batch = tail_block()
        else:
            batch = None
        if batch is not None:
            # The emit loop, charging the budget one unit per result.
            codes_of, size = batch
            take = min(size, budget - spent,
                       size if limit is None else limit - len(results))
            spent += take
            for codes in itertools.islice(codes_of, take):
                vmap, emap = new_row(_Row), new_row(_Row)
                vmap._index, vmap._codes, vmap._table = vindex, codes, vtable
                emap._index, emap._codes, emap._table = eindex, codes, etable
                m = new_morphism(Morphism)
                m.vmap, m.emap = vmap, emap
                m.domain, m.codomain = g, h
                results.append(m)
            if len(results) == limit:
                return results
            if take < size:
                raise overspent()
            depth -= 1
            continue
        o = opts[depth]
        if o is None:
            o = opts[depth] = table(depth)
            nxt[depth] = 0
            last[depth] = -1
        a = nxt[depth]
        if a == len(o):
            spent += len(rows[depth]) - 1 - last[depth]
            if spent > budget:
                raise overspent()
            opts[depth] = None
            depth -= 1
            continue
        k, c, piece, taken[depth] = o[a]
        nxt[depth] = a + 1
        spent += k - last[depth]
        last[depth] = k
        if spent > budget:
            raise overspent()
        if piece is None:
            buf[lo[depth]] = c
            single[depth + 1] = False
        else:
            buf[lo[depth]:lo[depth + 1]] = piece
            single[depth + 1] = single[depth]
        depth += 1
    return results


# How many options, counting one more per table, the tables of one
# enumerate_homs call hold before they start over.
_HOM_TABLE_LIMIT = 1 << 16


class _Row(Mapping):
    """A read-only map that decodes codes: the value at key k is
    table[codes[index[k]]].  index is a dict over the map's keys, in their
    order, that gives each key's offset in codes, and table turns a code
    back into an id.  Both rows of an enumerate_homs result share its codes,
    and every result of one call the call's two indexes and tables, so a
    result stores only its codes.  A _Row has no __init__: enumerate_homs'
    emit loop makes each one with _Row.__new__ and assigns its slots."""

    __slots__ = ("_index", "_codes", "_table")

    def __getitem__(self, key):
        return self._table[self._codes[self._index[key]]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)

    def items(self):
        return _RowItems(self)

    def values(self):
        return tuple(map(self._table.__getitem__,
                         map(self._codes.__getitem__, self._index.values())))

    def __repr__(self):
        return repr(dict(self.items()))


class _RowItems(ItemsView):
    """A _Row's items view, decoded in C by zip and map rather than by a
    lookup per key."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


def _tuple_getter(idx):
    """operator.itemgetter(*idx), but returning a tuple for any len(idx)."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _vertex_order(g):
    seen = set()
    order = []
    adj = {v: set() for v in g.vlabel}
    for t, h in g.edges.values():
        adj[t].add(h)
        adj[h].add(t)
    for start in g.vertices():
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(adj[v], key=skey):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


# -- pullback and exponential ----------------------------------------------


def pullback(g1, g2):
    """Fibre product over the common alphabet: cells are pairs of cells with
    equal labels, structure maps act componentwise.  This is alpha_pullback
    through g2's own labelling."""
    if g1.label_graph != g2.label_graph or g1.label_graph is None:
        raise ValueError("pullback needs a common alphabet")
    return alpha_pullback(g1, g2, labelling_morphism(g2))


def identity_over(b):
    """b seen as a graph labelled over itself (identity labelling)."""
    return labelled(b, b.vlabel, b.edges, b.elabel, b.reversal)


def alpha_pullback(g1, g2, alpha):
    """Pullback of g1 (over A) and g2 matched through an extra labelling
    alpha: g2 -> A, keeping g2's own labelling on the result.

    Cells are pairs (c1, c2) with the A-label of c1 equal to the alpha-image
    of c2; the label of the pair is the g2-label of c2, so the result lives
    over g2's alphabet.
    """
    a = alpha.codomain
    if g1.label_graph != a:
        raise ValueError("first factor is not labelled over alpha's target")
    if alpha.domain != g2:
        raise ValueError("alpha is not a labelling of the second factor")
    by_alpha_v = {}
    for u2 in g2.vertices():
        by_alpha_v.setdefault(alpha.vmap[u2], []).append(u2)
    by_alpha_e = {}
    for e2 in g2.edge_ids():
        by_alpha_e.setdefault(alpha.emap[e2], []).append(e2)
    vlabel = {}
    for u1 in g1.vertices():
        for u2 in by_alpha_v.get(g1.vlabel[u1], []):
            vlabel[(u1, u2)] = g2.vlabel[u2]
    edges = {}
    elabel = {}
    for e1 in g1.edge_ids():
        for e2 in by_alpha_e.get(g1.elabel[e1], []):
            e = (e1, e2)
            edges[e] = ((g1.tail(e1), g2.tail(e2)), (g1.head(e1), g2.head(e2)))
            elabel[e] = g2.elabel[e2]
    rev = None
    if g1.reversal is not None and g2.reversal is not None:
        rev = {e: (g1.reversal[e[0]], g2.reversal[e[1]]) for e in edges}
    return LabelGraph(vlabel, edges, elabel, rev, g2.label_graph)


# The fibre-cell sides that reversal swaps.
_OTHER_SIDE = {"T": "H", "H": "T", "F": "R", "R": "F"}


def _generic_fiber(g2, alpha, a, is_edge):
    """The fiber of alpha over the abstract closure of the alphabet cell a,
    as a graph labelled like g2: alpha_pullback of the free cell over a.

    For a vertex a the free cell is one vertex 'T', so the fiber is the
    discrete graph on pairs ('T', u2) with alpha(u2) = a.  For an edge a it
    is an edge 'F' from 'T' to 'H' and, when alpha's codomain and g2 are
    both unoriented, its reversal 'R' over a'.  So tail-side copies
    ('T', u2) and head-side copies ('H', u2) stay distinct even when a is a
    self-loop in the alphabet, which is what makes currying against the
    pullback work.
    """
    av = alpha.codomain
    unoriented = av.reversal is not None and g2.reversal is not None
    if not is_edge:
        cell = LabelGraph({"T": a}, {}, {}, {} if unoriented else None, av)
        return alpha_pullback(cell, g2, alpha)
    edges, elabel = {"F": ("T", "H")}, {"F": a}
    if unoriented:
        edges["R"], elabel["R"] = ("H", "T"), av.reversal[a]
    ta, ha = av.edges[a]
    cell = LabelGraph({"T": ta, "H": ha}, edges, elabel,
                      {"F": "R", "R": "F"} if unoriented else None, av)
    return alpha_pullback(cell, g2, alpha)


def exponential(g1, g2, alpha=None, max_cells=10 ** 5, budget=10 ** 6):
    """The graph of local maps from g2 into g1.

    g1 is labelled over B, g2 over B with an extra labelling alpha into A
    (alpha defaults to g2's own labelling, i.e. A = B).  The result is
    labelled over A: a cell over an A-cell a is a pair (f, a) with f a
    B-respecting morphism from the fiber of alpha over the closure of a
    into g1.  Tail and head of (f, a) restrict f to the tail and head side
    of the fiber; reversal swaps the sides.  Raises CapacityError when more
    than max_cells cells would be produced.

    The cell id is (key, a).  key is (vertex items, edge items): f's
    (fibre cell, image) pairs, each part sorted by skey of the fibre cell,
    with the fibre cells of _generic_fiber.  A vertex cell's key has only
    ('T', u2) items.  An edge cell's tail key keeps its ('T', u2) items
    and its head key its ('H', u2) items renamed ('T', u2); its reversal's
    key swaps T with H and F with R.  _local_key builds the keys, here and
    in curry, which must agree on them.
    """
    if alpha is None:
        alpha = labelling_morphism(g2)
    av = alpha.codomain
    if g1.label_graph != g2.label_graph or g1.label_graph is None:
        raise ValueError("exponential needs both graphs over one alphabet")
    if (g1.reversal is None) != (g2.reversal is None):
        raise ValueError("exponential needs matching orientedness")
    vlabel = {}
    for a in av.vertices():
        fiber = _generic_fiber(g2, alpha, a, False)
        for f in enumerate_homs(fiber, g1, budget=budget):
            vlabel[(_local_key(f.vmap.items(), f.emap.items()), a)] = a
        if len(vlabel) > max_cells:
            raise CapacityError("exponential exceeds %d cells" % max_cells,
                                "exponential vertices", len(vlabel),
                                max_cells)
    edges = {}
    elabel = {}
    for c in av.edge_ids():
        fiber = _generic_fiber(g2, alpha, c, True)
        for f in enumerate_homs(fiber, g1, budget=budget):
            k = _local_key(f.vmap.items(), f.emap.items())
            x = (k, c)
            edges[x] = ((_side_key(k, "T"), av.tail(c)),
                        (_side_key(k, "H"), av.head(c)))
            elabel[x] = c
        if len(edges) > max_cells:
            raise CapacityError("exponential exceeds %d cells" % max_cells,
                                "exponential edges", len(edges), max_cells)
    rev = None
    if av.reversal is not None and g1.reversal is not None and g2.reversal is not None:
        rev = {(k, c): (_swap_key(k), av.reversal[c]) for (k, c) in edges}
    return LabelGraph(vlabel, edges, elabel, rev, av)


def _local_key(vitems, eitems=()):
    """The key of the local map with these (fibre cell, image) items."""
    return tuple(tuple(sorted(items, key=lambda kv: skey(kv[0])))
                 for items in (vitems, eitems))


# A key's items are in skey order of their fibre cells (side, x): by side
# letter, F < H < R < T, then by x.  Renaming a side keeps its block's
# order, so side and swap keys need no sort; a swap trades the two blocks.


def _side_key(key, side):
    return tuple((("T", u2), img) for (s, u2), img in key[0] if s == side), ()


def _swap_key(key):
    return tuple(
        tuple(((_OTHER_SIDE[s], x), img) for (s, x), img in items if s in "TR")
        + tuple(((_OTHER_SIDE[s], x), img) for (s, x), img in items
                if s in "HF")
        for items in key)


def curry(lam, g1, g2, alpha, expg):
    """Turn lam: alpha_pullback(g1, g2, alpha) -> g3 into g1 -> g3^{g2}:
    a cell of g1 goes to lam's local map on its fibre."""
    if (g1.reversal is None) != (g2.reversal is None):
        raise ValueError("curry needs matching orientedness")

    def local_map(c, is_edge, ends):
        # ends[side] is the g1 cell that fibre cells (side, x) pair with.
        fiber = _generic_fiber(g2, alpha, c, is_edge)
        return (_local_key(
            (((s, x), lam.vmap[(ends[s], x)]) for s, x in fiber.vlabel),
            (((s, x), lam.emap[(ends[s], x)]) for s, x in fiber.edges)), c)

    rev1 = g1.reversal or {}
    vmap = {u1: local_map(g1.vlabel[u1], False, {"T": u1})
            for u1 in g1.vertices()}
    emap = {e1: local_map(g1.elabel[e1], True,
                          {"T": g1.tail(e1), "H": g1.head(e1), "F": e1,
                           "R": rev1.get(e1)})
            for e1 in g1.edge_ids()}
    return Morphism(vmap, emap, g1, expg)


def uncurry(rho, g1, g2, alpha, g3):
    """Turn rho: g1 -> g3^{g2} into alpha_pullback(g1, g2, alpha) -> g3."""
    prod = alpha_pullback(g1, g2, alpha)
    vmap = {}
    for (u1, u2) in prod.vlabel:
        (vitems, _), _a = rho.vmap[u1]
        vmap[(u1, u2)] = dict(vitems)[("T", u2)]
    emap = {}
    for (e1, e2) in prod.edges:
        (_, eitems), _c = rho.emap[e1]
        emap[(e1, e2)] = dict(eitems)[("F", e2)]
    return Morphism(vmap, emap, prod, g3)


# -- path subdivision and sharp ---------------------------------------------


def path_subdivision(g):
    """Subdivide every edge into a path of length two through a new midpoint
    vertex shared by an edge and its reversal, and add the four edge pieces
    (0,e,0), (0,e,1), (1,e,1), (1,e,0) per edge e.

    The result of a labelled graph is labelled over the subdivided
    alphabet.  That of an alphabet is again an alphabet: its labels are
    built from g's labels as its ids are from g's ids, and g's labels are
    g's ids.
    """
    b = g.label_graph
    labels = g if b is None else b
    vlabel = {("v", v): ("v", g.vlabel[v]) for v in g.vertices()}
    edges = {}
    elabel = {}
    for e in g.edge_ids():
        lab = g.elabel[e]
        t, h = ("v", g.tail(e)), ("v", g.head(e))
        mid = ("e", g.edge_orbit(e))
        vlabel[mid] = ("e", labels.edge_orbit(lab))
        for i, j, ends in ((0, 0, (t, h)), (0, 1, (t, mid)),
                           (1, 1, (mid, mid)), (1, 0, (mid, h))):
            x = (i, e, j)
            edges[x] = ends
            elabel[x] = (i, lab, j)
    rev = None
    if g.reversal is not None:
        rev = {x: (x[2], g.reversal[x[1]], x[0]) for x in edges}
    return LabelGraph(vlabel, edges, elabel, rev,
                      None if b is None else path_subdivision(b))


def base_of_subdivision(bstar):
    """Recover b from path_subdivision(b); raise ValueError when bstar is
    not the path subdivision of the alphabet recovered."""
    vertices = [v[1] for v in bstar.vertices()
                if isinstance(v, tuple) and len(v) == 2 and v[0] == "v"]
    edges = {e[1]: (t, h) for e in bstar.edge_ids()
             if isinstance(e, tuple) and len(e) == 3 and e[0] == e[2] == 0
             for (_, t), (_, h) in [bstar.edges[e]]}
    rev = None
    if bstar.reversal is not None:
        rev = {e: bstar.reversal[(0, e, 0)][1] for e in edges}
    b = alphabet(vertices, edges, rev)
    if bstar != path_subdivision(b):
        raise ValueError("labels are not over a path subdivision")
    return b


def sharp(g):
    """Right adjoint-ish companion of simulation.flat: subdivide g and add,
    per edge c of its alphabet b, a pair of sink vertices absorbing
    unfinished coherent paths.  The result is labelled over the subdivision
    of b.

    Per edge e of g with label c the new edges are: one (0,c,1) edge from
    the tail of e into the minus sink of c, one (1,c,0) edge from the plus
    sink of c onto the head of e, and five (1,c,1) edges: plus->plus,
    plus->minus, plus->midpoint(e), midpoint(e)->minus, minus->minus.
    """
    b = g.label_graph
    if b is None:
        raise ValueError("sharp needs a labelled graph")
    gs = path_subdivision(g)
    vlabel = dict(gs.vlabel)
    edges = dict(gs.edges)
    elabel = dict(gs.elabel)
    rev = dict(gs.reversal) if gs.reversal is not None else None

    def plus(c):
        orb = b.edge_orbit(c)
        return ("sink", orb, "+" if c == orb else "-")

    def minus(c):
        if b.reversal is None:
            return ("sink", c, "-")
        return plus(b.reversal[c])

    for c in b.edge_ids():
        vlabel[plus(c)] = vlabel[minus(c)] = ("e", b.edge_orbit(c))

    for e in g.edge_ids():
        c = g.elabel[e]
        p, m, mid = plus(c), minus(c), ("e", g.edge_orbit(e))
        for name, ends, lab in (("start", (("v", g.tail(e)), m), (0, c, 1)),
                                ("end", (p, ("v", g.head(e))), (1, c, 0)),
                                ("m1", (p, p), (1, c, 1)),
                                ("m2", (p, m), (1, c, 1)),
                                ("m3", (p, mid), (1, c, 1)),
                                ("m4", (mid, m), (1, c, 1)),
                                ("m5", (m, m), (1, c, 1))):
            x = (name, e)
            edges[x] = ends
            elabel[x] = lab
    if rev is not None:
        for e in g.edge_ids():
            for name, rname in (("start", "end"), ("end", "start"),
                                ("m1", "m5"), ("m5", "m1"), ("m2", "m2"),
                                ("m3", "m4"), ("m4", "m3")):
                rev[(name, e)] = (rname, g.reversal[e])
    return LabelGraph(vlabel, edges, elabel, rev, path_subdivision(b))


# -- weak etaleness and simplification --------------------------------------


def is_weakly_etale(g):
    """True iff any two same-label edges sharing a tail (or sharing a head)
    share both endpoints."""
    by_tail = {}
    by_head = {}
    for e, (t, h) in g.edges.items():
        lab = g.elabel[e]
        if by_tail.setdefault((lab, t), h) != h:
            return False
        if by_head.setdefault((lab, h), t) != t:
            return False
    return True


def is_etale(g):
    """True iff no two distinct same-label edges share a tail or a head."""
    seen_t = set()
    seen_h = set()
    for e, (t, h) in g.edges.items():
        lab = g.elabel[e]
        if (lab, t) in seen_t or (lab, h) in seen_h:
            return False
        seen_t.add((lab, t))
        seen_h.add((lab, h))
    return True


def simplify(g):
    """Merge parallel edges with equal labels; edge ids become
    (tail, label, head) triples."""
    vlabel = dict(g.vlabel)
    edges = {}
    elabel = {}
    witness_rev_label = {}
    for e, (t, h) in g.edges.items():
        lab = g.elabel[e]
        x = (t, lab, h)
        edges[x] = (t, h)
        elabel[x] = lab
        if g.reversal is not None:
            rl = g.elabel[g.reversal[e]]
            prev = witness_rev_label.setdefault(x, rl)
            if prev != rl:
                raise ValueError("reversal label ambiguous under simplification")
    rev = None
    if g.reversal is not None:
        rev = {(t, lab, h): (h, witness_rev_label[(t, lab, h)], t)
               for (t, lab, h) in edges}
    return LabelGraph(vlabel, edges, elabel, rev, g.label_graph)


def full_simplify(g):
    """Simplify and additionally drop self-loops."""
    s = simplify(g)
    drop = [e for e, (t, h) in s.edges.items() if t == h]
    for e in drop:
        del s.edges[e]
        del s.elabel[e]
        if s.reversal is not None:
            del s.reversal[e]
    validate(s)
    return s


# -- vertex blow-up ----------------------------------------------------------


def vertex_blowup(g, k):
    """Replace each vertex u by k(label(u)) copies and each edge by all
    copy-to-copy variants.  k maps alphabet vertices to counts >= 0.  The
    result is labelled over the blown-up alphabet (and a blown-up alphabet is
    again an alphabet)."""
    b = g.label_graph
    vlabel = {}
    for v in g.vertices():
        for i in range(k[g.vlabel[v]]):
            vlabel[(v, i)] = (g.vlabel[v], i)
    edges = {}
    elabel = {}
    for e in g.edge_ids():
        t, h = g.edges[e]
        for i in range(k[g.vlabel[t]]):
            for j in range(k[g.vlabel[h]]):
                x = (i, e, j)
                edges[x] = ((t, i), (h, j))
                elabel[x] = (i, g.elabel[e], j)
    rev = None
    if g.reversal is not None:
        rev = {x: (x[2], g.reversal[x[1]], x[0]) for x in edges}
    # Over an alphabet each label is its cell's id, as in path_subdivision.
    return LabelGraph(vlabel, edges, elabel, rev,
                      None if b is None else vertex_blowup(b, k))


# -- serialization -----------------------------------------------------------


def _fmt(x):
    return shlex.quote(repr(x))


def _parse_token(tok):
    """The value of a token written by _fmt: a Python literal, or a tuple
    nesting literals and GroupPoint(...) calls with literal arguments, as
    window cell ids read.  Checked on the syntax tree, so nothing but
    literals is evaluated; any other token stays a string."""
    try:
        return _literal(ast.parse(tok.lstrip(" \t"), mode="eval").body)
    except (ValueError, SyntaxError):
        return tok


def _literal(node):
    if isinstance(node, ast.Tuple):
        return tuple(map(_literal, node.elts))
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "GroupPoint"):
        return ast.literal_eval(node)
    from .geometry import GroupPoint
    args = [ast.literal_eval(x) for x in node.args]
    kwargs = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
    try:
        return GroupPoint(*args, **kwargs)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def read_lines(text, what, arity, once):
    """The (raw line, key, values) records of a line format, in line order.

    Each line is split by shlex, so a quoted token may hold spaces or '#'
    and an unquoted '#' starts a comment; the first token is the key and
    the rest, kept as strings, its values.  arity maps each key to its
    allowed value counts, or None for any; keys in once may appear once.
    Any other line is a ValueError naming it, as are the checks readers
    run under _naming_line while they build from the records."""
    records, seen = [], set()
    for raw in text.splitlines():
        with _naming_line(what, raw):
            toks = shlex.split(raw, comments=True)
            if not toks:
                continue
            key, values = toks[0], toks[1:]
            if key not in arity:
                raise ValueError("unknown line")
            if arity[key] is not None and len(values) not in arity[key]:
                raise ValueError("%s takes %s values" % (
                    key, " or ".join(map(str, arity[key]))))
            if key in seen and key in once:
                raise ValueError("repeated %s line" % key)
            seen.add(key)
            records.append((raw, key, values))
    return records


@contextmanager
def _naming_line(what, raw):
    try:
        yield
    except ValueError as exc:
        raise ValueError("bad %s line %r: %s" % (what, raw, exc)) from None


def _cell_lines(g, m=None):
    """g's vertex and edge lines in skey order, "vertex id label" and
    "edge id tail head label [rev id']", each with the cell's image under
    the morphism m, when given, before the label."""
    lines = []
    for v in g.vertices():
        cols = [v] + ([m.vmap[v]] if m else []) + [g.vlabel[v]]
        lines.append("vertex " + " ".join(map(_fmt, cols)))
    for e in g.edge_ids():
        cols = [e, *g.edges[e]] + ([m.emap[e]] if m else []) + [g.elabel[e]]
        rev = " rev " + _fmt(g.reversal[e]) if g.reversal is not None else ""
        lines.append("edge " + " ".join(map(_fmt, cols)) + rev)
    return lines


def _read_cells(records, what, label_graph, mapped):
    """(graph over label_graph, vertex images, edge images) from the
    vertex and edge records that _cell_lines writes, with the image column
    when mapped.  A repeated id, or a word other than rev before the
    reverse edge's id, is a ValueError naming the line."""
    vlabel, edges, elabel, rev, vmap, emap = {}, {}, {}, {}, {}, {}
    for raw, key, values in records:
        if key not in ("vertex", "edge"):
            continue
        with _naming_line(what, raw):
            x, *rest = map(_parse_token, values)
            if x in (vlabel if key == "vertex" else edges):
                raise ValueError("repeated %s %r" % (key, x))
            if key == "vertex":
                if mapped:
                    vmap[x] = rest.pop(0)
                vlabel[x] = rest[0]
                continue
            if len(rest) > 4 + mapped:
                if values[-2] != "rev":
                    raise ValueError("expected 'rev'")
                rev[x] = rest[-1]
            if mapped:
                emap[x] = rest.pop(2)
            edges[x], elabel[x] = (rest[0], rest[1]), rest[2]
    g = LabelGraph(vlabel, edges, elabel, rev or None, label_graph)
    return g, vmap, emap


def to_text(g):
    """Canonical text form: one line per cell, sorted deterministically."""
    return "\n".join(_cell_lines(g)) + "\n"


def from_text(text, label_graph=None):
    """Read to_text's format; '#' starts a comment.  Keys: vertex (2
    values: id, label) and edge (4: id, tail, head, label, or 6 with rev
    and the reverse edge's id), on any number of lines."""
    records = read_lines(text, "graph", {"vertex": (2,), "edge": (4, 6)}, ())
    return _read_cells(records, "graph", label_graph, False)[0]


def to_dot(g, name="g"):
    """GraphViz export; one arrow per reversal orbit when unoriented."""
    return _dot(g, name, g.vlabel.__getitem__, g.elabel.__getitem__)


def _dot(g, name, vertex_text, edge_text):
    """GraphViz lines for g, with node and arrow labels vertex_text(v) and
    edge_text(e); one arrow per reversal orbit when unoriented."""
    lines = ["digraph %s {" % name]
    idx = {v: i for i, v in enumerate(g.vertices())}
    for v, i in idx.items():
        lines.append('  n%d [label="%s"];' % (i, _dot_escape(vertex_text(v))))
    done = set()
    for e in g.edge_ids():
        if e in done:
            continue
        t, h = g.edges[e]
        attrs = 'label="%s"' % _dot_escape(edge_text(e))
        if g.reversal is not None:
            ep = g.reversal[e]
            done.add(ep)
            if ep != e:
                attrs += ", dir=both"
        lines.append("  n%d -> n%d [%s];" % (idx[t], idx[h], attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(x):
    return str(x).replace("\\", "\\\\").replace('"', '\\"')
