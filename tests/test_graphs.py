import copy
import gc
import hashlib
import itertools
import pickle
import random
import re
import sys
import tracemalloc

import pytest

from tilesim import graphs
from tilesim.geometry import (PLANE_INVERSE, ball, plane_label_graph,
                              plane_window)
from tilesim.graphs import (
    _vertex_order,
    CapacityError,
    LabelGraph,
    Morphism,
    add_edge_pair,
    alpha_pullback,
    alphabet,
    base_of_subdivision,
    curry,
    disjoint_union,
    enumerate_homs,
    exponential,
    from_text,
    full_simplify,
    identity_over,
    is_etale,
    is_weakly_etale,
    labelled,
    labelling_morphism,
    path_subdivision,
    pullback,
    rose,
    sharp,
    simplify,
    to_dot,
    to_text,
    uncurry,
    validate_morphism,
    vertex_blowup,
)
from tilesim.reduction import tileset_exponential
from tilesim.sat import exact_count
from tilesim.simulation import builtin_simulator, flat
from tilesim.tilesets import DhsTarget, WangTileset, comb_tileset, wang_to_dhs


def two_vertex_alphabet():
    return alphabet(["p", "q"], {"c": ("p", "q"), "d": ("q", "q")})


def unoriented_rose(names):
    spec = {}
    rev = {}
    for n in names:
        spec[n] = (1, 1)
        spec[n + "'"] = (1, 1)
        rev[n] = n + "'"
        rev[n + "'"] = n
    return alphabet([1], spec, rev)


def random_alphabet(rng, unoriented):
    nv = rng.randint(1, 3)
    verts = list(range(nv))
    edges = {}
    rev = {} if unoriented else None
    for i in range(rng.randint(1, 3)):
        t = rng.choice(verts)
        h = rng.choice(verts)
        if unoriented:
            if t == h and rng.random() < 0.3:
                edges[("c", i)] = (t, h)
                rev[("c", i)] = ("c", i)
            else:
                edges[("c", i)] = (t, h)
                edges[("c'", i)] = (h, t)
                rev[("c", i)] = ("c'", i)
                rev[("c'", i)] = ("c", i)
        else:
            edges[("c", i)] = (t, h)
    return alphabet(verts, edges, rev)


def random_labelled(rng, a, max_v=4, max_e=4):
    nv = rng.randint(0, max_v)
    vlabel = {}
    for i in range(nv):
        vlabel[i] = rng.choice(a.vertices())
    edges = {}
    elabel = {}
    rev = {} if a.reversal is not None else None
    next_id = [0]
    for _ in range(rng.randint(0, max_e)):
        c = rng.choice(a.edge_ids())
        ct, ch = a.edges[c]
        tails = [v for v in vlabel if vlabel[v] == ct]
        heads = [v for v in vlabel if vlabel[v] == ch]
        if not tails or not heads:
            continue
        t = rng.choice(tails)
        h = rng.choice(heads)
        e = next_id[0]
        next_id[0] += 1
        edges[e] = (t, h)
        elabel[e] = c
        if rev is not None:
            cp = a.reversal[c]
            if cp == c and t == h:
                rev[e] = e
            else:
                ep = next_id[0]
                next_id[0] += 1
                edges[ep] = (h, t)
                elabel[ep] = cp
                rev[e] = ep
                rev[ep] = e
    return LabelGraph(vlabel, edges, elabel, rev, a)


# -- basic structure ---------------------------------------------------------


def test_validate_rejects_dangling_edge():
    with pytest.raises(ValueError):
        LabelGraph({0: 0}, {0: (0, 1)}, {0: 0}, None, None)


def test_validate_rejects_bad_reversal():
    a = rose(["s", "t"], {"s": "t", "t": "s"})
    with pytest.raises(ValueError):
        labelled(a, {0: 1}, {0: (0, 0), 1: (0, 0)}, {0: "s", 1: "s"},
                 {0: 1, 1: 0})


def test_validate_rejects_label_mismatch():
    a = two_vertex_alphabet()
    with pytest.raises(ValueError):
        labelled(a, {0: "p", 1: "p"}, {0: (0, 1)}, {0: "c"})


def reference_validate(g):
    """validate as it read before it became one positional pass, kept
    verbatim: the reference for what the pass accepts and raises."""
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


VALIDATE_MESSAGES = (
    "has a dangling endpoint", "has no label",
    "elabel keys differ from edge ids", "reversal mentions unknown edge",
    "reversal is not an involution", "does not swap endpoints",
    "reversal is not total on edges", "not self-labelled (vertex)",
    "not self-labelled (edge)", "vertex labelled by unknown",
    "edge labelled by unknown", "is not a morphism",
    "unoriented graph over an oriented alphabet", "ignores reversal")


def message_kind(msg):
    if msg.startswith("alphabet vertex"):
        return "not self-labelled (vertex)"
    if msg.startswith("alphabet edge"):
        return "not self-labelled (edge)"
    if msg.startswith("vertex ") and "labelled by unknown" in msg:
        return "vertex labelled by unknown"
    if msg.startswith("edge ") and "labelled by unknown" in msg:
        return "edge labelled by unknown"
    (kind,) = [k for k in VALIDATE_MESSAGES if k in msg]
    return kind


def validate_outcome(check, g):
    try:
        check(g)
    except Exception as exc:  # the reference may raise more than ValueError
        return type(exc).__name__, str(exc)
    return None


def graph_copy(g, **dicts):
    """A copy of g with fresh dicts (or the given ones), not validated."""
    h = copy.copy(g)
    h.vlabel = dict(g.vlabel)
    h.edges = dict(g.edges)
    h.elabel = dict(g.elabel)
    h.reversal = dict(g.reversal) if g.reversal is not None else None
    for name, d in dicts.items():
        setattr(h, name, d)
    return h


GHOST = ("ghost",)


def _pick(rng, keys):
    keys = list(keys)
    return keys[rng.randrange(len(keys))] if keys else None


def _dangling(h, rng):
    e = _pick(rng, h.edges)
    if e is None:
        return False
    t, _ = h.edges[e]
    h.edges[e] = (t, GHOST)
    return True


def _unlabelled(h, rng):
    e = _pick(rng, h.elabel)
    if e is None:
        return False
    del h.elabel[e]
    return True


def _stray_label(h, rng):
    e = _pick(rng, h.elabel)
    if e is None:
        return False
    h.elabel[GHOST] = h.elabel[e]
    return True


def _unknown_twin(h, rng):
    e = _pick(rng, h.reversal or ())
    if e is None:
        return False
    if rng.random() < 0.5:
        h.reversal[e] = GHOST
    else:
        h.reversal[GHOST] = e
    return True


def _not_involution(h, rng):
    rev = h.reversal or {}
    e, f = _pick(rng, rev), _pick(rng, rev)
    if e is None or rev[e] == f:
        return False
    rev[e] = f
    return True


def _no_swap(h, rng):
    rev = h.reversal or {}
    moved = [e for e, (t, hd) in h.edges.items()
             if e in rev and t != hd and rev[e] != e]
    e = _pick(rng, moved)
    if e is None:
        return False
    h.edges[rev[e]] = h.edges[e]
    return True


def _not_total(h, rng):
    rev = h.reversal or {}
    e = _pick(rng, rev)
    if e is None:
        return False
    f = rev.pop(e)
    rev.pop(f, None)
    return True


def _foreign_vertex_label(h, rng):
    v = _pick(rng, h.vlabel)
    if v is None:
        return False
    h.vlabel[v] = GHOST
    return True


def _foreign_edge_label(h, rng):
    e = _pick(rng, h.elabel)
    if e is None:
        return False
    h.elabel[e] = GHOST
    return True


def _relabel(h, rng, same_ends):
    # give an edge another label of the alphabet, with the same ends as
    # its own or with other ones
    b = h.label_graph
    e = _pick(rng, [e for e in h.elabel if e in h.edges])
    if b is None or e is None:
        return False
    lab = h.elabel[e]
    options = [c for c, ends in b.edges.items() if c != lab
               and (ends == b.edges.get(lab)) == same_ends]
    if not options:
        return False
    h.elabel[e] = options[rng.randrange(len(options))]
    return True


def _broken_morphism(h, rng):
    return _relabel(h, rng, False)


def _oriented_alphabet(h, rng):
    b = h.label_graph
    if b is None or b.reversal is None or h.reversal is None:
        return False
    h.label_graph = alphabet(list(b.vlabel), b.edges)
    return True


def _reversal_ignored(h, rng):
    b = h.label_graph
    if b is None or b.reversal is None or h.reversal is None:
        return False
    return _relabel(h, rng, True)


def _reorder(h, rng):
    # elabel and reversal in another key order than edges, same items
    for name in ("elabel", "reversal"):
        d = getattr(h, name)
        if d is not None and rng.random() < 0.7:
            items = list(d.items())
            rng.shuffle(items)
            setattr(h, name, dict(items))
    return True


def _equal_keys(h, rng):
    # equal keys that are other objects than the edge ids
    h.elabel = copy.deepcopy(h.elabel)
    if h.reversal is not None and rng.random() < 0.5:
        h.reversal = copy.deepcopy(h.reversal)
    return True


FAULTS = (_dangling, _unlabelled, _stray_label, _unknown_twin,
          _not_involution, _no_swap, _not_total, _foreign_vertex_label,
          _foreign_edge_label, _broken_morphism, _oriented_alphabet,
          _reversal_ignored)


def validate_corpus():
    """Valid graphs from every builder, plus hand-made ones with
    self-reversed loops and keys in other orders than the edges."""
    from tilesim.geometry import (cayley_label_graph, dl_label_graph,
                                  dl_window, quadrant_window, tetrahedron,
                                  Window)
    from tilesim.graphs import add_edge_pair, induced_subgraph
    from tilesim.simulation import decorate_window, random_simulator
    from tilesim.tilesets import omega_configuration, sea_level_system
    graphs_ = []
    windows = [ball(2), tetrahedron(-1, 2), dl_window(2, 3, 0, 2),
               dl_window(3, 2, -1, 1)]
    for w in windows[:]:
        pts = w.points()
        windows.append(Window(induced_subgraph(w.graph, pts[::3])))
    graphs_ += [w.graph for w in windows]
    ts = sea_level_system()
    tet = tetrahedron(-1, 1)
    decorated = decorate_window(tet, ts, {
        pt: ts.alphabet.index(omega_configuration(pt)) for pt in tet.points()})
    comb = comb_tileset()
    small = ball(1)
    decorated_comb = decorate_window(small, comb, {
        pt: i % len(comb.tiles) for i, pt in enumerate(small.points())})
    graphs_ += [decorated, decorated.label_graph, decorated_comb,
                decorated_comb.label_graph]
    rng = random.Random(15)
    for a, b in ((cayley_label_graph(), plane_label_graph()),
                 (plane_label_graph(), cayley_label_graph())):
        s = random_simulator(rng, a, b)
        graphs_ += [s.graph, s.graph.label_graph]
    graphs_ += [plane_window(0, 2, 0, 1), quadrant_window(3, 2),
                cayley_label_graph(), dl_label_graph(2, 3),
                wang_to_dhs(comb).graph]
    for unoriented in (True, False, True, True):
        a = random_alphabet(rng, unoriented)
        graphs_ += [a, random_labelled(rng, a, 5, 6)]
    # self-reversed loops between twins written by add_edge_pair
    half = alphabet([1], {"h": (1, 1), "s": (1, 1), "t": (1, 1)},
                    {"h": "h", "s": "t", "t": "s"})
    edges, elabel, rev = {}, {}, {}
    for i in range(4):
        edges[("h", i)] = (i, i)
        elabel[("h", i)] = "h"
        rev[("h", i)] = ("h", i)
        add_edge_pair(edges, elabel, rev, ("s", i), ("t", i), i,
                      (i + 1) % 4, "s", "t")
    graphs_ += [half, labelled(half, {i: 1 for i in range(4)}, edges, elabel,
                               rev)]
    return graphs_


def test_validate_raises_what_the_reference_raises():
    rng = random.Random(1515)
    seen = set()
    for g in validate_corpus():
        cases = [graph_copy(g)]
        for fault in FAULTS + (_reorder, _equal_keys):
            for _ in range(2):
                h = graph_copy(g)
                if fault(h, rng):
                    cases.append(h)
        for _ in range(12):
            # two faults, or a fault in reordered dicts, to pin the order
            # in which faults are raised
            h = graph_copy(g)
            for fault in rng.sample(FAULTS + (_reorder, _equal_keys), 2):
                fault(h, rng)
            cases.append(h)
        for h in cases:
            want = validate_outcome(reference_validate, h)
            assert validate_outcome(graphs.validate, h) == want
            if want is not None:
                assert want[0] == "ValueError"
                seen.add(message_kind(want[1]))
        assert validate_outcome(graphs.validate, g) is None
    assert seen == set(VALIDATE_MESSAGES)


# -- pullback ----------------------------------------------------------------


def test_pullback_of_two_alphabet_copies_doubles():
    a = two_vertex_alphabet()
    g1 = labelled(a, {0: "p", 1: "q", 2: "q"}, {0: (0, 1), 1: (1, 2)},
                  {0: "c", 1: "d"})
    g2 = disjoint_union(identity_over(a), identity_over(a))
    p = pullback(g1, g2)
    assert p.num_vertices() == 2 * g1.num_vertices()
    assert p.num_edges() == 2 * g1.num_edges()


def test_pullback_with_identity_is_identity():
    a = two_vertex_alphabet()
    g1 = labelled(a, {0: "p", 1: "q"}, {0: (0, 1)}, {0: "c"})
    p = pullback(g1, identity_over(a))
    assert p.num_vertices() == g1.num_vertices()
    assert p.num_edges() == g1.num_edges()
    assert sorted(p.vlabel.values()) == sorted(g1.vlabel.values())


def test_pullback_counts_match_pair_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        a = random_alphabet(rng, unoriented=False)
        g1 = random_labelled(rng, a, max_v=3)
        g2 = random_labelled(rng, a, max_v=3)
        p = pullback(g1, g2)
        nv = sum(1 for u1 in g1.vlabel for u2 in g2.vlabel
                 if g1.vlabel[u1] == g2.vlabel[u2])
        ne = sum(1 for e1 in g1.edges for e2 in g2.edges
                 if g1.elabel[e1] == g2.elabel[e2])
        assert p.num_vertices() == nv
        assert p.num_edges() == ne


def pair_pullback(g1, g2):
    # every pair of cells with equal labels, g1's cells outer, both in
    # vertex and edge id order
    vlabel = {(u1, u2): g1.vlabel[u1] for u1 in g1.vertices()
              for u2 in g2.vertices() if g1.vlabel[u1] == g2.vlabel[u2]}
    edges = {}
    elabel = {}
    for e1 in g1.edge_ids():
        for e2 in g2.edge_ids():
            if g1.elabel[e1] == g2.elabel[e2]:
                edges[(e1, e2)] = ((g1.tail(e1), g2.tail(e2)),
                                   (g1.head(e1), g2.head(e2)))
                elabel[(e1, e2)] = g1.elabel[e1]
    rev = None
    if g1.reversal is not None and g2.reversal is not None:
        rev = {(e1, e2): (g1.reversal[e1], g2.reversal[e2])
               for (e1, e2) in edges}
    return LabelGraph(vlabel, edges, elabel, rev, g1.label_graph)


def test_pullback_matches_pair_enumeration_in_order():
    rng = random.Random(11)
    for k in range(200):
        a = random_alphabet(rng, unoriented=k % 2 == 1)
        g1 = random_labelled(rng, a)
        g2 = random_labelled(rng, a)
        got = pullback(g1, g2)
        want = pair_pullback(g1, g2)
        assert got == want
        for field in ("vlabel", "edges", "elabel"):
            assert list(getattr(got, field).items()) == \
                list(getattr(want, field).items())
        if want.reversal is not None:
            assert list(got.reversal.items()) == list(want.reversal.items())


def test_pullback_rejects_alphabet_mismatch():
    a = two_vertex_alphabet()
    b = rose(["s"])
    g1 = labelled(a, {0: "p"}, {}, {})
    g2 = labelled(b, {0: 1}, {}, {})
    with pytest.raises(ValueError):
        pullback(g1, g2)


# -- exponential --------------------------------------------------------------


def test_exponential_of_partitioned_sets():
    # Alphabet with two isolated vertices: graphs are sets split in two
    # parts, and the exponential is the pair of map-sets.
    a = alphabet(["0", "1"], {})
    g1 = labelled(a, {"s0": "0", "s1": "0", "t0": "1", "t1": "1", "t2": "1"},
                  {}, {})
    g2 = labelled(a, {"x0": "0", "x1": "0", "y0": "1"}, {}, {})
    e = exponential(g1, g2)
    by_label = {}
    for v, lab in e.vlabel.items():
        by_label[lab] = by_label.get(lab, 0) + 1
    assert by_label["0"] == 2 ** 2
    assert by_label["1"] == 3 ** 1
    assert e.num_edges() == 0


def test_exponential_empty_fiber_gives_single_vertex():
    a = alphabet(["0", "1"], {})
    g1 = labelled(a, {"s0": "0", "t0": "1", "t1": "1"}, {}, {})
    g2 = labelled(a, {"x0": "0"}, {}, {})
    e = exponential(g1, g2)
    ones = [v for v, lab in e.vlabel.items() if lab == "1"]
    assert len(ones) == 1


def test_exponential_capacity_error():
    a = alphabet(["0"], {})
    g1 = labelled(a, {i: "0" for i in range(4)}, {}, {})
    g2 = labelled(a, {i: "0" for i in range(4)}, {}, {})
    with pytest.raises(CapacityError) as err:
        exponential(g1, g2, max_cells=10)
    assert str(err.value) == "exponential exceeds 10 cells"
    assert (err.value.what, err.value.size, err.value.budget) == (
        "exponential vertices", 256, 10)


def test_exponential_edge_capacity_error():
    # One vertex cell, but the E fibre alone has 16 maps into two E loops.
    with pytest.raises(CapacityError) as err:
        exponential(plane_torus(2), plane_window(0, 2, 0, 1), max_cells=10)
    assert str(err.value) == "exponential exceeds 10 cells"
    assert (err.value.what, err.value.size, err.value.budget) == (
        "exponential edges", 16, 10)


def test_exponential_text_is_pinned():
    # Recorded when enumerate_homs still validated each hom by rebuilding
    # it through Morphism.
    e = exponential(plane_window(0, 1, 0, 1), plane_window(0, 1, 0, 0))
    assert (e.num_vertices(), e.num_edges()) == (16, 576)
    assert hashlib.sha256(to_text(e).encode()).hexdigest() == (
        "f3ef2b64ae6cd23bf0c2043caed99ac0d9ad0cd3d979c859d4913fa230b3323f")


def test_adjunction_on_loop_alphabet():
    # A loop in the fiber alphabet is the delicate case: tail and head
    # restrictions of an exponential edge must stay independent.
    a = rose(["c"])
    b = alphabet(["b0"], {})
    g2 = LabelGraph({0: "b0"}, {}, {}, None, b)
    alpha = Morphism({0: 1}, {}, g2, a)
    g1 = labelled(a, {"x": 1, "y": 1}, {"e": ("x", "y")}, {"e": "c"})
    g3 = labelled(b, {"p": "b0", "q": "b0"}, {}, {})
    prod = alpha_pullback(g1, g2, alpha)
    lhs = enumerate_homs(prod, g3)
    expg = exponential(g3, g2, alpha)
    rhs = enumerate_homs(g1, expg)
    assert len(lhs) == len(rhs) == 4


def test_curry_rejects_mixed_orientedness():
    # An oriented g1 has no reversed edge for the R half of an edge fibre.
    a = rose(["c", "C"], {"c": "C", "C": "c"})
    g1 = labelled(a, {"x": 1}, {"e": ("x", "x")}, {"e": "c"})
    g2 = g3 = identity_over(a)
    alpha = labelling_morphism(g2)
    (lam,) = enumerate_homs(alpha_pullback(g1, g2, alpha), g3)
    with pytest.raises(ValueError, match="orientedness"):
        curry(lam, g1, g2, alpha, exponential(g3, g2))


def test_adjunction_random_triples_with_roundtrip():
    rng = random.Random(11)
    done = 0
    for _attempt in range(600):
        if done >= 25:
            break
        unor = rng.random() < 0.5
        a = random_alphabet(rng, unor)
        b = random_alphabet(rng, unor)
        g1 = random_labelled(rng, a, max_v=3, max_e=2)
        g3 = random_labelled(rng, b, max_v=3, max_e=2)
        g2b = random_labelled(rng, b, max_v=3, max_e=2)
        avmap = {}
        for v in g2b.vlabel:
            cands = a.vertices()
            avmap[v] = rng.choice(cands)
        aemap = {}
        ok = True
        handled = set()
        for e in g2b.edge_ids():
            if e in handled:
                continue
            t, h = g2b.edges[e]
            cands = [c for c in a.edge_ids()
                     if a.edges[c] == (avmap[t], avmap[h])]
            if unor:
                ep = g2b.reversal[e]
                if ep == e:
                    cands = [c for c in cands if a.reversal[c] == c]
            if not cands:
                ok = False
                break
            c = rng.choice(cands)
            aemap[e] = c
            handled.add(e)
            if unor:
                ep = g2b.reversal[e]
                if ep != e:
                    aemap[ep] = a.reversal[c]
                    handled.add(ep)
        if not ok:
            continue
        alpha = Morphism(avmap, aemap, g2b, a)
        try:
            expg = exponential(g3, g2b, alpha, max_cells=3000)
        except CapacityError:
            continue
        prod = alpha_pullback(g1, g2b, alpha)
        lhs = enumerate_homs(prod, g3)
        rhs = enumerate_homs(g1, expg)
        assert_valid_homs(lhs, prod, g3)
        assert_valid_homs(rhs, g1, expg)
        assert len(lhs) == len(rhs)
        for lam in lhs:
            rho = curry(lam, g1, g2b, alpha, expg)
            back = uncurry(rho, g1, g2b, alpha, g3)
            assert back.vmap == lam.vmap and back.emap == lam.emap
        for rho in rhs:
            lam = uncurry(rho, g1, g2b, alpha, g3)
            back = curry(lam, g1, g2b, alpha, expg)
            assert back.vmap == rho.vmap and back.emap == rho.emap
        done += 1
    assert done >= 20


def random_alpha(rng, a, g2b):
    """A random labelling of g2b into the alphabet a that commutes with
    reversal, or None when some edge of g2b has no candidate image."""
    unor = g2b.reversal is not None
    avmap = {v: rng.choice(a.vertices()) for v in g2b.vlabel}
    aemap = {}
    for e in g2b.edge_ids():
        if e in aemap:
            continue
        t, h = g2b.edges[e]
        cands = [c for c in a.edge_ids()
                 if a.edges[c] == (avmap[t], avmap[h])]
        if unor and g2b.reversal[e] == e:
            cands = [c for c in cands if a.reversal[c] == c]
        if not cands:
            return None
        c = rng.choice(cands)
        aemap[e] = c
        if unor:
            aemap[g2b.reversal[e]] = a.reversal[c]
    return Morphism(avmap, aemap, g2b, a)


def test_adjunction_round_trips_through_pullback_edges():
    # curry and uncurry on triples whose pullback has edges, so that the
    # edge images of both directions are built and compared too
    rng = random.Random(2)
    with_edges = with_homs = 0
    for _attempt in range(2000):
        if with_homs >= 12:
            break
        unor = rng.random() < 0.5
        a = random_alphabet(rng, unor)
        b = random_alphabet(rng, unor)
        g1 = random_labelled(rng, a, max_v=3, max_e=3)
        g2b = random_labelled(rng, b, max_v=3, max_e=3)
        g3 = random_labelled(rng, b, max_v=3, max_e=4)
        alpha = random_alpha(rng, a, g2b)
        if alpha is None:
            continue
        prod = alpha_pullback(g1, g2b, alpha)
        if not prod.edges:
            continue
        try:
            expg = exponential(g3, g2b, alpha, max_cells=3000)
        except CapacityError:
            continue
        with_edges += 1
        lhs = enumerate_homs(prod, g3)
        rhs = enumerate_homs(g1, expg)
        assert len(lhs) == len(rhs)
        with_homs += bool(lhs)
        for lam in lhs:
            rho = curry(lam, g1, g2b, alpha, expg)
            back = uncurry(rho, g1, g2b, alpha, g3)
            assert back.emap and back.emap == lam.emap
            assert back.vmap == lam.vmap
        for rho in rhs:
            lam = uncurry(rho, g1, g2b, alpha, g3)
            back = curry(lam, g1, g2b, alpha, expg)
            assert back.vmap == rho.vmap and back.emap == rho.emap
    assert with_homs >= 12 and with_edges > with_homs


def sorted_side_key(key, side):
    """_side_key by its definition: the side's vertex items renamed T, then
    sorted."""
    return graphs._local_key((("T", u2), img) for (s, u2), img in key[0]
                             if s == side)


def sorted_swap_key(key):
    """_swap_key by its definition: T and H, F and R renamed, then sorted."""
    other = {"T": "H", "H": "T", "F": "R", "R": "F"}
    return graphs._local_key(
        *[[((other[s], x), img) for (s, x), img in items] for items in key])


def assert_edge_keys_match_sorting(e):
    """Each edge cell's side and swap keys equal the sorted definitions;
    returns how many edge cells were compared."""
    for k, _c in e.edges:
        assert graphs._side_key(k, "T") == sorted_side_key(k, "T")
        assert graphs._side_key(k, "H") == sorted_side_key(k, "H")
        if e.reversal is not None:
            assert graphs._swap_key(k) == sorted_swap_key(k)
    return len(e.edges)


def plane_target(edges):
    """A two-vertex target over the plane alphabet: each (t, d, h) and its
    reversed twin, as the reduction tests build them."""
    es, el, rev = {}, {}, {}
    for t, d, h in edges:
        di = PLANE_INVERSE[d]
        add_edge_pair(es, el, rev, (t, d, h), (h, di, t), t, h, d, di)
    return DhsTarget(LabelGraph({0: 1, 1: 1}, es, el, rev,
                                plane_label_graph()))


def test_side_and_swap_keys_match_their_sorting_definition():
    # every exponential the tests build: the graph exponentials above and
    # the tileset exponentials of the reduction tests
    s = builtin_simulator("quadrant_to_plane")
    rng = random.Random(20260814)
    pool = [(t, d, h) for d in ("E", "N") for t in range(2)
            for h in range(2)]
    targets = [plane_target(rng.sample(pool, rng.randrange(1, len(pool) + 1)))
               for _ in range(12)]
    targets += [plane_target([(0, "E", 0), (0, "N", 0)]),
                plane_target([(0, "E", 0)])]
    cells = sum(assert_edge_keys_match_sorting(tileset_exponential(f, s).graph)
                for f in targets)
    assert cells > 500
    a = rose(["c"])
    b = alphabet(["b0"], {})
    g2 = LabelGraph({0: "b0"}, {}, {}, None, b)
    loop = exponential(labelled(b, {"p": "b0", "q": "b0"}, {}, {}), g2,
                       Morphism({0: 1}, {}, g2, a))
    exps = [exponential(plane_window(0, 1, 0, 1), plane_window(0, 1, 0, 0)),
            loop]
    rng = random.Random(2)
    while len(exps) < 30:
        unor = rng.random() < 0.5
        a = random_alphabet(rng, unor)
        b = random_alphabet(rng, unor)
        g2b = random_labelled(rng, b, max_v=3, max_e=3)
        g3 = random_labelled(rng, b, max_v=3, max_e=4)
        alpha = random_alpha(rng, a, g2b)
        if alpha is not None:
            try:
                exps.append(exponential(g3, g2b, alpha, max_cells=3000))
            except CapacityError:
                pass
    assert sum(map(assert_edge_keys_match_sorting, exps)) > 1000


# -- path subdivision, flat, sharp --------------------------------------------


def test_subdivision_of_single_oriented_edge():
    b = alphabet(["v", "w"], {"e": ("v", "w")})
    bs = path_subdivision(b)
    assert bs.num_vertices() == 3
    assert sorted(bs.edges) == sorted(
        [(0, "e", 0), (0, "e", 1), (1, "e", 1), (1, "e", 0)])
    assert bs.edges[(0, "e", 0)] == (("v", "v"), ("v", "w"))
    assert bs.edges[(1, "e", 0)] == (("e", "e"), ("v", "w"))


def test_subdivision_of_edgeless_graph():
    b = alphabet(["v", "w"], {})
    bs = path_subdivision(b)
    assert bs.num_vertices() == 2 and bs.num_edges() == 0


def test_subdivision_of_unoriented_edge_merges_midpoint():
    b = alphabet(["v", "w"], {"e": ("v", "w"), "e'": ("w", "v")},
                 {"e": "e'", "e'": "e"})
    bs = path_subdivision(b)
    assert bs.num_vertices() == 3
    assert bs.num_edges() == 8
    assert bs.reversal[(0, "e", 1)] == (1, "e'", 0)
    assert bs.reversal[(1, "e", 1)] == (1, "e'", 1)


def test_subdivision_round_trip_base():
    b = unoriented_rose(["s", "t"])
    assert base_of_subdivision(path_subdivision(b)) == b


def test_flat_of_coherent_path():
    b = alphabet(["v", "w"], {"c": ("v", "w")})
    bs = path_subdivision(b)
    g = labelled(bs,
                 {0: ("v", "v"), 1: ("e", "c"), 2: ("e", "c"), 3: ("v", "w")},
                 {0: (0, 1), 1: (1, 2), 2: (2, 3)},
                 {0: (0, "c", 1), 1: (1, "c", 1), 2: (1, "c", 0)})
    f = flat(g)
    assert sorted(f.vlabel) == [0, 3]
    assert list(f.elabel.values()) == ["c"]
    assert f.edges[(0, "c", 3)] == (0, 3)


def test_flat_of_direct_edge():
    b = alphabet(["v", "w"], {"c": ("v", "w")})
    bs = path_subdivision(b)
    g = labelled(bs, {0: ("v", "v"), 1: ("v", "w")}, {0: (0, 1)},
                 {0: (0, "c", 0)})
    f = flat(g)
    assert f.num_edges() == 1 and f.elabel[(0, "c", 1)] == "c"


def test_flat_of_lonely_self_loop():
    b = alphabet(["v", "w"], {"c": ("v", "w")})
    bs = path_subdivision(b)
    g = labelled(bs, {0: ("e", "c")}, {0: (0, 0)}, {0: (1, "c", 1)})
    f = flat(g)
    assert f.num_vertices() == 0 and f.num_edges() == 0


def test_flat_frontier_marks_incomplete():
    b = alphabet(["v", "w"], {"c": ("v", "w")})
    bs = path_subdivision(b)
    g = labelled(bs,
                 {0: ("v", "v"), 1: ("e", "c"), 2: ("v", "w"), 3: ("v", "v")},
                 {0: (0, 1), 1: (1, 2)},
                 {0: (0, "c", 1), 1: (1, "c", 0)})
    out, incomplete = flat(g, frontier={1})
    assert out.num_edges() == 1
    assert incomplete == {0}
    out2, incomplete2 = flat(g, frontier={3})
    assert incomplete2 == {3}


def test_sharp_of_single_edge():
    b = alphabet(["v", "w"], {"c": ("v", "w")})
    g = labelled(b, {0: "v", 1: "w"}, {0: (0, 1)}, {0: "c"})
    s = sharp(g)
    assert s.num_vertices() == 5
    by_label = {}
    for e, lab in s.elabel.items():
        by_label[lab] = by_label.get(lab, 0) + 1
    # Subdivision contributes one edge of each kind; the sink gadget adds
    # one more (0,c,1), one more (1,c,0) and five (1,c,1).
    assert by_label == {(0, "c", 0): 1, (0, "c", 1): 2,
                        (1, "c", 0): 2, (1, "c", 1): 6}
    assert s.num_edges() == 11


def test_sharp_of_edgeless_graph():
    b = alphabet(["v"], {})
    g = labelled(b, {0: "v", 1: "v"}, {}, {})
    s = sharp(g)
    assert s.num_vertices() == 2 and s.num_edges() == 0


def test_flat_sharp_restores_simplified_edges():
    rng = random.Random(3)
    for _ in range(15):
        unor = rng.random() < 0.5
        b = random_alphabet(rng, unor)
        g = random_labelled(rng, b, max_v=4, max_e=4)
        fs = flat(sharp(g))
        assert sorted(fs.vlabel, key=repr) == sorted(
            (("v", v) for v in g.vlabel), key=repr)
        want = {(("v", t), g.elabel[e], ("v", h))
                for e, (t, h) in g.edges.items()}
        got = set(fs.edges)
        assert got == want


def test_sharp_keeps_unfinished_paths_dead():
    # A started-but-unfinished calculation must reach only sinks.
    b = alphabet(["v", "w"], {"c": ("v", "w")})
    g = labelled(b, {0: "v", 1: "w"}, {0: (0, 1)}, {0: "c"})
    s = sharp(g)
    minus = ("sink", "c", "-")
    heads = {s.head(e) for e in s.edges
             if s.tail(e) == minus}
    assert heads == {minus}


# -- hom enumeration -----------------------------------------------------------


def test_homs_single_vertex_to_discrete():
    a = rose([])
    g = labelled(a, {0: 1}, {}, {})
    f = labelled(a, {i: 1 for i in range(5)}, {}, {})
    assert len(enumerate_homs(g, f)) == 5


def test_homs_loop_to_loop():
    a = rose(["l"])
    g = labelled(a, {0: 1}, {0: (0, 0)}, {0: "l"})
    assert len(enumerate_homs(g, g)) == 1


def test_homs_empty_domain():
    a = rose([])
    g = labelled(a, {}, {}, {})
    f = labelled(a, {0: 1}, {}, {})
    assert len(enumerate_homs(g, f)) == 1


def test_homs_budget_exceeded():
    a = rose([])
    g = labelled(a, {i: 1 for i in range(6)}, {}, {})
    f = labelled(a, {i: 1 for i in range(6)}, {}, {})
    with pytest.raises(CapacityError):
        enumerate_homs(g, f, budget=100)


def test_homs_budget_error_carries_numbers():
    a = rose([])
    two = labelled(a, {0: 1, 1: 1}, {}, {})
    # Overspent while trying vertex candidates...
    with pytest.raises(CapacityError) as err:
        enumerate_homs(two, two, budget=1)
    assert str(err.value) == ("hom enumeration budget exceeded: more than 1 "
                              "assignments")
    assert (err.value.what, err.value.size, err.value.budget) == (
        "hom assignments", 2, 1)
    # ...and while building a morphism: the empty graph has one, at no
    # vertex cost.
    with pytest.raises(CapacityError) as err:
        enumerate_homs(labelled(a, {}, {}, {}), two, budget=0)
    assert (err.value.what, err.value.size, err.value.budget) == (
        "hom assignments", 1, 0)


def test_homs_respect_reversal_orbits():
    a = unoriented_rose(["s"])
    with pytest.raises(ValueError):
        # s is not self-reversed in the alphabet, so a self-reversed
        # s-labelled loop is invalid.
        labelled(a, {0: 1}, {0: (0, 0)}, {0: "s"}, {0: 0})
    g = labelled(a, {0: 1}, {0: (0, 0), 1: (0, 0)}, {0: "s", 1: "s'"},
                 {0: 1, 1: 0})
    h = labelled(a, {0: 1, 1: 1},
                 {0: (0, 1), 1: (1, 0), 2: (0, 0), 3: (0, 0)},
                 {0: "s", 1: "s'", 2: "s", 3: "s'"},
                 {0: 1, 1: 0, 2: 3, 3: 2})
    homs = enumerate_homs(g, h)
    # The loop orbit can only land on the loop orbit at vertex 0.
    assert len(homs) == 1
    assert homs[0].emap == {0: 2, 1: 3}


def test_homs_deterministic_order():
    a = rose(["s"])
    g = labelled(a, {0: 1}, {0: (0, 0)}, {0: "s"})
    f = labelled(a, {0: 1, 1: 1},
                 {0: (0, 0), 1: (1, 1), 2: (0, 1)},
                 {0: "s", 1: "s", 2: "s"})
    homs1 = [(m.vmap, m.emap) for m in enumerate_homs(g, f)]
    homs2 = [(m.vmap, m.emap) for m in enumerate_homs(g, f)]
    assert homs1 == homs2
    assert len(homs1) == 2


def assert_valid_homs(homs, g, h):
    """Each hom passes validate_morphism and equals the Morphism that the
    validating constructor builds from its maps."""
    for m in homs:
        validate_morphism(m)
        assert Morphism(m.vmap, m.emap, g, h) == m


def brute_force_homs(g, h):
    """Every hom g -> h as (vmap, emap), from a plain product over vertex
    candidates and then over edge candidates per reversal orbit, in the
    order enumerate_homs documents.  The vertex product skips a prefix once
    one of its edges has no image with the right label and endpoints: such
    a prefix heads no hom, so the skip drops no result and keeps the
    order."""
    order = _vertex_order(g)
    cands = [[w for w in h.vertices() if h.vlabel[w] == g.vlabel[v]]
             for v in order]
    rank = {v: i for i, v in enumerate(order)}
    due = [[] for _ in order]
    for e, (t, hd) in g.edges.items():
        due[max(rank[t], rank[hd])].append((g.elabel[e], rank[t], rank[hd]))
    arcs = {(h.elabel[d], *h.edges[d]) for d in h.edges}

    def vertex_images(prefix):
        i = len(prefix)
        if i == len(order):
            yield prefix
            return
        for w in cands[i]:
            imgs = prefix + (w,)
            if all((lab, imgs[a], imgs[b]) in arcs for lab, a, b in due[i]):
                yield from vertex_images(imgs)

    unoriented = g.reversal is not None and h.reversal is not None
    orbits = []
    seen = set()
    for e in g.edge_ids():
        if e not in seen:
            ep = g.reversal[e] if unoriented else e
            seen.update((e, ep))
            orbits.append((e, ep))
    h_edges = h.edge_ids()
    out = []
    for imgs in vertex_images(()):
        vmap = dict(zip(order, imgs))
        choices = [[d for d in h_edges
                    if h.elabel[d] == g.elabel[e]
                    and h.edges[d] == (vmap[g.tail(e)], vmap[g.head(e)])
                    and (ep != e or not unoriented or h.reversal[d] == d)]
                   for e, ep in orbits]
        for ds in itertools.product(*choices):
            emap = {}
            for (e, ep), d in zip(orbits, ds):
                emap[e] = d
                if ep != e:
                    emap[ep] = h.reversal[d]
            out.append((vmap, emap))
    return out


def plane_torus(loops):
    """One vertex with `loops` parallel E/W and N/S loop pairs over the
    plane alphabet."""
    edges, elabel, rev = {}, {}, {}
    for k in range(loops):
        for d, di in (("E", "W"), ("N", "S")):
            edges[(d, k)] = edges[(di, k)] = (0, 0)
            elabel[(d, k)], elabel[(di, k)] = d, di
            rev[(d, k)], rev[(di, k)] = (di, k), (d, k)
    return LabelGraph({0: 1}, edges, elabel, rev, plane_label_graph())


def special_hom_instances():
    """(domain, target, number of homs): an alphabet domain, an oriented
    domain into an unoriented target, and a target with self-reversed
    edges."""
    a = alphabet([0, 1], {"c": (0, 1), "c'": (1, 0), "l": (1, 1)},
                 {"c": "c'", "c'": "c", "l": "l"})
    sub = alphabet([1], {"l": (1, 1)}, {"l": "l"})
    yield a, a, 1
    yield sub, a, 1
    path = LabelGraph({0: 1, 1: 1}, {0: (0, 1)}, {0: "E"}, None,
                      plane_label_graph())
    yield path, plane_torus(2), 2
    b = alphabet([1], {"h": (1, 1)}, {"h": "h"})
    # A half-edge loop, which must land on the target's one half edge, and
    # an edge pair, which may land on any of its three edges.
    g = labelled(b, {0: 1, 1: 1}, {0: (0, 0), 1: (0, 1), 2: (1, 0)},
                 {0: "h", 1: "h", 2: "h"}, {0: 0, 1: 2, 2: 1})
    h = labelled(b, {0: 1}, {"x": (0, 0), "y": (0, 0), "z": (0, 0)},
                 {"x": "h", "y": "h", "z": "h"},
                 {"x": "x", "y": "z", "z": "y"})
    yield g, h, 3


def wide_code_instance():
    """The 3x3 grid into the 12x12 grid: 144 target vertices and 528
    target edges, more codes than a byte holds, and 100 homs."""
    return plane_window(0, 2, 0, 2), plane_window(0, 11, 0, 11)


def hom_instances():
    a = unoriented_rose(["s"])
    yield (labelled(a, {0: 1}, {0: (0, 0), 1: (0, 0)}, {0: "s", 1: "s'"},
                    {0: 1, 1: 0}),
           labelled(a, {0: 1, 1: 1},
                    {0: (0, 1), 1: (1, 0), 2: (0, 0), 3: (0, 0)},
                    {0: "s", 1: "s'", 2: "s", 3: "s'"},
                    {0: 1, 1: 0, 2: 3, 3: 2}))
    a = rose(["s"])
    yield (labelled(a, {0: 1, 1: 1}, {0: (0, 0), 1: (0, 1)},
                    {0: "s", 1: "s"}),
           labelled(a, {0: 1, 1: 1}, {0: (0, 0), 1: (1, 1), 2: (0, 1),
                                       3: (0, 1)},
                    {0: "s", 1: "s", 2: "s", 3: "s"}))
    yield plane_window(0, 2, 0, 1), plane_torus(2)
    yield plane_window(0, 2, 0, 1), plane_window(0, 1, 0, 1)
    yield ball(1).graph, wang_to_dhs(comb_tileset()).graph
    yield wide_code_instance()
    for g, h, _count in special_hom_instances():
        yield g, h
    rng = random.Random(7)
    for _ in range(40):
        a = random_alphabet(rng, rng.random() < 0.5)
        yield (random_labelled(rng, a, max_v=3, max_e=4),
               random_labelled(rng, a, max_v=4, max_e=5))


def test_homs_match_brute_force_in_order():
    def items(maps):
        # Compared as item lists, so dict insertion order counts too.
        return [(list(vm.items()), list(em.items())) for vm, em in maps]

    nonempty = 0
    for g, h in hom_instances():
        want = items(brute_force_homs(g, h))
        homs = enumerate_homs(g, h)
        assert items((m.vmap, m.emap) for m in homs) == want
        assert_valid_homs(homs, g, h)
        for k in (1, 2, 5):
            got = enumerate_homs(g, h, limit=k)
            assert items((m.vmap, m.emap) for m in got) == want[:k]
        nonempty += bool(want)
    assert nonempty >= 20


def shuffled_comb(seed):
    """The comb tileset with its tiles in a seeded random order."""
    base = comb_tileset()
    order = list(range(len(base.tiles)))
    random.Random(seed).shuffle(order)
    return WangTileset(base.colors, tuple(base.tiles[i] for i in order),
                       names=tuple(base.names[i] for i in order))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_homs_into_a_shuffled_comb_match_brute_force(seed):
    g, h = ball(1).graph, wang_to_dhs(shuffled_comb(seed)).graph
    assert ([(list(m.vmap.items()), list(m.emap.items()))
             for m in enumerate_homs(g, h)]
            == [(list(vm.items()), list(em.items()))
                for vm, em in brute_force_homs(g, h)])


def test_homs_into_a_shuffled_comb_count_its_tilings():
    comb, window = shuffled_comb(1), ball(2)
    homs = enumerate_homs(window.graph, wang_to_dhs(comb).graph)
    assert len(homs) == exact_count(window, comb) == 19060


def test_homs_are_the_same_when_the_tables_start_over(monkeypatch):
    # Tiny tables start over at almost every new key, while the search
    # still holds the option lists it is taking.
    def items(g, h):
        return [(list(m.vmap.items()), list(m.emap.items()))
                for m in enumerate_homs(g, h)]

    cases = [(ball(1).graph, wang_to_dhs(comb_tileset()).graph),
             (ball(2).graph, wang_to_dhs(comb_tileset()).graph),
             (plane_window(0, 2, 0, 1), plane_torus(2))]
    want = [items(g, h) for g, h in cases]
    monkeypatch.setattr(graphs, "_HOM_TABLE_LIMIT", 2)
    assert [items(g, h) for g, h in cases] == want


def test_homs_stopped_by_a_limit_in_or_past_a_tail_block():
    # From position 8 on, ball(2)'s positions have all their earlier
    # neighbours before 8, so each image of positions 0-7 heads a block of
    # results built at once; the first two blocks hold 3 and 108 results.
    # A limit inside or at the end of a block takes the search one option
    # at a time.
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph

    def items(homs):
        return [(list(m.vmap.items()), list(m.emap.items())) for m in homs]

    full_homs = enumerate_homs(g, h)
    full = items(full_homs)
    for k in (2, 3, 4, 110, 111, 112):
        assert items(enumerate_homs(g, h, limit=k)) == full[:k]
        # Results made one option at a time meet the validating
        # constructor as the block's do.
        homs = enumerate_homs(g, h, limit=k)
        assert_valid_homs(homs, g, h)
        assert list(map(repr, homs)) == list(map(repr, full_homs[:k]))


def collections_started(call):
    """The generations of the cyclic collections that start during call()."""
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
    return starts


def test_homs_turn_the_collector_back_on_at_every_exit():
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    assert len(enumerate_homs(g, h)) == 19060
    assert gc.isenabled()
    assert len(enumerate_homs(g, h, limit=5)) == 5
    assert gc.isenabled()
    with pytest.raises(CapacityError):
        enumerate_homs(g, h, budget=1000)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="different alphabets"):
        enumerate_homs(labelled(rose([]), {0: 1}, {}, {}), h)
    assert gc.isenabled()


def test_homs_leave_a_collector_the_caller_turned_off_alone():
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    gc.disable()
    try:
        starts = collections_started(lambda: enumerate_homs(g, h))
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert starts == []


def test_homs_start_one_young_collection():
    # A full collection leaves every count at zero.  The call's results put
    # generation 0 over its threshold many times over, and the pause runs
    # the one young collection that is owed as the call returns.
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    gc.collect()
    assert collections_started(lambda: enumerate_homs(g, h)) == [0]


def test_hom_searches_make_no_reference_cycles():
    # What pausing the collector rests on: with it off, a search leaves no
    # unreachable objects behind, whether it returns, stops at its limit
    # or runs out of budget.  The calls run with no trace function: under
    # one, as coverage tools install, CPython's frame objects form cycles
    # of their own, and the count would measure the tracer, not the search.
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    tracer = sys.gettrace()
    gc.collect()
    gc.disable()
    sys.settrace(None)
    try:
        for kwargs in ({}, {"limit": 5}, {"budget": 1000}):
            try:
                enumerate_homs(g, h, **kwargs)
            except CapacityError:
                assert kwargs == {"budget": 1000}
            assert gc.collect() == 0, kwargs
    finally:
        sys.settrace(tracer)
        gc.enable()


def edgeless_instance():
    """Three vertices of ball(1) and no edges, into the comb target: each
    position has all six comb vertices as options."""
    b = ball(1).graph
    vs = b.vertices()[:3]
    g = LabelGraph({v: b.vlabel[v] for v in vs}, {}, {}, {}, b.label_graph)
    return g, wang_to_dhs(comb_tileset()).graph


def test_homs_on_an_edgeless_domain_are_one_product():
    g, h = edgeless_instance()
    homs = enumerate_homs(g, h)
    assert len(homs) == 6 ** 3
    assert ([(list(m.vmap.items()), list(m.emap.items())) for m in homs]
            == [(list(vm.items()), list(em.items()))
                for vm, em in brute_force_homs(g, h)])
    assert_valid_homs(homs, g, h)


def test_homs_on_special_domains_and_targets():
    for g, h, count in special_hom_instances():
        homs = enumerate_homs(g, h)
        assert len(homs) == count
        assert_valid_homs(homs, g, h)
        for m in homs:
            for e, d in m.emap.items():
                if g.reversal is not None and g.reversal[e] == e:
                    assert h.reversal[d] == d


def swap_reversals(h, d, x):
    """Pair d with x and their old reversed twins with each other, so that
    h.reversal stays an involution."""
    r, y = h.reversal[d], h.reversal[x]
    h.reversal.update({d: x, x: d, r: y, y: r})
    return {d, x, r, y}


def assert_homs_reject(g, h, message):
    """enumerate_homs(g, h) raises validate's ValueError with exactly this
    message, with no limit and with one that a first result would meet."""
    for kwargs in ({}, {"limit": 1}, {"limit": 10}):
        with pytest.raises(ValueError) as err:
            enumerate_homs(g, h, **kwargs)
        assert str(err.value) == message, kwargs


def test_hom_results_are_checked_against_the_target():
    # The search picks edge images by their endpoints and labels in h, so
    # only a partner image, read through h.reversal, could be wrong: pair
    # the b-loop at a comb vertex with the A-loop there, endpoints right
    # and label wrong.  validate(h) rejects h before any result.
    g = ball(1).graph
    h = wang_to_dhs(comb_tileset()).graph
    v = ("t", "o", "t", "o")
    swap_reversals(h, (v, "b", v), (v, "A", v))
    assert_homs_reject(g, h, "labelling of (('t', 'o', 't', 'o'), 'a', "
                             "('t', 'o', 't', 'o')) ignores reversal")


def test_hom_results_are_checked_for_reversal():
    # Break the involution at one partner image: the search still pairs d
    # with r = h.reversal[d], but r no longer reverses back to d.
    g = ball(1).graph
    h = wang_to_dhs(comb_tileset()).graph
    d = next(iter(enumerate_homs(g, h)[0].emap.values()))
    h.reversal[h.reversal[d]] = next(x for x in h.edges if x != d)
    assert_homs_reject(g, h, "reversal is not an involution at %r" % (d,))


def test_hom_checks_catch_a_target_edge_first_used_late():
    # The b-loops at two comb vertices swap their reversed twins, so each
    # twin has the wrong endpoints; the loops first appear as edge images
    # in result 10 of ball(1) -> comb, yet h is rejected before any
    # result, also under a limit that stops before result 10.
    g = ball(1).graph
    h = wang_to_dhs(comb_tileset()).graph
    first = enumerate_homs(g, h, limit=11)
    s, t = ("s", "o", "s", "o"), ("t", "o", "t", "o")
    touched = swap_reversals(h, (s, "b", s), (t, "B", t))
    assert ([bool(touched & set(m.emap.values())) for m in first]
            == [False] * 10 + [True])
    assert_homs_reject(g, h, "reversal of (('s', 'o', 's', 'o'), 'b', "
                             "('s', 'o', 's', 'o')) does not swap endpoints")


def test_homs_see_an_edge_added_to_the_target_after_a_call():
    b = rose(["x"])
    g = labelled(b, {0: 1}, {"e": (0, 0)}, {"e": "x"})
    h = labelled(b, {1: 1}, {"x": (1, 1)}, {"x": "x"})
    assert [m.emap for m in enumerate_homs(g, h)] == [{"e": "x"}]
    h.edges["y"] = (1, 1)
    h.elabel["y"] = "x"
    fresh = labelled(b, h.vlabel, h.edges, h.elabel)
    assert ([m.emap for m in enumerate_homs(g, h)]
            == [m.emap for m in enumerate_homs(g, fresh)]
            == [{"e": "x"}, {"e": "y"}])


def orbit_order(g, h):
    """g's edge ids in enumerate_homs' emap order: g.edge_ids() orbit by
    orbit, each representative followed by its partner."""
    unoriented = g.reversal is not None and h.reversal is not None
    out = []
    for e in g.edge_ids():
        if e not in out:
            out.append(e)
            if unoriented and g.reversal[e] not in out:
                out.append(g.reversal[e])
    return out


@pytest.mark.parametrize("case", ["one_image", "product", "wide"])
def test_hom_results_are_read_only_dicts(case):
    # ball(2) -> comb takes one image per orbit; the torus's parallel loops
    # give each orbit two, so its results come from the product path; the
    # 12x12 grid's results take the codes wider than a byte.
    if case == "one_image":
        g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    elif case == "product":
        g, h = plane_window(0, 2, 0, 1), plane_torus(2)
    else:
        g, h = wide_code_instance()
        assert (len(h.vlabel), len(h.edges)) == (144, 528)
    homs = enumerate_homs(g, h)
    assert len(homs) == {"one_image": 19060, "product": 128, "wide": 100}[case]
    vkeys, ekeys = _vertex_order(g), orbit_order(g, h)
    for m in homs[:20] + homs[-20:]:
        for mp, keys in ((m.vmap, vkeys), (m.emap, ekeys)):
            d = dict(mp)
            assert mp == d and d == mp
            assert list(mp) == list(mp.keys()) == list(d) == keys
            assert list(mp.values()) == [d[k] for k in keys]
            assert list(mp.items()) == list(d.items())
            assert len(mp) == len(mp.items()) == len(mp.values()) == len(d)
            assert keys[-1] in mp and keys[0] in mp.keys()
            assert (keys[0], d[keys[0]]) in mp.items()
            assert "absent" not in mp
            assert mp.get(keys[0]) == d[keys[0]] and mp.get("absent") is None
            with pytest.raises(KeyError):
                mp["absent"]
            with pytest.raises(TypeError):
                mp[keys[0]] = d[keys[0]]
            with pytest.raises(TypeError):
                del mp[keys[0]]
        plain = Morphism(dict(m.vmap), dict(m.emap), g, h)
        assert repr(m) == repr(plain)
        assert m == plain and plain == m
        for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert back == m
            assert list(back.vmap.items()) == list(m.vmap.items())
            assert list(back.emap.items()) == list(m.emap.items())
    assert homs[0] != homs[1] and homs[0].emap != dict(homs[1].emap)


def test_hom_results_take_under_a_kilobyte_each():
    # Results share their key indexes and code tables, so each keeps only
    # its string of codes; a dict per map would keep about 1.9 kB per result.
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    tracemalloc.start()
    try:
        homs = enumerate_homs(g, h)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(homs) == 19060
    assert kept / len(homs) < 1024


def test_hom_results_add_three_tracked_objects_each():
    # A result is a Morphism and its two rows, which share one bytes string
    # of codes that the collector does not track.  The call's result list,
    # indexes and tables add a few objects more.
    g, h = ball(2).graph, wang_to_dhs(comb_tileset()).graph
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        homs = enumerate_homs(g, h)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(homs) == 19060
    assert grown <= 3 * len(homs) + 16


def test_homs_reject_a_domain_whose_reversal_was_broken():
    # Edge "b" would be the partner of two orbits once "c" reverses to it.
    a = alphabet([1], {"s": (1, 1), "s'": (1, 1)}, {"s": "s'", "s'": "s"})
    g = labelled(a, {0: 1}, {e: (0, 0) for e in "abcd"},
                 {"a": "s", "b": "s'", "c": "s", "d": "s'"},
                 {"a": "b", "b": "a", "c": "d", "d": "c"})
    h = labelled(a, {0: 1}, {"x": (0, 0), "y": (0, 0)},
                 {"x": "s", "y": "s'"}, {"x": "y", "y": "x"})
    assert len(enumerate_homs(g, h)) == 1
    g.reversal["c"] = "b"
    with pytest.raises(ValueError, match="not an involution at 'c'"):
        enumerate_homs(g, h)


def test_homs_reject_a_domain_whose_labels_ignore_its_reversal():
    # A partner image is read through h.reversal, so it carries the reversed
    # label; a domain partner relabelled after the build would otherwise be
    # mapped to an edge with another label.
    g, h = loop_pair_graph(), loop_pair_graph()
    assert ([dict(m.emap) for m in enumerate_homs(g, h)]
            == [{"x": "x", "x'": "x'"}])
    g.elabel["x'"] = "s"
    assert_homs_reject(g, h, "labelling of 'x' ignores reversal")


def two_loop_graph():
    """One vertex with an a-loop and a b-loop over the two-loop rose."""
    return labelled(rose(["a", "b"]), {0: 1}, {"a": (0, 0), "b": (0, 0)},
                    {"a": "a", "b": "b"})


def test_homs_reject_a_domain_edge_at_a_missing_vertex():
    g, h = two_loop_graph(), two_loop_graph()
    assert len(enumerate_homs(g, h)) == 1
    g.edges["a"] = (0, 7)
    assert_homs_reject(g, h, "edge 'a' has a dangling endpoint")


def test_homs_reject_a_domain_edge_without_a_label():
    g, h = two_loop_graph(), two_loop_graph()
    del g.elabel["a"]
    assert_homs_reject(g, h, "edge 'a' has no label")


def budget_instance(r):
    """ball(r) -> comb for an int r; else a named instance: one whose homs
    go through the product over parallel or self-reversed edge images, or
    "last_fails", whose search ends on a table that leaves out its
    position's last candidate, so its last charge is an exhausted table's."""
    if r == "last_fails":
        tiles = ((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, 1, 0, 1))
        return ball(1).graph, wang_to_dhs(WangTileset({0, 1}, tiles)).graph
    if r == "torus":
        return plane_window(0, 2, 0, 1), plane_torus(2)
    if r == "half_edge":
        g, h, _count = list(special_hom_instances())[-1]
        return g, h
    if r == "edgeless":
        return edgeless_instance()
    return ball(r).graph, wang_to_dhs(comb_tileset()).graph


@pytest.mark.parametrize("r, limit, first_ok", [(1, None, 639), (1, 5, 59),
                                                (2, 5, 132),
                                                (2, None, 156466),
                                                ("edgeless", None, 474),
                                                ("edgeless", 7, 17),
                                                ("torus", None, 134),
                                                ("torus", 3, 9),
                                                ("half_edge", None, 5),
                                                ("half_edge", 2, 4),
                                                ("last_fails", None, 308)])
def test_homs_budget_threshold(r, limit, first_ok):
    # One unit per vertex candidate tried and one per hom built: the
    # smallest budget that succeeds is fixed by the search order.
    window, target = budget_instance(r)
    with pytest.raises(CapacityError):
        enumerate_homs(window, target, limit=limit, budget=first_ok - 1)
    assert enumerate_homs(window, target, limit=limit, budget=first_ok)


@pytest.mark.parametrize("limit", [0, -1])
def test_homs_up_to_a_limit_below_one_are_none(limit):
    g, h = ball(1).graph, wang_to_dhs(comb_tileset()).graph
    assert enumerate_homs(g, h, limit=limit) == []


def test_homs_on_large_grid_need_no_recursion():
    window = plane_window(0, 39, 0, 39)
    assert window.num_vertices() > sys.getrecursionlimit()
    (hom,) = enumerate_homs(window, plane_torus(1), limit=1)
    assert set(hom.vmap.values()) == {0}
    assert hom.emap[((0, 0), "E")] == ("E", 0)


def test_hom_search_memory_grows_linearly_with_the_grid():
    # The search state along one path must stay linear in its length: a
    # per-depth copy of the images so far would make the 40x40 peak about
    # ten times the 20x20 one rather than four.
    def peak(n):
        window = plane_window(0, n - 1, 0, n - 1)
        tracemalloc.start()
        try:
            enumerate_homs(window, plane_torus(1), limit=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) < 6 * peak(20)


# -- simplification -------------------------------------------------------------


def test_simplify_merges_parallel_edges():
    a = two_vertex_alphabet()
    g = labelled(a, {0: "p", 1: "q"}, {0: (0, 1), 1: (0, 1)},
                 {0: "c", 1: "c"})
    s = simplify(g)
    assert s.num_edges() == 1
    assert is_weakly_etale(g)


def test_weakly_etale_fails_on_fork():
    a = two_vertex_alphabet()
    g = labelled(a, {0: "p", 1: "q", 2: "q"}, {0: (0, 1), 1: (0, 2)},
                 {0: "c", 1: "c"})
    assert not is_weakly_etale(g)


def test_full_simplify_drops_self_loop():
    a = two_vertex_alphabet()
    g = labelled(a, {0: "q"}, {0: (0, 0)}, {0: "d"})
    assert full_simplify(g).num_edges() == 0
    # unoriented: a loop goes with its reversal entry, other pairs stay
    a = unoriented_rose(["x"])
    g = labelled(a, {0: 1, 1: 1},
                 {0: (0, 0), 1: (0, 0), 2: (0, 1), 3: (1, 0)},
                 {0: "x", 1: "x'", 2: "x", 3: "x'"}, {0: 1, 1: 0, 2: 3, 3: 2})
    s = full_simplify(g)
    assert s.edges == {(0, "x", 1): (0, 1), (1, "x'", 0): (1, 0)}
    assert s.reversal == {(0, "x", 1): (1, "x'", 0),
                          (1, "x'", 0): (0, "x", 1)}


def test_disjoint_union_keeps_reversals_and_relabels_alphabets():
    a = unoriented_rose(["x"])
    g = labelled(a, {0: 1, 1: 1}, {0: (0, 1), 1: (1, 0)},
                 {0: "x", 1: "x'"}, {0: 1, 1: 0})
    u = disjoint_union(g, g)
    assert u.label_graph == a
    assert u.reversal == {(0, 0): (0, 1), (0, 1): (0, 0),
                          (1, 0): (1, 1), (1, 1): (1, 0)}
    assert u.elabel == {(0, 0): "x", (0, 1): "x'", (1, 0): "x", (1, 1): "x'"}
    # two alphabets give an alphabet whose cells are labelled by their ids
    u = disjoint_union(a, a)
    assert u.label_graph is None
    assert u.vlabel == {(0, 1): (0, 1), (1, 1): (1, 1)}
    assert u.elabel == {e: e for e in u.edges} and len(u.edges) == 4
    assert u.reversal[(0, "x")] == (0, "x'")
    assert disjoint_union(two_vertex_alphabet(),
                          two_vertex_alphabet()).reversal is None


def test_weakly_etale_iff_simplification_etale():
    rng = random.Random(5)
    for _ in range(30):
        a = random_alphabet(rng, unoriented=False)
        g = random_labelled(rng, a, max_v=4, max_e=5)
        assert is_weakly_etale(g) == is_etale(simplify(g))


# -- vertex blow-up ---------------------------------------------------------------


def test_blowup_by_one_is_isomorphic():
    a = two_vertex_alphabet()
    g = labelled(a, {0: "p", 1: "q"}, {0: (0, 1), 1: (1, 1)},
                 {0: "c", 1: "d"})
    k = {"p": 1, "q": 1}
    bg = vertex_blowup(g, k)
    assert bg.num_vertices() == g.num_vertices()
    assert bg.num_edges() == g.num_edges()
    assert bg.edges[(0, 0, 0)] == ((0, 0), (1, 0))


def test_blowup_loop_by_two():
    a = rose(["s"])
    g = labelled(a, {0: 1}, {0: (0, 0)}, {0: "s"})
    bg = vertex_blowup(g, {1: 2})
    assert bg.num_vertices() == 2
    assert bg.num_edges() == 4


def test_blowup_edge_count_formula():
    rng = random.Random(9)
    for _ in range(10):
        a = random_alphabet(rng, unoriented=False)
        g = random_labelled(rng, a, max_v=3, max_e=3)
        k = {v: rng.randint(0, 2) for v in a.vertices()}
        bg = vertex_blowup(g, k)
        want = sum(k[g.vlabel[t]] * k[g.vlabel[h]]
                   for (t, h) in g.edges.values())
        assert bg.num_edges() == want


# -- serialization -----------------------------------------------------------------


def test_text_round_trip():
    a = unoriented_rose(["s"])
    g = labelled(a, {0: 1, 1: 1}, {0: (0, 1), 1: (1, 0)},
                 {0: "s", 1: "s'"}, {0: 1, 1: 0})
    text = to_text(g)
    g2 = from_text(text, label_graph=a)
    assert g2 == g
    assert to_text(g2) == text


def test_text_round_trip_with_hash_in_ids_and_labels():
    a = alphabet(["c#", "d"], {"e#": ("c#", "d"), "f": ("d", "c#")},
                 {"e#": "f", "f": "e#"})
    g = labelled(a, {"v#": "c#", 1: "d"}, {"x#": ("v#", 1), 2: (1, "v#")},
                 {"x#": "e#", 2: "f"}, {"x#": 2, 2: "x#"})
    text = to_text(g)
    assert from_text(text, label_graph=a) == g
    assert from_text(to_text(a)) == a
    # an unquoted '#' still starts a comment
    assert from_text(text + "vertex 7 'd'#note\n# whole line\n",
                     label_graph=a).vlabel[7] == "d"


def test_text_repeated_id_names_the_line():
    a = rose(["x", "y"])
    with pytest.raises(ValueError, match="'edge e 0 0 y': repeated edge 'e'"):
        from_text("vertex 0 1\nedge e 0 0 x\nedge e 0 0 y\n", label_graph=a)
    with pytest.raises(ValueError, match="'vertex 0 1': repeated vertex 0"):
        from_text("vertex 0 1\nvertex 0 1\nedge e 0 0 x\n", label_graph=a)


@pytest.mark.parametrize("text, line, message", [
    ("vertex 0 1\nedge e 0 0 x bad f\n", "edge e 0 0 x bad f",
     "expected 'rev'"),
    ("vertex 0 1\nface f 0\n", "face f 0", "unknown line")],
    ids=["no-rev-keyword", "unknown-key"])
def test_text_bad_lines_name_the_line(text, line, message):
    with pytest.raises(ValueError, match="^bad graph line "
                       + re.escape("%r: %s" % (line, message)) + "$"):
        from_text(text, label_graph=rose(["x", "y"]))


def test_operations_are_deterministic():
    rng1 = random.Random(13)
    rng2 = random.Random(13)
    a1 = random_alphabet(rng1, unoriented=True)
    a2 = random_alphabet(rng2, unoriented=True)
    g1 = random_labelled(rng1, a1, max_v=4, max_e=4)
    g2 = random_labelled(rng2, a2, max_v=4, max_e=4)
    assert to_text(sharp(g1)) == to_text(sharp(g2))
    assert to_text(path_subdivision(g1)) == to_text(path_subdivision(g2))
    assert to_text(flat(sharp(g1))) == to_text(flat(sharp(g2)))


def test_dot_export_mentions_all_vertices():
    a = two_vertex_alphabet()
    g = labelled(a, {0: "p", 1: "q"}, {0: (0, 1)}, {0: "c"})
    dot = to_dot(g)
    assert dot.count("->") == 1
    assert dot.startswith("digraph")


def test_labelling_morphism_is_valid():
    a = two_vertex_alphabet()
    g = labelled(a, {0: "p", 1: "q"}, {0: (0, 1)}, {0: "c"})
    m = labelling_morphism(g)
    assert m.vmap == {0: "p", 1: "q"}


def edge_graph():
    """One c-edge from a p-vertex to a q-vertex, over two_vertex_alphabet."""
    return labelled(two_vertex_alphabet(), {0: "p", 1: "q"}, {0: (0, 1)},
                    {0: "c"})


def loop_pair_graph():
    """One vertex with an s-loop x and its reversed twin x', an s'-loop."""
    return labelled(unoriented_rose(["s"]), {0: 1},
                    {"x": (0, 0), "x'": (0, 0)}, {"x": "s", "x'": "s'"},
                    {"x": "x'", "x'": "x"})


def ambiguous_reversal_graph():
    """Two parallel s-loops whose twins, once a twin's label is changed
    after the graph is built, carry different labels."""
    g = labelled(unoriented_rose(["s"]), {0: 1},
                 {e: (0, 0) for e in ("x", "x'", "y", "y'")},
                 {"x": "s", "x'": "s'", "y": "s", "y'": "s'"},
                 {"x": "x'", "x'": "x", "y": "y'", "y'": "y"})
    g.elabel["y'"] = "s"
    return g


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Morphism({}, {}, edge_graph(), edge_graph()),
                 "morphism maps have wrong domains", id="morphism-domains"),
    pytest.param(lambda: Morphism({0: 9, 1: 1}, {0: 0}, edge_graph(),
                                  edge_graph()),
                 "vertex image 9 missing", id="morphism-vertex-image"),
    pytest.param(lambda: Morphism({0: 0, 1: 1}, {0: 9}, edge_graph(),
                                  edge_graph()),
                 "edge image 9 missing", id="morphism-edge-image"),
    pytest.param(lambda: Morphism({0: 1}, {},
                                  labelled(two_vertex_alphabet(), {0: "p"},
                                           {}, {}), edge_graph()),
                 "morphism breaks vertex label at 0",
                 id="morphism-vertex-label"),
    pytest.param(lambda: Morphism({0: 0, 1: 0}, {0: 0}, edge_graph(),
                                  edge_graph()),
                 "morphism breaks endpoints at 0", id="morphism-endpoints"),
    pytest.param(lambda: Morphism({0: 0}, {"x": "x", "x'": "x"},
                                  loop_pair_graph(), loop_pair_graph()),
                 "morphism breaks reversal at 'x'", id="morphism-reversal"),
    pytest.param(lambda: Morphism({0: 0}, {"x": "x'", "x'": "x"},
                                  loop_pair_graph(), loop_pair_graph()),
                 "morphism breaks edge label at 'x'",
                 id="morphism-edge-label"),
    pytest.param(lambda: disjoint_union(edge_graph(),
                                        identity_over(rose(["x"]))),
                 "disjoint union over different alphabets",
                 id="disjoint_union"),
    pytest.param(lambda: labelling_morphism(two_vertex_alphabet()),
                 "graph has no alphabet", id="labelling_morphism"),
    pytest.param(lambda: alpha_pullback(
        edge_graph(), identity_over(two_vertex_alphabet()),
        labelling_morphism(edge_graph())),
        "alpha is not a labelling of the second factor", id="alpha_pullback"),
    pytest.param(lambda: exponential(edge_graph(),
                                     identity_over(rose(["x"]))),
                 "exponential needs both graphs over one alphabet",
                 id="exponential-alphabet"),
    pytest.param(lambda: exponential(
        labelled(unoriented_rose(["s"]), {0: 1}, {}, {}),
        identity_over(unoriented_rose(["s"]))),
        "exponential needs matching orientedness",
        id="exponential-orientedness"),
    pytest.param(lambda: flat(two_vertex_alphabet()),
                 "flat needs a labelled graph", id="flat"),
    pytest.param(lambda: sharp(two_vertex_alphabet()),
                 "sharp needs a labelled graph", id="sharp"),
    pytest.param(lambda: simplify(ambiguous_reversal_graph()),
                 "reversal label ambiguous under simplification",
                 id="simplify"),
])
def test_guards_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
