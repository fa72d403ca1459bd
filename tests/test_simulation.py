import hashlib
import itertools
import operator
import random
import re

import pytest

from tilesim.geometry import (
    alphabet_label_graph, ball, boundary_vertices, cayley_label_graph,
    dl_label_graph, evaluate_word, grid_patch, identity, interior_vertices,
    plane_label_graph, plane_window, quadrant_label_graph, quadrant_window,
    tetrahedron)
from tilesim.graphs import (
    LabelGraph, Morphism, add_edge_pair, alpha_pullback, alphabet,
    base_of_subdivision, disjoint_union, exponential, induced_subgraph,
    labelled, path_subdivision, rose, sharp, simplify, vertex_blowup)
from tilesim.simulation import (
    Gwa, GwaAutomaton, Simulator, apply_simulator,
    blowup_simulator, builtin_simulator, comb_to_plane, compose_simulators,
    decorate_window, edge_triples, flat, gwa_simulated_graph, gwa_to_simulator,
    identity_simulator, patch_frontier, quadrant_patch,
    quadrant_to_plane, random_simulator, rectangle_compress, relabel_graph,
    rename_vertices, run_gwa, sea_to_quadrant, simulator_from_text,
    simulator_to_dot, simulator_to_gwa, simulator_to_text, _state_copies,
    _window_graph)
from tilesim.sat import forced_values, solve_tiling
from tilesim.tilesets import (
    comb_configuration, comb_tileset, decoration_symbols, lamp_runs,
    omega_configuration, sea_level_system, sft_to_dhs)


def comb_window(r):
    w = ball(r)
    dec = decorate_window(w, comb_tileset(),
                          {p: comb_configuration(p) for p in w.points()})
    return dec, boundary_vertices(w)


def sea_window(h):
    w = tetrahedron(-h, h)
    ts = sea_level_system()
    dec = decorate_window(
        w, ts, {p: ts.alphabet.index(omega_configuration(p))
                for p in w.points()})
    return dec, boundary_vertices(w)


def decode_comb(pt):
    # inverse of the reference decoration: a^n b^m sits at (m, n)
    runs = lamp_runs(pt)
    if not runs:
        return (0, pt.marker)
    (lo, hi) = runs[0]
    if pt.marker == hi + 1:
        return (hi - lo + 1, lo)
    assert pt.marker == lo
    return (-(hi - lo + 1), hi + 1)


def decode_sea(pt):
    # marker-zero points carry m in the lamps above and n in the lamps below
    assert pt.marker == 0
    m = n = 0
    for (k, val) in pt.digits:
        if val:
            if k >= 0:
                m += 1 << k
            else:
                n += 1 << (-1 - k)
    return (m, n)


def same_graph(g1, g2):
    return g1.vlabel == g2.vlabel and edge_triples(g1) == edge_triples(g2)


# -- construction and validation


def test_identity_simulator_reproduces_the_window():
    w = ball(2)
    s = identity_simulator(cayley_label_graph())
    g, inc = apply_simulator(w, s)
    ren = rename_vertices(g, lambda v: v[0])
    assert same_graph(ren, w.graph)
    assert {v[0] for v in inc} == boundary_vertices(w)


def test_simulator_rejects_graphs_not_over_a_subdivision():
    from tilesim.simulation import Simulator
    a = cayley_label_graph()
    g = LabelGraph({0: 1}, {}, {}, {}, a)  # labelled over a, not over a*
    with pytest.raises(ValueError):
        Simulator(g, Morphism({0: 1}, {}, g, a))


def test_apply_simulator_checks_the_source_alphabet():
    s = builtin_simulator("quadrant_to_plane")
    with pytest.raises(ValueError):
        apply_simulator(ball(1), s)
    with pytest.raises(ValueError):
        pullback_then_flat(ball(1), s)


# -- the compiled walk against its definition


def pullback_then_flat(window, s, frontier=None):
    # apply_simulator's definition: the pullback along alpha, flattened,
    # with the pullback vertices over frontier points as its frontier
    graph, frontier = _window_graph(window, frontier)
    pb = alpha_pullback(graph, s.graph, s.alpha)
    return flat(pb, frontier={uv for uv in pb.vlabel if uv[0] in frontier})


def assert_walk_matches_definition(window, s, frontier=None):
    g, inc = apply_simulator(window, s, frontier)
    ref, ref_inc = pullback_then_flat(window, s, frontier)
    assert list(g.vlabel.items()) == list(ref.vlabel.items())
    assert g.edges == ref.edges
    assert g.elabel == ref.elabel
    assert g.reversal == ref.reversal
    assert g.label_graph == ref.label_graph
    assert inc == ref_inc
    return g, inc


def seeded_sea_window(h):
    w, ts, seeds = seeded_omega(h)
    model = solve_tiling(w, ts, seeds).values
    return decorate_window(w, ts, model), boundary_vertices(w)


def test_walk_matches_pullback_then_flat_on_the_builtin_windows():
    w = quadrant_window(5, 5)
    assert_walk_matches_definition(w, quadrant_to_plane(), patch_frontier(w))
    assert_walk_matches_definition(w, quadrant_to_plane())
    for r in (3, 5):
        dec, fr = comb_window(r)
        assert_walk_matches_definition(dec, comb_to_plane(), fr)
    for dec, fr in (sea_window(2), sea_window(3), seeded_sea_window(4)):
        g, inc = assert_walk_matches_definition(dec, sea_to_quadrant(), fr)
        assert g.edges and inc and len(inc) < len(g.vlabel)
    w = plane_window(0, 7, 0, 7)
    dec = relabel_graph(
        w, lambda p: "good" if p[0] % 3 == 0 and p[1] % 2 == 0 else "bad",
        ("bad", "good"))
    assert_walk_matches_definition(dec, rectangle_compress(),
                                   patch_frontier(w))
    # an oriented simulator, through the walker form and back
    dec, fr = comb_window(4)
    gwa, k = simulator_to_gwa(comb_to_plane())
    blown = vertex_blowup(dec, k)
    g, _ = assert_walk_matches_definition(
        blown, gwa_to_simulator(gwa),
        {(p, i) for (p, i) in blown.vlabel if p in fr})
    assert g.edges and g.reversal is None


def random_graph_over(rng, a, n, m):
    # n vertices over the one-vertex alphabet a and m random edge pairs,
    # loops and parallel edges included
    (av,) = a.vlabel
    edges, elabel, rev = {}, {}, {}
    for i in range(m):
        lab = rng.choice(sorted(a.edges))
        add_edge_pair(edges, elabel, rev, ("e", i), ("r", i),
                      rng.randrange(n), rng.randrange(n), lab,
                      a.reversal[lab])
    return LabelGraph({v: av for v in range(n)}, edges, elabel, rev, a)


def test_walk_matches_pullback_then_flat_on_random_simulators():
    rng = random.Random(2024)
    # each one-vertex alphabet with a window over it
    sources = ((cayley_label_graph(), ball(2).graph),
               (plane_label_graph(), plane_window(0, 4, 0, 3)))
    kinds = set()
    for case in range(100):
        a, w = rng.choice(sources)
        s = random_simulator(rng, a, rng.choice(sources)[0])
        if case % 3 == 0:
            g = random_graph_over(rng, a, rng.randrange(1, 12),
                                  rng.randrange(0, 30))
        else:
            g = induced_subgraph(w, rng.sample(sorted(w.vlabel, key=repr),
                                               rng.randrange(1, 16)))
        frontier = rng.choice((set(), set(g.vlabel),
                               {v for v in g.vlabel if rng.random() < 0.3}))
        if case % 10 == 9:
            gwa, k = simulator_to_gwa(s)
            g = vertex_blowup(g, k)
            s = gwa_to_simulator(gwa)
            frontier = {(v, i) for (v, i) in g.vlabel if v in frontier}
        out, inc = assert_walk_matches_definition(g, s, frontier)
        kinds.add((bool(out.edges), bool(inc), inc == set(out.vlabel)))
    assert len(kinds) >= 3


def test_walk_on_ten_thousand_points_simulates_the_quadrant():
    # seeded omega_full on 11264 points, solved, decorated and walked:
    # no recursion, and the trusted part is a quarter-plane patch
    dec, fr = seeded_sea_window(5)
    assert len(dec.vlabel) > 10 ** 4
    g, inc = apply_simulator(dec, sea_to_quadrant(), frontier=fr)
    assert_simulates_the_quadrant(g, inc)


def test_builtin_simulator_rejects_unknown_names():
    with pytest.raises(ValueError):
        builtin_simulator("no_such_simulator")


def test_builtin_sizes():
    for name, states, edges in (("quadrant_to_plane", 9, 48),
                                ("comb_to_plane", 15, 58),
                                ("sea_to_quadrant", 100, 1280),
                                ("rectangle_compress", 5, 28)):
        s = builtin_simulator(name)
        assert (s.num_states(), len(s.graph.edges)) == (states, edges)


# -- flat, the coherent-path walker


def coherent_paths(g, frontier):
    # flat by a plain bounded search: per kept u and edge c of the base
    # alphabet, the midpoints one (0,c,1) step and then up to one (1,c,1)
    # step per vertex of g reach, the (1,c,0) steps home from them and the
    # single (0,c,0) steps
    step = {}
    for e, (t, h) in g.edges.items():
        step.setdefault((t, g.elabel[e]), set()).add(h)

    def after(vs, lab):
        return {h for v in vs for h in step.get((v, lab), ())}

    kept = {v: lab[1] for v, lab in g.vlabel.items() if lab[0] == "v"}
    triples, incomplete = set(), {v for v in kept if v in frontier}
    for u in kept:
        for c in {lab[1] for lab in g.label_graph.edges}:
            mids = layer = after({u}, (0, c, 1))
            for _ in g.vlabel:
                layer = after(layer, (1, c, 1))
                mids = mids | layer
            heads = after({u}, (0, c, 0)) | after(mids, (1, c, 0))
            triples |= {(u, c, v) for v in heads}
            if mids & frontier:
                incomplete.add(u)
    return kept, triples, incomplete


def assert_flat_finds_the_coherent_paths(g, frontier):
    out, inc = flat(g, frontier)
    kept, triples, incomplete = coherent_paths(g, frontier)
    assert out.vlabel == kept
    assert edge_triples(out) == triples and len(out.edges) == len(triples)
    assert inc == incomplete
    assert path_subdivision(out.label_graph) == g.label_graph
    assert flat(g) == out
    if g.reversal is None:
        assert out.reversal is None
    else:
        brev = out.label_graph.reversal

        def triple(e):
            return out.tail(e), out.elabel[e], out.head(e)

        assert {triple(e): triple(f) for e, f in out.reversal.items()} == {
            (u, c, v): (v, brev[c], u) for u, c, v in triples}
    return out, inc


# one- and two-vertex alphabets, oriented and not; y has no out-edge in
# "edge" and in "loops"
FLAT_ALPHABETS = {
    "rose": rose(["s", "t"]),
    "unoriented rose": rose(["s", "S", "t"], {"s": "S", "S": "s", "t": "t"}),
    "edge": alphabet(["x", "y"], {"e": ("x", "y"), "d": ("x", "x")}),
    "unoriented edge": alphabet(
        ["x", "y"], {"e": ("x", "y"), "E": ("y", "x"), "t": ("x", "x")},
        {"e": "E", "E": "e", "t": "t"}),
    "loops": alphabet(["x", "y"], {"d": ("x", "x"), "D": ("x", "x")},
                      {"d": "D", "D": "d"}),
}


def random_graph_over_subdivision(rng, b, n, m):
    # n vertices over random cells of path_subdivision(b) and m random
    # edges, or edge pairs when b is unoriented, loops and parallel edges
    # included
    bs = path_subdivision(b)
    vlabel = {v: rng.choice(sorted(bs.vlabel, key=repr)) for v in range(n)}
    over = {}
    for v, lab in vlabel.items():
        over.setdefault(lab, []).append(v)
    labs = [lab for lab in sorted(bs.edges, key=repr)
            if bs.tail(lab) in over and bs.head(lab) in over]
    edges, elabel = {}, {}
    rev = None if bs.reversal is None else {}
    for i in range(m if labs else 0):
        lab = rng.choice(labs)
        t, h = rng.choice(over[bs.tail(lab)]), rng.choice(over[bs.head(lab)])
        if rev is None:
            edges[i], elabel[i] = (t, h), lab
        else:
            add_edge_pair(edges, elabel, rev, ("e", i), ("r", i), t, h, lab,
                          bs.reversal[lab])
    return labelled(bs, vlabel, edges, elabel, rev)


def test_flat_finds_the_coherent_paths_of_a_bounded_search():
    # a frontier vertex over y, where no coherent path starts, is incomplete
    b = FLAT_ALPHABETS["edge"]
    g = path_subdivision(labelled(b, {"u": "x", "v": "y"}, {"uv": ("u", "v")},
                                  {"uv": "e"}))
    out, inc = assert_flat_finds_the_coherent_paths(g, {("v", "v")})
    assert edge_triples(out) == {(("v", "u"), "e", ("v", "v"))}
    assert inc == {("v", "v")}
    rng = random.Random(28)
    kinds = set()
    for _ in range(300):
        name = rng.choice(sorted(FLAT_ALPHABETS))
        b = FLAT_ALPHABETS[name]
        g = random_graph_over_subdivision(rng, b, rng.randrange(1, 10),
                                          rng.randrange(0, 25))
        frontier = rng.choice((set(), set(g.vlabel), {
            v for v in g.vlabel if rng.random() < 0.3}))
        out, _ = assert_flat_finds_the_coherent_paths(g, frontier)
        direct = {(t, g.elabel[e][1], h) for e, (t, h) in g.edges.items()
                  if g.elabel[e][::2] == (0, 0)}
        tails = {t for t, _ in b.edges.values()}
        dead_ends = {v for v in frontier
                     if g.vlabel[v][0] == "v" and g.vlabel[v][1] not in tails}
        kinds.add((name, bool(edge_triples(out) - direct), bool(dead_ends)))
    # every alphabet has a case with a path through midpoints, and both
    # alphabets with a vertex without out-edges one with it in the frontier
    assert {kind[0] for kind in kinds if kind[1]} == set(FLAT_ALPHABETS)
    assert {kind[0] for kind in kinds if kind[2]} == {"edge", "loops"}


def rectangle_window():
    w = plane_window(0, 7, 0, 7)
    dec = relabel_graph(
        w, lambda p: "good" if p[0] % 3 == 0 and p[1] % 2 == 0 else "bad",
        ("bad", "good"))
    return dec, patch_frontier(w)


# a window each builtin simulator's tests use, with its frontier
PIN_WINDOWS = {
    "quadrant_to_plane": lambda: (quadrant_window(5, 5),
                                  patch_frontier(quadrant_window(5, 5))),
    "comb_to_plane": lambda: comb_window(3),
    "sea_to_quadrant": lambda: sea_window(3),
    "rectangle_compress": rectangle_window,
}

# (edges, incomplete vertices, sha256 of repr of the sorted edge triples
# and the sorted incomplete vertices) of the flattened pullback; edge order
# is not pinned
FLAT_PINS = {
    "quadrant_to_plane": (288, 32, "632ca77552ae5bc5ece7ee012d103c688bfba50a"
                                   "b64cdcc4613b04c09062105a"),
    "comb_to_plane": (64, 16, "945f56aae4ad6a707cc0cd81a17dc84f616e5ee58c475"
                              "cd5a6fd2d09d80efeca"),
    "sea_to_quadrant": (224, 39, "be495304fa8a33847c0ecdeca938da5f94899446524"
                                 "085663e69954d62699fe7"),
    "rectangle_compress": (34, 10, "892e50ddfa310d05dda392371916986ac15459cab"
                                   "e20aa06b319dfdad1b86130"),
}


@pytest.mark.parametrize("name", sorted(FLAT_PINS))
def test_flat_of_the_builtin_pullbacks_is_pinned(name):
    window, frontier = PIN_WINDOWS[name]()
    out, inc = pullback_then_flat(window, builtin_simulator(name), frontier)
    item = repr((sorted(edge_triples(out), key=repr), sorted(inc, key=repr)))
    assert (len(out.edges), len(inc),
            hashlib.sha256(item.encode()).hexdigest()) == FLAT_PINS[name]


def test_graphs_not_over_a_path_subdivision_are_refused():
    # base_of_subdivision makes the one check, for flat and Simulator alike
    message = "labels are not over a path subdivision"
    a = cayley_label_graph()
    g = LabelGraph({0: 1}, {}, {}, {}, a)
    with pytest.raises(ValueError, match=message):
        Simulator(g, Morphism({0: 1}, {}, g, a))
    with pytest.raises(ValueError, match=message):
        flat(ball(1).graph)
    bs = path_subdivision(rose(["s"]))
    partial = alphabet(bs.vlabel, {e: th for e, th in bs.edges.items()
                                   if e != (1, "s", 1)})
    with pytest.raises(ValueError, match=message):
        base_of_subdivision(partial)
    with pytest.raises(ValueError, match=message):
        flat(LabelGraph({0: ("v", 1)}, {}, {}, None, partial))
    assert base_of_subdivision(bs) == rose(["s"])


# -- the quadrant unfolding


def test_quadrant_unfolds_to_the_handkerchief_plane():
    s = quadrant_to_plane()
    w = quadrant_window(5, 5)
    g, inc = apply_simulator(w, s, frontier=patch_frontier(w))

    def fold(v):
        (x, y), (i, j) = v
        return (i * x, j * y)

    square = {(x, y) for x in range(-4, 5) for y in range(-4, 5)}
    assert {fold(v) for v in g.vlabel} == square
    assert len(g.vlabel) == len(square)
    ren = rename_vertices(g, fold)
    assert same_graph(ren, grid_patch(square))
    # the outer ring is exactly what gets flagged
    assert {fold(v) for v in inc} == {p for p in square
                                      if 4 in (abs(p[0]), abs(p[1]))}


# -- the comb decoration


def test_comb_decode_is_injective_on_the_simulated_ball():
    dec, fr = comb_window(6)
    g, _ = apply_simulator(dec, comb_to_plane(), frontier=fr)
    coords = [decode_comb(v[0]) for v in g.vlabel]
    assert len(set(coords)) == len(coords)


def test_comb_trusted_interior_is_a_plane_patch():
    dec, fr = comb_window(6)
    g, inc = apply_simulator(dec, comb_to_plane(), frontier=fr)
    trusted = [v for v in g.vlabel if v not in inc]
    assert len(trusted) == 41
    ren = rename_vertices(induced_subgraph(g, trusted),
                          lambda v: decode_comb(v[0]))
    assert same_graph(ren, grid_patch(set(ren.vlabel)))


def test_comb_east_step_from_the_identity():
    dec, fr = comb_window(4)
    g, _ = apply_simulator(dec, comb_to_plane(), frontier=fr)
    outs = [(h, lab) for (t, lab, h) in edge_triples(g)
            if t == (identity(), "spine") and lab == "E"]
    assert outs == [((evaluate_word("b"), "tooth"), "E")]


@pytest.mark.parametrize("tile", [-1, 6, 99, None],
                         ids=["negative", "past-the-end", "large", "missing"])
def test_decorate_window_names_a_point_without_a_tile(tile):
    w = ball(1)
    ts = comb_tileset()
    assert len(decoration_symbols(ts)) == 6
    assignment = {p: comb_configuration(p) for p in w.points()}
    del assignment[identity()]
    if tile is not None:
        assignment[identity()] = tile
    with pytest.raises(ValueError, match=re.escape(
            "point %r has tile id %r, not one in range(6)" % (identity(),
                                                              tile))):
        decorate_window(w, ts, assignment)


# -- the sea-level decoration


def test_sea_tetrahedron_simulates_the_binary_grid():
    dec, fr = sea_window(2)
    g, inc = apply_simulator(dec, sea_to_quadrant(), frontier=fr)
    coords = {v: decode_sea(v[0]) for v in g.vlabel}
    square = {(x, y) for x in range(4) for y in range(4)}
    assert set(coords.values()) == square and len(coords) == len(square)
    ren = rename_vertices(g, coords.get)
    assert same_graph(ren, quadrant_patch(square))
    # at this window size every walk except those out of the origin grazes
    # the boundary, so exactly one vertex is trusted
    assert {coords[v] for v in g.vlabel if v not in inc} == {(0, 0)}


def test_sea_walks_are_binary_increments():
    dec, fr = sea_window(2)
    g, _ = apply_simulator(dec, sea_to_quadrant(), frontier=fr)
    triples = edge_triples(g)

    def out(word, d):
        start = evaluate_word(word)
        return [h[0] for (t, lab, h) in triples
                if t[0] == start and lab[0] == d]

    assert out("", "E") == [evaluate_word("aB")]
    assert out("", "N") == [evaluate_word("Ab")]
    assert out("aB", "E") == [evaluate_word("aBbaBA")]


def test_sea_interior_grows_with_the_window():
    dec, fr = sea_window(3)
    g, inc = apply_simulator(dec, sea_to_quadrant(), frontier=fr)
    trusted = {decode_sea(v[0]) for v in g.vlabel if v not in inc}
    # walks from m in {3, 7} carry to the top marker and walks into
    # m in {4} come back from it, and likewise for n
    good = {0, 1, 2, 5, 6}
    assert trusted == {(m, n) for m in good for n in good}


# -- the paper's claims on solver output


def seeded_omega(h):
    # omega_full with the identity pinned to its omega tile
    ts = sea_level_system()
    seeds = ((identity(), ts.alphabet.index(omega_configuration(identity()))),)
    return tetrahedron(-h, h), ts, seeds


def omega_singletons(w, ts):
    return {pt: (ts.alphabet.index(omega_configuration(pt)),)
            for pt in interior_vertices(w, 2)}


@pytest.mark.parametrize("h", [2, 3])
def test_seeded_omega_full_is_rigid_and_simulates_the_quadrant(h):
    w, ts, seeds = seeded_omega(h)
    model = solve_tiling(w, ts, seeds).values
    omega = omega_singletons(w, ts)
    assert omega
    assert {pt: (model[pt],) for pt in omega} == omega
    assert forced_values(w, ts, seeds) == omega
    g, inc = apply_simulator(decorate_window(w, ts, model), sea_to_quadrant(),
                             frontier=boundary_vertices(w))
    assert_simulates_the_quadrant(g, inc)


def assert_simulates_the_quadrant(g, inc):
    trusted = [v for v in g.vlabel if v not in inc]
    coords = {v: decode_sea(v[0]) for v in trusted}
    points = set(coords.values())
    assert trusted and len(points) == len(trusted)
    ren = rename_vertices(induced_subgraph(g, trusted), coords.get)
    assert same_graph(ren, quadrant_patch(points))


def test_forced_values_on_ten_thousand_points():
    # 11264 points: the engine must neither recurse nor copy domains per
    # point, and root propagation alone leaves the omega singletons
    w, ts, seeds = seeded_omega(5)
    assert len(w.points()) > 10 ** 4
    assert forced_values(w, ts, seeds) == omega_singletons(w, ts)


# -- run compression


def test_rectangle_compress_collapses_bad_runs():
    w = plane_window(0, 9, 0, 9)
    dec = relabel_graph(
        w, lambda p: "good" if p[0] % 3 == 0 and p[1] % 2 == 0 else "bad",
        ("bad", "good"))
    g, inc = apply_simulator(dec, rectangle_compress(),
                             frontier=patch_frontier(w))
    trusted = [v for v in g.vlabel if v not in inc]
    assert {v[0] for v in trusted} == {(x, y) for x in (3, 6)
                                       for y in (2, 4, 6)}
    ren = rename_vertices(induced_subgraph(g, trusted),
                          lambda v: (v[0][0] // 3, v[0][1] // 2))
    assert same_graph(ren, grid_patch({(x, y) for x in (1, 2)
                                        for y in (1, 2, 3)}))


# -- graph-walking automata


def test_run_gwa_with_no_transitions_finds_nothing():
    m = GwaAutomaton({"i", "f"}, {"i"}, {"f"}, set())
    succ, touched = run_gwa(ball(2), m, identity())
    assert succ == set() and touched is False


def test_run_gwa_flags_boundary_starts():
    m = GwaAutomaton({"i", "f"}, {"i"}, {"f"}, set())
    w = ball(2)
    start = sorted(boundary_vertices(w), key=repr)[0]
    _, touched = run_gwa(w, m, start)
    assert touched is True


def test_run_gwa_takes_an_empty_boundary_as_given():
    # Two a-steps leave ball(1), so only the window boundary is touched.
    m = GwaAutomaton({0, 1, 2}, {0}, {2}, {(0, "a", 1), (1, "a", 2)})
    w = ball(1)
    assert run_gwa(w, m, identity()) == (set(), True)
    assert run_gwa(w, m, identity(), set()) == (set(), False)
    assert run_gwa(w.graph, m, identity()) == (set(), False)


def test_comb_east_automaton_at_the_identity():
    dec, fr = comb_window(4)
    s = comb_to_plane()
    gwa, k = simulator_to_gwa(s)
    blown = vertex_blowup(dec, k)
    boundary = {(p, i) for (p, i) in blown.vlabel if p in fr}
    succ, touched = run_gwa(blown, gwa.machines["E"], (identity(), 0),
                            boundary)
    assert succ == {(evaluate_word("b"), 0)}
    assert touched is False


def test_sea_east_automaton_at_the_identity():
    dec, fr = sea_window(2)
    s = sea_to_quadrant()
    gwa, k = simulator_to_gwa(s)
    blown = vertex_blowup(dec, k)
    boundary = {(p, i) for (p, i) in blown.vlabel if p in fr}
    succ, touched = run_gwa(blown, gwa.machines[("E", "NE", "NEW")],
                            (identity(), 0), boundary)
    assert succ == {(evaluate_word("aB"), 0)}
    assert touched is False


def apply_simulator_gwa(window, s, frontier):
    # the walker route: blow up the window, run the unrolled walker, and
    # rename blown copies back to (point, state) pairs
    graph, frontier = _window_graph(window, frontier)
    gwa, k = simulator_to_gwa(s)
    blown = vertex_blowup(graph, k)
    boundary = {(w, i) for (w, i) in blown.vlabel if w in frontier}
    sim, incomplete = gwa_simulated_graph(blown, gwa, boundary)
    copies = _state_copies(s)

    def rename(wi):
        w, i = wi
        return (w, copies[graph.vlabel[w]][i])

    return (rename_vertices(sim, rename),
            frozenset(rename(x) for x in incomplete))


def gwa_route_matches(dec, fr, s):
    g1, i1 = apply_simulator(dec, s, frontier=fr)
    g2, i2 = apply_simulator_gwa(dec, s, frontier=fr)
    return same_graph(g1, g2) and i1 == i2


def test_pullback_and_automaton_routes_agree():
    w = quadrant_window(5, 5)
    assert gwa_route_matches(w, patch_frontier(w),
                             builtin_simulator("quadrant_to_plane"))
    dec, fr = comb_window(5)
    assert gwa_route_matches(dec, fr, builtin_simulator("comb_to_plane"))
    dec, fr = sea_window(2)
    assert gwa_route_matches(dec, fr, builtin_simulator("sea_to_quadrant"))
    w = plane_window(0, 7, 0, 7)
    dec = relabel_graph(
        w, lambda p: "good" if p[0] % 3 == 0 and p[1] % 2 == 0 else "bad",
        ("bad", "good"))
    assert gwa_route_matches(dec, patch_frontier(w),
                             builtin_simulator("rectangle_compress"))


def roundtrip_matches(dec, fr, s):
    # send the simulator through its automaton form and back, then apply
    # the result to the blown-up window; renaming copies back to states
    # must reproduce the direct simulation, flags included
    g1, i1 = apply_simulator(dec, s, frontier=fr)
    gwa, k = simulator_to_gwa(s)
    s2 = gwa_to_simulator(gwa)
    blown = vertex_blowup(dec, k)
    bfr = {(p, i) for (p, i) in blown.vlabel if p in fr}
    g2, i2 = apply_simulator(blown, s2, frontier=bfr)
    copies = _state_copies(s)

    def back(v):
        (p, i) = v[0]
        return (p, copies[dec.vlabel[p]][i])

    ren = rename_vertices(g2, back)
    return same_graph(ren, g1) and {back(v) for v in i2} == set(i1)


def test_gwa_round_trip_preserves_the_simulated_graph():
    w = quadrant_window(5, 5)
    assert roundtrip_matches(w, patch_frontier(w),
                             builtin_simulator("quadrant_to_plane"))
    dec, fr = comb_window(5)
    assert roundtrip_matches(dec, fr, builtin_simulator("comb_to_plane"))
    dec, fr = sea_window(2)
    assert roundtrip_matches(dec, fr, builtin_simulator("sea_to_quadrant"))
    w = plane_window(0, 7, 0, 7)
    dec = relabel_graph(
        w, lambda p: "good" if p[0] % 3 == 0 and p[1] % 2 == 0 else "bad",
        ("bad", "good"))
    assert roundtrip_matches(dec, patch_frontier(w),
                             builtin_simulator("rectangle_compress"))


def test_blowup_simulator_yields_single_step_automata():
    s = blowup_simulator(cayley_label_graph(), {1: 2})
    gwa, k = simulator_to_gwa(s)
    assert k == {1: 2}
    for m in gwa.machines.values():
        assert m.transitions
        for (q, _, q2) in m.transitions:
            assert q in m.initial and q2 in m.final


def test_single_step_walkers_round_trip_without_transit_states():
    s = blowup_simulator(cayley_label_graph(), {1: 2})
    s2 = gwa_to_simulator(simulator_to_gwa(s)[0])
    assert {(lab[0], lab[2]) for lab in s2.graph.elabel.values()} == {(0, 0)}
    assert all(lab[0] == "v" for lab in s2.graph.vlabel.values())


def test_gwa_validation():
    a = cayley_label_graph()
    b = plane_label_graph()
    m = GwaAutomaton({"i", "f"}, {"i"}, {"f"}, set())
    machines = {e: m for e in b.edges}
    with pytest.raises(ValueError):
        Gwa({}, machines, a, b)  # lam not total
    with pytest.raises(ValueError):
        Gwa({1: "nope"}, machines, a, b)  # bad image
    with pytest.raises(ValueError):
        GwaAutomaton({"x"}, {"x"}, {"x"}, set())  # initial meets final
    with pytest.raises(ValueError):
        Gwa({1: 1}, {e: GwaAutomaton({"i", "f"}, {"i"}, {"f"},
                                     {("i", "zzz", "f")})
             for e in b.edges}, a, b)  # unknown letter


def test_gwa_simulated_graph_marks_boundary_vertices_no_machine_leaves():
    # y has no out-edge in the target, so no machine runs from a vertex
    # over it; on the boundary that vertex is still incomplete
    b = alphabet(["x", "y"], {"e": ("x", "y")})
    g = labelled(b, {"u": "x", "v": "y"}, {"uv": ("u", "v")}, {"uv": "e"})
    m = GwaAutomaton({"i", "f"}, {"i"}, {"f"}, {("i", "e", "f")})
    gwa = Gwa({"x": "x", "y": "y"}, {"e": m}, b, b)
    out, inc = gwa_simulated_graph(g, gwa, {"v"})
    assert edge_triples(out) == {("u", "e", "v")}
    assert inc == {"v"}
    assert gwa_simulated_graph(g, gwa, {"u"})[1] == {"u"}


def test_gwa_simulated_graph_reads_a_window_as_run_gwa_does():
    # A Window's boundary defaults to its boundary vertices, a bare graph's
    # to none.
    w, gwa = ball(2), a_step_gwa()
    want = gwa_simulated_graph(w.graph, gwa, boundary_vertices(w))
    assert want[1]
    assert gwa_simulated_graph(w, gwa) == want
    assert gwa_simulated_graph(w.graph, gwa) == gwa_simulated_graph(
        w.graph, gwa, ())
    assert not gwa_simulated_graph(w.graph, gwa)[1]


# -- composition


def test_composing_with_the_identity_changes_nothing():
    s = builtin_simulator("quadrant_to_plane")
    w = quadrant_window(4, 4)
    fr = patch_frontier(w)
    g0, i0 = apply_simulator(w, s, frontier=fr)
    before = compose_simulators(identity_simulator(s.source_alphabet()), s)
    after = compose_simulators(s, identity_simulator(s.target_alphabet()))
    assert before.num_states() == after.num_states() == s.num_states()
    gl, il = apply_simulator(w, before, frontier=fr)
    renl = rename_vertices(gl, lambda v: (v[0], v[1][1][1]))
    assert same_graph(renl, g0)
    assert {(v[0], v[1][1][1]) for v in il} == set(i0)
    gr, ir = apply_simulator(w, after, frontier=fr)
    renr = rename_vertices(gr, lambda v: (v[0], v[1][0]))
    assert same_graph(renr, g0)
    assert {(v[0], v[1][0]) for v in ir} == set(i0)


def test_compose_rejects_mismatched_alphabets():
    s = builtin_simulator("quadrant_to_plane")
    with pytest.raises(ValueError):
        compose_simulators(s, s)


def test_sea_then_quadrant_composes_to_one_pass():
    s = builtin_simulator("sea_to_quadrant")
    t = builtin_simulator("quadrant_to_plane")
    u = compose_simulators(s, t)
    assert u.num_states() == 297
    dec, fr = sea_window(2)
    g1, i1 = apply_simulator(dec, s, frontier=fr)
    g2, i2 = apply_simulator(g1, t, frontier=i1)
    g3, i3 = apply_simulator(dec, u, frontier=fr)

    def phi(v):
        return (v[0][0], (v[0][1], ("v", v[1])))

    ren = rename_vertices(g2, phi)
    assert same_graph(ren, g3)
    assert {phi(v) for v in i2} == set(i3)


def test_random_composition_is_associative():
    rng = random.Random(7)
    a, b = cayley_label_graph(), plane_label_graph()
    r1 = random_simulator(rng, a, b)
    r2 = random_simulator(rng, b, a)
    r3 = random_simulator(rng, a, b)
    left = compose_simulators(compose_simulators(r1, r2), r3)
    right = compose_simulators(r1, compose_simulators(r2, r3))
    w = ball(3)
    gl, il = apply_simulator(w, left)
    gr, ir = apply_simulator(w, right)
    assert gl.edges and gr.edges

    def phi(v):
        pt, ((s1, x2), x3) = v
        return (pt, (s1, ("v", (x2[1], x3))))

    ren = rename_vertices(gl, phi)
    assert same_graph(ren, gr)
    assert {phi(v) for v in il} == set(ir)


def test_random_pairs_compose_like_two_passes():
    for seed in (3, 11):
        rng = random.Random(seed)
        a, b = cayley_label_graph(), plane_label_graph()
        s = random_simulator(rng, a, b)
        t = random_simulator(rng, b, a)
        w = ball(3)
        g1, i1 = apply_simulator(w, s)
        g2, i2 = apply_simulator(g1, t, frontier=i1)
        g3, i3 = apply_simulator(w, compose_simulators(s, t))

        def phi(v):
            return (v[0][0], (v[0][1], ("v", v[1])))

        ren = rename_vertices(g2, phi)
        assert same_graph(ren, g3)
        # staging is at least as cautious as the one-shot composite: the
        # first pass flags vertices for edges the second pass never reads
        assert set(i3) <= {phi(v) for v in i2}
        trusted = [v for v in g2.vlabel if v not in i2]
        sub2 = rename_vertices(induced_subgraph(g2, trusted), phi)
        sub3 = induced_subgraph(g3, [phi(v) for v in trusted])
        assert same_graph(sub2, sub3)


def halving_simulator(x, c):
    """An oriented simulator that draws each c-edge along two x-edges,
    through a transit state over the c midpoint."""
    a, b = rose([x]), rose([c])
    g = LabelGraph({"q": ("v", 1), "m": ("e", c)},
                   {0: ("q", "m"), 1: ("m", "q")},
                   {0: (0, c, 1), 1: (1, c, 0)}, None, path_subdivision(b))
    return Simulator(g, Morphism({"q": 1, "m": 1}, {0: x, 1: x}, g, a))


def test_oriented_simulators_compose_like_two_passes():
    # While both are in transit, a composite state sits over a midpoint of
    # the oriented final target, which has no reversal to pick an orbit
    # representative from.
    s, t = halving_simulator("y", "x"), halving_simulator("x", "c")
    u = compose_simulators(s, t)
    assert u.graph.reversal is None
    assert sorted(set(u.graph.vlabel.values())) == [("e", "c"), ("v", 1)]
    w = labelled(rose(["y"]), dict.fromkeys(range(8), 1),
                 {i: (i, (i + 1) % 8) for i in range(8)},
                 dict.fromkeys(range(8), "y"))
    g1, i1 = apply_simulator(w, s)
    g2, i2 = apply_simulator(g1, t, frontier=i1)
    g3, i3 = apply_simulator(w, u)

    def phi(v):
        return (v[0][0], (v[0][1], ("v", v[1])))

    # each c-edge spans four y-edges of the 8-cycle
    assert {(t[0], h[0]) for t, _, h in edge_triples(g3)} == {
        (i, (i + 4) % 8) for i in range(8)}
    assert same_graph(rename_vertices(g2, phi), g3)
    assert {phi(v) for v in i2} == set(i3)


# -- grid patches and frontiers


def test_patch_frontier_on_grid_windows():
    w = quadrant_window(3, 3)
    fr = patch_frontier(w)
    assert (0, 0) not in fr and (0, 1) not in fr
    assert fr == {(x, y) for (x, y) in w.vlabel if 2 in (x, y)}
    w = plane_window(0, 2, 0, 2)
    assert patch_frontier(w) == set(w.vlabel) - {(1, 1)}


def test_quadrant_patch_matches_the_window():
    square = {(x, y) for x in range(3) for y in range(3)}
    assert same_graph(quadrant_patch(square), quadrant_window(3, 3))


def test_rename_vertices_requires_injectivity():
    g = grid_patch({(0, 0), (1, 0)})
    with pytest.raises(ValueError):
        rename_vertices(g, lambda v: "same")


# -- serialization


def test_builtin_simulators_round_trip_through_text():
    for name in ("quadrant_to_plane", "comb_to_plane", "sea_to_quadrant",
                 "rectangle_compress"):
        s = builtin_simulator(name)
        s2 = simulator_from_text(simulator_to_text(s))
        assert s2.graph == s.graph
        assert s2.alpha == s.alpha


def test_random_simulator_round_trips_through_text():
    rng = random.Random(5)
    s = random_simulator(rng, cayley_label_graph(), plane_label_graph())
    s2 = simulator_from_text(simulator_to_text(s))
    assert s2.graph == s.graph and s2.alpha == s.alpha


def test_simulator_round_trips_with_hash_in_symbols():
    s = identity_simulator(alphabet_label_graph(("c#", "d"),
                                                cayley_label_graph()))
    s2 = simulator_from_text(simulator_to_text(s))
    assert s2.graph == s.graph and s2.alpha == s.alpha


def test_dl_simulators_round_trip_through_text():
    # the dl p q alphabet lines, bare and with decoration symbols
    for a, line in ((dl_label_graph(2, 3), "alpha dl 2 3"),
                    (alphabet_label_graph((0, "x#"), dl_label_graph(3, 2)),
                     "alpha dl 3 2")):
        s = identity_simulator(a)
        text = simulator_to_text(s)
        assert line in text.splitlines()
        s2 = simulator_from_text(text)
        assert s2.graph == s.graph and s2.alpha == s.alpha


@pytest.mark.parametrize("line", ["alpha", "alpha dl 2"])
def test_simulator_text_short_alphabet_lines_name_the_line(line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        simulator_from_text("simulator\n" + line + "\nbeta plane\n")


@pytest.mark.parametrize("extra", [
    "vertex '(0, 0)' NE \"('v', 1)\"", "vertex '(0, 0)' NESW \"('v', 1)\"",
    "edge", "alpha quadrant", "alpha plane", "beta plane"],
    ids=["vertex", "conflicting-vertex", "edge", "alpha", "other-alpha",
         "beta"])
def test_simulator_text_repeated_lines_name_the_line(extra):
    text = simulator_to_text(quadrant_to_plane())
    if extra == "edge":
        extra = next(x for x in text.splitlines() if x.startswith("edge "))
    with pytest.raises(ValueError, match="^bad simulator line "
                       + re.escape(repr(extra))):
        simulator_from_text(text + extra + "\n")


def test_simulator_text_repeated_symbol_names_the_line():
    # One more repeated line; the text of the parametrized test above has
    # no symbol lines, so the case needs a decorated alphabet of its own.
    s = identity_simulator(alphabet_label_graph(("c", "d"),
                                                cayley_label_graph()))
    lines = simulator_to_text(s).splitlines()
    i = next(i for i, x in enumerate(lines) if x.startswith("symbol "))
    lines.insert(i + 1, lines[i])
    with pytest.raises(ValueError, match="^bad simulator line "
                       + re.escape(repr(lines[i]) + ": repeated symbol")):
        simulator_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("text, line, message", [
    ("simulator\nsymbol c\nalpha plane\nbeta plane\n", "symbol c",
     "symbol line before alpha/beta"),
    ("simulator\nalpha plane\nbeta plane\nedge e 0 0 N N ver f\n",
     "edge e 0 0 N N ver f", "expected 'rev'"),
    ("simulator\nalpha plane\n", None, "missing alphabet description")],
    ids=["symbol-first", "no-rev-keyword", "no-beta"])
def test_simulator_text_errors(text, line, message):
    if line is not None:
        message = "bad simulator line %r: %s" % (line, message)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        simulator_from_text(text)


def test_simulator_text_needs_a_known_alphabet():
    with pytest.raises(ValueError, match="^alphabet has no serializable "
                       "description$"):
        simulator_to_text(identity_simulator(rose(["x"])))


def test_simulator_text_rejects_garbage():
    with pytest.raises(ValueError):
        simulator_from_text("not a simulator\n")
    with pytest.raises(ValueError):
        simulator_from_text("simulator\nvertex 1 2\n")
    with pytest.raises(ValueError):
        simulator_from_text("simulator\nalpha martian\nbeta plane\n")


def test_dot_export_mentions_both_labellings():
    s = builtin_simulator("quadrant_to_plane")
    dot = simulator_to_dot(s)
    assert dot.startswith("digraph simulator {")
    assert "dir=both" in dot
    assert "'NE'" in dot and "label=" in dot


def a_step_gwa():
    """A walker from the Cayley alphabet to rose(["c"]) whose c-runs are
    single a-steps."""
    m = GwaAutomaton({"i", "f"}, {"i"}, {"f"}, {("i", "a", "f")})
    return Gwa({1: 1}, {"c": m}, cayley_label_graph(), rose(["c"]))


def two_label_gwa():
    """A walker whose middle state m is entered by a p-step, which ends at
    x, and by an r-step, which ends at y, and lies on complete runs."""
    a = alphabet(["x", "y"], {"p": ("x", "x"), "r": ("x", "y"),
                              "s": ("x", "x")})
    b = alphabet([1], {"c": (1, 1)})
    m = GwaAutomaton({"i", "m", "f"}, {"i"}, {"f"},
                     {("i", "p", "m"), ("i", "r", "m"), ("m", "s", "f")})
    return Gwa({"x": 1, "y": 1}, {"c": m}, a, b)


def unlabelled_simulator():
    g = rose(["x"])
    return Simulator(g, Morphism(dict(g.vlabel), dict(g.elabel), g, g))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Simulator(
        identity_simulator(rose(["x"])).graph,
        identity_simulator(rose(["y"])).alpha),
        "alpha does not label the simulator graph", id="Simulator-alpha"),
    pytest.param(unlabelled_simulator,
                 "simulator graph carries no target labelling",
                 id="Simulator-target"),
    pytest.param(lambda: GwaAutomaton({"i"}, {"i", "x"}, set(), set()),
                 "initial or final states not among the states",
                 id="GwaAutomaton-ends"),
    pytest.param(lambda: GwaAutomaton({"i", "f"}, {"i"}, {"f"},
                                      {("i", "a", "z")}),
                 "transition through unknown state",
                 id="GwaAutomaton-transition"),
    pytest.param(lambda: Gwa({1: 1}, {}, cayley_label_graph(),
                             plane_label_graph()),
                 "need exactly one machine per target edge", id="Gwa"),
    pytest.param(lambda: gwa_simulated_graph(plane_window(0, 1, 0, 1),
                                             a_step_gwa()),
                 "graph labels do not match the walker source",
                 id="gwa_simulated_graph"),
    pytest.param(lambda: gwa_to_simulator(two_label_gwa()),
                 "machine state 'm' would need two source labels",
                 id="gwa_to_simulator"),
    pytest.param(lambda: random_simulator(
        random.Random(0), quadrant_label_graph(), plane_label_graph()),
        "random simulators use one-vertex alphabets", id="random_simulator"),
    pytest.param(lambda: simulator_from_text("alpha plane\nbeta plane\n"),
                 "expected a simulator header", id="simulator_from_text"),
])
def test_guards_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_builders_key_edges_and_labels_by_one_id_object():
    # The invariant _edge_labels reads labels by position on: a builder
    # builds each edge id once and keys both edges and elabel by it.
    dec, _ = comb_window(2)
    g = ball(1).graph
    s = quadrant_to_plane()
    q = quadrant_window(3, 3)
    x = labelled(rose(["x"]), {0: 1, 1: 1}, {0: (0, 1)}, {0: "x"})
    built = {
        "apply_simulator": apply_simulator(dec, comb_to_plane())[0],
        "path_subdivision": path_subdivision(g),
        "alpha_pullback": alpha_pullback(q, s.graph, s.alpha),
        "vertex_blowup": vertex_blowup(g, {1: 2}),
        "simplify": simplify(g),
        "flat": flat(alpha_pullback(q, s.graph, s.alpha)),
        "sharp": sharp(g),
        "exponential": exponential(x, x),
        "disjoint_union": disjoint_union(g, g),
        "gwa_simulated_graph": gwa_simulated_graph(g, a_step_gwa())[0],
        "sft_to_dhs": sft_to_dhs(("a",), 1, (0, 1), itertools.product(
            (0, 1), repeat=2)).graph,
    }
    assert all(out.edges for out in built.values())
    assert [name for name, out in built.items()
            if len(out.elabel) != len(out.edges)
            or not all(map(operator.is_, out.elabel, out.edges))] == []


def test_builders_key_reversal_by_the_edge_id_objects():
    # The unoriented builders key reversal by the edge id objects of edges,
    # in the same order, rather than by a second equal tuple per edge.
    dec, fr = sea_window(3)
    s = sea_to_quadrant()
    pulled = alpha_pullback(dec, s.graph, s.alpha)
    w = tetrahedron(-3, 3).graph
    built = {
        "path_subdivision": path_subdivision(w),
        "alpha_pullback": pulled,
        "vertex_blowup": vertex_blowup(w, {v: 2 for v in w.label_graph.vlabel}),
        "flat": flat(pulled),
        "apply_simulator": apply_simulator(dec, s, frontier=fr)[0],
    }
    assert all(out.edges for out in built.values())
    assert [name for name, out in built.items()
            if out.reversal is None or len(out.reversal) != len(out.edges)
            or not all(map(operator.is_, out.reversal, out.edges))] == []
