import copy
import pickle
import random
import re

import pytest

from tilesim import tilesets
from tilesim.geometry import (
    GroupPoint, alphabet_label_graph, ball, boundary_vertices, canonical,
    cayley_label_graph, cell_points, dl_cell_points, dl_collapse_label,
    dl_label_graph, dl_step, dl_window, evaluate_word, identity,
    interior_vertices, inverse, multiply, plane_label_graph, plane_window,
    point_neighbors, quadrant_label_graph, quadrant_window, step,
    tetrahedron, window_cells, GENERATORS, Window)
from tilesim.graphs import (CapacityError, LabelGraph, add_edge_pair,
                            from_text, induced_subgraph, rose, skey,
                            to_text, validate)
from tilesim.sat import count_tilings
from tilesim.simulation import (apply_simulator, comb_to_plane,
                                decorate_window, quadrant_to_plane,
                                relabel_graph, sea_to_quadrant)
from tilesim.tilesets import (DhsTarget, _swap, comb_configuration,
                              comb_tileset, decoration_symbols,
                              dl_ray_system, omega_configuration,
                              random_wang_tileset, sea_level_system,
                              wang_to_dhs, window_scopes)


def word_oracle(word):
    # independent lamp machine: set of lit positions, marker as plain int
    lamps = set()
    pos = 0
    for ch in word:
        if ch == "a":
            pos += 1
        elif ch == "A":
            pos -= 1
        elif ch == "b":
            lamps ^= {pos}
            pos += 1
        elif ch == "B":
            lamps ^= {pos - 1}
            pos -= 1
        else:
            raise ValueError(ch)
    return (pos, frozenset(lamps))


def as_pair(pt):
    return (pt.marker, frozenset(k for k, _ in pt.digits))


def test_word_examples():
    assert evaluate_word("aA").is_identity()
    assert evaluate_word("") == identity()
    g = evaluate_word("ab")
    assert g.marker == 2
    assert g.digits == ((1, 1),)
    assert as_pair(g) == word_oracle("ab")
    assert evaluate_word("aBaB").is_identity()
    with pytest.raises(ValueError):
        evaluate_word("axb")


def test_word_whitespace_is_ignored():
    # letter runs split by whitespace read as one word; DL tokens still
    # read as moves, alone or next to letters
    assert evaluate_word("ab A") == evaluate_word("abA")
    assert evaluate_word(" a\tb\nA ") == evaluate_word("abA")
    assert evaluate_word("ab up:0:1") == evaluate_word("abb")
    with pytest.raises(ValueError, match="bad token 'ax'"):
        evaluate_word("ax b")


def test_words_match_oracle():
    rng = random.Random(7)
    for _ in range(200):
        w = "".join(rng.choice("aAbB") for _ in range(rng.randrange(9)))
        assert as_pair(evaluate_word(w)) == word_oracle(w)


def test_relations():
    for n in range(1, 6):
        w = ("a" * n + "B" * n) * 2
        assert evaluate_word(w).is_identity()


def test_multiply_examples():
    g = evaluate_word("abA")
    assert multiply(g, identity()) == g
    assert multiply(identity(), g) == g
    b = evaluate_word("b")
    bb = multiply(b, b)
    assert bb.marker == 2
    assert bb.digits == ((0, 1), (1, 1))


def test_multiply_matches_concatenation():
    rng = random.Random(11)
    for _ in range(120):
        u = "".join(rng.choice("aAbB") for _ in range(rng.randrange(9)))
        v = "".join(rng.choice("aAbB") for _ in range(rng.randrange(9)))
        assert multiply(evaluate_word(u), evaluate_word(v)) == \
            evaluate_word(u + v)


def test_group_laws():
    rng = random.Random(13)
    pts = [evaluate_word("".join(rng.choice("aAbB") for _ in range(6)))
           for _ in range(12)]
    for x in pts:
        assert multiply(x, inverse(x)).is_identity()
        assert multiply(inverse(x), x).is_identity()
    for _ in range(40):
        x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_multiply_param_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2, 2), identity(2, 3))


def test_canonical_forms():
    assert canonical(identity()) == "(0;)"
    assert canonical(evaluate_word("ab")) == "(2; 1)"
    assert canonical(evaluate_word("bb")) == "(2; 0, 1)"
    assert canonical(evaluate_word("BB")) == "(-2; -2, -1)"
    assert canonical(GroupPoint(1, ((0, 2),), 2, 3)) == "(1; 0:2)"


def test_ball_sizes():
    assert ball(0).graph.num_vertices() == 1
    assert ball(1).graph.num_vertices() == 5
    # oracle for radius 2: evaluate every word of length at most 2
    words = [""]
    for w in ["", "a", "A", "b", "B"]:
        for g in "aAbB":
            words.append(w + g)
    reach = {word_oracle(w) for w in words}
    w2 = ball(2)
    assert {as_pair(pt) for pt in w2.points()} == reach
    with pytest.raises(CapacityError):
        ball(30, budget=100)


def test_window_edges_are_exactly_cayley_edges():
    for w in (ball(2), tetrahedron(-1, 2)):
        g = w.graph
        directed = {(g.tail(e), g.elabel[e], g.head(e)) for e in g.edges}
        assert len(directed) == g.num_edges()
        expected = set()
        for pt in g.vlabel:
            for gen in GENERATORS:
                im = step(pt, gen)
                if im in g.vlabel:
                    expected.add((pt, gen, im))
        assert directed == expected


def test_height_changes_by_one():
    g = ball(2).graph
    for e in g.edges:
        d = g.head(e).marker - g.tail(e).marker
        assert d == (1 if g.elabel[e] in ("a", "b") else -1)


def test_tetrahedron_counts():
    for h in range(5):
        assert tetrahedron(0, h).graph.num_vertices() == (h + 1) * 2 ** h
    assert tetrahedron(0, 0).graph.num_vertices() == 1
    assert tetrahedron(-2, 2).graph.num_vertices() == 80
    with pytest.raises(ValueError):
        tetrahedron(2, 1)


def test_tetrahedron_nesting():
    small = tetrahedron(0, 2).graph
    for big in (tetrahedron(-1, 2).graph, tetrahedron(0, 3).graph):
        assert set(small.vlabel) <= set(big.vlabel)
        inner = {(big.tail(e), big.elabel[e], big.head(e))
                 for e in big.edges
                 if big.tail(e) in small.vlabel and
                 big.head(e) in small.vlabel}
        ours = {(small.tail(e), small.elabel[e], small.head(e))
                for e in small.edges}
        assert ours == inner


def test_interior_matches_walk_oracle():
    w = ball(2)
    for d in (1, 2):
        walks = [""]
        for _ in range(d):
            walks += [s + g for s in walks for g in "aAbB"]
        oracle = {pt for pt in w.points()
                  if all(as_pair(multiply(pt, evaluate_word(s))) in
                         {as_pair(x) for x in w.points()} for s in walks)}
        assert interior_vertices(w, d) == oracle


def neighbour_boundary(w):
    # points with a Cayley/DL neighbour, taken by group steps, outside
    return {pt for pt in w.graph.vlabel
            if any(im not in w.graph.vlabel
                   for im in point_neighbors(pt, w.mode))}


def rounds_interior(w, d):
    # the round-by-round definition: each round drops the boundary and every
    # point with a Cayley/DL neighbour in the window dropped in an earlier
    # round, neighbours taken by group steps
    current = set(w.graph.vlabel)
    for _ in range(d):
        bad = neighbour_boundary(w)
        current = {pt for pt in current
                   if pt not in bad
                   and all(im in current
                           for im in point_neighbors(pt, w.mode)
                           if im in w.graph.vlabel)}
    return current


def test_interior_matches_round_definition():
    windows = [ball(0), ball(1), ball(3), ball(5), tetrahedron(-3, 3),
               tetrahedron(0, 2), dl_window(2, 3, -2, 2),
               dl_window(3, 3, -2, 2), dl_window(3, 2, -1, 2)]
    for w in windows:
        for d in range(5):
            assert interior_vertices(w, d) == rounds_interior(w, d)


def test_boundary_matches_neighbour_definition():
    windows = [ball(0), ball(3), ball(5), tetrahedron(-3, 3),
               tetrahedron(0, 2), dl_window(2, 3, -2, 2),
               dl_window(3, 3, -2, 2), dl_window(3, 2, -1, 2)]
    # With one middle point cut out, its neighbours each miss just one
    # neighbour, which no tetrahedron or DL window point does.
    for w in windows[3:]:
        pts = w.points()
        keep = set(pts) - {pts[len(pts) // 2]}
        windows.append(Window(induced_subgraph(w.graph, keep)))
    for w in windows:
        assert boundary_vertices(w) == neighbour_boundary(w)


def test_tetrahedron_interior_and_boundary():
    w = tetrahedron(-3, 3)
    inner = interior_vertices(w, 2)
    assert len(inner) == 3 * 2 ** 6
    assert all(-1 <= pt.marker <= 1 for pt in inner)
    assert boundary_vertices(w) == {pt for pt in w.points()
                                    if pt.marker in (-3, 3)}


def test_cells():
    base = identity()
    cell = cell_points(base)
    assert len(set(cell)) == 4
    g, gab, ga, gb = cell
    assert gab == GroupPoint(0, ((0, 1),))
    assert (ga, gb) == (evaluate_word("a"), evaluate_word("b"))
    assert window_cells(tetrahedron(0, 1)) == [identity()]
    assert len(window_cells(tetrahedron(-3, 3))) == 6 * 2 ** 5


def test_cell_points_follow_the_paper_formula():
    # (g, g aB, g a, g b) at every base, which is the DL(2,2) cell there
    w = tetrahedron(-3, 3)
    bases = window_cells(w)
    assert len(bases) == 6 * 2 ** 5
    for g in bases:
        cell = tuple(multiply(g, evaluate_word(word))
                     for word in ("", "aB", "a", "b"))
        assert cell_points(g) == cell
        lower, upper = dl_cell_points(g)
        assert lower + upper == cell
    # a point whose marker lamp is lit reads its base's cell swapped
    base = GroupPoint(1, ((-1, 1),))
    lit = GroupPoint(1, ((-1, 1), (1, 1)))
    assert base in bases and lit in w
    assert cell_points(lit) == _swap(cell_points(base))


def test_dl_window_cells_count():
    assert len(window_cells(dl_window(3, 3, -2, 2))) == 108


def test_dl_window_counts():
    # DL(2,2) has the same window as the lamplighter tetrahedron
    for lo, hi in ((0, 2), (-1, 1)):
        dl = dl_window(2, 2, lo, hi)
        tet = tetrahedron(lo, hi)
        assert set(dl.graph.vlabel) == set(tet.graph.vlabel)
    # oracle for DL(2,3): enumerate digit strings directly
    count = 0
    for n in range(3):
        per = 1
        for k in range(2):
            per *= 3 if k < n else 2
        count += per
    assert count == 19
    assert dl_window(2, 3, 0, 2).graph.num_vertices() == 19
    assert dl_window(2, 3, 0, 3).graph.num_vertices() == 65
    with pytest.raises(ValueError):
        dl_window(1, 3, 0, 2)


def test_dl_collapse_matches_lamplighter():
    dl = dl_window(2, 2, 0, 2).graph
    tet = tetrahedron(0, 2).graph
    collapsed = {(dl.tail(e), dl_collapse_label(dl.elabel[e]), dl.head(e))
                 for e in dl.edges}
    cayley = {(tet.tail(e), tet.elabel[e], tet.head(e)) for e in tet.edges}
    assert collapsed == cayley


def test_dl_step_and_labels():
    g = dl_window(2, 3, 0, 1).graph
    origin = GroupPoint(0, (), 2, 3)
    ups = {g.elabel[e]: g.head(e) for e in g.edges if g.tail(e) == origin}
    assert set(ups) == {("up", 0, j) for j in range(3)}
    assert ups[("up", 0, 2)] == GroupPoint(1, ((0, 2),), 2, 3)
    other = GroupPoint(0, ((0, 1),), 2, 3)
    assert {g.elabel[e][1] for e in g.edges if g.tail(e) == other
            and g.elabel[e][0] == "up"} == {1}
    with pytest.raises(ValueError):
        dl_step(origin, "up", 1, 0)
    assert evaluate_word("up:0:2 dn:1:2", 2, 3) == GroupPoint(0, ((0, 1),),
                                                              2, 3)


def test_dl_cells():
    w = dl_window(2, 3, 0, 2)
    bases = window_cells(w)
    assert len(bases) == 5
    for base in bases:
        lower, upper = dl_cell_points(base)
        assert len(set(lower)) == 2 and len(set(upper)) == 3
        members = set(lower) | set(upper)
        between = [e for e in w.graph.edges
                   if w.graph.tail(e) in members and
                   w.graph.head(e) in members and
                   w.graph.elabel[e][0] == "up"]
        assert len(between) == 6


def test_dl_neighbors_degree():
    w = dl_window(2, 3, 0, 2)
    pt = GroupPoint(1, ((0, 2),), 2, 3)
    nbrs = point_neighbors(pt, "dl")
    assert len(nbrs) == 5
    assert len(set(nbrs)) == 5


def test_grid_windows():
    pw = plane_window(0, 2, 0, 1)
    validate(pw)
    assert pw.num_vertices() == 6
    assert pw.num_edges() == 14
    qw = quadrant_window(3, 2)
    validate(qw)
    assert qw.vlabel[(0, 0)] == "NE"
    assert qw.vlabel[(1, 0)] == "NEW"
    assert qw.vlabel[(0, 1)] == "NES"
    assert qw.vlabel[(2, 1)] == "NESW"
    lab = qw.elabel[((0, 0), "E")]
    assert lab == ("E", "NE", "NEW")


def test_alphabet_label_graph():
    a = alphabet_label_graph(["X", "Y"], cayley_label_graph())
    validate(a)
    assert a.num_vertices() == 2
    assert a.num_edges() == 16
    assert a.reversal[("X", "a", "Y")] == ("Y", "A", "X")


def test_group_point_hash_is_structural():
    x = evaluate_word("abAb")
    same = [multiply(evaluate_word("ab"), evaluate_word("Ab")),
            step(step(step(step(identity(), "a"), "b"), "A"), "b"),
            GroupPoint(x.marker, x.digits)]
    for y in same:
        assert y == x
        assert hash(y) == hash(x) == hash((x.marker, x.digits, 2, 2))
    assert len({x, *same}) == 1
    d = evaluate_word("up:0:1 up:0:1 dn:2:1", 3, 2)
    assert hash(d) == hash((d.marker, d.digits, 3, 2))


def test_group_point_copies_keep_equality_and_hash():
    for word in ("", "bab", "BBa"):
        fresh = evaluate_word(word)
        hashed = evaluate_word(word)
        hash(hashed)
        for x in (fresh, hashed):
            for y in (copy.copy(x), copy.deepcopy(x),
                      pickle.loads(pickle.dumps(x))):
                assert y == x
                assert hash(y) == hash(x) == hash(evaluate_word(word))


@pytest.mark.parametrize("build, message, what, size, budget", [
    (lambda: ball(0, budget=0), "window exceeds 0 vertices",
     "window vertices", 1, 0),
    (lambda: ball(30, budget=100), "ball exceeds 100 vertices",
     "ball vertices", 208, 100),
    (lambda: tetrahedron(0, 3, budget=10), "tetrahedron exceeds 10 vertices",
     "tetrahedron vertices", 32, 10),
    (lambda: dl_window(2, 2, 0, 2, budget=3), "window exceeds 3 vertices",
     "window vertices", 12, 3),
], ids=["cayley_window", "ball", "tetrahedron", "dl_window"])
def test_window_capacity_errors_carry_numbers(build, message, what, size,
                                              budget):
    with pytest.raises(CapacityError) as err:
        build()
    assert str(err.value) == message
    assert (err.value.what, err.value.size, err.value.budget) == (
        what, size, budget)


# -- reading windows off their (tail, label) edge ids -----------------------


def reference_complete_cells(window):
    """_complete_cells as it read before it walked the window's edges:
    dl_cell_points of every base, kept when all its points are inside."""
    vlabel = window.graph.vlabel
    out = []
    for pt in vlabel:
        if pt.digit(pt.marker) != 0:
            continue
        lower, upper = dl_cell_points(pt)
        if all(x in vlabel for x in lower + upper):
            out.append((pt, lower, upper))
    return sorted(out, key=lambda cell: repr(cell[0]))


def form_cells(window):
    """The cells of the window's numbered form read back as points, as
    (base, lower, upper)."""
    pts = window.points()
    return [(pts[cell[0]], tuple([pts[i] for i in cell[:window.p]]),
             tuple([pts[i] for i in cell[window.p:]]))
            for cell in window._cells]


def reference_wang_scopes(ts, window):
    """Wang edge scopes as they were read before, from edge_ids(), which
    sorts every edge id by repr."""
    out = []
    pair_cache = {}
    for e in sorted(window.graph.edges, key=skey):
        lab = window.graph.elabel[e]
        if lab not in ("a", "b"):
            continue
        if lab not in pair_cache:
            i, j = {"a": (0, 2), "b": (1, 3)}[lab]
            pair_cache[lab] = frozenset(
                (s, t) for s in range(len(ts.tiles))
                for t in range(len(ts.tiles))
                if ts.tiles[s][i] == ts.tiles[t][j])
        out.append((window.graph.edges[e], pair_cache[lab]))
    return out


def reference_dhs_scopes(ts, window):
    """Hom-shift edge scopes as they were read before, from edge_ids()."""
    g = ts.graph
    order = {v: i for i, v in enumerate(g.vertices())}
    by_label = {}
    for e in g.edge_ids():
        by_label.setdefault(g.elabel[e], set()).add(
            (order[g.tail(e)], order[g.head(e)]))
    w = window.graph
    out = []
    done = set()
    for e in sorted(w.edges, key=skey):
        if e in done:
            continue
        if w.reversal is not None:
            done.add(w.reversal[e])
        pairs = by_label.get(w.elabel[e], set())
        out.append((w.edges[e], frozenset(pairs)))
    return out


def random_dl_target(rng, p, q):
    """A random three-vertex hom-shift target over DL(p,q)'s alphabet."""
    edges, elabel, rev = {}, {}, {}
    for i in range(p):
        for j in range(q):
            for k in range(rng.randrange(1, 5)):
                s, t = rng.randrange(3), rng.randrange(3)
                if ((i, j), "up", s, t) not in edges:
                    add_edge_pair(edges, elabel, rev, ((i, j), "up", s, t),
                                  ((i, j), "dn", t, s), s, t, ("up", i, j),
                                  ("dn", i, j))
    graph = LabelGraph({v: 1 for v in range(3)}, edges, elabel, rev,
                       dl_label_graph(p, q))
    return DhsTarget(graph)


def edge_id_windows():
    rng = random.Random(15)
    windows = [ball(0), ball(3), tetrahedron(0, 0), tetrahedron(-2, 2),
               tetrahedron(0, 3)]
    windows += [dl_window(p, q, lo, hi) for p, q in
                ((2, 2), (2, 3), (3, 2), (3, 3)) for lo, hi in
                ((0, 1), (-1, 2))]
    for w in windows[:]:
        pts = w.points()
        for _ in range(2):
            keep = rng.sample(pts, rng.randrange(len(pts) + 1))
            windows.append(Window(induced_subgraph(w.graph, keep)))
    return windows


def test_window_edge_ids_are_tail_and_label():
    for w in edge_id_windows():
        g = w.graph
        for e, (t, h) in g.edges.items():
            lab = g.elabel[e]
            assert e == (t, lab)
            assert g.edges[(t, lab)] == (t, h)
            assert g.reversal[e] == (h, g.label_graph.reversal[lab])


def test_cells_and_scopes_read_off_edge_ids_match_the_references():
    rng = random.Random(16)
    comb = comb_tileset()
    for w in edge_id_windows():
        cells = form_cells(w)
        assert cells == reference_complete_cells(w)
        assert window_cells(w) == [base for base, _, _ in cells]
        if w.mode == "cayley":
            for ts in (comb, random_wang_tileset(rng, 2, 5)):
                assert (window_scopes(ts, w) ==
                        reference_wang_scopes(ts, w))
            target = wang_to_dhs(comb)
        else:
            target = random_dl_target(rng, w.p, w.q)
        assert window_scopes(target, w) == reference_dhs_scopes(target, w)
    # the readings see complete cells and edges, not only empty lists
    assert len(form_cells(tetrahedron(-2, 2))) == 4 * 2 ** 3
    assert len(form_cells(dl_window(3, 3, -1, 2))) == 27


def test_numbered_window_form_matches_the_definitions():
    # Every layer reads the form a window numbers once; it must say what
    # the definitions say, on whole and on induced windows of every kind.
    # The test above compares its cells and its Wang and hom-shift scopes.
    for w in edge_id_windows():
        g = w.graph
        pts = w.points()
        assert type(pts) is tuple and list(pts) == g.vertices()
        assert w._index == {pt: i for i, pt in enumerate(pts)}
        assert list(w._heads) == sorted(g.label_graph.edges, key=skey)
        for lab, row in w._heads.items():
            assert row == [w._index[g.edges[(pt, lab)][1]]
                           if (pt, lab) in g.edges else -1 for pt in pts]
        assert [(lab, (pts[t], pts[h])) for lab, (t, h) in
                tilesets._window_edges(w, w._heads)] == [
            (g.elabel[e], g.edges[e]) for e in sorted(g.edges, key=skey)]
        cells = (sea_level_system() if w.mode == "cayley"
                 else dl_ray_system(w.p, w.q))
        assert [scope for scope, _ in window_scopes(cells, w)] == [
            lower + upper for _, lower, upper in reference_complete_cells(w)]
        assert boundary_vertices(w) == neighbour_boundary(w)
        for d in range(4):
            assert interior_vertices(w, d) == rounds_interior(w, d)


# -- window geometry read off the alphabet --------------------------------------


def test_window_reads_mode_p_and_q_off_its_alphabet():
    # Each builder's window has the geometry it was built with, and so do
    # its induced subwindows, the empty one included.
    rng = random.Random(18)
    cases = [(ball(2), ("cayley", 2, 2)),
             (tetrahedron(-2, 2), ("cayley", 2, 2))]
    cases += [(dl_window(p, q, -1, 1), ("dl", p, q))
              for p, q in ((2, 2), (2, 3), (3, 2), (3, 3))]
    for w, want in cases:
        pts = w.points()
        subs = [Window(induced_subgraph(w.graph, rng.sample(
            pts, rng.randrange(len(pts) + 1)))) for _ in range(3)]
        subs.append(Window(induced_subgraph(w.graph, ())))
        for v in [w, Window(w.graph)] + subs:
            assert (v.mode, v.p, v.q) == want


def test_window_over_another_alphabet_raises():
    small = ball(1)
    comb = comb_tileset()
    decorated = decorate_window(small, comb, {pt: 4 for pt in small.points()})
    # dl_window and DL systems need p, q >= 2
    thin = LabelGraph({GroupPoint(0, (), 1, 2): 1}, {}, {}, {},
                      dl_label_graph(1, 2))
    for g in (plane_window(0, 2, 0, 2), quadrant_window(2, 2), decorated,
              cayley_label_graph(), dl_label_graph(2, 3), thin):
        with pytest.raises(ValueError, match="alphabet"):
            Window(g)


def test_dl_window_geometry_comes_from_its_own_alphabet():
    # DL(2,2) scopes on a DL(3,3) graph would read 4-point cells of a graph
    # whose cells have 6 points.
    w = Window(dl_window(3, 3, -1, 1).graph)
    assert (w.mode, w.p, w.q) == ("dl", 3, 3)
    assert w._cells and all(len(cell) == 6 for cell in w._cells)
    for ts in (dl_ray_system(2, 2), dl_ray_system(3, 2), comb_tileset(),
               sea_level_system()):
        with pytest.raises(ValueError, match=re.escape(repr(("dl", 3, 3)))):
            window_scopes(ts, w)
    with pytest.raises(ValueError):
        count_tilings(w, dl_ray_system(2, 2))
    assert count_tilings(w, dl_ray_system(3, 3)) > 0


# -- builders that skip validate ------------------------------------------------


def test_trusted_builders_meet_the_axioms():
    # _induced_graph (ball, tetrahedron, dl_window), alphabet_label_graph
    # and relabel_graph (decorate_window) build without validate; what they
    # build must pass it on every window kind and base alphabet, decorated
    # by Wang, cell, DL and hom-shift systems.
    rng = random.Random(16)
    comb = comb_tileset()
    cayley = [ball(2), tetrahedron(-2, 2)]
    dl = [dl_window(p, q, -1, 1)
          for p, q in ((2, 2), (2, 3), (3, 2), (3, 3))]
    systems = [(w, ts) for w in cayley
               for ts in (comb, sea_level_system(), wang_to_dhs(comb))]
    systems += [(w, ts) for w in dl
                for ts in (dl_ray_system(w.p, w.q),
                           random_dl_target(rng, w.p, w.q))]
    decorated = []
    for w, ts in systems:
        n = len(decoration_symbols(ts))
        decorated.append(decorate_window(
            w, ts, {pt: rng.randrange(n) for pt in w.points()}))
    symbols = ("x", 0, (1, "y"))
    grids = [plane_window(0, 2, 0, 2), quadrant_window(3, 2)]
    for g in grids:
        decorated.append(relabel_graph(g, lambda v: rng.choice(symbols),
                                       symbols))
    # apply_simulator builds its output without validate as well
    sea = sea_level_system()
    w = tetrahedron(-2, 2)
    decorated.append(apply_simulator(decorate_window(
        w, sea, {pt: sea.alphabet.index(omega_configuration(pt))
                 for pt in w.points()}), sea_to_quadrant())[0])
    w = ball(2)
    decorated.append(apply_simulator(decorate_window(
        w, comb, {pt: comb_configuration(pt) for pt in w.points()}),
        comb_to_plane())[0])
    decorated.append(apply_simulator(quadrant_window(3, 2),
                                     quadrant_to_plane())[0])
    assert all(g.edges for g in decorated[-3:])
    bases = [w.graph.label_graph for w in cayley + dl]
    bases += [g.label_graph for g in grids]
    assert bases[:2] == [cayley_label_graph()] * 2
    assert bases[2:] == [dl_label_graph(w.p, w.q) for w in dl] + [
        plane_label_graph(), quadrant_label_graph()]
    for w in cayley + dl:
        validate(w.graph)
    for g in decorated:
        validate(g)
        validate(g.label_graph)


def test_relabel_graph_names_the_first_vertex_with_an_unknown_symbol():
    g = ball(1).graph
    bad = set(list(g.vlabel)[1::2])
    first = next(v for v in g.vlabel if v in bad)
    with pytest.raises(ValueError) as err:
        relabel_graph(g, lambda v: "z" if v in bad else "x", ("x", "y"))
    assert str(err.value) == "vertex %r labelled by unknown %r" % (first, "z")


def test_scopes_of_an_induced_subwindow_are_scopes_of_the_window():
    # An induced subwindow keeps only scopes of the window, so a subwindow
    # with no tiling shows that the window has none.
    rng = random.Random(17)
    comb = comb_tileset()
    cases = [(w, ts) for w in (ball(2), tetrahedron(-2, 2))
             for ts in (comb, sea_level_system(), wang_to_dhs(comb))]
    cases += [(w, ts) for p, q in ((2, 2), (2, 3), (3, 2), (3, 3))
              for w in [dl_window(p, q, -1, 1)]
              for ts in (dl_ray_system(p, q), random_dl_target(rng, p, q))]
    for w, ts in cases:
        scopes = set(window_scopes(ts, w))
        pts = w.points()
        kept = 0
        for _ in range(8):
            share = rng.choice((0.5, 0.8, 0.95))
            keep = [pt for pt in pts if rng.random() < share]
            sub = Window(induced_subgraph(w.graph, keep))
            sub_scopes = window_scopes(ts, sub)
            assert set(sub_scopes) <= scopes
            kept += len(sub_scopes)
        assert kept


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: step(identity(), "x"), "unknown generator 'x'",
                 id="step"),
    pytest.param(lambda: dl_step(identity(2, 3), "dn", 0, 1),
                 "no down-edge labelled (0,1) here", id="dl_step-down"),
    pytest.param(lambda: dl_step(identity(), "across", 0, 0),
                 "direction must be 'up' or 'dn'", id="dl_step-direction"),
    pytest.param(lambda: ball(-1), "negative radius", id="ball"),
    pytest.param(lambda: dl_window(2, 2, 1, 0), "empty height range",
                 id="dl_window"),
])
def test_guards_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def numbered_form(w):
    return w.mode, w.p, w.q, w.points(), w._index, w._heads, w._cells


def test_text_round_trip_of_windows_and_what_is_built_on_them():
    # Point ids are written as GroupPoint(...) reprs and read back as points.
    for w in (ball(2), tetrahedron(-1, 1), dl_window(2, 3, -1, 1)):
        g = from_text(to_text(w.graph), w.graph.label_graph)
        assert g == w.graph
        assert numbered_form(Window(g)) == numbered_form(w)
    w = ball(2)
    dec = decorate_window(w, comb_tileset(),
                          {p: comb_configuration(p) for p in w.points()})
    out, _ = apply_simulator(dec, comb_to_plane())
    assert out.edges
    for g in (dec, out):
        assert from_text(to_text(g), g.label_graph) == g


def test_text_reads_other_calls_as_strings():
    text = ("vertex 'GroupPoint(x)' 1\nvertex 'GroupPoint(1, z=2)' 1\n"
            "vertex \"__import__('os')\" 1\n")
    assert list(from_text(text, rose([])).vlabel) == [
        "GroupPoint(x)", "GroupPoint(1, z=2)", "__import__('os')"]
