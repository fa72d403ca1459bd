import random
import re

import pytest

from tilesim.geometry import ball, evaluate_word, identity, quadrant_window
from tilesim.graphs import CapacityError, LabelGraph, enumerate_homs
from tilesim.reduction import (
    HalfPlaneTileset, decode_halfplane, embed_halfplane, grid_wang_tilings,
    halfplane_from_text, halfplane_label_graph, halfplane_points,
    halfplane_product_tiles, halfplane_to_text, halfplane_window,
    halfplane_vertex_label, reduce_halfplane, star_violations,
    tileset_exponential)
from tilesim.geometry import plane_label_graph
from tilesim.sat import enumerate_tilings, solve_tiling
from tilesim.simulation import apply_simulator, builtin_simulator, \
    quadrant_patch
from tilesim.tilesets import DhsTarget, comb_tileset

MONO = HalfPlaneTileset(frozenset("c"), (("c", "c", "c", "c"),), 0)
# a row that dies after two steps east, and one that alternates freely
DEADEND = HalfPlaneTileset(
    frozenset("cde"), (("c", "d", "c", "c"), ("c", "e", "c", "d")), 0)
ALTERNATING = HalfPlaneTileset(
    frozenset("cd"), (("c", "d", "c", "c"), ("c", "c", "c", "d")), 0)


def grid_ok(hp, tiling):
    """Ground truth for grid matching, directly off the side colours."""
    for (m, n), idx in tiling.items():
        t = hp.tiles[idx]
        e = tiling.get((m + 1, n))
        if e is not None and t[1] != hp.tiles[e][3]:
            return False
        up = tiling.get((m, n + 1))
        if up is not None and t[2] != hp.tiles[up][0]:
            return False
    return True


def test_halfplane_tileset_validation():
    with pytest.raises(ValueError):
        HalfPlaneTileset(frozenset("c"), (("c", "c", "c"),), 0)
    with pytest.raises(ValueError):
        HalfPlaneTileset(frozenset("c"), (("c", "c", "c", "d"),), 0)
    with pytest.raises(ValueError):
        HalfPlaneTileset(frozenset("c"),
                         (("c", "c", "c", "c"), ("c", "c", "c", "c")), 0)
    with pytest.raises(ValueError):
        HalfPlaneTileset(frozenset("c"), (("c", "c", "c", "c"),), 1)


def test_six_products_per_tile_before_dedup():
    assert len(halfplane_product_tiles(MONO)) == 6
    two = HalfPlaneTileset(
        frozenset("cd"), (("c", "c", "c", "c"), ("d", "d", "d", "d")), 0)
    assert len(halfplane_product_tiles(two)) == 12
    # above and below do not depend on the grid tile, so they collapse.
    assert len(reduce_halfplane(two).tiles) == 10


def test_reduction_seed_is_the_spine_product_at_the_identity():
    pi = reduce_halfplane(MONO)
    assert len(pi.tiles) == 6
    ((pt, idx),) = pi.seeds
    assert pt == identity()
    assert tuple(c for c, _ in pi.tiles[idx]) == comb_tileset().tiles[0]


def test_monochrome_reduction_is_satisfiable_on_the_seeded_ball():
    pi = reduce_halfplane(MONO)
    assert solve_tiling(ball(4), pi) is not None


def test_mismatched_tile_is_unsatisfiable_on_the_seeded_ball():
    bad = HalfPlaneTileset(frozenset("cd"), (("c", "d", "c", "c"),), 0)
    pi = reduce_halfplane(bad)
    assert len(pi.tiles) == 6
    assert solve_tiling(ball(2), pi) is None


def test_every_solution_decodes_to_a_full_grid_tiling_with_star():
    pi = reduce_halfplane(MONO)
    sols, complete = enumerate_tilings(ball(3), pi, limit=50)
    assert complete and len(sols) == 9
    pts = set(halfplane_points(3))
    for s in sols:
        dec = decode_halfplane(s.values, pi, MONO)
        assert set(dec) >= pts
        assert grid_ok(MONO, dec)
        assert star_violations(s.values, pi, MONO) == []


def test_end_to_end_agreement_with_patch_brute_force():
    for hp, want in ((MONO, True), (DEADEND, False), (ALTERNATING, True)):
        brute = grid_wang_tilings(hp.tiles, halfplane_points(3),
                                  seed=((0, 0), hp.seed))
        sat = solve_tiling(ball(3), reduce_halfplane(hp))
        assert bool(brute) == want
        assert (sat is not None) == want
        if sat is not None:
            dec = decode_halfplane(sat.values, reduce_halfplane(hp), hp)
            patch = {p: dec[p] for p in halfplane_points(3)}
            assert patch in brute


def test_reduction_round_trips_on_the_solver_model():
    pts = halfplane_points(5)
    for hp, want in ((ALTERNATING, True), (DEADEND, False)):
        pi = reduce_halfplane(hp)
        sat = solve_tiling(ball(5), pi)
        assert (sat is not None) == want
        if sat is not None:
            dec = decode_halfplane(sat.values, pi, hp)
            assert set(dec) >= set(pts) and dec[(0, 0)] == hp.seed
            assert grid_ok(hp, dec)
            assert star_violations(sat.values, pi, hp) == []


def test_star_violation_is_reported_for_a_corrupted_memo():
    two = HalfPlaneTileset(
        frozenset("cd"), (("c", "c", "c", "c"), ("d", "d", "d", "d")), 0)
    pi = reduce_halfplane(two)
    raw = halfplane_product_tiles(two)
    tooth_c = pi.tiles.index(raw[1])        # tooth product of the c tile
    anti_d = pi.tiles.index(raw[6 + 3])     # antitooth product of the d tile
    tooth_pt = evaluate_word("b")           # stands for grid (1, 0)
    mirror = evaluate_word("aB")            # its memo position
    bad = {tooth_pt: tooth_c, mirror: anti_d}
    found = star_violations(bad, pi, two)
    assert ((1, 0), "N", "c", ("d",)) in found
    assert ((1, 0), "S", "c", ("d",)) in found
    good = {tooth_pt: tooth_c, mirror: pi.tiles.index(raw[3])}
    assert star_violations(good, pi, two) == []


def test_decode_skips_products_parked_at_the_wrong_shape():
    pi = reduce_halfplane(MONO)
    raw = halfplane_product_tiles(MONO)
    # A tooth product at the identity is not a grid cell.
    assert decode_halfplane({identity(): pi.tiles.index(raw[1])},
                            pi, MONO) == {}


def test_embed_halfplane_lands_on_the_teeth():
    assert embed_halfplane(0, 0) == identity()
    assert embed_halfplane(1, 1) == evaluate_word("a")
    assert embed_halfplane(2, 0) == evaluate_word("bb")
    assert embed_halfplane(1, -1) == evaluate_word("Abb")
    with pytest.raises(ValueError):
        embed_halfplane(0, 1)


def test_halfplane_points_match_the_ball_radius():
    pts = halfplane_points(2)
    assert pts == ((-2, -2), (-1, -1), (0, -1), (0, 0), (1, 0), (1, 1),
                   (2, 0), (2, 1), (2, 2))
    for (m, n) in halfplane_points(4):
        assert embed_halfplane(m, n) in ball(4)


def test_grid_window_vertex_label_census():
    w1 = quadrant_window(1, 1)
    assert list(w1.vlabel.values()) == ["NE"]
    w3 = quadrant_window(3, 3)
    census = sorted(list(w3.vlabel.values()).count(lab)
                    for lab in ("NE", "NES", "NEW", "NESW"))
    assert census == [1, 2, 2, 4]


def test_halfplane_window_labels_and_edges():
    assert halfplane_vertex_label(2, 2) == "ES"
    assert halfplane_vertex_label(3, 1) == "NESW"
    pts = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    w = halfplane_window(pts)
    assert w.label_graph == halfplane_label_graph()
    assert [w.vlabel[p] for p in pts] == \
        ["ES", "NESW", "ES", "NESW", "NESW", "ES"]
    # Staircase: three east edges on the bottom row, one higher up, and
    # two vertical ones, each with its reverse.
    assert len(w.edge_ids()) == 2 * 6
    with pytest.raises(ValueError):
        halfplane_window([(0, 1)])


def test_grid_wang_brute_force_on_a_square():
    tiles = (("c", "d", "c", "c"), ("c", "c", "c", "d"))
    pts = [(m, n) for m in range(2) for n in range(2)]
    sols = grid_wang_tilings(tiles, pts)
    assert all(grid_ok(HalfPlaneTileset(frozenset("cd"), tiles, 0),
                       {p: s[p] for p in s}) for s in sols)
    # Rows alternate horizontally and are vertically unconstrained here
    # because all north and south sides agree.
    assert len(sols) == 4
    seeded = grid_wang_tilings(tiles, pts, seed=((0, 0), 1))
    assert len(seeded) == 2
    assert all(s[(0, 0)] == 1 for s in seeded)
    capped = grid_wang_tilings(tiles, pts, limit=3)
    assert len(capped) == 3


@pytest.mark.parametrize("seed, message", [
    (((5, 5), 1), "seed point (5, 5) is not among the points"),
    (((0, 0), -1), "seed tile -1 out of range"),
    (((0, 0), 7), "seed tile 7 out of range")],
    ids=["point-outside", "negative-tile", "tile-past-the-end"])
def test_grid_wang_tilings_checks_its_seed(seed, message):
    tiles = (("c", "d", "c", "c"), ("c", "c", "c", "d"))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        grid_wang_tilings(tiles, [(0, 0), (1, 0)], seed=seed)


@pytest.mark.parametrize("limit", [0, -1])
def test_grid_wang_tilings_up_to_a_limit_below_one_are_none(limit):
    tiles = (("c", "d", "c", "c"), ("c", "c", "c", "d"))
    assert grid_wang_tilings(tiles, [(0, 0), (1, 0)], limit=limit) == []


def test_halfplane_text_round_trip():
    two = HalfPlaneTileset(
        frozenset("cd"), (("c", "c", "c", "c"), ("d", "d", "c", "d")), 1)
    text = halfplane_to_text(two)
    back = halfplane_from_text(text)
    assert back == two
    assert halfplane_to_text(back) == text
    with pytest.raises(ValueError):
        halfplane_from_text("kind wang\ncolors c\ntile c c c c\nseedtile 0")
    with pytest.raises(ValueError):
        halfplane_from_text("colors c\ntile c c c c")
    with pytest.raises(ValueError):
        halfplane_from_text("colors c\nlump c\nseedtile 0")


def test_halfplane_text_round_trip_with_hash_in_colours():
    hp = HalfPlaneTileset(frozenset({"c#", "d"}),
                          (("c#", "d", "c#", "d"), ("d", "d", "d", "d")), 1)
    assert halfplane_from_text(halfplane_to_text(hp)) == hp


def test_halfplane_text_comments_and_bad_lines():
    text = "kind halfplane  # ok\ncolors c d # two\ntile c d c c # x\n" \
           "seedtile 0 # corner\n"
    assert halfplane_from_text(text) == HalfPlaneTileset(
        frozenset("cd"), (("c", "d", "c", "c"),), 0)
    for bad in ("seedtile", "seedtile x", "tile c c c", "colors 'c"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            halfplane_from_text("colors c\ntile c c c c\n" + bad)


@pytest.mark.parametrize("text, bad", [
    ("colors c\ntile c c c c\ntile c c c c\nseedtile 0", "tile c c c c"),
    ("colors c\ntile c c c x\nseedtile 0", "tile c c c x"),
    ("tile c c c x\ncolors c\nseedtile 0", "tile c c c x"),
    ("colors c\ntile c c c c\nseedtile 1", "seedtile 1"),
    ("seedtile -1\ncolors c\ntile c c c c", "seedtile -1"),
    ("colors c\ncolors c d\ntile c c c c\nseedtile 0", "colors c d"),
    ("colors c\ntile c c c c\nseedtile 0\nseedtile 0", "seedtile 0"),
    ("kind halfplane\ncolors c\ntile c c c c\nseedtile 0\n"
     "kind halfplane", "kind halfplane")],
    ids=["duplicate-tile", "undeclared-colour", "colour-declared-later",
         "seed-out-of-range", "negative-seed", "repeated-colors",
         "repeated-seedtile", "repeated-kind"])
def test_halfplane_text_errors_name_the_line(text, bad):
    with pytest.raises(ValueError, match="^bad half-plane line "
                       + re.escape(repr(bad))):
        halfplane_from_text(text)


def test_grid_wang_tilings_on_a_large_window():
    pts = halfplane_points(45)
    assert len(pts) > 2000
    (sol,) = grid_wang_tilings([("c", "c", "c", "c")], pts, limit=1)
    assert list(sol) == sorted(pts) and set(sol.values()) == {0}


_PLANE_INV = {"E": "W", "N": "S", "W": "E", "S": "N"}


def plane_target(nv, edges):
    plane = plane_label_graph()
    vlabel = {v: 1 for v in range(nv)}
    es, el, rev = {}, {}, {}
    for (t, d, h) in edges:
        di = _PLANE_INV[d]
        es[(t, d, h)] = (t, h)
        el[(t, d, h)] = d
        es[(h, di, t)] = (h, t)
        el[(h, di, t)] = di
        rev[(t, d, h)] = (h, di, t)
        rev[(h, di, t)] = (t, d, h)
    return DhsTarget(LabelGraph(vlabel, es, el, rev, plane))


def test_exponential_of_the_loop_target_is_nonempty():
    s = builtin_simulator("quadrant_to_plane")
    triv = plane_target(1, [(0, "E", 0), (0, "N", 0)])
    fs = tileset_exponential(triv, s)
    # One local map per source letter: the target absorbs everything.
    assert fs.graph.num_vertices() == 4
    w = quadrant_patch([(x, y) for x in range(3) for y in range(3)])
    sim, _ = apply_simulator(w, s)
    assert enumerate_homs(w, fs.graph, limit=1)
    assert enumerate_homs(sim, triv.graph, limit=1)


def test_exponential_of_a_labelless_target_is_empty_both_ways():
    s = builtin_simulator("quadrant_to_plane")
    only_east = plane_target(1, [(0, "E", 0)])
    fs = tileset_exponential(only_east, s)
    w = quadrant_patch([(x, y) for x in range(2) for y in range(2)])
    sim, _ = apply_simulator(w, s)
    assert not enumerate_homs(w, fs.graph, limit=1)
    assert not enumerate_homs(sim, only_east.graph, limit=1)


def test_exponential_emptiness_matches_brute_force():
    s = builtin_simulator("quadrant_to_plane")
    windows = [
        quadrant_patch([(x, y) for x in range(2) for y in range(2)]),
        quadrant_patch([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]),
    ]
    sims = [apply_simulator(w, s)[0] for w in windows]
    rng = random.Random(20260814)
    pool = [(t, d, h) for d in ("E", "N") for t in range(2)
            for h in range(2)]
    outcomes = set()
    for _ in range(12):
        k = rng.randrange(1, len(pool) + 1)
        f = plane_target(2, rng.sample(pool, k))
        fs = tileset_exponential(f, s)
        for w, sim in zip(windows, sims):
            left = bool(enumerate_homs(w, fs.graph, limit=1))
            right = bool(enumerate_homs(sim, f.graph, limit=1))
            assert left == right
            outcomes.add(left)
    assert outcomes == {True, False}


def test_exponential_capacity_error_reports_sizes():
    s = builtin_simulator("quadrant_to_plane")
    f = plane_target(2, [(0, "E", 1), (1, "E", 0), (0, "N", 1), (1, "N", 0)])
    with pytest.raises(CapacityError) as err:
        tileset_exponential(f, s, max_cells=3)
    assert "simulator 9 states" in str(err.value)
    assert str(err.value).startswith("exponential exceeds 3 cells (")
    assert (err.value.what, err.value.size, err.value.budget) == (
        "exponential vertices", 6, 3)
    with pytest.raises(ValueError):
        tileset_exponential(comb_tileset(), s)
