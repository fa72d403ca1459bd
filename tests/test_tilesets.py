import itertools
import random
import re
import warnings

import pytest

from tilesim.geometry import (
    ball, evaluate_word, identity, tetrahedron, dl_window, window_cells,
    cell_points, step)
from tilesim.graphs import LabelGraph, alphabet, enumerate_homs
from tilesim.tilesets import (
    BUILTIN_TILESETS, DhsTarget, TetraSystem, WangTileset, builtin_tileset,
    comb_configuration, comb_tileset, decoration_symbols, dhs_to_sft,
    dl_ray_system, lamp_runs, lr_configuration, lr_system,
    omega_configuration, on_comb_spine_region, parse_tile_ref,
    product_tileset, random_tetra_system, random_wang_tileset,
    ray_left_system, ray_right_system, sea_level_system, sea_system,
    sft_to_dhs, tetra_to_wang, tile_count, tile_label,
    tileset_from_text, tileset_to_text, tiling_ok, vertex_candidates,
    wang_to_dhs, wang_to_tetra, window_scopes, _point_word)

T, F = True, False

LEFT_CELLS = {(T, F, T, T), (F, T, T, T), (F, F, F, F)}
RIGHT_CELLS = {(T, T, T, F), (T, T, F, T), (F, F, F, F)}


def brute_tilings(window, ts):
    # ground-truth enumeration straight from the scopes, no solver involved:
    # backtracking over the points, checking each scope once it is filled
    pts = window.points()
    pos = {p: i for i, p in enumerate(pts)}
    scopes_at = [[] for _ in pts]
    for scope, allowed in window_scopes(ts, window):
        last = max(pos[v] for v in scope)
        scopes_at[last].append((tuple(pos[v] for v in scope), allowed))
    cands = [vertex_candidates(ts, window, p) for p in pts]
    out = []
    assign = [None] * len(pts)

    def place(i):
        if i == len(pts):
            out.append(dict(zip(pts, assign)))
            return
        for t in cands[i]:
            assign[i] = t
            if all(tuple(assign[j] for j in sc) in allowed
                   for sc, allowed in scopes_at[i]):
                place(i + 1)

    place(0)
    return out


def test_ray_cells_are_the_expected_triples():
    assert ray_left_system().allowed == LEFT_CELLS
    assert ray_right_system().allowed == RIGHT_CELLS


def test_ray_cells_swap_closed():
    for ts in (ray_left_system(), ray_right_system()):
        for al, be, ga, de in ts.allowed:
            assert (be, al, de, ga) in ts.allowed


def test_lr_product_keeps_seven_pairings():
    ts = lr_system()
    assert len(ts.allowed) == 7
    # pairing oracle: which (left cell, right cell) pairs survive the joint
    # under both readings of the cell
    kept = {tuple(zip(c1, c2)) for c1 in LEFT_CELLS for c2 in RIGHT_CELLS
            if _lr_joint(c1, c2) and _lr_joint(_swap4(c1), _swap4(c2))}
    assert ts.allowed == kept
    dropped = {(c1, c2) for c1 in LEFT_CELLS for c2 in RIGHT_CELLS
               if tuple(zip(c1, c2)) not in kept}
    assert dropped == {((T, F, T, T), (T, T, F, T)),
                       ((F, T, T, T), (T, T, T, F))}


def _swap4(t):
    return (t[1], t[0], t[3], t[2])


def _lr_joint(c1, c2):
    return ((c1[0], c2[0]) == (T, T)) == ((c1[2], c2[2]) == (T, T))


SEA_CELLS = {
    ("SEA", "SEA", "NW", "NE"), ("SEA", "SEA", "NE", "NW"),
    ("SW", "SE", "SEA", "SEA"), ("SE", "SW", "SEA", "SEA"),
    ("UP", "UP", "UP", "UP"),
    ("NW", "NW", "UP", "NW"), ("NW", "NW", "NW", "UP"),
    ("NE", "NE", "UP", "NE"), ("NE", "NE", "NE", "UP"),
    ("DN", "DN", "DN", "DN"),
    ("DN", "SW", "SW", "SW"), ("SW", "DN", "SW", "SW"),
    ("DN", "SE", "SE", "SE"), ("SE", "DN", "SE", "SE"),
}


def test_sea_cells_exactly_fourteen():
    ts = sea_system()
    assert ts.allowed == SEA_CELLS
    assert len(ts.allowed) == 14


def test_sea_level_product():
    ts = sea_level_system()
    assert len(ts.alphabet) == 28
    for t in ts.allowed:
        assert _swap4(t) in ts.allowed
    # the cell at the identity of the reference configuration
    cell = (((T, T), "SEA"), ((F, T), "SEA"), ((T, T), "NW"), ((T, F), "NE"))
    assert cell in ts.allowed
    # the two tree orders above a doubly-marked sea point are not symmetric:
    # only NW-left survives
    bad = (((T, T), "SEA"), ((F, T), "SEA"), ((T, T), "NE"), ((T, F), "NW"))
    assert bad not in ts.allowed


def test_reference_configurations_satisfy_their_systems():
    win = tetrahedron(-2, 2)
    lr = lr_system()
    omega = sea_level_system()
    for base in window_cells(win):
        cell = cell_points(base)
        assert tuple(lr_configuration(g) for g in cell) in lr.allowed
        assert tuple(omega_configuration(g) for g in cell) in omega.allowed


def test_lr_configuration_marks_the_a_line():
    for w in ("", "a", "aa", "AAA"):
        assert lr_configuration(evaluate_word(w)) == (T, T)
    for w in ("b", "B", "abA", "bbAA"):
        assert lr_configuration(evaluate_word(w)) != (T, T)


def test_omega_configuration_cases():
    assert omega_configuration(identity())[1] == "SEA"
    assert omega_configuration(evaluate_word("aa"))[1] == "NW"
    assert omega_configuration(evaluate_word("bb"))[1] == "NE"
    assert omega_configuration(evaluate_word("ba"))[1] == "UP"
    assert omega_configuration(evaluate_word("AA"))[1] == "SW"
    assert omega_configuration(evaluate_word("BB"))[1] == "SE"
    assert omega_configuration(evaluate_word("BA"))[1] == "DN"


def test_comb_tileset_shape():
    ts = comb_tileset()
    assert len(ts.tiles) == 6
    assert ts.colors == frozenset("abdorst")
    assert ts.names == ("spine", "tooth", "web", "antitooth", "above",
                        "below")
    assert parse_tile_ref(ts, "web") == 2
    assert parse_tile_ref(ts, "3") == 3
    assert tile_label(ts, 0) == "spine"
    with pytest.raises(ValueError):
        parse_tile_ref(ts, "teeth")


def test_lamp_runs():
    assert lamp_runs(identity()) == []
    assert lamp_runs(evaluate_word("bb")) == [(0, 1)]
    assert lamp_runs(evaluate_word("baab")) == [(0, 0), (3, 3)]
    assert on_comb_spine_region(evaluate_word("bb"))
    assert not on_comb_spine_region(evaluate_word("baab"))


def test_comb_configuration_spot_values():
    assert comb_configuration(identity()) == 0           # spine
    assert comb_configuration(evaluate_word("aaa")) == 0
    assert comb_configuration(evaluate_word("b")) == 1   # tooth
    assert comb_configuration(evaluate_word("aB")) == 3  # antitooth
    assert comb_configuration(evaluate_word("bbA")) == 2 # web
    assert comb_configuration(evaluate_word("bba")) == 4 # above
    assert comb_configuration(evaluate_word("bbAAA")) == 5
    assert comb_configuration(evaluate_word("baab")) == 4


def test_comb_configuration_is_edge_consistent():
    # every a- and b-edge of a large ball matches under the six tiles
    tiles = comb_tileset().tiles
    win = ball(5)
    g = win.graph
    for e in g.edge_ids():
        lab = g.elabel[e]
        if lab not in ("a", "b"):
            continue
        u, v = g.edges[e]
        tu, tv = tiles[comb_configuration(u)], tiles[comb_configuration(v)]
        if lab == "a":
            assert tu[0] == tv[2]
        else:
            assert tu[1] == tv[3]


def test_comb_configuration_is_a_valid_tiling():
    win = ball(3)
    assign = {pt: comb_configuration(pt) for pt in win.points()}
    assert tiling_ok(win, comb_tileset(), assign)
    assign[identity()] = 2
    assert not tiling_ok(win, comb_tileset(), assign)


def test_tiling_ok_rejects_each_kind_of_bad_assignment():
    # One case per early False of the checker behind every SAT answer.
    win = ball(2)
    target = wang_to_dhs(comb_tileset())
    verts = target.graph.vertices()
    hom = enumerate_homs(win.graph, target.graph, limit=1)[0]
    good = {pt: verts.index(v) for pt, v in hom.vmap.items()}
    pt = identity()
    assert tiling_ok(win, target, good)
    # an assignment of the wrong size
    assert not tiling_ok(win, target, {**good, evaluate_word("aaa"): 0})
    assert not tiling_ok(win, target, {x: t for x, t in good.items()
                                       if x != pt})
    # a tile outside the point's candidates, or no tile at a point
    assert not tiling_ok(win, target, {**good, pt: len(verts)})
    swapped = {x: t for x, t in good.items() if x != pt}
    swapped[evaluate_word("aaa")] = good[pt]
    assert not tiling_ok(win, target, swapped)
    # a seed the tiling does not carry, or a seed outside the window
    other = (good[pt] + 1) % len(verts)
    assert tiling_ok(win, target, good, [(pt, good[pt])])
    assert not tiling_ok(win, target, good, [(pt, other)])
    assert not tiling_ok(win, DhsTarget(target.graph, [(pt, other)]), good)
    assert not tiling_ok(win, target, good,
                         [(evaluate_word("aaa"), good[pt])])


def test_tetra_system_geometry_is_checked():
    # A cell system's (mode, p, q) is what its scopes need of a window, so
    # a Cayley system with other p, q or a DL system with p or q below 2
    # is refused rather than kept as a value scopes ignore.
    TetraSystem((F, T), frozenset(), mode="dl", p=2, q=3)
    for mode, p, q in (("cayley", 3, 3), ("cayley", 2, 3), ("dl", 1, 2),
                       ("dl", 2, 0), ("hex", 2, 2)):
        with pytest.raises(ValueError, match="mode, p, q"):
            TetraSystem((F, T), frozenset(), mode=mode, p=p, q=q)
    with pytest.raises(ValueError, match=re.escape(repr("params 1 3"))):
        tileset_from_text("kind dl\nparams 1 3\nalphabet 0 1\n")


def test_wang_validation():
    with pytest.raises(ValueError):
        WangTileset(frozenset("ab"), (("a", "b", "c", "a"),))
    with pytest.raises(ValueError):
        WangTileset(frozenset("ab"), (("a", "a", "a", "a"),) * 2)
    with pytest.raises(ValueError):
        WangTileset(frozenset("a"), (("a",) * 4,),
                    seeds=((identity(), 1),))


def test_tetra_swap_closure_warns_and_drops():
    with pytest.warns(UserWarning):
        ts = TetraSystem((0, 1), frozenset({(0, 1, 0, 0)}))
    assert ts.allowed == frozenset()
    # already closed: silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TetraSystem((0, 1), frozenset({(0, 1, 0, 0), (1, 0, 0, 0)}))


def test_wang_to_tetra_matches_direct_enumeration():
    w = comb_tileset()
    ts = wang_to_tetra(w)
    assert ts.alphabet == w.tiles
    spine, tooth, anti = w.tiles[0], w.tiles[1], w.tiles[3]
    assert (spine, anti, spine, tooth) in ts.allowed
    direct = set()
    for quad in itertools.product(w.tiles, repeat=4):
        al, be, ga, de = quad
        if (al[0] == ga[2] and be[0] == de[2]
                and al[1] == de[3] and be[1] == ga[3]):
            direct.add(quad)
    assert ts.allowed == direct
    for t in ts.allowed:
        assert _swap4(t) in ts.allowed


def test_tetra_to_wang_ray_left():
    w = tetra_to_wang(ray_left_system())
    assert len(w.tiles) == 4
    for above, above2, below, below_swapped in w.tiles:
        assert above == above2
        assert above[0] == below[2]
        assert below_swapped == _swap4(below)


def test_tetra_to_wang_rejects_seeds_and_dl():
    seeded = TetraSystem((F, T), frozenset(LEFT_CELLS),
                         seeds=((identity(), 1),))
    with pytest.raises(ValueError):
        tetra_to_wang(seeded)
    with pytest.raises(ValueError):
        tetra_to_wang(dl_ray_system(2, 2))


def test_wang_and_tetra_agree_on_cell_saturated_windows():
    # a tetrahedron window contains the whole cell of each of its a/b-edges,
    # so converting tiles to cells preserves the full solution list
    win = tetrahedron(0, 2)
    rng = random.Random(5)
    for w in (comb_tileset(), random_wang_tileset(rng),
              random_wang_tileset(rng, ncolors=3, ntiles=3)):
        a = brute_tilings(win, w)
        b = brute_tilings(win, wang_to_tetra(w))
        assert a == b


def test_ball_windows_are_not_cell_saturated():
    # ball(3) has an a-edge at aa--aaa but no complete cell containing aaa,
    # so the cell view accepts strictly more than the tile view there
    win = ball(3)
    far = evaluate_word("aaa")
    assert far in win
    for base in window_cells(win):
        assert far not in cell_points(base)
    w = comb_tileset()
    assign = {pt: 4 for pt in win.points()}
    assign[far] = 0
    assert not tiling_ok(win, w, assign)
    assert tiling_ok(win, wang_to_tetra(w), assign)


def test_dl_ray_counts():
    for p, q in ((2, 2), (2, 3), (3, 2)):
        ts = dl_ray_system(p, q)
        assert ts.arity() == p + q
        assert len(ts.allowed) == 1 + p
        assert (F,) * (p + q) in ts.allowed
        for i in range(p):
            lows = tuple(j == i for j in range(p))
            assert lows + (T,) * q in ts.allowed
        assert (T,) * (p + q) not in ts.allowed or p == 1
    with pytest.raises(ValueError):
        dl_ray_system(1, 2)


def test_dl_scopes_need_matching_window():
    ts = dl_ray_system(2, 3)
    win = dl_window(2, 3, 0, 2)
    scopes = window_scopes(ts, win)
    assert scopes
    for scope, allowed in scopes:
        assert len(scope) == 5
        assert allowed == {tuple(int(x) for x in t) for t in ts.allowed}
    with pytest.raises(ValueError):
        window_scopes(ts, ball(1))
    with pytest.raises(ValueError):
        window_scopes(ts, dl_window(2, 2, 0, 2))


def test_product_tileset_trivial_joints():
    full = product_tileset(ray_left_system(), ray_right_system())
    assert len(full.allowed) == 9
    none = product_tileset(ray_left_system(), ray_right_system(),
                           joint=lambda c1, c2: False)
    assert none.allowed == frozenset()
    table = {(c1, c2) for c1 in LEFT_CELLS for c2 in RIGHT_CELLS}
    assert product_tileset(ray_left_system(), ray_right_system(),
                           joint=lambda c1, c2: (c1, c2) in table
                           ).allowed == full.allowed


def test_builtin_names():
    assert builtin_tileset("comb") == comb_tileset()
    assert builtin_tileset("omega_full") == sea_level_system()
    assert builtin_tileset("dl_ray:2:3") == dl_ray_system(2, 3)
    with pytest.raises(ValueError):
        builtin_tileset("comb:2")
    with pytest.raises(ValueError):
        builtin_tileset("robinson")


def test_point_word_round_trips():
    rng = random.Random(3)
    for _ in range(60):
        w = "".join(rng.choice("aAbB") for _ in range(rng.randrange(8)))
        pt = evaluate_word(w)
        assert evaluate_word(_point_word(pt)) == pt
    for w in ("", "up:0:1", "up:0:1 up:0:2", "up:0:2 dn:1:2",
              "dn:1:0 dn:0:0", "up:0:1 dn:1:1 up:1:0"):
        pt = evaluate_word(w, 2, 3)
        assert evaluate_word(_point_word(pt), 2, 3) == pt


def test_tileset_file_round_trip():
    w = comb_tileset()
    w2 = tileset_from_text(tileset_to_text(w))
    assert w2.tiles == w.tiles
    assert w2.colors == w.colors
    ts = lr_system()
    ts2 = tileset_from_text(tileset_to_text(ts))
    assert ts2.allowed == ts.allowed
    assert ts2.alphabet == ts.alphabet
    assert ts2.mode == "cayley"
    dl = dl_ray_system(2, 3)
    dl = TetraSystem(dl.alphabet, dl.allowed,
                     ((evaluate_word("up:0:1 up:0:2", 2, 3), 1),),
                     "dl", 2, 3)
    dl2 = tileset_from_text(tileset_to_text(dl))
    assert dl2 == dl


def test_tileset_file_errors_and_comments():
    text = "# comment\nkind wang\ncolors 'x'\ntile 'x' 'x' 'x' 'x'\n"
    w = tileset_from_text(text)
    assert w.tiles == (("x",) * 4,)
    with pytest.raises(ValueError):
        tileset_from_text("colors 'x'\n")
    with pytest.raises(ValueError):
        tileset_from_text("kind prism\n")
    with pytest.raises(ValueError):
        tileset_from_text("kind wang\ncolors 'x'\nbogus line\n")


def test_tileset_file_round_trip_with_hash_in_colours():
    w = WangTileset(frozenset({"c#", "d"}),
                    (("c#", "d", "c#", "d"), ("d", "d", "d", "d")),
                    seeds=((evaluate_word("ab"), 1),))
    assert tileset_from_text(tileset_to_text(w)) == w


@pytest.mark.parametrize("text, line", [
    ("kind wang\ncolors x\ntile x x x x\n", "seed q 0"),
    ("kind wang\ncolors x\n", "tile x x x y"),
    ("kind wang\ncolors x\ntile x x x x\n", "seed a 3"),
    ("kind tetra\nalphabet 0 1\n", "tetra 0 0 0 2"),
    ("kind dl\nparams 2 3\nalphabet 0 1\n", "tetra 0 0 0 0"),
    ("kind tetra\nalphabet 0 1\ntetra 0 0 0 0\n", "params 3 3"),
    # a seed word evaluated as a DL(3,3) point, which no Wang window holds
    ("kind wang\ncolors x\ntile x x x x\nseed a 0\n", "params 3 3"),
])
def test_tileset_file_late_errors_name_the_line(text, line):
    # These are found only once every line is read: the seed word needs
    # the params, a tile the colours or alphabet, a seed the tile count,
    # a params line the kind.
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        tileset_from_text(text + line + "\n")
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        tileset_from_text(line + "\n" + text)


@pytest.mark.parametrize("text, message", [
    ("kind wang\ntile x x x x\n", "missing colors line"),
    ("kind tetra\ntetra 0 0 0 0\n", "missing alphabet line"),
    ("kind tetra\nnames p q\n", "missing alphabet line")],
    ids=["wang-no-colors", "tetra-no-alphabet", "names-no-alphabet"])
def test_tileset_file_missing_lines(text, message):
    with pytest.raises(ValueError, match="^" + message + "$"):
        tileset_from_text(text)


@pytest.mark.parametrize("text, line", [
    # these texts read without error, the stray line dropped
    ("kind wang\ncolors x\nalphabet 0 1\ntile x x x x\n", "alphabet 0 1"),
    ("kind tetra\nalphabet 0 1\ncolors q\ntile 0 0 0 0\n", "colors q"),
    # and these read a tile line as a tetra line, or the other way round
    ("kind tetra\nalphabet 0 1\ntile 0 0 0 0\n", "tile 0 0 0 0"),
    ("tetra x x x x\nkind wang\ncolors x\n", "tetra x x x x")],
    ids=["alphabet-in-wang", "colors-in-tetra", "tile-in-tetra",
         "tetra-in-wang"])
def test_tileset_file_lines_of_the_other_kind_name_the_line(text, line):
    with pytest.raises(ValueError, match=re.escape(
            "%r: %s line in a kind " % (line, line.split()[0]))):
        tileset_from_text(text)


def test_tileset_file_writes_only_wang_and_cell_systems():
    with pytest.raises(ValueError, match="^cannot serialize 'DhsTarget'$"):
        tileset_to_text(wang_to_dhs(comb_tileset()))


@pytest.mark.parametrize("line", ["kind", "params 2", "seed"])
def test_tileset_file_short_lines_name_the_line(line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        tileset_from_text("kind dl\nalphabet 'x'\n" + line + "\n")


@pytest.mark.parametrize("name", [n.replace(":p:q", ":2:3")
                                  for n in BUILTIN_TILESETS])
def test_builtin_tileset_file_round_trip_is_exact(name):
    ts = builtin_tileset(name)
    again = tileset_from_text(tileset_to_text(ts))
    assert again == ts
    assert decoration_symbols(again) == decoration_symbols(ts)


def test_tileset_file_names_line():
    named = TetraSystem((False, True), ray_left_system().allowed,
                        names=("off", "on"))
    text = tileset_to_text(named)
    assert text.splitlines()[-1].startswith("names ")
    assert tileset_from_text(text) == named
    for text, line in (
            ("kind wang\ncolors x\ntile x x x x\n", "names p q"),
            ("kind tetra\nalphabet 0 1\ntetra 0 0 0 0\n", "names p")):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            tileset_from_text(text + line + "\n")
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            tileset_from_text(line + "\n" + text)


@pytest.mark.parametrize("text, line", [
    ("kind wang\ncolors x y\ntile x x x x\ntile y y y y\n", "tile x x x x"),
    ("kind wang\ncolors x\ntile 'x' 'x' 'x' 'x'\n", "tile x x x x"),
    ("kind tetra\nalphabet 0 1\ntetra 0 0 0 0\n", "tetra 0 0 0 0"),
    ("kind dl\nparams 2 3\nalphabet 0\ntetra 0 0 0 0 0\n",
     "tetra 0 0 0 0 0"),
    # a second declaration used to replace the first one silently
    ("kind wang\ncolors x\ntile x x x x\n", "kind tetra"),
    ("kind wang\ncolors x\ntile x x x x\n", "kind wang"),
    ("kind dl\nparams 2 3\nalphabet 0\ntetra 0 0 0 0 0\n", "params 3 2"),
    ("kind wang\ncolors x\ntile y y y y\n", "colors y"),
    ("kind tetra\nalphabet 0 1\ntetra 0 0 0 0\n", "alphabet 1 0"),
    ("kind tetra\nalphabet 0 1\ntetra 0 0 0 0\nnames p q\n", "names r s"),
])
def test_tileset_file_repeated_tile_names_the_line(text, line):
    with pytest.raises(ValueError, match=re.escape(repr(line))
                       + ": repeated " + line.split()[0]):
        tileset_from_text(text + line + "\n")


def test_seed_word_may_hold_whitespace():
    ts = tileset_from_text("kind wang\ncolors x\ntile x x x x\n"
                           "seed 'ab A' 0\n")
    assert ts.seeds == ((evaluate_word("abA"), 0),)


def test_seeded_file_round_trip():
    w = WangTileset(frozenset("ab"), (("a", "a", "a", "a"),
                                      ("b", "b", "b", "b")),
                    seeds=((evaluate_word("abA"), 1), (identity(), 0)))
    w2 = tileset_from_text(tileset_to_text(w))
    assert w2.seeds == w.seeds


GOLDEN = {(0, 0), (0, 1), (1, 0)}


def golden_graph():
    base = alphabet([1], {"s": (1, 1)})
    edges = {(u, v): (u, v) for (u, v) in GOLDEN}
    return LabelGraph({0: 1, 1: 1}, edges, {e: "s" for e in edges},
                      None, base)


def path_graph(k):
    base = alphabet([1], {"s": (1, 1)})
    vlabel = {i: 1 for i in range(k)}
    edges = {i: (i, i + 1) for i in range(k - 1)}
    return LabelGraph(vlabel, edges, {e: "s" for e in edges}, None, base)


def golden_word_count(k):
    # binary words of length k with no two consecutive ones
    count = 0
    for combo in itertools.product((0, 1), repeat=k):
        if all(combo[i] + combo[i + 1] < 2 for i in range(k - 1)):
            count += 1
    return count


def test_sft_to_dhs_golden_mean():
    target = sft_to_dhs(("s",), 1, (0, 1), GOLDEN)
    g = target.graph
    assert g.num_vertices() == 3
    assert g.num_edges() == 5
    # a path with k vertices in the pattern graph reads off a word with k+1
    # letters of the original shift
    for k in range(1, 6):
        homs = enumerate_homs(path_graph(k), g)
        assert len(homs) == golden_word_count(k + 1)


def test_sft_to_dhs_full_shift():
    full = set(itertools.product((0, 1), repeat=2))
    target = sft_to_dhs(("s",), 1, (0, 1), full)
    assert target.graph.num_vertices() == 4
    assert target.graph.num_edges() == 8
    with pytest.raises(ValueError):
        sft_to_dhs(("s",), 1, (0, 1), {(0, 1, 0)})


def test_dhs_to_sft_golden_graph():
    gens, n, symbols, allowed = dhs_to_sft(DhsTarget(golden_graph()))
    assert gens == ("s",)
    assert n == 1
    assert set(symbols) == {0, 1}
    assert allowed == GOLDEN


def test_dhs_round_trip_shifts_the_window_by_one():
    target = DhsTarget(golden_graph())
    back = sft_to_dhs(*dhs_to_sft(target))
    for k in range(1, 6):
        again = enumerate_homs(path_graph(k), back.graph)
        original = enumerate_homs(path_graph(k + 1), target.graph)
        assert len(again) == len(original)


def test_wang_to_dhs_counts_match_wang_scopes():
    rng = random.Random(9)
    win = ball(2)
    for w in (comb_tileset(), random_wang_tileset(rng)):
        target = wang_to_dhs(w)
        direct = brute_tilings(win, w)
        homs = enumerate_homs(win.graph, target.graph)
        assert len(homs) == len(direct)


def test_wang_to_dhs_structure():
    w = comb_tileset()
    target = wang_to_dhs(w)
    g = target.graph
    assert g.num_vertices() == 6
    assert g.reversal is not None
    for e in g.edge_ids():
        lab = g.elabel[e]
        u, v = g.edges[e]
        if lab == "a":
            assert u[0] == v[2]
        elif lab == "b":
            assert u[1] == v[3]


def test_vertex_candidates_and_tile_count():
    w = comb_tileset()
    win = ball(1)
    assert tile_count(w) == 6
    assert vertex_candidates(w, win, identity()) == list(range(6))
    target = wang_to_dhs(w)
    assert tile_count(target) == 6
    assert vertex_candidates(target, win, identity()) == list(range(6))


def test_random_generators_deterministic():
    a = random_wang_tileset(random.Random(21))
    b = random_wang_tileset(random.Random(21))
    assert a == b
    c = random_tetra_system(random.Random(21))
    d = random_tetra_system(random.Random(21))
    assert c == d
    for t in c.allowed:
        assert _swap4(t) in c.allowed


def test_scope_counts_on_small_windows():
    win = ball(1)
    scopes = window_scopes(comb_tileset(), win)
    assert len(scopes) == 4  # two a-orbits and two b-orbits at the identity
    t_win = tetrahedron(0, 1)
    cell_scopes = window_scopes(wang_to_tetra(comb_tileset()), t_win)
    assert len(cell_scopes) == 1
    scope, _ = cell_scopes[0]
    assert len(scope) == 4
    assert set(scope) == set(t_win.points())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: WangTileset({"x"}, [("x",) * 4], names=("a", "b")),
                 "names do not match tiles", id="WangTileset-names"),
    pytest.param(lambda: TetraSystem(("x",), frozenset(), names=("a", "b")),
                 "names do not match alphabet", id="TetraSystem-names"),
    pytest.param(lambda: TetraSystem(("x", "x"), frozenset()),
                 "duplicate symbols", id="TetraSystem-symbols"),
    pytest.param(lambda: WangTileset({"x"}, [("x",) * 4],
                                     seeds=(((0, 0), 0),)),
                 "seed location (0, 0) is not a group point", id="seed"),
    pytest.param(lambda: parse_tile_ref(comb_tileset(), "9"),
                 "tile id 9 out of range", id="parse_tile_ref"),
    pytest.param(lambda: dhs_to_sft(wang_to_dhs(comb_tileset())),
                 "expected an oriented target", id="dhs_to_sft"),
    pytest.param(lambda: product_tileset(dl_ray_system(2, 2),
                                         ray_left_system()),
                 "products are for lamplighter cell systems",
                 id="product_tileset"),
    pytest.param(lambda: builtin_tileset("dl_ray:2"), "expected dl_ray:p:q",
                 id="builtin_tileset"),
])
def test_guards_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
