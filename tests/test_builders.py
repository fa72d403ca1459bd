"""Pinned output of the graph builders, and a brute-force check of
grid_patch.

Each pin is the sha256 of repr of a builder's vlabel/edges/elabel/reversal
item lists (and, for simulators, the alpha maps), so it fixes cells,
labels and dict insertion order together; a refactor of the builders must
leave every pin in place.
"""

import hashlib
import random

import pytest

from tilesim.geometry import (
    ball, canonical, cayley_label_graph, dl_label_graph, dl_window,
    grid_patch, plane_label_graph, plane_window, quadrant_label_graph,
    quadrant_vertex_label, quadrant_window, tetrahedron)
from tilesim.reduction import (
    halfplane_label_graph, halfplane_points, halfplane_vertex_label,
    halfplane_window)
from tilesim.simulation import (
    BUILTIN_SIMULATORS, builtin_simulator, quadrant_patch, rename_vertices,
    simulator_to_text)
from tilesim.tilesets import comb_tileset, wang_to_dhs

PLANE_POINTS = [(x, y) for x in range(-2, 4) for y in range(-1, 3)
                if (x * y) % 3 != 1][::-1]
QUADRANT_POINTS = [(x, y) for x in range(5) for y in range(4)
                   if x + 2 * y != 5][::-1]


def graph_items(g, *maps):
    rev = list(g.reversal.items()) if g.reversal is not None else None
    return [list(g.vlabel.items()), list(g.edges.items()),
            list(g.elabel.items()), rev] + [list(m.items()) for m in maps]


def simulator_items(name):
    s = builtin_simulator(name)
    return graph_items(s.graph, s.alpha.vmap, s.alpha.emap)


def dhs_items():
    target = wang_to_dhs(comb_tileset())
    return [graph_items(target.graph), target.seeds]


BUILDERS = {
    "plane_window": lambda: graph_items(plane_window(-1, 2, 0, 3)),
    "quadrant_window": lambda: graph_items(quadrant_window(4, 3)),
    "grid_patch_plane": lambda: graph_items(grid_patch(PLANE_POINTS)),
    "grid_patch_quadrant": lambda: graph_items(grid_patch(
        QUADRANT_POINTS, quadrant_vertex_label, quadrant_label_graph())),
    "quadrant_patch": lambda: graph_items(quadrant_patch(QUADRANT_POINTS)),
    "halfplane_window": lambda: graph_items(
        halfplane_window(halfplane_points(4))),
    "ball": lambda: graph_items(ball(3).graph),
    "tetrahedron": lambda: graph_items(tetrahedron(-2, 2).graph),
    "dl_window": lambda: graph_items(dl_window(2, 3, -1, 1).graph),
    "wang_to_dhs": dhs_items,
    "rename_vertices": lambda: graph_items(
        rename_vertices(ball(2).graph, canonical)),
    "cayley_label_graph": lambda: graph_items(cayley_label_graph()),
    "dl_label_graph": lambda: graph_items(dl_label_graph(2, 3)),
    "plane_label_graph": lambda: graph_items(plane_label_graph()),
    "quadrant_label_graph": lambda: graph_items(quadrant_label_graph()),
    "halfplane_label_graph": lambda: graph_items(halfplane_label_graph()),
}
for _name in BUILTIN_SIMULATORS:
    BUILDERS[_name] = lambda n=_name: simulator_items(n)
    BUILDERS[_name + "_text"] = \
        lambda n=_name: simulator_to_text(builtin_simulator(n))

PINS = {
    "plane_window": "c2ab3afa5f39ad73368a75f39630f7b0d2adb7f9ae382b506d9ccc8df58fd42e",
    "quadrant_window": "69f78bcfe2e54897538d7fc63f3766f5e27d8ad534c7f83918a13873aa0131c9",
    "grid_patch_plane": "1bd3d37b7e8ca222a8a20a91d96d599d51a468ac10e0fa03dd4320d920227f63",
    "grid_patch_quadrant": "b21a7ff1da89349810d5ae7bccf546f7766cb42c1f0d8019c6f757ac31968313",
    "quadrant_patch": "b21a7ff1da89349810d5ae7bccf546f7766cb42c1f0d8019c6f757ac31968313",
    "halfplane_window": "18f1d23cc7309a5d3f5cbe3a300e85b0a6bcd5e8073e5e436f6d5d91e8352f6c",
    "ball": "9bb7775769b31e30b4865ef9b4fd055692b0a6710f8e750ee4a56a1bc6541e6d",
    "tetrahedron": "0717bd16da1db98bc57126890a2bb2ecd8b4c26463a578e6c0bb0eed8b711b14",
    "dl_window": "60ad87c5899f6a491425a20ae6a82307ecfbb6fc473b482568e3e9febc598de8",
    "wang_to_dhs": "15d51fd079bb8b5cc875bbdf798e74dc3936509ac2f1dece47adc3c8bb4ceb3f",
    "rename_vertices": "7d6ab286c0d0b262f67dd2952b534ed08604d133c0a4e5a736f88c567d97ed1f",
    "cayley_label_graph": "5f23bd2223b9c538629cbdbe8eddc68d5f2856b6552510a2b1828915a1ec5a59",
    "dl_label_graph": "1ef03927bca3194ba64935ad36f4fdec8c5e4e8f96f88dfb589c124d98551fc7",
    "plane_label_graph": "fd3d3336c74d8ed36c9c94fe16e0be55d8096e77208e7bb777d56c94b771fa68",
    "quadrant_label_graph": "4c19c81babe42582d48f00cd14edac7f3437fcb718eb2881beb5b3dd7a9b8f6f",
    "halfplane_label_graph": "0ca8c3d4170282ec016af173d18c415c3aa0006abba3d4f435d178d72644651a",
    "quadrant_to_plane": "00d3d81fcc6814c5e96fa015e6ee1dcf3ef69103daa3e041a4ea3a289a0bed49",
    "quadrant_to_plane_text": "84a5bbb0045767f088ab72378d433283b56d399e54b63a9abe388b86b341b6f0",
    "comb_to_plane": "ed141029b9e5e15dc3aee699e4e601724c7c0548140006b59c7cce1ce430895b",
    "comb_to_plane_text": "4b5166db360246e119d5df61a81d20549b7a902a07fe0c3af7bfba4ffd01e13b",
    "sea_to_quadrant": "ab9a3bbfc667e70a7db7e75a553f527f89790acd1d1b4af2757f667d035cec63",
    "sea_to_quadrant_text": "27d994b5259fff01cc3f9289b0abc7ab53cbbb52e0c9293123f6a137aeb13ac6",
    "rectangle_compress": "c08ff60ae0b0f013ea65a2a7f9a17d16ac3ea512253d37819e5b62fd7df93d0f",
    "rectangle_compress_text": "63aeb7cd7aba56afe59f85d9f968b66106483a4550170472c191024cb1acd489",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_builder_output_is_pinned(name):
    digest = hashlib.sha256(repr(BUILDERS[name]()).encode()).hexdigest()
    assert digest == PINS[name]


def test_every_builder_is_pinned():
    assert set(BUILDERS) == set(PINS)


DIRECTION = {(1, 0): "E", (-1, 0): "W", (0, 1): "N", (0, -1): "S"}


@pytest.mark.parametrize("kind", ["plane", "quadrant", "halfplane"])
def test_grid_patch_matches_brute_force(kind):
    rng = random.Random(17)
    for _ in range(60):
        pts = {(rng.randrange(-4, 5), rng.randrange(-4, 5))
               for _ in range(rng.randrange(1, 40))}
        if kind == "plane":
            label, args = (lambda x, y: 1), ()
        elif kind == "quadrant":
            pts = {(abs(x), abs(y)) for x, y in pts}
            label = quadrant_vertex_label
            args = (label, quadrant_label_graph())
        else:
            pts = {(m, n) for m, n in pts if m >= n}
            label = halfplane_vertex_label
            args = (label, halfplane_label_graph())
        g = grid_patch(pts, *args)
        assert g.vlabel == {p: label(*p) for p in pts}
        want = {(p, q) for p in pts for q in pts
                if (q[0] - p[0], q[1] - p[1]) in DIRECTION}
        assert sorted(g.edges.values()) == sorted(want)
        for e, (p, q) in g.edges.items():
            d = DIRECTION[(q[0] - p[0], q[1] - p[1])]
            assert e == (p, d)
            if kind == "plane":
                assert g.elabel[e] == d
            else:
                assert g.elabel[e] == (d, label(*p), label(*q))
            r = g.reversal[e]
            assert r != e and g.reversal[r] == e
            assert g.edges[r] == (q, p)
