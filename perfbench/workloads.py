"""The benchmark's workloads.

Each workload has three parts:

- setup(seed, size): the builtin systems, targets and inputs a run needs,
  made from the seed.  Its cost, with the import of tilesim, is setup_s.
- run(state, tracer): one pass of the pipeline through tilesim's module
  functions.  Only this is timed; every call into tilesim sits in a span
  named "<layer>.<step>" after the module that does the work.
- check(state, output): the answer gates, a list of (name, passed).  They
  recompute what they compare against and run outside the timer.

size is "bench" for the measured runs and "tiny" for the self-tests, which
run every gate in seconds.
"""

from dataclasses import dataclass
import random
from typing import Callable

from tilesim.geometry import (ball, boundary_vertices, identity,
                              interior_vertices, tetrahedron)
from tilesim.graphs import CapacityError, enumerate_homs, induced_subgraph
from tilesim.reduction import (HalfPlaneTileset, decode_halfplane,
                               grid_wang_tilings, halfplane_points,
                               reduce_halfplane, star_violations)
from tilesim.sat import _decode, encode, exact_count, forced_values, solver_for
from tilesim.simulation import (apply_simulator, decorate_window,
                                edge_triples, quadrant_patch, rename_vertices,
                                sea_to_quadrant)
from tilesim.tilesets import (TetraSystem, WangTileset, comb_tileset,
                              omega_configuration, sea_level_system,
                              tiling_ok, wang_to_dhs, window_scopes)

# A run that raises one of these has failed its answer, not crashed the
# harness: tilesim signals a blown budget or a too-deep recursion this way.
PROGRAM_FAILURES = (RecursionError, CapacityError)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _solve(tr, window, ts, seeds=()):
    """encode, load, solve and decode; the tiling or None."""
    with tr.span("sat.encode"):
        cnf = encode(window, ts, seeds)
    tr.add("sat.vars", cnf.num_vars)
    tr.add("sat.clauses", len(cnf.clauses))
    with tr.span("sat.load"):
        solver = solver_for(cnf)
    learned = len(solver.db)
    with tr.span("sat.solve"):
        model = solver.solve()
    tr.add("sat.learned", len(solver.db) - learned)
    if model is None:
        return None
    with tr.span("sat.decode"):
        return _decode(cnf, model, window).values


# -- sea_pipeline: rigidity of seeded omega_full, then sea_to_quadrant ------------

SEA_HEIGHT = {"bench": 3, "tiny": 2}


def sea_setup(seed, size):
    base = sea_level_system()
    symbols = list(base.alphabet)
    random.Random(seed).shuffle(symbols)
    ts = TetraSystem(tuple(symbols), base.allowed)
    pin = ts.alphabet.index(omega_configuration(identity()))
    return {"h": SEA_HEIGHT[size], "ts": ts, "seeds": ((identity(), pin),),
            "sim": sea_to_quadrant()}


def sea_run(st, tr):
    ts, seeds = st["ts"], st["seeds"]
    with tr.span("geometry.window"):
        window = tetrahedron(-st["h"], st["h"])
        frontier = boundary_vertices(window)
    tr.add("geometry.points", len(window.graph.vlabel))
    with tr.span("tilesets.scopes"):
        scopes = window_scopes(ts, window)
    tr.add("tilesets.scopes", len(scopes))
    tiles = _solve(tr, window, ts, seeds)
    if tiles is None:
        return {"window": window, "tiles": None}
    with tr.span("tilesets.tiling_ok"):
        ok = tiling_ok(window, ts, tiles, seeds)
    with tr.span("sat.forced"):
        forced = forced_values(window, ts, seeds, d=2)
    tr.add("sat.forced_points", len(forced))
    tr.add("sat.forced_singletons", sum(len(v) == 1 for v in forced.values()))
    with tr.span("simulation.decorate"):
        decorated = decorate_window(window, ts, tiles)
    with tr.span("simulation.apply"):
        graph, incomplete = apply_simulator(decorated, st["sim"],
                                            frontier=frontier)
    n = len(graph.vlabel)
    tr.add("simulation.out_vertices", n)
    tr.add("simulation.incomplete", len(incomplete))
    tr.add("simulation.trusted_ratio", (n - len(incomplete)) / n if n else 0.0)
    return {"window": window, "tiles": tiles, "tiling_ok": ok,
            "forced": forced, "graph": graph, "incomplete": incomplete}


def sea_coords(pt):
    """(m, n) read off a marker-zero point: m from the lamps at and above
    the marker, n from those below; None for any other point."""
    if pt.marker != 0:
        return None
    m = n = 0
    for k, val in pt.digits:
        if val:
            if k >= 0:
                m += 1 << k
            else:
                n += 1 << (-1 - k)
    return (m, n)


def trusted_is_quadrant_patch(graph, incomplete):
    trusted = [v for v in graph.vlabel if v not in incomplete]
    coords = {v: sea_coords(v[0]) for v in trusted}
    points = set(coords.values())
    if not trusted or None in points or len(points) != len(trusted):
        return False
    renamed = rename_vertices(induced_subgraph(graph, trusted), coords.get)
    patch = quadrant_patch(points)
    return (renamed.vlabel == patch.vlabel
            and edge_triples(renamed) == edge_triples(patch))


def sea_check(st, out):
    tiles = out["tiles"]
    if tiles is None:
        return [("solved", False)]
    ts = st["ts"]
    deep = interior_vertices(out["window"], 2)
    omega = {pt: ts.alphabet.index(omega_configuration(pt)) for pt in deep}
    return [
        ("tiling_ok", out["tiling_ok"] is True),
        ("omega_on_deep_interior",
         bool(omega) and all(tiles[pt] == t for pt, t in omega.items())),
        ("forced_is_omega",
         out["forced"] == {pt: (t,) for pt, t in omega.items()}),
        ("trusted_quadrant_patch",
         trusted_is_quadrant_patch(out["graph"], out["incomplete"])),
    ]


# -- halfplane_search: the half-plane reduction with real solver search -----------

HALFPLANE_RADIUS = {"bench": 7, "tiny": 4}
BRUTE_FORCE_RADIUS = 3
# Tile 0 of each set is pinned at the corner.  The alternating set tiles the
# half-plane; in the dead-end set no tile continues east of tile 1.
HALFPLANE_SETS = (
    ("alternating", frozenset("cd"), (("c", "d", "c", "c"),
                                      ("c", "c", "c", "d"))),
    ("dead_end", frozenset("cde"), (("c", "d", "c", "c"),
                                    ("c", "e", "c", "d"))),
)


def halfplane_setup(seed, size):
    rng = random.Random(seed)
    instances = []
    for name, colors, tiles in HALFPLANE_SETS:
        order = list(range(len(tiles)))
        rng.shuffle(order)
        instances.append((name, HalfPlaneTileset(
            colors, tuple(tiles[i] for i in order), order.index(0))))
    return {"r": HALFPLANE_RADIUS[size], "instances": instances}


def halfplane_run(st, tr):
    with tr.span("geometry.window"):
        window = ball(st["r"])
    tr.add("geometry.points", len(window.graph.vlabel))
    results = []
    for name, hp in st["instances"]:
        with tr.span("reduction.reduce"):
            pi = reduce_halfplane(hp)
        tiles = _solve(tr, window, pi)
        res = {"name": name, "hp": hp, "sat": tiles is not None}
        if tiles is not None:
            with tr.span("tilesets.tiling_ok"):
                res["tiling_ok"] = tiling_ok(window, pi, tiles)
            with tr.span("reduction.decode"):
                res["grid"] = decode_halfplane(tiles, pi, hp)
            with tr.span("reduction.star"):
                res["star"] = star_violations(tiles, pi, hp)
            tr.add("reduction.grid_points", len(res["grid"]))
        results.append(res)
    return {"results": results}


def grid_matches_wang_colours(hp, grid, points):
    """The decoded grid covers exactly the points, keeps the seed tile at
    the corner and matches colours across every shared side."""
    if set(grid) != set(points) or grid.get((0, 0)) != hp.seed:
        return False
    for (m, n), idx in grid.items():
        t = hp.tiles[idx]
        east = grid.get((m + 1, n))
        if east is not None and t[1] != hp.tiles[east][3]:
            return False
        north = grid.get((m, n + 1))
        if north is not None and t[2] != hp.tiles[north][0]:
            return False
    return True


def halfplane_check(st, out):
    gates = []
    points = halfplane_points(st["r"])
    for res in out["results"]:
        hp, name = res["hp"], res["name"]
        brute = grid_wang_tilings(hp.tiles, halfplane_points(BRUTE_FORCE_RADIUS),
                                  seed=((0, 0), hp.seed), limit=1)
        gates.append((name + ".sat_agrees_with_brute_force",
                      res["sat"] == bool(brute)))
        if res["sat"]:
            gates += [
                (name + ".tiling_ok", res["tiling_ok"] is True),
                (name + ".no_star_violations", res["star"] == []),
                (name + ".grid_matches_wang_colours",
                 grid_matches_wang_colours(hp, res["grid"], points)),
            ]
    return gates


# -- comb_homs: the graph core, checked by variable elimination ------------------

COMB_RADIUS = {"bench": 2, "tiny": 1}
COMB_TILINGS = {2: 19060, 1: 81}
# Which Wang side an edge label matches against which side of its head tile.
_SIDES = {"a": (0, 2), "b": (1, 3), "A": (2, 0), "B": (3, 1)}


def comb_setup(seed, size):
    base = comb_tileset()
    order = list(range(len(base.tiles)))
    random.Random(seed).shuffle(order)
    comb = WangTileset(base.colors, tuple(base.tiles[i] for i in order),
                       names=tuple(base.names[i] for i in order))
    return {"r": COMB_RADIUS[size], "comb": comb, "target": wang_to_dhs(comb)}


def comb_run(st, tr):
    with tr.span("geometry.window"):
        window = ball(st["r"])
    tr.add("geometry.points", len(window.graph.vlabel))
    with tr.span("graphs.enumerate_homs"):
        homs = enumerate_homs(window.graph, st["target"].graph)
    tr.add("graphs.homs", len(homs))
    with tr.span("sat.exact_count"):
        count = exact_count(window, st["comb"])
    return {"window": window, "homs": homs, "count": count}


def homs_are_distinct_tilings(window, homs):
    """Every hom's vertex map is a Wang tiling of the window, and no two
    homs share one (the target has one edge per matching tile pair, so the
    vertex map determines the hom)."""
    g = window.graph
    for h in homs:
        for e, (t, hd) in g.edges.items():
            i, j = _SIDES[g.elabel[e]]
            if h.vmap[t][i] != h.vmap[hd][j]:
                return False
    return len({frozenset(h.vmap.items()) for h in homs}) == len(homs)


def comb_check(st, out):
    expected = COMB_TILINGS[st["r"]]
    return [
        ("homs_equal_exact_count", len(out["homs"]) == out["count"]),
        ("exact_count_is_%d" % expected, out["count"] == expected),
        ("homs_are_distinct_tilings",
         homs_are_distinct_tilings(out["window"], out["homs"])),
    ]


WORKLOADS = {
    # Why each workload was chosen is in README.md and BENCHMARK.json.
    "sea_pipeline": Workload(sea_setup, sea_run, sea_check),
    "halfplane_search": Workload(halfplane_setup, halfplane_run,
                                 halfplane_check),
    "comb_homs": Workload(comb_setup, comb_run, comb_check),
}
