"""Half-plane Wang problems and their transfer to the lamplighter group.

A half-plane tileset is a plain Wang tile set read on the grid half-plane
{(m, n) : m >= n}, with one tile pinned at the corner (0, 0).  The point
(m, n) sits at the group element a^n b^(m-n), so the diagonal runs along
the spine and each row climbs a tooth.  reduce_halfplane builds a seeded
Wang problem on the group whose first layer is always a comb tile; the
comb forcing pins the backbone, and a second layer of short colour words
threads the grid colours along it.  decode_halfplane and star_violations
read a grid tiling back off a group solution and audit the bookkeeping
copies kept on the mirrored side of the spine.

tileset_exponential moves graph-tiling problems the other way along a
simulator: tilings by the exponential target correspond to tilings of the
simulated window by the original target, with absorbing sinks standing in
for runs that fall off the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import evaluate_word, grid_alphabet, grid_patch, identity
from .graphs import (CapacityError, backtrack, exponential, read_lines, sharp,
                     skey, _fmt, _naming_line, _parse_token)
from .tilesets import (COMB_TILE_NAMES, DhsTarget, WangTileset,
                       comb_configuration, comb_tileset, lamp_runs)


@dataclass(eq=True)
class HalfPlaneTileset:
    """Wang tiles read on the grid half-plane {(m, n) : m >= n}.

    tiles is an ordered tuple of (south, east, north, west) colour
    quadruples; vertical neighbours match north against south, horizontal
    ones east against west.  seed is the index of the tile pinned at the
    corner (0, 0).
    """

    colors: frozenset
    tiles: tuple
    seed: int = 0

    def __post_init__(self):
        self.colors = frozenset(self.colors)
        self.tiles = tuple(tuple(t) for t in self.tiles)
        if len(set(self.tiles)) != len(self.tiles):
            raise ValueError("duplicate tiles")
        for t in self.tiles:
            if len(t) != 4:
                raise ValueError("a tile carries four side colours")
            for c in t:
                if c not in self.colors:
                    raise ValueError("tile colour %r not declared" % (c,))
        if not isinstance(self.seed, int) \
                or not 0 <= self.seed < len(self.tiles):
            raise ValueError("seed tile out of range")


def halfplane_to_text(hp):
    """Line format: kind, colour list, one tile line per tile in order,
    and the seed tile index."""
    lines = ["kind halfplane", "colors " + " ".join(
        map(_fmt, sorted(hp.colors, key=skey)))]
    lines += ["tile " + " ".join(map(_fmt, t)) for t in hp.tiles]
    return "\n".join(lines + ["seedtile %d" % hp.seed]) + "\n"


def halfplane_from_text(text):
    """Read halfplane_to_text's format; '#' starts a comment.  Keys: kind
    (1 value, halfplane; optional), colors (any number of values), tile (4
    colours) and seedtile (1 tile index); all but tile are once-only.
    Raises ValueError naming the line on a malformed or repeated line, a
    tile with an undeclared colour or a seed tile out of range."""
    what = "half-plane"
    records = read_lines(text, what, {"kind": (1,), "colors": None,
                                      "tile": (4,), "seedtile": (1,)},
                         ("kind", "colors", "seedtile"))
    line = {key: (raw, values) for raw, key, values in records}
    if not {"colors", "tile", "seedtile"} <= line.keys():
        raise ValueError("colors, tile and seedtile lines are all required")
    tiles = {}  # tile -> None, in line order
    colors = frozenset(map(_parse_token, line["colors"][1]))
    for raw, key, values in records:
        with _naming_line(what, raw):
            if key == "kind" and values != ["halfplane"]:
                raise ValueError("not a half-plane tileset")
            if key == "tile":
                tile = tuple(map(_parse_token, values))
                if tile in tiles:
                    raise ValueError("repeated tile")
                for c in tile:
                    if c not in colors:
                        raise ValueError("tile colour %r not declared" % (c,))
                tiles[tile] = None
    raw, values = line["seedtile"]
    with _naming_line(what, raw):
        seed = int(values[0])
        if not 0 <= seed < len(tiles):
            raise ValueError("seed tile out of range")
    return HalfPlaneTileset(colors, tuple(tiles), seed)


def halfplane_points(r):
    """Grid points (m, n) whose group image under embed_halfplane lies in
    ball(r): m >= n and |n| + (m - n) <= r, sorted."""
    out = []
    for n in range(-r, r + 1):
        for m in range(n, n + r - abs(n) + 1):
            out.append((m, n))
    return tuple(sorted(out))


def embed_halfplane(m, n):
    """The group element a^n b^(m-n) standing for grid point (m, n)."""
    if m < n:
        raise ValueError("grid point outside the half-plane")
    word = ("a" * n if n >= 0 else "A" * -n) + "b" * (m - n)
    return evaluate_word(word)


def grid_wang_tilings(tiles, points, seed=None, limit=None):
    """All matchings of (south, east, north, west) tiles on a finite set
    of grid points, in deterministic order, as dicts point -> tile index.

    Only sides shared by two points in the set constrain anything; seed
    pins one (point, index) pair, and a point outside the set or an index
    outside the tiles is a ValueError.  With limit the search stops early,
    so a truncated result does not mean the full list was found.
    """
    tiles = tuple(tuple(t) for t in tiles)
    order = sorted(points)
    if seed is not None and seed[0] not in order:
        raise ValueError("seed point %r is not among the points" % (seed[0],))
    if seed is not None and not 0 <= seed[1] < len(tiles):
        raise ValueError("seed tile %r out of range" % (seed[1],))
    if limit is not None and limit <= 0:
        return []
    rows = [(seed[1],) if seed is not None and pt == seed[0]
            else range(len(tiles)) for pt in order]
    # Per position, the earlier neighbours as (position, this tile's side,
    # that tile's matching side); sides are (south, east, north, west).
    pos = {pt: i for i, pt in enumerate(order)}
    sides = {(-1, 0): (3, 1), (0, -1): (0, 2), (1, 0): (1, 3), (0, 1): (2, 0)}
    nbrs = [[(pos[(m + dm, n + dn)], mine, theirs)
             for (dm, dn), (mine, theirs) in sides.items()
             if pos.get((m + dm, n + dn), i) < i]
            for i, (m, n) in enumerate(order)]

    def fits(img, i):
        t = tiles[img[i]]
        return all(tiles[img[j]][theirs] == t[mine]
                   for j, mine, theirs in nbrs[i])

    out = []
    for img in backtrack(rows, fits):
        out.append(dict(zip(order, img)))
        if len(out) == limit:
            break
    return out


HALFPLANE_LABELS = ("ES", "NESW")


def halfplane_vertex_label(m, n):
    return "ES" if m == n else "NESW"


def halfplane_label_graph():
    """Alphabet for the half-plane m >= n: diagonal vertices only continue
    east and south, everything else has all four directions."""
    return grid_alphabet(HALFPLANE_LABELS, {
        "E": [("ES", "NESW"), ("NESW", "NESW")],
        "N": [("NESW", "ES"), ("NESW", "NESW")]})


def halfplane_window(points):
    """Grid patch of the half-plane over the two-label alphabet."""
    if any(m < n for m, n in points):
        raise ValueError("grid point outside the half-plane")
    return grid_patch(points, halfplane_vertex_label, halfplane_label_graph())


def _second_layers(t):
    """Colour-word quadruples, in comb tile order, for one grid tile."""
    i, j, k, l = t
    ik = (i, k)
    eps = ()
    return (
        (eps, (j,), eps, (i,)),   # spine: the diagonal cell (n, n)
        (eps, (j,), ik, (l,)),    # tooth: the cell itself
        (ik, eps, ik, eps),       # web: hands the cell's column memo down
        (ik, (k,), eps, (i,)),    # antitooth: the memo parked at the mirror
        (eps, eps, eps, eps),     # above
        (eps, eps, eps, eps),     # below
    )


def _first_layer(tile):
    return tuple(side[0] for side in tile)


def _second_layer(tile):
    return tuple(side[1] for side in tile)


def halfplane_product_tiles(hp):
    """The raw two-layer product tiles, six per grid tile in grid-tile
    order, before deduplication.  Each side is a pair of a comb colour and
    a colour word (a tuple over hp.colors of length at most two)."""
    comb = comb_tileset()
    out = []
    for t in hp.tiles:
        for base, extra in zip(comb.tiles, _second_layers(t)):
            out.append(tuple(zip(base, extra)))
    return out


def reduce_halfplane(hp):
    """The seeded group Wang problem standing for hp.

    Product tiles are deduplicated in first-appearance order; the seed
    pins the spine product of hp's seed tile at the identity, which plays
    the corner (0, 0).
    """
    raw = halfplane_product_tiles(hp)
    tiles = []
    index = {}
    for t in raw:
        if t not in index:
            index[t] = len(tiles)
            tiles.append(t)
    colors = set()
    for t in tiles:
        colors.update(t)
    seed = index[raw[6 * hp.seed]]
    return WangTileset(frozenset(colors), tuple(tiles),
                       seeds=((identity(), seed),))


def decode_halfplane(assignment, pi, hp):
    """Grid tiles read back off a group solution, as (m, n) -> hp index.

    A tooth product at a^n b^m carries the full quadruple of (m + n, n).
    A spine product at a^n only shows the south and east colours of
    (n, n); the first hp tile matching them is reported, except at the
    corner where the seed is pinned.  Product tiles sitting anywhere else
    say nothing about the grid and are skipped.  Each grid point has one
    such point, so the assignment's order does not matter.
    """
    comb = comb_tileset()
    fam = {t: i for i, t in enumerate(comb.tiles)}
    out = {}
    for pt, idx in assignment.items():
        tile = pi.tiles[idx]
        name = COMB_TILE_NAMES[fam[_first_layer(tile)]]
        words = _second_layer(tile)
        if name == "tooth" and comb_configuration(pt) == 1:
            (lo, hi), = lamp_runs(pt)
            i, k = words[2]
            out[(hi + 1, lo)] = hp.tiles.index((i, words[1][0], k,
                                                words[3][0]))
        elif name == "spine" and comb_configuration(pt) == 0:
            n = pt.marker
            if n == 0:
                out[(0, 0)] = hp.seed
                continue
            i, j = words[3][0], words[1][0]
            for ti, t in enumerate(hp.tiles):
                if t[0] == i and t[1] == j:
                    out[(n, n)] = ti
                    break
    return out


def star_violations(assignment, pi, hp):
    """Bookkeeping failures of a group solution.

    Every decoded grid tile at (m, n) must be echoed at the mirror point
    a^m b^(n-m): for m > n the b-word there is the tile's north colour and
    the b^-1-word its south colour; on the diagonal the point is its own
    mirror and only the south colour applies.  Returns a list of
    (grid point, side, wanted colour, found word) tuples; mirrors outside
    the solved window are skipped.
    """
    out = []
    for (m, n), ti in sorted(decode_halfplane(assignment, pi, hp).items()):
        i, j, k, l = hp.tiles[ti]
        word = ("a" * m if m >= 0 else "A" * -m) + "B" * (m - n)
        mirror = evaluate_word(word)
        if mirror not in assignment:
            continue
        words = _second_layer(pi.tiles[assignment[mirror]])
        if m > n and words[1] != (k,):
            out.append(((m, n), "N", k, words[1]))
        if words[3] != (i,):
            out.append(((m, n), "S", i, words[3]))
    return out


def tileset_exponential(f, s, max_cells=10 ** 5, budget=10 ** 6):
    """The target over the simulator's source alphabet whose tilings stand
    for f-tilings of simulated windows.

    The target graph is completed with absorbing sinks before the graph of
    local maps is taken, so runs that fall off a finite window still have
    somewhere to go.  Raises CapacityError past max_cells vertices, with
    the sizes that drove the blowup.
    """
    if not isinstance(f, DhsTarget):
        raise ValueError("tileset_exponential wants a DhsTarget")
    sharped = sharp(f.graph)
    try:
        g = exponential(sharped, s.graph, s.alpha,
                        max_cells=max_cells, budget=budget)
    except CapacityError as err:
        raise CapacityError(
            "%s (target %d vertices, %d with sinks, simulator %d states)"
            % (err, f.graph.num_vertices(), sharped.num_vertices(),
               s.graph.num_vertices()), err.what, err.size, err.budget
        ) from None
    return DhsTarget(g)
