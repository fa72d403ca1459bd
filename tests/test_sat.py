import hashlib
import itertools
import random

import pytest

from tilesim.geometry import (
    ball, cell_points, dl_window, evaluate_word, identity, interior_vertices,
    tetrahedron, window_cells)
from tilesim.graphs import (
    CapacityError, alphabet, enumerate_homs, labelled, skey)
from tilesim.reduction import HalfPlaneTileset, reduce_halfplane
from tilesim.sat import (
    CnfInstance, Solver, TilingAssignment, count_tilings, encode,
    enumerate_tilings, exact_count, export_dimacs, forced_values,
    import_solution, solve_tiling, solver_for, _decode, _Domains,
    _instance, _point_str)
from tilesim.tilesets import (
    DhsTarget, TetraSystem, WangTileset, comb_configuration, comb_tileset,
    dl_ray_system, lr_system, omega_configuration, random_tetra_system,
    random_wang_tileset, ray_left_system, sea_level_system, tetra_to_wang,
    tile_count, tiling_ok, vertex_candidates, wang_to_dhs, wang_to_tetra,
    window_scopes)


def brute_tilings(window, ts):
    # independent ground truth: depth-first over points, checking scopes
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


def test_solver_basics():
    s = Solver(0)
    assert s.solve() == {}
    s = Solver(1)
    s.add_clause([1])
    s.add_clause([-1])
    assert s.solve() is None
    s = Solver(2)
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    model = s.solve()
    assert model[2] is True


def test_solver_deterministic_branching():
    s = Solver(3)
    s.add_clause([1, 2, 3])
    # nothing is forced, so the lowest variable is tried positively first
    assert s.solve() == {1: True, 2: True, 3: True}


def test_solver_assumptions():
    s = Solver(3)
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    m = s.solve((1,))
    assert m[1] and m[2] and m[3]
    assert s.solve((1, -3)) is None
    # the solver stays usable after an assumption failure
    m = s.solve((-1,))
    assert m[1] is False


def test_solver_learns_and_survives():
    # pigeonhole 3 pigeons, 2 holes: forces real conflict analysis
    s = Solver(6)
    for p in range(3):
        s.add_clause([2 * p + 1, 2 * p + 2])
    for h in (1, 2):
        for p1, p2 in itertools.combinations(range(3), 2):
            s.add_clause([-(2 * p1 + h), -(2 * p2 + h)])
    assert s.solve() is None
    assert s.solve() is None


def test_solver_stats_on_pigeonhole():
    s = Solver(6)
    for p in range(3):
        s.add_clause([2 * p + 1, 2 * p + 2])
    for h in (1, 2):
        for p1, p2 in itertools.combinations(range(3), 2):
            s.add_clause([-(2 * p1 + h), -(2 * p2 + h)])
    assert s.stats == {"decisions": 0, "conflicts": 0, "learned": 0,
                       "propagations": 0}
    assert s.solve() is None
    # deciding 1 implies 5 literals and a conflict, which teaches a unit;
    # at the root that unit implies 5 more and a second, final conflict
    assert s.stats == {"decisions": 1, "conflicts": 2, "learned": 1,
                       "propagations": 10}
    assert s.solve() is None
    assert s.stats["conflicts"] == 2


def test_solver_rejects_out_of_range_literals():
    for n, lits in ((3, [5]), (2, [0, 1]), (2, [1, -3]), (0, [1])):
        s = Solver(n)
        with pytest.raises(ValueError):
            s.add_clause(lits)
    s = Solver(1)
    s.add_clause([1])
    with pytest.raises(ValueError):
        s.add_clause([1, 2])  # satisfied, but 2 is still no variable
    s = Solver(2)
    for assumptions in ((3,), (0,), (1, -3)):
        with pytest.raises(ValueError):
            s.solve(assumptions)
    # nothing stuck: the solver still answers, over its own variables only
    s.add_clause([-1, 2])
    assert s.solve((1,)) == {1: True, 2: True}


@pytest.mark.parametrize("bad", [0, 1001, -1001])
def test_range_check_reads_past_the_first_slices(bad):
    # a unit first, then 10,000 valid clauses, then the one bad literal in
    # the last clause: nothing may be attached before the check reaches it
    clauses = [(1,)] + [(-v, v + 1) for v in range(1, 1000)] * 10
    clauses.append((2, bad))
    message = "literal %d outside" % bad
    with pytest.raises(ValueError, match="^" + message):
        solver_for(CnfInstance(1000, clauses))
    for given in (clauses, tuple(clauses), iter(clauses)):
        s = Solver(1000)
        with pytest.raises(ValueError, match="^" + message):
            s._add_clauses(given)
        assert s.db == [] and s.trail == []
        assert not any(s.watches)
        assert s.ok and s.vals == [None] * 2001


def _brute_sat(n, clauses, assumptions):
    for bits in itertools.product((False, True), repeat=n):
        val = lambda q: bits[abs(q) - 1] == (q > 0)
        if all(val(q) for q in assumptions) and \
                all(any(val(q) for q in cl) for cl in clauses):
            return True
    return False


def test_solver_against_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 8)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(rng.randint(1, 4))]
                   for _ in range(rng.randint(0, 5 * n))]
        s = Solver(n)
        for cl in clauses:
            s.add_clause(cl)
        for _ in range(4):
            assumptions = tuple(rng.choice((1, -1)) * rng.randint(1, n)
                                for _ in range(rng.randint(0, 3)))
            model = s.solve(assumptions)
            assert (model is not None) == _brute_sat(n, clauses, assumptions)
            if model is None:
                continue
            assert set(model) == set(range(1, n + 1))
            holds = lambda q: model[abs(q)] == (q > 0)
            assert all(holds(q) for q in assumptions)
            assert all(any(holds(q) for q in cl) for cl in clauses)
            if rng.random() < 0.5:
                block = [-v if model[v] else v for v in model]
                clauses.append(block)
                s.add_clause(block)


def test_encode_single_vertex_group():
    cnf = encode(ball(0), comb_tileset())
    assert cnf.num_vars == 6
    assert len(cnf.clauses) == 1 + 15  # at-least-one plus pairwise


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_encode_output_is_pinned():
    # variable numbering, clause order and literal order, blocking form
    cnf = encode(ball(2), comb_tileset())
    assert _sha256(export_dimacs(cnf)) == (
        "8b7a30f3abd5bad76e6dc95757388b514f68fcc3b9a027de7337793f7fbb79af")
    # and selector form
    cnf = encode(tetrahedron(0, 1), wang_to_tetra(comb_tileset()))
    assert _sha256(export_dimacs(cnf)) == (
        "53b0eba6a16338262367692fa7655e0a184cf0874116bc32b9e4a2eee7c60dc3")
    assert list(cnf.var_of.values()) == list(range(1, len(cnf.var_of) + 1))
    assert list(cnf.meaning) == list(cnf.var_of.values())


@pytest.mark.parametrize("window, ts", [
    (ball(2), comb_tileset()),  # pairwise groups, blocking clauses
    # sequential counters (28 candidates a point) and scope selectors
    (tetrahedron(-1, 1), sea_level_system())],
    ids=["blocking", "selector"])
def test_encode_holds_one_int_object_per_literal_value(window, ts):
    # Python caches only the ints -5..256, so every other negative literal
    # is a new object unless encode shares it
    cnf = encode(window, ts)
    lits = [q for cl in cnf.clauses for q in cl]
    lits += list(cnf.var_of.values()) + list(cnf.meaning)
    assert len({id(q) for q in lits}) == len(set(lits))


def test_enumeration_order_is_pinned():
    win = tetrahedron(0, 1)
    sols, complete = enumerate_tilings(win, comb_tileset())
    assert complete
    pts = sorted(win.points(), key=_point_str)
    assert [_point_str(p) for p in pts] == ["(0; 0)", "(0;)", "(1; 0)",
                                            "(1;)"]
    assert [tuple(s.values[p] for p in pts) for s in sols] == [
        (0, 3, 0, 1), (1, 2, 4, 1), (2, 1, 1, 4), (2, 2, 2, 2), (2, 4, 2, 4),
        (2, 5, 2, 5), (3, 0, 1, 0), (3, 5, 2, 3), (4, 2, 4, 2), (4, 4, 4, 4),
        (4, 5, 4, 5), (5, 2, 5, 2), (5, 3, 3, 2), (5, 4, 5, 4), (5, 5, 5, 5)]


# Solver.stats after the first solve() below, by radius
HALFPLANE_STATS = {
    4: {"decisions": 121, "conflicts": 10, "learned": 10,
        "propagations": 4351},
    5: {"decisions": 546, "conflicts": 24, "learned": 24,
        "propagations": 19249},
}


@pytest.mark.parametrize("radius, learned, true_vars", [
    (4, 0, "6861ae65c888df7f2ef691d8d7fd6de15b6f645e5f110c68917557d9b9126575"),
    (5, 2, "3587abe4ce5d6e338af9bd9a852e533a3525b1474be325b8b6e1fddb1f75e00a"),
])
def test_halfplane_search_is_pinned(radius, learned, true_vars):
    # the alternating set of the half-plane reduction makes the solver
    # search and learn; its first model, learned clauses and counters are
    # pinned, so any change to the order of propagation shows here.  The
    # CNF is the unseeded reduction's, which root propagation leaves whole,
    # and the seed comes last as a unit clause, so the solver sees the
    # clauses these values were pinned on.
    hp = HalfPlaneTileset(frozenset("cd"), (("c", "d", "c", "c"),
                                            ("c", "c", "c", "d")), 0)
    pi = reduce_halfplane(hp)
    cnf = encode(ball(radius), WangTileset(pi.colors, pi.tiles))
    s = solver_for(cnf)
    seed, = pi.seeds
    s.add_clause([cnf.var_of[seed]])
    loaded = len(s.db)
    model = s.solve()
    assert len(s.db) - loaded == learned
    assert s.stats == HALFPLANE_STATS[radius]
    assert set(model) == set(range(1, cnf.num_vars + 1))
    true = sorted(v for v, b in model.items() if b)
    assert _sha256(" ".join(map(str, true))) == true_vars


def test_encode_seed_errors():
    with pytest.raises(ValueError):
        encode(ball(0), comb_tileset(), seeds=((evaluate_word("aaa"), 0),))


def test_comb_seeded_ball_is_satisfiable():
    asg = solve_tiling(ball(2), comb_tileset(), seeds=((identity(), 0),))
    assert asg is not None
    assert asg.tile(identity()) == 0
    assert tiling_ok(ball(2), comb_tileset(), asg.values)


def test_enumerate_matches_brute_force():
    win = tetrahedron(0, 1)
    ts = comb_tileset()
    sols, complete = enumerate_tilings(win, ts)
    assert complete
    brute = brute_tilings(win, ts)
    assert sorted([s.values for s in sols], key=repr) == \
        sorted(brute, key=repr)
    again, _ = enumerate_tilings(win, ts)
    assert [s.values for s in again] == [s.values for s in sols]


def test_enumerate_limit_is_not_unsat():
    win = tetrahedron(0, 1)
    sols, complete = enumerate_tilings(win, comb_tileset(), limit=3)
    assert len(sols) == 3
    assert not complete
    with pytest.raises(CapacityError):
        count_tilings(win, comb_tileset(), limit=3)


def test_count_tilings_limit_is_a_bound():
    # The window has exactly 15 comb tilings: a limit of 15 is not exceeded,
    # and one of 14 reports the 15th tiling it found.
    win = tetrahedron(0, 1)
    assert count_tilings(win, comb_tileset(), limit=15) == 15
    with pytest.raises(CapacityError) as err:
        count_tilings(win, comb_tileset(), limit=14)
    assert str(err.value) == "more than 14 tilings"
    assert (err.value.what, err.value.size, err.value.budget) == (
        "tilings", 15, 14)


def test_exact_count_capacity_error_carries_numbers():
    with pytest.raises(CapacityError) as err:
        exact_count(tetrahedron(-1, 1), comb_tileset(), max_table=5)
    assert str(err.value) == "elimination table exceeds 5 entries"
    assert (err.value.what, err.value.size, err.value.budget) == (
        "elimination table entries", 9, 5)


def test_exact_count_capacity_error_on_a_ball_is_pinned():
    # The table sizes depend on the elimination order, min-degree with
    # ties to the lower point number, so this pins that order too.
    # Each error's size is the next bound; 50 entries is the largest table
    # the count builds.
    for bound, size in ((20, 21), (21, 33), (33, 50)):
        with pytest.raises(CapacityError) as err:
            exact_count(ball(3), comb_tileset(), max_table=bound)
        assert (err.value.what, err.value.size, err.value.budget) == (
            "elimination table entries", size, bound)
    assert exact_count(ball(3), comb_tileset(), max_table=50) == 26258463369


def test_counts_match_hom_counts():
    # tile assignments on a window are exactly graph homomorphisms into the
    # one-vertex-per-tile target
    for win in (ball(1), tetrahedron(0, 2)):
        for w in (comb_tileset(), random_wang_tileset(random.Random(13))):
            homs = enumerate_homs(win.graph, wang_to_dhs(w).graph)
            assert count_tilings(win, w) == len(homs)


def test_wang_tetra_counts_on_saturated_window():
    win = tetrahedron(0, 2)
    w = comb_tileset()
    assert count_tilings(win, w) == count_tilings(win, wang_to_tetra(w))


def test_wang_tetra_on_ball_window_injection():
    # ball windows carry edges whose cells stick out, so the converted
    # system keeps every tile solution (and, per the tileset tests, gains
    # strictly more)
    win = ball(2)
    w = comb_tileset()
    t = wang_to_tetra(w)
    wang_sols, complete = enumerate_tilings(
        win, w, seeds=((identity(), 0),))
    assert complete
    assert wang_sols
    for s in wang_sols:
        assert tiling_ok(win, t, s.values,
                         extra_seeds=((identity(), 0),))


def test_unsat_on_contradictory_seeds():
    seeds = ((identity(), 0), (identity(), 1))
    assert solve_tiling(ball(1), comb_tileset(), seeds) is None


def test_forced_values_soundness_and_seed():
    win = ball(3)
    ts = comb_tileset()
    forced = forced_values(win, ts, seeds=((identity(), 0),))
    inner = interior_vertices(win, 2)
    assert set(forced) == set(inner)
    assert forced[identity()] == (0,)
    for pt, feasible in forced.items():
        assert comb_configuration(pt) in feasible


def test_forced_values_unsat_instance():
    seeds = ((identity(), 0), (identity(), 1))
    forced = forced_values(ball(2), comb_tileset(), seeds)
    assert forced
    assert all(v == () for v in forced.values())


def test_forced_values_respects_depth():
    win = ball(3)
    shallow = forced_values(win, comb_tileset(), d=1)
    deep = forced_values(win, comb_tileset(), d=3)
    assert set(deep) < set(shallow)


def test_tilings_are_the_same_when_the_revision_memos_start_over(
        monkeypatch):
    # A memo of one revision starts over at almost every new domain tuple,
    # while propagation still reads the revision it just stored.
    from tilesim import sat
    full = sea_level_system()
    sea = full.alphabet.index(omega_configuration(identity()))
    cases = [(ball(2), comb_tileset(), ()),
             (ball(1), comb_tileset(), ((identity(), 0),)),
             (tetrahedron(-2, 2), full, ((identity(), sea),)),
             (dl_window(2, 3, -1, 1), dl_ray_system(2, 3), ())]

    def results():
        return [(enumerate_tilings(win, ts, seeds, limit=200),
                 count_tilings(win, ts, seeds, limit=10 ** 5),
                 forced_values(win, ts, seeds, d=1))
                for win, ts, seeds in cases]

    want = results()
    monkeypatch.setattr(sat, "_MEMO_LIMIT", 1)
    assert results() == want
    assert any(complete for (_, complete), _, _ in want)


def test_lr_seeded_window():
    ts = lr_system()
    both = ts.alphabet.index((True, True))
    win = tetrahedron(-2, 2)
    asg = solve_tiling(win, ts, seeds=((identity(), both),))
    assert asg is not None
    assert tiling_ok(win, ts, asg.values)
    assert asg.tile(identity()) == both


def test_dl_ray_window():
    ts = dl_ray_system(2, 2)
    win = dl_window(2, 2, 0, 2)
    top = ts.alphabet.index(True)
    asg = solve_tiling(win, ts, seeds=((identity(), top),))
    assert asg is not None
    assert tiling_ok(win, ts, asg.values)
    sols, complete = enumerate_tilings(win, ts)
    assert complete
    brute = brute_tilings(win, ts)
    assert sorted([s.values for s in sols], key=repr) == \
        sorted(brute, key=repr)


def test_export_dimacs_format():
    win = ball(1)
    cnf = encode(win, comb_tileset())
    text = export_dimacs(cnf)
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("p ")]
    assert head == ["p cnf %d %d" % (cnf.num_vars, len(cnf.clauses))]
    assert lines[0].startswith("c v 1 = ")
    clause_lines = [ln for ln in lines if not ln.startswith(("c", "p"))]
    assert len(clause_lines) == len(cnf.clauses)
    assert all(ln.endswith(" 0") for ln in clause_lines)


def test_import_solution_round_trip():
    win = ball(1)
    ts = comb_tileset()
    cnf = encode(win, ts)
    sols, _ = enumerate_tilings(win, ts, limit=1)
    model_lits = []
    for pt, t in sols[0].values.items():
        model_lits.append(cnf.var_of[(pt, t)])
    negs = [-v for v in range(1, cnf.num_vars + 1) if v not in model_lits]
    text = "s SATISFIABLE\nv %s 0\n" % " ".join(
        str(x) for x in sorted(model_lits) + negs)
    asg = import_solution(cnf, text, win)
    assert asg.values == sols[0].values
    assert tiling_ok(win, ts, asg.values)


def test_import_solution_errors():
    win = ball(0)
    cnf = encode(win, comb_tileset())
    with pytest.raises(ValueError):
        import_solution(cnf, "s UNSATISFIABLE\n", win)
    with pytest.raises(ValueError):
        import_solution(cnf, "v 1 banana 0\n", win)
    with pytest.raises(ValueError):
        import_solution(cnf, "c nothing here\n", win)
    # the CNF has 6 variables
    with pytest.raises(ValueError, match="v 1 999 0"):
        import_solution(cnf, "v 1 999 0\n", win)
    # a model that picks two tiles at one point is rejected
    with pytest.raises(ValueError):
        import_solution(cnf, "v 1 2 3 4 5 6 0\n", win)
    # so is a model that gives one variable both signs, on one line or two
    with pytest.raises(ValueError, match="variable 1 .*v 1 -1 -2"):
        import_solution(cnf, "v 1 -1 -2 -3 -4 -5 -6 0\n", win)
    with pytest.raises(ValueError, match="variable 2 .*v -2 0"):
        import_solution(cnf, "v 1 2 -3 -4 -5 -6\nv -2 0\n", win)


def test_import_solution_reads_a_bare_unsat_line():
    win = ball(0)
    with pytest.raises(ValueError, match="solver reported unsatisfiable"):
        import_solution(encode(win, comb_tileset()), "UNSAT\n", win)


def test_narrowing_to_a_disjoint_mask_changes_no_domain():
    d = _Domains([0b011, 0b011], [((0, 1), frozenset({(0, 0), (1, 1)}))])
    assert d.ok
    assert d.narrow(0, 0b100) is False
    assert d.dom == [0b011, 0b011] and d.trail == []


def test_instance_candidates_match_the_per_point_definition():
    # _instance computes candidates once per vertex label; they must be
    # vertex_candidates point by point, in points() order
    win = ball(3)
    for ts in (wang_to_dhs(comb_tileset()), comb_tileset(),
               sea_level_system()):
        cands = _instance(win, ts, ())[1]
        assert cands == [tuple(vertex_candidates(ts, win, pt))
                         for pt in win.points()]
    assert cands[0] == tuple(range(tile_count(sea_level_system())))


def test_engine_on_variables_that_are_not_window_points():
    # two variables per point of ball(1), its tile 2i and a copy 2i + 1,
    # over the values 0..2; the pair scopes tie each copy to its tile and
    # the copy at one end of a window edge to the tile at the other, so no
    # scope is a window scope
    win = ball(1)
    edges = [sc for sc, _ in _instance(win, comb_tileset(), ())[2]]
    pairs = list(itertools.product(range(3), repeat=2))
    rng = random.Random(7)
    found = set()
    for _ in range(12):
        dom = [rng.randrange(1, 8) for _ in range(2 * len(win.points()))]
        scopes = [((2 * i, 2 * i + 1),
                   frozenset(rng.sample(pairs, rng.randrange(3, 8))))
                  for i in range(len(win.points()))]
        scopes += [((2 * i + 1, 2 * j),
                    frozenset(rng.sample(pairs, rng.randrange(4, 9))))
                   for i, j in edges]
        brute = [vals for vals in itertools.product(
                     *[[t for t in range(3) if d >> t & 1] for d in dom])
                 if all(tuple(vals[v] for v in sc) in allowed
                        for sc, allowed in scopes)]
        eng = _Domains(dom, scopes)
        root = list(eng.dom)
        mark = len(eng.trail)
        assert list(eng.search()) == brute
        found.add(bool(brute))
        eng.undo(mark)
        assert eng.dom == root
        for v, d in enumerate(root):
            for t in range(3):
                if d >> t & 1:
                    eng.narrow(v, 1 << t)
                    eng.undo(mark)
                    assert eng.dom == root
    assert found == {True, False}


def test_import_solution_names_the_point_of_each_decode_error():
    # ball(1) has five points; a model line sets the tile variables it
    # lists, one tile per point unless a case changes that
    win = ball(1)
    cnf = encode(win, comb_tileset())
    pts = win.points()
    assert len(pts) == 5

    def decode(tiles):
        line = " ".join(str(cnf.var_of[(pt, t)])
                        for pt, ts in zip(pts, tiles) for t in ts)
        return import_solution(cnf, "v %s 0\n" % line, win)

    one = [(0,)] * 5
    assert decode(one).values == dict.fromkeys(pts, 0)
    cases = [
        # two tiles at the middle point
        (one[:2] + [(1, 4)] + one[3:], "two tiles at", 2),
        # two tiles at two points: the first in point order is named
        (one[:1] + [(2, 3)] + one[2:3] + [(0, 5)] + one[4:], "two tiles at",
         1),
        # no tile at the last point
        (one[:4] + [()], "no tile at", 4),
        # no tile at two points: the first in point order is named
        (one[:1] + [()] + one[2:3] + [()] + one[4:], "no tile at", 1),
        # a point with two tiles is named before an earlier one with none
        ([()] + one[1:3] + [(1, 2)] + one[4:], "two tiles at", 3),
    ]
    for tiles, what, i in cases:
        with pytest.raises(ValueError) as err:
            decode(tiles)
        assert str(err.value) == "%s %s" % (what, _point_str(pts[i]))


def test_assignment_dump_format():
    ts = comb_tileset()
    asg = TilingAssignment({identity(): 0, evaluate_word("a"): 4})
    text = asg.to_text()
    assert text.splitlines() == ["(0;) 0", "(1;) 4"]
    named = asg.to_text(ts)
    assert named.splitlines() == ["(0;) spine", "(1;) above"]


def test_exact_count_matches_enumeration():
    cases = [
        (ball(1), comb_tileset(), ()),
        (tetrahedron(0, 1), comb_tileset(), ()),
        (tetrahedron(0, 1), wang_to_tetra(comb_tileset()), ()),
        (ball(2), comb_tileset(), ((identity(), 0),)),
        (dl_window(2, 2, 0, 2), dl_ray_system(2, 2), ()),
    ]
    for win, ts, seeds in cases:
        sols, complete = enumerate_tilings(win, ts, seeds)
        assert complete
        assert exact_count(win, ts, seeds) == len(sols)


def test_exact_count_handles_large_counts():
    # ball(2) has 19060 unseeded comb tilings; elimination gets the number
    # without enumerating them
    n = exact_count(ball(2), comb_tileset())
    assert n == 19060
    homs = enumerate_homs(ball(2).graph, wang_to_dhs(comb_tileset()).graph)
    assert len(homs) == n


def test_exact_count_seed_handling():
    with pytest.raises(ValueError):
        exact_count(ball(0), comb_tileset(),
                    seeds=((evaluate_word("aaa"), 0),))
    clash = ((identity(), 0), (identity(), 1))
    assert exact_count(ball(1), comb_tileset(), seeds=clash) == 0


def test_round_trip_tile_count_formula():
    # converting cells to tiles multiplies boundary freedom in: each point
    # with no complete cell above it picks any matching above-cell, and
    # likewise below, so the tile count inflates by the exact product below
    win = tetrahedron(0, 1)
    t = ray_left_system()
    w = tetra_to_wang(t)
    cells = sorted(t.allowed, key=repr)
    f_above = lambda x: sum(1 for c in cells if c[0] == x)
    f_below = lambda y: sum(1 for c in cells if c[2] == y)
    covered_above = set()
    covered_below = set()
    for base in window_cells(win):
        al, be, ga, de = cell_points(base)
        covered_above.update((al, be))
        covered_below.update((ga, de))
    total = 0
    for sol in brute_tilings(win, t):
        term = 1
        for pt, sym_idx in sol.items():
            sym = t.alphabet[sym_idx]
            if pt not in covered_above:
                term *= f_above(sym)
            if pt not in covered_below:
                term *= f_below(sym)
        total += term
    assert count_tilings(win, w) == total
    assert total == 8
    assert len(brute_tilings(win, t)) == 3


def test_scope_selector_encoding_kicks_in():
    # a cell scope over 6 symbols has 1296 combinations; the selector form
    # must be chosen and the count must still be right
    win = tetrahedron(0, 1)
    ts = wang_to_tetra(comb_tileset())
    cnf = encode(win, ts)
    assert cnf.num_vars > 4 * 6
    assert count_tilings(win, ts) == len(brute_tilings(win, ts))


# -- the domain engine against the clause-learning solver -------------------------


def reference_enumeration(window, ts, seeds=(), limit=None):
    # the clause-learning path: solve, block the model, solve again
    cnf = encode(window, ts, seeds)
    s = solver_for(cnf)
    out = []
    while limit is None or len(out) < limit:
        model = s.solve()
        if model is None:
            break
        values = _decode(cnf, model, window).values
        out.append(values)
        s.add_clause([-cnf.var_of[key] for key in values.items()])
    return out


def reference_forced(window, ts, seeds=(), d=2):
    # one assumption per pending (point, tile) on the clause-learning
    # solver; every model found settles the pairs it shows feasible
    cnf = encode(window, ts, seeds)
    s = solver_for(cnf)
    inner = sorted(interior_vertices(window, d), key=skey)
    pending = {pt: set(vertex_candidates(ts, window, pt)) for pt in inner}
    feasible = {pt: set() for pt in inner}

    def harvest(model):
        values = _decode(cnf, model, window).values
        for pt in inner:
            pending[pt].discard(values[pt])
            feasible[pt].add(values[pt])

    model = s.solve()
    if model is not None:
        harvest(model)
        for pt in inner:
            for t in sorted(pending[pt]):
                if t in pending[pt]:
                    pending[pt].discard(t)
                    # a tile that root propagation rules out has no
                    # variable, and is infeasible
                    var = cnf.var_of.get((pt, t))
                    model = None if var is None else s.solve((var,))
                    if model is not None:
                        harvest(model)
    return {pt: tuple(sorted(feasible[pt])) for pt in inner}


HALFPLANE_SETS = (
    HalfPlaneTileset(frozenset("cd"), (("c", "d", "c", "c"),
                                       ("c", "c", "c", "d")), 0),
    HalfPlaneTileset(frozenset("cde"), (("c", "d", "c", "c"),
                                        ("c", "e", "c", "d")), 0),
)


def differential_instances():
    rng = random.Random(29)
    out = []
    for _ in range(8):
        w = random_wang_tileset(rng, rng.randint(2, 3), rng.randint(3, 6))
        out.append((rng.choice((ball(2), tetrahedron(-1, 1))), w))
        out.append((rng.choice((ball(1), ball(2))), wang_to_dhs(w)))
        t = random_tetra_system(rng, rng.randint(2, 3), rng.random())
        out.append((rng.choice((tetrahedron(-1, 1), tetrahedron(0, 2))), t))
    for hp in HALFPLANE_SETS:
        for r in (3, 4, 5):
            out.append((ball(r), reduce_halfplane(hp)))
    for i, (win, ts) in enumerate(out):
        seeds = ()
        if i % 3 == 0:
            seeds = ((identity(), rng.randrange(tile_count(ts))),)
        out[i] = (win, ts, seeds)
    return out


def test_enumeration_matches_the_clause_learning_solver_in_order():
    for win, ts, seeds in differential_instances():
        sols, complete = enumerate_tilings(win, ts, seeds, limit=200)
        want = reference_enumeration(win, ts, seeds, limit=201)
        assert complete == (len(want) < 201)
        assert [list(s.values.items()) for s in sols] == \
            [list(v.items()) for v in want[:200]]
        first = solve_tiling(win, ts, seeds)
        assert (first.values if first else None) == \
            (want[0] if want else None)


def test_encode_keeps_exactly_the_tiles_of_brute_force_tilings():
    # encode drops the tiles the engine's root propagation rules out, so
    # the differentials above share that propagation; brute force checks
    # it alone.  It lists the tilings of the set without seeds, so it runs
    # where those are few, and blocking enumeration where the seeded ones
    # are.
    pruned = 0
    for win, ts, seeds in differential_instances():
        if (ts.seeds or exact_count(win, ts) > 25000
                or exact_count(win, ts, seeds) > 2000):
            continue
        brute = [sol for sol in brute_tilings(win, ts)
                 if all(sol[pt] == t for pt, t in seeds)]
        cnf = encode(win, ts, seeds)
        used = {key for sol in brute for key in sol.items()}
        assert used <= cnf.var_of.keys()
        assert sorted(reference_enumeration(win, ts, seeds), key=repr) == \
            sorted(brute, key=repr)
        if brute and len(cnf.var_of) < sum(
                map(len, _instance(win, ts, seeds)[1])):
            pruned += 1
    # some checked instances have tilings and lose tiles to propagation
    assert pruned


def test_encode_of_a_refuted_instance_is_the_empty_clause():
    # the dead-end half-plane set: no tile continues east of the seed's
    cnf = encode(ball(3), reduce_halfplane(HALFPLANE_SETS[1]))
    assert cnf == CnfInstance(0, [()], {}, {})
    assert solver_for(cnf).solve() is None


def test_seeded_omega_full_is_rigid_in_the_cnf():
    # The paper's rigidity: the seed forces every tile, so root propagation
    # leaves one tile per point and the solver never branches.
    ts = sea_level_system()
    seeds = ((identity(), ts.alphabet.index(omega_configuration(identity()))),)
    win = tetrahedron(-2, 2)
    cnf = encode(win, ts, seeds)
    assert cnf.num_vars == len(cnf.var_of) == len(win.points())
    s = solver_for(cnf)
    model = s.solve()
    assert s.stats["decisions"] == 0
    values = _decode(cnf, model, win).values
    assert tiling_ok(win, ts, values, seeds)
    assert values == {pt: ts.alphabet.index(omega_configuration(pt))
                      for pt in win.points()}


@pytest.mark.parametrize("win, ts", [
    (ball(3), comb_tileset()),
    (tetrahedron(-2, 2), sea_level_system()),
])
def test_forced_values_match_assumption_probes(win, ts):
    # unseeded, so root propagation leaves choices and probes run
    forced = forced_values(win, ts, d=1)
    assert forced == reference_forced(win, ts, d=1)
    assert list(forced) == sorted(interior_vertices(win, 1), key=skey)
    assert any(len(v) > 1 for v in forced.values())


@pytest.mark.parametrize("h", [2, 3])
def test_sea_level_system_in_dl_mode_matches_cayley_mode(h):
    # The lamplighter is DL(2,2) and its cells are the DL(2,2) cells, so
    # the same allowed cells read as a DL system need no port: same
    # points, equal scopes and equal forced values with the omega seed.
    # The scopes are compared with ==, since their frozensets may print
    # in different orders.
    ts = sea_level_system()
    dl = TetraSystem(ts.alphabet, ts.allowed, mode="dl", p=2, q=2)
    cayley_win, dl_win = tetrahedron(-h, h), dl_window(2, 2, -h, h)
    assert set(dl_win.points()) == set(cayley_win.points())
    assert window_scopes(dl, dl_win) == window_scopes(ts, cayley_win)
    seeds = ((identity(), ts.alphabet.index(omega_configuration(identity()))),)
    forced = forced_values(dl_win, dl, seeds)
    assert forced and forced == forced_values(cayley_win, ts, seeds)


def two_label_target():
    # tile 0 ('x') fits every window vertex; tile 1 ('y') has a vertex
    # label no window vertex carries, so it is no vertex's candidate
    rev = {"a": "A", "A": "a", "b": "B", "B": "b"}
    base = alphabet([1, 2], {g: (1, 1) for g in "abAB"}, rev)
    return DhsTarget(labelled(base, {"x": 1, "y": 2},
                              {g: ("x", "x") for g in "abAB"},
                              {g: g for g in "abAB"}, rev))


@pytest.mark.parametrize("ts, seed", [
    (two_label_target(), 1),
    (comb_tileset(), 6),
    (comb_tileset(), -1),
    (comb_tileset(), 10 ** 9),
])
def test_seed_tile_that_is_no_candidate_is_unsatisfiable(ts, seed):
    seeds = ((identity(), seed),)
    assert solver_for(encode(ball(1), ts, seeds)).solve() is None
    assert solve_tiling(ball(1), ts, seeds) is None
    assert enumerate_tilings(ball(1), ts, seeds) == ([], True)
    assert count_tilings(ball(1), ts, seeds) == 0
    forced = forced_values(ball(2), ts, seeds, d=1)
    assert forced and all(v == () for v in forced.values())
    assert exact_count(ball(1), ts, seeds, max_table=1) == 0


def test_seed_outside_the_window_raises_everywhere():
    seeds = ((evaluate_word("aaa"), 0),)
    for call in (solve_tiling, enumerate_tilings, count_tilings,
                 forced_values, encode, exact_count):
        with pytest.raises(ValueError, match="outside the window"):
            call(ball(1), comb_tileset(), seeds)
