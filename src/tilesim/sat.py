"""Finite-window tilings as CNF.

encode() turns a window plus tileset into clauses over one variable per
(point, tile) pair: an exactly-one group per point, plus the fully-contained
constraint scopes of the tileset.  Scopes sharing a table and candidate lists
share one clause pattern, built once and renumbered per scope.  An embedded
clause-learning solver handles solving, enumeration (by blocking found
solutions) and forced-value queries (one assumption per candidate); it keeps
its state in flat lists indexed by literal or variable.  Everything is
deterministic: branching takes the lowest unassigned variable, trying it
positively first, so the same instance always produces the same models in
the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import operator

from .geometry import GroupPoint, canonical, interior_vertices
from .graphs import skey, CapacityError
from .tilesets import tile_label, vertex_candidates, window_scopes


@dataclass
class CnfInstance:
    """Clauses plus the meaning of the tiling variables.

    Variables 1..num_vars; var_of maps (point, tile id) to a variable and
    meaning inverts it.  Auxiliary variables (sequential counters, scope
    selectors) have no meaning entry.
    """

    num_vars: int = 0
    clauses: list = field(default_factory=list)
    var_of: dict = field(default_factory=dict)
    meaning: dict = field(default_factory=dict)


@dataclass
class TilingAssignment:
    """A total tile choice on a window, one tile id per point."""

    values: dict

    def tile(self, pt):
        return self.values[pt]

    def to_text(self, ts=None):
        lines = []
        for pt in sorted(self.values, key=_point_key):
            t = self.values[pt]
            shown = tile_label(ts, t) if ts is not None else t
            lines.append("%s %s" % (_point_str(pt), shown))
        return "\n".join(lines) + "\n"


def _point_str(pt):
    return canonical(pt) if isinstance(pt, GroupPoint) else repr(pt)


def _point_key(pt):
    return _point_str(pt)


_PAIRWISE_LIMIT = 8


def encode(window, ts, seeds=()):
    """CNF whose models are the tilings of the window.

    Per point: one variable per candidate tile, at-least-one, and at-most-one
    (pairwise up to 8 candidates, a sequential counter beyond).  Per scope:
    either one blocking clause per forbidden tuple or a selector variable per
    allowed tuple, whichever needs fewer clauses.  Seeds (the tileset's plus
    the extra ones) become unit clauses; a seed outside the window is an
    error.

    A point's tile variables are consecutive, so a scope's clauses depend
    only on its table and its points' candidate lists up to renumbering:
    each distinct (table, candidate lists) pattern is built once over local
    literals and instantiated per scope through a literal table.
    """
    cnf = CnfInstance()
    var_of, meaning, clauses = cnf.var_of, cnf.meaning, cnf.clauses
    pts = window.points()
    n = 0
    # point -> (first tile variable, candidate list id, candidate count)
    slot = {}
    cand_ids = {}
    for pt in pts:
        cs = tuple(vertex_candidates(ts, window, pt))
        slot[pt] = (n + 1, cand_ids.setdefault(cs, len(cand_ids)), len(cs))
        for t in cs:
            n += 1
            key = (pt, t)
            var_of[key] = n
            meaning[n] = key
    for pt in pts:
        first, _, k = slot[pt]
        group = tuple(range(first, first + k))
        clauses.append(group)
        if k <= _PAIRWISE_LIMIT:
            clauses.extend(itertools.combinations([-x for x in group], 2))
        else:
            regs = range(n + 1, n + k)
            n += k - 1
            clauses.append((-group[0], regs[0]))
            for i in range(1, k - 1):
                clauses.append((-regs[i - 1], regs[i]))
                clauses.append((-group[i], regs[i]))
                clauses.append((-group[i], -regs[i - 1]))
            clauses.append((-group[-1], -regs[-1]))
    cand_lists = list(cand_ids)
    patterns = {}
    for scope, allowed in window_scopes(ts, window):
        info = [slot[v] for v in scope]
        key = (allowed, tuple([cid for _, cid, _ in info]))
        pattern = patterns.get(key)
        if pattern is None:
            pattern = _scope_pattern([cand_lists[cid] for _, cid, _ in info],
                                     allowed)
            patterns[key] = pattern
        nsel, pickers = pattern
        lits = [0]
        for first, _, k in info:
            lits.extend(range(first, first + k))
        lits.extend(range(n + 1, n + 1 + nsel))
        n += nsel
        # local literal l maps to lits[l]; -l wraps round to the negation
        lits.extend([-x for x in reversed(lits[1:])])
        clauses.extend([pick(lits) for pick in pickers])
    cnf.num_vars = n
    for pt, t in tuple(ts.seeds) + tuple(seeds):
        if pt not in window:
            raise ValueError("seed %s lies outside the window"
                             % _point_str(pt))
        var = var_of.get((pt, t))
        if var is None:
            clauses.append(())
        else:
            clauses.append((var,))
    return cnf


def _scope_pattern(cand_lists, allowed):
    """One scope's clauses over local literals, as (selector count, list of
    clause pickers).  Local variables number the candidates position by
    position from 1, then the selectors; a picker maps encode's literal
    table to the clause's global literals."""
    local = []
    nxt = 0
    for cs in cand_lists:
        local.append({t: nxt + 1 + k for k, t in enumerate(cs)})
        nxt += len(cs)
    total = 1
    for cs in cand_lists:
        total *= len(cs)
    usable = [t for t in sorted(allowed)
              if all(x in m for x, m in zip(t, local))]
    forbidden = total - len(usable)
    selector_cost = len(usable) * (len(cand_lists) + 1) + 1
    out = []
    if forbidden <= selector_cost:
        # few tuples are forbidden, and then total is within a small factor
        # of the allowed count, so walking the product is affordable
        allowed_set = set(usable)
        for combo in itertools.product(*cand_lists):
            if combo not in allowed_set:
                out.append(tuple(-m[t] for m, t in zip(local, combo)))
        return 0, [_picker(c) for c in out]
    # one selector per allowed tuple; the exactly-one groups make the true
    # selector unique, so models stay one-to-one with tilings
    sels = range(nxt + 1, nxt + 1 + len(usable))
    for s, combo in zip(sels, usable):
        out.extend((-s, m[t]) for m, t in zip(local, combo))
    out.append(tuple(sels))
    # each tile choice names the selectors it tolerates, which lets unit
    # propagation prune scopes the way the blocking form would
    for i, (m, cs) in enumerate(zip(local, cand_lists)):
        support = {t: [] for t in cs}
        for s, combo in zip(sels, usable):
            support[combo[i]].append(s)
        for t in cs:
            out.append((-m[t], *support[t]))
    return len(usable), [_picker(c) for c in out]


def _picker(clause):
    if len(clause) >= 2:
        return operator.itemgetter(*clause)
    return lambda lits: tuple(lits[q] for q in clause)


# -- the solver -------------------------------------------------------------------


class Solver:
    """Small clause-learning SAT solver (watched literals, first-UIP
    learning, backjumping).  Deterministic: decisions take the lowest
    unassigned variable, positive phase first.  Assumptions are placed as
    the first decisions; learned clauses survive between calls.

    Literals are nonzero ints in [-nvars, nvars]; anything else is a
    ValueError.  State lives in flat lists.  vals and watches have
    2*nvars+1 slots indexed by the signed literal itself (Python's negative
    indexing puts -v at slot 2*nvars+1-v): vals[q] is True, False or None
    (unassigned) and watches[q] lists the db indices of the clauses
    watching q, which sit at positions 0 and 1 of the clause.  levels and
    reason are indexed by variable and only meaningful while it is
    assigned.  stats counts decisions (not assumptions), conflicts, learned
    clauses (units included) and propagations (implied literals).
    """

    def __init__(self, num_vars):
        self.nvars = num_vars
        size = 2 * num_vars + 1
        self.vals = [None] * size
        self.watches = [[] for _ in range(size)]
        self.levels = [0] * (num_vars + 1)
        self.reason = [None] * (num_vars + 1)
        self.db = []
        self.trail = []
        self.lim = []
        self.qhead = 0
        self.ok = True
        self.search_from = 1
        self.stats = {"decisions": 0, "conflicts": 0, "learned": 0,
                      "propagations": 0}

    def _check(self, lits):
        n = self.nvars
        for q in lits:
            if not q or q > n or q < -n:
                raise ValueError("literal %r outside 1..%d or its negation"
                                 % (q, n))

    def add_clause(self, lits):
        self._add_clauses((lits,))

    def _add_clauses(self, clauses):
        """Add clauses at the root level.  Each is simplified against the
        root assignment: a satisfied or tautological clause is dropped,
        false and repeated literals go, a unit is propagated at once, and an
        empty clause leaves the solver unsatisfiable for good.  A literal
        out of range is a ValueError, raised before any clause is added."""
        clauses = list(clauses)
        flat = list(itertools.chain.from_iterable(clauses))
        if flat and (min(flat) < -self.nvars or max(flat) > self.nvars
                     or 0 in flat):
            self._check(flat)
        if not self.ok:
            return
        vals, watches, db = self.vals, self.watches, self.db
        for lits in clauses:
            if len(lits) == 2:
                # the bulk of most instances: two free, distinct variables
                a, b = lits
                if vals[a] is None and vals[b] is None and a != b and a != -b:
                    watches[a].append(len(db))
                    watches[b].append(len(db))
                    db.append([a, b])
                    continue
            out = []
            for q in lits:
                val = vals[q]
                if val is None:
                    out.append(q)
                elif val:
                    break
            else:
                if len(set(map(abs, out))) < len(out):
                    out = _dedupe(out)
                    if out is None:
                        continue
                if len(out) > 1:
                    watches[out[0]].append(len(db))
                    watches[out[1]].append(len(db))
                    db.append(out)
                    continue
                if out:
                    self._enqueue(out[0], None)
                    if self._propagate() is None:
                        continue
                self.ok = False
                return

    def _attach(self, lits):
        ci = len(self.db)
        self.db.append(lits)
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)
        return ci

    def _enqueue(self, lit, reason):
        val = self.vals[lit]
        if val is not None:
            return val
        self.vals[lit] = True
        self.vals[-lit] = False
        v = lit if lit > 0 else -lit
        self.levels[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        vals, watches, db = self.vals, self.watches, self.db
        levels, reason, trail = self.levels, self.reason, self.trail
        lvl = len(self.lim)
        start = len(trail)
        qhead = self.qhead
        confl = None
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watches[neg]
            keep = watches[neg] = []
            for i, ci in enumerate(ws):
                cl = db[ci]
                first = cl[0]
                if first == neg:
                    first = cl[0] = cl[1]
                    cl[1] = neg
                val = vals[first]
                if val is True:
                    keep.append(ci)
                    continue
                if len(cl) > 2:
                    for k in range(2, len(cl)):
                        q = cl[k]
                        if vals[q] is not False:
                            # q takes over the watch
                            cl[1] = q
                            cl[k] = neg
                            watches[q].append(ci)
                            break
                    else:
                        k = 0  # nothing can: the clause is unit or false
                    if k:
                        continue
                keep.append(ci)
                if val is False:
                    keep.extend(ws[i + 1:])
                    confl = cl
                    break
                vals[first] = True
                vals[-first] = False
                v = first if first > 0 else -first
                levels[v] = lvl
                reason[v] = ci
                trail.append(first)
            if confl is not None:
                qhead = len(trail)
                self.stats["conflicts"] += 1
                break
        self.qhead = qhead
        self.stats["propagations"] += len(trail) - start
        return confl

    def _analyze(self, confl):
        levels, trail = self.levels, self.trail
        learnt = []
        seen = set()
        pathc = 0
        p = None
        idx = len(trail) - 1
        cur = len(self.lim)
        clause = confl
        while True:
            for q in clause:
                if q == p:
                    continue
                v = abs(q)
                if v in seen or levels[v] == 0:
                    continue
                seen.add(v)
                if levels[v] >= cur:
                    pathc += 1
                else:
                    learnt.append(q)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            pathc -= 1
            if pathc == 0:
                break
            clause = self.db[self.reason[abs(p)]]
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        bl = max(levels[abs(q)] for q in learnt[1:])
        k = max(range(1, len(learnt)), key=lambda i: levels[abs(learnt[i])])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, bl

    def _backjump(self, bl):
        lim, trail, vals = self.lim, self.trail, self.vals
        if len(lim) > bl:
            mark = lim[bl]
            del lim[bl:]
            low = self.search_from
            for q in trail[mark:]:
                vals[q] = vals[-q] = None
                v = q if q > 0 else -q
                if v < low:
                    low = v
            del trail[mark:]
            self.search_from = low
        self.qhead = len(trail)

    def _decide(self):
        vals, n = self.vals, self.nvars
        v = self.search_from
        while v <= n and vals[v] is not None:
            v += 1
        self.search_from = v
        return v if v <= n else None

    def solve(self, assumptions=()):
        """A model dict (var -> bool) or None; learned clauses are kept."""
        self._check(assumptions)
        if not self.ok:
            return None
        self._backjump(0)
        if self._propagate() is not None:
            self.ok = False
            return None
        vals, lim, trail, stats = self.vals, self.lim, self.trail, self.stats
        while True:
            confl = self._propagate()
            if confl is not None:
                if not lim:
                    self.ok = False
                    return None
                if len(lim) <= len(assumptions):
                    # cannot flip an assumption: unsatisfiable under them
                    self._backjump(0)
                    return None
                learnt, bl = self._analyze(confl)
                self._backjump(bl)
                stats["learned"] += 1
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return None
                else:
                    self._enqueue(learnt[0], self._attach(learnt))
                continue
            lvl = len(lim)
            if lvl < len(assumptions):
                lit = assumptions[lvl]
                val = vals[lit]
                lim.append(len(trail))
                if val is False:
                    self._backjump(0)
                    return None
                if val is None:
                    self._enqueue(lit, None)
                continue
            v = self._decide()
            if v is None:
                # trail order, which is the order the variables were set
                model = {abs(q): q > 0 for q in trail}
                self._backjump(0)
                return model
            lim.append(len(trail))
            stats["decisions"] += 1
            self._enqueue(v, None)


def _dedupe(lits):
    """lits without repeats, in first-seen order; None for a tautology."""
    seen = set()
    out = []
    for q in lits:
        if -q in seen:
            return None
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def solver_for(cnf):
    s = Solver(cnf.num_vars)
    s._add_clauses(cnf.clauses)
    return s


def _decode(cnf, model, window):
    values = {}
    for pt in window.points():
        values[pt] = None
    for var, (pt, t) in cnf.meaning.items():
        if model.get(var):
            if values.get(pt) is not None:
                raise ValueError("two tiles at %s" % _point_str(pt))
            values[pt] = t
    missing = [pt for pt, t in values.items() if t is None]
    if missing:
        raise ValueError("no tile at %s" % _point_str(missing[0]))
    return TilingAssignment(values)


def solve_tiling(window, ts, seeds=()):
    """The first tiling of the window, or None."""
    cnf = encode(window, ts, seeds)
    model = solver_for(cnf).solve()
    if model is None:
        return None
    return _decode(cnf, model, window)


def enumerate_tilings(window, ts, seeds=(), limit=None):
    """All tilings in deterministic order, as (solutions, complete).

    complete is False when a limit stopped the enumeration early, which is
    not the same thing as the instance being unsatisfiable.
    """
    cnf = encode(window, ts, seeds)
    s = solver_for(cnf)
    out = []
    while True:
        if limit is not None and len(out) >= limit:
            return out, False
        model = s.solve()
        if model is None:
            return out, True
        asg = _decode(cnf, model, window)
        out.append(asg)
        block = [-cnf.var_of[(pt, t)] for pt, t in asg.values.items()]
        s.add_clause(block)


def count_tilings(window, ts, seeds=(), limit=None):
    """The number of tilings; raises CapacityError when there are more
    than limit."""
    if limit is None:
        return len(enumerate_tilings(window, ts, seeds)[0])
    sols, _ = enumerate_tilings(window, ts, seeds, limit + 1)
    if len(sols) > limit:
        raise CapacityError("more than %d tilings" % limit, "tilings",
                            len(sols), limit)
    return len(sols)


def forced_values(window, ts, seeds=(), d=2, at=None):
    """Feasible tiles per deep-interior point: point -> sorted tile tuple.

    A point is deep interior when its whole d-ball lies in the window; a
    tile is feasible when the instance stays satisfiable with it pinned.
    Models found along the way settle other pending pairs for free.  With
    at= only the given points are queried (still restricted to the deep
    interior).
    """
    cnf = encode(window, ts, seeds)
    s = solver_for(cnf)
    inner = sorted(interior_vertices(window, d), key=skey)
    if at is not None:
        chosen = set(at)
        inner = [pt for pt in inner if pt in chosen]
    pending = {pt: set(vertex_candidates(ts, window, pt)) for pt in inner}
    feasible = {pt: set() for pt in inner}

    def harvest(model):
        asg = _decode(cnf, model, window)
        for pt in inner:
            t = asg.values[pt]
            if t in pending[pt]:
                pending[pt].discard(t)
                feasible[pt].add(t)

    model = s.solve()
    if model is not None:
        harvest(model)
        for pt in inner:
            for t in sorted(pending[pt]):
                if t not in pending[pt]:
                    continue
                m = s.solve((cnf.var_of[(pt, t)],))
                pending[pt].discard(t)
                if m is not None:
                    feasible[pt].add(t)
                    harvest(m)
    return {pt: tuple(sorted(feasible[pt])) for pt in inner}


# -- exact counting ---------------------------------------------------------------


def _join_factors(f1, f2):
    v1, t1 = f1
    v2, t2 = f2
    pos1 = {v: i for i, v in enumerate(v1)}
    shared = [(pos1[v], i) for i, v in enumerate(v2) if v in pos1]
    extra = [i for i, v in enumerate(v2) if v not in pos1]
    out_vars = v1 + tuple(v2[i] for i in extra)
    index = {}
    for a2, w2 in t2.items():
        key = tuple(a2[i] for _, i in shared)
        index.setdefault(key, []).append(
            (tuple(a2[i] for i in extra), w2))
    out = {}
    for a1, w1 in t1.items():
        key = tuple(a1[i] for i, _ in shared)
        for rest, w2 in index.get(key, ()):
            out[a1 + rest] = w1 * w2
    return out_vars, out


def _sum_out(factor, v):
    varlist, table = factor
    i = varlist.index(v)
    out_vars = varlist[:i] + varlist[i + 1:]
    out = {}
    for a, w in table.items():
        key = a[:i] + a[i + 1:]
        out[key] = out.get(key, 0) + w
    return out_vars, out


def exact_count(window, ts, seeds=(), max_table=10 ** 6):
    """The number of tilings, by sparse variable elimination.

    Independent of the clause solver: constraint scopes become weight-one
    tables, points are summed out in min-degree order, and the result is the
    product of the remaining constants.  Exact for any solution count, but
    the intermediate tables grow with the window's induced width; a table
    beyond max_table entries raises CapacityError.
    """
    for pt, _ in tuple(ts.seeds) + tuple(seeds):
        if pt not in window:
            raise ValueError("seed %s lies outside the window"
                             % _point_str(pt))
    pinned = {}
    for pt, t in tuple(ts.seeds) + tuple(seeds):
        if pt in pinned and pinned[pt] != t:
            return 0
        pinned[pt] = t
    factors = {}
    fid = 0
    for pt in window.points():
        cs = vertex_candidates(ts, window, pt)
        if pt in pinned:
            cs = [t for t in cs if t == pinned[pt]]
        factors[fid] = ((pt,), {(t,): 1 for t in cs})
        fid += 1
    for scope, allowed in window_scopes(ts, window):
        factors[fid] = (tuple(scope), {t: 1 for t in sorted(allowed)})
        fid += 1
    remaining = set(window.points())
    while remaining:
        touching = {}
        for f, (vs, _) in factors.items():
            for v in vs:
                touching.setdefault(v, set()).add(f)
        cheapest = min(
            remaining,
            key=lambda v: (len({u for f in touching.get(v, ())
                                for u in factors[f][0]}), skey(v)))
        fids = sorted(touching.get(cheapest, ()))
        joined = factors[fids[0]]
        for f in fids[1:]:
            joined = _join_factors(joined, factors[f])
            if len(joined[1]) > max_table:
                raise CapacityError("elimination table exceeds %d entries"
                                    % max_table, "elimination table entries",
                                    len(joined[1]), max_table)
        for f in fids:
            del factors[f]
        factors[fid] = _sum_out(joined, cheapest)
        fid += 1
        remaining.discard(cheapest)
    result = 1
    for vs, table in factors.values():
        result *= table.get((), 0)
    return result


# -- DIMACS interchange -----------------------------------------------------------


def export_dimacs(cnf):
    """DIMACS text with one comment per tiling variable."""
    lines = []
    for var in sorted(cnf.meaning):
        pt, t = cnf.meaning[var]
        lines.append("c v %d = %s %s" % (var, _point_str(pt), t))
    lines.append("p cnf %d %d" % (cnf.num_vars, len(cnf.clauses)))
    for cl in cnf.clauses:
        lines.append(" ".join(str(q) for q in cl) + " 0")
    return "\n".join(lines) + "\n"


def import_solution(cnf, text, window):
    """Decode an external solver's output into a tiling.

    Accepts "v"-prefixed model lines or bare literal lines; an explicit
    UNSATISFIABLE status, a malformed model line or a literal beyond
    cnf.num_vars is an error.
    """
    true_vars = set()
    saw_lits = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line == "SAT":
            continue
        if line.startswith("s"):
            if "UNSAT" in line:
                raise ValueError("solver reported unsatisfiable")
            continue
        if line == "UNSAT" or line.startswith("UNSAT"):
            raise ValueError("solver reported unsatisfiable")
        toks = line.split()
        if toks[0] == "v":
            toks = toks[1:]
        for tok in toks:
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError("malformed model line: %r" % raw)
            if abs(lit) > cnf.num_vars:
                raise ValueError("variable %d beyond %d in model line: %r"
                                 % (abs(lit), cnf.num_vars, raw))
            saw_lits = True
            if lit > 0:
                true_vars.add(lit)
    if not saw_lits:
        raise ValueError("no model in solver output")
    model = {v: (v in true_vars) for v in range(1, cnf.num_vars + 1)}
    return _decode(cnf, model, window)
