"""Finite-window tilings: a CSP engine, CNF and exact counting.

The engine, _Domains, is a CSP over numbered variables: a bitmask domain
per variable and table scopes, each a tuple of distinct variables with a
frozenset of allowed value tuples.  It keeps generalised arc consistency
with an AC-3 queue and searches depth first, iteratively, branching on the
lowest undecided variable and its smallest value first, so solutions come
in lexicographic order of their values.  It knows no window or tileset.

_instance numbers a tiling instance off the window's numbered form (see
Window): points in window.points() order, their candidate tiles, scopes
over point numbers and seeds as (number, tile).  _domains makes it the
engine's input, one variable per point, and is the one place a seed
narrows a domain.  solve_tiling, enumerate_tilings, count_tilings,
forced_values and exact_count read _domains, so tilings come in
lexicographic order of their tile ids read in window.points() order.

encode() reads _instance and builds clauses over one variable per (point,
tile) pair: an exactly-one group per point, plus the scopes.  Scopes
sharing a table and candidate lists share one clause pattern, built once
and renumbered per scope.  The CNF goes out as DIMACS (export_dimacs,
import_solution) and into the embedded clause-learning Solver, which keeps
its state in flat lists indexed by literal or variable.  Its watch lists
hold ints: a two-literal clause (most clauses of every encoding) is
entered as its other literal, which is also the reason it records when it
implies, and a longer clause as nvars + 1 + its index in the clause list.
encode numbers variables point by point and tile by tile, and the solver
sets the lowest free variable true first, so blocking each model it finds
gives the engine's order; the tests compare the two model for model.
exact_count() counts by variable elimination, independently of both.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
import heapq
import itertools

from .geometry import GroupPoint, canonical, _inside
from .graphs import CapacityError, _tuple_getter
from .tilesets import tile_label, _candidates, _scopes


@dataclass
class CnfInstance:
    """Clauses plus the meaning of the tiling variables.

    Variables 1..num_vars; var_of maps (point, tile id) to a variable and
    meaning inverts it.  Auxiliary variables (sequential counters, scope
    selectors) have no meaning entry.  From encode, the clauses are tuples
    that hold one int object per literal value: every occurrence of v or
    -v in them, and v in var_of and meaning, is the same object.
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
        for pt in sorted(self.values, key=_point_str):
            t = self.values[pt]
            shown = tile_label(ts, t) if ts is not None else t
            lines.append("%s %s" % (_point_str(pt), shown))
        return "\n".join(lines) + "\n"


def _point_str(pt):
    return canonical(pt) if isinstance(pt, GroupPoint) else repr(pt)


def _instance(window, ts, seeds):
    """(points, cands, scopes, pins): window.points() (so numbers follow
    skey order), each point's candidate tuple, window_scopes over point
    numbers, and the tileset's then the extra seeds as (number, tile).  A
    seed outside the window is a ValueError."""
    index = window._index
    pins = []
    for pt, t in tuple(ts.seeds) + tuple(seeds):
        i = index.get(pt)
        if i is None:
            raise ValueError("seed %s lies outside the window"
                             % _point_str(pt))
        pins.append((i, t))
    return window.points(), _candidates(ts, window), _scopes(ts, window), pins


def _domains(window, ts, seeds):
    """(points, domains, scopes): _instance as the engine's input, each
    point's candidates as one bitmask with its seeds applied.  This is the
    one place a seed narrows a domain: it keeps only the seed tile, so a
    seed tile that is no candidate of its point (out of range included),
    or two seeds that clash, empty the domain."""
    pts, cands, scopes, pins = _instance(window, ts, seeds)
    dom = [sum(1 << t for t in cs) for cs in cands]
    for i, t in pins:
        dom[i] &= 1 << t if t in range(dom[i].bit_length()) else 0
    return pts, dom, scopes


def _bits(mask):
    """The positions of mask's set bits, ascending."""
    return tuple(t for t in range(mask.bit_length()) if mask >> t & 1)


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

    Memory: variables are numbered into one table of int objects, one for
    v and one for -v, and every clause takes its literals from it, so the
    clauses hold as many ints as distinct literal values, not one per
    occurrence.
    """
    pts, cands, scopes, pins = _instance(window, ts, seeds)
    cnf = CnfInstance()
    var_of, meaning, clauses = cnf.var_of, cnf.meaning, cnf.clauses
    # pos[v] and neg[v] hold the one int object of v and of -v; every
    # literal of every clause is taken from them
    pos, neg = [0], [0]

    def number(k):
        """Number k new variables and return the first."""
        first = len(pos)
        pos.extend(range(first, first + k))
        neg.extend(range(-first, -first - k, -1))
        return first

    # per point: (first tile variable, candidate list id, candidate count)
    slot = []
    cand_ids = {}
    for pt, cs in zip(pts, cands):
        first = number(len(cs))
        slot.append((first, cand_ids.setdefault(cs, len(cand_ids)), len(cs)))
        for t, v in zip(cs, pos[first:]):
            key = (pt, t)
            var_of[key] = v
            meaning[v] = key
    for first, _, k in slot:
        clauses.append(tuple(pos[first:first + k]))
        ngroup = neg[first:first + k]
        if k <= _PAIRWISE_LIMIT:
            clauses.extend(itertools.combinations(ngroup, 2))
        else:
            r = number(k - 1)
            regs, nregs = pos[r:], neg[r:]
            clauses.append((ngroup[0], regs[0]))
            for i in range(1, k - 1):
                clauses.append((nregs[i - 1], regs[i]))
                clauses.append((ngroup[i], regs[i]))
                clauses.append((ngroup[i], nregs[i - 1]))
            clauses.append((ngroup[-1], nregs[-1]))
    cand_lists = list(cand_ids)
    patterns = {}
    for scope, allowed in scopes:
        info = [slot[i] for i in scope]
        key = (allowed, tuple([cid for _, cid, _ in info]))
        pattern = patterns.get(key)
        if pattern is None:
            pattern = _scope_pattern([cand_lists[cid] for _, cid, _ in info],
                                     allowed)
            patterns[key] = pattern
        nsel, pickers = pattern
        lits, negs = [0], []
        for first, _, k in info:
            lits += pos[first:first + k]
            negs += neg[first:first + k]
        first = number(nsel)
        lits += pos[first:]
        negs += neg[first:]
        # local literal l maps to lits[l]; -l wraps round to the negation
        lits += reversed(negs)
        clauses.extend([pick(lits) for pick in pickers])
    cnf.num_vars = len(pos) - 1
    for i, t in pins:
        var = var_of.get((pts[i], t))
        clauses.append(() if var is None else (var,))
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
        return 0, [_tuple_getter(c) for c in out]
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
    return len(usable), [_tuple_getter(c) for c in out]


# -- the solver -------------------------------------------------------------------

# clauses per slice that Solver._add_clauses flattens to range-check
_CHECK_CHUNK = 4096


class Solver:
    """Small clause-learning SAT solver (watched literals, first-UIP
    learning, backjumping).  Deterministic: decisions take the lowest
    unassigned variable, positive phase first.  Assumptions are placed as
    the first decisions; learned clauses survive between calls.

    Literals are nonzero ints in [-nvars, nvars]; anything else is a
    ValueError.  State lives in flat lists.  vals and watches have
    2*nvars+1 slots indexed by the signed literal itself (Python's negative
    indexing puts -v at slot 2*nvars+1-v): vals[q] is True, False or None
    (unassigned) and watches[q] lists the clauses watching q, one int entry
    each.  A two-literal clause (a, b) is entered as its other literal: b in
    watches[a] and a in watches[b].  A longer clause is watched by the
    literals at its positions 0 and 1 and entered as nvars + 1 + its db
    index, so an entry w is a literal exactly when w <= nvars.  db holds,
    in order, every clause that _attach watches: the longer ones, which
    are the only ones read there (and reordered in place), and the learned
    or simplified two-literal ones.  A loaded two-literal clause over two
    free variables lives only in watches.  levels and reason are indexed
    by variable and only meaningful while it is assigned.  The reason of an
    implied literal is the false literal of its two-literal clause, or the
    longer clause itself, with the implied literal at position 0;
    decisions, assumptions and root units have None.  stats counts
    decisions (not assumptions), conflicts, learned clauses (units
    included) and propagations (implied literals).
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
        out of range is a ValueError, raised before any clause is added.

        A list or tuple of clauses is read in place, not copied, and the
        range check flattens it _CHECK_CHUNK clauses at a time, so loading
        adds no transient list that grows with the literal count."""
        if not isinstance(clauses, (list, tuple)):
            clauses = list(clauses)
        n = self.nvars
        for i in range(0, len(clauses), _CHECK_CHUNK):
            flat = list(itertools.chain.from_iterable(
                clauses[i:i + _CHECK_CHUNK]))
            if flat and (min(flat) < -n or max(flat) > n or 0 in flat):
                self._check(flat)
        if not self.ok:
            return
        vals, watches = self.vals, self.watches
        for lits in clauses:
            if len(lits) == 2:
                # the bulk of most instances: two free, distinct variables
                a, b = lits
                if vals[a] is None and vals[b] is None and a != b and a != -b:
                    watches[a].append(b)
                    watches[b].append(a)
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
                    self._attach(out)
                    continue
                if out:
                    self._enqueue(out[0], None)
                    if self._propagate() is None:
                        continue
                self.ok = False
                return

    def _attach(self, lits):
        """Watch lits, a clause of two or more literals over distinct
        variables, at its positions 0 and 1, add it to db and return the
        reason it gives lits[0]."""
        a, b = lits[0], lits[1]
        watches, db = self.watches, self.db
        if len(lits) == 2:
            watches[a].append(b)
            watches[b].append(a)
            db.append(lits)
            return b
        w = self.nvars + 1 + len(db)
        watches[a].append(w)
        watches[b].append(w)
        db.append(lits)
        return lits

    def _enqueue(self, lit, reason):
        """Assign lit, which must be unassigned, true at the current level."""
        self.vals[lit] = True
        self.vals[-lit] = False
        v = lit if lit > 0 else -lit
        self.levels[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        vals, watches, db = self.vals, self.watches, self.db
        levels, reason, trail = self.levels, self.reason, self.trail
        n = self.nvars
        base = n + 1
        lvl = len(self.lim)
        start = len(trail)
        qhead = self.qhead
        confl = None
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watches[neg]
            moved = None
            for w in ws:
                if w <= n:
                    # the two-literal clause (w, neg)
                    val = vals[w]
                    if val is None:
                        vals[w] = True
                        vals[-w] = False
                        v = w if w > 0 else -w
                        levels[v] = lvl
                        reason[v] = neg
                        trail.append(w)
                    elif val is False:
                        confl = [w, neg]
                        break
                    continue
                cl = db[w - base]
                first = cl[0]
                if first == neg:
                    first = cl[0] = cl[1]
                    cl[1] = neg
                val = vals[first]
                if val is True:
                    continue
                for k in range(2, len(cl)):
                    q = cl[k]
                    if vals[q] is not False:
                        # q takes over the watch; w leaves ws after the scan
                        cl[1] = q
                        cl[k] = neg
                        watches[q].append(w)
                        if moved is None:
                            moved = {w}
                        else:
                            moved.add(w)
                        break
                else:
                    # nothing can: the clause is unit or false
                    if val is False:
                        confl = cl
                        break
                    vals[first] = True
                    vals[-first] = False
                    v = first if first > 0 else -first
                    levels[v] = lvl
                    reason[v] = cl
                    trail.append(first)
            if moved is not None:
                watches[neg] = [w for w in ws if w not in moved]
            if confl is not None:
                qhead = len(trail)
                self.stats["conflicts"] += 1
                break
        self.qhead = qhead
        self.stats["propagations"] += len(trail) - start
        return confl

    def _analyze(self, confl):
        levels, trail, reason = self.levels, self.trail, self.reason
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
            clause = reason[abs(p)]
            if isinstance(clause, int):
                # a two-literal reason: its literal other than p
                clause = (clause,)
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
                # The backjump has just unassigned learnt[0]'s variable.
                self._enqueue(learnt[0], None if len(learnt) == 1
                              else self._attach(learnt))
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
    """The tiling a model sets, read in variable order: the first point
    given a second tile is an error, then the first point with none."""
    values = dict.fromkeys(window.points())
    meaning = cnf.meaning
    for pt, t in itertools.compress(meaning.values(),
                                    map(model.get, meaning)):
        if values.get(pt) is not None:
            raise ValueError("two tiles at %s" % _point_str(pt))
        values[pt] = t
    missing = [pt for pt, t in values.items() if t is None]
    if missing:
        raise ValueError("no tile at %s" % _point_str(missing[0]))
    return TilingAssignment(values)


# -- the domain engine ------------------------------------------------------------


class _Domains:
    """A CSP over numbered variables, kept generalised arc consistent.

    dom lists each variable's domain as an int bitmask over its values.  A
    scope is (tuple of variable numbers, frozenset of allowed value
    tuples); it must not repeat a variable, which window scopes never do.
    Scopes with equal tables share one compiled table.  Every domain change
    goes on a trail of (variable, old mask) entries, so undo(mark) restores
    any earlier state.  ok is False when a domain starts empty or
    propagation at the root empties one.  _domains compiles a tiling
    instance into this form and is the one place a seed narrows a domain.
    """

    def __init__(self, dom, scopes):
        self.dom = dom = list(dom)
        self.trail = []
        self.scopes = []
        self.watch = [[] for _ in dom]
        tables = {}
        for idx, allowed in scopes:
            table = tables.get(allowed)
            if table is None:
                table = tables[allowed] = _compile_table(allowed)
            for i in idx:
                self.watch[i].append(len(self.scopes))
            self.scopes.append((idx, table))
        self.queued = [True] * len(self.scopes)
        self.ok = 0 not in dom and self._propagate(
            collections.deque(range(len(self.scopes))))

    def _propagate(self, queue):
        """Revise queued scopes (AC-3) until none changes a domain; False
        on a wipe-out.  A revision keeps, at each position, the values some
        table tuple supports under the current domains.  No scope repeats a
        variable, so a revised scope is consistent and is not queued again
        by its own changes."""
        dom, trail, scopes, watch, queued = (self.dom, self.trail,
                                             self.scopes, self.watch,
                                             self.queued)
        while queue:
            s = queue.popleft()
            idx, (rows, memo) = scopes[s]
            doms = tuple([dom[i] for i in idx])
            new = memo.get(doms)
            if new is None:
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                new = memo[doms] = _revise(rows, doms)
            for i, m in zip(idx, new):
                old = dom[i]
                if m == old:
                    continue
                if not m:
                    for s2 in queue:
                        queued[s2] = False
                    queued[s] = False
                    return False
                trail.append((i, old))
                dom[i] = m
                for s2 in watch[i]:
                    if not queued[s2]:
                        queued[s2] = True
                        queue.append(s2)
            queued[s] = False
        return True

    def narrow(self, i, mask):
        """Cut variable i's domain to mask and propagate; False on a
        wipe-out, which leaves the domains to be restored by undo()."""
        old = self.dom[i]
        mask &= old
        if mask == old:
            return True
        if not mask:
            return False
        self.trail.append((i, old))
        self.dom[i] = mask
        queue = collections.deque(self.watch[i])
        for s in queue:
            self.queued[s] = True
        return self._propagate(queue)

    def undo(self, mark):
        """Restore the domains to when the trail had mark entries."""
        dom, trail = self.dom, self.trail
        while len(trail) > mark:
            i, old = trail.pop()
            dom[i] = old

    def search(self):
        """Yield the solutions below the current domains as tuples of
        values in variable order, in lexicographic order of those tuples.

        Iterative maintained-arc-consistency search: branch on the first
        variable with more than one value, try its smallest value, and on
        failure remove that value and propagate before the next.  The
        domains are not restored afterwards; undo() does that.
        """
        if not self.ok:
            return
        dom, trail = self.dom, self.trail
        n = len(dom)
        stack = []  # (variable, value bit, trail mark) per decision
        i = 0
        while True:
            while i < n and not dom[i] & (dom[i] - 1):
                i += 1
            if i == n:
                yield tuple([m.bit_length() - 1 for m in dom])
                ok = False
            else:
                bit = dom[i] & -dom[i]
                stack.append((i, bit, len(trail)))
                ok = self.narrow(i, bit)
            while not ok:
                if not stack:
                    return
                i, bit, mark = stack.pop()
                self.undo(mark)
                ok = self.narrow(i, dom[i] ^ bit)


# revisions memoised per table before its memo starts over
_MEMO_LIMIT = 4096


def _compile_table(allowed):
    """A table as (rows, memo): each allowed tuple as a tuple of value
    bits, and a memo from the domains of a scope on the table to their
    revision, since scopes on one table meet the same few domain tuples
    over and over."""
    return [tuple([1 << t for t in row]) for row in allowed], {}


def _revise(rows, doms):
    """The values of each domain that some row inside all domains puts
    there."""
    keep = [0] * len(doms)
    for row in rows:
        for d, bit in zip(doms, row):
            if not d & bit:
                break
        else:
            keep = [k | bit for k, bit in zip(keep, row)]
    return keep


def solve_tiling(window, ts, seeds=()):
    """The first tiling of the window, or None.  It is the least tiling in
    the order enumerate_tilings gives."""
    sols, _ = enumerate_tilings(window, ts, seeds, limit=1)
    return sols[0] if sols else None


def enumerate_tilings(window, ts, seeds=(), limit=None):
    """All tilings as (solutions, complete), in lexicographic order of
    their tile ids read in window.points() order.

    complete is False when a limit stopped the enumeration early, which is
    not the same thing as the instance being unsatisfiable.
    """
    pts, dom, scopes = _domains(window, ts, seeds)
    models = _Domains(dom, scopes).search()
    out = []
    while limit is None or len(out) < limit:
        model = next(models, None)
        if model is None:
            return out, True
        out.append(TilingAssignment(dict(zip(pts, model))))
    return out, False


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


def forced_values(window, ts, seeds=(), d=2):
    """Feasible tiles per deep-interior point: point -> sorted tile tuple.

    A point is deep interior when its whole d-ball lies in the window; a
    tile is feasible when some tiling puts it there.  Root propagation
    drops most infeasible tiles; each (point, tile) it leaves that no model
    found so far settles is probed with a search, and every model found
    settles further pairs for free.  An unsatisfiable instance gives every
    point the empty tuple.
    """
    pts, dom, scopes = _domains(window, ts, seeds)
    eng = _Domains(dom, scopes)
    inner = [i for i, ok in enumerate(_inside(window, d)) if ok]
    feasible = [0] * len(dom)

    def harvest(model):
        for i in inner:
            feasible[i] |= 1 << model[i]

    root = len(eng.trail)
    model = next(eng.search(), None)
    eng.undo(root)
    if model is not None:
        harvest(model)
        for i in inner:
            # a probe's model puts its own tile at point i, so models found
            # in this loop settle no other pending tile of i
            pending = eng.dom[i] & ~feasible[i]
            while pending:
                bit = pending & -pending
                pending ^= bit
                if eng.narrow(i, bit):
                    model = next(eng.search(), None)
                    if model is not None:
                        harvest(model)
                eng.undo(root)
    return {pts[i]: _bits(feasible[i]) for i in inner}


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
    tables, points are summed out in min-degree order (ties to the lower
    point number, that is the skey-least point), and the result is the
    product of the remaining constants.  Exact for any solution count, but
    the intermediate tables grow with the window's induced width; a table
    beyond max_table entries raises CapacityError.  Seeds narrow the
    domains as in _domains, and an empty domain counts 0 at once.
    """
    _, dom, scopes = _domains(window, ts, seeds)
    if 0 in dom:
        return 0
    factors = {i: ((i,), {(t,): 1 for t in _bits(m)})
               for i, m in enumerate(dom)}
    fid = len(dom)
    for scope, allowed in scopes:
        factors[fid] = (scope, {t: 1 for t in sorted(allowed)})
        fid += 1
    # touching[v] holds the factors over v, and degree[v] how many variables
    # they span while v remains; the heap pops the least current
    # (degree, v), so ties go to the lower number.
    touching = {v: set() for v in range(len(dom))}
    for f, (vs, _) in factors.items():
        for v in vs:
            touching[v].add(f)

    def span(v):
        return len({u for f in touching[v] for u in factors[f][0]})

    degree = {v: span(v) for v in touching}
    heap = [(d, v) for v, d in degree.items()]
    heapq.heapify(heap)
    while heap:
        d, cheapest = heapq.heappop(heap)
        if degree.get(cheapest) != d:
            continue
        del degree[cheapest]
        fids = sorted(touching[cheapest])
        joined = factors[fids[0]]
        for f in fids[1:]:
            joined = _join_factors(joined, factors[f])
            if len(joined[1]) > max_table:
                raise CapacityError("elimination table exceeds %d entries"
                                    % max_table, "elimination table entries",
                                    len(joined[1]), max_table)
        for f in fids:
            for v in factors.pop(f)[0]:
                touching[v].discard(f)
        factors[fid] = _sum_out(joined, cheapest)
        for v in factors[fid][0]:
            touching[v].add(fid)
            degree[v] = span(v)
            heapq.heappush(heap, (degree[v], v))
        fid += 1
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
    UNSATISFIABLE status, a malformed model line, a literal beyond
    cnf.num_vars or a variable given both signs is an error.
    """
    lits = {}
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
            if lit and lits.setdefault(abs(lit), lit) != lit:
                raise ValueError("variable %d both true and false in model "
                                 "line: %r" % (abs(lit), raw))
    if not saw_lits:
        raise ValueError("no model in solver output")
    model = {v: lits.get(v, 0) > 0 for v in range(1, cnf.num_vars + 1)}
    return _decode(cnf, model, window)
