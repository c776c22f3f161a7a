"""Deterministic saturation of partial structures under Horn sequents.

From a presentation (a finite base structure plus forced ground atoms)
the chase freely completes the structure to a model of the theory:
premises are matched, undefined conclusion subterms get fresh
strictly-increasing ids, and equations merge elements through a
least-id union-find kept congruence-closed.

Congruence closure is incremental, as in egg's rebuilding: every table
entry and relation tuple is listed in a use-list under each id it holds, a
union queues the losing id, and ``normalize`` re-keys only the entries and
tuples on the queued ids' use-lists, uniting the values of entries whose
keys collide, until the queue is empty.  Every key, value and tuple is then
canonical (the least id of its class), the same fixpoint a full rebuild
reaches.  Most unions in a chase unite an element with the one entry that
holds it, as its value: a fresh element, created by an instance whose
equation then merges it.  Such a union needs no rebuild, as in egg when a
class has one e-node: ``unite`` re-keys that entry in place, and the test
for "no other use" is exact because relation tuples have use-lists too.

Premises are matched by a join over flattened atoms ``f(x1..xk) = y``,
in the spirit of relational e-matching.  Each sequent's premise is
compiled once, on first use, and cached with the sequent, so every chase
of a theory shares the plans; its atoms are ordered greedily so that
each next atom shares the most variables bound before it.  A flat atom
is then a table lookup when its arguments are bound, a probe of the
function's value -> arguments index (rebuilt lazily whenever the state
changed) when only its value is, and a scan of the table otherwise.  A
probe takes along every other atom over the same argument slots whose
value is bound, and walks the shortest of their fibers while checking
the others by table lookup: the smallest-first intersection of generic
join (Leapfrog Triejoin).  In ``interchange.i.j`` the last variable is
pinned by two fibers, and in a model with few low cells one of them is
most of the carrier.

Each conclusion is compiled once too, into a straight-line program over
slots: one slot per context variable, then one per distinct subterm in
the post-order that recursive evaluation visits.  An application looks
its arguments' slots up in the function's table and creates a fresh
element (logged with its term and the instance's assignment) when the
entry is missing; each equation ends in a union, each relation atom in
an insert.  Forced atoms run through the same programs.  Slots are
re-canonicalized only after a union, and an instance that creates
nothing builds no assignment record, which is most instances.

Rounds are semi-naive, as in egglog.  The state records every fact it
writes (a table entry inserted or re-keyed, a relation tuple added or
moved, an element created) in a set for the current round, and keeps
the previous round's set.  The first round matches every premise in full;
later rounds match only instances that use at least one fact of those
two sets, through one delta plan per flat atom and per carrier variable
that starts from the written facts and joins the rest against the whole
tables.  Facts are only ever added, so every skipped instance was matched
before and its conclusion already holds: enforcing it again would change
nothing, and since matches stay sorted, fresh ids, merges and rounds are
those of full matching.  A chase whose base is known to be a model (a
decomposition step after the first) is delta-driven from its first round:
the base's facts count as old and only what the forced atoms wrote is new.

Everything fires in a fixed order (sequents by declaration, assignments
lexicographically in canonical ids), so results are bit-for-bit
reproducible; snapshots list every table in sorted key order, so a
model does not depend on the history of its merges.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .structure import Hom, PartialStructure, empty_structure, holds
from .syntax import (
    Atom,
    Context,
    Def,
    Eq,
    HornFormula,
    RawTerm,
    Rel,
    Sequent,
    Signature,
    Theory,
    Var,
    normalized,
)

COMPLETE = "Complete"
BUDGET_EXCEEDED = "BudgetExceeded"
STOPPED = "Stopped"

AssignmentItems = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ChaseBudget:
    max_elements: int = 10000
    max_rounds: int = 1000


@dataclass(frozen=True)
class Presentation:
    """Base structure plus ground atoms (atom + base-id assignment) to force."""

    base: PartialStructure
    forced: tuple[tuple[Atom, AssignmentItems], ...] = ()


@dataclass(frozen=True)
class FreshEntry:
    """A fresh element: value of func at args (ids at creation time)."""

    elem: int
    func: str
    args: tuple[int, ...]
    term: RawTerm
    assignment: AssignmentItems


@dataclass(frozen=True)
class ChaseResult:
    model: PartialStructure
    quotient: dict[int, int]  # every id ever created -> canonical id
    log: tuple[tuple, ...]  # per fresh element: (elem, func, args, term, names, ids)
    status: str
    rounds: int
    merges: int

    @cached_property
    def fresh_log(self) -> tuple[FreshEntry, ...]:  # built on first read: the prover never reads it
        return tuple(FreshEntry(e, f, args, t, tuple(zip(names, ids))) for e, f, args, t, names, ids in self.log)


class _Budget(Exception):
    pass


# Kinds of join steps in a compiled premise (see _order).
_LOOKUP = 0  # f(bound args): read the table, bind or check the value slot
_PROBE = 1  # f(args) = bound value, g(args) = bound value, ...: intersect the fibers
_SCAN = 2  # f(args) = value, value unbound: unify every table entry
_REL = 3  # R(args): unify every tuple of the relation
_CARRIER = 4  # a context variable no atom binds: every element of a pool
_NEW = 5  # first step of a delta plan: unify every entry of f (or tuple of R) written lately

_Step = tuple  # (kind, symbol, slots, extra); see _order
_Plan = tuple[_Step, ...]
_FlatAtom = tuple[int, str, tuple[int, ...], int]  # (_SCAN or _REL, symbol, arg slots, value slot)

# Pools of written facts are keyed (kind, symbol): a function's entries, a
# relation's tuples, the elements of a sort.  A carrier's pool is keyed by
# its sort alone.
_FUNC, _RELN, _ELEM = "f", "r", "e"


def _pattern(slots: tuple[int, ...], bound: set[int]) -> tuple[tuple[int, bool], ...]:
    """Per position: the slot, and whether it is bound there (else checked
    against the value bound before).  Adds the slots to ``bound``."""
    out = []
    for slot in slots:
        out.append((slot, slot not in bound))
        bound.add(slot)
    return tuple(out)


def _order(atoms: list[_FlatAtom], bound: set[int]) -> list[_Step]:
    """Join steps for the atoms, given the slots already bound: each next
    atom shares the most slots bound before it, ties going to a pure table
    lookup and then to the earlier atom.  A probe takes along every other
    remaining atom over the same argument slots whose value is bound: the
    step intersects their fibers.  Adds the slots to ``bound``."""
    remaining = list(atoms)
    steps: list[_Step] = []

    def score(atom: _FlatAtom) -> tuple[int, bool]:
        kind, _, args, out = atom
        return len(bound.intersection((*args, out))), kind != _REL and bound.issuperset(args)

    while remaining:
        kind, sym, args, out = atom = max(remaining, key=score)  # the first of equals
        remaining.remove(atom)
        if kind == _REL:
            steps.append((_REL, sym, None, _pattern(args, bound)))
        elif bound.issuperset(args):
            steps.append((_LOOKUP, sym, args, (out, out not in bound)))
            bound.add(out)
        elif out in bound:
            group = [atom] + [a for a in remaining if a[0] != _REL and a[2] == args and a[3] in bound]
            for a in group[1:]:
                remaining.remove(a)
            steps.append((_PROBE, tuple((f, v) for _, f, _, v in group), None, _pattern(args, bound)))
        else:
            steps.append((_SCAN, sym, None, _pattern(args + (out,), bound)))
    return steps


def _flatten(term: RawTerm, slots: dict[RawTerm, int], flat: list) -> int:
    """The slot of ``term``.  Variables have theirs in ``slots``; an
    application met for the first time takes the next slot, after its
    arguments', and is listed in ``flat`` as (term, argument slots)."""
    slot = slots.get(term)
    if slot is None:
        args = tuple(_flatten(a, slots, flat) for a in term.args)
        slot = slots[term] = len(slots)
        flat.append((term, args))
    return slot


class _Premise:
    """A premise flattened into atoms over variable slots, with its join plans.

    Every subterm gets one slot (the context variables take slots 0..n-1,
    repeated subterms share theirs) and becomes a flat atom
    ``f(slots) = slot``; an equation unites the slots of its sides.  Context
    variables that no atom binds range over their carrier, after the atoms.
    ``full`` joins every atom against the whole tables.  ``deltas`` (built
    on first use) holds one plan per flat atom and one per carrier variable:
    each starts from the pool of that atom's (or sort's) facts written
    lately and joins the rest against the whole tables.
    """

    __slots__ = ("names", "atoms", "carriers", "emit", "nslots", "full", "_deltas")

    def __init__(self, seq: Sequent) -> None:
        names = self.names = seq.context.names()
        slots: dict[RawTerm, int] = {Var(n): i for i, n in enumerate(names)}
        flat: list[tuple[object, tuple[int, ...]]] = []
        parent: list[int] = []

        def find(slot: int) -> int:
            parent.extend(range(len(parent), len(slots)))
            while parent[slot] != slot:
                slot = parent[slot]
            return slot

        for atom in normalized(seq.premise).atoms:
            if isinstance(atom, Rel):
                flat.append((atom, tuple(_flatten(a, slots, flat) for a in atom.args)))
            else:
                a, b = find(_flatten(atom.lhs, slots, flat)), find(_flatten(atom.rhs, slots, flat))
                parent[max(a, b)] = min(a, b)
        self.atoms: list[_FlatAtom] = []
        for t, args in flat:
            args = tuple(find(a) for a in args)
            renamed = (_REL, t.rel, args, -1) if isinstance(t, Rel) else (_SCAN, t.func, args, find(slots[t]))
            if renamed not in self.atoms:
                self.atoms.append(renamed)
        self.emit = tuple(find(i) for i in range(len(names)))
        self.nslots = len(slots)
        bound: set[int] = set()
        steps = _order(self.atoms, bound)
        sorts = dict(seq.context.vars)
        self.carriers: list[tuple[str, int]] = []
        for name, slot in zip(names, self.emit):
            if slot not in bound:
                self.carriers.append((sorts[name], slot))
                bound.add(slot)
        self.full: _Plan = tuple(steps) + self._carrier_steps(-1)
        self._deltas: Optional[tuple[_Plan, ...]] = None

    def _carrier_steps(self, skip: int) -> _Plan:
        return tuple((_CARRIER, sort, slot, None) for sort, slot in self.carriers if slot != skip)

    def deltas(self) -> tuple[_Plan, ...]:
        if self._deltas is None:
            plans = []
            for i, (kind, sym, args, out) in enumerate(self.atoms):
                bound: set[int] = set()
                if kind == _REL:
                    first = (_NEW, (_RELN, sym), None, _pattern(args, bound))
                else:
                    first = (_NEW, (_FUNC, sym), sym, _pattern(args + (out,), bound))
                rest = _order(self.atoms[:i] + self.atoms[i + 1:], bound)
                plans.append((first, *rest, *self._carrier_steps(-1)))
            for sort, slot in self.carriers:
                bound = {slot}
                first = (_CARRIER, (_ELEM, sort), slot, None)
                plans.append((first, *_order(self.atoms, bound), *self._carrier_steps(slot)))
            self._deltas = tuple(plans)
        return self._deltas


# Operations of a compiled conclusion (see _Conclusion).
_APPLY1 = 0  # (_APPLY1, f, arg slot, term): the next slot is f(arg), created if undefined
_APPLY2 = 1  # (_APPLY2, f, (slot, slot), term): the same for a binary f
_APPLY = 2  # (_APPLY, f, arg slots, term): the same for any other arity
_UNITE = 3  # (_UNITE, None, (slot, slot), None): unite the two values
_INSERT = 4  # (_INSERT, R, arg slots, None): add the tuple to R


class _Conclusion:
    """Atoms to enforce at an assignment, compiled to a straight-line program.

    Slots 0..n-1 hold the context variables; every distinct application
    gets the next slot, in the post-order in which recursive evaluation
    first meets it.  A repeated subterm reuses its slot: evaluating it again
    would find the entry its first visit read or created.  An application
    looks its arguments up in the function's table and creates a fresh
    element when the entry is missing; each atom ends in a ``_UNITE`` or an
    ``_INSERT`` (a definedness atom in its applications alone).
    """

    __slots__ = ("names", "atoms", "ops")

    def __init__(self, names: tuple[str, ...], atoms: Sequence[Atom]) -> None:
        self.names = names
        self.atoms = tuple(atoms)
        slots: dict[RawTerm, int] = {Var(n): i for i, n in enumerate(names)}
        flat: list[tuple[object, tuple[int, ...]]] = []
        for atom in self.atoms:
            if isinstance(atom, Def):
                _flatten(atom.term, slots, flat)
            elif isinstance(atom, Eq):
                flat.append((atom, (_flatten(atom.lhs, slots, flat), _flatten(atom.rhs, slots, flat))))
            else:
                flat.append((atom, tuple(_flatten(a, slots, flat) for a in atom.args)))
        ops = []
        for t, args in flat:
            if isinstance(t, Eq):
                if args[0] != args[1]:
                    ops.append((_UNITE, None, args, None))
            elif isinstance(t, Rel):
                ops.append((_INSERT, t.rel, args, None))
            elif len(args) == 1:
                ops.append((_APPLY1, t.func, args[0], t))
            else:
                ops.append((_APPLY2 if len(args) == 2 else _APPLY, t.func, args, t))
        self.ops = tuple(ops)


# id(sequent) -> its compiled premise and conclusion, shared by every chase
# of the sequent's theory.  An entry goes when its sequent is collected
# (before the id can be reused), so the memo holds no more than the live
# sequents.
_COMPILED: dict[int, tuple[_Premise, _Conclusion]] = {}


def _compiled(seq: Sequent) -> tuple[_Premise, _Conclusion]:
    compiled = _COMPILED.get(id(seq))
    if compiled is None:
        compiled = (_Premise(seq), _Conclusion(seq.context.names(), seq.conclusion.atoms))
        _COMPILED[id(seq)] = compiled
        weakref.finalize(seq, _COMPILED.pop, id(seq), None)
    return compiled


def _unify(vals: list[int], pattern: tuple[tuple[int, bool], ...], tup: tuple[int, ...]) -> bool:
    for (slot, bind), x in zip(pattern, tup):
        if bind:
            vals[slot] = x
        elif vals[slot] != x:
            return False
    return True


class _Join:
    """One run of a join plan over a chase state.  ``step(k)`` extends the
    bindings in ``vals`` by step k and every step after it, adding the
    emitted slots of each complete binding to ``results``; ``pools`` holds
    what each _CARRIER and _NEW step ranges over.  The recursion goes
    through the bound method, not through a closure that refers to itself,
    so nothing of a run outlives it, also when it ends in an exception."""

    __slots__ = ("state", "plan", "emit", "pools", "results", "vals")

    def __init__(self, state: _ChaseState, plan: _Plan, emit: tuple[int, ...], nslots: int,
                 pools: dict, results: set) -> None:
        self.state = state
        self.plan = plan
        self.emit = emit
        self.pools = pools
        self.results = results
        self.vals = [0] * nslots

    def step(self, k: int) -> None:
        vals = self.vals
        if k == len(self.plan):
            self.results.add(tuple([vals[s] for s in self.emit]))
            return
        kind, sym, slots, extra = self.plan[k]
        k += 1
        if kind == _LOOKUP:
            v = self.state.funcs[sym].get(tuple([vals[s] for s in slots]))
            if v is None:
                return
            slot, bind = extra
            if bind:
                vals[slot] = v
            elif vals[slot] != v:
                return
            self.step(k)
        elif kind == _PROBE:  # sym: the (function, value slot) pairs over the same argument slots
            index = self.state.value_index
            shortest = None
            for f, out in sym:
                fiber = index(f).get(vals[out])
                if fiber is None:
                    return
                if shortest is None or len(fiber) < len(shortest):
                    shortest, walked = fiber, (f, out)
            funcs = self.state.funcs
            checks = [(funcs[f], vals[out]) for f, out in sym if (f, out) != walked]
            for args in shortest:
                if _unify(vals, extra, args):
                    for table, v in checks:
                        if table.get(args) != v:
                            break
                    else:
                        self.step(k)
        elif kind == _SCAN:
            for args, v in self.state.funcs[sym].items():
                if _unify(vals, extra, (*args, v)):
                    self.step(k)
        elif kind == _REL:
            for tup in self.state.rels[sym]:
                if _unify(vals, extra, tup):
                    self.step(k)
        elif kind == _CARRIER:
            for c in self.pools[sym]:
                vals[slots] = c
                self.step(k)
        else:  # _NEW: slots names f for function entries, None for relation tuples
            table = None if slots is None else self.state.funcs[slots]
            for tup in self.pools[sym]:
                if _unify(vals, extra, tup if table is None else (*tup, table[tup])):
                    self.step(k)


class _Writes:
    """The facts written in one round: function keys, relation tuples and
    elements.  An entry re-keyed by ``normalize`` counts as written."""

    __slots__ = ("funcs", "rels", "elems")

    def __init__(self, sig: Signature) -> None:
        self.funcs: dict[str, set[tuple[int, ...]]] = {f.name: set() for f in sig.funcs}
        self.rels: dict[str, set[tuple[int, ...]]] = {r.name: set() for r in sig.rels}
        self.elems: set[int] = set()


class _ChaseState:
    def __init__(self, sig: Signature, budget: ChaseBudget) -> None:
        self.sig = sig
        self.budget = budget
        self.sort_of: dict[int, str] = {}
        self.live: set[int] = set()
        self.parent: dict[int, int] = {}
        self.funcs: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in sig.funcs}
        self.result_sort = {f.name: f.result_sort for f in sig.funcs}
        self.rels: dict[str, set[tuple[int, ...]]] = {r.name: set() for r in sig.rels}
        # id -> the (func, args) keys whose args or value held it when stored
        self.uses: defaultdict[int, list[tuple[str, tuple[int, ...]]]] = defaultdict(list)
        # id -> the (rel, tuple) pairs whose tuple held it when stored
        self.rel_uses: defaultdict[int, list[tuple[str, tuple[int, ...]]]] = defaultdict(list)
        self.pending: list[int] = []  # ids that lost a union, not yet re-keyed
        self.indexes: dict[str, tuple[int, dict[int, list[tuple[int, ...]]]]] = {}
        self.written = _Writes(sig)  # facts written in this round
        self.written_before = _Writes(sig)  # ... and in the round before
        self.next_id = 0
        self.created = 0
        self.version = 0
        self.merges = 0
        self.fresh_log: list[tuple] = []  # see ChaseResult.log

    # -- union-find (least id is the representative)

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        lo, hi = min(ra, rb), max(ra, rb)
        self.parent[hi] = lo
        self.live.discard(hi)
        self.pending.append(hi)
        self.merges += 1
        self.version += 1

    # -- elements

    def register(self, elem: int, sort: str) -> None:
        if self.created + 1 > self.budget.max_elements:
            raise _Budget
        self.sort_of[elem] = sort
        self.parent[elem] = elem
        self.live.add(elem)
        self.created += 1
        self.next_id = max(self.next_id, elem + 1)

    def add_element(self, sort: str) -> int:
        elem = self.next_id
        self.register(elem, sort)
        self.written.elems.add(elem)
        self.version += 1
        return elem

    def load(self, base: PartialStructure) -> None:
        for s in self.sig.sorts:
            for e in base.carriers.get(s, ()):
                self.register(e, s)
        for f, table in base.funcs.items():
            self.funcs[f] = dict(table)
            for args, val in table.items():
                self._use(f, args, val)
        for r, tuples in base.rels.items():
            self.rels[r] = set(tuples)
            for tup in tuples:
                self._rel_use(r, tup)

    def carrier(self, sort: str) -> list[int]:
        return sorted(e for e in self.live if self.sort_of[e] == sort)

    # -- congruence closure: keep tables keyed by canonical ids

    def _use(self, f: str, args: tuple[int, ...], val: int) -> None:
        entry, uses = (f, args), self.uses
        for i in args:
            uses[i].append(entry)
        uses[val].append(entry)

    def _rel_use(self, r: str, tup: tuple[int, ...]) -> None:
        for i in tup:
            self.rel_uses[i].append((r, tup))

    def normalize(self) -> None:
        """Re-key the entries that mention an id which lost a union, and
        unite the values of entries whose keys then collide, until no id
        is pending.  Entries are registered under every id they hold, so
        afterwards every key and value is canonical."""
        if not self.pending:
            return
        written, parent, find = self.written.funcs, self.parent, self.find
        stale: list[tuple[str, tuple[int, ...]]] = []
        while self.pending:
            lost = self.pending.pop()
            stale += self.rel_uses.pop(lost, ())
            for f, args in self.uses.pop(lost, ()):
                table = self.funcs[f]
                val = table.pop(args, None)
                if val is None:
                    continue  # re-keyed already
                written[f].discard(args)  # the key holds a dead id or is stored again below
                key = tuple([a if parent[a] == a else find(a) for a in args])
                val = find(val)
                old = table.get(key)
                if old is not None and find(old) != val:
                    self.union(old, val)
                    val = find(val)
                table[key] = val
                written[f].add(key)
                self._use(f, key, val)
        for r, tup in stale:
            if tup in self.rels[r]:  # not moved already
                self.rels[r].remove(tup)
                moved = tuple([find(a) for a in tup])
                self.rels[r].add(moved)
                self._rel_use(r, moved)
                self.written.rels[r].add(moved)

    def unite(self, a: int, b: int) -> None:
        """Unite two canonical ids and normalize.  When the losing id is the
        value of one entry and held by no other entry or tuple (most often
        an element its instance just created), re-keying that entry is all
        that ``normalize`` would do, so it is done here."""
        lo, hi = (a, b) if a < b else (b, a)
        uses = self.uses.get(hi, ())
        if len(uses) == 1 and not self.pending and hi not in self.rel_uses:
            f, key = entry = uses[0]
            if self.funcs[f].get(key) == hi and hi not in key:
                self.parent[hi] = lo
                self.live.discard(hi)
                del self.uses[hi]
                self.merges += 1
                self.version += 1
                self.funcs[f][key] = lo
                self.written.funcs[f].add(key)  # hi may be an old element, its entry not yet written
                self.uses[lo].append(entry)  # the ids of key list the entry already
                return
        self.union(a, b)
        self.normalize()

    # -- firing

    def fire(self, conclusion: _Conclusion, ids: tuple[int, ...]) -> None:
        """Enforce the conclusion at the assignment ``ids`` (in the order of
        its names; ids may have lost a union since), which is logged with
        every element the instance creates."""
        find, funcs, parent = self.find, self.funcs, self.parent
        vals = [i if parent[i] == i else find(i) for i in ids]
        for op, sym, args, term in conclusion.ops:
            if op <= _APPLY:
                if op == _APPLY1:
                    key: tuple[int, ...] = (vals[args],)
                elif op == _APPLY2:
                    key = (vals[args[0]], vals[args[1]])
                else:
                    key = tuple([vals[a] for a in args])
                val = funcs[sym].get(key)
                if val is None:
                    val = self.create(sym, key, term, conclusion.names, ids)
                vals.append(val)
            elif op == _UNITE:
                a, b = vals[args[0]], vals[args[1]]
                if a != b:
                    self.unite(a, b)
                    vals = [v if parent[v] == v else find(v) for v in vals]
            else:
                tup = tuple([vals[a] for a in args])
                if tup not in self.rels[sym]:
                    self.rels[sym].add(tup)
                    self._rel_use(sym, tup)
                    self.written.rels[sym].add(tup)
                    self.version += 1

    def create(self, f: str, args: tuple[int, ...], term: RawTerm, names: Sequence[str], ids: Sequence[int]) -> int:
        """A fresh element as the value of f at args, logged with the term
        and the assignment (names, ids) that called for it."""
        if self.created >= self.budget.max_elements:
            raise _Budget
        fresh = self.next_id
        self.next_id, self.created = fresh + 1, self.created + 1
        self.sort_of[fresh] = self.result_sort[f]
        self.parent[fresh] = fresh
        self.live.add(fresh)
        self.written.elems.add(fresh)
        self.version += 1
        self.funcs[f][args] = fresh
        self.written.funcs[f].add(args)
        self._use(f, args, fresh)
        self.fresh_log.append((fresh, f, args, term, names, ids))
        return fresh

    # -- premise matching (compiled join, lexicographic output)

    def value_index(self, f: str) -> dict[int, list[tuple[int, ...]]]:
        """value -> argument tuples of f's table, rebuilt when the state changed."""
        cached = self.indexes.get(f)
        if cached is None or cached[0] != self.version:
            index: dict[int, list[tuple[int, ...]]] = {}
            for args, val in self.funcs[f].items():
                index.setdefault(val, []).append(args)
            cached = self.indexes[f] = (self.version, index)
        return cached[1]

    def pool(self, key: object) -> list:
        """What a _CARRIER or _NEW step ranges over: the carrier of a sort,
        or for a (kind, symbol) key the facts of that kind written in this
        round or the one before that still hold (keys of f's entries, tuples
        of R, elements of a sort)."""
        if isinstance(key, str):
            return self.carrier(key)
        kind, sym = key
        now, before = self.written, self.written_before
        if kind == _ELEM:
            return [e for e in now.elems | before.elems if e in self.live and self.sort_of[e] == sym]
        if kind == _FUNC:
            new, old, held = now.funcs[sym], before.funcs[sym], self.funcs[sym]
        else:
            new, old, held = now.rels[sym], before.rels[sym], self.rels[sym]
        return [x for x in new if x in held] + [x for x in old if x in held and x not in new]

    def matches(self, premise: _Premise, delta: bool = False) -> list[tuple[int, ...]]:
        """The assignments at which the premise holds, as id tuples in
        context order, sorted.  With ``delta``, only those that use a fact
        written in this round or the one before."""
        pools: dict = {}
        results: set[tuple[int, ...]] = set()
        for plan in premise.deltas() if delta else (premise.full,):
            for kind, sym, _, _ in plan:
                if kind == _CARRIER or kind == _NEW:
                    if sym not in pools:
                        pools[sym] = self.pool(sym)
                    if not pools[sym]:
                        break  # the plan needs an element of every pool
            else:
                _Join(self, plan, premise.emit, premise.nslots, pools, results).step(0)
        return sorted(results)

    # -- rounds

    def run_round(self, theory: Theory, delta: bool = False) -> bool:
        """Match every sequent and fire its conclusion at each match.  With
        ``delta`` (every sequent was matched in the round before, or the
        base is a model), match only instances that use a fact written in
        this round or the one before: any other instance was matched in the
        round before, or holds in the base, so its conclusion already holds
        and firing it again would change nothing."""
        v0 = self.version
        self.normalize()
        self.written_before, self.written = self.written, _Writes(self.sig)
        for seq in theory.sequents:
            premise, conclusion = _compiled(seq)
            for ids in self.matches(premise, delta):
                self.fire(conclusion, ids)
        return self.version != v0

    def snapshot(self) -> PartialStructure:
        return PartialStructure(
            self.sig,
            {s: tuple(self.carrier(s)) for s in self.sig.sorts},
            {f: dict(sorted(t.items())) for f, t in self.funcs.items()},
            {r: frozenset(t) for r, t in self.rels.items()},
        )


def chase(
    theory: Theory,
    presentation: Presentation,
    budget: Optional[ChaseBudget] = None,
    stop: Optional[Callable[[_ChaseState], bool]] = None,
    *,
    _base_is_model: bool = False,
) -> ChaseResult:
    """Saturate the presentation under the theory's sequents.

    ``_base_is_model`` (for decomposition steps after the first) promises
    that the base satisfies every sequent: then even the first round
    matches only instances that use a fact the forced atoms wrote."""
    budget = budget or ChaseBudget()
    state = _ChaseState(theory.signature, budget)
    status = COMPLETE
    rounds = 0
    try:
        state.load(presentation.base)
        programs: dict[tuple[Atom, tuple[str, ...]], _Conclusion] = {}
        for atom, items in presentation.forced:
            names = tuple(n for n, _ in items)
            program = programs.get((atom, names))
            if program is None:
                program = programs[atom, names] = _Conclusion(names, (atom,))
            state.fire(program, tuple(i for _, i in items))
        state.normalize()
        if stop is not None and stop(state):
            status = STOPPED
        else:
            while True:
                if rounds >= budget.max_rounds:
                    status = BUDGET_EXCEEDED
                    break
                changed = state.run_round(theory, delta=rounds > 0 or _base_is_model)
                rounds += 1
                if stop is not None and stop(state):
                    status = STOPPED
                    break
                if not changed:
                    status = COMPLETE
                    break
    except _Budget:
        status = BUDGET_EXCEEDED
    model = state.snapshot()
    quotient = {i: state.find(i) for i in sorted(state.parent)}
    return ChaseResult(model, quotient, tuple(state.fresh_log), status, rounds, state.merges)


def _satisfying(
    S: PartialStructure, formulas: Sequence[tuple[Context, HornFormula]]
) -> list[list[tuple[int, ...]]]:
    """For each formula in context, the assignments (id tuples in context
    order) at which it holds in S, sorted: its premise matches in S."""
    state = _ChaseState(S.signature, ChaseBudget(max_elements=S.size()))
    state.load(S)
    return [state.matches(_Premise(Sequent(ctx, phi, HornFormula(())))) for ctx, phi in formulas]


# ---------------------------------------------------------------------------
# Representing models and the bounded prover


def _generic_presentation(
    theory: Theory, ctx: Context, phi: HornFormula
) -> tuple[Presentation, AssignmentItems]:
    """The generic context: one base element per variable (ids in context
    order) and the atoms of phi forced at the generic assignment."""
    carriers = {s: tuple(i for i, (_, t) in enumerate(ctx.vars) if t == s) for s in theory.signature.sorts}
    base = replace(empty_structure(theory.signature), carriers=carriers)
    items = tuple((name, i) for i, name in enumerate(ctx.names()))
    return Presentation(base, tuple((atom, items) for atom in phi.atoms)), items


def representing_model(
    theory: Theory,
    ctx: Context,
    phi: HornFormula,
    budget: Optional[ChaseBudget] = None,
) -> tuple[ChaseResult, dict[str, int]]:
    """Chase the generic context; the generic assignment lands in the model."""
    presentation, items = _generic_presentation(theory, ctx, phi)
    result = chase(theory, presentation, budget)
    generic = {name: result.quotient[i] for name, i in items}
    return result, generic


VALID = "Valid"
INVALID = "Invalid"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ProveResult:
    verdict: str
    rounds: int
    elements: int
    merges: int


def prove_sequent(theory: Theory, seq: Sequent, budget: Optional[ChaseBudget] = None) -> ProveResult:
    """Bounded derivability: chase the premise, watch for the conclusion.

    Valid as soon as the conclusion holds at the generic assignment;
    Invalid only when the chase completes without it; Unknown on budget.
    """
    presentation, items = _generic_presentation(theory, seq.context, seq.premise)

    def stop(state: _ChaseState) -> bool:
        # stop runs after normalize, so the live tables are keyed by canonical ids
        tables = PartialStructure(state.sig, {}, state.funcs, state.rels)  # type: ignore[arg-type]
        return holds(tables, {name: state.find(i) for name, i in items}, seq.conclusion)

    result = chase(theory, presentation, budget, stop=stop)
    if result.status == STOPPED:
        verdict = VALID
    elif result.status == COMPLETE:
        verdict = INVALID
    else:
        verdict = UNKNOWN
    return ProveResult(verdict, result.rounds, result.model.size(), result.merges)


def reduces(
    theory: Theory,
    ctx: Context,
    sigma: RawTerm,
    tau: RawTerm,
    budget: Optional[ChaseBudget] = None,
) -> Optional[bool]:
    """sigma reduces to tau: defined sigma forces sigma = tau (None on budget)."""
    seq = Sequent(ctx, HornFormula((Def(sigma),)), HornFormula((Eq(sigma, tau),)), label="reduces")
    res = prove_sequent(theory, seq, budget)
    if res.verdict == VALID:
        return True
    if res.verdict == INVALID:
        return False
    return None


def term_equivalent(
    theory: Theory,
    ctx: Context,
    sigma: RawTerm,
    tau: RawTerm,
    budget: Optional[ChaseBudget] = None,
) -> Optional[bool]:
    a = reduces(theory, ctx, sigma, tau, budget)
    b = reduces(theory, ctx, tau, sigma, budget)
    if a is None or b is None:
        return None
    return a and b


# ---------------------------------------------------------------------------
# Quotients with a universal property


def coequalizer(
    theory: Theory, f: Hom, g: Hom, budget: Optional[ChaseBudget] = None
) -> tuple[ChaseResult, Hom]:
    """Coequalizer of f, g : A -> B in models: force f(a) = g(a), chase."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("parallel pair required")
    B = f.target
    forced = tuple(
        (Eq(Var("u"), Var("v")), (("u", f.mapping[a]), ("v", g.mapping[a])))
        for a in sorted(f.mapping)
    )
    result = chase(theory, Presentation(B, forced), budget)
    q = Hom(B, result.model, {b: result.quotient[b] for b in B.elements()})
    return result, q


def induced_hom(result: ChaseResult, base_map: Mapping[int, int], target: PartialStructure) -> Hom:
    """Extend a base-id map along the chase: old classes take the base
    value (must be constant on classes), fresh classes evaluate their
    creating function entry in the target (must be defined)."""
    values: dict[int, int] = {}
    for b, t in sorted(base_map.items()):
        c = result.quotient[b]
        if values.setdefault(c, t) != t:
            raise ValueError(f"map not constant on the class of {b}")
    for entry in result.fresh_log:
        c = result.quotient[entry.elem]
        targs = tuple(values[result.quotient[a]] for a in entry.args)
        v = target.funcs.get(entry.func, {}).get(targs)
        if v is None:
            raise ValueError(f"{entry.func}{targs} undefined in the target")
        if values.setdefault(c, v) != v:
            raise ValueError(f"inconsistent values on class {c}")
    return Hom(result.model, target, {e: values[e] for e in result.model.elements()})
