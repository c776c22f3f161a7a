"""Deterministic saturation of partial structures under Horn sequents.

From a presentation (a finite base structure plus forced ground atoms)
the chase freely completes the structure to a model of the theory:
premises are matched, conclusion subterms are materialized with fresh
strictly-increasing ids, and equations merge elements through a
least-id union-find kept congruence-closed.

Congruence closure is incremental, as in egg's rebuilding: every table
entry is listed in a use-list under each id it holds, a union queues the
losing id, and ``normalize`` re-keys only the entries on the queued ids'
use-lists, uniting the values of entries whose keys collide, until the
queue is empty.  Every key and value is then canonical (the least id of
its class), the same fixpoint a full rebuild reaches.

Premises are matched by a join over flattened atoms ``f(x1..xk) = y``,
in the spirit of relational e-matching.  Each sequent's premise is
compiled once, on first use, and cached with the sequent, so every chase
of a theory shares the plans; its atoms are ordered greedily so that
each next atom shares the most variables bound before it.  A flat atom
is then a table lookup when its arguments are bound, a probe of the
function's value -> arguments index (rebuilt lazily whenever the state
changed) when only its value is, and a scan of the table otherwise.

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
    fresh_log: tuple[FreshEntry, ...]
    status: str
    rounds: int
    merges: int


class _Budget(Exception):
    pass


# Kinds of join steps in a compiled premise (see _order).
_LOOKUP = 0  # f(bound args): read the table, bind or check the value slot
_PROBE = 1  # f(args) = bound value: read the value index, unify the args
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
    lookup and then to the earlier atom.  Adds the slots to ``bound``."""
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
            steps.append((_PROBE, sym, out, _pattern(args, bound)))
        else:
            steps.append((_SCAN, sym, None, _pattern(args + (out,), bound)))
    return steps


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
        slot_of = {n: i for i, n in enumerate(names)}
        parent = list(range(len(names)))
        memo: dict[RawTerm, int] = {}
        atoms: list[_FlatAtom] = []

        def flat(t: RawTerm) -> int:
            if isinstance(t, Var):
                return slot_of[t.name]
            slot = memo.get(t)
            if slot is None:
                args = tuple(flat(a) for a in t.args)
                slot = memo[t] = len(parent)
                parent.append(slot)
                atoms.append((_SCAN, t.func, args, slot))
            return slot

        def find(slot: int) -> int:
            while parent[slot] != slot:
                slot = parent[slot]
            return slot

        for atom in normalized(seq.premise).atoms:
            if isinstance(atom, Rel):
                atoms.append((_REL, atom.rel, tuple(flat(a) for a in atom.args), -1))
            else:
                a, b = find(flat(atom.lhs)), find(flat(atom.rhs))
                parent[max(a, b)] = min(a, b)
        self.atoms: list[_FlatAtom] = []
        for kind, sym, args, out in atoms:
            renamed = (kind, sym, tuple(find(a) for a in args), find(out) if out >= 0 else -1)
            if renamed not in self.atoms:
                self.atoms.append(renamed)
        self.emit = tuple(find(slot_of[n]) for n in names)
        self.nslots = len(parent)
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


# id(sequent) -> its compiled premise, shared by every chase of the
# sequent's theory.  An entry goes when its sequent is collected (before
# the id can be reused), so the memo holds no more than the live sequents.
_PREMISES: dict[int, _Premise] = {}


def _premise(seq: Sequent) -> _Premise:
    premise = _PREMISES.get(id(seq))
    if premise is None:
        premise = _PREMISES[id(seq)] = _Premise(seq)
        weakref.finalize(seq, _PREMISES.pop, id(seq), None)
    return premise


def _unify(vals: list[int], pattern: tuple[tuple[int, bool], ...], tup: tuple[int, ...]) -> bool:
    for (slot, bind), x in zip(pattern, tup):
        if bind:
            vals[slot] = x
        elif vals[slot] != x:
            return False
    return True


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
        self.rels: dict[str, set[tuple[int, ...]]] = {r.name: set() for r in sig.rels}
        # id -> the (func, args) keys whose args or value held it when stored
        self.uses: defaultdict[int, list[tuple[str, tuple[int, ...]]]] = defaultdict(list)
        self.pending: list[int] = []  # ids that lost a union, not yet re-keyed
        self.indexes: dict[str, tuple[int, dict[int, list[tuple[int, ...]]]]] = {}
        self.written = _Writes(sig)  # facts written in this round
        self.written_before = _Writes(sig)  # ... and in the round before
        self.next_id = 0
        self.created = 0
        self.version = 0
        self.merges = 0
        self.fresh_log: list[FreshEntry] = []

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

    def carrier(self, sort: str) -> list[int]:
        return sorted(e for e in self.live if self.sort_of[e] == sort)

    # -- congruence closure: keep tables keyed by canonical ids

    def _use(self, f: str, args: tuple[int, ...], val: int) -> None:
        entry = (f, args)
        for i in {*args, val}:
            self.uses[i].append(entry)

    def normalize(self) -> None:
        """Re-key the entries that mention an id which lost a union, and
        unite the values of entries whose keys then collide, until no id
        is pending.  Entries are registered under every id they hold, so
        afterwards every key and value is canonical."""
        if not self.pending:
            return
        written = self.written.funcs
        while self.pending:
            for f, args in self.uses.pop(self.pending.pop(), ()):
                table = self.funcs[f]
                val = table.pop(args, None)
                if val is None:
                    continue  # re-keyed already
                written[f].discard(args)  # the key holds a dead id or is stored again below
                key = tuple(self.find(a) for a in args)
                val = self.find(val)
                old = table.get(key)
                if old is not None and self.find(old) != val:
                    self.union(old, val)
                    val = self.find(val)
                table[key] = val
                written[f].add(key)
                self._use(f, key, val)
        parent = self.parent
        for r, tuples in self.rels.items():
            stale = [tup for tup in tuples if any(parent[a] != a for a in tup)]
            if stale:
                tuples.difference_update(stale)
                moved = {tuple(self.find(a) for a in tup) for tup in stale}
                tuples |= moved
                self.written.rels[r] |= moved

    # -- materialization

    def materialize(self, term: RawTerm, asg: Mapping[str, int], items: AssignmentItems) -> int:
        if isinstance(term, Var):
            return self.find(asg[term.name])
        vals = tuple(self.materialize(a, asg, items) for a in term.args)
        got = self.funcs[term.func].get(vals)
        if got is not None:
            return self.find(got)
        fresh = self.add_element(self.sig.func(term.func).result_sort)
        self.funcs[term.func][vals] = fresh
        self.written.funcs[term.func].add(vals)
        self._use(term.func, vals, fresh)
        self.fresh_log.append(FreshEntry(fresh, term.func, vals, term, items))
        return fresh

    def enforce(self, atom: Atom, items: AssignmentItems) -> None:
        asg = {n: self.find(i) for n, i in items}
        if isinstance(atom, Def):
            self.materialize(atom.term, asg, items)
        elif isinstance(atom, Eq):
            l = self.materialize(atom.lhs, asg, items)
            r = self.materialize(atom.rhs, asg, items)
            if l != r:
                self.union(l, r)
                self.normalize()
        else:
            vals = tuple(self.find(self.materialize(a, asg, items)) for a in atom.args)
            if vals not in self.rels[atom.rel]:
                self.rels[atom.rel].add(vals)
                self.written.rels[atom.rel].add(vals)
                self.version += 1

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

    def run_plan(self, plan: _Plan, emit: tuple[int, ...], nslots: int, pools: dict, results: set) -> None:
        """Add to ``results`` the emitted slots of every way to run the plan.
        ``pools`` holds what each _CARRIER and _NEW step ranges over."""
        funcs, rels = self.funcs, self.rels
        vals = [0] * nslots
        end = len(plan)

        def join(k: int) -> None:
            if k == end:
                results.add(tuple(vals[s] for s in emit))
                return
            kind, sym, slots, extra = plan[k]
            k += 1
            if kind == _LOOKUP:
                v = funcs[sym].get(tuple(vals[s] for s in slots))
                if v is None:
                    return
                slot, bind = extra
                if bind:
                    vals[slot] = v
                elif vals[slot] != v:
                    return
                join(k)
            elif kind == _PROBE:
                for args in self.value_index(sym).get(vals[slots], ()):
                    if _unify(vals, extra, args):
                        join(k)
            elif kind == _SCAN:
                for args, v in funcs[sym].items():
                    if _unify(vals, extra, (*args, v)):
                        join(k)
            elif kind == _REL:
                for tup in rels[sym]:
                    if _unify(vals, extra, tup):
                        join(k)
            elif kind == _CARRIER:
                for c in pools[sym]:
                    vals[slots] = c
                    join(k)
            else:  # _NEW: slots names f for function entries, None for relation tuples
                for tup in pools[sym]:
                    if _unify(vals, extra, tup if slots is None else (*tup, funcs[slots][tup])):
                        join(k)

        join(0)

    def match_premise(self, seq: Sequent, delta: bool = False) -> list[AssignmentItems]:
        """The assignments at which the premise holds, sorted.  With
        ``delta``, only those that use a fact written in this round or the
        one before."""
        premise = _premise(seq)
        names = premise.names
        return [tuple(zip(names, tup)) for tup in self.matches(premise, delta)]

    def matches(self, premise: _Premise, delta: bool = False) -> list[tuple[int, ...]]:
        """match_premise on a compiled premise: sorted id tuples in context order."""
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
                self.run_plan(plan, premise.emit, premise.nslots, pools, results)
        return sorted(results)

    # -- rounds

    def run_round(self, theory: Theory, delta: bool = False) -> bool:
        """Match every sequent and enforce its conclusions.  With ``delta``
        (every sequent was matched in the round before, or the base is a
        model), match only instances that use a fact written in this round
        or the one before: any other instance was matched in the round
        before, or holds in the base, so its conclusion already holds and
        enforcing it again would change nothing."""
        v0 = self.version
        self.normalize()
        self.written_before, self.written = self.written, _Writes(self.sig)
        for seq in theory.sequents:
            for items in self.match_premise(seq, delta):
                for atom in seq.conclusion.atoms:
                    self.enforce(atom, items)
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
        for atom, items in presentation.forced:
            state.enforce(atom, items)
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
