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
compiled once per chase, its atoms ordered greedily so that each next
atom shares the most variables bound before it.  A flat atom is then a
table lookup when its arguments are bound, a probe of the function's
value -> arguments index (rebuilt lazily whenever the state changed)
when only its value is, and a scan of the table otherwise.

Everything fires in a fixed order (sequents by declaration, assignments
lexicographically in canonical ids), so results are bit-for-bit
reproducible; snapshots list every table in sorted key order, so a
model does not depend on the history of its merges.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

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


# Kinds of join steps in a compiled premise (see _compile_premise).
_LOOKUP = 0  # f(bound args): read the table, bind or check the value slot
_PROBE = 1  # f(args) = bound value: read the value index, unify the args
_SCAN = 2  # f(args) = value, value unbound: unify every table entry
_REL = 3  # R(args): unify every tuple of the relation
_CARRIER = 4  # a context variable no atom binds: every element of its sort

_Step = tuple  # (kind, symbol, slots, extra); see _compile_premise
_Plan = tuple[tuple[_Step, ...], tuple[int, ...], int]


def _compile_premise(seq: Sequent) -> _Plan:
    """Flatten a premise into atoms over variable slots and order the join.

    Every subterm gets one slot (the context variables take slots 0..n-1,
    repeated subterms share theirs) and becomes a flat atom
    ``f(slots) = slot``; an equation unites the slots of its sides.  The
    atoms are then ordered greedily: each next atom shares the most slots
    already bound, ties going to a pure table lookup and then to the
    earlier atom.  Context variables that no atom binds range over their
    carrier at the end.  Returns the steps, the slot that holds each
    context variable's value, and the number of slots.
    """
    names = seq.context.names()
    slot_of = {n: i for i, n in enumerate(names)}
    parent = list(range(len(names)))
    memo: dict[RawTerm, int] = {}
    atoms: list[tuple[int, str, tuple[int, ...], int]] = []

    def flat(t: RawTerm) -> int:
        if isinstance(t, Var):
            return slot_of[t.name]
        slot = memo.get(t)
        if slot is None:
            args = tuple(flat(a) for a in t.args)
            slot = memo[t] = len(parent)
            parent.append(slot)
            atoms.append((_SCAN, t.func, args, slot))  # step kind chosen below
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
    remaining: list[tuple[int, str, tuple[int, ...], int]] = []
    for kind, sym, args, out in atoms:
        renamed = (kind, sym, tuple(find(a) for a in args), find(out) if out >= 0 else -1)
        if renamed not in remaining:
            remaining.append(renamed)

    bound: set[int] = set()
    steps: list[_Step] = []

    def score(atom: tuple[int, str, tuple[int, ...], int]) -> tuple[int, bool]:
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
    sorts = dict(seq.context.vars)
    emit = tuple(find(slot_of[n]) for n in names)
    for name, slot in zip(names, emit):
        if slot not in bound:
            steps.append((_CARRIER, sorts[name], slot, None))
            bound.add(slot)
    return tuple(steps), emit, len(parent)


def _pattern(slots: tuple[int, ...], bound: set[int]) -> tuple[tuple[int, bool], ...]:
    """Per position: the slot, and whether it is bound there (else checked
    against the value bound before).  Adds the slots to ``bound``."""
    out = []
    for slot in slots:
        out.append((slot, slot not in bound))
        bound.add(slot)
    return tuple(out)


def _unify(vals: list[int], pattern: tuple[tuple[int, bool], ...], tup: tuple[int, ...]) -> bool:
    for (slot, bind), x in zip(pattern, tup):
        if bind:
            vals[slot] = x
        elif vals[slot] != x:
            return False
    return True


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
        self.plans: dict[int, tuple[Sequent, _Plan]] = {}  # id(seq) -> its compiled premise
        self.indexes: dict[str, tuple[int, dict[int, list[tuple[int, ...]]]]] = {}
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
        while self.pending:
            for f, args in self.uses.pop(self.pending.pop(), ()):
                table = self.funcs[f]
                val = table.pop(args, None)
                if val is None:
                    continue  # re-keyed already
                key = tuple(self.find(a) for a in args)
                val = self.find(val)
                old = table.get(key)
                if old is not None and self.find(old) != val:
                    self.union(old, val)
                    val = self.find(val)
                table[key] = val
                self._use(f, key, val)
        for r, tuples in self.rels.items():
            self.rels[r] = {tuple(self.find(a) for a in tup) for tup in tuples}

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

    def match_premise(self, seq: Sequent) -> list[AssignmentItems]:
        cached = self.plans.get(id(seq))
        if cached is None or cached[0] is not seq:
            cached = self.plans[id(seq)] = (seq, _compile_premise(seq))
        steps, emit, nslots = cached[1]
        funcs, rels = self.funcs, self.rels
        pools = {sym: self.carrier(sym) for kind, sym, _, _ in steps if kind == _CARRIER}
        vals = [0] * nslots
        results: set[tuple[int, ...]] = set()

        def join(k: int) -> None:
            if k == len(steps):
                results.add(tuple(vals[s] for s in emit))
                return
            kind, sym, slots, extra = steps[k]
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
            else:
                for c in pools[sym]:
                    vals[slots] = c
                    join(k)

        join(0)
        names = seq.context.names()
        return [tuple(zip(names, tup)) for tup in sorted(results)]

    # -- rounds

    def run_round(self, theory: Theory) -> bool:
        v0 = self.version
        self.normalize()
        for seq in theory.sequents:
            for items in self.match_premise(seq):
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
) -> ChaseResult:
    """Saturate the presentation under the theory's sequents."""
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
                changed = state.run_round(theory)
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
