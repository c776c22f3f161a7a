"""Deterministic saturation of partial structures under Horn sequents.

From a presentation (a finite base structure plus forced ground atoms)
the chase freely completes the structure to a model of the theory:
premises are matched, undefined conclusion subterms get fresh
strictly-increasing ids, and equations merge elements through a
least-id union-find kept congruence-closed.

Congruence closure is incremental, as in egg's rebuilding: every table
entry is one mutable cell, listed in a use-list under each id its key or
value holds (like the use-lists of term nodes in Downey, Sethi and Tarjan,
or egg's e-class parents), and so is every relation tuple.  A union queues
the losing id, and ``normalize`` re-keys only the cells on the queued ids'
use-lists, uniting the values of entries whose keys collide, until the
queue is empty.  A cell is re-keyed in place, so its listings under ids it
still holds stay valid, and it is listed again only under the ids new to
it; a cell whose new key collides with another entry is marked dead.
Every key, value and tuple is then canonical (the least id of its class),
the same fixpoint a full rebuild reaches.
Every union takes that one path, even the commonest: a fresh element,
created by an instance whose equation then merges it, united with the one
entry that holds it (``normalize`` then pops one listing).  Most such
unions never happen: when the equation's other side is already defined, a
conclusion kernel creates the element merged, storing the entry with its
final value, and the fresh id is used up and logged, as six items of one
flat list, but never live.  The other side may need ops of its own, up to
the union: if none reads the new element, they run first as read-only
lookups, and only when one misses is the element created live and the
other side evaluated after it (a lookup of the very key being created
misses, as it must: in op order it would read the new element back).

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
most of the carrier.  Each plan is then generated as the source of one
Python function, a kernel, compiled once: slots become local variables,
scans and probes nested loops with inline comparisons, lookups guards
(as in compiling query plans to code, Neumann 2011, and Souffle).

Each conclusion is compiled once too, into a straight-line program over
slots: one slot per context variable, then one per distinct subterm in
the post-order that recursive evaluation visits.  An application looks
its arguments' slots up in the function's table and creates a fresh
element (logged with its term and the instance's assignment) when the
entry is missing; each equation ends in a union, each relation atom in
an insert.  A sequent's program becomes a kernel as well, and a round
makes one call per sequent: the kernel reads the state once and pushes
every match through one loop, instead of one call per match (Neumann's
point again, on the conclusion side).  It creates missing elements
inline and after a union re-canonicalizes only the slots it still reads.
The programs of forced atoms are compiled once per chase for each atom and
context, and interpreted op by op: their terms differ on most prover calls.

Kernels are keyed by shape: the plan or program with every symbol
replaced by the index of its first occurrence.  Names and terms reach a
kernel as arguments, never as source, and every theory, and every
premise built on the fly, that shares a shape shares its compiled code.
The memo keeps the most recently used shapes only: hom search builds a
premise, and so a shape, from each source's diagram.

Every round matches every premise in full, through its one plan.  The
chase is restricted (standard), not oblivious (Fagin, Kolaitis, Miller
and Popa, "Data exchange", 2005): a round's join kernel tests the
conclusion, read only, where its last loop emits, and drops each match at
which it holds.  Outputs are those of firing every match: facts only grow
and unions keep every fact true, so the conclusion still holds at fire
time, and firing it would create, merge and log nothing.  Premises matched
for their own sake (``_satisfying``) and empty conclusions get no test.
Nor do premises without flat atoms (``[x: *] top``, ``[x, y] x = y``),
whose joins are loops over their carriers alone: in prover chases most of
their instances are active, so the conclusion kernel, which changes
nothing at an instance whose conclusion holds, is their only test.  That
kernel skips an instance whose ids lost a union since the match: the sorted
batch holds every tuple of the carriers, and canonical ids are lesser and
were live at the match, so the canonical tuple came earlier in the batch
and fired.  A guarded premise's moved instances are not always repeats: its
kernel re-finds their ids.

The prover tests its goal between rounds, running its conclusion's ops
(compiled once per call) read only at the canonical generic ids.  Callers
that read only the verdict have it tested inside each round as well, after
every kernel call that changed the state, and the chase stops there: facts
only grow, so the goal would still hold at the round's end.

Everything fires in a fixed order (sequents by declaration, assignments
lexicographically in canonical ids), so results are bit-for-bit
reproducible; a model lists every table in sorted key order, so it does
not depend on the history of its merges.

A chase pauses the cyclic collector (process-wide) and then leaves it as it
found it: a chase, kernel compilation included, makes no reference cycles.
A prover call pauses it too, around its chase, and drops the chase's result
before it resumes the collector: reference counting frees the result's young
key, cell and log tuples, which the next collection would otherwise walk.
"""

from __future__ import annotations

import gc
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Callable, Mapping, Optional, Sequence

from .structure import Hom, PartialStructure
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


@dataclass(frozen=True, eq=False)
class ChaseResult:
    signature: Signature = field(repr=False)
    live: dict[int, str] = field(repr=False)  # canonical id -> its sort
    funcs: dict[str, dict[tuple[int, ...], int]] = field(repr=False)  # the final tables, keyed by canonical ids
    rels: dict[str, set[tuple[int, ...]]] = field(repr=False)
    union_find: dict[int, int] = field(repr=False)  # every id ever created -> a lesser id of its class, or itself
    flat_log: list = field(repr=False)  # per fresh element six items: elem, func, args, term, names, ids
    status: str
    rounds: int
    merges: int

    # All three built on first read: the prover reads none.

    @cached_property
    def model(self) -> PartialStructure:
        """The final tables, every carrier and table sorted (see the module docstring)."""
        return PartialStructure(
            self.signature,
            {s: tuple(sorted(e for e, t in self.live.items() if t == s)) for s in self.signature.sorts},
            {f: {k: t[k] for k in sorted(t)} for f, t in self.funcs.items()},  # keys alone sort faster
            {r: frozenset(t) for r, t in self.rels.items()},
        )

    @cached_property
    def log(self) -> tuple[tuple, ...]:  # per fresh element, in id order: (elem, func, args, term, names, ids)
        return tuple(zip(*[iter(self.flat_log)] * 6))

    @cached_property
    def quotient(self) -> dict[int, int]:
        """Every id ever created -> the canonical (least) id of its class."""
        quotient: dict[int, int] = {}
        for i, p in sorted(self.union_find.items()):
            quotient[i] = i if p == i else quotient[p]  # p < i, so its class is known
        return quotient

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChaseResult):
            return NotImplemented
        return ((self.model, self.quotient, self.flat_log, self.status, self.rounds, self.merges)
                == (other.model, other.quotient, other.flat_log, other.status, other.rounds, other.merges))


class _Budget(Exception):
    pass


# Kinds of join steps in a compiled premise (see _order).
_LOOKUP = 0  # f(bound args): read the table, bind or check the value slot
_PROBE = 1  # f(args) = bound value, g(args) = bound value, ...: intersect the fibers
_SCAN = 2  # f(args) = value, value unbound: unify every table entry
_REL = 3  # R(args): unify every tuple of the relation
_CARRIER = 4  # a context variable no atom binds: every element of its sort's carrier

_Step = tuple  # (kind, symbol, slots, extra); see _order
_Plan = tuple[_Step, ...]
_FlatAtom = tuple[int, str, tuple[int, ...], int]  # (_SCAN or _REL, symbol, arg slots, value slot)


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


def _flatten(term: RawTerm, slots: dict, flat: list) -> int:
    """The slot of ``term``.  Variables have theirs in ``slots``, under
    their names; an application is keyed there by (symbol, argument slots),
    so no term is hashed.  One met for the first time takes the next slot,
    after its arguments', and is listed in ``flat`` as (term, argument
    slots)."""
    if isinstance(term, Var):
        return slots[term.name]
    key = (term.func, tuple([_flatten(a, slots, flat) for a in term.args]))
    slot = slots.get(key)
    if slot is None:
        slot = slots[key] = len(slots)
        flat.append((term, key[1]))
    return slot


class _Premise:
    """A premise flattened into atoms over variable slots, with its join plan.

    Every subterm gets one slot (the context variables take slots 0..n-1,
    repeated subterms share theirs) and becomes a flat atom
    ``f(slots) = slot``; an equation unites the slots of its sides.  Context
    variables that no atom binds range over their carrier, after the atoms.
    ``full`` joins every atom against the whole tables.  A premise without
    flat atoms holds at every tuple of its carriers, and its plan is
    carrier steps alone, with no guard.
    """

    __slots__ = ("names", "atoms", "emit", "guard", "full", "full_run")

    def __init__(self, ctx: Context, phi: HornFormula, guard: tuple = ()) -> None:
        names = self.names = ctx.names()
        slots = {n: i for i, n in enumerate(names)}  # see _flatten
        flat: list[tuple[object, tuple[int, ...]]] = []
        parent: list[int] = []

        def find(slot: int) -> int:
            parent.extend(range(len(parent), len(slots)))
            while parent[slot] != slot:
                slot = parent[slot]
            return slot

        for atom in normalized(phi).atoms:
            if isinstance(atom, Rel):
                flat.append((atom, tuple(_flatten(a, slots, flat) for a in atom.args)))
            else:
                a, b = find(_flatten(atom.lhs, slots, flat)), find(_flatten(atom.rhs, slots, flat))
                parent[max(a, b)] = min(a, b)
        self.atoms: list[_FlatAtom] = []
        for t, args in flat:
            found = tuple(find(a) for a in args)
            renamed = ((_REL, t.rel, found, -1) if isinstance(t, Rel)
                       else (_SCAN, t.func, found, find(slots[t.func, args])))
            if renamed not in self.atoms:
                self.atoms.append(renamed)
        self.emit = tuple(find(i) for i in range(len(names)))
        bound: set[int] = set()
        steps = _order(self.atoms, bound)
        sorts = dict(ctx.vars)
        for name, slot in zip(names, self.emit):
            if slot not in bound:
                steps.append((_CARRIER, sorts[name], slot, None))
                bound.add(slot)
        self.full: _Plan = tuple(steps)
        # the ops of a conclusion whose holding drops a match (see _join_source)
        self.guard = guard if self.atoms else ()
        self.full_run = _run(self.full, self.emit, self.guard)


# Operations of a compiled conclusion (see _Conclusion).
_APPLY = 0  # (_APPLY, f, arg slots, term): the next slot is f(args), created if undefined
_UNITE = 1  # (_UNITE, None, (slot, slot), None): unite the two values
_INSERT = 2  # (_INSERT, R, arg slots, None): add the tuple to R


class _Conclusion:
    """Atoms to enforce at an assignment, compiled to a straight-line program.

    Slots 0..n-1 hold the context variables; every distinct application
    gets the next slot, in the post-order in which recursive evaluation
    first meets it.  A repeated subterm reuses its slot: evaluating it again
    would find the entry its first visit read or created.  An application
    looks its arguments up in the function's table and creates a fresh
    element when the entry is missing; each atom ends in a ``_UNITE`` or an
    ``_INSERT`` (a definedness atom in its applications alone).  A
    sequent's conclusion also holds the program's kernel (see
    _fire_source); the one-shot programs of forced atoms and the prover's
    goal (see ``holds``) have none.
    """

    __slots__ = ("names", "atoms", "ops", "kernel")

    def __init__(self, names: tuple[str, ...], atoms: Sequence[Atom]) -> None:
        self.names = names
        self.atoms = tuple(atoms)
        slots = {n: i for i, n in enumerate(names)}  # see _flatten
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
            else:
                ops.append((_APPLY, t.func, args, t))
        self.ops = tuple(ops)
        self.kernel: Optional[Callable[[_ChaseState, list[tuple[int, ...]]], None]] = None

    def holds(self, funcs: Mapping[str, dict], rels: Mapping[str, set], vals: list[int]) -> bool:
        """The read-only twin of _ChaseState.fire at the canonical ids ``vals``: every
        lookup hits, every union's sides are equal, every inserted tuple is present."""
        for op, sym, args, _ in self.ops:
            key = tuple([vals[a] for a in args])
            if op == _APPLY:
                vals.append(funcs[sym].get(key))
                if vals[-1] is None:
                    return False
            elif key[0] != key[1] if op == _UNITE else key not in rels[sym]:
                return False
        return True


# ---------------------------------------------------------------------------
# Kernels: join plans and conclusion programs compiled to Python functions.
# The source generated from a shape (symbols replaced by their first-occurrence
# index, K0, K1, ...) defines a factory ``make(K0, K1, ...)`` that takes the
# symbols and returns the kernel as a closure over them.  A kernel reads each
# function table from the state once, on entry: after ``load`` a state only
# ever changes its tables in place.

_KERNELS: dict[tuple, Callable[..., Callable]] = {}  # shape -> compiled factory, least recently used first
_MAX_KERNELS = 256  # hom search compiles a shape per source diagram, so the memo evicts past this many
_KERNEL_NUMBERS = count()  # file names of compiled shapes, never reused after an eviction

_MAX_LOOPS = 16  # nested loops per generated function, under CPython's limit of 20 nested blocks

_Run = tuple[tuple, Callable]  # (sorts of its carrier steps, kernel) of a join plan; see _ChaseState.matches


def _kernel(shape: tuple, symbols: dict, source: Callable[..., list[str]]) -> Callable:
    make = _KERNELS.pop(shape, None)
    if make is None:
        namespace: dict = {"Budget": _Budget}
        code = "\n".join(source(*shape[1:], len(symbols)))
        exec(compile(code, f"<partialhorn {shape[0]} kernel {next(_KERNEL_NUMBERS)}>", "exec"), namespace)
        make = namespace.pop("make")  # no cycle between make and its globals
        if len(_KERNELS) >= _MAX_KERNELS:
            del _KERNELS[next(iter(_KERNELS))]
    _KERNELS[shape] = make
    return make(*symbols)


def _symbol(symbols: dict, x: object) -> int:
    return symbols.setdefault(x, len(symbols))


def _tuple(items: Sequence[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _run(plan: _Plan, emit: tuple[int, ...], guard: tuple) -> _Run:
    """The plan's kernel, with the sorts whose carriers it ranges over."""
    symbols: dict = {}
    steps = []
    for kind, sym, slots, extra in plan:
        if kind == _PROBE:
            sym = tuple((_symbol(symbols, f), out) for f, out in sym)
        else:
            sym = _symbol(symbols, sym)
        steps.append((kind, sym, slots, extra))
    sorts = tuple(dict.fromkeys(s for kind, s, _, _ in plan if kind == _CARRIER))
    test = tuple((op, None if sym is None else _symbol(symbols, sym), args) for op, sym, args, _ in guard)
    return sorts, _kernel(("join", emit, tuple(steps), test), symbols, _join_source)


def _join_source(emit: tuple[int, ...], steps: tuple, test: tuple, nsymbols: int) -> list[str]:
    """Source of the factory of a join kernel ``kernel(state, pools,
    results)``, which appends the emitted slots of every binding of the
    plan to the list ``results``.  Slot i is the local ``s<i>``.  Each step
    becomes a loop or a lookup, and a binding that fails a check goes on to the
    next iteration (or, before the first loop, ends the kernel).  Every
    _MAX_LOOPS loops the rest of the plan moves into a function of its
    own, called with the slots bound so far.  The last loop drops a binding
    at which the conclusion ``test`` holds, read only (its slots ``g<i>``):
    an application is a lookup, a union an equality, an insert a membership."""
    tables = sorted({s for k, s, _, _ in steps if k in (_LOOKUP, _SCAN)}
                    | {f for k, s, _, _ in steps if k == _PROBE and len(s) > 1 for f, _ in s}
                    | {f for op, f, _ in test if op == _APPLY})
    rels = sorted({s for k, s, _, _ in steps if k == _REL} | {r for op, r, _ in test if op == _INSERT})
    prelude = ["funcs, rels, index = state.funcs, state.rels, state.value_index",
               *(f"T{f} = funcs[K{f}]" for f in tables), *(f"R{r} = rels[K{r}]" for r in rels),
               *(f"I{f} = index(K{f})" for f in sorted({f for k, s, _, _ in steps if k == _PROBE for f, _ in s}))]
    lines = [f"def make({', '.join(f'K{i}' for i in range(nsymbols))}):"]
    bound: list[int] = []

    def header(name: str) -> list[str]:
        return [f"    def {name}(state, pools, results{''.join(f', s{s}' for s in bound)}):",
                *(f"        {line}" for line in prelude)]

    def put(text: str) -> None:
        body.append("    " * (loops + 2) + text)

    def unpack(pattern: tuple, j: int) -> tuple[list[str], list[str]]:
        """Loop targets for a pattern, and the checks against slots bound before."""
        targets, checks = [], []
        for i, (slot, bind) in enumerate(pattern):
            if bind:
                targets.append(f"s{slot}")
                bound.append(slot)
            else:
                targets.append(f"c{j}_{i}")
                checks.append(f"c{j}_{i} != s{slot}")
        return targets, checks

    body, loops = header("kernel"), 0
    for j, (kind, sym, slots, extra) in enumerate(steps):
        if loops == _MAX_LOOPS:  # the rest goes into a function of its own
            put(f"part{j}(state, pools, results{''.join(f', s{s}' for s in bound)})")
            lines.extend(body)
            body, loops = header(f"part{j}"), 0
        fail = "continue" if loops else "return"
        checks: list[str] = []
        if kind == _LOOKUP:
            out, bind = extra
            key = _tuple([f"s{a}" for a in slots])
            if bind:
                put(f"s{out} = T{sym}.get({key})")
                put(f"if s{out} is None: {fail}")
                bound.append(out)
            else:
                put(f"if T{sym}.get({key}) != s{out}: {fail}")
            continue
        if kind == _PROBE:  # walk the shortest fiber, check the others by table lookup
            fibers = [f"F{j}_{i}" for i in range(len(sym))]
            for fiber, (f, out) in zip(fibers, sym):
                put(f"{fiber} = I{f}.get(s{out})")
                put(f"if {fiber} is None: {fail}")
            targets, checks = unpack(extra, j)
            if len(sym) == 1:
                put(f"for {_tuple(targets)} in {fibers[0]}:")
            else:
                pairs = [(f"C{j}_{m}", f"D{j}_{m}") for m in range(len(sym) - 1)]
                names = ", ".join(f"{c}, {d}" for c, d in pairs)
                for i, fiber in enumerate(fibers):
                    others = ", ".join(f"T{f}, s{out}" for m, (f, out) in enumerate(sym) if m != i)
                    choose = f"W{j}, {names} = {fiber}, {others}"
                    put(choose if i == 0 else f"if len({fiber}) < len(W{j}): {choose}")
                put(f"for A{j} in W{j}:")
                checks = [f"{c}.get(A{j}) != {d}" for c, d in pairs] + checks
                put(f"    {_tuple(targets)} = A{j}")
        elif kind == _SCAN:
            targets, checks = unpack(extra, j)
            put(f"for {_tuple(targets[:-1])}, {targets[-1]} in T{sym}.items():")
        elif kind == _REL:
            targets, checks = unpack(extra, j)
            put(f"for {_tuple(targets)} in R{sym}:")
        else:  # _CARRIER
            put(f"for s{slots} in pools[K{sym}]:")
            bound.append(slots)
        loops += 1
        if checks:
            put(f"if {' or '.join(checks)}: continue")
    if test:  # one line of short-circuit tests, so no block is nested
        var, clauses = [f"s{s}" for s in emit], []
        for op, sym, args in test:
            vals = [var[a] for a in args]
            if op == _APPLY:
                var.append(f"g{len(var)}")
                clauses.append(f"({var[-1]} := T{sym}.get({_tuple(vals)})) is not None")
            elif op == _UNITE:
                clauses.append(f"{vals[0]} == {vals[1]}")
            else:
                clauses.append(f"{_tuple(vals)} in R{sym}")
        put(f"if {' and '.join(clauses)}: {'continue' if loops else 'return'}")
    put(f"results.append({_tuple([f's{s}' for s in emit])})")
    lines.extend(body)
    lines.append("    return kernel")
    return lines


def _union_after(ops: tuple, k: int, slot: int) -> Optional[tuple[int, int]]:
    """(u, other) when op u unites ``slot``, which op k computes, with
    ``other`` and every op in between is an application that does not read
    ``slot``: those ops compute the union's other side without it."""
    for u in range(k + 1, len(ops)):
        op, _, args, _ = ops[u]
        if op == _UNITE and slot in args:
            return u, sum(args) - slot
        if op != _APPLY or slot in args:
            return None
    return None


def _fire_kernel(conclusion: _Conclusion, skip_moved: bool) -> Callable[[_ChaseState, list[tuple[int, ...]]], None]:
    symbols: dict = {conclusion.names: 0}
    ops = tuple((op, None if sym is None else _symbol(symbols, sym), args,
                 None if term is None else _symbol(symbols, term)) for op, sym, args, term in conclusion.ops)
    return _kernel(("fire", len(conclusion.names), ops, skip_moved), symbols, _fire_source)


def _fire_source(nnames: int, ops: tuple, skip_moved: bool, nsymbols: int) -> list[str]:
    """Source of the factory of a conclusion kernel ``kernel(state, batch)``,
    which runs the program's ops at each assignment of the batch in turn,
    slot i in the local ``v<i>`` (K0 holds the context's names).  The
    state's tables, union-find, use-lists, fresh log and budget are read
    once; the next fresh id and the counts of changes and merges are
    locals, stored back when the batch ends or the budget stops it.
    After a union only the slots that later ops read are re-canonicalized.
    A miss creates the element inline, as ``create`` does.  When a union
    follows that unites the slot with another and the ops in between are
    applications that do not read the slot (see _union_after), those ops
    run first as one line of read-only lookups; if all hit (or there are
    none), the entry is stored with the other side's value and the fresh id
    is used up and logged as already merged, never live: the ops then find
    what they looked up, the union finds its sides equal, and the state is
    the one ``create`` and then ``unite`` leave.  If one misses, the element
    is created live and the ops run after it as usual.  ``skip_moved`` (a
    premise without flat atoms) skips an assignment whose ids lost a union
    since the match."""
    tables = sorted({sym for op, sym, _, _ in ops if op == _APPLY})
    lines = [f"def make({', '.join(f'K{i}' for i in range(nsymbols))}):",
             "    def kernel(state, batch):",
             "        parent, find, live, uses, log = state.parent, state.find, state.live, state.uses, state.flat_log",
             "        unite, insert, funcs, sorts = state.unite, state.insert, state.funcs, state.result_sort",
             *(f"        T{f}, S{f} = funcs[K{f}], sorts[K{f}]" for f in tables),
             "        first = fresh = state.next_id",
             "        stop = first + state.budget.max_elements - state.created",
             "        changes = merges = 0",
             "        try:",
             "            for ids in batch:"]
    body = []
    if nnames:
        body.append(f"{_tuple([f'v{i}' for i in range(nnames)])} = ids")
    refind = [f"if parent[v{i}] != v{i}: v{i} = find(v{i})" for i in range(nnames + len(ops))]
    body += [f"if parent[v{i}] != v{i}: continue" for i in range(nnames)] if skip_moved else refind[:nnames]
    slot = nnames
    for k, (op, sym, args, term) in enumerate(ops):
        vals = [f"v{a}" for a in args]
        if op == _APPLY:
            v, key = f"v{slot}", f"k{slot}"
            body += [f"{key} = {_tuple(vals)}", f"{v} = T{sym}.get({key})", f"if {v} is None:",
                     "    if fresh >= stop: raise Budget"]
            live = [f"{v} = parent[fresh] = fresh", f"live[fresh] = S{sym}", "changes += 1"]
            union = _union_after(ops, k, slot)
            if union is None:
                body += [f"    {line}" for line in live]
            else:  # merged into the union's other side, if the ops up to the union find it
                u, other = union
                merged = [f"{v} = parent[fresh] = v{other}", "changes += 2", "merges += 1"]
                lookups = [f"(v{slot + 1 + i} := T{f}.get({_tuple([f'v{a}' for a in key_slots])})) is not None"
                           for i, (_, f, key_slots, _) in enumerate(ops[k + 1:u])]
                if lookups:  # one line of short-circuit lookups, as in a join kernel's test
                    body += [f"    if {' and '.join(lookups)}:", *(f"        {line}" for line in merged),
                             "    else:", *(f"        {line}" for line in live)]
                else:
                    body += [f"    {line}" for line in merged]
            body += [f"    T{sym}[{key}] = {v}", f"    cell = [T{sym}, {key}]",
                     *(f"    uses[{a}].append(cell)" for a in (*vals, v)),
                     f"    log += fresh, K{sym}, {key}, K{term}, K0, ids", "    fresh += 1"]
            slot += 1
        elif op == _UNITE:
            body += [f"if {vals[0]} != {vals[1]}:", f"    unite({vals[0]}, {vals[1]})"]
            read = sorted({a for _, _, later, _ in ops[k + 1:] for a in later if a < slot})
            body += [f"    {refind[a]}" for a in read]
        else:
            body.append(f"insert(K{sym}, {_tuple(vals)})")
    lines += [f"                {line}" for line in body or ["pass"]]
    lines += ["        finally:",
              "            state.next_id, state.created = fresh, state.created + fresh - first",
              "            state.version += changes",
              "            state.merges += merges",
              "    return kernel"]
    return lines


# id(sequent) -> its compiled premise and conclusion, shared by every chase
# of the sequent's theory.  An entry goes when its sequent is collected
# (before the id can be reused), so the memo holds no more than the live
# sequents.
_COMPILED: dict[int, tuple[_Premise, _Conclusion]] = {}


def _compiled(seq: Sequent) -> tuple[_Premise, _Conclusion]:
    compiled = _COMPILED.get(id(seq))
    if compiled is None:
        conclusion = _Conclusion(seq.context.names(), seq.conclusion.atoms)
        premise = _Premise(seq.context, seq.premise, conclusion.ops)
        conclusion.kernel = _fire_kernel(conclusion, not premise.atoms)
        compiled = _COMPILED[id(seq)] = (premise, conclusion)
        weakref.finalize(seq, _COMPILED.pop, id(seq), None)
    return compiled


class _ChaseState:
    def __init__(self, sig: Signature, budget: ChaseBudget) -> None:
        self.sig = sig
        self.budget = budget
        self.live: dict[int, str] = {}  # canonical id -> its sort
        self.parent: dict[int, int] = {}
        self.funcs: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in sig.funcs}
        self.result_sort = {f.name: f.result_sort for f in sig.funcs}
        self.rels: dict[str, set[tuple[int, ...]]] = {r.name: set() for r in sig.rels}
        # id -> the cells [table, key] of the entries whose key or value holds
        # it; a cell whose key collided on re-keying is dead (key None)
        self.uses: defaultdict[int, list[list]] = defaultdict(list)
        # id -> the (rel, tuple) pairs whose tuple held it when stored
        self.rel_uses: defaultdict[int, list[tuple[str, tuple[int, ...]]]] = defaultdict(list)
        self.pending: list[int] = []  # ids that lost a union, not yet re-keyed
        self.indexes: dict[str, tuple[int, dict[int, list[tuple[int, ...]]]]] = {}
        self.pools: Optional[Mapping[str, Sequence[int]]] = None  # sort -> its pool, when borrowed (see load)
        self.next_id = 0
        self.created = 0
        self.version = 0
        self.merges = 0
        self.flat_log: list = []  # see ChaseResult.flat_log
        self.goal: Optional[Callable[[_ChaseState], bool]] = None  # tested inside rounds

    # -- union-find (least id is the representative)

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    # -- elements

    def load(self, base: PartialStructure, listed: bool = True) -> None:
        """Copy the base in, every cell listed under the ids it holds.  Unless
        ``listed`` (a state that only matches premises, which writes nothing),
        borrow the base's tables, relations and sorted carriers (as pools)."""
        if not listed:
            self.funcs.update(base.funcs)
            self.rels.update(base.rels)
            self.pools = base.carriers
            return
        for s in self.sig.sorts:
            for e in base.carriers.get(s, ()):
                if self.created >= self.budget.max_elements:
                    raise _Budget
                self.live[e] = s
                self.parent[e] = e
                self.created += 1
                self.next_id = max(self.next_id, e + 1)
        uses = self.uses
        for f, table in base.funcs.items():
            copy = self.funcs[f] = dict(table)
            for args, val in copy.items():
                cell = [copy, args]
                for a in args:
                    uses[a].append(cell)
                uses[val].append(cell)
        for r, tuples in base.rels.items():
            self.rels[r] = set(tuples)
            for tup in tuples:
                self._rel_use(r, tup)

    # -- congruence closure: keep tables keyed by canonical ids

    def _rel_use(self, r: str, tup: tuple[int, ...]) -> None:
        for i in tup:
            self.rel_uses[i].append((r, tup))

    def normalize(self) -> None:
        """Re-key the entries that hold an id which lost a union, and unite
        the values of entries whose keys then collide, until no id is
        pending.  Each entry's cell is listed under every id it holds, so
        afterwards every key and value is canonical.  A cell is re-keyed in
        place and listed again only under the ids new to it; a cell whose
        new key collides is dead, and the entry it met keeps its stored
        value until the pop of that value's id."""
        pending = self.pending
        if not pending:
            return
        parent, find, uses, live = self.parent, self.find, self.uses, self.live
        rel_uses, merges = self.rel_uses, 0
        stale: list[tuple[str, tuple[int, ...]]] = []
        while pending:
            lost = pending.pop()
            if rel_uses:  # no relation tuple is listed in most theories
                stale += rel_uses.pop(lost, ())
            for cell in uses.pop(lost, ()):
                table, args = cell
                if args is None:
                    continue  # dead: its key collided
                if len(args) == 1:  # most keys: no list to build
                    a = args[0]
                    key = args if (p := parent[a]) == a else (p,) if parent[p] == p else (find(a),)
                elif len(args) == 2:  # two-argument keys: no list either
                    a, b = args
                    key = (a if (p := parent[a]) == a else p if parent[p] == p else find(a),
                           b if (p := parent[b]) == b else p if parent[p] == p else find(b))
                else:
                    key = tuple([a if parent[a] == a else find(a) for a in args])
                if key == args:  # only the value moved
                    val = table[args]
                    if (p := parent[val]) != val:  # most ids lie one step below their root
                        val = table[args] = p if parent[p] == p else find(val)
                        uses[val].append(cell)
                    continue
                val = table.pop(args)
                revalue = (p := parent[val]) != val
                if revalue:
                    val = p if parent[p] == p else find(val)
                old = table.get(key)
                if old is not None:
                    cell[1] = None
                    if parent[old] != old:
                        old = find(old)
                    if old != val:  # congruent keys: unite the values
                        lo, hi = (old, val) if old < val else (val, old)
                        parent[hi] = lo
                        del live[hi]
                        pending.append(hi)
                        merges += 1
                    continue
                table[key] = val
                cell[1] = key
                for a, b in zip(args, key):
                    if a != b:
                        uses[b].append(cell)
                if revalue:
                    uses[val].append(cell)
        self.merges, self.version = self.merges + merges, self.version + merges
        for r, tup in stale:
            if tup in self.rels[r]:  # not moved already
                self.rels[r].remove(tup)
                moved = tuple([find(a) for a in tup])
                self.rels[r].add(moved)
                self._rel_use(r, moved)

    def unite(self, a: int, b: int) -> None:
        """Unite two canonical ids, queue the losing one and normalize."""
        lo, hi = (a, b) if a < b else (b, a)
        self.parent[hi] = lo
        del self.live[hi]
        self.merges += 1
        self.version += 1
        self.pending.append(hi)
        self.normalize()

    # -- firing

    def fire(self, conclusion: _Conclusion, ids: tuple[int, ...]) -> None:
        """Enforce the conclusion at the assignment ``ids`` (in the order of
        its names; ids may have lost a union since), which is logged with
        every element the instance creates.  The ops are interpreted one by
        one: forced atoms fire here, sequents through their batch kernels."""
        find, funcs, parent = self.find, self.funcs, self.parent
        vals = [i if parent[i] == i else find(i) for i in ids]
        for op, sym, args, term in conclusion.ops:
            if op == _APPLY:
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
                self.insert(sym, tuple([vals[a] for a in args]))

    def insert(self, r: str, tup: tuple[int, ...]) -> None:
        """Add a tuple of canonical ids to R."""
        if tup not in self.rels[r]:
            self.rels[r].add(tup)
            self._rel_use(r, tup)
            self.version += 1

    def create(self, f: str, args: tuple[int, ...], term: RawTerm, names: Sequence[str], ids: Sequence[int]) -> int:
        """A fresh element as the value of f at args, logged with the term
        and the assignment (names, ids) that called for it."""
        if self.created >= self.budget.max_elements:
            raise _Budget
        fresh = self.next_id
        self.next_id, self.created = fresh + 1, self.created + 1
        self.parent[fresh] = fresh
        self.live[fresh] = self.result_sort[f]
        self.version += 1
        self.funcs[f][args] = fresh
        cell = [self.funcs[f], args]  # listed under each id it holds
        for a in (*args, fresh):
            self.uses[a].append(cell)
        self.flat_log += fresh, f, args, term, names, ids
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

    def pool(self, sort: str) -> Sequence[int]:
        """What a _CARRIER step ranges over: the carrier of a sort, sorted."""
        if self.pools is not None:
            return self.pools.get(sort, ())
        return sorted([e for e, s in self.live.items() if s == sort])

    def matches(self, premise: _Premise) -> list[tuple[int, ...]]:
        """The assignments at which the premise holds and its guard does not,
        as id tuples in context order, sorted."""
        sorts, kernel = premise.full_run
        pools = {}
        for sort in sorts:
            pools[sort] = self.pool(sort)
            if not pools[sort]:
                return []  # the plan needs an element of every carrier it ranges over
        results: list[tuple[int, ...]] = []
        kernel(self, pools, results)
        # Every slot is a context variable or a table's value at other slots,
        # so the plan meets each match once.  A plan over a sorted carrier
        # emits in order, which sorted() finds.
        return sorted(results)

    # -- rounds

    def run_round(self, theory: Theory) -> bool:
        """Match every sequent in full and fire its conclusion at each active
        match, all in one kernel call (the join drops the matches where it
        holds, whose firing changes nothing; a premise without flat atoms has
        no guard, and all its instances go to the kernel, which changes
        nothing at those where the conclusion holds).  With a ``goal``, test
        it after each kernel call that changed the state (the kernel's unions
        have normalized it, so no id is pending) and end the round as soon as
        it holds: facts only grow, so it would hold at the round's end too."""
        v0 = self.version
        self.normalize()
        goal = self.goal
        for seq in theory.sequents:
            premise, conclusion = _compiled(seq)
            batch = self.matches(premise)
            if batch:  # most sequents of a round from a model match nothing
                v = self.version
                conclusion.kernel(self, batch)
                if goal is not None and self.version != v and goal(self):
                    break
        return self.version != v0


class _CollectorPaused:
    """A with-block during which the cyclic collector (process-wide) is
    paused, left as it was found; inside another pause it does nothing."""

    __slots__ = ("resume",)

    def __enter__(self) -> None:
        self.resume = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self.resume:
            gc.enable()


def chase(
    theory: Theory,
    presentation: Presentation,
    budget: Optional[ChaseBudget] = None,
    stop: Optional[Callable[[_ChaseState], bool]] = None,
    *,
    _stop_in_round: bool = False,
) -> ChaseResult:
    """Saturate the presentation under the theory's sequents.

    ``stop`` is tested after the forced atoms and after every round; the
    chase ends ``Stopped`` when it holds.  ``_stop_in_round`` (for callers
    that read only whether it stopped) also tests it inside each round,
    after every sequent's firing that changed the state, and ends the
    round there; the cut-short round counts as a round.  Rounds, elements
    and merges then differ from a chase that finishes its rounds, and a
    budget that would have run out later in the round no longer does."""
    budget = budget or ChaseBudget()
    state = _ChaseState(theory.signature, budget)
    if _stop_in_round:
        state.goal = stop
    status = COMPLETE
    rounds = 0
    with _CollectorPaused():  # the chase makes no reference cycles (see the module docstring)
        try:
            state.load(presentation.base)
            programs: dict[tuple, _Conclusion] = {}  # (id(atom), names) -> program; forced keeps each atom alive
            for atom, items in presentation.forced:
                key = (id(atom), tuple(n for n, _ in items))
                state.fire(programs.get(key) or programs.setdefault(key, _Conclusion(key[1], (atom,))),
                           tuple(i for _, i in items))
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
        result = ChaseResult(state.sig, state.live, state.funcs, state.rels, state.parent, state.flat_log, status,
                             rounds, state.merges)
        del state  # its use-lists and indexes are freed before the collector resumes, not walked by it
    return result


def _satisfying(S: PartialStructure, premises: Sequence[_Premise]) -> list[list[tuple[int, ...]]]:
    """For each premise (unguarded: matched for its own sake), the assignments
    (id tuples in context order) at which it holds in S, sorted."""
    state = _ChaseState(S.signature, ChaseBudget())
    state.load(S, listed=False)
    return [state.matches(premise) for premise in premises]


# ---------------------------------------------------------------------------
# Representing models and the bounded prover


def _generic_presentation(
    theory: Theory, ctx: Context, phi: HornFormula
) -> tuple[Presentation, AssignmentItems]:
    """The generic context: one base element per variable (ids in context
    order) and the atoms of phi forced at the generic assignment."""
    carriers = {s: tuple(i for i, (_, t) in enumerate(ctx.vars) if t == s) for s in theory.signature.sorts}
    base = PartialStructure(theory.signature, carriers, {}, {})  # no tables: the state starts with empty ones
    items = tuple((name, i) for i, name in enumerate(ctx.names()))
    return Presentation(base, tuple((atom, items) for atom in phi.atoms)), items


def representing_model(
    theory: Theory,
    ctx: Context,
    phi: HornFormula,
    budget: Optional[ChaseBudget] = None,
) -> tuple[ChaseResult, dict[str, int]]:
    """Chase the generic context; the generic assignment lands in the model
    (its variables whose elements a budget below the context's size left
    unloaded do not)."""
    presentation, items = _generic_presentation(theory, ctx, phi)
    result = chase(theory, presentation, budget)
    generic = {name: result.quotient[i] for name, i in items if i in result.union_find}
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


def prove_sequent(
    theory: Theory, seq: Sequent, budget: Optional[ChaseBudget] = None, *, _verdict_only: bool = False
) -> ProveResult:
    """Bounded derivability: chase the premise, watch for the conclusion.

    Valid as soon as the conclusion holds at the generic assignment;
    Invalid only when the chase completes without it; Unknown on budget.
    The conclusion is tested after every round, so rounds, elements and
    merges are those of whole rounds.  ``_verdict_only`` (for callers that
    read only the verdict) tests it inside rounds too and stops the chase
    where it first holds: Valid and Invalid stay as they are, but Unknown
    may become Valid when the budget would have run out later in the round
    that reached the conclusion, and the counts are those of the cut chase.
    """
    presentation, items = _generic_presentation(theory, seq.context, seq.premise)
    goal = _Conclusion(seq.context.names(), seq.conclusion.atoms)

    def stop(state: _ChaseState) -> bool:
        # stop runs after normalize, so the live tables are keyed by canonical ids
        return goal.holds(state.funcs, state.rels, [state.find(i) for _, i in items])

    with _CollectorPaused():  # the chase's result is freed before the collector resumes, not walked by it
        result = chase(theory, presentation, budget, stop=stop, _stop_in_round=_verdict_only)
        verdict = {STOPPED: VALID, COMPLETE: INVALID}.get(result.status, UNKNOWN)
        proved = ProveResult(verdict, result.rounds, len(result.live), result.merges)
        del result
    return proved


def reduces(
    theory: Theory,
    ctx: Context,
    sigma: RawTerm,
    tau: RawTerm,
    budget: Optional[ChaseBudget] = None,
) -> Optional[bool]:
    """sigma reduces to tau: defined sigma forces sigma = tau (None on budget).

    Only the verdict is read, so the chase stops inside the round where
    sigma = tau first holds: a budget that ``prove_sequent`` exhausts in
    that round (Unknown) may give True here."""
    seq = Sequent(ctx, HornFormula((Def(sigma),)), HornFormula((Eq(sigma, tau),)), label="reduces")
    return {VALID: True, INVALID: False}.get(prove_sequent(theory, seq, budget, _verdict_only=True).verdict)


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
) -> tuple[ChaseResult, Optional[Hom]]:
    """Coequalizer of f, g : A -> B in models: force f(a) = g(a), chase (no map if incomplete)."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("parallel pair required")
    B = f.target
    forced = tuple(
        (Eq(Var("u"), Var("v")), (("u", f.mapping[a]), ("v", g.mapping[a])))
        for a in sorted(f.mapping)
    )
    result = chase(theory, Presentation(B, forced), budget)
    if result.status != COMPLETE:  # perhaps before every element of B was loaded
        return result, None
    return result, Hom(B, result.model, {b: result.quotient[b] for b in B.elements()})


def induced_hom(result: ChaseResult, base_map: Mapping[int, int], target: PartialStructure) -> Hom:
    """Extend a base-id map along the chase: old classes take the base
    value (must be constant on classes), fresh classes evaluate their
    creating function entry in the target (must be defined)."""
    values: dict[int, int] = {}
    quotient = result.quotient
    for b, t in sorted(base_map.items()):
        if values.setdefault(quotient[b], t) != t:
            raise ValueError(f"map not constant on the class of {b}")
    for elem, func, args, _, _, _ in result.log:
        c = quotient[elem]
        targs = tuple([values[quotient[a]] for a in args])
        v = target.funcs.get(func, {}).get(targs)
        if v is None:
            raise ValueError(f"{func}{targs} undefined in the target")
        if values.setdefault(c, v) != v:
            raise ValueError(f"inconsistent values on class {c}")
    return Hom(result.model, target, {e: values[e] for e in result.model.elements()})
