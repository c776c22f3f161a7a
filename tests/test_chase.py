"""Deterministic chase: free models, prover verdicts, quotients, budgets."""

import gc
import importlib
import importlib.util
import itertools
import json
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from partialhorn import (
    BUDGET_EXCEEDED,
    COMPLETE,
    INVALID,
    STABILIZED,
    STOPPED,
    UNKNOWN,
    VALID,
    ChaseBudget,
    Hom,
    Presentation,
    ProveResult,
    chase,
    coequalizer,
    equational_scale,
    induced_hom,
    is_hom,
    is_model,
    ladder_theory,
    load_hom,
    ncat_theory,
    prove_sequent,
    reduces,
    representing_model,
    term_equivalent,
)
from partialhorn.chase import _ChaseState
from partialhorn.structure import ModelReport, PartialStructure, enumerate_homs, holds
from partialhorn.syntax import (
    Context,
    Def,
    Eq,
    HornFormula,
    Rel,
    Sequent,
    Var,
    atom_from_json,
    atom_to_json,
    formula_from_json,
    formula_to_json,
    normalized,
    parse_formula,
    parse_sequent,
    parse_term,
    parse_theory,
    term_from_json,
    term_to_json,
    theory_from_json,
    theory_to_json,
)

CHASE_MODULE = importlib.import_module("partialhorn.chase")  # the package exports chase()
LADDER = ladder_theory()
TOP = HornFormula(())
EMPTY = Context(())

# one generator, one total unary op: the free model is an infinite chain
GROWING = parse_theory("""
theory growing {
  sort s;
  func k : s;
  func f : s -> s;
  axiom [] top |- k !;
  axiom [x: s] top |- f(x) !;
}
""")


def free_ladder(text: str):
    phi = TOP if text == "top" else parse_formula(LADDER.signature, text)
    result, _ = representing_model(LADDER, EMPTY, phi)
    assert result.status == COMPLETE
    return result.model


def test_free_ladder_on_nothing_has_two_elements():
    # ax1 forces a and b; nothing identifies them, c and d stay undefined
    model = free_ladder("top")
    assert model.size() == 2
    assert is_model(model, LADDER)
    assert model.funcs["c"] == {} and model.funcs["d"] == {}


def test_free_ladder_forcing_a_eq_c():
    # a = c defines c, whose bisequent forces a = b, and then d appears:
    # the result is {a = b = c, d}
    model = free_ladder("a = c")
    assert model.size() == 2
    fa = model.funcs["a"][()]
    assert model.funcs["b"][()] == fa
    assert model.funcs["c"][()] == fa
    assert model.funcs["d"][()] != fa


def test_free_ladder_forcing_a_eq_b():
    # a = b makes c defined (not equal to anything), d stays undefined
    model = free_ladder("a = b")
    assert model.size() == 2
    assert model.funcs["b"][()] == model.funcs["a"][()]
    assert model.funcs["c"][()] != model.funcs["a"][()]
    assert model.funcs["d"] == {}


def test_chase_is_deterministic():
    phi = parse_formula(LADDER.signature, "a = c")
    r1, g1 = representing_model(LADDER, EMPTY, phi)
    r2, g2 = representing_model(LADDER, EMPTY, phi)
    assert r1.model == r2.model
    assert r1.fresh_log == r2.fresh_log
    assert r1.quotient == r2.quotient
    assert g1 == g2


def test_fresh_ids_extend_base_ids():
    phi = parse_formula(LADDER.signature, "a = c")
    result, _ = representing_model(LADDER, EMPTY, phi)
    created = [entry.elem for entry in result.fresh_log]
    assert created == sorted(created)
    assert all(e >= 0 for e in created)


def test_budget_exceeded_on_growing_theory():
    result, _ = representing_model(GROWING, EMPTY, TOP, ChaseBudget(max_elements=10))
    assert result.status == BUDGET_EXCEEDED
    result, _ = representing_model(GROWING, EMPTY, TOP, ChaseBudget(max_rounds=3))
    assert result.status == BUDGET_EXCEEDED
    assert result.rounds == 3


def test_stop_callback_reports_stopped():
    base = PartialStructure(LADDER.signature, {"s": ()}, {f.name: {} for f in LADDER.signature.funcs},
                            {})
    result = chase(LADDER, Presentation(base), stop=lambda state: len(state.parent) >= 2)
    assert result.status == STOPPED


def test_prove_ladder_sequents():
    cases = [
        ("[] a = c |- d !", VALID),
        ("[] d ! |- a = b", VALID),  # d! gives a = c, c! gives a = b
        ("[] top |- a !", VALID),
        ("[] top |- a = b", INVALID),
        ("[] a = b |- a = c", INVALID),
    ]
    for text, verdict in cases:
        (seq,) = parse_sequent(LADDER.signature, text)
        res = prove_sequent(LADDER, seq)
        assert res.verdict == verdict, text


def test_prove_unknown_on_budget():
    (seq,) = parse_sequent(GROWING.signature, "[] top |- k = f(k)")
    res = prove_sequent(GROWING, seq, ChaseBudget(max_elements=20))
    assert res.verdict == UNKNOWN


def test_reduces_is_directed():
    # f collapses to the identity wherever it is defined, but nothing makes
    # it defined: f(x) reduces to x while x does not reduce to f(x)
    th = parse_theory("""
    theory collapse {
      sort s;
      func f : s -> s;
      axiom [x: s] f(x) ! |- f(x) = x;
    }
    """)
    ctx = Context((("x", "s"),))
    fx = parse_term(th.signature, "f(x)")
    x = Var("x")
    assert reduces(th, ctx, fx, x) is True
    assert reduces(th, ctx, x, fx) is False
    assert term_equivalent(th, ctx, fx, x) is False
    assert term_equivalent(th, ctx, fx, fx) is True


def test_reduces_on_ladder_constants():
    sig = LADDER.signature
    a, b, c, d = (parse_term(sig, t) for t in "abcd")
    # c! yields a = b but not a = c; d! yields a = c
    assert reduces(LADDER, EMPTY, c, a) is False
    assert reduces(LADDER, EMPTY, d, d) is True
    assert term_equivalent(LADDER, EMPTY, a, b) is False


def test_reduces_unknown_on_budget():
    sig = GROWING.signature
    res = reduces(GROWING, EMPTY, parse_term(sig, "k"), parse_term(sig, "f(k)"),
                  ChaseBudget(max_elements=20))
    assert res is None


def test_coequalizer_universal_property(ladder, ladder_models):
    free1 = ladder_models["ladder_free1"].structure
    M = ladder_models["ladder_M"].structure
    f, g = sorted(enumerate_homs(free1, M), key=lambda h: sorted(h.mapping.items()))
    result, q = coequalizer(ladder, f, g)
    assert result.status == COMPLETE
    assert is_hom(q)
    for a in f.source.elements():
        assert q.mapping[f.mapping[a]] == q.mapping[g.mapping[a]]
    # mediating map: any u with u f = u g factors uniquely through q
    for u in enumerate_homs(M, M):
        if all(u.mapping[f.mapping[a]] == u.mapping[g.mapping[a]] for a in f.source.elements()):
            mediators = [
                m for m in enumerate_homs(q.target, M)
                if all(m.mapping[q.mapping[b]] == u.mapping[b] for b in M.elements())
            ]
            assert len(mediators) == 1


# A chase that runs out of budget, here before the second element of B is
# loaded, gives no quotient map.
def test_coequalizer_over_budget_has_no_quotient_map(ladder, ladder_models):
    M = ladder_models["ladder_M"].structure
    identity = Hom(M, M, {e: e for e in M.elements()})
    result, q = coequalizer(ladder, identity, identity, ChaseBudget(max_elements=1))
    assert result.status == BUDGET_EXCEEDED and q is None
    result, q = coequalizer(ladder, identity, identity, ChaseBudget(max_elements=2))
    assert result.status == COMPLETE and q == identity


def test_coequalizer_rejects_non_parallel(ladder, ladder_models):
    M = ladder_models["ladder_M"].structure
    T = ladder_models["ladder_T"].structure
    f = enumerate_homs(M, T)[0]
    g = enumerate_homs(M, M)[0]
    with pytest.raises(ValueError):
        coequalizer(ladder, f, g)


def test_induced_hom_errors():
    phi = parse_formula(LADDER.signature, "a = c")
    result, _ = representing_model(LADDER, EMPTY, phi)
    # target N interprets nothing, so the fresh entries cannot evaluate
    N = PartialStructure(LADDER.signature, {"s": (0,)},
                         {f.name: {} for f in LADDER.signature.funcs}, {})
    with pytest.raises(ValueError):
        induced_hom(result, {}, N)


def test_induced_hom_must_be_constant_on_classes():
    th = parse_theory("theory t { sort s; axiom [x: s, y: s] top |- x = y; }")
    base = PartialStructure(th.signature, {"s": (0, 1)}, {}, {})
    result = chase(th, Presentation(base))
    two = PartialStructure(th.signature, {"s": (0,)}, {}, {})
    assert result.model.size() == 1
    with pytest.raises(ValueError):
        induced_hom(result, {0: 0, 1: 1}, two)  # 1 is not a target element


NCAT1 = ncat_theory(1)
ORDER = parse_theory("""
theory order {
  sort s;
  func f : s -> s;
  rel R : s, s;
  axiom [x: s, y: s] R(x, y) & R(y, x) |- x = y;
  axiom [x: s, y: s] R(x, y) |- f(x) = y;
  axiom [x: s, y: s, z: s] R(x, y) & R(y, z) |- R(x, z);
}
""")

NCAT2 = ncat_theory(2)
# Two sorts, so that a premise ranges over two carriers.
GRAPH = parse_theory("""
theory graph {
  sort v;
  sort e;
  func src : e -> v;
  func tgt : e -> v;
  rel L : v, v;
  axiom [x: e] top |- src(x) ! & tgt(x) !;
  axiom [u: v, w: v] L(u, w) |- L(w, u);
}
""")

# Premises, one per shape the compiled matcher treats differently:
# equalities of variables, a join of two flat applications, a bound side
# against a flat open application, nested terms, an application equal to
# one of its arguments, repeated variables (also as the value), a
# disconnected four-atom premise shaped like interchange, definedness of a
# binary application, a context variable no atom mentions, relation atoms,
# probes that intersect the fibers of two or three atoms over the same
# arguments (ncat2's interchange, unary and binary pairs, one atom's value an
# argument), nullary constants (a plan that starts with a lookup outside any
# loop), empty contexts, and atoms and carriers over two sorts.
MATCH_PREMISES = {
    LADDER: (
        "[] a = b",
        "[] c !",
        "[] a = c & d !",
        "[] top",
        "[x: s] c = x & a = x",
        "[x: s, y: s] a = x & d = y",
    ),
    NCAT1: (
        "[x: *, y: *, z: *] x = y & y = z",
        "[x: *, y: *] d1(x) = c1(y)",
        "[x: *, y: *] d1(x) = c1(x) & comp1(x, y) = c1(x)",
        "[x: *, y: *] d1(d1(x)) = c1(y)",
        "[x: *] comp1(x, d1(x)) = x",
        "[x: *, y: *] comp1(x, x) = y",
        "[x: *] comp1(x, x) = x",
        "[] top",
        "[x: *, y: *, z: *, w: *] d1(x) = c1(y) & d1(z) = c1(w) & c1(x) = c1(z) & d1(y) = d1(w)",
        "[x: *, y: *] comp1(x, y) = comp1(x, y)",
        "[x: *, y: *] comp1(x, y) ! & d1(y) = x",
        "[x: *, y: *] d1(x) !",
    ),
    NCAT2: (
        "[x: *, y: *, z: *, w: *] d1(x) = c1(y) & d1(z) = c1(w) & d2(x) = c2(z) & d2(y) = c2(w)",
        "[x: *, y: *] d1(x) = c1(y) & d2(x) = c2(y)",
        "[x: *, y: *, z: *] d1(z) = z & comp1(x, y) = z & comp2(x, y) = z",
        "[x: *, y: *, z: *] d1(x) = z & comp1(x, y) = z & comp2(x, y) = z",
        "[x: *, y: *, z: *] c2(z) = d2(z) & comp1(x, y) = c2(z) & comp2(x, y) = d1(z) & d1(z) = d2(z)",
        "[x: *, y: *] d1(x) = y & c1(y) = d2(x) & c2(y) = d2(x) & d1(y) = d2(x)",
        "[x: *, y: *] d1(y) = y & c1(x) = y & d2(x) = y",
    ),
    ORDER: (
        "[x: s, y: s] R(x, y) & R(y, x)",
        "[x: s, y: s] R(x, f(y))",
        "[x: s, y: s] R(x, x) & f(x) = y",
        "[x: s, y: s, z: s] R(x, y) & R(y, z) & x = z",
    ),
    GRAPH: (
        "[x: e, y: e] src(x) = src(y) & tgt(x) = tgt(y)",
        "[x: e, u: v, w: v] src(x) = u & L(u, w)",
        "[x: e, u: v] src(x) = tgt(x) & L(u, u)",
        "[u: v, x: e] top",
        "[u: v, w: v] L(u, w) & L(w, u)",
    ),
}

# Ground atoms to force over two base elements u, v.
FORCED_ATOMS = {
    LADDER: ("u = v", "a = b", "a = c", "c !", "d !", "a = u"),
    NCAT1: ("u = v", "d1(u) = v", "comp1(u, v) !", "comp1(u, comp1(v, u)) !"),
    NCAT2: ("comp2(u, v) !", "d2(u) = c1(v)", "comp1(u, comp2(v, u)) !"),
    ORDER: ("u = v", "R(u, v)", "f(u) = v", "R(f(u), v)", "f(f(v)) !"),
}


@st.composite
def structures(draw, sig, max_size):
    """A random partial structure with 1..max_size elements per sort."""
    carriers: dict = {}
    for s in sig.sorts:
        start = sum(map(len, carriers.values()))
        carriers[s] = tuple(range(start, start + draw(st.integers(1, max_size), label=f"elements of {s}")))
    elem = {s: st.integers(c[0], c[-1]) for s, c in carriers.items()}
    n = sum(map(len, carriers.values()))
    funcs = {
        f.name: draw(st.dictionaries(st.tuples(*[elem[s] for s in f.arg_sorts]), elem[f.result_sort],
                                     max_size=len(carriers[f.result_sort])), label=f.name)
        for f in sig.funcs
    }
    rels = {
        r.name: frozenset(draw(st.sets(st.tuples(*[elem[s] for s in r.arg_sorts]), max_size=2 * n), label=r.name))
        for r in sig.rels
    }
    return PartialStructure(sig, carriers, funcs, rels)


# Free ncat2 models, whose d1/c1 and d2/c2 are defined at the same cells.
NCAT2_MODELS = tuple(
    representing_model(NCAT2, seq.context, seq.premise)[0].model
    for text in ("[x: *] top", "[x: *, y: *] d2(x) = c2(y)", "[x: *, y: *] d1(x) = c1(y)")
    for seq in parse_sequent(NCAT2.signature, f"{text} |- top")
)


@st.composite
def substructures(draw, models, max_size):
    """A model restricted to at most max_size of its elements: a table keeps
    the entries whose arguments and value are kept.  Unlike random tables,
    the boundaries of a kept cell stay defined together, so a probe that
    walks one fiber meets cells that fail the other fibers' checks."""
    M = draw(st.sampled_from(models), label="model")
    keep = set(draw(st.lists(st.sampled_from(M.elements()), min_size=1, max_size=max_size, unique=True)))
    carriers = {s: tuple(e for e in es if e in keep) for s, es in M.carriers.items()}
    funcs = {f: {k: v for k, v in t.items() if v in keep and keep.issuperset(k)} for f, t in M.funcs.items()}
    return PartialStructure(M.signature, carriers, funcs, M.rels)


# The brute-force oracle for is_model: every assignment of each sequent's
# context, lexicographic in the ids (carriers are sorted), in declaration
# order; the first one where the premise holds and the conclusion does not.
def assignments(S, ctx):
    names = ctx.names()
    for combo in itertools.product(*(S.carriers.get(s, ()) for _, s in ctx.vars)):
        yield dict(zip(names, combo))


def validates(S, seq):
    for a in assignments(S, seq.context):
        if holds(S, a, seq.premise) and not holds(S, a, seq.conclusion):
            return ModelReport(False, (seq, a))
    return ModelReport(True)


def brute_is_model(S, theory):
    for seq in theory.sequents:
        rep = validates(S, seq)
        if not rep:
            return rep
    return ModelReport(True)


# The premise matcher agrees with brute-force satisfaction over all assignments,
# and is_model with the oracle, before and after unions (which must refresh
# the value indexes).
@given(st.data())
def test_match_premise_matches_brute_force(data):
    theory = data.draw(st.sampled_from(list(MATCH_PREMISES)), label="theory")
    sig = theory.signature
    drawn = structures(sig, 4)
    base = data.draw(st.one_of(drawn, substructures(NCAT2_MODELS, 6)) if theory is NCAT2 else drawn)
    pair = st.sampled_from(sig.sorts).flatmap(lambda s: st.tuples(*[st.sampled_from(base.carriers[s])] * 2))
    pairs = data.draw(st.lists(pair, max_size=3), label="unions")
    state = _ChaseState(sig, ChaseBudget())
    state.load(base)
    for step in range(2):
        model = state.snapshot()
        assert is_model(model, theory) == brute_is_model(model, theory), step
        for text in MATCH_PREMISES[theory]:
            (seq,) = parse_sequent(sig, f"{text} |- top")
            names = seq.context.names()
            found = {tuple(zip(names, ids)) for ids in state.matches(CHASE_MODULE._compiled(seq)[0])}
            brute = set()
            for combo in itertools.product(*(model.carriers[s] for _, s in seq.context.vars)):
                if holds(model, dict(zip(names, combo)), seq.premise):
                    brute.add(tuple(zip(names, combo)))
            assert found == brute, (step, text)
        for u, v in pairs:
            a, b = state.find(u), state.find(v)
            if a != b:
                state.unite(a, b)


# Some premises above compile to probes that intersect two or more fibers,
# in the full plan and in delta plans.
def test_match_premises_include_fiber_intersections():
    full, delta = set(), set()
    for theory, texts in MATCH_PREMISES.items():
        for text in texts:
            premise, _ = CHASE_MODULE._compiled(parse_sequent(theory.signature, f"{text} |- top")[0])
            for plans, sizes in (((premise.full,), full), (premise.deltas(), delta)):
                sizes.update(len(sym) for plan in plans for kind, sym, _, _ in plan if kind == CHASE_MODULE._PROBE)
    assert max(full) >= 2 and max(delta) >= 3


# Chase-built structures for the model check: each premise above chased
# under a budget of 10 elements (complete, or cut short), and the free ncat
# models of a cell and of a composable pair.
FREE_NCAT = {
    NCAT1: tuple(
        representing_model(NCAT1, seq.context, seq.premise)[0].model
        for text in ("[x: *] top", "[x: *, y: *] d1(x) = c1(y)")
        for seq in parse_sequent(NCAT1.signature, f"{text} |- top")
    ),
    NCAT2: NCAT2_MODELS[:2],
}


def _chased_models(theory):
    for text in MATCH_PREMISES[theory]:
        (seq,) = parse_sequent(theory.signature, f"{text} |- top")
        yield representing_model(theory, seq.context, seq.premise, ChaseBudget(max_elements=10))[0].model
    yield from FREE_NCAT.get(theory, ())


def _one_fact_dropped(S):
    """S, then S without each one of its entries and tuples in turn."""
    yield S
    for f, table in S.funcs.items():
        for key in table:
            yield replace(S, funcs={**S.funcs, f: {k: v for k, v in table.items() if k != key}})
    for r, tuples in S.rels.items():
        for key in sorted(tuples):
            yield replace(S, rels={**S.rels, r: tuples - {key}})


# is_model reports what the oracle does, ``ok`` and the first failure
# (sequent and assignment) alike, on chased models and on each of them
# with one entry or tuple dropped.  Every theory meets models and
# non-models, and some non-model fails only its theory's last sequent.
def test_is_model_matches_brute_force_on_chased_models():
    outcomes = defaultdict(set)  # index of the first failing sequent, None for a model
    for theory in MATCH_PREMISES:
        for base in _chased_models(theory):
            for S in _one_fact_dropped(base):
                want = brute_is_model(S, theory)
                assert is_model(S, theory) == want
                outcomes[theory].add(want.failure and theory.sequents.index(want.failure[0]))
    for theory, found in outcomes.items():
        assert None in found and len(found) > 1, theory.name
    assert any(len(theory.sequents) - 1 in found for theory, found in outcomes.items())


class _FullRebuildState(_ChaseState):
    """Reference chase: rebuild and re-sort every table after every union
    until no two keys collide, rebuild every relation set, match every
    premise in full in every round (this normalize records no writes), and
    fire conclusions atom by atom through recursive materialization."""

    def matches(self, premise, delta=False):
        return super().matches(premise)

    def union(self, a, b):
        a, b = self.find(a), self.find(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.parent[hi] = lo
            del self.live[hi]
            self.merges += 1
            self.version += 1

    def fire(self, conclusion, ids, items=None):
        if items is None:
            items = tuple(zip(conclusion.names, ids))
        for atom in conclusion.atoms:
            self.enforce(atom, items)

    def materialize(self, term, asg, items):
        if isinstance(term, Var):
            return self.find(asg[term.name])
        vals = tuple(self.materialize(a, asg, items) for a in term.args)
        got = self.funcs[term.func].get(vals)
        if got is not None:
            return self.find(got)
        return self.create(term.func, vals, term, tuple(n for n, _ in items), tuple(i for _, i in items))

    def enforce(self, atom, items):
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

    def normalize(self) -> None:
        changed = True
        while changed:
            changed = False
            for f in self.funcs:
                rebuilt: dict[tuple[int, ...], int] = {}
                for args, val in sorted(self.funcs[f].items()):
                    cargs = tuple(self.find(a) for a in args)
                    cval = self.find(val)
                    old = rebuilt.get(cargs)
                    if old is None:
                        rebuilt[cargs] = cval
                    elif old != cval:
                        self.union(old, cval)
                        rebuilt[cargs] = self.find(cval)
                        changed = True
                self.funcs[f] = rebuilt
            for r in self.rels:
                self.rels[r] = {tuple(self.find(a) for a in tup) for tup in self.rels[r]}


class _FailingIndexState(_ChaseState):
    def value_index(self, f):
        raise CHASE_MODULE._Budget


# Chases leave no reference cycles for the cyclic collector: a join run
# holds its bindings, pools and results only while it runs, also when an
# exception ends it inside a probe.
def test_chase_leaves_no_reference_cycles():
    (seq,) = parse_sequent(NCAT1.signature, "[x: *, y: *] d1(x) = c1(y) |- comp1(x, y) !")
    premise, _ = CHASE_MODULE._compiled(seq)
    assert any(kind == CHASE_MODULE._PROBE for kind, _, _, _ in premise.full)
    base = representing_model(NCAT1, Context((("x", "*"), ("y", "*"))), TOP)[0].model
    prove_sequent(NCAT1, seq)  # compile the theory's sequents outside the window
    gc.collect()
    gc.disable()
    try:
        assert prove_sequent(NCAT1, seq).verdict == VALID
        assert representing_model(GROWING, EMPTY, TOP, ChaseBudget(max_elements=10))[0].status == BUDGET_EXCEEDED
        state = _FailingIndexState(NCAT1.signature, ChaseBudget())
        state.load(base)
        try:
            state.matches(premise)
        except CHASE_MODULE._Budget:
            pass
        else:
            raise AssertionError("the probe did not run")
        del state
        assert gc.collect() == 0
    finally:
        gc.enable()


# The incremental closure reaches the full rebuild's fixpoint after every
# union, so whole chases agree: model, quotient, fresh ids, merges, rounds.
@given(st.data())
def test_chase_matches_full_rebuild_closure(data):
    theory = data.draw(st.sampled_from(list(FORCED_ATOMS)), label="theory")
    sig = theory.signature
    base = data.draw(structures(sig, 3))
    elem = st.sampled_from(base.elements())
    forced = tuple(
        (atom, (("u", data.draw(elem)), ("v", data.draw(elem))))
        for text in data.draw(st.lists(st.sampled_from(FORCED_ATOMS[theory]), max_size=3), label="forced")
        for atom in parse_formula(sig, text).atoms
    )
    presentation = Presentation(base, forced)
    budget = ChaseBudget(max_elements=150, max_rounds=6)
    got = chase(theory, presentation, budget)
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(theory, presentation, budget)
    assert got.model == want.model
    assert got.quotient == want.quotient
    assert got.fresh_log == want.fresh_log
    assert (got.status, got.rounds, got.merges) == (want.status, want.rounds, want.merges)


def _same_result(got, want):
    assert got.model == want.model
    assert got.quotient == want.quotient
    assert got.fresh_log == want.fresh_log
    assert (got.status, got.rounds, got.merges) == (want.status, want.rounds, want.merges)


# Uniting an element with the entry that created it, its one use, re-keys
# that entry in place: normalize never sees a pending id, and the chase ends
# as the full-rebuild reference does.
def test_uniting_a_fresh_element_needs_no_normalize():
    base = PartialStructure(NCAT1.signature, {"*": (0,)}, {"d1": {(0,): 0}, "c1": {(0,): 0}, "comp1": {}}, {})
    (seq,) = parse_sequent(NCAT1.signature, "[x: *] top |- comp1(x, d1(x)) = x")
    presentation = Presentation(base, tuple((atom, (("x", 0),)) for atom in seq.conclusion.atoms))
    pending = []
    normalize = _ChaseState.normalize

    def watched(self):
        pending.append(len(self.pending))
        return normalize(self)

    with mock.patch.object(_ChaseState, "normalize", watched):
        got = chase(NCAT1, presentation)
    assert got.merges == 1 and [e.elem for e in got.fresh_log] == [1] and got.quotient == {0: 0, 1: 0}
    assert pending and not any(pending)
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(NCAT1, presentation)
    _same_result(got, want)


# Each equation below ends in a union of an application with an older slot,
# so a miss creates the element and merges it at once, with the equation
# either way round and with the merged slot read again by a later op.
FUSED = parse_theory("""
theory fused {
  sort s;
  func e : s -> s;
  func m : s, s -> s;
  axiom [x: s] top |- m(x, e(x)) = x & m(m(x, e(x)), x) = x;
  axiom [x: s] top |- x = m(e(x), x);
}
""")
FUSED_BASE = PartialStructure(FUSED.signature, {"s": (0, 1, 2)}, {"e": {(0,): 1, (1,): 1, (2,): 0}, "m": {}}, {})


def _create_merged_calls(presentation, budget=None):
    """The chase, run with create and unite forbidden, and the number of
    create_merged calls it made."""
    forbidden = AssertionError("the fused path called create or unite")
    with mock.patch.object(_ChaseState, "create", side_effect=forbidden), \
            mock.patch.object(_ChaseState, "unite", side_effect=forbidden), \
            mock.patch.object(_ChaseState, "create_merged", autospec=True,
                              side_effect=_ChaseState.create_merged) as fused:
        got = chase(FUSED, presentation, budget)
    return got, fused.call_count


# A conclusion kernel turns a missing application that its next op unites
# with another slot into one create_merged call: no create, no unite, and
# the same result as the reference, fresh log and merges included.
def test_fused_create_and_merge_matches_full_rebuild():
    presentation = Presentation(FUSED_BASE)
    got, calls = _create_merged_calls(presentation)
    assert got.status == COMPLETE and calls == got.merges == len(got.log) > 3
    assert got.model.carriers == {"s": (0, 1, 2)}
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(FUSED, presentation)
    assert got == want
    _same_result(got, want)


# The fused creation that exceeds the budget stops the chase exactly where
# the reference's creation does.
def test_fused_creation_over_budget_matches_full_rebuild():
    presentation = Presentation(FUSED_BASE)
    budget = ChaseBudget(max_elements=5)  # the base and two fresh elements
    got, calls = _create_merged_calls(presentation, budget)
    assert got.status == BUDGET_EXCEEDED and calls == 3 and len(got.log) == 2
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(FUSED, presentation, budget)
    assert got == want
    assert (got.status, got.rounds, got.merges, got.log) == (want.status, want.rounds, want.merges, want.log)


# Delta rounds, from scratch and from a model, agree with the reference that
# rematches every premise in full each round.  The forced atoms create
# elements, merge them and add relation tuples; merges re-key entries,
# which must count as new facts.
@pytest.mark.parametrize("theory", list(FORCED_ATOMS), ids=lambda th: th.name)
@given(data=st.data())
def test_delta_rounds_match_full_rematch(theory, data):
    sig = theory.signature
    budget = ChaseBudget(max_elements=150, max_rounds=8)
    start = chase(theory, Presentation(data.draw(structures(sig, 4))), budget)
    assume(start.status == COMPLETE)
    base = start.model
    elem = st.sampled_from(base.elements())
    forced = tuple(
        (atom, (("u", data.draw(elem)), ("v", data.draw(elem))))
        for text in data.draw(st.lists(st.sampled_from(FORCED_ATOMS[theory]), min_size=1, max_size=4), label="forced")
        for atom in parse_formula(sig, text).atoms
    )
    presentation = Presentation(base, forced)
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(theory, presentation, budget)
    _same_result(chase(theory, presentation, budget), want)
    _same_result(chase(theory, presentation, budget, _base_is_model=True), want)


# A premise with more loops than CPython nests in one function (20) is
# compiled into chained functions; full and delta rounds agree with the
# reference chase.
def test_long_premise_compiles_into_chained_kernels():
    n = 24
    context = ", ".join(f"x{i}: s" for i in range(n))
    path = " & ".join(f"R(x{i}, x{i + 1})" for i in range(n - 1))
    axiom = f"axiom [{context}, y: s] {path} |- P(x0, y);"
    theory = parse_theory(f"theory path {{ sort s; rel R : s, s; rel P : s, s; {axiom} }}")
    (seq,) = theory.sequents
    assert len(CHASE_MODULE._compiled(seq)[0].full) > 20
    base = PartialStructure(theory.signature, {"s": tuple(range(n + 2))}, {}, {})
    forced = tuple((Rel("R", (Var("u"), Var("v"))), (("u", i), ("v", i + 1))) for i in range(n + 1))
    presentation = Presentation(base, forced)
    got = chase(theory, presentation, _base_is_model=True)
    assert got.model.rels["P"] == {(i, j) for i in range(3) for j in range(n + 2)}
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(theory, presentation)
    _same_result(got, want)
    _same_result(chase(theory, presentation), want)


# Names reach kernels as arguments, never as source: a theory whose sort,
# symbol and variable names are not Python identifiers (or are the kernels'
# own local names) chases and proves exactly as its renamed copy.
RENAMED = {"s": 'f")\nimport os#', "f": "R'x", "R": "x y", "x": "s0", "y": "K0", "z": 'v"1 ('}


def _renamed(data):
    if isinstance(data, str):
        return RENAMED.get(data, data)
    if isinstance(data, list):
        return [_renamed(x) for x in data]
    if isinstance(data, dict):
        return {k: _renamed(v) for k, v in data.items()}
    return data


ORDER_RENAMED = theory_from_json(_renamed(theory_to_json(ORDER)))


def _renamed_structure(S):
    return PartialStructure(ORDER_RENAMED.signature, {_renamed(s): c for s, c in S.carriers.items()},
                            {_renamed(f): t for f, t in S.funcs.items()}, {_renamed(r): t for r, t in S.rels.items()})


@given(st.data())
def test_kernels_take_names_that_are_not_identifiers(data):
    sig = ORDER.signature
    base = data.draw(structures(sig, 3))
    elem = st.sampled_from(base.elements())
    forced = tuple(
        (atom, (("u", data.draw(elem)), ("v", data.draw(elem))))
        for text in data.draw(st.lists(st.sampled_from(FORCED_ATOMS[ORDER]), max_size=3), label="forced")
        for atom in parse_formula(sig, text).atoms
    )
    budget = ChaseBudget(max_elements=150, max_rounds=6)
    want = chase(ORDER, Presentation(base, forced), budget)
    renamed = tuple((atom_from_json(_renamed(atom_to_json(atom))), items) for atom, items in forced)
    got = chase(ORDER_RENAMED, Presentation(_renamed_structure(base), renamed), budget)
    assert got.model == _renamed_structure(want.model)
    assert got.quotient == want.quotient
    assert got.log == tuple((e, _renamed(f), args, term_from_json(_renamed(term_to_json(t))), tuple(map(_renamed, ns)),
                             ids) for e, f, args, t, ns, ids in want.log)
    assert (got.status, got.rounds, got.merges) == (want.status, want.rounds, want.merges)
    ctx, atoms = PROVE_ATOMS[ORDER]
    premise, conclusion = (
        " & ".join(data.draw(st.lists(st.sampled_from(atoms), max_size=3), label=side)) or "top"
        for side in ("premise", "conclusion")
    )
    (seq,) = parse_sequent(sig, f"{ctx} {premise} |- {conclusion}")
    copy = Sequent(Context(tuple((_renamed(n), _renamed(s)) for n, s in seq.context.vars)),
                   formula_from_json(_renamed(formula_to_json(seq.premise))),
                   formula_from_json(_renamed(formula_to_json(seq.conclusion))))
    assert prove_sequent(ORDER_RENAMED, copy, budget) == prove_sequent(ORDER, seq, budget)


# Kernels are keyed by shape, not by the terms a prover call forces: once a
# theory's shapes are compiled, new terms compile nothing more.
def test_kernel_memo_does_not_grow_with_prover_terms():
    def seq(k):
        term = "x"
        for bit in range(6):
            term = f"{'d1' if k >> bit & 1 else 'c1'}({term})"
        return parse_sequent(NCAT1.signature, f"[x: *] {term} ! |- d1({term}) = d1(x)")[0]

    for k in range(8):
        prove_sequent(NCAT1, seq(k))
    size = len(CHASE_MODULE._KERNELS)
    for k in range(8, 58):
        assert prove_sequent(NCAT1, seq(k)).verdict in (VALID, INVALID)
    assert len(CHASE_MODULE._KERNELS) == size


def _reference_eval(state, term, asg):
    if isinstance(term, Var):
        return state.find(asg[term.name])
    vals = []
    for a in term.args:
        v = _reference_eval(state, a, asg)
        if v is None:
            return None
        vals.append(v)
    got = state.funcs[term.func].get(tuple(vals))
    return None if got is None else state.find(got)


def _reference_holds_atom(state, atom, asg):
    """The prover's former stop test: evaluate on the chase state through find."""
    if isinstance(atom, Eq):
        l = _reference_eval(state, atom.lhs, asg)
        return l is not None and l == _reference_eval(state, atom.rhs, asg)
    if isinstance(atom, Rel):
        vals = []
        for a in atom.args:
            v = _reference_eval(state, a, asg)
            if v is None:
                return False
            vals.append(v)
        return tuple(vals) in state.rels[atom.rel]
    assert isinstance(atom, Def)
    return _reference_eval(state, atom.term, asg) is not None


# Atoms for random sequents over the generic context.
PROVE_ATOMS = {
    LADDER: ("[]", ("a = b", "a = c", "b = c", "a = d", "c !", "d !")),
    NCAT1: ("[x: *, y: *]", (
        "x = y", "d1(x) = c1(y)", "comp1(x, y) !", "d1(x) = x", "comp1(d1(x), x) = x",
        "c1(comp1(x, y)) = c1(y)", "comp1(x, c1(x)) = y", "d1(comp1(y, x)) = d1(x)",
    )),
    ORDER: ("[x: s, y: s]", ("R(x, y)", "R(y, x)", "x = y", "f(x) = y", "f(y) !", "R(f(x), f(f(x)))")),
}


# The stop test evaluates the conclusion with structure.holds over the live
# tables; it agrees with the find-based evaluation it replaced, round for
# round, so verdicts, rounds, sizes and merges are unchanged.
@given(st.data())
def test_prove_stop_matches_reference(data):
    theory = data.draw(st.sampled_from(list(PROVE_ATOMS)), label="theory")
    ctx, atoms = PROVE_ATOMS[theory]
    premise, conclusion = (
        " & ".join(data.draw(st.lists(st.sampled_from(atoms), max_size=3), label=side)) or "top"
        for side in ("premise", "conclusion")
    )
    (seq,) = parse_sequent(theory.signature, f"{ctx} {premise} |- {conclusion}")
    budget = ChaseBudget(max_elements=150, max_rounds=6)
    presentation, items = CHASE_MODULE._generic_presentation(theory, seq.context, seq.premise)
    goal = normalized(seq.conclusion)

    def stop(state):
        asg = {name: state.find(i) for name, i in items}
        return all(_reference_holds_atom(state, atom, asg) for atom in goal.atoms)

    want = chase(theory, presentation, budget, stop=stop)
    verdict = {STOPPED: VALID, COMPLETE: INVALID}.get(want.status, UNKNOWN)
    assert prove_sequent(theory, seq, budget) == ProveResult(verdict, want.rounds, want.model.size(), want.merges)


DECOMPOSE_MODULE = importlib.import_module("partialhorn.decompose")


def _counted_decomposition(state_cls, f):
    """Decompose f along the equational scale with state_cls as the chase
    state; count, per chase that fires, the premise instances matched
    and the instances fired (forced atoms included).  Returns the trace, the
    results of every scale_step call and the counts of their chases."""
    found: dict = defaultdict(int)
    enforced: dict = defaultdict(int)
    steps = []
    match, fire, step = state_cls.matches, state_cls.fire, DECOMPOSE_MODULE.scale_step

    def counting_match(self, premise, delta=False):
        got = match(self, premise, delta)
        found[self] += len(got)
        return got

    def counting_fire(self, conclusion, ids):
        enforced[self] += 1
        return fire(self, conclusion, ids)

    def recording_step(*args, **kwargs):
        steps.append(step(*args, **kwargs))
        return steps[-1]

    with mock.patch.object(CHASE_MODULE, "_ChaseState", state_cls), \
            mock.patch.object(state_cls, "matches", counting_match), \
            mock.patch.object(state_cls, "fire", counting_fire), \
            mock.patch.object(DECOMPOSE_MODULE, "scale_step", recording_step):
        trace = DECOMPOSE_MODULE.canonical_decomposition(LADDER, equational_scale(LADDER.signature), f)
    chases = list(enforced)  # premise matching in the target fires nothing
    return trace, steps, [found[c] for c in chases], [enforced[c] for c in chases]


# After the first step every source is a model, so the step that would
# change nothing forces nothing and is not chased: the ladder tower
# (decnum 3) chases its three steps and no fourth.  Each chase after the
# first matches only what its forced atoms wrote, and the whole trace is
# the full-rematch reference's.
def test_stable_step_is_not_chased(corpus, ladder_models):
    M, T = ladder_models["ladder_M"], ladder_models["ladder_T"]
    _, f = load_hom(str(corpus / "homs" / "ladder_bang.phom"), M, T)
    trace, steps, found, enforced = _counted_decomposition(_ChaseState, f)
    assert trace.status == STABILIZED and trace.claimed_decnum == 3
    assert len(steps) == len(found) == 3 and trace.steps == tuple(steps)
    last = steps[-1].f_prime
    assert last.source.size() == 1 and is_model(last.source, LADDER)
    scale = equational_scale(LADDER.signature)
    matches = DECOMPOSE_MODULE._entry_matches(scale, T.structure)
    pulled, forced = DECOMPOSE_MODULE._pull_back(scale, last, matches)
    assert len(pulled) == 1 and forced == []  # z1 = z2 at (t, t) holds already
    want, want_steps, want_found, want_enforced = _counted_decomposition(_FullRebuildState, f)
    assert (trace, steps) == (want, want_steps)
    assert all(n < m for n, m in zip(found[1:], want_found[1:]))
    assert all(n <= m for n, m in zip(enforced, want_enforced))


# A source that is not a model gets a full first round: the whole trace,
# every step's chase result, fired instances and legs, is the reference's.
def test_decomposition_of_a_non_model_matches_full_rematch(ladder_models):
    T = ladder_models["ladder_T"].structure
    (t,) = T.elements()
    A = PartialStructure(LADDER.signature, {"s": (0, 1, 2)}, {"a": {(): 0}, "b": {}, "c": {}, "d": {}}, {})
    assert not is_model(A, LADDER)
    f = Hom(A, T, {0: t, 1: t, 2: t})
    trace, steps, _, _ = _counted_decomposition(_ChaseState, f)
    want, want_steps, _, _ = _counted_decomposition(_FullRebuildState, f)
    assert trace.status == STABILIZED and trace.claimed_decnum >= 1
    assert (trace, steps) == (want, want_steps)


# Prover results on benchmark inputs and whole chase results (fresh logs
# included) over ncat1, ncat2 and order are those recorded in
# tests/data/engine_digests.json by scripts/record_engine_digests.py.
def test_engine_results_match_recorded_digests():
    path = Path(__file__).resolve().parents[1] / "scripts" / "record_engine_digests.py"
    spec = importlib.util.spec_from_file_location("record_engine_digests", path)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    assert recorder.digests() == json.loads(recorder.DIGESTS_FILE.read_text())
