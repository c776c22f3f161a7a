"""Deterministic chase: free models, prover verdicts, quotients, budgets."""

import gc
import importlib
import importlib.util
import itertools
import json
import random
import weakref
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, event, example, given
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
    check_gauge,
    coequalizer,
    equational_scale,
    induced_hom,
    is_hom,
    is_model,
    ladder_theory,
    load_hom,
    ncat_gauge_rules,
    ncat_normalize,
    ncat_theory,
    prove_sequent,
    reduces,
    representing_model,
    term_equivalent,
)
from partialhorn.chase import _ChaseState
from partialhorn.structure import ModelReport, PartialStructure, enumerate_homs, holds
from partialhorn.syntax import (
    App,
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
    assert r1.log == r2.log
    assert r1.quotient == r2.quotient
    assert g1 == g2


def test_fresh_ids_extend_base_ids():
    phi = parse_formula(LADDER.signature, "a = c")
    result, _ = representing_model(LADDER, EMPTY, phi)
    created = [e for e, *_ in result.log]
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


# A chase pauses the cyclic collector and leaves it as it found it: enabled,
# or disabled by the caller, also when the stop callback raises and when the
# budget runs out.
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled by the caller"])
def test_chase_leaves_the_collector_as_it_found_it(enabled):
    base = PartialStructure(LADDER.signature, {"s": ()}, {f.name: {} for f in LADDER.signature.funcs}, {})
    seen = []

    def watch(state):
        seen.append(gc.isenabled())
        return False

    def fail(state):
        raise RuntimeError("stop failed")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert chase(LADDER, Presentation(base), stop=watch).status == COMPLETE
        assert gc.isenabled() == enabled
        with pytest.raises(RuntimeError, match="stop failed"):
            chase(LADDER, Presentation(base), stop=fail)
        assert gc.isenabled() == enabled
        assert representing_model(GROWING, EMPTY, TOP, ChaseBudget(max_elements=10))[0].status == BUDGET_EXCEEDED
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # paused throughout


# A prover call drops its chase's result while the collector is still paused
# (reference counting frees it, no collection walks it), and then leaves the
# collector as it found it: enabled, or disabled by the caller, also when
# the budget runs out.
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled by the caller"])
def test_prover_frees_its_chase_before_the_collector_resumes(enabled):
    (valid,) = parse_sequent(LADDER.signature, "[] a = c |- d !")
    (growing,) = parse_sequent(GROWING.signature, "[] top |- k = f(k)")
    real, freed = CHASE_MODULE.chase, []

    def watched(*args, **kwargs):
        result = real(*args, **kwargs)
        weakref.finalize(result, lambda: freed.append(gc.isenabled()))
        return result

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(CHASE_MODULE, "chase", watched):
            assert prove_sequent(LADDER, valid).verdict == VALID
            assert gc.isenabled() == enabled
            assert prove_sequent(GROWING, growing, ChaseBudget(max_elements=20)).verdict == UNKNOWN
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert freed == [False, False]


# After a warm-up call (which compiles the theory's kernels) and a full
# collection, one prover call on an ncat3 word, thousands of merges, starts
# no collection: its young tuples are freed before the collector resumes.
def test_prover_call_on_an_ncat3_word_starts_no_collection():
    ncat3, ctx = ncat_theory(3), Context((("x", "*"),))
    term = parse_term(ncat3.signature, "c3(d2(d1(x)))")
    seq = Sequent(ctx, HornFormula((Def(term),)), HornFormula((Eq(term, ncat_normalize(3, ctx, term)),)))
    assert prove_sequent(ncat3, seq).verdict == VALID
    starts = []

    def watch(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(watch)
    try:
        proved = prove_sequent(ncat3, seq)
    finally:
        gc.callbacks.remove(watch)
        (gc.enable if was else gc.disable)()
    assert proved.verdict == VALID and proved.merges > 1000
    assert starts == []


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

# Premises without flat atoms, whose joins are loops over their carriers
# alone: an equation of variables (two names over one carrier) and two
# carriers of two sorts.  The first conclusion creates f(x) live, since
# f(y) reads its key, and the third creates src(f(x)) merged whenever
# src(x) is defined.
ATOMLESS = parse_theory("""
theory atomless {
  sort v;
  sort e;
  func f : e -> e;
  func src : e -> v;
  rel L : v, e;
  axiom [x: e, y: e] x = y |- f(x) = f(y) & f(f(y)) = f(x);
  axiom [u: v, x: e] top |- L(u, f(x));
  axiom [x: e] top |- src(f(x)) = src(x);
  axiom [u: v, x: e] L(u, x) & src(x) = u |- f(x) = x;
}
""")

# A premise without flat atoms whose instances move each other: at x = 0,
# with f(0) = 1 and f(1) = 2 in the base, the union of 1 and 2 moves the
# instance x = 2 to x = 1.  That instance changes nothing because x = 1 came
# before it in the sorted batch and added P(1); fired out of order, it would.
MOVING = parse_theory("""
theory moving {
  sort s;
  func f : s -> s;
  rel P : s;
  axiom [x: s] top |- f(f(x)) = f(x) & P(x);
}
""")

# Ground atoms to force over two base elements u, v (of sort e in ATOMLESS).
FORCED_ATOMS = {
    LADDER: ("u = v", "a = b", "a = c", "c !", "d !", "a = u"),
    NCAT1: ("u = v", "d1(u) = v", "comp1(u, v) !", "comp1(u, comp1(v, u)) !"),
    NCAT2: ("comp2(u, v) !", "d2(u) = c1(v)", "comp1(u, comp2(v, u)) !"),
    ORDER: ("u = v", "R(u, v)", "f(u) = v", "R(f(u), v)", "f(f(v)) !"),
    ATOMLESS: ("u = v", "f(u) = v", "src(u) = src(v)", "L(src(u), v)"),
    MOVING: ("u = v", "f(u) = v", "P(f(u))", "f(f(v)) !"),
}


def _forced(data, theory, base, min_size=0, max_size=3):
    """Atoms of FORCED_ATOMS[theory], each with its own drawn u and v."""
    elem = st.sampled_from(base.carriers["e"] if theory is ATOMLESS else base.elements())
    return tuple(
        (atom, (("u", data.draw(elem)), ("v", data.draw(elem))))
        for text in data.draw(st.lists(st.sampled_from(FORCED_ATOMS[theory]), min_size=min_size, max_size=max_size),
                              label="forced")
        for atom in parse_formula(theory.signature, text).atoms
    )


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


def _snapshot(state):
    """The state's tables as the sorted model a chase result builds from them."""
    return CHASE_MODULE.ChaseResult(state.sig, state.live, state.funcs, state.rels, state.parent, state.flat_log,
                                    COMPLETE, 0, state.merges).model


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
        model = _snapshot(state)
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


# A sequent's compiled premise with flat atoms tests its conclusion
# read-only at each match: its plan returns the bare premise's matches less
# exactly those at which the conclusion holds, also after unions.  A premise
# without flat atoms has no guard: its join returns every instance, the
# bare premise's.
@given(st.data())
def test_guarded_matches_drop_only_satisfied_instances(data):
    theory = data.draw(st.sampled_from(list(MATCH_PREMISES)), label="theory")
    sig = theory.signature
    drawn = structures(sig, 4)
    base = data.draw(st.one_of(drawn, substructures(NCAT2_MODELS, 6)) if theory is NCAT2 else drawn)
    pair = st.sampled_from(sig.sorts).flatmap(lambda s: st.tuples(*[st.sampled_from(base.carriers[s])] * 2))
    state = _ChaseState(sig, ChaseBudget())
    state.load(base)
    for u, v in data.draw(st.lists(pair, max_size=3), label="unions"):
        a, b = state.find(u), state.find(v)
        if a != b:
            state.unite(a, b)
    model = _snapshot(state)
    for seq in theory.sequents:
        guarded, names = CHASE_MODULE._compiled(seq)[0], seq.context.names()
        bare = CHASE_MODULE._Premise(seq.context, seq.premise)
        instances = state.matches(bare)
        active = [ids for ids in instances if not holds(model, dict(zip(names, ids)), seq.conclusion)]
        assert state.matches(guarded) == (active if guarded.atoms else instances), seq.label


# Some premises above compile to probes that intersect two or more fibers.
def test_match_premises_include_fiber_intersections():
    sizes = set()
    for theory, texts in MATCH_PREMISES.items():
        for text in texts:
            premise, _ = CHASE_MODULE._compiled(parse_sequent(theory.signature, f"{text} |- top")[0])
            sizes.update(len(sym) for kind, sym, _, _ in premise.full if kind == CHASE_MODULE._PROBE)
    assert max(sizes) >= 2


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
    premise in every round, and fire conclusions atom by atom through
    recursive materialization.  Its premises are built bare, without their
    conclusions' test, so every match is fired, also one whose conclusion
    holds already (the oblivious chase)."""

    def run_round(self, theory):
        v0 = self.version
        self.normalize()
        for seq in theory.sequents:
            conclusion = CHASE_MODULE._compiled(seq)[1]
            for ids in self.matches(CHASE_MODULE._Premise(seq.context, seq.premise)):
                self.fire(conclusion, ids)
        return self.version != v0

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


# Chases leave no reference cycles for the cyclic collector, which a chase
# pauses: a join run holds its bindings, pools and results only while it
# runs, also when an exception ends it inside a probe, and compiling a new
# shape (here a premise long enough to chain functions, its plan and its
# conclusion) leaves none either.
def test_chase_leaves_no_reference_cycles():
    (seq,) = parse_sequent(NCAT1.signature, "[x: *, y: *] d1(x) = c1(y) |- comp1(x, y) !")
    premise, _ = CHASE_MODULE._compiled(seq)
    assert any(kind == CHASE_MODULE._PROBE for kind, _, _, _ in premise.full)
    base = representing_model(NCAT1, Context((("x", "*"), ("y", "*"))), TOP)[0].model
    prove_sequent(NCAT1, seq)  # compile the theory's sequents outside the window
    context = ", ".join(f"x{i}: *" for i in range(20))
    path = " & ".join(f"d1(x{i}) = c1(x{i + 1})" for i in range(19))
    (long,) = parse_sequent(NCAT1.signature, f"[{context}] {path} |- comp1(x0, x1) = x0")
    gc.collect()
    gc.disable()
    try:
        with mock.patch.dict(CHASE_MODULE._KERNELS, clear=True):  # every shape compiles anew
            long_premise, _ = CHASE_MODULE._compiled(long)
            assert len(long_premise.full) > CHASE_MODULE._MAX_LOOPS
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
# The fresh log lists every fresh id once, in id order, as the 6-tuple
# (elem, func, args, term, names, ids) that ChaseResult.log cuts from the
# flat list the kernels extend.
@given(st.data())
def test_chase_matches_full_rebuild_closure(data):
    theory = data.draw(st.sampled_from(list(FORCED_ATOMS)), label="theory")
    sig = theory.signature
    base = data.draw(structures(sig, 3))
    presentation = Presentation(base, _forced(data, theory, base))
    budget = ChaseBudget(max_elements=150, max_rounds=6)
    got = chase(theory, presentation, budget)
    first = base.size()  # the base's ids are 0..size-1
    fresh = [e for e, *_ in got.log]
    assert fresh == list(range(first, first + len(fresh))) == [i for i in sorted(got.union_find) if i >= first]
    assert len(got.flat_log) == 6 * len(got.log)
    for _, f, args, term, names, ids in got.log:
        assert term.func == f and len(args) == len(sig.func(f).arg_sorts)
        assert len(names) == len(ids) and all(isinstance(n, str) for n in names)
        assert all(isinstance(i, int) for i in (*args, *ids))
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(theory, presentation, budget)
    assert got.model == want.model
    assert got.quotient == want.quotient
    assert got.log == want.log
    assert (got.status, got.rounds, got.merges) == (want.status, want.rounds, want.merges)


def _same_result(got, want):
    assert got.model == want.model
    assert got.quotient == want.quotient
    assert got.log == want.log
    assert (got.status, got.rounds, got.merges) == (want.status, want.rounds, want.merges)


# A forced atom unites the element it just created with an older one; the
# entry that created it is its one use, re-keyed by normalize, and the chase
# ends as the full-rebuild reference does.
def test_forced_atom_unites_its_fresh_element_as_full_rebuild_does():
    base = PartialStructure(NCAT1.signature, {"*": (0,)}, {"d1": {(0,): 0}, "c1": {(0,): 0}, "comp1": {}}, {})
    (seq,) = parse_sequent(NCAT1.signature, "[x: *] top |- comp1(x, d1(x)) = x")
    presentation = Presentation(base, tuple((atom, (("x", 0),)) for atom in seq.conclusion.atoms))
    got = chase(NCAT1, presentation)
    assert got.merges == 1 and [e for e, *_ in got.log] == [1] and got.quotient == {0: 0, 1: 0}
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


def _fused_chase(presentation, budget=None):
    """The chase, run with unite forbidden."""
    with mock.patch.object(_ChaseState, "unite", side_effect=AssertionError("the fused path called unite")):
        return chase(FUSED, presentation, budget)


def _merged_at_creation(result):
    """Every logged fresh id went straight to its class: it has a parent
    other than itself and is no element of the model."""
    return all(result.union_find[e] != e for e, *_ in result.log) and not (
        {e for e, *_ in result.log} & set(result.model.elements()))


# A conclusion kernel creates a missing application that its next op unites
# with another slot merged at once: no unite, every fresh id merged and never
# live, one merge per creation, and the same result as the reference, fresh
# log and merges included.
def test_fused_create_and_merge_matches_full_rebuild():
    presentation = Presentation(FUSED_BASE)
    got = _fused_chase(presentation)
    assert got.status == COMPLETE and got.merges == len(got.log) > 3 and _merged_at_creation(got)
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
    got = _fused_chase(presentation, budget)
    assert got.status == BUDGET_EXCEEDED and len(got.log) == got.merges == 2 and _merged_at_creation(got)
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(FUSED, presentation, budget)
    assert got == want
    assert (got.status, got.rounds, got.merges, got.log) == (want.status, want.rounds, want.merges, want.log)


def _classes(parent):
    """Every id -> the root of its class, read without path compression."""
    roots = {}
    for i in sorted(parent):
        roots[i] = i if parent[i] == i else roots[parent[i]]  # parents are lesser ids
    return roots


def _state_view(state):
    """A snapshot of everything a fire may change: tables, classes, use-lists
    (live cells, in listing order, each named by its function, found from
    its table's identity), fresh log and counters.  The classes stand for
    the parent pointers, which path compression leaves apart: the kernel
    re-finds after a union only the slots that later ops read.  Each
    container is copied; what they hold are ints, strings, tuples and terms,
    none of which a fire changes."""
    func = {id(table): f for f, table in state.funcs.items()}
    listed = {i: [(func[id(c[0])], c[1]) for c in cells if c[1] is not None] for i, cells in state.uses.items()}
    return {
        "funcs": {f: dict(table) for f, table in state.funcs.items()},
        "rels": {r: set(tuples) for r, tuples in state.rels.items()},
        "classes": _classes(state.parent), "live": dict(state.live),
        "uses": {i: cells for i, cells in listed.items() if cells},
        "rel_uses": {i: list(tuples) for i, tuples in state.rel_uses.items() if tuples},
        "pending": list(state.pending),
        "log": list(state.flat_log),
        "counts": (state.next_id, state.created, state.version, state.merges),
    }


def _united_state(theory, base, unions, budget):
    """A state loaded with the base, after the unions."""
    state = _ChaseState(theory.signature, budget)
    state.load(base)
    for u, v in unions:
        a, b = state.find(u), state.find(v)
        if a != b:
            state.unite(a, b)
    return state


def _fired_both_ways(theory, base, unions, batches, budget):
    """The states left by each sequent's batch kernel and by the interpreted
    op loop firing the same assignments one by one, the sequents in turn as
    in a round, after the unions; each with the label of the sequent whose
    firing the budget stopped, if any.  The op loop skips an assignment of a
    premise without flat atoms whose ids lost a union before its turn, as
    the kernel does: in a round's sorted batch its canonical tuple fired
    before (see test_moved_atomless_instances_change_nothing), in these
    arbitrary batches perhaps not."""
    views = []
    for batched in (True, False):
        state = _united_state(theory, base, unions, budget)
        stopped = None
        try:
            for seq, batch in zip(theory.sequents, batches):
                stopped = seq.label
                premise, conclusion = CHASE_MODULE._compiled(seq)
                if batched:
                    conclusion.kernel(state, batch)
                else:
                    for ids in batch:
                        if premise.atoms or all(state.parent[i] == i for i in ids):
                            state.fire(conclusion, ids)
            stopped = None
        except CHASE_MODULE._Budget:
            pass
        views.append((stopped, _state_view(state)))
    return views


# Each sequent's batch kernel leaves exactly the state that the interpreted
# op loop leaves: also when ids lost a union before the batch or lose one to
# an earlier instance, and when the budget runs out partway, where both
# raise at the same creation.
@given(st.data())
def test_batch_kernel_matches_interpreted_fires(data):
    theory = data.draw(st.sampled_from(list(FORCED_ATOMS)), label="theory")
    sig = theory.signature
    drawn = structures(sig, 3)
    base = data.draw(st.one_of(drawn, substructures(NCAT2_MODELS, 6)) if theory is NCAT2 else drawn)
    elem = {s: st.sampled_from(base.carriers[s]) for s in sig.sorts}
    pair = st.sampled_from(sig.sorts).flatmap(lambda s: st.tuples(elem[s], elem[s]))
    unions = data.draw(st.lists(pair, max_size=2), label="unions")
    batches = [data.draw(st.lists(st.tuples(*[elem[s] for _, s in seq.context.vars]), min_size=1, max_size=4),
                         label=seq.label) for seq in theory.sequents]
    budget = ChaseBudget(max_elements=base.size() + data.draw(st.integers(0, 60), label="fresh elements"))
    got, want = _fired_both_ways(theory, base, unions, batches, budget)
    assert got == want


# Within one instance of idem.d1, d1(d1(x)) = d1(x) at x = 0 unites 1 = d1(2)
# with 2 = d1(0), and the later c1(d1(x)) must read the winner 1, not 2.
def test_batch_kernel_reads_the_winner_of_a_union():
    base = PartialStructure(NCAT1.signature, {"*": (0, 1, 2)}, {"d1": {(0,): 2, (2,): 1}, "c1": {}, "comp1": {}}, {})
    batches = [[(0,)] if seq.label == "idem.d1" else [] for seq in NCAT1.sequents]
    got, want = _fired_both_ways(NCAT1, base, [], batches, ChaseBudget())
    assert got == want and want[1]["funcs"]["c1"] == {(1,): 1}


# A miss whose equation's other side the ops up to the union compute
# without it (d1(comp1(x, y)) = d1(y) in comp1.bounds) is created merged
# into the other side when those ops find it, without unite.  Otherwise it
# is created live and the other side evaluated after it: when the other
# side's lookup reads the very key the miss creates (comp1(x, y) = y, so
# d1(y) reads the new element back and the union is skipped), and when the
# budget allows the miss but not the other side.  The batch kernel leaves
# the interpreted op loop's state in each case.
FALLBACK_CASES = {
    "merged": ({"*": (0, 1, 2)}, {(0, 1): 2}, {(1,): 1}, 10, None, {(1,): 1, (2,): 1}),
    "reads its own key": ({"*": (0, 1)}, {(0, 1): 1}, {}, 10, None, {(1,): 2}),
    "budget": ({"*": (0, 1, 2)}, {(0, 1): 2}, {}, 4, "comp1.bounds", {(2,): 3}),
}


@pytest.mark.parametrize("case", list(FALLBACK_CASES))
def test_fused_creation_falls_back_to_a_live_element(case):
    carriers, comp1, d1, budget, stopped, want_d1 = FALLBACK_CASES[case]
    c1 = {(e,): 0 for e in carriers["*"]}  # c1(comp1(x, y)) = c1(x) holds
    base = PartialStructure(NCAT1.signature, carriers, {"comp1": comp1, "d1": d1, "c1": c1}, {})
    batches = [[(0, 1)] if seq.label == "comp1.bounds" else [] for seq in NCAT1.sequents]
    got, want = _fired_both_ways(NCAT1, base, [], batches, ChaseBudget(max_elements=budget))
    assert got == want
    assert want[0] == stopped and want[1]["funcs"]["d1"] == want_d1
    assert (base.size() in want[1]["live"]) == (case != "merged")  # the fresh id
    assert want[1]["counts"][3] == (case == "merged")  # merges
    if case == "merged":  # the batch kernel alone, with unite forbidden
        state = _united_state(NCAT1, base, [], ChaseBudget(max_elements=budget))
        (bounds,) = [seq for seq in NCAT1.sequents if seq.label == "comp1.bounds"]
        with mock.patch.object(_ChaseState, "unite", side_effect=AssertionError("the fused path called unite")):
            CHASE_MODULE._compiled(bounds)[1].kernel(state, [(0, 1)])
        assert _state_view(state) == got[1]


# The join of a premise without flat atoms returns all its instances, with
# no guard: its conclusion kernel is its own test.  Firing each such
# sequent's whole instance list leaves the state that firing only its
# active instances leaves (tables, classes, use-lists, fresh log and
# counters), after unions, and when the budget stops a batch.
@given(st.data())
def test_atomless_instances_fire_as_their_active_ones(data):
    theory = data.draw(st.sampled_from(list(FORCED_ATOMS)), label="theory")
    sig = theory.signature
    drawn = structures(sig, 3)
    base = data.draw(st.one_of(drawn, substructures(NCAT2_MODELS, 6)) if theory is NCAT2 else drawn)
    elem = {s: st.sampled_from(base.carriers[s]) for s in sig.sorts}
    pair = st.sampled_from(sig.sorts).flatmap(lambda s: st.tuples(elem[s], elem[s]))
    unions = data.draw(st.lists(pair, max_size=2), label="unions")
    budget = ChaseBudget(max_elements=base.size() + data.draw(st.integers(0, 30), label="fresh elements"))
    views = []
    for active_only in (False, True):
        state = _united_state(theory, base, unions, budget)
        stopped = False
        try:
            for seq in theory.sequents:
                premise, conclusion = CHASE_MODULE._compiled(seq)
                if premise.atoms:
                    continue
                batch = state.matches(premise)
                if active_only:
                    model, names = _snapshot(state), seq.context.names()
                    batch = [ids for ids in batch if not holds(model, dict(zip(names, ids)), seq.conclusion)]
                conclusion.kernel(state, batch)
        except CHASE_MODULE._Budget:
            stopped = True
        views.append((stopped, _state_view(state)))
    assert views[0] == views[1]


class _MovedCheckingState(_ChaseState):
    """A round that fires the batch of each premise without flat atoms one
    instance at a time through the interpreted op loop, and checks that an
    instance whose ids lost a union before its turn, which the kernel skips,
    changes nothing when fired.  Other premises fire through their kernels."""

    def run_round(self, theory):
        v0 = self.version
        self.normalize()
        for seq in theory.sequents:
            premise, conclusion = CHASE_MODULE._compiled(seq)
            batch = self.matches(premise)
            if premise.atoms:
                conclusion.kernel(self, batch)
                continue
            for ids in batch:
                if all(self.parent[i] == i for i in ids):
                    self.fire(conclusion, ids)
                    continue
                event(f"a moved instance: {theory.name}")
                before = _state_view(self)
                try:
                    self.fire(conclusion, ids)
                except CHASE_MODULE._Budget:
                    raise AssertionError(f"{seq.label} at {ids} created an element") from None
                assert _state_view(self) == before, (seq.label, ids)
        return self.version != v0


# The kernel of a premise without flat atoms skips an instance whose ids lost
# a union since the match: its batch is sorted and holds every tuple of the
# carriers, so the canonical tuple came first and fired.  Firing such an
# instance at its turn changes nothing, from scratch and from a model, after
# the forced atoms' unions; and the chase ends as it does with the kernels.
@given(st.data())
def test_moved_atomless_instances_change_nothing(data):
    theory = data.draw(st.sampled_from(list(FORCED_ATOMS)), label="theory")
    budget = ChaseBudget(max_elements=300, max_rounds=10)
    base = data.draw(structures(theory.signature, 4))
    from_model = data.draw(st.booleans(), label="from a model")
    if from_model:
        start = chase(theory, Presentation(base), budget)
        assume(start.status == COMPLETE)
        base = start.model
    presentation = Presentation(base, _forced(data, theory, base, min_size=from_model))
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _MovedCheckingState):
        got = chase(theory, presentation, budget)
    _same_result(got, chase(theory, presentation, budget))


# A chase from a model with forced atoms, as a decomposition step after the
# first runs, agrees with the reference that fires every match of every
# premise.  The forced atoms create elements, merge them and add relation
# tuples; merges re-key entries.
@pytest.mark.parametrize("theory", list(FORCED_ATOMS), ids=lambda th: th.name)
@given(data=st.data())
def test_chase_from_a_model_matches_full_rebuild(theory, data):
    sig = theory.signature
    budget = ChaseBudget(max_elements=150, max_rounds=8)
    start = chase(theory, Presentation(data.draw(structures(sig, 4))), budget)
    assume(start.status == COMPLETE)
    base = start.model
    presentation = Presentation(base, _forced(data, theory, base, min_size=1, max_size=4))
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(theory, presentation, budget)
    _same_result(chase(theory, presentation, budget), want)


def _assert_use_lists(state):
    """Each table entry has exactly one live cell, listed under every id of
    its key and under its value, and each live cell listed under an id holds
    that id (its other listings went with the ids that lost)."""
    cells = defaultdict(list)
    func = {id(table): f for f, table in state.funcs.items()}  # a cell's function, found from its table
    for i, listed in state.uses.items():
        for cell in {id(c): c for c in listed}.values():
            table, key = cell
            if key is not None:
                assert id(table) in func, (i, key)  # not a table the state no longer holds
                f = func[id(table)]
                assert i in key or table[key] == i, (i, f, key)
                cells[f, key].append(cell)
    for f, table in state.funcs.items():
        for key, val in table.items():
            live = {id(c): c for c in cells.pop((f, key), ())}
            assert len(live) == 1, (f, key, len(live))
            (cell,) = live.values()
            for i in (*key, val):
                assert any(c is cell for c in state.uses.get(i, ())), (f, key, i)
    assert not cells, sorted(cells)  # a live cell whose entry is gone


class _CheckedState(_ChaseState):
    """The chase state, checking its use-lists after every union and every
    normalize (the forced atoms' one among them)."""

    def unite(self, a, b):
        super().unite(a, b)
        _assert_use_lists(self)

    def normalize(self):
        super().normalize()
        _assert_use_lists(self)


# The use-lists stay exact through re-keying, collisions and the unions of
# fresh elements: chases from random structures and from ncat2
# substructures, whose forced atoms merge elements with entries on both
# sides.
@given(st.data())
def test_use_lists_list_each_live_entry_under_its_ids(data):
    theory = data.draw(st.sampled_from(list(FORCED_ATOMS)), label="theory")
    sig = theory.signature
    drawn = structures(sig, 3)
    base = data.draw(st.one_of(drawn, substructures(NCAT2_MODELS, 6)) if theory is NCAT2 else drawn)
    forced = _forced(data, theory, base, min_size=1)
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _CheckedState):
        chase(theory, Presentation(base, forced), ChaseBudget(max_elements=60, max_rounds=4))


# A re-keyed entry collides with one whose stored value then loses: forcing
# 0 = 1 moves f(1) = 2 onto f(0) = 3, so 3 merges into 2, and only the pop
# of 3 gives the surviving entry its value 2.  The chase ends as the
# full-rebuild reference does.
COLLIDING = parse_theory("""
theory colliding {
  sort s;
  func f : s -> s;
  axiom [x: s] top |- f(f(x)) = x;
}
""")
COLLIDING_BASE = PartialStructure(COLLIDING.signature, {"s": (0, 1, 2, 3)}, {"f": {(0,): 3, (1,): 2, (3,): 0}}, {})


def test_collided_entry_takes_its_value_when_that_id_pops():
    state = _ChaseState(COLLIDING.signature, ChaseBudget())
    state.load(COLLIDING_BASE)
    state.unite(0, 1)
    assert state.funcs["f"] == {(0,): 2, (2,): 0} and state.merges == 2
    assert any(cell[1] is None for cell in state.uses[2])  # f(1) = 2, dead on meeting f(0)
    _assert_use_lists(state)
    (atom,) = parse_formula(COLLIDING.signature, "u = v").atoms
    presentation = Presentation(COLLIDING_BASE, ((atom, (("u", 0), ("v", 1))),))
    got = chase(COLLIDING, presentation)
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(COLLIDING, presentation)
    assert got == want
    _same_result(got, want)


# A premise with more loops than CPython nests in one function (20) is
# compiled into chained functions; the chase agrees with the reference
# chase.
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
    got = chase(theory, presentation)
    assert got.model.rels["P"] == {(i, j) for i in range(3) for j in range(n + 2)}
    with mock.patch.object(CHASE_MODULE, "_ChaseState", _FullRebuildState):
        want = chase(theory, presentation)
    _same_result(got, want)


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
    forced = _forced(data, ORDER, base)
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


# Each kernel shape compiles under a file name of its own, numbered in
# compile order, so that a profile keeps one row per shape; sequents of one
# shape share the code.
def test_kernel_shapes_compile_under_distinct_names():
    compiled = {seq.label: CHASE_MODULE._compiled(seq) for seq in NCAT1.sequents}
    join = {label: premise.full_run[1].__code__ for label, (premise, _) in compiled.items() if premise.atoms}
    fire = {label: conclusion.kernel.__code__ for label, (_, conclusion) in compiled.items()}
    assert join["comp1.total"].co_filename != join["comp1.bounds"].co_filename
    assert fire["comp1.total"].co_filename != fire["comp1.bounds"].co_filename
    assert fire["idem.d1"] is fire["idem.c1"]


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


# Hom search compiles a shape per source diagram; the memo keeps only the
# most recently used shapes, and a shape compiled again after its eviction
# gets a file name no other shape has had.
def test_kernel_memo_stays_bounded_under_hom_search():
    rng = random.Random(7)
    point = PartialStructure(NCAT1.signature, {"*": (0,)}, {"d1": {(0,): 0}, "c1": {(0,): 0}, "comp1": {(0, 0): 0}}, {})

    def source():
        elems = range(rng.randint(1, 7))
        tables = {f: {args: rng.choice(elems) for args in itertools.product(elems, repeat=arity)
                      if rng.random() < 0.4} for f, arity in (("d1", 1), ("c1", 1), ("comp1", 2))}
        return PartialStructure(NCAT1.signature, {"*": tuple(elems)}, tables, {})

    sources = [source() for _ in range(CHASE_MODULE._MAX_KERNELS + 100)]
    shapes, names = set(), set()
    with mock.patch.dict(CHASE_MODULE._KERNELS, clear=True):
        for A in sources + sources[:1]:
            assert len(enumerate_homs(A, point)) == 1  # everything goes to the one point
            assert len(CHASE_MODULE._KERNELS) <= CHASE_MODULE._MAX_KERNELS
            shapes |= CHASE_MODULE._KERNELS.keys()
            names |= {make.__code__.co_filename for make in CHASE_MODULE._KERNELS.values()}
    assert len(shapes) > CHASE_MODULE._MAX_KERNELS
    assert len(names) == len(shapes) + 1  # the first source's shape, compiled again


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


# The stop test runs the compiled conclusion's ops read only over the live
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


def _recording_chase(record):
    """A stand-in for chase that runs each call as asked and also without
    the in-round stop, appending (keywords, result, whole-round result)
    to ``record``; it checks that no id is pending whenever the goal runs."""
    real = CHASE_MODULE.chase

    def recording(theory, presentation, budget=None, stop=None, **kwargs):
        def checked(state):
            assert not state.pending  # the goal reads canonical tables
            return stop(state)

        got = real(theory, presentation, budget, checked, **kwargs)
        record.append((kwargs, got, real(theory, presentation, budget, stop)))
        return got

    return recording


@st.composite
def prove_cases(draw):
    """A theory of PROVE_ATOMS and the text of a sequent over its context,
    with up to three of its atoms on each side."""
    theory = draw(st.sampled_from(list(PROVE_ATOMS)), label="theory")
    ctx, atoms = PROVE_ATOMS[theory]
    premise, conclusion = (
        " & ".join(draw(st.lists(st.sampled_from(atoms), max_size=3), label=side)) or "top"
        for side in ("premise", "conclusion")
    )
    return theory, f"{ctx} {premise} |- {conclusion}"


# Verdict-only proofs test the goal inside a round and stop where it first
# holds.  Facts only grow, so the goal still held at the round's end: the
# verdict is prove_sequent's, except that a budget that ran out later in
# that round (Unknown there) may give Valid.  A chase whose budget runs out
# counts only the rounds it completed, and a cut chase counts the round it
# cut short: in the pinned case the whole chase runs out in round 1 (0
# rounds) and the cut one stops in it (1 round).
@given(case=prove_cases(), max_elements=st.integers(0, 150), max_rounds=st.integers(0, 6))
@example(case=(NCAT1, "[x: *, y: *] comp1(x, c1(x)) = y & d1(comp1(y, x)) = d1(x) |- x = y"),
         max_elements=53, max_rounds=1)
def test_verdict_only_prover_matches_prove_or_proves_more(case, max_elements, max_rounds):
    theory, text = case
    (seq,) = parse_sequent(theory.signature, text)
    budget = ChaseBudget(max_elements=max_elements, max_rounds=max_rounds)
    want = prove_sequent(theory, seq, budget)
    record: list = []
    with mock.patch.object(CHASE_MODULE, "chase", _recording_chase(record)):
        got = prove_sequent(theory, seq, budget, _verdict_only=True)
    [(kwargs, cut, whole)] = record
    assert kwargs == {"_stop_in_round": True}
    assert got.verdict == want.verdict or (want.verdict, got.verdict) == (UNKNOWN, VALID)
    assert (got.rounds, got.elements, got.merges) == (cut.rounds, cut.model.size(), cut.merges)
    if got.verdict == want.verdict != VALID:  # no stop: the same chase
        assert cut == whole
    if got.verdict == VALID:
        assert cut.rounds <= whole.rounds + (whole.status == BUDGET_EXCEEDED)
        assert len(cut.quotient) <= len(whole.quotient)


def sorted_terms(sig, ctx, sort, depth):
    """Terms of the sort over the context's variables and the signature,
    at most ``depth`` applications of non-constants deep."""
    leaves = [Var(n) for n, s in ctx.vars if s == sort]
    leaves += [App(f.name) for f in sig.funcs if f.result_sort == sort and not f.arg_sorts]
    options = [st.sampled_from(leaves)] if leaves else []
    funcs = [f for f in sig.funcs if f.result_sort == sort and f.arg_sorts]
    if depth and funcs:
        options.append(st.sampled_from(funcs).flatmap(lambda f: st.tuples(
            *[sorted_terms(sig, ctx, s, depth - 1) for s in f.arg_sorts]).map(lambda args: App(f.name, args))))
    return st.one_of(options)


@st.composite
def random_atoms(draw, sig, ctx, depth=2):
    """An equation, definedness atom or relation atom over random terms."""
    kinds = ["eq", "def"] + (["rel"] if sig.rels else [])
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind == "rel":
        r = draw(st.sampled_from(sig.rels), label="relation")
        return Rel(r.name, tuple(draw(sorted_terms(sig, ctx, s, depth)) for s in r.arg_sorts))
    sort = draw(st.sampled_from(sig.sorts), label="sort")
    lhs = draw(sorted_terms(sig, ctx, sort, depth), label="lhs")
    return Def(lhs) if kind == "def" else Eq(lhs, draw(sorted_terms(sig, ctx, sort, depth), label="rhs"))


# The prover tests its goal by running the compiled conclusion's ops read
# only at the canonical generic ids.  On the tables a chase ends with (cut
# short by a budget or not), that test agrees with structure.holds on the
# result's model at the generic assignment, for the whole conclusion and
# for each of its atoms.
@given(st.data())
def test_goal_ops_agree_with_holds_on_the_model(data):
    theory, text = data.draw(prove_cases(), label="premise")
    (seq,) = parse_sequent(theory.signature, text)
    names = seq.context.names()
    # a budget below the context's size would load only part of it
    budget = ChaseBudget(max_elements=data.draw(st.integers(len(names), 150), label="max_elements"),
                         max_rounds=data.draw(st.integers(0, 6), label="max_rounds"))
    result, generic = representing_model(theory, seq.context, seq.premise, budget)
    atoms = data.draw(st.lists(random_atoms(theory.signature, seq.context), min_size=1, max_size=3), label="goal")
    for goal in [atoms, *([atom] for atom in atoms)]:
        ops = CHASE_MODULE._Conclusion(names, goal)
        want = holds(result.model, generic, HornFormula(tuple(goal)))
        assert ops.holds(result.funcs, result.rels, [generic[n] for n in names]) == want, goal
        event(f"holds: {want}")


def _term_keyed_flatten(term, slots, flat):
    """The reference: slots keyed by the terms themselves, variables as Var."""
    slot = slots.get(term)
    if slot is None:
        args = tuple(_term_keyed_flatten(a, slots, flat) for a in term.args)
        slot = slots[term] = len(slots)
        flat.append((term, args))
    return slot


def _atom_terms(atom):
    return (atom.term,) if isinstance(atom, Def) else (atom.lhs, atom.rhs) if isinstance(atom, Eq) else atom.args


def _applications(term):
    return 0 if isinstance(term, Var) else 1 + sum(map(_applications, term.args))


def _flattened(flatten, var, names, atoms):
    """Each atom's slots, the flat list and the number of slots, as a
    premise or conclusion flattens its atoms in turn."""
    slots, flat = {var(n): i for i, n in enumerate(names)}, []
    got = [tuple(flatten(t, slots, flat) for t in _atom_terms(atom)) for atom in atoms]
    return got, flat, len(slots)


# Premises and conclusions compile without hashing a term: _flatten keys a
# variable's slot by its name and an application's by (symbol, argument
# slots).  It gives every term the slot, and builds the flat list, that
# keying by the terms themselves gives, on random formulas and on their
# desugared premise forms.
@given(st.data())
def test_flatten_matches_term_keyed_reference(data):
    theory, text = data.draw(prove_cases(), label="context")
    (seq,) = parse_sequent(theory.signature, text)
    names = seq.context.names()
    atoms = data.draw(st.lists(random_atoms(theory.signature, seq.context, depth=3), max_size=4), label="atoms")
    for formula in (atoms, normalized(HornFormula(tuple(atoms))).atoms):
        want = _flattened(_term_keyed_flatten, Var, names, formula)
        assert _flattened(CHASE_MODULE._flatten, str, names, formula) == want
        terms = [t for atom in formula for t in _atom_terms(atom)]
        event(f"a repeated application: {sum(map(_applications, terms)) > len(want[1])}")


# d1(c1(x)) = c1(x) holds in the ncat1 chase of d1(c1(x)) ! after the first
# sequents of round 1 fire; the rest of that round creates 12 more elements.
# reduces and check_gauge take the in-round stop: dropping it fails here.
def test_verdict_only_callers_stop_inside_the_round():
    ncat1, ctx = ncat_theory(1), Context((("x", "*"),))
    term, nf = parse_term(ncat1.signature, "d1(c1(x))"), parse_term(ncat1.signature, "c1(x)")
    record: list = []
    with mock.patch.object(CHASE_MODULE, "chase", _recording_chase(record)):
        assert reduces(ncat1, ctx, term, nf) is True
    [(kwargs, cut, whole)] = record
    assert kwargs == {"_stop_in_round": True}
    assert cut.status == whole.status == STOPPED and cut.rounds == whole.rounds == 1
    assert (len(cut.quotient), len(whole.quotient)) == (9, 21)
    record.clear()
    with mock.patch.object(CHASE_MODULE, "chase", _recording_chase(record)):
        cert = check_gauge(ncat_gauge_rules(1), ctx, term)
    assert cert.certified and len(record) == 2 * len(cert.rows)
    assert all(kwargs == {"_stop_in_round": True} and cut.status == STOPPED for kwargs, cut, _ in record)
    assert sum(len(cut.quotient) for _, cut, _ in record) < sum(len(whole.quotient) for _, _, whole in record)


# Prover chases build neither the model nor the entries of the fresh log:
# neither a prove_sequent call nor a verdict-only one reads model, log or
# quotient, so each stays unbuilt until a caller reads it.
def test_prover_leaves_the_fresh_log_unbuilt():
    ncat1 = ncat_theory(1)
    (seq,) = parse_sequent(ncat1.signature, "[x: *] d1(c1(x)) ! |- d1(c1(x)) = c1(x)")
    record: list = []
    with mock.patch.object(CHASE_MODULE, "chase", _recording_chase(record)):
        proofs = [prove_sequent(ncat1, seq), prove_sequent(ncat1, seq, _verdict_only=True)]
    assert [proof.verdict for proof in proofs] == [VALID, VALID]
    assert [kwargs for kwargs, _, _ in record] == [{"_stop_in_round": False}, {"_stop_in_round": True}]
    for result in (r for _, cut, whole in record for r in (cut, whole)):
        assert result.flat_log and not {"model", "log", "quotient"} & result.__dict__.keys()
        assert len(result.log) == len(result.flat_log) // 6
        assert "log" in result.__dict__
    for proof, (_, cut, _) in zip(proofs, record):
        assert proof.elements == cut.model.size()


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
    compiled = CHASE_MODULE._compiled

    def counting_match(self, premise):
        got = match(self, premise)
        found[self] += len(got)
        return got

    def counting_fire(self, conclusion, ids):
        enforced[self] += 1
        return fire(self, conclusion, ids)

    def counting_compiled(seq):  # a round fires each sequent's matches in one kernel call
        premise, conclusion = compiled(seq)
        counted = CHASE_MODULE._Conclusion(conclusion.names, conclusion.atoms)

        def kernel(state, batch):
            enforced[state] += len(batch)
            conclusion.kernel(state, batch)

        counted.kernel = kernel
        return premise, counted

    def recording_step(*args, **kwargs):
        steps.append(step(*args, **kwargs))
        return steps[-1]

    with mock.patch.object(CHASE_MODULE, "_ChaseState", state_cls), \
            mock.patch.object(state_cls, "matches", counting_match), \
            mock.patch.object(state_cls, "fire", counting_fire), \
            mock.patch.object(CHASE_MODULE, "_compiled", counting_compiled), \
            mock.patch.object(DECOMPOSE_MODULE, "scale_step", recording_step):
        trace = DECOMPOSE_MODULE.canonical_decomposition(LADDER, equational_scale(LADDER.signature), f)
    chases = list(enforced)  # premise matching in the target fires nothing
    return trace, steps, [found[c] for c in chases], [enforced[c] for c in chases]


# After the first step every source is a model, so the step that would
# change nothing forces nothing and is not chased: the ladder tower
# (decnum 3) chases its three steps and no fourth.  Each chase after the
# first matches fewer instances than the reference, whose premises have no
# guard, and the whole trace is the full-rematch reference's.
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
