"""Canonical decompositions along scales and decomposition numbers."""

import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from partialhorn import (
    BUDGET_EXCEEDED,
    COMPLETE,
    NOT_STABILIZED,
    STABILIZED,
    ChaseBudget,
    Hom,
    Presentation,
    canonical_decomposition,
    chase,
    compose_hom,
    decnum,
    equational_scale,
    find_isomorphism,
    image_factorization,
    is_hom,
    is_model,
    ladder_theory,
    load_hom,
    ncat_theory,
    parse_scale,
    scale_step,
    scale_to_text,
)
from partialhorn.structure import PartialStructure, holds
from partialhorn.syntax import parse_theory

LADDER = ladder_theory()


def bang(corpus, ladder_models):
    M, T = ladder_models["ladder_M"], ladder_models["ladder_T"]
    _, h = load_hom(str(corpus / "homs" / "ladder_bang.phom"), M, T)
    return h


def test_equational_scale_has_one_entry_per_sort():
    scale = equational_scale(LADDER.signature)
    assert [e.label for e in scale.entries] == ["eq:s"]
    entry = scale.entries[0]
    assert entry.context.names() == ("z1", "z2")


def test_scale_step_merges_elements_equal_at_the_image(corpus, ladder_models):
    f = bang(corpus, ladder_models)
    step = scale_step(LADDER, equational_scale(LADDER.signature), f)
    assert step.f_prime is not None
    # both M elements map to t, so the step merges them; ax2 then defines c
    A1 = step.e.target
    assert A1.size() == 2
    assert find_isomorphism(A1, ladder_models["ladder_A1"].structure) is not None
    assert compose_hom(step.f_prime, step.e).mapping == f.mapping
    fired = {label for label, _ in step.fired}
    assert fired == {"eq:s"}


def test_canonical_decomposition_of_the_terminal_map(corpus, ladder_models):
    f = bang(corpus, ladder_models)
    trace = canonical_decomposition(LADDER, equational_scale(LADDER.signature), f)
    assert trace.status == STABILIZED
    assert trace.claimed_decnum == 3
    assert trace.stabilization_index == 3
    sizes = [s.e.target.size() for s in trace.steps]
    assert sizes == [2, 2, 1]
    for name, step in zip(("ladder_A1", "ladder_A2", "ladder_T"), trace.steps):
        other = ladder_models[name].structure
        assert find_isomorphism(step.e.target, other) is not None
        assert is_model(step.e.target, LADDER)
    # the tower composes back to f
    epi = Hom(f.source, f.source, {e: e for e in f.source.elements()})
    for step in trace.steps:
        epi = compose_hom(step.e, epi)
    assert compose_hom(trace.steps[-1].f_prime, epi).mapping == f.mapping


def test_decnum_shortcut(corpus, ladder_models):
    f = bang(corpus, ladder_models)
    assert decnum(LADDER, equational_scale(LADDER.signature), f) == 3


def test_identity_has_decnum_zero(ladder_models):
    M = ladder_models["ladder_M"].structure
    ident = Hom(M, M, {e: e for e in M.elements()})
    trace = canonical_decomposition(LADDER, equational_scale(LADDER.signature), ident)
    assert trace.status == STABILIZED
    assert trace.claimed_decnum == 0
    assert trace.steps == ()


def test_truncated_decomposition_is_not_stabilized(corpus, ladder_models):
    f = bang(corpus, ladder_models)
    trace = canonical_decomposition(LADDER, equational_scale(LADDER.signature), f, max_steps=1)
    assert trace.status == NOT_STABILIZED
    assert trace.claimed_decnum is None
    assert trace.stabilization_index is None
    assert len(trace.steps) == 1


def test_budget_exceeded_propagates(corpus, ladder_models):
    f = bang(corpus, ladder_models)
    trace = canonical_decomposition(
        LADDER, equational_scale(LADDER.signature), f, ChaseBudget(max_elements=2)
    )
    assert trace.status == BUDGET_EXCEEDED
    assert trace.claimed_decnum is None


def test_image_factorization(corpus, ladder_models):
    f = bang(corpus, ladder_models)
    fact = image_factorization(LADDER, f)
    assert is_hom(fact.strong_epi) and is_hom(fact.mono)
    assert compose_hom(fact.mono, fact.strong_epi).mapping == f.mapping
    assert len(set(fact.mono.mapping.values())) == len(fact.mono.mapping)
    assert fact.trace.claimed_decnum == 3


def test_image_factorization_of_injective_map_is_trivial(ladder_models):
    M = ladder_models["ladder_M"].structure
    ident = Hom(M, M, {e: e for e in M.elements()})
    fact = image_factorization(LADDER, ident)
    assert fact.trace.claimed_decnum == 0
    assert fact.strong_epi.mapping == ident.mapping
    assert fact.mono.mapping == ident.mapping


def test_scale_file_round_trip(corpus):
    text = (corpus / "scales" / "eq_s.scale").read_text()
    scale = parse_scale(text, LADDER.signature)
    assert scale.name == "eq_s"
    assert scale.entries == equational_scale(LADDER.signature).entries
    assert scale_to_text(scale) == text


def test_parse_scale_rejects_bad_sorts():
    with pytest.raises(Exception):
        parse_scale("scale s { entry e [z: nosuch] z = z; }", LADDER.signature)


ORDER = parse_theory("""
theory order {
  sort s;
  func f : s -> s;
  rel R : s, s;
  axiom [x: s, y: s] R(x, y) & R(y, x) |- x = y;
  axiom [x: s, y: s] R(x, y) |- f(x) = y;
}
""")
# Two sorts, so that a source may have an empty carrier.
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
NCAT1 = ncat_theory(1)

# Per theory: the equational scale and a parsed one with function terms,
# relation atoms, an empty context and (graph) a second sort.
FIRING_SCALES = {
    theory: (equational_scale(theory.signature), parse_scale(text, theory.signature))
    for theory, text in (
        (LADDER, """scale l {
          entry ab [] a = b;  entry cz [z: s] c = z;  entry d [] d !;
          entry pair [z1: s, z2: s] a = z1 & b = z2;  entry any [z: s] top;  entry none [] top;
        }"""),
        (NCAT1, """scale c {
          entry id [x: *] d1(x) = x;  entry comp [x: *, y: *] comp1(x, y) !;
          entry loop [x: *, y: *] comp1(x, y) = x & d1(y) = c1(y);  entry obj [] top;
        }"""),
        (ORDER, """scale o {
          entry r [x: s, y: s] R(x, y);  entry rf [x: s] R(x, f(x));
          entry sym [x: s, y: s] R(x, y) & R(y, x) & f(x) = f(y);  entry g [] top;
        }"""),
        (GRAPH, """scale g {
          entry loop [x: e] src(x) = tgt(x);  entry par [x: e, y: e] src(x) = src(y) & tgt(x) = tgt(y);
          entry lab [u: v, w: v] L(u, w);  entry mix [x: e, u: v, w: v] src(x) = u & L(u, w);
          entry both [u: v, x: e] top;  entry ground [] top;
        }"""),
    )
}


@st.composite
def sorted_structures(draw, sig, max_per_sort):
    """A random partial structure with 0..max_per_sort elements per sort."""
    carriers, next_id = {}, 0
    for s in sig.sorts:
        n = draw(st.integers(0, max_per_sort), label=f"|{s}|")
        carriers[s] = tuple(range(next_id, next_id + n))
        next_id += n
    funcs = {}
    for f in sig.funcs:
        keys = list(itertools.product(*(carriers[s] for s in f.arg_sorts)))
        values = carriers[f.result_sort]
        funcs[f.name] = {k: draw(st.sampled_from(values)) for k in keys if values and draw(st.booleans())}
    rels = {
        r.name: frozenset(t for t in itertools.product(*(carriers[s] for s in r.arg_sorts)) if draw(st.booleans()))
        for r in sig.rels
    }
    return PartialStructure(sig, carriers, funcs, rels)


@st.composite
def homs_to_models(draw, theory):
    """f : A -> X with X a random finite model and A a random structure
    over X: each element of A lies over one of X, and each entry or tuple
    of A over an entry or tuple of X."""
    sig = theory.signature
    start = chase(theory, Presentation(draw(sorted_structures(sig, 3))), ChaseBudget(max_elements=60, max_rounds=6))
    assume(start.status == COMPLETE)
    X = start.model
    carriers, mapping, fibers, next_id = {}, {}, {}, 0
    for s in sig.sorts:
        n = draw(st.integers(0, 3), label=f"|A {s}|") if X.carriers[s] else 0
        carriers[s] = tuple(range(next_id, next_id + n))
        next_id += n
        for a in carriers[s]:
            mapping[a] = draw(st.sampled_from(X.carriers[s]))
            fibers.setdefault(mapping[a], []).append(a)
    funcs = {}
    for f in sig.funcs:
        funcs[f.name] = {}
        for args in itertools.product(*(carriers[s] for s in f.arg_sorts)):
            y = X.funcs[f.name].get(tuple(mapping[a] for a in args))
            if y in fibers and draw(st.booleans()):
                funcs[f.name][args] = draw(st.sampled_from(fibers[y]))
    rels = {
        r.name: frozenset(
            t for t in itertools.product(*(carriers[s] for s in r.arg_sorts))
            if tuple(mapping[a] for a in t) in X.rels[r.name] and draw(st.booleans())
        )
        for r in sig.rels
    }
    return Hom(PartialStructure(sig, carriers, funcs, rels), X, mapping)


def brute_force_fired(scale, f):
    """The former enumeration: every assignment over A's carriers, in product
    order, whose image satisfies the entry's formula in X."""
    A, X = f.source, f.target
    fired = []
    for entry in scale.entries:
        names = entry.context.names()
        pools = [A.carriers.get(s, ()) for _, s in entry.context.vars]
        for combo in itertools.product(*pools):
            if holds(X, {n: f.mapping[a] for n, a in zip(names, combo)}, entry.formula):
                fired.append((entry.label, tuple(zip(names, combo))))
    return tuple(fired)


# Scale entries matched in X and pulled back along f fire exactly the
# instances, in exactly the order, of the enumeration over A.
@pytest.mark.parametrize("theory", list(FIRING_SCALES), ids=lambda th: th.name)
@given(data=st.data())
def test_scale_firing_matches_brute_force(theory, data):
    f = data.draw(homs_to_models(theory), label="f")
    for scale in FIRING_SCALES[theory]:
        step = scale_step(theory, scale, f, ChaseBudget(max_elements=60, max_rounds=6))
        assert step.fired == brute_force_fired(scale, f)
