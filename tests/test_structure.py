"""Partial structures: validation, strict evaluation, homs, model files."""

import copy
import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partialhorn import equational_scale
from partialhorn.structure import (
    Hom,
    HomReport,
    PartialStructure,
    compose_hom,
    empty_structure,
    enumerate_homs,
    eval_term,
    find_isomorphism,
    hom_to_json,
    hom_to_text,
    holds,
    identity_hom,
    is_hom,
    is_model,
    load_hom,
    load_model,
    model_to_json,
    model_to_text,
    parse_hom,
    parse_model,
    check_structure,
)
from partialhorn.syntax import App, Var, parse_formula, parse_theory, theory_from_json
from test_chase import MATCH_PREMISES, structures
from test_decompose import DECOMPOSE_MODULE, FIRING_SCALES, homs_to_models, relabelled, sorted_structures

GRAPH = parse_theory("""
theory graph {
  sort V;
  sort E;
  func src : E -> V;
  func tgt : E -> V;
  rel loop : E;
  axiom [e: E] loop(e) |- src(e) = tgt(e);
}
""")


def graph_structure(n_v, edges, loops=()):
    """Vertices 0..n_v-1, then one element per (src, tgt) edge pair."""
    es = tuple(range(n_v, n_v + len(edges)))
    return PartialStructure(
        GRAPH.signature,
        {"V": tuple(range(n_v)), "E": es},
        {
            "src": {(e,): s for e, (s, _) in zip(es, edges)},
            "tgt": {(e,): t for e, (_, t) in zip(es, edges)},
        },
        {"loop": frozenset((es[i],) for i in loops)},
    )


def test_check_structure_rejects_cross_sort_sharing():
    bad = PartialStructure(GRAPH.signature, {"V": (0,), "E": (0,)}, {"src": {}, "tgt": {}},
                           {"loop": frozenset()})
    with pytest.raises(ValueError):
        check_structure(bad)


def test_check_structure_rejects_dangling_entries():
    ok = graph_structure(2, [(0, 1)])
    dangling = PartialStructure(
        GRAPH.signature, ok.carriers, {"src": {(9,): 0}, "tgt": {}}, ok.rels
    )
    with pytest.raises(ValueError):
        check_structure(dangling)
    wrong_sort = PartialStructure(
        GRAPH.signature, ok.carriers, {"src": {(2,): 2}, "tgt": {}}, ok.rels
    )
    with pytest.raises(ValueError):
        check_structure(wrong_sort)
    bad_rel = PartialStructure(
        GRAPH.signature, ok.carriers, ok.funcs, {"loop": frozenset({(0,)})}
    )
    with pytest.raises(ValueError):
        check_structure(bad_rel)


def test_eval_term_is_strict():
    S = graph_structure(2, [(0, 1)])
    partial = PartialStructure(S.signature, S.carriers, {"src": S.funcs["src"], "tgt": {}},
                               S.rels)
    assert eval_term(partial, {"e": 2}, App("src", (Var("e"),))) == 0
    assert eval_term(partial, {"e": 2}, App("tgt", (Var("e"),))) is None
    assert eval_term(partial, {"e": 2}, Var("e")) == 2


def test_holds_formula():
    S = graph_structure(1, [(0, 0)], loops=[0])
    phi = parse_formula(GRAPH.signature, "loop(e) & src(e) = tgt(e)")
    assert holds(S, {"e": 1}, phi)
    T = graph_structure(2, [(0, 1)], loops=[0])
    assert not holds(T, {"e": 2}, phi)


def test_is_model_reports_failing_sequent():
    good = graph_structure(1, [(0, 0)], loops=[0])
    assert is_model(good, GRAPH)
    bad = graph_structure(2, [(0, 1)], loops=[0])
    report = is_model(bad, GRAPH)
    assert not report
    seq, asg = report.failure
    assert seq.label == "ax1" and asg == {"e": 2}


def test_is_hom_checks_sorts_funcs_rels():
    A = graph_structure(2, [(0, 1)], loops=[])
    B = graph_structure(1, [(0, 0)], loops=[0])
    good = Hom(A, B, {0: 0, 1: 0, 2: 1})
    assert is_hom(good)
    skewed = Hom(A, B, {0: 0, 1: 1, 2: 1})  # vertex onto an edge
    assert not is_hom(skewed)
    L = graph_structure(1, [(0, 0)], loops=[0])
    N = graph_structure(1, [(0, 0)], loops=[])
    drops_rel = Hom(L, N, {0: 0, 1: 1})
    report = is_hom(drops_rel)
    assert not report and report.reason


# Each check reports its first failure, with the element, entry or tuple
# that fails; the checks run in this order: elements, entries, tuples.
A_EDGE = graph_structure(2, [(0, 1)])  # vertices 0, 1; edge 2 from 0 to 1
LOOP = graph_structure(1, [(0, 0)], loops=[0])  # vertex 0; looping edge 1
NO_ENTRIES = PartialStructure(GRAPH.signature, A_EDGE.carriers, {"src": {}, "tgt": {}}, A_EDGE.rels)
NO_LOOPS = graph_structure(1, [(0, 0)])


@pytest.mark.parametrize("h, reason", [
    (Hom(A_EDGE, LOOP, {0: 0, 1: 0}), "element 2 unmapped"),
    (Hom(A_EDGE, LOOP, {0: 0, 1: 1, 2: 1}), "element 1:V sent to 1 of wrong sort"),
    (Hom(A_EDGE, NO_ENTRIES, {0: 0, 1: 1, 2: 2}), "src(2,) defined in source, undefined at image"),
    (Hom(A_EDGE, A_EDGE, {0: 1, 1: 0, 2: 2}), "src(2,): image 0 != mapped value 1"),
    (Hom(A_EDGE, graph_structure(2, [(0, 0)]), {0: 0, 1: 1, 2: 2}), "tgt(2,): image 0 != mapped value 1"),
    (Hom(LOOP, NO_LOOPS, {0: 0, 1: 1}), "loop(1,) holds in source, not at image"),
    (Hom(LOOP, NO_ENTRIES, {0: 0, 1: 2}), "src(1,) defined in source, undefined at image"),
])
def test_is_hom_failure_reasons(h, reason):
    assert is_hom(h) == HomReport(False, reason)


# Name functions write the failing elements: the source's for elements and
# entries, the target's for images.
@pytest.mark.parametrize("h, reason", [
    (Hom(A_EDGE, LOOP, {0: 0, 1: 1, 2: 1}), "element a1:V sent to b1 of wrong sort"),
    (Hom(A_EDGE, A_EDGE, {0: 1, 1: 0, 2: 2}), "src(a2,): image b0 != mapped value b1"),
    (Hom(LOOP, NO_LOOPS, {0: 0, 1: 1}), "loop(a1,) holds in source, not at image"),
])
def test_is_hom_failure_reasons_by_name(h, reason):
    assert is_hom(h, "a{}".format, "b{}".format) == HomReport(False, reason)


def test_hom_must_preserve_defined_entries():
    A = graph_structure(2, [(0, 1)])
    undef = PartialStructure(A.signature, A.carriers, {"src": {}, "tgt": {}}, A.rels)
    # identity from the defined structure into the undefined one loses src
    assert not is_hom(Hom(A, undef, {0: 0, 1: 1, 2: 2}))
    # the other direction only adds definedness
    assert is_hom(Hom(undef, A, {0: 0, 1: 1, 2: 2}))


def test_compose_and_identity():
    A = graph_structure(2, [(0, 1)])
    B = graph_structure(1, [(0, 0)])
    f = Hom(A, B, {0: 0, 1: 0, 2: 1})
    assert compose_hom(identity_hom(B), f).mapping == f.mapping
    assert compose_hom(f, identity_hom(A)).mapping == f.mapping


def test_enumerate_homs_ladder_counts(ladder, ladder_models):
    M = ladder_models["ladder_M"].structure
    T = ladder_models["ladder_T"].structure
    free1 = ladder_models["ladder_free1"].structure
    assert len(enumerate_homs(M, T)) == 1
    assert len(enumerate_homs(M, M)) == 1  # constants pin both elements
    assert len(enumerate_homs(free1, M)) == 2  # the free element can go anywhere
    assert len(enumerate_homs(M, T, bijective=True)) == 0
    assert len(enumerate_homs(M, M, bijective=True)) == 1


def test_find_isomorphism(ladder_models):
    M = ladder_models["ladder_M"].structure
    T = ladder_models["ladder_T"].structure
    iso = find_isomorphism(M, M)
    assert iso is not None and is_hom(iso)
    assert find_isomorphism(M, T) is None


# A relation may be nullary (declarable in JSON only): its one possible
# tuple involves no element, and a hom must still carry it over.
FLAG = theory_from_json({
    "theory": "flag",
    "sorts": ["s"],
    "funcs": [{"name": "f", "args": ["s"], "result": "s"}],
    "rels": [{"name": "p", "args": []}, {"name": "q", "args": ["s"]}],
    "axioms": [],
})


def flag_structure(n, p):
    return PartialStructure(FLAG.signature, {"s": tuple(range(n))}, {"f": {}},
                            {"p": frozenset({()} if p else ()), "q": frozenset()})


def test_enumerate_homs_checks_nullary_tuples():
    on, off = flag_structure(1, True), flag_structure(1, False)
    assert enumerate_homs(on, off) == []
    assert enumerate_homs(off, on) == [Hom(off, on, {0: 0})]
    assert enumerate_homs(on, on) == [identity_hom(on)]
    assert find_isomorphism(on, off) is None and find_isomorphism(off, on) is None


def test_empty_source_has_exactly_one_hom():
    empty = empty_structure(GRAPH.signature)
    for B in (empty, A_EDGE, LOOP):
        assert enumerate_homs(empty, B) == [Hom(empty, B, {})]
    assert enumerate_homs(empty, empty, bijective=True) == [Hom(empty, empty, {})]
    assert enumerate_homs(empty, A_EDGE, bijective=True) == []
    assert find_isomorphism(empty, empty) == Hom(empty, empty, {})


def product_homs(A, B, bijective=False):
    """The brute-force oracle: every map of A's elements, in id order, into
    the carriers of their sorts, lexicographic in the images (carriers are
    sorted); kept where it is a hom and, with ``bijective``, where its
    images are B's elements without repeats."""
    elems = A.elements()
    for images in itertools.product(*(B.carriers[A.sort_of(e)] for e in elems)):
        h = Hom(A, B, dict(zip(elems, images)))
        if is_hom(h) and not (bijective and sorted(images) != list(B.elements())):
            yield h


def hom_list(homs):
    return [list(h.mapping.items()) for h in homs]


@given(st.data())
def test_enumerate_homs_matches_brute_force(data):
    theory = data.draw(st.sampled_from([*MATCH_PREMISES, GRAPH, FLAG]), label="theory")
    A = data.draw(structures(theory.signature, 3), label="A")
    B = data.draw(st.just(A) | structures(theory.signature, 3), label="B")
    bijective = data.draw(st.booleans(), label="bijective")
    assert hom_list(enumerate_homs(A, B, bijective=bijective)) == hom_list(product_homs(A, B, bijective))


def backtrack_homs(A, B, *, bijective=False):
    """The oracle for corpus pairs, too large for the product: a
    backtracking search, elements in ascending id order, each tried at the
    images of its sort in ascending order.  Assigning an element propagates
    forced values through function entries (h(f(a)) must be f(h(a)))."""
    sortof = {e: s for s, es in A.carriers.items() for e in es}
    tsort = {e: s for s, es in B.carriers.items() for e in es}
    elems = sorted(sortof)
    if bijective:
        for s in A.signature.sorts:
            if len(A.carriers.get(s, ())) != len(B.carriers.get(s, ())):
                return []

    fentries = [(f, args, val) for f, tab in A.funcs.items() for args, val in tab.items()]
    rentries = [(r, tup) for r, tups in A.rels.items() for tup in sorted(tups)]
    # a nullary tuple holds no element, so no assignment would check it
    if any(not tup and tup not in B.rels.get(r, frozenset()) for r, tup in rentries):
        return []
    by_elem = {e: [] for e in elems}
    for i, (_, args, val) in enumerate(fentries):
        for e in set(args) | {val}:
            by_elem[e].append(i)
    rby_elem = {e: [] for e in elems}
    for i, (_, tup) in enumerate(rentries):
        for e in set(tup):
            rby_elem[e].append(i)

    mapping = {}
    used = {s: set() for s in A.signature.sorts}
    out = []

    def assign(e, t, trail):
        if e in mapping:
            return mapping[e] == t
        if tsort.get(t) != sortof[e]:
            return False
        if bijective and t in used[sortof[e]]:
            return False
        mapping[e] = t
        if bijective:
            used[sortof[e]].add(t)
        trail.append(e)
        for i in by_elem[e]:
            f, args, val = fentries[i]
            if all(a in mapping for a in args):
                timg = B.funcs.get(f, {}).get(tuple(mapping[a] for a in args))
                if timg is None:
                    return False
                if val in mapping:
                    if mapping[val] != timg:
                        return False
                elif not assign(val, timg, trail):
                    return False
        for i in rby_elem[e]:
            r, tup = rentries[i]
            if all(a in mapping for a in tup):
                if tuple(mapping[a] for a in tup) not in B.rels.get(r, frozenset()):
                    return False
        return True

    def undo(trail):
        while trail:
            e = trail.pop()
            t = mapping.pop(e)
            if bijective:
                used[sortof[e]].discard(t)

    # constants force their values up front
    seed = []
    for f, args, val in fentries:
        if not args:
            timg = B.funcs.get(f, {}).get(())
            if timg is None or not assign(val, timg, seed):
                return []

    def dfs(idx):
        while idx < len(elems) and elems[idx] in mapping:
            idx += 1
        if idx == len(elems):
            out.append(Hom(A, B, dict(sorted(mapping.items()))))
            return
        e = elems[idx]
        for t in B.carriers.get(sortof[e], ()):
            trail = []
            if assign(e, t, trail):
                dfs(idx + 1)
            undo(trail)

    dfs(0)
    return out


def test_parse_model_assigns_declaration_order_ids(ladder, ladder_models):
    m = ladder_models["ladder_M"]
    assert m.element_names == ("ea", "eb")
    assert m.id_of("ea") == 0 and m.name_of(1) == "eb"
    with pytest.raises(KeyError):
        m.id_of("nope")


def test_parse_model_errors(ladder):
    with pytest.raises(ValueError):
        parse_model("model m of wrong { }", ladder)
    with pytest.raises(ValueError):
        parse_model("model m of ladder { elem s : x x; }", ladder)
    with pytest.raises(ValueError):
        parse_model("model m of ladder { elem s : x; a = y; }", ladder)
    with pytest.raises(ValueError):
        parse_model("model m of ladder { elem s : x y; a = x; a = y; }", ladder)


def test_model_text_round_trip_is_byte_identical(ladder, ladder_models):
    for m in ladder_models.values():
        text = model_to_text(m)
        assert model_to_text(parse_model(text, ladder)) == text


def test_model_json_round_trip(corpus_models, tmp_path):
    # every corpus model and its JSON mirror build equal models
    assert len(corpus_models) == 22
    for theory, m in corpus_models.values():
        mirror = tmp_path / f"{m.name}.json"
        mirror.write_text(json.dumps(model_to_json(m)))
        assert load_model(str(mirror), theory) == m


def test_hom_file_round_trip(corpus, corpus_models, tmp_path):
    # every corpus hom and its JSON mirror build equal homs
    paths = sorted((corpus / "homs").glob("*.phom"))
    assert len(paths) == 11
    for path in paths:
        text = path.read_text()
        _, _, _, src, _, tgt, _ = text.split(maxsplit=6)  # hom NAME : SRC -> TGT {
        (_, M), (_, T) = corpus_models[src], corpus_models[tgt]
        name, h = load_hom(str(path), M, T)
        assert is_hom(h)
        assert hom_to_text(name, h, M, T) == text
        mirror = tmp_path / f"{path.stem}.json"
        mirror.write_text(json.dumps(hom_to_json(name, h, M, T)))
        assert load_hom(str(mirror), M, T) == (name, h)


# Every ordered pair of corpus models of one theory: 10,720 homs, 2,959 of
# them from twocat_src to twocat_step1.
def test_enumerate_homs_matches_backtracker_on_corpus_pairs(corpus_models):
    pairs = 0
    for theory, M in corpus_models.values():
        for other, N in corpus_models.values():
            if other.name != theory.name:
                continue
            for bijective in (False, True):
                want = hom_list(backtrack_homs(M.structure, N.structure, bijective=bijective))
                got = hom_list(enumerate_homs(M.structure, N.structure, bijective=bijective))
                assert got == want, (M.name, N.name, bijective)
            pairs += 1
    assert pairs == 118


def test_parse_hom_requires_total_mapping(ladder_models):
    M, T = ladder_models["ladder_M"], ladder_models["ladder_T"]
    with pytest.raises(ValueError):
        parse_hom("hom f : ladder_M -> ladder_T { ea |-> t; }", M, T)
    with pytest.raises(ValueError):
        parse_hom("hom f : other -> ladder_T { ea |-> t; eb |-> t; }", M, T)


def test_empty_structure_is_a_ladder_counterexample(ladder):
    # empty carrier cannot interpret the constants forced by ax1
    S = empty_structure(ladder.signature)
    assert not is_model(S, ladder)


def reference_is_hom(h, source_name=str, target_name=str):
    """is_hom as one loop over every element, entry and tuple, stopping at
    the first failure: the oracle for the whole-table checks."""
    A, B = h.source, h.target

    def at(sym, args):
        return f"{sym}({', '.join(map(source_name, args))}{',' if len(args) == 1 else ''})"

    tsort = {e: s for s, es in B.carriers.items() for e in es}
    for s in A.signature.sorts:
        for e in A.carriers.get(s, ()):
            t = h.mapping.get(e)
            if t is None:
                return HomReport(False, f"element {source_name(e)} unmapped")
            if tsort.get(t) != s:
                return HomReport(False, f"element {source_name(e)}:{s} sent to {target_name(t)} of wrong sort")
    image = h.mapping.__getitem__
    for f, table in A.funcs.items():
        target = B.funcs.get(f, {})
        for args, val in table.items():
            timg = target.get(tuple(map(image, args)))
            if timg is None:
                return HomReport(False, f"{at(f, args)} defined in source, undefined at image")
            if timg != h.mapping[val]:
                return HomReport(False, f"{at(f, args)}: image {target_name(timg)} != mapped value "
                                        f"{target_name(h.mapping[val])}")
    for r, tuples in A.rels.items():
        target_rel = B.rels.get(r, frozenset())
        for tup in tuples:
            if tuple(map(image, tup)) not in target_rel:
                return HomReport(False, f"{at(r, tup)} holds in source, not at image")
    return HomReport(True)


# Every arity from 0 to 3, of functions and of relations, over two sorts.
ARITIES = theory_from_json({
    "theory": "arities",
    "sorts": ["a", "b"],
    "funcs": [{"name": "k", "args": [], "result": "a"}, {"name": "u", "args": ["a"], "result": "b"},
              {"name": "g", "args": ["a", "b"], "result": "a"}, {"name": "t", "args": ["a", "a", "b"], "result": "b"}],
    "rels": [{"name": "p", "args": []}, {"name": "q", "args": ["b"]}, {"name": "r", "args": ["a", "b"]},
             {"name": "w", "args": ["b", "a", "a"]}],
    "axioms": [],
})


@st.composite
def mutated_homs(draw, theory):
    """A hom into a model (see homs_to_models), its ids renamed at random
    (see relabelled), as drawn or with one mutation: an element unmapped, sent to an id of another sort (or of no
    element) or to another element of its sort, one image entry of the
    target re-pointed or deleted, or one image tuple of the target dropped.
    The symbol is drawn before its entry or tuple, so that nullary ones,
    with one key each, come up as often as the others."""
    h = draw(relabelled(draw(homs_to_models(theory), label="h")), label="renamed")
    A, B, mapping = h.source, h.target, dict(h.mapping)
    funcs = {f: dict(t) for f, t in B.funcs.items()}
    rels = dict(B.rels)
    imaged = {f: [tuple(mapping[a] for a in args) for args in t] for f, t in A.funcs.items() if t}
    tuples = {r: [tuple(mapping[a] for a in tup) for tup in sorted(ts)] for r, ts in A.rels.items() if ts}
    kinds = [("none", None)] + [(kind, None) for kind in ("unmap", "wrong sort", "same sort") if mapping]
    kinds += [(kind, f) for f in sorted(imaged) for kind in ("re-point", "delete entry")]
    kinds += [("drop tuple", r) for r in sorted(tuples)]
    kind, sym = draw(st.sampled_from(kinds), label="mutation")
    if kind in ("unmap", "wrong sort", "same sort"):
        a = draw(st.sampled_from(sorted(mapping)), label="element")
        s = A.sort_of(a)
        others = {"wrong sort": [x for x in B.elements() if B.sort_of(x) != s] + [max(B.elements()) + 1],
                  "same sort": [x for x in B.carriers[s] if x != mapping[a]]}.get(kind, [])
        if kind == "unmap":
            del mapping[a]
        elif others:
            mapping[a] = draw(st.sampled_from(others), label="image")
    elif kind in ("re-point", "delete entry"):
        key = draw(st.sampled_from(imaged[sym]), label="entry")
        others = [x for x in B.carriers[B.sort_of(funcs[sym][key])] if x != funcs[sym][key]]
        if kind == "delete entry":
            del funcs[sym][key]
        elif others:
            funcs[sym][key] = draw(st.sampled_from(others), label="value")
    elif kind == "drop tuple":
        rels[sym] = rels[sym] - {draw(st.sampled_from(tuples[sym]), label="tuple")}
    return Hom(A, PartialStructure(B.signature, B.carriers, funcs, rels), mapping)


# The whole-table checks find the failure the walk finds first, worded
# alike, with ids or with given names.
@pytest.mark.parametrize("theory", [ARITIES, *FIRING_SCALES], ids=lambda th: th.name)
@given(data=st.data())
def test_is_hom_matches_reference_loop(theory, data):
    h = data.draw(mutated_homs(theory), label="h")
    assert is_hom(h) == reference_is_hom(h)
    names = ("a{}".format, "b{}".format)
    assert is_hom(h, *names) == reference_is_hom(h, *names)
    assert is_hom(h, source_name=names[0]) == reference_is_hom(h, source_name=names[0])
    assert is_hom(h, target_name=names[1]) == reference_is_hom(h, target_name=names[1])


# Per symbol of ARITIES, its facts among elements 0, 1 : a and 2, 3 : b.
ARITIES_FACTS = {"k": {(): 0}, "u": {(0,): 2}, "g": {(0, 2): 1}, "t": {(0, 1, 2): 2},
                 "p": frozenset({()}), "q": frozenset({(2,)}), "r": frozenset({(1, 2)}), "w": frozenset({(2, 0, 1)})}


def arities_structure(facts):
    """The ARITIES structure on 0, 1 : a and 2, 3 : b with the given facts per symbol (the others empty)."""
    sig = ARITIES.signature
    return PartialStructure(sig, {"a": (0, 1), "b": (2, 3)}, {f.name: facts.get(f.name, {}) for f in sig.funcs},
                            {r.name: facts.get(r.name, frozenset()) for r in sig.rels})


# At each arity, a source holding only the failing symbol's facts: no other
# table or relation hides a whole-table check that passes wrongly.
@pytest.mark.parametrize("sym, at_image, reason", [
    ("p", frozenset(), "p() holds in source, not at image"),
    ("q", frozenset(), "q(2,) holds in source, not at image"),
    ("r", frozenset(), "r(1, 2) holds in source, not at image"),
    ("w", frozenset(), "w(2, 0, 1) holds in source, not at image"),
    ("k", {}, "k() defined in source, undefined at image"),
    ("u", {(0,): 3}, "u(0,): image 3 != mapped value 2"),
    ("g", {}, "g(0, 2) defined in source, undefined at image"),
    ("t", {(0, 1, 2): 3}, "t(0, 1, 2): image 3 != mapped value 2"),
])
def test_is_hom_fails_at_every_arity(sym, at_image, reason):
    A, ident = arities_structure({sym: ARITIES_FACTS[sym]}), {0: 0, 1: 1, 2: 2, 3: 3}
    assert is_hom(Hom(A, arities_structure(ARITIES_FACTS), ident))
    h = Hom(A, arities_structure({**ARITIES_FACTS, sym: at_image}), ident)
    assert is_hom(h) == reference_is_hom(h) == HomReport(False, reason)


def tables_of(S):
    return copy.deepcopy((S.carriers, S.funcs, S.rels))


# The matching states borrow the structure's tables, relations and carriers:
# matching, hom search and scale entries leave every one of them as it was.
@given(data=st.data())
def test_read_only_matching_leaves_structure_unchanged(corpus_models, data):
    if data.draw(st.booleans(), label="corpus"):
        name = data.draw(st.sampled_from(sorted(corpus_models)), label="model")
        theory, S = corpus_models[name][0], corpus_models[name][1].structure
    else:
        theory = data.draw(st.sampled_from([ARITIES, *FIRING_SCALES]), label="theory")
        S = data.draw(sorted_structures(theory.signature, 3), label="S")
    before = tables_of(S)
    is_model(S, theory)
    assert tables_of(S) == before
    if S.size() <= 12:  # a hom search matches one variable per element
        enumerate_homs(S, S)
        enumerate_homs(S, S, bijective=True)
        assert tables_of(S) == before
    for scale in (equational_scale(theory.signature), *FIRING_SCALES.get(theory, ())):
        DECOMPOSE_MODULE._entry_matches(scale, S)
        assert tables_of(S) == before
