"""Partial structures: validation, strict evaluation, homs, model files."""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partialhorn import ladder_theory
from partialhorn.structure import (
    Hom,
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
from partialhorn.syntax import App, Var, load_theory, parse_formula, parse_theory

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


def test_enumerate_homs_limit(ladder_models):
    free1 = ladder_models["ladder_free1"].structure
    M = ladder_models["ladder_M"].structure
    assert len(enumerate_homs(free1, M, limit=1)) == 1


def test_find_isomorphism(ladder_models):
    M = ladder_models["ladder_M"].structure
    T = ladder_models["ladder_T"].structure
    iso = find_isomorphism(M, M)
    assert iso is not None and is_hom(iso)
    assert find_isomorphism(M, T) is None


@given(st.data())
def test_enumerate_homs_matches_brute_force(data):
    n_v = data.draw(st.integers(1, 2), label="vertices")
    n_e = data.draw(st.integers(0, 2), label="edges")
    edges_a = [
        (data.draw(st.integers(0, n_v - 1)), data.draw(st.integers(0, n_v - 1)))
        for _ in range(n_e)
    ]
    loops_a = data.draw(st.sets(st.integers(0, n_e - 1)) if n_e else st.just(set()))
    A = graph_structure(n_v, edges_a, sorted(loops_a))
    B = graph_structure(2, [(0, 1), (1, 1)], loops=[1])
    found = {tuple(sorted(h.mapping.items())) for h in enumerate_homs(A, B)}
    brute = set()
    a_elems = A.elements()
    pools = [B.carriers[A.sort_of(e)] for e in a_elems]
    for combo in itertools.product(*pools):
        h = Hom(A, B, dict(zip(a_elems, combo)))
        if is_hom(h):
            brute.add(tuple(sorted(h.mapping.items())))
    assert found == brute


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


@pytest.fixture(scope="module")
def corpus_models(corpus):
    """Every corpus model, read from its text file against the theory it names."""
    models = {}
    for path in sorted((corpus / "models").glob("*.pm")):
        of = path.read_text().split()[3]  # model NAME of THEORY {
        theory = load_theory(str(corpus / "theories" / f"{of}.pht"))
        m = load_model(str(path), theory)
        models[m.name] = (theory, m)
    return models


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
