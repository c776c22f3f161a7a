"""Dependency ranks of generalized algebraic signatures."""

import pytest

from partialhorn import (
    GatSpec,
    OpDecl,
    SortDecl,
    analyze,
    decnum_bound,
    dependency_rank,
    gat_from_json,
    gat_to_json,
    gat_to_text,
    load_gat,
    parse_gat,
)

CAT = """
gat cat {
  sort Ob;
  sort Mor ctx(Ob, Ob);
  op id ctx(Ob) : Mor;
  op comp ctx(Ob, Ob, Ob, Mor, Mor) : Mor;
  axiom ctx(Ob, Ob, Ob, Ob, Mor, Mor, Mor) : Mor;
}
"""


def test_ranks():
    spec = parse_gat(CAT)
    assert dependency_rank(spec) == {"Ob": 0, "Mor": 1}
    three = parse_gat("gat t { sort A; sort B ctx(A); sort C ctx(A, B); }")
    assert dependency_rank(three) == {"A": 0, "B": 1, "C": 2}


def test_rank_zero_needs_empty_context():
    spec = parse_gat("gat t { sort A; sort B ctx(A); }")
    assert dependency_rank(spec)["A"] == 0
    assert dependency_rank(spec)["B"] == 1


def test_cyclic_sorts_rejected():
    with pytest.raises(ValueError):
        dependency_rank(parse_gat("gat t { sort A ctx(B); sort B ctx(A); }"))


def test_undeclared_and_duplicate_sorts_rejected():
    # the parser stays syntactic; the analyzer owns the checks
    with pytest.raises(ValueError):
        dependency_rank(parse_gat("gat t { sort A ctx(B); }"))
    with pytest.raises(ValueError):
        dependency_rank(parse_gat("gat t { sort A; sort A; }"))
    with pytest.raises(ValueError):
        analyze(parse_gat("gat t { sort A; op f : B; }"))
    with pytest.raises(ValueError):
        analyze(parse_gat("gat t { sort A; axiom ctx(A) : B; }"))
    with pytest.raises(ValueError):
        analyze(parse_gat("gat t { sort A; op f ctx(B) : A; }"))


# An error names the declaration it is found in; a spec built in code has
# no place in a file to add.
def test_errors_name_the_declaration():
    with pytest.raises(ValueError, match=r"^sort B: cyclic sort dependencies at 'A'$"):
        dependency_rank(GatSpec("t", (SortDecl("A", ("B",)), SortDecl("B", ("A",))), (), ()))
    with pytest.raises(ValueError, match=r"^op f: undeclared sort 'B'$"):
        analyze(GatSpec("t", (SortDecl("A", ()),), (OpDecl("f", (), "B"),), ()))
    with pytest.raises(ValueError, match=r"^2:20: sort A: duplicate sort declaration$"):
        dependency_rank(parse_gat("gat t { sort A; sort B;\n sort C ctx(A, B); sort A; }"))


def _reverse_chain(n: int, last_ctx: str = "") -> str:
    """``sort S0 ctx(S1); ... sort S<n-1> <last_ctx>;``: each sort's context
    names the next one, so no rank is known before the whole chain is."""
    decls = [f"sort S{i} ctx(S{i + 1});" for i in range(n - 1)]
    return "gat chain {\n" + "\n".join(decls + [f"sort S{n - 1}{last_ctx};"]) + "\n}\n"


# Ranking walks the chain on an explicit stack, so its depth is not bound
# by Python's recursion limit; an error at the chain's end is still located.
def test_long_chain_declared_against_its_order_ranks():
    report = analyze(parse_gat(_reverse_chain(5000)))
    assert report.ranks["S0"] == 4999 and report.ranks["S4999"] == 0
    assert list(report.ranks)[:2] == ["S4999", "S4998"]  # ranked as they are found
    assert report.bound == 5001
    with pytest.raises(ValueError, match=r"^5001:1: sort S4999: cyclic sort dependencies at 'S0'$"):
        dependency_rank(parse_gat(_reverse_chain(5000, " ctx(S0)")))
    with pytest.raises(ValueError, match=r"^5001:1: sort S4999: undeclared sort 'T'$"):
        dependency_rank(parse_gat(_reverse_chain(5000, " ctx(T)")))


def test_non_descending_analysis_of_cat():
    report = analyze(parse_gat(CAT))
    assert report.non_descending
    assert report.violations == ()
    assert report.bound == 3  # max rank 1, plus 2


def test_op_violation():
    spec = parse_gat("gat t { sort X; sort Y ctx(X); op drop ctx(Y) : X; }")
    report = analyze(spec)
    assert not report.non_descending
    assert report.bound is None
    (v,) = report.violations
    assert (v.kind, v.name, v.ctx_rank, v.sort_rank) == ("op", "drop", 1, 0)


def test_axiom_violation():
    spec = parse_gat("gat t { sort X; sort Y ctx(X); axiom ctx(X, Y, Y) : X; }")
    report = analyze(spec)
    (v,) = report.violations
    assert v.kind == "axiom" and v.ctx_rank == 1 and v.sort_rank == 0


def test_corpus_bounds(corpus):
    expected = {
        "cat": 3,
        "ncat1": 3,
        "ncat2": 4,
        "ncat3": 5,
        "moncat": 3,
        "multicat": 3,
        "dblcat": 4,
        "set": 2,
    }
    for name, bound in expected.items():
        spec = load_gat(str(corpus / "gats" / f"{name}.gat"))
        assert decnum_bound(spec) == bound, name
    bad = load_gat(str(corpus / "gats" / "nondescending_violation.gat"))
    report = analyze(bad)
    assert not report.non_descending
    assert report.bound is None
    assert {v.kind for v in report.violations} == {"axiom"}


def test_text_round_trip(corpus):
    for name in ("cat", "ncat3", "dblcat", "nondescending_violation"):
        text = (corpus / "gats" / f"{name}.gat").read_text()
        spec = parse_gat(text)
        assert gat_to_text(spec) == text
        assert parse_gat(gat_to_text(spec)) == spec


def test_json_round_trip():
    spec = parse_gat(CAT)
    assert gat_from_json(gat_to_json(spec)) == spec
