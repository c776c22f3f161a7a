"""Gauge certificates and strict n-category term normalization."""

import hashlib
import importlib
import json
from unittest import mock

import pytest

from partialhorn import (
    COMPLETE,
    GaugeEntry,
    TableGaugeRules,
    check_gauge,
    enumerate_terms,
    equational_scale,
    ladder_gauge_rules,
    ladder_theory,
    load_gauge_rules,
    ncat_gauge_rules,
    ncat_is_normal,
    ncat_normalize,
    ncat_sharp,
    ncat_theory,
    representing_model,
)
from partialhorn.gauge import ncat_signature
from partialhorn.syntax import App, Context, HornFormula, SortError, Var, parse_term, term_to_text

LADDER = ladder_theory()
EMPTY = Context(())


def ladder_term(text):
    return parse_term(LADDER.signature, text)


def test_ladder_certificates():
    rules = ladder_gauge_rules()
    for text, sharp in (("a", 0), ("b", 0), ("c", 1), ("d", 2)):
        cert = check_gauge(rules, EMPTY, ladder_term(text))
        assert cert.certified, text
        assert cert.bound == sharp + 1
        assert cert.global_bound == sharp + 2
    # d's certificate re-proves c's and the constants' rows transitively
    cert = check_gauge(rules, EMPTY, ladder_term("d"))
    assert [term_to_text(r.term) for r in cert.rows] == ["d", "a", "c", "b"]
    assert all(r.ok for r in cert.rows)


def test_gauge_rejects_non_decreasing_sharp():
    base = ladder_gauge_rules()
    rules = TableGaugeRules(
        LADDER,
        sharps={"a": 0, "b": 0, "c": 1, "d": 1},  # d's arg c has equal sharp
        defining={sym: base.defining_set(App(sym, ())) for sym in ("c", "d")},
    )
    cert = check_gauge(rules, EMPTY, ladder_term("d"))
    assert not cert.certified
    row = next(r for r in cert.rows if r.term == ladder_term("d"))
    assert not row.sharp_ok
    assert row.forward == "Valid" and row.backward == "Valid"


def test_gauge_rejects_wrong_defining_set():
    a, b = ladder_term("a"), ladder_term("b")
    rules = TableGaugeRules(
        LADDER,
        sharps={"a": 0, "b": 0, "c": 1, "d": 2},
        defining={
            "c": (GaugeEntry("eq:s", (a, b)),),
            "d": (GaugeEntry("eq:s", (a, b)),),  # a = b does not define d
        },
    )
    cert = check_gauge(rules, EMPTY, ladder_term("d"))
    assert not cert.certified
    row = next(r for r in cert.rows if r.term == ladder_term("d"))
    # d! does prove a = b (through the ladder), but a = b does not prove d!
    assert row.forward == "Valid"
    assert row.backward == "Invalid"


def test_enumerate_terms_counts():
    # ladder: four constants, no variables to feed anything deeper
    assert len(enumerate_terms(LADDER.signature, EMPTY, 1)) == 4
    assert len(enumerate_terms(LADDER.signature, EMPTY, 3)) == 4
    # one generic 1-cell: x, then d1(x), c1(x), comp1(x, x) at depth 1
    sig1 = ncat_theory(1).signature
    ctx1 = Context((("x", "*"),))
    depth1 = enumerate_terms(sig1, ctx1, 1)
    assert len(depth1) == 4


def test_load_gauge_rules_json(tmp_path):
    path = tmp_path / "ladder.rules.json"
    path.write_text(json.dumps({
        "sharp": {"a": 0, "b": 0, "c": 1, "d": 2},
        "defining": {
            "c": [{"scale": "eq:s", "args": ["a", "b"]}],
            "d": [{"scale": "eq:s", "args": ["a", "c"]}],
        },
    }))
    rules = load_gauge_rules(str(path), LADDER)
    cert = check_gauge(rules, EMPTY, ladder_term("d"))
    assert cert.certified and cert.bound == 3


# --- n-category normalization ---------------------------------------------


def nterm(n, text):
    return parse_term(ncat_theory(n).signature, text)


def norm(n, text, names=("x", "y", "z")):
    ctx = Context(tuple((v, "*") for v in names))
    return term_to_text(ncat_normalize(n, ctx, nterm(n, text)))


def test_normalize_boundary_collapses():
    assert norm(2, "d1(d1(x))") == "d1(x)"
    assert norm(2, "c1(d1(x))") == "d1(x)"
    assert norm(2, "d1(c2(x))") == "d1(x)"
    assert norm(2, "d2(c2(x))") == "c2(x)"
    assert norm(2, "d2(comp2(x, y))") == "d2(y)"
    assert norm(2, "c2(comp2(x, y))") == "c2(x)"
    assert norm(2, "d1(comp2(x, y))") == "d1(y)"  # source side of the chain


def test_normalize_distributes_boundaries_over_lower_composites():
    # a 1-boundary of a 2-composite is the 1-composite of the 1-boundaries
    assert norm(2, "d2(comp1(x, y))") == "comp1(d2(x), d2(y))"
    assert norm(2, "c2(comp1(x, y))") == "comp1(c2(x), c2(y))"


def test_normalize_exchange():
    assert norm(2, "comp1(comp2(x, y), z)") == "comp2(comp1(x, z), comp1(y, d2(z)))"
    assert norm(2, "comp1(z, comp2(x, y))") == "comp2(comp1(c2(z), x), comp1(z, y))"


def test_normalize_flattens_same_level_chains():
    out = norm(2, "comp1(comp1(x, y), z)", names=("x", "y", "z"))
    assert out == "comp1(comp1(x, y), z)"  # already left-associated
    assert norm(2, "comp1(x, comp1(y, z))") == "comp1(comp1(x, y), z)"


def test_normalize_is_idempotent_and_recognized():
    cases = [
        (2, "comp1(comp2(x, y), z)"),
        (2, "d1(comp2(x, comp2(y, z)))"),
        (3, "comp2(comp3(x, y), d2(z))"),
        (1, "comp1(x, comp1(y, z))"),
    ]
    for n, text in cases:
        ctx = Context((("x", "*"), ("y", "*"), ("z", "*")))
        nf = ncat_normalize(n, ctx, nterm(n, text))
        assert ncat_is_normal(nf)
        assert ncat_normalize(n, ctx, nf) == nf


# The built-in theories are read from their surface syntax; the digests of
# their reprs pin every label, atom, atom order and sequent order, on which
# the chase's fresh ids, and so both digest files, depend.
BUILTIN_REPR_SHA256 = {
    "ncat1": "08c9e142a04a9f893a481ad61e2cfeb3dde2e1dc52e28167849a313461342528",
    "ncat2": "367a3b1178692ca64c581b576945cbf7023e761bca5f3b26606c493df1478087",
    "ncat3": "2bd2019f101acdffd2b55c57be313f74be77855fdb68b7929996263327864dc4",
    "ncat4": "e201b06591fa52b04aeabaef50322fda6db8c357f6702f961b1d8ccbc690fe96",
    "ncat5": "6ead781a47c089639872fd1a278eaa61a8825d1a7202c1e9fd1aced99aebfc18",
    "ladder": "56df236c732f731bc226d0f0669bde93e8a28c05d6fc7ffcd0368479684262cb",
}


def test_builtin_theories_match_their_recorded_digests():
    theories = [ncat_theory(n) for n in range(1, 6)] + [ladder_theory()]
    assert {th.name: hashlib.sha256(repr(th).encode()).hexdigest() for th in theories} == BUILTIN_REPR_SHA256
    for n in range(1, 6):
        assert ncat_theory(n) is ncat_theory(n) and ncat_theory(n).signature is ncat_signature(n)


# The signature is built once per n and shared: by every call, by the
# theory, and so by each normalization's check (its declarations are frozen).
def test_ncat_signature_is_built_once_per_n():
    assert ncat_signature(3) is ncat_signature(3) is ncat_theory(3).signature
    assert ncat_signature(2) is not ncat_signature(3)


# The two caches evict apart: once 16 other n have pushed n's signature out
# of its cache, the signature a live theory holds is still the one returned.
def test_ncat_signature_is_the_theory_signature_after_its_cache_evicts_it():
    theory = ncat_theory(1)
    for n in range(2, 18):
        ncat_signature(n)
    assert ncat_theory(1).signature is ncat_signature(1) is theory.signature


# Normalization checks the term against the signature alone, the one the
# theory is built on: it builds no theory, so a large n answers at once,
# and a wrong term gets the signature's error text.
def test_normalize_builds_no_theory():
    assert ncat_theory(3).signature == ncat_signature(3)
    ctx = Context((("x", "*"), ("y", "*"), ("z", "*")))
    gauge = importlib.import_module("partialhorn.gauge")
    with mock.patch.object(gauge, "ncat_theory", side_effect=AssertionError("theory built")):
        term = parse_term(ncat_signature(400), "comp1(comp400(x, y), z)")
        assert term_to_text(ncat_normalize(400, ctx, term)) == "comp400(comp1(x, z), comp1(y, d400(z)))"
        wrong = Context((*ctx.vars, ("w", "s")))
        for bad, message in ((App("comp3", (Var("x"), Var("y"))), "undeclared function symbol 'comp3'"),
                             (App("comp1", (Var("x"),)), "comp1 expects 2 arguments, got 1"),
                             (App("d1", (Var("w"),)), "argument of d1: expected *, got s"),
                             (App("d1", (Var("v"),)), "variable 'v' not in context")):
            with pytest.raises(SortError) as err:
                ncat_normalize(2, wrong, bad)
            assert str(err.value) == message
        with pytest.raises(ValueError, match="n must be at least 1"):
            ncat_normalize(0, ctx, Var("x"))


def test_is_normal_rejects_raw_shapes():
    assert ncat_is_normal(Var("x"))
    assert ncat_is_normal(nterm(2, "d1(x)"))
    assert not ncat_is_normal(nterm(2, "d1(d1(x))"))
    assert not ncat_is_normal(nterm(2, "d2(comp2(x, y))"))
    # a 1-chain with a part of sharp 1 is not normal
    assert not ncat_is_normal(nterm(2, "comp1(comp1(x, y), comp2(z, z))"))


def test_ncat_sharp():
    assert ncat_sharp(Var("x")) == 0
    assert ncat_sharp(nterm(2, "d1(x)")) == 0
    assert ncat_sharp(nterm(2, "comp2(x, y)")) == 2
    assert ncat_sharp(nterm(2, "d1(comp2(x, y))")) == 2
    assert ncat_sharp(nterm(2, "comp1(comp2(x, y), z)")) == 2


def test_free_one_cat_on_a_generator_has_three_cells():
    th = ncat_theory(1)
    ctx = Context((("x", "*"),))
    result, generic = representing_model(th, ctx, HornFormula(()))
    assert result.status == COMPLETE
    assert result.model.size() == 3  # x, d1(x), c1(x)
    x = generic["x"]
    d1x = result.model.funcs["d1"][(x,)]
    c1x = result.model.funcs["c1"][(x,)]
    assert len({x, d1x, c1x}) == 3


def test_ncat_defining_sets_pair_normalized_boundaries():
    rules = ncat_gauge_rules(2)
    ctx = Context((("x", "*"), ("y", "*"), ("z", "*")))
    term = nterm(2, "comp1(comp2(x, y), z)")
    entries = rules.defining_set(term)
    labels = {e.scale_label for e in entries}
    assert labels == {"eq:*"}
    rendered = {tuple(term_to_text(a) for a in e.args) for e in entries}
    assert ("d2(x)", "c2(y)") in rendered  # from the inner comp2
    assert ("d1(y)", "c1(z)") in rendered  # from the outer comp1, normalized


def test_ncat_gauge_certificate_for_a_composite():
    rules = ncat_gauge_rules(2)
    ctx = Context((("x", "*"), ("y", "*")))
    cert = check_gauge(rules, ctx, nterm(2, "comp2(x, y)"))
    assert cert.certified
    assert cert.bound == 3  # sharp 2 + 1
    assert cert.global_bound == 4


def test_ncat_rules_reject_foreign_symbols():
    rules = ncat_gauge_rules(2)
    with pytest.raises(ValueError):
        rules.defining_set(App("mystery", ()))
