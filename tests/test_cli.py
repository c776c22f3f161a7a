"""Command line interface: subcommands, exit codes, output formats."""

import contextlib
import copy
import functools
import io
import json
import re
from unittest import mock

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from partialhorn import (
    gat_to_json,
    hom_to_json,
    ladder_gauge_rules,
    ladder_theory,
    load_gat,
    load_gauge_rules,
    load_hom,
    load_theory,
    model_to_json,
    theory_to_json,
)
from partialhorn.cli import main
from partialhorn.gauge import ncat_signature

pytestmark = pytest.mark.usefixtures("corpus")


@pytest.fixture(scope="module")
def schema(corpus):
    return json.loads((corpus / "schema" / "cli_output.schema.json").read_text())


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return code, payload, err


def test_check_models_and_hom(corpus, capsys):
    code, out, _ = run(
        capsys, "check",
        "--theory", corpus / "theories" / "ladder.pht",
        corpus / "models" / "ladder_M.pm",
        corpus / "models" / "ladder_T.pm",
        "--hom", corpus / "homs" / "ladder_bang.phom",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
    )
    assert code == 0
    assert "model ladder_M: ok" in out and "hom bang: ok" in out


# A failure names the sequent and, unless its context is empty, the
# assignment by element names.
NON_MODELS = (
    ("ladder", "elem s : e1;\n  a = e1;", "model bad: FAIL at ax1"),
    ("ncat1", "elem * : o f;\n  d1(o) = o;\n  c1(o) = o;\n  d1(f) = o;\n  c1(f) = o;\n  comp1(o, o) = o;",
     "model bad: FAIL at ax3 under x = o, y = f"),
)


def test_check_rejects_non_model(corpus, tmp_path, capsys):
    for theory, body, line in NON_MODELS:
        bad = tmp_path / "bad.pm"
        bad.write_text(f"model bad of {theory} {{\n  {body}\n}}\n")
        code, out, _ = run(capsys, "check", "--theory", corpus / "theories" / f"{theory}.pht", bad)
        assert code == 1
        assert out.splitlines()[1:] == [line]


# A map that is not a hom names the entry and both elements by name, in
# `check` and in the commands that take --hom.
def test_check_hom_failure_names_elements(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.phom"
    bad.write_text("hom bad : ladder_T -> ladder_M {\n  t |-> ea;\n}\n")
    models = ("--from", corpus / "models" / "ladder_T.pm", "--to", corpus / "models" / "ladder_M.pm")
    code, out, _ = run(capsys, "check", "--theory", corpus / "theories" / "ladder.pht", "--hom", bad, *models)
    assert code == 1
    assert out.splitlines()[1:] == ["hom bad: FAIL (b(): image eb != mapped value ea)"]
    code, _, err = run(capsys, "decnum", "--theory", corpus / "theories" / "ladder.pht", "--hom", bad, *models)
    assert code == 2 and "not a homomorphism: b(): image eb != mapped value ea" in err


LADDER_M_JSON = {
    "model": "ladder_M", "of": "ladder", "elems": {"s": ["ea", "eb"]},
    "funcs": {"a": [{"args": [], "value": "ea"}], "b": [{"args": [], "value": "eb"}]},
}


def check_json_model(corpus, tmp_path, capsys, data):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return run(capsys, "check", "--theory", corpus / "theories" / "ladder.pht", path)


def test_check_json_model_unknown_element_exits_two(corpus, tmp_path, capsys):
    data = dict(LADDER_M_JSON, funcs={"a": [{"args": [], "value": "zz"}]})
    code, _, err = check_json_model(corpus, tmp_path, capsys, data)
    assert code == 2
    assert "model ladder_M: funcs.a[0]: unknown element 'zz'" in err


def test_check_json_model_missing_name_exits_two(corpus, tmp_path, capsys):
    data = {k: v for k, v in LADDER_M_JSON.items() if k != "model"}
    code, _, err = check_json_model(corpus, tmp_path, capsys, data)
    assert code == 2 and "missing key 'model'" in err


@pytest.mark.parametrize("elems, message", [
    (["ea", "eb"], "model ladder_M: 'elems' must be an object, got list"),
    ({"s": ["ea", "eb"], "nosuchsort": ["ez"]}, "model ladder_M: elems.nosuchsort: unknown sort 'nosuchsort'"),
])
def test_check_json_model_malformed_elems_exits_two(corpus, tmp_path, capsys, elems, message):
    code, _, err = check_json_model(corpus, tmp_path, capsys, dict(LADDER_M_JSON, elems=elems))
    assert code == 2 and message in err


def test_check_json_model_conflicting_entries_exits_two(corpus, tmp_path, capsys):
    code, out, _ = check_json_model(corpus, tmp_path, capsys, LADDER_M_JSON)
    assert code == 0 and "model ladder_M: ok" in out
    data = dict(LADDER_M_JSON, funcs={"a": [{"args": [], "value": "ea"}, {"args": [], "value": "eb"}]})
    code, _, err = check_json_model(corpus, tmp_path, capsys, data)
    assert code == 2
    assert "model ladder_M: funcs.a[1]: conflicting entries for a()" in err


# A model that names another theory than the one loaded is located: at the
# name after `of` in text, at the key `of` in JSON.
@pytest.mark.parametrize("suffix, text, message", [
    (".pm", "model M of chain {\n  elem s : e;\n}\n", "1:12: model M: declares theory 'chain', expected 'ladder'"),
    (".pm", "model M\n  of ncat1 {\n}\n", "2:6: model M: declares theory 'ncat1', expected 'ladder'"),
    (".json", json.dumps(dict(LADDER_M_JSON, of="chain")),
     "model ladder_M: of: declares theory 'chain', expected 'ladder'"),
    (".json", json.dumps({k: v for k, v in LADDER_M_JSON.items() if k != "of"}),
     "model ladder_M: of: declares theory None, expected 'ladder'"),
])
def test_check_model_of_another_theory_exits_two(corpus, tmp_path, capsys, suffix, text, message):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    code, _, err = run(capsys, "check", "--theory", corpus / "theories" / "ladder.pht", path)
    assert code == 2 and message in err


@pytest.mark.parametrize("suffix, text, message", [
    (".json", json.dumps({"hom": "bang", "source": "ladder_M", "target": "ladder_T",
                          "map": {"ea": "zz", "eb": "t"}}), "{path}: hom bang: map: unknown element 'zz'"),
    (".json", json.dumps({"hom": "bang", "source": "ladder_M", "target": "ladder_T"}),
     "{path}: hom bang: missing key 'map'"),
    (".json", json.dumps({"hom": "bang", "source": "ladder_M", "target": "ladder_T", "map": ["ea"]}),
     "{path}: hom bang: 'map' must be an object, got list"),
    (".phom", "hom bang : ladder_M -> ladder_T {\n  ea |-> zz;\n  eb |-> t;\n}\n",
     "hom bang: unknown element 'zz'"),
    (".json", json.dumps({"hom": "bang", "source": "ladder_T", "target": "ladder_T", "map": {}}),
     "{path}: hom bang: source: declared ladder_T -> ladder_T, given ladder_M -> ladder_T"),
    (".json", json.dumps({"hom": "bang", "source": "ladder_M", "target": "ladder_M", "map": {}}),
     "{path}: hom bang: target: declared ladder_M -> ladder_M, given ladder_M -> ladder_T"),
    (".phom", "hom bang : ladder_T -> ladder_T {\n}\n",
     "1:12: hom bang: declared ladder_T -> ladder_T, given ladder_M -> ladder_T"),
    (".phom", "hom bang : ladder_M ->\n  ladder_M {\n}\n",
     "2:3: hom bang: declared ladder_M -> ladder_M, given ladder_M -> ladder_T"),
])
def test_check_malformed_hom_exits_two(corpus, tmp_path, capsys, suffix, text, message):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    code, _, err = run(
        capsys, "check", "--theory", corpus / "theories" / "ladder.pht",
        "--hom", path,
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
    )
    assert code == 2 and message.format(path=path) in err


@pytest.mark.parametrize("command, data, message", [
    ("check", {"theory": "t"}, "theory t: missing key 'sorts'"),
    ("gat-rank", {"gat": "g", "sorts": []}, "gat g: missing key 'ops'"),
    ("gauge-check", {"defining": {"c": [{"args": ["a", "b"]}]}}, "defining.c[0]: missing key 'scale'"),
    ("gauge-check", {"defining": {"c": [{"scale": "nope", "args": ["a"]}]}},
     "defining.c[0]: unknown scale entry 'nope'"),
    ("gauge-check", {"defining": {"c": [{"scale": "eq:s", "args": ["a"]}]}},
     "defining.c[0]: scale entry 'eq:s' takes 2 arguments, got 1"),
    ("gauge-check", {"defining": {"c": [{"scale": "eq:s", "args": ["a", "zz"]}]}},
     "defining.c[0]: args[1]: 'zz' is not a ground term"),
    ("gauge-check", {"defining": {"c": [{"scale": "eq:s", "args": ["a(b)", "b"]}]}},
     "defining.c[0]: args[0]: a expects 0 arguments, got 1"),
    ("gauge-check", {"defining": {"c": [{"scale": "eq:s", "args": ["a", "b("]}]}},
     "defining.c[0]: args[1]: 1:3: expected identifier, got ''"),
    ("gauge-check", {"sharp": {"c": 1, "cc": 1}}, "sharp: 'cc' is not a function symbol of ladder"),
    ("gauge-check", {"defining": {"cc": []}}, "defining: 'cc' is not a function symbol of ladder"),
    ("gauge-check", {"sharp": {"d": -3}}, "sharp: 'd' must be a natural number, got -3"),
    ("gauge-check", {"sharp": {"d": True}}, "sharp: 'd' must be a natural number, got true"),
    ("gauge-check", {"defining": {"c": [{"scale": "eq:s", "args": ["a", "e"]}]}},
     "defining.c[0]: args[1]: 'e' has sort t, scale entry 'eq:s' expects s"),
    ("check", {"theory": "t", "sorts": ["s"], "funcs": [], "rels": [], "axioms": [
        {"context": [["x", "s"]], "premise": [{"eq": [{"var": "x"}, {"app": "f"}]}], "conclusion": []}]},
     "theory t: axioms[0]: term: missing key 'args'"),
    ("check", {"theory": "t", "sorts": ["s"], "funcs": [], "rels": [], "axioms": [
        {"context": [["x", "q"]], "premise": [], "conclusion": []}]},
     "theory t: axioms[0]: undeclared sort 'q'"),
    ("check", {"theory": "t", "sorts": ["s"], "funcs": [{"name": "f", "args": ["s"], "result": "s"}], "rels": [],
               "axioms": [{"context": [["x", "s"]], "premise": [], "conclusion": [
                   {"def": functools.reduce(lambda t, _: {"app": "f", "args": [t]}, range(257), {"var": "x"})}]}]},
     "theory t: axioms[0]: term: nested deeper than 256 applications"),
])
def test_json_reader_malformed_exits_two(corpus, tmp_path, capsys, command, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    # gauge rules are read against the ladder plus a second sort t with a constant e
    theory = tmp_path / "ladder.pht"
    theory.write_text((corpus / "theories" / "ladder.pht").read_text().replace("  sort s;", "  sort s;\n  sort t;\n  func e : t;"))
    argv = {
        "check": ["--theory", path],
        "gat-rank": [path],
        "gauge-check": ["--rules", path, "--theory", theory, "--term", "c"],
    }[command]
    code, out, err = run(capsys, command, *argv)
    assert code == 2 and not out and message in err
    # the file is named once: gauge rules name it in their own prefix
    assert err.startswith(f"error: gauge rules {path}: " if command == "gauge-check" else f"error: {path}: ")


# Malformed JSON and bytes that are not UTF-8 are input errors that name the
# file, and for JSON the line and column, whichever reader meets them.
@pytest.mark.parametrize("reader", ["theory", "model", "hom", "gat", "rules"])
@pytest.mark.parametrize("content, message", [
    (b'{"name": "x", ', "{path}:1:15: malformed JSON: Expecting property name enclosed in double quotes"),
    (b"\xff\xfe", "{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["json", "bytes"])
def test_unreadable_files_name_their_path(corpus, tmp_path, capsys, reader, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    ladder, models = corpus / "theories" / "ladder.pht", corpus / "models"
    argv = {
        "theory": ["check", "--theory", path],
        "model": ["check", "--theory", ladder, path],
        "hom": ["check", "--theory", ladder, "--hom", path,
                "--from", models / "ladder_M.pm", "--to", models / "ladder_T.pm"],
        "gat": ["gat-rank", path],
        "rules": ["gauge-check", "--rules", path, "--theory", ladder, "--term", "c"],
    }[reader]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and err.startswith(f"error: {message.format(path=path)}")


# A scale file has a text form only, and it too names its path when its
# bytes are not UTF-8.
def test_undecodable_scale_file_names_its_path(corpus, tmp_path, capsys):
    path = tmp_path / "bad.scale"
    path.write_bytes(b"\xff\xfe")
    models = corpus / "models"
    code, out, err = run(capsys, "decnum", "--theory", corpus / "theories" / "ladder.pht", "--scale", path,
                         "--from", models / "ladder_M.pm", "--to", models / "ladder_T.pm",
                         "--hom", corpus / "homs" / "ladder_bang.phom")
    assert code == 2 and not out and err.startswith(f"error: {path}: not UTF-8 text: ")


# A parse error in a text-form file names the file, then the line and
# column, whichever reader meets it.
@pytest.mark.parametrize("reader, keyword", [
    ("theory", "theory"), ("model", "model"), ("hom", "hom"), ("gat", "gat"), ("scale", "scale"),
])
def test_text_parse_errors_name_their_path(corpus, tmp_path, capsys, reader, keyword):
    path = tmp_path / f"bad.{reader}"
    path.write_text("\n\n}\n")
    ladder, models = corpus / "theories" / "ladder.pht", corpus / "models"
    pair = ["--from", models / "ladder_M.pm", "--to", models / "ladder_T.pm"]
    argv = {
        "theory": ["check", "--theory", path],
        "model": ["check", "--theory", ladder, models / "ladder_M.pm", path],
        "hom": ["check", "--theory", ladder, "--hom", path, *pair],
        "gat": ["gat-rank", path],
        "scale": ["decnum", "--theory", ladder, "--scale", path, *pair, "--hom", corpus / "homs" / "ladder_bang.phom"],
    }[reader]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and err == f"error: {path}:3:1: expected {keyword!r}, got '}}'\n"


TWO_SORTED = "theory two {\n  sort s;\n  sort t;\n  func a : s;\n  func f : s -> t;\n  rel R : s, t;\n}\n"
TWO_SORTED_MODEL = "model m of two {\n  elem s : x;\n  elem t : y;\n"
TWO_SORTED_JSON = {"model": "m", "of": "two", "elems": {"s": ["x"], "t": ["y"]}}


@pytest.mark.parametrize("command, text, message", [
    ("decnum", "scale q {\n  entry e1 [z: s] z = z;\n  entry e2 [z: nosort] z = z;\n}\n",
     "{path}:3:3: undeclared sort 'nosort'"),
    ("decnum", "scale q {\n  entry e1 [z: s] g(z) = z;\n}\n", "{path}:2:3: undeclared function symbol 'g'"),
    ("decnum", "scale q {\n  entry e1 [z: s, z: s] z = z;\n}\n", "{path}:2:3: duplicate context variable 'z'"),
    ("check", "theory t {\n  sort s;\n  func f : s -> s;\n  axiom [x: nosort] top |- f(x) !;\n}\n",
     "{path}:4:3: undeclared sort 'nosort'"),
    ("check", "theory t {\n  sort s;\n  axiom [x: s] top |- g(x) !;\n}\n", "{path}:3:3: undeclared function symbol 'g'"),
    ("check", "theory t {\n  sort s;\n  axiom [x: s, x: s] top |- x = x;\n}\n",
     "{path}:3:3: duplicate context variable 'x'"),
    ("check", "theory t {\n  sort s;\n  func f : s -> nosort;\n}\n", "{path}:3:3: function f: undeclared sort 'nosort'"),
    ("check", "theory t {\n  sort s;\n  func f : s;\n  func f : s;\n}\n", "{path}:4:3: duplicate function symbol 'f'"),
    ("check", "theory t {\n  sort s;\n  func f : s;\n  rel f : s;\n}\n", "{path}:4:3: duplicate relation symbol 'f'"),
    ("check", "theory t {\n  sort s;\n  sort s;\n}\n", "{path}:3:3: duplicate sort 's'"),
    ("check", json.dumps({"theory": "t", "sorts": ["s"], "rels": [], "axioms": [], "funcs": [
        {"name": "f", "args": [], "result": "s"}, {"name": "f", "args": ["s"], "result": "s"}]}),
     "{path}: theory t: funcs[1]: duplicate function symbol 'f'"),
    ("check", json.dumps({"theory": "t", "sorts": ["s", "s"], "funcs": [], "rels": [], "axioms": []}),
     "{path}: theory t: sorts[1]: duplicate sort 's'"),
    # a signature's sort errors name the declaration they are found in
    ("gat-rank", "gat t {\n  sort A;\n  sort B ctx(A, Y);\n}\n", "{path}:3:3: sort B: undeclared sort 'Y'"),
    ("gat-rank", "gat t {\n  sort A;\n  sort A ctx(A);\n}\n", "{path}:3:3: sort A: duplicate sort declaration"),
    ("gat-rank", "gat t {\n  sort A ctx(B);\n  sort B ctx(A);\n}\n",
     "{path}:3:3: sort B: cyclic sort dependencies at 'A'"),
    ("gat-rank", "gat t {\n  sort A;\n  op f ctx(A) : B;\n}\n", "{path}:3:3: op f: undeclared sort 'B'"),
    ("gat-rank", "gat t {\n  sort A;\n  op f : A;\n  axiom ctx(A, Z) : A;\n}\n",
     "{path}:4:3: axiom1: undeclared sort 'Z'"),
    ("gat-rank", json.dumps({"gat": "t", "sorts": [{"name": "A", "ctx": []}, {"name": "B", "ctx": ["A", "Y"]}],
                             "ops": [], "axioms": []}), "{path}: gat t: sorts[1]: sort B: undeclared sort 'Y'"),
    ("gat-rank", json.dumps({"gat": "t", "sorts": [{"name": "A", "ctx": []}, {"name": "A", "ctx": []}],
                             "ops": [], "axioms": []}), "{path}: gat t: sorts[1]: sort A: duplicate sort declaration"),
    ("gat-rank", json.dumps({"gat": "t", "sorts": [{"name": "A", "ctx": ["B"]}, {"name": "B", "ctx": ["A"]}],
                             "ops": [], "axioms": []}),
     "{path}: gat t: sorts[1]: sort B: cyclic sort dependencies at 'A'"),
    ("gat-rank", json.dumps({"gat": "t", "sorts": [{"name": "A", "ctx": []}],
                             "ops": [{"name": "f", "ctx": ["A"], "result": "B"}], "axioms": []}),
     "{path}: gat t: ops[0]: op f: undeclared sort 'B'"),
    # a model's entries and tuples are checked against their symbol's arity
    # and sorts where they are read (models of TWO_SORTED)
    ("model", f"{TWO_SORTED_MODEL}  a(x) = x;\n}}\n", "{path}:4:3: model m: a expects 0 arguments, got 1"),
    ("model", f"{TWO_SORTED_MODEL}  f(y) = y;\n}}\n", "{path}:4:3: model m: f: element 'y' not in carrier of s"),
    ("model", f"{TWO_SORTED_MODEL}  f(x) = x;\n}}\n", "{path}:4:3: model m: f: element 'x' not in carrier of t"),
    ("model", f"{TWO_SORTED_MODEL}  R(x);\n}}\n", "{path}:4:3: model m: R expects 2 arguments, got 1"),
    # an entry written without its value is named as the function's
    ("model", f"{TWO_SORTED_MODEL}  a;\n}}\n", "{path}:4:3: model m: function symbol 'a' is missing '= value'"),
    ("model", f"{TWO_SORTED_MODEL}  f(x);\n}}\n", "{path}:4:3: model m: function symbol 'f' is missing '= value'"),
    ("model", json.dumps(dict(TWO_SORTED_JSON, funcs={"a": [{"args": ["x"], "value": "x"}]})),
     "{path}: model m: funcs.a[0]: a expects 0 arguments, got 1"),
    ("model", json.dumps(dict(TWO_SORTED_JSON, funcs={"f": [{"args": ["x"], "value": "x"}]})),
     "{path}: model m: funcs.f[0]: f: element 'x' not in carrier of t"),
    ("model", json.dumps(dict(TWO_SORTED_JSON, rels={"R": [["x", "y"], ["y", "y"]]})),
     "{path}: model m: rels.R[1]: R: element 'y' not in carrier of s"),
])
def test_sort_errors_in_scale_and_theory_files_are_located(corpus, tmp_path, capsys, command, text, message):
    path = tmp_path / {"decnum": "bad.scale", "gat-rank": "bad.gat", "model": "bad.pm"}.get(command, "bad.pht")
    path.write_text(text)
    if command == "model":
        (tmp_path / "two.pht").write_text(TWO_SORTED)
    argv = {
        "model": ["--theory", tmp_path / "two.pht", path],
        "check": ["--theory", path],
        "gat-rank": [path],
        "decnum": [
            "--theory", corpus / "theories" / "ladder.pht", "--scale", path,
            "--from", corpus / "models" / "ladder_M.pm", "--to", corpus / "models" / "ladder_T.pm",
            "--hom", corpus / "homs" / "ladder_bang.phom",
        ],
    }[command]
    code, _, err = run(capsys, "check" if command == "model" else command, *argv)
    assert code == 2 and f"error: {message.format(path=path)}" in err


def test_free_prints_the_two_element_model(corpus, capsys):
    code, out, _ = run(
        capsys, "free",
        "--theory", corpus / "theories" / "ladder.pht",
        "--formula", "a = c",
    )
    assert code == 0
    assert "2 elements" in out
    assert "a = 0" in out and "b = 0" in out and "c = 0" in out and "d = 3" in out


# The context is sort-checked before it is chased: an undeclared sort, a
# repeated variable and a variable named like a constant are input errors.
@pytest.mark.parametrize("context, message", [
    ("x: q", "undeclared sort 'q'"),
    ("x: s, x: s", "duplicate context variable 'x'"),
    ("a: s", "context variable 'a' shadows a function symbol"),
])
def test_free_rejects_an_ill_sorted_context(corpus, capsys, context, message):
    code, out, err = run(capsys, "free", "--theory", corpus / "theories" / "ladder.pht", "--context", context)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_prove_exit_codes(corpus, capsys):
    theory = corpus / "theories" / "ladder.pht"
    code, out, _ = run(capsys, "prove", "--theory", theory, "--sequent", "[] a = c |- d !")
    assert code == 0 and "Valid" in out
    code, out, _ = run(capsys, "prove", "--theory", theory, "--sequent", "[] top |- a = b")
    assert code == 1 and "Invalid" in out


def test_prove_unknown_exits_three(tmp_path, capsys):
    th = tmp_path / "growing.pht"
    th.write_text(
        "theory growing {\n  sort s;\n  func k : s;\n  func f : s -> s;\n"
        "  axiom [] top |- k !;\n  axiom [x: s] top |- f(x) !;\n}\n"
    )
    code, out, _ = run(capsys, "prove", "--theory", th, "--sequent", "[] top |- k = f(k)",
                       "--max-elements", "20")
    assert code == 3 and "Unknown" in out


# A budget below the size of the base stops the chase before every base
# element is loaded: the command reports the budget and exits 3.
def test_budget_below_the_base_exits_three(corpus, capsys, schema):
    code, payload, _ = run_json(
        capsys, schema, "free",
        "--theory", corpus / "theories" / "ncat1.pht",
        "--context", "[x:*, y:*]", "--formula", "d1(x)=c1(y)", "--max-elements", "1",
    )
    result = payload["result"]
    assert code == 3 and result["status"] == "BudgetExceeded"
    assert result["model"]["carriers"] == {"*": [0]} and result["generic"] == {"x": 0}
    code, out, _ = run(
        capsys, "decnum",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
        "--hom", corpus / "homs" / "ladder_bang.phom",
        "--max-elements", "1",
    )
    assert code == 3 and out.strip() == "status BudgetExceeded"


@pytest.mark.parametrize("command, flag", [
    ("free", "--max-rounds"),
    ("free", "--max-elements"),
    ("decnum", "--max-steps"),
    ("decnum", "--max-elements"),
    ("topdec", "--max-steps"),
    ("gauge-check", "--depth"),
    ("gauge-check", "--vars"),
])
def test_negative_budget_flags_exit_two(corpus, capsys, command, flag):
    theory = corpus / "theories" / "ladder.pht"
    argv = {
        "free": ("--theory", theory),
        "decnum": ("--theory", theory, "--from", corpus / "models" / "ladder_M.pm",
                   "--to", corpus / "models" / "ladder_T.pm"),
        "topdec": ("--lambda", "1"),
        "gauge-check": ("--rules", "builtin:toy"),
    }[command]
    code, out, err = run(capsys, command, *argv, flag, "-1")
    assert code == 2 and not out
    assert err == f"error: {flag} must not be negative, got -1\n"


# A subcommand accepts only the limits it reads: the chase budget where it
# chases, the step cap where it builds a tower.
@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("check", "ncat-normalize", "gat-rank")
      for flag in ("--max-elements", "--max-rounds", "--max-steps")),
    ("topdec", "--max-elements"),
    ("topdec", "--max-rounds"),
    ("free", "--max-steps"),
    ("prove", "--max-steps"),
    ("gauge-check", "--max-steps"),
])
def test_limit_flags_a_subcommand_does_not_read_are_usage_errors(corpus, capsys, command, flag):
    theory = corpus / "theories" / "ladder.pht"
    argv = {
        "check": ("--theory", theory),
        "ncat-normalize": ("-n", "2", "comp1(x, y)"),
        "gat-rank": (corpus / "gats" / "set.gat",),
        "topdec": ("--lambda", "1"),
        "free": ("--theory", theory),
        "prove": ("--theory", theory, "--sequent", "[] top |- a !"),
        "gauge-check": ("--rules", "builtin:toy"),
    }[command]
    assert run(capsys, command, *argv)[0] in (0, 1)
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, *argv, flag, "5")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out and f"unrecognized arguments: {flag}" in captured.err


def test_check_from_and_to_need_a_hom(corpus, capsys):
    theory = corpus / "theories" / "ladder.pht"
    for models in (("--from", corpus / "models" / "ladder_M.pm"),
                   ("--to", corpus / "models" / "ladder_T.pm"),
                   ("--from", corpus / "models" / "ladder_M.pm", "--to", corpus / "models" / "ladder_T.pm")):
        code, out, err = run(capsys, "check", "--theory", theory, *models)
        assert code == 2 and not out
        assert err == "error: --from and --to require a --hom file\n"


def test_decnum_text_and_json(corpus, capsys, schema):
    args = (
        "decnum",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
        "--hom", corpus / "homs" / "ladder_bang.phom",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "3"
    code, payload, _ = run_json(capsys, schema, *args)
    assert code == 0
    assert payload["command"] == "decnum"
    assert payload["result"]["decnum"] == 3


def test_decnum_infers_unique_hom(corpus, capsys):
    code, out, _ = run(
        capsys, "decnum",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
    )
    assert code == 0 and out.strip() == "3"


# Without --hom the hom is inferred from all of them; twocat_src has 2,959
# homs to twocat_step1.
def test_decnum_refuses_ambiguous_hom(corpus, capsys):
    for theory, src, tgt, count in (("ladder", "ladder_free1", "ladder_M", 2),
                                    ("ncat2", "twocat_src", "twocat_step1", 2959)):
        code, _, err = run(
            capsys, "decnum",
            "--theory", corpus / "theories" / f"{theory}.pht",
            "--from", corpus / "models" / f"{src}.pm",
            "--to", corpus / "models" / f"{tgt}.pm",
        )
        assert code == 2
        assert f"found {count}; pass --hom" in err


def test_decompose_trace_and_dot(corpus, tmp_path, capsys, schema):
    dot = tmp_path / "trace.dot"
    args = (
        "decompose",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
        "--dot", dot,
    )
    code, payload, _ = run_json(capsys, schema, *args)
    assert code == 0
    result = payload["result"]
    assert result["decnum"] == 3 and result["status"] == "Stabilized"
    assert [s["elements"] for s in result["steps"]] == [2, 2, 1]
    text = dot.read_text()
    assert text.startswith("digraph")
    assert text.count("->") == 3


def test_decompose_truncated_exits_three(corpus, capsys):
    code, out, _ = run(
        capsys, "decompose",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
        "--max-steps", "1",
    )
    assert code == 3 and "NotStabilized" in out


# The ladder tower has three steps: a fourth step is needed to see that the
# tower stopped, so --max-steps 3 cuts it and --max-steps 4 does not.
@pytest.mark.parametrize("max_steps, code, lines", [
    ("3", 3, {
        "decompose": "status NotStabilized",
        "decnum": "status NotStabilized",
        "image": "status decomposition did not stabilize: NotStabilized",
    }),
    ("4", 0, {
        "decompose": "decnum 3 (stabilized after 3 steps)",
        "decnum": "3",
        "image": "mono: 1 -> 1 elements (injective)",
    }),
])
def test_max_steps_boundary(corpus, capsys, schema, max_steps, code, lines):
    steps = [
        f"step {i}: elements {n}, merges 1, fresh {fresh}, fired 4"
        for i, n, fresh in ((1, 2, 1), (2, 2, 1), (3, 1, 0))
    ]
    for command, last in lines.items():
        args = (
            command,
            "--theory", corpus / "theories" / "ladder.pht",
            "--from", corpus / "models" / "ladder_M.pm",
            "--to", corpus / "models" / "ladder_T.pm",
            "--hom", corpus / "homs" / "ladder_bang.phom",
            "--max-steps", max_steps,
        )
        got, out, _ = run(capsys, *args)
        assert got == code and out.splitlines()[-1] == last
        if command == "decompose":
            assert out.splitlines() == steps + [last]
        got, payload, _ = run_json(capsys, schema, *args)
        result = payload["result"]
        assert got == code
        if command != "image":
            assert (result["decnum"], result["status"]) == ((None, "NotStabilized") if code else (3, "Stabilized"))
        if command == "decompose":
            assert len(result["steps"]) == 3 and result["stabilizationIndex"] == result["decnum"]


def test_decompose_with_scale_file(corpus, capsys):
    code, out, _ = run(
        capsys, "decompose",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
        "--scale", corpus / "scales" / "eq_s.scale",
    )
    assert code == 0 and "decnum 3" in out  # trace text names the result


def test_image_factorization(corpus, capsys):
    code, out, _ = run(
        capsys, "image",
        "--theory", corpus / "theories" / "ladder.pht",
        "--from", corpus / "models" / "ladder_M.pm",
        "--to", corpus / "models" / "ladder_T.pm",
    )
    assert code == 0
    assert "epi" in out and "mono" in out


def test_gauge_check_builtin_toy(capsys, schema):
    code, payload, _ = run_json(capsys, schema, "gauge-check", "--rules", "builtin:toy",
                                "--depth", "1", "--vars", "0")
    assert code == 0
    result = payload["result"]
    assert result["certified"] is True
    assert result["gamma"] == 3  # max sharp 2, plus 1
    sharps = {row["term"]: row["sharp"] for row in result["terms"]}
    assert sharps == {"a": 0, "b": 0, "c": 1, "d": 2}


def test_gauge_check_single_term_ncat(capsys, schema):
    code, payload, _ = run_json(capsys, schema, "gauge-check", "--rules", "builtin:ncat",
                                "-n", "2", "--term", "comp2(v1, v2)")
    assert code == 0
    assert payload["result"]["certified"] is True


def test_gauge_check_pinned_term_infers_context(capsys, schema):
    # a pinned term supplies its own variables; no --vars needed
    code, payload, _ = run_json(capsys, schema, "gauge-check", "--rules", "builtin:ncat",
                                "-n", "2", "--term", "comp1(x, y)")
    assert code == 0
    assert payload["result"]["certified"] is True
    assert payload["result"]["terms"][0]["sharp"] == 1


def test_gauge_check_requires_theory_for_file_rules(capsys):
    code, _, err = run(capsys, "gauge-check", "--rules", "nosuch.json")
    assert code == 2 and "error" in err


LADDER_RULES = {
    "sharp": {"a": 0, "b": 0, "c": 1, "d": 2},
    "defining": {"c": [{"scale": "eq:s", "args": ["a", "b"]}], "d": [{"scale": "eq:s", "args": ["a", "c"]}]},
}


# builtin:toy is the ladder's rules file, read by the same reader.
def test_builtin_toy_rules_are_the_ladder_rules_file(tmp_path):
    path = tmp_path / "ladder.rules.json"
    path.write_text(json.dumps(LADDER_RULES))
    builtin = ladder_gauge_rules()
    read = load_gauge_rules(str(path), ladder_theory())
    assert builtin.theory == read.theory == ladder_theory()
    assert (builtin.sharps, builtin.defining) == (read.sharps, read.defining)


# gauge-check reads -n only with builtin:ncat, --theory only with a rules
# file, and --depth/--vars only without --term; builtin:toy and
# builtin:ncat are the only built-in rules.  Anything else is refused.
@pytest.mark.parametrize("argv, message", [
    (("--rules", "builtin:toy", "-n", "2"), "-n applies only to --rules builtin:ncat"),
    (("--rules", "RULES", "--theory", "THEORY", "--term", "d", "-n", "2"), "-n applies only to --rules builtin:ncat"),
    (("--rules", "builtin:toy", "--theory", "THEORY"), "--theory applies only to rules from a file"),
    (("--rules", "builtin:ncat", "--theory", "THEORY"), "--theory applies only to rules from a file"),
    (("--rules", "builtin:toy", "--term", "d", "--depth", "1"), "--depth and --vars apply only without --term"),
    (("--rules", "builtin:ncat", "--term", "comp2(v1, v2)", "--vars", "2"),
     "--depth and --vars apply only without --term"),
    (("--rules", "RULES", "--theory", "THEORY", "--term", "d", "--depth", "2", "--vars", "0"),
     "--depth and --vars apply only without --term"),
    (("--rules", "builtin:toy", "-n", "7", "--theory", "missing.pht", "--term", "d", "--depth", "9", "--vars", "9"),
     "-n applies only to --rules builtin:ncat"),
    (("--rules", "builtin:ladder"), "unknown rules 'builtin:ladder': the built-in rules are builtin:ncat and builtin:toy"),
    (("--rules", "builtin:ladder", "--term", "d"),
     "unknown rules 'builtin:ladder': the built-in rules are builtin:ncat and builtin:toy"),
])
def test_gauge_check_flags_its_rules_do_not_read_are_usage_errors(corpus, tmp_path, capsys, argv, message):
    rules = tmp_path / "ladder.rules.json"
    rules.write_text(json.dumps(LADDER_RULES))
    files = {"RULES": rules, "THEORY": corpus / "theories" / "ladder.pht"}
    code, out, err = run(capsys, "gauge-check", *(files.get(a, a) for a in argv))
    assert code == 2 and not out
    assert err == f"error: {message}\n"


_WORDS = st.sampled_from(["a", "b", "c", "d", "zz", "a(b)", "f(a)", "c(", "", "eq:s", "eq:t",
                          "sharp", "defining", "scale", "args"])
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-1, 3), _WORDS,
                    st.lists(_WORDS, max_size=3), st.dictionaries(_WORDS, st.integers(-1, 3), max_size=2))


def _slots(node):
    """(container, key) for every value inside a JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def mutated_ladder_rules(draw):
    """The ladder's rules with keys dropped or renamed, values of another
    type, and symbols or arguments replaced or added."""
    doc = copy.deepcopy(LADDER_RULES)
    for _ in range(draw(st.integers(1, 4))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(("drop", "rename", "retype", "symbol", "extend")))
        if how == "drop":
            del node[key]
        elif how == "rename" and isinstance(node, dict):
            node[draw(_WORDS)] = node.pop(key)
        elif how == "extend" and isinstance(node[key], list):
            node[key].append(draw(_WORDS))
        else:
            node[key] = draw(_WORDS if how == "symbol" else _VALUES)
    return doc


# Whatever a rules file holds, gauge-check answers with an exit code: a
# malformed file is a located input error, never an exception.
@given(doc=mutated_ladder_rules())
def test_mutated_gauge_rules_exit_cleanly(corpus, tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.rules.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gauge-check", "--rules", str(path), "--theory", str(corpus / "theories" / "ladder.pht"),
                     "--term", "d"])
    assert code in (0, 1, 2, 3)
    assert code != 2 or err.getvalue().startswith("error: gauge rules"), err.getvalue()


# The corpus files of every kind, each with its JSON mirror (None for the
# scale, which has none) and the command that reads it; FILE stands for the
# file, the other arguments are corpus files.
@pytest.fixture(scope="module")
def corpus_readers(corpus, corpus_models):
    def theory(name):
        return corpus / "theories" / f"{name}.pht"

    def model(name):
        return corpus / "models" / f"{name}.pm"

    readers = [(path, theory_to_json(load_theory(str(path))), ["check", "--theory", "FILE"])
               for path in sorted((corpus / "theories").glob("*.pht"))]
    readers += [(model(name), model_to_json(m), ["check", "--theory", theory(m.theory_name), "FILE"])
                for name, (_, m) in corpus_models.items()]
    for path in sorted((corpus / "homs").glob("*.phom")):
        _, _, _, src, _, tgt, _ = path.read_text().split(maxsplit=6)  # hom NAME : SRC -> TGT {
        (_, S), (_, T) = corpus_models[src], corpus_models[tgt]
        readers.append((path, hom_to_json(*load_hom(str(path), S, T), S, T),
                        ["check", "--theory", theory(S.theory_name), "--hom", "FILE", "--from", model(src),
                         "--to", model(tgt)]))
    readers.append((corpus / "scales" / "eq_s.scale", None,
                    ["decnum", "--theory", theory("ladder"), "--from", model("ladder_M"), "--to", model("ladder_T"),
                     "--hom", corpus / "homs" / "ladder_bang.phom", "--scale", "FILE"]))
    readers += [(path, gat_to_json(load_gat(str(path))), ["gat-rank", "FILE"])
                for path in sorted((corpus / "gats").glob("*.gat"))]
    return readers


_TOKENS = re.compile(r'\s+|"(?:[^"\\]|\\.)*"|-\|\|-|\|->|\|-|->|[\w\']+|\S')
_NAME = re.compile(r'[\w\']+|".*"')
_ODD_TOKENS = ["x", "zz", "0", "-1", "2.5", "null", "true", "{", "}", "[", "]", "(", ")", ";", ",", ":", "=",
               "!", "*", '"x"', "top", "model", "theory", "ctx"]


@st.composite
def mutated_corpus_file(draw, readers):
    """A corpus file, in its text form or its JSON mirror, with tokens dropped,
    repeated, replaced by tokens of the same file or odd ones, or renamed to
    another name of the same file; its suffix; and the command that reads it."""
    path, mirror, argv = draw(st.sampled_from(readers))
    as_json = mirror is not None and draw(st.booleans())
    text = json.dumps(mirror, indent=2) if as_json else path.read_text()
    tokens = _TOKENS.findall(text)
    spots = [i for i, tok in enumerate(tokens) if not tok.isspace()]
    own = sorted(set(tokens[i] for i in spots))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(spots))
        how = draw(st.sampled_from(("drop", "repeat", "replace", "rename")))
        if how == "drop":
            tokens[i] = ""
        elif how == "repeat":
            tokens[i] = f"{tokens[i]} {tokens[i]}"
        elif how == "replace":
            tokens[i] = draw(st.sampled_from(own + _ODD_TOKENS))
        else:  # another name or string of the same file, so the text may still parse
            tokens[i] = draw(st.sampled_from([tok for tok in own if _NAME.fullmatch(tok)]))
    return "".join(tokens), ".json" if as_json else path.suffix, argv


# Whatever a corpus file of any kind holds, the command that reads it answers
# with an exit code: a malformed file is an input error located in that file.
@given(data=st.data())
def test_mutated_corpus_files_exit_cleanly(tmp_path_factory, corpus_readers, data):
    text, suffix, argv = data.draw(mutated_corpus_file(corpus_readers))
    path = tmp_path_factory.getbasetemp() / f"mutated{suffix}"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "FILE" else str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    assert code != 2 or err.getvalue().startswith(f"error: {path}:"), err.getvalue()


def test_ncat_normalize(capsys, schema):
    code, out, _ = run(capsys, "ncat-normalize", "-n", "2", "comp1(comp2(x, y), z)")
    assert code == 0
    assert "comp2(comp1(x, z), comp1(y, d2(z)))" in out
    code, payload, _ = run_json(capsys, schema, "ncat-normalize", "-n", "2",
                                "comp1(comp2(x, y), z)")
    assert payload["result"]["normal"] == "comp2(comp1(x, z), comp1(y, d2(z)))"


# The command parses and normalizes against the signature alone, built at
# most once for both (``ncat_signature`` is cached per n): with no theory
# to build, a large n answers at once.
def test_ncat_normalize_builds_no_theory(capsys):
    builds = ncat_signature.cache_info().misses
    with mock.patch("partialhorn.gauge.ncat_theory", side_effect=AssertionError("theory built")):
        code, out, _ = run(capsys, "ncat-normalize", "-n", "400", "comp1(comp400(x, y), z)")
        assert code == 0 and out.strip() == "comp400(comp1(x, z), comp1(y, d400(z)))"
        assert ncat_signature.cache_info().misses - builds <= 1
        builds = ncat_signature.cache_info().misses
        code, _, err = run(capsys, "ncat-normalize", "-n", "400", "comp401(x, y)")
        assert code == 2 and "undeclared function symbol 'comp401'" in err
        assert ncat_signature.cache_info().misses == builds


def test_ncat_normalize_rejects_garbage(capsys):
    code, _, err = run(capsys, "ncat-normalize", "-n", "2", "comp9(x)")
    assert code == 2 and "error" in err


# Terms may nest applications up to MAX_TERM_DEPTH deep; one more level is
# a located input error (exit 2), not a stack overflow in a later pass.
@pytest.mark.parametrize("depth", [256, 257, 400])
def test_term_nesting_limit(corpus, capsys, schema, depth):
    term = "d1(" * depth + "x" + ")" * depth
    column = 3 * 256 + 3  # the '(' that opens the 257th application
    argvs = {
        "ncat-normalize": ("ncat-normalize", "-n", "2", term),
        "prove": ("prove", "--theory", corpus / "theories" / "ncat2.pht", "--sequent", f"[x: *] top |- {term} = x"),
    }
    for command, argv in argvs.items():
        code, out, err = run(capsys, *argv)
        if depth <= 256:
            assert code == (0 if command == "ncat-normalize" else 1) and not err, command
            assert run_json(capsys, schema, *argv)[0] == code
        else:
            at = column + (len("[x: *] top |- ") if command == "prove" else 0)
            assert code == 2 and f"error: 1:{at}: term nested deeper than 256 applications" in err, command


def test_topdec(capsys, schema):
    code, payload, _ = run_json(capsys, schema, "topdec", "--lambda", "2")
    assert code == 0
    result = payload["result"]
    assert result["lambda"] == 2
    assert result["stabilizationIndex"] == 4
    assert result["status"] == "Stabilized"
    assert len(result["steps"]) == 4


def test_gat_rank(corpus, capsys, schema):
    code, payload, _ = run_json(capsys, schema, "gat-rank", corpus / "gats" / "ncat2.gat")
    assert code == 0
    assert payload["result"]["bound"] == 4
    code, _, _ = run(capsys, "gat-rank", corpus / "gats" / "nondescending_violation.gat")
    assert code == 1


def test_examples_all_pass(corpus, capsys, schema):
    code, payload, _ = run_json(capsys, schema, "examples", "--corpus", corpus)
    assert code == 0
    records = payload["result"]["records"]
    assert len(records) == 26
    assert all(r["status"] == "PASS" for r in records)


def test_examples_filters(corpus, capsys):
    code, out, _ = run(capsys, "examples", "--corpus", corpus, "--filter", "toy")
    assert code == 0
    assert len([l for l in out.splitlines() if l.endswith(" PASS")]) == 2
    code, out, _ = run(capsys, "examples", "--corpus", corpus, "--filter", "koizumi")
    assert code == 0
    assert len([l for l in out.splitlines() if l.endswith(" PASS")]) == 3


# The chase budget reaches the cases that chase (decnum, gauge-check), the
# step cap the towers (decnum, topdec) except chainfwd.maxsteps7, which
# caps itself at 7; the gat and normalization cases read neither.
UNLIMITED = {"gat.cat": "3", "gat.ncat1": "3", "gat.ncat2": "4", "gat.ncat3": "5", "gat.moncat": "3",
             "gat.multicat": "3", "gat.dblcat": "4", "gat.set": "2", "gat.violation": "violation",
             "ncat.normalize.exchange": "comp2(comp1(x, z), comp1(y, d2(z)))"}


@pytest.mark.parametrize("limits, passed, measured", [
    (("--max-elements", "3", "--max-steps", "2"), 12, {
        "toy.decnum": "NotStabilized", "toy.gauge": "not certified", "cat.decnum": "BudgetExceeded",
        "twocat.decnum": "BudgetExceeded", "chain.decnum.0": "1",
        **{f"chain.decnum.{n}": "NotStabilized" for n in range(1, 7)},
        "chainfwd.decnum": "NotStabilized", "chainfwd.maxsteps7": "NotStabilized",
        **{f"koizumi.lambda{lam}": "NotStabilized" for lam in (1, 2, 3)}, **UNLIMITED}),
    (("--max-rounds", "1"), 15, {
        "toy.decnum": "BudgetExceeded", "toy.gauge": "certified bound 3", "cat.decnum": "BudgetExceeded",
        "twocat.decnum": "BudgetExceeded", "chain.decnum.0": "1",
        **{f"chain.decnum.{n}": "BudgetExceeded" for n in range(1, 7)},
        "chainfwd.decnum": "BudgetExceeded", "chainfwd.maxsteps7": "BudgetExceeded",
        **{f"koizumi.lambda{lam}": str(2 * lam) for lam in (1, 2, 3)}, **UNLIMITED}),
])
def test_examples_forward_limits(corpus, capsys, schema, limits, passed, measured):
    code, payload, _ = run_json(capsys, schema, "examples", "--corpus", corpus, *limits)
    records = payload["result"]["records"]
    assert code == 1 and not payload["result"]["ok"]
    assert {r["case"]: r["measured"] for r in records} == measured
    assert sum(r["status"] == "PASS" for r in records) == passed
    assert all((r["status"] == "PASS") == (r["measured"] == r["expected"]) for r in records)
    code, out, _ = run(capsys, "examples", "--corpus", corpus, *limits)
    assert code == 1 and out.endswith(f"\n{passed}/26 passed\n")


# A corpus path that starts with '-' reaches each case's subcommand as a
# path, not as a flag: an option's value (decnum) and a positional (gat-rank).
def test_examples_corpus_path_may_start_with_a_dash(corpus, tmp_path, monkeypatch, capsys):
    (tmp_path / "-c").symlink_to(corpus, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    for case in ("toy.decnum", "gat.cat"):
        code, out, _ = run(capsys, "examples", "--corpus=-c", "--filter", case)
        assert (code, out.splitlines()[-1]) == (0, "1/1 passed")


def test_examples_json_is_deterministic(corpus, capsys):
    _, out1, _ = run(capsys, "examples", "--corpus", corpus, "--format", "json")
    _, out2, _ = run(capsys, "examples", "--corpus", corpus, "--format", "json")
    assert out1 == out2


def test_usage_errors_exit_two(corpus, capsys):
    code, _, err = run(capsys, "free", "--theory", "missing.pht")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "prove", "--theory", corpus / "theories" / "ladder.pht",
                       "--sequent", "[] oops |-")
    assert code == 2
