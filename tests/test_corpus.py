"""The corpus files are the sources of the paper's worked examples, some
hand-written and some generated by scripts/make_corpus.py.  Each one reads
with the library's readers and prints back byte-identical."""

import json
from pathlib import Path

import jsonschema
import pytest

from partialhorn import (
    gat_from_json,
    gat_to_json,
    gat_to_text,
    hom_to_text,
    load_gat,
    load_hom,
    load_theory,
    model_to_text,
    parse_scale,
    scale_to_text,
    theory_from_json,
    theory_to_json,
    theory_to_text,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
COUNTS = {".pht": 5, ".gat": 9, ".pm": 22, ".phom": 11, ".scale": 1, ".json": 1}
FILES = sorted(p for p in CORPUS.rglob("*") if p.is_file())


def test_every_corpus_file_is_of_a_known_kind():
    suffixes = [p.suffix for p in FILES]
    assert {s: suffixes.count(s) for s in set(suffixes)} == COUNTS


@pytest.mark.parametrize("path", [p for p in FILES if p.suffix != ".json"],
                         ids=lambda p: str(p.relative_to(CORPUS)))
def test_corpus_file_prints_back_byte_identical(path, corpus_models):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".pht":
        theory = load_theory(str(path))
        assert theory_to_text(theory) == text
        assert theory_from_json(theory_to_json(theory)) == theory
    elif path.suffix == ".gat":
        spec = load_gat(str(path))
        assert gat_to_text(spec) == text
        assert gat_from_json(gat_to_json(spec)) == spec
    elif path.suffix == ".pm":
        assert model_to_text(corpus_models[path.stem][1]) == text
    elif path.suffix == ".phom":
        _, _, _, src, _, tgt, _ = text.split(maxsplit=6)  # hom NAME : SRC -> TGT {
        (_, S), (_, T) = corpus_models[src], corpus_models[tgt]
        assert hom_to_text(*load_hom(str(path), S, T), S, T) == text
    else:  # the one scale, the ladder's equational scale
        scale = parse_scale(text, load_theory(str(CORPUS / "theories" / "ladder.pht")).signature)
        assert scale_to_text(scale) == text


def test_schema_is_canonical_draft7_json():
    text = (CORPUS / "schema" / "cli_output.schema.json").read_text(encoding="utf-8")
    schema = json.loads(text)
    assert text == json.dumps(schema, indent=2, sort_keys=True) + "\n"
    jsonschema.Draft7Validator.check_schema(schema)
