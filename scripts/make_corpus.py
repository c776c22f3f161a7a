#!/usr/bin/env python3
"""Regenerate the corpus files that are built from library objects.

This script writes the built-in theories (corpus/theories/ladder.pht,
ncat1.pht, ncat2.pht) from ``ladder_theory`` and ``ncat_theory``, and
every model (corpus/models/*.pm) and hom (corpus/homs/*.phom) from the
data below.  Models and homs are read through the library's JSON readers
and checked with ``is_model`` and ``is_hom`` before they are written; the
script fails loudly on any mismatch.

The other corpus files are hand-written sources, read here but never
written: the chain theories (corpus/theories/chain_*.pht), the GAT
specs (corpus/gats/*.gat), the scale (corpus/scales/eq_s.scale) and the
CLI output schema (corpus/schema/cli_output.schema.json).  The tests
check that each of them reads and prints back byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from partialhorn import (
    NamedModel,
    Theory,
    hom_from_json,
    hom_to_text,
    is_hom,
    is_model,
    ladder_theory,
    load_theory,
    model_from_json,
    model_to_text,
    ncat_theory,
    theory_to_text,
)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"


def write(relpath: str, text: str) -> None:
    path = CORPUS / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def named_model(
    name: str,
    theory: Theory,
    carriers: dict[str, list[str]],
    funcs: dict[str, dict[tuple[str, ...], str]],
) -> NamedModel:
    """The model with these carriers and function tables, written to
    corpus/models/NAME.pm once it is checked to be a model of the theory."""
    doc = {
        "model": name,
        "of": theory.name,
        "elems": carriers,
        "funcs": {f: [{"args": list(args), "value": v} for args, v in table.items()]
                  for f, table in funcs.items()},
    }
    m = model_from_json(doc, theory)
    rep = is_model(m.structure, theory)
    if not rep:
        seq, asg = rep.failure  # type: ignore[misc]
        raise SystemExit(f"{name} is not a model: fails {seq.label} at {asg}")
    write(f"models/{name}.pm", model_to_text(m))
    return m


def named_hom(relpath: str, name: str, src: NamedModel, tgt: NamedModel, mapping: dict[str, str]) -> None:
    """Write the hom to ``relpath`` once it is checked to be a hom."""
    _, h = hom_from_json({"hom": name, "source": src.name, "target": tgt.name, "map": mapping}, src, tgt)
    rep = is_hom(h)
    if not rep:
        raise SystemExit(f"{name} is not a hom: {rep.reason}")
    write(relpath, hom_to_text(name, h, src, tgt))


# ---------------------------------------------------------------------------
# Ladder: four nullary constants, two of them conditionally defined.


def ladder_files() -> None:
    theory = ladder_theory()
    write("theories/ladder.pht", theory_to_text(theory))

    M = named_model("ladder_M", theory, {"s": ["ea", "eb"]}, {"a": {(): "ea"}, "b": {(): "eb"}})
    named_model(
        "ladder_A1", theory, {"s": ["eab", "ec"]},
        {"a": {(): "eab"}, "b": {(): "eab"}, "c": {(): "ec"}},
    )
    named_model(
        "ladder_A2", theory, {"s": ["eabc", "ed"]},
        {"a": {(): "eabc"}, "b": {(): "eabc"}, "c": {(): "eabc"}, "d": {(): "ed"}},
    )
    T = named_model(
        "ladder_T", theory, {"s": ["t"]},
        {"a": {(): "t"}, "b": {(): "t"}, "c": {(): "t"}, "d": {(): "t"}},
    )
    named_model(
        "ladder_free1", theory, {"s": ["ea", "eb", "x1"]},
        {"a": {(): "ea"}, "b": {(): "eb"}},
    )
    named_hom("homs/ladder_bang.phom", "bang", M, T, {"ea": "t", "eb": "t"})


# ---------------------------------------------------------------------------
# n-category models from cell data.
#
# A cell of dimension m lists its immediate boundary (two (m-1)-cells);
# lower boundaries follow by walking down, higher ones are the cell
# itself.  Unit composites compk(x, dk(x)) = compk(ck(x), x) = x are
# filled in for every cell and level; everything else is listed.


Cell = tuple[str, int, str | None, str | None]  # name, dim, src, tgt


def ncat_model(
    name: str,
    n: int,
    theory: Theory,
    cells: list[Cell],
    composites: list[tuple[int, str, str, str]],
) -> NamedModel:
    dim = {c[0]: c[1] for c in cells}
    src = {c[0]: c[2] for c in cells}
    tgt = {c[0]: c[3] for c in cells}

    def bound(e: str, k: int, side: dict[str, str | None]) -> str:
        while dim[e] >= k:
            e = side[e]  # type: ignore[assignment]
        return e

    funcs: dict[str, dict[tuple[str, ...], str]] = {}
    for k in range(1, n + 1):
        funcs[f"d{k}"] = {(e,): bound(e, k, src) for e, _, _, _ in cells}
        funcs[f"c{k}"] = {(e,): bound(e, k, tgt) for e, _, _, _ in cells}
    for k in range(1, n + 1):
        table: dict[tuple[str, ...], str] = {}
        for e, _, _, _ in cells:
            table[(e, bound(e, k, src))] = e
            table[(bound(e, k, tgt), e)] = e
        funcs[f"comp{k}"] = table
    for k, x, y, r in composites:
        key = (x, y)
        if funcs[f"comp{k}"].get(key, r) != r:
            raise SystemExit(f"{name}: conflicting composite comp{k}{key}")
        funcs[f"comp{k}"][key] = r

    return named_model(name, theory, {"*": [c[0] for c in cells]}, funcs)


def cat_files() -> None:
    theory = ncat_theory(1)
    write("theories/ncat1.pht", theory_to_text(theory))

    # Source: a non-composable pair (g starts at Bp, f ends at B) plus a
    # stray h parallel to the would-be composite.
    src = ncat_model(
        "cat_merge_src", 1, theory,
        [
            ("A", 0, None, None), ("B", 0, None, None), ("Bp", 0, None, None),
            ("C", 0, None, None),
            ("f", 1, "A", "B"), ("g", 1, "Bp", "C"), ("h", 1, "A", "C"),
        ],
        [],
    )
    ncat_model(
        "cat_merge_step1", 1, theory,
        [
            ("A", 0, None, None), ("B", 0, None, None), ("C", 0, None, None),
            ("f", 1, "A", "B"), ("g", 1, "B", "C"), ("h", 1, "A", "C"),
            ("gf", 1, "A", "C"),
        ],
        [(1, "g", "f", "gf")],
    )
    tgt = ncat_model(
        "cat_merge_tgt", 1, theory,
        [
            ("A", 0, None, None), ("B", 0, None, None), ("C", 0, None, None),
            ("f", 1, "A", "B"), ("g", 1, "B", "C"), ("h", 1, "A", "C"),
        ],
        [(1, "g", "f", "h")],
    )
    named_hom(
        "homs/cat_merge_phi.phom", "phi", src, tgt,
        {"A": "A", "B": "B", "Bp": "B", "C": "C", "f": "f", "g": "g", "h": "h"},
    )


def twocat_files() -> None:
    theory = ncat_theory(2)
    write("theories/ncat2.pht", theory_to_text(theory))

    zero = [("zm0", 0, None, None), ("z00", 0, None, None), ("zp0", 0, None, None)]
    zcols = [
        ("y01", 1, "zm0", "z00"), ("yp1", 1, "zm0", "z00"),
        ("zm1", 1, "zm0", "zp0"), ("z01", 1, "zm0", "zp0"), ("zp1", 1, "zm0", "zp0"),
    ]
    twos = [("x2", 2, "y01", "yp1"), ("y02", 2, "zm1", "z01"), ("z02", 2, "zm1", "zp1")]

    src = ncat_model(
        "twocat_src", 2, theory,
        zero + [("w00", 0, None, None), ("wp0", 0, None, None)]
        + zcols + [("u1", 1, "w00", "wp0")] + twos,
        [],
    )
    ncat_model(
        "twocat_step1", 2, theory,
        zero + zcols
        + [("t1", 1, "z00", "zp0"), ("w01", 1, "zm0", "zp0"), ("wp1", 1, "zm0", "zp0")]
        + twos + [("u2", 2, "w01", "wp1")],
        [(1, "t1", "y01", "w01"), (1, "t1", "yp1", "wp1"), (1, "t1", "x2", "u2")],
    )
    ncat_model(
        "twocat_step2", 2, theory,
        zero + zcols + [("t1", 1, "z00", "zp0")]
        + twos + [("t2", 2, "z01", "zp1"), ("w02", 2, "zm1", "zp1")],
        [
            (1, "t1", "y01", "z01"), (1, "t1", "yp1", "zp1"), (1, "t1", "x2", "t2"),
            (2, "t2", "y02", "w02"),
        ],
    )
    tgt = ncat_model(
        "twocat_tgt", 2, theory,
        zero + zcols + [("t1", 1, "z00", "zp0")] + twos + [("t2", 2, "z01", "zp1")],
        [
            (1, "t1", "y01", "z01"), (1, "t1", "yp1", "zp1"), (1, "t1", "x2", "t2"),
            (2, "t2", "y02", "z02"),
        ],
    )
    mapping = {c: c for c in ("zm0", "z00", "zp0", "y01", "yp1", "zm1", "z01", "zp1",
                              "x2", "y02", "z02")}
    mapping.update({"w00": "z00", "wp0": "zp0", "u1": "t1"})
    named_hom("homs/twocat_F.phom", "F", src, tgt, mapping)


# ---------------------------------------------------------------------------
# Chains over the constants b, c0..cK of the hand-written chain theories.
# The bidirectional theory propagates definedness upward and, when
# ci+1 = b, downward; the forward theory only creates the next constant
# once the current one reaches b.


def chain_files() -> None:
    bidir = load_theory(str(CORPUS / "theories" / "chain_bidir.pht"))
    fwd = load_theory(str(CORPUS / "theories" / "chain_fwd.pht"))
    K = len(bidir.signature.funcs) - 2  # the truncation depth: c0..cK besides b

    def terminal(theory: Theory, name: str) -> NamedModel:
        table = {f.name: {(): "t"} for f in theory.signature.funcs}
        return named_model(name, theory, {"s": ["t"]}, table)

    T_bidir = terminal(bidir, "chain_bidir_T")
    for m in range(7):
        funcs: dict[str, dict[tuple[str, ...], str]] = {"b": {(): "e0"}, f"c{m}": {(): "e1"}}
        for l in range(m + 1, K + 1):
            funcs[f"c{l}"] = {(): "e0"}
        M = named_model(f"chain_bidir_M{m}", bidir, {"s": ["e0", "e1"]}, funcs)
        named_hom(f"homs/chain_bidir_bang{m}.phom", f"bang{m}", M, T_bidir, {"e0": "t", "e1": "t"})

    T_fwd = terminal(fwd, "chain_fwd_T")
    A0 = named_model("chain_fwd_A0", fwd, {"s": ["e0", "e1"]}, {"b": {(): "e0"}, "c0": {(): "e1"}})
    named_hom("homs/chain_fwd_bang.phom", "bang", A0, T_fwd, {"e0": "t", "e1": "t"})


def main() -> None:
    ladder_files()
    cat_files()
    twocat_files()
    chain_files()


if __name__ == "__main__":
    main()
