#!/usr/bin/env python3
"""Record sha256 digests of exact chase and prover results.

    python3 scripts/record_engine_digests.py

Writes tests/data/engine_digests.json, one digest per group:

- ``prove-ncat3``: the ``ProveResult`` of each of the first 6 words of
  ``ncat3_word_blocks(901)`` against its ncat3 normal form, as the
  benchmark's prove-ncat3 workload proves it;
- ``prove-small``: the ``ProveResult`` of ``t`` reducing to its normal form
  for every cell term of the first 4 ``cell_term_blocks(901)`` blocks;
- ``chase-<theory>``: whole ``ChaseResult``s (model, sorted quotient, fresh
  log, status, rounds, merges) over ncat1, ncat2 and a theory with a
  relation, from generic contexts and from a model with forced atoms, some
  of them stopped by their budget.

A digest is the sha256 of the ``repr`` of the group's results, so any change
to a verdict, a count, a fresh id or a fresh-log entry changes it.  The
Tier-1 suite recomputes the digests and compares them with the file; rerun
this script only when a change to the engine's results is intended.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS_FILE = ROOT / "tests" / "data" / "engine_digests.json"
SEED = 901

ORDER_TEXT = """
theory order {
  sort s;
  func f : s -> s;
  rel R : s, s;
  axiom [x: s, y: s] R(x, y) & R(y, x) |- x = y;
  axiom [x: s, y: s] R(x, y) |- f(x) = y;
  axiom [x: s, y: s, z: s] R(x, y) & R(y, z) |- R(x, z);
}
"""

# theory -> generic chases (context, formula, max_elements); the first
# completes, and its model is the base for the forced atoms over two of its
# elements u, v (each forced alone, from scratch and as a model, then all
# together for one round).
GENERIC = {
    "ncat1": (
        ("[x: *, y: *]", "d1(x) = c1(y)", 10000),
        ("[x: *, y: *]", "comp1(x, y) !", 400),
        ("[x: *, y: *]", "comp1(x, comp1(y, x)) !", 400),
        ("[x: *]", "comp1(x, d1(x)) = x", 10000),
        ("[x: *, y: *, z: *]", "d1(x) = c1(y) & d1(y) = c1(z)", 12),
    ),
    "ncat2": (
        ("[u: *, v: *]", "comp2(u, v) !", 10000),
        ("[u: *, v: *]", "d2(u) = c1(v)", 400),
        ("[u: *, v: *]", "comp1(u, comp2(v, u)) !", 400),
        ("[u: *, v: *]", "d1(u) = c1(v) & d2(u) = c2(v)", 400),
        ("[u: *, v: *]", "comp1(u, comp2(v, u)) !", 40),
    ),
    "order": (
        ("[x: s, y: s, z: s]", "R(x, f(y)) & f(z) !", 10000),
        ("[x: s, y: s]", "R(x, y) & R(y, x)", 10000),
        ("[x: s, y: s, z: s]", "R(x, y) & R(y, z) & f(z) = x", 10000),
        ("[x: s, y: s]", "R(x, f(y)) & R(f(y), f(f(x)))", 10000),
        ("[x: s, y: s]", "R(x, y) & R(f(x), f(y))", 6),
    ),
}
FORCED = {
    "ncat1": ("u = v", "d1(u) = v", "comp1(u, v) !", "comp1(u, comp1(v, u)) !"),
    "ncat2": ("comp2(u, v) !", "d2(u) = c1(v)", "comp1(u, comp2(v, u)) !", "c2(u) = v"),
    "order": ("u = v", "R(u, v)", "f(u) = v", "R(f(u), v)", "f(f(v)) !"),
}
PROVE_BUDGET = (30000, 60)  # max_elements, max_rounds: the benchmark's prover budget
FORCED_BUDGET = (200, 8)


def _load():
    """The library from this checkout, and the benchmark's input generators."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import partialhorn as ph

    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return ph, inputs


def _model(S) -> tuple:
    return (
        sorted(S.carriers.items()),
        sorted((f, sorted(t.items())) for f, t in S.funcs.items()),
        sorted((r, sorted(t)) for r, t in S.rels.items()),
    )


def _chase(result) -> tuple:
    return (
        _model(result.model),
        sorted(result.quotient.items()),
        tuple(result.fresh_log),
        result.status,
        result.rounds,
        result.merges,
    )


def results() -> dict[str, list]:
    """Every group's results, in a fixed order."""
    ph, inputs = _load()
    from partialhorn.syntax import Context, Def, Eq, HornFormula, Sequent, free_vars, parse_formula, parse_sequent

    out: dict[str, list] = {}
    ncat3 = ph.ncat_theory(3)
    ctx = Context((("x", "*"),))
    words = [t for block in inputs.ncat3_word_blocks(SEED, 3) for t in block][:6]
    out["prove-ncat3"] = []
    for t in words:
        seq = Sequent(ctx, HornFormula((Def(t),)), HornFormula((Eq(t, ph.ncat_normalize(3, ctx, t)),)))
        out["prove-ncat3"].append(ph.prove_sequent(ncat3, seq, ph.ChaseBudget(*PROVE_BUDGET)))
    theories = {"ncat1": ph.ncat_theory(1), "ncat2": ph.ncat_theory(2), "order": ph.parse_theory(ORDER_TEXT)}
    out["prove-small"] = []
    for block in inputs.cell_term_blocks(SEED, 4):
        for n, t in block:
            tctx = Context(tuple((v, "*") for v in sorted(free_vars(t))) or (("x", "*"),))
            seq = Sequent(tctx, HornFormula((Def(t),)), HornFormula((Eq(t, ph.ncat_normalize(n, tctx, t)),)))
            out["prove-small"].append(ph.prove_sequent(theories[f"ncat{n}"], seq, ph.ChaseBudget(*PROVE_BUDGET)))
    for key, theory in theories.items():
        sig = theory.signature
        group = out[f"chase-{key}"] = []
        generic = []
        for ctx_text, formula, max_elements in GENERIC[key]:
            (seq,) = parse_sequent(sig, f"{ctx_text} {formula} |- top")
            budget = ph.ChaseBudget(max_elements=max_elements)
            generic.append(ph.representing_model(theory, seq.context, seq.premise, budget)[0])
        group += [_chase(result) for result in generic]
        base = generic[0].model
        elems = base.elements()
        pairs = [(elems[i % len(elems)], elems[(3 * i + 1) % len(elems)]) for i in range(len(FORCED[key]))]
        budget = ph.ChaseBudget(*FORCED_BUDGET)
        for (u, v), text in zip(pairs, FORCED[key]):
            forced = tuple((atom, (("u", u), ("v", v))) for atom in parse_formula(sig, text).atoms)
            presentation = ph.Presentation(base, forced)
            group.append(_chase(ph.chase(theory, presentation, budget)))
            group.append(_chase(ph.chase(theory, presentation, budget, _base_is_model=True)))
        forced = tuple(
            (atom, (("u", u), ("v", v)))
            for (u, v), text in zip(pairs, FORCED[key])
            for atom in parse_formula(sig, text).atoms
        )
        group.append(_chase(ph.chase(theory, ph.Presentation(base, forced), ph.ChaseBudget(1000, 1))))
    return out


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(repr(group).encode()).hexdigest() for name, group in results().items()}


def main() -> int:
    DIGESTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    got = digests()
    DIGESTS_FILE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"{len(got)} digests written to {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
