"""The four workloads: their set-up, their operations and the checks on them.

A workload's ``setup(seed, root)`` builds everything a run needs and returns
the operation stream as a list of blocks.  The timed loop runs whole blocks, so
every run has the same mix of input classes.  An ``Op`` calls the library (or
the CLI) through module attributes looked up at call time, so the tracer's
wrappers see every call; it returns a short summary of the exact result,
which ``check`` compares with the known answer after the timed phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import inputs
from partialhorn.syntax import App, Context, Def, Eq, HornFormula, Sequent, Var, free_vars, term_to_text

ph = importlib.import_module("partialhorn")
ph_cli = importlib.import_module("partialhorn.cli")

PROVE_BUDGET = ph.ChaseBudget(max_elements=30000, max_rounds=60)
DECOMPOSE_BUDGET = ph.ChaseBudget(max_elements=20000, max_rounds=200)


@dataclass
class Op:
    key: str  # names the input; equal keys must give equal summaries
    run: Callable[[], str]
    check: Callable[[str], bool]
    argv: Optional[tuple[str, ...]] = None  # CLI operations only


def cell_context(t) -> Context:
    return Context(tuple((v, "*") for v in sorted(free_vars(t))) or (("x", "*"),))


# ---------------------------------------------------------------------------
# prove-small


def _reduce_op(theory, n: int, t) -> Op:
    ctx = cell_context(t)

    def run() -> str:
        nf = ph.ncat_normalize(n, ctx, t)
        return f"{term_to_text(nf)}|{ph.reduces(theory, ctx, t, nf, PROVE_BUDGET)}"

    def check(summary: str) -> bool:
        nf_text, verdict = summary.rsplit("|", 1)
        nf = ph.parse_term(theory.signature, nf_text)
        return verdict == "True" and ph.ncat_is_normal(nf) and ph.ncat_sharp(nf) <= ph.ncat_sharp(t)

    return Op(f"reduce:{n}:{term_to_text(t)}", run, check)


def _gauge_op(rules, n: int, t) -> Op:
    ctx = cell_context(t)

    def run() -> str:
        cert = ph.check_gauge(rules, ctx, t, PROVE_BUDGET)
        rows = ";".join(f"{r.sharp},{r.sharp_ok},{r.forward},{r.backward}" for r in cert.rows)
        return f"{cert.certified}|{cert.bound}|{rows}"

    def check(summary: str) -> bool:
        certified, _, rows = summary.split("|")
        return certified == "True" and all(
            r.split(",")[1:] == ["True", "Valid", "Valid"] for r in rows.split(";")
        )

    return Op(f"gauge:{n}:{term_to_text(t)}", run, check)


def setup_prove_small(seed: int, root: Path, blocks: int = 32) -> list[list[Op]]:
    theories = {n: ph.ncat_theory(n) for n in (1, 2)}
    rules = {n: ph.ncat_gauge_rules(n) for n in (1, 2)}
    out = []
    for block in inputs.cell_term_blocks(seed, blocks):
        ops: list[Op] = []
        for n, t in block:
            ops += [_reduce_op(theories[n], n, t), _gauge_op(rules[n], n, t)]
        out.append(ops)
    x = Var("x")
    warm = [_reduce_op(theories[1], 1, App("d1", (App("c1", (x,)),))), _gauge_op(rules[1], 1, App("c1", (x,)))]
    for op in warm:
        op.run()
    return out


# ---------------------------------------------------------------------------
# prove-ncat3


def _ncat3_op(theory, t) -> Op:
    ctx = Context((("x", "*"),))

    def run() -> str:
        nf = ph.ncat_normalize(3, ctx, t)
        seq = Sequent(ctx, HornFormula((Def(t),)), HornFormula((Eq(t, nf),)), label="ncat3")
        return f"{term_to_text(nf)}|{ph.prove_sequent(theory, seq, PROVE_BUDGET).verdict}"

    def check(summary: str) -> bool:
        nf_text, verdict = summary.rsplit("|", 1)
        return verdict == "Valid" and ph.ncat_is_normal(ph.parse_term(theory.signature, nf_text))

    return Op(f"ncat3:{term_to_text(t)}", run, check)


def setup_prove_ncat3(seed: int, root: Path, blocks: int = 32) -> list[list[Op]]:
    theory = ph.ncat_theory(3)
    out = [[_ncat3_op(theory, t) for t in block] for block in inputs.ncat3_word_blocks(seed, blocks)]
    # A one-letter word is already normal: the prover stops before round 1.
    _ncat3_op(theory, App("d2", (Var("x"),))).run()
    return out


# ---------------------------------------------------------------------------
# decompose


def _tower_summary(fac) -> str:
    trace = fac.trace
    sizes = ",".join(str(st.e.target.size()) for st in trace.steps)
    return f"{trace.status}|{trace.claimed_decnum}|{sizes}"


def _decompose_op(key: str, theory, f, check: Callable[[str], bool]) -> Op:
    def run() -> str:
        fac = ph.image_factorization(theory, f, DECOMPOSE_BUDGET)
        # image_factorization raises unless the final leg is injective and
        # the two legs compose to f; check both again from the outside.
        mono_ok = len(set(fac.mono.mapping.values())) == len(fac.mono.mapping)
        composite_ok = ph.compose_hom(fac.mono, fac.strong_epi).mapping == f.mapping
        return f"{_tower_summary(fac)}|{mono_ok and composite_ok}"

    return Op(key, run, check)


def expect_tower(decnum: int, sizes: tuple[int, ...]) -> Callable[[str], bool]:
    want = f"Stabilized|{decnum}|{','.join(map(str, sizes))}|True"
    return lambda summary: summary == want


def expect_merge_tower(summary: str) -> bool:
    # Step 1 identifies the split objects and creates the composites across
    # them; only step 2 can force a composite onto its parallel arrow.
    status, decnum, _, checks = summary.split("|")
    return status == "Stabilized" and decnum == "2" and checks == "True"


def build_cat_merge(theory, cm: inputs.CatMerge):
    """A = free category on the split graph, X = A with the splits and
    relations forced, f : A -> X the quotient map (both by the chase)."""
    sig = theory.signature
    nodes = cm.objects + len(cm.split)
    d1 = {(o,): o for o in range(nodes)}
    c1 = dict(d1)
    for a, (s, t) in enumerate(cm.split_ends):
        d1[(nodes + a,)] = s
        c1[(nodes + a,)] = t
    base = ph.PartialStructure(
        sig, {"*": tuple(range(nodes + len(cm.arrows)))}, {"d1": d1, "c1": c1, "comp1": {}}, {}
    )
    A = ph.chase(theory, ph.Presentation(base), DECOMPOSE_BUDGET)
    forced = [(Eq(Var("u"), Var("v")), (("u", o), ("v", w))) for o, w in cm.twin.items()]
    forced += [
        (Eq(App("comp1", (Var("g"), Var("f"))), Var("h")), (("g", nodes + g), ("f", nodes + f), ("h", nodes + h)))
        for g, f, h in cm.relations
    ]
    X = ph.chase(theory, ph.Presentation(A.model, tuple(forced)), DECOMPOSE_BUDGET)
    if A.status != ph.COMPLETE or X.status != ph.COMPLETE:
        raise RuntimeError("cat-merge input did not saturate")
    return ph.Hom(A.model, X.model, {a: X.quotient[a] for a in A.model.elements()})


def relabel(S, perm: dict[int, int]):
    """The copy of ``S`` whose element ``e`` is called ``perm[e]``."""
    return ph.PartialStructure(
        S.signature,
        {s: tuple(sorted(perm[e] for e in es)) for s, es in S.carriers.items()},
        {f: {tuple(perm[a] for a in args): perm[v] for args, v in table.items()} for f, table in S.funcs.items()},
        {r: frozenset(tuple(perm[a] for a in tup) for tup in tuples) for r, tuples in S.rels.items()},
    )


def relabelled(f, rng: random.Random):
    """An isomorphic copy of the hom ``f``, its source and target elements renumbered at random."""
    perms = []
    for S in (f.source, f.target):
        ids = list(S.elements())
        shuffled = ids[:]
        rng.shuffle(shuffled)
        perms.append(dict(zip(ids, shuffled)))
    pa, px = perms
    return ph.Hom(relabel(f.source, pa), relabel(f.target, px), {pa[a]: px[x] for a, x in f.mapping.items()})


# Generated homs per pass, next to the 11 corpus towers.  With 24 of them the
# median operation is a generated decomposition, not a corpus one, and the
# mean cost of a seed's homs varies by about 4%.
CAT_MERGES = 24
# Passes over the 35 homs.  A pass takes about 2 s, so a 20 s run uses about
# ten; every pass decomposes fresh relabelled copies in a fresh order.
DECOMPOSE_PASSES = 48


def setup_decompose(seed: int, root: Path, towers=inputs.CORPUS_TOWERS) -> list[list[Op]]:
    """Each pass is one block: every hom once, as an isomorphic copy with its
    elements renumbered, so that no operation repeats an input object or
    table; a cache keyed on the inputs cannot answer from an earlier pass.
    The copies of one hom share its key: their summaries must be equal."""
    corpus = root / "corpus"
    theories = {}
    homs = []  # (key, theory, hom, check)
    for th, a, b, h, decnum, sizes in towers:
        if th not in theories:
            theories[th] = ph.load_theory(str(corpus / "theories" / f"{th}.pht"))
        src = ph.load_model(str(corpus / "models" / f"{a}.pm"), theories[th])
        tgt = ph.load_model(str(corpus / "models" / f"{b}.pm"), theories[th])
        _, f = ph.load_hom(str(corpus / "homs" / f"{h}.phom"), src, tgt)
        homs.append((f"corpus:{h}", theories[th], f, expect_tower(decnum, sizes)))
    cat = theories.get("ncat1") or ph.load_theory(str(corpus / "theories" / "ncat1.pht"))
    for i, cm in enumerate(inputs.cat_merges(seed, CAT_MERGES)):
        homs.append((f"merge:{seed}:{i}", cat, build_cat_merge(cat, cm), expect_merge_tower))
    rng = random.Random(seed)
    out = []
    for _ in range(DECOMPOSE_PASSES):
        order = list(range(len(homs)))
        rng.shuffle(order)
        out.append([
            _decompose_op(homs[i][0], homs[i][1], relabelled(homs[i][2], rng), homs[i][3])
            for i in order
        ])
    out[0][0].run()
    return out


# ---------------------------------------------------------------------------
# cli


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv: tuple[str, ...], root: Path) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "partialhorn.cli", *argv, "--format", "json"],
        cwd=root, env=cli_env(root), capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(argv: tuple[str, ...]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ph_cli.main([*argv, "--format", "json"])
    return code, out.getvalue().encode()


def _cli_semantics(argv: tuple[str, ...], doc: dict) -> bool:
    """Known answers that do not rest on recorded output."""
    result = doc["result"]
    if argv[0] == "examples":
        return len(result["records"]) == 26 and all(r["status"] == "PASS" for r in result["records"])
    if argv[0] == "decnum":
        return result["status"] == "Stabilized" and result["decnum"] == inputs.CORPUS_DECNUMS[argv[argv.index("--hom") + 1]]
    if argv[0] == "gat-rank":
        return result["bound"] == inputs.GAT_BOUNDS[Path(argv[1]).stem]
    if argv[0] == "topdec":
        return result["status"] == "Stabilized" and result["stabilizationIndex"] == 2 * int(argv[2])
    if argv[0] == "ncat-normalize":
        theory = ph.ncat_theory(int(argv[2]))
        return result["isNormal"] and ph.ncat_is_normal(ph.parse_term(theory.signature, result["normal"]))
    if argv[0] == "check":
        return result["ok"] and all(c["ok"] for c in result["checks"])
    return False


def cli_output(summary: str) -> tuple[int, bytes]:
    """Exit code and standard output back from a cli operation's summary."""
    code, _, text = summary.split("|", 2)
    return int(code), text.encode()


def _cli_op(argv: tuple[str, ...], root: Path, validate, digests: dict) -> Op:
    def run() -> str:
        code, stdout = run_cli(argv, root)
        return f"{code}|{hashlib.sha256(stdout).hexdigest()}|{stdout.decode(errors='replace')}"

    def check(summary: str) -> bool:
        code, stdout = cli_output(summary)
        if code != 0 or digests.get(" ".join(argv)) != hashlib.sha256(stdout).hexdigest():
            return False
        doc = json.loads(stdout)
        return validate(doc) and doc["command"] == argv[0] and _cli_semantics(argv, doc)

    return Op("cli:" + " ".join(argv), run, check, argv=argv)


DIGESTS_FILE = Path(__file__).resolve().parent / "cli_digests.json"


def load_validator(root: Path) -> Callable[[dict], bool]:
    import jsonschema

    schema = json.loads((root / "corpus" / "schema" / "cli_output.schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    return lambda doc: validator.is_valid(doc)


def setup_cli(seed: int, root: Path, blocks: int = 48) -> list[list[Op]]:
    validate = load_validator(root)
    digests = json.loads(DIGESTS_FILE.read_text())
    out = [[_cli_op(argv, root, validate, digests) for argv in block] for block in inputs.cli_blocks(seed, blocks)]
    run_cli(("gat-rank", "corpus/gats/set.gat"), root)
    return out


# name -> set-up; the reasons for each workload are in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, Path], list[list[Op]]]] = {
    "prove-small": setup_prove_small,
    "prove-ncat3": setup_prove_ncat3,
    "decompose": setup_decompose,
    "cli": setup_cli,
}
