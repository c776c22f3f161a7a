"""Command-line interface.

Subcommands: check, free, prove, decompose, decnum, image, gauge-check,
ncat-normalize, topdec, gat-rank, examples.  Exit codes: 0 success /
all-pass / Valid, 1 mismatch / Invalid / violation, 2 usage or input
error, 3 budget exceeded / Unknown / not stabilized.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .chase import (
    COMPLETE,
    ChaseBudget,
    prove_sequent,
    representing_model,
)
from .decompose import (
    MAX_STEPS,
    STABILIZED,
    DecompositionTrace,
    Scale,
    canonical_decomposition,
    equational_scale,
    image_factorization,
    parse_scale,
)
from .gatrank import analyze, load_gat
from .gauge import (
    GaugeRules,
    check_gauge,
    enumerate_terms,
    ladder_gauge_rules,
    load_gauge_rules,
    ncat_gauge_rules,
    ncat_is_normal,
    ncat_normalize,
    ncat_sharp,
    ncat_signature,
)
from .structure import (
    Hom,
    NamedModel,
    enumerate_homs,
    is_hom,
    is_model,
    load_hom,
    load_model,
    tables_to_json,
    tables_to_text,
)
from .syntax import (
    TOP,
    Context,
    ParseError,
    SortError,
    TokenStream,
    _parse_context,
    check_context,
    check_formula,
    free_vars,
    in_file,
    load_theory,
    parse_formula,
    parse_sequent,
    parse_term,
    read_text,
    sequent_to_text,
    term_to_text,
)
from .topdec import koizumi_map, monotone_light_decomposition

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3

# What a subcommand's handler returns: its JSON result, its text lines and its
# exit code.  Only ``main`` prints them.
Outcome = tuple[object, list[str], int]


# ---------------------------------------------------------------------------
# check


def _cmd_check(args: argparse.Namespace) -> Outcome:
    if args.hom and not (args.src and args.tgt):
        raise ValueError("--hom requires --from and --to model files")
    if (args.src or args.tgt) and not args.hom:
        raise ValueError("--from and --to require a --hom file")
    theory = load_theory(args.theory)
    lines = [f"theory {theory.name}: ok ({len(theory.sequents)} sequents)"]
    records = [{"file": args.theory, "kind": "theory", "ok": True}]
    failed = False
    for path in args.models:
        m = load_model(path, theory)
        rep = is_model(m.structure, theory)
        ok = bool(rep)
        failed = failed or not ok
        if ok:
            lines.append(f"model {m.name}: ok ({m.structure.size()} elements)")
        else:
            seq, asg = rep.failure  # type: ignore[misc]
            under = ", ".join(f"{x} = {m.name_of(e)}" for x, e in asg.items())
            where = seq.label or sequent_to_text(seq)
            lines.append(f"model {m.name}: FAIL at {where}" + (f" under {under}" if under else ""))
        records.append({"file": path, "kind": "model", "ok": ok})
    if args.hom:
        src = load_model(args.src, theory)
        tgt = load_model(args.tgt, theory)
        name, h = load_hom(args.hom, src, tgt)
        rep = is_hom(h, src.name_of, tgt.name_of)
        ok = bool(rep)
        failed = failed or not ok
        lines.append(f"hom {name}: {'ok' if ok else 'FAIL (' + rep.reason + ')'}")
        records.append({"file": args.hom, "kind": "hom", "ok": ok})
    return {"checks": records, "ok": not failed}, lines, EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# free


def _parse_cli_context(text: str) -> Context:
    ts = TokenStream(f"[{text}]" if not text.strip().startswith("[") else text)
    ctx = _parse_context(ts)
    ts.expect_eof()
    return ctx


def _cmd_free(args: argparse.Namespace) -> Outcome:
    theory = load_theory(args.theory)
    sig = theory.signature
    ctx = _parse_cli_context(args.context) if args.context else Context(())
    check_context(sig, ctx)
    phi = parse_formula(sig, args.formula) if args.formula else TOP
    check_formula(sig, ctx, phi)
    result, generic = representing_model(theory, ctx, phi, ChaseBudget(args.max_elements, args.max_rounds))
    lines = [f"status {result.status} (rounds {result.rounds}, merges {result.merges})"]
    for s in sig.sorts:
        es = result.model.carriers.get(s, ())
        lines.append(f"sort {s}: {len(es)} elements {list(es)}")
    lines.extend(tables_to_text(result.model, str))
    if generic:
        lines.append("generic: " + ", ".join(f"{n} = {v}" for n, v in generic.items()))
    return (
        {
            "status": result.status,
            "rounds": result.rounds,
            "merges": result.merges,
            "model": {"carriers": {s: list(result.model.carriers[s]) for s in sig.sorts},
                      **tables_to_json(result.model, int)},
            "generic": generic,
        },
        lines,
        EXIT_OK if result.status == COMPLETE else EXIT_INCOMPLETE,
    )


# ---------------------------------------------------------------------------
# prove


def _cmd_prove(args: argparse.Namespace) -> Outcome:
    theory = load_theory(args.theory)
    seqs = parse_sequent(theory.signature, args.sequent)
    lines = []
    records = []
    verdicts = []
    for seq in seqs:
        res = prove_sequent(theory, seq, ChaseBudget(args.max_elements, args.max_rounds))
        verdicts.append(res.verdict)
        lines.append(
            f"{seq.label}: {res.verdict} (rounds {res.rounds}, elements {res.elements}, merges {res.merges})"
        )
        records.append(
            {
                "sequent": sequent_to_text(seq),
                "verdict": res.verdict,
                "rounds": res.rounds,
                "elements": res.elements,
                "merges": res.merges,
            }
        )
    if "Invalid" in verdicts:
        code = EXIT_MISMATCH
    else:
        code = EXIT_INCOMPLETE if "Unknown" in verdicts else EXIT_OK
    return {"goals": records}, lines, code


# ---------------------------------------------------------------------------
# decompose / decnum / image


def _resolve_hom(args: argparse.Namespace, theory) -> tuple[NamedModel, NamedModel, Hom]:
    src = load_model(args.src, theory)
    tgt = load_model(args.tgt, theory)
    if args.hom:
        _, h = load_hom(args.hom, src, tgt)
    else:
        hs = enumerate_homs(src.structure, tgt.structure)
        if len(hs) != 1:
            raise ValueError(
                f"expected exactly one hom {src.name} -> {tgt.name}, found {len(hs)}; pass --hom"
            )
        h = hs[0]
    rep = is_hom(h, src.name_of, tgt.name_of)
    if not rep:
        raise ValueError(f"not a homomorphism: {rep.reason}")
    return src, tgt, h


def _load_scale(args: argparse.Namespace, theory) -> Scale:
    if getattr(args, "scale", None):
        text = read_text(args.scale)
        with in_file(args.scale):
            return parse_scale(text, theory.signature)
    return equational_scale(theory.signature)


def _trace_json(trace: DecompositionTrace) -> dict:
    return {
        "steps": [
            {
                "elements": step.result.model.size(),
                "merges": step.result.merges,
                "fresh": len(step.result.log),
                "firedMatches": len(step.fired),
            }
            for step in trace.steps
        ],
        "decnum": trace.claimed_decnum,
        "stabilizationIndex": trace.stabilization_index,
        "status": trace.status,
    }


def _trace_lines(trace: DecompositionTrace) -> list[str]:
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        lines.append(
            f"step {i}: elements {step.result.model.size()}, merges {step.result.merges}, "
            f"fresh {len(step.result.log)}, fired {len(step.fired)}"
        )
    if trace.status == STABILIZED:
        lines.append(f"decnum {trace.claimed_decnum} (stabilized after {trace.stabilization_index} steps)")
    else:
        lines.append(f"status {trace.status}")
    return lines


def _trace_dot(trace: DecompositionTrace, src_size: int) -> str:
    lines = ["digraph tower {", f'  n0 [label="{src_size} elements"];']
    for i, step in enumerate(trace.steps, start=1):
        lines.append(f'  n{i} [label="{step.result.model.size()} elements"];')
        lines.append(f'  n{i - 1} -> n{i} [label="step {i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_decompose(args: argparse.Namespace) -> Outcome:
    theory = load_theory(args.theory)
    src, _, h = _resolve_hom(args, theory)
    scale = _load_scale(args, theory)
    trace = canonical_decomposition(theory, scale, h, ChaseBudget(args.max_elements, args.max_rounds), args.max_steps)
    if args.dot:
        Path(args.dot).write_text(_trace_dot(trace, src.structure.size()), encoding="utf-8")
    return _trace_json(trace), _trace_lines(trace), EXIT_OK if trace.status == STABILIZED else EXIT_INCOMPLETE


def _cmd_decnum(args: argparse.Namespace) -> Outcome:
    theory = load_theory(args.theory)
    _, _, h = _resolve_hom(args, theory)
    scale = _load_scale(args, theory)
    trace = canonical_decomposition(theory, scale, h, ChaseBudget(args.max_elements, args.max_rounds), args.max_steps)
    if trace.status == STABILIZED:
        return {"decnum": trace.claimed_decnum, "status": trace.status}, [str(trace.claimed_decnum)], EXIT_OK
    return {"decnum": None, "status": trace.status}, [f"status {trace.status}"], EXIT_INCOMPLETE


def _cmd_image(args: argparse.Namespace) -> Outcome:
    theory = load_theory(args.theory)
    src, tgt, h = _resolve_hom(args, theory)
    try:
        fact = image_factorization(theory, h, ChaseBudget(args.max_elements, args.max_rounds), args.max_steps)
    except RuntimeError as exc:
        return {"status": str(exc)}, [f"status {exc}"], EXIT_INCOMPLETE
    lines = [
        f"strong epi: {src.structure.size()} -> {fact.mono.source.size()} elements "
        f"({len(fact.trace.steps)} steps)",
        f"mono: {fact.mono.source.size()} -> {tgt.structure.size()} elements (injective)",
    ]
    return (
        {
            "epiSteps": len(fact.trace.steps),
            "imageElements": fact.mono.source.size(),
            "injective": True,
            "decnum": fact.trace.claimed_decnum,
        },
        lines,
        EXIT_OK,
    )


# ---------------------------------------------------------------------------
# gauge-check


def _resolve_rules(args: argparse.Namespace) -> GaugeRules:
    """The rules --rules names, after refusing every flag those rules do not read."""
    spec = args.rules
    if spec.startswith("builtin:") and spec not in ("builtin:ncat", "builtin:toy"):
        raise ValueError(f"unknown rules {spec!r}: the built-in rules are builtin:ncat and builtin:toy")
    if args.n is not None and spec != "builtin:ncat":
        raise ValueError("-n applies only to --rules builtin:ncat")
    if args.theory is not None and spec.startswith("builtin:"):
        raise ValueError("--theory applies only to rules from a file")
    if args.term is not None and (args.depth is not None or args.vars is not None):
        raise ValueError("--depth and --vars apply only without --term")
    if spec == "builtin:ncat":
        return ncat_gauge_rules(2 if args.n is None else args.n)
    if spec == "builtin:toy":
        return ladder_gauge_rules()
    if args.theory is None:
        raise ValueError("rules from a file require --theory")
    return load_gauge_rules(spec, load_theory(args.theory))


def _cmd_gauge_check(args: argparse.Namespace) -> Outcome:
    rules = _resolve_rules(args)
    sig = rules.theory.signature
    if len(sig.sorts) != 1:
        raise ValueError("term enumeration requires a single-sorted theory")
    sort = sig.sorts[0]
    if args.term is not None:
        terms = [parse_term(sig, args.term)]
        ctx = Context(tuple((v, sort) for v in free_vars(terms[0])))
    else:
        ctx = Context(tuple((f"v{i + 1}", sort) for i in range(1 if args.vars is None else args.vars)))
        terms = enumerate_terms(sig, ctx, 1 if args.depth is None else args.depth)
    rows = []
    lines = []
    any_unknown = False
    all_ok = True
    gamma = 1  # the bound of a gauge with no term to certify
    for term in terms:
        cert = check_gauge(rules, ctx, term, ChaseBudget(args.max_elements, args.max_rounds))
        gamma = max(gamma, cert.bound)
        ok = cert.certified
        all_ok = all_ok and ok
        unknown = any("Unknown" in (r.forward, r.backward) for r in cert.rows)
        any_unknown = any_unknown or unknown
        status = "ok" if ok else ("unknown" if unknown else "FAIL")
        lines.append(f"{term_to_text(term)}: sharp {cert.rows[0].sharp}, {status}")
        rows.append(
            {
                "term": term_to_text(term),
                "sharp": cert.rows[0].sharp,
                "certified": ok,
                "rows": [
                    {
                        "term": term_to_text(r.term),
                        "sharp": r.sharp,
                        "entries": [
                            {"scale": e.scale_label, "args": [term_to_text(a) for a in e.args]}
                            for e in r.entries
                        ],
                        "sharpOk": r.sharp_ok,
                        "forward": r.forward,
                        "backward": r.backward,
                    }
                    for r in cert.rows
                ],
            }
        )
    lines.append(
        f"{'certified' if all_ok else 'not certified'}: gamma {gamma}, "
        f"decnum bound {gamma}, global bound {gamma + 1}"
    )
    if all_ok:
        code = EXIT_OK
    else:
        code = EXIT_INCOMPLETE if any_unknown else EXIT_MISMATCH
    result = {"terms": rows, "certified": all_ok, "gamma": gamma, "decnumBound": gamma, "globalBound": gamma + 1}
    return result, lines, code


# ---------------------------------------------------------------------------
# ncat-normalize


def _cmd_ncat_normalize(args: argparse.Namespace) -> Outcome:
    term = parse_term(ncat_signature(args.n), args.term)
    normal = ncat_normalize(args.n, Context(tuple((v, "*") for v in free_vars(term))), term)
    if not ncat_is_normal(normal):
        raise RuntimeError(f"normalizer returned a non-normal term: {term_to_text(normal)}")
    result = {"input": term_to_text(term), "normal": term_to_text(normal), "sharp": ncat_sharp(term), "isNormal": True}
    return result, [term_to_text(normal)], EXIT_OK


# ---------------------------------------------------------------------------
# topdec


def _cmd_topdec(args: argparse.Namespace) -> Outcome:
    f = koizumi_map(args.lam)
    trace = monotone_light_decomposition(f, args.max_steps)
    lines = []
    for i, step in enumerate(trace.steps, start=1):
        classes = ", ".join(
            "{" + ", ".join(f"({a},{t})" for a, t in sorted(c)) + "}" for c in step.classes
        )
        lines.append(f"step {i}: collapse {classes}")
    if trace.status == STABILIZED:
        lines.append(f"stabilized after {trace.stabilization_index} steps")
    else:
        lines.append(f"status {trace.status}")
    return (
        {
            "lambda": args.lam,
            "status": trace.status,
            "stabilizationIndex": trace.stabilization_index,
            "steps": [
                {"classes": [sorted(list(p) for p in c) for c in step.classes]}
                for step in trace.steps
            ],
            "kernels": [
                [sorted(list(p) for p in c) for c in kernel if len(c) > 1]
                for kernel in trace.kernels
            ],
        },
        lines,
        EXIT_OK if trace.status == STABILIZED else EXIT_INCOMPLETE,
    )


# ---------------------------------------------------------------------------
# gat-rank


def _cmd_gat_rank(args: argparse.Namespace) -> Outcome:
    spec = load_gat(args.file)
    with in_file(args.file):
        report = analyze(spec)
    lines = [f"gat {spec.name}"]
    for s, r in sorted(report.ranks.items()):
        lines.append(f"  rank {s} = {r}")
    for v in report.violations:
        lines.append(f"  violation: {v.kind} {v.name} (context rank {v.ctx_rank} > sort rank {v.sort_rank})")
    if report.non_descending:
        lines.append(f"non-descending; decnum bound {report.bound}")
    else:
        lines.append("descending; no bound")
    return (
        {
            "name": spec.name,
            "ranks": dict(sorted(report.ranks.items())),
            "nonDescending": report.non_descending,
            "bound": report.bound,
            "violations": [
                {"kind": v.kind, "name": v.name, "ctxRank": v.ctx_rank, "sortRank": v.sort_rank}
                for v in report.violations
            ],
        },
        lines,
        EXIT_OK if report.non_descending else EXIT_MISMATCH,
    )


# ---------------------------------------------------------------------------
# examples


def _corpus_dir(args: argparse.Namespace) -> Path:
    if args.corpus:
        return Path(args.corpus)
    here = Path(__file__).resolve()
    for candidate in (here.parents[2] / "corpus", Path.cwd() / "corpus"):
        if candidate.is_dir():
            return candidate
    raise ValueError("corpus directory not found; pass --corpus")


# The one field of a subcommand's result that an example case measures.
_MEASURED: dict[str, Callable[[dict], object]] = {
    "decnum": lambda r: r["decnum"] if r["status"] == STABILIZED else r["status"],
    "gauge-check": lambda r: f"certified bound {r['gamma']}" if r["certified"] else "not certified",
    "topdec": lambda r: r["stabilizationIndex"] if r["status"] == STABILIZED else r["status"],
    "gat-rank": lambda r: r["bound"] if r["nonDescending"] else "violation",
    "ncat-normalize": lambda r: r["normal"],
}


def _example_cases(corpus: Path, args: argparse.Namespace) -> list[tuple[str, str, list[str]]]:
    """(case, expected, argv of the subcommand that measures it).  The chase
    budget goes to the cases that chase, the step cap to the towers."""
    budget = ["--max-elements", str(args.max_elements), "--max-rounds", str(args.max_rounds)]
    steps = ["--max-steps", str(args.max_steps)]

    def file(kind: str, name: str) -> str:
        path = str(corpus / kind / name)
        return f"./{path}" if path.startswith("-") else path  # a path, not a flag, to the parser

    def decnum(theory: str, src: str, tgt: str, hom: str, cap: list[str] = steps) -> list[str]:
        return ["decnum", "--theory", file("theories", theory), "--from", file("models", src),
                "--to", file("models", tgt), "--hom", file("homs", hom), *budget, *cap]

    cases = [
        ("toy.decnum", "3", decnum("ladder.pht", "ladder_M.pm", "ladder_T.pm", "ladder_bang.phom")),
        ("toy.gauge", "certified bound 3", ["gauge-check", "--rules", "builtin:toy", "--term", "d", *budget]),
        ("cat.decnum", "2", decnum("ncat1.pht", "cat_merge_src.pm", "cat_merge_tgt.pm", "cat_merge_phi.phom")),
        ("twocat.decnum", "3", decnum("ncat2.pht", "twocat_src.pm", "twocat_tgt.pm", "twocat_F.phom")),
    ]
    for n in range(7):
        cases.append((f"chain.decnum.{n}", str(n + 1), decnum(
            "chain_bidir.pht", f"chain_bidir_M{n}.pm", "chain_bidir_T.pm", f"chain_bidir_bang{n}.phom")))
    chainfwd = ("chain_fwd.pht", "chain_fwd_A0.pm", "chain_fwd_T.pm", "chain_fwd_bang.phom")
    cases.append(("chainfwd.decnum", "9", decnum(*chainfwd)))
    cases.append(("chainfwd.maxsteps7", "NotStabilized", decnum(*chainfwd, cap=["--max-steps", "7"])))
    for lam in (1, 2, 3):
        cases.append((f"koizumi.lambda{lam}", str(2 * lam), ["topdec", "--lambda", str(lam), *steps]))
    for name, bound in (
        ("cat", "3"), ("ncat1", "3"), ("ncat2", "4"), ("ncat3", "5"),
        ("moncat", "3"), ("multicat", "3"), ("dblcat", "4"), ("set", "2"),
    ):
        cases.append((f"gat.{name}", bound, ["gat-rank", file("gats", f"{name}.gat")]))
    cases.append(("gat.violation", "violation", ["gat-rank", file("gats", "nondescending_violation.gat")]))
    cases.append(("ncat.normalize.exchange", "comp2(comp1(x, z), comp1(y, d2(z)))",
                  ["ncat-normalize", "-n", "2", "comp1(comp2(x, y), z)"]))
    return cases


def _cmd_examples(args: argparse.Namespace) -> Outcome:
    corpus = _corpus_dir(args)
    parser = _build_parser()
    records = []
    for case, expected, argv in _example_cases(corpus, args):
        if args.filter not in case:
            continue
        sub = parser.parse_args(argv)
        result, _, _ = sub.func(sub)
        measured = str(_MEASURED[sub.command](result))
        records.append({"case": case, "expected": expected, "measured": measured,
                        "status": "PASS" if measured == expected else "FAIL"})
    lines = [f"{r['case']}: expected={r['expected']} measured={r['measured']} {r['status']}" for r in records]
    passed = sum(r["status"] == "PASS" for r in records)
    lines.append(f"{passed}/{len(records)} passed")
    ok = passed == len(records)
    return {"records": records, "ok": ok}, lines, EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-elements", type=int, default=ChaseBudget.max_elements)
    budget.add_argument("--max-rounds", type=int, default=ChaseBudget.max_rounds)
    tower = argparse.ArgumentParser(add_help=False)
    tower.add_argument("--max-steps", type=int, default=MAX_STEPS)

    parser = argparse.ArgumentParser(prog="partialhorn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[fmt], help="validate theory, model, and hom files")
    p.add_argument("--theory", required=True)
    p.add_argument("models", nargs="*")
    p.add_argument("--hom")
    p.add_argument("--from", dest="src")
    p.add_argument("--to", dest="tgt")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("free", parents=[fmt, budget], help="chase the free model of a formula in context")
    p.add_argument("--theory", required=True)
    p.add_argument("--context", default="")
    p.add_argument("--formula", default="")
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("prove", parents=[fmt, budget], help="bounded derivability of a sequent")
    p.add_argument("--theory", required=True)
    p.add_argument("--sequent", required=True)
    p.set_defaults(func=_cmd_prove)

    for name, handler, hlp in (
        ("decompose", _cmd_decompose, "canonical decomposition trace of a hom"),
        ("decnum", _cmd_decnum, "decomposition number of a hom"),
        ("image", _cmd_image, "strong epi / mono factorization of a hom"),
    ):
        p = sub.add_parser(name, parents=[fmt, budget, tower], help=hlp)
        p.add_argument("--theory", required=True)
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="tgt", required=True)
        p.add_argument("--hom")
        if name != "image":
            p.add_argument("--scale")
        if name == "decompose":
            p.add_argument("--dot")
        p.set_defaults(func=handler)

    p = sub.add_parser("gauge-check", parents=[fmt, budget], help="certify a gauge on enumerated terms")
    p.add_argument("--rules", required=True,
                   help="builtin:toy, builtin:ncat (takes -n), or a JSON rules file (needs --theory)")
    p.add_argument("-n", type=int, help="category level for builtin:ncat (default 2)")
    p.add_argument("--theory", help="theory file of a JSON rules file")
    p.add_argument("--depth", type=int, help="application depth of the enumerated terms (default 1)")
    p.add_argument("--vars", type=int, help="variables of the enumerated terms (default 1)")
    p.add_argument("--term", help="check a single term instead of enumerating")
    p.set_defaults(func=_cmd_gauge_check)

    p = sub.add_parser("ncat-normalize", parents=[fmt], help="normalize an n-category term")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("term")
    p.set_defaults(func=_cmd_ncat_normalize)

    p = sub.add_parser("topdec", parents=[fmt, tower], help="monotone-light tower of the staircase projection")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.set_defaults(func=_cmd_topdec)

    p = sub.add_parser("gat-rank", parents=[fmt], help="dependency ranks of a GAT signature")
    p.add_argument("file")
    p.set_defaults(func=_cmd_gat_rank)

    p = sub.add_parser("examples", parents=[fmt, budget, tower], help="run the bundled example corpus")
    p.add_argument("--filter", default="")
    p.add_argument("--corpus")
    p.set_defaults(func=_cmd_examples)

    return parser


# Flags that bound a run: each subcommand has some of them, and none may be negative.
_LIMITS = ("max_elements", "max_rounds", "max_steps", "depth", "vars")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for limit in _LIMITS:
            if (getattr(args, limit, None) or 0) < 0:
                raise ValueError(f"--{limit.replace('_', '-')} must not be negative, got {getattr(args, limit)}")
        result, lines, code = args.func(args)
        if args.format == "json":
            print(json.dumps({"command": args.command, "result": result}, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
        return code
    except (ParseError, SortError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
