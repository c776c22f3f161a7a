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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from .chase import (
    COMPLETE,
    ChaseBudget,
    prove_sequent,
    representing_model,
)
from .decompose import (
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
    _parse_formula,
    check_formula,
    free_vars,
    load_theory,
    parse_sequent,
    parse_term,
    sequent_to_text,
    term_to_text,
)
from .topdec import koizumi_map, monotone_light_decomposition

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


@dataclass(frozen=True)
class RunConfig:
    max_elements: int = 10000
    max_rounds: int = 1000
    max_steps: int = 64
    fmt: str = "text"

    def budget(self) -> ChaseBudget:
        return ChaseBudget(self.max_elements, self.max_rounds)


def _config(args: argparse.Namespace) -> RunConfig:
    for flag in ("max_elements", "max_rounds", "max_steps"):
        if getattr(args, flag) < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must not be negative, got {getattr(args, flag)}")
    return RunConfig(
        max_elements=args.max_elements,
        max_rounds=args.max_rounds,
        max_steps=args.max_steps,
        fmt=args.format,
    )


def _emit(cfg: RunConfig, command: str, result: object, lines: Sequence[str]) -> None:
    if cfg.fmt == "json":
        print(json.dumps({"command": command, "result": result}, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# check


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
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
        if not (args.src and args.tgt):
            raise ValueError("--hom requires --from and --to model files")
        src = load_model(args.src, theory)
        tgt = load_model(args.tgt, theory)
        name, h = load_hom(args.hom, src, tgt)
        rep = is_hom(h, src.name_of, tgt.name_of)
        ok = bool(rep)
        failed = failed or not ok
        lines.append(f"hom {name}: {'ok' if ok else 'FAIL (' + rep.reason + ')'}")
        records.append({"file": args.hom, "kind": "hom", "ok": ok})
    _emit(cfg, "check", {"checks": records, "ok": not failed}, lines)
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# free


def _parse_cli_context(text: str) -> Context:
    ts = TokenStream(f"[{text}]" if not text.strip().startswith("[") else text)
    ctx = _parse_context(ts)
    ts.expect_eof()
    return ctx


def _cmd_free(args: argparse.Namespace) -> int:
    cfg = _config(args)
    theory = load_theory(args.theory)
    sig = theory.signature
    ctx = _parse_cli_context(args.context) if args.context else Context(())
    if args.formula:
        ts = TokenStream(args.formula)
        phi = _parse_formula(ts, sig)
        ts.expect_eof()
    else:
        phi = TOP
    check_formula(sig, ctx, phi)
    result, generic = representing_model(theory, ctx, phi, cfg.budget())
    lines = [f"status {result.status} (rounds {result.rounds}, merges {result.merges})"]
    for s in sig.sorts:
        es = result.model.carriers.get(s, ())
        lines.append(f"sort {s}: {len(es)} elements {list(es)}")
    lines.extend(tables_to_text(result.model, str))
    if generic:
        lines.append("generic: " + ", ".join(f"{n} = {v}" for n, v in generic.items()))
    _emit(
        cfg,
        "free",
        {
            "status": result.status,
            "rounds": result.rounds,
            "merges": result.merges,
            "model": {"carriers": {s: list(result.model.carriers[s]) for s in sig.sorts},
                      **tables_to_json(result.model, int)},
            "generic": generic,
        },
        lines,
    )
    return EXIT_OK if result.status == COMPLETE else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------
# prove


def _cmd_prove(args: argparse.Namespace) -> int:
    cfg = _config(args)
    theory = load_theory(args.theory)
    seqs = parse_sequent(theory.signature, args.sequent)
    lines = []
    records = []
    verdicts = []
    for seq in seqs:
        res = prove_sequent(theory, seq, cfg.budget())
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
    _emit(cfg, "prove", {"goals": records}, lines)
    if any(v == "Invalid" for v in verdicts):
        return EXIT_MISMATCH
    if any(v == "Unknown" for v in verdicts):
        return EXIT_INCOMPLETE
    return EXIT_OK


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
        with open(args.scale, encoding="utf-8") as fh:
            return parse_scale(fh.read(), theory.signature)
    return equational_scale(theory.signature)


def _trace_json(trace: DecompositionTrace) -> dict:
    return {
        "steps": [
            {
                "elements": step.result.model.size(),
                "merges": step.result.merges,
                "fresh": len(step.result.fresh_log),
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
            f"fresh {len(step.result.fresh_log)}, fired {len(step.fired)}"
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


def _cmd_decompose(args: argparse.Namespace) -> int:
    cfg = _config(args)
    theory = load_theory(args.theory)
    src, _, h = _resolve_hom(args, theory)
    scale = _load_scale(args, theory)
    trace = canonical_decomposition(theory, scale, h, cfg.budget(), cfg.max_steps)
    if args.dot:
        Path(args.dot).write_text(_trace_dot(trace, src.structure.size()), encoding="utf-8")
    _emit(cfg, "decompose", _trace_json(trace), _trace_lines(trace))
    return EXIT_OK if trace.status == STABILIZED else EXIT_INCOMPLETE


def _cmd_decnum(args: argparse.Namespace) -> int:
    cfg = _config(args)
    theory = load_theory(args.theory)
    _, _, h = _resolve_hom(args, theory)
    scale = _load_scale(args, theory)
    trace = canonical_decomposition(theory, scale, h, cfg.budget(), cfg.max_steps)
    if trace.status == STABILIZED:
        _emit(cfg, "decnum", {"decnum": trace.claimed_decnum, "status": trace.status}, [str(trace.claimed_decnum)])
        return EXIT_OK
    _emit(cfg, "decnum", {"decnum": None, "status": trace.status}, [f"status {trace.status}"])
    return EXIT_INCOMPLETE


def _cmd_image(args: argparse.Namespace) -> int:
    cfg = _config(args)
    theory = load_theory(args.theory)
    src, tgt, h = _resolve_hom(args, theory)
    try:
        fact = image_factorization(theory, h, cfg.budget(), cfg.max_steps)
    except RuntimeError as exc:
        _emit(cfg, "image", {"status": str(exc)}, [f"status {exc}"])
        return EXIT_INCOMPLETE
    lines = [
        f"strong epi: {src.structure.size()} -> {fact.mono.source.size()} elements "
        f"({len(fact.trace.steps)} steps)",
        f"mono: {fact.mono.source.size()} -> {tgt.structure.size()} elements (injective)",
    ]
    _emit(
        cfg,
        "image",
        {
            "epiSteps": len(fact.trace.steps),
            "imageElements": fact.mono.source.size(),
            "injective": True,
            "decnum": fact.trace.claimed_decnum,
        },
        lines,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# gauge-check


def _resolve_rules(args: argparse.Namespace) -> GaugeRules:
    spec = args.rules
    if spec == "builtin:ncat":
        return ncat_gauge_rules(args.n)
    if spec in ("builtin:toy", "builtin:ladder"):
        return ladder_gauge_rules()
    if not args.theory:
        raise ValueError("rules from a file require --theory")
    return load_gauge_rules(spec, load_theory(args.theory))


def _cmd_gauge_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
    rules = _resolve_rules(args)
    sig = rules.theory.signature
    if len(sig.sorts) != 1:
        raise ValueError("term enumeration requires a single-sorted theory")
    sort = sig.sorts[0]
    if args.term:
        terms = [parse_term(sig, args.term)]
        ctx = Context(tuple((v, sort) for v in free_vars(terms[0])))
    else:
        ctx = Context(tuple((f"v{i + 1}", sort) for i in range(args.vars)))
        terms = enumerate_terms(sig, ctx, args.depth)
    rows = []
    lines = []
    any_unknown = False
    all_ok = True
    max_sharp = 0
    for term in terms:
        cert = check_gauge(rules, ctx, term, cfg.budget())
        max_sharp = max(max_sharp, cert.rows[0].sharp)
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
    gamma = max_sharp + 1
    lines.append(
        f"{'certified' if all_ok else 'not certified'}: gamma {gamma}, "
        f"decnum bound {gamma}, global bound {gamma + 1}"
    )
    _emit(
        cfg,
        "gauge-check",
        {
            "terms": rows,
            "certified": all_ok,
            "gamma": gamma,
            "decnumBound": gamma,
            "globalBound": gamma + 1,
        },
        lines,
    )
    if all_ok:
        return EXIT_OK
    return EXIT_INCOMPLETE if any_unknown else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# ncat-normalize


def _cmd_ncat_normalize(args: argparse.Namespace) -> int:
    cfg = _config(args)
    term = parse_term(ncat_signature(args.n), args.term)
    ctx = Context(tuple((v, "*") for v in free_vars(term)))
    normal = ncat_normalize(args.n, ctx, term)
    if not ncat_is_normal(normal):
        raise RuntimeError(f"normalizer returned a non-normal term: {term_to_text(normal)}")
    _emit(
        cfg,
        "ncat-normalize",
        {
            "input": term_to_text(term),
            "normal": term_to_text(normal),
            "sharp": ncat_sharp(term),
            "isNormal": True,
        },
        [term_to_text(normal)],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# topdec


def _cmd_topdec(args: argparse.Namespace) -> int:
    cfg = _config(args)
    f = koizumi_map(args.lam)
    trace = monotone_light_decomposition(f, cfg.max_steps)
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
    _emit(
        cfg,
        "topdec",
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
    )
    return EXIT_OK if trace.status == STABILIZED else EXIT_INCOMPLETE


# ---------------------------------------------------------------------------
# gat-rank


def _cmd_gat_rank(args: argparse.Namespace) -> int:
    cfg = _config(args)
    spec = load_gat(args.file)
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
    _emit(
        cfg,
        "gat-rank",
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
    )
    return EXIT_OK if report.non_descending else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# examples


@dataclass(frozen=True)
class ExampleRecord:
    case: str
    expected: str
    measured: str
    status: str


def _corpus_dir(args: argparse.Namespace) -> Path:
    if args.corpus:
        return Path(args.corpus)
    here = Path(__file__).resolve()
    for candidate in (here.parents[2] / "corpus", Path.cwd() / "corpus"):
        if candidate.is_dir():
            return candidate
    raise ValueError("corpus directory not found; pass --corpus")


def _load_corpus_hom(corpus: Path, theory, model_a: str, model_b: str, hom: str):
    a = load_model(str(corpus / "models" / model_a), theory)
    b = load_model(str(corpus / "models" / model_b), theory)
    _, h = load_hom(str(corpus / "homs" / hom), a, b)
    return h


def _case_decnum(corpus: Path, cfg: RunConfig, theory_file: str, ma: str, mb: str, hom: str) -> str:
    theory = load_theory(str(corpus / "theories" / theory_file))
    h = _load_corpus_hom(corpus, theory, ma, mb, hom)
    trace = canonical_decomposition(theory, equational_scale(theory.signature), h, cfg.budget(), cfg.max_steps)
    if trace.status != STABILIZED:
        return trace.status
    return str(trace.claimed_decnum)


def _example_cases(corpus: Path, cfg: RunConfig) -> list[tuple[str, str, Callable[[], str]]]:
    def toy_decnum() -> str:
        return _case_decnum(corpus, cfg, "ladder.pht", "ladder_M.pm", "ladder_T.pm", "ladder_bang.phom")

    def toy_gauge() -> str:
        rules = ladder_gauge_rules()
        sig = rules.theory.signature
        ctx = Context(())
        terms = [parse_term(sig, "c"), parse_term(sig, "d")]
        certs = [check_gauge(rules, ctx, t, cfg.budget()) for t in terms]
        if all(c.certified for c in certs):
            return f"certified bound {max(c.bound for c in certs)}"
        return "not certified"

    def chain_decnum(n: int) -> Callable[[], str]:
        return lambda: _case_decnum(
            corpus, cfg, "chain_bidir.pht", f"chain_bidir_M{n}.pm", "chain_bidir_T.pm",
            f"chain_bidir_bang{n}.phom",
        )

    def chainfwd_decnum() -> str:
        return _case_decnum(corpus, cfg, "chain_fwd.pht", "chain_fwd_A0.pm", "chain_fwd_T.pm", "chain_fwd_bang.phom")

    def chainfwd_truncated() -> str:
        steps7 = replace(cfg, max_steps=7)
        return _case_decnum(corpus, steps7, "chain_fwd.pht", "chain_fwd_A0.pm", "chain_fwd_T.pm", "chain_fwd_bang.phom")

    def koizumi(lam: int) -> Callable[[], str]:
        def run() -> str:
            trace = monotone_light_decomposition(koizumi_map(lam), cfg.max_steps)
            if trace.status != STABILIZED:
                return trace.status
            return str(trace.stabilization_index)

        return run

    def gat_bound(name: str) -> Callable[[], str]:
        def run() -> str:
            report = analyze(load_gat(str(corpus / "gats" / name)))
            return str(report.bound) if report.non_descending else "violation"

        return run

    def normalize_exchange() -> str:
        term = parse_term(ncat_signature(2), "comp1(comp2(x, y), z)")
        ctx = Context(tuple((v, "*") for v in free_vars(term)))
        return term_to_text(ncat_normalize(2, ctx, term))

    cases: list[tuple[str, str, Callable[[], str]]] = [
        ("toy.decnum", "3", toy_decnum),
        ("toy.gauge", "certified bound 3", toy_gauge),
        ("cat.decnum", "2", lambda: _case_decnum(
            corpus, cfg, "ncat1.pht", "cat_merge_src.pm", "cat_merge_tgt.pm", "cat_merge_phi.phom")),
        ("twocat.decnum", "3", lambda: _case_decnum(
            corpus, cfg, "ncat2.pht", "twocat_src.pm", "twocat_tgt.pm", "twocat_F.phom")),
    ]
    for n in range(7):
        cases.append((f"chain.decnum.{n}", str(n + 1), chain_decnum(n)))
    cases.append(("chainfwd.decnum", "9", chainfwd_decnum))
    cases.append(("chainfwd.maxsteps7", "NotStabilized", chainfwd_truncated))
    for lam in (1, 2, 3):
        cases.append((f"koizumi.lambda{lam}", str(2 * lam), koizumi(lam)))
    for name, bound in (
        ("cat", "3"), ("ncat1", "3"), ("ncat2", "4"), ("ncat3", "5"),
        ("moncat", "3"), ("multicat", "3"), ("dblcat", "4"), ("set", "2"),
    ):
        cases.append((f"gat.{name}", bound, gat_bound(f"{name}.gat")))
    cases.append(("gat.violation", "violation", gat_bound("nondescending_violation.gat")))
    cases.append(
        ("ncat.normalize.exchange", "comp2(comp1(x, z), comp1(y, d2(z)))", normalize_exchange)
    )
    return cases


def run_examples(corpus: Path, cfg: RunConfig, filter_str: str = "") -> list[ExampleRecord]:
    records = []
    for case, expected, run in _example_cases(corpus, cfg):
        if filter_str and filter_str not in case:
            continue
        measured = run()
        status = "PASS" if measured == expected else "FAIL"
        records.append(ExampleRecord(case, expected, measured, status))
    return records


def _cmd_examples(args: argparse.Namespace) -> int:
    cfg = _config(args)
    corpus = _corpus_dir(args)
    records = run_examples(corpus, cfg, args.filter)
    lines = [
        f"{r.case}: expected={r.expected} measured={r.measured} {r.status}" for r in records
    ]
    ok = all(r.status == "PASS" for r in records)
    lines.append(f"{sum(r.status == 'PASS' for r in records)}/{len(records)} passed")
    _emit(
        cfg,
        "examples",
        {
            "records": [
                {"case": r.case, "expected": r.expected, "measured": r.measured, "status": r.status}
                for r in records
            ],
            "ok": ok,
        },
        lines,
    )
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-elements", type=int, default=10000)
    common.add_argument("--max-rounds", type=int, default=1000)
    common.add_argument("--max-steps", type=int, default=64)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(prog="partialhorn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="validate theory, model, and hom files")
    p.add_argument("--theory", required=True)
    p.add_argument("models", nargs="*")
    p.add_argument("--hom")
    p.add_argument("--from", dest="src")
    p.add_argument("--to", dest="tgt")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("free", parents=[common], help="chase the free model of a formula in context")
    p.add_argument("--theory", required=True)
    p.add_argument("--context", default="")
    p.add_argument("--formula", default="")
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("prove", parents=[common], help="bounded derivability of a sequent")
    p.add_argument("--theory", required=True)
    p.add_argument("--sequent", required=True)
    p.set_defaults(func=_cmd_prove)

    for name, handler, hlp in (
        ("decompose", _cmd_decompose, "canonical decomposition trace of a hom"),
        ("decnum", _cmd_decnum, "decomposition number of a hom"),
        ("image", _cmd_image, "strong epi / mono factorization of a hom"),
    ):
        p = sub.add_parser(name, parents=[common], help=hlp)
        p.add_argument("--theory", required=True)
        p.add_argument("--from", dest="src", required=True)
        p.add_argument("--to", dest="tgt", required=True)
        p.add_argument("--hom")
        if name != "image":
            p.add_argument("--scale")
        if name == "decompose":
            p.add_argument("--dot")
        p.set_defaults(func=handler)

    p = sub.add_parser("gauge-check", parents=[common], help="certify a gauge on enumerated terms")
    p.add_argument("--rules", required=True, help="builtin:ncat, builtin:toy, or a JSON rules file")
    p.add_argument("-n", type=int, default=2, help="category level for builtin:ncat")
    p.add_argument("--theory", help="theory file (required for file rules)")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--vars", type=int, default=1)
    p.add_argument("--term", help="check a single term instead of enumerating")
    p.set_defaults(func=_cmd_gauge_check)

    p = sub.add_parser("ncat-normalize", parents=[common], help="normalize an n-category term")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("term")
    p.set_defaults(func=_cmd_ncat_normalize)

    p = sub.add_parser("topdec", parents=[common], help="monotone-light tower of the staircase projection")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.set_defaults(func=_cmd_topdec)

    p = sub.add_parser("gat-rank", parents=[common], help="dependency ranks of a GAT signature")
    p.add_argument("file")
    p.set_defaults(func=_cmd_gat_rank)

    p = sub.add_parser("examples", parents=[common], help="run the bundled example corpus")
    p.add_argument("--filter", default="")
    p.add_argument("--corpus")
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SortError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
