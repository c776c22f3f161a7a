"""Dependency ranks for generalized algebraic signatures.

Only the sort-level skeleton matters here: each sort declaration lists
the sorts of its context, each operation and axiom lists its context
sorts and subject sort.  A sort with empty context has rank 0; otherwise
its rank is one more than the largest rank in its context.  When no
operation or axiom descends (context rank exceeding subject rank), the
decomposition numbers of all homs are bounded by maxRank + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import TokenStream, _json_field, _json_names, load_json_or_text


@dataclass(frozen=True)
class SortDecl:
    name: str
    ctx: tuple[str, ...]


@dataclass(frozen=True)
class OpDecl:
    name: str
    ctx: tuple[str, ...]
    result: str


@dataclass(frozen=True)
class AxiomDecl:
    ctx: tuple[str, ...]
    sort: str


@dataclass(frozen=True)
class GatSpec:
    name: str
    sort_decls: tuple[SortDecl, ...]
    op_decls: tuple[OpDecl, ...]
    axiom_decls: tuple[AxiomDecl, ...]


def dependency_rank(spec: GatSpec) -> dict[str, int]:
    decls = {d.name: d for d in spec.sort_decls}
    if len(decls) != len(spec.sort_decls):
        raise ValueError("duplicate sort declaration")
    ranks: dict[str, int] = {}
    in_progress: set[str] = set()

    def rank(s: str) -> int:
        if s in ranks:
            return ranks[s]
        if s not in decls:
            raise ValueError(f"undeclared sort {s!r}")
        if s in in_progress:
            raise ValueError(f"cyclic sort dependencies at {s!r}")
        in_progress.add(s)
        d = decls[s]
        r = 0 if not d.ctx else 1 + max(rank(t) for t in d.ctx)
        in_progress.discard(s)
        ranks[s] = r
        return r

    for d in spec.sort_decls:
        rank(d.name)
    return ranks


@dataclass(frozen=True)
class Violation:
    kind: str  # "op" | "axiom"
    name: str
    ctx_rank: int
    sort_rank: int


@dataclass(frozen=True)
class RankReport:
    ranks: dict[str, int]
    violations: tuple[Violation, ...]
    non_descending: bool
    bound: Optional[int]  # maxRank + 2 when non-descending


def analyze(spec: GatSpec) -> RankReport:
    ranks = dependency_rank(spec)

    def rank_of(s: str) -> int:
        if s not in ranks:
            raise ValueError(f"undeclared sort {s!r}")
        return ranks[s]

    def ctx_rank(ctx: tuple[str, ...]) -> int:
        return max((rank_of(s) for s in ctx), default=0)

    violations: list[Violation] = []
    for op in spec.op_decls:
        cr, sr = ctx_rank(op.ctx), rank_of(op.result)
        if cr > sr:
            violations.append(Violation("op", op.name, cr, sr))
    for i, ax in enumerate(spec.axiom_decls):
        cr, sr = ctx_rank(ax.ctx), rank_of(ax.sort)
        if cr > sr:
            violations.append(Violation("axiom", f"axiom{i + 1}", cr, sr))
    non_descending = not violations
    bound = (max(ranks.values(), default=0) + 2) if non_descending else None
    return RankReport(ranks, tuple(violations), non_descending, bound)


def decnum_bound(spec: GatSpec) -> Optional[int]:
    return analyze(spec).bound


# ---------------------------------------------------------------------------
# File format


def parse_gat(text: str) -> GatSpec:
    """``gat NAME { sort S ctx(...); op f ctx(...) : S; axiom ctx(...) : S; }``"""
    ts = TokenStream(text)
    ts.expect("gat")
    name = ts.expect_ident().text
    ts.expect("{")
    sorts: list[SortDecl] = []
    ops: list[OpDecl] = []
    axioms: list[AxiomDecl] = []

    def parse_ctx() -> tuple[str, ...]:
        if not ts.at("ctx"):
            return ()
        ts.expect("ctx")
        return tuple(ts.parenthesized(lambda: ts.expect_ident().text))

    while not ts.at("}"):
        tok = ts.peek()
        if tok.text == "sort":
            ts.next()
            sname = ts.expect_ident().text
            sorts.append(SortDecl(sname, parse_ctx()))
            ts.expect(";")
        elif tok.text == "op":
            ts.next()
            oname = ts.expect_ident().text
            ctx = parse_ctx()
            ts.expect(":")
            result = ts.expect_ident().text
            ops.append(OpDecl(oname, ctx, result))
            ts.expect(";")
        elif tok.text == "axiom":
            ts.next()
            ctx = parse_ctx()
            ts.expect(":")
            asort = ts.expect_ident().text
            axioms.append(AxiomDecl(ctx, asort))
            ts.expect(";")
        else:
            raise ts.error(f"expected declaration, got {tok.text!r}")
    ts.expect("}")
    ts.expect_eof()
    return GatSpec(name, tuple(sorts), tuple(ops), tuple(axioms))


def gat_to_text(spec: GatSpec) -> str:
    lines = [f"gat {spec.name} {{"]
    for d in spec.sort_decls:
        ctx = f" ctx({', '.join(d.ctx)})" if d.ctx else ""
        lines.append(f"  sort {d.name}{ctx};")
    for op in spec.op_decls:
        ctx = f" ctx({', '.join(op.ctx)})" if op.ctx else ""
        lines.append(f"  op {op.name}{ctx} : {op.result};")
    for ax in spec.axiom_decls:
        ctx = f" ctx({', '.join(ax.ctx)})" if ax.ctx else ""
        lines.append(f"  axiom{ctx} : {ax.sort};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gat_to_json(spec: GatSpec) -> dict:
    return {
        "gat": spec.name,
        "sorts": [{"name": d.name, "ctx": list(d.ctx)} for d in spec.sort_decls],
        "ops": [{"name": o.name, "ctx": list(o.ctx), "result": o.result} for o in spec.op_decls],
        "axioms": [{"ctx": list(a.ctx), "sort": a.sort} for a in spec.axiom_decls],
    }


def gat_from_json(data: dict) -> GatSpec:
    name = _json_field(data, "gat", "gat JSON")
    where = f"gat {name}"

    def decls(key: str) -> list[tuple[str, dict]]:
        return [(f"{where}: {key}[{i}]", d) for i, d in enumerate(_json_field(data, key, where, list))]

    return GatSpec(
        name,
        tuple(SortDecl(_json_field(d, "name", at), _json_names(d, "ctx", at)) for at, d in decls("sorts")),
        tuple(
            OpDecl(_json_field(d, "name", at), _json_names(d, "ctx", at), _json_field(d, "result", at))
            for at, d in decls("ops")
        ),
        tuple(AxiomDecl(_json_names(d, "ctx", at), _json_field(d, "sort", at)) for at, d in decls("axioms")),
    )


def load_gat(path: str) -> GatSpec:
    return load_json_or_text(path, gat_from_json, parse_gat)
