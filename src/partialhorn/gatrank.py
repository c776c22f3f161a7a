"""Dependency ranks for generalized algebraic signatures.

Only the sort-level skeleton matters here: each sort declaration lists
the sorts of its context, each operation and axiom lists its context
sorts and subject sort.  A sort with empty context has rank 0; otherwise
its rank is one more than the largest rank in its context.  When no
operation or axiom descends (context rank exceeding subject rank), the
decomposition numbers of all homs are bounded by maxRank + 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

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


# A declaration of a spec: ("sort" | "op" | "axiom", its index among those).
Decl = tuple[str, int]


@dataclass(frozen=True)
class GatSpec:
    name: str
    sort_decls: tuple[SortDecl, ...]
    op_decls: tuple[OpDecl, ...]
    axiom_decls: tuple[AxiomDecl, ...]
    # declaration -> its place in the file the spec was read from, for errors
    where: Mapping[Decl, str] = field(default_factory=dict, compare=False, repr=False)


def _error(spec: GatSpec, decl: Decl, message: str) -> ValueError:
    """``message`` about a declaration, after the declaration and, when the
    spec was read from a file, its place there."""
    kind, i = decl
    if kind == "axiom":
        label = f"axiom{i + 1}"  # as a violation names it
    else:
        label = f"{kind} {(spec.sort_decls if kind == 'sort' else spec.op_decls)[i].name}"
    at = spec.where.get(decl)
    return ValueError(f"{at + ': ' if at else ''}{label}: {message}")


def dependency_rank(spec: GatSpec) -> dict[str, int]:
    """Every sort's rank, found depth-first on an explicit stack (a chain of
    sorts declared against its order is as deep as it is long).  Errors
    name the declaration whose context names the bad sort."""
    index: dict[str, int] = {}
    for i, d in enumerate(spec.sort_decls):
        if index.setdefault(d.name, i) != i:
            raise _error(spec, ("sort", i), "duplicate sort declaration")
    ranks: dict[str, int] = {}
    for i, d in enumerate(spec.sort_decls):
        if d.name in ranks:
            continue
        # frames [sort index, next context position, rank so far]; their
        # sorts are the ones in progress
        stack, in_progress = [[i, 0, 0]], {d.name}
        while stack:
            frame = stack[-1]
            j, k, r = frame
            decl = spec.sort_decls[j]
            if k == len(decl.ctx):
                stack.pop()
                in_progress.discard(decl.name)
                ranks[decl.name] = r
                if stack:
                    stack[-1][2] = max(stack[-1][2], r + 1)
                continue
            frame[1] = k + 1
            t = decl.ctx[k]
            if t in ranks:
                frame[2] = max(r, ranks[t] + 1)
            elif t not in index:
                raise _error(spec, ("sort", j), f"undeclared sort {t!r}")
            elif t in in_progress:
                raise _error(spec, ("sort", j), f"cyclic sort dependencies at {t!r}")
            else:
                in_progress.add(t)
                stack.append([index[t], 0, 0])
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

    def rank_of(s: str, decl: Decl) -> int:
        if s not in ranks:
            raise _error(spec, decl, f"undeclared sort {s!r}")
        return ranks[s]

    def ctx_rank(ctx: tuple[str, ...], decl: Decl) -> int:
        return max((rank_of(s, decl) for s in ctx), default=0)

    violations: list[Violation] = []
    for i, op in enumerate(spec.op_decls):
        cr, sr = ctx_rank(op.ctx, ("op", i)), rank_of(op.result, ("op", i))
        if cr > sr:
            violations.append(Violation("op", op.name, cr, sr))
    for i, ax in enumerate(spec.axiom_decls):
        cr, sr = ctx_rank(ax.ctx, ("axiom", i)), rank_of(ax.sort, ("axiom", i))
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
    """``gat NAME { sort S ctx(...); op f ctx(...) : S; axiom ctx(...) : S; }``,
    each declaration located at its line:col."""
    ts = TokenStream(text)
    ts.expect("gat")
    name = ts.expect_ident().text
    ts.expect("{")
    sorts: list[SortDecl] = []
    ops: list[OpDecl] = []
    axioms: list[AxiomDecl] = []
    where: dict[Decl, str] = {}

    def parse_ctx() -> tuple[str, ...]:
        if not ts.at("ctx"):
            return ()
        ts.expect("ctx")
        return tuple(ts.parenthesized(lambda: ts.expect_ident().text))

    while not ts.at("}"):
        tok = ts.peek()
        at = f"{tok.line}:{tok.col}"
        if tok.text == "sort":
            ts.next()
            where["sort", len(sorts)] = at
            sname = ts.expect_ident().text
            sorts.append(SortDecl(sname, parse_ctx()))
            ts.expect(";")
        elif tok.text == "op":
            ts.next()
            where["op", len(ops)] = at
            oname = ts.expect_ident().text
            ctx = parse_ctx()
            ts.expect(":")
            result = ts.expect_ident().text
            ops.append(OpDecl(oname, ctx, result))
            ts.expect(";")
        elif tok.text == "axiom":
            ts.next()
            where["axiom", len(axioms)] = at
            ctx = parse_ctx()
            ts.expect(":")
            asort = ts.expect_ident().text
            axioms.append(AxiomDecl(ctx, asort))
            ts.expect(";")
        else:
            raise ts.error(f"expected declaration, got {tok.text!r}")
    ts.expect("}")
    ts.expect_eof()
    return GatSpec(name, tuple(sorts), tuple(ops), tuple(axioms), where)


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
    """The spec of a JSON mirror, each declaration located as ``gat NAME: sorts[i]``
    (or ``ops[i]``, ``axioms[i]``)."""
    name = _json_field(data, "gat", "gat JSON")
    where: dict[Decl, str] = {}

    def decls(key: str) -> list[tuple[str, dict]]:
        items = _json_field(data, key, f"gat {name}", list)
        for i in range(len(items)):
            where[key[:-1], i] = f"gat {name}: {key}[{i}]"  # "sorts" -> "sort", ...
        return [(where[key[:-1], i], d) for i, d in enumerate(items)]

    return GatSpec(
        name,
        tuple(SortDecl(_json_field(d, "name", at), _json_names(d, "ctx", at)) for at, d in decls("sorts")),
        tuple(
            OpDecl(_json_field(d, "name", at), _json_names(d, "ctx", at), _json_field(d, "result", at))
            for at, d in decls("ops")
        ),
        tuple(AxiomDecl(_json_names(d, "ctx", at), _json_field(d, "sort", at)) for at, d in decls("axioms")),
        where,
    )


def load_gat(path: str) -> GatSpec:
    return load_json_or_text(path, gat_from_json, parse_gat)
