"""Finite partial structures and their homomorphisms.

A partial structure interprets each sort as a finite carrier of integer
ids (globally unique across sorts), each function symbol as a partial
map given by its table, and each relation symbol as a set of tuples.
Term evaluation is strict: an application is defined only if all
arguments are and the table has the entry.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .syntax import (
    Atom,
    Context,
    Def,
    Eq,
    HornFormula,
    RawTerm,
    Rel,
    Sequent,
    Signature,
    Theory,
    TokenStream,
    Var,
)


@dataclass(frozen=True)
class PartialStructure:
    signature: Signature
    carriers: dict[str, tuple[int, ...]]
    funcs: dict[str, dict[tuple[int, ...], int]]
    rels: dict[str, frozenset[tuple[int, ...]]]

    def elements(self) -> tuple[int, ...]:
        return tuple(sorted(e for es in self.carriers.values() for e in es))

    def sort_of(self, elem: int) -> str:
        for s, es in self.carriers.items():
            if elem in es:
                return s
        raise KeyError(elem)

    def size(self) -> int:
        return sum(len(es) for es in self.carriers.values())


def empty_structure(sig: Signature) -> PartialStructure:
    return PartialStructure(
        sig,
        {s: () for s in sig.sorts},
        {f.name: {} for f in sig.funcs},
        {r.name: frozenset() for r in sig.rels},
    )


def check_structure(S: PartialStructure) -> None:
    """Validate carrier/table well-formedness; raise ValueError on failure."""
    sig = S.signature
    sort_of: dict[int, str] = {}
    for s in sig.sorts:
        es = S.carriers.get(s, ())
        if tuple(sorted(es)) != tuple(es):
            raise ValueError(f"carrier of {s} not sorted")
        for e in es:
            if e in sort_of:
                raise ValueError(f"element {e} in two carriers")
            sort_of[e] = s
    for f in sig.funcs:
        for args, val in S.funcs.get(f.name, {}).items():
            if len(args) != len(f.arg_sorts):
                raise ValueError(f"{f.name}: wrong arity entry {args}")
            for a, want in zip(args, f.arg_sorts):
                if sort_of.get(a) != want:
                    raise ValueError(f"{f.name}: argument {a} not in carrier of {want}")
            if sort_of.get(val) != f.result_sort:
                raise ValueError(f"{f.name}: value {val} not in carrier of {f.result_sort}")
    for r in sig.rels:
        for tup in S.rels.get(r.name, frozenset()):
            if len(tup) != len(r.arg_sorts):
                raise ValueError(f"{r.name}: wrong arity tuple {tup}")
            for a, want in zip(tup, r.arg_sorts):
                if sort_of.get(a) != want:
                    raise ValueError(f"{r.name}: component {a} not in carrier of {want}")


# ---------------------------------------------------------------------------
# Evaluation and satisfaction


def eval_term(S: PartialStructure, assignment: Mapping[str, int], term: RawTerm) -> Optional[int]:
    if isinstance(term, Var):
        return assignment[term.name]
    vals: list[int] = []
    for a in term.args:
        v = eval_term(S, assignment, a)
        if v is None:
            return None
        vals.append(v)
    return S.funcs.get(term.func, {}).get(tuple(vals))


def holds_atom(S: PartialStructure, assignment: Mapping[str, int], atom: Atom) -> bool:
    if isinstance(atom, Eq):
        l = eval_term(S, assignment, atom.lhs)
        r = eval_term(S, assignment, atom.rhs)
        return l is not None and l == r
    if isinstance(atom, Def):
        return eval_term(S, assignment, atom.term) is not None
    vals: list[int] = []
    for a in atom.args:
        v = eval_term(S, assignment, a)
        if v is None:
            return False
        vals.append(v)
    return tuple(vals) in S.rels.get(atom.rel, frozenset())


def holds(S: PartialStructure, assignment: Mapping[str, int], phi: HornFormula) -> bool:
    return all(holds_atom(S, assignment, a) for a in phi.atoms)


def assignments(S: PartialStructure, ctx: Context) -> Iterator[dict[str, int]]:
    """All context assignments, lexicographic in the ids (carriers are sorted)."""
    names = ctx.names()
    pools = [S.carriers.get(s, ()) for _, s in ctx.vars]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


@dataclass(frozen=True)
class ModelReport:
    ok: bool
    failure: Optional[tuple[Sequent, dict[str, int]]] = None

    def __bool__(self) -> bool:
        return self.ok


def validates(S: PartialStructure, seq: Sequent) -> ModelReport:
    for a in assignments(S, seq.context):
        if holds(S, a, seq.premise) and not holds(S, a, seq.conclusion):
            return ModelReport(False, (seq, a))
    return ModelReport(True)


def is_model(S: PartialStructure, theory: Theory) -> ModelReport:
    for seq in theory.sequents:
        rep = validates(S, seq)
        if not rep:
            return rep
    return ModelReport(True)


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True)
class Hom:
    source: PartialStructure
    target: PartialStructure
    mapping: dict[int, int]

    def __call__(self, elem: int) -> int:
        return self.mapping[elem]


@dataclass(frozen=True)
class HomReport:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_hom(h: Hom) -> HomReport:
    A, B = h.source, h.target
    tsort = {e: s for s, es in B.carriers.items() for e in es}
    for s in A.signature.sorts:
        for e in A.carriers.get(s, ()):
            t = h.mapping.get(e)
            if t is None:
                return HomReport(False, f"element {e} unmapped")
            if tsort.get(t) != s:
                return HomReport(False, f"element {e}:{s} sent to {t} of wrong sort")
    for f, table in A.funcs.items():
        for args, val in table.items():
            timg = B.funcs.get(f, {}).get(tuple(h.mapping[a] for a in args))
            if timg is None:
                return HomReport(False, f"{f}{args} defined in source, undefined at image")
            if timg != h.mapping[val]:
                return HomReport(False, f"{f}{args}: image {timg} != mapped value {h.mapping[val]}")
    for r, tuples in A.rels.items():
        for tup in tuples:
            if tuple(h.mapping[a] for a in tup) not in B.rels.get(r, frozenset()):
                return HomReport(False, f"{r}{tup} holds in source, not at image")
    return HomReport(True)


def identity_hom(S: PartialStructure) -> Hom:
    return Hom(S, S, {e: e for e in S.elements()})


def compose_hom(g: Hom, f: Hom) -> Hom:
    """g after f."""
    if g.source is not f.target and g.source != f.target:
        raise ValueError("composition mismatch")
    return Hom(f.source, g.target, {e: g.mapping[t] for e, t in f.mapping.items()})


def enumerate_homs(
    A: PartialStructure,
    B: PartialStructure,
    *,
    bijective: bool = False,
    limit: Optional[int] = None,
) -> list[Hom]:
    """All homs A -> B by backtracking search, in ascending-id order.

    Assigning an element propagates forced values through function
    entries (h(f(a)) must be f(h(a))), so rigid structures prune fast.
    """
    sortof = {e: s for s, es in A.carriers.items() for e in es}
    tsort = {e: s for s, es in B.carriers.items() for e in es}
    elems = sorted(sortof)
    if bijective:
        for s in A.signature.sorts:
            if len(A.carriers.get(s, ())) != len(B.carriers.get(s, ())):
                return []

    fentries = [(f, args, val) for f, tab in A.funcs.items() for args, val in tab.items()]
    rentries = [(r, tup) for r, tups in A.rels.items() for tup in sorted(tups)]
    by_elem: dict[int, list[int]] = {e: [] for e in elems}
    for i, (_, args, val) in enumerate(fentries):
        for e in set(args) | {val}:
            by_elem[e].append(i)
    rby_elem: dict[int, list[int]] = {e: [] for e in elems}
    for i, (_, tup) in enumerate(rentries):
        for e in set(tup):
            rby_elem[e].append(i)

    mapping: dict[int, int] = {}
    used: dict[str, set[int]] = {s: set() for s in A.signature.sorts}
    out: list[Hom] = []

    def assign(e: int, t: int, trail: list[int]) -> bool:
        if e in mapping:
            return mapping[e] == t
        if tsort.get(t) != sortof[e]:
            return False
        if bijective and t in used[sortof[e]]:
            return False
        mapping[e] = t
        if bijective:
            used[sortof[e]].add(t)
        trail.append(e)
        for i in by_elem[e]:
            f, args, val = fentries[i]
            if all(a in mapping for a in args):
                timg = B.funcs.get(f, {}).get(tuple(mapping[a] for a in args))
                if timg is None:
                    return False
                if val in mapping:
                    if mapping[val] != timg:
                        return False
                elif not assign(val, timg, trail):
                    return False
        for i in rby_elem[e]:
            r, tup = rentries[i]
            if all(a in mapping for a in tup):
                if tuple(mapping[a] for a in tup) not in B.rels.get(r, frozenset()):
                    return False
        return True

    def undo(trail: list[int]) -> None:
        while trail:
            e = trail.pop()
            t = mapping.pop(e)
            if bijective:
                used[sortof[e]].discard(t)

    # constants force their values up front
    seed: list[int] = []
    for f, args, val in fentries:
        if not args:
            timg = B.funcs.get(f, {}).get(())
            if timg is None or not assign(val, timg, seed):
                undo(seed)
                return []

    def dfs(idx: int) -> bool:
        while idx < len(elems) and elems[idx] in mapping:
            idx += 1
        if idx == len(elems):
            out.append(Hom(A, B, dict(sorted(mapping.items()))))
            return limit is not None and len(out) >= limit
        e = elems[idx]
        for t in B.carriers.get(sortof[e], ()):
            trail: list[int] = []
            ok = assign(e, t, trail)
            if ok and dfs(idx + 1):
                undo(trail)
                return True
            undo(trail)
        return False

    dfs(0)
    undo(seed)
    return out


def find_isomorphism(A: PartialStructure, B: PartialStructure) -> Optional[Hom]:
    """First bijective hom whose inverse is also a hom, or None."""
    for h in enumerate_homs(A, B, bijective=True):
        inverse = Hom(B, A, {t: e for e, t in h.mapping.items()})
        if is_hom(inverse):
            return h
    return None


# ---------------------------------------------------------------------------
# Named models and the model/hom file formats


@dataclass(frozen=True)
class NamedModel:
    name: str
    theory_name: str
    structure: PartialStructure
    element_names: tuple[str, ...] = field(default=())

    def id_of(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise KeyError(f"unknown element {name!r}") from None

    def name_of(self, elem: int) -> str:
        return self.element_names[elem]


def parse_model(text: str, theory: Theory) -> NamedModel:
    """Parse a model file against a theory; ids are declaration order."""
    sig = theory.signature
    ts = TokenStream(text)
    ts.expect("model")
    name = ts.expect_ident().text
    ts.expect("of")
    of = ts.expect_ident().text
    if of != theory.name:
        raise ValueError(f"model {name} declares theory {of!r}, expected {theory.name!r}")
    ts.expect("{")
    names: list[str] = []
    ids: dict[str, int] = {}
    carriers: dict[str, list[int]] = {s: [] for s in sig.sorts}
    funcs: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in sig.funcs}
    rels: dict[str, set[tuple[int, ...]]] = {r.name: set() for r in sig.rels}

    def elem_id(tok_text: str) -> int:
        if tok_text not in ids:
            raise ValueError(f"model {name}: unknown element {tok_text!r}")
        return ids[tok_text]

    while not ts.at("}"):
        tok = ts.peek()
        if tok.text == "elem":
            ts.next()
            sort = ts.expect_ident().text
            if sort not in carriers:
                raise ValueError(f"model {name}: unknown sort {sort!r}")
            ts.expect(":")
            while not ts.at(";"):
                e = ts.expect_ident().text
                if e in ids:
                    raise ValueError(f"model {name}: duplicate element {e!r}")
                ids[e] = len(names)
                names.append(e)
                carriers[sort].append(ids[e])
            ts.expect(";")
        else:
            sym = ts.expect_ident().text
            if sig.has_rel(sym):
                ts.expect("(")
                args = [elem_id(ts.expect_ident().text)]
                while ts.at(","):
                    ts.next()
                    args.append(elem_id(ts.expect_ident().text))
                ts.expect(")")
                ts.expect(";")
                rels[sym].add(tuple(args))
            elif sig.has_func(sym):
                args = []
                if ts.at("("):
                    ts.next()
                    if not ts.at(")"):
                        args.append(elem_id(ts.expect_ident().text))
                        while ts.at(","):
                            ts.next()
                            args.append(elem_id(ts.expect_ident().text))
                    ts.expect(")")
                ts.expect("=")
                val = elem_id(ts.expect_ident().text)
                ts.expect(";")
                key = tuple(args)
                if key in funcs[sym] and funcs[sym][key] != val:
                    raise ValueError(f"model {name}: conflicting entries for {sym}{key}")
                funcs[sym][key] = val
            else:
                raise ts.error(f"unknown symbol {sym!r}")
    ts.expect("}")
    ts.expect_eof()
    S = PartialStructure(
        sig,
        {s: tuple(es) for s, es in carriers.items()},
        funcs,
        {r: frozenset(tups) for r, tups in rels.items()},
    )
    check_structure(S)
    return NamedModel(name, theory.name, S, tuple(names))


def model_to_text(m: NamedModel) -> str:
    lines = [f"model {m.name} of {m.theory_name} {{"]
    for s in m.structure.signature.sorts:
        es = m.structure.carriers.get(s, ())
        if es:
            lines.append(f"  elem {s} : {' '.join(m.name_of(e) for e in es)};")
    for f in m.structure.signature.funcs:
        for args in sorted(m.structure.funcs.get(f.name, {})):
            val = m.structure.funcs[f.name][args]
            if args:
                lines.append(
                    f"  {f.name}({', '.join(m.name_of(a) for a in args)}) = {m.name_of(val)};"
                )
            else:
                lines.append(f"  {f.name} = {m.name_of(val)};")
    for r in m.structure.signature.rels:
        for tup in sorted(m.structure.rels.get(r.name, frozenset())):
            lines.append(f"  {r.name}({', '.join(m.name_of(a) for a in tup)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_hom(text: str, source: NamedModel, target: NamedModel) -> tuple[str, Hom]:
    ts = TokenStream(text)
    ts.expect("hom")
    name = ts.expect_ident().text
    ts.expect(":")
    src = ts.expect_ident().text
    ts.expect("->")
    tgt = ts.expect_ident().text
    if src != source.name or tgt != target.name:
        raise ValueError(
            f"hom {name}: declared {src} -> {tgt}, given {source.name} -> {target.name}"
        )
    ts.expect("{")
    mapping: dict[int, int] = {}
    while not ts.at("}"):
        e = ts.expect_ident().text
        ts.expect("|->")
        x = ts.expect_ident().text
        ts.expect(";")
        eid = _element_id(source.element_names, e, f"hom {name}")
        if eid in mapping:
            raise ValueError(f"hom {name}: element {e!r} mapped twice")
        mapping[eid] = _element_id(target.element_names, x, f"hom {name}")
    ts.expect("}")
    ts.expect_eof()
    missing = [source.name_of(e) for e in source.structure.elements() if e not in mapping]
    if missing:
        raise ValueError(f"hom {name}: unmapped elements {missing}")
    return name, Hom(source.structure, target.structure, mapping)


def hom_to_text(name: str, h: Hom, source: NamedModel, target: NamedModel) -> str:
    lines = [f"hom {name} : {source.name} -> {target.name} {{"]
    for e in source.structure.elements():
        lines.append(f"  {source.name_of(e)} |-> {target.name_of(h.mapping[e])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON mirrors


def model_to_json(m: NamedModel) -> dict:
    S = m.structure
    return {
        "model": m.name,
        "of": m.theory_name,
        "elems": {s: [m.name_of(e) for e in S.carriers.get(s, ())] for s in S.signature.sorts},
        "funcs": {
            f.name: [
                {"args": [m.name_of(a) for a in args], "value": m.name_of(val)}
                for args, val in sorted(S.funcs.get(f.name, {}).items())
            ]
            for f in S.signature.funcs
        },
        "rels": {
            r.name: [[m.name_of(a) for a in tup] for tup in sorted(S.rels.get(r.name, frozenset()))]
            for r in S.signature.rels
        },
    }


def _json_field(data: object, key: str, where: str) -> object:
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{where}: missing key {key!r}")
    return data[key]


def _element_id(names: Sequence[str], name: object, where: str) -> int:
    if name not in names:
        raise ValueError(f"{where}: unknown element {name!r}")
    return names.index(name)


def model_from_json(data: dict, theory: Theory) -> NamedModel:
    """Build a model from its JSON mirror; malformed input raises ValueError
    naming the model and the place in the document."""
    sig = theory.signature
    name = _json_field(data, "model", "model JSON")
    if data.get("of") != theory.name:
        raise ValueError(f"model {name}: declares theory {data.get('of')!r}, expected {theory.name!r}")
    names: list[str] = []
    carriers: dict[str, list[int]] = {s: [] for s in sig.sorts}
    for s in sig.sorts:
        for e in data.get("elems", {}).get(s, []):
            if e in names:
                raise ValueError(f"model {name}: duplicate element {e!r}")
            carriers[s].append(len(names))
            names.append(e)
    funcs: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in sig.funcs}
    for f in sig.funcs:
        for i, entry in enumerate(data.get("funcs", {}).get(f.name, [])):
            where = f"model {name}: funcs.{f.name}[{i}]"
            key = tuple(_element_id(names, a, where) for a in _json_field(entry, "args", where))
            val = _element_id(names, _json_field(entry, "value", where), where)
            if funcs[f.name].setdefault(key, val) != val:
                raise ValueError(f"{where}: conflicting entries for {f.name}{key}")
    rels: dict[str, frozenset[tuple[int, ...]]] = {}
    for r in sig.rels:
        rels[r.name] = frozenset(
            tuple(_element_id(names, a, f"model {name}: rels.{r.name}[{i}]") for a in tup)
            for i, tup in enumerate(data.get("rels", {}).get(r.name, []))
        )
    S = PartialStructure(sig, {s: tuple(es) for s, es in carriers.items()}, funcs, rels)
    check_structure(S)
    return NamedModel(name, theory.name, S, tuple(names))


def hom_to_json(name: str, h: Hom, source: NamedModel, target: NamedModel) -> dict:
    return {
        "hom": name,
        "source": source.name,
        "target": target.name,
        "map": {source.name_of(e): target.name_of(t) for e, t in sorted(h.mapping.items())},
    }


def hom_from_json(data: dict, source: NamedModel, target: NamedModel) -> tuple[str, Hom]:
    name = _json_field(data, "hom", "hom JSON")
    if data.get("source") != source.name or data.get("target") != target.name:
        raise ValueError(f"hom {name}: endpoints do not match the given models")
    where = f"hom {name}: map"
    mapping = {
        _element_id(source.element_names, e, where): _element_id(target.element_names, x, where)
        for e, x in _json_field(data, "map", f"hom {name}").items()
    }
    missing = [source.name_of(e) for e in source.structure.elements() if e not in mapping]
    if missing:
        raise ValueError(f"hom {name}: unmapped elements {missing}")
    return name, Hom(source.structure, target.structure, mapping)


def load_model(path: str, theory: Theory) -> NamedModel:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return model_from_json(json.loads(text), theory)
    return parse_model(text, theory)


def load_hom(path: str, source: NamedModel, target: NamedModel) -> tuple[str, Hom]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return hom_from_json(json.loads(text), source, target)
    return parse_hom(text, source, target)
