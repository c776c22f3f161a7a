"""Finite partial structures and their homomorphisms.

A partial structure interprets each sort as a finite carrier of integer
ids (globally unique across sorts), each function symbol as a partial
map given by its table, and each relation symbol as a set of tuples.
Term evaluation is strict: an application is defined only if all
arguments are and the table has the entry.  ``is_model`` matches each
premise with the chase's compiled join and tests the conclusion at each
match with ``holds``, the one evaluator of formulas.  The same join finds
homs: ``enumerate_homs`` matches the positive diagram of the source (an
equation per table entry, an atom per relation tuple) in the target, and
``find_isomorphism`` keeps the first bijective match whose inverse is a hom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .syntax import (
    App,
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
    _json_field,
    _json_names,
    load_json_or_text,
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


@dataclass(frozen=True)
class ModelReport:
    ok: bool
    failure: Optional[tuple[Sequent, dict[str, int]]] = None

    def __bool__(self) -> bool:
        return self.ok


def is_model(S: PartialStructure, theory: Theory) -> ModelReport:
    """Whether every sequent holds in S; else the first failure, with
    sequents in declaration order and each premise's matches (the chase's
    join) in lexicographic id order."""
    from .chase import _Premise, _satisfying  # chase imports this module

    matches = _satisfying(S, [_Premise(seq.context, seq.premise) for seq in theory.sequents])
    for seq, found in zip(theory.sequents, matches):
        names = seq.context.names()
        for ids in found:
            a = dict(zip(names, ids))
            if not holds(S, a, seq.conclusion):
                return ModelReport(False, (seq, a))
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


def _images(m: Mapping[int, int], keys: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The keys (all of one arity) with every id replaced by its image."""
    arity = len(next(iter(keys), ()))
    if arity == 1:
        return [(m[a],) for (a,) in keys]
    if arity == 2:
        return [(m[a], m[b]) for a, b in keys]
    return [tuple([m[a] for a in key]) for key in keys]


def is_hom(h: Hom, source_name: Callable[[int], str] = str, target_name: Callable[[int], str] = str) -> HomReport:
    """Whether h preserves sorts, entries and tuples; else the first failure,
    its elements written by ``source_name`` and ``target_name`` (ids by default).
    Each carrier, table and relation is checked whole first, its image keys
    built per arity; only a failing h is walked, to word its first failure."""
    A, B, m = h.source, h.target, h.mapping
    if (all(set(B.carriers.get(s, ())).issuperset(map(m.get, A.carriers.get(s, ()))) for s in A.signature.sorts)
            and all(list(map(B.funcs.get(f, {}).get, _images(m, t))) == list(map(m.__getitem__, t.values()))
                    for f, t in A.funcs.items())
            and all(B.rels.get(r, frozenset()).issuperset(_images(m, t)) for r, t in A.rels.items())):
        return HomReport(True)

    def at(sym: str, args: tuple[int, ...]) -> str:  # as a tuple prints: f(), f(x,), f(x, y)
        return f"{sym}({', '.join(map(source_name, args))}{',' if len(args) == 1 else ''})"

    tsort = {e: s for s, es in B.carriers.items() for e in es}
    for s in A.signature.sorts:
        for e in A.carriers.get(s, ()):
            t = h.mapping.get(e)
            if t is None:
                return HomReport(False, f"element {source_name(e)} unmapped")
            if tsort.get(t) != s:
                return HomReport(False, f"element {source_name(e)}:{s} sent to {target_name(t)} of wrong sort")
    image = h.mapping.__getitem__
    for f, table in A.funcs.items():
        target = B.funcs.get(f, {})
        for args, val in table.items():
            timg = target.get(tuple(map(image, args)))
            if timg is None:
                return HomReport(False, f"{at(f, args)} defined in source, undefined at image")
            if timg != h.mapping[val]:
                return HomReport(False, f"{at(f, args)}: image {target_name(timg)} != mapped value "
                                        f"{target_name(h.mapping[val])}")
    for r, tuples in A.rels.items():
        target_rel = B.rels.get(r, frozenset())
        for tup in tuples:
            if tuple(map(image, tup)) not in target_rel:
                return HomReport(False, f"{at(r, tup)} holds in source, not at image")
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
) -> list[Hom]:
    """All homs A -> B in ascending-id order: their images of A's elements,
    taken in id order, sorted lexicographically.

    A hom is a match in B of A's positive diagram (Chandra and Merlin,
    1977), a conjunctive query with one variable per element of A, one
    equation ``f(x..) = y`` per table entry and one relation atom per
    tuple; the chase's compiled join answers it.  With ``bijective``, only
    the homs that are bijective on every carrier.
    """
    from .chase import _Premise, _satisfying  # chase imports this module

    if bijective and any(len(A.carriers.get(s, ())) != len(B.carriers.get(s, ())) for s in A.signature.sorts):
        return []
    sort_of = {e: s for s, es in A.carriers.items() for e in es}
    elems = sorted(sort_of)
    x = {e: Var(str(e)) for e in elems}
    diagram = [Eq(App(f, tuple(x[a] for a in args)), x[val])
               for f, table in A.funcs.items() for args, val in table.items()]
    diagram += [Rel(r, tuple(x[a] for a in tup)) for r, tuples in A.rels.items() for tup in sorted(tuples)]
    context = Context(tuple((str(e), sort_of[e]) for e in elems))
    [matches] = _satisfying(B, [_Premise(context, HornFormula(tuple(diagram)))])
    if bijective:  # ids are unique across sorts: distinct images are per-sort injectivity
        matches = [m for m in matches if len(set(m)) == len(m)]
    return [Hom(A, B, dict(zip(elems, m))) for m in matches]


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


class _ModelBuilder:
    """Builds a named model from the element declarations, function entries
    and relation tuples a reader meets, in reading order; each record
    carries its location for the error messages.  Ids are the order in
    which elements are declared.  ``where`` locates the theory it names."""

    def __init__(self, theory: Theory, name: str, of: object, where: str) -> None:
        if of != theory.name:
            raise ValueError(f"{where}: declares theory {of!r}, expected {theory.name!r}")
        self.theory, self.name = theory, name
        self.ids: dict[str, int] = {}
        self.sorts: list[str] = []  # id -> its sort
        self.carriers: dict[str, list[int]] = {s: [] for s in theory.signature.sorts}
        self.funcs: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in theory.signature.funcs}
        self.rels: dict[str, set[tuple[int, ...]]] = {r.name: set() for r in theory.signature.rels}

    def elements(self, where: str, sort: str, names: Sequence[str]) -> None:
        if sort not in self.carriers:
            raise ValueError(f"{where}: unknown sort {sort!r}")
        for e in names:
            if e in self.ids:
                raise ValueError(f"{where}: duplicate element {e!r}")
            self.carriers[sort].append(len(self.ids))
            self.ids[e] = len(self.ids)
            self.sorts.append(sort)

    def _ids(self, where: str, sym: str, args: object, sorts: tuple[str, ...]) -> tuple[int, ...]:
        if not isinstance(args, list):
            raise ValueError(f"{where}: expected a list of elements, got {type(args).__name__}")
        if len(args) != len(sorts):
            raise ValueError(f"{where}: {sym} expects {len(sorts)} arguments, got {len(args)}")
        ids = tuple(_element_id(self.ids, a, where) for a in args)
        for a, i, sort in zip(args, ids, sorts):
            if self.sorts[i] != sort:
                raise ValueError(f"{where}: {sym}: element {a!r} not in carrier of {sort}")
        return ids

    def entry(self, where: str, func: str, args: list, value: object) -> None:
        if func not in self.funcs:
            raise ValueError(f"{where}: unknown function symbol {func!r}")
        decl = self.theory.signature.func(func)
        key, (val,) = self._ids(where, func, args, decl.arg_sorts), self._ids(where, func, [value], (decl.result_sort,))
        if self.funcs[func].setdefault(key, val) != val:
            raise ValueError(f"{where}: conflicting entries for {func}{key}")

    def fact(self, where: str, rel: str, args: object) -> None:
        if rel not in self.rels:
            raise ValueError(f"{where}: unknown relation symbol {rel!r}")
        self.rels[rel].add(self._ids(where, rel, args, self.theory.signature.rel(rel).arg_sorts))

    def finish(self) -> NamedModel:
        carriers = {s: tuple(es) for s, es in self.carriers.items()}
        rels = {r: frozenset(tups) for r, tups in self.rels.items()}
        S = PartialStructure(self.theory.signature, carriers, self.funcs, rels)
        check_structure(S)
        return NamedModel(self.name, self.theory.name, S, tuple(self.ids))


def _element_id(ids: Mapping[str, int], name: object, where: str) -> int:
    if not isinstance(name, str) or name not in ids:
        raise ValueError(f"{where}: unknown element {name!r}")
    return ids[name]


def parse_model(text: str, theory: Theory) -> NamedModel:
    """Parse a model file against a theory; ids are declaration order."""
    ts = TokenStream(text)
    ts.expect("model")
    name = ts.expect_ident().text
    ts.expect("of")
    of = ts.expect_ident()
    builder = _ModelBuilder(theory, name, of.text, f"{of.line}:{of.col}: model {name}")
    ts.expect("{")
    while not ts.at("}"):
        tok = ts.peek()
        where = f"{tok.line}:{tok.col}: model {name}"
        if tok.text == "elem":
            ts.next()
            sort = ts.expect_ident().text
            ts.expect(":")
            elems = []
            while not ts.at(";"):
                elems.append(ts.expect_ident().text)
            builder.elements(where, sort, elems)
        else:
            sym = ts.expect_ident().text
            args = ts.parenthesized(lambda: ts.expect_ident().text) if ts.at("(") else []
            if ts.at("="):
                ts.next()
                builder.entry(where, sym, args, ts.expect_ident().text)
            elif sym in builder.funcs:
                raise ValueError(f"{where}: function symbol {sym!r} is missing '= value'")
            else:
                builder.fact(where, sym, args)
        ts.expect(";")
    ts.expect("}")
    ts.expect_eof()
    return builder.finish()


def tables_to_json(S: PartialStructure, name: Callable[[int], object]) -> dict:
    """The function tables and relations of S, each element written as ``name(elem)``."""
    return {
        "funcs": {
            f.name: [
                {"args": [name(a) for a in args], "value": name(val)}
                for args, val in sorted(S.funcs.get(f.name, {}).items())
            ]
            for f in S.signature.funcs
        },
        "rels": {
            r.name: [[name(a) for a in tup] for tup in sorted(S.rels.get(r.name, frozenset()))]
            for r in S.signature.rels
        },
    }


def tables_to_text(S: PartialStructure, name: Callable[[int], str]) -> list[str]:
    """The same tables as lines ``f(a, b) = c`` (``f = c`` for constants) and ``R(a, b)``."""
    tables = tables_to_json(S, name)
    lines = []
    for f, entries in tables["funcs"].items():
        for e in entries:
            call = f"{f}({', '.join(e['args'])})" if e["args"] else f
            lines.append(f"{call} = {e['value']}")
    for r, tuples in tables["rels"].items():
        lines.extend(f"{r}({', '.join(tup)})" for tup in tuples)
    return lines


def model_to_text(m: NamedModel) -> str:
    lines = [f"model {m.name} of {m.theory_name} {{"]
    for s in m.structure.signature.sorts:
        es = m.structure.carriers.get(s, ())
        if es:
            lines.append(f"  elem {s} : {' '.join(m.name_of(e) for e in es)};")
    lines.extend(f"  {line};" for line in tables_to_text(m.structure, m.name_of))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _build_hom(
    name: str,
    src: object,
    tgt: object,
    source: NamedModel,
    target: NamedModel,
    pairs: Iterable[tuple[str, object, object]],
    where: tuple[str, str],
) -> tuple[str, Hom]:
    """Build a hom from the (location, element, image) pairs a reader meets;
    ``where`` locates the declared source and target."""
    if src != source.name or tgt != target.name:
        at = where[0] if src != source.name else where[1]
        raise ValueError(f"{at}: declared {src} -> {tgt}, given {source.name} -> {target.name}")
    src_ids = {e: i for i, e in enumerate(source.element_names)}
    tgt_ids = {e: i for i, e in enumerate(target.element_names)}
    mapping: dict[int, int] = {}
    for where, e, x in pairs:
        eid = _element_id(src_ids, e, where)
        if eid in mapping:
            raise ValueError(f"{where}: element {e!r} mapped twice")
        mapping[eid] = _element_id(tgt_ids, x, where)
    missing = [source.name_of(e) for e in source.structure.elements() if e not in mapping]
    if missing:
        raise ValueError(f"hom {name}: unmapped elements {missing}")
    return name, Hom(source.structure, target.structure, mapping)


def parse_hom(text: str, source: NamedModel, target: NamedModel) -> tuple[str, Hom]:
    ts = TokenStream(text)
    ts.expect("hom")
    name = ts.expect_ident().text
    ts.expect(":")
    src = ts.expect_ident()
    ts.expect("->")
    tgt = ts.expect_ident()
    ts.expect("{")

    def pairs() -> Iterator[tuple[str, str, str]]:
        while not ts.at("}"):
            tok = ts.expect_ident()
            ts.expect("|->")
            x = ts.expect_ident().text
            ts.expect(";")
            yield f"{tok.line}:{tok.col}: hom {name}", tok.text, x
        ts.expect("}")
        ts.expect_eof()

    where = (f"{src.line}:{src.col}: hom {name}", f"{tgt.line}:{tgt.col}: hom {name}")
    return _build_hom(name, src.text, tgt.text, source, target, pairs(), where)


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
        **tables_to_json(S, m.name_of),
    }


def model_from_json(data: dict, theory: Theory) -> NamedModel:
    """Build a model from its JSON mirror; ids follow the signature's sort
    order.  Malformed input raises ValueError naming the model and the
    place in the document."""
    name = _json_field(data, "model", "model JSON")
    where = f"model {name}"
    builder = _ModelBuilder(theory, name, data.get("of"), f"{where}: of")
    elems = _json_field(data, "elems", where, dict, {})
    rank = {s: i for i, s in enumerate(theory.signature.sorts)}
    for s in sorted(elems, key=lambda s: rank.get(s, -1)):
        builder.elements(f"{where}: elems.{s}", s, _json_names(elems, s, f"{where}: elems"))
    funcs = _json_field(data, "funcs", where, dict, {})
    for f in funcs:
        for i, entry in enumerate(_json_field(funcs, f, f"{where}: funcs", list)):
            at = f"{where}: funcs.{f}[{i}]"
            builder.entry(at, f, _json_field(entry, "args", at, list), _json_field(entry, "value", at))
    rels = _json_field(data, "rels", where, dict, {})
    for r in rels:
        for i, tup in enumerate(_json_field(rels, r, f"{where}: rels", list)):
            builder.fact(f"{where}: rels.{r}[{i}]", r, tup)
    return builder.finish()


def hom_to_json(name: str, h: Hom, source: NamedModel, target: NamedModel) -> dict:
    return {
        "hom": name,
        "source": source.name,
        "target": target.name,
        "map": {source.name_of(e): target.name_of(t) for e, t in sorted(h.mapping.items())},
    }


def hom_from_json(data: dict, source: NamedModel, target: NamedModel) -> tuple[str, Hom]:
    name = _json_field(data, "hom", "hom JSON")
    pairs = _json_field(data, "map", f"hom {name}", dict).items()
    return _build_hom(
        name, data.get("source"), data.get("target"), source, target,
        ((f"hom {name}: map", e, x) for e, x in pairs), (f"hom {name}: source", f"hom {name}: target"),
    )


def load_model(path: str, theory: Theory) -> NamedModel:
    return load_json_or_text(path, lambda d: model_from_json(d, theory), lambda t: parse_model(t, theory))


def load_hom(path: str, source: NamedModel, target: NamedModel) -> tuple[str, Hom]:
    return load_json_or_text(
        path, lambda d: hom_from_json(d, source, target), lambda t: parse_hom(t, source, target)
    )
