"""Syntax for finitary partial Horn theories.

Multi-sorted signatures of partial function symbols and relation symbols,
raw terms, Horn formulas (finite conjunctions of atoms), sequents in
context, theories, and the surface-syntax parser/printer.

Definedness atoms ``t !`` are kept as their own atom kind for printing
fidelity and normalized to ``t = t`` before any semantic use.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Optional, TypeVar, Union

T = TypeVar("T")


class ParseError(Exception):
    """Surface-syntax error with 1-based line/column, and the file's path if known."""

    def __init__(self, message: str, line: int, col: int, path: Optional[str] = None) -> None:
        super().__init__(f"{line}:{col}: {message}" if path is None else f"{path}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class SortError(Exception):
    """Ill-sorted term, formula, or declaration."""


# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class FuncDecl:
    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str


@dataclass(frozen=True)
class RelDecl:
    name: str
    arg_sorts: tuple[str, ...]


@dataclass(frozen=True)
class Signature:
    sorts: tuple[str, ...]
    funcs: tuple[FuncDecl, ...] = ()
    rels: tuple[RelDecl, ...] = ()

    def func(self, name: str) -> FuncDecl:
        decl = self._func_names.get(name)
        if decl is None:
            raise SortError(f"undeclared function symbol {name!r}")
        return decl

    def rel(self, name: str) -> RelDecl:
        decl = self._rel_names.get(name)
        if decl is None:
            raise SortError(f"undeclared relation symbol {name!r}")
        return decl

    def has_func(self, name: str) -> bool:
        return name in self._func_names

    def has_rel(self, name: str) -> bool:
        return name in self._rel_names

    # name -> the first declaration of that name, built on first lookup
    @cached_property
    def _func_names(self) -> dict[str, FuncDecl]:
        return {f.name: f for f in reversed(self.funcs)}

    @cached_property
    def _rel_names(self) -> dict[str, RelDecl]:
        return {r.name: r for r in reversed(self.rels)}


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple["RawTerm", ...] = ()


RawTerm = Union[Var, App]


@dataclass(frozen=True)
class Eq:
    lhs: RawTerm
    rhs: RawTerm


@dataclass(frozen=True)
class Rel:
    rel: str
    args: tuple[RawTerm, ...]


@dataclass(frozen=True)
class Def:
    term: RawTerm


Atom = Union[Eq, Rel, Def]


@dataclass(frozen=True)
class HornFormula:
    """Finite conjunction of atoms; the empty conjunction is truth."""

    atoms: tuple[Atom, ...] = ()


TOP = HornFormula(())


@dataclass(frozen=True)
class Context:
    """Tuple of distinct typed variables (name, sort)."""

    vars: tuple[tuple[str, str], ...] = ()

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.vars)

    def sort_of(self, name: str) -> str:
        for n, s in self.vars:
            if n == name:
                return s
        raise SortError(f"variable {name!r} not in context")


@dataclass(frozen=True)
class Sequent:
    context: Context
    premise: HornFormula
    conclusion: HornFormula
    label: str = ""


@dataclass(frozen=True)
class Theory:
    name: str
    signature: Signature
    sequents: tuple[Sequent, ...]


# ---------------------------------------------------------------------------
# Structural helpers


def desugar_atom(atom: Atom) -> Union[Eq, Rel]:
    """Normalize a definedness atom t! to t = t."""
    if isinstance(atom, Def):
        return Eq(atom.term, atom.term)
    return atom


def normalized(phi: HornFormula) -> HornFormula:
    return HornFormula(tuple(desugar_atom(a) for a in phi.atoms))


def free_vars(term: RawTerm) -> tuple[str, ...]:
    """Variables of a term in first-occurrence order."""
    out: list[str] = []

    def walk(t: RawTerm) -> None:
        if isinstance(t, Var):
            if t.name not in out:
                out.append(t.name)
        else:
            for a in t.args:
                walk(a)

    walk(term)
    return tuple(out)


def substitute(term: RawTerm, mapping: Mapping[str, RawTerm]) -> RawTerm:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    return App(term.func, tuple(substitute(a, mapping) for a in term.args))


def substitute_atom(atom: Atom, mapping: Mapping[str, RawTerm]) -> Atom:
    if isinstance(atom, Eq):
        return Eq(substitute(atom.lhs, mapping), substitute(atom.rhs, mapping))
    if isinstance(atom, Def):
        return Def(substitute(atom.term, mapping))
    return Rel(atom.rel, tuple(substitute(a, mapping) for a in atom.args))


def substitute_formula(phi: HornFormula, mapping: Mapping[str, RawTerm]) -> HornFormula:
    return HornFormula(tuple(substitute_atom(a, mapping) for a in phi.atoms))


# ---------------------------------------------------------------------------
# Sort checking


def check_term(sig: Signature, ctx: Context, term: RawTerm) -> str:
    """Return the sort of a well-sorted term; raise SortError otherwise."""
    if isinstance(term, Var):
        return ctx.sort_of(term.name)
    decl = sig.func(term.func)
    _check_args(sig, ctx, term.func, term.args, decl.arg_sorts)
    return decl.result_sort


def _check_args(sig: Signature, ctx: Context, sym: str, args: tuple[RawTerm, ...], sorts: tuple[str, ...]) -> None:
    """The arguments of a function or relation symbol: as many as it takes, each of its sort."""
    if len(args) != len(sorts):
        raise SortError(f"{sym} expects {len(sorts)} arguments, got {len(args)}")
    for arg, want in zip(args, sorts):
        got = check_term(sig, ctx, arg)
        if got != want:
            raise SortError(f"argument of {sym}: expected {want}, got {got}")


def check_atom(sig: Signature, ctx: Context, atom: Atom) -> None:
    if isinstance(atom, Eq):
        ls = check_term(sig, ctx, atom.lhs)
        rs = check_term(sig, ctx, atom.rhs)
        if ls != rs:
            raise SortError(f"equation between sorts {ls} and {rs}")
    elif isinstance(atom, Def):
        check_term(sig, ctx, atom.term)
    else:
        _check_args(sig, ctx, atom.rel, atom.args, sig.rel(atom.rel).arg_sorts)


def check_formula(sig: Signature, ctx: Context, phi: HornFormula) -> None:
    for atom in phi.atoms:
        check_atom(sig, ctx, atom)


def check_context(sig: Signature, ctx: Context) -> None:
    seen: set[str] = set()
    for name, sort in ctx.vars:
        if name in seen:
            raise SortError(f"duplicate context variable {name!r}")
        if sig.has_func(name):
            raise SortError(f"context variable {name!r} shadows a function symbol")
        if sort not in sig.sorts:
            raise SortError(f"undeclared sort {sort!r}")
        seen.add(name)


def check_sequent(sig: Signature, seq: Sequent) -> None:
    check_context(sig, seq.context)
    check_formula(sig, seq.context, seq.premise)
    check_formula(sig, seq.context, seq.conclusion)


def check_theory(theory: Theory) -> None:
    _check_theory(theory, {})


@contextmanager
def _located(at: Optional[str]) -> Iterator[None]:
    """Prefix a SortError raised inside with the location ``at``, if known."""
    try:
        yield
    except SortError as exc:
        if at is None:
            raise
        raise SortError(f"{at}: {exc}") from None


def _check_theory(theory: Theory, where: Mapping[object, str]) -> None:
    """check_theory; ``where`` maps the id of a declaration or sequent, and
    ``("sort", i)`` for the i-th sort, to its location."""
    sig = theory.signature
    seen: set[str] = set()
    for i, s in enumerate(sig.sorts):
        with _located(where.get(("sort", i))):
            if s in seen:
                raise SortError(f"duplicate sort {s!r}")
        seen.add(s)
    symbols: set[str] = set()
    for decls, kind in ((sig.funcs, "function"), (sig.rels, "relation")):
        for d in decls:
            with _located(where.get(id(d))):
                if d.name in symbols:
                    raise SortError(f"duplicate {kind} symbol {d.name!r}")
                symbols.add(d.name)
                for s in d.arg_sorts + ((d.result_sort,) if isinstance(d, FuncDecl) else ()):
                    if s not in sig.sorts:
                        raise SortError(f"{kind} {d.name}: undeclared sort {s!r}")
    for seq in theory.sequents:
        with _located(where.get(id(seq))):
            check_sequent(sig, seq)


# ---------------------------------------------------------------------------
# Tokenizer (shared by the theory, model, hom, and scale parsers)

RESERVED = {
    "theory", "sort", "func", "rel", "axiom", "top",
    "model", "of", "elem", "hom", "scale", "entry",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<op>-\|\|-|\|->|\|-|->|[{}\[\]():;,=&!*])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "op" | "ident" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup or ""
        tok = m.group()
        if kind != "ws":
            # a lone '*' acts as an identifier (sort of n-categories)
            if tok == "*":
                kind = "ident"
            tokens.append(Token(kind, tok, line, m.start() - line_start + 1))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + tok.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class TokenStream:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise self.error(f"expected {text!r}, got {tok.text!r}")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected identifier, got {tok.text!r}")
        if tok.text in RESERVED:
            raise self.error(f"reserved word {tok.text!r} used as identifier")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"trailing input {tok.text!r}")

    def parenthesized(self, item: Callable[[], T], brackets: str = "()") -> list[T]:
        """``( item, ... )``, possibly empty: the items read by ``item()``.
        ``brackets`` gives the opening and the closing bracket."""
        self.expect(brackets[0])
        items = [] if self.at(brackets[1]) else [item()]
        while self.at(","):
            self.next()
            items.append(item())
        self.expect(brackets[1])
        return items


# ---------------------------------------------------------------------------
# Parser


# Applications nest at most this deep in a term read from text or JSON;
# deeper terms are rejected where they are read, before any recursive
# evaluation, printing or hashing of them could exhaust the stack.
MAX_TERM_DEPTH = 256


def _parse_term(ts: TokenStream, sig: Signature, depth: int = 0) -> RawTerm:
    name = ts.expect_ident().text
    if ts.at("("):
        if depth == MAX_TERM_DEPTH:
            raise ts.error(f"term nested deeper than {MAX_TERM_DEPTH} applications")
        return App(name, tuple(ts.parenthesized(lambda: _parse_term(ts, sig, depth + 1))))
    if sig.has_func(name):
        return App(name, ())
    return Var(name)


def _parse_atom(ts: TokenStream, sig: Signature) -> Atom:
    term = _parse_term(ts, sig)
    if isinstance(term, App) and sig.has_rel(term.func):
        raise ts.error(f"relation symbol {term.func!r} used as a term")
    if ts.at("="):
        ts.next()
        rhs = _parse_term(ts, sig)
        return Eq(term, rhs)
    if ts.at("!"):
        ts.next()
        return Def(term)
    raise ts.error("expected '=' or '!' after term")


def _parse_atom_or_rel(ts: TokenStream, sig: Signature) -> Atom:
    tok = ts.peek()
    if tok.kind == "ident" and sig.has_rel(tok.text):
        ts.next()
        return Rel(tok.text, tuple(ts.parenthesized(lambda: _parse_term(ts, sig))))
    return _parse_atom(ts, sig)


def _parse_formula(ts: TokenStream, sig: Signature) -> HornFormula:
    if ts.at("top"):
        ts.next()
        return TOP
    atoms = [_parse_atom_or_rel(ts, sig)]
    while ts.at("&"):
        ts.next()
        atoms.append(_parse_atom_or_rel(ts, sig))
    return HornFormula(tuple(atoms))


def _parse_context(ts: TokenStream) -> Context:
    def pair() -> tuple[str, str]:
        name = ts.expect_ident().text
        ts.expect(":")
        return name, ts.expect_ident().text

    return Context(tuple(ts.parenthesized(pair, "[]")))


def _parse_axiom(ts: TokenStream, sig: Signature, index: int) -> tuple[Sequent, ...]:
    ctx = _parse_context(ts)
    premise = _parse_formula(ts, sig)
    tok = ts.peek()
    if tok.text == "|-":
        ts.next()
        conclusion = _parse_formula(ts, sig)
        return (Sequent(ctx, premise, conclusion, label=f"ax{index}"),)
    if tok.text == "-||-":
        ts.next()
        conclusion = _parse_formula(ts, sig)
        # bisequent: expands to the forward, then the backward sequent
        return (
            Sequent(ctx, premise, conclusion, label=f"ax{index}.fwd"),
            Sequent(ctx, conclusion, premise, label=f"ax{index}.bwd"),
        )
    raise ts.error(f"expected '|-' or '-||-', got {tok.text!r}")


def parse_theory(text: str) -> Theory:
    """Parse a theory file; sort-check everything before returning."""
    ts = TokenStream(text)
    ts.expect("theory")
    name = ts.expect_ident().text
    ts.expect("{")
    sorts: list[str] = []
    funcs: list[FuncDecl] = []
    rels: list[RelDecl] = []
    sequents: list[Sequent] = []
    where: dict[object, str] = {}  # id of a declaration or sequent, ("sort", i) -> its line:col
    axiom_index = 0
    while not ts.at("}"):
        tok = ts.peek()
        at = f"{tok.line}:{tok.col}"
        if tok.text == "sort":
            ts.next()
            where["sort", len(sorts)] = at
            sorts.append(ts.expect_ident().text)
            ts.expect(";")
        elif tok.text == "func":
            ts.next()
            fname = ts.expect_ident().text
            ts.expect(":")
            first = ts.expect_ident().text
            if ts.at("->") or ts.at(","):
                args = [first]
                while ts.at(","):
                    ts.next()
                    args.append(ts.expect_ident().text)
                ts.expect("->")
                result = ts.expect_ident().text
                funcs.append(FuncDecl(fname, tuple(args), result))
            else:
                funcs.append(FuncDecl(fname, (), first))
            where[id(funcs[-1])] = at
            ts.expect(";")
        elif tok.text == "rel":
            ts.next()
            rname = ts.expect_ident().text
            ts.expect(":")
            args = [ts.expect_ident().text]
            while ts.at(","):
                ts.next()
                args.append(ts.expect_ident().text)
            rels.append(RelDecl(rname, tuple(args)))
            where[id(rels[-1])] = at
            ts.expect(";")
        elif tok.text == "axiom":
            ts.next()
            axiom_index += 1
            sig = Signature(tuple(sorts), tuple(funcs), tuple(rels))
            for seq in _parse_axiom(ts, sig, axiom_index):
                sequents.append(seq)
                where[id(seq)] = at
            ts.expect(";")
        else:
            raise ts.error(f"expected declaration, got {tok.text!r}")
    ts.expect("}")
    ts.expect_eof()
    theory = Theory(name, Signature(tuple(sorts), tuple(funcs), tuple(rels)), tuple(sequents))
    _check_theory(theory, where)
    return theory


def parse_term(sig: Signature, text: str) -> RawTerm:
    ts = TokenStream(text)
    term = _parse_term(ts, sig)
    ts.expect_eof()
    return term


def parse_formula(sig: Signature, text: str) -> HornFormula:
    ts = TokenStream(text)
    phi = _parse_formula(ts, sig)
    ts.expect_eof()
    return phi


def parse_sequent(sig: Signature, text: str) -> tuple[Sequent, ...]:
    """Parse ``[ctx] premise |- conclusion`` (or ``-||-``, expanding to two)."""
    ts = TokenStream(text)
    seqs = _parse_axiom(ts, sig, 0)
    ts.expect_eof()
    out = []
    for i, seq in enumerate(seqs):
        seq = Sequent(seq.context, seq.premise, seq.conclusion, label=f"goal{i}")
        check_sequent(sig, seq)
        out.append(seq)
    return tuple(out)


# ---------------------------------------------------------------------------
# Printer (round-trips through parse_theory)


def term_to_text(term: RawTerm) -> str:
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return term.func
    return f"{term.func}({', '.join(term_to_text(a) for a in term.args)})"


def atom_to_text(atom: Atom) -> str:
    if isinstance(atom, Eq):
        return f"{term_to_text(atom.lhs)} = {term_to_text(atom.rhs)}"
    if isinstance(atom, Def):
        return f"{term_to_text(atom.term)} !"
    return f"{atom.rel}({', '.join(term_to_text(a) for a in atom.args)})"


def formula_to_text(phi: HornFormula) -> str:
    if not phi.atoms:
        return "top"
    return " & ".join(atom_to_text(a) for a in phi.atoms)


def context_to_text(ctx: Context) -> str:
    return "[" + ", ".join(f"{n}:{s}" for n, s in ctx.vars) + "]"


def sequent_to_text(seq: Sequent) -> str:
    return f"{context_to_text(seq.context)} {formula_to_text(seq.premise)} |- {formula_to_text(seq.conclusion)}"


def theory_to_text(theory: Theory) -> str:
    lines = [f"theory {theory.name} {{"]
    for s in theory.signature.sorts:
        lines.append(f"  sort {s};")
    for f in theory.signature.funcs:
        if f.arg_sorts:
            lines.append(f"  func {f.name} : {', '.join(f.arg_sorts)} -> {f.result_sort};")
        else:
            lines.append(f"  func {f.name} : {f.result_sort};")
    for r in theory.signature.rels:
        lines.append(f"  rel {r.name} : {', '.join(r.arg_sorts)};")
    for seq in theory.sequents:
        lines.append(f"  axiom {sequent_to_text(seq)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON mirror


def term_to_json(term: RawTerm) -> dict:
    if isinstance(term, Var):
        return {"var": term.name}
    return {"app": term.func, "args": [term_to_json(a) for a in term.args]}


def term_from_json(data: dict, depth: int = 0) -> RawTerm:
    if isinstance(data, dict) and "var" in data:
        return Var(_json_field(data, "var", "term"))
    args = _json_field(data, "args", "term", list)
    if depth == MAX_TERM_DEPTH:
        raise ValueError(f"term: nested deeper than {MAX_TERM_DEPTH} applications")
    return App(_json_field(data, "app", "term"), tuple(term_from_json(a, depth + 1) for a in args))


def atom_to_json(atom: Atom) -> dict:
    if isinstance(atom, Eq):
        return {"eq": [term_to_json(atom.lhs), term_to_json(atom.rhs)]}
    if isinstance(atom, Def):
        return {"def": term_to_json(atom.term)}
    return {"rel": atom.rel, "args": [term_to_json(a) for a in atom.args]}


def atom_from_json(data: dict) -> Atom:
    if isinstance(data, dict) and "eq" in data:
        lhs, rhs = _json_field(data, "eq", "atom", list)
        return Eq(term_from_json(lhs), term_from_json(rhs))
    if isinstance(data, dict) and "def" in data:
        return Def(term_from_json(data["def"]))
    args = _json_field(data, "args", "atom", list)
    return Rel(_json_field(data, "rel", "atom"), tuple(term_from_json(a) for a in args))


def formula_to_json(phi: HornFormula) -> list:
    return [atom_to_json(a) for a in phi.atoms]


def formula_from_json(data: list) -> HornFormula:
    return HornFormula(tuple(atom_from_json(a) for a in data))


def theory_to_json(theory: Theory) -> dict:
    sig = theory.signature
    return {
        "theory": theory.name,
        "sorts": list(sig.sorts),
        "funcs": [
            {"name": f.name, "args": list(f.arg_sorts), "result": f.result_sort}
            for f in sig.funcs
        ],
        "rels": [{"name": r.name, "args": list(r.arg_sorts)} for r in sig.rels],
        "axioms": [
            {
                "label": seq.label,
                "context": [[n, s] for n, s in seq.context.vars],
                "premise": formula_to_json(seq.premise),
                "conclusion": formula_to_json(seq.conclusion),
            }
            for seq in theory.sequents
        ],
    }


def theory_from_json(data: dict) -> Theory:
    name = _json_field(data, "theory", "theory JSON")
    where = f"theory {name}"
    sorts = _json_names(data, "sorts", where)
    funcs, rels, sequents = [], [], []
    located: dict[object, str] = {("sort", i): f"{where}: sorts[{i}]" for i in range(len(sorts))}
    for i, f in enumerate(_json_field(data, "funcs", where, list)):
        at = f"{where}: funcs[{i}]"
        funcs.append(FuncDecl(_json_field(f, "name", at), _json_names(f, "args", at), _json_field(f, "result", at)))
        located[id(funcs[-1])] = at
    for i, r in enumerate(_json_field(data, "rels", where, list)):
        at = f"{where}: rels[{i}]"
        rels.append(RelDecl(_json_field(r, "name", at), _json_names(r, "args", at)))
        located[id(rels[-1])] = at
    for i, ax in enumerate(_json_field(data, "axioms", where, list)):
        at = f"{where}: axioms[{i}]"
        pairs = _json_field(ax, "context", at, list)
        if not all(isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in pairs):
            raise ValueError(f"{at}: 'context' must list [name, sort] pairs of strings")
        try:
            premise = formula_from_json(_json_field(ax, "premise", at, list))
            conclusion = formula_from_json(_json_field(ax, "conclusion", at, list))
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from None
        label = _json_field(ax, "label", at, str, "")
        sequents.append(Sequent(Context(tuple(map(tuple, pairs))), premise, conclusion, label))
        located[id(sequents[-1])] = at
    theory = Theory(name, Signature(sorts, tuple(funcs), tuple(rels)), tuple(sequents))
    _check_theory(theory, located)
    return theory


_REQUIRED = object()
_KINDS = {str: "a string", list: "a list", dict: "an object", int: "an integer"}


def _json_field(data: object, key: str, where: str, kind: type = str, default: object = _REQUIRED):
    """``data[key]``, checked to be of the given kind; a missing optional key
    gives ``default``.  Malformed input raises ValueError naming ``where``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _json_names(data: object, key: str, where: str) -> tuple[str, ...]:
    """``data[key]`` as a tuple of strings (names of sorts or elements)."""
    names = _json_field(data, key, where, list)
    if not all(isinstance(n, str) for n in names):
        raise ValueError(f"{where}: {key!r} must list strings, got {names!r}")
    return tuple(names)


def read_text(path: str) -> str:
    """The file's UTF-8 text; bytes that do not decode raise ValueError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


@contextmanager
def in_file(path: str) -> Iterator[None]:
    """Prefix the path to an error raised inside, while a file's text is
    read: ``path:line:col: ...`` for a located one, ``path: ...`` else."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(exc.message, exc.line, exc.col, path) from None
    except (SortError, ValueError) as exc:
        text = str(exc)
        raise type(exc)(f"{path}:{text}" if re.match(r"\d+:\d+: ", text) else f"{path}: {text}") from None


def load_json_or_text(path: str, from_json: Callable[[Any], T], from_text: Optional[Callable[[str], T]] = None) -> T:
    """Read a file in its JSON mirror (a ``.json`` name, or text that starts
    with ``{``) or in its text form; a file with no text form (no
    ``from_text``) is JSON whatever its name.  Malformed JSON raises
    ValueError located as ``path:line:col``; an error found in either
    form names the path too (see ``in_file``)."""
    text = read_text(path)
    if from_text is not None and not path.endswith(".json") and not text.lstrip().startswith("{"):
        with in_file(path):
            return from_text(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from None
    with in_file(path):
        return from_json(data)


def load_theory(path: str) -> Theory:
    return load_json_or_text(path, theory_from_json, parse_theory)
