"""Gauges: per-term complexity measures with certified defining sets.

A gauge assigns every term a natural number (its sharp) and a defining
set of scale instances on strictly simpler terms such that the term is
defined exactly when all instances hold.  Certifying a gauge bounds the
decomposition number of every hom along the scale.  The built-in gauges
cover a four-constant ladder theory and the one-sorted theory of strict
n-categories, whose normalizer rewrites every term to an iterated
boundary of a left-associated composition chain.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Optional, Sequence

from .chase import ChaseBudget, prove_sequent
from .decompose import ScaleEntry, equational_scale
from .syntax import (
    App,
    Atom,
    Context,
    Def,
    FuncDecl,
    HornFormula,
    ParseError,
    RawTerm,
    Sequent,
    Signature,
    SortError,
    Theory,
    Var,
    _json_field,
    _json_names,
    check_term,
    free_vars,
    load_json_or_text,
    parse_sequent,
    parse_term,
    parse_theory,
    substitute_formula,
)


@dataclass(frozen=True)
class GaugeEntry:
    scale_label: str
    args: tuple[RawTerm, ...]


class GaugeRules:
    """Sharp measure plus defining sets for a theory.  The defining sets are
    instances of the theory's equational scale, ``equational_scale(theory.signature)``."""

    theory: Theory

    def sharp(self, term: RawTerm) -> int:
        raise NotImplementedError

    def defining_set(self, term: RawTerm) -> tuple[GaugeEntry, ...]:
        raise NotImplementedError


class TableGaugeRules(GaugeRules):
    """Data-driven rules: base sharps per symbol, defining sets per symbol."""

    def __init__(
        self,
        theory: Theory,
        sharps: dict[str, int],
        defining: dict[str, tuple[GaugeEntry, ...]],
    ) -> None:
        self.theory = theory
        self.sharps = dict(sharps)
        self.defining = dict(defining)

    def sharp(self, term: RawTerm) -> int:
        if isinstance(term, Var):
            return 0
        return max([self.sharps.get(term.func, 0)] + [self.sharp(a) for a in term.args])

    def defining_set(self, term: RawTerm) -> tuple[GaugeEntry, ...]:
        if isinstance(term, Var):
            return ()
        below = [entry for a in term.args for entry in self.defining_set(a)]
        return tuple(dict.fromkeys(below + list(self.defining.get(term.func, ()))))


def load_gauge_rules(path: str, theory: Theory) -> TableGaugeRules:
    """JSON rules: {"sharp": {sym: n}, "defining": {sym: [{"scale": label, "args": [term]}]}}.

    Each sym is a function symbol of the theory, each n a natural number,
    and each term ground, of the sort the scale entry's context gives it."""
    data = load_json_or_text(path, lambda data: data)
    where = f"gauge rules {path}"
    sig = theory.signature
    contexts = {e.label: e.context for e in equational_scale(sig).entries}

    def per_symbol(key: str, kind: type) -> dict:
        table = _json_field(data, key, where, dict, {})
        for sym in table:
            if not sig.has_func(sym):
                raise ValueError(f"{where}: {key}: {sym!r} is not a function symbol of {theory.name}")
        return {sym: _json_field(table, sym, f"{where}: {key}", kind) for sym in table}

    sharps = per_symbol("sharp", int)
    for sym, n in sharps.items():
        if isinstance(n, bool) or n < 0:
            raise ValueError(f"{where}: sharp: {sym!r} must be a natural number, got {json.dumps(n)}")
    defining = {sym: tuple(_gauge_entry(sig, contexts, e, f"{where}: defining.{sym}[{i}]")
                           for i, e in enumerate(entries))
                for sym, entries in per_symbol("defining", list).items()}
    return TableGaugeRules(theory, sharps, defining)


def _gauge_entry(sig: Signature, contexts: dict[str, Context], data: object, at: str) -> GaugeEntry:
    label = _json_field(data, "scale", at)
    if label not in contexts:
        raise ValueError(f"{at}: unknown scale entry {label!r}")
    texts = _json_names(data, "args", at)
    params = contexts[label].vars
    if len(texts) != len(params):
        raise ValueError(f"{at}: scale entry {label!r} takes {len(params)} arguments, got {len(texts)}")
    args = []
    for j, (text, (_, want)) in enumerate(zip(texts, params)):
        try:
            arg = parse_term(sig, text)
            if free_vars(arg):
                raise SortError(f"{text!r} is not a ground term")
            got = check_term(sig, Context(()), arg)
        except (ParseError, SortError) as exc:
            raise ValueError(f"{at}: args[{j}]: {exc}") from None
        if got != want:
            raise ValueError(f"{at}: args[{j}]: {text!r} has sort {got}, scale entry {label!r} expects {want}")
        args.append(arg)
    return GaugeEntry(label, tuple(args))


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class GaugeRow:
    term: RawTerm
    sharp: int
    entries: tuple[GaugeEntry, ...]
    sharp_ok: bool
    forward: str
    backward: str

    @property
    def ok(self) -> bool:
        return self.sharp_ok and self.forward == "Valid" and self.backward == "Valid"


@dataclass(frozen=True)
class GaugeCertificate:
    term: RawTerm
    rows: tuple[GaugeRow, ...]
    certified: bool
    bound: int  # decomposition numbers of homs over this gauge stay <= bound
    global_bound: int


def _defining_formula(by_label: dict[str, ScaleEntry], entries: Sequence[GaugeEntry]) -> HornFormula:
    atoms: list[Atom] = []
    for entry in entries:
        scale_entry = by_label[entry.scale_label]
        mapping = dict(zip(scale_entry.context.names(), entry.args))
        atoms.extend(substitute_formula(scale_entry.formula, mapping).atoms)
        atoms.extend(Def(arg) for arg in entry.args)
    return HornFormula(tuple(dict.fromkeys(atoms)))


def check_gauge(
    rules: GaugeRules,
    ctx: Context,
    term: RawTerm,
    budget: Optional[ChaseBudget] = None,
) -> GaugeCertificate:
    """Certify the gauge at a term and, transitively, at its defining args.

    Each row re-proves the bisequent: the term is defined iff all its
    defining instances hold and their arguments are defined.  A row keeps
    only the two verdicts, so each proof stops inside the round where its
    conclusion first holds: a budget that ``prove_sequent`` exhausts in
    that round (Unknown) may give Valid here.
    """
    by_label = {e.label: e for e in equational_scale(rules.theory.signature).entries}
    rows: list[GaugeRow] = []
    terms = [term]  # the terms to certify, in order, each once; grows as rows are made
    for tau in terms:
        entries = rules.defining_set(tau)
        s = rules.sharp(tau)
        sharp_ok = all(rules.sharp(a) < s for e in entries for a in e.args)
        phi = _defining_formula(by_label, entries)
        fwd = prove_sequent(
            rules.theory, Sequent(ctx, HornFormula((Def(tau),)), phi, label="gauge.fwd"), budget,
            _verdict_only=True,
        )
        bwd = prove_sequent(
            rules.theory, Sequent(ctx, phi, HornFormula((Def(tau),)), label="gauge.bwd"), budget,
            _verdict_only=True,
        )
        rows.append(GaugeRow(tau, s, entries, sharp_ok, fwd.verdict, bwd.verdict))
        for a in [a for e in entries for a in e.args]:
            if a not in terms:
                terms.append(a)
    certified = all(r.ok for r in rows)
    bound = rules.sharp(term) + 1
    return GaugeCertificate(term, tuple(rows), certified, bound, bound + 1)


def enumerate_terms(sig: Signature, ctx: Context, depth: int) -> list[RawTerm]:
    """All terms over the context up to the given application depth."""
    seen: list[RawTerm] = [Var(n) for n, _ in ctx.vars]
    sort_of: dict[RawTerm, str] = {t: check_term(sig, ctx, t) for t in seen}
    for _ in range(depth):
        new: list[RawTerm] = []
        for f in sig.funcs:
            pools = [[t for t in seen if sort_of[t] == s] for s in f.arg_sorts]
            for combo in itertools.product(*pools):
                t = App(f.name, tuple(combo))
                if t not in sort_of:
                    sort_of[t] = f.result_sort
                    new.append(t)
        seen.extend(new)
        if not new:
            break
    return seen


# ---------------------------------------------------------------------------
# Built-in: the ladder theory (four constants, conditional definedness)


_LADDER_TEXT = """theory ladder {
  sort s;
  func a : s;
  func b : s;
  func c : s;
  func d : s;
  axiom [] top |- a = a & b = b;
  axiom [] a = b -||- c = c;
  axiom [] a = c -||- d = d;
}
"""


def ladder_theory() -> Theory:
    """a, b total; c defined iff a = b; d defined iff a = c."""
    return parse_theory(_LADDER_TEXT)


def ladder_gauge_rules() -> TableGaugeRules:
    theory = ladder_theory()
    a, b, c = App("a", ()), App("b", ()), App("c", ())
    return TableGaugeRules(
        theory,
        sharps={"a": 0, "b": 0, "c": 1, "d": 2},
        defining={
            "c": (GaugeEntry("eq:s", (a, b)),),
            "d": (GaugeEntry("eq:s", (a, c)),),
        },
    )


# ---------------------------------------------------------------------------
# Built-in: strict n-categories, one-sorted


@lru_cache(maxsize=16)
def ncat_signature(n: int) -> Signature:
    """One sort of cells; dk/ck boundaries and compk composition, k = 1..n.
    Built once per n: the signature and its declarations are frozen."""
    if n < 1:
        raise ValueError("n must be at least 1")
    funcs: list[FuncDecl] = []
    for k in range(1, n + 1):
        funcs.append(FuncDecl(f"d{k}", ("*",), "*"))
        funcs.append(FuncDecl(f"c{k}", ("*",), "*"))
    for k in range(1, n + 1):
        funcs.append(FuncDecl(f"comp{k}", ("*", "*"), "*"))
    return Signature(("*",), tuple(funcs))


# The strict n-category axioms in the surface syntax: one block per level k,
# then one per pair of levels i < j.
_NCAT_LEVEL = (
    ("idem.d{k}", "[x:*] top |- d{k}(d{k}(x)) = d{k}(x) & d{k}(x) = c{k}(d{k}(x))"),
    ("idem.c{k}", "[x:*] top |- c{k}(c{k}(x)) = c{k}(x) & c{k}(x) = d{k}(c{k}(x))"),
    ("comp{k}.total", "[x:*, y:*] d{k}(x) = c{k}(y) |- comp{k}(x, y) !"),
    ("comp{k}.strict", "[x:*, y:*] comp{k}(x, y) ! |- d{k}(x) = c{k}(y)"),
    ("comp{k}.bounds", "[x:*, y:*] d{k}(x) = c{k}(y) |- d{k}(comp{k}(x, y)) = d{k}(y) & c{k}(comp{k}(x, y)) = c{k}(x)"),
    ("comp{k}.unit", "[x:*] top |- comp{k}(x, d{k}(x)) = x & comp{k}(c{k}(x), x) = x"),
    ("comp{k}.assoc",
     "[x:*, y:*, z:*] d{k}(x) = c{k}(y) & d{k}(y) = c{k}(z) |- comp{k}(comp{k}(x, y), z) = comp{k}(x, comp{k}(y, z))"),
)
_NCAT_PAIR = (
    ("globular.d{i}.{j}",
     "[x:*] top |- d{j}(d{i}(x)) = d{i}(d{j}(x)) & d{i}(d{j}(x)) = d{i}(c{j}(x)) & d{i}(c{j}(x)) = c{j}(d{i}(x))"
     " & c{j}(d{i}(x)) = d{i}(x)"),
    ("globular.c{i}.{j}",
     "[x:*] top |- c{j}(c{i}(x)) = c{i}(c{j}(x)) & c{i}(c{j}(x)) = c{i}(d{j}(x)) & c{i}(d{j}(x)) = d{j}(c{i}(x))"
     " & d{j}(c{i}(x)) = c{i}(x)"),
    ("whisker.{i}.{j}",
     "[x:*, y:*] d{i}(x) = c{i}(y) |- d{j}(comp{i}(x, y)) = comp{i}(d{j}(x), d{j}(y))"
     " & c{j}(comp{i}(x, y)) = comp{i}(c{j}(x), c{j}(y))"),
    ("interchange.{i}.{j}",
     "[x:*, y:*, z:*, w:*] d{i}(x) = c{i}(y) & d{i}(z) = c{i}(w) & d{j}(x) = c{j}(z) & d{j}(y) = c{j}(w)"
     " |- comp{j}(comp{i}(x, y), comp{i}(z, w)) = comp{i}(comp{j}(x, z), comp{j}(y, w))"),
)


@lru_cache(maxsize=16)
def ncat_theory(n: int) -> Theory:
    """The strict n-category axioms over ``ncat_signature(n)``.
    Parsed once per n: the theory is frozen."""
    sig = ncat_signature(n)
    blocks = [(_NCAT_LEVEL, {"k": k}) for k in range(1, n + 1)]
    blocks += [(_NCAT_PAIR, {"i": i, "j": j}) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    seqs = []
    for templates, levels in blocks:
        for label, text in templates:
            [seq] = parse_sequent(sig, text.format(**levels))
            seqs.append(replace(seq, label=label.format(**levels)))
    return Theory(f"ncat{n}", sig, tuple(seqs))


_BOUNDARY_RE = re.compile(r"^[dc]([0-9]+)$")
_COMP_RE = re.compile(r"^comp([0-9]+)$")


def _comp_level(term: RawTerm) -> Optional[int]:
    if isinstance(term, App):
        m = _COMP_RE.match(term.func)
        if m:
            return int(m.group(1))
    return None


def ncat_sharp(term: RawTerm) -> int:
    """Largest composition level occurring in the term (0 if none)."""
    if isinstance(term, Var):
        return 0
    own = 0
    m = _COMP_RE.match(term.func)
    if m:
        own = int(m.group(1))
    elif not _BOUNDARY_RE.match(term.func):
        raise ValueError(f"not an n-category symbol: {term.func}")
    return max([own] + [ncat_sharp(a) for a in term.args])


def _chain(k: int, parts: Sequence[RawTerm]) -> RawTerm:
    return reduce(lambda acc, p: App(f"comp{k}", (acc, p)), parts)


def _flatten(k: int, term: RawTerm) -> list[RawTerm]:
    if _comp_level(term) == k:
        assert isinstance(term, App)
        return _flatten(k, term.args[0]) + [term.args[1]]
    return [term]


def _boundary_index(term: RawTerm) -> Optional[int]:
    if isinstance(term, App):
        m = _BOUNDARY_RE.match(term.func)
        if m:
            return int(m.group(1))
    return None


def _norm_boundary(side: str, i: int, nu: RawTerm) -> RawTerm:
    """The normal form of d<i>(nu) (side "d") or c<i>(nu) (side "c")."""
    if isinstance(nu, Var):
        return App(f"{side}{i}", (nu,))
    j = _boundary_index(nu)
    if j is not None:
        return nu if j <= i else App(f"{side}{i}", (nu.args[0],))
    k = _comp_level(nu)
    assert k is not None
    if i <= k:  # the source boundary of the last component, the target of the first
        return _norm_boundary(side, i, _flatten(k, nu)[-1 if side == "d" else 0])
    return _chain(k, [_norm_boundary(side, i, c) for c in _flatten(k, nu)])


def _norm_comp(i: int, nu1: RawTerm, nu2: RawTerm) -> RawTerm:
    k1, k2 = ncat_sharp(nu1), ncat_sharp(nu2)
    m = max(k1, k2)
    if m < i:
        return _chain(i, [nu1, nu2])
    if m == i:
        return _chain(i, _flatten(i, nu1) + _flatten(i, nu2))
    if k1 >= k2:
        comps = _flatten(k1, nu1)
        rho = _norm_boundary("d", k1, nu2)
        parts = [_norm_comp(i, comps[0], nu2)] + [_norm_comp(i, c, rho) for c in comps[1:]]
    else:
        comps = _flatten(k2, nu2)
        rho = _norm_boundary("c", k2, nu1)
        parts = [_norm_comp(i, rho, c) for c in comps[:-1]] + [_norm_comp(i, nu1, comps[-1])]
    flat: list[RawTerm] = []
    for p in parts:
        flat.extend(_flatten(m, p))
    return _chain(m, flat)


def ncat_normalize(n: int, ctx: Context, term: RawTerm) -> RawTerm:
    """Rewrite a term to normal form under the n-category axioms.

    Normal terms are variables, boundaries of variables, or
    left-associated compk chains of normal components of lower sharp.
    Composites are assumed well-formed; normalization is purely
    syntactic and is justified by the boundary, unit, associativity,
    and interchange axioms.
    """
    check_term(ncat_signature(n), ctx, term)
    return _normalize(term)


def _normalize(term: RawTerm) -> RawTerm:
    if isinstance(term, Var):
        return term
    j = _boundary_index(term)
    if j is not None:
        return _norm_boundary(term.func[0], j, _normalize(term.args[0]))  # func is d<j> or c<j>
    k = _comp_level(term)
    if k is None:
        raise ValueError(f"not an n-category symbol: {term.func}")
    return _norm_comp(k, _normalize(term.args[0]), _normalize(term.args[1]))


def ncat_is_normal(term: RawTerm) -> bool:
    """Independent checker for the normal-form predicate."""
    if isinstance(term, Var):
        return True
    if _boundary_index(term) is not None:
        return isinstance(term.args[0], Var)
    k = _comp_level(term)
    if k is None:
        return False
    parts = _flatten(k, term)
    return len(parts) >= 2 and all(
        ncat_is_normal(p) and ncat_sharp(p) < k and _comp_level(p) != k for p in parts
    )


class NcatGaugeRules(GaugeRules):
    """Defining sets: each composite contributes the equation between the
    normalized boundary of its left part and co-boundary of its right part."""

    def __init__(self, n: int) -> None:
        self.theory = ncat_theory(n)

    def sharp(self, term: RawTerm) -> int:
        return ncat_sharp(term)

    def defining_set(self, term: RawTerm) -> tuple[GaugeEntry, ...]:
        if isinstance(term, Var):
            return ()
        if _boundary_index(term) is not None:
            return self.defining_set(term.args[0])
        k = _comp_level(term)
        if k is None:
            raise ValueError(f"not an n-category symbol: {term.func}")
        left, right = term.args[0], term.args[1]
        own = GaugeEntry("eq:*", (_norm_boundary("d", k, _normalize(left)), _norm_boundary("c", k, _normalize(right))))
        return tuple(dict.fromkeys([*self.defining_set(left), *self.defining_set(right), own]))


def ncat_gauge_rules(n: int) -> NcatGaugeRules:
    return NcatGaugeRules(n)
