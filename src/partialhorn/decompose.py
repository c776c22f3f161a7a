"""Canonical regular decompositions of model homomorphisms.

A scale is a family of labeled formulas-in-context.  One canonical step
along a scale factors f : A -> X through the quotient A -> A' that
forces every scale instance already true at the image, freely completed
by the chase.  Iterating until a step changes nothing yields the
canonical decomposition; the number of non-identity steps is the
decomposition number of f along the scale.

The instances true at the image are found without enumerating A^k: each
entry's formula is matched once in the fixed target X by the chase's
premise matcher, and the matches are pulled back along f through its
fibers, then sorted, which is the order of the lexicographic enumeration.
Only the atoms that fail in the source are forced (facts only grow).  Every
step after the first starts from a model (the previous step's complete
result), so its chase matches only the instances that use a fact the forced
atoms wrote, and a step that forces nothing is the identity: not chased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chase import (
    BUDGET_EXCEEDED,
    COMPLETE,
    AssignmentItems,
    ChaseBudget,
    ChaseResult,
    Presentation,
    _satisfying,
    chase,
    induced_hom,
)
from .structure import Hom, PartialStructure, compose_hom, holds_atom, is_hom
from .syntax import (
    Atom,
    Context,
    Eq,
    HornFormula,
    Signature,
    Theory,
    TokenStream,
    Var,
    _located,
    _parse_context,
    _parse_formula,
    check_context,
    check_formula,
    formula_to_text,
)

STABILIZED = "Stabilized"
NOT_STABILIZED = "NotStabilized"
MAX_STEPS = 64  # default cap on the steps of a tower, here and in topdec


@dataclass(frozen=True)
class ScaleEntry:
    label: str
    context: Context
    formula: HornFormula


@dataclass(frozen=True)
class Scale:
    name: str
    entries: tuple[ScaleEntry, ...]


def equational_scale(sig: Signature) -> Scale:
    """One entry per sort: the bare equation between two generic elements."""
    entries = tuple(
        ScaleEntry(
            f"eq:{s}",
            Context((("z1", s), ("z2", s))),
            HornFormula((Eq(Var("z1"), Var("z2")),)),
        )
        for s in sig.sorts
    )
    return Scale("equational", entries)


@dataclass(frozen=True)
class StepResult:
    e: Optional[Hom]  # None, as f_prime, when the chase ran out of budget
    f_prime: Optional[Hom]
    result: ChaseResult
    fired: tuple[tuple[str, AssignmentItems], ...]


def _entry_matches(scale: Scale, X: PartialStructure) -> list[list[tuple[int, ...]]]:
    """Per entry, the sorted assignments in X at which its formula holds."""
    return _satisfying(X, [(entry.context, entry.formula) for entry in scale.entries])


def _pull_back(scale: Scale, f: Hom, matches: list) -> tuple[tuple, list[tuple[Atom, AssignmentItems]]]:
    """The scale instances true at f's image (``matches`` in f's target), pulled
    back along f through its fibers in lexicographic order, and the atoms of
    those instances that fail in f's source."""
    A = f.source
    fibers: dict[tuple[str, int], list[int]] = {}
    for s, es in A.carriers.items():
        for a in es:
            fibers.setdefault((s, f.mapping[a]), []).append(a)
    fired: list[tuple[str, AssignmentItems]] = []
    forced: list[tuple[Atom, AssignmentItems]] = []
    for entry, entry_matches in zip(scale.entries, matches):
        names = entry.context.names()
        sorts = [s for _, s in entry.context.vars]
        pulled: list[tuple[int, ...]] = []
        for match in entry_matches:
            combos: list[tuple[int, ...]] = [()]
            for s, x in zip(sorts, match):
                combos = [c + (a,) for c in combos for a in fibers.get((s, x), ())]
            pulled += combos
        for combo in sorted(pulled):
            items = tuple(zip(names, combo))
            fired.append((entry.label, items))
            forced += [(atom, items) for atom in entry.formula.atoms if not holds_atom(A, dict(items), atom)]
    return tuple(fired), forced


def scale_step(
    theory: Theory,
    scale: Scale,
    f: Hom,
    budget: Optional[ChaseBudget] = None,
    *,
    _pulled: Optional[tuple] = None,
    _base_is_model: bool = False,
) -> StepResult:
    """One canonical step: force the scale instances true at the image (the
    atoms that fail in the source).  ``_pulled`` is ``_pull_back``'s result
    for f, when the caller has it; ``_base_is_model`` says f's source is a model."""
    A, X = f.source, f.target
    fired, forced = _pulled or _pull_back(scale, f, _entry_matches(scale, X))
    result = chase(theory, Presentation(A, tuple(forced)), budget, _base_is_model=_base_is_model)
    if result.status != COMPLETE:  # perhaps before every element of A was loaded
        return StepResult(None, None, result, fired)
    e = Hom(A, result.model, {a: result.quotient[a] for a in A.elements()})
    f_prime = induced_hom(result, f.mapping, X)
    for h, tag in ((e, "quotient"), (f_prime, "mediating")):
        rep = is_hom(h)
        if not rep:
            raise RuntimeError(f"{tag} leg is not a homomorphism: {rep.reason}")
    if compose_hom(f_prime, e).mapping != f.mapping:
        raise RuntimeError("canonical step does not factor the given map")
    return StepResult(e, f_prime, result, fired)


@dataclass(frozen=True)
class DecompositionTrace:
    steps: tuple[StepResult, ...]
    stabilization_index: Optional[int]
    claimed_decnum: Optional[int]
    status: str


def _is_identity_step(step: StepResult, source: PartialStructure) -> bool:
    return step.result.model == source and all(v == k for k, v in step.e.mapping.items())


def canonical_decomposition(
    theory: Theory,
    scale: Scale,
    f: Hom,
    budget: Optional[ChaseBudget] = None,
    max_steps: int = MAX_STEPS,
) -> DecompositionTrace:
    """Iterate canonical steps until one changes nothing (not appended)."""
    steps: list[StepResult] = []
    current = f
    matches = _entry_matches(scale, f.target)  # every step's f has this target
    for i in range(max_steps):
        pulled = _pull_back(scale, current, matches)
        if i > 0 and not pulled[1]:  # the source is a model: this step is the identity
            break
        step = scale_step(theory, scale, current, budget, _pulled=pulled, _base_is_model=i > 0)
        if step.result.status != COMPLETE:
            return DecompositionTrace(tuple(steps), None, None, BUDGET_EXCEEDED)
        if _is_identity_step(step, current.source):
            break
        steps.append(step)
        current = step.f_prime
    else:
        return DecompositionTrace(tuple(steps), None, None, NOT_STABILIZED)
    n = len(steps)
    return DecompositionTrace(tuple(steps), n, n, STABILIZED)


def decnum(
    theory: Theory,
    scale: Scale,
    f: Hom,
    budget: Optional[ChaseBudget] = None,
    max_steps: int = MAX_STEPS,
) -> Optional[int]:
    return canonical_decomposition(theory, scale, f, budget, max_steps).claimed_decnum


@dataclass(frozen=True)
class ImageFactorization:
    strong_epi: Hom
    mono: Hom
    trace: DecompositionTrace


def image_factorization(
    theory: Theory, f: Hom, budget: Optional[ChaseBudget] = None, max_steps: int = MAX_STEPS
) -> ImageFactorization:
    """Strong epi / mono factorization along the equational scale."""
    trace = canonical_decomposition(theory, equational_scale(f.source.signature), f, budget, max_steps)
    if trace.status != STABILIZED:
        raise RuntimeError(f"decomposition did not stabilize: {trace.status}")
    epi = Hom(f.source, f.source, {e: e for e in f.source.elements()})
    for step in trace.steps:
        epi = compose_hom(step.e, epi)
    mono = trace.steps[-1].f_prime if trace.steps else f
    epi = Hom(f.source, mono.source, epi.mapping)
    if len(set(mono.mapping.values())) != len(mono.mapping):
        raise RuntimeError("final leg of a stabilized equational decomposition must be injective")
    if compose_hom(mono, epi).mapping != f.mapping:
        raise RuntimeError("factorization does not compose to the given map")
    return ImageFactorization(epi, mono, trace)


# ---------------------------------------------------------------------------
# Scale files


def parse_scale(text: str, sig: Signature) -> Scale:
    """``scale NAME { entry LABEL [ctx] formula; ... }`` (labels may contain ':')."""
    ts = TokenStream(text)
    ts.expect("scale")
    name = ts.expect_ident().text
    ts.expect("{")
    entries: list[ScaleEntry] = []
    while not ts.at("}"):
        tok = ts.expect("entry")
        label = ts.expect_ident().text
        while ts.at(":"):
            ts.next()
            label += ":" + ts.expect_ident().text
        ctx = _parse_context(ts)
        phi = _parse_formula(ts, sig)
        ts.expect(";")
        with _located(f"{tok.line}:{tok.col}"):
            check_context(sig, ctx)
            check_formula(sig, ctx, phi)
        entries.append(ScaleEntry(label, ctx, phi))
    ts.expect("}")
    ts.expect_eof()
    return Scale(name, tuple(entries))


def scale_to_text(scale: Scale) -> str:
    lines = [f"scale {scale.name} {{"]
    for entry in scale.entries:
        ctx = ", ".join(f"{n}: {s}" for n, s in entry.context.vars)
        lines.append(f"  entry {entry.label} [{ctx}] {formula_to_text(entry.formula)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
