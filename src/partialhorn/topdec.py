"""Monotone-light decompositions of maps between finite spaces.

A finite space is carried by its minimal-open-set table (equivalently,
its specialization preorder).  One decomposition step collapses each
connected component of each fiber to a point; iterating until the step
is trivial factors a continuous map into a tower of monotone quotients
followed by a light map.

The two partitions in play agree: a maximal connected subset on which
the map is constant lies in one fiber, and a union of connected sets
sharing a point is connected, so these maximal subsets are exactly the
connected components of the fibers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .decompose import MAX_STEPS, NOT_STABILIZED, STABILIZED

Point = Hashable


@dataclass(frozen=True)
class FinSpace:
    points: tuple[Point, ...]
    min_open: dict[Point, frozenset]


def check_space(X: FinSpace) -> None:
    """Minimal opens must contain their point and be open themselves."""
    pts = set(X.points)
    if len(X.points) != len(pts):
        raise ValueError("duplicate points")
    for x in X.points:
        U = X.min_open[x]
        if x not in U:
            raise ValueError(f"minimal open of {x!r} misses the point")
        if not U <= pts:
            raise ValueError(f"minimal open of {x!r} leaves the carrier")
        for y in U:
            if not X.min_open[y] <= U:
                raise ValueError(f"minimal open of {x!r} is not open at {y!r}")


def is_open(X: FinSpace, U: Iterable[Point]) -> bool:
    U = frozenset(U)
    return all(X.min_open[x] <= U for x in U)


def indiscrete_space(points: Iterable[Point]) -> FinSpace:
    pts = tuple(points)
    whole = frozenset(pts)
    return FinSpace(pts, {p: whole for p in pts})


def discrete_space(points: Iterable[Point]) -> FinSpace:
    pts = tuple(points)
    return FinSpace(pts, {p: frozenset([p]) for p in pts})


@dataclass(frozen=True)
class ContMap:
    source: FinSpace
    target: FinSpace
    mapping: dict[Point, Point]

    def __call__(self, x: Point) -> Point:
        return self.mapping[x]


def is_continuous(f: ContMap) -> bool:
    """Continuous = monotone for the specialization preorder."""
    return all(
        f.mapping[y] in f.target.min_open[f.mapping[x]]
        for x in f.source.points
        for y in f.source.min_open[x]
    )


def compose(g: ContMap, f: ContMap) -> ContMap:
    return ContMap(f.source, g.target, {x: g.mapping[f.mapping[x]] for x in f.source.points})


def identity_map(X: FinSpace) -> ContMap:
    return ContMap(X, X, {x: x for x in X.points})


# ---------------------------------------------------------------------------
# Connectivity


def connected_components(X: FinSpace, subset: Optional[Iterable[Point]] = None) -> list[frozenset]:
    """Components of a subspace; adjacency is specialization comparability."""
    pts = sorted(X.points if subset is None else subset)
    pset = set(pts)
    seen: set[Point] = set()
    out: list[frozenset] = []
    for start in pts:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in pts:
                if y in comp:
                    continue
                if y in (X.min_open[x] & pset) or x in (X.min_open[y] & pset):
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        out.append(frozenset(comp))
    return out


def is_monotone(f: ContMap) -> bool:
    """Every nonempty fiber is connected."""
    for t in f.target.points:
        fiber = [x for x in f.source.points if f.mapping[x] == t]
        if fiber and len(connected_components(f.source, fiber)) > 1:
            return False
    return True


def is_light(f: ContMap) -> bool:
    """Every fiber is totally disconnected."""
    for t in f.target.points:
        fiber = [x for x in f.source.points if f.mapping[x] == t]
        if any(len(c) > 1 for c in connected_components(f.source, fiber)):
            return False
    return True


# ---------------------------------------------------------------------------
# The decomposition


@dataclass(frozen=True)
class TopStep:
    e: ContMap
    f_prime: ContMap
    classes: tuple[frozenset, ...]  # non-singleton fiber components collapsed


@dataclass(frozen=True)
class TopTrace:
    steps: tuple[TopStep, ...]
    kernels: tuple[tuple[frozenset, ...], ...]  # partition of the original carrier per step
    stabilization_index: Optional[int]
    status: str


def monotone_light_step(f: ContMap) -> TopStep:
    """Collapse each fiber component of f to one point (its least member)."""
    X = f.source
    classes: list[frozenset] = []
    for t in sorted(f.target.points):
        fiber = [x for x in X.points if f.mapping[x] == t]
        classes.extend(connected_components(X, fiber))
    rep = {x: min(cls) for cls in classes for x in cls}
    new_points = tuple(sorted({rep[x] for x in X.points}))
    by_rep = {min(cls): cls for cls in classes}

    def saturated_open(cls: frozenset) -> frozenset:
        S = set(cls)
        while True:
            grown = set(S)
            for x in list(grown):
                grown |= X.min_open[x]
            for c in classes:
                if grown & c:
                    grown |= c
            if grown == S:
                return frozenset(S)
            S = grown

    min_open = {
        r: frozenset(rep[x] for x in saturated_open(by_rep[r])) for r in new_points
    }
    quotient = FinSpace(new_points, min_open)
    check_space(quotient)
    e = ContMap(X, quotient, {x: rep[x] for x in X.points})
    f_prime = ContMap(quotient, f.target, {r: f.mapping[r] for r in new_points})
    if not is_continuous(e) or not is_continuous(f_prime):
        raise RuntimeError("decomposition step produced a discontinuous leg")
    if any(compose(f_prime, e).mapping[x] != f.mapping[x] for x in X.points):
        raise RuntimeError("decomposition step does not factor the map")
    return TopStep(e, f_prime, tuple(c for c in classes if len(c) > 1))


def monotone_light_decomposition(f: ContMap, max_steps: int = MAX_STEPS) -> TopTrace:
    """Iterate fiber-component collapses until a step changes nothing."""
    steps: list[TopStep] = []
    kernels: list[tuple[frozenset, ...]] = []
    original = f.source
    to_current = identity_map(original)
    current = f
    for _ in range(max_steps):
        step = monotone_light_step(current)
        if not step.classes:
            n = len(steps)
            return TopTrace(tuple(steps), tuple(kernels), n, STABILIZED)
        steps.append(step)
        to_current = compose(step.e, to_current)
        by_image: dict[Point, set] = {}
        for x in original.points:
            by_image.setdefault(to_current.mapping[x], set()).add(x)
        kernels.append(tuple(frozenset(v) for _, v in sorted(by_image.items(), key=lambda kv: min(kv[1]))))
        current = step.f_prime
    return TopTrace(tuple(steps), tuple(kernels), None, NOT_STABILIZED)


# ---------------------------------------------------------------------------
# The staircase family


def _staircase_open(U: frozenset, lam: int) -> bool:
    if ((-1, "a") in U) != ((-1, "b") in U):
        return False
    for alpha in range(0, lam):
        if (alpha, "a") in U:
            if not any(
                all((g, "b") in U for g in range(beta, alpha + 1)) for beta in range(-1, alpha)
            ):
                return False
    return True


def koizumi_space(lam: int) -> FinSpace:
    """Two chained columns over indices -1..lam-1; openness couples an
    a-point at height alpha to a run of b-points ending at alpha."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    if lam > 7:
        raise ValueError("carrier too large for subset enumeration")
    points = tuple((alpha, t) for alpha in range(-1, lam) for t in ("a", "b"))
    opens = [
        frozenset(U)
        for r in range(len(points) + 1)
        for U in itertools.combinations(points, r)
        if _staircase_open(frozenset(U), lam)
    ]
    min_open: dict[Point, frozenset] = {}
    for p in points:
        containing = [U for U in opens if p in U]
        m = frozenset(points)
        for U in containing:
            m &= U
        min_open[p] = m
    X = FinSpace(points, min_open)
    check_space(X)
    return X


def koizumi_map(lam: int) -> ContMap:
    """Second projection onto the two-point indiscrete space."""
    X = koizumi_space(lam)
    Y = indiscrete_space(("a", "b"))
    f = ContMap(X, Y, {(alpha, t): t for alpha, t in X.points})
    if not is_continuous(f):
        raise RuntimeError("projection must be continuous")
    return f
