"""Seeded input generators and the fixed corpus tables of the benchmark.

Everything here is plain data built from ``random.Random(seed)``: the same
seed gives byte-identical inputs (see ``inputs_fingerprint``).  The cell-term
rules are a copy of the a09c generator in ``tests/test_acceptance.py``, kept
here so that editing a test cannot silently change a workload.  The term
classes are drawn in fixed quotas per block, so that every seed gives a run
of the same cost mix and only the terms themselves differ.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from partialhorn.syntax import App, Var, free_vars, term_to_text


# ---------------------------------------------------------------------------
# Cell terms (prove-small)


def gen_cell_term(n: int, rng: random.Random, depth: int, vars_avail, need_dim: int = 0):
    """The a09c rules: boundaries of any level, composites of disjoint
    variables whose arguments keep at least the composition's own level."""
    if depth == 0 or rng.random() < 0.25:
        return Var(rng.choice(vars_avail))
    choices = ["bound", "bound", "comp"]
    if len(vars_avail) < 2:
        choices = ["bound", "bound"]
    kind = rng.choice(choices)
    if kind == "bound":
        lo = need_dim + 1
        if lo > n:
            return Var(rng.choice(vars_avail))
        k = rng.randint(lo, n)
        side = rng.choice("dc")
        return App(f"{side}{k}", (gen_cell_term(n, rng, depth - 1, vars_avail, need_dim),))
    k_lo = max(need_dim, 1) if n < 3 else max(need_dim, 2)
    k = rng.randint(k_lo, n)
    cut = rng.randint(1, len(vars_avail) - 1)
    pool = list(vars_avail)
    rng.shuffle(pool)
    left, right = pool[:cut], pool[cut:]
    return App(
        f"comp{k}",
        (
            gen_cell_term(n, rng, depth - 1, left, k),
            gen_cell_term(n, rng, depth - 1, right, k),
        ),
    )


def _level(func: str) -> int:
    return int(func[4:] if func.startswith("comp") else func[1:])


def _sharp(t) -> int:
    if isinstance(t, Var):
        return 0
    own = _level(t.func) if t.func.startswith("comp") else 0
    return max([own] + [_sharp(a) for a in t.args])


def _chain(k: int, t) -> list:
    if isinstance(t, App) and t.func == f"comp{k}":
        return _chain(k, t.args[0]) + [t.args[1]]
    return [t]


def is_normal(t) -> bool:
    """The normal forms of ncat_normalize, restated here so that the inputs do
    not depend on the library: a variable, a boundary of a variable, or a
    left-associated comp_k chain of at least two normal parts of sharp level
    below k."""
    if isinstance(t, Var):
        return True
    if not t.func.startswith("comp"):
        return isinstance(t.args[0], Var)
    k = _level(t.func)
    parts = _chain(k, t)
    return len(parts) >= 2 and all(is_normal(p) and _sharp(p) < k for p in parts)


# Terms per block, by (level n, number of variables used).  Only terms that
# are not already normal are kept: for a normal term the rewrite proof stops
# before round 1, and how many such terms a seed drew moved the median
# operation between two clusters.  The quotas are the shares of these classes
# in the a09c stream at levels 1 and 2 once normal terms are dropped (200,000
# draws): (1,1) 30.3%, (1,2) 13.6%, (1,3) 2.7%, (2,1) 30.5%, (2,2) 18.5%,
# (2,3) 4.4%.  Level-2 terms in three variables are left out: an operation on
# one takes 0.5-0.7 s on average with a tail to 1.9 s, against 1-110 ms for
# the other classes, so their 4.4% of the terms would take over half of a
# run's time and a handful of them would decide its throughput; prove-ncat3
# covers large chases.  The other five shares, renormalized and rounded to a
# block of 35 terms, give the quotas below (the smallest class gets one term).
CELL_QUOTAS: tuple[tuple[tuple[int, int], int], ...] = (
    ((1, 1), 11),
    ((1, 2), 5),
    ((1, 3), 1),
    ((2, 1), 11),
    ((2, 2), 7),
)


def a09c_cell_terms(rng: random.Random):
    """The a09c stream restricted to levels 1 and 2: (n, term), endlessly."""
    while True:
        n = rng.choice([1, 1, 2, 2, 3])
        nv = rng.randint(1, 3) if n < 3 else rng.randint(1, 2)
        t = gen_cell_term(n, rng, 4, ["x", "y", "z"][:nv])
        if n < 3:
            yield n, t


def cell_term_blocks(seed: int, blocks: int) -> list[list[tuple[int, object]]]:
    """``blocks`` lists of (n, term); each list meets ``CELL_QUOTAS`` exactly.

    Terms are taken from the a09c stream in order, skipping normal terms and
    terms of a class whose quota is full, so within each class the terms keep
    the a09c distribution."""
    stream = a09c_cell_terms(random.Random(seed))
    out = []
    for _ in range(blocks):
        want = dict(CELL_QUOTAS)
        block: list[tuple[int, object]] = []
        while any(want.values()):
            n, t = next(stream)
            cls = (n, len(free_vars(t)))
            if want.get(cls, 0) > 0 and not is_normal(t):
                want[cls] -= 1
                block.append((n, t))
        out.append(block)
    return out


# ---------------------------------------------------------------------------
# Boundary words on one 3-cell (prove-ncat3)

LOW_START = ("d1", "c1")
HIGH_START = ("d3", "c3")
ALL_LETTERS = ("d1", "d2", "d3", "c1", "c2", "c3")
LOW_LETTERS = ("d1", "d2", "c1", "c2")


def boundary_word(rng: random.Random, start: tuple[str, ...], then: tuple[str, ...]) -> App:
    """Three boundary letters on ``x``: the innermost from ``start``, two more from ``then``."""
    t = App(rng.choice(start), (Var("x"),))
    for _ in range(2):
        t = App(rng.choice(then), (t,))
    return t


def ncat3_word_blocks(seed: int, blocks: int) -> list[list[App]]:
    """Pairs of one word that collapses to a 1-boundary and one that keeps a 3-boundary.

    The letter pattern sets the size of the proof.  A level-1 innermost letter
    collapses everything to a 1-boundary: 3.1k-3.7k merges, about 4 s.  A
    level-3 innermost letter keeps a 3-dimensional boundary: 4.4k-4.8k
    merges, about 8.5 s.  A level-3 letter above a level-2 one costs as much
    again (c3(d2(d3(x))): 6.0k merges, 16 s), so the later letters of the
    second word stay below level 3; level-2 innermost letters are left out
    because they land in either class.  Word length is fixed for the same
    reason: one letter more adds about 5%.
    """
    rng = random.Random(seed)
    return [
        [boundary_word(rng, LOW_START, ALL_LETTERS), boundary_word(rng, HIGH_START, LOW_LETTERS)]
        for _ in range(blocks)
    ]


# ---------------------------------------------------------------------------
# Category merges (decompose)


@dataclass(frozen=True)
class CatMerge:
    """A graph on objects ``0..objects-1`` with arrows ``(src, tgt)``, src < tgt.

    ``split`` objects are cut in two: the copy ``twin[o]`` takes the outgoing
    arrows, so paths through ``o`` break.  Each ``(g, f, h)`` in ``relations``
    names arrows with ``f`` into and ``g`` out of a split object and ``h``
    parallel to the composite.
    """

    objects: int
    arrows: tuple[tuple[int, int], ...]
    split: tuple[int, ...]
    relations: tuple[tuple[int, int, int], ...]

    @property
    def twin(self) -> dict[int, int]:
        return {o: self.objects + j for j, o in enumerate(self.split)}

    @property
    def split_ends(self) -> tuple[tuple[int, int], ...]:
        twin = self.twin
        return tuple((twin.get(s, s), t) for s, t in self.arrows)

    def free_size(self, ends, nodes: int) -> int:
        """Elements of the free category: objects plus nonempty paths."""
        out: dict[int, list[int]] = {}
        for s, t in ends:
            out.setdefault(s, []).append(t)
        memo: dict[int, int] = {}

        def paths_from(v: int) -> int:
            if v not in memo:
                memo[v] = sum(1 + paths_from(t) for t in out.get(v, ()))
            return memo[v]

        return nodes + sum(paths_from(v) for v in range(nodes))


# Sizes of the free categories on the split graph (|A|) and on the merged
# graph.  The second is the size of the first tower step and sets most of a
# decomposition's cost, so its window is narrow: seeds then cost alike.
SPLIT_SIZE = (30, 34)
MERGED_SIZE = (34, 36)


def cat_merge(rng: random.Random) -> CatMerge:
    while True:
        k = rng.randint(5, 7)
        arrows = []
        for _ in range(rng.randint(k, k + 3)):
            s = rng.randrange(k - 1)
            arrows.append((s, rng.randrange(s + 1, k)))
        inner = [o for o in range(k) if any(t == o for _, t in arrows) and any(s == o for s, _ in arrows)]
        if not inner:
            continue
        split = sorted(rng.sample(inner, min(len(inner), rng.randint(1, 2))))
        relations = []
        for o in split:
            f = rng.choice([i for i, (_, t) in enumerate(arrows) if t == o])
            g = rng.choice([i for i, (s, _) in enumerate(arrows) if s == o])
            arrows.append((arrows[f][0], arrows[g][1]))
            relations.append((g, f, len(arrows) - 1))
        cm = CatMerge(k, tuple(arrows), tuple(split), tuple(relations))
        size_a = cm.free_size(cm.split_ends, k + len(split))
        size_x = cm.free_size(cm.arrows, k)
        if SPLIT_SIZE[0] <= size_a <= SPLIT_SIZE[1] and MERGED_SIZE[0] <= size_x <= MERGED_SIZE[1]:
            return cm


def cat_merges(seed: int, count: int) -> list[CatMerge]:
    rng = random.Random(seed)
    return [cat_merge(rng) for _ in range(count)]


# The corpus towers with their known decomposition numbers and tower sizes
# (acceptance tests a01 and a03-a06): (theory, source, target, hom, decnum, sizes).
CORPUS_TOWERS: tuple[tuple[str, str, str, str, int, tuple[int, ...]], ...] = (
    ("ladder", "ladder_M", "ladder_T", "ladder_bang", 3, (2, 2, 1)),
    ("ncat1", "cat_merge_src", "cat_merge_tgt", "cat_merge_phi", 2, (7, 6)),
    ("ncat2", "twocat_src", "twocat_tgt", "twocat_F", 3, (15, 14, 13)),
    *(
        ("chain_bidir", f"chain_bidir_M{m}", "chain_bidir_T", f"chain_bidir_bang{m}", m + 1, (2,) * m + (1,))
        for m in range(7)
    ),
    ("chain_fwd", "chain_fwd_A0", "chain_fwd_T", "chain_fwd_bang", 9, (2,) * 8 + (1,)),
)


# ---------------------------------------------------------------------------
# CLI mix

# One family per subcommand; every block runs one variant of each family.
# All variants exit 0 on a correct program.
CLI_FAMILIES: dict[str, tuple[tuple[str, ...], ...]] = {
    "examples": (("examples",),),
    "check": (
        ("check", "--theory", "corpus/theories/ladder.pht", "corpus/models/ladder_M.pm",
         "corpus/models/ladder_T.pm", "--hom", "corpus/homs/ladder_bang.phom",
         "--from", "corpus/models/ladder_M.pm", "--to", "corpus/models/ladder_T.pm"),
        ("check", "--theory", "corpus/theories/ncat1.pht", "corpus/models/cat_merge_src.pm",
         "corpus/models/cat_merge_tgt.pm", "--hom", "corpus/homs/cat_merge_phi.phom",
         "--from", "corpus/models/cat_merge_src.pm", "--to", "corpus/models/cat_merge_tgt.pm"),
        ("check", "--theory", "corpus/theories/chain_bidir.pht", "corpus/models/chain_bidir_M6.pm",
         "corpus/models/chain_bidir_T.pm", "--hom", "corpus/homs/chain_bidir_bang6.phom",
         "--from", "corpus/models/chain_bidir_M6.pm", "--to", "corpus/models/chain_bidir_T.pm"),
    ),
    "decnum": tuple(
        ("decnum", "--theory", f"corpus/theories/{th}.pht", "--from", f"corpus/models/{a}.pm",
         "--to", f"corpus/models/{b}.pm", "--hom", f"corpus/homs/{h}.phom")
        for th, a, b, h, _, _ in CORPUS_TOWERS
    ),
    "ncat-normalize": (
        ("ncat-normalize", "-n", "2", "comp1(comp2(x, y), z)"),
        ("ncat-normalize", "-n", "3", "comp2(comp3(x, y), z)"),
        ("ncat-normalize", "-n", "3", "d1(comp3(comp2(x, y), c3(z)))"),
        ("ncat-normalize", "-n", "2", "c2(comp1(d2(x), comp2(y, z)))"),
    ),
    "gat-rank": tuple(
        ("gat-rank", f"corpus/gats/{g}.gat")
        for g in ("cat", "ncat1", "ncat2", "ncat3", "moncat", "multicat", "dblcat", "set")
    ),
    "topdec": (("topdec", "--lambda", "1"), ("topdec", "--lambda", "2"), ("topdec", "--lambda", "3")),
}

# Known answers independent of the recorded output digests (acceptance a01-a08).
GAT_BOUNDS = {"cat": 3, "ncat1": 3, "ncat2": 4, "ncat3": 5, "moncat": 3, "multicat": 3, "dblcat": 4, "set": 2}
CORPUS_DECNUMS = {f"corpus/homs/{h}.phom": d for _, _, _, h, d, _ in CORPUS_TOWERS}


def cli_blocks(seed: int, blocks: int) -> list[list[tuple[str, ...]]]:
    """Each block: one seeded variant of every family, in seeded order."""
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        block = [rng.choice(variants) for variants in CLI_FAMILIES.values()]
        rng.shuffle(block)
        out.append(block)
    return out


def inputs_fingerprint(seed: int) -> str:
    """sha256 over every generator's output for ``seed`` (determinism check)."""
    h = hashlib.sha256()
    for block in cell_term_blocks(seed, 4):
        for n, t in block:
            h.update(f"{n} {term_to_text(t)}\n".encode())
    for block in ncat3_word_blocks(seed, 4):
        for t in block:
            h.update(f"{term_to_text(t)}\n".encode())
    for cm in cat_merges(seed, 3):
        h.update(f"{cm}\n".encode())
    for block in cli_blocks(seed, 4):
        for argv in block:
            h.update(("\x00".join(argv) + "\n").encode())
    return h.hexdigest()
