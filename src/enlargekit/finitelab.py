"""Exact verification of the product-space view of filtration
enlargement, on finite outcome spaces with rational probabilities.

Discrete time, finitely many stages: filtrations are refining sequences
of partitions, conditioning is block averaging, and every claim is
checked with exact rational equality, no tolerances anywhere.

The central construction doubles the space: on Ω×Ω the diagonal
push-forward measure p̄ carries the original dynamics while the product
measure q̄ = P⊗R decouples the two information streams.  Enlarging the
filtration on Ω is the same as changing measure from q̄ to p̄ on the
product, so a likelihood (Radon–Nikodym) stage process and a discrete
Girsanov compensation do all the work.  Both read one table per stage of
the product blocks F_a × H_b and their masses, and are verified exactly.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

Outcome = str
Block = frozenset


class FiniteLabError(ValueError):
    """Inconsistent finite-space construction."""


class AbsoluteContinuityError(FiniteLabError):
    """A q̄-null block carries p̄ mass; the likelihood process does not exist."""

    def __init__(self, stage: int, block):
        self.stage = stage
        self.block = block
        super().__init__(f"diagonal measure not absolutely continuous at stage {stage}: {sorted(block)}")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, eq=False)
class FiniteOutcomeSpace:
    outcomes: tuple[Outcome, ...]
    prob: dict[Outcome, Fraction]

    def __post_init__(self):
        if len(set(self.outcomes)) != len(self.outcomes):
            raise FiniteLabError("duplicate outcomes")
        if set(self.prob) != set(self.outcomes):
            raise FiniteLabError("probability map must cover exactly the outcomes")
        vals = [Fraction(v) for v in self.prob.values()]
        if any(v < 0 for v in vals):
            raise FiniteLabError("negative probability")
        if sum(vals, Fraction(0)) != 1:
            raise FiniteLabError("probabilities must sum to exactly 1")

    def measure(self, block) -> Fraction:
        return sum((self.prob[w] for w in block), Fraction(0))


@dataclass(frozen=True)
class Partition:
    blocks: tuple[Block, ...]

    def __post_init__(self):
        blocks = tuple(sorted((frozenset(b) for b in self.blocks), key=lambda b: sorted(b)))
        object.__setattr__(self, "blocks", blocks)
        index: dict = {}
        for b in blocks:
            if not b:
                raise FiniteLabError("empty partition block")
            if not b.isdisjoint(index):
                raise FiniteLabError("partition blocks overlap")
            index.update(dict.fromkeys(b, b))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_universe", frozenset(index))

    @property
    def universe(self) -> Block:
        return self._universe  # type: ignore[attr-defined]

    def block_of(self, w: Outcome) -> Block:
        return self._index[w]  # type: ignore[attr-defined]

    def refines(self, coarser: "Partition") -> bool:
        return all(any(b <= c for c in coarser.blocks) for b in self.blocks)

    def join(self, other: "Partition") -> "Partition":
        """Coarsest common refinement: blockwise intersections, empties dropped."""
        if self.universe != other.universe:
            raise FiniteLabError("partitions live on different spaces")
        out = [a & b for a in self.blocks for b in other.blocks if a & b]
        return Partition(tuple(out))


def trivial_partition(outcomes) -> Partition:
    return Partition((frozenset(outcomes),))


def discrete_partition(outcomes) -> Partition:
    return Partition(tuple(frozenset((w,)) for w in outcomes))


def partition_from_labels(labels: Mapping[Outcome, object]) -> Partition:
    level_sets: dict = {}
    for w, v in labels.items():
        level_sets.setdefault(v, set()).add(w)
    return Partition(tuple(frozenset(s) for s in level_sets.values()))


@dataclass(frozen=True)
class FiniteFiltration:
    stages: tuple[Partition, ...]

    def __post_init__(self):
        if not self.stages:
            raise FiniteLabError("filtration needs at least one stage")
        u = self.stages[0].universe
        for k, p in enumerate(self.stages):
            if p.universe != u:
                raise FiniteLabError("all stages must partition the same space")
            if k and not p.refines(self.stages[k - 1]):
                raise FiniteLabError(f"stage {k} does not refine stage {k - 1}")

    def __len__(self) -> int:
        return len(self.stages)


def join_filtrations(F: FiniteFiltration, H: FiniteFiltration) -> FiniteFiltration:
    if len(F) != len(H):
        raise FiniteLabError("filtrations must have equal stage counts")
    return FiniteFiltration(tuple(f.join(h) for f, h in zip(F.stages, H.stages)))


def initial_enlargement(F: FiniteFiltration, X: Mapping[Outcome, object]) -> FiniteFiltration:
    """Every stage joined with the partition induced by X's level sets."""
    px = partition_from_labels(X)
    return FiniteFiltration(tuple(p.join(px) for p in F.stages))


def constant_filtration(p: Partition, n_stages: int) -> FiniteFiltration:
    return FiniteFiltration((p,) * n_stages)


# ---------------------------------------------------------------------------
# conditioning, martingales, decomposition


def conditional_expectation(
    f: Mapping[Outcome, Fraction],
    partition: Partition,
    space: FiniteOutcomeSpace,
) -> tuple[dict[Outcome, Fraction], list[Block]]:
    """Block-averaged f, exact; null blocks get value 0 and are flagged."""
    out: dict[Outcome, Fraction] = {}
    null_blocks: list[Block] = []
    for b in partition.blocks:
        mass = space.measure(b)
        if mass == 0:
            val = Fraction(0)
            null_blocks.append(b)
        else:
            val = sum((space.prob[w] * Fraction(f[w]) for w in b), Fraction(0)) / mass
        for w in b:
            out[w] = val
    return out, null_blocks


def is_exact_martingale(
    process: Sequence[Mapping[Outcome, Fraction]],
    filtration: FiniteFiltration,
    space: FiniteOutcomeSpace,
) -> bool:
    """E[X_{k+1} | stage k] = X_k on every positive-mass block, exactly."""
    for k in range(len(process) - 1):
        cond, _ = conditional_expectation(process[k + 1], filtration.stages[k], space)
        for w in space.outcomes:
            if space.prob[w] > 0 and cond[w] != Fraction(process[k][w]):
                return False
    return True


def _is_adapted(fn: Mapping[Outcome, Fraction], partition: Partition) -> bool:
    return all(len({Fraction(fn[w]) for w in b}) == 1 for b in partition.blocks)


def doob_decomposition(
    process: Sequence[Mapping[Outcome, Fraction]],
    filtration: FiniteFiltration,
    space: FiniteOutcomeSpace,
) -> tuple[list[dict[Outcome, Fraction]], list[dict[Outcome, Fraction]]]:
    """Exact martingale + predictable split: ΔA_k = E[ΔX_k | stage k−1]."""
    if len(process) > len(filtration):
        raise FiniteLabError("process longer than the filtration")
    for k, fn in enumerate(process):
        if not _is_adapted(fn, filtration.stages[k]):
            raise FiniteLabError(f"process not adapted at stage {k}")
    fv = [{w: Fraction(0) for w in space.outcomes}]
    for k in range(1, len(process)):
        delta = {w: Fraction(process[k][w]) - Fraction(process[k - 1][w]) for w in space.outcomes}
        step, _ = conditional_expectation(delta, filtration.stages[k - 1], space)
        fv.append({w: fv[-1][w] + step[w] for w in space.outcomes})
    mart = [
        {w: Fraction(process[k][w]) - fv[k][w] for w in space.outcomes}
        for k in range(len(process))
    ]
    return mart, fv


# ---------------------------------------------------------------------------
# product space, decoupling measure, likelihood, compensation

ProductOutcome = tuple[Outcome, Outcome]


@dataclass(frozen=True)
class Cell:
    """One block F_a × H_b of a product stage, with its two masses."""

    f: Block
    h: Block
    pbar: Fraction   # P(F_a ∩ H_b): the diagonal's mass in the rectangle
    qbar: Fraction   # P(F_a)·R(H_b)

    @cached_property
    def z(self) -> Fraction:
        """dp̄/dq̄ on the cell, 0 where q̄ vanishes."""
        return self.pbar / self.qbar if self.qbar else Fraction(0)


@dataclass(frozen=True, eq=False)
class ProductSetup:
    """Ω×Ω with the diagonal push-forward p̄ and the decoupling q̄ = P⊗R.

    Every product-stage block is a rectangle F_a × H_b, so both masses
    factor; ``cells[k]`` maps (F_a, H_b) to its stage-k cell, F-blocks
    outermost, and is the only place the masses are computed.
    """

    space: FiniteOutcomeSpace
    F: FiniteFiltration
    H: FiniteFiltration
    R: dict[Outcome, Fraction] = None  # defaults to P

    def __post_init__(self):
        if len(self.F) != len(self.H):
            raise FiniteLabError("component filtrations must have equal stage counts")
        outcomes = frozenset(self.space.outcomes)
        if self.F.stages[0].universe != outcomes or self.H.stages[0].universe != outcomes:
            raise FiniteLabError("component filtrations must partition the outcome space")
        R = {w: Fraction(v) for w, v in (self.space.prob if self.R is None else self.R).items()}
        if set(R) != outcomes or any(v < 0 for v in R.values()) or sum(R.values(), Fraction(0)) != 1:
            raise FiniteLabError("R must be an exact probability on the same outcomes")
        object.__setattr__(self, "R", R)
        cells = []
        for fk, hk in zip(self.F.stages, self.H.stages):
            r_of = {hb: sum((R[w] for w in hb), Fraction(0)) for hb in hk.blocks}
            stage = {}
            for fa in fk.blocks:
                meet = dict.fromkeys(hk.blocks, Fraction(0))
                for w in fa:
                    meet[hk.block_of(w)] += self.space.prob[w]
                pf = self.space.measure(fa)
                for hb, mass in meet.items():
                    stage[fa, hb] = Cell(fa, hb, mass, pf * r_of[hb])
            cells.append(stage)
        object.__setattr__(self, "cells", tuple(cells))

    @property
    def n_stages(self) -> int:
        return len(self.F)

    def key(self, k: int, w: Outcome, w2: Outcome) -> tuple[Block, Block]:
        """Key in ``cells[k]`` of the cell holding the pair (w, w2); a cell
        of stage k + 1 lies in the stage-k cell of any of its pairs."""
        return self.F.stages[k].block_of(w), self.H.stages[k].block_of(w2)

    def diagonal_stage(self, k: int) -> Partition:
        """Trace of the product stage on the diagonal: the enlarged
        filtration's stage-k partition of Ω."""
        return self.F.stages[k].join(self.H.stages[k])


def enlargement_setup(
    space: FiniteOutcomeSpace,
    F: FiniteFiltration,
    X: Mapping[Outcome, object],
    R: Mapping[Outcome, Fraction] | None = None,
) -> ProductSetup:
    """Initial enlargement by X: second information stream constant σ(X)."""
    h = constant_filtration(partition_from_labels(X), len(F))
    return ProductSetup(space, F, h, None if R is None else dict(R))


def check_absolute_continuity(setup: ProductSetup) -> tuple[bool, tuple[int, Block] | None]:
    """True iff every q̄-null product-stage block is p̄-null; witness on failure."""
    for k, stage in enumerate(setup.cells):
        for c in stage.values():
            if c.qbar == 0 and c.pbar > 0:
                return False, (k, frozenset(itertools.product(c.f, c.h)))
    return True, None


def _require_absolute_continuity(setup: ProductSetup) -> None:
    ok, witness = check_absolute_continuity(setup)
    if not ok:
        raise AbsoluteContinuityError(*witness)


def likelihood_process(setup: ProductSetup) -> list[dict[ProductOutcome, Fraction]]:
    """Stagewise Radon–Nikodym derivative dp̄/dq̄, per product pair."""
    _require_absolute_continuity(setup)
    return [{pair: c.z for c in stage.values() for pair in itertools.product(c.f, c.h)}
            for stage in setup.cells]


def likelihood_is_decoupled_martingale(setup: ProductSetup) -> bool:
    """Exact q̄-martingale property of the likelihood stages: on every
    q̄-charged cell, the q̄-mean of Z_{k+1} over its child cells is Z_k."""
    _require_absolute_continuity(setup)
    for k in range(1, setup.n_stages):
        mass = dict.fromkeys(setup.cells[k - 1], Fraction(0))
        for c in setup.cells[k].values():
            mass[setup.key(k - 1, min(c.f), min(c.h))] += c.qbar * c.z
        for key, c in setup.cells[k - 1].items():
            if c.qbar and mass[key] / c.qbar != c.z:
                return False
    return True


@dataclass(frozen=True)
class GirsanovResult:
    compensated: tuple[dict[Outcome, Fraction], ...]
    compensator: tuple[dict[Outcome, Fraction], ...]
    enlarged: FiniteFiltration
    is_enlarged_martingale: bool


def discrete_girsanov(
    M: Sequence[Mapping[Outcome, Fraction]],
    setup: ProductSetup,
) -> GirsanovResult:
    """Compensates an exact F-martingale so it becomes an exact
    martingale for the enlarged filtration.

    The increment on a stage-(k−1) cell C is E_q̄[ΔZ_k ΔM_k | C] / Z_{k−1}(C)
    = E_q̄[ΔZ_k ΔM_k; C] / p̄(C), summed over C's stage-k cells, and 0 on
    a p̄-null cell; it is read on the diagonal, and the output is verified
    blockwise and exactly.
    """
    if len(M) > setup.n_stages:
        raise FiniteLabError("process has more stages than the setup")
    if not is_exact_martingale(M, setup.F, setup.space):
        raise FiniteLabError("input process is not an exact martingale for its own filtration")
    _require_absolute_continuity(setup)

    outcomes = setup.space.outcomes
    compensator = [dict.fromkeys(outcomes, Fraction(0))]
    for k in range(1, len(M)):
        delta = {w: Fraction(M[k][w]) - Fraction(M[k - 1][w]) for w in outcomes}
        dm, _ = conditional_expectation(delta, setup.F.stages[k], setup.space)
        prev = setup.cells[k - 1]
        num = dict.fromkeys(prev, Fraction(0))
        for c in setup.cells[k].values():
            key = setup.key(k - 1, min(c.f), min(c.h))
            num[key] += c.qbar * (c.z - prev[key].z) * dm[min(c.f)]
        step = {key: num[key] / c.pbar if c.pbar else Fraction(0) for key, c in prev.items()}
        compensator.append({w: compensator[-1][w] + step[setup.key(k - 1, w, w)] for w in outcomes})

    compensated = tuple({w: Fraction(M[k][w]) - compensator[k][w] for w in outcomes} for k in range(len(M)))
    enlarged = FiniteFiltration(tuple(setup.diagonal_stage(k) for k in range(len(M))))
    verified = is_exact_martingale(compensated, enlarged, setup.space)
    return GirsanovResult(compensated, tuple(compensator), enlarged, verified)


# ---------------------------------------------------------------------------
# conditional-law table (discrete absolute-continuity criterion)


@dataclass(frozen=True)
class ConditionalLawReport:
    values: tuple
    law: dict
    tables: tuple            # per stage: {block: {value: Fraction}}
    density_tables: tuple    # per stage: {block: {value: Fraction or None}}
    absolutely_continuous: bool

    def to_json_dict(self) -> dict:
        def render(table):
            return [
                {
                    "block": sorted(b),
                    "row": {str(v): (frac_str(r) if r is not None else "undefined") for v, r in row.items()},
                }
                for b, row in table.items()
            ]

        return {
            "values": [str(v) for v in self.values],
            "law": {str(v): frac_str(p) for v, p in self.law.items()},
            "density_tables": [render(t) for t in self.density_tables],
            "absolutely_continuous": self.absolutely_continuous,
        }


def jacod_discrete_checks(
    space: FiniteOutcomeSpace,
    F: FiniteFiltration,
    X: Mapping[Outcome, object],
) -> ConditionalLawReport:
    """Stagewise conditional distribution of X versus its law.

    For finite-valued X the conditional laws are automatically
    absolutely continuous w.r.t. the law of X; the density table
    r_k(block, x) = P(X=x | block)/P(X=x) is reported per stage.
    """
    values = tuple(sorted({X[w] for w in space.outcomes}, key=str))
    law = {v: space.measure(frozenset(w for w in space.outcomes if X[w] == v)) for v in values}
    tables = []
    density = []
    abs_cont = True
    for p in F.stages:
        table: dict = {}
        dens: dict = {}
        for b in p.blocks:
            mass = space.measure(b)
            row: dict = {}
            drow: dict = {}
            for v in values:
                hit = frozenset(w for w in b if X[w] == v)
                q = space.measure(hit) / mass if mass > 0 else Fraction(0)
                row[v] = q
                if law[v] == 0:
                    if q != 0:
                        abs_cont = False
                    drow[v] = None
                else:
                    drow[v] = q / law[v]
            table[b] = row
            dens[b] = drow
        tables.append(table)
        density.append(dens)
    return ConditionalLawReport(values, law, tuple(tables), tuple(density), abs_cont)


def jacod_identity_holds(setup: ProductSetup, X: Mapping[Outcome, object],
                         report: ConditionalLawReport) -> bool:
    """Jacod's identity for ``enlargement_setup(space, F, X)`` with R = P:
    the likelihood on the cell A × {X=x} is the density r_k(A, x) of
    ``jacod_discrete_checks(space, F, X)`` wherever P(X=x) > 0."""
    for k, stage in enumerate(setup.cells):
        for c in stage.values():
            x = X[min(c.h)]
            if report.law[x] > 0 and report.density_tables[k][c.f][x] != c.z:
                return False
    return True


def countable_enlargement_reduces(
    F: FiniteFiltration,
    events: Sequence[Block],
) -> bool:
    """Enlarging by a disjoint family of events equals enlarging by the
    single discrete variable that indexes them."""
    universe = F.stages[0].universe
    seen: set = set()
    for a in events:
        if seen & set(a):
            raise FiniteLabError("events must be mutually disjoint")
        seen |= set(a)
    X = {w: 0 for w in universe}
    for n, a in enumerate(events, start=1):
        for w in a:
            X[w] = n
    by_x = initial_enlargement(F, X)
    blocks = [frozenset(a) for a in events]
    rest = frozenset(universe - seen)
    if rest:
        blocks.append(rest)
    by_events = FiniteFiltration(tuple(p.join(Partition(tuple(blocks))) for p in F.stages))
    return by_x.stages == by_events.stages


# ---------------------------------------------------------------------------
# instance text format + random instances


_FRACTION = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def _parse_fraction(tok: str) -> Fraction:
    m = _FRACTION.match(tok)
    if not m:
        raise FiniteLabError(f"bad rational literal {tok!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def parse_instance(text: str):
    """Structured text instance: outcomes, exact probabilities, filtration
    stages as block lists, X as a label mapping.

        outcomes: a b c d
        prob: 1/4 1/4 1/4 1/4
        stage: {a,b} {c,d}
        stage: {a} {b} {c} {d}
        X: a=1 b=1 c=0 d=0
    """
    outcomes: tuple[str, ...] | None = None
    probs: list[Fraction] | None = None
    stages: list[Partition] = []
    x_map: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "outcomes":
            outcomes = tuple(rest.split())
        elif key == "prob":
            probs = [_parse_fraction(t) for t in rest.split()]
        elif key == "stage":
            blocks = re.findall(r"\{([^}]*)\}", rest)
            stages.append(
                Partition(tuple(frozenset(t.strip() for t in b.split(",")) for b in blocks))
            )
        elif key == "x":
            for pair in rest.split():
                w, _, v = pair.partition("=")
                x_map[w] = v
        else:
            raise FiniteLabError(f"unknown instance key {key!r}")
    if outcomes is None or probs is None or not stages or not x_map:
        raise FiniteLabError("instance needs outcomes, prob, at least one stage, and X")
    if len(probs) != len(outcomes):
        raise FiniteLabError("prob count does not match outcomes")
    space = FiniteOutcomeSpace(outcomes, dict(zip(outcomes, probs)))
    return space, FiniteFiltration(tuple(stages)), x_map


def random_instance(rng: random.Random):
    """Random small instance: ≤ 8 outcomes, ≤ 3 refining stages, random
    exact rational probabilities (zeros allowed), random finite X."""
    n = rng.randint(2, 8)
    outcomes = tuple(f"w{i}" for i in range(n))
    weights = [rng.randint(0, 6) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    space = FiniteOutcomeSpace(outcomes, {w: Fraction(v, total) for w, v in zip(outcomes, weights)})

    n_stages = rng.randint(1, 3)
    n_groups = rng.randint(1, n)
    assign = [rng.randrange(n_groups) for _ in range(n)]
    groups: dict[int, set] = {}
    for w, g in zip(outcomes, assign):
        groups.setdefault(g, set()).add(w)
    stages = [Partition(tuple(frozenset(g) for g in groups.values()))]
    while len(stages) < n_stages:
        new_blocks = []
        for b in stages[-1].blocks:
            members = sorted(b)
            if len(members) > 1 and rng.random() < 0.6:
                cut = rng.randint(1, len(members) - 1)
                new_blocks.append(frozenset(members[:cut]))
                new_blocks.append(frozenset(members[cut:]))
            else:
                new_blocks.append(b)
        stages.append(Partition(tuple(new_blocks)))
    filtration = FiniteFiltration(tuple(stages))

    n_labels = rng.randint(1, 4)
    X = {w: f"x{rng.randrange(n_labels)}" for w in outcomes}
    return space, filtration, X


def random_adapted_martingale(
    space: FiniteOutcomeSpace,
    filtration: FiniteFiltration,
    rng: random.Random,
) -> list[dict[Outcome, Fraction]]:
    """Random exact F-martingale: draw the terminal stage, condition back."""
    terminal = {w: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for w in space.outcomes}
    adapted_terminal, _ = conditional_expectation(terminal, filtration.stages[-1], space)
    stages = [adapted_terminal]
    for p in reversed(filtration.stages[:-1]):
        prev, _ = conditional_expectation(stages[0], p, space)
        stages.insert(0, prev)
    return stages
