"""Time grids on [0, horizon], with geometric refinement toward an endpoint
where a drift integrand blows up.

A refined grid never contains the singular time itself: the uniform base
nodes stop one step short and a geometric ladder of shrinking steps
(ratio < 1) walks toward it.  The gap between the last node and the
singular time is the natural exclusion margin for everything downstream
that must not evaluate a drift at the singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

# Auto-chosen refinement depth stops once the smallest step falls below
# this fraction of the horizon.
MIN_STEP_FRACTION = 1e-6

# Relative slack when matching a requested time to a grid node.
NODE_MATCH_RTOL = 1e-9


class GridError(ValueError):
    """Invalid grid construction request."""


def node_index(nodes: np.ndarray, t: float) -> int:
    """Index of the node equal to ``t`` (within relative slack)."""
    i = int(np.argmin(np.abs(nodes - t)))
    if abs(nodes[i] - t) > NODE_MATCH_RTOL * max(1.0, abs(t)):
        raise GridError(f"time {t} is not a grid node")
    return i


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0.

    ``singular_point``, when set, is at or beyond the last node and is
    never itself a node.  ``refinement_ratio`` records the geometric step
    ratio used to approach it.
    """

    nodes: np.ndarray
    singular_point: float | None = None
    refinement_ratio: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GridError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise GridError("grid must start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise GridError("grid nodes must be strictly increasing")
        if self.singular_point is not None:
            if self.singular_point < nodes[-1]:
                raise GridError("singular point below the last node")
            if self.singular_point == nodes[-1]:
                raise GridError("singular point must not be a grid node")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def smallest_step(self) -> float:
        return float(np.min(self.steps))

    def index_of(self, t: float) -> int:
        """Index of the node equal to ``t`` (within relative slack)."""
        return node_index(self.nodes, t)


def build_grid(
    horizon: float,
    n_base: int,
    singular_point: float | None = None,
    refinement_ratio: float | None = None,
    depth: int | None = None,
    include: tuple[float, ...] = (),
) -> TimeGrid:
    """Uniform grid on [0, horizon], optionally geometrically refined
    toward a singular endpoint.

    With ``singular_point == horizon`` the node at the horizon is dropped
    and replaced by the ladder ``horizon - h * ratio**j`` for
    j = 1..depth, h the uniform step.  ``depth`` defaults to the smallest
    value making the final step at most ``MIN_STEP_FRACTION * horizon``.
    A singular point strictly beyond the horizon needs no refinement; one
    strictly inside is not supported.

    ``include`` inserts extra observation times as exact nodes (each must
    fall inside the uniform region).
    """
    if horizon <= 0:
        raise GridError("horizon must be positive")
    if n_base < 2:
        raise GridError("need at least 2 base steps")
    if singular_point is not None and singular_point < 0:
        raise GridError("singular point must be nonnegative")

    base = np.linspace(0.0, horizon, n_base + 1)
    h = horizon / n_base
    if include:
        extras = np.asarray(sorted(set(float(x) for x in include)), dtype=float)
        if np.any(extras <= 0.0) or np.any(extras > horizon - h + 1e-12 * horizon):
            raise GridError("extra nodes must lie inside the uniform region (0, horizon - h]")
        merged = np.union1d(base, extras)
        # collapse near-duplicates from float representations of the same time
        keep = np.concatenate([[True], np.diff(merged) > 1e-12 * max(horizon, 1.0)])
        base = merged[keep]

    if singular_point is None or singular_point > horizon:
        return TimeGrid(base, singular_point, refinement_ratio)

    if singular_point < horizon:
        raise GridError("interior singular point not supported; place it at or beyond the horizon")

    if refinement_ratio is None or not (0.0 < refinement_ratio < 1.0):
        raise GridError("refinement ratio must lie in (0, 1) when refining")

    if depth is None:
        target = MIN_STEP_FRACTION * horizon
        depth = max(1, math.ceil(math.log(target / h) / math.log(refinement_ratio)))
    if depth < 1:
        raise GridError("refinement depth must be at least 1")

    tail = horizon - h * refinement_ratio ** np.arange(1, depth + 1)
    nodes = np.concatenate([base[:-1], tail])
    return TimeGrid(nodes, float(singular_point), float(refinement_ratio))
