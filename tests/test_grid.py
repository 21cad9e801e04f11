import numpy as np
import pytest

from enlargekit.grid import GridError, TimeGrid, build_grid


def test_uniform_grid_nodes():
    g = build_grid(1.0, 4)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.horizon == 1.0


def test_geometric_refinement_matches_halving_ladder():
    g = build_grid(1.0, 4, singular_point=1.0, refinement_ratio=0.5, depth=3)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 0.875, 0.9375, 0.96875])
    assert g.singular_point == 1.0


def test_nonpositive_horizon_rejected():
    with pytest.raises(GridError):
        build_grid(0.0, 4)
    with pytest.raises(GridError):
        build_grid(-1.0, 4)


def test_negative_singular_point_rejected():
    with pytest.raises(GridError):
        build_grid(1.0, 4, singular_point=-0.5, refinement_ratio=0.5)


def test_auto_depth_reaches_min_step_rule():
    g = build_grid(1.0, 1024, singular_point=1.0, refinement_ratio=0.5)
    assert g.smallest_step <= 1e-6
    # the singular point is never a node and lies beyond the last one
    assert g.nodes[-1] < 1.0
    assert np.all(np.diff(g.nodes) > 0)


def test_singular_point_never_a_node():
    with pytest.raises(GridError):
        TimeGrid(np.array([0.0, 0.5, 1.0]), singular_point=1.0)


def test_interior_singular_point_unsupported():
    with pytest.raises(GridError):
        build_grid(1.0, 4, singular_point=0.5, refinement_ratio=0.5)


def test_singular_point_beyond_horizon_needs_no_refinement():
    g = build_grid(1.0, 4, singular_point=2.0)
    assert g.nodes[-1] == 1.0


def test_include_times_become_exact_nodes():
    g = build_grid(1.0, 1024, singular_point=1.0, refinement_ratio=0.5, include=(0.9,))
    assert g.index_of(0.9) >= 0
    assert np.all(np.diff(g.nodes) > 0)


def test_include_rejects_times_outside_uniform_region():
    with pytest.raises(GridError):
        build_grid(1.0, 4, include=(0.999,), singular_point=1.0, refinement_ratio=0.5)


def test_index_of_rejects_off_grid_times():
    g = build_grid(1.0, 4)
    assert g.index_of(0.75) == 3
    with pytest.raises(GridError):
        g.index_of(0.3)
