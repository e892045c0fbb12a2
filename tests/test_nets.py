"""Greedy nets and coordinate rounding."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scatter_tsp import Instance, generate, greedy_delta_net, grid_round
from helpers import ref_greedy_delta_net


def test_net_hand_case():
    # line 0 1 2 3 10 with delta 1.5: centers 0 (marks 0,1), 2 (marks 2,3), 10
    inst = Instance.lp([[0.0], [1.0], [2.0], [3.0], [10.0]], p=1.0)
    net = greedy_delta_net(inst, range(5), 1.5)
    assert net.center_ids.tolist() == [0, 2, 4]
    assert net.size() == 3
    assert net.assignment() == {0: 0, 1: 0, 2: 2, 3: 2, 4: 4}
    assert net.preimages[0].tolist() == [0, 1]
    assert net.preimages[2].tolist() == [2, 3]
    assert net.preimages[4].tolist() == [4]


def test_net_assignment_prefers_nearest_then_lowest():
    # point 1 sits at distance 1 from both centers 0 and 2; tie keeps center 0
    inst = Instance.lp([[0.0], [1.0], [2.0], [9.0]], p=1.0)
    net = greedy_delta_net(inst, range(4), 1.0)
    assert net.center_ids.tolist() == [0, 2, 3]
    assert net.assignment()[1] == 0


def test_net_on_a_subset_only():
    inst = Instance.lp([[0.0], [50.0], [0.4], [0.8], [51.0]], p=1.0)
    net = greedy_delta_net(inst, [0, 2, 3], 0.5)
    assert net.subset.tolist() == [0, 2, 3]
    assert net.center_ids.tolist() == [0, 3]
    assert set(net.assignment()) == {0, 2, 3}


def test_net_covering_separation_partition():
    rng = np.random.default_rng(21)
    for trial in range(25):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(10, 80))
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        inst = Instance.lp(pts)
        delta = float(rng.uniform(0.2, 0.8))
        net = greedy_delta_net(inst, range(n), delta)

        centers = net.center_ids
        rows = inst.distance_rows(centers)
        # covering: every point within delta of its assigned center
        for pid, cid in net.assignment().items():
            ci = centers.tolist().index(cid)
            assert rows[ci, pid] <= delta + 1e-12
        # separation: centers pairwise further than delta apart
        cc = rows[:, centers]
        off = cc[~np.eye(len(centers), dtype=bool)]
        assert np.all(off > delta)
        # preimages partition the subset
        all_ids = np.sort(np.concatenate(list(net.preimages.values())))
        assert np.array_equal(all_ids, np.arange(n))


@st.composite
def net_cases(draw):
    """(instance, subset, delta) on every metric branch. Integer grids and
    0/1 vectors give duplicate points and many equidistant centers; subset
    sizes straddle the 64-point block."""
    kind = draw(st.sampled_from(["lp", "hamming", "explicit", "equidistant"]))
    size = draw(st.sampled_from([1, 5, 63, 64, 65, 129]))
    n = max(3, size + draw(st.integers(0, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 4))
    if kind == "hamming":
        inst = Instance.hamming(rng.integers(0, 2, size=(n, dim)))
    elif kind == "equidistant":
        inst = Instance.explicit(1.0 - np.eye(n))
    else:
        if draw(st.booleans()):
            pts = rng.integers(0, 4, size=(n, dim)).astype(float)
        else:
            pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        if draw(st.booleans()):
            # ids in order along the first axis: a later block's centers sit
            # next to an earlier block's, and points between them tie
            pts = pts[np.argsort(pts[:, 0], kind="stable")]
        inst = Instance.lp(pts, draw(st.sampled_from([1.0, 2.0, 3.0, math.inf])))
        if kind == "explicit":
            inst = Instance.explicit(inst.full_matrix())
    subset = np.sort(rng.choice(n, size=size, replace=False))
    delta = draw(st.one_of(st.sampled_from([1e-300, 1e-9, 0.5, 1.0, 2.0, 1e300, math.inf]),
                           st.floats(1e-3, 10.0)))
    return inst, subset, delta


@settings(max_examples=300)
@given(net_cases())
# the first block holds 64 copies of point 0 and makes one center; point 65
# is marked by it at distance 1, and the second block's center 64 is at
# distance 1 too: the earlier center keeps it
@example((Instance.lp([[0.0]] * 64 + [[2.0], [1.0], [5.0]], p=1.0), np.arange(67), 1.0))
def test_net_matches_one_center_at_a_time(case):
    inst, subset, delta = case
    net = greedy_delta_net(inst, subset, delta)
    centers, assigned, preimages = ref_greedy_delta_net(inst, subset, delta)
    assert net.center_ids.dtype == centers.dtype
    assert net.center_ids.tolist() == centers.tolist()
    assert net.assigned.dtype == assigned.dtype
    assert net.assigned.tolist() == assigned.tolist()
    assert list(net.preimages) == list(preimages)
    for c, pts in preimages.items():
        assert net.preimages[c].dtype == pts.dtype
        assert net.preimages[c].tolist() == pts.tolist()


def test_net_rejects_bad_arguments():
    inst = Instance.lp([[0.0], [1.0], [2.0]], p=1.0)
    with pytest.raises(ValueError):
        greedy_delta_net(inst, range(3), 0.0)
    with pytest.raises(ValueError):
        greedy_delta_net(inst, [], 1.0)
    with pytest.raises(ValueError):
        greedy_delta_net(inst, [0, 5], 1.0)


def test_nan_delta_is_refused():
    # NaN passes `delta <= 0`: grid_round then returned NaNs, and the net
    # never marked a point, so its loop ran forever (grid_round goes first,
    # so a regression fails rather than hangs)
    with pytest.raises(ValueError, match="delta must be positive"):
        grid_round([[0.2]], math.nan)
    with pytest.raises(ValueError, match="delta must be positive"):
        greedy_delta_net(generate("uniform", 10, 2, 1), range(10), math.nan)


def test_net_refuses_non_integer_subset():
    inst = Instance.lp([[0.0], [1.0], [2.0]], p=1.0)
    net = greedy_delta_net(inst, [0.0, 2.0], 0.1)
    assert net.subset.tolist() == [0, 2]
    with pytest.raises(ValueError, match="subset indices must be integers"):
        greedy_delta_net(inst, [0.5, 1.7, 2.2], 0.1)


def test_grid_round_hand_values():
    pts = [[0.2, 0.74], [-0.3, 1.2]]
    got = grid_round(pts, 0.5)
    assert got.tolist() == [[0.0, 0.5], [-0.5, 1.0]]
    # ties round toward +inf
    assert grid_round([[0.25]], 0.5).tolist() == [[0.5]]
    assert grid_round([[-0.25]], 0.5).tolist() == [[0.0]]
    with pytest.raises(ValueError):
        grid_round(pts, 0.0)
    # pts / inf * inf is 0 * inf: an infinite delta would round every
    # coordinate to NaN
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        grid_round(pts, math.inf)


def test_grid_round_error_bound_and_idempotence():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3):
        pts = rng.uniform(-5.0, 5.0, size=(200, dim))
        delta = 0.3
        snapped = grid_round(pts, delta)
        assert np.max(np.abs(snapped - pts)) <= delta / 2 + 1e-12
        assert np.allclose(grid_round(snapped, delta), snapped)
        # snapped coordinates lie on the grid
        assert np.allclose(np.round(snapped / delta) * delta, snapped)
