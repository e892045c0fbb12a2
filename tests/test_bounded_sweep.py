"""The bounded degree sweep: box pairs of the spatial order that their
corner bounds settle are counted without the distance kernel. Degrees and
low-degree points must equal the dense threshold graph's on every metric,
the pruning must engage where the geometry allows it, and the early exit
of the low-degree scan must stay one block of rows."""

import math
import tracemalloc

import numpy as np
import pytest

from scatter_tsp import (
    DecisionParams,
    Instance,
    MetricThresholdView,
    candidate_distances,
    cli,
    decide_scatter,
    find_low_degree_point,
    maximize_scatter,
    meets_threshold,
    threshold_graph,
)
from scatter_tsp import instance as instance_module

METRICS = ["l1", "l2", "l3", "linf", "hamming", "explicit"]


def make(metric, pts):
    if metric == "hamming":
        return Instance.hamming(pts)
    if metric == "explicit":
        return Instance.explicit(Instance.lp(pts, p=2.0).full_matrix())
    return Instance.lp(pts, p=math.inf if metric == "linf" else float(metric[1:]))


def corner_bounds(inst):
    """Every gap and far bound of the box pairs the sweep forms, or an
    empty array where the bounds are not exact."""
    starts = range(0, inst.n, instance_module.BLOCK_ROWS)
    bounds = inst._box_bounds(inst.spatial_order, starts)
    if bounds is None:
        return np.empty(0)
    return np.unique(np.concatenate([b for box in range(len(starts)) for b in bounds(box)]))


def check_against_dense(inst, ells):
    n = inst.n
    for ell in ells:
        dense = threshold_graph(inst, ell).degrees()
        assert np.array_equal(MetricThresholdView(inst, ell).degrees(), dense), ell
        low = np.flatnonzero(2 * dense < n)
        degrees = np.full(n, -1, dtype=np.intp)
        p = find_low_degree_point(inst, ell, degrees)
        assert p == (int(low[0]) if len(low) else None), ell
        if p is None:
            assert np.array_equal(degrees, dense), ell


def probe_ells(inst, extra=8):
    """Candidates across the range, and box-corner bounds themselves: at
    those a settled box pair's bound lies exactly on the threshold."""
    cand = candidate_distances(inst)
    ells = list(cand[np.linspace(0, len(cand) - 1, 6).astype(int)])
    corners = corner_bounds(inst)
    if len(corners):
        ells += list(corners[np.linspace(0, len(corners) - 1, extra).astype(int)])
        ells += [np.nextafter(c, np.inf) for c in corners[::max(1, len(corners) // 4)]]
    return [float(ell) for ell in ells if ell > 0] + [5e-10]


def spread_points(metric, n, seed):
    rng = np.random.default_rng(seed)
    if metric == "hamming":
        return rng.integers(0, 2, size=(n, 10))
    return rng.normal(size=(n, 3))


@pytest.mark.parametrize("metric", METRICS)
def test_degrees_at_box_corner_bounds(metric):
    inst = make(metric, spread_points(metric, 300, 1))
    check_against_dense(inst, probe_ells(inst))


@pytest.mark.parametrize("metric", METRICS)
def test_coincident_points_fill_whole_boxes(metric):
    # blobs of 64, 128 and 70 copies: most boxes are one point repeated,
    # so their gap and far bounds coincide with the pair distances
    rng = np.random.default_rng(2)
    if metric == "hamming":
        sites = np.unique(rng.integers(0, 2, size=(12, 8)), axis=0)[:4]
    else:
        sites = rng.uniform(-3.0, 3.0, size=(4, 2))
    pts = np.repeat(sites, [64, 128, 70, 30], axis=0)[rng.permutation(292)]
    inst = make(metric, pts)
    check_against_dense(inst, probe_ells(inst))


@pytest.mark.parametrize("metric", ["l1", "l2", "l3", "linf", "explicit"])
def test_large_offsets_with_tiny_spreads(metric):
    # differences of coordinates near 1e8 are rounded at 1.5e-8; the bounds
    # must round the same way the pairs do
    rng = np.random.default_rng(3)
    pts = 1e8 + rng.uniform(0.0, 1e-6, size=(260, 2))
    pts[::7] += 1e-7 * rng.integers(0, 3, size=(len(pts[::7]), 2))
    inst = make(metric, pts)
    check_against_dense(inst, probe_ells(inst, extra=16))


@pytest.mark.parametrize("metric", ["l1", "l2", "l3", "linf", "explicit"])
def test_signed_zeros(metric):
    rng = np.random.default_rng(4)
    pts = rng.choice([-0.0, 0.0, 1e-300, -1e-300, 0.5, -0.5], size=(200, 3))
    inst = make(metric, pts)
    check_against_dense(inst, probe_ells(inst))


@pytest.mark.parametrize("rows,width", [(8, 20), (64, 48), (16, 100)])
@pytest.mark.parametrize("metric", METRICS)
def test_boxes_straddle_tiles(metric, rows, width, monkeypatch):
    # TILE_COLS no multiple of BLOCK_ROWS: a box's columns span two tiles,
    # and a tile holds parts of several boxes
    monkeypatch.setattr(instance_module, "BLOCK_ROWS", rows)
    monkeypatch.setattr(instance_module, "TILE_COLS", width)
    rng = np.random.default_rng(rows + width)
    pts = spread_points(metric, 230, rows)
    pts[rng.integers(0, 230, 40)] = pts[rng.integers(0, 230, 40)]
    inst = make(metric, pts)
    check_against_dense(inst, probe_ells(inst))


def count_kernel_entries(monkeypatch):
    """Counts every distance the instances compute, from any entry point
    that fills a block: tiles, row blocks."""
    counts = [0]
    fill = Instance._fill

    def counting(self, a, b, out, *args, **kwargs):
        counts[0] += out.size
        return fill(self, a, b, out, *args, **kwargs)

    monkeypatch.setattr(Instance, "_fill", counting)
    return counts


def two_clusters(n):
    rng = np.random.default_rng(5)
    half = n // 2
    pts = np.vstack([rng.uniform(0.0, 1.0, size=(half, 2)),
                     rng.uniform(10.0, 11.0, size=(n - half, 2))])
    return Instance.lp(pts[rng.permutation(n)])


def test_pruning_engages_on_two_clusters(monkeypatch):
    # below the gap between the clusters, every pair across them meets ell
    # and none within one does: nearly every box pair is settled
    n = 2000
    inst = two_clusters(n)
    counts = count_kernel_entries(monkeypatch)
    deg = MetricThresholdView(inst, 5.0).degrees()
    assert counts[0] < 0.1 * n * n / 2, counts[0]
    assert np.array_equal(deg, threshold_graph(inst, 5.0).degrees())
    assert sorted(set(deg.tolist())) == [n // 2]


@pytest.mark.parametrize("metric", ["l3", "explicit"])
def test_no_box_pair_is_settled_without_exact_bounds(metric, monkeypatch):
    # a rounded pow need not be monotone, and a matrix has no corners: every
    # box pair goes through the kernel, the half matrix plus the boxes'
    # own pairs, even where the bounds would settle it under l2
    n = 600
    inst = make(metric, two_clusters(n).points)
    rows = instance_module.BLOCK_ROWS
    half = sum(min(rows, n - lo) * (n - lo) for lo in range(0, n, rows))
    counts = count_kernel_entries(monkeypatch)
    deg = MetricThresholdView(inst, 5.0).degrees()
    assert counts[0] == half
    assert sorted(set(deg.tolist())) == [n // 2]


def test_hit_in_the_first_block_reads_one_block_of_rows(monkeypatch):
    # the first points sit in a dense cluster that is most of the set: they
    # are low, and the scan stops after their full rows
    n = 3000
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.uniform(0.0, 0.01, size=(2000, 2)),
                     rng.uniform(5.0, 6.0, size=(n - 2000, 2))])
    inst = Instance.lp(pts)
    counts = count_kernel_entries(monkeypatch)
    assert find_low_degree_point(inst, 1.0, np.empty(n, dtype=np.intp)) == 0
    assert counts[0] <= instance_module.BLOCK_ROWS * n
    assert "spatial_order" not in vars(inst)


def test_bounded_sweep_memory_is_tile_sized():
    # uniform points at about the median distance: most box pairs are read.
    # Tile, kernel temporary and gathered columns take 8 bytes an entry, the
    # flags 1; the order, the boxes and the degrees are O(n)
    n = 20_000
    inst = Instance.lp(np.random.default_rng(7).uniform(0.0, 1.0, size=(n, 2)))
    rows, width = instance_module.BLOCK_ROWS, instance_module.TILE_COLS
    tracemalloc.start()
    try:
        deg = MetricThresholdView(inst, 0.5).degrees()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows * width * 8 + 64 * n, f"peak {peak / 2 ** 20:.1f} MB"
    assert 0 < deg.min() < deg.max() < n - 1


def test_spatial_order_is_a_permutation_grouping_near_points():
    inst = two_clusters(500)
    order = inst.spatial_order
    assert np.array_equal(np.sort(order), np.arange(500))
    # the two clusters split the order at one place, up to one mixed box
    side = inst.points[order, 0] > 5.0
    assert np.count_nonzero(side[1:] != side[:-1]) <= 2 * instance_module.BLOCK_ROWS
    assert np.array_equal(Instance.explicit(inst.full_matrix()).spatial_order, np.arange(500))


# finite points whose l2 distances overflow float64: the tour through the
# four corners has every edge inf
OVERFLOWING = [[0.0, 0.0], [1e155, 0.0], [0.0, 1e155], [1e155, 1e155], [3e154, 0.0]]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_decision_refuses_overflowing_distances():
    inst = Instance.lp(OVERFLOWING)
    assert inst.overflows
    with pytest.raises(ValueError, match="overflows to a non-finite value") as maxi:
        maximize_scatter(inst, 0.5)
    with pytest.raises(ValueError, match="overflows to a non-finite value") as dec:
        decide_scatter(inst, DecisionParams(5e154, 0.5))
    assert str(dec.value) == str(maxi.value)
    # under l3 the cubes overflow first; the bound of the spreads leaves pow
    # room to round, and only then are the tiles read
    assert Instance.lp([[0.0], [1e103], [2e103]], p=3.0).overflows
    assert not Instance.lp([[0.0], [1e102], [2e102]], p=3.0).overflows
    assert not Instance.lp(OVERFLOWING, p=1.0).overflows
    assert not Instance.hamming([[0, 1], [1, 0], [1, 1]]).overflows


def test_large_finite_distances_still_decide():
    inst = Instance.lp([[0.0, 0.0], [1e150, 0.0], [0.0, 1e150], [1e150, 1e150]])
    assert not inst.overflows
    out = decide_scatter(inst, DecisionParams(1e150, 0.5))
    assert out.answer and meets_threshold(out.witness_scatter, 0.5e150)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_decide_cli_exits_2_on_overflowing_distances(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text('{"version": 1, "metric": {"type": "lp", "p": 2}, "points": '
                    + str(OVERFLOWING) + '}')
    code = cli.main(["decide", str(path), "--ell", "5e154", "--epsilon", "0.5"])
    err = capsys.readouterr().err
    assert code == 2 and "non-finite" in err
