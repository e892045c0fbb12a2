"""The distance layer: one metric kernel for tiles, rows and pairs, the
tiled half-matrix candidate sweep, the degrees of the low-degree scan, the
Dirac cycle on rows computed on demand and the quotient's center graph,
each against the reference versions in helpers.py or the dense rows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatter_tsp import (
    ContractViolation,
    DecisionParams,
    Instance,
    MetricThresholdView,
    ThresholdGraph,
    brute_force_mstsp,
    candidate_distances,
    decide_scatter,
    dirac_hamiltonian,
    find_low_degree_point,
    maximize_scatter,
    meets_threshold,
    repair_cycle,
    scatter,
    threshold_graph,
    tour_edge_lengths,
)
from scatter_tsp.eptas import _center_graph, _dirac_start
from scatter_tsp import instance as instance_module
from scatter_tsp.instance import BLOCK_ROWS, TILE_COLS
from helpers import ref_candidate_distances, ref_dirac_tour

METRICS = ["l1", "l2", "l3", "linf", "hamming", "explicit"]


def make_instance_from(metric, pts):
    if metric == "hamming":
        return Instance.hamming(pts)
    if metric == "explicit":
        return Instance.explicit(Instance.lp(pts, p=2.0).full_matrix())
    return Instance.lp(pts, p=math.inf if metric == "linf" else float(metric[1:]))


def make_instance(metric, n, dim, seed, duplicates, near_ties, lattice):
    """Seeded instance; lattice coordinates give many exactly equal distances."""
    rng = np.random.default_rng(seed)
    if metric == "hamming":
        pts = rng.integers(0, 2, size=(n, dim))
    elif lattice:
        pts = rng.integers(0, 4, size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)
    if duplicates:
        pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
    if near_ties and metric != "hamming":
        # distances within 1e-14 (relatively) of others, each one a candidate
        src = rng.integers(0, n, n // 4)
        pts[rng.integers(0, n, n // 4)] = pts[src] * (1.0 + 1e-14)
    return make_instance_from(metric, pts)


instances = st.builds(
    make_instance,
    metric=st.sampled_from(METRICS),
    n=st.integers(3, 150),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2 ** 32 - 1),
    duplicates=st.booleans(),
    near_ties=st.booleans(),
    lattice=st.booleans(),
)


def off_diagonal_distances(inst):
    """The distinct off-diagonal entries of the full matrix."""
    full = inst.full_matrix()
    return np.unique(full[~np.eye(inst.n, dtype=bool)])


def probe_ells(inst):
    """Candidate distances spread over the range, one just above a candidate,
    and one below the tolerance, where every point meets its own threshold."""
    cand = candidate_distances(inst)
    picks = cand[np.linspace(0, len(cand) - 1, 5).astype(int)]
    return [5e-10, float(cand[-1]) * (1.0 + 1e-6)] + [float(c) for c in picks if c > 0]


@settings(max_examples=80)
@given(inst=instances)
def test_half_row_candidate_sweep_matches_full_rows(inst):
    cand = candidate_distances(inst)
    assert np.array_equal(cand, ref_candidate_distances(inst))
    # the exact distinct distances: a near tie is a candidate of its own
    assert np.array_equal(cand, off_diagonal_distances(inst))


def test_candidate_sweep_crosses_block_edges():
    # n = 64k +- 1 and 2 * 64: pairs straddle the 64-row blocks of the sweep
    for n in (63, 65, 128, 129, 191):
        for metric in METRICS:
            inst = make_instance(metric, n, 3, n, True, True, metric == "l1")
            cand = candidate_distances(inst)
            assert np.array_equal(cand, ref_candidate_distances(inst))
            assert np.array_equal(cand, off_diagonal_distances(inst))


@pytest.mark.parametrize("width", [48, 128])
@pytest.mark.parametrize("metric", METRICS)
def test_sweeps_cross_tile_edges(metric, width, monkeypatch):
    # n = 1, 2 and 3 tile widths, and one either side: pairs straddle the
    # tile columns as well as the 64-row blocks; at width 48 a block's own
    # columns span two tiles
    monkeypatch.setattr(instance_module, "TILE_COLS", width)
    for n in (width - 1, width, width + 1, 2 * width - 1, 2 * width + 1,
              3 * width - 1, 3 * width, 3 * width + 1):
        inst = make_instance(metric, n, 3, n, True, False, metric == "l1")
        assert np.array_equal(candidate_distances(inst), ref_candidate_distances(inst))
        for ell in probe_ells(inst):
            dense = threshold_graph(inst, ell).degrees()
            assert np.array_equal(MetricThresholdView(inst, ell).degrees(), dense)
            degrees = np.empty(n, dtype=np.intp)
            if find_low_degree_point(inst, ell, degrees) is None:
                assert np.array_equal(degrees, dense)


@pytest.mark.parametrize("metric", METRICS)
def test_zero_pair_in_an_off_diagonal_tile(metric, monkeypatch):
    # points 5 and 200 coincide and nothing else does: the pair is read in
    # the first block's second tile, which holds no pair (i, i)
    monkeypatch.setattr(instance_module, "TILE_COLS", 128)
    n = 300
    rng = np.random.default_rng(3)
    if metric == "hamming":
        pts = np.unique(rng.integers(0, 2, size=(2 * n, 16)), axis=0)[:n]
    else:
        pts = rng.normal(size=(n, 3))
    assert candidate_distances(make_instance_from(metric, pts.copy()))[0] > 0.0
    pts[200] = pts[5]
    inst = make_instance_from(metric, pts)
    cand = candidate_distances(inst)
    assert cand[0] == 0.0 and cand[1] > 0.0
    assert np.array_equal(cand, ref_candidate_distances(inst))


@st.composite
def zero_gap_instances(draw):
    """Points spread apart, except a few packed `gap` apart near the origin.

    Whether such a pair lands at computed distance 0 depends on the metric:
    l2 squares 1e-200 to 0, l50 underflows below about 1e-7, l1 and linf
    never do. Hamming instances copy rows, explicit ones take a matrix
    with such underflows in it.
    """
    n = draw(st.sampled_from([63, 65, 129]))
    metric = draw(st.sampled_from(["l1", "l2", "l3", "l50", "linf", "hamming", "explicit"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    packed = rng.choice(n, draw(st.integers(1, 4)), replace=False)
    if metric == "hamming":
        pts = rng.integers(0, 2, size=(n, 16))
        pts[packed] = pts[packed[0]]
        return Instance.hamming(pts)
    gap = draw(st.sampled_from([0.0]) | st.integers(0, 200).map(lambda e: 10.0 ** -e))
    pts = np.column_stack((1.0 + rng.permutation(n), rng.uniform(size=n)))
    pts[packed] = np.arange(len(packed))[:, None] * [gap, 0.0]
    if metric == "explicit":
        return Instance.explicit(Instance.lp(pts, p=50.0).full_matrix())
    return Instance.lp(pts, p=math.inf if metric == "linf" else float(metric[1:]))


@settings(max_examples=120)
@given(inst=zero_gap_instances())
def test_zero_is_a_candidate_exactly_for_a_pair_at_distance_zero(inst):
    # a full matrix holds n diagonal zeros; any further zero is a pair
    zero_pair = np.count_nonzero(inst.full_matrix() == 0.0) > inst.n
    cand = candidate_distances(inst)
    assert (cand[0] == 0.0) == zero_pair
    assert np.array_equal(cand, ref_candidate_distances(inst))


@pytest.mark.parametrize("points, p, opt", [
    ([[0.0], [1e-8], [2e-8], [1.0]], 50.0, 0.0),
    ([[0.0, 0.0], [1e-200, 0.0], [1.0, 0.0], [2.0, 0.0]], 2.0, 1.0),
])
def test_distinct_points_at_computed_distance_zero(points, p, opt):
    # the points differ, but their distance underflows to 0: the identity
    # tour attains only 0, so the sweep must offer 0 as the floor
    inst = Instance.lp(points, p=p)
    assert candidate_distances(inst)[0] == 0.0
    eps = 0.25
    ell_hat, tour = maximize_scatter(inst, eps)
    assert ell_hat == opt
    assert scatter(inst, tour) == opt
    assert scatter(inst, tour) >= (1.0 - eps) * ell_hat
    assert brute_force_mstsp(inst).opt == opt

def test_chained_near_ties_are_kept_whole():
    # distances 6e-13 apart, each a near tie of its predecessor: every one
    # of them is a candidate, since any of them may be the optimum
    n = 12
    vals = 1.0 + np.arange(n * (n - 1) // 2) * 6e-13
    matrix = np.zeros((n, n))
    matrix[np.triu_indices(n, 1)] = vals
    inst = Instance.explicit(matrix + matrix.T)
    got = candidate_distances(inst)
    assert np.array_equal(got, np.unique(vals))
    assert np.array_equal(got, ref_candidate_distances(inst))


@settings(max_examples=60)
@given(inst=instances)
def test_scan_degrees_and_dirac_on_view_match_dense_graph(inst):
    n = inst.n
    for ell in probe_ells(inst):
        dense = threshold_graph(inst, ell).degrees()
        self_edge = int(meets_threshold(0.0, ell))
        low = np.flatnonzero(2 * (n - dense - self_edge) > n)
        degrees = np.full(n, -1, dtype=np.intp)
        p = find_low_degree_point(inst, ell, degrees)
        assert p == (int(low[0]) if len(low) else None)
        view = MetricThresholdView(inst, ell)
        assert np.array_equal(view.degrees(), dense)
        if p is None:
            assert np.array_equal(degrees, dense)
            want = ref_dirac_tour(inst, ell)
            assert np.array_equal(dirac_hamiltonian(view, degrees), want)
            assert np.array_equal(dirac_hamiltonian(view), want)
            # the start decide_scatter picks, repaired alike
            start = _dirac_start(inst, view)
            assert np.array_equal(dirac_hamiltonian(view, degrees, start),
                                  ref_dirac_tour(inst, ell, start))
        else:
            assert 2 * int(dense.min()) < n
            with pytest.raises(ValueError):
                ref_dirac_tour(inst, ell)
            with pytest.raises(ValueError):
                dirac_hamiltonian(view)


def reordered(inst, perm):
    """The same point set with point perm[t] as point t."""
    if inst.metric_kind == "explicit":
        return Instance.explicit(inst.matrix[np.ix_(perm, perm)])
    if inst.metric_kind == "hamming":
        return Instance.hamming(inst.points[perm])
    return Instance.lp(inst.points[perm], p=inst.p)


@pytest.mark.parametrize("metric", ["l1", "l2", "linf", "hamming", "explicit"])
def test_scan_carries_counts_across_blocks(metric):
    # the low points are moved to the end, so the scan reaches them only
    # after blocks whose counts of their columns came from half rows
    n = 200
    inst = make_instance(metric, n, 24 if metric == "hamming" else 3, 11, True, False, False)
    assert candidate_distances(inst)[0] == 0.0
    # point i has a majority within ell once its median distance q[i]
    # falls short of ell; just above the smallest, a few points do
    q = np.sort(inst.full_matrix(), axis=1)[:, n // 2]
    ell = float(q.min()) * (1.0 + 1e-6)
    low = 2 * (n - threshold_graph(inst, ell).degrees()) > n
    assert 0 < low.sum() <= n - 2 * BLOCK_ROWS
    inst = reordered(inst, np.concatenate((np.flatnonzero(~low), np.flatnonzero(low))))
    dense = threshold_graph(inst, ell).degrees()
    want = int(np.flatnonzero(2 * (n - dense) > n)[0])
    assert want >= 2 * BLOCK_ROWS
    assert find_low_degree_point(inst, ell, np.empty(n, dtype=np.intp)) == want
    # below the tolerance every pair meets ell, each point's own included;
    # just above it the duplicate pairs drop out
    for ell in (5e-10, 1e-6, float(candidate_distances(inst)[1])):
        dense = threshold_graph(inst, ell).degrees()
        degrees = np.full(n, -1, dtype=np.intp)
        assert find_low_degree_point(inst, ell, degrees) is None
        assert np.array_equal(degrees, dense)
        assert np.array_equal(MetricThresholdView(inst, ell).degrees(), dense)


@pytest.mark.parametrize("n,far", [(8, 2), (160, 70)])
def test_dirac_repair_segment_wraps_past_the_end(n, far):
    # one bad pair (n - 2, n - 1), and n - 2 has no edge to 0 .. far - 1,
    # so the first crossing pair after it is (far, far + 1) and the
    # reversed segment runs over positions n - 1, 0, ..., far. At far = 70
    # the pair lies past the first BLOCK_ROWS pairs, in the rows of (a, b).
    adj = ~np.eye(n, dtype=bool)
    cut = np.r_[:far, n - 1]
    adj[n - 2, cut] = adj[cut, n - 2] = False
    inst = Instance.explicit(np.where(adj, 2.0, 1.0) - np.eye(n))
    want = [n - 2, *range(far, -1, -1), n - 1, *range(far + 1, n - 2)]
    assert ref_dirac_tour(inst, 2.0).tolist() == want
    assert repair_cycle(ThresholdGraph(adj), np.arange(n)).tolist() == want
    assert dirac_hamiltonian(MetricThresholdView(inst, 2.0)).tolist() == want


def test_repair_cycle_raises_without_a_crossing_pair():
    # the path 0-1-2-3: the closing pair (3, 0) has no crossing rotation
    adj = np.zeros((4, 4), dtype=bool)
    for u in range(3):
        adj[u, u + 1] = adj[u + 1, u] = True
    with pytest.raises(ContractViolation, match="no crossing rotation"):
        repair_cycle(ThresholdGraph(adj), np.arange(4))


def test_dirac_on_view_repairs_like_dense_path():
    # spread points at low thresholds: Dirac probes with many bad pairs
    repaired = 0
    for seed in range(4):
        inst = make_instance("l2", 150, 2, seed, False, False, False)
        for ell in candidate_distances(inst)[::500]:
            degrees = np.empty(inst.n, dtype=np.intp)
            if find_low_degree_point(inst, ell, degrees) is not None:
                continue
            view = MetricThresholdView(inst, ell)
            ident = np.arange(inst.n)
            repaired += int((~view.edge_flags(ident, np.roll(ident, -1))).sum())
            assert np.array_equal(dirac_hamiltonian(view, degrees),
                                  ref_dirac_tour(inst, ell))
    assert repaired > 50


def test_dirac_on_view_repairs_far_crossings_like_dense_path():
    # the four blobs of the large-n Dirac probe, unshuffled: consecutive
    # points mostly share a blob, and most crossing pairs lie far from
    # their repair, on either side of it
    inst = Instance.lp(np.repeat([[0.0, 0.0], [0.4, 0.0], [0.2, 1.0], [0.2, -1.0]],
                                 [96, 6, 48, 50], axis=0))
    assert np.array_equal(dirac_hamiltonian(MetricThresholdView(inst, 0.4)),
                          ref_dirac_tour(inst, 0.4))


def test_view_below_half_degree_raises():
    inst = make_instance("l2", 40, 2, 7, False, False, False)
    top = float(candidate_distances(inst)[-1])
    for ell in (top, 2.0 * top):
        view = MetricThresholdView(inst, ell)
        assert 2 * int(view.degrees().min()) < inst.n
        with pytest.raises(ValueError):
            dirac_hamiltonian(view)


KERNEL_CASES = ([(f"l{p}", dim) for dim in (2, 8, 12, 20) for p in (1, 2, 3)]
                + [("linf", dim) for dim in (2, 8, 12, 20)]
                + [("hamming", 12), ("explicit", 3)])


@pytest.mark.parametrize("metric,dim", KERNEL_CASES)
def test_rows_and_pairs_agree_bit_for_bit(metric, dim):
    # numpy's pairwise sum over >= 8 coordinates rounds differently from a
    # coordinate-by-coordinate sum; both entry points must use the latter
    n = 200
    inst = make_instance(metric, n, dim, dim, False, False, False)
    full = inst.full_matrix()
    assert np.array_equal(full, full.T)
    us, vs = np.triu_indices(n, 1)
    assert np.array_equal(inst.distance_pairs(us, vs), full[us, vs])
    tour = np.random.default_rng(dim).permutation(n)
    assert np.array_equal(tour_edge_lengths(inst, tour), full[tour, np.roll(tour, -1)])
    ell = float(np.median(full[us, vs]))
    dense = threshold_graph(inst, ell)
    view = MetricThresholdView(inst, ell)
    assert np.array_equal(view.edge_flags(us, vs), dense.edge_flags(us, vs))
    ids = np.arange(n)
    assert np.array_equal(view.edge_flags(ids[:, None], ids), dense.adjacency)


def test_dirac_probe_memory_is_linear_in_n():
    # the dense threshold graph alone would be 100 MB at n = 10^4
    inst = Instance.lp(np.vstack([
        np.tile([0.0, 0.0], (4800, 1)), np.tile([0.4, 0.0], (300, 1)),
        np.tile([0.2, 1.0], (2400, 1)), np.tile([0.2, -1.0], (2500, 1))]))
    tracemalloc.start()
    try:
        out = decide_scatter(inst, DecisionParams(0.4, 0.05))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.answer and out.branch == "dirac"
    assert peak < 40 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_low_degree_scan_memory_is_linear_in_n():
    # no point has a majority within ell, so the scan reads every block;
    # the dense threshold graph would take n^2 = 400 MB here
    n = 20_000
    inst = Instance.lp(np.random.default_rng(6).uniform(0.0, 100.0, size=(n, 2)))
    degrees = np.empty(n, dtype=np.intp)
    tracemalloc.start()
    try:
        p = find_low_degree_point(inst, 1.0, degrees)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p is None
    assert peak < 24 * BLOCK_ROWS * n, f"peak {peak / 2 ** 20:.1f} MB"
    assert degrees.min() >= n - 40


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_independent_of_n():
    # four blobs of coincident points, as in the Dirac probe above: a
    # handful of candidates, so the sweeps hold only their buffers. The
    # tile and the kernel's temporary take 8 bytes an entry, the distinct
    # mask or the flags 1; degrees and per-tile values are O(n). The sweeps
    # of 64 half rows that came before tiles peaked at 21-22 MB here.
    n = 20_000
    q = n // 20
    inst = Instance.lp(np.repeat([[0.0, 0.0], [0.4, 0.0], [0.2, 1.0], [0.2, -1.0]],
                                 [9 * q, q, 5 * q, 5 * q], axis=0))
    bound = 20 * BLOCK_ROWS * TILE_COLS + 32 * n
    peak = traced_peak(lambda: candidate_distances(inst))
    assert peak < bound, f"candidate sweep peak {peak / 2 ** 20:.1f} MB"

    peak = traced_peak(lambda: MetricThresholdView(inst, 0.4).degrees())
    assert peak < bound, f"degree sweep peak {peak / 2 ** 20:.1f} MB"


def test_center_graph_memory_is_quadratic_in_k():
    # k rows of n distances would take 48 MB here; the k x k build needs
    # a few k^2 arrays of at most 8 bytes an entry
    n, k = 20_000, 300
    inst = Instance.lp(np.random.default_rng(5).uniform(0.0, 100.0, size=(n, 2)))
    centers = np.arange(0, n, n // k)[:k]
    tau = 50.0
    tracemalloc.start()
    try:
        cc = _center_graph(inst, centers, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * k * k, f"peak {peak / 2 ** 20:.1f} MB"
    dense = meets_threshold(inst.distance_rows(centers)[:, centers], tau)
    np.fill_diagonal(dense, False)
    assert np.array_equal(cc, dense)
    assert 0 < cc.sum() < k * (k - 1)
