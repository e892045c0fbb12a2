"""The held distance matrix of small instances: lp and hamming instances of
at most BLOCK_ROWS points read every distance from one n x n matrix, and
each read gives the kernel's own values bit for bit."""

import math
import warnings

import numpy as np
import pytest

from scatter_tsp import (
    Instance,
    MetricThresholdView,
    candidate_distances,
    generate,
    maximize_scatter_report,
)
from scatter_tsp.instance import BLOCK_ROWS

HELD_METRICS = ["l1", "l2", "linf", "l3", "hamming"]


def small_instance(metric, n):
    """Clustered points, or random 0/1 vectors, with a duplicate pair."""
    if metric == "hamming":
        pts = np.random.default_rng(n).integers(0, 2, size=(n, 12))
        pts[7] = pts[3]
        return Instance.hamming(pts)
    p = math.inf if metric == "linf" else float(metric[1:])
    pts = generate("clustered", n, 2, n, p=p).points.copy()
    pts[7] = pts[3]
    return Instance.lp(pts, p=p)


def twin(inst, held):
    """A fresh instance on the same points that reads through the kernel
    (held=False) or from a matrix the kernel computed whole (held=True)."""
    other = Instance.lp(inst.points, p=inst.p) if inst.p is not None \
        else Instance.hamming(inst.points)
    every = slice(None)
    m = other._kernel_fill(every, every, np.empty((other.n, other.n))) if held else None
    if m is not None:
        m.setflags(write=False)
    vars(other)["_held"] = m
    return other


@pytest.mark.parametrize("n", [BLOCK_ROWS, BLOCK_ROWS + 1])
@pytest.mark.parametrize("metric", HELD_METRICS)
def test_held_matrix_reads_equal_kernel_reads(metric, n):
    inst = small_instance(metric, n)
    held = n <= BLOCK_ROWS
    other = twin(inst, not held)
    assert (inst._held is not None) == held
    matrix = inst._held if held else other._held
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 1] = 1.0
    ids = np.arange(n)
    some = np.array([n - 1, 0, 5, 3, 7])
    for a, b in ((inst, other), (other, inst)):
        for rows in (ids, some):
            assert np.array_equal(a.distance_rows(rows), b.distance_rows(rows))
        assert np.array_equal(a.distance_pairs(ids[:, None], ids[None, :]),
                              b.distance_pairs(ids, ids[:, None]).T)
        us, vs = np.triu_indices(n, 1)
        assert np.array_equal(a.distance_pairs(us, vs), b.distance_pairs(us, vs))
        assert np.array_equal(a.distance_pairs(some, some[::-1]),
                              b.distance_pairs(some, some[::-1]))
    assert np.array_equal(matrix, inst.full_matrix())
    cand = candidate_distances(inst)
    assert np.array_equal(cand, candidate_distances(other))
    assert cand[0] == 0.0 and not math.copysign(1.0, cand[0]) < 0
    for ell in cand[[1, len(cand) // 3, len(cand) // 2, -1]]:
        # the bounded sweep's select path reads two index arrays per tile
        view, kernel = MetricThresholdView(inst, ell), MetricThresholdView(other, ell)
        assert np.array_equal(view.degrees(), kernel.degrees())
        assert np.array_equal(view.head_degrees(), kernel.head_degrees())
    ell_hat, tour, probes = maximize_scatter_report(inst, 0.5)
    ell_twin, tour_twin, probes_twin = maximize_scatter_report(other, 0.5)
    assert ell_hat == ell_twin and probes == probes_twin
    assert np.array_equal(tour, tour_twin)


def test_explicit_instance_holds_its_own_matrix():
    inst = Instance.explicit(generate("uniform", 5, 2, 1).full_matrix())
    assert inst._held is inst.matrix
    assert not inst._held.flags.writeable


def test_held_matrix_stays_out_of_overflowing_points():
    # the pair (0, 3) overflows float64: the matrix is not built, and a
    # finite pair is read through the kernel without a warning
    inst = Instance.lp([[0.0, 0.0], [1e150, 0.0], [2e150, 0.0], [1e155, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert inst.distance_pairs([0], [1])[0] == 1e150
        assert inst.overflows and inst._held is None
