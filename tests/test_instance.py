"""Instances: metrics, tours, candidate distances, generators, file format."""

import math

import numpy as np
import pytest

from scatter_tsp import (
    Instance,
    candidate_distances,
    distance,
    generate,
    maximize_scatter,
    meets_threshold,
    read_instance,
    scatter,
    threshold_tolerance,
    tour_edge_lengths,
    validate_tour,
    write_instance,
)

TRI = [[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]


def test_lp_metric_hand_values():
    assert distance(Instance.lp(TRI, p=2.0), 0, 1) == 5.0
    assert distance(Instance.lp(TRI, p=1.0), 0, 1) == 7.0
    assert distance(Instance.lp(TRI, p=math.inf), 0, 1) == 4.0
    got = distance(Instance.lp(TRI, p=3.0), 0, 1)
    assert got == pytest.approx(91.0 ** (1.0 / 3.0), rel=1e-12)


def test_distance_refuses_non_integer_indices():
    inst = Instance.lp([[0.0], [1.0], [3.0]])
    with pytest.raises(ValueError, match="point indices must be integers"):
        distance(inst, 0.5, 2)
    assert distance(inst, np.int64(1), 2.0) == 2.0


def test_lp_rows_match_pointwise():
    inst = generate("uniform", 12, 3, seed=0, p=2.0)
    rows = inst.distance_rows(range(12))
    assert rows.shape == (12, 12)
    assert np.allclose(rows, rows.T)
    assert np.all(np.diag(rows) == 0.0)
    for i in (0, 5, 11):
        for j in (1, 7):
            want = float(np.linalg.norm(inst.points[i] - inst.points[j]))
            assert rows[i, j] == pytest.approx(want, rel=1e-12)


def test_hamming_metric():
    inst = Instance.hamming([[0, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]])
    m = inst.full_matrix()
    want = [[0, 2, 2, 3], [2, 0, 2, 1], [2, 2, 0, 1], [3, 1, 1, 0]]
    assert np.array_equal(m, np.array(want, dtype=float))


def test_explicit_metric_round_trip():
    m = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]
    inst = Instance.explicit(m)
    assert inst.n == 3 and inst.dim == 0
    assert distance(inst, 0, 2) == 2.0


def test_constructor_rejections():
    with pytest.raises(ValueError):
        Instance.lp([[0.0], [1.0]])                       # fewer than 3 points
    with pytest.raises(ValueError):
        Instance.lp(TRI, p=0.5)
    # a JSON integer of 401 digits arrives as a Python int past float64
    with pytest.raises(ValueError, match="requires p to fit in float64"):
        Instance.lp(TRI, p=10 ** 400)
    with pytest.raises(ValueError):
        Instance.lp([[0.0, np.inf], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        Instance.hamming([[0, 2], [1, 0], [0, 0]])
    with pytest.raises(ValueError):
        Instance.explicit([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        Instance.explicit([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        Instance.explicit([[0.5, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        Instance("euclid", points=TRI)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_distances_are_input_errors():
    for bad in (np.inf, np.nan):
        m = 1.0 - np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Instance.explicit(m)
    with pytest.raises(ValueError, match="finite"):
        Instance.explicit(np.where(np.eye(3), 0.0, np.inf))
    # finite coordinates whose distances overflow float64: under l2 the
    # tour 0-1-3-2 has every edge inf, so no ell_hat below inf is an upper
    # bound on the optimum
    overflowing = [([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200], [1.0, 1.0]], 2.0),
                   ([[1.7e308], [-1.7e308], [0.0]], 1.0),
                   ([[1.7e308], [-1.7e308], [0.0]], math.inf)]
    for pts, p in overflowing:
        inst = Instance.lp(pts, p=p)
        with pytest.raises(ValueError, match="non-finite"):
            candidate_distances(inst)
        with pytest.raises(ValueError, match="non-finite"):
            maximize_scatter(inst, 0.25)


def test_triangle_violation_is_computed_from_the_matrix():
    bad = Instance.explicit([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
    assert bad.triangle_violation == "triangle inequality fails: d(0,2) > d(0,1) + d(1,2)"
    assert Instance.explicit(Instance.lp(TRI).full_matrix()).triangle_violation is None
    assert Instance.lp(TRI).triangle_violation is None
    assert Instance.hamming([[0, 1], [1, 0], [1, 1]]).triangle_violation is None


def test_points_are_read_only():
    inst = Instance.lp(TRI)
    with pytest.raises(ValueError):
        inst.points[0, 0] = 7.0


def test_threshold_tolerance_is_relative():
    assert threshold_tolerance(1.0) == 1e-9
    assert threshold_tolerance(1000.0) == pytest.approx(1e-6, rel=1e-12)
    assert threshold_tolerance(1e-3) == 1e-9  # floor at absolute 1e-9
    assert meets_threshold(1.0 - 1e-10, 1.0)
    assert not meets_threshold(1.0 - 1e-8, 1.0)
    got = meets_threshold(np.array([0.5, 1.0, 2.0]), 1.0)
    assert got.tolist() == [False, True, True]


def test_validate_tour():
    assert validate_tour(4, [2, 0, 3, 1]).tolist() == [2, 0, 3, 1]
    with pytest.raises(ValueError):
        validate_tour(4, [0, 1, 2])
    with pytest.raises(ValueError):
        validate_tour(4, [0, 1, 2, 2])
    with pytest.raises(ValueError):
        validate_tour(4, [0, 1, 2, 4])


def test_validate_tour_refuses_non_integer_entries():
    # a fractional entry is an error: truncated, [0.7, 1, 2] would pass as [0, 1, 2]
    assert validate_tour(3, [2.0, 0.0, 1.0]).tolist() == [2, 0, 1]
    with pytest.raises(ValueError, match="tour entries must be integers"):
        validate_tour(3, [0.7, 1, 2])
    with pytest.raises(ValueError, match="tour entries must be integers"):
        validate_tour(3, [math.nan, 1, 2])
    inst = Instance.lp([[0.0], [1.0], [3.0], [6.0], [10.0]], p=1.0)
    with pytest.raises(ValueError):
        scatter(inst, [0.9, 1.2, 2, 3, 4])


def test_tour_lengths_and_scatter():
    inst = Instance.lp([[0.0, 0.0], [3.0, 4.0], [3.0, 0.0]])
    lens = tour_edge_lengths(inst, [0, 1, 2])
    assert lens.tolist() == [5.0, 4.0, 3.0]
    assert scatter(inst, [0, 1, 2]) == 3.0
    lens_inf = tour_edge_lengths(Instance.lp([[0.0, 0.0], [3.0, 4.0],
                                              [3.0, 0.0]], p=math.inf),
                                 [0, 1, 2])
    assert lens_inf.tolist() == [4.0, 4.0, 3.0]


def test_candidate_distances_hand_case():
    inst = Instance.lp([[0.0], [1.0], [3.0], [6.0]], p=1.0)
    got = candidate_distances(inst)
    assert got.tolist() == [1.0, 2.0, 3.0, 5.0, 6.0]


def test_candidate_distances_duplicates_add_zero():
    inst = Instance.lp([[0.0], [0.0], [2.0]], p=1.0)
    assert candidate_distances(inst).tolist() == [0.0, 2.0]


def test_candidate_distances_keeps_near_ties():
    eps = 1e-14
    inst = Instance.lp([[0.0], [1.0], [2.0 + eps], [3.0 + eps]], p=1.0)
    got = candidate_distances(inst)
    # 1.0 appears three times with 1e-14 jitter, as two computed values;
    # both are candidates
    assert np.sum((got > 0.9) & (got < 1.1)) == 2
    full = inst.full_matrix()
    assert np.array_equal(got, np.unique(full[np.triu_indices(4, 1)]))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_grid_of_a_perfect_power_fills_its_cube(dim):
    # the float root of 5 ** 5 rounds past 5: the side is found in integers
    for side in range(2, 13):
        if side ** dim > 40_000:
            break
        pts = generate("grid", side ** dim, dim, seed=0).points
        assert pts.max(axis=0).tolist() == [side - 1] * dim
        assert len(np.unique(pts, axis=0)) == side ** dim
        # one point past the cube takes the next side
        assert generate("grid", side ** dim + 1, dim, seed=0).points.max() == side


def test_generate_kinds_and_determinism():
    a = generate("uniform", 10, 2, seed=3)
    b = generate("uniform", 10, 2, seed=3)
    c = generate("uniform", 10, 2, seed=4)
    assert a == b
    assert a != c
    assert a.points.shape == (10, 2)

    line = generate("line", 5, 2, seed=0)
    assert line.points[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert np.all(line.points[:, 1] == 0.0)

    grid = generate("grid", 6, 2, seed=0)
    assert grid.points.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]

    clus = generate("clustered", 20, 2, seed=1)
    r = np.linalg.norm(clus.points, axis=1)
    assert int(np.sum(r < 1.0)) > 10       # majority sits in the tight cluster
    assert int(np.sum(r >= 10.0)) >= 1

    with pytest.raises(TypeError):
        generate("uniform", 10, 2, seed=0, smell=1.0)
    with pytest.raises(ValueError):
        generate("blob", 10, 2, seed=0)
    with pytest.raises(ValueError):
        generate("uniform", 2, 2, seed=0)


def test_file_round_trip(tmp_path):
    for inst in (generate("uniform", 7, 2, seed=5),
                 generate("uniform", 7, 2, seed=5, p=1.0),
                 generate("uniform", 7, 2, seed=5, p=math.inf),
                 Instance.hamming([[0, 1], [1, 0], [1, 1]]),
                 Instance.explicit([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                    [2.0, 1.0, 0.0]])):
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        assert read_instance(path) == inst


def test_read_rejections(tmp_path):
    path = tmp_path / "bad.json"
    cases = [
        "not json",
        "[1, 2]",
        '{"version": 2, "metric": {"type": "lp"}, "points": [[0],[1],[2]]}',
        '{"version": 1, "points": [[0],[1],[2]]}',
        '{"version": 1, "metric": {"type": "taxicab"}, "points": [[0],[1],[2]]}',
        '{"version": 1, "metric": {"type": "explicit"}}',
        '{"version": 1, "metric": {"type": "lp"}}',
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(ValueError):
            read_instance(path)
