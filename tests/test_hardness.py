"""Gap instances from cubic bipartite graphs via first-order parity codes."""

import itertools

import numpy as np
import pytest

from scatter_tsp import (
    CubicBipartiteGraph,
    candidate_distances,
    edge_color_cubic_bipartite,
    embed,
    gap_check,
    maximize_scatter,
    read_cubic_graph,
    reed_muller,
    scatter,
    write_cubic_graph,
)
from helpers import cube_graph, k33, ring10, two_k33

ALL_GRAPHS = [k33, cube_graph, ring10, two_k33]


def test_code_book_frozen_words():
    book = reed_muller(2)
    rows = ["".join(map(str, w)) for w in book.words.tolist()]
    assert rows == ["0000", "0101", "0011", "0110"]
    assert book.m == 2
    assert book.distance == 2


def test_code_book_equidistance_no_complements():
    for m in (1, 2, 3, 4, 6):
        b = reed_muller(m)
        size = 1 << m
        assert b.words.shape == (size, size)
        assert not b.words[0].any()
        d = (b.words[:, None, :] != b.words[None, :, :]).sum(axis=2)
        off = ~np.eye(size, dtype=bool)
        assert (d[off] == size // 2).all()
        assert (d[off] < size).all()   # no pair of complementary words


def test_code_book_rejections():
    for bad in (0, 21, -3, 2.5, True):
        with pytest.raises(ValueError):
            reed_muller(bad)


def test_cubic_graph_constructor_guards():
    with pytest.raises(ValueError):  # two triangles: odd cycles
        CubicBipartiteGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(ValueError):  # K4 is cubic but has odd cycles
        CubicBipartiteGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):  # degree 2 everywhere
        CubicBipartiteGraph(6, [(0, 3), (0, 4), (1, 3), (1, 4)])
    with pytest.raises(ValueError):  # loop
        CubicBipartiteGraph(6, [(0, 0)] + [(u, v) for u in range(3)
                                           for v in range(3, 6)])
    with pytest.raises(ValueError):  # odd vertex count
        CubicBipartiteGraph(5, [(0, 1)])
    # refused before the per-vertex lists, which would not fit in memory
    with pytest.raises(ValueError, match="has 150000000000 edges, got 1"):
        CubicBipartiteGraph(10 ** 11, [(0, 1)])


def test_cubic_graph_refuses_non_integer_ids():
    k33_edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    assert CubicBipartiteGraph(6, k33_edges).edges == k33_edges
    with pytest.raises(ValueError):  # would be truncated to (0, 3)
        CubicBipartiteGraph(6, [(0.5, 3)] + k33_edges[1:])
    for n in (6.0, np.float64(6), "6", True):
        with pytest.raises(ValueError):
            CubicBipartiteGraph(n, k33_edges)


def test_sides_two_color_the_graph():
    for build in ALL_GRAPHS:
        g = build()
        assert sorted(np.bincount(g.side).tolist()) == [g.n // 2, g.n // 2]
        for (u, v) in g.edges:
            assert g.side[u] != g.side[v]
        assert g.side[0] == 0


def test_edge_coloring_is_a_partition_into_perfect_matchings():
    for build in ALL_GRAPHS:
        g = build()
        colors = edge_color_cubic_bipartite(g)
        assert len(colors) == 3
        assert sorted(e for c in colors for e in c) == g.edges
        for c in colors:
            assert len(c) == g.n // 2
            assert sorted(v for e in c for v in e) == list(range(g.n))


def test_k33_embedding_distances():
    lab, inst = embed(k33())
    assert lab.m == 2
    assert lab.labels.shape == (6, 12)  # three matchings of four-bit words
    adj = {tuple(sorted(e)) for e in k33().edges}
    for (u, v) in itertools.combinations(range(6), 2):
        d = float(np.abs(lab.labels[u].astype(int) - lab.labels[v].astype(int)).sum())
        want = 8.0 if (u, v) in adj else 6.0
        assert d == want, (u, v, d)
    assert candidate_distances(inst).tolist() == [6.0, 8.0]


def test_gap_dichotomy_on_the_graph_family():
    for build, ham, m in [(k33, True, 2), (cube_graph, True, 2),
                          (ring10, True, 3), (two_k33, False, 3)]:
        rep = gap_check(build())
        width = 1 << m
        assert rep.m == m
        assert rep.is_hamiltonian == ham
        assert rep.ratio == 0.75
        assert rep.opt == (2.0 * width if ham else 1.5 * width)
        _, inst = embed(build())
        assert candidate_distances(inst).tolist() == [1.5 * width, 2.0 * width]


def test_approximation_below_gap_certifies_hamiltonicity():
    _, inst = embed(k33())
    ell_hat, tour = maximize_scatter(inst, 0.2)
    # a (1 - 0.2) approximation must land above the non-Hamiltonian plateau
    assert scatter(inst, tour) > 6.0
    assert ell_hat == 8.0


def test_graph_file_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    write_cubic_graph(ring10(), path)
    back = read_cubic_graph(path)
    assert back.n == 10
    assert back.edges == ring10().edges
    assert back.side.tolist() == ring10().side.tolist()
    assert path.read_text().splitlines()[0] == "10"


def test_graph_file_rejections(tmp_path):
    for text in ("", "6 0 3 0", "abc", "6\n0 3\n", "4\n0 1\n1 2\n2 3\n3 0\n"):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_cubic_graph(path)
