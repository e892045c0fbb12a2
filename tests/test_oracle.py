"""Exact small-instance solvers used to certify everything else."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scatter_tsp import (
    Instance,
    oracle,
    brute_force_mstsp,
    generate,
    is_hamiltonian,
    meets_threshold,
    scatter,
)
from scatter_tsp.oracle import _HamDP, _layer_plan
from helpers import (
    brute_scatter,
    cube_graph,
    k33,
    naive_hamiltonian,
    ref_brute_force,
    ref_ham_table,
    ring10,
    two_k33,
)


def test_oracle_matches_permutation_search():
    cases = [generate("uniform", 6, 2, seed=s) for s in range(4)]
    cases.append(generate("uniform", 7, 3, seed=9, p=1.0))
    cases.append(generate("uniform", 7, 2, seed=10, p=math.inf))
    cases.append(Instance.hamming([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]))
    for inst in cases:
        want, _ = brute_scatter(inst)
        got = brute_force_mstsp(inst)
        assert got.opt == pytest.approx(want, abs=1e-12)
        assert scatter(inst, got.tour) == pytest.approx(got.opt, abs=1e-12)
        # whatever order the search probes in, the tour is the first
        # Hamiltonian cycle of the threshold graph at the optimum
        adj = meets_threshold(inst.full_matrix(), got.opt)
        np.fill_diagonal(adj, False)
        assert got.tour.tolist() == is_hamiltonian(adj).tolist()


def test_oracle_unique_optimum_rectangle():
    # 2 x 1 rectangle: only the figure-eight order keeps every edge >= 2
    inst = Instance.lp([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    got = brute_force_mstsp(inst)
    assert got.opt == 2.0
    assert got.tour.tolist() == [0, 1, 3, 2]


def test_oracle_tie_break_is_lexicographic():
    # unit square: every cyclic order scores 1, the identity wins the tie
    inst = Instance.lp([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    got = brute_force_mstsp(inst)
    assert got.opt == 1.0
    assert got.tour.tolist() == [0, 1, 2, 3]


def test_oracle_threshold_graphs_compare_exactly():
    # one pair sits 1e-10 below every other: inside a relative tolerance of
    # 1e-9, but a tour can avoid it, so OPT is the larger distance
    near = 1.0 + 1e-10
    m = np.full((4, 4), near)
    np.fill_diagonal(m, 0.0)
    m[1, 2] = m[2, 1] = 1.0
    inst = Instance.explicit(m)
    want, want_tour = brute_scatter(inst)
    assert want == near
    got = brute_force_mstsp(inst)
    assert got.opt == want
    assert got.tour.tolist() == want_tour == [0, 1, 3, 2]


def test_oracle_size_cap():
    with pytest.raises(ValueError):
        brute_force_mstsp(generate("uniform", 17, 2, seed=0))


def test_oracle_reads_its_own_thresholds():
    # it checks the threshold graphs and the candidate sweep, so it uses
    # neither
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({"graphs", "candidate_distances"})


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_oracle_refuses_overflowing_distances():
    inst = Instance.lp([[0.0, 0.0], [1e200, 0.0], [0.0, 1e200], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        brute_force_mstsp(inst)


def _cycle_adj(n, extra=()):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    for (u, v) in extra:
        adj[u, v] = adj[v, u] = True
    return adj


def test_is_hamiltonian_cases():
    assert is_hamiltonian(_cycle_adj(5)).tolist() == [0, 1, 2, 3, 4]
    assert is_hamiltonian(~np.eye(4, dtype=bool)).tolist() == [0, 1, 2, 3]

    path = _cycle_adj(5)
    path[0, 4] = path[4, 0] = False
    assert is_hamiltonian(path) is None

    petersen = np.zeros((10, 10), dtype=bool)
    for i in range(5):
        petersen[i, (i + 1) % 5] = petersen[(i + 1) % 5, i] = True
        petersen[5 + i, 5 + (i + 2) % 5] = petersen[5 + (i + 2) % 5, 5 + i] = True
        petersen[i, 5 + i] = petersen[5 + i, i] = True
    assert is_hamiltonian(petersen) is None


def test_is_hamiltonian_matches_naive_search():
    rng = np.random.default_rng(14)
    found = 0
    for _ in range(30):
        n = int(rng.integers(4, 11))
        adj = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = adj | adj.T
        got = is_hamiltonian(adj)
        assert (got is not None) == naive_hamiltonian(adj)
        if got is not None:
            found += 1
            assert sorted(got.tolist()) == list(range(n))
            assert all(adj[got[i], got[(i + 1) % n]] for i in range(n))
    assert found >= 3


def test_is_hamiltonian_input_validation():
    with pytest.raises(ValueError):
        is_hamiltonian(np.zeros((25, 25), dtype=bool))
    with pytest.raises(ValueError):
        is_hamiltonian(np.zeros((2, 2), dtype=bool))


def _random_graph(n, p, rng):
    adj = np.triu(rng.random((n, n)) < p, 1)
    return adj | adj.T


@pytest.mark.parametrize("chunk", [oracle._CHUNK, 64])
def test_layer_steps_match_the_per_vertex_table(monkeypatch, chunk):
    # at the module's chunk a step is a whole layer up to n = 16 and a run
    # of masks sharing their top bits at n = 17 and 18; at 64 masks a step
    # every layer of more than 64 masks is split
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rng = np.random.default_rng(8)
    graphs = [_random_graph(n, p, rng) for n in range(3, 19) for p in (0.3, 0.6, 0.9)]
    for build in (k33, cube_graph, ring10, two_k33):
        g = build()
        adj = np.zeros((g.n, g.n), dtype=bool)
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = True
        graphs.append(adj)
    for adj in graphs:
        assert np.array_equal(_HamDP(adj, _layer_plan(len(adj))).c, ref_ham_table(adj))


def test_layer_plan_covers_every_mask_once_in_small_steps():
    for n in (3, 9, 16, 17, 18):
        dtype = np.uint16 if n <= 17 else np.uint32
        plan = list(_layer_plan(n))
        for masks, members, subs in plan:
            assert masks.dtype == subs.dtype == dtype and members.dtype == np.uint8
            assert len(masks) <= oracle._CHUNK
            # row i: each mask's i-th smallest vertex u, and mask - u
            assert np.all(members[:-1] < members[1:])
            assert np.array_equal(subs, masks - (1 << (members.astype(masks.dtype) - 1)))
        masks = np.concatenate([m for m, _, _ in plan])
        assert np.array_equal(np.sort(masks), np.arange(1, 1 << (n - 1)))
    # brute_force_mstsp holds one step per layer, built once per call
    plan = list(_layer_plan(16))
    assert [len(masks) for masks, _, _ in plan] == [math.comb(15, k) for k in range(1, 16)]
    assert sum(a.nbytes for step in plan for a in step) < 2 ** 20


def test_oracle_matches_reference_binary_search():
    rng = np.random.default_rng(21)
    cases = []
    for n in (3, 5, 8, 11, 14, 16):
        cases.append(generate("uniform", n, 2, seed=n))
        cases.append(generate("clustered", n, 3, seed=n, p=1.0))
        cases.append(generate("uniform", n, 2, seed=n + 1, p=math.inf))
        cases.append(Instance.hamming(rng.integers(0, 2, size=(n, 6))))
        # small integer entries: many ties, no triangle inequality
        m = np.triu(rng.integers(1, 6, size=(n, n)).astype(float), 1)
        cases.append(Instance.explicit(m + m.T))
    for inst in cases:
        got = brute_force_mstsp(inst)
        want_opt, want_tour = ref_brute_force(inst)
        assert got.opt == want_opt
        assert got.tour.tolist() == want_tour


def test_is_hamiltonian_at_the_cap():
    # 24 vertices, a table of 2^23 masks: the plan is streamed in steps of
    # at most _CHUNK masks; the per-(layer, vertex) loop it replaced peaked
    # at 181 MiB on this graph, the table alone takes 32 MiB
    adj = _random_graph(24, 0.3, np.random.default_rng(5))
    tracemalloc.start()
    try:
        got = is_hamiltonian(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(got.tolist()) == list(range(24))
    assert all(adj[got[i], got[(i + 1) % 24]] for i in range(24))
    # the lexicographically smallest cycle, as the per-vertex loop found it
    assert got.tolist() == [0, 3, 7, 1, 2, 9, 5, 10, 11, 4, 6, 12, 18, 21, 14,
                            15, 20, 16, 23, 19, 17, 13, 22, 8]
    assert peak < 96 * 2 ** 20
