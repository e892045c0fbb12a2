"""Exact small-instance solvers used to certify everything else."""

import ast
import math
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
from helpers import brute_scatter, naive_hamiltonian


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
        n = int(rng.integers(4, 8))
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
