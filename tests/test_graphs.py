"""Threshold graphs, Euler walks, Hamiltonicity machinery, max flow."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatter_tsp import (
    ContractViolation,
    Instance,
    MetricThresholdView,
    ThresholdGraph,
    bc_lift,
    bondy_chvatal_closure,
    candidate_distances,
    components,
    dirac_hamiltonian,
    eulerian_tour,
    generate,
    meets_threshold,
    normalize_tour,
    one_tree_refutes,
    repair_cycle,
    scatter,
    threshold_graph,
    transport,
)
from helpers import (
    naive_hamiltonian,
    random_dirac_adjacency,
    ref_transport,
    ref_vertex_components,
    ring_far_instance,
)


def test_threshold_graph_hand_case():
    inst = Instance.lp([[0.0], [1.0], [3.0], [6.0]], p=1.0)
    g = threshold_graph(inst, 2.0)
    want = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    assert np.array_equal(g.adjacency, np.array(want, dtype=bool))
    assert g.degrees().tolist() == [2, 2, 3, 3]
    assert g.edge_count() == 5
    assert g.edge_flags([0, 0], [2, 1]).tolist() == [True, False]


def test_threshold_graph_refuses_a_nan_threshold():
    # no distance is >= NaN, so a NaN threshold would give a graph with no
    # edge at all
    inst = Instance.lp([[0.0], [1.0], [3.0]], p=1.0)
    with pytest.raises(ValueError, match="threshold must be nonnegative, got nan"):
        threshold_graph(inst, math.nan)


def test_threshold_graph_tolerance_at_boundary():
    # edge length exactly ell, and just below within relative tolerance
    inst = Instance.lp([[0.0], [1.0], [1.0 - 1e-12]], p=1.0)
    g = threshold_graph(inst, 1.0)
    assert g.edge_flags([0, 0], [1, 2]).all()


def test_metric_view_matches_dense_graph():
    inst = generate("uniform", 30, 2, seed=9)
    ell = 0.4
    dense = threshold_graph(inst, ell)
    view = MetricThresholdView(inst, ell)
    ids = np.array([0, 7, 29])[:, None]
    assert np.array_equal(view.edge_flags(ids, np.arange(30)),
                          dense.edge_flags(ids, np.arange(30)))
    assert np.array_equal(view.degrees(), dense.degrees())
    us = np.array([0, 3, 5])
    vs = np.array([1, 4, 6])
    assert np.array_equal(view.edge_flags(us, vs), dense.edge_flags(us, vs))


def test_threshold_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        ThresholdGraph(np.ones((3, 3), dtype=bool))  # diagonal loops
    with pytest.raises(ValueError):
        ThresholdGraph(np.array([[0, 1], [0, 0]], dtype=bool))
    with pytest.raises(ValueError):
        ThresholdGraph(np.zeros((2, 3), dtype=bool))


def test_eulerian_tour_merges_reversed_pairs_and_zero_counts():
    # (1, 0) adds to (0, 1), (2, 1) is (1, 2), and a count of 0 adds no edge
    merged = eulerian_tour(3, {(0, 1): 1, (1, 0): 1, (2, 1): 2, (0, 2): 0})
    assert merged == eulerian_tour(3, {(0, 1): 2, (1, 2): 2}) == [0, 1, 2, 1, 0]
    assert eulerian_tour(3, {(0, 1): 0}) == [0]
    assert eulerian_tour(1, {}) == [0]
    assert components(5, {(3, 1): 1, (4, 0): 2}) == [{0, 4}, {1, 3}, {2}]


def test_eulerian_tour_refuses_bad_counts():
    # integral floats and numpy integers count as integers
    walk = _check_euler(3, {(0, 1): 2.0, (1, 2): np.int64(2), (0, 2): 2})
    assert all(type(v) is int for v in walk)
    for count in (-1, 1.5):
        with pytest.raises(ValueError, match="count must be a nonnegative integer"):
            eulerian_tour(2, {(0, 1): count})


def test_eulerian_tour_refuses_bad_ends():
    walk = _check_euler(3, {(np.int64(0), 1): 1, (1, 2.0): 1, (0, 2): 1})
    assert all(type(v) is int for v in walk)
    with pytest.raises(ValueError, match="vertices must be integers"):
        eulerian_tour(3, {(0.5, 1): 2})
    with pytest.raises(ValueError, match="self-loop"):
        eulerian_tour(3, {(1, 1): 2})
    for pair in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            eulerian_tour(3, {pair: 2})
    with pytest.raises(ValueError, match="need k >= 1"):
        eulerian_tour(0, {})


def _check_euler(k, counts):
    walk = eulerian_tour(k, counts)
    assert walk[0] == walk[-1]
    used = Counter()
    for a, b in zip(walk, walk[1:]):
        used[(a, b) if a < b else (b, a)] += 1
    assert used == Counter(counts)
    return walk


@st.composite
def vertex_pairs(draw):
    """(k, pairs): repeated pairs, both orders and isolated vertices."""
    k = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                          max_size=2 * k))
    return k, [(u, v) for u, v in pairs if u != v]


@settings(max_examples=150)
@given(vertex_pairs())
def test_components_match_reference(case):
    k, pairs = case
    allowed = np.zeros((k, k), dtype=bool)
    for u, v in pairs:
        allowed[u, v] = allowed[v, u] = True
    want = [set(c) for c in ref_vertex_components(range(k), allowed)]
    assert components(k, pairs) == want
    assert components(k, iter(pairs)) == want  # pairs are read once


def test_components_refuse_ends_out_of_range():
    # a negative end would wrap around to vertex k - 1
    for pairs in ([(0, -1)], [(0, 3)], [(1, 2), (3, 0)]):
        with pytest.raises(ValueError, match="outside 0..2"):
            components(3, pairs)


def test_eulerian_tour_cases():
    tri = {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert len(_check_euler(3, tri)) == 4

    doubled_path = {(0, 1): 2, (1, 2): 2}
    _check_euler(3, doubled_path)

    mixed = {(0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1, (0, 3): 1}
    _check_euler(4, mixed)

    assert eulerian_tour(5, {}) == [0]  # no edges at all
    # isolated vertices around the one component with edges
    assert eulerian_tour(5, {(3, 1): 2}) == [1, 3, 1]

    with pytest.raises(ValueError):
        eulerian_tour(3, {(0, 1): 1})  # odd degrees
    with pytest.raises(ValueError):
        eulerian_tour(4, {(0, 1): 2, (2, 3): 2})  # two components


def _check_cycle(adj, order):
    n = adj.shape[0]
    assert sorted(order.tolist()) == list(range(n))
    assert all(adj[order[i], order[(i + 1) % n]] for i in range(n))


def test_dirac_on_complete_graph():
    adj = ~np.eye(6, dtype=bool)
    _check_cycle(adj, dirac_hamiltonian(ThresholdGraph(adj)))


def test_dirac_on_random_graphs():
    rng = np.random.default_rng(12)
    for n in (7, 16, 41, 80):
        adj = random_dirac_adjacency(n, rng)
        _check_cycle(adj, dirac_hamiltonian(ThresholdGraph(adj)))


def test_dirac_rejects_low_degree():
    adj = np.zeros((6, 6), dtype=bool)
    for i in range(5):
        adj[i, i + 1] = adj[i + 1, i] = True
    adj[5, 0] = adj[0, 5] = True  # plain 6-cycle: degree 2 < 3
    with pytest.raises(ValueError):
        dirac_hamiltonian(ThresholdGraph(adj))


def test_closure_hand_case():
    # K4 minus one edge: the missing pair has degree sum 2 + 2 >= 4
    adj = ~np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = False
    closed, log = bondy_chvatal_closure(ThresholdGraph(adj))
    assert np.array_equal(closed.adjacency, ~np.eye(4, dtype=bool))
    assert log == [(0, 1)]


def test_closure_fixed_point_and_log_replay():
    rng = np.random.default_rng(5)
    for n in (8, 15, 30):
        base = ThresholdGraph(random_dirac_adjacency(n, rng, p=0.5))
        closed, log = bondy_chvatal_closure(base)
        again, log2 = bondy_chvatal_closure(closed)
        assert log2 == []
        assert np.array_equal(again.adjacency, closed.adjacency)
        replay = base.adjacency.copy()
        for (u, v) in log:
            assert not replay[u, v]
            replay[u, v] = replay[v, u] = True
        assert np.array_equal(replay, closed.adjacency)


def test_closure_of_sparse_graph_can_stay_put():
    adj = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        adj[i, (i + 1) % 6] = adj[(i + 1) % 6, i] = True
    closed, log = bondy_chvatal_closure(ThresholdGraph(adj))
    assert log == []
    assert np.array_equal(closed.adjacency, adj)


def test_bc_lift_round_trip():
    rng = np.random.default_rng(77)
    for n in (8, 13, 24, 40, 150):   # 150: repairs read the 64-pair window first
        base = ThresholdGraph(random_dirac_adjacency(n, rng))
        closed, log = bondy_chvatal_closure(base)
        assert closed.edge_count() == n * (n - 1) // 2  # Dirac closes up fully
        cycle = rng.permutation(n)
        lifted = bc_lift(base, log, cycle)
        _check_cycle(base.adjacency, lifted)


def test_bc_lift_input_validation():
    adj = ~np.eye(5, dtype=bool)
    adj[0, 1] = adj[1, 0] = False
    base = ThresholdGraph(adj)
    cycle = [0, 2, 1, 3, 4]
    assert bc_lift(base, [(0, 1)], cycle).tolist()  # degree sum 3+3 >= 5
    with pytest.raises(ValueError):
        bc_lift(base, [(0, 1), (1, 0)], cycle)
    with pytest.raises(ValueError):
        bc_lift(base, [(2, 3)], cycle)  # already a base edge
    with pytest.raises(ValueError):
        bc_lift(base, [(1, 1)], cycle)
    sparse = np.zeros((5, 5), dtype=bool)
    for i in range(4):
        sparse[i, i + 1] = sparse[i + 1, i] = True
    sparse[4, 0] = sparse[0, 4] = True
    with pytest.raises(ValueError):
        bc_lift(ThresholdGraph(sparse), [(0, 2)], cycle)  # degree sum 4 < 5


def test_bc_lift_refuses_bad_vertex_ids():
    # on the 4-cycle, (0, 2) is a valid addition (degree sum 4 >= n); a
    # fractional or wrapped id must not be read as it
    c4 = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        c4[i, (i + 1) % 4] = c4[(i + 1) % 4, i] = True
    cycle = [0, 1, 2, 3]
    assert bc_lift(ThresholdGraph(c4), [(0, 2)], cycle).tolist() == cycle
    for bad in ((0.5, 2), (-4, 2), (4, 2), (0, 2.0000001)):
        with pytest.raises(ValueError):
            bc_lift(ThresholdGraph(c4), [bad], cycle)
    with pytest.raises(ValueError):
        bc_lift(ThresholdGraph(c4), [(0, 2, 1)], cycle)


def test_bc_lift_refuses_a_cycle_off_base_and_log():
    # the cycle's pair (0, 1) is neither a base edge nor logged: the
    # caller's input is at fault, not an internal invariant
    adj = ~np.eye(5, dtype=bool)
    adj[0, 1] = adj[1, 0] = False
    base = ThresholdGraph(adj)
    with pytest.raises(ValueError, match=r"cycle pair \(0, 1\)"):
        bc_lift(base, [], [0, 1, 2, 3, 4])
    _check_cycle(adj, bc_lift(base, [(0, 1)], [0, 1, 2, 3, 4]))


def _lift_instances():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(20, 2))
    for p in (1.0, 2.0, math.inf):
        yield Instance.lp(pts, p=p)
    yield Instance.hamming(rng.integers(0, 2, size=(20, 8)))
    yield Instance.explicit(Instance.lp(pts, p=3.0).full_matrix())


def test_bc_lift_on_view_matches_dense_graph():
    # the largest ell whose closure is complete; its graph is below the
    # Dirac bound, so the lift reads overlay bits on top of the base rows
    for inst in _lift_instances():
        n = inst.n
        for ell in candidate_distances(inst)[::-1].tolist():
            dense = threshold_graph(inst, ell)
            closed, log = bondy_chvatal_closure(dense)
            if closed.edge_count() == n * (n - 1) // 2:
                break
        assert len(log) >= 2 and 2 * int(dense.degrees().min()) < n
        cycle = np.random.default_rng(0).permutation(n)
        lifted = bc_lift(dense, log, cycle)
        assert not np.array_equal(lifted, cycle)
        assert np.array_equal(bc_lift(MetricThresholdView(inst, ell), log, cycle), lifted)
        _check_cycle(dense.adjacency, lifted)


def test_bc_lift_crossing_through_an_earlier_log_edge():
    # a graph below the Dirac bound whose closure is complete (found by a
    # seeded search like criterion 9's): when the lift removes (1, 4) from
    # this cycle, its only crossing uses an edge the log added before it,
    # so a repair on the base alone finds none
    adj = np.zeros((6, 6), dtype=bool)
    for u, v in ((0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5)):
        adj[u, v] = adj[v, u] = True
    base = ThresholdGraph(adj)
    closed, log = bondy_chvatal_closure(base)
    assert log == [(0, 1), (2, 5), (3, 4), (1, 4), (1, 5), (3, 5)]
    cycle = [4, 0, 5, 2, 3, 1]
    lifted = bc_lift(base, log, cycle)
    assert lifted.tolist() == [2, 4, 5, 0, 3, 1]
    _check_cycle(adj, lifted)
    with pytest.raises(ContractViolation, match=r"pair \(4, 1\)"):
        repair_cycle(base, cycle)


def test_repair_cycle_repairs_pairs_with_degree_sum_n():
    repaired = []

    @settings(max_examples=300, derandomize=True)
    @given(n=st.integers(3, 90), p=st.floats(0.2, 0.9), seed=st.integers(0, 2 ** 32 - 1))
    def check(n, p, seed):
        rng = np.random.default_rng(seed)
        adj = np.triu(rng.random((n, n)) < p, 1)
        adj |= adj.T
        cycle = rng.permutation(n)
        # a consecutive pair with degree sum < n becomes an edge; that only
        # raises degrees, so every pair left non-adjacent has sum >= n
        deg = adj.sum(axis=1)
        for u, v in zip(cycle, np.roll(cycle, -1)):
            if not adj[u, v] and deg[u] + deg[v] < n:
                adj[u, v] = adj[v, u] = True
                deg[[u, v]] += 1
        graph = ThresholdGraph(adj)
        out = repair_cycle(graph, cycle)
        _check_cycle(adj, out)
        if not adj[cycle, np.roll(cycle, -1)].all():
            repaired.append(n)
        # a Hamiltonian start comes back as given
        start = np.roll(out, int(rng.integers(n)))[::-1]
        assert repair_cycle(graph, start).tolist() == start.tolist()

    check()
    # 105 of the 300 derandomized examples repair, some past the 64-pair window
    assert len(repaired) >= 80 and max(repaired) > 66


def test_transport_hand_networks():
    # the second phase reroutes through the reverse of arc (0, 0)
    assert transport([1, 1], [1, 1], [0, 0, 1], [0, 1, 0], [1, 1, 1]) == (2, [0, 1, 1])
    # the supply binds below the arc and the demand
    assert transport([1], [5], [0], [0], [3]) == (1, [1])
    # the arc (0, 0) and the demands bind; arc 2 gets what receiver 1 has left
    assert transport([4, 4], [3, 3], [0, 0, 1], [0, 1, 1], [2, 10**9, 10**9]) == (5, [2, 2, 1])
    assert transport([2], [2], [], [], []) == (0, [])
    with pytest.raises(ValueError, match="out of range"):
        transport([1], [1], [0], [1], [1])   # receiver 1 does not exist
    # one arc with two caps, and one tail with two heads
    with pytest.raises(ValueError, match="equal lengths"):
        transport([2], [2], [0], [0], [1, 5])
    with pytest.raises(ValueError, match="equal lengths"):
        transport([1], [1], [0], [0, 0], [1])
    # a negative amount would come back as a negative "maximum flow"
    for supply, demand, caps in ([-1], [1], [1]), ([1], [-1], [1]), ([1], [1], [-1]):
        with pytest.raises(ValueError, match="must be nonnegative"):
            transport(supply, demand, [0], [0], caps)


@st.composite
def transport_problems(draw):
    """(supply, demand, tails, heads, caps) in three shapes, arcs in a drawn
    order (tails not sorted by sender): the hub floor's, 2 c_v on each side
    and binding caps c_u c_v per allowed pair; free amounts, zeros among the
    supplies, demands and caps as often as not; and a matching's unit caps
    on distinct pairs."""
    shape = draw(st.sampled_from(["floor", "free", "unit"]))
    s = draw(st.integers(1, 8))
    if shape == "floor":
        c = draw(st.lists(st.integers(1, 6), min_size=s, max_size=s))
        upper = draw(st.lists(st.booleans(), min_size=s * s, max_size=s * s))
        adj = np.array(upper, dtype=bool).reshape(s, s)
        adj = np.triu(adj, 1) | np.triu(adj, 1).T
        pairs = list(zip(*(x.tolist() for x in np.nonzero(adj))))
        supply = demand = [2 * x for x in c]
        caps = [c[u] * c[w] for u, w in pairs]
    else:
        r = draw(st.integers(1, 8))
        unit = shape == "unit"
        pairs = draw(st.lists(st.tuples(st.integers(0, s - 1), st.integers(0, r - 1)),
                              max_size=3 * max(s, r), unique=unit))
        amounts = (st.just(1) if unit else
                   st.one_of(st.integers(0, 4), st.integers(0, 10 ** 9)))
        supply = draw(st.lists(amounts, min_size=s, max_size=s))
        demand = draw(st.lists(amounts, min_size=r, max_size=r))
        caps = draw(st.lists(amounts, min_size=len(pairs), max_size=len(pairs)))
    order = draw(st.permutations(range(len(pairs))))
    return (supply, demand, [pairs[e][0] for e in order], [pairs[e][1] for e in order],
            [caps[e] for e in order])


@settings(max_examples=400)
@given(transport_problems())
def test_transport_fills_the_first_phase_as_dinic_searches_it(problem):
    # the direct first phase must leave the residual that the phase's
    # search leaves, so every later phase and every arc flow agree
    assert transport(*problem) == ref_transport(*problem)


def unit_matching(left, right, pairs):
    """The (l, r) pairs whose arcs carry flow in a unit-capacity transport
    from `left` senders to `right` receivers: a maximum matching."""
    value, flows = transport([1] * left, [1] * right, [l for l, _ in pairs],
                             [r for _, r in pairs], [1] * len(pairs))
    assert set(flows) <= {0, 1} and value == sum(flows)
    return [e for e, f in zip(pairs, flows) if f]


def test_bipartite_matching_hand_cases():
    # complete 3 x 3: a perfect matching of size 3
    m = unit_matching(3, 3, [(l, r) for l in range(3) for r in range(3)])
    assert len(m) == 3
    assert len({l for l, _ in m}) == 3 and len({r for _, r in m}) == 3

    # path shape: left {0,1} both only like right 0
    assert len(unit_matching(2, 2, [(0, 0), (1, 0)])) == 1
    # a repeated arc carries one unit between them, on the first copy
    assert transport([1, 1], [1, 1], [0, 0, 1], [0, 0, 0], [1, 1, 1]) == (1, [1, 0, 0])

    assert unit_matching(2, 2, []) == []

    # Hall violation: 3 lefts share 2 rights
    assert len(unit_matching(3, 2, [(l, r) for l in range(3) for r in range(2)])) == 2

    with pytest.raises(ValueError, match="out of range"):
        unit_matching(2, 2, [(0, 2)])
    with pytest.raises(ValueError, match="out of range"):
        unit_matching(2, 2, [(-1, 0)])
    # a fractional end is refused, not truncated to vertex 0
    with pytest.raises(ValueError, match="integers"):
        unit_matching(2, 2, [(0.5, 1), (1, 0)])
    assert unit_matching(2, 2, [(1.0, 0), (0, 1)]) == [(1.0, 0), (0, 1)]


def _brute_max_matching(l, mask, used=frozenset()):
    """Size of a maximum matching of left vertices l.. by exhaustive search."""
    if l == len(mask):
        return 0
    best = _brute_max_matching(l + 1, mask, used)
    for r in np.flatnonzero(mask[l]).tolist():
        if r not in used:
            best = max(best, 1 + _brute_max_matching(l + 1, mask, used | {r}))
    return best


def test_bipartite_matching_random_vs_greedy_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = int(rng.integers(1, 9))
        r = int(rng.integers(1, 9))
        mask = rng.random((l, r)) < 0.4
        edges = [(i, j) for i in range(l) for j in range(r) if mask[i, j]]
        m = unit_matching(l, r, edges)
        assert len({a for a, _ in m}) == len(m) == len({b for _, b in m})
        # maximum matching is at least any greedy one
        taken_l, taken_r, greedy = set(), set(), 0
        for (a, b) in edges:
            if a not in taken_l and b not in taken_r:
                taken_l.add(a)
                taken_r.add(b)
                greedy += 1
        assert len(m) >= greedy
        assert len(m) == _brute_max_matching(0, mask)


def test_bipartite_matching_long_augmenting_path():
    # l_i likes r_{i+1} first, then r_i, and l_N likes only r_N: a search
    # that follows first choices must undo a chain of N pairs to place l_N
    n = 1200
    edges = [e for i in range(n) for e in ((i, i + 1), (i, i))] + [(n, n)]
    assert unit_matching(n + 1, n + 1, edges) == [(i, i) for i in range(n + 1)]


def test_normalize_tour_cleans_far_edges():
    inst, tour, ell = ring_far_instance(c=4, k=5, extra=3, seed=0)
    p = 0  # cluster point: ball(p, ell) holds cluster + ring, a majority
    dp = inst.distance_rows([p])[0]
    assert 2 * int(np.sum(~meets_threshold(dp, ell))) > inst.n
    before = tour
    a, b = before, np.roll(before, -1)
    offending = meets_threshold(dp[a], 2 * ell) & meets_threshold(dp[b], 2 * ell)
    assert int(offending.sum()) == 2  # extra - 1 far-far edges by design
    assert meets_threshold(scatter(inst, before), ell)

    after = normalize_tour(inst, before, ell, p)
    a, b = after, np.roll(after, -1)
    still = meets_threshold(dp[a], 2 * ell) & meets_threshold(dp[b], 2 * ell)
    assert not still.any()
    assert meets_threshold(scatter(inst, after), ell)
    assert sorted(after.tolist()) == list(range(inst.n))


def test_normalize_tour_preconditions():
    inst, tour, ell = ring_far_instance(c=4, k=5, extra=3, seed=1)
    far_point = inst.n - 1
    with pytest.raises(ValueError):
        normalize_tour(inst, tour, ell, far_point)  # not a low-degree point
    with pytest.raises(ValueError):
        normalize_tour(inst, tour, 20.0, 0)  # scatter falls below this ell
    with pytest.raises(ValueError):
        normalize_tour(inst, tour, -1.0, 0)


def test_normalize_tour_checks_the_point_index():
    inst, tour, ell = ring_far_instance(c=4, k=5, extra=3, seed=0)
    n = inst.n
    # swap points 0 and n - 1, so that the low-degree point is n - 1
    swap = np.arange(n)
    swap[[0, n - 1]] = [n - 1, 0]
    inst = Instance.lp(inst.points[swap], p=2.0)
    tour = swap[tour]
    out = normalize_tour(inst, tour, ell, n - 1)
    assert sorted(out.tolist()) == list(range(n))
    with pytest.raises(ValueError, match="out of range"):
        normalize_tour(inst, tour, ell, -1)   # no alias of point n - 1
    with pytest.raises(ValueError, match="point index must be integers"):
        normalize_tour(inst, tour, ell, n - 1.5)
    with pytest.raises(ValueError, match="out of range"):
        normalize_tour(inst, tour, ell, n)


def test_normalize_tour_no_op_when_clean():
    inst, tour, ell = ring_far_instance(c=4, k=7, extra=2, seed=2)
    out = normalize_tour(inst, tour, ell, 0)
    again = normalize_tour(inst, out, ell, 0)
    assert np.array_equal(out, again)


def graph_of(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return ThresholdGraph(adj)


def test_one_tree_refutation_hand_cases():
    # the first 1-tree of a cycle is the cycle itself: a tour, no step left
    assert one_tree_refutes(graph_of(6, [(i, (i + 1) % 6) for i in range(6)]), 50) == (False, 1)
    # two triangles: every 1-tree pays for a pair across them
    assert one_tree_refutes(graph_of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
                            50) == (True, 1)
    # K_{2,3}: bipartite with unequal sides
    refuted, steps = one_tree_refutes(graph_of(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)]),
                                      50)
    assert refuted and steps <= 50
    # the Petersen graph has no Hamiltonian cycle, but 2/3 on every edge
    # meets every degree and cut constraint, so no multipliers refute it
    # and the search spends its whole budget
    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                + [(i, 5 + i) for i in range(5)])
    assert one_tree_refutes(graph_of(10, petersen), 40) == (False, 40)
    assert one_tree_refutes(graph_of(2, [(0, 1)]), 40) == (False, 0)
    # a negative budget would come back as a negative count of 1-trees
    for n in (2, 6):
        with pytest.raises(ValueError, match="budget"):
            one_tree_refutes(graph_of(n, [(i, (i + 1) % n) for i in range(n)]), -1)


def test_one_tree_refutes_only_non_hamiltonian_graphs():
    rng = np.random.default_rng(3)
    refuted = hamiltonian = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        adj = np.triu(rng.random((n, n)) < rng.random(), 1)
        adj |= adj.T
        got, steps = one_tree_refutes(ThresholdGraph(adj), 300)
        assert 1 <= steps <= 300
        ham = naive_hamiltonian(adj)
        assert not (got and ham)
        refuted += got
        hamiltonian += ham
    # both kinds are in the sample; on it the 1-tree refutes every
    # non-Hamiltonian graph (111 of 200)
    assert hamiltonian >= 50
    assert refuted == 200 - hamiltonian
