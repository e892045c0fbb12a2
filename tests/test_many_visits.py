"""Closed walks with prescribed visit counts over an allowed-edge graph."""

from collections import Counter
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from scatter_tsp import (
    ContractViolation,
    Multiwalk,
    ThresholdGraph,
    VisitSpec,
    components,
    many_visits_tour,
    one_tree_refutes,
)
from scatter_tsp import many_visits
from scatter_tsp.many_visits import (
    _WALK_STATE_CAP,
    _arc_flow,
    _greedy_cycle,
    _short_of_neighbour_visits,
    _walk_dp,
)
from helpers import closed_walk_feasible, ref_arc_flow, ref_walk_dp, validate_multiwalk


def spec_of(edges, visits):
    k = len(visits)
    adj = np.zeros((k, k), dtype=bool)
    for (u, v) in edges:
        adj[u, v] = adj[v, u] = True
    return VisitSpec(adj, visits)


def degrees(k, counts):
    deg = [0] * k
    for (u, v), m in counts.items():
        deg[u] += m
        deg[v] += m
    return deg


def test_visit_spec_validation():
    with pytest.raises(ValueError):
        VisitSpec(np.zeros((2, 3), dtype=bool), [1, 1])
    with pytest.raises(ValueError):
        VisitSpec(np.array([[0, 1], [0, 0]], dtype=bool), [1, 1])
    with pytest.raises(ValueError):
        VisitSpec(np.eye(2, dtype=bool), [1, 1])
    with pytest.raises(ValueError):
        VisitSpec(np.zeros((2, 2), dtype=bool), [1])
    with pytest.raises(ValueError):
        VisitSpec(np.zeros((2, 2), dtype=bool), [1, 0])
    with pytest.raises(ValueError):
        VisitSpec(np.zeros((0, 0), dtype=bool), [])


def test_visit_spec_refuses_non_integer_visits():
    allowed = ~np.eye(3, dtype=bool)
    assert VisitSpec(allowed, [2.0, 1.0, 1.0]).visits == [2, 1, 1]
    with pytest.raises(ValueError, match="visit counts must be integers"):
        VisitSpec(allowed, [1.5, 1, 1])


def test_single_vertex():
    mw = many_visits_tour(spec_of([], [1]))
    assert mw is not None
    validate_multiwalk(spec_of([], [1]), mw)
    assert mw.walk == [0]
    assert many_visits_tour(spec_of([], [2])) is None  # no loops to reuse


def test_two_vertices():
    assert many_visits_tour(spec_of([], [1, 1])) is None  # no edge at all
    mw = many_visits_tour(spec_of([(0, 1)], [1, 1]))
    validate_multiwalk(spec_of([(0, 1)], [1, 1]), mw)
    mw = many_visits_tour(spec_of([(0, 1)], [3, 3]))
    validate_multiwalk(spec_of([(0, 1)], [3, 3]), mw)
    assert many_visits_tour(spec_of([(0, 1)], [2, 1])) is None  # counts clash


def test_star_needs_center_to_match_leaves():
    star = [(0, i) for i in (1, 2, 3)]
    assert many_visits_tour(spec_of(star, [1, 1, 1, 1])) is None
    mw = many_visits_tour(spec_of(star, [3, 1, 1, 1]))  # center between leaves
    validate_multiwalk(spec_of(star, [3, 1, 1, 1]), mw)
    assert many_visits_tour(spec_of(star, [4, 1, 1, 1])) is None


def test_disconnected_support_is_infeasible():
    assert many_visits_tour(spec_of([(0, 1), (2, 3)], [1, 1, 1, 1])) is None
    # no connectivity pass runs first: each tier must answer None alone
    rng = np.random.default_rng(7)
    roots = 0
    for _ in range(40):
        k = int(rng.integers(2, 8))
        cut = int(rng.integers(1, k))  # vertices 0..cut-1 never meet the rest
        adj = np.triu(rng.random((k, k)) < 0.7, 1)
        adj[:cut, cut:] = False
        adj = adj | adj.T
        small = [int(v) for v in rng.integers(1, 4, size=k)]
        large = [int(v) for v in rng.integers(1, 10 ** 6, size=k)]
        # each edge once both ways is a relaxation solution for these counts
        degree = [int(d) for d in adj.sum(axis=1)]
        for visits in (small, large, degree) if min(degree) else (small, large):
            spec = VisitSpec(adj, visits)
            assert many_visits_tour(spec) is None
            if math.prod(v + 1 for v in visits) <= _WALK_STATE_CAP:
                assert not _walk_dp(adj, visits)
            edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(adj)))]
            root = _arc_flow(edges, visits, visits)
            if root is not None:
                roots += 1
                assert many_visits._subtour_branching(spec, edges, root) is None
            assert many_visits._hub_path_cover(spec) == "no_hub"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(many_visits, "_short_of_neighbour_visits",
                           lambda allowed, visits: False)
                mp.setattr(many_visits, "_WALK_STATE_CAP", 0)
                assert many_visits_tour(spec) is None
                mp.setattr(many_visits, "_hub_path_cover", lambda spec: "no_hub")
                assert many_visits_tour(spec) is None
    assert roots >= 10  # the branching ran from 10 disconnected roots


def test_matches_walk_enumeration_on_random_specs():
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(60):
        k = int(rng.integers(2, 5))
        adj = np.triu(rng.random((k, k)) < 0.6, 1)
        adj = adj | adj.T
        visits = [int(v) for v in rng.integers(1, 4, size=k)]
        spec = VisitSpec(adj, visits)
        want = closed_walk_feasible(adj, visits)
        got = many_visits_tour(spec)
        assert (got is not None) == want
        if got is not None:
            validate_multiwalk(spec, got)
            agree += 1
    assert agree >= 5  # the sample contains feasible specs, not only refusals


def test_huge_counts_stay_lazy():
    cyc = [(i, (i + 1) % 6) for i in range(6)]
    visits = [10 ** 6] * 6
    t0 = time.perf_counter()
    mw = many_visits_tour(spec_of(cyc, visits))
    elapsed = time.perf_counter() - t0
    assert mw is not None
    assert elapsed < 1.0
    assert sum(mw.counts.values()) == 6 * 10 ** 6
    assert degrees(6, mw.counts) == [2 * 10 ** 6] * 6
    assert len(components(6, mw.counts)) == 1
    assert mw._walk is None  # the walk was never expanded


def test_huge_counts_certified_infeasible():
    # on a 4-cycle the two low-count vertices throttle the other two
    cyc = [(i, (i + 1) % 4) for i in range(4)]
    assert many_visits_tour(spec_of(cyc, [300, 1, 300, 1])) is None


def test_large_feasible_path_graph():
    path = [(i, i + 1) for i in range(4)]
    visits = [517, 1034, 1034, 1034, 517]
    spec = spec_of(path, visits)
    mw = many_visits_tour(spec)
    assert mw is not None
    assert sum(mw.counts.values()) == sum(visits)
    assert degrees(5, mw.counts) == [2 * v for v in visits]


def test_walk_dp_answer_builds_its_counts_only_when_read():
    spec = spec_of([(0, 1), (1, 2), (0, 2)], [2, 1, 1])
    assert math.prod(v + 1 for v in spec.visits) <= _WALK_STATE_CAP
    mw = many_visits_tour(spec)
    assert mw._counts is None and mw._walk is not None
    assert mw.counts == Counter(tuple(sorted(e)) for e in zip(mw.walk, mw.walk[1:]))
    assert mw._counts is not None


def test_multiwalk_takes_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        Multiwalk(3)
    with pytest.raises(ValueError, match="exactly one"):
        Multiwalk(2, {(0, 1): 2}, [0, 1, 0])
    assert Multiwalk(2, {(0, 1): 2}).walk == [0, 1, 0]
    assert Multiwalk(2, walk=[0, 1, 0]).counts == {(0, 1): 2}


def test_visit_counts_match_walk():
    spec = spec_of([(0, 1), (1, 2), (0, 2)], [2, 1, 1])
    mw = many_visits_tour(spec)
    validate_multiwalk(spec, mw)
    assert Counter(mw.walk[:-1]) == {0: 2, 1: 1, 2: 1}


def test_neighbour_visit_count_lets_an_alternating_walk_pass():
    # path 1 - 0 - 2 with visits [2, 1, 1]: sum(visits) = 2 * visits[0], so
    # the walk 0 1 0 2 alternates and 0 needs only 2 visits next to it
    spec = spec_of([(0, 1), (0, 2)], [2, 1, 1])
    assert not _short_of_neighbour_visits(spec.allowed, spec.visits)
    assert closed_walk_feasible(spec.allowed, spec.visits)
    validate_multiwalk(spec, many_visits_tour(spec))
    # one more visit of 1 breaks the alternation: 0 is now one short
    assert _short_of_neighbour_visits(spec.allowed, [2, 2, 1])


@st.composite
def neighbour_count_specs(draw):
    k = draw(st.integers(2, 7))
    density = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]))
    pairs = k * (k - 1) // 2
    upper = draw(st.lists(st.floats(0, 1), min_size=pairs, max_size=pairs))
    adj = np.zeros((k, k), dtype=bool)
    adj[np.triu_indices(k, 1)] = np.array(upper) < density
    adj |= adj.T
    visits = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    return adj, visits


def test_neighbour_visit_count_refuses_no_feasible_spec():
    refused = []

    @settings(max_examples=400, derandomize=True)
    @given(neighbour_count_specs())
    def check(spec):
        allowed, visits = spec
        short = _short_of_neighbour_visits(allowed, visits)
        refused.append(short)
        if short:
            assert not ref_walk_dp(allowed, visits)
            if sum(visits) <= 14:
                assert not closed_walk_feasible(allowed, visits)

    check()
    # the sample holds refusals and specs that pass, not only one kind
    assert 40 <= sum(refused) <= len(refused) - 40


# vertex 0 is a leaf: each of its 10^5 visits sits between two visits of its
# only neighbour 3, which leaves 3 no arc to the rest. The neighbour-visit
# count refutes it at once: the walk does not alternate between 0 and 3, so
# 0 needs 10^5 + 1 visits next to it and has 10^5. Without that count the
# walk DP is out of range, the relaxation's support is disconnected and no
# vertex is a hub, so the subtour branching refuses it: every arc leaving
# {0, 3} takes a visit of 3 that 0 needs.
LEAF_SPEC = ([(0, 3), (1, 2), (1, 3), (1, 4), (2, 3)], [10 ** 5, 2, 1, 10 ** 5, 1])

# feasible, passes the neighbour-visit count, out of the walk DP's range,
# has no hub, and its relaxation's support is disconnected: only the
# subtour branching can answer it, and it does at its first branch node
BRANCH_SPEC = ([(0, 2), (0, 6), (1, 2), (1, 5), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5),
                (4, 6), (5, 6)], [104, 3, 112, 1, 1, 3, 3])


def test_branching_refuses_leaf_spec(monkeypatch):
    spec = spec_of(*LEAF_SPEC)
    assert _short_of_neighbour_visits(spec.allowed, spec.visits)
    assert many_visits_tour(spec) is None
    monkeypatch.setattr(many_visits, "_short_of_neighbour_visits", lambda allowed, visits: False)
    assert many_visits_tour(spec) is None


def test_branch_spec_reaches_the_branching(monkeypatch):
    spec = spec_of(*BRANCH_SPEC)
    assert not _short_of_neighbour_visits(spec.allowed, spec.visits)
    assert math.prod(v + 1 for v in spec.visits) > _WALK_STATE_CAP
    assert many_visits._hub_path_cover(spec) == "no_hub"
    # the greedy cycle answers it first
    validate_multiwalk(spec, many_visits_tour(spec))
    validate_multiwalk(spec, Multiwalk(spec.k, walk=_greedy_cycle(spec)))
    # without it, the 1-tree cannot refute it and the branching answers
    reached = []
    branching = many_visits._subtour_branching

    def counted(*args):
        reached.append(args)
        return branching(*args)

    monkeypatch.setattr(many_visits, "_greedy_cycle", lambda spec: None)
    monkeypatch.setattr(many_visits, "_subtour_branching", counted)
    mw = many_visits_tour(spec)
    assert len(reached) == 1
    validate_multiwalk(spec, mw)


def test_branching_abort_names_node_budget(monkeypatch):
    # the greedy cycle answers BRANCH_SPEC, and the 1-tree cannot refute a
    # feasible spec, so without the cycle it spends its whole budget
    monkeypatch.setattr(many_visits, "_greedy_cycle", lambda spec: None)
    monkeypatch.setattr(many_visits, "_TREE_STEPS", 3)
    monkeypatch.setattr(many_visits, "_NODE_CAP", 1)
    with pytest.raises(ContractViolation,
                       match=r"subtour branching undecided: k=7, 11 allowed edges; "
                             r"branch nodes > _NODE_CAP=1, after 3 1-tree steps "
                             r"\(_TREE_STEPS=3\)$"):
        many_visits_tour(spec_of(*BRANCH_SPEC))


@st.composite
def branching_specs(draw):
    k = draw(st.integers(2, 7))
    density = draw(st.floats(0, 1))
    pairs = k * (k - 1) // 2
    upper = draw(st.lists(st.floats(0, 1), min_size=pairs, max_size=pairs))
    adj = np.zeros((k, k), dtype=bool)
    adj[np.triu_indices(k, 1)] = np.array(upper) < density
    adj |= adj.T
    # connected specs only; test_disconnected_support_is_infeasible covers
    # the rest
    hops = np.linalg.matrix_power(adj.astype(np.int64) + np.eye(k, dtype=np.int64), k - 1)
    assume(hops[0].all())
    visits = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    return VisitSpec(adj, visits)


def test_branching_matches_walk_dp_and_enumeration():
    # the neighbour-visit count, the greedy cycle, the walk DP, the hub tier
    # and the 1-tree are switched off, so every spec whose relaxation has a
    # disconnected support is decided by the subtour branching
    reached = []
    branching = many_visits._subtour_branching

    def counted(*args):
        reached.append(args)
        return branching(*args)

    # a fixed seed: a derandomized sample is drawn from a digest of this
    # function's source, so any edit to it would draw other specs
    @seed(0)
    @settings(max_examples=400, derandomize=True)
    @given(branching_specs())
    def check(spec):
        assert np.prod([v + 1 for v in spec.visits]) <= _WALK_STATE_CAP
        want = _walk_dp(spec.allowed, spec.visits)
        if sum(spec.visits) <= 14:
            assert closed_walk_feasible(spec.allowed, spec.visits) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(many_visits, "_short_of_neighbour_visits",
                       lambda allowed, visits: False)
            mp.setattr(many_visits, "_greedy_cycle", lambda spec: None)
            mp.setattr(many_visits, "_WALK_STATE_CAP", 0)
            mp.setattr(many_visits, "_hub_path_cover", lambda spec: "no_hub")
            mp.setattr(many_visits, "one_tree_refutes", lambda graph, budget: (False, 0))
            mp.setattr(many_visits, "_subtour_branching", counted)
            got = many_visits_tour(spec)
        assert (got is not None) == want
        if got is not None:
            validate_multiwalk(spec, got)

    check()
    assert len(reached) >= 40  # 65 of the 400 examples at seed 0


def test_greedy_cycle_answers_only_what_the_walk_dp_answers():
    hits = []

    @settings(max_examples=300, derandomize=True)
    @given(branching_specs())
    def check(spec):
        assert np.prod([v + 1 for v in spec.visits]) <= _WALK_STATE_CAP
        walk = _greedy_cycle(spec)
        if walk is not None:
            validate_multiwalk(spec, Multiwalk(spec.k, walk=walk))
            assert _walk_dp(spec.allowed, spec.visits)
            hits.append(max(spec.visits) > 1)
            if sum(spec.visits) <= 14:
                assert closed_walk_feasible(spec.allowed, spec.visits)

    check()
    # Yes answers with twins among them, not only Hamiltonian cycles (127
    # of 152 hits in a run of this file alone)
    assert sum(hits) >= 40


def test_one_tree_refutes_only_infeasible_specs():
    # a numpy sample, not hypothesis: the refutation count below must not
    # move with what else the test run has imported
    rng = np.random.default_rng(5)
    refuted = infeasible = 0
    for _ in range(600):
        k = int(rng.integers(3, 8))
        adj = np.triu(rng.random((k, k)) < rng.choice([0.3, 0.5, 0.7]), 1)
        adj |= adj.T
        visits = [int(v) for v in rng.integers(1, 5, size=k)]
        if _short_of_neighbour_visits(adj, visits):
            continue  # refuted at once; the 1-tree never sees it
        owner = np.repeat(np.arange(k), visits)
        got, steps = one_tree_refutes(ThresholdGraph(adj[np.ix_(owner, owner)]), 100)
        assert steps <= 100
        feasible = _walk_dp(adj, visits)
        assert ref_walk_dp(adj, visits) is feasible
        if sum(visits) <= 14:
            assert closed_walk_feasible(adj, visits) == feasible
        tour = many_visits_tour(VisitSpec(adj, visits))
        assert (tour is not None) == feasible
        if tour is not None:
            validate_multiwalk(VisitSpec(adj, visits), tour)
        assert not (got and feasible)
        refuted += got
        infeasible += not feasible
    # the sample holds infeasible specs that the neighbour-visit count
    # passes, and the 1-tree refutes them (all 39 of them at this seed)
    assert infeasible >= 30
    assert refuted >= infeasible - 5


@pytest.mark.parametrize("allowed, visits", [
    (~np.eye(19, dtype=bool), [1] * 19),        # K19: 2^19 walk-DP states
    (~np.eye(3, dtype=bool), [300, 300, 6]),   # K3: 301 * 301 * 7 states
], ids=["K19", "K3-300-300-6"])
def test_dp_sized_extremes_need_no_walk_dp(monkeypatch, allowed, visits):
    spec = VisitSpec(allowed, visits)
    assert math.prod(v + 1 for v in visits) <= _WALK_STATE_CAP

    def fail(allowed, visits):
        raise AssertionError("the walk DP ran")

    monkeypatch.setattr(many_visits, "_walk_dp", fail)
    validate_multiwalk(spec, many_visits_tour(spec))


@st.composite
def flow_problems(draw):
    """(edges, out_deg, in_deg) as _arc_flow's two callers pose them: the
    relaxation's out = in = visits, or a branch node's residual degrees,
    visits minus the out- and in-degrees of a multiset of forced arcs."""
    k = draw(st.integers(1, 12))
    pairs = k * (k - 1) // 2
    adj = np.zeros((k, k), dtype=bool)
    adj[np.triu_indices(k, 1)] = draw(st.lists(st.booleans(), min_size=pairs,
                                               max_size=pairs))
    edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(adj))]
    visits = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10 ** 9)),
                           min_size=k, max_size=k))
    if not edges or draw(st.booleans()):
        return edges, visits, visits
    arcs = edges + [(v, u) for u, v in edges]
    forced = draw(st.lists(st.sampled_from(arcs), min_size=1, max_size=3 * k))
    out_f = Counter(u for u, _ in forced)
    in_f = Counter(w for _, w in forced)
    visits = [max(visits[v], out_f[v], in_f[v]) for v in range(k)]
    return (edges, [visits[v] - out_f[v] for v in range(k)],
            [visits[v] - in_f[v] for v in range(k)])


@settings(max_examples=300)
@given(flow_problems())
def test_arc_flow_matches_recursive_dinic(problem):
    got = _arc_flow(*problem)
    want = ref_arc_flow(*problem)
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())
