"""The hub path-cover tier: its answers, against the reference tier that
refined every component in full, its path search against the eager
list-slicing reference in helpers.py, and its floor against the flow on
the clones themselves."""

import copy
import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scatter_tsp import ContractViolation, Multiwalk, VisitSpec, many_visits
from scatter_tsp.many_visits import (
    _WALK_STATE_CAP,
    _arc_flow,
    _clone_adjacency,
    _clone_components,
    _first_rotation,
    _flow_floor,
    _greedy_paths,
    _hub_path_cover,
    _merge_pass,
    _restart_paths,
    _rotate_merge_once,
    _short_of_neighbour_visits,
    many_visits_tour,
)
from helpers import (
    closed_walk_feasible,
    ref_clone_floor,
    ref_greedy_paths,
    ref_hub_path_cover,
    ref_restart_covers,
    ref_restart_paths,
    ref_rotation_variants,
    ref_vertex_components,
    validate_multiwalk,
)


def clone_graph(quotient, visits):
    """Clone adjacency built the way _hub_path_cover builds it."""
    owner = [v for v in range(len(visits)) for _ in range(visits[v])]
    return _clone_adjacency(quotient, owner)


def assert_matches_reference(adj, restarts=True):
    for comp in ref_vertex_components(range(len(adj.rows)), adj.rows):
        greedy = _greedy_paths(comp, adj)
        ref = ref_greedy_paths(comp, adj.rows)
        assert greedy == ref
        if restarts and len(ref) > 1:  # the tier restarts only covers it could improve
            assert (_restart_paths(comp, adj, greedy, 1)
                    == ref_restart_paths(comp, adj.rows, ref))


def sweep_after_each_rotation(order, adj):
    """Build the cover of `order` step by step: sweeps to their fixed point,
    then rotation merges, asserting that a sweep on a copy merges nothing
    after each one. Returns the cover and its rotation merges."""
    paths = [[v] for v in order]
    while len(paths) > 1 and _merge_pass(paths, adj):
        pass
    rotations = 0
    while len(paths) > 1 and _rotate_merge_once(paths, adj):
        rotations += 1
        assert not _merge_pass(copy.deepcopy(paths), adj)
    return paths, rotations


def draw_quotient(draw, k):
    upper = draw(st.lists(st.booleans(), min_size=k * (k - 1) // 2,
                          max_size=k * (k - 1) // 2))
    quotient = np.zeros((k, k), dtype=bool)
    quotient[np.triu_indices(k, 1)] = upper
    return quotient | quotient.T


@st.composite
def clone_graphs(draw):
    # m stays at most 120 so that the eager reference, which repeats its
    # search up to 200 times in _restart_paths, keeps each example short;
    # test_large_clone_graphs_match_reference covers m >= 300
    k = draw(st.integers(1, 12))
    quotient = draw_quotient(draw, k)
    visits = draw(st.lists(st.integers(1, min(40, 120 // k)), min_size=k, max_size=k))
    return clone_graph(quotient, visits)


@settings(max_examples=40)
@given(clone_graphs())
def test_path_search_matches_reference(adj):
    assert_matches_reference(adj)


@st.composite
def owner_graphs(draw):
    """(owner graph, clone counts) with isolated owners, adjacent to no
    other owner, and twin hubs, adjacent to every other owner."""
    k = draw(st.integers(1, 10))
    quotient = draw_quotient(draw, k)
    for v in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        quotient[v, :] = quotient[:, v] = False
    for v in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        quotient[v, :] = quotient[:, v] = True
        quotient[v, v] = False
    return quotient, draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))


@settings(max_examples=150)
@given(owner_graphs())
def test_clone_components_follow_the_owner_graph(case):
    quotient, visits = case
    rows = clone_graph(quotient, visits).rows
    assert _clone_components(quotient, visits) == ref_vertex_components(range(len(rows)), rows)


def test_each_clone_of_an_isolated_owner_is_a_component():
    # owners 0 and 3 meet owner 1 and owner 2 has no neighbour: owners 0, 1
    # and 3 make one component of clones 0-2 and 6-7, and each clone of
    # owner 2 is one of its own, in the order of the least clone
    quotient = np.array([[0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0]], dtype=bool)
    comps = _clone_components(quotient, [2, 1, 3, 2])
    assert comps == [[0, 1, 2, 6, 7], [3], [4], [5]]


@pytest.mark.parametrize("seed", [2, 3])  # one Hamiltonian path, one 2-path cover
def test_large_clone_graphs_match_reference(seed):
    # restarts repeat the same search on shuffled orders; at this size the
    # reference would spend about 10 s on them, so only one order is compared
    rng = np.random.default_rng(seed)
    k = 12
    quotient = np.triu(rng.random((k, k)) < 0.3, 1)
    quotient |= quotient.T
    visits = rng.integers(20, 41, size=k).tolist()
    assert sum(visits) >= 300
    assert_matches_reference(clone_graph(quotient, visits), restarts=False)


def test_long_paths_match_reference():
    # 665 clones; the greedy cover has a path of 545, and 12 of its 25
    # rotation merges are on paths of at least 300 clones
    rng = np.random.default_rng(17)
    k = 16
    quotient = np.triu(rng.random((k, k)) < 0.2, 1)
    quotient |= quotient.T
    adj = clone_graph(quotient, rng.integers(35, 50, size=k).tolist())
    order = list(range(len(adj.rows)))
    greedy = _greedy_paths(order, adj)
    assert len(order) == 665 and max(map(len, greedy)) == 545
    assert greedy == ref_greedy_paths(order, adj.rows)
    paths, rotations = sweep_after_each_rotation(order, adj)
    assert paths == greedy and rotations == 25


def random_mask(rng, m, density):
    return int.from_bytes(np.packbits(rng.random(m) < density,
                                      bitorder="little").tobytes(), "little")


@settings(max_examples=40)
@given(clone_graphs(), st.integers(0, 2 ** 32 - 1))
def test_first_rotation_is_the_first_reference_variant_that_meets(adj, seed):
    # masks of `others` on the paths of a greedy cover, both ways round:
    # random ones, and one neighbour of a random variant's end that no
    # earlier end has, so that hits come at every depth. The search returns
    # the first of the reference's breadth-first variants whose end meets
    # the mask, or None when none does
    rng = np.random.default_rng(seed)
    m = len(adj.rows)
    for comp in ref_vertex_components(range(m), adj.rows):
        for path in _greedy_paths(comp, adj):
            for base in (path, path[::-1]):
                variants = ref_rotation_variants(base, adj.rows)
                masks = [random_mask(rng, m, d) for d in (0.0, 0.02, 0.5)]
                ends = [adj.bits[q[-1]] for q in variants]
                for j in rng.permutation(len(variants))[:3].tolist():
                    fresh = ends[j] & ~functools.reduce(operator.or_, ends[:j], 0)
                    near = [x for x in range(m) if fresh >> x & 1]
                    if near:
                        masks.append(1 << int(rng.choice(near)))
                for others in masks:
                    first = next((q for q in variants if adj.bits[q[-1]] & others), None)
                    assert _first_rotation(base, adj.rows, adj.bits, others) == first


class CountedRows(list):
    """Adjacency rows that record which vertices' rows were read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, v):
        self.read.append(v)
        return super().__getitem__(v)


@pytest.mark.parametrize("link, rotation", [(1, [0, 4, 3, 2, 1]), (2, [0, 1, 4, 3, 2])])
def test_first_rotation_stops_at_the_queued_end(link, rotation):
    # path 0-1-2-3-4 with chords 4-0 and 4-1: the rotations about pivots 0
    # and 1 are queued in that order, with ends 1 and 2. Vertex 5, another
    # path's end, is adjacent to `link` alone. The hit is queued while the
    # path's own pivots are scanned, so no second variant is scanned, not
    # even the one queued before a hit on end 2
    allowed = np.zeros((6, 6), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 1), (5, link)]:
        allowed[u, v] = allowed[v, u] = True
    adj = _clone_adjacency(allowed, list(range(6)))
    rows = CountedRows(adj.rows)
    assert _first_rotation([0, 1, 2, 3, 4], rows, adj.bits, 1 << 5) == rotation
    assert rows.read == [4]


def with_hub(quotient):
    """The quotient plus a last vertex adjacent to all of it, the hub."""
    k = len(quotient)
    allowed = np.ones((k + 1, k + 1), dtype=bool)
    allowed[:k, :k] = quotient
    np.fill_diagonal(allowed, False)
    return allowed


@st.composite
def small_clone_covers(draw):
    """(allowed, owner, clone list) with at most 8 clones, the list a
    shuffled subset of them; the hub is vertex len(allowed) - 1."""
    k = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))
    allowed = with_hub(draw_quotient(draw, k))
    cverts = draw(st.permutations(range(len(owner))))
    return allowed, owner, cverts[:draw(st.integers(1, len(cverts)))]


def brute_path_cover(cverts, rows):
    # every cover concatenates into an order, and cutting an order at each
    # non-adjacent consecutive pair gives a cover
    return min(1 + sum(not rows[a][b] for a, b in zip(order, order[1:]))
               for order in itertools.permutations(cverts))


@settings(max_examples=80)
@given(small_clone_covers())
def test_class_floor_is_the_clone_floor(case):
    # the flow on owner classes equals the flow on the clones themselves,
    # and the floor it gives never exceeds the minimum cover
    allowed, owner, cverts = case
    adj = _clone_adjacency(allowed, owner)
    floor = _flow_floor(cverts, owner, allowed)
    assert floor == ref_clone_floor(cverts, adj.rows)
    assert floor <= brute_path_cover(cverts, adj.rows)


def test_flow_floor_refutes_a_hamiltonian_path():
    # t = 1 asks for a Hamiltonian path on the 35 clones. Greedy and every
    # restart find 13 paths, while the degree-one count and the cuts by one
    # or two clones certify only 1. The 24 clones of owners 4, 5 and 6 are
    # pairwise non-adjacent with 11 neighbouring clones, which carry at
    # most 22 of their path edges: the flow floor is 13, the greedy count.
    allowed = np.array([[0, 1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0, 1],
                        [1, 0, 0, 1, 0, 1, 0], [1, 0, 1, 0, 1, 0, 1],
                        [1, 0, 0, 1, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0],
                        [1, 1, 0, 1, 0, 0, 0]], dtype=bool)
    spec = VisitSpec(allowed, [1, 1, 4, 6, 8, 8, 8])
    assert _hub_path_cover(spec) is None


def test_floors_past_t_answer_before_any_search(monkeypatch):
    # t = 8 asks for 8 paths over one component of 26 clones, which greedy
    # covers with 10 and whose flow floor is 10: the floor refutes t before
    # a restart would spend its budget on it
    allowed = np.array([[0, 1, 1, 1, 1, 1, 1, 1, 1], [1, 0, 1, 0, 0, 0, 0, 0, 0],
                        [1, 1, 0, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0, 1],
                        [1, 0, 1, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 1, 0, 1, 0, 0],
                        [1, 0, 0, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0, 1],
                        [1, 0, 0, 1, 0, 0, 0, 1, 0]], dtype=bool)
    visits = [8, 3, 1, 3, 4, 3, 4, 4, 4]
    owner = [v for v in range(1, 9) for _ in range(visits[v])]
    adj = _clone_adjacency(allowed, owner)
    comp, = ref_vertex_components(range(26), adj.rows)
    assert len(_greedy_paths(comp, adj)) == _flow_floor(comp, owner, allowed) == 10
    searches = []

    def counted(*args):
        searches.append(args)
        return _restart_paths(*args)

    monkeypatch.setattr(many_visits, "_restart_paths", counted)
    assert _hub_path_cover(VisitSpec(allowed, visits)) is None
    assert searches == []


def test_relaxation_without_flow_is_refuted_before_any_search(monkeypatch):
    """A hub spec whose relaxation _arc_flow(edges, visits, visits) has
    no flow gets None from the tier before any search.

    Hall's condition fails for some set S of senders. If S = {h}, then
    t > total_rest and the tier answers at its first check. Otherwise
    h is not in S, and sum_S visits > t + sum_{N'(S)} visits, N'(S) being
    the non-hub neighbours of S. The class flow of the m clones then has
    f <= 2 sum_{N'(S)} c + 2 (m - sum_S c), so the floors sum to at least
    m - f / 2 > t. A single-path component's floor of 1 is at least
    m_C - f_C / 2 too, as its Hamiltonian path gives f_C >= 2 (m_C - 1).
    """
    def refused(*args):
        raise AssertionError("searched a spec the floors refute")

    monkeypatch.setattr(many_visits, "_restart_paths", refused)
    # vertices 0 and 2 are both universal; 0 is the hub, t = 3. The ten
    # visits of 1 need ten arcs into the three of 0 and three of 2
    spec = hub_spec([(1, 2), (2, 3)], [3, 10, 3, 1])
    assert _arc_flow([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], spec.visits, spec.visits) is None
    assert _hub_path_cover(spec) is None
    rng = np.random.default_rng(5)
    refuted = 0
    for _ in range(300):
        k = int(rng.integers(6, 11))
        others = np.triu(rng.random((k, k)) < rng.uniform(0.1, 0.5), 1)
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(others)) if u > 0]
        visits = [int(rng.integers(1, 10))] + rng.integers(1, 7, size=k - 1).tolist()
        spec = hub_spec(edges, visits)
        all_edges = [(0, v) for v in range(1, k)] + edges
        if _arc_flow(all_edges, spec.visits, spec.visits) is None:
            assert _hub_path_cover(spec) is None
            refuted += 1
    assert refuted >= 150  # 184 of the 300


def hub_spec(edges, visits):
    """Vertex 0 is the hub: adjacent to every other vertex."""
    k = len(visits)
    adj = np.zeros((k, k), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return VisitSpec(adj, visits)


def test_pure_star_walk():
    spec = hub_spec([(1, 2)], [5, 2, 1, 2])  # t = 5 = total_rest
    walk = _hub_path_cover(spec)
    validate_multiwalk(spec, Multiwalk(spec.k, walk=walk))
    assert walk[::2] == [0] * 6  # the hub separates every other visit


def test_hub_visits_beyond_the_rest_are_infeasible():
    assert _hub_path_cover(hub_spec([(1, 2)], [4, 1, 2])) is None


def test_more_components_than_hub_visits_is_infeasible():
    # three mutually non-adjacent leaves each need a path of their own
    spec = hub_spec([], [2, 1, 1, 1])
    assert _hub_path_cover(spec) is None
    assert not closed_walk_feasible(spec.allowed, spec.visits)


def test_component_only_the_walk_dp_decides():
    # prod(visits + 1) is beyond the whole-spec walk DP and the spec passes
    # the neighbour-visit count, so the solver reaches the hub tier. The
    # three clones of 2 have no neighbour but the hub and take three of the
    # t = 4 hub visits; greedy and every restart cover the other 27 clones
    # with 2 paths, and the flow floor certifies only 1. Only a walk DP on
    # their owners (2 * 48,600 states) would show that 1 path cannot cover
    # them. The tier runs none, so it aborts on this infeasible spec rather
    # than answer it.
    edges = [(1, 4), (3, 5), (3, 7), (3, 8), (4, 8), (5, 6), (6, 7), (6, 8)]
    spec = hub_spec(edges, [4, 5, 3, 4, 5, 4, 5, 2, 2])
    assert not _short_of_neighbour_visits(spec.allowed, spec.visits)
    assert math.prod(v + 1 for v in spec.visits) > _WALK_STATE_CAP
    with pytest.raises(ContractViolation) as info:
        many_visits_tour(spec)
    assert str(info.value) == (
        "hub path-cover tier undecided: k=9, hub visits t=4, m=30 clones; greedy cover "
        "5 paths > t >= certified floor 4; unresolved component sizes [27]; "
        "restarts 200/200 on sizes [27]")
    assert not closed_walk_feasible(spec.allowed, spec.visits)


def test_no_universal_vertex():
    cycle = np.roll(np.eye(4, dtype=bool), 1, axis=1)
    spec = VisitSpec(cycle | cycle.T, [1, 2, 1, 2])
    assert _hub_path_cover(spec) == "no_hub"


def test_small_hub_specs_match_walk_enumeration():
    # the tier may abort, but only on an infeasible spec; the solver, whose
    # walk DP covers these small specs, decides every one
    rng = np.random.default_rng(7)
    feasible = infeasible = aborted = 0
    for _ in range(150):
        k = int(rng.integers(2, 6))
        others = np.triu(rng.random((k, k)) < 0.5, 1)
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(others)) if u > 0]
        visits = [int(v) for v in rng.integers(1, 4, size=k)]
        spec = hub_spec(edges, visits)
        want = closed_walk_feasible(spec.allowed, spec.visits)
        try:
            walk = _hub_path_cover(spec)
        except ContractViolation:
            assert not want
            aborted += 1
            walk = None
        got = many_visits_tour(spec)
        if want:
            assert walk is not None
            validate_multiwalk(spec, Multiwalk(spec.k, walk=walk))
            validate_multiwalk(spec, got)
            feasible += 1
        else:
            assert walk is None and got is None
            infeasible += 1
    assert feasible >= 20 and infeasible >= 20
    assert aborted <= 1  # 1 of the 150 at this seed


def test_specs_over_the_clone_cap_fall_through(monkeypatch):
    # above _CLONE_CAP clones the hub tier answers "no_hub" and the
    # subtour branching decides; a walk DP capped at nothing sends these
    # small specs that far
    monkeypatch.setattr(many_visits, "_CLONE_CAP", 4)
    monkeypatch.setattr(many_visits, "_WALK_STATE_CAP", 1)
    hub_answers = []

    def counted(spec):
        out = _hub_path_cover(spec)
        hub_answers.append(out)
        return out

    monkeypatch.setattr(many_visits, "_hub_path_cover", counted)
    rng = np.random.default_rng(11)
    feasible = infeasible = 0
    for _ in range(100):
        k = int(rng.integers(3, 7))
        others = np.triu(rng.random((k, k)) < 0.5, 1)
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(others)) if u > 0]
        visits = [int(v) for v in rng.integers(1, 5, size=k)]
        spec = hub_spec(edges, visits)
        rest = sum(visits) - max(visits)
        if rest <= 4 or max(visits) > rest:
            continue  # whichever hub the tier picks: t <= clones, clones > 4
        assert _hub_path_cover(spec) == "no_hub"
        got = many_visits_tour(spec)
        if closed_walk_feasible(spec.allowed, spec.visits):
            validate_multiwalk(spec, got)
            feasible += 1
        else:
            assert got is None
            infeasible += 1
    # most specs are decided before the hub tier; those that reach it
    # are feasible and get their walks from the subtour branching
    assert hub_answers.count("no_hub") >= 3
    assert feasible >= 20 and infeasible >= 20


@st.composite
def sparse_graphs(draw):
    """Plain sparse graphs (one clone per vertex), on which the shuffled
    restarts often shorten the cover several times over."""
    k = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    quotient = np.triu(rng.random((k, k)) < rng.uniform(1.5, 3.5) / k, 1)
    return clone_graph(quotient | quotient.T, [1] * k)


@settings(max_examples=30)
@given(st.one_of(clone_graphs(), sparse_graphs()))
def test_restarts_stop_at_the_first_cover_that_fits(adj):
    m = len(adj.rows)
    for comp in ref_vertex_components(range(m), adj.rows):
        greedy = _greedy_paths(comp, adj)
        if len(greedy) == 1:
            continue
        trials = list(ref_restart_covers(comp, adj.rows))
        # every count a trial reaches, so that a later, shorter trial would
        # show a search that ran past its target
        targets = {-1, 0, 1, len(greedy) - 1}
        targets |= {len(p) for p in trials if len(p) < len(greedy)}
        for target in sorted(targets):
            fits = [p for p in trials if len(p) <= max(target, 1)]
            # no trial fits: the first of the shortest covers, greedy's included
            expect = fits[0] if fits else min([greedy] + trials, key=len)
            assert _restart_paths(comp, adj, greedy, target) == expect


@st.composite
def twin_hub_specs(draw):
    """Hub specs whose other vertices become twin clone classes; t is drawn
    small as often as not, where the greedy cover may miss it."""
    k = draw(st.integers(1, 6))
    quotient = draw_quotient(draw, k)
    visits = draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
    rest = sum(visits)
    t = min(rest, draw(st.one_of(st.integers(1, 6), st.integers(1, rest))))
    edges = [(u + 1, v + 1) for u, v in zip(*np.nonzero(np.triu(quotient)))]
    return hub_spec(edges, [t] + visits)


def answer_class(tier, spec):
    try:
        out = tier(spec)
    except ContractViolation as exc:
        return "abort", str(exc)
    return ("walk" if isinstance(out, list) else repr(out)), out


def assert_decision_matches_reference(spec):
    got_class, got = answer_class(_hub_path_cover, spec)
    ref_class, ref = answer_class(ref_hub_path_cover, spec)
    assert got_class == ref_class
    if got_class == "abort":
        assert got.startswith(ref + "; restarts ")
    if got_class == "walk":
        # the walk may differ from the reference's: the tier keeps the
        # first cover that fits t, not the best one
        validate_multiwalk(spec, Multiwalk(spec.k, walk=got))
    if got_class in ("walk", "None") and np.prod([v + 1 for v in spec.visits]) <= 20_000:
        assert closed_walk_feasible(spec.allowed, spec.visits) == (got_class == "walk")
    return got_class


@settings(max_examples=150)
@given(twin_hub_specs())
def test_hub_decisions_match_full_refinement(spec):
    assert_decision_matches_reference(spec)


def test_hub_decisions_near_the_greedy_count(monkeypatch):
    # t at most two below the greedy cover's count, where the restarts
    # decide; a seeded sweep, so that every answer class and a restart
    # search that stops at its target are sure to occur. No search may run
    # on a component whose cover meets its certified floor (1 for a single
    # path, else the flow floor), nor when the floors of all components sum
    # past t.
    stops = []
    floors = {}  # component -> certified floor, for the spec in hand
    hub_visits = []  # t, for the spec in hand

    def counted(comp, adj, initial, target=1):
        if not floors:
            # the tier's clones: one per visit of each vertex but its hub h
            h = min(np.flatnonzero(spec.allowed.sum(axis=1) == spec.k - 1).tolist(),
                    key=lambda v: (-spec.visits[v], v))
            hub_visits.append(spec.visits[h])
            owner = [v for v in range(spec.k) if v != h for _ in range(spec.visits[v])]
            for c in ref_vertex_components(range(len(owner)), adj.rows):
                one = len(_greedy_paths(c, adj)) == 1
                floors[tuple(c)] = 1 if one else _flow_floor(c, owner, spec.allowed)
        assert len(initial) > floors[tuple(comp)]
        assert sum(floors.values()) <= hub_visits[-1]
        paths = _restart_paths(comp, adj, initial, target)
        stops.append(len(paths) <= max(target, 1))
        return paths

    monkeypatch.setattr(many_visits, "_restart_paths", counted)
    rng = np.random.default_rng(0)
    classes = set()
    for _ in range(60):
        floors.clear()
        k = int(rng.integers(4, 9))
        quotient = np.triu(rng.random((k, k)) < rng.uniform(0.2, 0.5), 1)
        quotient |= quotient.T
        visits = rng.integers(3, 11, size=k).tolist()
        adj = clone_graph(quotient, visits)
        comps = ref_vertex_components(range(len(adj.rows)), adj.rows)
        greedy = sum(len(_greedy_paths(comp, adj)) for comp in comps)
        t = max(1, greedy - int(rng.integers(0, 3)))
        edges = [(u + 1, v + 1) for u, v in zip(*np.nonzero(np.triu(quotient)))]
        spec = hub_spec(edges, [t] + visits)
        classes.add(assert_decision_matches_reference(spec))
    assert classes == {"walk", "None", "abort"}
    assert any(stops) and not all(stops)


def hub_clone_graph(spec):
    """The clone graph of a hub spec, vertex 0 taken as the hub."""
    return clone_graph(spec.allowed[1:, 1:], spec.visits[1:])


@settings(max_examples=40)
@given(st.one_of(clone_graphs(), sparse_graphs(), twin_hub_specs().map(hub_clone_graph)),
       st.integers(0, 2 ** 32 - 1))
def test_no_sweep_merges_after_a_rotation_merge(adj, seed):
    # in the components' order and in a shuffled one, as the restarts run it;
    # the covers, restarts included, are those of the loop that sweeps
    # after every rotation merge
    rng = np.random.default_rng(seed)
    for comp in ref_vertex_components(range(len(adj.rows)), adj.rows):
        for order in (rng.permutation(comp).tolist(), comp):
            paths, _ = sweep_after_each_rotation(order, adj)
            assert paths == _greedy_paths(order, adj) == ref_greedy_paths(order, adj.rows)
        if len(paths) > 1:
            assert (_restart_paths(comp, adj, paths, 1)
                    == ref_restart_paths(comp, adj.rows, paths))
