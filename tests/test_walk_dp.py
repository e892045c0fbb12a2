"""The walk-DP tier: the bitset sweep against the per-arc reference in
helpers.py, walk enumeration, the state cap that gates it, the greedy cycle
that every spec within that cap meets first, its memory, and the subtour
branching that builds the walks it proves exist."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatter_tsp import VisitSpec, many_visits, many_visits_tour
from scatter_tsp.many_visits import (
    _CLONE_CAP,
    _WALK_STATE_CAP,
    _greedy_cycle,
    _short_of_neighbour_visits,
    _walk_dp,
)
from helpers import closed_walk_feasible, ref_walk_dp, validate_multiwalk

# visits + 1 of (2, 2, 2, 2, 2, 5, 5, 5, 5, 5, 7): prod is exactly the cap
CAP_VISITS = [1] * 5 + [4] * 5 + [6]


def random_graph(k, density, rng):
    upper = np.triu(rng.random((k, k)) < density, 1)
    return upper | upper.T


def assert_tour_agrees(allowed, visits, feasible):
    """many_visits_tour answers as the walk DP did, with a valid walk."""
    spec = VisitSpec(allowed, visits)
    got = many_visits_tour(spec)
    assert (got is not None) == feasible
    if got is not None:
        validate_multiwalk(spec, got)


@st.composite
def walk_specs(draw):
    k = draw(st.integers(1, 8))
    visits = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["random", "star", "complete", "disconnected"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        allowed = random_graph(k, draw(st.floats(0.0, 1.0)), rng)
    elif kind == "complete":
        allowed = ~np.eye(k, dtype=bool)
    else:
        allowed = np.zeros((k, k), dtype=bool)
        if kind == "star":
            centre = draw(st.integers(0, k - 1))
            allowed[centre] = allowed[:, centre] = True
            allowed[centre, centre] = False
        else:  # two dense blocks with no edge between them
            cut = draw(st.integers(1, k))
            allowed[:cut, :cut] = random_graph(cut, 0.8, rng)
            allowed[cut:, cut:] = random_graph(k - cut, 0.8, rng)
    return allowed, visits


@settings(max_examples=300)
@given(walk_specs())
def test_frontier_sweep_matches_reference(spec):
    allowed, visits = spec
    got = _walk_dp(allowed, visits)
    assert got is ref_walk_dp(allowed, visits)
    # walk enumeration is exhaustive; keep it to small state spaces (k = 1
    # is answered before the DP runs, which has no edge to close a walk on)
    if len(visits) > 1:
        if math.prod(v + 1 for v in visits) <= 5000:
            assert got == closed_walk_feasible(allowed, visits)
        assert_tour_agrees(allowed, visits, got)


@st.composite
def long_walk_specs(draw):
    # k <= 3 with up to 80 visits a vertex: 81^3 codes stay under the cap,
    # the room masks repeat their blocks odd and uneven numbers of times,
    # and the sweep runs up to 239 layers
    k = draw(st.integers(2, 3))
    visits = draw(st.lists(st.integers(1, 80), min_size=k, max_size=k))
    if draw(st.booleans()):
        # no vertex above the others' total, or two equal counts at k = 2:
        # the complete graph has a walk, so the sweep runs every layer
        top = max(range(k), key=visits.__getitem__)
        visits[top] = max(1, min(visits[top], sum(visits) - visits[top]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    allowed = random_graph(k, draw(st.sampled_from([0.5, 1.0])), rng)
    return allowed, visits


@settings(max_examples=60)
@given(long_walk_specs())
def test_long_walks_match_reference(spec):
    allowed, visits = spec
    assert math.prod(v + 1 for v in visits) <= _WALK_STATE_CAP
    got = _walk_dp(allowed, visits)
    assert got is ref_walk_dp(allowed, visits)
    assert got == closed_walk_feasible(allowed, visits)
    assert_tour_agrees(allowed, visits, got)


@pytest.mark.parametrize("k", [16, 19])
@pytest.mark.parametrize("density", [1.0, 0.5, 0.3])
def test_hamiltonicity_matches_reference(k, density):
    allowed = random_graph(k, density, np.random.default_rng(100 * k + int(10 * density)))
    visits = [1] * k
    got = _walk_dp(allowed, visits)
    assert got is ref_walk_dp(allowed, visits)
    assert_tour_agrees(allowed, visits, got)


def test_state_cap_boundary(monkeypatch):
    # the solver runs the walk DP on a spec at the cap, and never on one
    # past it, whose bitsets would grow with prod(visits_v + 1); the greedy
    # cycle, which would answer these specs first, is switched off
    assert math.prod(v + 1 for v in CAP_VISITS) == _WALK_STATE_CAP
    allowed = random_graph(len(CAP_VISITS), 0.6, np.random.default_rng(7))
    assert not _short_of_neighbour_visits(allowed, CAP_VISITS)
    calls = []

    def spy(allowed, visits):
        calls.append(list(visits))
        return _walk_dp(allowed, visits)

    monkeypatch.setattr(many_visits, "_greedy_cycle", lambda spec: None)
    monkeypatch.setattr(many_visits, "_walk_dp", spy)
    got = many_visits_tour(VisitSpec(allowed, CAP_VISITS))
    assert calls == [CAP_VISITS]
    assert ref_walk_dp(allowed, CAP_VISITS)
    validate_multiwalk(VisitSpec(allowed, CAP_VISITS), got)
    # one more visit anywhere, or 20 single visits, is past the cap
    specs = [VisitSpec(~np.eye(20, dtype=bool), [1] * 20)]
    for v in range(len(CAP_VISITS)):
        more = list(CAP_VISITS)
        more[v] += 1
        specs.append(VisitSpec(allowed, more))
    for spec in specs:
        assert math.prod(v + 1 for v in spec.visits) > _WALK_STATE_CAP
        calls.clear()
        many_visits_tour(spec)
        assert calls == []


def test_largest_dp_sized_spec_meets_the_greedy_cycle_first(monkeypatch):
    # K2 at 835 visits each is the DP-sized spec with the most clones that
    # passes the neighbour-visit count: the greedy cycle, gated on
    # _CLONE_CAP clones, still runs before the walk DP
    spec = VisitSpec(~np.eye(2, dtype=bool), [835, 835])
    assert math.prod(v + 1 for v in spec.visits) <= _WALK_STATE_CAP
    assert math.prod(v + 2 for v in spec.visits) > _WALK_STATE_CAP
    assert sum(spec.visits) <= _CLONE_CAP
    assert not _short_of_neighbour_visits(spec.allowed, spec.visits)
    calls = []

    def greedy_spy(spec):
        calls.append("_greedy_cycle")
        assert _greedy_cycle(spec) is not None
        return None  # a miss, so that the walk DP runs after it

    def dp_spy(allowed, visits):
        calls.append("_walk_dp")
        return _walk_dp(allowed, visits)

    monkeypatch.setattr(many_visits, "_greedy_cycle", greedy_spy)
    monkeypatch.setattr(many_visits, "_walk_dp", dp_spy)
    got = many_visits_tour(spec)
    assert calls == ["_greedy_cycle", "_walk_dp"]
    assert got.counts == {(0, 1): 1670}


def test_walk_dp_memory():
    # complete graph, 19 single visits: 2^19 codes, a 64 KB int per
    # vertex and table. The layer, the next layer and the room masks are 3
    # such tables, about 4 MB; a bool byte per state, as a (k, prod)
    # array, is 9.5 MB alone
    allowed = ~np.eye(19, dtype=bool)
    tracemalloc.start()
    try:
        feasible = _walk_dp(allowed, [1] * 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert feasible is True
    assert peak < 6 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def greedy_misses_and_dp_proves(spec):
    return (not _short_of_neighbour_visits(spec.allowed, spec.visits)
            and _greedy_cycle(spec) is None and _walk_dp(spec.allowed, spec.visits))


def sparse_hamiltonicity_specs():
    """G(19, p) for p in {0.2, 0.25, 0.3, 0.35} and seeds 0-199."""
    for density in (0.2, 0.25, 0.3, 0.35):
        for seed in range(200):
            rng = np.random.default_rng((round(100 * density), seed))
            yield VisitSpec(random_graph(19, density, rng), [1] * 19)


def sparse_multi_visit_specs():
    """4000 sparse graphs on 6-14 vertices, each vertex visited twice with
    probability 1/4 and once otherwise."""
    rng = np.random.default_rng(0)
    for _ in range(4000):
        k = int(rng.integers(6, 15))
        allowed = random_graph(k, rng.choice([0.25, 0.35, 0.45]), rng)
        yield VisitSpec(allowed, (1 + (rng.random(k) < 0.25)).tolist())


@pytest.mark.parametrize("family, floor", [
    (sparse_hamiltonicity_specs, 15),    # 19 of 800
    (sparse_multi_visit_specs, 20),      # 27 of 4000, 26 with a twice-visited vertex
], ids=["G19", "multi-visit"])
def test_branching_builds_every_walk_the_walk_dp_proves(family, floor):
    # the greedy cycle misses these specs and the walk DP proves them; the
    # subtour branching must then build a walk, within its node cap
    proved = 0
    for spec in family():
        assert math.prod(v + 1 for v in spec.visits) <= _WALK_STATE_CAP
        if greedy_misses_and_dp_proves(spec):
            proved += 1
            validate_multiwalk(spec, many_visits_tour(spec))
    assert proved >= floor


def test_walk_dp_yes_goes_straight_to_the_branching(monkeypatch):
    spec = next(spec for spec in sparse_multi_visit_specs()
                if max(spec.visits) > 1 and greedy_misses_and_dp_proves(spec))
    calls = []

    def spy(name):
        real = getattr(many_visits, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(many_visits, name, wrapped)

    for name in ("_greedy_cycle", "_walk_dp", "_hub_path_cover", "one_tree_refutes",
                 "_arc_flow"):
        spy(name)
    entered = []
    branching = many_visits._subtour_branching

    def branched(spec, root, *rest):
        entered.append((list(calls), root))
        return branching(spec, root, *rest)

    monkeypatch.setattr(many_visits, "_subtour_branching", branched)
    got = many_visits_tour(spec)
    # no relaxation is solved before the branching, which solves its own
    # root: a closed walk always solves it
    assert entered == [(["_greedy_cycle", "_walk_dp"], None)]
    assert calls[2] == "_arc_flow"
    validate_multiwalk(spec, got)
