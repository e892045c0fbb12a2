"""The walk-DP tier: the bitset sweep against the per-arc reference in
helpers.py, walk enumeration, the state cap that gates it and its memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatter_tsp import VisitSpec, many_visits, many_visits_tour
from scatter_tsp.many_visits import _WALK_STATE_CAP, _short_of_neighbour_visits, _walk_dp
from helpers import closed_walk_feasible, least_closed_walk, ref_walk_dp

# visits + 1 of (2, 2, 2, 2, 2, 5, 5, 5, 5, 5, 7): prod is exactly the cap
CAP_VISITS = [1] * 5 + [4] * 5 + [6]


def random_graph(k, density, rng):
    upper = np.triu(rng.random((k, k)) < density, 1)
    return upper | upper.T


def assert_walk(allowed, visits, walk):
    """A closed walk from vertex 0 over allowed edges with exact counts."""
    assert walk[0] == walk[-1] == 0
    assert all(allowed[a][b] for a, b in zip(walk, walk[1:]))
    assert np.bincount(walk[:-1], minlength=len(visits)).tolist() == list(visits)


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
    assert got == ref_walk_dp(allowed, visits)
    if got is not None:
        assert_walk(allowed, visits, got)
    # walk enumeration is exhaustive; keep it to small state spaces (k = 1
    # is answered before the DP runs, which has no edge to close a walk on)
    if len(visits) > 1 and math.prod(v + 1 for v in visits) <= 5000:
        assert (got is not None) == closed_walk_feasible(allowed, visits)


@settings(max_examples=200)
@given(walk_specs())
def test_walk_is_the_reverse_of_the_least_closed_walk(spec):
    # the DP rebuilds its walk backwards from the last step, taking the
    # least vertex that was reached each time: read forwards from vertex 0,
    # the reversed walk is the least of all closed walks with these counts
    allowed, visits = spec
    if len(visits) == 1 or math.prod(v + 1 for v in visits) > 5000:
        return
    got = _walk_dp(allowed, visits)
    want = least_closed_walk(allowed, visits)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[::-1] == want


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
    assert got == ref_walk_dp(allowed, visits)
    want = least_closed_walk(allowed, visits)
    assert (got is None) == (want is None)
    if got is not None:
        assert_walk(allowed, visits, got)
        assert got[::-1] == want


@pytest.mark.parametrize("k", [16, 19])
@pytest.mark.parametrize("density", [1.0, 0.5, 0.3])
def test_hamiltonicity_matches_reference(k, density):
    allowed = random_graph(k, density, np.random.default_rng(100 * k + int(10 * density)))
    visits = [1] * k
    got = _walk_dp(allowed, visits)
    assert got == ref_walk_dp(allowed, visits)
    if got is not None:
        assert_walk(allowed, visits, got)


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
    assert got.walk == ref_walk_dp(allowed, CAP_VISITS)
    assert_walk(allowed, CAP_VISITS, got.walk)
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


def test_walk_dp_memory():
    # complete graph, 19 single visits: 2^19 codes, a 64 KB int per
    # vertex and table. The layer, the next layer, the seen sets and the
    # room masks are 4 such tables, about 5 MB; a bool byte per state, as
    # a (k, prod) array, is 9.5 MB alone
    allowed = ~np.eye(19, dtype=bool)
    tracemalloc.start()
    try:
        walk = _walk_dp(allowed, [1] * 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_walk(allowed, [1] * 19, walk)
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
