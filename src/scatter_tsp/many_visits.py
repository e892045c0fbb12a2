"""Closed walks visiting each vertex of a small graph a prescribed number of times.

The solver is exact: it answers feasibility correctly for every spec, or
aborts loudly when its search budget is genuinely exhausted; it never
returns a wrong answer. `many_visits_tour` runs its tiers in the order
below, each of which either decides the spec or hands it on. A
disconnected allowed graph needs no pass of its own: each tier after the
first answers it with None or hands it on (the greedy cycle finds no
single path, the walk DP never reaches the far component, the relaxation
has no solution or a disconnected support, no vertex is a hub, the 1-tree
refutes it or runs out of steps, and a component with no allowed arc
leaving it gives a branch node no children).

"Clones": a vertex visited c times becomes c twin clones, not adjacent to
each other, so a walk is a Hamiltonian cycle on the clones.

1. neighbour visits (`_short_of_neighbour_visits`): an O(k^2) count that
   only answers No. The visits of v cut the walk into visits[v] gaps whose
   end entries are visits to neighbours of v, so too few of those refute
   the spec at once, whatever the size of its visit counts.
2. greedy clone cycle, then the walk DP, when prod(visits_v + 1) is at
   most _WALK_STATE_CAP. The greedy cycle (`_greedy_cycle`) only answers
   Yes: the hub tier's greedy path cover over all clones, then Pósa
   rotations of the one path, its head fixed, until it closes. Only its
   miss pays for the walk DP (`_walk_dp`), a reachability sweep over
   (spent visits, current vertex) states, the states of each vertex one
   bitset in a Python int, one OR per allowed arc and layer, which is
   exact and only decides. Its No is final. Its Yes goes straight to the
   subtour branching (tier 6), which builds the walk from the relaxation
   of tier 3: that has a solution, as any closed walk orients into an
   Eulerian digraph with out = in = visits. This covers plain
   Hamiltonicity of small quotients.
3. the even-flow relaxation, `_arc_flow` with out = in = visits: an
   Eulerian digraph with the prescribed degrees but without the
   connectivity requirement. No solution means no walk; a solution whose
   support is connected and spanning is a walk. Otherwise it is the root
   of the subtour branching (tier 6).
4. hub path cover (`_hub_path_cover`): when some vertex is adjacent to
   all others, feasibility is a path-cover question on the other visits,
   one clone per visit. Clones of one owner are twins, so the clone
   components come from `graphs.components` on the owner graph of the
   other vertices (`_clone_components`). A greedy cover comes first:
   sweeps of endpoint merges run once to a fixed point, then Pósa
   rotation merges until one fails. No sweep runs between them, as none
   could merge: a rotation merge leaves every path's two ends ends of
   different paths before. The rotations are searched breadth first and
   stop at the first queued end that can merge with another path. When
   the cover has more paths than the hub's visit count t, each component
   gets a certified floor, one max flow on its owner classes
   (`_flow_floor`, a fractional 2-matching bound), and floors summing past
   t answer No at once. Otherwise seeded restarts refine the components
   above their floors, in order, until the cover fits; else the tier
   aborts.
5. greedy clone cycle, then the integer 1-tree, when sum(visits) is at
   most _CLONE_CAP: the greedy cycle of tier 2 answers Yes, and
   `graphs.one_tree_refutes` on the clone graph answers No when a
   Held-Karp bound, exact in integers, is positive within _TREE_STEPS
   1-trees. A spec that fits the walk DP never reaches tiers 3 to 5, so
   each spec meets the greedy cycle at most once.
6. subtour branching on the relaxation (`_subtour_branching`, after
   Carpaneto & Toth). A branch node forces a multiset F of arcs and solves
   the relaxation on the residual degrees visits - out_F and
   visits - in_F. When F plus the flow is still disconnected, it branches
   on each allowed arc leaving the support component C with the fewest of
   them. This is exact: a connected Eulerian X containing F has an arc
   leaving C, and F lies inside the support, so that arc is in X - F.
   More than _NODE_CAP nodes abort, naming the 1-tree steps spent. It
   builds every walk that the walk DP proves exists.

The relaxation, the branch nodes and the hub floor each pass their arcs
to `graphs.transport` and read the flows back.

Visit counts may be as large as 10^9, and all arithmetic on counts and
flows uses Python integers. A result is one `Multiwalk`, built from a
walk or from edge counts, whichever its tier found; the other form is
made only when read, the walk by `graphs.eulerian_tour`.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import compress
import math
from typing import NamedTuple

import numpy as np

from .instance import ContractViolation, integer_array
from .graphs import ThresholdGraph, components, eulerian_tour, one_tree_refutes, transport

_WALK_STATE_CAP = 700_000    # product of (visits_v + 1) admitted to the walk DP
_NODE_CAP = 20_000           # nodes of the subtour branching
_TREE_STEPS = 2_000          # 1-trees computed before the subtour branching


@dataclass
class VisitSpec:
    """Allowed-edge graph plus per-vertex visit counts (all >= 1)."""

    allowed: np.ndarray
    visits: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.allowed, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("allowed must be a square matrix")
        if not np.array_equal(adj, adj.T):
            raise ValueError("allowed must be symmetric")
        if np.any(np.diag(adj)):
            raise ValueError("self-loops are not allowed")
        visits = integer_array(self.visits, "visit counts").tolist()
        if len(visits) != adj.shape[0]:
            raise ValueError("visits length must match vertex count")
        if len(visits) == 0:
            raise ValueError("need k >= 1")
        if any(v < 1 for v in visits):
            raise ValueError("every visit count must be >= 1")
        self.allowed = adj
        self.visits = visits

    @property
    def k(self) -> int:
        return self.allowed.shape[0]


class Multiwalk:
    """Closed walk on k vertices, built from exactly one of its two forms.

    `walk` is the vertex list, its start repeated at the end. `counts`
    maps each vertex pair (u, v), u < v, to the number of times the walk
    steps between u and v. The form not given is built on first read:
    the counts from the walk's steps, the walk by `eulerian_tour`, which
    also checks the counts. Counts may be far too large to expand.
    """

    def __init__(self, k: int, counts=None, walk=None):
        if (counts is None) == (walk is None):
            raise ValueError("give exactly one of counts and walk")
        self.k = k
        self._counts = counts
        self._walk = walk

    @property
    def counts(self) -> dict:
        if self._counts is None:
            self._counts = Counter(tuple(sorted(e)) for e in zip(self._walk, self._walk[1:]))
        return self._counts

    @property
    def walk(self) -> list:
        if self._walk is None:
            self._walk = eulerian_tour(self.k, self._counts)
        return self._walk


def _arc_flow(edges, out_deg, in_deg):
    """Edge multiplicities of a digraph with the given out- and in-degrees, or None.

    A transportation problem on the double cover: vertex v is a sender of
    supply out_deg[v] and a receiver of demand in_deg[v], and an allowed
    edge {u,v} gives the arcs u->v and v->u. The two degree sums are equal
    at both callers, so a flow saturating every sender exists exactly when
    the digraph does; the multiplicity returned for {u,v} is the flow on
    both of its arcs, and the degree of v is out_deg[v] + in_deg[v].
    """
    total = sum(out_deg)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    value, flows = transport(out_deg, in_deg, ends.reshape(-1), ends[:, ::-1].reshape(-1),
                             [total + 1] * (2 * len(edges)))
    if value != total:
        return None
    return {e: a + b for e, a, b in zip(edges, flows[0::2], flows[1::2]) if a + b}


def _short_of_neighbour_visits(allowed, visits):
    """True when some vertex v has too few visits next to it for any walk.

    The visits[v] occurrences of v cut the cyclic walk into visits[v]
    nonempty gaps, and both end entries of a gap are visits to neighbours
    of v. They are one entry only in a gap of length one, and every gap
    has length one only when the walk alternates between v and the rest,
    that is when sum(visits) == 2 * visits[v]. So a walk needs, at every
    v, sum over u ~ v of visits[u] >= visits[v] + [sum(visits) > 2 * visits[v]].
    Sums are int64: k * 10^9 is far from overflow.
    """
    vis = np.array(visits, dtype=np.int64)
    need = vis + (2 * vis < vis.sum())
    return bool(np.any(np.asarray(allowed) @ vis < need))


def _repeat_bits(block, period, count):
    """`count` copies of the `period`-bit int `block`, side by side, built
    by doubling in O(log count) big-int operations."""
    out = shift = 0
    while count:
        if count & 1:
            out |= block << shift
            shift += period
        count >>= 1
        if count:
            block |= block << period
            period *= 2
    return out


def _walk_dp(allowed, visits):
    """Whether a closed walk exists, for prod(visits_v + 1) at most _WALK_STATE_CAP.

    Its bitsets hold prod(visits_v + 1) bits each, so `many_visits_tour`
    calls it only within that cap.

    States are (spent visit vector, current vertex), the vector packed into
    a mixed-radix code, and the states of each vertex are one bitset held
    in a Python int: bit c of layer[v] is set when state (v, c) is reached
    in the current layer. Each step spends one visit, so the sweep runs
    forward one layer of equal digit sum at a time: the states at w are the
    codes reached at a neighbour of w, one OR per allowed arc, masked by
    room[w], the codes with a visit of w left, and shifted up by bases[w].
    The walk starts at vertex 0 with one visit spent, so the early layers
    hold low codes and their ints stay narrow. The last layer holds only
    the code with every visit spent, and the walk closes when it is reached
    at a neighbour of vertex 0. Covers the small-visit regime (including
    plain Hamiltonicity), where a No answer would take the subtour
    branching through every node of its search.
    """
    k = len(visits)
    bases = [1] * k
    prod = 1
    for v in range(k):
        bases[v] = prod
        prod *= visits[v] + 1

    nbrs = [np.flatnonzero(row).tolist() for row in np.asarray(allowed, dtype=bool)]
    # room[w]: within each period of digit w, the codes whose digit is
    # below visits[w]
    room = []
    for w in range(k):
        period = bases[w] * (visits[w] + 1)
        room.append(_repeat_bits((1 << (period - bases[w])) - 1, period, prod // period))
    layer = [0] * k
    layer[0] = 1 << bases[0]
    for _ in range(sum(visits) - 1):
        nxt = []
        for w in range(k):
            came = 0
            for u in nbrs[w]:
                came |= layer[u]
            nxt.append((came & room[w]) << bases[w])
        layer = nxt
        if not any(layer):
            return False
    return any(layer[w] for w in nbrs[0])


class _Adjacency(NamedTuple):
    """A symmetric graph on 0..m-1, as rows of bools and as neighbour bitmasks.

    rows[a][b] is True exactly when bit b of bits[a] is set. The bitmasks
    answer "is any vertex of this set adjacent to any of that set" with one
    integer AND, which is how the path search skips pairs that cannot join.
    """

    rows: list
    bits: list


def _clone_adjacency(allowed, owner):
    """Adjacency of the clone graph: clone a stands for a visit to owner[a].

    Clones a and b are adjacent when their owners differ and are allowed
    neighbours. Clones of one owner are twins, so they share one row list
    and one bitmask: memory is O(k * m) rather than O(m^2).
    """
    ow = np.asarray(owner, dtype=np.intp)
    owners = list(dict.fromkeys(owner))
    us = np.asarray(owners, dtype=np.intp)
    block = np.asarray(allowed, dtype=bool)[np.ix_(us, ow)] & (us[:, None] != ow)
    packed = np.packbits(block, axis=1, bitorder="little")
    per_owner = {u: (row, int.from_bytes(b.tobytes(), "little"))
                 for u, row, b in zip(owners, block.tolist(), packed)}
    return _Adjacency([per_owner[u][0] for u in owner],
                      [per_owner[u][1] for u in owner])


def _merge_pass(paths, adj):
    # one sweep of endpoint-compatible joins, rescanning while a path grows;
    # later[j] holds the ends of paths j.. (a superset once paths are popped,
    # which only costs a wasted scan), so path i skips the rest of the sweep
    # as soon as its ends have no neighbour among them
    rows, bits = adj
    count = len(paths)   # len(paths), kept as pops shorten it
    ends = [(1 << p[0]) | (1 << p[-1]) for p in paths]
    later = ends + [0]
    for j in range(count - 1, -1, -1):
        later[j] |= later[j + 1]
    merged = False
    i = 0
    while i < count:
        j = i + 1
        while j < count:
            pi = paths[i]
            near = bits[pi[0]] | bits[pi[-1]]
            if not near & later[j]:
                break
            while j < count and not near & ends[j]:
                j += 1
            if j == count:
                break
            pj = paths[j]
            if rows[pi[-1]][pj[0]]:
                paths[i] = pi + pj
            elif rows[pi[-1]][pj[-1]]:
                paths[i] = pi + pj[::-1]
            elif rows[pi[0]][pj[0]]:
                paths[i] = pi[::-1] + pj
            else:
                paths[i] = pj + pi
            paths.pop(j)
            ends.pop(j)
            later.pop(j)
            count -= 1
            merged = True
        i += 1
    return merged


def _first_rotation(path, rows, bits, others):
    """The first Pósa rotation of `path` whose end meets `others`, or None.

    Rotations keep path[0] fixed and come in breadth-first order: `path`
    itself, then for each variant q in queue order, the rotations
    q[:pos + 1] + reversed(q[pos + 1:]) about every pivot q[pos] adjacent
    to q[-1], in pivot order, skipping those whose new end q[pos + 1] was
    reached before. Each end is tested when its rotation is queued, and
    the queue order is the breadth-first order, so the search stops at the
    first queued end that can merge: no variant queued after that end's
    parent has its pivots scanned. A queued rotation is held as (q, pos)
    and sliced only when its own pivots are scanned.
    """
    if bits[path[-1]] & others:
        return path
    reached = {path[-1]}
    queue = [(path, None)]
    for q, pos in queue:  # the loop reaches rotations appended while it runs
        if pos is not None:
            q = q[:pos + 1] + q[:pos:-1]
        row = rows[q[-1]]
        for pos in compress(range(len(q) - 2), map(row.__getitem__, q)):
            e = q[pos + 1]
            if e not in reached:
                if bits[e] & others:
                    return q[:pos + 1] + q[:pos:-1]
                reached.add(e)
                queue.append((q, pos))
    return None


def _rotate_merge_once(paths, adj):
    # expose fresh endpoints by chains of rotations; join the first variant
    # whose end meets another path, trying paths in list order, head first
    rows, bits = adj
    every_end = 0
    for p in paths:
        every_end |= (1 << p[0]) | (1 << p[-1])
    for i in range(len(paths)):
        if len(paths[i]) < 3:
            continue
        others = every_end & ~((1 << paths[i][0]) | (1 << paths[i][-1]))
        for flip in (False, True):
            base = paths[i][::-1] if flip else paths[i]
            rot = _first_rotation(base, rows, bits, others)
            if rot is None:
                continue
            row = rows[rot[-1]]
            for j in range(len(paths)):
                if j == i:
                    continue
                r = paths[j]
                if row[r[0]]:
                    paths[i] = rot + r
                elif row[r[-1]]:
                    paths[i] = rot + r[::-1]
                else:
                    continue
                paths.pop(j)
                return True
    return False


def _greedy_paths(vertices, adj):
    """Disjoint paths covering `vertices`: endpoint merges plus rotations.

    Starts from singletons in `vertices` order and runs sweeps of endpoint
    merges until one merges nothing, then rotation merges until one fails:
    Pósa rotations of each path in turn (its reverse second), taken in
    breadth-first order, until the first variant whose end is adjacent to
    an end of another path, which it joins. `_first_rotation` tests each
    end as its rotation is queued, so the search stops at the first queued
    end that can merge; the covers are the same as those of building every
    rotation first, only cheaper.

    No sweep runs between rotation merges, because it could merge nothing:
    after a sweep that merged nothing, no two paths have adjacent ends, and
    a rotation merge keeps that so. The joined path's ends are the rotated
    path's fixed end and the far end of the path it joins, both ends of
    different paths before, and every other path is unchanged.
    """
    paths = [[v] for v in vertices]
    while len(paths) > 1 and _merge_pass(paths, adj):
        pass
    while len(paths) > 1 and _rotate_merge_once(paths, adj):
        pass
    return paths


def _greedy_cycle(spec):
    """A closed walk of the spec from one greedy clone cycle, or None.

    `_greedy_paths` covers all clones, one per visit, on `_clone_adjacency`.
    When that gives one path, `_first_rotation` rotates it, its head fixed,
    until its end is adjacent to its head: a Hamiltonian cycle of the
    clones, which is a walk with the spec's visit counts, as twin clones
    are not adjacent. None says nothing about the spec.
    """
    owner = [v for v in range(spec.k) for _ in range(spec.visits[v])]
    rows, bits = adj = _clone_adjacency(spec.allowed, owner)
    paths = _greedy_paths(range(len(owner)), adj)
    if len(paths) > 1:
        return None
    cycle = _first_rotation(paths[0], rows, bits, 1 << paths[0][0])
    if cycle is None:
        return None
    return [owner[c] for c in cycle + cycle[:1]]


def _restart_trials(m):
    """Shuffled restarts granted to a component of m clones: fewer on larger
    components, to keep the tier polynomial in practice."""
    return 200 if m <= 64 else 40 if m <= 160 else 12 if m <= 320 else 4


def _restart_paths(comp, adj, initial, target):
    """Greedy covers over seeded shuffles of the vertex order, until one fits.

    The shuffles come in a fixed order (seed 0), and the search returns the
    first cover with at most max(target, 1) paths, `initial` included. When
    no cover fits, it returns the first of the shortest ones it saw.
    """
    best = initial
    goal = max(target, 1)
    rng = np.random.default_rng(0)
    order = list(comp)
    for _ in range(_restart_trials(len(comp))):
        if len(best) <= goal:
            break
        rng.shuffle(order)
        paths = _greedy_paths(list(order), adj)
        if len(paths) < len(best):
            best = paths
    return best


def _flow_floor(comp, owner, allowed):
    """Certified lower bound on the minimum path cover of one component.

    A cover of its m clones with P paths is a forest of m - P edges and
    degrees <= 2, so P >= m - floor(f / 2) for the max flow f on the double
    cover (capacity 2 per clone, 1 per arc). Clones of one owner are twins, so the network
    is built on owner classes (supply and demand 2 * c_v, capacity c_u * c_v
    per allowed pair): splitting a class flow evenly over its clone pairs
    shows that f is the same, with O(k) nodes.
    """
    counts = Counter(owner[x] for x in comp)
    vs = list(counts)
    c = [counts[v] for v in vs]
    # twins get no arc, as allowed has no self-loop
    u, w = np.nonzero(np.asarray(allowed)[np.ix_(vs, vs)])
    two = [2 * x for x in c]
    f, _ = transport(two, two, u, w, [c[a] * c[b] for a, b in zip(u.tolist(), w.tolist())])
    return max(1, len(comp) - f // 2)


def _clone_components(block, counts):
    """Components of the clone graph, each a sorted list, in the order of
    their least clone.

    `block` is the owner graph on 0..len(counts)-1, and owner v has the
    counts[v] clones numbered next after those of owners 0..v-1. Clones
    of one owner are twins: adjacent to the same clones and not to each
    other. So a component of two or more owners is one clone component,
    its owners' clone ranges joined in owner order, and each clone of an
    owner with no neighbour is a component on its own.
    """
    starts = np.cumsum([0, *counts]).tolist()
    comps = []
    pairs = zip(*(x.tolist() for x in np.nonzero(np.triu(block))))
    for owners in components(len(counts), pairs):
        ranges = [range(starts[v], starts[v + 1]) for v in sorted(owners)]
        if len(ranges) > 1:
            comps.append([c for r in ranges for c in r])
        else:
            comps.extend([c] for c in ranges[0])
    return comps


_CLONE_CAP = 2048            # clone count admitted to the hub path-cover tier


def _hub_path_cover(spec):
    """Exact tier for specs containing a vertex adjacent to everything.

    Cutting the walk at each hub visit partitions the remaining visits
    into exactly t = visits[hub] nonempty paths, and splitting a path
    raises the count by one, so feasibility means t lies between the
    minimum path cover and the total visit count. Multi-visit vertices are
    expanded into single-visit clones first; clones of one vertex stay
    non-adjacent, which mirrors the ban on immediate revisits.

    The minimum cover is additive over components, and the tier spends its
    work in cost order. Greedy endpoint merging covers every component.
    When that total exceeds t, `floors` holds each component's certified
    lower bound (1 for a single path, else `_flow_floor`, the degree-2 flow
    on its owner classes); floors summing past t answer No at once. The
    components above their floors are then refined in order: seeded
    restarts search each until it meets t minus the other components'
    counts. Refining never raises a count, so the search ends at the first
    component that meets its target; a cover still above t after that is
    an abort.
    """
    k = spec.k
    universal = np.flatnonzero(spec.allowed.sum(axis=1) == k - 1).tolist()
    if not universal:
        return "no_hub"
    h = min(universal, key=lambda v: (-spec.visits[v], v))
    t = spec.visits[h]
    total_rest = sum(spec.visits[v] for v in range(k) if v != h)
    if t > total_rest:
        return None  # hub occurrences need separators in the cycle
    if total_rest > _CLONE_CAP:
        return "no_hub"

    rest = [v for v in range(k) if v != h]
    owner = [v for v in rest for _ in range(spec.visits[v])]
    m = len(owner)
    adj = _clone_adjacency(spec.allowed, owner)

    # the components of the owner graph give those of the clones
    comps = _clone_components(spec.allowed[np.ix_(rest, rest)], [spec.visits[v] for v in rest])
    covers = [_greedy_paths(comp, adj) for comp in comps]
    total = sum(len(cv) for cv in covers)
    if total > t:
        # a single path is its own floor
        floors = [1 if len(cv) == 1 else _flow_floor(comp, owner, spec.allowed)
                  for comp, cv in zip(comps, covers)]
        if sum(floors) > t:
            return None  # t below the sum of certified lower bounds
        for i, comp in enumerate(comps):
            if total <= t:
                break
            greedy = covers[i]
            if len(greedy) == floors[i]:
                continue  # no cover is shorter than its floor
            covers[i] = _restart_paths(comp, adj, greedy, t - (total - len(greedy)))
            total += len(covers[i]) - len(greedy)
        if total > t:
            open_sizes = [len(comp) for comp, cv, floor in zip(comps, covers, floors)
                          if len(cv) > floor]
            # an open component never met its target, so it spent every trial
            spent = ", ".join(f"{n}/{n}" for n in map(_restart_trials, open_sizes))
            raise ContractViolation(
                f"hub path-cover tier undecided: k={k}, hub visits t={t}, "
                f"m={m} clones; greedy cover {total} paths > t >= certified floor "
                f"{sum(floors)}; unresolved component sizes {open_sizes}; "
                f"restarts {spent} on sizes {open_sizes}")

    paths = [list(p) for cv in covers for p in cv]
    i = 0
    while len(paths) < t:
        if len(paths[i]) >= 2:
            paths.append([paths[i].pop()])
        else:
            i += 1
    walk = []
    for path in paths:
        walk.append(h)
        walk.extend(owner[c] for c in path)
    walk.append(h)
    return walk


def _subtour_branching(spec, edges, root, tree_steps=0):
    """Subtour branching on the relaxation (Carpaneto & Toth 1980), or None.

    A node is a multiset F of forced arcs, kept as a sorted tuple, and runs
    `_arc_flow` on the residual degrees visits - out_F and visits - in_F;
    a negative residual or no flow prunes it. F plus the flow, taken as an
    undirected multigraph, has degree 2 * visits[v] at every v, so a
    connected spanning support answers Yes. Otherwise the node branches
    once on each allowed arc u->w leaving the support component C with the
    fewest such arcs. The root is the relaxation `root`, F empty. A
    connected X containing F has an arc leaving C, and F lies inside the
    support, so that arc is in X - F and some child still lies inside X.
    Children reached twice are searched once. More than _NODE_CAP nodes
    abort; the message names `tree_steps`, the 1-trees spent before it.
    """
    k, visits = spec.k, spec.visits
    stack = [((), root)]
    queued = set()
    nodes = 0
    while stack:
        forced, flow = stack.pop()
        nodes += 1
        if nodes > _NODE_CAP:
            raise ContractViolation(
                f"subtour branching undecided: k={k}, {len(edges)} allowed edges; "
                f"branch nodes > _NODE_CAP={_NODE_CAP}, after {tree_steps} 1-tree steps "
                f"(_TREE_STEPS={_TREE_STEPS})")
        if flow is None:
            out_deg, in_deg = list(visits), list(visits)
            for u, w in forced:
                out_deg[u] -= 1
                in_deg[w] -= 1
            if min(out_deg) < 0 or min(in_deg) < 0:
                continue
            flow = _arc_flow(edges, out_deg, in_deg)
            if flow is None:
                continue
        counts = Counter(flow)
        for u, w in forced:
            counts[min(u, w), max(u, w)] += 1
        comps = components(k, counts)
        if len(comps) == 1:
            return Multiwalk(k, counts)
        cuts = []
        for comp in comps:
            inside = np.zeros(k, dtype=bool)
            inside[list(comp)] = True
            cuts.append(spec.allowed & np.outer(inside, ~inside))
        cut = min(cuts, key=np.count_nonzero)
        # pushed in reverse, so the children are searched in arc order
        for u, w in reversed(np.argwhere(cut).tolist()):
            child = tuple(sorted((*forced, (u, w))))
            if child not in queued:
                queued.add(child)
                stack.append((child, None))
    return None


def many_visits_tour(spec: VisitSpec):
    """A Multiwalk with the spec's visit counts, or None when infeasible.

    The greedy cycle and the hub tier return its walk. The relaxation and
    the branch nodes return its edge counts, which give degree 2*visits[v]
    at every vertex and connect all k vertices: exactly what an Euler walk
    with the prescribed visit counts requires.
    """
    k = spec.k
    visits = spec.visits
    if k == 1:
        return Multiwalk(1, walk=[0]) if visits[0] == 1 else None

    if _short_of_neighbour_visits(spec.allowed, visits):
        return None
    dp_sized = math.prod(v + 1 for v in visits) <= _WALK_STATE_CAP
    if dp_sized:
        walked = _greedy_cycle(spec)
        if walked is not None:
            return Multiwalk(k, walk=walked)
        if not _walk_dp(spec.allowed, visits):
            return None

    edges = list(zip(*(x.tolist() for x in np.nonzero(np.triu(spec.allowed)))))

    # necessary relaxation: an Eulerian digraph with out- and in-degree
    # visits[v] but no connectivity requirement; a spec the walk DP proved
    # has one, as any closed walk orients into such a digraph
    g0 = _arc_flow(edges, visits, visits)
    if dp_sized:
        return _subtour_branching(spec, edges, g0)
    if g0 is None:
        return None
    if len(components(k, g0)) == 1:
        return Multiwalk(k, g0)  # relaxation solution happens to work

    hub = _hub_path_cover(spec)
    if hub is None:
        return None
    if hub != "no_hub":
        return Multiwalk(k, walk=hub)

    steps = 0
    if sum(visits) <= _CLONE_CAP:
        walked = _greedy_cycle(spec)
        if walked is not None:
            return Multiwalk(k, walk=walked)
        owner = np.repeat(np.arange(k), visits)
        refuted, steps = one_tree_refutes(ThresholdGraph(spec.allowed[np.ix_(owner, owner)]),
                                          _TREE_STEPS)
        if refuted:
            return None
    return _subtour_branching(spec, edges, g0, steps)
