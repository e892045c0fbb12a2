"""Closed walks visiting each vertex of a small graph a prescribed number of times.

The solver is exact: it answers feasibility correctly for every spec, or
aborts loudly when its search budget is genuinely exhausted; it never
returns a wrong answer. `many_visits_tour` runs four tiers in order, each
of which either decides the spec or hands it on. A disconnected allowed
graph needs no pass of its own: each tier after the first answers it with
None (the walk DP never reaches the far component, the relaxation has no
solution or a disconnected support, no vertex is a hub, and a component
with no allowed arc leaving it gives a branch node no children).

1. neighbour visits (`_short_of_neighbour_visits`): an O(k^2) count that
   only answers No. The visits of v cut the walk into visits[v] gaps whose
   end entries are visits to neighbours of v, so too few of those refute
   the spec at once, whatever the size of its visit counts.
2. walk DP (`_walk_dp`): a reachability sweep over (remaining visits,
   current vertex) states, exact whenever prod(visits_v + 1) is at most
   _WALK_STATE_CAP. This covers plain Hamiltonicity of small quotients.
3. subtour branching on the even-flow relaxation (`_subtour_branching`,
   after Carpaneto & Toth). Its root is the relaxation, `_arc_flow` with
   out = in = visits: an Eulerian digraph with the prescribed degrees but
   without the connectivity requirement. No solution means no walk; a
   solution whose support is connected and spanning is a walk. A branch
   node forces a multiset F of arcs and solves the relaxation on the
   residual degrees visits - out_F and visits - in_F. When F plus the
   flow is still disconnected, it branches on each allowed arc leaving
   the support component C with the fewest of them. This is exact: a
   connected Eulerian X containing F has an arc leaving C, and F lies
   inside the support, so that arc is in X - F. More than _NODE_CAP
   nodes abort.
4. hub path cover (`_hub_path_cover`), run after the branching's root and
   before its first branch node: when some vertex is adjacent to all
   others, feasibility is a path-cover question on the other visits,
   one clone per visit. Clones of one owner are twins, so the clone
   components come from `graphs.components` on the owner graph of the
   other vertices (`_clone_components`). A greedy cover comes first:
   sweeps of endpoint merges run once to a fixed point, then Pósa
   rotation merges until one fails. No sweep runs between them, as none
   could merge: a rotation merge leaves every path's two ends ends of
   different paths before. The rotations are searched breadth first and
   stop at the first queued end that can merge with another path. When the cover has more paths than the hub's
   visit count t, each component gets a certified floor, one max flow on
   its owner classes (`_flow_floor`, a fractional 2-matching bound), and
   floors summing past t answer No at once. Otherwise the components above
   their floors are refined in order (the walk DP on the component's
   owners where its states fit, seeded restarts on the rest) until the
   cover fits or the floors pass t; else the tier aborts.

The relaxation, the branch nodes and the hub floor each pass their arcs
to `graphs.transport` and read the flows back.

Visit counts may be as large as 10^9; all arithmetic on multiplicities and
flows uses Python integers, and the Euler walk of the result is only
materialized on demand.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import compress
import math
from typing import NamedTuple

import numpy as np

from .instance import ContractViolation, integer_array
from .graphs import Multigraph, components, eulerian_tour, transport

_WALK_STATE_CAP = 700_000    # product of (visits_v + 1) admitted to the walk DP
_NODE_CAP = 20_000           # nodes of the subtour branching


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
    """Result of a feasible spec: edge multiplicities plus a lazy Euler walk."""

    def __init__(self, multiplicities: Multigraph):
        self.multiplicities = multiplicities
        self._walk = None

    @classmethod
    def from_walk(cls, k: int, walk: list):
        """Pack a closed walk on k vertices (start repeated at the end)."""
        mw = cls(Multigraph(k, Counter(zip(walk, walk[1:]))))
        mw._walk = walk
        return mw

    @property
    def walk(self) -> list:
        if self._walk is None:
            self._walk = eulerian_tour(self.multiplicities)
        return self._walk

    def walk_edge_count(self) -> int:
        return self.multiplicities.edge_total()

    def visit_counts(self) -> dict:
        """Occurrences per vertex in the cyclic walk (closing repeat dropped)."""
        w = self.walk
        if len(w) == 1:
            return {w[0]: 1}  # edgeless walk has no closing repeat
        counts = {}
        for v in w[:-1]:
            counts[v] = counts.get(v, 0) + 1
        return counts


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


def _walk_dp(allowed, visits):
    """Exact closed-walk search when prod(visits_v + 1) is small.

    States are (remaining visit vector, current vertex) with the vector
    packed into a mixed-radix code; reach[v, code] marks the reachable
    states, one row per vertex. Each step spends one visit, so the sweep
    runs forward one layer of equal remaining total at a time, over the
    codes reached in the layer only: one matrix product gives every vertex
    each code can step to, masked by the visits that code has left, and
    the states found are written with one scatter on flat int32 indices
    into the table. Covers the small-visit regime (including plain
    Hamiltonicity), where a No answer would take the subtour branching
    through every node of its search.
    """
    k = len(visits)
    bases = [1] * k
    prod = 1
    for v in range(k):
        bases[v] = prod
        prod *= visits[v] + 1
        if prod > _WALK_STATE_CAP:
            return "out_of_range"
    start_total = sum(visits) - 1
    start_code = sum(c * b for c, b in zip(visits, bases)) - bases[0]

    reach = np.zeros((k, prod), dtype=bool)
    reach[0, start_code] = True
    flat_reach = reach.reshape(-1)

    # step[w, u] = 1 when the walk may go from u to w; a product entry
    # counts at most k <= 19 predecessors, exact in float32. prod >= 2^k,
    # so the cap keeps k <= 19 and every flat index k * prod inside int32
    step = np.asarray(allowed, dtype=np.float32).T
    base = np.array(bases, dtype=np.int32)[:, None]
    radix = np.array(visits, dtype=np.int32)[:, None] + 1
    # frontier[i] + shift[w] is the flat index of state (w, frontier[i] - bases[w])
    shift = np.arange(k, dtype=np.int32)[:, None] * prod - base
    frontier = np.array([start_code], dtype=np.int32)
    marker = np.zeros(prod, dtype=bool)
    for _ in range(start_total):
        # moves[w, i]: code frontier[i] is reached at a vertex that may
        # step to w, and has a visit of w left
        moves = step @ reach[:, frontier].astype(np.float32) > 0
        moves &= frontier // base % radix != 0
        found = (frontier + shift)[moves]
        flat_reach[found] = True
        found %= prod
        marker[found] = True
        del moves, found  # not held through the next layer's product
        frontier = np.flatnonzero(marker).astype(np.int32)
        if len(frontier) == 0:
            break
        marker[frontier] = False

    finish = [w for w in range(k) if allowed[w][0] and reach[w, 0]]
    if not finish:
        return None
    cur = finish[0]
    walk_rev = [0, cur]
    code = 0
    for _ in range(start_total):
        pcode = code + int(bases[cur])
        prev = None
        for cand in range(k):
            if allowed[cand][cur] and reach[cand, pcode]:
                prev = cand
                break
        if prev is None:
            raise ContractViolation("walk reconstruction lost its trail")
        walk_rev.append(prev)
        code, cur = pcode, prev
    if cur != 0 or code != start_code:
        raise ContractViolation("walk reconstruction ended off the start state")
    return walk_rev[::-1]


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
    seen = {path[-1]}
    queue = [(path, None)]
    for q, pos in queue:  # the loop reaches rotations appended while it runs
        if pos is not None:
            q = q[:pos + 1] + q[:pos:-1]
        row = rows[q[-1]]
        for pos in compress(range(len(q) - 2), map(row.__getitem__, q)):
            e = q[pos + 1]
            if e not in seen:
                if bits[e] & others:
                    return q[:pos + 1] + q[:pos:-1]
                seen.add(e)
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


def _exact_cover(comp, owner, allowed, h, greedy):
    """A minimum path cover of one component, by the walk DP on its owners.

    The hub h is adjacent to every other vertex and has no self-loop, so a
    cover of comp with exactly p paths is a closed walk on h plus the
    owners of comp that visits h p times and each owner once per clone it
    has in comp: cutting the walk at its hub visits gives the paths, each
    owner's clones given out in order. Splitting a path keeps a cover, so
    the first p below len(greedy) with a walk is the minimum, and when no
    such p has one, `greedy` is a minimum cover and comes back as is.
    None, before any DP runs, when the walk DP's states for the largest p,
    len(greedy) - 1, are beyond _WALK_STATE_CAP.
    """
    clones = {}
    for c in comp:
        clones.setdefault(owner[c], []).append(c)
    counts = [len(cs) for cs in clones.values()]
    if len(greedy) * math.prod(c + 1 for c in counts) > _WALK_STATE_CAP:
        return None
    verts = [h, *clones]
    sub = np.asarray(allowed)[np.ix_(verts, verts)]
    for p in range(1, len(greedy)):
        walk = _walk_dp(sub, [p] + counts)
        if walk is not None:
            pools = [iter(cs) for cs in clones.values()]
            paths = [[]]
            for x in walk[1:-1]:
                if x:
                    paths[-1].append(next(pools[x - 1]))
                else:
                    paths.append([])
            return paths
    return greedy


def _restart_trials(m):
    """Shuffled restarts granted to a component of m clones: fewer on larger
    components, to keep the tier polynomial in practice."""
    return 200 if m <= 64 else 40 if m <= 160 else 12 if m <= 320 else 4


def _restart_paths(comp, adj, initial, target=1):
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
    components above their floors are then refined in order: the walk DP
    on the owners solves one exactly when its states fit _WALK_STATE_CAP,
    its minimum cover becoming its floor, and seeded restarts search the
    others until the component meets t minus the other components' counts.
    Refining never raises a count, so the search ends at the first
    component that meets its target, or when the floors pass t; a cover
    still above t after that is an abort.
    """
    k = spec.k
    universal = [v for v in range(k) if int(spec.allowed[v].sum()) == k - 1]
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
        for i, comp in enumerate(comps):
            if total <= t or sum(floors) > t:
                break
            greedy = covers[i]
            if len(greedy) == floors[i]:
                continue  # no cover is shorter than its floor
            best = _exact_cover(comp, owner, spec.allowed, h, greedy)
            if best is None:
                best = _restart_paths(comp, adj, greedy, t - (total - len(greedy)))
            else:
                floors[i] = len(best)
            covers[i] = best
            total += len(best) - len(greedy)
        if sum(floors) > t:
            return None  # t below the sum of certified lower bounds
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


def _subtour_branching(spec, edges, root):
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
    abort.
    """
    k, visits = spec.k, spec.visits
    stack = [((), root)]
    seen = set()
    nodes = 0
    while stack:
        forced, flow = stack.pop()
        nodes += 1
        if nodes > _NODE_CAP:
            raise ContractViolation(
                f"subtour branching undecided: k={k}, {len(edges)} allowed edges; "
                f"branch nodes > _NODE_CAP={_NODE_CAP}")
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
        mg = Multigraph(k, flow)
        for arc in forced:
            mg.add(*arc)
        comps = mg.support_components()
        if len(comps) == 1:
            return Multiwalk(mg)
        cuts = []
        for comp in comps:
            inside = np.zeros(k, dtype=bool)
            inside[list(comp)] = True
            cuts.append(spec.allowed & np.outer(inside, ~inside))
        cut = min(cuts, key=np.count_nonzero)
        # pushed in reverse, so the children are searched in arc order
        for u, w in reversed(np.argwhere(cut).tolist()):
            child = tuple(sorted((*forced, (u, w))))
            if child not in seen:
                seen.add(child)
                stack.append((child, None))
    return None


def many_visits_tour(spec: VisitSpec):
    """Edge multiplicities and walk for the spec, or None when infeasible.

    The returned multigraph has degree 2*visits[v] at every vertex and a
    connected spanning support, which is exactly what an Euler walk with
    the prescribed visit counts requires.
    """
    k = spec.k
    visits = spec.visits
    if k == 1:
        if visits[0] == 1:
            return Multiwalk(Multigraph(1))
        return None

    if _short_of_neighbour_visits(spec.allowed, visits):
        return None
    walked = _walk_dp(spec.allowed, visits)
    if walked != "out_of_range":
        return None if walked is None else Multiwalk.from_walk(k, walked)

    edges = list(zip(*(x.tolist() for x in np.nonzero(np.triu(spec.allowed)))))

    # necessary relaxation: an Eulerian digraph with out- and in-degree
    # visits[v] but no connectivity requirement
    g0 = _arc_flow(edges, visits, visits)
    if g0 is None:
        return None
    mg0 = Multigraph(k, g0)
    if mg0.support_is_connected_spanning():
        return Multiwalk(mg0)  # relaxation solution happens to work

    hub = _hub_path_cover(spec)
    if hub is None:
        return None
    if hub != "no_hub":
        return Multiwalk.from_walk(k, hub)

    return _subtour_branching(spec, edges, g0)
