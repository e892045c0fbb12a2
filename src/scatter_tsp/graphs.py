"""Threshold graphs and the Hamiltonicity toolbox.

Contains the constructive Dirac cycle builder, Bondy-Chvatal closure with
edge lifting, the Euler tour of edge counts, the one connectivity routine,
the one max flow, the Held-Karp 1-tree refutation of Hamiltonicity
(`one_tree_refutes`, exact in int64, which the many-visits tiers run on
their clone graphs), and the ball exchange that normalizes a high-scatter
tour around a low-degree point. `eulerian_tour(k, counts)` takes a dict
of vertex-pair counts and is where outside counts are checked.
`components(k, pairs)` builds its neighbour lists once per call and
serves `eulerian_tour`, the many-visits support checks, the hub tier (on
its owner graph) and the cubic graphs' 2-coloring. Every flow has one shape, senders with
supplies, receivers with demands and capacitated arcs between them: `transport` lays out its
network, source and sink arcs included, fills Dinic's first phase
directly and returns the flow on each given arc. The many-visits tiers
and the cubic graphs' edge coloring only pass arcs in and read flows
back.

One cycle repair, `repair_cycle`, serves Dirac and the solver's quotient
lift. Each repair removes at least one non-adjacent consecutive pair of
its start cycle, so `dirac_hamiltonian` takes the start as an argument
(index order by default) and the solver picks the one with fewer such
pairs. It, `bc_lift` and the ball exchange make one cycle move, the
crossing 2-opt (`_two_opt`, found for a pair that must go by `_repair`).
Graphs are read only through `n`, `edge_flags(us, vs)`, whose index
arrays broadcast (`ids[:, None]` against `np.arange(n)` reads whole rows),
and `degrees()`; ThresholdGraph and MetricThresholdView answer them
alike. The view is the one threshold-graph definition: the dense graph,
the center graph and the degrees of the low-degree scan all read it. Its
degree sweep reads the half matrix in the box pairs of the instance's
spatial order (Instance.half_tiles with a select): a box pair whose corner
bounds settle the threshold counts as all edges or none without a
distance, and the others are read in tiles, their flags written into one
reused buffer.
"""

import math

import numpy as np

from .instance import (
    BLOCK_ROWS,
    ContractViolation,
    Instance,
    integer_array,
    meets_threshold,
    validate_tour,
)

class ThresholdGraph:
    """Simple graph on n vertices held as a dense symmetric boolean matrix."""

    def __init__(self, adjacency):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj)):
            raise ValueError("no self-loops allowed")
        self.n = adj.shape[0]
        self.adjacency = adj

    def edge_flags(self, us, vs) -> np.ndarray:
        return self.adjacency[np.asarray(us), np.asarray(vs)]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


class MetricThresholdView:
    """Threshold graph over an instance: i ~ j when i != j and d(i, j)
    meets the threshold. Flags are computed on demand, so the n x n matrix
    the large-n Dirac and lifting paths would need is never held.
    """

    def __init__(self, instance: Instance, threshold: float):
        self.instance = instance
        self.n = instance.n
        self.threshold = float(threshold)

    def edge_flags(self, us, vs) -> np.ndarray:
        d = self.instance.distance_pairs(us, vs)
        return meets_threshold(d, self.threshold) & (np.asarray(us) != np.asarray(vs))

    def head_degrees(self) -> np.ndarray:
        """Degrees of the first min(BLOCK_ROWS, n) vertices, from their full
        rows: the first row block of Instance.half_tiles in index order."""
        deg = -int(meets_threshold(0.0, self.threshold))
        for _, _, tile in self.instance.half_tiles(blocks=1):
            deg = deg + meets_threshold(tile, self.threshold).sum(axis=1)
        return deg

    def degrees(self) -> np.ndarray:
        """Every vertex's degree, from one bounded sweep of
        Instance.half_tiles in the instance's spatial order.

        A box pair whose gap bound meets the threshold has every pair as an
        edge, and one whose far bound does not has none: both are counted
        without a distance. The other box pairs are read in tiles, each box
        against itself and the boxes after it; a tile's row sums go to its
        box and its column sums to the later boxes (distances are symmetric
        bit for bit). The flags of every tile go into one bool buffer.
        Every pair (i, i) is at distance 0, so the degrees start at minus
        its flag.
        """
        inst = self.instance
        n = self.n
        ell = self.threshold
        # by position in the spatial order
        deg = np.full(n, -int(meets_threshold(0.0, ell)), dtype=np.intp)
        # what settled box pairs add to later boxes, as a difference array
        carry = np.zeros(n + 1, dtype=np.intp)

        def select(edges, gap, far):
            full = meets_threshold(gap, ell)
            read = meets_threshold(far, ell) & ~full
            deg[edges[0]:edges[1]] += np.diff(edges)[full].sum()
            # later boxes count the row box; its own pairs are in its row sums
            rows = edges[1] - edges[0]
            full[0] = False
            carry[edges[:-1][full]] += rows
            carry[edges[1:][full]] -= rows
            return read

        buf = np.empty(0, dtype=bool)
        for lo, cols, tile in inst.half_tiles(select=select):
            if buf.size < tile.size:
                buf = np.empty(tile.size, dtype=bool)
            flags = meets_threshold(tile, ell, out=buf[:tile.size].reshape(tile.shape))
            rows = len(tile)
            # counts of at most TILE_COLS and BLOCK_ROWS flags: narrow sums
            # are exact and several times faster than intp ones
            deg[lo:lo + rows] += flags.sum(axis=1, dtype=np.uint32)
            # the columns of the row box's own vertices carry nothing forward
            own = int(np.searchsorted(cols, lo + rows))
            if own < len(cols):
                deg[cols[own:]] += flags[:, own:].sum(axis=0, dtype=np.uint16)
        deg += np.cumsum(carry[:n])
        out = np.empty(n, dtype=np.intp)
        out[inst.spatial_order] = deg
        return out


def threshold_graph(instance: Instance, ell: float) -> ThresholdGraph:
    """Graph with an edge wherever the pair distance is >= ell (with tolerance)."""
    if not ell >= 0:   # NaN fails this too
        raise ValueError(f"threshold must be nonnegative, got {ell}")
    view = MetricThresholdView(instance, ell)
    n = view.n
    adj = np.empty((n, n), dtype=bool)
    for lo in range(0, n, BLOCK_ROWS):
        ids = np.arange(lo, min(lo + BLOCK_ROWS, n))
        adj[lo:lo + BLOCK_ROWS] = view.edge_flags(ids[:, None], np.arange(n))
    return ThresholdGraph(adj)


def components(k: int, pairs) -> list:
    """Vertex sets of the components of the graph on 0..k-1 whose edges are
    the vertex pairs `pairs`, isolated vertices included, in the order of
    their least vertex. A pair with an end outside 0..k-1 is refused.

    The neighbour lists are built once; each component is then one
    graph search from its least vertex.
    """
    nbrs = [[] for _ in range(k)]
    for u, v in pairs:
        if not (0 <= u < k and 0 <= v < k):
            raise ValueError(f"pair ({u}, {v}) has an end outside 0..{k - 1}")
        nbrs[u].append(v)
        nbrs[v].append(u)
    comps = []
    placed = [False] * k
    for start in range(k):
        if placed[start]:
            continue
        placed[start] = True
        comp = [start]
        for x in comp:  # the loop reaches vertices appended while it runs
            for w in nbrs[x]:
                if not placed[w]:
                    placed[w] = True
                    comp.append(w)
        comps.append(set(comp))
    return comps


_EULER_STEP_CAP = 10 ** 7


def eulerian_tour(k: int, counts) -> list:
    """Closed walk on 0..k-1 traversing each vertex pair count-many times.

    `counts` maps pairs (u, v) to nonnegative integer counts; (v, u) adds
    to (u, v) and a count of 0 adds no edge. Returns a vertex list that
    starts and ends at the same vertex, [0] when there is no edge; its
    number of edges equals the total count. Hierholzer construction over
    the sorted pairs. Raises ValueError for k < 1, an end that is not an
    integer in 0..k-1 or equals the other end, a count that is not a
    nonnegative integer, a count total above _EULER_STEP_CAP = 10^7 (the
    solver expands one step per point), an odd degree, or edges in two
    components. The total is checked before any expansion.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    mult = {}
    for (u, v), m in counts.items():
        if not (_whole(u) and _whole(v)):
            raise ValueError(f"vertices must be integers, got ({u}, {v})")
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < k and 0 <= v < k):
            raise ValueError(f"vertex pair ({u}, {v}) out of range")
        if not _whole(m) or m < 0:
            raise ValueError(f"count must be a nonnegative integer, got {m}")
        if m:
            key = _key(u, v)
            mult[key] = mult.get(key, 0) + int(m)
    total = sum(mult.values())
    if total > _EULER_STEP_CAP:
        raise ValueError(f"count total exceeds the walk cap {_EULER_STEP_CAP}")
    deg = [0] * k
    for (u, v), m in mult.items():
        deg[u] += m
        deg[v] += m
    odd = [v for v in range(k) if deg[v] % 2 == 1]
    if odd:
        raise ValueError(f"vertex {odd[0]} has odd degree {deg[odd[0]]}")
    positive = [v for v in range(k) if deg[v] > 0]
    if not positive:
        return [0]
    # the positive-degree vertices are those of the components with an edge
    if sum(len(c) > 1 for c in components(k, mult)) > 1:
        raise ValueError("positive-degree subgraph is disconnected")

    remaining = dict(mult)
    adj = {v: [] for v in positive}
    for u, v in sorted(mult):  # sorted pairs leave every list sorted
        adj[u].append(v)
        adj[v].append(u)
    ptr = {v: 0 for v in positive}
    stack = [positive[0]]
    circuit = []
    while stack:
        v = stack[-1]
        lst = adj[v]
        i = ptr[v]
        while i < len(lst) and not remaining[_key(v, lst[i])]:
            i += 1
        ptr[v] = i
        if i == len(lst):
            circuit.append(stack.pop())
        else:
            remaining[_key(v, lst[i])] -= 1
            stack.append(lst[i])
    circuit.reverse()
    if len(circuit) != total + 1:
        raise ContractViolation("Euler walk failed to use every edge")
    return circuit


def dirac_hamiltonian(graph, degrees=None, start=None) -> np.ndarray:
    """Hamiltonian cycle of a graph with minimum degree >= n/2.

    `graph` is a ThresholdGraph or a MetricThresholdView; `degrees`, when
    given, are its exact vertex degrees, which spares a sweep over all rows.
    The degree condition is checked here; the cycle is repair_cycle's,
    from the cyclic order `start`, index order when it is None. It makes
    at most as many repairs as `start` has non-adjacent consecutive pairs.
    """
    n = graph.n
    if n < 3:
        raise ValueError("need at least 3 vertices")
    deg = graph.degrees() if degrees is None else np.asarray(degrees)
    worst = int(np.argmin(deg))
    if 2 * int(deg[worst]) < n:
        raise ValueError(
            f"vertex {worst} has degree {int(deg[worst])} < n/2 = {n / 2}")
    return repair_cycle(graph, np.arange(n) if start is None else start)


def repair_cycle(graph, cycle) -> np.ndarray:
    """Hamiltonian cycle of `graph` made from the cyclic order `cycle`.

    Repeatedly repairs a non-adjacent consecutive pair with the classic
    crossing rotation. A repair trades its bad pair and the crossing pair
    for two edges, so no bad pair is ever made and each repair removes at
    least one. When every bad pair of `cycle` has endpoint degree sum >= n,
    each repair exists: Dirac's condition, and the short hub edges of the
    quotient lift. A repair reads its pair's two endpoints against the
    next BLOCK_ROWS positions of the cycle, and against the whole cycle
    only when the crossing lies farther on. A cycle with no bad pair comes
    back as given; raises ContractViolation for a pair with no crossing.
    """
    n = graph.n
    order = validate_tour(n, cycle).copy()
    nxt = np.roll(order, -1)
    bad_mask = ~graph.edge_flags(order, nxt)
    bad = {_key(int(order[i]), int(nxt[i])) for i in np.nonzero(bad_mask)[0]}
    pos = np.argsort(order)
    # `order` is never rotated: a repair at a's position i reverses only
    # the cyclic segment after i. The tour starts at the last repair's a,
    # where the textbook repair, which rotates a to the front, leaves it.
    head = 0
    while bad:
        head, dropped = _repair(graph, order, pos, *bad.pop())
        bad.discard(_key(*dropped))
    return np.concatenate((order[head:], order[:head]))


def _two_opt(order, pos, i: int, j: int) -> None:
    """Reverse the cyclic segment order[i + 1 .. j] in place, which may
    wrap past n - 1, and keep `pos` the inverse of `order`.

    The cycle then uses (order[i], order[j]) and (order[i + 1], order[j + 1])
    in place of the pairs at positions i and j; no other pair changes.
    """
    n = len(order)
    seg = np.arange(i + 1, i + 1 + (j - i) % n) % n
    order[seg] = order[seg[::-1]]
    pos[order[seg]] = seg


def _repair(graph, order, pos, a: int, b: int):
    """Replace the consecutive pair a, b of the cycle by the crossing 2-opt.

    The pair is oriented so that b follows a, at a's position i; j is the
    first crossing pair after i (see _crossing_after). Returns (i, the
    dropped pair (order[j], order[j + 1])); a stays at position i.
    """
    n = len(order)
    i = int(pos[a])
    if order[(i + 1) % n] != b:
        a, b = b, a
        i = int(pos[a])
    j = _crossing_after(graph, order, i, a, b)
    if j is None:
        raise ContractViolation(
            f"no crossing rotation for pair ({a}, {b}); degree condition broken")
    dropped = (int(order[j]), int(order[(j + 1) % n]))
    _two_opt(order, pos, i, j)
    return i, dropped


def _crossing_after(graph, order, i: int, a: int, b: int):
    """Position j of the first pair (order[j], order[j + 1]) after position
    i, cyclically, with a ~ order[j] and b ~ order[j + 1], or None.

    On unordered inputs such a pair mostly lies a few positions on, so on
    cycles longer than BLOCK_ROWS the BLOCK_ROWS pairs after i are read
    first. When they hold none, a and b are read against the whole cycle.
    """
    n = len(order)
    ends = np.array([[a], [b]])
    if BLOCK_ROWS < n - 1:
        w = order.take(np.arange(i + 1, i + BLOCK_ROWS + 2), mode="wrap")
        to_a, to_b = graph.edge_flags(ends, w)
        cand = to_a[:-1] & to_b[1:]
        if cand.any():
            return (i + 1 + int(np.argmax(cand))) % n
    to_a, to_b = graph.edge_flags(ends, order)
    return _first_after(to_a & np.roll(to_b, -1), i)


def _first_after(flags, i: int):
    """First position after i, cyclically and i excluded, where `flags`
    holds, or None."""
    for lo, part in ((i + 1, flags[i + 1:]), (0, flags[:i])):
        if part.any():
            return lo + int(np.argmax(part))
    return None


def _whole(x) -> bool:
    # finite before int(), which raises errors of its own on inf and NaN
    return x == x and abs(x) != math.inf and x == int(x)


def _key(u: int, v: int):
    return (u, v) if u < v else (v, u)


def bondy_chvatal_closure(graph):
    """Bondy-Chvatal closure and the log of added edges.

    Repeatedly adds every non-edge whose endpoint degree sum is at least n
    until a fixed point; the closure is unique, so the scan order only
    affects the log, not the result. Reads all n^2 pairs: small n only.
    """
    n = graph.n
    ids = np.arange(n)
    adj = graph.edge_flags(ids[:, None], ids)
    log = []
    while True:
        deg = adj.sum(axis=1)
        need = deg[:, None] + deg[None, :] >= n
        addable = need & ~adj
        np.fill_diagonal(addable, False)
        us, vs = np.nonzero(np.triu(addable))
        if len(us) == 0:
            break
        for u, v in zip(us, vs):
            log.append((int(u), int(v)))
        adj[us, vs] = True
        adj[vs, us] = True
    return ThresholdGraph(adj), log


def bc_lift(base, added, cycle) -> np.ndarray:
    """Turn a Hamiltonian cycle of base+added into one of base alone.

    Added edges are removed in reverse log order; whenever the cycle still
    uses the removed edge, the endpoint degree sum (>= n in the graph at
    that stage) yields a crossing 2-opt that rewires around it. The cycle
    is never rotated: each 2-opt reverses one segment of it. Like
    bondy_chvatal_closure, it reads the base once as an n x n matrix and
    removes the log edges from a dense copy: small n only.

    Raises ValueError when the log is not a valid addition sequence or the
    cycle uses a pair that is neither a base edge nor in the log.
    """
    n = base.n
    order = validate_tour(n, cycle).copy()
    ends = integer_array(added, "addition log entries").reshape(len(added), 2)
    if not np.all((0 <= ends) & (ends < n)):
        raise ValueError(f"addition log names a vertex outside 0..{n - 1}")
    ids = np.arange(n)
    adj = base.edge_flags(ids[:, None], ids)
    log = [_key(u, v) for u, v in ends.tolist()]
    seen = set()
    for e in log:
        if e[0] == e[1]:
            raise ValueError(f"self-loop {e} in addition log")
        if e in seen:
            raise ValueError(f"edge {e} appears twice in addition log")
        if adj[e]:
            raise ValueError(f"added edge {e} is already in the base graph")
        seen.add(e)
    for t in np.flatnonzero(~adj[order, np.roll(order, -1)]).tolist():
        e = _key(int(order[t]), int(order[(t + 1) % n]))
        if e not in seen:
            raise ValueError(f"cycle pair {e} is neither a base edge nor in the addition log")

    # degree sums are checked against base plus the *earlier* log entries,
    # the graph each addition actually extended
    deg = adj.sum(axis=1).tolist()
    for idx, (u, v) in enumerate(log):
        if deg[u] + deg[v] < n:
            raise ValueError(
                f"log entry {idx}: edge ({u}, {v}) has degree sum {deg[u] + deg[v]} < n={n}")
        deg[u] += 1
        deg[v] += 1

    for e in log:
        adj[e] = adj[e[::-1]] = True
    lift = ThresholdGraph(adj)
    pos = np.argsort(order)
    for (u, v) in reversed(log):
        adj[u, v] = adj[v, u] = False
        i = int(pos[u])
        if v in (order[(i + 1) % n], order[i - 1]):
            _repair(lift, order, pos, u, v)

    flags = lift.edge_flags(order, np.roll(order, -1))
    if not flags.all():
        t = int(np.argmin(flags))
        raise ContractViolation(
            f"lifted tour still uses non-base edge ({order[t]}, {order[(t + 1) % n]})")
    return order


def transport(supply, demand, tails, heads, caps):
    """Maximum flow of a transportation network, as (value, flows).

    Sender i offers supply[i], receiver j takes at most demand[j], and
    arc e carries at most caps[e] from sender tails[e] to receiver
    heads[e]; flows[e] is its flow in the maximum flow found. Senders try
    their arcs in the order given. All amounts are nonnegative Python
    integers, and the running time does not depend on them, so the
    many-visits tiers may pass any counts that `VisitSpec` admits (a total
    below 2^62). Arc lists of unequal lengths, or with an end out of
    range, are refused.

    Dinic's first phase is filled directly: senders in index order, each
    sender's arcs in arc order, each arc pushing min(supply left, demand
    left, cap). That is exactly the phase on this network. Every path of
    the first level graph is source, sender, receiver, sink, and the
    blocking-flow search takes the senders and their arcs in that order,
    leaving an arc only when it, its sender's supply or its receiver's
    demand is used up. `_max_flow` runs the later phases on the residual.
    """
    s, r, m = len(supply), len(demand), len(caps)
    tails, heads = (integer_array(x, "arc ends") for x in (tails, heads))
    if not len(tails) == len(heads) == m:
        raise ValueError("tails, heads and caps must have equal lengths")
    if m and not (0 <= tails.min() <= tails.max() < s and 0 <= heads.min() <= heads.max() < r):
        raise ValueError("arc ends out of range")
    if min((*supply, *demand, *caps), default=0) < 0:
        raise ValueError("supplies, demands and capacities must be nonnegative")
    src, snk = s + r, s + r + 1
    # arc e, then a source arc per sender and a sink arc per receiver;
    # receiver j is node s + j
    tails = np.concatenate((tails, np.full(s, src), np.arange(s, s + r)))
    heads = np.concatenate((s + heads, np.arange(s), np.full(r, snk)))
    # flat arcs: 2e is the e-th arc and a ^ 1 is a's reverse, so the flow
    # on arc e ends up as the residual capacity of 2e + 1
    cap = [0] * (2 * len(tails))
    cap[0:2 * m:2] = caps
    leaves = np.column_stack((tails, heads)).reshape(-1)
    order = np.argsort(leaves, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(leaves, minlength=s + r + 2)).tolist()
    out = [order[b0:b1] for b0, b1 in zip([0] + bounds[:-1], bounds)]
    to = np.column_stack((heads, tails)).reshape(-1).tolist()
    # the first phase; a sender's given arcs come before the reverse of its
    # source arc, the one arc it has at or past 2m
    left = list(demand)
    sent = [0] * s
    for i, arcs in enumerate(out[:s]):
        give = supply[i]
        for a in arcs:
            if not give or a >= 2 * m:
                break
            j = to[a] - s
            x = min(give, cap[a], left[j])
            if x:
                cap[a] -= x
                cap[a + 1] += x
                left[j] -= x
                give -= x
        sent[i] = supply[i] - give
    cap[2 * m::2] = [g - x for g, x in zip(supply, sent)] + left
    cap[2 * m + 1::2] = sent + [d - x for d, x in zip(demand, left)]
    return sum(sent) + _max_flow(to, cap, out, src, snk), cap[1:2 * m:2]


def _max_flow(to, cap, out, s: int, t: int) -> int:
    """Dinic's max flow from s to t; cap is updated to the residual.

    Arc a runs to to[a] with residual capacity cap[a] and a ^ 1 is its
    reverse; out[u] holds the ids of the arcs leaving u in ascending order.
    """
    n = len(out)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in out[u]:
                if cap[a] and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return flow
        # blocking flow by depth-first search over level-increasing
        # arcs; it[u] is the next arc of u to try, and stays on an arc
        # while paths through it may still carry flow
        it = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                # the arcs before the first saturated one keep capacity
                # and their pointers, so a search restarted from s would
                # walk the same prefix again: resume at its end instead
                cut = next(i for i, a in enumerate(path) if not cap[a])
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = out[u]
            i = it[u]
            step = level[u] + 1
            while i < len(arcs) and not (cap[arcs[i]] and level[to[arcs[i]]] == step):
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                # dead end: the arc into u carries nothing more this phase
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


_PI_SCALE = 1 << 20   # multipliers lie on the grid 2^-20 * Z


def one_tree_refutes(graph, budget: int):
    """Whether Held-Karp 1-trees prove that `graph` has no Hamiltonian
    cycle, as (refuted, 1-trees computed), at most `budget` of them.

    Edges cost 0 and non-adjacent pairs 1, so a Hamiltonian cycle costs 0.
    For multipliers pi, a minimum 1-tree under the costs c_uv + pi_u + pi_v
    (a spanning tree on 1..n-1 plus the two cheapest pairs at vertex 0)
    weighs at most any tour, where every degree is 2. Its weight less
    2 * sum(pi) is thus a lower bound on every tour's cost (Held & Karp,
    Oper. Res. 18, 1970). pi lies on the grid 2^-20 * Z, so the bound is
    an int64 in units of 2^-20, and only a positive one refutes: no float
    is compared against 0. Each miss takes the step
    pi += max(1/2 - w, 0.01) * g / |g|^2 towards the bound 1/2, with w the
    bound and g = deg - 2 the 1-tree's degrees less 2. A 1-tree with g = 0
    is a tour of cost at most 0, a Hamiltonian cycle, and ends the search.
    Fewer than 3 vertices refute nothing. A negative budget is refused.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    n = graph.n
    if n < 3:
        return False, 0
    ids = np.arange(n)
    cost = np.where(graph.edge_flags(ids[:, None], ids), 0, _PI_SCALE)
    far = np.int64(1) << 62   # the key of a vertex already in the tree
    pi = np.zeros(n, dtype=np.int64)
    for step in range(1, budget + 1):
        # vertex 0's two cheapest pairs, then Prim on 1..n-1 from vertex 1:
        # key[v] is v's cheapest pair into the tree, and open_pi[v] is
        # pi[v], or far once v is in it; the tree's pairs are (us, vs)
        at0 = cost[0] + pi
        at0[0] = far
        us = [0, 0]
        vs = np.argpartition(at0, 1)[:2].tolist()
        open_pi = pi.copy()
        open_pi[:2] = far
        key = cost[1] + open_pi
        key += pi[1]
        parent = np.ones(n, dtype=np.intp)
        for _ in range(n - 2):
            v = int(key.argmin())
            us.append(v)
            vs.append(parent[v])
            open_pi[v] = far
            key[v] = far
            pair = cost[v] + open_pi
            pair += pi[v]
            parent[pair < key] = v
            np.minimum(key, pair, out=key)
        weight = int((cost[us, vs] + pi[us] + pi[vs]).sum())
        deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
        bound = weight - 2 * int(pi.sum())
        if bound > 0:
            return True, step
        g = deg - 2
        norm = int(g @ g)
        if not norm:
            return False, step
        pi += np.rint(g * (max(0.5 - bound / _PI_SCALE, 0.01) * _PI_SCALE / norm)).astype(np.int64)
    return False, budget


def normalize_tour(instance: Instance, tour, ell: float, p: int) -> np.ndarray:
    """Exchange away every tour edge lying entirely far from a low-degree point.

    Preconditions: scatter(tour) >= ell and the open radius-ell ball around
    p holds more than n/2 points. Each exchange pairs an offending edge
    (both endpoints at distance >= 2*ell from p) with an edge inside the
    ball and 2-opts them; the new edges each keep one endpoint near p, so
    the offending count strictly drops and at most n swaps run.
    """
    n = instance.n
    order = validate_tour(n, tour).copy()
    if ell <= 0:
        raise ValueError("ell must be positive")
    p = int(integer_array(p, "point index"))
    if not 0 <= p < n:
        raise ValueError(f"point index {p} out of range, n={n}")
    dp = instance.distance_rows([p])[0]
    inside = ~meets_threshold(dp, ell)       # open ball B_p
    outside2 = meets_threshold(dp, 2.0 * ell)  # complement of the 2*ell ball
    if 2 * int(inside.sum()) <= n:
        raise ValueError(f"point {p} is not low-degree for ell={ell}")
    edge_d = instance.distance_pairs(order, np.roll(order, -1))
    if not meets_threshold(edge_d, ell).all():
        raise ValueError("tour scatter is below ell")

    pos = np.argsort(order)
    for _ in range(n + 1):
        nxt = np.roll(order, -1)
        offending = outside2[order] & outside2[nxt]
        if not offending.any():
            return order
        i = int(np.argmax(offending))
        # 2-opt the offending pair (x, y) at i with the first pair (z, t)
        # inside the ball after it: (x, z) and (y, t) each have one
        # endpoint inside the ball
        j = _first_after(inside[order] & inside[nxt], i)
        if j is None:
            raise ContractViolation(
                "no tour edge inside the ball; the pigeonhole bound failed")
        _two_opt(order, pos, i, j)
    raise ContractViolation("exchange loop exceeded n swaps")
