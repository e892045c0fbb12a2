"""Independent oracles and builders shared by the test modules.

Everything here avoids the library's own algorithms: feasibility is decided
by enumerating walks, optimal scatter by trying every cyclic order,
Hamiltonicity by trying every permutation, and the hub tier's path-cover
floor by a max flow on one sender and receiver per clone. Slow on purpose,
trustworthy on purpose. The exceptions are the reference versions at the
end: earlier implementations of the library's own routines (the eager hub
path search, the hub tier that refined every component in full, the
one-center-at-a-time greedy net, the full-row candidate sweep, the dense
Dirac path, the per-arc walk DP, the recursive max flow and the transport
that ran every Dinic phase by search), kept to pin their outputs.
"""

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np

from scatter_tsp import ContractViolation, CubicBipartiteGraph, Instance, threshold_graph
from scatter_tsp.graphs import _max_flow
from scatter_tsp.many_visits import (
    _CLONE_CAP,
    _WALK_STATE_CAP,
    _clone_adjacency,
    _exact_cover,
    _greedy_paths,
    _restart_paths,
)


def _walk_completes(allowed, visits):
    """Memoized DFS: reach(cur, rem) tells whether a walk at `cur` with
    `rem` visits left can spend them all and close at vertex 0."""
    nbr = [tuple(np.flatnonzero(allowed[i]).tolist()) for i in range(len(visits))]

    @lru_cache(maxsize=None)
    def reach(cur, rem):
        if not any(rem):
            return bool(allowed[cur, 0])
        for j in nbr[cur]:
            if rem[j]:
                nxt = rem[:j] + (rem[j] - 1,) + rem[j + 1:]
                if reach(j, nxt):
                    return True
        return False

    return reach


def _walk_start(visits):
    start = [int(v) for v in visits]
    start[0] -= 1
    return tuple(start)


def closed_walk_feasible(allowed, visits):
    """Exhaustive check for a closed walk with exact visit counts.

    Memoized DFS over (current vertex, remaining visits); only practical
    for a handful of vertices with single-digit counts.
    """
    allowed = np.asarray(allowed, dtype=bool)
    if len(visits) == 1:
        return visits[0] == 1  # no self-loops, so one visit or nothing
    return _walk_completes(allowed, visits)(0, _walk_start(visits))


def least_closed_walk(allowed, visits):
    """The lexicographically least closed walk from vertex 0 with exact
    visit counts, or None: each step takes the least neighbour from which
    closed_walk_feasible's DFS still completes the walk."""
    allowed = np.asarray(allowed, dtype=bool)
    reach = _walk_completes(allowed, visits)
    cur, rem = 0, _walk_start(visits)
    if not reach(cur, rem):
        return None
    walk = [0]
    while any(rem):
        cur = next(j for j in np.flatnonzero(allowed[cur]).tolist()
                   if rem[j] and reach(j, rem[:j] + (rem[j] - 1,) + rem[j + 1:]))
        rem = rem[:cur] + (rem[cur] - 1,) + rem[cur + 1:]
        walk.append(cur)
    return walk + [0]


def validate_multiwalk(spec, mw):
    """Assert the walk is closed, edge-legal, and hits the exact counts."""
    w = mw.walk
    if len(w) == 1:
        assert spec.k == 1 and list(spec.visits) == [1]
        assert mw.walk_edge_count() == 0
        return
    assert w[0] == w[-1]
    for a, b in zip(w, w[1:]):
        assert spec.allowed[a, b], f"walk uses forbidden edge ({a}, {b})"
    counts = Counter(w[:-1])
    assert [counts.get(i, 0) for i in range(spec.k)] == list(spec.visits)
    assert len(w) - 1 == sum(spec.visits) == mw.walk_edge_count()


def brute_scatter(instance):
    """(optimal scatter, one optimal tour) by enumerating cyclic orders."""
    n = instance.n
    if n > 9:
        raise ValueError("permutation search is for n <= 9")
    m = instance.full_matrix()
    best = -1.0
    best_tour = None
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        sc = min(m[tour[i], tour[(i + 1) % n]] for i in range(n))
        if sc > best:
            best, best_tour = sc, tour
    return best, list(best_tour)


def naive_hamiltonian(adj):
    """Permutation search for a Hamiltonian cycle; n <= 10 or so."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        if all(adj[tour[i], tour[(i + 1) % n]] for i in range(n)):
            return True
    return False


def random_dirac_adjacency(n, rng, p=0.55):
    """Random graph patched up to minimum degree >= n/2."""
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    need = (n + 1) // 2
    deg = adj.sum(axis=1)
    while True:
        worst = int(np.argmin(deg))
        if deg[worst] >= need:
            return adj
        cand = np.flatnonzero(~adj[worst])
        cand = cand[cand != worst]
        pick = int(cand[int(np.argmin(deg[cand]))])
        adj[worst, pick] = adj[pick, worst] = True
        deg[worst] += 1
        deg[pick] += 1


def k33():
    return CubicBipartiteGraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def cube_graph():
    edges = [(a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)]
    return CubicBipartiteGraph(8, edges)


def ring10():
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, i + 5) for i in range(5)]
    return CubicBipartiteGraph(10, edges)


def two_k33():
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    edges += [(6 + i, 9 + j) for i in range(3) for j in range(3)]
    return CubicBipartiteGraph(12, edges)


def ring_far_instance(c, k, extra, seed):
    """Cluster + inner ring + far circle, with a tour that needs cleanup.

    Returns (instance, tour, ell). The tour has scatter >= ell, the first
    cluster point is low-degree at ell, and exactly extra - 1 tour edges
    have both endpoints far from it. Requires odd k > extra and extra >= 2.
    """
    if k % 2 == 0 or k <= extra or extra < 2:
        raise ValueError("need odd k > extra >= 2")
    rng = np.random.default_rng(seed)
    cluster = rng.uniform(-0.005, 0.005, size=(c, 2))
    ang = np.arange(k) * 2 * np.pi / k
    ang = ang + rng.uniform(-np.pi / (5 * k), np.pi / (5 * k), size=k)
    ring = 0.9 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    f = c + extra
    fang = np.arange(f) * 2 * np.pi / f
    far = 10.0 * np.stack([np.cos(fang), np.sin(fang)], axis=1)
    inst = Instance.lp(np.vstack([cluster, ring, far]), p=2.0)

    ring_ids = [c + i for i in range(k)]
    far_ids = [c + k + i for i in range(f)]
    tour = []
    for i in range(c):
        tour.append(i)
        tour.append(far_ids[i])
    tour.extend(far_ids[c:f - 1])                 # consecutive far points
    tour.extend(ring_ids[(2 * t) % k] for t in range(k))  # odd k: stride 2
    tour.append(far_ids[f - 1])
    return inst, np.array(tour, dtype=np.intp), 1.0


# Reference hub path-cover search: the list-slicing implementation that the
# library's lazy version must reproduce path for path. `allowed` is a list of
# lists of bools indexed by vertex.

def ref_merge_pass(paths, allowed):
    merged = False
    i = 0
    while i < len(paths):
        j = i + 1
        while j < len(paths):
            pi, pj = paths[i], paths[j]
            if allowed[pi[-1]][pj[0]]:
                paths[i] = pi + pj
            elif allowed[pi[-1]][pj[-1]]:
                paths[i] = pi + pj[::-1]
            elif allowed[pi[0]][pj[0]]:
                paths[i] = pi[::-1] + pj
            elif allowed[pi[0]][pj[-1]]:
                paths[i] = pj + pi
            else:
                j += 1
                continue
            paths.pop(j)
            merged = True
        i += 1
    return merged


def ref_rotation_variants(path, allowed):
    """Every rotation keeping path[0] fixed, one per endpoint, built eagerly."""
    seen = {path[-1]}
    queue = [list(path)]
    qi = 0
    while qi < len(queue):
        q = queue[qi]
        qi += 1
        a = q[-1]
        for pos in range(len(q) - 2):
            if allowed[a][q[pos]]:
                rot = q[:pos + 1] + q[pos + 1:][::-1]
                if rot[-1] not in seen:
                    seen.add(rot[-1])
                    queue.append(rot)
    return queue


def ref_rotate_merge_once(paths, allowed):
    for i in range(len(paths)):
        if len(paths[i]) < 3:
            continue
        for flip in (False, True):
            base = paths[i][::-1] if flip else paths[i]
            for rot in ref_rotation_variants(base, allowed):
                e = rot[-1]
                for j in range(len(paths)):
                    if j == i:
                        continue
                    r = paths[j]
                    if allowed[e][r[0]]:
                        paths[i] = rot + r
                    elif allowed[e][r[-1]]:
                        paths[i] = rot + r[::-1]
                    else:
                        continue
                    paths.pop(j)
                    return True
    return False


def ref_greedy_paths(vertices, allowed):
    # the loop that sweeps again after every rotation merge; the library
    # skips those sweeps, which can merge nothing
    paths = [[v] for v in vertices]
    while len(paths) > 1:
        if ref_merge_pass(paths, allowed):
            continue
        if not ref_rotate_merge_once(paths, allowed):
            break
    return paths


def ref_restart_covers(comp, allowed):
    """The restart search's trial covers, one per seeded shuffle, in order."""
    m = len(comp)
    trials = 200 if m <= 64 else 40 if m <= 160 else 12 if m <= 320 else 4
    rng = np.random.default_rng(0)
    order = list(comp)
    for _ in range(trials):
        rng.shuffle(order)
        yield ref_greedy_paths(list(order), allowed)


def ref_restart_paths(comp, allowed, initial):
    """The best of every trial cover, stopping early only at one path."""
    best = initial
    for paths in ref_restart_covers(comp, allowed):
        if len(paths) < len(best):
            best = paths
            if len(best) == 1:
                break
    return best


def ref_vertex_components(vertices, allowed):
    remaining = list(vertices)
    comps = []
    seen = set()
    for v0 in remaining:
        if v0 in seen:
            continue
        comp = [v0]
        seen.add(v0)
        stack = [v0]
        while stack:
            x = stack.pop()
            for w in remaining:
                if w not in seen and allowed[x][w]:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def ref_greedy_delta_net(instance, subset, delta):
    """The greedy delta-net one center at a time, as the library built it
    before it moved to blocks: (centers, assigned, preimages)."""
    subset = np.unique(np.asarray(subset, dtype=np.intp))
    marked = np.zeros(len(subset), dtype=bool)
    centers = []
    best_d = np.full(len(subset), np.inf)
    assigned = np.full(len(subset), -1, dtype=np.intp)
    while not marked.all():
        c = int(subset[int(np.argmax(~marked))])
        row = instance.distance_rows([c])[0][subset]
        centers.append(c)
        upd = row < best_d
        best_d[upd] = row[upd]
        assigned[upd] = c
        marked |= row <= delta
    centers = np.array(centers, dtype=np.intp)
    preimages = {int(c): subset[assigned == c] for c in centers}
    return centers, assigned, preimages


# Reference distance sweeps: the candidate sweep over full rows in 256-row
# blocks, and the Dirac cycle built on the dense threshold graph, as the
# library had them before they moved to half rows and on-demand rows.

def ref_candidate_distances(instance):
    n = instance.n
    uniq = []
    zeros = 0
    for lo in range(0, n, 256):
        ids = np.arange(lo, min(lo + 256, n))
        rows = instance.distance_rows(ids)
        zeros += int(np.count_nonzero(rows == 0.0))
        uniq.append(np.unique(rows))
    vals = np.unique(np.concatenate(uniq))
    vals = vals[vals > 0.0]
    # each full row holds its own d(i, i) = 0 once
    if zeros > n:
        vals = np.concatenate(([0.0], vals))
    return vals


def ref_dirac_tour(instance, ell, start=None):
    """Dirac cycle of the dense threshold graph at ell, repaired from the
    cyclic order `start` (index order when it is None)."""
    adj = threshold_graph(instance, ell).adjacency
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    worst = int(np.argmin(deg))
    if 2 * int(deg[worst]) < n:
        raise ValueError(
            f"vertex {worst} has degree {int(deg[worst])} < n/2 = {n / 2}")
    order = np.arange(n) if start is None else np.array(start, dtype=np.intp)
    nxt = np.roll(order, -1)
    bad_mask = ~adj[order, nxt]
    bad = {_ref_key(int(order[i]), int(nxt[i])) for i in np.nonzero(bad_mask)[0]}
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    guard = len(bad) + 1
    while bad:
        guard -= 1
        if guard < 0:
            raise ContractViolation("cycle repair failed to make progress")
        a, b = bad.pop()
        i = pos[a]
        if order[(i + 1) % n] != b:
            a, b = b, a
            i = pos[a]
        order = np.roll(order, -i)
        cand = adj[a, order] & adj[b, np.roll(order, -1)]
        cand[0] = False
        j = int(np.argmax(cand))
        if not cand[j]:
            raise ContractViolation(
                f"no crossing rotation for pair ({a}, {b}); degree condition broken")
        old = _ref_key(int(order[j]), int(order[(j + 1) % n]))
        bad.discard(old)
        order[1:j + 1] = order[j:0:-1]
        pos[order] = np.arange(n)
    return order


def _ref_key(u, v):
    return (u, v) if u < v else (v, u)


# Reference walk DP: every code of the state space sorted into layers of
# equal remaining total up front, then one gather and one scatter per
# directed arc and layer. The library's frontier sweep must fill the same
# reach table and so return the same walk.

def ref_walk_dp(allowed, visits):
    k = len(visits)
    bases = [1] * k
    prod = 1
    for v in range(k):
        bases[v] = prod
        prod *= visits[v] + 1
        if prod > _WALK_STATE_CAP:
            return "out_of_range"
    counts = np.array(visits, dtype=np.int64)
    bases = np.array(bases, dtype=np.int64)

    codes = np.arange(prod, dtype=np.int64)
    totals = np.zeros(prod, dtype=np.int64)
    for v in range(k):
        totals += (codes // bases[v]) % (counts[v] + 1)
    order = np.argsort(totals, kind="stable")
    sorted_totals = totals[order]
    start_total = int(counts.sum()) - 1

    reach = np.zeros((prod, k), dtype=bool)
    start_code = int(np.sum(counts * bases)) - int(bases[0])
    reach[start_code, 0] = True

    arcs = [(u, w) for u in range(k) for w in range(k) if allowed[u][w]]
    for t in range(start_total, 0, -1):
        lo = np.searchsorted(sorted_totals, t, side="left")
        hi = np.searchsorted(sorted_totals, t, side="right")
        layer = order[lo:hi]
        for (u, w) in arcs:
            src = layer[reach[layer, u]]
            if len(src) == 0:
                continue
            src = src[(src // bases[w]) % (counts[w] + 1) > 0]
            reach[src - bases[w], w] = True

    finish = [w for w in range(k) if allowed[w][0] and reach[0, w]]
    if not finish:
        return None
    cur = finish[0]
    walk_rev = [0, cur]
    code = 0
    for _ in range(start_total):
        pcode = code + int(bases[cur])
        prev = None
        for cand in range(k):
            if allowed[cand][cur] and reach[pcode, cand]:
                prev = cand
                break
        if prev is None:
            raise ContractViolation("walk reconstruction lost its trail")
        walk_rev.append(prev)
        code, cur = pcode, prev
    if cur != 0 or code != start_code:
        raise ContractViolation("walk reconstruction ended off the start state")
    return walk_rev[::-1]


# Reference hub tier: every component refined in full (the walk DP on its
# owners, or all restarts) and every lower bound computed before the cover
# is compared with t. It shares the library's path search, which
# test_hub_path_cover.py pins to the eager reference above, and its exact
# cover, which brute force and walk enumeration pin there; so it pins the
# order in which the library's tier stops early. Its floor is its own:
# ref_clone_floor on the clone graph, against the library's flow on owner
# classes. The tier must give the same answer class: a walk, None,
# "no_hub", or the same abort message.

def ref_clone_floor(comp, rows):
    """Path-cover floor max(1, m - floor(f / 2)) of the clones in comp, f
    the max flow on their literal double cover: a sender and a receiver of
    capacity 2 per clone, a unit arc per adjacent ordered pair."""
    m = len(comp)
    src, snk = 2 * m, 2 * m + 1
    net = _RefDinic(2 * m + 2)
    for i, a in enumerate(comp):
        net.add(src, i, 2)
        net.add(m + i, snk, 2)
        for j, b in enumerate(comp):
            if rows[a][b]:
                net.add(i, m + j, 1)
    return max(1, m - net.max_flow(src, snk) // 2)


def ref_hub_path_cover(spec):
    k = spec.k
    universal = [v for v in range(k) if int(spec.allowed[v].sum()) == k - 1]
    if not universal:
        return "no_hub"
    h = min(universal, key=lambda v: (-spec.visits[v], v))
    t = spec.visits[h]
    total_rest = sum(spec.visits[v] for v in range(k) if v != h)
    if t > total_rest:
        return None
    if total_rest > _CLONE_CAP:
        return "no_hub"

    owner = []
    for v in range(k):
        if v != h:
            owner.extend([v] * spec.visits[v])
    m = len(owner)
    adj = _clone_adjacency(spec.allowed, owner)

    comps = ref_vertex_components(range(m), adj.rows)
    if len(comps) > t:
        return None
    covers = [_greedy_paths(comp, adj) for comp in comps]
    if sum(len(cv) for cv in covers) > t:
        refined = []
        floors = []
        for comp, greedy in zip(comps, covers):
            exact = (_exact_cover(comp, owner, spec.allowed, h, greedy)
                     if len(greedy) > 1 else greedy)
            if exact is not None:
                refined.append(exact)
                floors.append(len(exact))
            else:
                refined.append(_restart_paths(comp, adj, greedy))
                floors.append(ref_clone_floor(comp, adj.rows))
        covers = refined
        if sum(len(cv) for cv in covers) > t:
            if sum(floors) > t:
                return None
            open_sizes = [len(comp) for comp, cv, floor in zip(comps, covers, floors)
                          if len(cv) > floor]
            raise ContractViolation(
                f"hub path-cover tier undecided: k={k}, hub visits t={t}, "
                f"m={m} clones; greedy cover {sum(len(cv) for cv in covers)} "
                f"paths > t >= certified floor {sum(floors)}; unresolved "
                f"component sizes {open_sizes}")

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


# Reference max flow: Dinic's algorithm with one list per arc and a
# recursive blocking-flow search. The library's flat-array version must
# augment along the same paths, so _arc_flow returns the same dict.

class _RefDinic:
    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]

    def add(self, u, v, cap):
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])
        return len(self.adj[u]) - 1

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                u = queue[qi]
                qi += 1
                for e in self.adj[u]:
                    if e[1] > 0 and level[e[0]] < 0:
                        level[e[0]] = level[u] + 1
                        queue.append(e[0])
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    e = self.adj[u][it[u]]
                    v = e[0]
                    if e[1] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, e[1]))
                        if got > 0:
                            e[1] -= got
                            self.adj[v][e[2]][1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 200)
                if pushed == 0:
                    break
                flow += pushed


def ref_arc_flow(edges, out_deg, in_deg):
    k = len(out_deg)
    total = sum(out_deg)
    src, snk = 2 * k, 2 * k + 1
    net = _RefDinic(2 * k + 2)
    inf = total + 1
    for v in range(k):
        net.add(src, 2 * v, out_deg[v])
        net.add(2 * v + 1, snk, in_deg[v])
    slots = {}
    for (u, v) in edges:
        a = net.add(2 * u, 2 * v + 1, inf)
        b = net.add(2 * v, 2 * u + 1, inf)
        slots[(u, v)] = (a, b)
    if net.max_flow(src, snk) != total:
        return None
    got = {}
    for (u, v), (a, b) in slots.items():
        used = (inf - net.adj[2 * u][a][1]) + (inf - net.adj[2 * v][b][1])
        if used:
            got[(u, v)] = used
    return got


def ref_transport(supply, demand, tails, heads, caps):
    """`graphs.transport` with every phase searched: the network laid out
    as the library lays it out, and `_max_flow` run from zero flow."""
    s, r, m = len(supply), len(demand), len(caps)
    tails, heads = (np.asarray(x, dtype=np.intp).reshape(-1) for x in (tails, heads))
    src, snk = s + r, s + r + 1
    tails = np.concatenate((tails, np.full(s, src), np.arange(s, s + r)))
    heads = np.concatenate((s + heads, np.arange(s), np.full(r, snk)))
    cap = [0] * (2 * len(tails))
    cap[0::2] = [*caps, *supply, *demand]
    leaves = np.column_stack((tails, heads)).reshape(-1)
    order = np.argsort(leaves, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(leaves, minlength=s + r + 2)).tolist()
    out = [order[b0:b1] for b0, b1 in zip([0] + bounds[:-1], bounds)]
    to = np.column_stack((heads, tails)).reshape(-1).tolist()
    return _max_flow(to, cap, out, src, snk), cap[1:2 * m:2]
