"""Exact small-instance solvers used as ground truth.

Hamiltonicity runs Held and Karp's subset dynamic program over (visited
set, endpoint) states of a boolean adjacency array. The masks of one
popcount layer depend only on the layer below, so each layer is one numpy
step over all of its masks and endpoints. The steps come from a layer
plan that depends only on n (`_layer_plan`): each layer's masks, their
vertices and the indices of mask - u, in uint16 or uint32.
`brute_force_mstsp` (n <= 16) builds the plan once per call, one step per
layer and 0.8 MB at n = 16, and all of its binary-search probes step
through it. `is_hamiltonian` (n <= 24) streams the same plan in steps of
at most `_CHUNK` masks, so beside the table (32 MiB at n = 24) it holds
O(n * _CHUNK): on a 24-vertex graph, 1.3 s and a 44 MiB tracemalloc peak
on one core of a 2-core Xeon.

The max-scatter oracle binary-searches the distinct off-diagonal entries
of the instance's full matrix, checking Hamiltonicity of each threshold
graph. Exhaustive search needs no triangle inequality, so the oracle
solves any explicit symmetric matrix. It reads its thresholds and builds
its threshold graphs itself, and imports neither `graphs` nor
`candidate_distances`, the code it is used to check. Caps are enforced
because both tables grow as 2^n.
"""

from dataclasses import dataclass

import numpy as np

from .instance import ContractViolation, Instance, scatter

_BRUTE_CAP = 16
_HAM_CAP = 24
_CHUNK = 1 << 15  # most masks in one step of the table


@dataclass
class OracleResult:
    opt: float
    tour: np.ndarray


def _layer_plan(n: int):
    """Steps of the completion table over vertices 1..n-1, layer by layer.

    Yields (masks, members, subs), one step each, for popcount layers
    1..n-1 in order. `masks` holds table indices of one layer in
    increasing order (vertex u is bit u-1 of an index); row i of the
    (k, len(masks)) arrays `members` and `subs` holds each mask's i-th
    smallest vertex u and the index of mask - u. A step holds at most
    _CHUNK masks: at n <= 16 that is a whole layer; a larger layer is
    cut into runs of masks that share their bits above the lowest
    log2(_CHUNK), and consecutive runs are joined up to _CHUNK masks.
    Indices are uint16 up to n = 17 and uint32 beyond.
    """
    bits = n - 1
    low = min(bits, _CHUNK.bit_length() - 1)
    dtype = np.uint16 if bits <= 16 else np.uint32
    lows = np.arange(1 << low, dtype=dtype)
    popcount = np.bitwise_count(lows)
    lows_of = [lows[popcount == j] for j in range(low + 1)]
    for k in range(1, n):
        runs, size = [], 0
        for high in range(1 << (bits - low)):
            j = k - high.bit_count()
            if not 0 <= j <= low:
                continue
            run = lows_of[j] | dtype(high << low)
            if size + len(run) > _CHUNK and runs:
                yield _layer_step(np.concatenate(runs), k)
                runs, size = [], 0
            runs.append(run)
            size += len(run)
        if runs:
            yield _layer_step(np.concatenate(runs), k)


def _layer_step(masks, k):
    one = masks.dtype.type(1)
    members = np.empty((k, len(masks)), dtype=np.uint8)
    subs = np.empty((k, len(masks)), dtype=masks.dtype)
    rest = masks
    for i in range(k):
        above = rest & (rest - one)  # rest without its lowest bit
        bit = rest ^ above
        subs[i] = masks ^ bit
        members[i] = np.bitwise_count(bit - one) + 1  # bit u-1 is vertex u
        rest = above
    return masks, members, subs


class _HamDP:
    """Completion table C[mask] (bit v): a path can start at v, cover exactly
    `mask` (a subset of vertices 1..n-1 not containing v), and stop at a
    neighbor of vertex 0. Hamiltonicity of the whole graph is bit 0 of the
    full mask, and greedy lexicographic reconstruction reads the same table.

    Held-Karp's subset recursion: C[mask] is the OR of adjmask[u] over the
    u in mask whose bit is set in C[mask - u], so the masks of one popcount
    layer depend only on the layer below, and each step of `plan` (see
    `_layer_plan`) fills its masks at once.
    """

    def __init__(self, adj: np.ndarray, plan):
        self.adj = adj
        self.n = n = adj.shape[0]
        weights = np.uint32(1) << np.arange(n, dtype=np.uint32)
        adjmask = np.where(adj, weights, np.uint32(0)).sum(axis=1, dtype=np.uint32)
        c = np.zeros(1 << (n - 1), dtype=np.uint32)  # mask stored at mask >> 1
        c[0] = adjmask[0]
        for masks, members, subs in plan:
            prev = np.take(c, subs)
            prev >>= members
            prev &= np.uint32(1)
            prev *= np.take(adjmask, members)
            c[masks] = np.bitwise_or.reduce(prev, axis=0)
        self.c = c

    def hamiltonian(self) -> bool:
        full = (1 << (self.n - 1)) - 1
        return bool((int(self.c[full]) >> 0) & 1)

    def reconstruct(self) -> np.ndarray:
        """Lexicographically smallest Hamiltonian cycle as a sequence from 0."""
        n = self.n
        rem = (1 << n) - 2  # vertices 1..n-1 outstanding
        cur = 0
        tour = [0]
        for _ in range(n - 1):
            for u in range(1, n):
                bit = 1 << u
                if not (rem & bit) or not self.adj[cur, u]:
                    continue
                nxt = rem & ~bit
                if (int(self.c[nxt >> 1]) >> u) & 1:
                    tour.append(u)
                    rem = nxt
                    cur = u
                    break
            else:
                raise ContractViolation("reconstruction dead-ended mid-tour")
        if not self.adj[cur, 0]:
            raise ContractViolation("reconstructed path does not close")
        return np.array(tour, dtype=np.intp)


def is_hamiltonian(adjacency):
    """The lexicographically smallest Hamiltonian cycle of the graph with
    this square boolean adjacency array, or None. The layer plan is
    streamed, so beside the 2^(n-1)-entry table it holds O(n * _CHUNK)."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    n = adj.shape[0]
    if n > _HAM_CAP:
        raise ValueError(f"n={n} exceeds the Hamiltonicity cap {_HAM_CAP}")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    return _first_cycle(adj, _layer_plan(n))


def _first_cycle(adj: np.ndarray, plan):
    dp = _HamDP(adj, plan)
    return dp.reconstruct() if dp.hamiltonian() else None


def check_brute_cap(n: int) -> None:
    """ValueError when brute_force_mstsp would refuse n points."""
    if n > _BRUTE_CAP:
        raise ValueError(f"n={n} exceeds the oracle cap {_BRUTE_CAP}")


def brute_force_mstsp(instance: Instance) -> OracleResult:
    """Exact maximum scatter via binary search on the pairwise distances.

    Tours with scatter >= ell are exactly Hamiltonian cycles of the
    threshold graph at ell, and raising ell only removes edges, so
    feasibility is monotone and the largest feasible distance is OPT.
    The threshold graphs compare exactly, with no tolerance, so the graph
    at one distance holds no edge of a distance just below it.
    Raises ValueError when a computed distance is not finite.
    """
    check_brute_cap(instance.n)
    plan = list(_layer_plan(instance.n))  # every probe steps through it
    dist = instance.full_matrix()
    cands = np.unique(dist[np.triu_indices(instance.n, 1)])
    if not np.isfinite(cands[-1]):
        raise ValueError("a pairwise distance overflows to a non-finite value")

    def probe(i):
        adj = dist >= cands[i]
        np.fill_diagonal(adj, False)
        return _first_cycle(adj, plan)

    best = probe(0)
    if best is None:
        raise ContractViolation("threshold graph at the smallest candidate "
                                "must be complete, but is not Hamiltonian")
    lo, hi = 0, len(cands)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = probe(mid)
        if t is None:
            hi = mid
        else:
            lo, best = mid, t
    return OracleResult(opt=scatter(instance, best), tour=best)
