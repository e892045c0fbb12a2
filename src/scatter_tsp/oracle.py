"""Exact small-instance solvers used as ground truth.

Hamiltonicity runs a subset dynamic program over (visited set, endpoint)
states of a boolean adjacency array; the max-scatter oracle binary-searches
the distinct off-diagonal entries of the instance's full matrix, checking
Hamiltonicity of each threshold graph. Exhaustive search needs no triangle
inequality, so the oracle solves any explicit symmetric matrix. It reads
its thresholds and builds its threshold graphs itself, and imports neither
`graphs` nor `candidate_distances`, the code it is used to check. Caps are
enforced because both tables grow as 2^n.
"""

from dataclasses import dataclass

import numpy as np

from .instance import ContractViolation, Instance, meets_threshold, scatter

_BRUTE_CAP = 16
_HAM_CAP = 24


@dataclass
class OracleResult:
    opt: float
    tour: np.ndarray


class _HamDP:
    """Completion table C[mask] (bit v): a path can start at v, cover exactly
    `mask` (a subset of vertices 1..n-1 not containing v), and stop at a
    neighbor of vertex 0. Hamiltonicity of the whole graph is bit 0 of the
    full mask, and greedy lexicographic reconstruction reads the same table.
    """

    def __init__(self, adj: np.ndarray):
        self.adj = adj
        self.n = n = adj.shape[0]
        self.adjmask = np.zeros(n, dtype=np.uint32)
        for v in range(n):
            self.adjmask[v] = np.uint32(sum(1 << u for u in range(n) if adj[v, u]))
        size = 1 << (n - 1)  # masks over vertices 1..n-1, stored at mask >> 1
        idx = np.arange(size, dtype=np.uint32)
        popcount = np.bitwise_count(idx)
        order = np.argsort(popcount, kind="stable")
        counts = np.bincount(popcount, minlength=n)
        self.layers = []
        at = 0
        for k in range(n):
            self.layers.append(order[at:at + counts[k]].astype(np.uint32))
            at += counts[k]
        c = np.zeros(size, dtype=np.uint32)
        c[0] = self.adjmask[0]
        for k in range(1, n):
            members = self.layers[k]
            for u in range(1, n):
                ubit = np.uint32(1 << (u - 1))  # bit of u within the index encoding
                sel = members[(members & ubit) != 0]
                if len(sel) == 0:
                    continue
                prev = c[sel - ubit]
                hit = sel[(prev >> np.uint32(u)) & np.uint32(1) == 1]
                if len(hit):
                    c[hit] = c[hit] | self.adjmask[u]
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
    this square boolean adjacency array, or None."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    n = adj.shape[0]
    if n > _HAM_CAP:
        raise ValueError(f"n={n} exceeds the Hamiltonicity cap {_HAM_CAP}")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    dp = _HamDP(adj)
    if not dp.hamiltonian():
        return None
    return dp.reconstruct()


def check_brute_cap(n: int) -> None:
    """ValueError when brute_force_mstsp would refuse n points."""
    if n > _BRUTE_CAP:
        raise ValueError(f"n={n} exceeds the oracle cap {_BRUTE_CAP}")


def brute_force_mstsp(instance: Instance) -> OracleResult:
    """Exact maximum scatter via binary search on the pairwise distances.

    Tours with scatter >= ell are exactly Hamiltonian cycles of the
    threshold graph at ell, and raising ell only removes edges, so
    feasibility is monotone and the largest feasible distance is OPT.
    Raises ValueError when a computed distance is not finite.
    """
    check_brute_cap(instance.n)
    dist = instance.full_matrix()
    cands = np.unique(dist[np.triu_indices(instance.n, 1)])
    if not np.isfinite(cands[-1]):
        raise ValueError("a pairwise distance overflows to a non-finite value")

    def probe(i):
        adj = meets_threshold(dist, cands[i])
        np.fill_diagonal(adj, False)
        return is_hamiltonian(adj)

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
