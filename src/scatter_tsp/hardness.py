"""Hard Maximum Scatter TSP instances from cubic bipartite graphs.

Every vertex of a 3-edge-colored cubic bipartite graph receives three
blocks of an equidistant binary code, one block per color. Endpoints of
an edge carry a word and its complement in the edge's color block and
unrelated words elsewhere, which pins the Hamming distance of every
vertex pair to exactly 2^(m+1) for adjacent pairs and 3*2^(m-1) for
non-adjacent ones. A tour whose scatter exceeds the smaller value can
therefore only use graph edges, so it certifies a Hamiltonian cycle,
and any approximation sharper than the 3/4 gap would decide
Hamiltonicity of cubic bipartite graphs.
"""

from dataclasses import dataclass, field

import numpy as np

from .instance import ContractViolation, Instance, integer_array
from .graphs import bipartite_max_matching, components
from .oracle import brute_force_mstsp, is_hamiltonian

_REED_MULLER_MAX_M = 20   # memory guard: words occupy 4^m bytes
_GAP_CHECK_MAX_N = 12     # embedded instances must stay oracle-sized


@dataclass
class CodeBook:
    """Truth tables of all linear forms x -> <a, x> over m bits.

    Distinct words disagree in exactly half of the 2^m positions, and no
    word is another's complement; both facts come from every nonzero
    linear form hitting 1 on exactly half of its inputs.
    """

    m: int
    words: np.ndarray

    def __post_init__(self):
        size = 1 << self.m
        if self.words.shape != (size, size):
            raise ValueError("word table must be 2^m words of length 2^m")

    @property
    def distance(self) -> int:
        return 1 << (self.m - 1)


def reed_muller(m: int) -> CodeBook:
    """Code book of the 2^m linear-form truth tables, in counting order.

    Word a evaluates <a, x> on inputs x = 0, 1, ... in binary counting
    order, so words[a][x] is the parity of popcount(a & x) and word 0 is
    all-zero.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError("m must be an integer")
    if not 1 <= m <= _REED_MULLER_MAX_M:
        raise ValueError(f"m must be between 1 and {_REED_MULLER_MAX_M}")
    size = 1 << m
    idx = np.arange(size, dtype=np.uint64)
    words = np.empty((size, size), dtype=np.uint8)
    block = max(1, (1 << 22) // size)   # bound the uint64 temporaries
    for lo in range(0, size, block):
        hi = min(size, lo + block)
        words[lo:hi] = np.bitwise_count(idx[lo:hi, None] & idx[None, :]) & 1
    return CodeBook(int(m), words)


@dataclass
class CubicBipartiteGraph:
    """Simple 3-regular bipartite graph with a fixed 2-coloring.

    Edges are normalized to sorted pairs in lexicographic order. The
    side array is the bipartition: each component is 2-colored with its
    lowest vertex on side 0, so the labeling is deterministic.
    """

    n: int
    edges: list
    side: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 4 or n % 2:
            raise ValueError("vertex count must be an even integer, at least 4")
        if len(self.edges) != 3 * n // 2:  # before any per-vertex list
            raise ValueError(f"a cubic graph on {n} vertices has {3 * n // 2} edges, "
                             f"got {len(self.edges)}")
        norm = []
        for edge in self.edges:
            u, v = integer_array(edge, "edge ends").tolist()
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.append((min(u, v), max(u, v)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        self.edges = sorted(norm)

        degree = [0] * self.n
        for (u, v) in self.edges:
            degree[u] += 1
            degree[v] += 1
        bad = [v for v in range(self.n) if degree[v] != 3]
        if bad:
            raise ValueError(f"vertex {bad[0]} has degree {degree[bad[0]]}, not 3")

        # the bipartite double cover: x and x + n stand for x on either
        # side. A component of the graph is bipartite exactly when its
        # cover splits in two, x and x + n apart, and the half holding its
        # lowest vertex, which comes first, puts that vertex on side 0.
        # Every vertex has an edge, so each half holds a vertex below n
        side = np.full(self.n, -1, dtype=np.int8)
        cover = [(u + a, v + n - a) for u, v in self.edges for a in (0, n)]
        for half in components(2 * n, cover):
            if len({x % n for x in half}) < len(half):
                raise ValueError("graph contains an odd cycle")
            if side[min(half)] < 0:
                for x in half:
                    side[x % n] = x >= n
        self.side = side
        if int(np.sum(side == 0)) != self.n // 2:
            raise ValueError("bipartition sides are unbalanced")


def write_cubic_graph(graph: CubicBipartiteGraph, path) -> None:
    """Text form: vertex count, then one `u v` line per edge, 0-based."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.n}\n")
        for (u, v) in graph.edges:
            fh.write(f"{u} {v}\n")


def read_cubic_graph(path) -> CubicBipartiteGraph:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty graph file")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ValueError("graph file must contain only integers") from None
    n = values[0]
    rest = values[1:]
    if len(rest) % 2:
        raise ValueError("dangling vertex id at end of graph file")
    edges = list(zip(rest[0::2], rest[1::2]))
    return CubicBipartiteGraph(n, edges)


def edge_color_cubic_bipartite(graph: CubicBipartiteGraph) -> list:
    """Partition the edges into three perfect matchings.

    Repeatedly extracts a maximum bipartite matching; in an r-regular
    bipartite graph it is perfect, and removing it leaves the graph
    (r-1)-regular, so three rounds use up every edge.
    """
    left_ids = np.flatnonzero(graph.side == 0)
    right_ids = np.flatnonzero(graph.side == 1)
    lpos = {int(v): i for i, v in enumerate(left_ids)}
    rpos = {int(v): i for i, v in enumerate(right_ids)}
    remaining = list(graph.edges)
    colors = []
    for _ in range(3):
        lookup = {}
        pairs = []
        for (u, v) in remaining:
            lu = u if graph.side[u] == 0 else v
            rv = v if graph.side[u] == 0 else u
            key = (lpos[lu], rpos[rv])
            lookup[key] = (u, v)
            pairs.append(key)
        match = bipartite_max_matching(len(left_ids), len(right_ids), pairs)
        if len(match) != graph.n // 2:
            raise ContractViolation("matching round left some vertex uncovered")
        chosen = [lookup[key] for key in match]
        colors.append(sorted(chosen))
        taken = set(chosen)
        remaining = [e for e in remaining if e not in taken]
    if remaining:
        raise ContractViolation("edge coloring left edges over")
    return colors


@dataclass
class Labeling:
    """Per-vertex binary label of length 3 * 2^m, one code block per color."""

    m: int
    labels: np.ndarray

    def __post_init__(self):
        if self.labels.ndim != 2 or self.labels.shape[1] != 3 * (1 << self.m):
            raise ValueError("labels must be vertex rows of length 3 * 2^m")


def embed(graph: CubicBipartiteGraph):
    """Label the vertices and return (Labeling, hamming Instance).

    Uses the smallest m with 2^m words covering the n/2 edges of one
    color class. The k-th edge of color i writes word k into block i of
    its side-0 endpoint and the complement into its side-1 endpoint.
    Every pair of vertices then sits at Hamming distance 2^(m+1) when
    adjacent and 3*2^(m-1) when not.
    """
    half = graph.n // 2
    m = 1
    while (1 << m) < half:
        m += 1
    book = reed_muller(m)
    width = 1 << m
    labels = np.zeros((graph.n, 3 * width), dtype=np.uint8)
    for i, matching in enumerate(edge_color_cubic_bipartite(graph)):
        lo = i * width
        for k, (u, v) in enumerate(matching):
            left, right = (u, v) if graph.side[u] == 0 else (v, u)
            labels[left, lo:lo + width] = book.words[k]
            labels[right, lo:lo + width] = 1 - book.words[k]
    return Labeling(m, labels), Instance.hamming(labels)


@dataclass
class GapReport:
    is_hamiltonian: bool
    opt: float
    ratio: float
    m: int


def gap_check(graph: CubicBipartiteGraph) -> GapReport:
    """Exact dichotomy audit of the embedding on an oracle-sized graph.

    The embedded optimum must be 2^(m+1) exactly when the graph is
    Hamiltonian and 3*2^(m-1) otherwise; any other value voids the
    reduction. The reported ratio is their quotient 3/4, the
    inapproximability threshold in the Hamming metric.
    """
    if graph.n > _GAP_CHECK_MAX_N:
        raise ValueError(
            f"gap_check is limited to n <= {_GAP_CHECK_MAX_N} vertices")
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    for (u, v) in graph.edges:
        adj[u, v] = adj[v, u] = True
    cycle = is_hamiltonian(adj)
    labeling, inst = embed(graph)
    opt = brute_force_mstsp(inst).opt
    width = 1 << labeling.m
    adjacent = 2.0 * width
    nonadjacent = 1.5 * width
    want = adjacent if cycle is not None else nonadjacent
    # small integers, exact in floating point
    if opt != want:
        raise ContractViolation(
            f"embedded optimum {opt} disagrees with the dichotomy value {want}")
    return GapReport(cycle is not None, float(opt), nonadjacent / adjacent,
                     labeling.m)
