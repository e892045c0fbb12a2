"""Workload cells, their reference answers, and the correctness gates.

Every cell list is derived from the workload seed alone; the library only
ever sees the generated instances. A cell keeps its raw coordinates (or
matrix) so that each pass can hand the solver a fresh `Instance`, and so
that the gates can measure tours without going through the library's own
distance code.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from scatter_tsp import CubicBipartiteGraph, Instance, embed, generate

TOL = 1e-9


@dataclass
class Cell:
    name: str
    kind: str                  # "lp", "hamming" or "explicit"
    data: np.ndarray           # points, or the distance matrix
    p: float | None
    epsilon: float
    opt: float | None = None   # exact optimum from the oracle (small cells)
    pinned: float | None = None        # ell_hat the instance is built to have
    gap: tuple | None = None   # (graph is Hamiltonian, adjacent distance 2^(m+1))

    def make(self) -> Instance:
        if self.kind == "lp":
            return Instance.lp(self.data, p=self.p)
        if self.kind == "hamming":
            return Instance.hamming(self.data)
        return Instance.explicit(self.data)


def _lp_cell(name, inst, eps):
    return Cell(name, "lp", inst.points, inst.p, eps)


def _p_name(p) -> str:
    return "linf" if math.isinf(p) else f"l{p:g}"


# cubic bipartite graphs of the gap construction, with Hamiltonicity known
# by hand: K3,3, the 3-cube and the Moebius ladder on 10 vertices have a
# Hamiltonian cycle; two disjoint copies of K3,3 are disconnected
def _k33():
    return 6, [(i, 3 + j) for i in range(3) for j in range(3)], True


def _cube():
    return 8, [(a, a ^ (1 << b)) for a in range(8) for b in range(3)
               if a < a ^ (1 << b)], True


def _ring10():
    return 10, ([(i, (i + 1) % 10) for i in range(10)]
                + [(i, i + 5) for i in range(5)]), True


def _two_k33():
    return 12, ([(i, 3 + j) for i in range(3) for j in range(3)]
                + [(6 + i, 9 + j) for i in range(3) for j in range(3)]), False


def small_exact(seed: int) -> list:
    """Uniform n = 5..16 in dims 1-3 under l1, l2 and linf, explicit copies,
    and hamming gap embeddings; every cell has an oracle optimum.

    The instances are fixed and the workload seed relabels their points (and
    the gap graphs' vertices). Drawing fresh instances from the seed instead
    moved one pass between 3.9 and 6.2 s across ten seeds, because a few
    n = 15-16 cells carry most of the time.
    """
    rng = np.random.default_rng(seed)
    cells = []
    explicit = []
    for n in range(5, 17):
        for j, p in enumerate((1.0, 2.0, math.inf)):
            dim = 1 + (n + j) % 3
            s = 10 * n + j
            points = generate("uniform", n, dim, s, p=p).points[rng.permutation(n)]
            inst = Instance.lp(points, p=p)
            name = f"uniform-n{n}-d{dim}-{_p_name(p)}-s{s}"
            for eps in (0.05, 0.3):
                cells.append(_lp_cell(name, inst, eps))
            if p == 2.0 and n % 3 == 0:
                explicit.append((f"explicit-{name}", inst.full_matrix()))
    for name, matrix in explicit:
        for eps in (0.05, 0.3):
            cells.append(Cell(name, "explicit", matrix, None, eps))
    for build in (_k33, _cube, _ring10, _two_k33):
        n, edges, hamiltonian = build()
        perm = rng.permutation(n)
        graph = CubicBipartiteGraph(n, [(perm[u], perm[v]) for u, v in edges])
        labeling, inst = embed(graph)
        cells.append(Cell(f"gap-{build.__name__[1:]}", "hamming", inst.points,
                          None, 0.2, gap=(hamiltonian, 2.0 * (1 << labeling.m))))
    return cells


def clustered_hub(seed: int) -> list:
    """Default clustered generator: n in {60, 120, 200} x generator seeds 0-3
    x epsilon in {0.25, 0.5}, plus the three cells of the `scaling` suite.

    The instances are fixed and the workload seed only shuffles the order
    they are solved in. The hub tier's cost and aborts swing with the input:
    redrawing the grid's generator seeds, or only relabelling its points,
    moved one pass between 8 and 17 s and between 5 and 9 aborts, which no
    bound of 25% can hold.
    """
    cells = []
    for n in (60, 120, 200):
        for s in range(4):
            inst = generate("clustered", n, 2, s)
            for eps in (0.25, 0.5):
                cells.append(_lp_cell(f"clustered-n{n}-s{s}", inst, eps))
    for n, s in ((60, 11), (200, 12), (500, 13)):
        cells.append(_lp_cell(f"scaling-n{n}-s{s}", generate("clustered", n, 2, s), 0.5))
    random.Random(seed).shuffle(cells)
    return cells


def _blobs(*blocks) -> np.ndarray:
    return np.vstack([np.tile(xy, (count, 1)) for xy, count in blocks])


def blob_10k(seed: int) -> list:
    """The two n = 10^4 instances of acceptance criterion 8, points shuffled
    by the workload seed; their ell_hat does not depend on point order."""
    rng = np.random.default_rng(seed)
    dirac = _blobs(([0.0, 0.0], 4800), ([0.4, 0.0], 300),
                   ([0.2, 1.0], 2400), ([0.2, -1.0], 2500))
    quotient = _blobs(([0.0, 0.0], 3000), ([0.99, 0.0], 2200),
                      ([0.5, 2.0], 2200), ([0.5, -2.0], 2200),
                      ([8.0, 0.0], 200), ([9.0, 0.0], 200))
    return [Cell("blob-dirac-finish", "lp", dirac[rng.permutation(len(dirac))],
                 2.0, 0.05, pinned=0.4),
            Cell("blob-quotient-finish", "lp", quotient[rng.permutation(len(quotient))],
                 2.0, 0.05, pinned=1.0)]


WORKLOADS = {"small-exact": small_exact, "clustered-hub": clustered_hub,
             "blob-10k": blob_10k}


def edge_lengths(cell: Cell, tour: np.ndarray) -> np.ndarray:
    """Cyclic edge lengths of `tour`, computed here rather than by the library."""
    nxt = np.roll(tour, -1)
    if cell.kind == "explicit":
        return cell.data[tour, nxt]
    diff = np.abs(cell.data[tour].astype(float) - cell.data[nxt].astype(float))
    if cell.kind == "hamming":
        return diff.sum(axis=1)
    return np.linalg.norm(diff, ord=cell.p, axis=1)


def check(cell: Cell, ell_hat: float, tour) -> tuple:
    """(scatter of the tour, list of failed gates) for one solved cell."""
    n = len(cell.data)
    tour = np.asarray(tour)
    if tour.shape != (n,) or not np.array_equal(np.sort(tour), np.arange(n)):
        return 0.0, ["tour is not a permutation of 0..n-1"]
    sc = float(edge_lengths(cell, tour).min())
    tol = TOL * max(1.0, abs(ell_hat))
    bad = []
    if sc < (1.0 - cell.epsilon) * ell_hat - tol:
        bad.append(f"scatter {sc} below (1 - eps) * ell_hat = "
                   f"{(1.0 - cell.epsilon) * ell_hat}")
    if cell.opt is not None:
        if cell.opt > ell_hat + tol:
            bad.append(f"oracle optimum {cell.opt} above ell_hat {ell_hat}")
        if sc < (1.0 - cell.epsilon) * cell.opt - tol:
            bad.append(f"scatter {sc} below (1 - eps) * OPT = "
                       f"{(1.0 - cell.epsilon) * cell.opt}")
        if sc > cell.opt + tol:
            bad.append(f"scatter {sc} above the oracle optimum {cell.opt}")
    if cell.pinned is not None and abs(ell_hat - cell.pinned) > tol:
        bad.append(f"ell_hat {ell_hat} is not the pinned {cell.pinned}")
    if cell.gap is not None:
        hamiltonian, adjacent = cell.gap
        if (ell_hat == adjacent) != hamiltonian:
            bad.append(f"ell_hat {ell_hat} breaks the gap dichotomy "
                       f"(Hamiltonian: {hamiltonian}, 2^(m+1) = {adjacent})")
    return sc, bad
