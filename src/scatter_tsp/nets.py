"""Greedy delta-nets and grid rounding.

The net construction greedily picks the lowest-index unmarked point as a
center and marks everything within delta of it; marked-only-by-distance
membership then gets refined into a nearest-center assignment. Centers end
up pairwise more than delta apart (packing) while every point stays within
delta of its assigned center (covering).
"""

from dataclasses import dataclass, field

import numpy as np

from .instance import Instance


@dataclass
class Net:
    delta: float
    subset: np.ndarray          # the point ids the net was built over, ascending
    center_ids: np.ndarray      # chosen centers, ascending point ids
    assigned: np.ndarray        # assigned[i] = center id of subset[i]
    preimages: dict = field(default_factory=dict)  # center id -> point id array

    def assignment(self) -> dict:
        return {int(p): int(c) for p, c in zip(self.subset, self.assigned)}

    def size(self) -> int:
        return len(self.center_ids)


def greedy_delta_net(instance: Instance, subset, delta: float) -> Net:
    """Delta-net over `subset` with nearest-center assignment.

    Greedy order is ascending point index, which makes the construction
    deterministic; assignment ties also break toward the lowest center.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    subset = np.unique(np.asarray(subset, dtype=np.intp))
    if len(subset) == 0:
        raise ValueError("subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= instance.n:
        raise ValueError("subset indices out of range")

    marked = np.zeros(len(subset), dtype=bool)
    centers = []
    best_d = np.full(len(subset), np.inf)
    assigned = np.full(len(subset), -1, dtype=np.intp)
    while not marked.all():
        c = int(subset[int(np.argmax(~marked))])
        row = instance.distance_rows([c])[0][subset]
        centers.append(c)
        # strict < keeps the earlier (= lower-id) center on distance ties
        upd = row < best_d
        best_d[upd] = row[upd]
        assigned[upd] = c
        marked |= row <= delta

    centers = np.array(centers, dtype=np.intp)
    preimages = {int(c): subset[assigned == c] for c in centers}
    return Net(delta=float(delta), subset=subset, center_ids=centers,
               assigned=assigned, preimages=preimages)


def grid_round(points, delta: float) -> np.ndarray:
    """Round each coordinate to the nearest multiple of delta, ties toward +inf."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pts = np.asarray(points, dtype=float)
    return np.floor(pts / delta + 0.5) * delta
