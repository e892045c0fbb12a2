"""Greedy delta-nets and grid rounding.

The net construction greedily picks the lowest-index unmarked point as a
center and marks everything within delta of it; marked-only-by-distance
membership then gets refined into a nearest-center assignment. Centers end
up pairwise more than delta apart (packing) while every point stays within
delta of its assigned center (covering).

The greedy runs in blocks of BLOCK_ROWS unmarked points. Which of them
become centers follows from their pairwise distances alone, so distance
rows are computed only for the centers, one block of rows at a time; the
result equals that of picking one center after another.
"""

from dataclasses import dataclass, field

import numpy as np

from .instance import BLOCK_ROWS, Instance, integer_array


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
    if not delta > 0:   # NaN fails this too
        raise ValueError(f"delta must be positive, got {delta}")
    subset = np.unique(integer_array(subset, "subset indices"))
    if len(subset) == 0:
        raise ValueError("subset must be nonempty")
    if subset[0] < 0 or subset[-1] >= instance.n:
        raise ValueError("subset indices out of range")

    marked = np.zeros(len(subset), dtype=bool)
    centers = []
    best_d = np.full(len(subset), np.inf)
    assigned = np.full(len(subset), -1, dtype=np.intp)
    while not marked.all():
        # the next BLOCK_ROWS unmarked points, in greedy order: each is a
        # center unless an earlier center of the block lies within delta
        cand = subset[np.flatnonzero(~marked)[:BLOCK_ROWS]]
        near = instance.distance_pairs(cand[:, None], cand[None, :]) <= delta
        taken = np.zeros(len(cand), dtype=bool)
        free = np.ones(len(cand), dtype=bool)
        for j in range(len(cand)):
            if free[j]:
                taken[j] = True
                free &= ~near[j]
        chosen = cand[taken]
        rows = instance.distance_rows(chosen)[:, subset]
        centers.extend(chosen.tolist())
        # argmin keeps the earlier center of the block on distance ties,
        # and strict < the earlier (= lower-id) center of earlier blocks
        near_d = rows.min(axis=0)
        upd = near_d < best_d
        best_d[upd] = near_d[upd]
        assigned[upd] = chosen[rows.argmin(axis=0)[upd]]
        marked |= (rows <= delta).any(axis=0)

    centers = np.array(centers, dtype=np.intp)
    # a stable sort keeps each preimage in ascending point order; every
    # center is assigned to itself, so no preimage is empty
    order = np.argsort(assigned, kind="stable")
    grouped = subset[order]
    cuts = [0, *np.searchsorted(assigned[order], centers, side="right").tolist()]
    preimages = {c: grouped[cuts[i]:cuts[i + 1]] for i, c in enumerate(centers.tolist())}
    return Net(delta=float(delta), subset=subset, center_ids=centers,
               assigned=assigned, preimages=preimages)


def grid_round(points, delta: float) -> np.ndarray:
    """Round each coordinate to the nearest multiple of delta, ties toward +inf."""
    if not delta > 0:   # NaN fails this too
        raise ValueError(f"delta must be positive, got {delta}")
    pts = np.asarray(points, dtype=float)
    return np.floor(pts / delta + 0.5) * delta
