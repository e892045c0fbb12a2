"""Point-set instances: metric evaluation, tours, scatter, and file I/O.

An instance is n points (n >= 3) with one of three metrics:

    lp        coordinates in R^dim under the l_p norm, 1 <= p <= inf
    hamming   0/1 coordinate vectors, distance = number of differing positions
    explicit  a symmetric nonnegative matrix with zero diagonal

Every distance must be finite: a non-finite matrix entry is rejected at
construction, and lp points whose distances overflow float64 when the
candidate distances are computed.

A tour is a permutation of 0..n-1 read cyclically; its scatter is the
minimum distance between consecutive points, closing edge included.
"""

import json
import math

import numpy as np

REL_TOL = 1e-9          # threshold comparisons absorb this much relative roundoff
DEDUP_REL_TOL = 1e-12   # distances closer than this (relatively) are one candidate
# rows per block of a full distance sweep: at n = 10^4 a 64-row block and
# its one temporary take 5 MB each
BLOCK_ROWS = 64

_METRIC_KINDS = ("lp", "hamming", "explicit")


class ContractViolation(RuntimeError):
    """An internal invariant failed; aborting beats returning a wrong answer."""


def threshold_tolerance(ell: float) -> float:
    return REL_TOL * max(1.0, abs(ell))


def meets_threshold(d, ell: float):
    """True where d >= ell up to the global tolerance; d may be an array."""
    return d >= ell - threshold_tolerance(ell)


class Instance:
    """Immutable point set plus metric. Build via Instance.lp / .hamming / .explicit."""

    def __init__(self, metric_kind: str, points=None, matrix=None, p=None,
                 strict_metric: bool = False):
        if metric_kind not in _METRIC_KINDS:
            raise ValueError(f"unknown metric kind {metric_kind!r}")
        self.metric_kind = metric_kind
        self.p = None
        self.points = None
        self.matrix = None
        self._columns = None

        if metric_kind == "explicit":
            if matrix is None:
                raise ValueError("explicit metric requires a matrix")
            m = np.asarray(matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"matrix must be square, got shape {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError("matrix entries must be finite")
            if not np.array_equal(m, m.T):
                raise ValueError("matrix is not symmetric")
            if np.any(np.diag(m) != 0.0):
                raise ValueError("matrix diagonal must be zero")
            if np.any(m < 0.0):
                raise ValueError("matrix entries must be nonnegative")
            self.n = m.shape[0]
            self.dim = 0
            if self.n < 3:
                raise ValueError(f"need at least 3 points, got {self.n}")
            if strict_metric:
                _check_triangle(m)
            m.setflags(write=False)
            self.matrix = m
            return

        if points is None:
            raise ValueError(f"{metric_kind} metric requires points")
        if metric_kind == "hamming":
            pts = np.asarray(points)
            if pts.ndim != 2:
                raise ValueError("points must be a list of equal-length vectors")
            if not np.isin(pts, (0, 1)).all():
                raise ValueError("hamming coordinates must be 0 or 1")
            pts = pts.astype(np.uint8)
        else:
            if p is None:
                p = 2.0
            p = float(p)
            if not (p >= 1.0):  # rejects NaN too
                raise ValueError(f"lp metric requires p >= 1, got {p}")
            self.p = p
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2:
                raise ValueError("points must be a list of equal-length vectors")
            if not np.isfinite(pts).all():
                raise ValueError("coordinates must be finite")
        self.n, self.dim = pts.shape
        if self.n < 3:
            raise ValueError(f"need at least 3 points, got {self.n}")
        pts.setflags(write=False)
        self.points = pts
        # one contiguous float64 row per coordinate: the distance kernels
        # read whole coordinates at a time
        self._columns = np.ascontiguousarray(pts.T, dtype=np.float64)

    @classmethod
    def lp(cls, points, p=2.0) -> "Instance":
        return cls("lp", points=points, p=p)

    @classmethod
    def hamming(cls, points) -> "Instance":
        return cls("hamming", points=points)

    @classmethod
    def explicit(cls, matrix, strict_metric: bool = False) -> "Instance":
        return cls("explicit", matrix=matrix, strict_metric=strict_metric)

    def distance_rows(self, ids, start: int = 0) -> np.ndarray:
        """Distances from each point in `ids` to points start..n-1, as a
        len(ids) x (n - start) block.

        This is the workhorse all bulk distance computations go through;
        callers sweep in blocks of BLOCK_ROWS rows, so the block and its one
        temporary stay small. Every entry is computed on its own, so a
        distance does not depend on the block it was computed in, and
        d(i, j) == d(j, i) bit for bit.
        """
        ids = np.asarray(ids, dtype=np.intp)
        if self.metric_kind == "explicit":
            return self.matrix[ids, start:]
        cols = self._columns
        if self.metric_kind == "hamming":
            a = cols[:, ids].T
            b = cols[:, start:]
            # 0/1 vectors: d_H(a, b) = |a| + |b| - 2 a.b, exact in float64
            d = a @ b
            d *= -2.0
            d += a.sum(axis=1)[:, None]
            d += b.sum(axis=0)[None, :]
            return d
        a = cols[:, ids]
        b = cols[:, start:]
        out = np.empty((len(ids), b.shape[1]))
        return _lp_kernel(((a[c][:, None], b[c][None, :]) for c in range(self.dim)),
                          self.p, out)

    def distance_pairs(self, us, vs) -> np.ndarray:
        """Elementwise distances d(us[t], vs[t]), bit for bit as distance_rows
        computes them."""
        us = np.asarray(us, dtype=np.intp)
        vs = np.asarray(vs, dtype=np.intp)
        if self.metric_kind == "explicit":
            return self.matrix[us, vs]
        cols = self._columns
        # hamming is l1 on 0/1 vectors, exact in float64 like its rows
        p = 1.0 if self.metric_kind == "hamming" else self.p
        out = np.empty(np.broadcast_shapes(us.shape, vs.shape))
        return _lp_kernel(((cols[c, us], cols[c, vs]) for c in range(self.dim)), p, out)

    def full_matrix(self) -> np.ndarray:
        """All pairwise distances; intended for small n only."""
        return self.distance_rows(np.arange(self.n))

    def has_duplicate_points(self) -> bool:
        if self.metric_kind == "explicit":
            off = self.matrix + np.eye(self.n)
            return bool(np.any(off == 0.0))
        return len(np.unique(self.points, axis=0)) < self.n

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        if self.metric_kind != other.metric_kind or self.p != other.p:
            return False
        if self.metric_kind == "explicit":
            return np.array_equal(self.matrix, other.matrix)
        return self.points.dtype == other.points.dtype and np.array_equal(
            self.points, other.points)

    def __repr__(self):
        met = self.metric_kind if self.p is None else f"l{self.p:g}"
        return f"Instance({met}, n={self.n}, dim={self.dim})"


def _check_triangle(m: np.ndarray) -> None:
    n = m.shape[0]
    tol = REL_TOL * np.maximum(1.0, m)
    for k in range(n):
        if np.any(m > m[:, [k]] + m[[k], :] + tol):
            i, j = np.argwhere(m > m[:, [k]] + m[[k], :] + tol)[0]
            raise ValueError(
                f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})")


def _lp_kernel(cols, p: float, out: np.ndarray) -> np.ndarray:
    """l_p distances accumulated into `out` one coordinate at a time.

    `cols` yields one (x, y) pair of coordinate arrays per dimension, which
    broadcast to out's shape. Every entry goes through the same ufuncs in
    the same order whatever that shape is, so a row block and a list of
    pairs agree bit for bit. Terms are >= +0, so starting from the first
    term equals starting from zero.
    """
    inf = math.isinf(p)
    c = -1
    for c, (x, y) in enumerate(cols):
        if c == 1:
            tmp = np.empty_like(out)
        term = tmp if c else out
        np.subtract(x, y, out=term)
        if p == 2.0:
            np.multiply(term, term, out=term)
        else:
            np.abs(term, out=term)
            if not (p == 1.0 or inf):
                term **= p
        if c:
            (np.maximum if inf else np.add)(out, term, out=out)
    if c < 0:
        out.fill(0.0)   # dim = 0: every point is the origin
    if p == 2.0:
        np.sqrt(out, out=out)
    elif not (p == 1.0 or inf):
        out **= 1.0 / p
    return out


def distance(instance: Instance, i: int, j: int) -> float:
    """Metric distance between points i and j."""
    n = instance.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range: ({i}, {j}), n={n}")
    return float(instance.distance_pairs([i], [j])[0])


def validate_tour(n: int, tour) -> np.ndarray:
    order = np.asarray(tour, dtype=np.intp)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("tour must be a permutation of 0..n-1")
    return order


def tour_edge_lengths(instance: Instance, tour) -> np.ndarray:
    """Lengths of the n cyclic edges of a tour, in tour order."""
    order = validate_tour(instance.n, tour)
    return instance.distance_pairs(order, np.roll(order, -1))


def scatter(instance: Instance, tour) -> float:
    """Minimum cyclic adjacent distance of the tour."""
    return float(tour_edge_lengths(instance, tour).min())


def candidate_distances(instance: Instance) -> np.ndarray:
    """Sorted distinct positive pairwise distances, plus 0 when duplicates exist.

    Raises ValueError when a distance is not finite (lp coordinates whose
    differences overflow float64).

    Values within relative tolerance DEDUP_REL_TOL of the last kept value
    are merged into it, so a chain of near ties keeps its smallest member
    and every later one that drifts past the tolerance. The optimum scatter
    is always one of these.
    """
    n = instance.n
    uniq = []
    for lo in range(0, n, BLOCK_ROWS):
        ids = np.arange(lo, min(lo + BLOCK_ROWS, n))
        # distances are symmetric bit for bit, so the columns left of the
        # block hold pairs an earlier block has already read
        uniq.append(np.unique(instance.distance_rows(ids, lo)))
    vals = np.unique(np.concatenate(uniq))
    # np.unique sorts inf and NaN last; an overflowed distance would merge
    # into its predecessor as a near tie and hide from every probe
    if not np.isfinite(vals[-1]):
        raise ValueError("a pairwise distance overflows to a non-finite value")
    vals = vals[vals > 0.0]
    if instance.has_duplicate_points():
        vals = np.concatenate(([0.0], vals))
    # a value farther than the tolerance from its predecessor is farther
    # still from the last kept value, so only runs of near ties need the
    # sequential walk
    keep = np.diff(vals, prepend=-np.inf) > DEDUP_REL_TOL * np.maximum(1.0, vals)
    last = 0.0
    for i in np.flatnonzero(~keep).tolist():
        if keep[i - 1]:
            last = vals[i - 1]
        if vals[i] - last > DEDUP_REL_TOL * max(1.0, vals[i]):
            keep[i] = True
    return vals[keep]


def threshold_counts(instance: Instance, ell: float):
    """Per point i, the number of points j (i itself included) with d(i, j)
    meeting ell, one block of BLOCK_ROWS points at a time in ascending order.

    Yields (start, stop, meets), where meets[t] is the final count of point
    start + t. A block reads half rows, from its points to start..n-1: the
    columns left of it are pairs an earlier block has read (distances are
    symmetric bit for bit), whose column sums that block carried forward.
    The first block reads full rows, so a caller that stops at its first
    hit reads no more than a full-row sweep would.
    """
    n = instance.n
    meets = np.zeros(n, dtype=np.intp)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        flags = meets_threshold(instance.distance_rows(np.arange(start, stop), start), ell)
        meets[start:stop] += flags.sum(axis=1)
        yield start, stop, meets[start:stop]
        # only a caller that reads on needs the later points' counts
        meets[stop:] += flags[:, stop - start:].sum(axis=0)


def generate(kind: str, n: int, dim: int, seed: int, p: float = 2.0,
             **params) -> Instance:
    """Deterministic instance generators for tests and benchmarks.

    kinds:
      uniform    points uniform in [0, box]^dim                 (box=1.0)
      clustered  one tight cluster of > n/2 points plus far outliers
                 (cluster_frac=0.66, spread=0.01, far=10.0)
      line       collinear points spaced `spacing` apart on the first axis
      grid       the first n points of a `spacing`-spaced lattice
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        box = float(params.pop("box", 1.0))
        _reject_params(kind, params)
        pts = rng.uniform(0.0, box, size=(n, dim))
    elif kind == "clustered":
        frac = float(params.pop("cluster_frac", 0.66))
        spread = float(params.pop("spread", 0.01))
        far = float(params.pop("far", 10.0))
        _reject_params(kind, params)
        m = max(int(round(frac * n)), n // 2 + 1)
        if m >= n:
            m = n - 1
        cluster = rng.uniform(-spread, spread, size=(m, dim))
        raw = rng.normal(size=(n - m, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = far * rng.uniform(1.0, 2.0, size=(n - m, 1))
        pts = np.vstack([cluster, raw * radii])
    elif kind == "line":
        spacing = float(params.pop("spacing", 1.0))
        _reject_params(kind, params)
        pts = np.zeros((n, dim))
        pts[:, 0] = spacing * np.arange(n)
    elif kind == "grid":
        spacing = float(params.pop("spacing", 1.0))
        _reject_params(kind, params)
        side = int(math.ceil(n ** (1.0 / dim)))
        idx = np.arange(n)
        cols = []
        for _ in range(dim):
            cols.append(idx % side)
            idx = idx // side
        pts = spacing * np.stack(cols, axis=1).astype(float)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return Instance.lp(pts, p=p)


def _reject_params(kind, params):
    if params:
        raise ValueError(f"unknown parameters for kind {kind!r}: {sorted(params)}")


def write_instance(instance: Instance, path) -> None:
    doc = {"version": 1}
    if instance.metric_kind == "lp":
        doc["metric"] = {"type": "lp",
                         "p": "inf" if math.isinf(instance.p) else instance.p}
        doc["points"] = [list(map(float, row)) for row in instance.points]
    elif instance.metric_kind == "hamming":
        doc["metric"] = {"type": "hamming"}
        doc["points"] = [list(map(int, row)) for row in instance.points]
    else:
        doc["metric"] = {"type": "explicit"}
        doc["matrix"] = [list(map(float, row)) for row in instance.matrix]
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_instance(path, strict_metric: bool = False) -> Instance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = doc.get("version")
    if version != 1:
        raise ValueError(f"{path}: field 'version': expected 1, got {version!r}")
    metric = doc.get("metric")
    if not isinstance(metric, dict) or "type" not in metric:
        raise ValueError(f"{path}: field 'metric': expected an object with 'type'")
    kind = metric["type"]
    try:
        if kind == "explicit":
            if "matrix" not in doc:
                raise ValueError("field 'matrix' is required for explicit metric")
            return Instance.explicit(doc["matrix"], strict_metric=strict_metric)
        if "points" not in doc:
            raise ValueError("field 'points' is required")
        if kind == "hamming":
            return Instance.hamming(doc["points"])
        if kind == "lp":
            p = metric.get("p", 2.0)
            if p == "inf":
                p = math.inf
            return Instance.lp(doc["points"], p=p)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    raise ValueError(f"{path}: field 'metric.type': unknown kind {kind!r}")
