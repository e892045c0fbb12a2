"""Point-set instances: metric evaluation, tours, scatter, and file I/O.

An instance is n points (n >= 3) with one of three metrics:

    lp        coordinates in R^dim under the l_p norm, 1 <= p <= inf
    hamming   0/1 coordinate vectors, distance = number of differing positions
    explicit  a symmetric nonnegative matrix with zero diagonal

An explicit matrix need not obey the triangle inequality to be an
instance: the exhaustive oracle solves any symmetric matrix. The solver's
No answers rest on that inequality, so `Instance.triangle_violation` names
the first triple that breaks it, and the solver refuses such an instance.

Every distance must be finite: a non-finite matrix entry is rejected at
construction, and lp points whose distances overflow float64 when the
candidate distances are computed. Two points at computed distance 0 count
as duplicates, whether equal or not (a power can underflow at large p).

A tour is a permutation of 0..n-1 read cyclically; its scatter is the
minimum distance between consecutive points, closing edge included.

The O(n^2) sweeps, the candidate distances here and the threshold degrees
of graphs.MetricThresholdView, read the half matrix j >= i through
Instance.half_tiles: BLOCK_ROWS x TILE_COLS tiles written into one buffer
per sweep, so a sweep's buffers hold BLOCK_ROWS * TILE_COLS values
whatever n is (the distinct distances it keeps aside). One kernel,
_lp_kernel, computes every lp distance, in a tile, a row block or a list
of pairs, and bit for bit alike.
"""

import functools
import json
import math

import numpy as np

REL_TOL = 1e-9          # threshold comparisons absorb this much relative roundoff
DEDUP_REL_TOL = 1e-12   # distances closer than this (relatively) are one candidate
# rows per block of a distance sweep or a blocked row read
BLOCK_ROWS = 64
# columns per tile of a half-matrix sweep: a 64 x 4096 tile and its one
# temporary take 2 MB each, whatever n is
TILE_COLS = 4096

_METRIC_KINDS = ("lp", "hamming", "explicit")


class ContractViolation(RuntimeError):
    """An internal invariant failed; aborting beats returning a wrong answer."""


def threshold_tolerance(ell: float) -> float:
    return REL_TOL * max(1.0, abs(ell))


def meets_threshold(d, ell: float, out=None):
    """True where d >= ell up to the global tolerance; d may be an array,
    and `out` a bool array of its shape to write the flags into."""
    cut = ell - threshold_tolerance(ell)
    return d >= cut if out is None else np.greater_equal(d, cut, out=out)


class Instance:
    """Immutable point set plus metric. Build via Instance.lp / .hamming / .explicit."""

    def __init__(self, metric_kind: str, points=None, matrix=None, p=None):
        if metric_kind not in _METRIC_KINDS:
            raise ValueError(f"unknown metric kind {metric_kind!r}")
        self.metric_kind = metric_kind
        self.p = None
        self.points = None
        self.matrix = None
        self._columns = None
        self._weights = None

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
        if metric_kind == "hamming":
            self._weights = self._columns.sum(axis=0)   # |x| of each 0/1 vector

    @classmethod
    def lp(cls, points, p=2.0) -> "Instance":
        return cls("lp", points=points, p=p)

    @classmethod
    def hamming(cls, points) -> "Instance":
        return cls("hamming", points=points)

    @classmethod
    def explicit(cls, matrix) -> "Instance":
        return cls("explicit", matrix=matrix)

    @functools.cached_property
    def triangle_violation(self) -> str | None:
        """Message naming the first triple that breaks the triangle
        inequality, or None. Only an explicit matrix can break it; the
        O(n^3) check runs once, on first use."""
        return None if self.matrix is None else _triangle_violation(self.matrix)

    def distance_rows(self, ids) -> np.ndarray:
        """Distances from each point in `ids` to every point, as a
        len(ids) x n block.

        Callers read rows in blocks of BLOCK_ROWS, so the block and its one
        temporary stay small; the O(n^2) sweeps go through half_tiles.
        Every entry is computed on its own, so a distance does not depend
        on the block it was computed in, and d(i, j) == d(j, i) bit for bit.
        """
        ids = np.asarray(ids, dtype=np.intp)
        return self._fill(ids, slice(None), np.empty((len(ids), self.n)))

    def half_tiles(self, root: bool = True):
        """The half matrix d(i, j), j >= i, one tile at a time.

        Yields (lo, c0, tile) with tile[t, s] = d(lo + t, c0 + s): the row
        blocks lo = 0, BLOCK_ROWS, ... in order, and within a block the
        columns lo..n-1 in tiles of TILE_COLS, left to right. Every tile is
        a view of one buffer that the next tile overwrites; it and the lp
        kernel's temporary are allocated once per sweep, at
        min(BLOCK_ROWS, n) x min(TILE_COLS, n) entries each. Entries are
        bit for bit those of distance_rows. root=False leaves lp tiles at
        the power sums before the p-th root.
        """
        n = self.n
        width = TILE_COLS
        size = min(BLOCK_ROWS, n) * min(width, n)
        buf = np.empty(size)
        tmp = np.empty(size) if self.metric_kind == "lp" and self.dim > 1 else None
        for lo in range(0, n, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n)
            for c0 in range(lo, n, width):
                c1 = min(c0 + width, n)
                count = (hi - lo) * (c1 - c0)
                tile = buf[:count].reshape(hi - lo, c1 - c0)
                scratch = None if tmp is None else tmp[:count].reshape(tile.shape)
                yield lo, c0, self._fill(slice(lo, hi), slice(c0, c1), tile, scratch, root)

    def _fill(self, a, b, out, tmp=None, root=True) -> np.ndarray:
        """Distances from points `a` to points `b`, each an index array or
        a slice, written into the len(a) x len(b) array `out`."""
        if self.metric_kind == "explicit":
            np.copyto(out, self.matrix[a, b])
            return out
        cols = self._columns
        if self.metric_kind == "hamming":
            # 0/1 vectors: d_H(x, y) = |x| + |y| - 2 x.y, exact in float64
            np.matmul(cols[:, a].T, cols[:, b], out=out)
            out *= -2.0
            out += self._weights[a, None]
            out += self._weights[None, b]
            return out
        xa, xb = cols[:, a], cols[:, b]
        return _lp_kernel(((xa[c][:, None], xb[c][None, :]) for c in range(self.dim)),
                          self.p, out, tmp, root)

    def distance_pairs(self, us, vs) -> np.ndarray:
        """Distances d(u, v) over `us` broadcast against `vs`, bit for bit as
        distance_rows computes them."""
        us = np.asarray(us, dtype=np.intp)
        vs = np.asarray(vs, dtype=np.intp)
        if self.metric_kind == "explicit":
            return self.matrix[us, vs]
        cols = self._columns
        # hamming is l1 on 0/1 vectors, exact in float64 like its rows
        p = 1.0 if self.metric_kind == "hamming" else self.p
        out = np.empty(np.broadcast_shapes(us.shape, vs.shape))
        # take gathers a row of 10^4 coordinates in half the time cols[c, vs] takes
        return _lp_kernel(((cols[c].take(us), cols[c].take(vs)) for c in range(self.dim)),
                          p, out)

    def full_matrix(self) -> np.ndarray:
        """All pairwise distances; intended for small n only."""
        return self.distance_rows(np.arange(self.n))

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


def _triangle_violation(m: np.ndarray) -> str | None:
    n = m.shape[0]
    tol = REL_TOL * np.maximum(1.0, m)
    for k in range(n):
        if np.any(m > m[:, [k]] + m[[k], :] + tol):
            i, j = np.argwhere(m > m[:, [k]] + m[[k], :] + tol)[0]
            return f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
    return None


def _lp_kernel(cols, p: float, out: np.ndarray, tmp=None, root=True) -> np.ndarray:
    """l_p distances accumulated into `out` one coordinate at a time.

    `cols` yields one (x, y) pair of coordinate arrays per dimension, which
    broadcast to out's shape. Every entry goes through the same ufuncs in
    the same order whatever that shape is, so a tile, a row block and a
    list of pairs agree bit for bit. Terms are >= +0, so starting from the
    first term equals starting from zero. `tmp`, of out's shape, holds each
    later term; it is allocated here when not given and dim > 1. With
    root=False the p-th root is left out: `out` keeps the power sum.
    """
    inf = math.isinf(p)
    c = -1
    for c, (x, y) in enumerate(cols):
        if c == 1 and tmp is None:
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
    if root:
        _lp_root(out, p)
    return out


def _lp_root(sums: np.ndarray, p: float) -> None:
    """The p-th root of l_p power sums, in place; p = 1 and inf need none."""
    if p == 2.0:
        np.sqrt(sums, out=sums)
    elif not (p == 1.0 or math.isinf(p)):
        sums **= 1.0 / p


def distance(instance: Instance, i: int, j: int) -> float:
    """Metric distance between points i and j."""
    n = instance.n
    i, j = (int(integer_array(x, "point indices")) for x in (i, j))
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"point index out of range: ({i}, {j}), n={n}")
    return float(instance.distance_pairs([i], [j])[0])


def integer_array(values, what: str) -> np.ndarray:
    """`values` as an intp array. Integral floats pass; 1.5 or NaN is a
    ValueError rather than truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not (
            arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.round(arr)))):
        raise ValueError(f"{what} must be integers")
    return arr.astype(np.intp, copy=False)


def validate_tour(n: int, tour) -> np.ndarray:
    order = integer_array(tour, "tour entries")
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
    """Sorted distinct positive pairwise distances, plus 0 when two points
    are at computed distance 0 (duplicates, or a power that underflows).

    Raises ValueError when a distance is not finite (lp coordinates whose
    differences overflow float64).

    Values within relative tolerance DEDUP_REL_TOL of the last kept value
    are merged into it, so a chain of near ties keeps its smallest member
    and every later one that drifts past the tolerance. The optimum scatter
    is always one of these.

    One sweep over the half matrix: each tile of lp power sums is sorted in
    place and only its distinct values are kept, so the p-th root is taken
    of the distinct values of the whole matrix and nothing else. A sum is
    0 exactly when its root is, so zero pairs are counted before the root.
    """
    uniq = []
    zero_pairs = 0
    mask = None
    for lo, c0, tile in instance.half_tiles(root=False):
        rows, cols = tile.shape
        flat = tile.reshape(-1)
        flat.sort()
        if mask is None:
            mask = np.empty(len(flat), dtype=bool)   # the first tile is the largest
        # the leading zeros, less the tile's own pairs (i, i)
        zero_pairs += int(np.searchsorted(flat, 0.0, side="right"))
        zero_pairs -= max(0, min(lo + rows, c0 + cols) - c0)
        uniq.append(_distinct(flat, mask[:len(flat)]))
    vals = np.unique(np.concatenate(uniq))
    p = instance.p
    if p == 2.0:
        # sqrt is monotone, so equal roots stay adjacent
        _lp_root(vals, p)
        vals = _distinct(vals, np.empty(len(vals), dtype=bool))
    elif p is not None and not (p == 1.0 or math.isinf(p)):
        # a rounded pow need not be monotone
        _lp_root(vals, p)
        vals = np.unique(vals)
    # np.unique sorts inf and NaN last; an overflowed distance would merge
    # into its predecessor as a near tie and hide from every probe
    if not np.isfinite(vals[-1]):
        raise ValueError("a pairwise distance overflows to a non-finite value")
    vals = np.concatenate(([0.0] if zero_pairs else [], vals[vals > 0.0]))
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


def _distinct(sorted_vals: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, in a new array; `keep` is
    bool scratch of the same length."""
    keep[:1] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=keep[1:])
    # copying is cheaper than a compress that keeps every value
    return sorted_vals.copy() if keep.all() else sorted_vals[keep]


def generate(kind: str, n: int, dim: int, seed: int, p: float = 2.0) -> Instance:
    """Deterministic instance generators for tests and benchmarks.

    kinds:
      uniform    points uniform in [0, 1]^dim
      clustered  round(0.66 n), at least n/2 + 1, points uniform in
                 [-0.01, 0.01]^dim, and the rest at radius 10 to 20 in
                 uniformly random directions
      line       collinear points 1 apart on the first axis
      grid       the first n points of the unit-spaced lattice
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
    elif kind == "clustered":
        # m < n for every n >= 3: there is always an outlier
        m = max(int(round(0.66 * n)), n // 2 + 1)
        cluster = rng.uniform(-0.01, 0.01, size=(m, dim))
        raw = rng.normal(size=(n - m, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = 10.0 * rng.uniform(1.0, 2.0, size=(n - m, 1))
        pts = np.vstack([cluster, raw * radii])
    elif kind == "line":
        pts = np.zeros((n, dim))
        pts[:, 0] = np.arange(n)
    elif kind == "grid":
        side = int(math.ceil(n ** (1.0 / dim)))
        idx = np.arange(n)
        cols = []
        for _ in range(dim):
            cols.append(idx % side)
            idx = idx // side
        pts = np.stack(cols, axis=1).astype(float)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return Instance.lp(pts, p=p)


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


def read_instance(path) -> Instance:
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
            return Instance.explicit(doc["matrix"])
        if "points" not in doc:
            raise ValueError("field 'points' is required")
        if kind == "hamming":
            return Instance.hamming(doc["points"])
        if kind == "lp":
            p = metric.get("p", 2.0)
            if p == "inf":
                p = math.inf
            return Instance.lp(doc["points"], p=p)
    except (TypeError, ValueError) as e:  # a wrong JSON type raises TypeError
        raise ValueError(f"{path}: {e}") from e
    raise ValueError(f"{path}: field 'metric.type': unknown kind {kind!r}")
