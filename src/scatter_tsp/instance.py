"""Point-set instances: metric evaluation, tours, scatter, and file I/O.

An instance is n points (n >= 3) with one of three metrics:

    lp        coordinates in R^dim under the l_p norm, 1 <= p <= inf
    hamming   0/1 coordinate vectors, distance = number of differing positions
    explicit  a symmetric nonnegative matrix with zero diagonal

An explicit matrix need not obey the triangle inequality to be an
instance: the exhaustive oracle solves any symmetric matrix. The solver's
No answers rest on that inequality, so `Instance.triangle_violation` names
the first triple that breaks it, and the solver refuses such an instance.

Every distance must be finite: a non-finite matrix entry or coordinate
(an integer too large for float64 included) is rejected at construction,
and lp points whose distances overflow float64 (`Instance.overflows`)
before the candidate distances are computed or a threshold is decided.
Two points at computed distance 0 count as duplicates, whether equal or
not (a power can underflow at large p).

A tour is a permutation of 0..n-1 read cyclically; its scatter is the
minimum distance between consecutive points, closing edge included.

The O(n^2) sweeps read the half matrix through Instance.half_tiles:
BLOCK_ROWS x TILE_COLS tiles written into one buffer per sweep, so a
sweep's buffers hold BLOCK_ROWS * TILE_COLS values whatever n is (the
distinct distances it keeps aside). The candidate distances here read it
in index order. The threshold degrees of graphs.MetricThresholdView read
it in Instance.spatial_order, a Morton order of the coordinate ranks that
is computed once per instance, as boxes of BLOCK_ROWS points: the corners
of two boxes bound every distance between them, and a box pair that its
bounds settle is left out. One kernel, _lp_kernel, computes every lp
distance, in a tile, a row block or a list of pairs, and the box bounds
from the box corners, bit for bit alike.
"""

import functools
import json
import math

import numpy as np

REL_TOL = 1e-9          # threshold comparisons absorb this much relative roundoff
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
            m = _floats(matrix, "matrix entries")
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
            try:
                p = float(p)
            except OverflowError:  # an integer past float64; inf is the l_inf metric
                raise ValueError("lp metric requires p to fit in float64 "
                                 "(inf for l_inf), got an integer too large") from None
            if not (p >= 1.0):  # rejects NaN too
                raise ValueError(f"lp metric requires p >= 1, got {p}")
            self.p = p
            pts = _floats(points, "coordinates")
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

    @functools.cached_property
    def spatial_order(self) -> np.ndarray:
        """Point ids in Morton order of their dense coordinate ranks, ties
        by id; the identity for an explicit matrix. Computed once, on
        first use.

        Each coordinate is replaced by its rank among that coordinate's
        distinct values, and the ranks' bits are interleaved from the most
        significant down, coordinate 0 first within a bit. Points close in
        every coordinate get close keys, so BLOCK_ROWS consecutive points
        of this order fill a small box.
        """
        if self.matrix is not None or self.dim == 0:
            return np.arange(self.n)
        ranks = [np.unique(col, return_inverse=True)[1] for col in self._columns]
        levels = max(1, max(int(r.max()) for r in ranks).bit_length())
        keys = np.zeros((-(-levels * self.dim // 64), self.n), dtype=np.uint64)
        for k in range(levels * self.dim):
            level, c = divmod(k, self.dim)
            bit = ((ranks[c] >> (levels - 1 - level)) & 1).astype(np.uint64)
            keys[k // 64] |= bit << np.uint64(63 - k % 64)
        # lexsort's last key is its first, and it is stable: ties keep id order
        return np.lexsort(keys[::-1])

    @functools.cached_property
    def overflows(self) -> bool:
        """Whether some pair's computed distance is not finite: lp points
        whose differences or power sums overflow float64. Computed once,
        on first use.

        Every pair's power sum is at most the one of the coordinate
        spreads of the whole point set, computed by the same kernel; that
        bound below half the largest float settles it, even for a pow
        rounded off by a few ulps. Otherwise every tile is read.
        """
        if self.metric_kind != "lp":
            return False
        cols = self._columns
        spreads = np.subtract(cols.max(axis=1), cols.min(axis=1))
        bound = _lp_kernel(((s, 0.0) for s in spreads[:, None]), self.p, np.empty(1),
                           root=False)
        if bound[0] <= np.finfo(float).max / 2:
            return False
        return any(np.isinf(tile.max()) for _, _, tile in self.half_tiles(root=False))

    def half_tiles(self, root: bool = True, blocks=None, select=None):
        """The half matrix one tile at a time: in index order, or given
        `select`, in spatial order with the box pairs it leaves out.

        Yields (lo, cols, tile), tile[t, s] being the distance between the
        points at positions lo + t and cols[s]; cols ascends from >= lo.
        A position is a point id, or with `select` an index into
        spatial_order. The row blocks lo = 0, BLOCK_ROWS, ... come in
        order, only the first `blocks` of them when that is given, and
        within a block its columns lo..n-1 come left to right in tiles of
        at most TILE_COLS. So in index order the first block is full rows.

        With `select`, each block of BLOCK_ROWS positions is a box. For lp
        instances under p = 1, 2 or inf, and hamming ones, select(edges,
        gap, far) is called once per row block: edges holds the boundaries
        lo, hi, ..., n of its box and the later ones, and gap[k] <= d <=
        far[k] for every computed distance d from a point of the row box
        to one of box k (edges[k] to edges[k + 1], k = 0 the row box
        itself). Only the boxes where the bool array it returns is True
        are read. Under any other p (a rounded pow need not be monotone)
        and for an explicit matrix, every box is read.

        Every tile is a view of one buffer that the next tile overwrites;
        it and the lp kernel's temporary are allocated once per sweep, at
        min(BLOCK_ROWS, n) x min(TILE_COLS, n) entries each. Entries are
        bit for bit those of distance_rows. root=False leaves lp tiles at
        the power sums before the p-th root.
        """
        n = self.n
        # an explicit matrix has no coordinates to order by: it is read as is
        order = None if select is None or self.matrix is not None else self.spatial_order
        starts = range(0, n, BLOCK_ROWS)
        bounds = None if order is None else self._box_bounds(order, starts)
        width = TILE_COLS
        size = min(BLOCK_ROWS, n) * min(width, n)
        buf = np.empty(size)
        tmp = np.empty(size) if self.metric_kind == "lp" and self.dim > 1 else None
        for box, lo in enumerate(starts[:blocks]):
            hi = min(lo + BLOCK_ROWS, n)
            cols = np.arange(lo, n)
            if bounds is not None:
                edges = np.append(starts[box:], n)
                read = select(edges, *bounds(box))
                cols = cols[np.repeat(read, np.diff(edges))]
            a = slice(lo, hi) if order is None else order[lo:hi]
            for s in range(0, len(cols), width):
                ids = cols[s:s + width]
                count = (hi - lo) * len(ids)
                tile = buf[:count].reshape(hi - lo, len(ids))
                scratch = None if tmp is None else tmp[:count].reshape(tile.shape)
                # in index order every box is read: the ids are one run
                b = slice(ids[0], ids[-1] + 1) if order is None else order[ids]
                yield lo, ids, self._fill(a, b, tile, scratch, root)

    def _box_bounds(self, order, starts):
        """bounds(box) -> (gap, far) for the boxes of the points
        order[starts[k]:starts[k + 1]], as half_tiles documents them, or
        None when they would not be exact.

        Per coordinate, the gap is fl(lo_b - hi_a), fl(lo_a - hi_b) or 0
        where the boxes overlap, and the far side is the larger of
        fl(hi_b - lo_a) and fl(hi_a - lo_b); both then go through
        _lp_kernel like a pair's differences. An IEEE subtract, abs,
        multiply, add, max and sqrt are correctly rounded, hence monotone,
        so every computed distance lies between the two. Hamming distances
        are exact integers, the l1 distances of the 0/1 vectors.
        """
        p = 1.0 if self.metric_kind == "hamming" else self.p
        if p is None or not (p in (1.0, 2.0) or math.isinf(p)):
            return None
        cols = self._columns.take(order, axis=1)
        lows = np.minimum.reduceat(cols, starts, axis=1)
        highs = np.maximum.reduceat(cols, starts, axis=1)

        def bounds(box):
            lo_a, hi_a = lows[:, box, None], highs[:, box, None]
            lo_b, hi_b = lows[:, box:], highs[:, box:]
            gap = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
            far = np.maximum(hi_b - lo_a, hi_a - lo_b)
            return tuple(_lp_kernel(((x, 0.0) for x in diffs), p, np.empty(diffs.shape[1]))
                         for diffs in (gap, far))

        return bounds

    def _fill(self, a, b, out, tmp=None, root=True) -> np.ndarray:
        """Distances from points `a` to points `b`, each an index array or
        a slice, written into the len(a) x len(b) array `out`."""
        if self.metric_kind == "explicit":
            np.copyto(out, self.matrix[a, b])
            return out
        cols = self._columns
        # gathered coordinates in C order: the kernel reads strided ones slower
        xa, xb = (cols[:, i] if isinstance(i, slice) else cols.take(i, axis=1) for i in (a, b))
        if self.metric_kind == "hamming":
            # 0/1 vectors: d_H(x, y) = |x| + |y| - 2 x.y, exact in float64
            np.matmul(xa.T, xb, out=out)
            out *= -2.0
            out += self._weights[a, None]
            out += self._weights[None, b]
            return out
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


def _floats(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:  # an integer too large for float64 is not finite either
        raise ValueError(f"{what} must be finite") from None


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

    Raises ValueError, before the sweep, when a distance is not finite
    (lp coordinates whose differences overflow float64: Instance.overflows).

    Every computed distance is kept, however near another: the optimum
    scatter is always one of them.

    One sweep over the half matrix: each tile of lp power sums is sorted in
    place and only its distinct values are kept, so the p-th root is taken
    of the distinct values of the whole matrix and nothing else. A sum is
    0 exactly when its root is, so zero pairs are counted before the root.
    """
    if instance.overflows:
        raise ValueError("a pairwise distance overflows to a non-finite value")
    uniq = []
    zero_pairs = 0
    mask = None
    for lo, cols, tile in instance.half_tiles(root=False):
        flat = tile.reshape(-1)
        flat.sort()
        if mask is None:
            mask = np.empty(len(flat), dtype=bool)   # the first tile is the largest
        # the leading zeros, less the tile's own pairs (i, i)
        zero_pairs += int(np.searchsorted(flat, 0.0, side="right"))
        zero_pairs -= int(np.searchsorted(cols, lo + len(tile)))
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
    return np.concatenate(([0.0] if zero_pairs else [], vals[vals > 0.0]))


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
        # the least side with side ** dim >= n; the float root is within one
        side = int(n ** (1.0 / dim))
        while side ** dim < n:
            side += 1
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


def _is_number(value) -> bool:
    # json reads true and false as bools, which numpy and float() take for 1 and 0
    return type(value) in (int, float)


def _numbers(doc, field: str):
    """doc[field], refused unless it is a list whose entries are numbers
    or lists of numbers."""
    rows = doc[field]
    if not isinstance(rows, list) or not all(
            all(map(_is_number, r)) if isinstance(r, list) else _is_number(r) for r in rows):
        raise ValueError(f"field {field!r}: expected lists of JSON numbers")
    return rows


def read_instance(path) -> Instance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno} col {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = doc.get("version")
    if not _is_number(version) or version != 1:
        raise ValueError(f"{path}: field 'version': expected 1, got {version!r}")
    metric = doc.get("metric")
    if not isinstance(metric, dict) or "type" not in metric:
        raise ValueError(f"{path}: field 'metric': expected an object with 'type'")
    kind = metric["type"]
    try:
        if kind == "explicit":
            if "matrix" not in doc:
                raise ValueError("field 'matrix' is required for explicit metric")
            return Instance.explicit(_numbers(doc, "matrix"))
        if "points" not in doc:
            raise ValueError("field 'points' is required")
        if kind == "hamming":
            return Instance.hamming(_numbers(doc, "points"))
        if kind == "lp":
            p = metric.get("p", 2.0)
            if p == "inf":
                p = math.inf
            elif not _is_number(p):
                raise ValueError(f"field 'metric.p': expected a number or \"inf\", got {p!r}")
            return Instance.lp(_numbers(doc, "points"), p=p)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    raise ValueError(f"{path}: field 'metric.type': unknown kind {kind!r}")
