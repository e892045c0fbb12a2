"""Scatter maximization via threshold-graph decisions.

A tour with scatter at least ell is exactly a Hamiltonian cycle of the
threshold graph at ell, so the optimum is found by binary search over the
sorted pairwise distances, with an approximate decision at each probe;
every tour attains the least of them (0 when two points are at computed
distance 0).

The decision dichotomy: either every threshold degree, as the degree sweep
of MetricThresholdView counts them, is at least n/2, and a cycle is built
constructively (Dirac), or some point p has a majority of the others within
distance ell. Around such a p, any scatter-ell tour can be rewritten to
avoid edges lying entirely far from p, which makes the instance collapse:
points within 3*ell of p are grouped by a delta-net, points beyond act
interchangeably as a single hub, and feasibility reduces to a many-visits
walk on the quotient graph. Expanding a walk back to points loses at most
2*delta per edge on net edges; hub edges that land too close to the 2*ell
boundary are removed afterwards by the Dirac repair of the expanded tour
(graphs.repair_cycle at (1 - epsilon)*ell): both endpoints lie beyond
2*ell of p, so each is adjacent to the more than n/2 points within ell of
p, and the pair's degree sum exceeds n. With delta = epsilon*ell/4
and quotient edges admitted at ell - 2*delta, a Yes answer always carries
a tour of scatter at least (1 - epsilon)*ell, while No certifies that no
scatter-ell tour exists. Both steps use the triangle inequality, so an
explicit matrix that breaks it is refused with ValueError.

The Dirac cycle is repaired from one of two start cycles, index order and
the interleave of the two halves of the instance's spatial order,
whichever has fewer non-adjacent consecutive pairs (index order on a
tie): each repair removes at least one, and on points at a few sites, each
holding fewer than half of them, the interleave has none.
"""

from dataclasses import dataclass, field

import numpy as np

from .instance import (
    ContractViolation,
    Instance,
    candidate_distances,
    meets_threshold,
    scatter,
    tour_edge_lengths,
    validate_tour,
)
from .graphs import (  # noqa: F401  bc_lift, threshold_graph: perfbench/spans.py wraps them here
    MetricThresholdView,
    bc_lift,
    dirac_hamiltonian,
    repair_cycle,
    threshold_graph,
)
from .nets import greedy_delta_net
from .many_visits import VisitSpec, many_visits_tour

_QUOTIENT_CAP = 1000         # net centers admitted to the quotient solve


@dataclass
class DecisionParams:
    """Probe threshold and accuracy; the net spacing is derived from both."""

    ell: float
    epsilon: float
    net_delta: float = field(init=False)

    def __post_init__(self):
        ell = float(self.ell)
        eps = float(self.epsilon)
        if not np.isfinite(ell) or ell <= 0.0:
            raise ValueError("ell must be positive and finite")
        if not 0.0 < eps < 1.0:
            raise ValueError("epsilon must lie strictly between 0 and 1")
        self.ell = ell
        self.epsilon = eps
        # quarter of the slack: two rounding hops on each quotient edge
        # plus the relaxed edge threshold together stay within epsilon*ell
        self.net_delta = eps * ell / 4.0


@dataclass
class DecisionOutcome:
    answer: bool
    witness: np.ndarray | None
    witness_scatter: float | None
    branch: str                      # 'dirac' or 'many_visits'
    net_size: int | None = None


def find_low_degree_point(instance: Instance, ell: float, degrees=None) -> int | None:
    """Lowest-index point with more than n/2 points within distance ell,
    i.e. below the Dirac bound: its threshold degree is < n/2.

    The first BLOCK_ROWS points are read in full rows first, and their
    lowest hit is returned. Only when they hold none do all degrees come
    from the bounded degree sweep of MetricThresholdView.degrees. When no
    point is low and `degrees` (an integer array of length n) is given, it
    is filled with every point's degree in the threshold graph at ell, the
    same numbers threshold_graph(instance, ell).degrees() gives.
    """
    n = instance.n
    view = MetricThresholdView(instance, ell)
    deg = view.head_degrees()
    if len(deg) < n and not (2 * deg < n).any():
        deg = view.degrees()
    hit = np.flatnonzero(2 * deg < n)
    if len(hit):
        return int(hit[0])
    if degrees is not None:
        degrees[:] = deg
    return None


def low_degree_context(instance: Instance, p: int, ell: float) -> tuple:
    """The split at a majority point p, as (near, far): the point ids
    within 3*ell of p, and the rest, the interchangeable hub points. Both
    ascending."""
    far = meets_threshold(instance.distance_rows([p])[0], 3.0 * ell)
    return np.flatnonzero(~far), np.flatnonzero(far)


def _validated(instance, params, tour, branch, net_size):
    wit_thresh = (1.0 - params.epsilon) * params.ell
    tour = validate_tour(instance.n, tour)
    sc = scatter(instance, tour)
    if not meets_threshold(sc, wit_thresh):
        raise ContractViolation(
            f"witness scatter {sc} falls below (1-epsilon)*ell = {wit_thresh}")
    return DecisionOutcome(answer=True, witness=tour, witness_scatter=sc,
                           branch=branch, net_size=net_size)


def _center_graph(instance: Instance, centers, tau: float) -> np.ndarray:
    """k x k adjacency of the net centers in the threshold graph at tau.

    The distances are taken pair by pair over the centers only, so the
    build holds O(k^2) values rather than k rows of n.
    """
    centers = np.asarray(centers, dtype=np.intp)
    return MetricThresholdView(instance, tau).edge_flags(centers[:, None], centers[None, :])


def _dirac_start(instance: Instance, view: MetricThresholdView) -> np.ndarray:
    """Start cycle of the Dirac repair: the interleave of the two halves of
    the spatial order when it has fewer bad pairs than index order, else
    index order.

    Each repair removes at least one bad pair, so the repairs are at most
    the smaller count. Consecutive points of the interleave lie at least
    ceil(n/2) - 1 positions apart in the spatial order, and coincident
    points are consecutive in it: when every site holds fewer than
    ceil(n/2) points and distinct sites are at least ell apart, the
    interleave has no bad pair."""
    n = instance.n
    order = instance.spatial_order
    half = -(-n // 2)
    spread = np.empty(n, dtype=np.intp)
    spread[0::2] = order[:half]
    spread[1::2] = order[half:]
    ident = np.arange(n)

    def bad_pairs(cycle):
        return int(np.count_nonzero(~view.edge_flags(cycle, np.roll(cycle, -1))))

    return spread if bad_pairs(spread) < bad_pairs(ident) else ident


def decide_scatter(instance: Instance, params: DecisionParams) -> DecisionOutcome:
    """Yes with a (1-epsilon)*ell witness, or No certifying OPT < ell.

    Raises ValueError on an explicit matrix that breaks the triangle
    inequality, and on lp points whose distances overflow float64, as
    candidate_distances does."""
    if instance.triangle_violation is not None:
        raise ValueError(f"the solver needs a metric: {instance.triangle_violation}")
    if instance.overflows:
        raise ValueError("a pairwise distance overflows to a non-finite value")
    n = instance.n
    ell = params.ell
    degrees = np.empty(n, dtype=np.intp)
    p = find_low_degree_point(instance, ell, degrees)

    if p is None:
        # every threshold degree is >= n/2: constructive Dirac cycle, on
        # edge flags computed on demand and the degrees the scan just counted
        view = MetricThresholdView(instance, ell)
        tour = dirac_hamiltonian(view, degrees, _dirac_start(instance, view))
        return _validated(instance, params, tour, "dirac", None)

    near, far = low_degree_context(instance, p, ell)
    net = greedy_delta_net(instance, near, params.net_delta)
    centers = net.center_ids
    k = net.size()
    if k > _QUOTIENT_CAP:
        # the center graph and the walk tiers hold O(k^2) values each
        raise ContractViolation(
            f"probe ell={ell!r}: net size k={k} exceeds the quotient budget "
            f"_QUOTIENT_CAP={_QUOTIENT_CAP}")
    nq = len(far)
    kk = k + (1 if nq else 0)

    allowed = np.zeros((kk, kk), dtype=bool)
    allowed[:k, :k] = _center_graph(instance, centers, ell - 2.0 * params.net_delta)
    if nq:
        # hub stands for all far points; a short expanded hub edge has both
        # endpoints beyond 2*ell of p and is repaired out afterwards
        allowed[k, :k] = True
        allowed[:k, k] = True

    visits = [len(net.preimages[int(c)]) for c in centers]
    if nq:
        visits.append(nq)
    try:
        walk_res = many_visits_tour(VisitSpec(allowed, visits))
    except ContractViolation as exc:
        raise ContractViolation(
            f"probe ell={ell!r}, net size k={k}, hub points {nq}: {exc}") from exc
    if walk_res is None:
        return DecisionOutcome(answer=False, witness=None, witness_scatter=None,
                               branch="many_visits", net_size=k)

    # expand quotient vertices back to points, each visit taking the next
    # unused preimage point in ascending id order
    pools = [iter(net.preimages[int(c)].tolist()) for c in centers]
    if nq:
        pools.append(iter(far.tolist()))
    tour = np.fromiter((next(pools[v]) for v in walk_res.walk[:-1]),
                       dtype=np.intp, count=n)

    wit_thresh = (1.0 - params.epsilon) * ell
    lengths = tour_edge_lengths(instance, tour)
    short = np.flatnonzero(~meets_threshold(lengths, wit_thresh))
    if len(short):
        try:
            tour = repair_cycle(MetricThresholdView(instance, wit_thresh), tour)
        except ContractViolation as exc:
            raise ContractViolation(
                f"probe ell={ell!r}: lift of {len(short)} short hub edges "
                f"failed: {exc}") from exc
    return _validated(instance, params, tour, "many_visits", k)


def maximize_scatter(instance: Instance, epsilon: float):
    """(ell_hat, tour): OPT <= ell_hat and scatter(tour) >= (1-epsilon)*ell_hat."""
    ell_hat, tour, _ = maximize_scatter_report(instance, epsilon)
    return ell_hat, tour


def maximize_scatter_report(instance: Instance, epsilon: float):
    """As maximize_scatter, plus one record per probe for diagnostics.

    The top candidate is probed first, then the rest are bisected. The
    least, the minimum pairwise distance, is never probed, since every
    tour attains it, so a single candidate needs no probe. A non-metric
    matrix has two distinct distances, so the first probe raises
    decide_scatter's ValueError."""
    if not 0.0 < float(epsilon) < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    cand = candidate_distances(instance)
    probes = []
    # best attains cand[lo] (the identity attains cand[0]); cand[hi] was
    # rejected, or lies past the end
    lo, hi = 0, len(cand)
    best = np.arange(instance.n, dtype=np.intp)
    mid = len(cand) - 1
    while hi - lo > 1:
        ell = float(cand[mid])
        out = decide_scatter(instance, DecisionParams(ell, epsilon))
        probes.append({"ell": ell, "answer": out.answer,
                       "branch": out.branch, "net_size": out.net_size})
        if out.answer:
            lo, best = mid, out.witness
        else:
            hi = mid
        mid = (lo + hi) // 2
    return float(cand[lo]), best, probes
