"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with its measurements after all of its
assertions hold, so `pytest -v -s` reads as a checklist. Numeric contracts
are checked at absolute tolerance 1e-9 unless a tighter one is natural.
"""

import itertools
import math
import time
from functools import lru_cache

import numpy as np

from scatter_tsp import (
    ContractViolation,
    DecisionParams,
    Instance,
    ThresholdGraph,
    VisitSpec,
    bc_lift,
    bondy_chvatal_closure,
    brute_force_mstsp,
    candidate_distances,
    decide_scatter,
    dirac_hamiltonian,
    gap_check,
    generate,
    greedy_delta_net,
    grid_round,
    many_visits_tour,
    maximize_scatter,
    maximize_scatter_report,
    meets_threshold,
    normalize_tour,
    scatter,
    embed,
)
from helpers import (
    closed_walk_feasible,
    cube_graph,
    k33,
    random_dirac_adjacency,
    ring10,
    ring_far_instance,
    two_k33,
    validate_multiwalk,
)

TOL = 1e-9


def report(num, detail):
    print(f"PASS criterion {num}: {detail}")


@lru_cache(maxsize=1)
def small_corpus():
    """504 uniform instances with n in 5..10, dim in 1..3, p in {1, 2, inf}."""
    ps = (1.0, 2.0, math.inf)
    out = []
    for i in range(504):
        n = 5 + i % 6
        dim = 1 + (i // 6) % 3
        inst = generate("uniform", n, dim, seed=i, p=ps[(i // 18) % 3])
        out.append((inst, brute_force_mstsp(inst).opt))
    return out


def test_criterion_1_maximize_guarantee_on_corpus():
    start = time.perf_counter()
    corpus = small_corpus()
    runs = 0
    for inst, opt in corpus:
        for eps in (0.05, 0.1, 0.3):
            ell_hat, tour = maximize_scatter(inst, eps)
            sc = scatter(inst, tour)
            assert sc >= (1.0 - eps) * opt - TOL, (inst, eps, sc, opt)
            assert ell_hat >= opt, (inst, eps, ell_hat, opt)
            runs += 1
    elapsed = time.perf_counter() - start
    assert len(corpus) >= 500
    assert elapsed < 120.0
    report(1, f"{runs} maximize runs over {len(corpus)} instances, "
              f"witness >= (1 - eps) * OPT throughout, {elapsed:.1f}s < 120s")


def test_criterion_2_decision_dichotomy_every_candidate():
    corpus = small_corpus()
    start = time.perf_counter()
    decisions = 0
    for inst, opt in corpus:
        cands = [float(c) for c in candidate_distances(inst) if c > 0.0]
        for eps in (0.05, 0.1, 0.3):
            for ell in cands:
                out = decide_scatter(inst, DecisionParams(ell, eps))
                decisions += 1
                if opt >= ell - TOL:
                    assert out.answer, (ell, eps, opt)
                if opt < (1.0 - eps) * ell - TOL:
                    assert not out.answer, (ell, eps, opt)
                if out.answer:
                    assert out.witness_scatter >= (1.0 - eps) * ell - TOL
                    assert scatter(inst, out.witness) == out.witness_scatter
    elapsed = time.perf_counter() - start
    report(2, f"{decisions} decisions with zero dichotomy violations, "
              f"{elapsed:.1f}s")


def test_decision_accepts_the_minimum_distance_on_scaling_cells():
    # maximize_scatter_report does not probe cand[0], which every tour
    # attains; the decision must still say Yes there, at scale too
    for n, seed in ((60, 11), (200, 12), (500, 13)):
        inst = generate("clustered", n, 2, seed)
        ell = float(candidate_distances(inst)[0])
        for eps in (0.1, 0.5):
            out = decide_scatter(inst, DecisionParams(ell, eps))
            assert out.answer, (n, seed, eps)
            assert out.witness_scatter >= (1.0 - eps) * ell - TOL


def test_criterion_3_normalize_tour_cleans_every_pair():
    pairs = 0
    cleaned_edges = 0
    for c in (3, 4, 5, 6, 7, 8):
        for k in (5, 7, 9):
            for extra in (2, 3):
                for seed in range(6):
                    inst, tour, ell = ring_far_instance(c, k, extra, seed)
                    p = 0
                    dp = inst.distance_rows([p])[0]
                    inside = ~meets_threshold(dp, ell)
                    assert 2 * int(inside.sum()) > inst.n
                    a, b = tour, np.roll(tour, -1)
                    off = (meets_threshold(dp[a], 2 * ell)
                           & meets_threshold(dp[b], 2 * ell))
                    assert int(off.sum()) == extra - 1  # real work to do
                    assert meets_threshold(scatter(inst, tour), ell)

                    # raises beyond n exchanges, so returning certifies the bound
                    out = normalize_tour(inst, tour, ell, p)
                    a, b = out, np.roll(out, -1)
                    still = (meets_threshold(dp[a], 2 * ell)
                             & meets_threshold(dp[b], 2 * ell))
                    assert not still.any()
                    assert meets_threshold(scatter(inst, out), ell)
                    assert sorted(out.tolist()) == list(range(inst.n))
                    pairs += 1
                    cleaned_edges += int(off.sum())
    assert pairs >= 200
    report(3, f"{pairs} instance/tour pairs normalized, {cleaned_edges} "
              f"offending edges removed, scatter kept, swap cap certified")


def test_criterion_4_many_visits_exact_on_small_specs():
    rng = np.random.default_rng(77)
    specs = 0
    feasible = 0
    for g in range(50):
        k = 1 + g % 5
        adj = np.triu(rng.random((k, k)) < 0.55, 1)
        adj = adj | adj.T
        for visits in itertools.product((1, 2, 3), repeat=k):
            spec = VisitSpec(adj.copy(), list(visits))
            want = closed_walk_feasible(adj, visits)
            got = many_visits_tour(spec)
            assert (got is not None) == want, (adj, visits)
            if got is not None:
                validate_multiwalk(spec, got)
                feasible += 1
            specs += 1

    # visit counts far beyond anything a materialized walk could hold
    k6 = np.zeros((6, 6), dtype=bool)
    for i in range(6):
        k6[i, (i + 1) % 6] = k6[(i + 1) % 6, i] = True
    start = time.perf_counter()
    mw = many_visits_tour(VisitSpec(k6, [10 ** 6] * 6))
    elapsed = time.perf_counter() - start
    assert mw is not None and mw.walk_edge_count() == 6 * 10 ** 6
    assert mw._walk is None  # never expanded
    assert elapsed < 1.0
    report(4, f"{specs} specs vs walk enumeration ({feasible} feasible), "
              f"million-visit cycle solved lazily in {elapsed * 1000:.0f}ms")


def test_criterion_5_net_covering_separation_size():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(100):
        dim = 1 + trial % 3
        ell = float(rng.uniform(0.5, 2.5))
        delta = float(rng.uniform(ell / 8, ell / 2))
        n = int(rng.integers(20, 150))
        half = ell / math.sqrt(dim) * 0.999  # the box sits inside the ball
        pts = rng.uniform(-half, half, size=(n, dim))
        inst = Instance.lp(pts)
        net = greedy_delta_net(inst, range(n), delta)

        rows = inst.distance_rows(net.center_ids)
        order = {int(c): i for i, c in enumerate(net.center_ids)}
        for pid, cid in net.assignment().items():
            assert rows[order[cid], pid] <= delta + 1e-12
        cc = rows[:, net.center_ids]
        off = cc[~np.eye(len(net.center_ids), dtype=bool)]
        if len(off):
            assert off.min() > delta
        assert net.size() <= (2 * ell / delta + 2) ** dim
        checked += 1

    # call sites: quotient sizes seen while deciding a clustered instance
    blob = np.vstack([np.tile([0.0, 0.0], (29, 1)), np.tile([0.4, 0.0], (2, 1)),
                      np.tile([0.2, 1.0], (14, 1)), np.tile([0.2, -1.0], (15, 1))])
    sizes = {}
    for eps in (0.05, 0.1, 0.3):
        _, _, probes = maximize_scatter_report(Instance.lp(blob), eps)
        seen = [p["net_size"] for p in probes if p["net_size"] is not None]
        sizes[eps] = (max(seen) if seen else 0, (13.0 / eps) ** 2)
    report(5, f"{checked} nets: covering <= delta, separation > delta, "
              f"size <= (2*ell/delta + 2)^d; call-site sizes vs (13/eps)^d: "
              + ", ".join(f"eps={e}: {s} vs {b:.0f}" for e, (s, b) in sizes.items()))


def test_criterion_6_grid_rounding_distance_bound():
    rng = np.random.default_rng(6)
    total = 0
    for dim in (2, 3):
        for delta in (0.05, 0.2, 0.7):
            x = rng.uniform(-4.0, 4.0, size=(10_000, dim))
            y = rng.uniform(-4.0, 4.0, size=(10_000, dim))
            fx = grid_round(x, delta)
            d_xy = np.linalg.norm(x - y, axis=1)
            d_fxy = np.linalg.norm(fx - y, axis=1)
            slack = delta * math.sqrt(dim) / 2.0
            assert np.all(d_xy >= d_fxy - slack - 1e-12)
            total += len(x)
    report(6, f"{total} random pairs in dims 2 and 3: "
              f"d(x, y) >= d(f(x), y) - delta * sqrt(d) / 2")


def test_criterion_7_gap_construction_dichotomy():
    cases = [(k33, True, 2), (cube_graph, True, 2),
             (ring10, True, 3), (two_k33, False, 3)]
    for build, ham, m in cases:
        g = build()
        assert g.n <= 12
        rep = gap_check(g)
        width = 1 << m
        assert rep.is_hamiltonian == ham
        assert rep.ratio == 0.75
        want = 2.0 * width if ham else 1.5 * width
        assert rep.opt == want  # exactly 2^(m+1) iff Hamiltonian

        labeling, inst = embed(g)
        dists = candidate_distances(inst)
        assert dists.tolist() == [1.5 * width, 2.0 * width]  # two values only

        opt_h = brute_force_mstsp(inst).opt
        assert opt_h == want
        for p in (1.0, 2.0):
            flat = brute_force_mstsp(Instance.lp(labeling.labels, p=p)).opt
            assert abs(flat - opt_h ** (1.0 / p)) <= TOL
    report(7, f"{len(cases)} cubic bipartite graphs: two-distance embeddings, "
              f"optimum dichotomy at ratio 3/4, p-th root transfer for p in 1, 2")


def _blob_instance_dirac_finish():
    return Instance.lp(np.vstack([
        np.tile([0.0, 0.0], (4800, 1)), np.tile([0.4, 0.0], (300, 1)),
        np.tile([0.2, 1.0], (2400, 1)), np.tile([0.2, -1.0], (2500, 1))]))


def _blob_instance_quotient_finish():
    return Instance.lp(np.vstack([
        np.tile([0.0, 0.0], (3000, 1)), np.tile([0.99, 0.0], (2200, 1)),
        np.tile([0.5, 2.0], (2200, 1)), np.tile([0.5, -2.0], (2200, 1)),
        np.tile([8.0, 0.0], (200, 1)), np.tile([9.0, 0.0], (200, 1))]))


def test_criterion_8_ten_thousand_points_low_degree_branch():
    eps = 0.05
    cases = [(_blob_instance_dirac_finish(), 0.4),
             (_blob_instance_quotient_finish(), 1.0)]
    details = []
    for inst, want_ell in cases:
        assert inst.n == 10_000
        start = time.perf_counter()
        ell_hat, tour, probes = maximize_scatter_report(inst, eps)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert abs(ell_hat - want_ell) <= TOL
        sc = scatter(inst, tour)
        assert sc >= (1.0 - eps) * ell_hat - TOL
        assert sorted(tour.tolist()) == list(range(inst.n))
        quotient_probes = [p for p in probes if p["branch"] == "many_visits"]
        assert quotient_probes, "the low-degree branch never fired"
        assert all(p["net_size"] <= 10 for p in quotient_probes)
        details.append(f"ell_hat={ell_hat} scatter={sc:.6g} "
                       f"nets<=({max(p['net_size'] for p in quotient_probes)}) "
                       f"{elapsed:.1f}s")
    # the second instance accepts through the quotient walk itself
    assert any(p["answer"] and p["branch"] == "many_visits"
               for p in maximize_scatter_report(cases[1][0], eps)[2])
    report(8, f"two n=10000 clustered instances, eps={eps}: " + "; ".join(details))


def test_criterion_9_hamiltonicity_stack_at_scale():
    rng = np.random.default_rng(2024)
    sizes = [20 + 3 * i for i in range(25)]
    sizes += [100 + 20 * i for i in range(40)]
    sizes += [900 + 28 * i for i in range(25)]
    sizes += [1650, 1730, 1800, 1850, 1900, 1930, 1950, 1970, 1990, 2000]
    assert len(sizes) == 100 and max(sizes) == 2000
    worst = 0.0
    for n in sizes:
        adj = random_dirac_adjacency(n, rng)
        start = time.perf_counter()
        order = dirac_hamiltonian(ThresholdGraph(adj))
        worst = max(worst, time.perf_counter() - start)
        assert worst < 5.0
        assert sorted(order.tolist()) == list(range(n))
        assert adj[order, np.roll(order, -1)].all()

    lifts = 0
    for _ in range(100):
        n = int(rng.integers(10, 120))
        base = ThresholdGraph(random_dirac_adjacency(n, rng))
        closed, log = bondy_chvatal_closure(base)
        assert closed.edge_count() == n * (n - 1) // 2
        again, log2 = bondy_chvatal_closure(closed)
        assert log2 == [] and np.array_equal(again.adjacency, closed.adjacency)
        lifted = bc_lift(base, log, rng.permutation(n))
        assert base.adjacency[lifted, np.roll(lifted, -1)].all()
        lifts += 1
    report(9, f"100 degree-majority graphs up to n=2000 cycled "
              f"(worst {worst * 1000:.0f}ms < 5s); closure idempotent and "
              f"{lifts} lifted cycles use base edges only")
