"""Decision procedure and threshold search: approximation contracts."""

import re

import numpy as np
import pytest

from scatter_tsp import (
    ContractViolation,
    DecisionParams,
    Instance,
    brute_force_mstsp,
    candidate_distances,
    decide_scatter,
    find_low_degree_point,
    generate,
    low_degree_context,
    maximize_scatter,
    maximize_scatter_report,
    meets_threshold,
    scatter,
)
from scatter_tsp import MetricThresholdView, eptas, graphs, many_visits
from helpers import brute_scatter


def test_decision_params():
    p = DecisionParams(2.0, 0.5)
    assert p.net_delta == 0.25  # a quarter of epsilon * ell
    for ell, eps in [(0.0, 0.5), (-1.0, 0.5), (np.inf, 0.5),
                     (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]:
        with pytest.raises(ValueError):
            DecisionParams(ell, eps)


def test_find_low_degree_point():
    # 5 of 7 points huddle at the origin: every cluster point qualifies
    pts = [[0.0, 0.0]] * 5 + [[9.0, 0.0], [0.0, 9.0]]
    inst = Instance.lp(np.array(pts) + np.arange(7)[:, None] * 1e-3)
    assert find_low_degree_point(inst, 1.0) == 0

    spread = generate("line", 9, 1, seed=0)
    assert find_low_degree_point(spread, 1.5) is None  # balls hold <= 3 points


def test_low_degree_context_split():
    pts = [[0.0], [0.1], [0.2], [2.9], [3.5], [10.0]]
    near, far = low_degree_context(Instance.lp(pts, p=1.0), 0, 1.0)
    assert near.tolist() == [0, 1, 2, 3]   # strictly inside 3 * ell
    assert far.tolist() == [4, 5]


def test_decide_matches_oracle_dichotomy():
    rng_seeds = [(5, 1), (6, 2), (7, 3), (8, 1), (8, 2)]
    eps = 0.3
    for n, dim in rng_seeds:
        inst = generate("uniform", n, dim, seed=n * 7 + dim)
        opt, _ = brute_scatter(inst)
        for ell in candidate_distances(inst):
            ell = float(ell)
            if ell <= 0.0:
                continue
            out = decide_scatter(inst, DecisionParams(ell, eps))
            if meets_threshold(opt, ell):
                assert out.answer, f"refused ell={ell} though opt={opt}"
            if opt < (1.0 - eps) * ell - 1e-9:
                assert not out.answer, f"accepted ell={ell} though opt={opt}"
            if out.answer:
                sc = scatter(inst, out.witness)
                assert meets_threshold(sc, (1.0 - eps) * ell)
                assert sc == out.witness_scatter
                assert out.branch in ("dirac", "many_visits")


def _lift_recorder(monkeypatch):
    """The short pairs of each tour handed to eptas.repair_cycle."""
    lifted = []
    repair = eptas.repair_cycle

    def recorded(graph, tour):
        ok = graph.edge_flags(tour, np.roll(tour, -1))
        lifted.append([(int(tour[i]), int(tour[(i + 1) % len(tour)]))
                       for i in np.flatnonzero(~ok)])
        return repair(graph, tour)

    monkeypatch.setattr(eptas, "repair_cycle", recorded)
    return lifted


LIFT_POINTS = [[0, 0], [-0.15, -0.96], [-0.36, -0.86], [0.8, -0.42],
               [-1.13, -1.69], [2.85, 0.21], [3.01, 1.03]]


def test_decide_lifts_short_hub_edges(monkeypatch):
    # the walk expands to a tour whose hub edge (6, 5) is shorter than
    # (1 - eps) * ell, so the decision has to lift it out before answering
    lifted = _lift_recorder(monkeypatch)
    inst = Instance.lp(LIFT_POINTS)
    ell, eps = 1.0, 0.1
    out = decide_scatter(inst, DecisionParams(ell, eps))
    assert lifted == [[(6, 5)]]
    assert out.answer and out.branch == "many_visits"
    assert out.witness_scatter == scatter(inst, out.witness)
    assert meets_threshold(out.witness_scatter, (1.0 - eps) * ell)
    opt = brute_force_mstsp(inst).opt
    assert meets_threshold(opt, ell)  # OPT >= ell: Yes is the only right answer
    assert out.witness_scatter <= opt


def test_decide_lifts_perturbed_copies(monkeypatch):
    # perturbed copies of the instance above: a short hub edge joins two
    # points beyond 2 * ell of p, each adjacent to the majority within
    # ell of p, so every lift's repair exists and no decision aborts
    lifted = _lift_recorder(monkeypatch)
    rng = np.random.default_rng(23)
    lifts = 0
    for _ in range(300):
        inst = Instance.lp(np.array(LIFT_POINTS) + rng.normal(0.0, 0.05, (7, 2)))
        opt = brute_force_mstsp(inst).opt
        for eps in (0.1, 0.2):
            out = decide_scatter(inst, DecisionParams(1.0, eps))
            if meets_threshold(opt, 1.0):
                assert out.answer
            if out.answer:
                assert meets_threshold(scatter(inst, out.witness), 1.0 - eps)
            lifts += len(lifted)   # one record per lifted decision
            lifted.clear()
    assert lifts >= 100   # 171 of the 600 decisions lift


def test_decide_line_instance():
    inst = generate("line", 10, 1, seed=0)
    out = decide_scatter(inst, DecisionParams(1.0, 0.25))
    assert out.answer  # interleaving the two halves keeps gaps >= 1
    assert meets_threshold(out.witness_scatter, 0.75)


def _bad_pairs(view, cycle):
    return int((~view.edge_flags(cycle, np.roll(cycle, -1))).sum())


@pytest.mark.parametrize("shuffle", [False, True])
def test_dirac_blob_needs_no_repair(monkeypatch, shuffle):
    # criterion 8's Dirac blob: index order runs through each blob in turn
    # (6,667 repairs in blob order), while the interleaved spatial order
    # alternates between blobs at least 0.4 apart
    pts = np.repeat([[0.0, 0.0], [0.4, 0.0], [0.2, 1.0], [0.2, -1.0]],
                    [4800, 300, 2400, 2500], axis=0)
    if shuffle:
        pts = pts[np.random.default_rng(1).permutation(len(pts))]
    repairs = []
    repair = graphs._repair

    def counted(*args):
        repairs.append(args[3:])
        return repair(*args)

    monkeypatch.setattr(graphs, "_repair", counted)
    inst = Instance.lp(pts)
    eps = 0.05
    out = decide_scatter(inst, DecisionParams(0.4, eps))
    assert out.answer and out.branch == "dirac"
    assert repairs == []
    assert meets_threshold(scatter(inst, out.witness), (1.0 - eps) * 0.4)


def test_dirac_start_has_no_more_bad_pairs_than_index_order():
    # on uniform cells either start can have fewer bad pairs, and each is
    # picked on some of these probes
    picked = set()
    for n, seed in [(300, 0), (300, 1), (1000, 2), (10_000, 22)]:
        inst = generate("uniform", n, 3, seed)
        ident = np.arange(n)
        rows = inst.distance_rows(np.arange(20)).ravel()
        for q in (0.01, 0.05, 0.1, 0.25, 0.5):
            view = MetricThresholdView(inst, float(np.quantile(rows[rows > 0], q)))
            start = eptas._dirac_start(inst, view)
            assert sorted(start.tolist()) == ident.tolist()
            assert _bad_pairs(view, start) <= _bad_pairs(view, ident)
            picked.add(np.array_equal(start, ident))
    assert picked == {True, False}


def test_dirac_start_is_a_permutation():
    cases = [generate("uniform", n, 2, seed=n) for n in (3, 4, 5)]
    cases.append(Instance.explicit(generate("uniform", 7, 2, seed=7).full_matrix()))
    for inst in cases:
        for ell in candidate_distances(inst):
            start = eptas._dirac_start(inst, MetricThresholdView(inst, float(ell)))
            assert sorted(start.tolist()) == list(range(inst.n))


def test_maximize_contract_on_small_instances():
    for seed in range(6):
        inst = generate("uniform", 7, 2, seed=seed)
        opt, _ = brute_scatter(inst)
        for eps in (0.1, 0.4):
            ell_hat, tour = maximize_scatter(inst, eps)
            assert meets_threshold(ell_hat, opt)  # never undershoots the truth
            sc = scatter(inst, tour)
            assert meets_threshold(sc, (1.0 - eps) * opt)
            assert meets_threshold(sc, (1.0 - eps) * ell_hat)
            assert ell_hat in candidate_distances(inst).tolist()


def test_probe_log_shape():
    inst = generate("uniform", 8, 2, seed=11)
    ell_hat, tour, probes = maximize_scatter_report(inst, 0.25)
    assert len(probes) >= 1
    for rec in probes:
        assert set(rec) == {"ell", "answer", "branch", "net_size"}
        assert isinstance(rec["answer"], bool)
    # the search never probes below a Yes or above a No it already has
    yes = [r["ell"] for r in probes if r["answer"]]
    no = [r["ell"] for r in probes if not r["answer"]]
    if yes and no:
        assert max(yes) < min(no)
    assert ell_hat == (max(yes) if yes else candidate_distances(inst)[0])


def test_all_points_identical():
    inst = Instance.lp([[2.0, 2.0]] * 5)
    ell_hat, tour, probes = maximize_scatter_report(inst, 0.5)
    assert ell_hat == 0.0
    assert sorted(tour.tolist()) == list(range(5))
    assert probes == []  # nothing worth probing


def test_single_distance_needs_no_probe():
    # every pair at one computed distance: each threshold graph is complete,
    # so the identity attains the only candidate and nothing is probed. (In
    # the plane an equilateral triangle's computed sides differ by an ulp.)
    cases = [Instance.lp(np.eye(3)),
             Instance.explicit(np.ones((5, 5)) - np.eye(5))]
    for inst in cases:
        ell_hat, tour, probes = maximize_scatter_report(inst, 0.5)
        assert tour.tolist() == list(range(inst.n))
        assert probes == []
        assert ell_hat == brute_force_mstsp(inst).opt


def test_duplicates_with_spread_survivors():
    # two duplicate pairs force the zero candidate but not a zero optimum
    inst = Instance.lp([[0.0], [0.0], [5.0], [5.0]], p=1.0)
    ell_hat, tour = maximize_scatter(inst, 0.5)
    assert ell_hat == 5.0
    assert scatter(inst, tour) == 5.0  # alternate between the two sites


def test_optimum_a_near_tie_above_another_distance_is_found():
    # OPT is v, the scatter of the cycle 0-1-2-3, only 7.5e-13 above the
    # distance 1.5; every other cycle uses the edge of length 1
    v = 1.5 * (1.0 + 5e-13)
    inst = Instance.explicit([[0.0, 2.0, 1.5, v],
                              [2.0, 0.0, v, 1.0],
                              [1.5, v, 0.0, 2.0],
                              [v, 1.0, 2.0, 0.0]])
    assert inst.triangle_violation is None
    assert candidate_distances(inst).tolist() == [1.0, 1.5, v, 2.0]
    opt = brute_force_mstsp(inst).opt
    assert opt == v
    # at these epsilons no tour has scatter (1 - epsilon) * 2, so the probe
    # at 2 must answer No
    for eps in (0.05, 0.1):
        ell_hat, tour = maximize_scatter(inst, eps)
        assert ell_hat == opt
        assert scatter(inst, tour) >= (1.0 - eps) * ell_hat


# OPT 8, but the decisions, read as if the triangle inequality held, gave
# ell_hat 7 at epsilon = 0.5
NON_METRIC = [[0, 9, 8, 9, 8], [9, 0, 8, 5, 1], [8, 8, 0, 7, 9],
              [9, 5, 7, 0, 9], [8, 1, 9, 9, 0]]


def test_non_metric_matrix_is_refused():
    inst = Instance.explicit(NON_METRIC)
    msg = re.escape("d(3,4) > d(3,1) + d(1,4)")
    with pytest.raises(ValueError, match=msg):
        maximize_scatter(inst, 0.5)
    with pytest.raises(ValueError, match=msg):
        decide_scatter(inst, DecisionParams(8.0, 0.5))
    assert brute_force_mstsp(inst).opt == 8.0  # exhaustive search needs no metric


def _metric_closure(m):
    """Shortest-path distances (Floyd-Warshall): the largest metric below m."""
    m = np.array(m, dtype=float)
    for k in range(len(m)):
        m = np.minimum(m, m[:, [k]] + m[[k], :])
    return m


def test_seeded_non_metric_matrices_and_their_closures():
    rng = np.random.default_rng(3)
    refused = answered = 0
    for _ in range(40):
        n = int(rng.integers(5, 8))
        upper = np.triu(rng.integers(1, 10, size=(n, n)), 1).astype(float)
        for m in (upper + upper.T, _metric_closure(upper + upper.T)):
            inst = Instance.explicit(m)
            if inst.triangle_violation is not None:
                with pytest.raises(ValueError, match="triangle inequality fails"):
                    maximize_scatter(inst, 0.5)
                refused += 1
                continue
            ell_hat, tour = maximize_scatter(inst, 0.5)
            opt = brute_force_mstsp(inst).opt
            assert meets_threshold(ell_hat, opt)
            assert meets_threshold(scatter(inst, tour), 0.5 * ell_hat)
            answered += 1
    assert refused >= 20 and answered >= 40  # every closure is a metric


def test_epsilon_validation():
    inst = generate("uniform", 6, 2, seed=0)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            maximize_scatter(inst, bad)


def test_out_of_envelope_instance_aborts_loudly():
    # a mid-size cluster instance whose quotient resists every exact tier;
    # the contract is to abort rather than return an uncertified answer,
    # and the message names the probe, the tier and the shape of what it
    # could not settle
    inst = generate("clustered", 120, 2, seed=1)
    with pytest.raises(ContractViolation,
                       match=r"hub path-cover tier undecided: k=79, hub visits t=41, "
                             r"m=79 clones; greedy cover 42 paths > t >= certified "
                             r"floor 41; unresolved component sizes \[48\]") as info:
        maximize_scatter(inst, 0.1)
    assert re.match(r"probe ell=0\.01858451271309575, net size k=78, hub points 41: "
                    r"hub path-cover", str(info.value))
    # the restart budget the open component spent, all of it
    assert str(info.value).endswith("; restarts 200/200 on sizes [48]")
    assert isinstance(info.value.__cause__, ContractViolation)


def test_quotient_over_budget_aborts_before_the_center_graph(monkeypatch):
    inst = generate("clustered", 60, 2, seed=3)
    _, _, probes = maximize_scatter_report(inst, 0.5)
    rec = max((r for r in probes if r["branch"] == "many_visits"),
              key=lambda r: r["net_size"])
    k = rec["net_size"]

    def center_graph(*args):
        raise AssertionError("center graph built over the budget")

    monkeypatch.setattr(eptas, "_QUOTIENT_CAP", k - 1)
    monkeypatch.setattr(eptas, "_center_graph", center_graph)
    msg = (f"probe ell={rec['ell']!r}: net size k={k} exceeds the quotient "
           f"budget _QUOTIENT_CAP={k - 1}")
    with pytest.raises(ContractViolation, match=re.escape(msg)):
        decide_scatter(inst, DecisionParams(rec["ell"], 0.5))


def test_clustered_instance_in_envelope():
    inst = generate("clustered", 60, 2, seed=3)
    ell_hat, tour, probes = maximize_scatter_report(inst, 0.5)
    sc = scatter(inst, tour)
    assert meets_threshold(sc, 0.5 * ell_hat)
    branches = {r["branch"] for r in probes}
    assert branches <= {"dirac", "many_visits"}
    for rec in probes:
        if rec["branch"] == "many_visits" and rec["net_size"] is not None:
            assert rec["net_size"] >= 1


@pytest.mark.parametrize("n, epsilon", [(20, 0.25), (30, 0.5), (60, 0.5)])
def test_spread_out_cells_answer_through_the_subtour_branching(monkeypatch, n, epsilon):
    # uniform points give quotients with no hub whose relaxations have
    # disconnected supports. The greedy clone cycle and the 1-tree decide
    # such specs first; with both off, the subtour branching decides some
    # probes, to the same ell_hat and probe records
    inst = generate("uniform", n, 2, seed=4)
    want_ell, _, want_probes = maximize_scatter_report(inst, epsilon)
    branched = []
    branching = many_visits._subtour_branching

    def counted(*args):
        branched.append(args)
        return branching(*args)

    monkeypatch.setattr(many_visits, "_greedy_cycle", lambda spec: None)
    monkeypatch.setattr(many_visits, "one_tree_refutes", lambda graph, budget: (False, 0))
    monkeypatch.setattr(many_visits, "_subtour_branching", counted)
    ell_hat, tour, probes = maximize_scatter_report(inst, epsilon)
    assert (ell_hat, probes) == (want_ell, want_probes)
    assert sorted(tour.tolist()) == list(range(n))
    assert meets_threshold(scatter(inst, tour), (1 - epsilon) * ell_hat)
    assert any(r["branch"] == "many_visits" and r["answer"] and r["ell"] == ell_hat
               for r in probes)
    assert branched
