"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from scatter_tsp import ContractViolation, brute_force_mstsp  # noqa: E402

# part of each workload keeps the test short; the clustered part holds
# four aborting cells
KEEP = {"small-exact": lambda cell: len(cell.data) <= 8,
        "clustered-hub": lambda cell: "-n200-" not in cell.name
        and not cell.name.startswith("scaling"),
        "blob-10k": lambda cell: True}


def _traced_counts(name, seed):
    bench = run.Bench(workloads, name, seed)
    bench.set_up(brute_force_mstsp)
    bench.cells = [cell for cell in bench.cells if KEEP[name](cell)]
    tracer = spans.Tracer()
    results = bench.traced_pass(tracer).results
    quality, problems = [], spans.validation_problems(tracer.metrics())
    bench.check(results, quality, problems)
    assert problems == []
    return {k: v for k, v in tracer.metrics().items()
            if not k.endswith((".s", "_s"))}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 1)
    assert first == _traced_counts(name, 1)
    assert first["eptas.maximize_scatter_report.calls"] > 0
    # every No comes from an infeasible quotient; a decision that aborted
    # took its cell down with it
    assert first["eptas.probes"] - first["eptas.yes"] == first["many_visits.no"]
    aborts = sum(first[f"{layer}.aborts"] for layer in spans.LAYERS)
    assert 0 <= first["eptas.decide_scatter.calls"] - first["eptas.probes"] <= aborts


def test_clustered_slice_keeps_its_aborts():
    counts = _traced_counts("clustered-hub", 1)
    aborts = sum(counts[f"{layer}.aborts"] for layer in spans.LAYERS)
    assert counts["many_visits.aborts"] == aborts == 4


def test_cell_lists_follow_the_seed():
    for name, build in workloads.WORKLOADS.items():
        a, b, c = build(1), build(1), build(2)
        assert [x.name for x in a] == [x.name for x in b]
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))
        assert not all(np.array_equal(x.data, y.data) for x, y in zip(a, c))


def _square_cell(**extra):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return workloads.Cell("square", "lp", pts, 2.0, 0.1, **extra)


def test_gates_reject_wrong_answers():
    cell = _square_cell(opt=2 ** 0.5)
    good = np.array([0, 2, 1, 3])           # diagonal, side, diagonal, side
    sc, bad = workloads.check(cell, 2 ** 0.5, good)
    assert sc == pytest.approx(1.0) and bad  # scatter 1 < 0.9 * sqrt(2)
    assert workloads.check(cell, 1.0, good)[1]           # OPT above ell_hat
    assert workloads.check(cell, 1.0, [0, 1, 1, 3])[1]   # not a permutation
    fine = workloads.check(_square_cell(), 1.0, [0, 1, 2, 3])
    assert fine == (1.0, [])
    assert workloads.check(_square_cell(pinned=2.0), 1.0, [0, 1, 2, 3])[1]
    assert workloads.check(_square_cell(gap=(False, 1.0)), 1.0, [0, 1, 2, 3])[1]


def test_aborts_count_in_the_layer_that_raised_them():
    tracer = spans.Tracer()

    def deep():
        raise ContractViolation("budget exhausted")

    def lift():
        raise ValueError("degree sum too small")

    def decide(inner):
        try:
            tracer.call(inner[0], inner[1], (), {})
        except ValueError as exc:
            raise ContractViolation("lift failed") from exc

    for inner, layer in ((("many_visits.many_visits_tour", deep), "many_visits"),
                         (("graphs.bc_lift", lift), "graphs")):
        with pytest.raises(ContractViolation) as info:
            tracer.call("eptas.decide_scatter", decide, (inner,), {})
        tracer.record_abort(info.value)
        assert tracer.counts[f"{layer}.aborts"] == 1
    assert tracer.counts["eptas.aborts"] == 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.call("eptas.decide_scatter", lambda: tracer.call(
        "graphs.dirac_hamiltonian", sum, (range(10 ** 5),), {}), (), {})
    child, parent = tracer.spans
    assert child[1] == parent[0]
    assert parent[6] == pytest.approx((parent[5] - parent[4]) - (child[5] - child[4]))


@pytest.mark.parametrize("kind", sorted(reference.KERNELS))
def test_gauge_time_stays_out_of_the_clock(kind):
    before = signal.getsignal(signal.SIGALRM)
    meter = reference.Gauge(kind, 0.05)
    with meter:
        start = meter.clock()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
        end = meter.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.samples) >= 6
    assert end[0] - start[0] == pytest.approx(0.6 - meter.spent[0], abs=0.02)
    assert 0 < meter.mean()[0] < meter.spent[0]


def test_kept_aborts_hold_no_frames():
    def solve():
        big = np.zeros(10)  # noqa: F841 -- a local the traceback would keep
        try:
            raise ValueError("inner")
        except ValueError as exc:
            raise ContractViolation("outer") from exc

    with pytest.raises(ContractViolation) as info:
        solve()
    kept = run._without_frames(info.value)
    assert kept is info.value
    assert kept.__traceback__ is None and kept.__cause__.__traceback__ is None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_declared_metrics(trace, kind, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {"small-exact": lambda seed: workloads.small_exact(seed)[:4]})
    assert run.main(["--workload", "small-exact", "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(m["value"] != 0 for m in result["metrics"].values())
