"""Benchmark of the scatter-tsp solver: three workloads, checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload small-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in one fresh process with BLAS/OpenMP pinned to one thread
and SCATTER_TSP_THREADS unset; `all` runs the workloads one after another,
each in its own child process. After set-up and a warm-up solve, passes over
the workload's cells repeat while the next one still fits in `--seconds`
(at least one pass). A reference kernel (reference.py) runs from a timer
every 0.1 s through each pass, its time kept out of the solves'; `wall_ref`
and `cpu_ref` are the median over passes of the pass's solve time divided
by the kernel's mean time in it, so that they follow the program and not the
shared host's speed. The raw `wall_s` and `cpu_s` are printed beside them.
`setup_s` is the median of five cold set-ups in fresh interpreters, made
between the passes. Every answer is checked; a failed check prints the
result with "correct": false and exits 1. A cell that raises
ContractViolation is an abort: it counts in "failed", not as a crash.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced pass,
then one pass with the library's functions wrapped from outside (see
spans.py), and prints the per-layer metrics; the spans are written to
perfbench/out/. The last line of standard output is always the JSON result.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-exact", "clustered-hub", "blob-10k")
ORACLE_CAP = 16        # brute_force_mstsp is exhaustive; it refuses n > 16
SETUP_REPEATS = 5
GAUGE_EVERY = 0.1      # seconds between two runs of the reference kernel
GAUGE_KERNEL = {"small-exact": "interp", "clustered-hub": "interp", "blob-10k": "array"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or child.returncode
    return status


def _without_frames(exc):
    """`exc` with the tracebacks of it and its chain dropped: they hold the
    aborted solve's arrays, which would otherwise stay alive for the rest of
    the pass and add to the peak RSS of later cells."""
    seen, link = set(), exc
    while link is not None and id(link) not in seen:
        seen.add(id(link))
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return exc


def _tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    return 100.0 * k / len(ordered), ordered[k - 1]


@dataclass
class Pass:
    results: list = field(default_factory=list)  # (solve s, (ell_hat, tour) or the abort)
    cpus: list = field(default_factory=list)     # solve cpu s
    elapsed: float = 0.0                         # s, the pass with its gauge runs
    reference: tuple = None                      # kernel (wall s, cpu s), mean over the pass

    @property
    def wall(self) -> float:
        return sum(s for s, _ in self.results)

    @property
    def cpu(self) -> float:
        return sum(self.cpus)


class Bench:
    def __init__(self, workloads, name, seed):
        import scatter_tsp  # not at the top: numpy must load after the thread pins
        self.lib = scatter_tsp
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.cells = None

    def set_up(self, oracle) -> None:
        """Build the cells and the optima of those small enough for the oracle."""
        cells = self.workloads.WORKLOADS[self.name](self.seed)
        opts = {}
        for cell in cells:
            if len(cell.data) <= ORACLE_CAP:
                if cell.name not in opts:
                    opts[cell.name] = oracle(cell.make()).opt
                cell.opt = opts[cell.name]
        self.cells = cells

    def warm_up(self) -> None:
        self.lib.maximize_scatter_report(self.lib.generate("clustered", 60, 2, 11), 0.5)

    def run_pass(self, tracer=None, gauge=False):
        """One pass over the cells: a `Pass`. Each cell is solved on a fresh
        `Instance`, made untimed just before and dropped just after, so that
        nothing of an earlier cell stays alive while a later one runs. With
        `gauge`, the reference kernel runs every GAUGE_EVERY seconds all
        through the pass; its time is taken out of the solve times."""
        solve = self.lib.maximize_scatter_report
        done = Pass()
        gc.collect()
        meter = reference.Gauge(GAUGE_KERNEL[self.name], GAUGE_EVERY)
        pass_start = time.perf_counter()
        with meter if gauge else contextlib.nullcontext():
            for i, cell in enumerate(self.cells):
                inst = cell.make()
                start = meter.clock()
                try:
                    if tracer is None:
                        ell_hat, tour, _ = solve(inst, cell.epsilon)
                    else:
                        tracer.cell = i
                        ell_hat, tour, _ = tracer.call(
                            spans.ROOT, solve, (inst, cell.epsilon), {})
                    out = (ell_hat, tour)
                except self.lib.ContractViolation as exc:
                    if tracer is not None:
                        tracer.record_abort(exc)
                    out = _without_frames(exc)
                end = meter.clock()
                del inst
                done.results.append((end[0] - start[0], out))
                done.cpus.append(end[1] - start[1])
        done.elapsed = time.perf_counter() - pass_start
        if gauge:
            done.reference = meter.mean()
        return done

    def traced_pass(self, tracer):
        tracer.install()
        try:
            return self.run_pass(tracer)
        finally:
            tracer.uninstall()

    def check(self, results, quality, problems):
        """Gate every answer of a pass. Appends (scatter / ell_hat, scatter / OPT
        or None) per solved cell to `quality` and failed gates to `problems`."""
        for cell, (_, out) in zip(self.cells, results):
            if isinstance(out, Exception):
                continue
            ell_hat, tour = out
            sc, bad = self.workloads.check(cell, ell_hat, tour)
            quality.append((sc / ell_hat if ell_hat > 0 else 1.0,
                            sc / cell.opt if cell.opt else None))
            problems.extend(f"{cell.name} eps={cell.epsilon}: {msg}" for msg in bad)


def cold_setup(name, seed) -> float:
    """Seconds to import the library, build the cells with their oracle
    optima, and warm up, in a process that has done none of it yet."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # numpy and the library load here
    bench = Bench(workloads, name, seed)
    bench.set_up(bench.lib.brute_force_mstsp)
    bench.warm_up()
    return time.perf_counter() - start


def _cold_setup_elsewhere(name, seed) -> float:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.cold_setup(sys.argv[2], int(sys.argv[3])))")
    child = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed)],
                           capture_output=True, text=True, check=True, timeout=150)
    return float(child.stdout.split()[-1])


def _measure(bench, seconds):
    bench.set_up(bench.lib.brute_force_mstsp)
    bench.warm_up()
    # cold set-ups alternate with the passes, so that they meet the same
    # spells of machine load as the passes rather than a single moment
    setups = [_cold_setup_elsewhere(bench.name, bench.seed)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass(gauge=True))
        if len(setups) < SETUP_REPEATS:
            setups.append(_cold_setup_elsewhere(bench.name, bench.seed))
        typical = statistics.median(p.elapsed for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(_cold_setup_elsewhere(bench.name, bench.seed))
    setup_s = statistics.median(setups)
    quality, problems = [], []
    solve_s, aborts = [], 0
    for p in passes:
        bench.check(p.results, quality, problems)
        solve_s.extend(s for s, _ in p.results)
        aborts += sum(isinstance(out, Exception) for _, out in p.results)
    ratios = [r for r, _ in quality]
    metrics = {
        "wall_ref": (statistics.median(p.wall / p.reference[0] for p in passes), "ref"),
        "cpu_ref": (statistics.median(p.cpu / p.reference[1] for p in passes), "ref"),
        "scatter_ratio.mean": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "scatter_ratio.min": (min(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }

    notes = [f"passes {len(passes)} count ({len(bench.cells)} cells each; wall_s "
             + " ".join(f"{p.wall:.3f}" for p in passes) + ")",
             f"wall_s {statistics.median(p.wall for p in passes)!r} s (median pass)",
             f"cpu_s {statistics.median(p.cpu for p in passes)!r} s (median pass)",
             "reference_ms " + " ".join(f"{1000.0 * p.reference[0]:.3f}" for p in passes)
             + " ms (kernel mean wall per pass)"]
    attempted = len(solve_s)
    notes += [f"abort_rate {aborts / attempted!r} ratio ({aborts} of {attempted} solves)",
              f"solve_ms.p50 {1000.0 * statistics.median(solve_s)!r} ms"]
    if attempted >= 11:
        pct, value = _tail(solve_s)
        notes.append(f"solve_ms.tail {1000.0 * value!r} ms "
                     f"(p{pct:.1f} of {attempted} solves)")
    opt_ratios = [r for _, r in quality if r is not None]
    if opt_ratios:
        notes.append(f"opt_ratio.min {min(opt_ratios)!r} ratio "
                     f"({len(opt_ratios)} solves against brute_force_mstsp)")
    return metrics, notes, attempted, aborts, problems


def _measure_traced(bench):
    tracer = spans.Tracer()
    bench.set_up(lambda inst: tracer.call(spans.ORACLE, bench.lib.brute_force_mstsp,
                                          (inst,), {}))
    bench.warm_up()
    plain = bench.run_pass()
    traced = bench.traced_pass(tracer)
    plain_wall, traced_wall = plain.wall, traced.wall
    values = tracer.metrics()
    quality, problems = [], spans.validation_problems(values)
    for done in (plain, traced):
        bench.check(done.results, quality, problems)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{bench.name}-seed{bench.seed}.jsonl"
    tracer.write(path)
    values["tracing_overhead_s"] = traced_wall - plain_wall
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    aborts = sum(isinstance(out, Exception) for done in (plain, traced)
                 for _, out in done.results)
    notes = [f"traced.wall_s {traced_wall!r} s", f"untraced.wall_s {plain_wall!r} s",
             f"spans {len(tracer.spans)} count (written to {path.relative_to(ROOT)})"]
    for name in spans.span_names()[:-1]:  # the oracle runs in set-up
        share = values[f"{name}.s"] / traced_wall
        notes.append(f"{name}.share {share:.4f} ratio (self "
                     f"{values[f'{name}.self_s'] / traced_wall:.4f} of traced wall_s)")
    return metrics, notes, 2 * len(bench.cells), aborts, problems


def _unit(name) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "scatter_tsp" / "__init__.py").is_file():
        print(f"error: no src/scatter_tsp under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SCATTER_TSP_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = Bench(workloads, args.workload, args.seed)
    if args.trace:
        metrics, notes, attempted, aborts, problems = _measure_traced(bench)
    else:
        metrics, notes, attempted, aborts, problems = _measure(bench, args.seconds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for msg in problems:
        print(f"FAILED CHECK {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": aborts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
