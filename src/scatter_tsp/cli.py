"""Command line front end: solve, decide, generate, embed, bench, oracle.

Exit codes: 0 on success, 2 for input errors (an explicit matrix that
breaks the triangle inequality among them, except for `oracle`), 3 when an
internal contract check fails. The bench subcommand writes one CSV row per
(instance, epsilon) cell with a fixed header, decimal reals, and rows
ordered by instance id, so runs are machine-diffable; a record that breaks
its guarantee exits 3 once the CSV is written.
"""

import argparse
import csv
import sys
import time
from dataclasses import astuple, dataclass, fields

from .instance import (ContractViolation, generate, read_instance, scatter,
                       threshold_tolerance, write_instance)
from .eptas import DecisionParams, decide_scatter, maximize_scatter_report
from .oracle import brute_force_mstsp, check_brute_cap
from . import hardness


@dataclass
class BenchRecord:
    instance_id: str
    n: int
    dim: int
    metric: str
    epsilon: float
    ell_hat: float
    witness_scatter: float
    oracle_opt: float | None
    branch: str | None
    net_size: int | None
    runtime_ms: float
    seed: int

    def row(self) -> list:
        return ["" if value is None else str(value) for value in astuple(self)]

    def violations(self) -> list:
        tol = threshold_tolerance(self.ell_hat)
        bad = []
        if self.witness_scatter < (1.0 - self.epsilon) * self.ell_hat - tol:
            bad.append("witness scatter below the guarantee")
        if self.oracle_opt is not None:
            if self.ell_hat < self.oracle_opt - tol:
                bad.append("ell_hat below the exact optimum")
            if self.witness_scatter > self.oracle_opt + tol:
                bad.append("witness scatter above the exact optimum")
            if self.witness_scatter < (1.0 - self.epsilon) * self.oracle_opt - tol:
                bad.append("witness scatter below (1 - eps) times the optimum")
        return bad


def _metric_name(inst) -> str:
    if inst.metric_kind == "lp":
        return f"l{inst.p:g}"
    return inst.metric_kind


def _tour_line(tour) -> str:
    return " ".join(str(int(v)) for v in tour)


def cmd_solve(args) -> int:
    inst = read_instance(args.input)
    if args.oracle:
        check_brute_cap(inst.n)   # before the solve, not after it
    ell_hat, tour, _ = maximize_scatter_report(inst, args.epsilon)
    sc = scatter(inst, tour)
    lines = [f"ell_hat {ell_hat}", f"scatter {sc}", f"tour {_tour_line(tour)}"]
    if args.oracle:
        opt = brute_force_mstsp(inst).opt
        lines.append(f"oracle_opt {opt}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0


def cmd_decide(args) -> int:
    inst = read_instance(args.input)
    params = DecisionParams(args.ell, args.epsilon)
    out = decide_scatter(inst, params)
    if out.answer:
        print("Yes")
        print(f"witness_scatter {out.witness_scatter}")
        print(f"tour {_tour_line(out.witness)}")
    else:
        print("No")
    return 0


def cmd_generate(args) -> int:
    inst = generate(args.kind, n=args.n, dim=args.dim, seed=args.seed, p=args.p)
    write_instance(inst, args.out)
    print(f"wrote {args.out} kind {args.kind} n {inst.n} dim {args.dim} "
          f"metric {_metric_name(inst)} seed {args.seed}")
    return 0


def cmd_embed(args) -> int:
    graph = hardness.read_cubic_graph(args.graph)
    labeling, inst = hardness.embed(graph)
    write_instance(inst, args.out)
    print(f"wrote {args.out} n {inst.n} dimension {labeling.labels.shape[1]} "
          f"m {labeling.m}")
    return 0


def cmd_oracle(args) -> int:
    inst = read_instance(args.input)
    res = brute_force_mstsp(inst)
    print(f"opt {res.opt}")
    print(f"tour {_tour_line(res.tour)}")
    return 0


def _suite_cells(name: str) -> list:
    if name == "smoke":
        shapes = [("uniform", 8, 2, 1), ("uniform", 12, 2, 2),
                  ("clustered", 9, 2, 3), ("clustered", 12, 3, 4),
                  ("grid", 9, 2, 5), ("line", 10, 1, 6)]
        eps = (0.25, 0.5)
        oracle = True
    elif name == "scaling":
        shapes = [("clustered", 60, 2, 11), ("clustered", 200, 2, 12),
                  ("clustered", 500, 2, 13)]
        eps = (0.5,)
        oracle = False
    else:
        raise ValueError(f"unknown suite {name!r}")
    cells = []
    for kind, n, dim, seed in shapes:
        for e in eps:
            cells.append((kind, n, dim, seed, e, oracle))
    return cells


def _run_cell(cell):
    kind, n, dim, seed, eps, want_oracle = cell
    inst = generate(kind, n=n, dim=dim, seed=seed)
    start = time.perf_counter()
    ell_hat, tour, probes = maximize_scatter_report(inst, eps)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    # no probe accepts the minimum distance, which comes back unprobed
    accepted = [p for p in probes if p["answer"] and p["ell"] == ell_hat]
    branch = accepted[-1]["branch"] if accepted else None
    net_size = accepted[-1]["net_size"] if accepted else None
    opt = brute_force_mstsp(inst).opt if want_oracle else None
    return BenchRecord(
        instance_id=f"{kind}-n{n}-d{dim}-s{seed}",
        n=n, dim=dim, metric=_metric_name(inst), epsilon=eps,
        ell_hat=ell_hat, witness_scatter=scatter(inst, tour),
        oracle_opt=opt, branch=branch, net_size=net_size,
        runtime_ms=round(elapsed_ms, 3), seed=seed)


def cmd_bench(args) -> int:
    cells = _suite_cells(args.suite)
    records = [_run_cell(cell) for cell in cells]
    records.sort(key=lambda r: (r.instance_id, r.epsilon))
    problems = []
    for rec in records:
        for msg in rec.violations():
            problems.append(f"{rec.instance_id} eps={rec.epsilon}: {msg}")
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(BenchRecord))
        for rec in records:
            writer.writerow(rec.row())
    print(f"wrote {args.out} with {len(records)} rows")
    for msg in problems:
        print(f"warning: {msg}", file=sys.stderr)
    if problems:
        raise ContractViolation(f"{len(problems)} bench records violated "
                                "their invariants")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatter-tsp",
        description="Maximum Scatter TSP approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximize scatter on an instance file")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="also report the exact optimum (n <= 16)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decide", help="decide one scatter threshold")
    p.add_argument("input")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("generate", help="write a generated instance file")
    p.add_argument("--kind", required=True,
                   choices=("uniform", "clustered", "line", "grid"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="embed a cubic bipartite graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p.add_argument("--suite", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    p.add_argument("input")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
