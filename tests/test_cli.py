"""Command line behavior: outputs, files, exit codes, bench CSV schema."""

import csv
import dataclasses

import numpy as np
import pytest

from scatter_tsp import cli, read_instance, write_cubic_graph
from helpers import k33


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, kind="uniform", n=8, dim=2, seed=1):
    path = tmp_path / f"{kind}{n}.json"
    code, out, _ = run(["generate", "--kind", kind, "--n", str(n),
                        "--dim", str(dim), "--seed", str(seed),
                        "--out", str(path)], capsys)
    assert code == 0
    return path


def test_generate_writes_readable_instance(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    inst = read_instance(path)
    assert inst.n == 8 and inst.dim == 2
    _, out, _ = run(["generate", "--kind", "line", "--n", "5", "--dim", "1",
                     "--seed", "0", "--p", "1", "--out",
                     str(tmp_path / "l.json")], capsys)
    assert "metric l1" in out


def test_solve_reports_and_writes(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    out_path = tmp_path / "answer.txt"
    code, out, _ = run(["solve", str(path), "--epsilon", "0.25",
                        "--oracle", "--out", str(out_path)], capsys)
    assert code == 0
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert set(lines) == {"ell_hat", "scatter", "tour", "oracle_opt"}
    ell_hat = float(lines["ell_hat"])
    sc = float(lines["scatter"])
    opt = float(lines["oracle_opt"])
    assert sc >= 0.75 * opt - 1e-9
    assert ell_hat >= opt - 1e-9
    assert sorted(int(v) for v in lines["tour"].split()) == list(range(8))
    assert out_path.read_text() == out


def test_solve_checks_the_oracle_cap_before_solving(tmp_path, capsys, monkeypatch):
    # n = 20 is past the oracle's cap: the answer could never be printed,
    # so the solve must not run at all
    path = gen_file(tmp_path, capsys, n=20)

    def solve(*args):
        raise AssertionError("solved an instance the oracle refuses")

    monkeypatch.setattr(cli, "maximize_scatter_report", solve)
    out_path = tmp_path / "answer.txt"
    code, out, err = run(["solve", str(path), "--epsilon", "0.25",
                          "--oracle", "--out", str(out_path)], capsys)
    assert code == 2 and out == ""
    assert "n=20 exceeds the oracle cap 16" in err
    assert not out_path.exists()


def test_decide_yes_and_no(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, kind="line", n=10, dim=1)
    code, out, _ = run(["decide", str(path), "--ell", "1.0",
                        "--epsilon", "0.25"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "Yes"
    assert out.splitlines()[1].startswith("witness_scatter ")

    code, out, _ = run(["decide", str(path), "--ell", "9.5",
                        "--epsilon", "0.25"], capsys)
    assert code == 0
    assert out.strip() == "No"  # 9.5 exceeds the best possible gap


def test_oracle_subcommand(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, n=6)
    code, out, _ = run(["oracle", str(path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("opt ")
    assert len(lines[1].split()) == 7  # "tour" plus six vertices


def test_embed_subcommand(tmp_path, capsys):
    gpath = tmp_path / "k33.txt"
    write_cubic_graph(k33(), gpath)
    ipath = tmp_path / "k33.json"
    code, out, _ = run(["embed", "--graph", str(gpath), "--out", str(ipath)],
                       capsys)
    assert code == 0
    assert "m 2" in out
    inst = read_instance(ipath)
    assert inst.n == 6
    assert inst.metric_kind == "hamming"


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _strip_runtime(rows):
    i = rows[0].index("runtime_ms")
    return [row[:i] + row[i + 1:] for row in rows]


def test_bench_smoke_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["bench", "--suite", "smoke", "--out", str(out1)], capsys)[0] == 0
    assert run(["bench", "--suite", "smoke", "--out", str(out2)], capsys)[0] == 0

    rows = _read_rows(out1)
    assert rows[0] == ["instance_id", "n", "dim", "metric", "epsilon", "ell_hat",
                       "witness_scatter", "oracle_opt", "branch", "net_size",
                       "runtime_ms", "seed"]
    assert len(rows) == 1 + 12  # six shapes times two epsilons
    ids = [(r[0], r[4]) for r in rows[1:]]
    assert ids == sorted(ids)  # ordered by instance id then epsilon
    for row in rows[1:]:
        rec = dict(zip(rows[0], row))
        assert rec["branch"] in ("dirac", "many_visits")
        sc = float(rec["witness_scatter"])
        assert sc >= (1.0 - float(rec["epsilon"])) * float(rec["ell_hat"]) - 1e-9
        if rec["oracle_opt"]:
            assert sc <= float(rec["oracle_opt"]) + 1e-9
        float(rec["runtime_ms"])

    assert _strip_runtime(_read_rows(out1)) == _strip_runtime(_read_rows(out2))


def test_bench_cell_without_an_accepting_probe_has_no_branch():
    # both probes answer No: ell_hat is the unprobed minimum distance,
    # returned with the identity tour and no decision behind it
    rec = cli._run_cell(("uniform", 3, 2, 1, 0.25, True))
    assert rec.ell_hat == rec.oracle_opt
    assert rec.branch is None and rec.net_size is None
    row = dict(zip((f.name for f in dataclasses.fields(cli.BenchRecord)), rec.row()))
    assert row["branch"] == "" and row["net_size"] == ""


def test_bench_strict_escalates_violations(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.BenchRecord, "violations",
                        lambda self: ["forced for the test"])
    code, _, err = run(["bench", "--suite", "smoke",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 3
    assert "warning:" in err
    assert len(_read_rows(tmp_path / "x.csv")) == 1 + 12  # written before the exit


def test_bench_bad_suite(tmp_path, capsys):
    code, _, err = run(["bench", "--suite", "nope",
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and "unknown suite" in err


def test_input_error_exit_codes(tmp_path, capsys):
    code, _, err = run(["solve", str(tmp_path / "missing.json"),
                        "--epsilon", "0.25"], capsys)
    assert code == 2
    path = gen_file(tmp_path, capsys)
    code, _, err = run(["solve", str(path), "--epsilon", "1.5"], capsys)
    assert code == 2
    code, _, err = run(["decide", str(path), "--ell", "-1",
                        "--epsilon", "0.25"], capsys)
    assert code == 2


def test_wrong_json_types_exit_code(tmp_path, capsys):
    # numpy and float() would read true as 1, "3" as 3 and null as a
    # missing p; only JSON numbers (and "inf" for p) are accepted
    pts = '"points": [[0, 0], [1, 0], [0, 1]]'
    lp = '{"version": 1, "metric": {"type": "lp", "p": %s}, ' + pts + '}'
    explicit = '{"version": 1, "metric": {"type": "explicit"}, "matrix": %s}'
    files = {"dict_matrix.json": (explicit % '{"a": 1}', "'matrix'"),
             "bool_matrix.json": (explicit % '[[0, 1, 1], [1, 0, true], [1, true, 0]]',
                                  "'matrix'"),
             "list_p.json": (lp % "[2]", "'metric.p'"),
             "bool_p.json": (lp % "true", "'metric.p'"),
             "string_p.json": (lp % '"3"', "'metric.p'"),
             "null_p.json": (lp % "null", "'metric.p'"),
             "bool_version.json": ('{"version": true, "metric": {"type": "lp"}, ' + pts + '}',
                                   "'version'"),
             "string_points.json": ('{"version": 1, "metric": {"type": "lp"}, '
                                    '"points": [["0", 0], [1, 0], [0, 1]]}', "'points'"),
             "bool_points.json": ('{"version": 1, "metric": {"type": "lp"}, '
                                  '"points": [[false, 0], [1, 0], [0, true]]}', "'points'"),
             "bool_hamming.json": ('{"version": 1, "metric": {"type": "hamming"}, '
                                   '"points": [[0, 1], [1, 0], [true, 1]]}', "'points'")}
    for name, (text, field) in files.items():
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(["solve", str(path), "--epsilon", "0.5"], capsys)
        assert code == 2 and f"error: {path}:" in err and field in err, name
    # the same files with JSON numbers in those places load
    for text in (lp % "3", lp % '"inf"', explicit % "[[0, 1, 1], [1, 0, 1.5], [1, 1.5, 0]]",
                 '{"version": 1.0, "metric": {"type": "hamming"}, '
                 '"points": [[0, 1], [1, 0], [1, 1.0]]}'):
        path = tmp_path / "fine.json"
        path.write_text(text)
        assert read_instance(path).n == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_distances_exit_code(tmp_path, capsys):
    # 1e400 parses as inf; the l2 points are finite but their distances
    # overflow; a 401-digit integer is past float64 too, but json reads it
    # as an int, which float() refuses with OverflowError
    huge = "9" * 401
    files = {"matrix.json": '{"version": 1, "metric": {"type": "explicit"}, '
                            '"matrix": [[0, 1e400, 1], [1e400, 0, 1], [1, 1, 0]]}',
             "points.json": '{"version": 1, "metric": {"type": "lp", "p": 2}, '
                            '"points": [[0, 0], [1e200, 0], [0, 1e200], [1, 1]]}',
             "huge_matrix.json": '{"version": 1, "metric": {"type": "explicit"}, "matrix": '
                                 f'[[0, {huge}, 1], [{huge}, 0, 1], [1, 1, 0]]}}',
             "huge_points.json": '{"version": 1, "metric": {"type": "lp", "p": 2}, '
                                 f'"points": [[0, 0], [{huge}, 0], [0, 1]]}}'}
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        for args in (["solve", str(path), "--epsilon", "0.25"], ["oracle", str(path)]):
            code, _, err = run(args, capsys)
            assert code == 2 and "finite" in err, (name, args[0])


def test_p_past_float64_exit_code(tmp_path, capsys):
    path = tmp_path / "huge_p.json"
    path.write_text('{"version": 1, "metric": {"type": "lp", "p": ' + "9" * 401
                    + '}, "points": [[0, 0], [1, 0], [0, 1]]}')
    code, out, err = run(["solve", str(path), "--epsilon", "0.25"], capsys)
    assert code == 2 and out == ""
    assert f"error: {path}: lp metric requires p to fit in float64" in err


def test_embed_refuses_a_wrong_edge_count_before_allocating(tmp_path, capsys):
    # 10^11 vertices would need per-vertex lists far beyond memory; one
    # edge is not 3n/2 of them, which is refused first
    path = tmp_path / "huge.txt"
    path.write_text("100000000000\n0 1\n")
    code, _, err = run(["embed", "--graph", str(path), "--out", str(tmp_path / "x.json")],
                       capsys)
    assert code == 2 and "150000000000 edges, got 1" in err


def test_non_metric_matrix_exit_code(tmp_path, capsys):
    path = tmp_path / "non_metric.json"
    path.write_text('{"version": 1, "metric": {"type": "explicit"}, "matrix": '
                    '[[0,9,8,9,8],[9,0,8,5,1],[8,8,0,7,9],[9,5,7,0,9],[8,1,9,9,0]]}')
    for args in (["solve", str(path), "--epsilon", "0.5", "--oracle"],
                 ["decide", str(path), "--ell", "8", "--epsilon", "0.5"]):
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert "d(3,4) > d(3,1) + d(1,4)" in err
    code, out, _ = run(["oracle", str(path)], capsys)
    assert code == 0 and out.startswith("opt 8.0\n")


def test_contract_violation_exit_code(tmp_path, capsys):
    path = gen_file(tmp_path, capsys, kind="clustered", n=120, dim=2, seed=1)
    code, _, err = run(["solve", str(path), "--epsilon", "0.1"], capsys)
    assert code == 3
    assert "error:" in err


def test_scaling_suite_is_known(tmp_path):
    cells = cli._suite_cells("scaling")
    assert all(kind == "clustered" for kind, *_ in cells)
    with pytest.raises(ValueError):
        cli._suite_cells("huge")
