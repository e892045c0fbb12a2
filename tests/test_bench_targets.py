"""The benchmark (perfbench/) times library functions by wrapping them by
name; a rename in the library must fail here, not only in a traced run.
Its answer gates and abort counts are checked here too, on one short pass
of each workload, so a broken gate or a rise in aborts fails before a
timed run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrap_target_resolves_to_a_callable(monkeypatch):
    # perfbench/ is read, never written: no bytecode cache goes there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    targets = spans._targets()
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("workload", ["small-exact", "clustered-hub", "blob-10k"])
def test_bench_gates_pass_on_one_short_pass(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=PERFBENCH.parent, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    failed, attempted = result["failed"], result["attempted"]
    if workload == "clustered-hub":
        # 4 of its 27 cells abort in the hub path-cover tier
        assert failed * 27 <= 6 * attempted, result
    else:
        assert failed == 0, result
