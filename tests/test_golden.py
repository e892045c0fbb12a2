"""Solver outputs pinned cell by cell, so a change meant to keep every
answer shows that it did.

`tests/data/golden.json` holds, for each cell, `repr(ell_hat)`, the SHA-1
of the tour as int64, the SHA-1 of the `repr` of the probe records, and
for a cell that aborts only the abort message. The cells:
- the clustered grid, `generate("clustered", n, 2, seed)` for
  n in {60, 80, 120, 200}, seeds 0-9 and epsilon in {0.1, 0.25, 0.5}
  (25 of the 120 abort, in the hub path-cover tier);
- `generate("uniform", 20, 2, seed)` for seeds 0-4 and epsilon in
  {0.25, 0.5}, cheap cells; of them only `uniform-n20-s3-e0.25` has a
  spec that reaches the subtour branching;
- `generate("clustered", n, dim, seed)` for n in {100, 300}, dim in
  {3, 4}, seeds 0-2 and epsilon in {0.25, 0.5} (5 of the 24 abort, in the
  hub path-cover tier), named with their dimension;
- `generate("uniform", n, dim, seed)` for n in {12, 14, 16}, dim in
  {1, 2, 3}, seeds 0-2 and epsilon in {0.05, 0.3}, named with their
  dimension when it is not 2. Five of them, (n, dim, seed, epsilon) =
  (12, 2, 0, 0.05), (14, 2, 0, 0.05), (14, 2, 0, 0.3), (16, 3, 2, 0.05)
  and (16, 3, 2, 0.3), meet specs that the greedy cycle misses and the
  walk DP proves feasible; the subtour branching builds their walks.

A change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and names the cells that changed: `--write` prints the name of each cell
whose entry differs from the file it replaces, and the keys that differ.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from scatter_tsp import ContractViolation, generate, maximize_scatter_report

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"

GRID = [("clustered", n, 2, seed, eps)
        for n in (60, 80, 120, 200) for seed in range(10) for eps in (0.1, 0.25, 0.5)]
UNIFORM = [("uniform", 20, 2, seed, eps) for seed in range(5) for eps in (0.25, 0.5)]
HIGH_DIM = [("clustered", n, dim, seed, eps)
            for n in (100, 300) for dim in (3, 4) for seed in range(3) for eps in (0.25, 0.5)]
SMALL_UNIFORM = [("uniform", n, dim, seed, eps)
                 for n in (12, 14, 16) for dim in (1, 2, 3) for seed in range(3)
                 for eps in (0.05, 0.3)]
CELLS = GRID + UNIFORM + HIGH_DIM + SMALL_UNIFORM


def cell_name(kind, n, dim, seed, eps) -> str:
    # the plane's cells were named before other dimensions joined
    dims = "" if dim == 2 else f"-d{dim}"
    return f"{kind}{dims}-n{n}-s{seed}-e{eps}"


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def outputs(kind, n, dim, seed, eps) -> dict:
    """What the golden file records for one cell."""
    try:
        ell_hat, tour, probes = maximize_scatter_report(generate(kind, n, dim, seed), eps)
    except ContractViolation as exc:
        return {"abort": str(exc)}
    return {"ell_hat": repr(ell_hat),
            "tour": sha1(np.asarray(tour, dtype=np.int64).tobytes()),
            "probes": sha1(repr(probes).encode())}


def mismatches(cells) -> list:
    golden = json.loads(GOLDEN.read_text())
    bad = []
    for cell in cells:
        name = cell_name(*cell)
        got = outputs(*cell)
        if got != golden[name]:
            bad.append((name, golden[name], got))
    return bad


def test_golden_covers_exactly_its_cells():
    names = [cell_name(*cell) for cell in CELLS]
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(names)


@pytest.mark.parametrize("cells", [GRID, UNIFORM, HIGH_DIM, SMALL_UNIFORM],
                         ids=["clustered-grid", "uniform-n20", "clustered-3d-4d",
                              "uniform-small"])
def test_outputs_match_golden(cells):
    assert mismatches(cells) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table = {cell_name(*cell): outputs(*cell) for cell in CELLS}
    for name, entry in table.items():
        was = old.get(name, {})
        if entry != was:
            keys = sorted(key for key in entry.keys() | was.keys() if entry.get(key) != was.get(key))
            print(f"changed {name}: {', '.join(keys)}")
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cells to {GOLDEN}")
