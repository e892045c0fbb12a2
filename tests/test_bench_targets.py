"""The benchmark (perfbench/) times library functions by wrapping them by
name; a rename in the library must fail here, not only in a traced run."""

import sys
from pathlib import Path

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
