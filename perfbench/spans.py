"""Spans and counts recorded from outside the library.

`Tracer.install` replaces the names the solver looks up with timing
wrappers: `eptas` imports its helpers with `from .x import f`, so the
wrappers go on `scatter_tsp.eptas.<name>` (patching `scatter_tsp.graphs.f`
alone would time nothing). `Instance.distance_rows` is a method, so it is
wrapped on the class. Spans stay in memory; `write` dumps them as JSON lines
and `metrics` folds them into per-function calls, total and self time.
"""

import functools
import json
import time

_RAISED = object()


def _count_candidates(counts, args, result):
    if result is not _RAISED:
        counts["instance.candidates"] += len(result)


def _count_rows(counts, args, result):
    if result is not _RAISED:
        instance, ids = args[0], args[1]
        counts["instance.distance_rows.rows"] += len(ids)
        counts["instance.distance_evals"] += len(ids) * instance.n


def _count_decision(counts, args, result):
    if result is not _RAISED:
        counts["eptas.probes"] += 1
        counts["eptas.yes"] += int(bool(result.answer))
        if result.answer and result.branch == "many_visits":
            counts["eptas.yes_many_visits"] += 1


def _count_net(counts, args, result):
    if result is not _RAISED:
        size = result.size()
        counts["nets.net_size.sum"] += size
        counts["nets.net_size.max"] = max(counts["nets.net_size.max"], size)


def _count_spec(counts, args, result):
    spec = args[0]
    counts["many_visits.spec_k.max"] = max(counts["many_visits.spec_k.max"], spec.k)
    counts["many_visits.spec_visits.sum"] += sum(spec.visits)
    if result is None:
        counts["many_visits.no"] += 1


def _count_graph_bytes(counts, args, result):
    if result is not _RAISED:
        counts["graphs.threshold_graph.bytes"] += args[0].n ** 2


def _count_lift(counts, args, result):
    counts["graphs.bc_lift.edges"] += len(args[1])


# (module attribute or class, attribute, span name, observer); the span
# name's first component is the layer (module) the function belongs to
def _targets():
    from scatter_tsp import Instance, eptas, many_visits
    return [
        (eptas, "candidate_distances", "instance.candidate_distances", _count_candidates),
        (Instance, "distance_rows", "instance.distance_rows", _count_rows),
        (eptas, "scatter", "instance.scatter", None),
        (eptas, "tour_edge_lengths", "instance.tour_edge_lengths", None),
        (eptas, "validate_tour", "instance.validate_tour", None),
        (eptas, "decide_scatter", "eptas.decide_scatter", _count_decision),
        (eptas, "find_low_degree_point", "eptas.find_low_degree_point", None),
        (eptas, "low_degree_context", "eptas.low_degree_context", None),
        (eptas, "greedy_delta_net", "nets.greedy_delta_net", _count_net),
        (eptas, "many_visits_tour", "many_visits.many_visits_tour", _count_spec),
        (eptas, "threshold_graph", "graphs.threshold_graph", _count_graph_bytes),
        (eptas, "dirac_hamiltonian", "graphs.dirac_hamiltonian", None),
        (many_visits, "eulerian_tour", "graphs.eulerian_tour", None),
        (eptas, "bc_lift", "graphs.bc_lift", _count_lift),
    ]


ROOT = "eptas.maximize_scatter_report"
ORACLE = "oracle.brute_force_mstsp"
COUNT_NAMES = [
    "instance.candidates", "instance.distance_rows.rows", "instance.distance_evals",
    "eptas.probes", "eptas.yes", "eptas.yes_many_visits",
    "nets.net_size.max", "nets.net_size.sum",
    "many_visits.spec_k.max", "many_visits.spec_visits.sum", "many_visits.no",
    "graphs.threshold_graph.bytes", "graphs.bc_lift.edges",
]
LAYERS = ["instance", "eptas", "nets", "many_visits", "graphs"]


def abort_layer(exc) -> str:
    """Layer of the innermost wrapped call a failure passed through."""
    layer = "eptas"  # raised by maximize_scatter_report itself
    while exc is not None:
        layer = getattr(exc, "perfbench_layer", layer)
        exc = exc.__cause__ or exc.__context__
    return layer


def validation_problems(values) -> list:
    """Validation is a safety check, not a cost to cut: every Yes the solver
    returns must have gone through the library's own tour checks."""
    bad = []
    for name, floor in (("instance.scatter.calls", "eptas.yes"),
                        ("instance.validate_tour.calls", "eptas.yes"),
                        ("instance.tour_edge_lengths.calls", "eptas.yes_many_visits")):
        if values[name] < values[floor]:
            bad.append(f"{name} = {values[name]} fell below {floor} = {values[floor]}")
    return bad


class Tracer:
    """Span recorder; one per traced pass, never shared between threads."""

    def __init__(self):
        self.spans = []       # (id, parent id, cell, name, start, end, self seconds)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.counts.update({f"{layer}.aborts": 0 for layer in LAYERS})
        self.cell = None
        self._stack = []      # [span id, seconds covered by child spans]
        self._next_id = 0
        self._saved = []

    def call(self, name, fn, args, kwargs, observe=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        result = _RAISED
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            if not hasattr(exc, "perfbench_layer"):
                exc.perfbench_layer = name.split(".", 1)[0]
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((span_id, parent, self.cell, name, start, end,
                               end - start - frame[1]))
            if observe is not None:
                observe(self.counts, args, result)

    def record_abort(self, exc) -> None:
        self.counts[f"{abort_layer(exc)}.aborts"] += 1

    def install(self) -> None:
        for owner, attr, name, observe in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return wrapper

    def metrics(self) -> dict:
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for _, _, _, name, start, end, self_s in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, cell, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "cell": cell,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")


def span_names() -> list:
    return [ROOT] + [t[2] for t in _targets()] + [ORACLE]
