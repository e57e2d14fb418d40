"""Traced launcher for one hyperq step, and the reduction of its spans to
per-layer metrics.

Launch: ``python tracer.py SPANS_DIR ARGV...`` with the checkout's
``src`` on ``PYTHONPATH`` and the step's working directory as cwd.  It
replaces each function in ``TRACED`` at every ``hyperq`` module attribute
that refers to it, which are the names callers look up, then calls
``hyperq.cli.main(ARGV)``.  Each call records a span (id, parent id, name,
start, end, counters) in memory.  Every process writes its spans to
``SPANS_DIR/<pid>.json`` when it exits; forked pool workers inherit
the wrappers and the open span stack, so their spans name the sweep as
parent.  Per-element helpers (``link_row``, ``iter_bits``, ``tuple_hash``)
are not wrapped: a wrapper there costs as much as the call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util
from pathlib import Path


def _exact_name(name, args, kwargs, result):
    """Certifiers with an exact and a search mode: split the span by the
    method the report states, and count enumerated subsets."""
    mode = "exact" if result.method == "exact" else "search"
    return "%s.%s" % (name, mode), {"subsets": result.trials.get("subsets", 0)}


def _sampled(name, args, kwargs, result):
    return name, {"samples": result.trials["samples"],
                  "improve_steps": result.trials["improve_steps"]}


# (module, attribute path, span name, describe(name, args, kwargs, result))
TRACED = [
    ("hyperq.core", "read_hypergraph", "core.read_hypergraph",
     lambda name, a, k, r: (name, {"edges": r.edge_count})),
    ("hyperq.core", "write_hypergraph", "core.write_hypergraph",
     lambda name, a, k, r: (name, {"edges": a[0].edge_count})),
    ("hyperq.core", "Hypergraph3.count_ordered_triples", "core.count_ordered_triples", None),
    ("hyperq.core", "Hypergraph4.count_ordered_quadruples", "core.count_ordered_quadruples", None),
    ("hyperq.constructions", "gen_tournament_3hg", "constructions.gen_tournament_3hg",
     lambda name, a, k, r: (name, {"tuples": math.comb(a[0], 2)})),
    ("hyperq.constructions", "gen_oriented_4hg", "constructions.gen_oriented_4hg",
     lambda name, a, k, r: (name, {"tuples": math.comb(a[0], 3)})),
    ("hyperq.detectors", "find_k4_minus", "detectors.find_k4_minus", None),
    ("hyperq.detectors", "count_k4_minus", "detectors.count_k4_minus", None),
    ("hyperq.detectors", "find_f4", "detectors.find_f4", None),
    ("hyperq.certifiers", "weak_deviation", "certifiers.weak_deviation", _exact_name),
    ("hyperq.certifiers", "pair_deviation", "certifiers.pair_deviation", _exact_name),
    ("hyperq.certifiers", "bipartite_regularity_deviation",
     "certifiers.bipartite_regularity_deviation", _exact_name),
    ("hyperq.certifiers", "xyz_deviation", "certifiers.xyz_deviation", _sampled),
    ("hyperq.certifiers", "quad_vertex_deviation", "certifiers.quad_vertex_deviation", _sampled),
    ("hyperq.multipartite", "read_multipartite", "multipartite.read_multipartite", None),
    ("hyperq.multipartite", "half_split", "multipartite.half_split", None),
    ("hyperq.multipartite", "explore_extremal", "multipartite.explore_extremal",
     lambda name, a, k, r: (name, {"accepted_moves": r.accepted_moves})),
    ("hyperq.multipartite", "mean_square_profile", "multipartite.mean_square_profile", None),
    ("hyperq.multipartite", "find_triangle_mp", "multipartite.find_triangle_mp", None),
    ("hyperq.multipartite", "proof_diagnostics", "multipartite.proof_diagnostics", None),
    ("hyperq.experiment", "run_experiment", "experiment.run_experiment", None),
    ("hyperq.experiment", "run_cell", "experiment.run_cell", None),
]


class Tracer:
    """Span store of one process.  Spans stay in memory until ``flush``."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.pid = os.getpid()
        self.ids = itertools.count()
        self.stack: list[str] = []
        self.spans: list[tuple] = []

    def wrap(self, fn, name, describe):
        def traced(*args, **kwargs):
            sid = "%d:%d" % (self.pid, next(self.ids))
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                label, counts = name, None
                if describe is not None and result is not None:
                    label, counts = describe(name, args, kwargs, result)
                self.spans.append((sid, parent, label, start, end, counts))
        return traced

    def install(self) -> None:
        hyperq = [m for key, m in sys.modules.items()
                  if key == "hyperq" or key.startswith("hyperq.")]
        for module, path, name, describe in TRACED:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, describe)
            setattr(owner, attr, wrapper)
            for mod in hyperq:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # runs in a forked worker after multiprocessing cleared its finalizers
        self.pid = os.getpid()
        self.ids = itertools.count()
        self.spans = []
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> None:
        path = self.spans_dir / ("%d.json" % self.pid)
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans}),
                        encoding="utf-8")


def launch(argv: list[str]) -> int:
    spans_dir, *cli_args = argv
    import hyperq.cli
    tracer = Tracer(Path(spans_dir))
    tracer.install()
    try:
        return hyperq.cli.main(cli_args)
    finally:
        tracer.flush()


# ---------------------------------------------------------------- analysis

def load_spans(spans_dir: Path) -> dict:
    """Spans of one traced step, by process id."""
    out = {}
    for path in spans_dir.glob("*.json"):
        data = json.loads(path.read_text(encoding="utf-8"))
        out[data["pid"]] = [tuple(s) for s in data["spans"]]
    return out


def self_times(spans: list[tuple]) -> dict:
    """Span id -> its duration minus its children's, for the spans of one
    process (children in other processes ran beside it, not inside it)."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def cli_self_s(wall: float, main_pid: int, by_pid: dict) -> float:
    """Step wall time outside every top-level span of the launched process:
    interpreter start-up, imports, argparse, reading input text, the report."""
    return wall - sum(end - start for _, parent, _, start, end, _
                      in by_pid.get(main_pid, []) if parent is None)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(steps: list[tuple]) -> dict:
    """Per-layer metrics of one traced sample: ``steps`` holds
    (wall, main pid, spans by pid) for each step in it."""
    total: dict = defaultdict(float)
    counts: dict = defaultdict(Counter)
    beneath: Counter = Counter()   # count_ordered_* calls by calling span name
    cli_self = pool_wait = 0.0
    for wall, main_pid, by_pid in steps:
        index = {s[0]: s for spans in by_pid.values() for s in spans}
        for sid, parent, name, start, end, extra in index.values():
            total[name] += end - start
            counts[name]["calls"] += 1
            counts[name].update(extra or {})
            caller = index.get(parent)
            if caller and name.startswith("core.count_ordered_"):
                beneath[caller[2]] += 1
            if caller and name == "experiment.run_cell":
                pool_wait += start - caller[3]  # from the sweep's start
        cli_self += cli_self_s(wall, main_pid, by_pid)
    xyz, quad = "certifiers.xyz_deviation", "certifiers.quad_vertex_deviation"
    gens = ("constructions.gen_tournament_3hg", "constructions.gen_oriented_4hg")
    out = {"cli.self_s": cli_self, "experiment.pool_wait_s": pool_wait}
    for name in SPAN_METRICS:
        out[name + ".s"] = total[name]
    for name in ("core.read_hypergraph", "core.write_hypergraph"):
        out[name + ".edges_per_s"] = _rate(counts[name]["edges"], total[name])
    for name in ("core.count_ordered_triples", "core.count_ordered_quadruples"):
        out[name + ".calls"] = counts[name]["calls"]
    out["constructions.tuples_per_s"] = _rate(
        sum(counts[g]["tuples"] for g in gens), sum(total[g] for g in gens))
    for kind in ("weak_deviation", "pair_deviation", "bipartite_regularity_deviation"):
        name = "certifiers.%s.exact" % kind
        out[name + ".subsets_per_s"] = _rate(counts[name]["subsets"], total[name])
    out[xyz + ".evaluations"] = beneath[xyz]
    out[xyz + ".improve_steps"] = counts[xyz]["improve_steps"]
    out[xyz + ".improve_hit_ratio"] = _rate(counts[xyz]["improve_steps"],
                                            beneath[xyz] - counts[xyz]["samples"])
    out[quad + ".evaluations"] = beneath[quad]
    out["multipartite.explore_extremal.accepted_moves"] = \
        counts["multipartite.explore_extremal"]["accepted_moves"]
    return out


# Span names reported as "<name>.s", seconds inside the call summed per sample.
SPAN_METRICS = (
    "core.read_hypergraph", "core.write_hypergraph",
    "core.count_ordered_triples", "core.count_ordered_quadruples",
    "constructions.gen_tournament_3hg", "constructions.gen_oriented_4hg",
    "detectors.find_k4_minus", "detectors.count_k4_minus", "detectors.find_f4",
    "certifiers.weak_deviation.search", "certifiers.weak_deviation.exact",
    "certifiers.pair_deviation.exact", "certifiers.bipartite_regularity_deviation.exact",
    "certifiers.xyz_deviation", "certifiers.quad_vertex_deviation",
    "multipartite.read_multipartite", "multipartite.half_split",
    "multipartite.explore_extremal", "multipartite.mean_square_profile",
    "multipartite.find_triangle_mp", "multipartite.proof_diagnostics",
)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
