"""The three benchmark workloads: their inputs, set-up, timed steps and the
checks on every output.

Every step is one ``hyperq`` command line, run from the workload's work
directory with relative paths, because reports echo ``--in``.  Inputs are a
function of the workload seed only.

* ``file-pipeline``: generate -> file -> detect/certify.  Every step re-parses
  a 3- or 4-uniform file, so text I/O dominates; nothing enters the xyz
  improve pass or an exact enumeration.
* ``sweep-xyz``: in-memory ``experiment`` sweeps on two workers.  The xyz
  improve pass (``count_ordered_triples``) dominates; no file is parsed.
  The improve pass's cost depends on the certify seed, which a sweep shares
  between its cells, so a pass runs several two-cell sweeps with their own
  seeds: the run then averages over several seeds instead of one.
* ``exact-small``: Gray-code exact certifiers and the multipartite hill
  climb on tiny inputs the benchmark writes itself, so I/O is negligible and
  interpreter start-up is visible.

``SIZES["tiny"]`` keeps every step and check but runs in seconds; the
benchmark's own test uses it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SIZES = {
    "full": {"t3_n": 130, "o4_n": 44, "sweep_n": 30, "sweeps": 6, "sweep_cells": 2,
             "xyz_samples": 100, "weak_restarts": 8, "weak_n": 17, "pair_n": 15,
             "bipartite": (15, 44), "explore_restarts": 40, "tripartite": 30},
    "tiny": {"t3_n": 40, "o4_n": 20, "sweep_n": 16, "sweeps": 1, "sweep_cells": 2,
             "xyz_samples": 20, "weak_restarts": 2, "weak_n": 10, "pair_n": 10,
             "bipartite": (8, 20), "explore_restarts": 4, "tripartite": 10},
}


@dataclass(frozen=True)
class Step:
    """One ``hyperq`` invocation.  ``outputs`` are the files it writes (all
    digested); ``expect`` maps dotted paths in the first output, a JSON
    report, to the values it must hold."""

    id: str
    command: str
    args: tuple
    outputs: tuple
    expect: dict = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        return [self.command, *self.args]


@dataclass(frozen=True)
class Workload:
    setup: tuple          # Steps run once per set-up, before timing
    steps: tuple          # Steps of one timed pass
    write_inputs: Callable[[Path], None] | None = None


def lookup(doc, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


def check_step(step: Step, workdir: Path) -> str | None:
    """Return why the step's outputs are wrong, or None."""
    for name in step.outputs:
        if not (workdir / name).is_file():
            return "%s: missing output %s" % (step.id, name)
    if step.command == "experiment":
        return _check_sweep(step, workdir)
    if not step.expect:
        return None
    report = json.loads((workdir / step.outputs[0]).read_text(encoding="utf-8"))
    for path, want in step.expect.items():
        try:
            got = lookup(report, path)
        except (KeyError, TypeError):
            return "%s: report has no %s" % (step.id, path)
        if got != want:
            return "%s: %s is %r, expected %r" % (step.id, path, got, want)
    return None


def _check_sweep(step: Step, workdir: Path) -> str | None:
    data = json.loads((workdir / step.outputs[1]).read_text(encoding="utf-8"))
    if len(data["rows"]) != step.expect["cells"]:
        return "%s: %d rows, expected %d" % (step.id, len(data["rows"]),
                                             step.expect["cells"])
    for row in data["rows"]:
        if row["error"]:
            return "%s: cell n=%s seed=%s failed: %s" % (step.id, row["n"],
                                                         row["seed"], row["error"])
        if row["k4minus_ordered_found"] != 0 or row["k4minus_count"] != 0:
            return "%s: cell n=%s seed=%s has a k4minus" % (step.id, row["n"],
                                                            row["seed"])
    return None


def file_pipeline(size: dict, seed: int) -> Workload:
    n3, n4, s = size["t3_n"], size["o4_n"], str(seed)
    setup = (
        Step("generate-tournament3", "generate",
             ("--construction", "tournament3", "--n", str(n3), "--seed", s,
              "--out", "t3.hg"), ("t3.hg",)),
        Step("generate-oriented4", "generate",
             ("--construction", "oriented4", "--n", str(n4), "--seed", s,
              "--out", "o4.hg"), ("o4.hg",)),
    )
    steps = (
        Step("detect-k4minus", "detect",
             ("--pattern", "k4minus", "--ordered", "--in", "t3.hg",
              "--report", "k4minus.json"), ("k4minus.json",), {"found": False}),
        Step("certify-weak-search", "certify",
             ("--kind", "weak", "--mode", "search", "--d", "1/4", "--seed", s,
              "--in", "t3.hg", "--report", "weak.json"), ("weak.json",),
             {"report.method": "local-search"}),
        Step("detect-f4", "detect",
             ("--pattern", "f4", "--in", "o4.hg", "--report", "f4.json"),
             ("f4.json",), {"found": False}),
        Step("certify-quad", "certify",
             ("--kind", "quad", "--d", "1/8", "--samples", "100", "--seed", s,
              "--in", "o4.hg", "--report", "quad.json"), ("quad.json",),
             {"report.method": "sampled"}),
    )
    return Workload(setup, steps)


def sweep_xyz(size: dict, seed: int) -> Workload:
    cells = size["sweep_cells"]
    specs = []
    for j in range(size["sweeps"]):
        sub = seed * size["sweeps"] + j
        specs.append({
            "schema_version": 1, "construction": "tournament3",
            "ns": [size["sweep_n"]],
            "seeds": [sub * cells + i for i in range(cells)],
            "certify": [{"kind": "xyz", "d": "1/4", "samples": size["xyz_samples"],
                         "seed": sub},
                        {"kind": "weak", "d": "1/4", "mode": "search",
                         "restarts": size["weak_restarts"], "seed": sub}],
            "detect": [{"pattern": "k4minus", "ordered": True},
                       {"pattern": "k4minus", "count": True}],
            "output": {"csv": "sweep%d.csv" % j, "json": "sweep%d.json" % j},
        })

    def write_inputs(workdir: Path) -> None:
        for j, spec in enumerate(specs):
            (workdir / ("spec%d.json" % j)).write_text(json.dumps(spec, indent=2) + "\n",
                                                       encoding="utf-8")

    steps = tuple(Step("experiment-%d" % j, "experiment",
                       ("--spec", "spec%d.json" % j, "--threads", "2"),
                       (spec["output"]["csv"], spec["output"]["json"]), {"cells": cells})
                  for j, spec in enumerate(specs))
    return Workload((), steps, write_inputs)


def _hypergraph_text(rng: random.Random, n: int, p: float) -> str:
    edges = [e for e in itertools.combinations(range(n), 3) if rng.random() < p]
    return "3 %d %d\n" % (n, len(edges)) + "".join("%d %d %d\n" % e for e in edges)


def _multipartite_text(rng: random.Random, sizes: tuple, p: float) -> str:
    lines = ["mp %d %s\n" % (len(sizes), " ".join(map(str, sizes)))]
    for i, j in itertools.combinations(range(len(sizes)), 2):
        for a in range(sizes[i]):
            for b in range(sizes[j]):
                if rng.random() < p:
                    lines.append("%d %d %d %d\n" % (i, a, j, b))
    return "".join(lines)


def exact_small(size: dict, seed: int) -> Workload:
    wn, pn, bip, tri = size["weak_n"], size["pair_n"], size["bipartite"], size["tripartite"]

    def write_inputs(workdir: Path) -> None:
        rng = random.Random(seed)
        texts = {"weak.hg": _hypergraph_text(rng, wn, 0.3),
                 "pair.hg": _hypergraph_text(rng, pn, 0.5),
                 "bip.mp": _multipartite_text(rng, bip, 0.5),
                 "tri.mp": _multipartite_text(rng, (tri, tri, tri), 0.5)}
        for name, text in texts.items():
            (workdir / name).write_text(text, encoding="utf-8")

    setup = (Step("halfsplit", "multipartite",
                  ("--op", "halfsplit", "--m", "5", "--s", "12", "--out", "hs.mp"),
                  ("hs.mp",)),)
    steps = (
        Step("certify-weak-exact", "certify",
             ("--kind", "weak", "--mode", "exact", "--in", "weak.hg",
              "--report", "weak.json"), ("weak.json",),
             {"report.method": "exact", "report.trials.subsets": 2 ** wn}),
        Step("certify-pair-exact", "certify",
             ("--kind", "pair", "--mode", "exact", "--in", "pair.hg",
              "--report", "pair.json"), ("pair.json",),
             {"report.method": "exact", "report.trials.subsets": 2 ** pn}),
        Step("certify-bipartite-exact", "certify",
             ("--kind", "bipartite", "--mode", "exact", "--in", "bip.mp",
              "--report", "bip.json"), ("bip.json",),
             {"report.method": "exact", "report.trials.subsets": 2 ** bip[0]}),
        Step("explore", "multipartite",
             ("--op", "explore", "--m", "3", "--s", "12", "--seed", str(seed),
              "--restarts", str(size["explore_restarts"]), "--report", "explore.json"),
             ("explore.json",), {"triangle_free": True}),
        Step("profile", "multipartite",
             ("--op", "profile", "--in", "hs.mp", "--report", "profile.json"),
             ("profile.json",), {"min_ratio.num": 1, "min_ratio.den": 4}),
        Step("triangle", "multipartite",
             ("--op", "triangle", "--in", "tri.mp", "--report", "triangle.json"),
             ("triangle.json",)),
        Step("diagnostics", "multipartite",
             ("--op", "diagnostics", "--delta", "1/10", "--epsilon", "1/20",
              "--in", "tri.mp", "--report", "diagnostics.json"), ("diagnostics.json",)),
    )
    return Workload(setup, steps, write_inputs)


WORKLOADS = {"file-pipeline": file_pipeline, "sweep-xyz": sweep_xyz,
             "exact-small": exact_small}
