"""Start-up: ``import hyperq`` executes none of its modules, each command
executes only the modules it calls and loads neither ``dataclasses`` nor
``concurrent.futures``, the package namespace still resolves every public
name, and traced launches of the benchmark tracer still work with lazily
executed modules."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hyperq
from hyperq.core import Hypergraph3, write_hypergraph
from hyperq.experiment import _usable_cpus, worker_count
from hyperq.multipartite import gen_random_multipartite, half_split, write_multipartite

SRC = str(Path(hyperq.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
LAZY = ["core", "hashing", "constructions", "detectors", "multipartite", "certifiers",
        "experiment"]
# the public names of the package before its modules loaded lazily
PUBLIC = {
    "core": ["CapExceeded", "DensityReport", "Graph", "Hypergraph3", "Hypergraph4",
             "ParseError", "read_hypergraph", "write_hypergraph"],
    "constructions": ["CONSTRUCTIONS", "PairColouring", "Tournament", "TripleOrientation",
                      "gen_colouring_kk_free", "gen_leader_tan", "gen_oriented_4hg",
                      "gen_party_of_six", "gen_rainbow_1_27", "gen_random_3hg",
                      "gen_sk_free", "gen_tournament_3hg"],
    "certifiers": ["DeviationReport", "bipartite_regularity_deviation", "pair_deviation",
                   "quad_vertex_deviation", "relative_density", "triangle_bound_check",
                   "weak_deviation", "xyz_deviation"],
    "detectors": ["Witness", "check_vanishing_condition", "count_k4_minus", "embed_small",
                  "find_clique3", "find_f4", "find_k4_minus", "find_sk",
                  "link_colouring_witness", "three_edge_isomorphism_types"],
    "multipartite": ["AuxiliaryHypergraph", "MultipartiteGraph", "TripartiteTriples",
                     "explore_extremal", "find_three_triples", "find_triangle_mp",
                     "half_split", "mean_square_profile", "project_auxiliary",
                     "proof_diagnostics", "read_multipartite", "write_multipartite"],
    "experiment": ["ExperimentSpec", "run_experiment"],
}

# modules no command loads: their import and class set-up cost more than
# the records and the forked stripes that replace them
UNLOADED = ["dataclasses", "concurrent.futures"]

# runs one command in a fresh interpreter, then prints its exit code, the
# hyperq modules that executed (a lazy module turns into a plain module when
# its code runs) and which of UNLOADED it loaded
PROBE = """
import contextlib, io, json, sys, types
import hyperq.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = hyperq.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in %r
                               if type(sys.modules["hyperq." + m]) is types.ModuleType),
                  [m for m in %r if m in sys.modules]]))
""" % (LAZY, UNLOADED)


def run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    (tmp / "h.hg").write_text(write_hypergraph(Hypergraph3.from_edges(
        7, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (2, 4, 6), (1, 5, 6)])))
    (tmp / "g.mp").write_text(write_multipartite(half_split(3, 4)))
    (tmp / "spec.json").write_text(json.dumps({
        "construction": "tournament3", "cells": [[6, 0], [7, 1]],
        "certify": [{"kind": "weak", "mode": "exact"}, {"kind": "xyz", "samples": 4}],
        "detect": [{"pattern": "k4minus"}]}))
    return tmp


@pytest.mark.parametrize("argv,executed,unexecuted", [
    (["--version"], None, set(LAZY) - {"core"}),
    (["certify", "--kind", "weak", "--in", "h.hg"], {"core", "hashing", "certifiers"}, None),
    (["certify", "--kind", "pair", "--in", "h.hg"], {"core", "hashing", "certifiers"}, None),
    (["detect", "--pattern", "k4minus", "--in", "h.hg"], {"core", "detectors"}, None),
    (["certify", "--kind", "bipartite", "--in", "g.mp"],
     {"core", "hashing", "multipartite", "certifiers"}, None),
    (["multipartite", "--op", "profile", "--in", "g.mp"], {"core", "hashing", "multipartite"},
     None),
    (["experiment", "--spec", "spec.json"], None, {"multipartite"}),
    (["experiment", "--spec", "spec.json", "--threads", "2"], None, {"multipartite"}),
    (["multipartite", "--op", "diagnostics", "--in", "g.mp", "--delta", "1/10"],
     {"core", "hashing", "multipartite"}, None),
], ids=["version", "certify-weak", "certify-pair", "detect-k4minus", "certify-bipartite",
        "multipartite-profile", "experiment", "experiment-threads-2",
        "multipartite-diagnostics"])
def test_commands_execute_only_the_modules_they_call(inputs, argv, executed, unexecuted):
    out = run([sys.executable, "-c", PROBE, *argv], inputs)
    assert out.returncode == 0, out.stderr
    code, ran, loaded = json.loads(out.stdout)
    assert code == 0 and loaded == []
    if executed is not None:
        assert set(ran) == executed
    else:
        assert not set(ran) & unexecuted


def test_import_registers_the_modules_and_executes_none():
    out = run([sys.executable, "-c", "import json, sys, types, hyperq\n"
               "mods = {m: mod for m, mod in sys.modules.items() if m.startswith('hyperq.')}\n"
               "print(json.dumps([sorted(mods), [m for m in mods"
               " if type(mods[m]) is types.ModuleType]]))"], SRC)
    assert out.returncode == 0, out.stderr
    registered, executed = json.loads(out.stdout)
    assert registered == sorted("hyperq." + m for m in LAZY) and executed == []


def test_package_namespace_resolves_every_public_name():
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(hyperq, name) is getattr(getattr(hyperq, module), name)
            assert name in dir(hyperq)
    assert sorted(hyperq.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert set(LAZY) <= set(dir(hyperq))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperq.no_such_name


def test_every_construction_has_limits():
    assert set(hyperq.CONSTRUCTIONS) == set(hyperq.core.LIMITS)
    assert hyperq.constructions.PATTERN_K_CAP is hyperq.core.PATTERN_K_CAP


def test_readme_library_calls_at_small_n():
    hq = hyperq
    h = hq.gen_tournament_3hg(12, seed=1)
    assert 0 < h.density().density < 1
    assert hq.find_k4_minus(h) is None
    rep = hq.weak_deviation(h, Fraction(1, 4), mode="search", seed=0)
    assert rep.eta >= 0
    g = hq.read_multipartite(hq.write_multipartite(gen_random_multipartite([4, 4, 4], 1, 2, 0)))
    parts = [range(0, 4), range(4, 8), range(8, 12)]
    assert 0 <= hq.relative_density(h, g, parts) <= 1


def traced(tmp_path, argv, cwd):
    spans = tmp_path / "spans"
    spans.mkdir()
    out = run([sys.executable, str(TRACER), str(spans), *argv], cwd)
    assert out.returncode == 0, out.stderr
    files = {int(p.stem): json.loads(p.read_text()) for p in spans.glob("*.json")}
    assert all(data["pid"] == pid for pid, data in files.items())
    return {pid: {span[2] for span in data["spans"]} for pid, data in files.items()}


def test_traced_certify_records_its_spans(tmp_path, inputs):
    names = traced(tmp_path, ["certify", "--kind", "weak", "--mode", "exact",
                              "--in", "h.hg"], inputs)
    assert len(names) == 1
    assert {"core.read_hypergraph", "certifiers.weak_deviation.exact"} <= names.popitem()[1]


def test_traced_pooled_experiment_writes_one_span_file_per_process(tmp_path, inputs):
    names = traced(tmp_path, ["experiment", "--spec", "spec.json", "--threads", "2"], inputs)
    # the command's process runs the first stripe, and one child each other one
    assert len(names) == worker_count(2, 2, _usable_cpus())
    every = set().union(*names.values())
    assert {"experiment.run_experiment", "experiment.run_cell",
            "constructions.gen_tournament_3hg", "certifiers.weak_deviation.exact",
            "certifiers.xyz_deviation", "detectors.find_k4_minus"} <= every
    parents = [pid for pid, spans in names.items() if "experiment.run_experiment" in spans]
    assert len(parents) == 1
