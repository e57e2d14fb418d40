"""Goldens for every sweepable task: the sha256 of a sweep's CSV, and of its
JSON with the wall times taken out, for specs that together run each
certify kind and detect pattern a sweep accepts, with and without their
options.  A spec resolves each task once, into a record that pickles."""

import hashlib
import json
import pickle

import pytest

from hyperq import experiment
from hyperq.experiment import ExperimentSpec, run_cell, run_experiment

SPECS = {
    "3-uniform": {
        "construction": "sk-free", "k": 5, "cells": [[6, 0], [10, 1], [12, 0]],
        "certify": [{"kind": "weak", "mode": "exact"}, {"kind": "xyz", "samples": 8, "seed": 3},
                    {"kind": "pair", "mode": "search", "restarts": 2, "seed": 1}],
        # vanishing runs last: above 6 vertices it fails the cell after the others ran
        "detect": [{"pattern": "k4minus"}, {"pattern": "k4minus", "ordered": True},
                   {"pattern": "k4minus", "count": True}, {"pattern": "clique", "k": 4},
                   {"pattern": "sk", "k": 4}, {"pattern": "vanishing"}],
    },
    "3-uniform-disjoint": {
        "construction": "tournament3", "ns": [8, 9], "seeds": [0, 2],
        "certify": [{"kind": "xyz", "samples": 8, "disjoint": True, "d": "1/4"}],
        "detect": [{"pattern": "clique", "k": 5}, {"pattern": "sk", "k": 3}],
    },
    "oriented4": {
        "construction": "oriented4", "cells": [[8, 0], [9, 1]],
        "certify": [{"kind": "quad", "samples": 6}], "detect": [{"pattern": "f4"}],
    },
}
GOLDEN = {
    "3-uniform": ("e72f984378a88a33489f95da27dff6db3fcdd69e0e182392a6696dc4560a1da4",
                  "857a7b0ea81058438fe5cbf1b5d8dd9c606782f7bf312039abb053c806aa1a17"),
    "3-uniform-disjoint": ("37609f43fa66173931b59d4ef1cedd51d14ab99aa504ece6480efb7578fb39de",
                           "12d0762a5450402a1cd8686a5435196c2a24103f8da145257e96dd17dfd0f79c"),
    "oriented4": ("3b257ef75372c3bab9901679fa0ce1c341d0955ec45ae193d76f81d1b981bcb5",
                  "85d6f13f98f8d1a612e854670cb444b2cf429065baf4b3f4e50f245b9476bee4"),
}


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_golden(name):
    result = run_experiment(ExperimentSpec.from_dict(SPECS[name]))
    report = json.loads(result.to_json())
    for row in report["rows"]:
        del row["wall_time_s"]
    assert (sha(result.to_csv()), sha(json.dumps(report, indent=2, sort_keys=True))) \
        == GOLDEN[name], result.to_csv()


def test_resolved_spec_pickles():
    spec = ExperimentSpec.from_dict(SPECS["3-uniform"])
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec
    rows = [run_cell(s, 10, 1) for s in (spec, back)]
    for row in rows:
        del row["wall_time_s"]
    assert rows[0] == rows[1] and rows[0]["eta_xyz"]


def test_spec_check_runs_once_per_task(monkeypatch):
    calls = []
    resolve = experiment._resolve
    monkeypatch.setattr(experiment, "_resolve", lambda *a: calls.append(a) or resolve(*a))
    spec = ExperimentSpec.from_dict(SPECS["3-uniform"])
    assert len(calls) == len(spec.tasks) == 9
    assert len(run_experiment(spec).rows) == 3 and len(calls) == 9
