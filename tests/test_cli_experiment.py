import json
import math
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import hyperq
from hyperq import experiment
from hyperq.cli import main
from hyperq.constructions import PATTERN_K_CAP
from hyperq.core import read_hypergraph
from hyperq.experiment import ExperimentSpec, run_experiment, worker_count


def spec_dict(tmp_path, **overrides):
    data = {
        "schema_version": 1,
        "construction": "tournament3",
        "ns": [24, 30],
        "seeds": [1, 2],
        "certify": [{"kind": "xyz", "samples": 20}],
        "detect": [{"pattern": "k4minus", "ordered": True}],
        "output": {
            "csv": str(tmp_path / "rows.csv"),
            "json": str(tmp_path / "rows.json"),
            "hypergraph_dir": str(tmp_path / "hgs"),
        },
    }
    data.update(overrides)
    return data


class TestExperiment:
    def test_rows_and_columns(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict(tmp_path))
        result = run_experiment(spec)
        assert len(result.rows) == 4
        assert result.spec.columns()[-2:] == ["eta_xyz", "k4minus_ordered_found"]
        assert all(row["error"] == "" for row in result.rows)

    def test_csv_byte_identical_across_runs_and_threads(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict(tmp_path))
        first = run_experiment(spec, threads=1).to_csv()
        second = run_experiment(spec, threads=1).to_csv()
        pooled = run_experiment(spec, threads=2).to_csv()
        assert first == second == pooled

    def test_density_matches_emitted_files(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict(tmp_path))
        result = run_experiment(spec)
        for row in result.rows:
            name = "%s_n%d_s%d.hg" % (row["construction"], row["n"], row["seed"])
            h = read_hypergraph((tmp_path / "hgs" / name).read_text())
            assert h.edge_count == row["edge_count"]
            dens = Fraction(row["density_num"], row["density_den"])
            assert dens == Fraction(h.edge_count, math.comb(h.n, 3))
            assert repr(float(dens)) == row["density"]

    def test_empty_spec(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict(tmp_path, ns=[], output={}))
        result = run_experiment(spec)
        assert result.rows == []
        assert result.to_csv().count("\n") == 1

    def test_cell_failure_recorded_not_fatal(self, tmp_path):
        # n = 24 and 30 are above the exact pair cap; cells must fail gracefully
        data = spec_dict(tmp_path, output={}, certify=[{"kind": "pair", "mode": "exact"}])
        result = run_experiment(ExperimentSpec.from_dict(data))
        assert len(result.rows) == 4
        assert all(row["error"].startswith("CapExceeded") for row in result.rows)

    @pytest.mark.parametrize("threads,jobs,cpus,expected", [
        (1, 4, 2, 1), (2, 4, 2, 2), (5000, 4, 2, 2), (5000, 3, 64, 3),
        (8, 1, 8, 1), (4, 0, 2, 1), (0, 4, 2, 1),
    ])
    def test_worker_count(self, threads, jobs, cpus, expected):
        assert worker_count(threads, jobs, cpus) == expected

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"construction": "nope", "ns": [5], "seeds": [0]})


def stripe_spec(cells):
    """A sweep of ``cells`` cells writing its outputs under the working
    directory, so that its JSON names the same files wherever it runs."""
    return ExperimentSpec.from_dict({
        "construction": "tournament3", "cells": [[6 + i % 3, i] for i in range(cells)],
        "certify": [{"kind": "weak", "mode": "exact"}, {"kind": "xyz", "samples": 4}],
        "detect": [{"pattern": "k4minus", "ordered": True}],
        "output": {"csv": "rows.csv", "json": "rows.json", "hypergraph_dir": "hgs"}})


def without_wall_times(text):
    report = json.loads(text)
    for row in report["rows"]:
        del row["wall_time_s"]
    return report


class TestStripes:
    """Stripe i of a sweep on w workers holds cells[i::w]: the command's own
    process runs stripe 0 and one forked child each other stripe."""

    @pytest.mark.parametrize("cells", range(6))
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_output_independent_of_threads(self, tmp_path, monkeypatch, cells, threads):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 4)
        results = {}
        for name, workers in (("serial", 1), ("striped", threads)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            results[name] = run_experiment(stripe_spec(cells), threads=workers)
        serial, striped = results["serial"], results["striped"]
        assert striped.to_csv() == serial.to_csv()
        assert without_wall_times(striped.to_json()) == without_wall_times(serial.to_json())
        for name in results:
            out = tmp_path / name
            assert (out / "rows.csv").read_text() == serial.to_csv()
            files = sorted(p.name for p in (out / "hgs").glob("*"))
            assert files == sorted("tournament3_n%d_s%d.hg" % (6 + i % 3, i)
                                   for i in range(cells))

    @pytest.mark.parametrize("exit_how,status", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda: os._exit(0), 0),
    ], ids=["killed", "exit-zero-without-rows"])
    def test_lost_worker_fails_its_cells(self, tmp_path, monkeypatch, capsys, exit_how,
                                         status):
        parent, run_cell = os.getpid(), experiment.run_cell

        def dying_run_cell(*args):
            if os.getpid() != parent:
                exit_how()
            return run_cell(*args)

        monkeypatch.setattr(experiment, "run_cell", dying_run_cell)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"construction": "tournament3",
                                    "cells": [[6, 0], [7, 1], [8, 2]],
                                    "certify": [{"kind": "weak", "mode": "exact"}]}))
        assert main(["experiment", "--spec", str(spec), "--threads", "2",
                     "--format", "json"]) == 1
        captured = capsys.readouterr()
        rows = {row["n"]: row for row in json.loads(captured.out)["rows"]}
        assert sorted(rows) == [6, 7, 8]
        for n in (6, 8):  # stripe 0, run by the command's own process
            assert rows[n]["error"] == "" and rows[n]["eta_weak"]
        assert rows[7]["error"] == ("WorkerLost: its worker process exited with status %d"
                                    " and returned no rows" % status)
        assert "eta_weak" not in rows[7]
        assert "Traceback" not in captured.err
        assert captured.err.splitlines() == ["cell n=7 seed=1 failed: " + rows[7]["error"]]


class TestCli:
    def test_generate_round_trip(self, tmp_path):
        out = tmp_path / "h.hg"
        assert main(["generate", "--construction", "party6", "--n", "25",
                     "--seed", "3", "--out", str(out)]) == 0
        h = read_hypergraph(out.read_text())
        assert h.n == 25

    def test_certify_report(self, tmp_path):
        hg = tmp_path / "h.hg"
        rep = tmp_path / "rep.json"
        main(["generate", "--construction", "tournament3", "--n", "20",
              "--seed", "1", "--out", str(hg)])
        assert main(["certify", "--kind", "weak", "--in", str(hg),
                     "--d", "1/4", "--mode", "exact", "--report", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["report"]["method"] == "exact"
        assert data["report"]["normalizer"] == 20 ** 3

    def test_detect_vanishing(self, tmp_path):
        f = tmp_path / "f.hg"
        f.write_text("3 4 3\n0 1 2\n0 1 3\n0 2 3\n")
        rep = tmp_path / "van.json"
        assert main(["detect", "--pattern", "vanishing", "--in", str(f),
                     "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["found"] is False

    def test_detect_custom_embedding(self, tmp_path):
        host = tmp_path / "host.hg"
        pat = tmp_path / "pat.hg"
        main(["generate", "--construction", "rainbow27", "--n", "60",
              "--seed", "2", "--out", str(host)])
        pat.write_text("3 3 1\n0 1 2\n")
        rep = tmp_path / "emb.json"
        assert main(["detect", "--pattern", "custom", "--in", str(host),
                     "--pattern-file", str(pat), "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["found"] is True

    def test_exact_cap_exit_code(self, tmp_path):
        hg = tmp_path / "big.hg"
        main(["generate", "--construction", "tournament3", "--n", "30",
              "--seed", "0", "--out", str(hg)])
        assert main(["certify", "--kind", "weak", "--in", str(hg),
                     "--mode", "exact"]) == 3

    def test_pair_search_cap_refused(self, tmp_path, capsys):
        hg = tmp_path / "big.hg"
        main(["generate", "--construction", "tournament3", "--n", "201",
              "--seed", "0", "--out", str(hg)])
        capsys.readouterr()
        assert main(["certify", "--kind", "pair", "--in", str(hg),
                     "--mode", "search"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["refused: pair deviation search refused for n=201 > cap 200"]

    @pytest.mark.parametrize("construction", ["colouring-kk", "sk-free"])
    def test_pattern_k_cap_refused(self, tmp_path, capsys, construction):
        out = tmp_path / "g.hg"
        args = ["generate", "--construction", construction, "--n", "6", "--out", str(out)]
        assert main(args + ["--k", str(PATTERN_K_CAP)]) == 0
        capsys.readouterr()
        assert main(args + ["--k", str(PATTERN_K_CAP + 1)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["refused: pattern table refused for k=%d > cap %d"
                       % (PATTERN_K_CAP + 1, PATTERN_K_CAP)]

    @pytest.mark.parametrize("header", [
        "mp 65" + " 0" * 65,
        "mp 2 4096 1",
    ], ids=["parts", "vertices"])
    def test_oversize_multipartite_refused(self, tmp_path, capsys, header):
        path = tmp_path / "big.mp"
        path.write_text(header + "\n")
        assert main(["multipartite", "--op", "profile", "--in", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("refused: ")

    @pytest.mark.parametrize("kind,text", [
        ("bipartite", "mp 2 6 9\n0 0 1 0\n0 1 1 3\n0 5 1 8\n"),
        ("pair", "3 7 3\n0 1 2\n1 3 5\n2 4 6\n"),
    ])
    def test_certify_huge_denominator(self, tmp_path, kind, text):
        path = tmp_path / "in.txt"
        path.write_text(text)
        rep = tmp_path / "rep.json"
        assert main(["certify", "--kind", kind, "--in", str(path),
                     "--d", "1/100000000000000000000", "--report", str(rep)]) == 0
        assert json.loads(rep.read_text())["report"]["method"] == "exact"

    @pytest.mark.parametrize("kind,mode", [
        ("weak", "exact"), ("weak", "search"), ("pair", "exact"),
        ("pair", "search"), ("xyz", None), ("quad", None),
    ])
    def test_certify_zero_vertices(self, tmp_path, kind, mode):
        """xyz and quad have no mode, so they take no --mode."""
        path = tmp_path / "empty.hg"
        path.write_text("%d 0 0\n" % (4 if kind == "quad" else 3))
        rep = tmp_path / "rep.json"
        assert main(["certify", "--kind", kind, *(["--mode", mode] if mode else []),
                     "--in", str(path), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())["report"]
        assert report["max_deviation"]["num"] == 0 and report["eta"] == 0.0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("3 4 1\n9 9 9\n")
        assert main(["detect", "--pattern", "k4minus", "--in", str(bad)]) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--construction", "not-a-thing", "--n", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["detect", "--pattern", "k4minus", "--in", "h.hg", "--seed", "1"],
        ["verify", "--level", "quick", "--threads", "2"],
        ["certify", "--kind", "weak", "--in", "h.hg", "--format", "json"],
        ["multipartite", "--op", "halfsplit", "--m", "3", "--s", "4",
         "--threads", "2"],
    ], ids=["detect-seed", "verify-threads", "certify-format", "multipartite-threads"])
    def test_flag_outside_its_subcommand_exit_code(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--kind", "weak", "--in", "{hg}", "--d", "1/0"],
        ["certify", "--kind", "weak", "--in", "{hg}", "--d", "7/2"],
        ["certify", "--kind", "pair", "--in", "{hg}", "--d=-1/3"],
        ["multipartite", "--op", "explore", "--s", "12"],
        ["multipartite", "--op", "halfsplit", "--m", "3"],
        ["multipartite", "--op", "profile"],
        ["experiment", "--spec", "{list_spec}"],
        ["certify", "--kind", "bipartite", "--in", "{one_part}"],
        ["certify", "--kind", "bipartite", "--in", "{no_parts}"],
        ["multipartite", "--op", "profile", "--in", "{one_part}"],
        ["multipartite", "--op", "profile", "--in", "{no_parts}"],
        ["detect", "--pattern", "clique", "--in", "{hg}", "--k", "0"],
        ["detect", "--pattern", "clique", "--in", "{hg}", "--k", "2"],
        ["detect", "--pattern", "sk", "--in", "{hg}", "--k", "0"],
        ["detect", "--pattern", "sk", "--in", "{hg}", "--k", "2"],
        ["multipartite", "--op", "profile", "--in", "{two_parts}", "--epsilon", "-5"],
        ["multipartite", "--op", "diagnostics", "--in", "{two_parts}", "--delta", "1/0"],
    ], ids=["zero-denominator", "density-above-one", "negative-density",
            "explore-without-m", "halfsplit-without-s", "profile-without-in",
            "spec-is-a-list", "bipartite-one-part", "bipartite-no-parts",
            "profile-one-part", "profile-no-parts", "clique-k-zero", "clique-k-two",
            "sk-k-zero", "sk-k-two", "epsilon-negative", "delta-zero-denominator"])
    def test_malformed_input_exit_code(self, tmp_path, capsys, argv):
        hg = tmp_path / "h.hg"
        hg.write_text("3 4 1\n0 1 2\n")
        list_spec = tmp_path / "spec.json"
        list_spec.write_text(json.dumps([spec_dict(tmp_path)]))
        one_part = tmp_path / "one.mp"
        one_part.write_text("mp 1 3\n")
        no_parts = tmp_path / "none.mp"
        no_parts.write_text("mp 0\n")
        two_parts = tmp_path / "two.mp"
        two_parts.write_text("mp 2 2 2\n0 0 1 1\n")
        argv = [a.format(hg=hg, list_spec=list_spec, one_part=one_part,
                         no_parts=no_parts, two_parts=two_parts) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if argv[-1].endswith(".mp"):
            assert "two parts" in err[0]

    @pytest.mark.parametrize("argv,arity", [
        (["certify", "--kind", "weak"], 3),
        (["certify", "--kind", "weak", "--mode", "search"], 3),
        (["certify", "--kind", "xyz"], 3),
        (["certify", "--kind", "pair"], 3),
        (["certify", "--kind", "quad"], 4),
        (["detect", "--pattern", "k4minus"], 3),
        (["detect", "--pattern", "clique"], 3),
        (["detect", "--pattern", "sk"], 3),
        (["detect", "--pattern", "f4"], 4),
        (["detect", "--pattern", "vanishing"], 3),
    ])
    def test_wrong_arity_exit_code(self, tmp_path, capsys, argv, arity):
        hg = tmp_path / "h.hg"
        hg.write_text("4 5 1\n0 1 2 3\n" if arity == 3 else "3 4 1\n0 1 2\n")
        assert main(argv + ["--in", str(hg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: %s needs a %d-uniform input" % (argv[2], arity)]

    @pytest.mark.parametrize("argv,payload", [
        (["experiment", "--spec"], {"ns": 5}),
        (["experiment", "--spec"], {"cells": [[[1], 2]]}),
        (["experiment", "--spec"], {"certify": "x"}),
        (["experiment", "--spec"], {"detect": [5]}),
        (["experiment", "--spec"], {"output": []}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3, 3, 3], "triples": 5}),
        (["multipartite", "--op", "project", "--in"], {"sizes": 3, "triples": []}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3], "triples": [[0, 0, 0]]}),
        (["multipartite", "--op", "project", "--in"], [[3, 3, 3]]),
        (["multipartite", "--op", "threetriples", "--in"], [4]),
        (["multipartite", "--op", "threetriples", "--in"], {"m": [4], "class_sizes": {}}),
        (["multipartite", "--op", "threetriples", "--in"],
         {"m": 3, "class_sizes": {"0,1": [2], "0,2": 2, "1,2": 2}}),
        (["multipartite", "--op", "threetriples", "--in"],
         {"m": 3, "class_sizes": {"0,1": 2, "0,2": 2, "1,2": 2}, "blocks": {"0,1,2": 7}}),
        (["experiment", "--spec"], {"output": {"csv": 5}}),
        (["experiment", "--spec"], {"output": {"hypergraph_dir": ["hgs"]}}),
        (["experiment", "--spec"], {"certify": [{"kind": "xyz", "samples": [1]}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "xyz", "samples": 0}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "weak", "restarts": "8"}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "weak", "seed": 1.5}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "pair", "mode": "fast"}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "eta"}]}),
        (["experiment", "--spec"], {"detect": [{"pattern": "k5"}]}),
        (["experiment", "--spec"], {"detect": [{"pattern": "clique"}]}),
        (["experiment", "--spec"], {"detect": [{"pattern": "sk", "k": True}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "xyz", "d": [1]}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "xyz", "d": "1/0"}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "pair", "d": "half"}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "weak", "d": float("inf")}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "weak", "d": "5"}]}),
        (["experiment", "--spec"], {"certify": [{"kind": "pair", "d": "-3"}]}),
        (["multipartite", "--op", "project", "--in"], {"sizes": "abc", "triples": []}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3, 3.0, 3], "triples": []}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [True, 3, 3], "triples": []}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3, -1, 3], "triples": []}),
        (["multipartite", "--op", "project", "--in"],
         {"sizes": [1e8, 1e8, 1e8], "triples": [[0, 0, 0]]}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3, 3, 3], "triples": [[0, 1.5, 0]]}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3, 3, 3], "triples": [[0, 1.0, 0]]}),
        (["multipartite", "--op", "project", "--in"], {"sizes": [3, 3, 3], "triples": [[False, 0, 0]]}),
        (["multipartite", "--op", "threetriples", "--in"],
         {"m": 2.5, "class_sizes": {"0,1": 2, "0,2": 2, "1,2": 2}}),
        (["multipartite", "--op", "threetriples", "--in"], {"m": -2, "class_sizes": {}}),
        (["multipartite", "--op", "threetriples", "--in"],
         {"m": 3, "class_sizes": {"0,1": 2.5, "0,2": 2, "1,2": 2}}),
        (["multipartite", "--op", "threetriples", "--in"],
         {"m": 3, "class_sizes": {"0,1": -1, "0,2": 2, "1,2": 2}}),
        (["experiment", "--spec"], {"construction": "sk-free"}),
        (["experiment", "--spec"], {"k": "x"}),
        (["experiment", "--spec"], {"construction": "colouring-kk", "k": 4.5}),
        (["experiment", "--spec"], {"ns": [5000]}),
        (["experiment", "--spec"], {"ns": [10.9], "seeds": [0]}),
        (["experiment", "--spec"], {"ns": [12], "seeds": [True]}),
        (["experiment", "--spec"], {"ns": ["12"]}),
        (["experiment", "--spec"], {"cells": [[12, 1.0]]}),
    ], ids=["ns-not-a-list", "cell-not-integers", "certify-not-a-list",
            "detect-task-not-an-object", "output-not-an-object", "triples-not-a-list",
            "sizes-not-a-list", "sizes-too-short", "block-is-a-list", "auxiliary-is-a-list",
            "m-not-an-integer", "class-size-not-an-integer", "block-triples-not-a-list",
            "csv-not-a-string", "hypergraph-dir-not-a-string", "samples-not-an-integer",
            "samples-zero", "restarts-a-string", "seed-a-float", "unknown-mode",
            "unknown-kind", "unknown-pattern", "clique-without-k", "k-a-boolean",
            "d-a-list", "d-zero-denominator", "d-not-a-number", "d-infinite",
            "d-above-one", "d-negative", "sizes-a-string", "size-a-float",
            "size-a-boolean", "size-negative", "sizes-huge-floats", "triple-entry-a-float",
            "triple-entry-an-integral-float", "triple-entry-a-boolean", "m-a-float",
            "m-negative", "class-size-a-float", "class-size-negative", "sk-free-without-k",
            "k-a-string", "k-a-float", "n-above-cap", "n-a-float", "seed-a-boolean",
            "n-a-string", "cell-seed-a-float"])
    def test_malformed_json_exit_code(self, tmp_path, capsys, argv, payload):
        if argv[0] == "experiment":
            payload = spec_dict(tmp_path, **payload)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("argv,payload,field", [
        (["multipartite", "--op", "threetriples", "--in"],
         {"sizes": [2, 2, 2], "triples": []}, "m"),
        (["multipartite", "--op", "project", "--in"],
         {"m": 3, "class_sizes": {"0,1": 1, "0,2": 1, "1,2": 1}}, "sizes"),
        (["experiment", "--spec"], {"construction": "tournament3", "ns": [6]}, "seeds"),
    ], ids=["threetriples-without-m", "project-on-auxiliary", "ns-without-seeds"])
    def test_missing_field_named(self, tmp_path, capsys, argv, payload, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: missing field %r" % field]

    def test_huge_block_refused(self, tmp_path, capsys):
        """A class above the vertex cap is refused before anything is built."""
        path = tmp_path / "block.json"
        path.write_text(json.dumps({"sizes": [10 ** 8] * 3, "triples": [[0, 0, 0]]}))
        assert main(["multipartite", "--op", "project", "--in", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("refused: ")

    @pytest.mark.parametrize("construction", ["tournament3", "party6", "rainbow27",
                                              "oriented4", "leader-tan"])
    def test_generate_refuses_unread_k(self, tmp_path, capsys, construction):
        """generate refuses a k that the construction does not read."""
        out = tmp_path / "g.hg"
        assert main(["generate", "--construction", construction, "--n", "6", "--k", "5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: construction %r takes no k" % construction]
        assert not out.exists()

    @pytest.mark.parametrize("construction", ["tournament3", "oriented4"])
    def test_spec_refuses_unread_k(self, tmp_path, capsys, construction):
        """A spec with a k that its construction does not read is refused
        before any cell runs, rather than writing that k into every row."""
        data = spec_dict(tmp_path, construction=construction, ns=[8], seeds=[0],
                         certify=[], detect=[], k=9)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        assert main(["experiment", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: construction %r takes no k" % construction]
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("construction,n,k", [
        ("sk-free", 6, None), ("sk-free", 6, PATTERN_K_CAP + 1), ("colouring-kk", 6, 2),
        ("tournament3", 5000, None), ("tournament3", 3, None), ("oriented4", 600, None),
    ])
    def test_spec_refused_like_generate(self, tmp_path, capsys, construction, n, k):
        """A spec whose cells generate would refuse is refused with generate's
        exit code before any cell runs."""
        args = ["generate", "--construction", construction, "--n", str(n)]
        code = main(args + ([] if k is None else ["--k", str(k)]))
        assert code in (2, 3)
        data = spec_dict(tmp_path, construction=construction, ns=[n], seeds=[0])
        if k is not None:
            data["k"] = k
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["experiment", "--spec", str(spec_path)]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("construction,certify,detect,task,arity", [
        ("tournament3", [], [{"pattern": "f4"}], "f4", 4),
        ("tournament3", [{"kind": "quad"}], [], "quad", 4),
        ("oriented4", [{"kind": "weak"}], [], "weak", 3),
        ("oriented4", [], [{"pattern": "k4minus"}], "k4minus", 3),
        ("leader-tan", [], [{"pattern": "sk", "k": 3}], "sk", 3),
    ])
    def test_spec_wrong_arity_refused(self, tmp_path, capsys, construction, certify,
                                      detect, task, arity):
        """A task on the other arity is refused as the CLI refuses it, before
        any cell runs."""
        data = spec_dict(tmp_path, construction=construction, ns=[8], seeds=[0],
                         certify=certify, detect=detect)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        assert main(["experiment", "--spec", str(spec_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: %s needs a %d-uniform input" % (task, arity))
        assert not (tmp_path / "rows.csv").exists()

    def test_spec_four_uniform_tasks_run(self, tmp_path):
        data = spec_dict(tmp_path, construction="oriented4", ns=[8], seeds=[0], output={},
                         certify=[{"kind": "quad", "samples": 5}], detect=[{"pattern": "f4"}])
        result = run_experiment(ExperimentSpec.from_dict(data))
        assert [row["error"] for row in result.rows] == [""]
        assert result.spec.columns()[-2:] == ["eta_quad", "f4_found"]

    def test_negative_restarts_refused(self, tmp_path, capsys):
        assert main(["multipartite", "--op", "explore", "--m", "3", "--s", "4",
                     "--restarts", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "restarts" in err[0]
        spec = spec_dict(tmp_path, ns=[12], seeds=[0], detect=[], output={},
                         certify=[{"kind": "weak", "mode": "search", "restarts": -3}])
        with pytest.raises(ValueError, match="restarts must be an integer >= 0"):
            ExperimentSpec.from_dict(spec)

    def test_experiment_cli(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(tmp_path, ns=[20], seeds=[0])))
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        assert (tmp_path / "rows.csv").exists()

    def test_experiment_cli_stdout_formats(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            spec_dict(tmp_path, ns=[20], seeds=[0], output={})))
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        assert capsys.readouterr().out.startswith("schema_version,")
        assert main(["experiment", "--spec", str(spec_path),
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["n"] == 20

    def test_experiment_cli_cell_failure_exit_one(self, tmp_path):
        data = spec_dict(tmp_path, ns=[21], seeds=[0], output={},
                         certify=[{"kind": "pair", "mode": "exact"}])
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        assert main(["experiment", "--spec", str(spec_path)]) == 1

    def test_multipartite_cli(self, tmp_path):
        mp = tmp_path / "g.mp"
        assert main(["multipartite", "--op", "halfsplit", "--m", "3", "--s", "6",
                     "--out", str(mp)]) == 0
        rep = tmp_path / "prof.json"
        assert main(["multipartite", "--op", "profile", "--in", str(mp),
                     "--report", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["min_ratio"]["num"] == 1 and data["min_ratio"]["den"] == 4
        tri = tmp_path / "tri.json"
        assert main(["multipartite", "--op", "triangle", "--in", str(mp),
                     "--report", str(tri)]) == 0
        assert json.loads(tri.read_text())["found"] is False

    def test_multipartite_project_cli(self, tmp_path):
        block = tmp_path / "block.json"
        block.write_text(json.dumps({
            "sizes": [3, 3, 3],
            "triples": [[a, b, c] for a in range(3) for b in range(3)
                        for c in range(3)]}))
        rep = tmp_path / "proj.json"
        assert main(["multipartite", "--op", "project", "--in", str(block),
                     "--epsilon", "1/10", "--report", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["report"]["left_holds"] and data["report"]["right_holds"]


STARTUP_PROBE = """
import json, sys
import hyperq, hyperq.cli
lazy = ["numpy", "concurrent.futures", "hyperq.checks", "hyperq.oracles"]
eager = ["hyperq.core", "hyperq.constructions", "hyperq.detectors",
         "hyperq.certifiers", "hyperq.multipartite", "hyperq.experiment"]
loaded = [m for m in lazy if m in sys.modules]
missing = [m for m in eager if m not in sys.modules]
from hyperq.certifiers import bipartite_regularity_deviation, pair_deviation, weak_deviation
from hyperq.core import Hypergraph3
from hyperq.multipartite import gen_random_multipartite
weak_deviation(Hypergraph3.complete(15), mode="exact")
pair_deviation(Hypergraph3.complete(9), mode="exact")
bipartite_regularity_deviation(gen_random_multipartite([9, 20], 1, 2, 0), mode="exact")
pair_deviation(Hypergraph3.complete(9), mode="search")
bipartite_regularity_deviation(gen_random_multipartite([9, 20], 1, 2, 0), mode="search")
print(json.dumps([loaded, missing, "numpy" in sys.modules]))
"""


def test_cli_import_leaves_heavy_modules_unloaded():
    """Importing the CLI loads no process pool or verify suite (only the
    commands that use them do), but every module the CLI dispatches to.
    Nothing loads numpy: neither the import nor the exact weak, pair and
    bipartite walks nor the pair and bipartite searches."""
    src = os.path.dirname(os.path.dirname(hyperq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded, missing, numpy_loaded = json.loads(out)
    assert loaded == [] and missing == []
    assert not numpy_loaded
