"""The task table ``core.TASKS``: every function it names resolves, every
flag of a task's subcommand that its entry does not read is refused, a
needed one that is missing is named, sweeps check their task fields against
the same table, and the README's command lines follow it."""

import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from hyperq import cli, core
from hyperq.experiment import ExperimentSpec

README = Path(__file__).resolve().parents[1] / "README.md"
# a value for each flag or sweep field; None for a switch
VALUES = {"d": "1/4", "mode": "search", "samples": "5", "seed": "1", "restarts": "2",
          "k": "4", "ordered": None, "pattern_file": "pat.hg", "in": "g.mp", "m": "3",
          "s": "4", "delta": "1/10", "epsilon": "1/20", "out": "out.mp",
          "report": "report.json"}
FIELDS = {"d": "1/4", "mode": "search", "samples": 5, "seed": 1, "restarts": 2,
          "disjoint": True, "k": 4, "ordered": True, "count": True, "pattern_file": "pat.hg"}
# flags every certify kind or detect pattern reads, outside the table
COMMON = {"certify": {"in", "report"}, "detect": {"in", "report"}, "multipartite": set()}
# a command line that runs each task on the inputs below
BASE = {
    "certify": {"weak": ["--in", "h3.hg"], "xyz": ["--in", "h3.hg"], "pair": ["--in", "h3.hg"],
                "quad": ["--in", "h4.hg"], "bipartite": ["--in", "g.mp"]},
    "detect": {"k4minus": ["--in", "h3.hg"], "clique": ["--in", "h3.hg"],
               "sk": ["--in", "h3.hg"], "f4": ["--in", "h4.hg"],
               "custom": ["--in", "h3.hg", "--pattern-file", "pat.hg"],
               "vanishing": ["--in", "h3.hg"]},
    "multipartite": {"profile": ["--in", "g.mp"], "triangle": ["--in", "g.mp"],
                     "halfsplit": ["--m", "3", "--s", "4"],
                     "diagnostics": ["--in", "g.mp", "--delta", "1/10"],
                     "project": ["--in", "block.json"], "threetriples": ["--in", "aux.json"],
                     "explore": ["--m", "3", "--s", "4"]},
}
TASK_FLAG = {"certify": "--kind", "detect": "--pattern", "multipartite": "--op"}
# the file in the work directory holding an input of each kind core.TASKS names
INPUTS = {3: "h3.hg", 4: "h4.hg", "mp": "g.mp", "block": "block.json", "aux": "aux.json"}


def reads(family, task):
    return [option.rstrip("!") for option in core.TASKS[family][task][3].split()]


def has_mode(family, task):
    return "mode" in reads(family, task)


def subcommand_flags(family):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[family]
    return {a.dest for a in sub._actions if a.option_strings and a.dest not in ("help", "task")}


def flag(option):
    return "--" + option.replace("_", "-")


def argv(family, task, *extra):
    args = [family, TASK_FLAG[family], task, *BASE[family][task]]
    for option in extra:
        args += [flag(option)] + ([] if VALUES[option] is None else [VALUES[option]])
    return args


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h3.hg").write_text("3 6 4\n0 1 2\n0 1 3\n1 2 4\n2 3 5\n")
    (tmp_path / "h4.hg").write_text("4 5 1\n0 1 2 3\n")
    (tmp_path / "pat.hg").write_text("3 3 1\n0 1 2\n")
    (tmp_path / "g.mp").write_text("mp 2 2 2\n0 0 1 1\n")
    (tmp_path / "block.json").write_text(json.dumps({"sizes": [2, 2, 2],
                                                     "triples": [[0, 0, 0], [1, 1, 1]]}))
    (tmp_path / "aux.json").write_text(json.dumps({"m": 3, "class_sizes": {
        "0,1": 2, "0,2": 2, "1,2": 2}, "blocks": {"0,1,2": [[0, 0, 0]]}}))
    return tmp_path


TASKS = [(family, task) for family in BASE for task in BASE[family]]
UNREAD = [(family, task, option) for family, task in TASKS
          for option in sorted(subcommand_flags(family) - COMMON[family])
          if option not in reads(family, task)]
EXACT_SEED = [(family, task) for family, task in TASKS if has_mode(family, task)]
NEEDED = [(family, task, option[:-1]) for family, task in TASKS
          for option in core.TASKS[family][task][3].split()
          if option.endswith("!") and flag(option[:-1]) in BASE[family][task]]


@pytest.mark.parametrize("module,function", sorted(
    {entry[:2] for tasks in core.TASKS.values() for entry in tasks.values()}))
def test_table_function_resolves(module, function):
    assert callable(getattr(importlib.import_module("hyperq." + module), function))


def test_table_covers_every_task_and_flag():
    for family, tasks in core.TASKS.items():
        assert list(tasks) == list(BASE[family])
        table = {option for task in tasks for option in reads(family, task)}
        assert subcommand_flags(family) - COMMON[family] <= table


@pytest.mark.parametrize("family,task", TASKS)
def test_base_command_runs(workdir, capsys, family, task):
    assert cli.main(argv(family, task)) == 0, capsys.readouterr().err


@pytest.mark.parametrize("family,task", TASKS)
def test_input_of_another_kind_refused(workdir, capsys, family, task):
    """Each task reads the input its table entry names, from the file of that
    kind in BASE, and refuses an input of any other kind."""
    kind, args = core.TASKS[family][task][2], argv(family, task)
    assert cli.main(args) == 0, capsys.readouterr().err
    if kind is None:
        assert "--in" not in args
        args += ["--in", None]
    assert args[args.index("--in") + 1] == INPUTS.get(kind)
    for other in set(INPUTS) - {kind}:
        args[args.index("--in") + 1] = INPUTS[other]
        capsys.readouterr()
        assert cli.main(args) == 2, other
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (other, err)


@pytest.mark.parametrize("family,task,option", UNREAD)
def test_unread_flag_refused(workdir, capsys, family, task, option):
    capsys.readouterr()
    assert cli.main(argv(family, task, option)) == 2
    label = task + (" in exact mode" if has_mode(family, task) and option != "mode" else "")
    assert capsys.readouterr().err.splitlines() == [
        "error: %s does not read %s" % (label, flag(option))]
    assert not (workdir / "out.mp").exists() and not (workdir / "report.json").exists()


@pytest.mark.parametrize("family,task", EXACT_SEED)
def test_seed_refused_in_exact_mode(workdir, capsys, family, task):
    assert cli.main(argv(family, task, "seed")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: %s in exact mode does not read --seed" % task]
    assert cli.main(argv(family, task, "mode", "seed")) == 0


@pytest.mark.parametrize("family,task,option", NEEDED)
def test_missing_needed_flag_named(workdir, capsys, family, task, option):
    args = argv(family, task)
    at = args.index(flag(option))
    assert cli.main(args[:at] + args[at + 2:]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch("error: %s needs .*%s.*" % (task, flag(option)),
                                          err[0])


@pytest.mark.parametrize("args", [
    ["certify", "--kind", "weak", "--in", "h3.hg", "--d", ""],
    ["certify", "--kind", "bipartite", "--in", "g.mp", "--d", ""],
    ["multipartite", "--op", "diagnostics", "--in", "g.mp", "--delta", ""],
    ["multipartite", "--op", "profile", "--in", "g.mp", "--epsilon", ""],
    ["multipartite", "--op", "profile", "--in", ""],
], ids=["d-weak", "d-bipartite", "delta", "epsilon", "in"])
def test_empty_value_is_a_bad_value(workdir, capsys, args):
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def spec(**task_lists):
    return {"construction": "tournament3", "ns": [6], "seeds": [0], **task_lists}


def sweep_tasks(family):
    key = "kind" if family == "certify" else "pattern"
    return [(family, key, task) for task, entry in core.TASKS[family].items()
            if entry[2] == 3 and "pattern_file!" not in entry[3]]


@pytest.mark.parametrize("family,key,task,field", [
    (family, key, task, field) for family in ("certify", "detect")
    for family, key, task in sweep_tasks(family) for field in sorted(FIELDS)
    if field not in reads(family, task)])
def test_sweep_refuses_unread_field(family, key, task, field):
    entry = {key: task, field: FIELDS[field]}
    if task in ("clique", "sk"):
        entry["k"] = 4
    with pytest.raises(ValueError, match="does not read %s" % field):
        ExperimentSpec.from_dict(spec(**{family: [entry]}))


@pytest.mark.parametrize("kind", ["weak", "pair"])
def test_sweep_refuses_seed_in_exact_mode(kind):
    with pytest.raises(ValueError, match="%s in exact mode does not read seed" % kind):
        ExperimentSpec.from_dict(spec(certify=[{"kind": kind, "mode": "exact", "seed": 1}]))
    ExperimentSpec.from_dict(spec(certify=[{"kind": kind, "mode": "exact"}]))


@pytest.mark.parametrize("family,task", [
    ("detect", {"pattern": "custom"}), ("detect", {"pattern": "custom", "pattern_file": "p.hg"}),
    ("certify", {"kind": "bipartite"})])
def test_sweep_refuses_a_task_on_another_input(family, task):
    """A sweep runs the tasks that read one hypergraph and no pattern file."""
    with pytest.raises(ValueError, match="needs a"):
        ExperimentSpec.from_dict(spec(**{family: [task]}))


@pytest.mark.parametrize("family,task,code,message", [
    ("detect", {"pattern": "k4minus", "ordered": "false"}, 2, "ordered must be true or false"),
    ("detect", {"pattern": "k4minus", "count": 1}, 2, "count must be true or false"),
    ("certify", {"kind": "xyz", "disjoint": "no"}, 2, "disjoint must be true or false"),
    ("detect", {"pattern": "k4minus", "count": True, "ordered": True}, 2,
     "count excludes ordered"),
    ("detect", {"pattern": "k4minus", "count": True, "ordered": False}, 2,
     "count excludes ordered"),
    ("detect", {"pattern": "clique", "k": 0}, 2, "k must be at least 4"),
    ("detect", {"pattern": "sk", "k": 2}, 2, "k must be at least 3"),
    ("detect", {"pattern": "clique", "k": 9}, 3, "clique search supports k <= 8"),
    ("detect", {"pattern": "sk", "k": 9}, 3, "clique search supports k <= 8"),
], ids=["ordered-string", "count-number", "disjoint-string", "count-ordered",
        "count-unordered", "clique-k0", "sk-k2", "clique-k9", "sk-k9"])
def test_sweep_refuses_a_bad_value_before_any_cell(workdir, capsys, family, task, code,
                                                   message):
    (workdir / "spec.json").write_text(json.dumps(spec(**{family: [task]},
                                                       output={"csv": "rows.csv"})))
    assert cli.main(["experiment", "--spec", "spec.json"]) == code
    assert capsys.readouterr().err.splitlines() == [
        "%s: task %r: %s" % ("error" if code == 2 else "refused", task, message)]
    assert not (workdir / "rows.csv").exists()


def test_sweep_boolean_fields_name_the_column():
    tasks = [{"pattern": "k4minus", "ordered": False}, {"pattern": "k4minus", "ordered": True},
             {"pattern": "k4minus", "count": True}, {"pattern": "clique", "k": 5}]
    assert ExperimentSpec.from_dict(spec(detect=tasks)).columns()[-4:] == [
        "k4minus_found", "k4minus_ordered_found", "k4minus_count", "clique5_found"]


@pytest.mark.parametrize("pattern", ["clique", "sk"])
def test_detect_refuses_k_above_the_cap_on_any_input(tmp_path, capsys, pattern):
    """The cap on k is checked before the search, so an input with no vertex
    to search from is refused too."""
    (tmp_path / "empty.hg").write_text("3 0 0\n")
    assert cli.main(["detect", "--pattern", pattern, "--k", "9",
                     "--in", str(tmp_path / "empty.hg")]) == 3
    assert capsys.readouterr().err.splitlines() == ["refused: clique search supports k <= 8"]


def test_experiment_format_refused_with_an_output_file(workdir, capsys):
    (workdir / "spec.json").write_text(json.dumps(spec(output={"csv": "rows.csv"})))
    assert cli.main(["experiment", "--spec", "spec.json", "--format", "csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: experiment does not read --format when the spec names an output file"]
    assert not (workdir / "rows.csv").exists()
    assert cli.main(["experiment", "--spec", "spec.json"]) == 0


def readme_blocks(language):
    return re.findall(r"```%s\n(.*?)```" % language, README.read_text(encoding="utf-8"),
                      re.S)


def test_readme_command_lines_follow_the_table():
    lines = [line.split("#")[0] for block in readme_blocks("sh")
             for line in block.splitlines() if line.startswith("hyperq ")]
    assert len(lines) > 20
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        if args.command in core.TASKS:
            cli.task_options(args)


def test_readme_sweep_spec_follows_the_table():
    specs = [json.loads(block) for block in readme_blocks("json")]
    assert specs
    for data in specs:
        ExperimentSpec.from_dict(data)
