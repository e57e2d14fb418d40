"""Fuzzing of the CLI's exit-code contract: on any input, a subcommand exits
0 (success), 2 (usage error) or 3 (refusal) with at most one line on stderr,
never with a traceback.  This covers the multipartite ops that read JSON,
the commands that read ``mp`` text, hypergraph text with a few bytes
changed, experiment specs, where exit 1 marks a failed cell and a refusal
writes nothing, and the argv of every task in ``core.TASKS``, where a
refusal writes nothing either."""

import contextlib
import io
import json
import os
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from hyperq import core
from hyperq.cli import main
from hyperq.constructions import gen_oriented_4hg, gen_tournament_3hg
from hyperq.core import LIMITS
from hyperq.multipartite import gen_random_multipartite, write_multipartite

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)
# values near the valid shapes, so the fuzz also reaches the checks past the types
ENTRY = st.integers(1, 3) | st.integers(-2, 5) | st.integers() | JSON
TRIPLES = JSON | st.lists(JSON | st.lists(ENTRY, min_size=3, max_size=3), max_size=6)
BLOCK = st.fixed_dictionaries({
    "sizes": JSON | st.lists(ENTRY, min_size=3, max_size=3),
    "triples": TRIPLES,
})


@st.composite
def auxiliary(draw):
    m = draw(st.integers(0, 5))
    keys = {r: [",".join(map(str, t)) for t in combinations(range(m), r)] for r in (2, 3)}
    sizes = st.fixed_dictionaries({key: ENTRY for key in keys[2]},
                                  optional={"0,1,2": ENTRY, "x": ENTRY, "9,9": ENTRY})
    blocks = st.dictionaries(st.sampled_from(keys[3] + ["0,1", "2,1,0", "x"]), TRIPLES,
                             max_size=4)
    return {"m": draw(st.just(m) | st.integers(-2, 10) | JSON),
            "class_sizes": draw(sizes | JSON),
            "blocks": draw(blocks | JSON)}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.tuples(st.just("project"), BLOCK | JSON),
                      st.tuples(st.just("threetriples"), auxiliary() | JSON)))
def test_json_ops_keep_the_exit_code_contract(tmp_path, case):
    op, payload = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["multipartite", "--op", op, "--in", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


# fields near the valid ones, so the fuzz reaches the checks past the header
FIELD = (st.integers(0, 6) | st.integers(-2, 9) | st.integers()
         | st.text("0123456789+-_ \x0c\u0661", max_size=4))


@st.composite
def mp_text(draw):
    """A valid file of up to 4 parts with up to 12 edges, then up to two
    lines of fields near the valid ones inserted anywhere, the header's
    place included."""
    sizes = draw(st.lists(st.integers(0, 6), max_size=4))
    slots = [(i, a, j, b) for i, j in combinations(range(len(sizes)), 2)
             for a in range(sizes[i]) for b in range(sizes[j])]
    lines = [["mp", len(sizes), *sizes]]
    lines += draw(st.lists(st.sampled_from(slots), unique=True, max_size=12)) if slots else []
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.lists(FIELD, max_size=6)))
    sep = draw(st.sampled_from([" ", "\t", " \t "]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(sep.join(map(str, fields)) for fields in lines) + \
        draw(st.sampled_from(["", end]))


MP_COMMANDS = (
    ("multipartite", "--op", "profile"),
    ("multipartite", "--op", "triangle"),
    ("multipartite", "--op", "diagnostics", "--delta", "1/10", "--epsilon", "1/20"),
    ("certify", "--kind", "bipartite"),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(MP_COMMANDS), text=mp_text() | st.text(max_size=40))
def test_mp_readers_keep_the_exit_code_contract(tmp_path, command, text):
    path = tmp_path / "input.mp"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--in", str(path)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()


@st.composite
def hypergraph_text(draw):
    """A valid 3- or 4-graph file on at most 9 vertices with one to four of
    its bytes replaced, deleted or inserted."""
    arity = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 9))
    slots = list(combinations(range(n), arity))
    edges = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    data = bytearray(core.write_hypergraph(
        (core.Hypergraph3 if arity == 3 else core.Hypergraph4).from_edges(n, edges))
        .encode())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from(b"0123456789 \t\r\n-+x\x00\xff") | st.integers(0, 255))
        change = draw(st.sampled_from(["replace", "delete", "insert"]))
        if change == "replace":
            data[pos] = byte
        elif change == "delete" and len(data) > 1:
            del data[pos]
        else:
            data.insert(pos, byte)
    return bytes(data)


HYPERGRAPH_COMMANDS = (
    ("detect", "--pattern", "k4minus"),
    ("detect", "--pattern", "f4"),
    ("certify", "--kind", "weak", "--mode", "search"),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(HYPERGRAPH_COMMANDS), data=hypergraph_text())
def test_hypergraph_readers_keep_the_exit_code_contract(tmp_path, command, data):
    """A refusal, a bad byte included, exits 2 or 3 with one line on stderr
    and writes no report."""
    path, report = tmp_path / "input.hg", tmp_path / "report.json"
    path.write_bytes(data)
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--in", str(path), "--report", str(report)])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    assert report.exists() == (code == 0)
    assert out.getvalue() == ""


# experiment specs near the valid ones: a valid spec with every n at most 8,
# so that each cell is cheap, then up to two of its fields deleted or
# replaced by another value
SEED = st.integers(0, 3)
SEARCHED = {"d": st.sampled_from(["1/4", "0.3", 0, 1]), "seed": SEED,
            "mode": st.sampled_from(["exact", "search"]), "restarts": st.integers(0, 3)}
SAMPLED = {"d": SEARCHED["d"], "seed": SEED, "samples": st.integers(1, 5)}
TASKS = {  # family -> arity -> task -> (its name field, option -> values)
    "certify": {
        3: {"weak": ("kind", SEARCHED), "pair": ("kind", SEARCHED),
            "xyz": ("kind", {**SAMPLED, "disjoint": st.booleans()})},
        4: {"quad": ("kind", SAMPLED)},
    },
    "detect": {
        3: {"k4minus": ("pattern", {"ordered": st.booleans(), "count": st.booleans()}),
            "clique": ("pattern", {"k": st.integers(4, 8)}),
            "sk": ("pattern", {"k": st.integers(3, 8)}),
            "vanishing": ("pattern", {})},
        4: {"f4": ("pattern", {})},
    },
}
OTHER = st.integers(-2, 9) | st.booleans() | st.sampled_from(["exact", "1/0", "x"]) | JSON


@st.composite
def sweep_task(draw, family, arity):
    name = draw(st.sampled_from(sorted(TASKS[family][arity])))
    key, options = TASKS[family][arity][name]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else []
    return {key: name, **{option: draw(options[option]) for option in chosen}}


@st.composite
def valid_spec(draw, out):
    construction = draw(st.sampled_from(sorted(LIMITS)))
    arity, least_n, least_k = LIMITS[construction]
    n = st.integers(max(least_n, 4), 8)
    spec = {"construction": construction}
    if draw(st.booleans()):
        spec["cells"] = draw(st.lists(st.tuples(n, SEED).map(list), max_size=4))
    else:
        spec["ns"], spec["seeds"] = draw(st.lists(n, max_size=3)), draw(st.lists(SEED, max_size=2))
    if least_k is not None:
        spec["k"] = draw(st.integers(least_k, 5))
    for family in TASKS:
        spec[family] = draw(st.lists(sweep_task(family, arity), max_size=2))
    names = {"csv": "rows.csv", "json": "rows.json", "hypergraph_dir": "hgs"}
    spec["output"] = {field: str(out / name) for field, name in names.items()
                      if draw(st.booleans())}
    return spec


def slots(doc):
    """Each (container, key) of a JSON document."""
    for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def sweep_spec(draw, out):
    spec = draw(valid_spec(out))
    for _ in range(draw(st.integers(0, 2))):
        doc, key = draw(st.sampled_from(list(slots(spec))))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(OTHER)
    return spec


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), threads=st.sampled_from(["1", "2"]),
       fmt=st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
def test_experiment_specs_keep_the_exit_code_contract(tmp_path, data, threads, fmt):
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    spec = data.draw(sweep_spec(out))
    path = out.with_suffix(".json")
    path.write_text(json.dumps(spec))
    stdout, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(out)  # where a relative output path lands
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(["experiment", "--spec", str(path), "--threads", threads, *fmt])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):  # a refusal: one line, and nothing written
        assert len(err.getvalue().splitlines()) == 1
        assert stdout.getvalue() == ""
        assert list(out.iterdir()) == []


# a tiny valid input of each input kind of core.TASKS, None needing none
INPUTS = {
    3: core.write_hypergraph(gen_tournament_3hg(6, 0)),
    4: core.write_hypergraph(gen_oriented_4hg(6, 0)),
    "mp": write_multipartite(gen_random_multipartite([3, 2, 3], 1, 2, 0)),
    "block": json.dumps({"sizes": [2, 2, 2], "triples": [[0, 0, 0], [1, 0, 1], [1, 1, 1]]}),
    "aux": json.dumps({"m": 4, "class_sizes": {"0,1": 1, "0,2": 1, "0,3": 1, "1,2": 1,
                                               "1,3": 1, "2,3": 1},
                       "blocks": {"0,1,2": [[0, 0, 0]], "1,2,3": [[0, 0, 0]]}}),
}
FRACTION = st.sampled_from(["1/4", "0", "1", "1/20", "0.3", "3/2", "-1", "1/0", "x"])
SMALL = st.integers(-1, 4)
# family -> each flag of its subcommand that a task option names -> its
# values; "in", "out", "report" and "pattern_file" name files
FLAGS = {
    "certify": {"d": FRACTION, "mode": st.sampled_from(["exact", "search"]),
                "samples": st.integers(-1, 50), "seed": SMALL},
    "detect": {"k": st.integers(-1, 8), "ordered": st.none(), "pattern_file": st.none()},
    "multipartite": {"in": st.none(), "m": st.integers(-1, 8), "s": st.integers(-1, 64),
                     "delta": FRACTION, "epsilon": FRACTION, "restarts": SMALL,
                     "seed": SMALL, "out": st.none(), "report": st.none()},
}


@st.composite
def task_argv(draw, out):
    """The argv of one task on a valid input of its kind: mostly the flags it
    needs, a random subset of the others it reads, and in a quarter of the
    cases one or two that it does not read."""
    family = draw(st.sampled_from(sorted(FLAGS)))
    task = draw(st.sampled_from(sorted(core.TASKS[family])))
    kind, options = core.TASKS[family][task][2:]
    flags = FLAGS[family]
    needed = [option[:-1] for option in options.split() if option.endswith("!")]
    chosen = [flag for flag in needed if flag in flags and draw(st.integers(0, 3))]
    reads = options.replace("!", "").split()
    optional = [flag for flag in flags if flag in reads and flag not in needed]
    if optional:
        chosen += draw(st.lists(st.sampled_from(optional), unique=True))
    if not draw(st.integers(0, 3)):
        chosen += draw(st.lists(st.sampled_from([f for f in flags if f not in reads]),
                                unique=True, min_size=1, max_size=2))
    files = {"in": out / "input", "pattern_file": out / "pattern.hg",
             "out": out / "out.mp", "report": out / "report.json"}
    files["in"].write_text(INPUTS.get(kind, INPUTS["mp"]), encoding="utf-8")
    files["pattern_file"].write_text(INPUTS[3], encoding="utf-8")
    argv = [family, {"certify": "--kind", "detect": "--pattern",
                     "multipartite": "--op"}[family], task]
    if family != "multipartite":  # both read an input and may write a report
        argv += ["--in", str(files["in"])] + ["--report", str(files["report"])] * draw(
            st.booleans())
    for flag in chosen:
        value = files.get(flag, draw(flags[flag]))
        argv += ["--" + flag.replace("_", "-")] + ([] if value is None else [str(value)])
    return argv, [files["out"], files["report"]]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_task_argv_keeps_the_exit_code_contract(tmp_path, data):
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    argv, written = data.draw(task_argv(out))
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
    if code:  # a refusal writes nothing
        assert stdout.getvalue() == ""
        assert not any(path.exists() for path in written)
