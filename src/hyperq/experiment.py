"""Experiment orchestration: seeded construction sweeps with per-cell
certifier and detector tasks, emitted as a versioned CSV table and a
structured JSON report.

A sweep is fully determined by its spec: cells are pure functions of
(construction, n, k, seed), rows are sorted before emission, and the CSV
carries no timing data, so repeated runs are byte-identical regardless of
the worker count.  Wall times appear only in the JSON report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from . import detectors
from .constructions import CONSTRUCTIONS
from .core import (LIMITS, TASKS, CapExceeded, _as_fraction, check_construction, task_function,
                   task_options, write_hypergraph)

CSV_SCHEMA_VERSION = 1
BASE_COLUMNS = ("schema_version", "construction", "n", "k", "seed",
                "edge_count", "density_num", "density_den", "density", "error")


# a sweep's defaults, where a task reads them; clique and sk have no default k
DEFAULTS = {"mode": "search", "restarts": 8, "samples": 100, "seed": 0}
# the least value of each integer option (None: any integer); the boolean options
INTEGERS = {"samples": 1, "restarts": 0, "seed": None, "k": None}
BOOLEANS = ("ordered", "count", "disjoint")


# a sweep task, checked once: the core.TASKS family and name it runs, its
# report column and the options every cell runs it with
Task = namedtuple("Task", "family name column options")


def _resolve(task, family: str, construction: str) -> Task:
    """A certify or detect task of a sweep of ``construction``, its fields over
    DEFAULTS checked against ``core.TASKS``, refused if every cell would fail on
    it.  A sweep runs the tasks that read one hypergraph and no pattern file."""
    key = "kind" if family == "certify" else "pattern"
    names = [name for name, (_, _, reads_in, reads) in TASKS[family].items()
             if reads_in in (3, 4) and "pattern_file!" not in reads.split()]
    if not isinstance(task, dict) or task.get(key) not in names:
        raise ValueError("task %r needs a %s among %s" % (task, key, ", ".join(names)))
    name = task[key]
    try:
        options = task_options(family, name, {f: v for f, v in task.items() if f != key},
                               DEFAULTS)
        if options.get("mode") not in (None, "exact", "search"):
            raise ValueError("mode must be exact or search")
        for option, least in INTEGERS.items():
            value = options.get(option, least or 0)  # an absent option passes
            if type(value) is not int or least is not None and value < least:
                raise ValueError("%s must be an integer%s"
                                 % (option, "" if least is None else " >= %d" % least))
        for option in BOOLEANS:
            if type(options.get(option, False)) is not bool:
                raise ValueError("%s must be true or false" % option)
        if options.get("count") and "ordered" in options:  # count_k4_minus has no ordered mode
            raise ValueError("count excludes ordered")
        try:  # the cells read d as the certifiers do
            _as_fraction(options.get("d"), Fraction(0))
        except (ValueError, OverflowError):
            raise ValueError("d must be a number or a fraction string in [0, 1]") from None
        if "k" in options:
            detectors.check_k(name, options["k"])
    except (ValueError, CapExceeded) as exc:
        raise type(exc)("task %r: %s" % (task, exc)) from None
    if TASKS[family][name][2] != LIMITS[construction][0]:
        raise ValueError("%s needs a %d-uniform input, and %s is %d-uniform"
                         % (name, TASKS[family][name][2], construction, LIMITS[construction][0]))
    task_function(family, name)  # executes its module before the workers fork, not in each
    column = "eta_" + name if family == "certify" else "%s%s%s_%s" % (
        name, options.get("k", ""), "_ordered" if options.get("ordered") else "",
        "count" if options.get("count") else "found")
    return Task(family, name, column, options)


class ExperimentSpec(namedtuple("ExperimentSpec", "construction cells k tasks csv_path"
                                                    " json_path hypergraph_dir",
                                defaults=(None, (), None, None, None))):
    """A declarative sweep description, loadable from JSON: its (n, seed)
    cells and the Task records every cell runs, certify first."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a JSON object")
        if data.get("schema_version", 1) != 1:
            raise ValueError("unsupported experiment schema version")
        construction = data["construction"]
        if type(construction) is not str or construction not in CONSTRUCTIONS:
            raise ValueError("unknown construction %r" % construction)
        # a field of the wrong JSON type, such as a number where a list
        # belongs or a list where an object does, or a cell that is no
        # (n, seed) pair, raises one of these
        try:
            if "cells" in data:
                cells = [(n, s) for n, s in data["cells"]]
            else:
                cells = [(n, s) for n in data["ns"] for s in data["seeds"]]
            out = data.get("output", {})
            paths = (out.get("csv"), out.get("json"), out.get("hypergraph_dir"))
            tasks = [(family, task) for family in ("certify", "detect")
                     for task in list(data.get(family, []))]
        except (TypeError, AttributeError, ValueError) as exc:
            raise ValueError("malformed experiment spec: %s" % exc) from None
        for value in (v for cell in cells for v in cell):
            if type(value) is not int:
                raise ValueError("cell sizes and seeds must be integers, not %r" % (value,))
        for path in paths:
            if not isinstance(path, (str, type(None))):
                raise ValueError("output paths must be strings, not %r" % (path,))
        # refuse what generate would, with its exit code, before any cell runs
        k = data.get("k")
        for n in sorted({n for n, _ in cells}):
            check_construction(construction, n, k)
        tasks = [_resolve(task, family, construction) for family, task in tasks]
        cols = [task.column for task in tasks]
        if len(cols) != len(set(cols)):
            raise ValueError("tasks produce duplicate report columns: %r" % cols)
        return cls(construction, cells, k, tasks, *paths)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def columns(self) -> list[str]:
        return list(BASE_COLUMNS) + [task.column for task in self.tasks]


def _run_task(h, task: Task):
    """A task's cell: a certify kind's eta, or a detect pattern's count or
    whether it finds a witness."""
    options = dict(task.options)
    if options.pop("count", False):  # only k4minus reads count
        return detectors.count_k4_minus(h)
    result = task_function(task.family, task.name)(h, **options)
    return repr(result.eta) if task.family == "certify" else int(result is not None)


def _row(spec: ExperimentSpec, n: int, seed: int, error: str = "") -> dict:
    return {"schema_version": CSV_SCHEMA_VERSION, "construction": spec.construction,
            "n": n, "k": spec.k if spec.k is not None else "", "seed": seed, "error": error}


def run_cell(spec: ExperimentSpec, n: int, seed: int) -> dict:
    """Execute one sweep cell; failures land in the row, never raise."""
    row = _row(spec, n, seed)
    start = time.perf_counter()
    try:
        h = CONSTRUCTIONS[spec.construction](n, spec.k, seed)
        dens = h.density()
        row.update(edge_count=dens.edge_count,
                   density_num=dens.density_fraction.numerator,
                   density_den=dens.density_fraction.denominator,
                   density=repr(dens.density))
        for task in spec.tasks:
            row[task.column] = _run_task(h, task)
        if spec.hypergraph_dir:
            name = "%s_n%d_s%d.hg" % (spec.construction, n, seed)
            path = Path(spec.hypergraph_dir) / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(write_hypergraph(h), encoding="utf-8")
            row["file"] = str(path)
    except Exception as exc:  # cell failures are data, not crashes
        row["error"] = "%s: %s" % (type(exc).__name__, exc)
    row["wall_time_s"] = round(time.perf_counter() - start, 4)
    return row


class ExperimentResult(namedtuple("ExperimentResult", "spec rows")):
    __slots__ = ()

    def to_csv(self) -> str:
        cols = self.spec.columns()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow([row.get(c, "") for c in cols])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "schema_version": CSV_SCHEMA_VERSION,
            "construction": self.spec.construction,
            "k": self.spec.k,
            "columns": self.spec.columns(),
            "rows": self.rows,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def worker_count(threads: int, jobs: int, cpus: int) -> int:
    """Worker processes for ``jobs`` cells: at most ``threads``, one per cell
    and one per usable CPU, and at least 1."""
    return max(1, min(threads, jobs, cpus))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send_rows(spec: ExperimentSpec, cells: list, fd: int) -> None:
    """A forked worker's stripe: its rows, pickled once into the pipe ``fd``."""
    import pickle
    rows = [run_cell(spec, n, seed) for n, seed in cells]
    with os.fdopen(fd, "wb") as pipe:
        pickle.dump(rows, pipe)


def _fork_stripe(spec: ExperimentSpec, cells: list) -> tuple:
    """A started child that runs ``cells``, and the read end of its pipe.

    Fork, not spawn: hyperq starts no threads, and a spawned child would
    import and resolve again what this process has.  multiprocessing, not a
    raw os.fork, runs its after-fork hooks and finalizers in the child, which
    a tracer of the sweep relies on.  A daemon child is ended, not waited
    for, if this process exits before reading its rows."""
    import multiprocessing
    read, write = os.pipe()
    child = multiprocessing.get_context("fork").Process(
        target=_send_rows, args=(spec, cells, write), daemon=True)
    child.start()
    os.close(write)  # the pipe ends at EOF once the child closes its end
    return child, read


def _receive_rows(spec: ExperimentSpec, cells: list, child, read: int) -> list:
    """The rows a forked child pickled; a row for each of its cells whose
    error names the child's exit status if it exited non-zero or left no
    complete pickle."""
    import pickle
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    child.join()
    if child.exitcode == 0:
        try:
            return pickle.loads(data)
        except (pickle.UnpicklingError, EOFError):  # a truncated pickle
            pass
    error = ("WorkerLost: its worker process exited with status %d and returned no rows"
             % child.exitcode)
    return [_row(spec, n, seed, error) for n, seed in cells]


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentResult:
    """Run every cell and sort the rows by (construction, n, k, seed) for
    order-independent output.  On w = ``worker_count(threads, ...)`` workers,
    stripe i holds ``cells[i::w]``: the command's own process runs stripe 0,
    and each other stripe runs in one forked child that pickles its rows
    into a pipe when the stripe ends."""
    workers = worker_count(threads, len(spec.cells), _usable_cpus())
    stripes = [spec.cells[i::workers] for i in range(workers)]
    children = [(stripe, *_fork_stripe(spec, stripe)) for stripe in stripes[1:]]
    rows = [run_cell(spec, n, seed) for n, seed in stripes[0]]
    for stripe, child, read in children:
        rows += _receive_rows(spec, stripe, child, read)
    rows.sort(key=lambda r: (r["construction"], r["n"], str(r["k"]), r["seed"]))
    result = ExperimentResult(spec, rows)
    if spec.csv_path:
        Path(spec.csv_path).parent.mkdir(parents=True, exist_ok=True)
        Path(spec.csv_path).write_text(result.to_csv(), encoding="utf-8")
    if spec.json_path:
        Path(spec.json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(spec.json_path).write_text(result.to_json(), encoding="utf-8")
    return result
