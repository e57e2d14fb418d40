"""Command-line front end.

Subcommands: generate, certify, detect, multipartite, experiment, verify.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource refusal
(an exact mode or search budget above its cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, constructions, core, experiment, multipartite


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator,
                "float": float(obj)}
    if hasattr(obj, "_fields"):  # a record, before the tuple it is
        return {f: _jsonable(v) for f, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): _jsonable(v)
                for k, v in obj.items()}
    return obj


def _emit(path: str | None, text: str) -> None:
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_report(path: str | None, payload: dict) -> None:
    _emit(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def task_options(args) -> dict:
    """The options the task of a certify, detect or multipartite command runs
    with: the flags given over the command's defaults, checked against
    ``core.TASKS``.  A flag is given when it is present, empty or not."""
    tasks = core.TASKS[args.command]
    flags = {option.rstrip("!") for entry in tasks.values() for option in entry[3].split()}
    defaults = {"certify": {"mode": "exact", "samples": 200},
                "detect": {"k": 4 if args.task == "clique" else 3},
                "multipartite": {"restarts": 32}}[args.command]
    return core.task_options(args.command, args.task,
                             {o: v for o, v in vars(args).items() if o in flags}, defaults,
                             lambda option: "--" + option.replace("_", "-"))


def cmd_generate(args) -> int:
    core.check_construction(args.construction, args.n, args.k)
    h = constructions.CONSTRUCTIONS[args.construction](args.n, args.k, args.seed)
    _emit(args.out, core.write_hypergraph(h))
    dens = h.density()
    print("%s n=%d seed=%d: %d edges, density %.6f"
          % (args.construction, args.n, args.seed, dens.edge_count, dens.density),
          file=sys.stderr)
    return 0


def _read_input(args, path: str):
    """The input at ``path`` of the command's task, of the kind its
    ``core.TASKS`` entry names: a hypergraph of that arity, ``mp`` text, or a
    block or auxiliary system in JSON."""
    kind, text = core.TASKS[args.command][args.task][2], Path(path).read_text(encoding="utf-8")
    if kind not in (3, 4):
        reader = {"mp": "read_multipartite", "block": "read_block", "aux": "read_auxiliary"}
        return getattr(multipartite, reader[kind])(text)
    h = core.read_hypergraph(text)
    if h.arity != kind:
        raise ValueError("%s needs a %d-uniform input" % (args.task, kind))
    return h


def cmd_certify(args) -> int:
    opts, path = task_options(args), vars(args)["in"]
    target = _read_input(args, path)
    meta = ({"parts": list(target.sizes[:2])} if core.TASKS["certify"][args.task][2] == "mp"
            else {"n": target.n, "edges": target.edge_count})
    rep = core.task_function("certify", args.task)(target, **opts)
    _write_report(args.report, {"schema_version": 1, "input": path, "kind": args.task,
                                "instance": meta, "report": rep})
    return 0


def cmd_detect(args) -> int:
    opts, path = task_options(args), vars(args)["in"]
    inputs = [_read_input(args, path)]
    if args.task == "custom":  # the pattern, embedded in the input
        inputs.insert(0, _read_input(args, opts.pop("pattern_file")))
    witness = core.task_function("detect", args.task)(*inputs, **opts)
    payload = {"schema_version": 1, "input": path, "pattern": args.task,
               "found": witness is not None,
               "witness" if args.task == "vanishing" else "result": witness}
    if args.task == "custom":
        payload["embedding"] = witness
    _write_report(args.report, payload)
    return 0


def cmd_multipartite(args) -> int:
    op, opts = args.task, task_options(args)
    path, out, report = (opts.pop(option, None) for option in ("in", "out", "report"))
    opts.update({option: core._as_fraction(opts[option], None)
                 for option in ("epsilon", "delta") if option in opts})
    inputs = [] if path is None else [_read_input(args, path)]
    res = core.task_function("multipartite", op)(*inputs, **opts)
    if op == "halfsplit":
        _emit(out, multipartite.write_multipartite(res))
        return 0
    if op == "explore":
        if out is not None:
            Path(out).write_text(multipartite.write_multipartite(res.graph), encoding="utf-8")
        # the explorer only returns triangle-free graphs
        payload = {"m": opts["m"], "s": opts["s"], "min_ratio": res.min_ratio,
                   "triangle_free": True, "restarts": opts["restarts"],
                   "accepted_moves": res.accepted_moves}
    elif op == "project":
        payload = {"report": res}
    elif op == "threetriples":
        payload = {"found": res is not None, **(res._asdict() if res else {})}
    elif op == "profile":
        payload = {"sizes": res.sizes, "ratios": res.ratios, "satisfied": res.satisfied,
                   "min_ratio": res.min_ratio()}
    elif op == "triangle":
        payload = {"found": res is not None, "triangle": res}
    else:  # diagnostics
        payload = {"r_max": res.r_max, "q_sizes": res.q_sizes, "r_value": res.r_value,
                   "claim_violations": res.claim_violations}
    _write_report(report, {"schema_version": 1, "op": op, **payload})
    return 0


def cmd_experiment(args) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be at least 1, got %d" % args.threads)
    spec = experiment.ExperimentSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    if "format" in vars(args) and (spec.csv_path or spec.json_path):
        raise ValueError("experiment does not read --format when the spec names an output file")
    result = experiment.run_experiment(spec, threads=args.threads)
    if not spec.csv_path and not spec.json_path:
        fmt = vars(args).get("format", "csv")
        sys.stdout.write(result.to_json() if fmt == "json" else result.to_csv())
    else:
        print("wrote %s%s" % (spec.csv_path or "", " " + spec.json_path
                              if spec.json_path else ""), file=sys.stderr)
    failures = [r for r in result.rows if r["error"]]
    for row in failures:
        print("cell n=%s seed=%s failed: %s"
              % (row["n"], row["seed"], row["error"]), file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    from .checks import run_suite
    results = run_suite(args.level)
    failed = [r for r in results if not r.passed]
    print("%d/%d criteria passed" % (len(results) - len(failed), len(results)))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="Quasirandom hypergraph constructions, certification, "
                    "and forbidden-pattern detection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a seeded construction")
    p.add_argument("--construction", required=True, choices=sorted(core.LIMITS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    # a task's flags have no default, so that task_options sees which were given
    p = sub.add_parser("certify", help="quantify quasirandomness deviations",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--kind", dest="task", required=True, choices=list(core.TASKS["certify"]))
    p.add_argument("--in", required=True)
    p.add_argument("--d", help="reference density as P/Q")
    p.add_argument("--mode", choices=["exact", "search"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("detect", help="find forbidden configurations",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--pattern", dest="task", required=True, choices=list(core.TASKS["detect"]))
    p.add_argument("--in", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--pattern-file")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("multipartite", help="multipartite graph operations",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--op", dest="task", required=True,
                   choices=list(core.TASKS["multipartite"]))
    p.add_argument("--in")
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--delta")
    p.add_argument("--epsilon")
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_multipartite)

    p = sub.add_parser("experiment", help="run a sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except core.CapExceeded as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 3
    except KeyError as exc:  # a JSON input or sweep spec lacks a required field
        print("error: missing field %s" % exc, file=sys.stderr)
        return 2
    except (core.ParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
