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

from . import __version__, certifiers, constructions, core, detectors, experiment, multipartite


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator,
                "float": float(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): _jsonable(v)
                for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {f: _jsonable(getattr(obj, f)) for f in obj.__dataclass_fields__}
    return obj


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    core.check_construction(args.construction, args.n, args.k)
    h = constructions.CONSTRUCTIONS[args.construction](args.n, args.k, args.seed)
    text = core.write_hypergraph(h)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    dens = h.density()
    print("%s n=%d seed=%d: %d edges, density %.6f"
          % (args.construction, args.n, args.seed, dens.edge_count, dens.density),
          file=sys.stderr)
    return 0


def _read_input(path: str, task: str) -> core.Hypergraph3 | core.Hypergraph4:
    """The hypergraph a certify kind or detect pattern reads, of its arity."""
    h = core.read_hypergraph(Path(path).read_text(encoding="utf-8"))
    if not isinstance(h, core.Hypergraph3 if core.arity(task) == 3 else core.Hypergraph4):
        raise ValueError("%s needs a %d-uniform input" % (task, core.arity(task)))
    return h


def cmd_certify(args) -> int:
    d = core._as_fraction(args.d, None) if args.d else None
    if args.kind == "bipartite":
        g = multipartite.read_multipartite(Path(args.infile).read_text(encoding="utf-8"))
        rep = certifiers.bipartite_regularity_deviation(g, d, mode=args.mode, seed=args.seed)
        meta = {"parts": list(g.sizes[:2])}
    else:
        h = _read_input(args.infile, args.kind)
        if args.kind == "weak":
            rep = certifiers.weak_deviation(h, d, mode=args.mode, seed=args.seed)
        elif args.kind == "xyz":
            rep = certifiers.xyz_deviation(h, d, samples=args.samples, seed=args.seed)
        elif args.kind == "pair":
            rep = certifiers.pair_deviation(h, d, mode=args.mode, seed=args.seed)
        else:
            rep = certifiers.quad_vertex_deviation(h, d, samples=args.samples, seed=args.seed)
        meta = {"n": h.n, "edges": h.edge_count}
    payload = {"schema_version": 1, "input": args.infile, "kind": args.kind,
               "instance": meta, "report": rep}
    _write_report(args.report, payload)
    return 0


def cmd_detect(args) -> int:
    h = _read_input(args.infile, args.pattern)
    extra = {}
    if args.pattern == "k4minus":
        witness = detectors.find_k4_minus(h, ordered=args.ordered)
    elif args.pattern == "clique":
        witness = detectors.find_clique3(h, 4 if args.k is None else args.k)
    elif args.pattern == "sk":
        witness = detectors.find_sk(h, 3 if args.k is None else args.k)
    elif args.pattern == "custom":
        if not args.pattern_file:
            raise ValueError("custom detection needs --pattern-file")
        pat = core.read_hypergraph(Path(args.pattern_file).read_text(encoding="utf-8"))
        if not isinstance(pat, core.Hypergraph3):
            raise ValueError("custom embedding works on 3-uniform inputs")
        image = detectors.embed_small(pat, h, ordered=args.ordered)
        extra["embedding"] = list(image) if image is not None else None
        witness = image
    elif args.pattern == "vanishing":
        w = detectors.check_vanishing_condition(h)
        payload = {"schema_version": 1, "input": args.infile,
                   "pattern": args.pattern, "found": w is not None, "witness": w}
        _write_report(args.report, payload)
        return 0
    else:  # f4
        witness = detectors.find_f4(h)
    payload = {"schema_version": 1, "input": args.infile, "pattern": args.pattern,
               "found": witness is not None, "result": witness, **extra}
    _write_report(args.report, payload)
    return 0


# a field of the wrong JSON type (a number where a list belongs, a list where
# an object does) raises one of the caught errors while the model is built
def _read_block(path: str) -> multipartite.TripartiteTriples:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return multipartite.TripartiteTriples(tuple(data["sizes"]),
                                              [tuple(t) for t in data["triples"]])
    except (TypeError, IndexError) as exc:
        raise ValueError("malformed block: %s" % exc) from None


def _read_auxiliary(path: str) -> multipartite.AuxiliaryHypergraph:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        m = data["m"]
        sizes = {tuple(int(x) for x in key.split(",")): v
                 for key, v in data["class_sizes"].items()}
        blocks = {tuple(int(x) for x in key.split(",")): [tuple(t) for t in triples]
                  for key, triples in data.get("blocks", {}).items()}
        for value in (m, *sizes.values()):
            if type(value) is not int or value < 0:
                raise ValueError("m and the class sizes must be nonnegative integers,"
                                 " not %r" % (value,))
        return multipartite.AuxiliaryHypergraph(m, sizes, blocks)
    except (TypeError, AttributeError) as exc:
        raise ValueError("malformed auxiliary system: %s" % exc) from None


def cmd_multipartite(args) -> int:
    op = args.op
    if op in ("halfsplit", "explore"):
        if args.m is None or args.s is None:
            raise ValueError("%s needs --m and --s" % op)
    elif not args.infile:
        raise ValueError("%s needs --in" % op)
    if op == "halfsplit":
        g = multipartite.half_split(args.m, args.s)
        text = multipartite.write_multipartite(g)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    if op == "explore":
        res = multipartite.explore_extremal(
            args.m, args.s, eps_target=core._as_fraction(args.epsilon, None),
            restarts=args.restarts, seed=args.seed)
        if args.out:
            Path(args.out).write_text(multipartite.write_multipartite(res.graph), encoding="utf-8")
        # the explorer only returns triangle-free graphs
        _write_report(args.report, {
            "schema_version": 1, "op": op, "m": args.m, "s": args.s,
            "min_ratio": res.min_ratio, "triangle_free": True,
            "restarts": args.restarts, "accepted_moves": res.accepted_moves})
        return 0
    if op == "project":
        rep = multipartite.project_auxiliary(_read_block(args.infile),
                                             core._as_fraction(args.epsilon, Fraction(0)))
        _write_report(args.report, {"schema_version": 1, "op": op, "report": rep})
        return 0
    if op == "threetriples":
        aux = _read_auxiliary(args.infile)
        cfg = multipartite.find_three_triples(aux)
        payload = {"schema_version": 1, "op": op, "found": cfg is not None}
        if cfg:
            payload["indices"] = list(cfg.indices)
            payload["vertices"] = cfg.vertices
            payload["apex_extreme"] = cfg.apex_extreme
        _write_report(args.report, payload)
        return 0
    g = multipartite.read_multipartite(Path(args.infile).read_text(encoding="utf-8"))
    if op == "profile":
        prof = multipartite.mean_square_profile(
            g, epsilon=core._as_fraction(args.epsilon, Fraction(0)))
        payload = {"schema_version": 1, "op": op, "sizes": list(g.sizes),
                   "ratios": prof.ratios, "satisfied": prof.satisfied,
                   "min_ratio": prof.min_ratio()}
        _write_report(args.report, payload)
        return 0
    if op == "triangle":
        tri = multipartite.find_triangle_mp(g)
        _write_report(args.report, {"schema_version": 1, "op": op,
                                    "found": tri is not None,
                                    "triangle": tri})
        return 0
    if op == "diagnostics":
        if not args.delta:
            raise ValueError("diagnostics needs --delta")
        diag = multipartite.proof_diagnostics(g, core._as_fraction(args.delta, None),
                                              core._as_fraction(args.epsilon, None))
        payload = {"schema_version": 1, "op": op, "r_max": diag.r_max,
                   "q_sizes": diag.q_sizes, "r_value": diag.r_value,
                   "claim_violations": diag.claim_violations}
        _write_report(args.report, payload)
        return 0
    raise ValueError("unknown multipartite op %r" % op)


def cmd_experiment(args) -> int:
    spec = experiment.ExperimentSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    result = experiment.run_experiment(spec, threads=args.threads)
    if not spec.csv_path and not spec.json_path:
        if args.format == "json":
            sys.stdout.write(result.to_json())
        else:
            sys.stdout.write(result.to_csv())
    else:
        print("wrote %s%s" % (spec.csv_path or "", " " + spec.json_path
                              if spec.json_path else ""), file=sys.stderr)
    failures = [r for r in result.rows if r["error"]]
    if failures:
        for row in failures:
            print("cell n=%s seed=%s failed: %s"
                  % (row["n"], row["seed"], row["error"]), file=sys.stderr)
        return 1
    return 0


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
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[seeded],
                       help="emit a seeded construction")
    p.add_argument("--construction", required=True, choices=sorted(core.LIMITS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("certify", parents=[seeded],
                       help="quantify quasirandomness deviations")
    p.add_argument("--kind", required=True,
                   choices=["weak", "xyz", "pair", "quad", "bipartite"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", default=None, help="reference density as P/Q")
    p.add_argument("--mode", choices=["exact", "search"], default="exact")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("detect", help="find forbidden configurations")
    p.add_argument("--pattern", required=True,
                   choices=["k4minus", "clique", "sk", "f4", "custom", "vanishing"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--ordered", action="store_true")
    p.add_argument("--pattern-file", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("multipartite", parents=[seeded],
                       help="multipartite graph operations")
    p.add_argument("--op", required=True,
                   choices=["profile", "triangle", "halfsplit", "diagnostics",
                            "project", "threetriples", "explore"])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_multipartite)

    p = sub.add_parser("experiment", help="run a sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
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
    except (core.ParseError, ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
