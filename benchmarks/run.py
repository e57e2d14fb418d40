"""hyperq benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from ``workloads.py`` against the checkout this file sits
in, as a closed loop with one client: each ``hyperq`` step is a subprocess
(``python -m hyperq.cli`` with the checkout's ``src`` on the path) and the
next starts only after it has exited.  The run:

1. sets up ``SETUPS`` times in fresh directories.  A set-up is one
   ``hyperq --version`` call (interpreter and import start-up, which also
   warms the file cache) plus the workload's inputs;
2. repeats passes over the timed steps until ``--seconds`` is used up;
3. checks every output: the exit code, the values each step's report must
   hold, and a digest of every output file, which must be identical across
   set-ups and passes and, for the default seed, equal to the one pinned in
   ``pinned_digests.json``.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``:
``setup_s``, the median CPU time (user + system) of a set-up; ``cpu_ref_s``,
the CPU time of a pass, summed over its steps' medians; ``peak_rss_mb``, the
largest resident set of any timed step.  Times are CPU time because on a
shared virtual machine wall time also counts the time the host gives to
other guests.  CPU time still drifts with the host's load: the same
computation took from 1.2 to 2.0 s within a minute on a 2-vCPU Xeon VM.  So
before every step the benchmark times ``reference()``, a fixed pure-Python loop
that never calls hyperq, and both times are scaled by ``REF_NOMINAL_S`` over
the run's median reference time: seconds at the speed where the reference
takes ``REF_NOMINAL_S``.  A change to hyperq moves them as it moves CPU time;
a slow phase of the host moves the reference as well and cancels.  While
the host's speed drifted, this halved the quartile spread of CPU time
between runs; on a steady host it changes the spread little.  Wall time,
raw CPU time and the reference time are per-layer metrics.

With ``--trace 1`` it alternates untraced passes with passes whose steps run
under ``tracer.py``, and prints the per-layer metrics, each a median over
the traced passes.  The last stdout line is the JSON result; every run also
appends a run record (machine, versions, load, every sample) to ``--record``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import cli_self_s, layer_metrics, load_spans, self_times
from workloads import SIZES, WORKLOADS, Step, check_step

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0
SETUPS = 5
STARTUP = Step("startup", "--version", (), ())
# CPU seconds the reference loop takes at the nominal speed: about its median
# on a 2-vCPU Intel Xeon VM, so scaled and raw times agree there on average.
REF_NOMINAL_S = 0.2
COMMANDS = ("detect", "certify", "multipartite", "experiment")


def digest(path: Path) -> str:
    """sha256 of an output file.  The sweep JSON's per-row ``wall_time_s`` is
    the only timing any output carries; it is removed before hashing."""
    data = path.read_bytes()
    if path.suffix == ".json" and b'"wall_time_s"' in data:
        doc = json.loads(data)
        for row in doc["rows"]:
            del row["wall_time_s"]
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_REF_RNG = random.Random(0x5EED)
_REF_ROWS = [[_REF_RNG.getrandbits(64) for _ in range(64)] for _ in range(64)]
_REF_MASKS = [tuple(_REF_RNG.getrandbits(64) for _ in range(3)) for _ in range(240)]


def reference() -> float:
    """CPU seconds of a fixed loop shaped like hyperq's hot paths (big-int
    masks, bit iteration, ``bit_count``, small-int arithmetic).  It depends on
    nothing in the checkout, so only the machine's speed moves it."""
    start = time.process_time()
    total = 0
    for xm, ym, zm in _REF_MASKS:
        for x in _bits(xm):
            row = _REF_ROWS[x]
            for y in _bits(ym):
                total += (row[y] & zm).bit_count()
    for i in range(1_300_000):
        total += i & 7
    return time.process_time() - start


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Run:
    """One invocation: executes steps, checks outputs and keeps samples."""

    def __init__(self, workload: str, size: str, seed: int, work: Path):
        self.workload = WORKLOADS[workload](SIZES[size], seed)
        self.work = work
        src = str(ROOT / "src")
        extra = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))
        pinned = json.loads((BENCH_DIR / "pinned_digests.json").read_text())
        self.pinned = (pinned.get(size, {}).get(workload, {})
                       if seed == DEFAULT_SEED else {})
        self.digests: dict = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.dirs = itertools.count()

    def new_dir(self, kind: str) -> Path:
        path = self.work / ("%s-%d" % (kind, next(self.dirs)))
        path.mkdir(parents=True)
        return path

    def execute(self, argv: list[str], cwd: Path, spans: Path | None) -> dict:
        if spans is None:
            cmd = [sys.executable, "-m", "hyperq.cli", *argv]
        else:
            spans.mkdir(parents=True)
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *argv]
        log = self.work / "stderr.log"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode,
                  "pid": proc.pid}
        if proc.returncode:
            sample["stderr"] = log.read_text(errors="replace")[-2000:]
        return sample

    def step(self, step: Step, cwd: Path, spans: Path | None = None) -> dict:
        self.attempted += 1
        ref = reference()
        sample = self.execute(step.argv, cwd, spans)
        sample["ref"] = ref
        sample.update(step=step.id, command=step.command, traced=spans is not None)
        if sample["rc"]:
            error = "%s: exit %d: %s" % (step.id, sample["rc"],
                                         sample["stderr"].strip()[-300:])
        else:
            try:
                error = check_step(step, cwd) or self.compare_digests(step, cwd)
            except (OSError, ValueError, KeyError) as exc:
                error = "%s: unreadable output: %s" % (step.id, exc)
        if error is None and step.command == "experiment":
            rows = json.loads((cwd / step.outputs[1]).read_text(encoding="utf-8"))["rows"]
            sample["cell_s"] = [row["wall_time_s"] for row in rows]
            sample["threads"] = int(step.args[step.args.index("--threads") + 1])
        if spans is not None:
            by_pid = load_spans(spans)
            sample["spans"] = by_pid
            # what the run record keeps: self time by span name in the
            # launched process, and the step's wall time outside every span
            main = by_pid.get(sample["pid"], [])
            own = self_times(main)
            sample["self_s"] = {}
            for sid, _, name, *_ in main:
                sample["self_s"][name] = sample["self_s"].get(name, 0.0) + own[sid]
            sample["cli_self_s"] = cli_self_s(sample["wall"], sample["pid"], by_pid)
        sample["error"] = error
        if error:
            self.errors.append(error)
            print("check failed: " + error, file=sys.stderr)
        return sample

    def compare_digests(self, step: Step, cwd: Path) -> str | None:
        for name in step.outputs:
            got = digest(cwd / name)
            want = self.digests.setdefault(name, self.pinned.get(name, got))
            if got != want:
                return "%s: %s digest %s, expected %s" % (step.id, name, got[:12], want[:12])
        return None

    def setup(self, traced: bool = False) -> tuple[Path, dict, list]:
        """Probe start-up, write the inputs and run the set-up steps; return
        the directory, the set-up's wall and CPU time, and the step samples."""
        cwd = self.new_dir("setup")
        spans = (lambda s: self.new_dir("spans") / s.id) if traced else (lambda s: None)
        samples = [self.step(STARTUP, cwd, spans(STARTUP))]
        start, cpu = time.perf_counter(), time.process_time()
        if self.workload.write_inputs:
            self.workload.write_inputs(cwd)
        cost = {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu}
        samples += [self.step(s, cwd, spans(s)) for s in self.workload.setup]
        for key in cost:
            cost[key] += sum(s[key] for s in samples)
        return cwd, cost, samples

    def timed_pass(self, cwd: Path, traced: bool) -> list:
        root = self.new_dir("spans") if traced else None
        return [self.step(s, cwd, root / s.id if traced else None)
                for s in self.workload.steps]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_step_median(passes: list[list], key: str) -> float:
    """A pass's time as the sum over its steps of each step's median over
    the passes: steadier than the median of pass totals on a shared box."""
    return sum(median(p[i][key] for p in passes) for i in range(len(passes[0])))


def ref_median(samples) -> float:
    """Median reference time over every step sample of the run."""
    return median(s["ref"] for s in samples)


def end_to_end(setups: list[dict], passes: list[list]) -> dict:
    scale = REF_NOMINAL_S / ref_median(itertools.chain(
        *(s["steps"] for s in setups), *passes))
    return {
        "setup_s": median(s["cpu"] for s in setups) * scale,
        "cpu_ref_s": per_step_median(passes, "cpu") * scale,
        "peak_rss_mb": max(s["rss_mb"] for p in passes for s in p),
    }


def per_layer(probes: list[float], setup_samples: list, plain: list[list],
              traced: list[list]) -> dict:
    """Start-up probes, per-subcommand wall times and the sweep's pool figures
    (from its JSON report) come from the untraced passes; the span metrics
    are medians over samples of the traced set-up plus one traced pass."""
    out = {"cli.startup_s": median(probes), "wall_s": per_step_median(plain, "wall"),
           "cpu_s": per_step_median(plain, "cpu"),
           "machine.ref_s": ref_median(itertools.chain(setup_samples, *plain, *traced))}
    for cmd in COMMANDS:
        out["cmd.%s.s" % cmd] = median(sum(s["wall"] for s in p if s["command"] == cmd)
                                       for p in plain)
    # the sweep figures of a pass are over all its sweeps' cells
    sweeps = [[s for s in p if "cell_s" in s] for p in plain]
    cells = [sum((s["cell_s"] for s in p), []) for p in sweeps]
    walls = [sum(s["wall"] for s in p) for p in sweeps]
    out["experiment.run_cell.s"] = median(sum(c) for c in cells if c)
    out["experiment.cell_s.max"] = median(max(c) for c in cells if c)
    out["experiment.cells_per_s"] = median(len(c) / w for c, w in zip(cells, walls) if c)
    out["experiment.pool_busy_ratio"] = median(
        sum(c) / (sum(s["threads"] * s["wall"] for s in p))
        for c, p in zip(cells, sweeps) if c)
    samples = [layer_metrics([(s["wall"], s["pid"], s["spans"])
                              for s in setup_samples + p]) for p in traced]
    for key in samples[0]:
        out[key] = median(m[key] for m in samples)
    out["trace.overhead_s"] = (per_step_median(traced, "wall")
                               - per_step_median(plain, "wall"))
    return out


def run(args) -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit(ROOT), "python": platform.python_version(),
              "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "loadavg_start": os.getloadavg(), "started": time.time()}
    r = Run(args.workload, args.size, args.seed, work)
    try:
        if args.trace:
            cwd, _, _ = r.setup()
            probes = [r.step(STARTUP, cwd)["wall"] for _ in range(SETUPS)]
            _, _, setup_samples = r.setup(traced=True)
        else:
            setups = [r.setup() for _ in range(SETUPS)]
            cwd = setups[0][0]
        modes = (False, True) if args.trace else (False,)
        passes: dict = {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            for traced in modes:
                passes[traced].append(r.timed_pass(cwd, traced))
            if time.perf_counter() + (time.perf_counter() - start) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values = per_layer(probes, setup_samples, passes[False], passes[True])
        names = bench["per_layer"]
        record.update(probes=probes, setup_samples=setup_samples)
    else:
        record["setups"] = [dict(cost, steps=samples) for _, cost, samples in setups]
        values = end_to_end(record["setups"], passes[False])
        names = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {"correct": not r.errors, "attempted": r.attempted,
              "failed": len(r.errors), "metrics": metrics}
    for sample in itertools.chain(record.get("setup_samples", ()), *passes[True]):
        del sample["spans"]  # summarised in self_s and cli_self_s
    record.update(loadavg_end=os.getloadavg(), passes=passes[False],
                  traced_passes=passes[True], digests=r.digests, errors=r.errors,
                  result=result)
    if args.record:
        path = Path(args.record)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--record", default=str(ROOT / ".bench_results" / "runs.jsonl"),
                        help="JSON-lines file the run record is appended to ('' for none)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "hyperq" / "cli.py").is_file():
        print("error: no hyperq source under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    result, record = run(args)
    print("%s seed %d: medians over %d passes, %d traced passes, %d set-ups; %d/%d steps failed"
          % (args.workload, args.seed, len(record["passes"]), len(record["traced_passes"]),
             0 if args.trace else SETUPS, result["failed"], result["attempted"]))
    for name, metric in result["metrics"].items():
        print("%-52s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
