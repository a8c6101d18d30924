"""Benchmark of resodrift, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drift --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

One run times the set-up in fresh interpreters, then repeats whole rounds of
the workload's operations until the next round would overrun --seconds (at
least one round).  It prints one JSON object as its last line:

    --trace 0   cpu_s (median round), setup_s (median set-up), peak_rss_mb
    --trace 1   the per-layer metrics of tracer.METRICS from traced rounds,
                with trace.overhead_s against untraced rounds of the same run

The program is imported from ``src/`` of the checkout and nowhere else.  The
exit code is 0 when every check passed, 1 when a check failed and 2 when the
program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from checks import KnownFault

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("drift", "normal-form", "cli")
SETUP_REPEATS = 9


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (SRC / "resodrift" / "__init__.py").is_file():
        _fail(f"no resodrift package under {SRC}")
    sys.path.insert(0, str(SRC))
    import resodrift

    if Path(resodrift.__file__).resolve().parent != SRC / "resodrift":
        _fail(f"resodrift was imported from {resodrift.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(builds) -> float:
    """Median CPU time, over fresh interpreters, of import resodrift + catalog
    bundle builds.

    The first interpreter warms the bytecode and file caches and is not counted.
    """
    code = (
        "import time\n"
        "t0 = time.process_time()\n"
        "import resodrift, resodrift.cli\n"
        f"bundles = [resodrift.make_bundle(n, e) for n, e in {builds!r}]\n"
        "print(repr(time.process_time() - t0))\n"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up interpreter failed:\n{proc.stderr}", 1)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Run:
    """Accumulates operation outcomes over the rounds of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.faults: set[str] = set()
        self.op_times: list[list[float]] = []

    def round(self, ops) -> tuple[float, float]:
        """Run each operation once; return the summed wall and CPU time of the
        timed parts.  CPU time is the process's, all its threads together."""
        times = []
        self.op_times.append(times)
        cpu = 0.0
        for op in ops:
            self.attempted += 1
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                value, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed check
                value, error = None, exc
            times.append(time.perf_counter() - t0)
            cpu += time.process_time() - c0
            if error is not None:
                self.errors.append(f"{op.name}: raised {type(error).__name__}: {error}")
                continue
            try:
                op.check(value)
            except KnownFault as exc:
                if not op.known_fault:
                    self.errors.append(f"{op.name}: {exc}")
                self.failed += 1
                self.faults.add(f"{op.name}: {exc}")
            except Exception as exc:  # CheckFailed, or an artifact that will not parse
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return sum(times), cpu


def _rounds(seconds: float, workdir: Path, one_round) -> list[tuple[float, float]]:
    """Whole rounds until the next one would overrun the budget; per-round
    (wall, CPU time)."""
    import workloads

    walls = []
    start = time.perf_counter()
    while True:
        workloads.clear(workdir)
        # A round starts from the same collector state, so reference cycles
        # holding solver arrays are freed at the same points and the peak
        # RSS repeats; how many objects set-up left behind varies from run
        # to run.
        gc.collect()
        walls.append(one_round())
        if time.perf_counter() - start + walls[-1][0] > seconds:
            return walls


def _tree_size(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.exists() else 0


def _traced_round(run: Run, ops, workdir: Path, per_round: list, spans: list):
    """One round under a fresh tracer; its layer metrics go to per_round."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        walls = run.round(ops)
    finally:
        tracer.uninstall()
    agg, counters = tracer.totals()
    per_round.append(tracing.layer_metrics(agg, counters, walls[0], _tree_size(workdir)))
    spans.extend(tracer.spans())
    return walls


def _layer_metrics(run: Run, plain: list, per_round: list) -> dict:
    """Medians over traced rounds; counts that must repeat are checked here."""
    for key in tracing.EXACT_COUNTS:
        seen = {m[key] for m in per_round}
        if len(seen) > 1:
            run.errors.append(f"{key} differs between traced rounds: {sorted(seen)}")
    for m in per_round:
        if m["trace.unattributed_s"] < -1e-6:
            run.errors.append(
                f"layer self times exceed the traced wall by {-m['trace.unattributed_s']:.3e} s"
            )
    out = {}
    for key, unit in tracing.METRICS:
        if key == "trace.overhead_s":
            value = statistics.median(m["trace.wall_s"] for m in per_round) - statistics.median(w for w, _ in plain)
        else:
            value = statistics.median(m[key] for m in per_round)
        out[key] = (value, unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import workloads

    prepare, ops_fn = workloads.WORKLOADS[name]
    setup_s = None if trace else measure_setup(workloads.SETUP[name])
    state = prepare(seed)
    workdir = OUT / f"{name}-{os.getpid()}"
    run = Run()
    try:
        if not trace:
            rounds = _rounds(seconds, workdir, lambda: run.round(ops_fn(state, workdir)))
            print(f"wall time per round (s): {[w for w, _ in rounds]}", file=sys.stderr)
            metrics = {
                "cpu_s": (statistics.median(c for _, c in rounds), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            # untraced rounds first, then traced ones, half the budget each
            plain = _rounds(seconds / 2.0, workdir, lambda: run.round(ops_fn(state, workdir)))
            per_round, spans = [], []
            _rounds(seconds / 2.0, workdir,
                    lambda: _traced_round(run, ops_fn(state, workdir), workdir, per_round, spans))
            metrics = _layer_metrics(run, plain, per_round)
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"spans-{name}-{seed}.json", "w", encoding="utf-8") as fh:
                json.dump([list(s) for s in spans], fh)
    finally:
        workloads.clear(workdir)

    print(f"operation times per round (s): {json.dumps(run.op_times)}", file=sys.stderr)
    for line in run.errors:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    for line in sorted(run.faults):
        print(f"known fault: {line}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter; a table, then one merged JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            _fail(f"workload {name} printed no result (exit {proc.returncode})", 1)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"] and proc.returncode == 0
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
