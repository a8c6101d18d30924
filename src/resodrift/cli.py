"""Command-line front end: catalog, dispatch, and artifact emission.

Every invocation takes one path.  argparse converts and checks each flag
value (a bad one exits 2 before anything runs or is written); `_load` reads
the system and reduces it when the subcommand works in the reduced chart;
the subcommand computes; `_open_run` hashes the flags and source into a run
id (no timestamps, no randomness), creates the run directory and writes
config.json; the subcommand writes its CSV/JSON artifacts; and `_finish`
writes the optional gnuplot scripts, prints the status line and returns the
exit code.  Identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .averaging import genericity_check, one_step_normal_form, two_step_normal_form
from .catalog import catalog_names, get_entry, verify_catalog
from .errors import (
    DomainError,
    FlowEscapeError,
    IntegrationError,
    SmallDivisorError,
    UsageError,
    WindowFitError,
)
from .experiments import (
    optimality_check,
    run_connecting_experiment,
    run_drift_experiment,
    run_orbit,
    sweep_epsilon,
)
from .integrate import IntegratorConfig
from .reduction import reduce_system
from .systems import (
    SystemBundle,
    load_system_file,
    system_to_dict,
    verify_channel_assumptions,
)

CSV_FLOAT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return CSV_FLOAT % float(value)


def _json_default(obj):
    """json.dumps' hook for numpy values: arrays become lists, scalars Python numbers."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _canonical_json(obj, indent=None) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent, default=_json_default)


def write_json(path: Path, obj) -> None:
    path.write_text(_canonical_json(obj, indent=2) + "\n")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# -- plot scripts -----------------------------------------------------------------


def _gnuplot(path: Path, *lines: str) -> None:
    """Write a gnuplot script over comma-separated data with a header row."""
    header = ("set datafile separator ','", "set key autotitle columnhead")
    path.write_text("\n".join(header + lines) + "\n")


def emit_plots(run_dir) -> list[str]:
    """Write gnuplot scripts next to the CSVs in a finished run directory.

    An orbit CSV yields a script plotting I1(t) and I2(t) (with the
    confinement band when a drift report is present); a sweep CSV yields a
    log-log plot of the measured times with the fitted power law.  A
    directory containing neither is a usage error naming the expected files.
    """
    run_dir = Path(run_dir)
    written = []
    orbit = run_dir / "orbit.csv"
    sweep = run_dir / "sweep.csv"
    if orbit.exists():
        band = ""
        for name in ("drift_report.json", "connect_report.json"):
            report = run_dir / name
            if report.exists():
                data = json.loads(report.read_text())
                level = float(data.get("c_fit", 0.0)) * float(data.get("epsilon", 0.0))
                if level > 0:
                    band = (
                        f", {level!r} with lines lc rgb 'gray' dt 2 title '+c eps'"
                        f", {-level!r} with lines lc rgb 'gray' dt 2 title '-c eps'"
                    )
                break
        _gnuplot(
            run_dir / "orbit.gp",
            "set xlabel 't'",
            "set ylabel 'actions'",
            "plot 'orbit.csv' using 1:4 with lines title 'I1', \\",
            f"     'orbit.csv' using 1:5 with lines title 'I2'{band}",
        )
        written.append("orbit.gp")
    if sweep.exists():
        fit = run_dir / "fit.json"
        fitline = ""
        if fit.exists():
            data = json.loads(fit.read_text())
            fitline = f", {data['A']!r}*x**(-{data['p']!r}) title 'fit'"
        _gnuplot(
            run_dir / "sweep.gp",
            "set logscale xy",
            "set xlabel 'epsilon'",
            "set ylabel 'tau'",
            f"plot 'sweep.csv' using 1:3 with points title 'measured'{fitline}",
        )
        written.append("sweep.gp")
    if not written:
        raise UsageError(
            f"no orbit.csv or sweep.csv under {run_dir}; run an experiment first"
        )
    return written


# -- flag values -------------------------------------------------------------------


def _flag_type(rule: str, parse, ok):
    """An argparse type: parse(text) where ok(value) holds, else exit 2 naming rule.

    A ValueError in parse or ok rejects the text too.  The value returned is
    what vars(args) stores, config.json records and the run id hashes.
    """

    def convert(text: str):
        try:
            value = parse(text)
            accepted = ok(value)
        except ValueError:
            accepted = False
        if not accepted:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return convert


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


_finite = _flag_type("expected a finite number", float, math.isfinite)
_finite_positive = _flag_type(
    "expected a finite positive number", float, lambda v: math.isfinite(v) and v > 0
)
_positive_int = _flag_type("expected a positive integer", int, lambda n: n >= 1)
_epsilon = _flag_type("expected an epsilon in [0, 1)", float, lambda v: 0.0 <= v < 1.0)
_positive_epsilon = _flag_type("expected an epsilon in (0, 1)", float, lambda v: 0.0 < v < 1.0)
_t_end = _flag_type(
    "--t-end must be finite and nonzero", float, lambda v: math.isfinite(v) and v != 0.0
)
# --tol and --grid store tuples; --state and --epsilons store their text
_tol = _flag_type(
    "expected ABS,REL, two finite positive numbers",
    lambda text: tuple(_floats(text)),
    lambda pair: len(pair) == 2 and all(math.isfinite(v) and v > 0 for v in pair),
)
_grid = _flag_type(
    "expected NxM integers with N >= 2 and M >= 1",
    lambda text: tuple(int(v) for v in text.lower().split("x")),
    lambda pair: len(pair) == 2 and pair[0] >= 2 and pair[1] >= 1,
)
_state = _flag_type(
    "expected four finite numbers th1,th2,I1,I2",
    str,
    lambda text: len(_floats(text)) == 4 and all(map(math.isfinite, _floats(text))),
)
_epsilon_list = _flag_type(
    "expected a comma list of distinct epsilons in (0, 1)",
    str,
    lambda text: all(0.0 < v < 1.0 for v in _floats(text))
    and len(set(_floats(text))) == len(_floats(text)),
)


# -- one run: inputs, directory, status ----------------------------------------------


def _load(args, reduce=True):
    """(system, perturbation, source, reduced_first) from --system/--system-file.

    source describes the input for config.json.  With reduce, a system not
    yet in the reduced chart is straightened first and reduced_first is True.
    """
    if args.system_file:
        system, f = load_system_file(args.system_file)
        source = {"file": args.system_file, "definition": system_to_dict(system, f)}
    else:
        entry = get_entry(args.system)
        if not verify_channel_assumptions(entry.system).passed:
            raise DomainError(f"catalog entry {entry.name} fails its channel conditions")
        system, f = entry.system, entry.perturbation
        source = {"catalog": entry.name}
    if not reduce or system.is_reduced:
        return system, f, source, False
    result = reduce_system(system, f)
    return result.system, result.perturbation, source, True


def _open_run(args, source) -> Path:
    """Create the run directory (--out or runs/<run id>), write config.json, return it.

    The config is every flag that is set plus source; the run id is the first
    12 hex digits of the SHA-256 of its canonical JSON.
    """
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "func") and v is not None}
    cfg["source"] = source
    run_id = hashlib.sha256(_canonical_json(cfg).encode()).hexdigest()[:12]
    out = Path(args.out) if args.out else Path("runs") / run_id
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", cfg)
    return out


def _finish(out: Path, line: str, ok: bool, plots=False, failed="FAIL") -> int:
    """Write the plot scripts if asked, print the status line, return the exit code."""
    if plots:
        emit_plots(out)
    print(f"{line} [{'ok' if ok else failed}] -> {out}")
    return 0 if ok else 1


def _integrator_config(args) -> IntegratorConfig:
    atol, rtol = args.tol or (1e-10, 1e-10)
    samples = getattr(args, "samples", None) or IntegratorConfig.n_samples
    return IntegratorConfig(rtol=rtol, atol=atol, n_samples=samples)


# -- subcommands -------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    reports = verify_catalog()
    for name in catalog_names():
        entry = get_entry(name)
        ok = "ok" if reports[name].passed else "FAIL"
        print(f"{name:14s} [{ok}] {entry.note.splitlines()[0]}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "catalog.json", {n: reports[n].as_dict() for n in reports})
    return 0 if all(r.passed for r in reports.values()) else 1


def _cmd_reduce(args) -> int:
    system, f, source, _ = _load(args, reduce=False)
    if system.is_reduced:
        raise UsageError("system is already reduced; nothing to do")
    result = reduce_system(system, f)
    out = _open_run(args, source)
    write_json(out / "reduced_system.json", system_to_dict(result.system, result.perturbation))
    sidecar = result.report()
    sidecar["channel"] = verify_channel_assumptions(result.system).as_dict()
    write_json(out / "reduce_report.json", sidecar)
    print(f"reduce: det={result.umap.det} flipped={int(result.orientation_flipped)} -> {out}")
    return 0


def _cmd_genericity(args) -> int:
    system, f, source, reduced_first = _load(args)
    report = genericity_check(f, system, *(args.grid or ()))
    out = _open_run(args, source)
    write_json(out / "genericity.json", {**report.as_dict(), "reduced_first": reduced_first})
    return _finish(
        out,
        f"genericity: lambda={report.lam:.6g} theta1*={report.theta1_star:.6g} "
        f"I1*={report.i1_star:.6g}",
        report.passed,
    )


def _cmd_normal_form(args) -> int:
    system, f, source, reduced_first = _load(args)
    bundle = SystemBundle(system, f, args.epsilon)
    if args.steps == 1:
        result = one_step_normal_form(bundle)
    else:
        result = two_step_normal_form(bundle)
    out = _open_run(args, source)
    record = result.as_dict()
    write_json(out / "normal_form.json", {**record, "reduced_first": reduced_first})
    return _finish(
        out,
        f"normal-form: steps={result.steps} K={record['K']} kappa={result.kappa:.6g} "
        f"residual={result.homological_residual:.3e}",
        result.displacement_ok,
    )


def _cmd_simulate(args) -> int:
    system, f, source, _ = _load(args, reduce=False)
    bundle = SystemBundle(system, f, args.epsilon)
    if args.state:
        y0 = [float(v) for v in args.state.split(",")]
    else:
        mid = system.resonance.segment_points(3)[1]
        y0 = [0.0, 0.0, float(mid[0]), float(mid[1])]
    record = run_orbit(bundle, y0, args.t_end, _integrator_config(args))
    out = _open_run(args, source)
    record.to_csv(out / "orbit.csv")
    summary = {
        "epsilon": args.epsilon,
        "t_end": float(record.t_end),
        "flagged": bool(record.flagged),
        "stop_event": record.stop_event,
        "energy_drift": record.max_energy_error,
        "n_steps": record.n_steps,
        "final": list(record.y_end),
    }
    write_json(out / "simulate_report.json", summary)
    return _finish(
        out,
        f"simulate: t_end={record.t_end:.6g} energy_drift={summary['energy_drift']:.3e}",
        not record.flagged,
        args.plots,
        failed="flagged",
    )


def _cmd_drift(args) -> int:
    system, f, source, reduced_first = _load(args)
    bundle = SystemBundle(system, f, args.epsilon)
    record = run_drift_experiment(
        bundle,
        delta=args.delta,
        theta2_0=args.theta2,
        C_cfg=args.c_cfg,
        config=_integrator_config(args),
    )
    audit = optimality_check(record, bundle)
    out = _open_run(args, source)
    record.orbit.to_csv(out / "orbit.csv")
    payload = {**record.as_dict(), "optimality": audit.as_dict(), "reduced_first": reduced_first}
    write_json(out / "drift_report.json", payload)
    return _finish(
        out,
        f"drift: eps={record.epsilon:g} delta={record.delta:.6g} "
        f"drift={record.drift:.9g} c_fit={record.c_fit:.6g}",
        record.pass_upper and record.pass_lower and not record.flagged and audit.passed,
        args.plots,
    )


def _cmd_connect(args) -> int:
    system, f, source, reduced_first = _load(args)
    bundle = SystemBundle(system, f, args.epsilon)
    record = run_connecting_experiment(
        bundle,
        args.i1_from,
        args.i1_to,
        theta2_0=args.theta2,
        config=_integrator_config(args),
    )
    out = _open_run(args, source)
    if record.orbit is not None:
        record.orbit.to_csv(out / "orbit.csv")
    write_json(out / "connect_report.json", {**record.as_dict(), "reduced_first": reduced_first})
    return _finish(
        out,
        f"connect: {args.i1_from:g} -> {args.i1_to:g} tau={record.tau:.9g} "
        f"dist={record.extras['terminal_distance']:.3e}",
        record.extras["reached"] and record.pass_upper and not record.flagged,
        args.plots and record.orbit is not None,
    )


def _cmd_sweep(args) -> int:
    system, f, source, reduced_first = _load(args)
    result = sweep_epsilon(
        system,
        f,
        [float(v) for v in args.epsilons.split(",")],
        target_drift=args.target_drift,
        theta2_0=args.theta2,
        config=_integrator_config(args),
    )
    out = _open_run(args, source)
    rows = [r.row() for r in result.records]
    write_csv(out / "sweep.csv", list(rows[0]), [list(row.values()) for row in rows])
    write_json(out / "fit.json", {**result.fit_dict(), "reduced_first": reduced_first})
    return _finish(
        out,
        f"sweep: n={len(result.records)} p={result.p:.6g} A={result.A:.6g} "
        f"r2={result.r_squared:.6g}",
        result.all_reached,
        args.plots,
    )

# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resodrift",
        description=(
            "Resonance reduction, measured normal forms and action-drift "
            "experiments for two-degree-of-freedom Hamiltonians."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    src = argparse.ArgumentParser(add_help=False)
    which = src.add_mutually_exclusive_group(required=True)
    which.add_argument("--system", help="catalog system name")
    which.add_argument("--system-file", help="path to a system-definition JSON file")
    src.add_argument("--out", help="output directory (default runs/<run-id>)")

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tol, help="integrator tolerances ABS,REL")
    tol.add_argument("--theta2", type=_finite, default=0.0, help="initial theta2")
    tol.add_argument("--plots", action="store_true", help="emit gnuplot scripts")

    p = sub.add_parser("catalog", help="list built-in systems")
    p.add_argument("--out", help="also write channel reports as JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("reduce", parents=[src], help="straighten a resonance line")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("genericity", parents=[src], help="scan the resonant average")
    p.add_argument("--grid", type=_grid, help="theta x interior-I grid, e.g. 256x31")
    p.set_defaults(func=_cmd_genericity)

    p = sub.add_parser("normal-form", parents=[src], help="build an averaging step")
    p.add_argument("--epsilon", type=_positive_epsilon, required=True)
    p.add_argument("--steps", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("simulate", parents=[src, tol], help="integrate the full flow")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--t-end", type=_t_end, required=True)
    p.add_argument("--state", type=_state, help="initial th1,th2,I1,I2 (default: channel midpoint)")
    p.add_argument("--samples", type=_positive_int, help="number of CSV sample rows")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("drift", parents=[src, tol], help="drift experiment")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--delta", type=_finite_positive, help="drift budget (default from the delta rule)")
    p.add_argument("--c-cfg", type=_finite_positive, default=1.0, help="configured lower-bound constant")
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("connect", parents=[src, tol], help="steer between channel actions")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--from", dest="i1_from", type=_finite, required=True)
    p.add_argument("--to", dest="i1_to", type=_finite, required=True)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("sweep", parents=[src, tol], help="time-scaling sweep over epsilon")
    p.add_argument("--epsilons", type=_epsilon_list, required=True, help="comma list, e.g. 1e-2,3e-3,1e-3")
    p.add_argument("--target-drift", type=_finite_positive, default=0.1)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SmallDivisorError, FlowEscapeError, IntegrationError, WindowFitError) as exc:
        # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
