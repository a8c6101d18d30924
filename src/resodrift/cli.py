"""Command-line front end: catalog, dispatch, and artifact emission.

Every subcommand resolves its inputs into a flat config dict, derives a run
identifier from its canonical JSON (no timestamps, no randomness), and writes
CSV/JSON artifacts plus optional gnuplot scripts under the run directory.
Identical invocations produce byte-identical outputs.
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
    sweep_epsilon,
)
from .integrate import IntegratorConfig, integrate
from .reduction import reduce_system
from .systems import (
    SystemBundle,
    load_system_file,
    system_to_dict,
    verify_channel_assumptions,
)

CSV_FLOAT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return CSV_FLOAT % float(value)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_json_ready(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# -- plot scripts -----------------------------------------------------------------


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
        script = "\n".join(
            [
                "set datafile separator ','",
                "set key autotitle columnhead",
                "set xlabel 't'",
                "set ylabel 'actions'",
                "plot 'orbit.csv' using 1:4 with lines title 'I1', \\",
                f"     'orbit.csv' using 1:5 with lines title 'I2'{band}",
                "",
            ]
        )
        (run_dir / "orbit.gp").write_text(script)
        written.append("orbit.gp")
    if sweep.exists():
        fit = run_dir / "fit.json"
        fitline = ""
        if fit.exists():
            data = json.loads(fit.read_text())
            fitline = f", {data['A']!r}*x**(-{data['p']!r}) title 'fit'"
        script = "\n".join(
            [
                "set datafile separator ','",
                "set key autotitle columnhead",
                "set logscale xy",
                "set xlabel 'epsilon'",
                "set ylabel 'tau'",
                f"plot 'sweep.csv' using 1:3 with points title 'measured'{fitline}",
                "",
            ]
        )
        (run_dir / "sweep.gp").write_text(script)
        written.append("sweep.gp")
    if not written:
        raise UsageError(
            f"no orbit.csv or sweep.csv under {run_dir}; run an experiment first"
        )
    return written


# -- config plumbing ---------------------------------------------------------------


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        pair = (int(a), int(b))
    except ValueError:
        raise UsageError(f"--grid expects NxM with integers, got {text!r}") from None
    if pair[0] < 2 or pair[1] < 1:
        raise UsageError(f"--grid values out of range: {text!r}")
    return pair


def _parse_tol(text: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--tol expects ABS,REL, got {text!r}") from None
    if a <= 0 or b <= 0:
        raise UsageError("--tol values must be positive")
    return a, b


def _finite_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _load_pair(args):
    """(system, perturbation, source descriptor) from --system/--system-file."""
    if getattr(args, "system_file", None):
        system, f = load_system_file(args.system_file)
        source = {"file": str(args.system_file), "definition": system_to_dict(system, f)}
    elif getattr(args, "system", None):
        entry = get_entry(args.system)
        report = verify_channel_assumptions(entry.system)
        if not report.passed:
            raise DomainError(f"catalog entry {entry.name} fails its channel conditions")
        system, f = entry.system, entry.perturbation
        source = {"catalog": entry.name}
    else:
        raise UsageError("one of --system or --system-file is required")
    return system, f, source


def _ensure_reduced(system, f):
    """Reduce if needed; returns (system, f, reduction or None)."""
    if system.is_reduced:
        return system, f, None
    result = reduce_system(system, f)
    return result.system, result.perturbation, result


def _config_dict(args, extra=None) -> dict:
    skip = {"out", "func"}
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        cfg[key] = value if not isinstance(value, Path) else str(value)
    if extra:
        cfg.update(extra)
    return _json_ready(cfg)


def _run_dir(args, cfg) -> tuple[Path, str]:
    run_id = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    out = Path(args.out) if args.out else Path("runs") / run_id
    out.mkdir(parents=True, exist_ok=True)
    return out, run_id


def _integrator_config(args) -> IntegratorConfig:
    atol, rtol = args.tol if args.tol else (1e-10, 1e-10)
    samples = getattr(args, "samples", None)
    if samples is None:
        return IntegratorConfig(rtol=rtol, atol=atol)
    if samples < 1:
        raise UsageError(f"--samples must be a positive integer, got {samples}")
    return IntegratorConfig(rtol=rtol, atol=atol, n_samples=samples)


def _check_epsilon(value: float, positive: bool = False) -> float:
    lo_ok = value > 0 if positive else value >= 0
    if not (lo_ok and value < 1.0):
        bound = "(0, 1)" if positive else "[0, 1)"
        raise UsageError(f"--epsilon must lie in {bound}, got {value!r}")
    return float(value)


# -- subcommands -------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    reports = verify_catalog()
    for name in catalog_names():
        entry = get_entry(name)
        ok = "ok" if reports[name].passed else "FAIL"
        print(f"{name:14s} [{ok}] {entry.note.splitlines()[0]}")
    if args.out:
        cfg = _config_dict(args)
        out, _ = _run_dir(args, cfg)
        write_json(out / "catalog.json", {n: reports[n].as_dict() for n in reports})
    return 0 if all(r.passed for r in reports.values()) else 1


def _cmd_reduce(args) -> int:
    system, f, source = _load_pair(args)
    if system.is_reduced:
        raise UsageError("system is already reduced; nothing to do")
    result = reduce_system(system, f)
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
    write_json(out / "reduced_system.json", system_to_dict(result.system, result.perturbation))
    sidecar = result.report()
    sidecar["channel"] = verify_channel_assumptions(result.system).as_dict()
    write_json(out / "reduce_report.json", sidecar)
    print(f"reduce: det={result.umap.det} flipped={int(result.orientation_flipped)} -> {out}")
    return 0


def _cmd_genericity(args) -> int:
    system, f, source = _load_pair(args)
    system, f, reduction = _ensure_reduced(system, f)
    n_theta, n_interior = args.grid if args.grid else (256, 31)
    report = genericity_check(f, system, n_theta=n_theta, n_interior=n_interior)
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
    payload = report.as_dict()
    payload["reduced_first"] = reduction is not None
    write_json(out / "genericity.json", payload)
    status = "ok" if report.passed else "FAIL"
    print(
        f"genericity: lambda={report.lam:.6g} theta1*={report.theta1_star:.6g} "
        f"I1*={report.i1_star:.6g} [{status}] -> {out}"
    )
    return 0 if report.passed else 1


def _cmd_normal_form(args) -> int:
    system, f, source = _load_pair(args)
    system, f, reduction = _ensure_reduced(system, f)
    bundle = SystemBundle(system, f, _check_epsilon(args.epsilon, positive=True))
    if args.steps == 1:
        result = one_step_normal_form(bundle)
    else:
        result = two_step_normal_form(bundle)
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
    first = result.averaging_steps[0]
    payload = {
        "K": first.cutoff,
        "kappa": result.kappa,
        "gamma": first.gamma,
        "sup_f1": result.sup_remainders[0],
        "phi_displacement": result.displacement,
        "displacement_bound": result.displacement_bound,
        "residual_homological": result.homological_residual,
        "lambda": result.genericity.lam,
        "theta_star": result.genericity.theta1_star,
        "I_star": list(result.genericity.I_star),
        "steps": result.steps,
        "reduced_first": reduction is not None,
        "kappa_rounds": [list(r) for r in result.meta["kappa_rounds"]],
    }
    if result.steps == 2:
        second = result.averaging_steps[1]
        payload.update(
            {
                "K2": second.cutoff,
                "gamma2": second.gamma,
                "sup_f2": result.sup_remainders[1],
                "fit_residual": result.meta["fit_residual"],
                "n_kept_modes": result.meta["n_kept_modes"],
            }
        )
    write_json(out / "normal_form.json", payload)
    status = "ok" if result.displacement_ok else "FAIL"
    print(
        f"normal-form: steps={result.steps} K={first.cutoff} kappa={result.kappa:.6g} "
        f"residual={result.homological_residual:.3e} [{status}] -> {out}"
    )
    return 0 if result.displacement_ok else 1


def _cmd_simulate(args) -> int:
    if not np.isfinite(args.t_end) or args.t_end == 0.0:
        raise UsageError(f"--t-end must be finite and nonzero, got {args.t_end!r}")
    system, f, source = _load_pair(args)
    bundle = SystemBundle(system, f, _check_epsilon(args.epsilon))
    if args.state:
        try:
            y0 = [float(v) for v in args.state.split(",")]
        except ValueError:
            raise UsageError(f"--state expects th1,th2,I1,I2, got {args.state!r}") from None
        if len(y0) != 4:
            raise UsageError("--state expects exactly four numbers")
    else:
        mid = system.resonance.segment_points(3)[1]
        y0 = [0.0, 0.0, float(mid[0]), float(mid[1])]
    config = _integrator_config(args)
    record = integrate(
        bundle.rhs(),
        y0,
        (0.0, args.t_end),
        config,
        domain_radius=system.R,
        energy_fn=bundle.energy_of,
        channel_interval=system.resonance.s1_interval(star=True) if system.is_reduced else None,
        epsilon=args.epsilon,
    )
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
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
    if args.plots:
        emit_plots(out)
    status = "flagged" if record.flagged else "ok"
    print(
        f"simulate: t_end={record.t_end:.6g} energy_drift={summary['energy_drift']:.3e} "
        f"[{status}] -> {out}"
    )
    return 1 if record.flagged else 0


def _cmd_drift(args) -> int:
    system, f, source = _load_pair(args)
    system, f, reduction = _ensure_reduced(system, f)
    bundle = SystemBundle(system, f, _check_epsilon(args.epsilon))
    config = _integrator_config(args)
    record = run_drift_experiment(
        bundle,
        delta=args.delta,
        theta2_0=args.theta2,
        C_cfg=args.c_cfg,
        config=config,
    )
    audit = optimality_check(record, bundle)
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
    record.orbit.to_csv(out / "orbit.csv")
    payload = record.as_dict()
    payload["optimality"] = audit.as_dict()
    payload["reduced_first"] = reduction is not None
    write_json(out / "drift_report.json", payload)
    if args.plots:
        emit_plots(out)
    ok = record.pass_upper and record.pass_lower and not record.flagged and audit.passed
    status = "ok" if ok else "FAIL"
    print(
        f"drift: eps={record.epsilon:g} delta={record.delta:.6g} "
        f"drift={record.drift:.9g} c_fit={record.c_fit:.6g} [{status}] -> {out}"
    )
    return 0 if ok else 1


def _cmd_connect(args) -> int:
    system, f, source = _load_pair(args)
    system, f, reduction = _ensure_reduced(system, f)
    bundle = SystemBundle(system, f, _check_epsilon(args.epsilon))
    config = _integrator_config(args)
    record = run_connecting_experiment(
        bundle,
        args.i1_from,
        args.i1_to,
        theta2_0=args.theta2,
        config=config,
    )
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
    if record.orbit is not None:
        record.orbit.to_csv(out / "orbit.csv")
    payload = record.as_dict()
    payload["reduced_first"] = reduction is not None
    write_json(out / "connect_report.json", payload)
    if args.plots and record.orbit is not None:
        emit_plots(out)
    ok = record.extras["reached"] and record.pass_upper and not record.flagged
    status = "ok" if ok else "FAIL"
    print(
        f"connect: {args.i1_from:g} -> {args.i1_to:g} tau={record.tau:.9g} "
        f"dist={record.extras['terminal_distance']:.3e} [{status}] -> {out}"
    )
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    system, f, source = _load_pair(args)
    system, f, reduction = _ensure_reduced(system, f)
    try:
        epsilons = [float(v) for v in args.epsilons.split(",")]
    except ValueError:
        raise UsageError(f"--epsilons expects a comma list, got {args.epsilons!r}") from None
    config = _integrator_config(args)
    result = sweep_epsilon(
        system,
        f,
        epsilons,
        target_drift=args.target_drift,
        theta2_0=args.theta2,
        config=config,
    )
    cfg = _config_dict(args, {"source": source})
    out, _ = _run_dir(args, cfg)
    write_json(out / "config.json", cfg)
    header = ["epsilon", "delta", "tau", "drift", "maxI2", "c_fit", "pass_upper", "pass_lower"]
    rows = [[r.row()[k] for k in header] for r in result.records]
    write_csv(out / "sweep.csv", header, rows)
    fit = result.fit_dict()
    fit["reduced_first"] = reduction is not None
    write_json(out / "fit.json", fit)
    if args.plots:
        emit_plots(out)
    ok = result.all_reached
    status = "ok" if ok else "FAIL"
    print(
        f"sweep: n={len(result.records)} p={result.p:.6g} A={result.A:.6g} "
        f"r2={result.r_squared:.6g} [{status}] -> {out}"
    )
    return 0 if ok else 1


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
    src.add_argument("--system", help="catalog system name")
    src.add_argument("--system-file", help="path to a system-definition JSON file")
    src.add_argument("--out", help="output directory (default runs/<run-id>)")

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_parse_tol, help="integrator tolerances ABS,REL")
    tol.add_argument("--theta2", type=float, default=0.0, help="initial theta2")
    tol.add_argument("--plots", action="store_true", help="emit gnuplot scripts")

    p = sub.add_parser("catalog", parents=[], help="list built-in systems")
    p.add_argument("--out", help="also write channel reports as JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("reduce", parents=[src], help="straighten a resonance line")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("genericity", parents=[src], help="scan the resonant average")
    p.add_argument("--grid", type=_parse_grid, help="theta x interior-I grid, e.g. 256x31")
    p.set_defaults(func=_cmd_genericity)

    p = sub.add_parser("normal-form", parents=[src], help="build an averaging step")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("simulate", parents=[src, tol], help="integrate the full flow")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--state", help="initial th1,th2,I1,I2 (default: channel midpoint)")
    p.add_argument("--samples", type=int, help="number of CSV sample rows")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("drift", parents=[src, tol], help="drift experiment")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, help="drift budget (default from the delta rule)")
    p.add_argument("--c-cfg", type=_finite_positive, default=1.0, help="configured lower-bound constant")
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("connect", parents=[src, tol], help="steer between channel actions")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--from", dest="i1_from", type=float, required=True)
    p.add_argument("--to", dest="i1_to", type=float, required=True)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("sweep", parents=[src, tol], help="time-scaling sweep over epsilon")
    p.add_argument("--epsilons", required=True, help="comma list, e.g. 1e-2,3e-3,1e-3")
    p.add_argument("--target-drift", type=_finite_positive, default=0.1)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SmallDivisorError, FlowEscapeError, IntegrationError, WindowFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
