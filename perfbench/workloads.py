"""The benchmark's three workloads: drift, normal-form and cli.

A workload is built once per process from its seed (``prepare``) and then
run in rounds.  Each round attempts the same operations in the same order.
An operation's ``run`` calls into the program and is timed; its ``check``
compares what came back with ``checks`` and is not timed.  The program is
always reached through module attributes (``rd.run_drift_experiment``,
``rdi.integrate``), so the tracer's patches see every call.

The seed draws only the sample points of the checks (field states,
generator points, transform points, the symplecticity state).  The
experiments themselves run on the catalog's fixed inputs, so the solver
counts repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import resodrift as rd
import resodrift.integrate as rdi
from resodrift import cli
from resodrift.errors import FlowEscapeError

LADDER = (1e-2, 3e-3, 1e-3)
NF_EPS = (1e-2, 1e-3)
# 48^2 x 17 x 9 = 352,512 sample points: two 300k chunks in flow_points,
# about a third of the default 128-point grid's cost.
NF_THETA_GRID = 48
N_POINTS = 200
# The two-step inverse is probed on points that do not depend on --seed.
FAULT_SEED = 20240818
FAULT_POINTS = 64

# Set-up builds, per workload: (catalog name, epsilon).  run.py times these
# in fresh interpreters for setup_s.
SETUP = {
    "drift": [("generic3", e) for e in LADDER] + [("moser", 1e-3), ("reduced-moser", 1e-3)],
    "normal-form": [("generic3", e) for e in NF_EPS],
    "cli": [("moser", 1e-3), ("reduced-moser", 1e-3)] + [("generic3", e) for e in LADDER],
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False


def build_bundles(name: str) -> dict:
    return {(sys_name, eps): rd.make_bundle(sys_name, eps) for sys_name, eps in SETUP[name]}


def _unit_points(rng, n):
    return rng.uniform(0.0, 1.0, size=(4, n))


def _in_window(u, window):
    """Map unit samples to points (th1, th2, I1, I2) of an action window."""
    return (
        u[0].copy(),
        u[1].copy(),
        window.i1_min + (window.i1_max - window.i1_min) * u[2],
        window.i2_min + (window.i2_max - window.i2_min) * u[3],
    )


# -- drift -------------------------------------------------------------------------


def drift_prepare(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = 32
    states = np.column_stack(
        [rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0.25, 1.75, n), rng.uniform(-0.1, 0.1, n)]
    )
    return {"bundles": build_bundles("drift"), "states": states}


def _drift_check(eps):
    def check(rec):
        orbit = rec.orbit
        checks.generic3_drift(eps, rec.delta, orbit.t_end, orbit.actions, orbit.theta, orbit.y_end)

    return check


def _connect_generic3_check(rec):
    orbit = rec.orbit
    checks.connect_reached(1.05, orbit.y_end, orbit.stop_event)
    checks.energy_conserved(rec.epsilon, orbit.theta, orbit.actions)


def _moser_orbit(bundle):
    return rdi.integrate(
        bundle.rhs(), np.zeros(4), (0.0, 1e3),
        domain_radius=bundle.system.R, energy_fn=bundle.energy_of, epsilon=bundle.epsilon,
    )


def _field_values(bundles, states):
    out = []
    for eps in LADDER:
        fun = bundles[("generic3", eps)].rhs()
        out.append([fun(0.0, y) for y in states])
    return out


def _field_check(states):
    def check(values):
        for eps, vals in zip(LADDER, values):
            checks.generic3_field_matches(eps, states, vals)

    return check


def drift_ops(state: dict, workdir: Path) -> list[Op]:
    b = state["bundles"]
    states = state["states"]
    ops = [
        Op(f"drift generic3 eps={eps:g}", lambda bb=b[("generic3", eps)]: rd.run_drift_experiment(bb),
           _drift_check(eps))
        for eps in LADDER
    ]
    ops += [
        Op("connect generic3 1.0->1.05",
           lambda: rd.run_connecting_experiment(b[("generic3", 1e-3)], 1.0, 1.05),
           _connect_generic3_check),
        Op("orbit moser t<=1e3", lambda: _moser_orbit(b[("moser", 1e-3)]),
           lambda rec: checks.moser_orbit(1e-3, 0.0, rec.t, rec.theta, rec.actions)),
        Op("drift reduced-moser", lambda: rd.run_drift_experiment(b[("reduced-moser", 1e-3)]),
           lambda rec: checks.reduced_moser_drift(rec.delta, rec.orbit.actions, rec.orbit.y_end)),
        Op("connect reduced-moser 1.0->1.05",
           lambda: rd.run_connecting_experiment(b[("reduced-moser", 1e-3)], 1.0, 1.05),
           lambda rec: checks.connect_time(rec.tau)),
        Op("field generic3", lambda: _field_values(b, states), _field_check(states)),
    ]
    return ops


# -- normal-form ---------------------------------------------------------------------


def nf_prepare(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "bundles": build_bundles("normal-form"),
        "chi": _unit_points(rng, N_POINTS),
        "move": _unit_points(rng, N_POINTS),
        "sym": rng.uniform(0.0, 1.0, size=4),
        "move2": _unit_points(rng, N_POINTS),
        "sym2": rng.uniform(0.0, 1.0, size=4),
        "fault": _unit_points(np.random.default_rng(FAULT_SEED), FAULT_POINTS),
        "results": {},
    }


def _sym_state(u, window):
    """A state well inside the window's middle half, so the difference stencil stays in."""
    th1, th2, I1, I2 = _in_window(u[:, None], window)
    mid1 = 0.5 * (window.i1_min + window.i1_max)
    return rd.PhaseState.make(
        float(th1[0]), float(th2[0]),
        mid1 + 0.25 * (float(I1[0]) - mid1), 0.25 * float(I2[0]),
    )


def _one_step(state, eps):
    nf = rd.one_step_normal_form(state["bundles"][("generic3", eps)])
    state["results"][eps] = nf
    chi_pts = _in_window(state["chi"], nf.window)
    start = _in_window(state["move"], nf.sample_window)
    moved = nf.phi_points(*start)
    back = nf.phi_points(*moved, direction=-1.0)
    return {
        "nf": nf,
        "chi_pts": chi_pts,
        "chi": nf.chi.evaluate(*chi_pts),
        "start": start,
        "moved": moved,
        "back": back,
        "defect": rd.symplecticity_defect(nf.phi, _sym_state(state["sym"], nf.sample_window)),
    }


def _one_step_check(state, eps):
    def check(v):
        nf = v["nf"]
        checks.chi_matches(v["chi_pts"], v["chi"])
        checks.displacement_within(v["start"], v["moved"], nf.kappa * eps / 2.0)
        checks.round_trip(v["start"], v["back"])
        checks.symplectic(v["defect"])
        if eps == NF_EPS[-1]:
            sups = [state["results"][e].sup_remainder for e in NF_EPS]
            checks.sup_ratio(*sups)

    return check


def _two_step(state):
    eps = NF_EPS[-1]
    nf = rd.two_step_normal_form(
        state["bundles"][("generic3", eps)], step1=state["results"][eps], theta_grid=NF_THETA_GRID
    )
    state["two_step"] = nf
    start = _in_window(state["move2"], nf.quarter_window)
    return {
        "nf": nf,
        "start": start,
        "moved": nf.phi_points(*start),
        "defect": rd.symplecticity_defect(nf.phi, _sym_state(state["sym2"], nf.quarter_window)),
    }


def _two_step_check(v):
    nf = v["nf"]
    checks.displacement_within(v["start"], v["moved"], 3.0 * nf.kappa * nf.epsilon / 4.0)
    checks.symplectic(v["defect"])


def _two_step_inverse(state):
    """Phi^-1 o Phi of the two-step transform, and the reversed composition.

    Phi = Phi1 o Phi2 (chi2 flowed first), so its inverse flows chi1 back
    first and chi2 second.  The program's direction=-1 keeps the forward
    order; the reversed composition is built here from the step-one
    transform and flow_points.
    """
    nf = state["two_step"]
    eps = nf.epsilon
    start = _in_window(state["fault"], nf.quarter_window)
    moved = nf.phi_points(*start)
    try:
        back = nf.phi_points(*moved, direction=-1.0)
        raised = None
    except FlowEscapeError as exc:
        back, raised = None, str(exc)
    mid = nf.step1.phi_points(*moved, direction=-1.0)
    reverse = rd.flow_points(nf.chi2, eps**2, -1.0, *mid, rtol=1e-12, atol=1e-12)
    return {"start": start, "back": back, "raised": raised, "reverse": reverse}


def _two_step_inverse_check(v):
    # The reversed composition must invert Phi; if it does not, the fault
    # is not the one diagnosed and the check fails outright.
    checks.round_trip(v["start"], v["reverse"])
    if v["raised"] is not None:
        raise checks.KnownFault(f"Phi^-1 raised FlowEscapeError: {v['raised']}")
    try:
        checks.round_trip(v["start"], v["back"])
    except checks.CheckFailed as exc:
        raise checks.KnownFault(str(exc)) from None


def nf_ops(state: dict, workdir: Path) -> list[Op]:
    ops = [
        Op(f"one-step generic3 eps={eps:g}", lambda eps=eps: _one_step(state, eps),
           _one_step_check(state, eps))
        for eps in NF_EPS
    ]
    ops.append(Op("two-step generic3 eps=0.001", lambda: _two_step(state), _two_step_check))
    ops.append(Op("two-step inverse", lambda: _two_step_inverse(state), _two_step_inverse_check,
                  known_fault=True))
    return ops


# -- cli -------------------------------------------------------------------------------

CLI_COMMANDS = (
    ("reduce", ["reduce", "--system", "moser"]),
    ("genericity", ["genericity", "--system", "moser"]),
    ("drift", ["drift", "--system", "moser", "--epsilon", "1e-3"]),
    ("connect", ["connect", "--system", "reduced-moser", "--epsilon", "1e-3",
                 "--from", "1.0", "--to", "1.05"]),
    ("sweep", ["sweep", "--system", "generic3", "--epsilons", "1e-2,3e-3,1e-3", "--plots"]),
    ("simulate", ["simulate", "--system", "moser", "--epsilon", "1e-3", "--t-end", "1000"]),
)


def cli_prepare(seed: int) -> dict:
    # The CLI builds its own systems from the catalog on every invocation;
    # the set-up only imports it.  Its inputs are the fixed invocations above.
    return {}


def _run_cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _artifact_check(name, out: Path):
    def j(f):
        return json.loads((out / f).read_text())

    def csv(f):
        return np.loadtxt(out / f, delimiter=",", skiprows=1)

    def check(code):
        checks.exit_ok(code)
        if name == "reduce":
            checks.reduce_report(j("reduce_report.json"), j("reduced_system.json"))
        elif name == "genericity":
            checks.genericity_report(j("genericity.json"))
        elif name == "drift":
            checks.moser_drift_report(j("drift_report.json"))
        elif name == "connect":
            checks.connect_report(j("connect_report.json"))
        elif name == "sweep":
            checks.sweep_artifacts(j("fit.json"), csv("sweep.csv"))
            checks.sweep_plot((out / "sweep.gp").read_text(), j("fit.json"))
        elif name == "simulate":
            checks.simulate_orbit(csv("orbit.csv"))

    return check


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def cli_ops(state: dict, workdir: Path) -> list[Op]:
    ops = []
    for pass_name in ("a", "b"):
        for name, argv in CLI_COMMANDS:
            out = workdir / pass_name / name
            ops.append(Op(f"cli {name} ({pass_name})",
                          lambda argv=argv, out=out: _run_cli(argv + ["--out", str(out)]),
                          _artifact_check(name, out)))

    last = ops[-1]

    def last_and_identical(code):
        last.check(code)
        checks.same_bytes(_tree_bytes(workdir / "a"), _tree_bytes(workdir / "b"))

    ops[-1] = Op(last.name, last.run, last_and_identical)
    return ops


def clear(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)


# name -> (prepare(seed) -> state, ops(state, workdir) -> list of Op)
WORKLOADS = {
    "drift": (drift_prepare, drift_ops),
    "normal-form": (nf_prepare, nf_ops),
    "cli": (cli_prepare, cli_ops),
}
