import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

import resodrift as rd
from resodrift import dop853
from resodrift import integrate as integrate_module
from resodrift.blas import serial_blas
from resodrift.errors import DomainError, FlowEscapeError, IntegrationError
from resodrift.integrate import (
    IntegratorConfig,
    StopEvent,
    flow_points,
    integrate,
    lie_flow,
    symplecticity_defect,
)
from resodrift.fourier import FourierPerturbation
from resodrift.poly import PolyField
from resodrift.systems import ActionWindow, SystemBundle, star_window
from resodrift.torus import PhaseState, wrap

from test_averaging import _action_dependent_bundle


def moser_closed_form(eps, t):
    """Orbit of the saddle system from the origin: u = theta1 - theta2 stays
    pinned at the cosine maximum, so the actions drift linearly."""
    t = np.asarray(t, dtype=float)
    I = np.stack([-eps * t, eps * t], axis=-1)
    th = np.stack([-0.5 * eps * t**2, -0.5 * eps * t**2], axis=-1)
    return th, I


def test_moser_matches_closed_form():
    eps = 1e-3
    b = rd.make_bundle("moser", eps)
    rec = integrate(b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 50.0), energy_fn=b.energy_of)
    th_exact, I_exact = moser_closed_form(eps, rec.t)
    assert np.max(np.abs(rec.actions - I_exact)) < 1e-10
    # angles are recorded wrapped; compare on the torus
    d = np.abs(np.mod(rec.theta - th_exact + 0.5, 1.0) - 0.5)
    assert np.max(d) < 1e-10


def test_zero_epsilon_keeps_actions_bitwise_constant():
    b = rd.make_bundle("generic3", 0.0)
    y0 = [0.3, 0.7, 1.1, 0.004]
    rec = integrate(b.rhs(), y0, (0.0, 25.0))
    assert np.all(rec.actions[:, 0] == y0[2])
    assert np.all(rec.actions[:, 1] == y0[3])
    # and the angles advance at the frozen frequencies
    om = b.system.omega(y0[2], y0[3])
    d1 = np.abs(np.mod(rec.theta[:, 0] - (y0[0] + om[0] * rec.t) + 0.5, 1.0) - 0.5)
    assert np.max(d1) < 1e-9


def test_energy_is_conserved_along_orbits():
    b = rd.make_bundle("generic3", 1e-3)
    rec = integrate(
        b.rhs(), [0.1, 0.2, 1.0, 0.0], (0.0, 200.0), energy_fn=b.energy_of
    )
    assert np.max(np.abs(rec.energy - rec.energy[0])) < 1e-9
    # without an energy callback the column is NaN, not zero
    rec2 = integrate(b.rhs(), [0.1, 0.2, 1.0, 0.0], (0.0, 1.0))
    assert np.all(np.isnan(rec2.energy))


def _action_dependent_f():
    return FourierPerturbation.from_terms([
        ((1, 0), PolyField.from_terms([(1, 0, 0.05)]), PolyField.from_terms([(0, 0, 0.16), (0, 2, 0.3)])),
        ((1, -1), PolyField.from_terms([(0, 0, 0.2), (1, 2, 0.4)]), PolyField.from_terms([(0, 3, 0.5)])),
        ((0, 1), PolyField.from_terms([(2, 0, 0.1), (0, 1, -0.2)]), 0.0),
        ((2, 1), 0.0, PolyField.from_terms([(3, 0, 0.05), (1, 1, 0.3)])),
    ])


def test_action_dependent_orbit_agrees_across_evaluator_branches():
    """One orbit of generic3's h with action-dependent f, through both ModeTable branches.

    bundle.rhs() passes (4,) states, which take the single-point branch; the
    wrapper passes (4, 1) columns, which take the array branch.  The two
    fields agree to rounding, so the orbits must agree to the integrator's
    own tolerance (1e-10), and each must conserve H to 1e-8.
    """
    system = rd.get_entry("generic3").system
    f = _action_dependent_f()
    assert not f.is_action_independent
    y0, span = [0.1, 0.2, 1.0, 0.02], (0.0, 50.0)
    scalar, array = SystemBundle(system, f, 1e-2), SystemBundle(system, f, 1e-2)
    by_state = scalar.rhs()
    by_column = array.rhs()
    runs = [
        integrate(rhs, y0, span, domain_radius=system.R, energy_fn=b.energy_of)
        for rhs, b in ((by_state, scalar), (lambda t, y: by_column(t, y[:, None])[:, 0], array))
    ]
    # only the (4,) states generated the single-point evaluator
    assert scalar.series.table().point_source is not None and array.series.table().point_source is None
    for rec in runs:
        assert not rec.flagged
        assert rec.max_energy_error < 1e-8
    assert np.max(np.abs(runs[0].y_end - runs[1].y_end)) < 1e-10
    assert np.max(np.abs(runs[0].actions - runs[1].actions)) < 1e-10


def _term_list_rows(table, terms, t1, t2, x1, x2):
    """The five rows of one point summed term by term off the compiled term lists."""
    phase = [w1 * t1 + w2 * t2 for w1, w2 in table._w]
    trig = [*map(math.cos, phase), *map(math.sin, phase)]
    top1, top2 = np.max(table._basis, axis=0, initial=0).tolist()
    p1, p2 = [1.0], [1.0]
    for _ in range(top1):
        p1.append(p1[-1] * x1)
    for _ in range(top2):
        p2.append(p2[-1] * x2)
    power = [p1[a] * p2[b] for a, b in table._basis.tolist()]
    out = []
    for row in terms:
        acc = 0.0
        for p, q, c in row:
            acc += c * power[p] * trig[q]
        out.append(acc)
    return out


@pytest.mark.parametrize(
    "name",
    ["generic3", "moser", "product", "reduced-moser", "action-dependent", "eps = 0", "zero series"],
)
def test_generated_evaluator_is_its_term_lists_bit_for_bit(name):
    if name == "action-dependent":
        table = SystemBundle(rd.get_entry("generic3").system, _action_dependent_f(), 1e-2).series.table()
    elif name == "eps = 0":
        table = rd.make_bundle("generic3", 0.0).series.table()
    elif name == "zero series":
        table = FourierPerturbation.zero().table()
    else:
        table = rd.make_bundle(name, 1e-3).series.table()
    point, terms = table._point_function(), table._compile_terms()
    states = np.random.default_rng(25).uniform([-1.0, -1.0, -2.0, -2.0], [2.0, 2.0, 2.0, 2.0], (10_000, 4))
    bad = [y for y in states.tolist() if point(*y) != _term_list_rows(table, terms, *y)]
    assert not bad, f"{len(bad)} states differ, first {bad[0]}; generated source:\n{table.point_source}"


def test_generated_evaluator_takes_no_trig_of_the_mean_mode():
    # generic3's h sits on the mean (0, 0); its three other modes take one cos and one sin each
    table = rd.make_bundle("generic3", 1e-3).series.table()
    table._point_function()
    assert table.point_source.count("cos(") == table.point_source.count("sin(") == 3
    # at eps = 0 no angle enters the rows, so a NaN angle leaves them finite
    rows = rd.make_bundle("generic3", 0.0).series.table().evaluate(math.nan, 0.2, 1.0, 0.1)
    assert all(map(math.isfinite, rows)), rows


def test_generated_evaluator_sums_a_row_of_thousands_of_terms():
    # one expression of this many terms would exceed the compiler's recursion limit
    coeffs = PolyField(np.arange(1.0, 67.0).reshape(11, 6) / 66.0)
    f = FourierPerturbation.from_terms([((k1, k2), coeffs, coeffs) for k1 in range(6) for k2 in range(-5, 6)])
    table = f.table()
    point, terms = table._point_function(), table._compile_terms()
    assert len(terms[0]) > 5_000
    states = np.random.default_rng(26).uniform(-1.0, 1.0, (50, 4))
    for y in states.tolist():
        assert point(*y) == _term_list_rows(table, terms, *y), table.point_source


def _bits(values):
    """The IEEE bit patterns of floats, so NaNs of either sign compare too."""
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2])
@pytest.mark.parametrize("name", rd.catalog_names() + ["action-dependent"])
def test_field_entry_is_the_signed_point_rows_bit_for_bit(name, eps):
    system = rd.get_entry("generic3" if name == "action-dependent" else name).system
    f = _action_dependent_f() if name == "action-dependent" else rd.get_entry(name).perturbation
    bundle = SystemBundle(system, f, eps)
    field, table = bundle.rhs().single_state(), bundle.series.table()
    assert field is table._field_function()
    point = table._point_function()
    states = np.random.default_rng(33).uniform([-1.0, -1.0, -2.0, -2.0], [2.0, 2.0, 2.0, 2.0], (2_000, 4)).tolist()
    # a NaN angle, zero actions, actions of 1e154 and actions whose squares overflow in the value row
    states += [[math.nan, 0.2, 1.0, 0.1], [0.3, math.nan, 1.0, 0.1], [0.3, 0.4, 0.0, 0.0],
               [0.3, 0.4, 1e154, 1e154], [0.3, 0.4, -1e154, 1e154], [0.3, 0.4, 1e200, -1e200]]
    for y in states:
        _, d1, d2, g1, g2 = point(*y)
        assert _bits(field(7.0, *y)) == _bits([g1, g2, -d1, -d2]), (y, table.field_source)
    # the field never reads the value row, and its source computes none
    assert "r0" not in table.field_source and "r0 = " in table.point_source


def test_sample_count_is_checked():
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        IntegratorConfig(n_samples=0)
    fun = rd.make_bundle("generic3", 1e-2).rhs()
    y0 = np.array([0.05, 0.9, 1.2, 0.01])
    assert integrate(fun, y0, (0.0, 1.0), IntegratorConfig(n_samples=7)).t.size == 7


def test_time_reversal_recovers_initial_state():
    b = rd.make_bundle("generic3", 1e-2)
    y0 = np.array([0.05, 0.9, 1.2, 0.01])
    fwd = integrate(b.rhs(), y0, (0.0, 40.0))
    back = integrate(b.rhs(), fwd.y_end, (40.0, 0.0))
    # local error control at 1e-10 accumulates to a few 1e-8 over the round trip
    assert np.max(np.abs(back.y_end - y0)) < 1e-7


def test_sampling_and_record_shapes():
    b = rd.make_bundle("generic3", 1e-3)
    rec = integrate(b.rhs(), [0.0, 0.0, 1.0, 0.0], (0.0, 10.0), IntegratorConfig(n_samples=41))
    assert rec.t.shape == (41,)
    assert rec.theta.shape == (41, 2)
    assert rec.actions.shape == (41, 2)
    assert rec.t[0] == 0.0 and rec.t[-1] == 10.0
    assert rec.t_end == 10.0
    assert rec.stop_event is None and not rec.flagged
    assert rec.n_steps > 0 and rec.n_rhs_evals > rec.n_steps
    s0 = rec.initial_state
    assert s0.theta1 == 0.0 and s0.I1 == 1.0
    s1 = rec.final_state
    assert abs(s1.I1 - rec.actions[-1, 0]) < 1e-15


def test_channel_distance_diagnostic():
    b = rd.make_bundle("moser", 1e-3)
    rec = integrate(
        b.rhs(),
        [0.0, 0.0, 1.0, 0.0],
        (0.0, 20.0),
        channel_interval=(1.0, 1.05),
    )
    # I2 grows like eps*t here, so the distance is |I2| until I1 leaves the slab
    expect = np.maximum(
        np.abs(rec.actions[:, 1]),
        np.maximum(0.0, np.maximum(1.0 - rec.actions[:, 0], rec.actions[:, 0] - 1.05)),
    )
    assert np.max(np.abs(rec.dist_channel - expect)) < 1e-14


def test_domain_exit_flags_and_roots_the_crossing():
    eps = 1e-3
    b = rd.make_bundle("moser", eps)
    rec = integrate(
        b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 800.0), domain_radius=0.5
    )
    assert rec.stop_event == "domain_exit"
    assert rec.flagged
    # |I| = eps * t reaches 0.5 at t = 500
    assert rec.t_end == pytest.approx(500.0, abs=1e-6)
    assert max(abs(rec.y_end[2]), abs(rec.y_end[3])) == pytest.approx(0.5, abs=1e-9)
    # samples past the stop are not recorded
    assert rec.t[-1] == pytest.approx(rec.t_end, abs=1e-12)


def test_custom_stop_event_is_not_a_failure():
    eps = 1e-3
    b = rd.make_bundle("moser", eps)
    target = StopEvent("target_drift", lambda _t, y: y[3] - 0.1, direction=1.0)
    rec = integrate(
        b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 800.0), stop_events=(target,)
    )
    assert rec.stop_event == "target_drift"
    assert not rec.flagged
    assert rec.t_end == pytest.approx(100.0, abs=1e-6)


def test_stop_events_leave_caller_callables_untouched():
    b = rd.make_bundle("moser", 1e-3)

    class Target:
        def reached(self, _t, y):
            return y[3] - 0.1

    def plain(_t, y):
        return y[3] - 0.2

    # a bound method takes no attributes, so setting them on it would raise
    bound = StopEvent("bound", Target().reached, direction=1.0)
    rec = integrate(b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 800.0), stop_events=(bound,))
    assert rec.stop_event == "bound"
    assert rec.t_end == pytest.approx(100.0, abs=1e-6)

    rec = integrate(
        b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 800.0),
        stop_events=(StopEvent("plain", plain, direction=1.0),),
    )
    assert rec.stop_event == "plain"
    assert not hasattr(plain, "terminal")
    assert not hasattr(plain, "direction")


def test_event_nan_inside_a_step_raises_integration_error():
    # y[3] = eps t reaches 0.1 at t = 100; the event is NaN within 1e-9 of
    # that time, which no step end hits but the root finder's probes do
    b = rd.make_bundle("moser", 1e-3)
    target = StopEvent("target", lambda t, y: np.nan if abs(t - 100.0) < 1e-9 else y[3] - 0.1)
    with pytest.raises(IntegrationError, match="NaN"):
        integrate(b.rhs(), [0.0, 0.0, 0.0, 0.0], (0.0, 800.0), stop_events=(target,))


# -- the root finder against scipy's brentq -----------------------------------

_EPS = np.finfo(float).eps
_SHAPES = (
    lambda u, c, p: u,
    lambda u, c, p: math.sinh(c * u) + 0.1 * u**3,
    lambda u, c, p: math.copysign(abs(u) ** (1 / p), u),
    lambda u, c, p: math.tanh(5 * c * u) - 0.3 * u ** (2 * p),
)


def test_root_finder_is_scipy_brentq_bit_for_bit():
    # seeded functions at magnitudes from subnormal to 1e200, so underflowed
    # products (a division by 0 in the extrapolation) are exercised too
    rng = np.random.default_rng(14)
    n = 0
    while n < 10_000:
        shape, scale = _SHAPES[n % 4], (1.0, 1e-200, 1e-310, 1e200)[n // 4 % 4]
        r, c, p = rng.uniform(-1, 1), rng.uniform(0.1, 3), int(rng.integers(1, 6))
        a, b = (float(x) for x in rng.uniform(-2, 2, 2))

        def f(x, shape=shape, scale=scale, r=r, c=c, p=p):
            return scale * shape(x - r, c, p)

        fa, fb = f(a), f(b)
        if fa == 0 or fb == 0 or (fa < 0) == (fb < 0):
            continue
        ours = integrate_module._brentq(f, a, b)
        theirs = brentq(f, a, b, xtol=4 * _EPS, rtol=4 * _EPS)
        assert ours.hex() == theirs.hex(), (n, a, b)
        n += 1


def test_root_finder_ends_and_failures():
    _brentq = integrate_module._brentq
    assert _brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(IntegrationError, match="one sign"):
        _brentq(lambda x: x - 1.0, 2.0, 3.0)
    with pytest.raises(IntegrationError, match="NaN"):
        _brentq(lambda x: np.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0)

    # a jump on a 2e300-wide bracket takes about 1,000 bisections to 4 ulp
    def jump(x):
        return -1.0 if x < 0.5 else 1.0

    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(jump, -1e300, 1e300, xtol=4 * _EPS, rtol=4 * _EPS)
    with pytest.raises(IntegrationError, match="in 100 iterations"):
        _brentq(jump, -1e300, 1e300)


@pytest.mark.parametrize("span", [(0.0, 0.0), (3.0, 3.0), (0.0, np.inf), (0.0, np.nan), (np.inf, np.inf)])
def test_zero_length_or_infinite_span_is_rejected(span):
    rhs = rd.make_bundle("generic3", 1e-3).rhs()
    with pytest.raises(ValueError, match="span must be finite and nonzero"):
        integrate(rhs, [0.0, 0.0, 1.0, 0.0], span)


def test_start_outside_the_domain_is_rejected():
    b = rd.make_bundle("moser", 1e-3)
    R = b.system.R
    # domain_exit only sees the orbit leave B_R, so a start outside it is checked up front
    for y0 in ([0.0, 0.0, R + 1.0, 0.0], [0.0, 0.0, 0.0, -R - 1e-9]):
        with pytest.raises(DomainError, match="outside the domain radius"):
            integrate(b.rhs(), y0, (0.0, 10.0), domain_radius=R)
    # the boundary itself is inside, and without a radius nothing is checked
    assert not integrate(b.rhs(), [0.0, 0.0, 0.5, 0.0], (0.0, 1.0), domain_radius=0.5).flagged
    assert not integrate(b.rhs(), [0.0, 0.0, R + 1.0, 0.0], (0.0, 1.0)).flagged


@pytest.mark.parametrize(
    "y0, error, message",
    [
        # the field overflows, so the first step comes out zero
        ([0.1, 0.2, 1e300, 0.0], IntegrationError, "no initial step"),
        ([0.1, 0.2, 1e154, 0.0], IntegrationError, "no initial step"),
        ([math.inf, 0.2, 1.0, 0.0], DomainError, "not finite"),
        ([0.1, math.nan, 1.0, 0.0], DomainError, "not finite"),
        ([0.1, 0.2, math.nan, 0.0], DomainError, "not finite"),
        # only a single state has an interpolant
        ([[0.1], [0.2], [1.0], [0.0]], ValueError, "one flat state"),
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_starts_that_break_the_first_step_raise_typed_errors(y0, error, message):
    field, calls = rd.make_bundle("generic3", 1e-3).rhs(), []

    def rhs(t, y):
        calls.append(t)
        return field(t, y)

    with pytest.raises(error, match=message):
        integrate(rhs, y0, (0.0, 10.0))
    # a start that is not one finite state is refused before the field is evaluated
    assert (calls == []) == (error is not IntegrationError)


@pytest.mark.parametrize("I1", [1e77, 1e100])
def test_angles_past_float_precision_raise_domain_error(I1):
    # theta2' = I1 carries theta2 past 2**52 within the first steps; from there
    # every phase is rounding noise and the steps shrink with the angle's ulp
    rhs = rd.make_bundle("generic3", 1e-3).rhs()
    start = time.process_time()
    with pytest.raises(DomainError, match="2\\*\\*52"):
        integrate(rhs, [0.1, 0.2, I1, 0.0], (0.0, 10.0))
    assert time.process_time() - start < 1.0
    # just below the limit the orbit runs
    rec = integrate(rhs, [0.1, 2.0**52 - 2.0, 1.0, 0.0], (0.0, 1.0), IntegratorConfig(n_samples=2))
    assert rec.y_end[1] < 2.0**52


# -- the orbit loop against scipy's solve_ivp ---------------------------------


def _solve_ivp_reference(rhs, y0, t_span, n_samples, stop_events=()):
    """The orbit run as solve_ivp with an interpolant on every step gives it:
    (samples t, samples y, t_end, y_end, accepted steps, stop event, evaluations)."""
    events = []
    for spec in stop_events:
        def event(t, y, _fn=spec.fn):
            return _fn(t, y)

        event.terminal, event.direction = True, spec.direction
        events.append(event)
    sol = solve_ivp(
        rhs, t_span, y0, method="DOP853", rtol=1e-10, atol=1e-10,
        t_eval=np.linspace(*t_span, n_samples), dense_output=True, events=events or None,
    )
    assert sol.status in (0, 1)
    stop, t_end, y_end = None, t_span[1], sol.sol(t_span[1])
    for spec, t_ev, y_ev in zip(stop_events, sol.t_events or (), sol.y_events or ()):
        if t_ev.size:
            stop, t_end, y_end = spec.name, float(t_ev[-1]), y_ev[-1]
            break
    return sol.t, sol.y, t_end, y_end, len(sol.sol.ts) - 1, stop, sol.nfev


@pytest.fixture(scope="module")
def generic3_orbit():
    return rd.make_bundle("generic3", 1e-2).rhs(), np.array([0.1, 0.2, 1.0, 0.0])


@pytest.fixture(scope="module")
def orbit_fields(generic3_orbit):
    """(name, rhs, y0): bundle fields and plain callables, one of them time-dependent.

    The drum's I1 = 1 + 2 sin(t / 2) at the rate I2 = 0.5 reaches the same
    targets and domain exit as generic3, so every case reads its stage times.
    """
    rhs, y0 = generic3_orbit
    return [
        ("generic3", rhs, y0),
        ("action-dependent", _action_dependent_bundle(1e-2).rhs(), y0),
        ("plain callable", lambda t, y: rhs(t, y), y0),
        ("time-dependent callable", _DrumGenerator().flow_rhs(1.0), np.array([0.1, 0.2, 1.0, 0.5])),
    ]


def _domain_exit(radius):
    return StopEvent("domain_exit", lambda _t, y: radius - max(abs(y[2]), abs(y[3])), -1.0, True)


@pytest.mark.parametrize(
    "t1, targets, radius, stop",
    [
        (50.0, (), None, None),                            # forward
        (-50.0, (), None, None),                           # backward
        (200.0, (("target", 0.05),), None, "target"),      # I1 falls through 0.95
        (-200.0, (("target", 0.05),), None, "target"),     # I1 rises through 1.05
        (-200.0, (), 2.0, "domain_exit"),                  # I1 leaves B_R at R = 2
        # both fire in the same step; the earlier root wins, not the first listed
        (-200.0, (("later", 0.05 + 1e-9), ("earlier", 0.05)), None, "earlier"),
    ],
)
def test_orbit_loop_is_solve_ivp_bit_for_bit(orbit_fields, t1, targets, radius, stop):
    events = tuple(
        StopEvent(name, lambda _t, y, _d=d: abs(y[2] - 1.0) - _d, direction=1.0) for name, d in targets
    )
    ref_events = events if radius is None else (_domain_exit(radius),) + events
    for name, rhs, y0 in orbit_fields:
        rec = integrate(rhs, y0, (0.0, t1), IntegratorConfig(n_samples=41), domain_radius=radius,
                        stop_events=events)
        t, y, t_end, y_end, n_steps, ref_stop, nfev = _solve_ivp_reference(rhs, y0, (0.0, t1), 41, ref_events)
        assert rec.stop_event == ref_stop == stop, name
        assert rec.flagged == (stop == "domain_exit"), name
        k = t.size
        np.testing.assert_array_equal(rec.t[:k], t)
        np.testing.assert_array_equal(rec.actions[:k], y[2:].T)
        np.testing.assert_array_equal(rec.theta[:k], wrap(y[:2].T))
        assert rec.t_end == t_end and rec.t[-1] == t_end
        np.testing.assert_array_equal(rec.y_end, y_end)
        assert rec.n_steps == n_steps, name
        # the interpolant is built only on steps that hold a sample or an event
        assert rec.n_rhs_evals <= nfev
        if stop is not None:
            assert k < 41 and rec.t.size == k + 1


def test_tiny_rtol_is_floored_as_in_scipy(generic3_orbit):
    rhs, y0 = generic3_orbit
    rec = integrate(rhs, y0, (0.0, 5.0), IntegratorConfig(rtol=1e-16, atol=1e-16, n_samples=5))
    with pytest.warns(UserWarning, match="rtol"):
        ref = solve_ivp(rhs, (0.0, 5.0), y0, method="DOP853", rtol=1e-16, atol=1e-16, dense_output=True)
    np.testing.assert_array_equal(rec.y_end, ref.sol(5.0))
    assert rec.n_steps == len(ref.sol.ts) - 1


def test_orbit_memory_does_not_grow_with_its_step_count():
    rhs = rd.make_bundle("generic3", 1e-3).rhs()
    y0 = [0.1, 0.2, 1.0, 0.0]
    peaks, steps = {}, {}
    # 483 and 3,102 steps; keeping every step's interpolant grew the peak by 1.8 MB
    for t1 in (1e2, 1e3):
        tracemalloc.start()
        try:
            rec = integrate(rhs, y0, (0.0, t1))
            peaks[t1] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps[t1] = rec.n_steps
    assert steps[1e3] > 6 * steps[1e2]
    # no per-step state is kept: the samples are the same size
    assert peaks[1e3] - peaks[1e2] <= 256 * 1024


def test_orbit_csv_round_trip(tmp_path):
    b = rd.make_bundle("generic3", 1e-3)
    rec = integrate(
        b.rhs(),
        [0.0, 0.0, 1.0, 0.0],
        (0.0, 5.0),
        IntegratorConfig(n_samples=17),
        energy_fn=b.energy_of,
        channel_interval=(0.5, 1.5),
    )
    path = tmp_path / "orbit.csv"
    rec.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,theta1,theta2,I1,I2,energy,absI2,dist_channel"
    assert len(lines) == 1 + 17
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 0] - rec.t)) == 0.0
    assert np.max(np.abs(data[:, 3] - rec.actions[:, 0])) == 0.0
    assert np.max(np.abs(data[:, 5] - rec.energy)) == 0.0


# -- generator flows ----------------------------------------------------------


@pytest.fixture(scope="module")
def generic3_chi():
    b = rd.make_bundle("generic3", 1e-3)
    window = star_window(b.system.resonance, 0.01)
    chi = rd.solve_homological(b.system, b.perturbation, 8, window)
    return b, window, chi


def test_lie_flow_zero_time_is_identity(generic3_chi):
    _, _, chi = generic3_chi
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    assert lie_flow(chi, 1e-3, 0.0, s) is s


def test_lie_flow_is_invertible(generic3_chi):
    _, window, chi = generic3_chi
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    fwd = lie_flow(chi, 1e-3, 1.0, s, window=window)
    back = lie_flow(chi, 1e-3, -1.0, fwd, window=window)
    assert s.distance(back) < 1e-10
    # the time-1 map of a Hamiltonian generator is symplectic
    defect = symplecticity_defect(lambda st: lie_flow(chi, 1e-3, 1.0, st), s)
    assert defect < 1e-6


def test_lie_flow_enforces_displacement_budget(generic3_chi):
    _, _, chi = generic3_chi
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    moved = lie_flow(chi, 1e-3, 1.0, s, displacement_bound=1.0)
    assert s.distance(moved) > 0.0
    with pytest.raises(FlowEscapeError):
        lie_flow(chi, 1e-3, 1.0, s, displacement_bound=1e-12)


def test_lie_flow_detects_window_escape(generic3_chi):
    _, _, chi = generic3_chi
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    # a slab much narrower than the flow displacement cannot contain the orbit
    tight = ActionWindow(1.0 - 1e-7, 1.0 + 1e-7, 0.001 - 1e-7, 0.001 + 1e-7)
    with pytest.raises(FlowEscapeError):
        lie_flow(chi, 1e-2, 1.0, s, window=tight)


def test_flow_points_matches_single_state_flow(generic3_chi):
    _, window, chi = generic3_chi
    rng = np.random.default_rng(11)
    th1 = rng.uniform(0, 1, 6)
    th2 = rng.uniform(0, 1, 6)
    I1 = rng.uniform(0.8, 1.2, 6)
    I2 = rng.uniform(-0.005, 0.005, 6)
    T1, T2, J1, J2 = flow_points(chi, 1e-3, 1.0, th1, th2, I1, I2, window=window)
    assert T1.shape == (6,)
    for i in range(6):
        s = lie_flow(chi, 1e-3, 1.0, PhaseState.make(th1[i], th2[i], I1[i], I2[i]))
        assert abs(s.I1 - J1[i]) < 1e-10
        assert abs(s.I2 - J2[i]) < 1e-10
        d1 = abs((np.mod(T1[i] - s.theta1 + 0.5, 1.0)) - 0.5)
        assert d1 < 1e-10
    # lie_flow is the one-point case of flow_points, bit for bit
    one = flow_points(chi, 1e-3, 1.0, th1[0], th2[0], I1[0], I2[0], window=window)
    s = lie_flow(chi, 1e-3, 1.0, PhaseState.make(th1[0], th2[0], I1[0], I2[0]), window=window)
    np.testing.assert_array_equal(s.as_array(), [wrap(one[0]), wrap(one[1]), one[2], one[3]])


def test_flow_points_broadcasts_its_inputs(generic3_chi):
    # axes of a tensor grid, scalars among them, flow to the same bits as the
    # meshgrid they expand to: the points are taken in its order
    _, window, chi = generic3_chi
    th = np.linspace(0.0, 1.0, 6, endpoint=False)
    I1, I2 = np.array([0.8, 1.0, 1.2]), np.array([-0.002, 0.003])
    T1, T2 = np.meshgrid(th, th, indexing="ij")
    out = flow_points(chi, 1e-3, 1.0, th[:, None], th[None, :], 1.0, 0.0)
    mesh = flow_points(chi, 1e-3, 1.0, T1, T2, np.ones_like(T1), np.zeros_like(T1))
    for a, b in zip(out, mesh):
        assert a.shape == (6, 6)
        np.testing.assert_array_equal(a, b)
    axes = (th[:, None, None, None], th[None, :, None, None], I1[:, None], I2)
    out = flow_points(chi, 1e-3, 1.0, *axes, window=window)
    mesh = flow_points(chi, 1e-3, 1.0, *np.meshgrid(th, th, I1, I2, indexing="ij"), window=window)
    for a, b in zip(out, mesh):
        assert a.shape == (6, 6, 3, 2)
        np.testing.assert_array_equal(a, b)


def test_flow_points_window_escape(generic3_chi):
    _, _, chi = generic3_chi
    tight = ActionWindow(1.0 - 1e-7, 1.0 + 1e-7, -1e-7, 1e-7)
    with pytest.raises(FlowEscapeError):
        flow_points(chi, 1e-2, 1.0, 0.3, 0.4, 1.0, 0.0, window=tight)


class _ExcursionGenerator:
    """A generator whose flow moves I1 out by 0.1 and back: I1(t) = I1(0) + 0.1 sin(pi t)."""

    is_zero = False

    def flow_rhs(self, scale):
        def fun(t, y):
            dy = np.zeros_like(y)
            dy[2] = 0.1 * np.pi * np.cos(np.pi * t)
            return dy

        return fun


def test_window_escape_partway_through_the_flow_raises():
    chi = _ExcursionGenerator()
    window = ActionWindow(1.0 - 0.05, 1.0 + 0.05, -0.05, 0.05)
    # the flow ends where it started, so only a check along the way sees the escape
    end = flow_points(chi, 1.0, 1.0, 0.3, 0.4, 1.0, 0.0)
    assert abs(end[2] - 1.0) < 1e-10
    with pytest.raises(FlowEscapeError):
        flow_points(chi, 1.0, 1.0, 0.3, 0.4, 1.0, 0.0, window=window)
    with pytest.raises(FlowEscapeError):
        lie_flow(chi, 1.0, 1.0, PhaseState.make(0.3, 0.4, 1.0, 0.0), window=window)


def test_generator_flows_step_without_solve_ivp(generic3_chi):
    # orbits and flows both step _Dop853; scipy's solve_ivp is not used
    assert not hasattr(integrate_module, "solve_ivp")
    _, window, chi = generic3_chi
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    moved = lie_flow(chi, 1e-3, 1.0, s, window=window)
    assert s.distance(moved) > 0.0
    out = flow_points(chi, 1e-3, 1.0, [0.3, 0.5], [0.4, 0.6], [1.0, 1.0], [0.001, 0.0], window=window)
    assert out[0].shape == (2,)


class _BlowUpGenerator:
    """A generator whose field I1' = I1**2 blows up at t = 0.5 from I1(0) = 2."""

    is_zero = False

    def flow_rhs(self, scale):
        def fun(t, y):
            dy = np.zeros_like(y)
            dy[2] = y[2] ** 2
            return dy

        return fun


def test_collapsed_flow_step_raises_flow_escape():
    chi = _BlowUpGenerator()
    with pytest.raises(FlowEscapeError, match="could not be integrated"):
        flow_points(chi, 1.0, 1.0, 0.3, 0.4, 2.0, 0.0)
    with pytest.raises(FlowEscapeError):
        lie_flow(chi, 1.0, 1.0, PhaseState.make(0.3, 0.4, 2.0, 0.0))


def test_orbit_blow_up_raises_integration_error():
    rhs = _BlowUpGenerator().flow_rhs(1.0)
    with pytest.raises(IntegrationError, match="integration failed: Required step size"):
        integrate(rhs, [0.3, 0.4, 2.0, 0.0], (0.0, 1.0))


class _DrumGenerator:
    """I1' = cos(w t) with the rate w = I2 held fixed: I1(1) = I1(0) + sin(w) / w."""

    is_zero = False

    def __init__(self, calls=None):
        self.calls = calls

    def flow_rhs(self, scale):
        def fun(t, y):
            if self.calls is not None:
                self.calls.append((t, y[3, 0]))
            dy = np.zeros_like(y)
            dy[2] = np.cos(y[3] * t)
            return dy

        return fun


def test_block_started_at_the_whole_time_rejects_a_step_that_is_too_large(monkeypatch):
    monkeypatch.setattr(integrate_module, "_BLOCK", 64)
    rate = np.repeat([1.0, 50.0], 64)
    I1 = np.linspace(0.0, 0.5, rate.size)
    zeros = np.zeros(rate.size)
    calls = []
    out = flow_points(_DrumGenerator(calls), 1.0, 1.0, zeros, zeros, I1, rate)
    first = [t for t, w in calls if w == 1.0]
    last = [t for t, w in calls if w == 50.0]
    # a block calls f at t = 0, then 12 times per attempted step, the last of
    # them at the attempt's end; no block probes for an initial step
    assert len(first) % 12 == 1 and len(last) % 12 == 1
    # every block first tries the whole time; at rate 50 that attempt is
    # rejected and the retry comes back to a shorter step from t = 0
    assert first[12] == last[12] == 1.0
    assert len(last) > 13 and 0.0 < last[24] < last[12]
    np.testing.assert_allclose(out[2], I1 + np.sin(rate) / rate, rtol=0, atol=1e-12)
    for i in range(rate.size):
        alone = flow_points(_DrumGenerator(), 1.0, 1.0, 0.0, 0.0, I1[i], rate[i])
        assert abs(alone[2] - out[2][i]) <= 1e-12


class _CountedGenerator:
    """chi with a count of the calls of its flow field."""

    is_zero = False

    def __init__(self, chi):
        self.chi, self.calls = chi, 0

    def flow_rhs(self, scale):
        rhs = self.chi.flow_rhs(scale)

        def fun(t, y):
            self.calls += 1
            return rhs(t, y)

        return fun


def test_one_block_flow_calls_its_field_13_times(generic3_chi):
    # one accepted step over the whole time: f at t = 0 and 12 stages
    _, window, chi = generic3_chi
    rng = np.random.default_rng(5)
    points = (rng.uniform(0, 1, 2000), rng.uniform(0, 1, 2000),
              rng.uniform(0.995, 1.005, 2000), rng.uniform(-0.005, 0.005, 2000))
    for t in (1.0, -1.0):
        counted = _CountedGenerator(chi)
        flow_points(counted, 1e-3, t, *points, window=window)
        assert counted.calls == 13


def test_only_orbits_choose_an_initial_step(generic3_chi, monkeypatch):
    b, window, chi = generic3_chi
    calls = []
    original = integrate_module._Dop853._initial_step

    def spy(self):
        calls.append(self.t_bound)
        return original(self)

    monkeypatch.setattr(integrate_module._Dop853, "_initial_step", spy)
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    flow_points(chi, 1e-3, 1.0, [0.3, 0.5], [0.4, 0.6], [1.0, 1.0], [0.001, 0.0], window=window)
    lie_flow(chi, 1e-3, -1.0, s, window=window)
    assert calls == []
    integrate(b.rhs(), s.as_array(), (0.0, 0.5), IntegratorConfig(n_samples=2))
    assert calls == [0.5]


def _step_both(fun, y0, t_end, h_abs=None, min_steps=2):
    """Compare _Dop853 with scipy's DOP853 stepped on the same system, step by
    step and bit for bit, then, for a single state, the interpolants on the
    last step at times and at arrays of times; return the number of rejected
    steps and the end state.  A single state, y0 of shape (4,), steps as a
    list of Python floats, and only it has an interpolant."""
    ours, theirs = [], []
    single = y0.shape == (4,)
    with serial_blas():
        stepper = integrate_module._Dop853(fun, 0.0, y0, t_end, 1e-12, 1e-12, h_abs)
        assert isinstance(stepper.y, list) == single
        while stepper.running:
            assert stepper.step()
            ours.append(stepper.y)
        solver = DOP853(fun, 0.0, y0, t_end, rtol=1e-12, atol=1e-12, first_step=h_abs)
        while solver.status == "running":
            solver.step()
            theirs.append(solver.y)
        assert stepper.nfev == solver.nfev
        if single:
            times = np.linspace(solver.t_old, solver.t, 5)
            sol, ref = stepper.dense(), solver.dense_output()
            np.testing.assert_array_equal(sol(times), ref(times))
            for t in times.tolist():
                np.testing.assert_array_equal(sol(t), ref(t))
            assert stepper.nfev == solver.nfev
    assert solver.status == "finished" and len(ours) == len(theirs) >= min_steps
    for a, b in zip(ours, theirs):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(stepper.y, solver.y)
    assert stepper.h_abs == solver.h_abs
    return (solver.nfev - 4) // 12 - len(theirs), stepper.y


def test_float_error_scale_takes_nan_as_np_maximum_does():
    # Python's max(a, b) keeps a when b is NaN; the float path must not
    pairs = [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, math.nan)]
    for a, b in pairs:
        np.testing.assert_array_equal(integrate_module._larger(a, b), np.maximum(a, b))


def test_orbit_stepper_is_scipy_dop853_bit_for_bit():
    # every (4,) state steps in floats: a bundle's field on the generated
    # evaluator, with action-independent and action-dependent perturbations,
    # and plain callables on 4-element arrays, one of them time-dependent
    y0 = np.array([0.3, 0.0, 1.0, 0.0])
    fields = [rd.make_bundle("generic3", 1e-3).rhs(), _action_dependent_bundle(1e-3).rhs()]
    for fun in fields + [lambda t, y: fields[1](t, y)]:
        for t_end in (40.0, -40.0):
            assert _step_both(fun, y0, t_end)[0] > 0
    # I1' = cos(5 t): I1(t) = 1 + sin(5 t) / 5, read at the stages' own times
    drum = _DrumGenerator().flow_rhs(1.0)
    for t_end in (10.0, -10.0):
        rejected, y = _step_both(drum, np.array([0.3, 0.0, 1.0, 5.0]), t_end)
        assert rejected > 0
        assert abs(y[2] - (1.0 + math.sin(5.0 * t_end) / 5.0)) < 1e-10


def test_vendored_tableau_is_scipys():
    for name in ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
        assert np.array_equal(getattr(dop853, name), getattr(DOP853, name)), name
    assert dop853.N_STAGES == DOP853.n_stages
    assert dop853.ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order


def test_stepper_is_scipy_dop853_bit_for_bit(generic3_chi):
    _, _, chi = generic3_chi
    rng = np.random.default_rng(3)
    n = 300
    block = np.stack([
        rng.uniform(0, 1, n), rng.uniform(0, 1, n),
        rng.uniform(0.995, 1.005, n), rng.uniform(-0.005, 0.005, n),
    ])
    rhs = chi.flow_rhs(1e-2)

    def fun(t, y):
        return rhs(t, y.reshape(4, n)).ravel()

    for t_end in (1.0, -1.0):
        _step_both(fun, block.ravel(), t_end)
    # a given first step that is too large: rejections, then a capped growth
    drum = _DrumGenerator().flow_rhs(1.0)
    y0 = np.stack([np.zeros(n), np.zeros(n), np.linspace(0, 1, n), np.full(n, 50.0)])
    assert _step_both(lambda t, y: drum(t, y.reshape(4, n)).ravel(), y0.ravel(), 1.0, 1.0)[0] > 0


def test_lie_flow_is_scipy_dop853_started_at_the_whole_time(generic3_chi):
    # lie_flow steps scipy's DOP853 with first_step = |t|: here one step
    _, window, chi = generic3_chi
    s = PhaseState.make(0.3, 0.4, 1.0, 0.001)
    rhs = chi.flow_rhs(1e-3)

    def fun(t, y):
        return rhs(t, y.reshape(4, 1)).ravel()

    for t in (1.0, -1.0):
        rejected, y = _step_both(fun, s.as_array(), t, abs(t), min_steps=1)
        assert rejected == 0
        moved = lie_flow(chi, 1e-3, t, s, window=window)
        np.testing.assert_array_equal(moved.as_array(), [wrap(y[0]), wrap(y[1]), y[2], y[3]])


class _ShearGenerator:
    """theta1' = I1, the rest fixed: theta1(t) = theta1(0) + t I1."""

    is_zero = False

    def flow_rhs(self, scale):
        def fun(t, y):
            dy = np.zeros_like(y)
            dy[0] = y[2]
            return dy

        return fun


def test_flow_points_memory_is_bounded_by_the_block():
    block = integrate_module._BLOCK
    peaks = {}
    for n in (4 * block, 8 * block):
        points = [np.full(n, v) for v in (0.1, 0.2, 1.0, 0.0)]
        tracemalloc.start()
        try:
            out = flow_points(_ShearGenerator(), 1.0, 1.0, *points)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(out[0], 1.1, rtol=0, atol=1e-12)
    # the extra points cost their input and output arrays, nothing per block
    extra_arrays = 2 * 4 * (4 * block) * 8
    assert peaks[8 * block] - peaks[4 * block] <= extra_arrays


def test_hamiltonian_time_t_map_is_symplectic():
    b = rd.make_bundle("generic3", 1e-2)
    rhs = b.rhs()

    def time_one(state: PhaseState) -> PhaseState:
        rec = integrate(rhs, state.as_array(), (0.0, 1.0), IntegratorConfig(n_samples=2))
        y = rec.y_end
        return PhaseState.make(y[0], y[1], y[2], y[3])

    s = PhaseState.make(0.2, 0.6, 1.0, 0.002)
    assert symplecticity_defect(time_one, s) < 1e-6
