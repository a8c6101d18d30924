"""serial_blas: one OpenBLAS thread on the array paths, never on the scalar RHS.

The thread-count assertions need numpy's OpenBLAS thread control; they are
skipped where it is not found.  The no-op, nesting and scalar-branch checks
run everywhere.
"""

import sys
import threading

import numpy as np
import pytest

import resodrift as rd
from resodrift import averaging, blas, fourier
from resodrift.integrate import flow_points

API = blas._thread_api()
needs_openblas = pytest.mark.skipif(API is None, reason="no OpenBLAS thread control found")


def _threads():
    return API[1]() if API is not None else None


@pytest.fixture()
def two_threads():
    """The library at two threads, so that pinning and restoring are visible."""
    if API is None:
        yield
        return
    setter, getter = API
    before = getter()
    setter(2)
    try:
        yield
    finally:
        setter(before)


def _count_is(n):
    return API is None or _threads() == n


def test_guard_pins_one_thread_and_restores(two_threads):
    with blas.serial_blas():
        assert _count_is(1)
        with blas.serial_blas():
            assert _count_is(1)
        # leaving the inner guard keeps the outer pin
        assert _count_is(1)
    assert _count_is(2)

    with pytest.raises(RuntimeError, match="inside"):
        with blas.serial_blas():
            raise RuntimeError("inside")
    assert _count_is(2)

    @blas.serial_blas()
    def pinned():
        return _threads()

    # as a decorator the guard wraps every call, not just the first
    assert [pinned(), pinned()] == ([1, 1] if API is not None else [None, None])
    assert _count_is(2)
    assert blas._depth == 0

    # a library already at one thread is left at one
    if API is not None:
        API[0](1)
        with blas.serial_blas():
            pass
        assert _threads() == 1


def test_guard_depth_is_shared_between_threads(two_threads):
    """Nested guards from more threads than cores leave the count restored."""
    errors = []

    def worker():
        for _ in range(200):
            with blas.serial_blas():
                with blas.serial_blas():
                    if not _count_is(1):
                        errors.append(_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert blas._depth == 0
    assert _count_is(2)


def test_guard_is_a_no_op_without_the_library(monkeypatch, two_threads):
    table = rd.get_entry("generic3").perturbation.table()
    rng = np.random.default_rng(7)
    points = rng.uniform(-0.5, 0.5, size=(4, 50))
    expected = table.evaluate(*points)

    monkeypatch.setattr(blas, "_thread_api", lambda: None)
    with blas.serial_blas():
        # nothing found, so nothing is pinned
        assert _count_is(2)
        got = table.evaluate(*points)
    assert _count_is(2)
    assert blas._depth == 0
    np.testing.assert_array_equal(got, expected)


class _RecordingGenerator:
    """A generator whose flow is zero and which records the BLAS thread count."""

    is_zero = False

    def __init__(self):
        self.seen = []

    def flow_rhs(self, scale):
        def fun(_t, y):
            self.seen.append(_threads())
            return np.zeros_like(y)

        return fun


@needs_openblas
def test_flow_points_runs_on_one_thread(two_threads):
    chi = _RecordingGenerator()
    zeros = np.zeros(5)
    out = flow_points(chi, 1.0, 1.0, zeros, zeros, zeros + 0.5, zeros)
    assert chi.seen and set(chi.seen) == {1}
    np.testing.assert_array_equal(out[2], zeros + 0.5)
    assert _threads() == 2


@needs_openblas
def test_one_step_build_runs_on_one_thread(monkeypatch, two_threads):
    seen = []
    solve = averaging.solve_homological

    def recording_solve(*args, **kwargs):
        seen.append(_threads())
        return solve(*args, **kwargs)

    monkeypatch.setattr(averaging, "solve_homological", recording_solve)
    rd.one_step_normal_form(rd.make_bundle("generic3", 1e-2))
    assert seen and set(seen) == {1}
    assert _threads() == 2


def test_scalar_rhs_never_enters_the_guard(monkeypatch):
    calls = []
    guard = fourier.serial_blas

    def spy():
        calls.append(1)
        return guard()

    monkeypatch.setattr(fourier, "serial_blas", spy)
    bundle = rd.make_bundle("generic3", 1e-3)
    rhs = bundle.rhs()
    rhs(0.0, np.array([0.1, 0.2, 0.95, 0.001]))
    assert calls == []
    # the spy does see the array branch of the same table
    bundle.vector_field(np.zeros(3), np.zeros(3), np.ones(3), np.zeros(3))
    assert calls == [1]
