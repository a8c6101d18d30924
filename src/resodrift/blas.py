"""One BLAS thread for the array numerics.

numpy's bundled OpenBLAS runs its matrix products on a pool of worker
threads, and the idle workers spin between calls.  At this package's shapes
(power tables of a few thousand points against a few dozen polynomial rows,
flow blocks of 4 x 20,164 stacked states) a second thread lowers no wall
time, but it roughly doubles the process CPU time.  :func:`serial_blas` pins
the library to one thread for the duration of a call and restores the
previous count afterwards.  It also makes results independent of the host's
core count, since the thread count decides how OpenBLAS splits its sums.

The library is reached through ``ctypes`` on the copy numpy has loaded, and
looked up on the first guarded call, so importing the package costs nothing.
Where no OpenBLAS thread control is found (another BLAS, or a numpy built
without its own OpenBLAS) the guard does nothing: the results are the same
and only the saving is lost.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

# (set, get) pairs: numpy's wheels bundle scipy-openblas with 64-bit integer
# symbols; other OpenBLAS builds export the plain names
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _candidate_libraries():
    """Files that may export numpy's OpenBLAS, numpy's own extension first.

    A symbol looked up on the extension's handle is also searched for in the
    libraries it links against, so that finds the copy numpy really loaded;
    the bundled library directories are the fallback.
    """
    import glob  # here, like the lookup itself, to keep the package import unchanged

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath

    yield _multiarray_umath.__file__
    site = os.path.dirname(os.path.dirname(np.__file__))
    for folder in ("numpy.libs", os.path.join("numpy", ".dylibs")):
        yield from sorted(glob.glob(os.path.join(site, folder, "*openblas*")))


@functools.cache
def _thread_api():
    """(set, get) for the thread count of numpy's OpenBLAS, or None if not found."""
    for path in _candidate_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            try:
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


# The thread count belongs to the process, so the depth count that guards it
# is shared by every thread: the outermost entry pins, the outermost exit
# restores.
_lock = threading.Lock()
_depth = 0
_restore = None


def _enter():
    global _depth, _restore
    with _lock:
        if _depth == 0:
            api = _thread_api()
            if api is not None:
                setter, getter = api
                count = getter()
                if count != 1:
                    setter(1)
                    _restore = functools.partial(setter, count)
        _depth += 1


def _exit():
    global _depth, _restore
    with _lock:
        _depth -= 1
        if _depth == 0 and _restore is not None:
            _restore()
            _restore = None


@contextmanager
def serial_blas():
    """Run the enclosed block (or, as ``@serial_blas()``, each call) on one BLAS thread."""
    _enter()
    try:
        yield
    finally:
        _exit()
