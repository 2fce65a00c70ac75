"""Batched Hermitian solve shared by the WPE and MVDR filter estimates,
and the worker pool that runs their frequency blocks.

Every stage after the STFT is independent per frequency bin, so WPE and
the mixture-model EM run on blocks of bins planned by :func:`map_blocks`.
Only the OpenBLAS bundled with the numpy wheel can be held at one
thread from here; with any other BLAS the blocks run on one worker.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import NumericalError

_LOADING_STEP = 1e-6  # retry loading relative to trace / m
_LOADING_FLOOR = 1e-10  # smallest retry loading


def solve_hermitian(a: np.ndarray, b: np.ndarray, bins, what: str) -> np.ndarray:
    """Solve ``a[i] @ x[i] = b[i]`` for a stack of Hermitian matrices.

    One batched ``np.linalg.solve`` (LU with partial pivoting) handles the
    whole stack, indefinite matrices included, and solves each item
    exactly as it would be solved alone. It fails only when an item is
    exactly singular; then every item is solved alone, and one that is
    singular gets max(1e-6 * trace / m, 1e-10) added to its diagonal and
    is solved once more.

    Parameters
    ----------
    a : ndarray, shape (n, m, m)
    b : ndarray, shape (n, m, r)
    bins : sequence of int
        Frequency bin of each item, named in the error with ``what``.

    Returns
    -------
    ndarray, shape (n, m, r)

    Raises
    ------
    NumericalError
        An item is still singular after the loading.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.stack([_loaded_solve(a[i], b[i], bins[i], what) for i in range(len(a))])


def _loaded_solve(a: np.ndarray, b: np.ndarray, bin_: int, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        m = len(a)
        load = max(_LOADING_STEP * a.trace().real / m, _LOADING_FLOOR)
        try:
            return np.linalg.solve(a + load * np.eye(m), b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{what} singular in frequency bin {bin_}") from exc


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with the
    numpy wheel, or None for any other BLAS build."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread(contextlib.ContextDecorator):
    """Holds BLAS at one thread while any thread is inside the context
    (or a function it decorates).

    The count is process-wide and a library caller may run
    ``gss_enhance`` from several threads, so entries nest under a lock:
    the first saves the count and sets 1, the last restores it. Without
    the thread-count functions it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        blas = _openblas_threads()
        with self._lock:
            if self._depth == 0 and blas is not None:
                self._saved = blas[0]()
                blas[1](1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        blas = _openblas_threads()
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and blas is not None:
                blas[1](self._saved)
        return False


one_blas_thread = _OneBlasThread()


def worker_count() -> int:
    """Workers of :func:`map_blocks`: the usable cores, or 1 where BLAS
    cannot be held at one thread and its own threads would compete."""
    return len(os.sched_getaffinity(0)) if _openblas_threads() is not None else 1


def map_blocks(fn, n_bins: int, n_frames: int, budget: int) -> list:
    """``fn(lo, hi)`` for each block ``lo:hi`` of ``n_bins`` frequency
    bins, on :func:`worker_count` threads with BLAS at one thread; the
    results in bin order.

    The one block rule of the package: a block holds
    ``max(1, min(ceil(n_bins / workers), budget // n_frames))`` bins, so
    about ``budget`` bins x frames, and no more than its share of the
    bins when they are spread over the workers. The caller's budget
    trades per-call overhead (short windows want wide blocks) against
    the working set in flight (long ones want narrow blocks). Output bits
    depend neither on the block size nor on the worker count, and with
    BLAS at one thread not on the BLAS thread count either: a
    multithreaded OpenBLAS ``zgemm`` splits its sums differently at
    different thread counts.

    ``fn`` runs on the worker threads, so it calls only the private
    block functions of the kernels and :func:`solve_hermitian`; the
    public stage functions (``wpe``, ``fit_cacgmm``, ...) stay on the
    calling thread, where a wrapper that times them by call nesting sees
    one call stack. Of the failing blocks, the exception of the first in
    bin order is raised, with its class and message.
    """
    workers = worker_count()
    size = max(1, min(-(-n_bins // workers), budget // n_frames))
    with one_blas_thread, ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda lo: fn(lo, min(lo + size, n_bins)), range(0, n_bins, size)))
