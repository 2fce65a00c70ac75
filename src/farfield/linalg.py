"""Batched Hermitian solve shared by the WPE and MVDR filter estimates."""

from __future__ import annotations

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
