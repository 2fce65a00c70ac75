"""Batched Hermitian solve shared by the WPE and MVDR filter estimates."""

from __future__ import annotations

import numpy as np


def solve_hermitian(a: np.ndarray, b: np.ndarray, fallback) -> np.ndarray:
    """Solve ``a[i] @ x[i] = b[i]`` for a stack of Hermitian matrices.

    One batched ``np.linalg.solve`` (LU with partial pivoting) handles the
    whole stack, indefinite matrices included, and solves each item
    exactly as it would be solved alone. It fails only when an item is
    exactly singular; then every item is solved by
    ``fallback(i, a[i], b[i])``, the caller's per-matrix recovery path
    (diagonal loading, or an error that names the failing item).

    Parameters
    ----------
    a : ndarray, shape (n, m, m)
    b : ndarray, shape (n, m, r)

    Returns
    -------
    ndarray, shape (n, m, r)
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.stack([fallback(i, a[i], b[i]) for i in range(a.shape[0])])
