"""Batched Hermitian solve shared by the WPE and MVDR filter estimates."""

from __future__ import annotations

import numpy as np


def solve_hermitian(a: np.ndarray, b: np.ndarray, fallback) -> np.ndarray:
    """Solve ``a[i] @ x[i] = b[i]`` for a stack of Hermitian matrices.

    One batched Cholesky factorization checks that every matrix is
    numerically positive definite; if so, one batched solve handles the
    whole stack (numpy has no batched triangular solve to reuse the
    factor with). Otherwise every item is solved by
    ``fallback(i, a[i], b[i])``, the caller's per-matrix recovery path
    (pivoted LDL, diagonal loading), which can also name the failing item.

    Parameters
    ----------
    a : ndarray, shape (n, m, m)
    b : ndarray, shape (n, m, r)

    Returns
    -------
    ndarray, shape (n, m, r)
    """
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.stack([fallback(i, a[i], b[i]) for i in range(a.shape[0])])
    return np.linalg.solve(a, b)
