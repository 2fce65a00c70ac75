"""Batched WPE, CACGMM and MVDR kernels against per-bin reference loops.

The references in ``reference_kernels`` solve one frequency bin (or one
mixture class) at a time with einsum and per-bin factorizations. The
batched kernels must agree with them to float rounding: 1e-10 relative
for filters, dereverberated output, masks, covariances and beamformer
weights, and 1e-12 absolute for the EM log-likelihood trace. The
fallback tests check that an indefinite matrix is solved in the batch
without touching its neighbours' bits, that a batch holding one
singular matrix takes the per-bin path, and that errors name the global
frequency bin.
"""

import importlib

import numpy as np
import pytest

import reference_kernels as ref
from farfield import (
    ActivityPattern,
    CacgmmState,
    ComplexSpectrogram,
    NumericalError,
    ParameterError,
    StftParams,
    WpeConfig,
    cacgmm_posteriors,
    fit_cacgmm,
    mvdr_weights,
    wpe,
)

wpe_module = importlib.import_module("farfield.wpe")
gss_module = importlib.import_module("farfield.gss")

FS = 16000
RTOL = 1e-10
LL_ATOL = 1e-12


def assert_rel_close(actual, expected, tol=RTOL):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    err = float(np.max(np.abs(np.asarray(actual) - expected))) / scale
    assert err <= tol, f"relative deviation {err:.3e} > {tol:.0e}"


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _spec(values):
    fft = 2 * (values.shape[1] - 1)
    params = StftParams(frame_length=fft, frame_shift=fft // 4, fft_size=fft)
    return ComplexSpectrogram(np.asarray(values, dtype=np.complex128), params, FS)


def _hermitian(m):
    """Hermitian part; its diagonal is exactly real."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _gram(a):
    return _hermitian(a @ np.conj(np.swapaxes(a, -1, -2)))


def _hermitian_with_eigenvalues(rng, eigenvalues):
    q, _ = np.linalg.qr(_complex(rng, (len(eigenvalues), len(eigenvalues))))
    return _hermitian((q * np.asarray(eigenvalues)) @ q.conj().T)


# ------------------------------------------------------------------ WPE


@pytest.mark.parametrize("block", [4, 8])
def test_wpe_matches_reference_with_a_partial_last_block(monkeypatch, block):
    # 11 bins: neither block size divides it
    monkeypatch.setattr(wpe_module, "_BLOCK_BINS", block)
    values = _complex(np.random.default_rng(1), (80, 11, 3))
    cfg = WpeConfig(taps=4, delay=2, iterations=3)
    assert_rel_close(wpe(_spec(values), cfg).values, ref.wpe(values, cfg))


def test_wpe_default_block_matches_reference_on_a_full_spectrum():
    values = _complex(np.random.default_rng(2), (60, 257, 2))
    assert 257 % wpe_module._BLOCK_BINS
    cfg = WpeConfig(taps=4, delay=3, iterations=2)
    assert_rel_close(wpe(_spec(values), cfg).values, ref.wpe(values, cfg))


def test_wpe_block_mixing_silent_and_live_bins(monkeypatch):
    monkeypatch.setattr(wpe_module, "_BLOCK_BINS", 4)
    values = _complex(np.random.default_rng(3), (70, 9, 2))
    silent = [1, 2, 5, 8]
    values[:, silent, :] = 0.0
    cfg = WpeConfig(taps=3, delay=2, iterations=2)
    out = wpe(_spec(values), cfg).values
    assert np.all(out[:, silent, :] == 0.0)
    assert_rel_close(out, ref.wpe(values, cfg))


def test_wpe_all_silent_input_has_an_empty_batch(monkeypatch):
    monkeypatch.setattr(wpe_module, "_BLOCK_BINS", 4)
    values = np.zeros((40, 7, 2), dtype=complex)
    cfg = WpeConfig(taps=3, delay=1, iterations=2)
    out = wpe(_spec(values), cfg).values
    np.testing.assert_array_equal(out, ref.wpe(values, cfg))
    g = wpe_module._prediction_filters(np.zeros((3, 6, 6)), np.zeros((3, 6, 2)), 1e-6, 0)
    assert g.shape == (3, 6, 2) and np.all(g == 0.0)


def test_wpe_filters_match_reference_solve():
    rng = np.random.default_rng(4)
    r = _gram(_complex(rng, (6, 8, 50)))
    p = _complex(rng, (6, 8, 2))
    r[2] = 0.0  # silent bin
    g = wpe_module._prediction_filters(r, p, 1e-6, 16)
    assert np.all(g[2] == 0.0)
    assert_rel_close(g, ref.wpe_filters(r, p, 1e-6))


def _spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.filterwarnings("error")
def test_wpe_indefinite_matrix_falls_back_to_per_bin_ldl():
    rng = np.random.default_rng(5)
    r = np.stack(
        [_hermitian_with_eigenvalues(rng, rng.uniform(1.0, 3.0, 6)) for _ in range(5)]
    )
    # indefinite but non-singular, positive trace: Cholesky fails, LDL solves
    r[3] = _hermitian_with_eigenvalues(rng, [4.0, 3.0, 2.0, 1.0, -1.0, -2.0])
    p = _complex(rng, (5, 6, 2))
    g = wpe_module._prediction_filters(r, p, 0.0, 40)
    assert_rel_close(g, ref.wpe_filters(r, p, 0.0))
    assert_rel_close(r @ g, p)


@pytest.mark.parametrize("diagonal_loading", [0.0, 1e-6])
def test_wpe_indefinite_bin_leaves_every_bin_as_solved_alone(diagonal_loading):
    rng = np.random.default_rng(8)
    r = np.stack(
        [_hermitian_with_eigenvalues(rng, rng.uniform(1.0, 3.0, 6)) for _ in range(5)]
    )
    r[1] = _hermitian_with_eigenvalues(rng, [4.0, 3.0, 2.0, 1.0, -1.0, -2.0])
    p = _complex(rng, (5, 6, 2))
    g = wpe_module._prediction_filters(r, p, diagonal_loading, 40)
    for i in range(5):
        alone = wpe_module._prediction_filters(
            r[i : i + 1], p[i : i + 1], diagonal_loading, 40 + i
        )
        np.testing.assert_array_equal(g[i], alone[0])


def test_wpe_singular_matrix_error_names_the_global_bin():
    rng = np.random.default_rng(6)
    hist = _complex(rng, (4, 6, 40))
    hist[2, 1] = 0.0  # one history row empty: singular without loading
    r = _gram(hist)
    p = _complex(rng, (4, 6, 2))
    with pytest.raises(NumericalError, match="frequency bin 42$"):
        wpe_module._prediction_filters(r, p, 0.0, 40)


@pytest.mark.filterwarnings("error")
def test_wpe_error_in_a_later_block_names_the_global_bin(monkeypatch):
    monkeypatch.setattr(wpe_module, "_BLOCK_BINS", 4)
    values = _complex(np.random.default_rng(7), (60, 9, 2))
    values[:, 6, 1] = 0.0  # bin 6 = second bin of the second block
    with pytest.raises(NumericalError, match="frequency bin 6$"):
        wpe(_spec(values), WpeConfig(taps=3, delay=2, iterations=1, diagonal_loading=0.0))


# --------------------------------------------------------------- CACGMM


def _cacgmm_instance(seed, frames=50, bins=7, channels=3):
    rng = np.random.default_rng(seed)
    values = _complex(rng, (frames, bins, channels))
    values[rng.random((frames, bins)) < 0.05] = 0.0  # zero-norm bins
    active = rng.random((4, frames)) < 0.6
    active[2] = False  # a speaker that never talks in the window
    active[-1] = True
    return values, ActivityPattern(("a", "b", "c"), active)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_cacgmm_matches_reference_em(seed):
    values, activity = _cacgmm_instance(seed)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=6, seed=seed)
    b0 = ref.initial_covariances(values.shape[1], 4, values.shape[2], seed)
    b, trace, gamma = ref.fit_cacgmm(values, activity.active, b0, 6)
    assert_rel_close(state.B, b)
    assert_rel_close(masks.gamma, gamma)
    np.testing.assert_allclose(state.log_likelihood_trace, trace, rtol=0, atol=LL_ATOL)


def test_fit_cacgmm_all_zero_input_matches_reference():
    values = np.zeros((20, 5, 2), dtype=complex)
    activity = ActivityPattern(("a",), np.ones((2, 20), dtype=bool))
    state, masks = fit_cacgmm(_spec(values), activity, iterations=3, seed=0)
    b0 = ref.initial_covariances(5, 2, 2, 0)
    b, trace, gamma = ref.fit_cacgmm(values, activity.active, b0, 3)
    assert_rel_close(state.B, b)
    np.testing.assert_array_equal(masks.gamma, gamma)
    np.testing.assert_allclose(state.log_likelihood_trace, trace, rtol=0, atol=LL_ATOL)


def test_posteriors_match_reference_e_step():
    values, activity = _cacgmm_instance(3)
    b = ref.initial_covariances(values.shape[1], 4, values.shape[2], 9)
    b = b + 0.5 * np.eye(values.shape[2])  # away from the identity start
    masks = cacgmm_posteriors(_spec(values), activity, CacgmmState(B=b))
    z, nonzero = ref.unit_directions(values)
    expected = ref.posteriors(ref.log_densities(z, b)[0], activity.active, nonzero)
    assert_rel_close(masks.gamma, expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_masks_equal_the_posteriors_of_the_fitted_state(seed):
    # one E-step serves both: zero-norm bins and a never-active class included
    values, activity = _cacgmm_instance(seed)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=4, seed=seed)
    again = cacgmm_posteriors(_spec(values), activity, state)
    np.testing.assert_array_equal(masks.gamma, again.gamma)
    assert masks.gamma.flags.c_contiguous


@pytest.mark.parametrize(
    "shape", [(6, 4, 3, 3), (7, 3, 3, 3), (7, 4, 2, 2)], ids=["bins", "classes", "channels"]
)
def test_posteriors_reject_a_state_of_the_wrong_shape(shape):
    values, activity = _cacgmm_instance(0)  # 7 bins, 4 classes, 3 channels
    state = CacgmmState(B=np.broadcast_to(np.eye(shape[2]), shape))
    with pytest.raises(ParameterError, match="state B shape"):
        cacgmm_posteriors(_spec(values), activity, state)


# ----------------------------------------------------------------- MVDR


def _covariances(rng, bins, channels):
    phi_ss = _gram(_complex(rng, (bins, channels, 1)))
    return phi_ss, _gram(_complex(rng, (bins, channels, 3 * channels)))


def test_mvdr_matches_reference_loop():
    phi_ss, phi_nn = _covariances(np.random.default_rng(10), 9, 4)
    w = mvdr_weights(phi_ss, phi_nn, reference_channel=2, weight_cap=np.inf).w
    assert_rel_close(w, ref.mvdr_weights(phi_ss, phi_nn, 2))


def test_mvdr_singular_noise_covariance_takes_the_loading_retry(monkeypatch):
    rng = np.random.default_rng(11)
    phi_ss, phi_nn = _covariances(rng, 6, 3)
    n = np.array([[1.0], [0.5], [-2.0]])
    phi_nn[4] = n @ n.T  # rank one with exact elimination: singular, fixed by loading
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(phi_nn[4], phi_ss[4])
    calls = _spy(monkeypatch, gss_module, "_loaded_solve")
    w = mvdr_weights(phi_ss, phi_nn, reference_channel=0, weight_cap=np.inf).w
    assert [c[0] for c in calls] == list(range(6))
    assert_rel_close(w, ref.mvdr_weights(phi_ss, phi_nn, 0))


def test_mvdr_unrecoverable_bin_error_names_the_bin():
    phi_ss, phi_nn = _covariances(np.random.default_rng(12), 6, 2)
    # negative trace: the loading floor is absorbed and it stays singular
    phi_nn[4] = -1e10 * np.ones((2, 2))
    with pytest.raises(NumericalError, match="frequency bin 4$"):
        mvdr_weights(phi_ss, phi_nn, reference_channel=0)
