"""Batched WPE, CACGMM and MVDR kernels against per-bin reference loops.

The references in ``reference_kernels`` solve one frequency bin (or one
mixture class) at a time with einsum and per-bin factorizations. The
batched kernels must agree with them to float rounding: 1e-10 relative
for filters, dereverberated output, masks, covariances and beamformer
weights, and 1e-12 absolute for the EM log-likelihood trace (1e-10
relative on an instance whose directional bins stop at different
iterations, where log densities lie far from 0). The
shared-solve tests call ``linalg.solve_hermitian`` directly: every item
gets the bits of its solve alone, whether the batch succeeds or one
singular item sends it down the per-item path; a singular item is
loaded once and retried; one that stays singular names its bin. The
WPE tests check that the global frequency bins reach that solve. The
CACGMM's packed real direction statistics must equal the complex outer
products within 1e-14, and its Gauss-Jordan inverses and
log-determinants numpy's within 4 * C * cond * eps, including
covariances held up only by the fit's 1e-10 * C floor. Every class's
MVDR target and noise covariances, from one blocked product of the
masks with the packed x x^H, must match a per-bin loop that weighs the
noise by 1 - gamma_k, and the noise covariance must stay positive
semidefinite where one class holds all but 1e-12 of a bin. WPE, the EM
and that product run in frequency blocks on worker threads: their
outputs must be the same bits at any worker count and block size, WPE's traced peak must
stay within a few times its input, and the scope that holds BLAS at
one thread must nest across threads.
"""

import importlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference_kernels as ref
from farfield import (
    ActivityPattern,
    CacgmmState,
    ComplexSpectrogram,
    MaskSet,
    NumericalError,
    ParameterError,
    StftParams,
    WpeConfig,
    cacgmm_posteriors,
    fit_cacgmm,
    mvdr_beamform,
    mvdr_weights,
    select_reference_channel,
    spatial_covariance,
    wpe,
)

wpe_module = importlib.import_module("farfield.wpe")
gss_module = importlib.import_module("farfield.gss")
linalg_module = importlib.import_module("farfield.linalg")

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


def _workers(monkeypatch, n):
    """Run the frequency blocks on ``n`` worker threads."""
    monkeypatch.setattr(linalg_module, "worker_count", lambda: n)


# ------------------------------------------------------------------ WPE


@pytest.mark.parametrize("block", [4, 8])
def test_wpe_matches_reference_with_a_partial_last_block(monkeypatch, block):
    # 11 bins: neither block size divides it; one worker, so no cap below the budget
    _workers(monkeypatch, 1)
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", block * 80)
    values = _complex(np.random.default_rng(1), (80, 11, 3))
    cfg = WpeConfig(taps=4, delay=2, iterations=3)
    assert_rel_close(wpe(_spec(values), cfg).values, ref.wpe(values, cfg))


def test_wpe_default_block_matches_reference_on_a_full_spectrum(monkeypatch):
    values = _complex(np.random.default_rng(2), (60, 257, 2))
    calls = _spy(monkeypatch, wpe_module, "_wpe_block")
    cfg = WpeConfig(taps=4, delay=3, iterations=2)
    assert_rel_close(wpe(_spec(values), cfg).values, ref.wpe(values, cfg))
    sizes = [len(x) for x, _, _ in sorted(calls, key=lambda c: c[2])]
    assert sum(sizes) == 257 and sizes[-1] < sizes[0]  # a partial last block


def test_wpe_block_mixing_silent_and_live_bins(monkeypatch):
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", 4 * 70)
    values = _complex(np.random.default_rng(3), (70, 9, 2))
    silent = [1, 2, 5, 8]
    values[:, silent, :] = 0.0
    cfg = WpeConfig(taps=3, delay=2, iterations=2)
    out = wpe(_spec(values), cfg).values
    assert np.all(out[:, silent, :] == 0.0)
    assert_rel_close(out, ref.wpe(values, cfg))


def test_wpe_all_silent_input_gets_zero_filters(monkeypatch):
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", 4 * 40)
    values = np.zeros((40, 7, 2), dtype=complex)
    cfg = WpeConfig(taps=3, delay=1, iterations=2)
    out = wpe(_spec(values), cfg).values
    np.testing.assert_array_equal(out, ref.wpe(values, cfg))
    g = wpe_module._prediction_filters(np.zeros((3, 6, 6)), np.zeros((3, 6, 2)), 0)
    assert g.shape == (3, 6, 2) and np.all(g == 0.0)


def test_wpe_filters_match_reference_solve():
    rng = np.random.default_rng(4)
    r = _gram(_complex(rng, (6, 8, 50)))
    p = _complex(rng, (6, 8, 2))
    r[2] = p[2] = 0.0  # silent bin: no history, so no cross-correlation either
    g = wpe_module._prediction_filters(r, p, 16)
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


def _without_loading(monkeypatch, retry=True):
    """Zero WPE's diagonal loading and, unless ``retry``, the solve's retry."""
    monkeypatch.setattr(wpe_module, "_DIAGONAL_LOADING", 0.0)
    if not retry:
        monkeypatch.setattr(linalg_module, "_LOADING_STEP", 0.0)
        monkeypatch.setattr(linalg_module, "_LOADING_FLOOR", 0.0)


@pytest.mark.filterwarnings("error")
def test_wpe_indefinite_matrix_falls_back_to_per_bin_ldl(monkeypatch):
    _without_loading(monkeypatch)
    rng = np.random.default_rng(5)
    r = np.stack(
        [_hermitian_with_eigenvalues(rng, rng.uniform(1.0, 3.0, 6)) for _ in range(5)]
    )
    # indefinite but non-singular, positive trace: Cholesky fails, LDL solves
    r[3] = _hermitian_with_eigenvalues(rng, [4.0, 3.0, 2.0, 1.0, -1.0, -2.0])
    p = _complex(rng, (5, 6, 2))
    g = wpe_module._prediction_filters(r, p, 40)
    assert_rel_close(g, ref.wpe_filters(r, p, 0.0))
    assert_rel_close(r @ g, p)


@pytest.mark.parametrize("diagonal_loading", [0.0, 1e-6])
def test_wpe_indefinite_bin_leaves_every_bin_as_solved_alone(monkeypatch, diagonal_loading):
    monkeypatch.setattr(wpe_module, "_DIAGONAL_LOADING", diagonal_loading)
    rng = np.random.default_rng(8)
    r = np.stack(
        [_hermitian_with_eigenvalues(rng, rng.uniform(1.0, 3.0, 6)) for _ in range(5)]
    )
    r[1] = _hermitian_with_eigenvalues(rng, [4.0, 3.0, 2.0, 1.0, -1.0, -2.0])
    p = _complex(rng, (5, 6, 2))
    g = wpe_module._prediction_filters(r, p, 40)
    for i in range(5):
        alone = wpe_module._prediction_filters(r[i : i + 1], p[i : i + 1], 40 + i)
        np.testing.assert_array_equal(g[i], alone[0])


def _singular_wpe_block(seed):
    """Four bins of normal equations; one empty history row makes bin 2 singular."""
    rng = np.random.default_rng(seed)
    hist = _complex(rng, (4, 6, 40))
    hist[2, 1] = 0.0
    return _gram(hist), _complex(rng, (4, 6, 2))


def test_wpe_singular_bin_takes_the_loading_retry(monkeypatch):
    _without_loading(monkeypatch)
    r, p = _singular_wpe_block(6)
    calls = _spy(monkeypatch, wpe_module, "solve_hermitian")
    g = wpe_module._prediction_filters(r, p, 40)
    assert list(calls[0][2]) == [40, 41, 42, 43]
    assert calls[0][3] == "correlation matrix"
    for i in (0, 1, 3):
        np.testing.assert_array_equal(g[i], np.linalg.solve(r[i], p[i]))
    load = 1e-6 * r[2].trace().real / 6
    np.testing.assert_array_equal(g[2], np.linalg.solve(r[2] + load * np.eye(6), p[2]))


def test_wpe_singular_matrix_error_names_the_global_bin(monkeypatch):
    _without_loading(monkeypatch, retry=False)
    r, p = _singular_wpe_block(6)
    with pytest.raises(NumericalError, match="^correlation matrix singular in frequency bin 42$"):
        wpe_module._prediction_filters(r, p, 40)


@pytest.mark.filterwarnings("error")
def test_wpe_error_in_a_later_block_names_the_global_bin(monkeypatch):
    _workers(monkeypatch, 1)
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", 4 * 60)
    _without_loading(monkeypatch, retry=False)
    values = _complex(np.random.default_rng(7), (60, 9, 2))
    values[:, 6, 1] = 0.0  # bin 6 = second bin of the second block
    with pytest.raises(NumericalError, match="frequency bin 6$"):
        wpe(_spec(values), WpeConfig(taps=3, delay=2, iterations=1))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "budget",
    [pytest.param(69, id="1"), pytest.param(4 * 70, id="4"), pytest.param(16 * 70, id="16")],
)
def test_wpe_output_bits_do_not_depend_on_workers_or_block_size(monkeypatch, workers, budget):
    # ids are bins per block at 70 frames: a budget below the frame count gives 1
    values = _complex(np.random.default_rng(9), (70, 33, 3))
    values[:, 5, :] = 0.0  # a silent bin
    cfg = WpeConfig(taps=3, delay=2, iterations=2)
    _workers(monkeypatch, 1)
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", 33 * 70)
    alone = wpe(_spec(values), cfg).values
    _workers(monkeypatch, workers)
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", budget)
    np.testing.assert_array_equal(wpe(_spec(values), cfg).values, alone)


def test_wpe_error_in_several_blocks_names_the_lowest_bin(monkeypatch):
    monkeypatch.setattr(wpe_module, "_BLOCK_BIN_FRAMES", 2 * 60)
    _workers(monkeypatch, 3)
    _without_loading(monkeypatch, retry=False)
    values = _complex(np.random.default_rng(7), (60, 9, 2))
    values[:, [3, 6, 8], 1] = 0.0  # bins of the second, fourth and fifth blocks
    with pytest.raises(NumericalError, match="^correlation matrix singular in frequency bin 3$"):
        wpe(_spec(values), WpeConfig(taps=3, delay=2, iterations=1))


def test_wpe_memory_is_bounded_by_the_blocks_in_flight(monkeypatch):
    # a whole-window working set of bins x C*K x frames would be 40 times the input
    _workers(monkeypatch, 2)
    spec = _spec(_complex(np.random.default_rng(10), (2000, 33, 4)))
    tracemalloc.start()
    try:
        wpe(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spec.values.nbytes, f"peak {peak / spec.values.nbytes:.1f}x the input"


# --------------------------------------------------------------- CACGMM


def _cacgmm_instance(seed, frames=50, bins=7, channels=3):
    rng = np.random.default_rng(seed)
    values = _complex(rng, (frames, bins, channels))
    values[rng.random((frames, bins)) < 0.05] = 0.0  # zero-norm bins
    active = rng.random((4, frames)) < 0.6
    active[2] = False  # a speaker that never talks in the window
    active[-1] = True
    return values, ActivityPattern(("a", "b", "c"), active)


def _silent_bin_instance(seed):
    # zero-norm bins, one silent bin and a never-active class
    values, activity = _cacgmm_instance(seed)
    values[:, 4, :] = 0.0
    return values, activity


EM_CAP = 8


def _identity(n_bins, n_classes, n_ch):
    """The covariances every EM starts from: B = I for every class."""
    return np.broadcast_to(np.eye(n_ch, dtype=np.complex128), (n_bins, n_classes, n_ch, n_ch))


def _stopping_instance(seed, frames=120, bins=6, channels=3):
    """Two directional speakers with overlapping activity over a noise
    floor that rises with frequency, and a last bin of white noise.

    The directional bins converge and stop at different iterations:
    after 4 to 9 M-steps on seeds 0-19, and before ``EM_CAP`` on the
    seeds the tests use. The white-noise bin's log-likelihood ratio to
    the isotropic model stays near 0 and keeps gaining more than the
    tolerance: it ran at least 11 M-steps on those seeds, so it runs to
    ``EM_CAP``.
    """
    rng = np.random.default_rng(seed)
    active = np.ones((3, frames), dtype=bool)
    active[0, 70:] = False
    active[1, :50] = False
    steering = _complex(rng, (2, bins, channels))
    sources = _complex(rng, (2, frames)) * active[:2]
    values = np.einsum("kt,kfc->tfc", sources, steering)
    values += np.geomspace(0.03, 3.0, bins)[None, :, None] * _complex(rng, values.shape)
    values[:, -1] = _complex(rng, (frames, channels))
    return values, ActivityPattern(("a", "b"), active)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_cacgmm_matches_reference_em(seed):
    values, activity = _cacgmm_instance(seed)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=6)
    b0 = _identity(values.shape[1], 4, values.shape[2])
    b, trace, gamma, _ = ref.fit_cacgmm(values, activity.active, b0, 6)
    assert_rel_close(state.B, b)
    assert_rel_close(masks.gamma, gamma)
    np.testing.assert_allclose(state.log_likelihood_trace, trace, rtol=0, atol=LL_ATOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_cacgmm_stops_each_bin_where_the_reference_does(seed):
    values, activity = _stopping_instance(seed)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=EM_CAP)
    b0 = _identity(values.shape[1], 3, values.shape[2])
    b, trace, gamma, steps = ref.fit_cacgmm(values, activity.active, b0, EM_CAP)
    assert len(set(steps[:-1])) >= 2 and max(steps[:-1]) < EM_CAP
    assert steps[-1] == EM_CAP  # the white-noise bin
    assert_rel_close(state.B, b)
    assert_rel_close(masks.gamma, gamma)
    # directional bins: log densities far from 0, so a relative tolerance
    assert_rel_close(state.log_likelihood_trace, trace)
    assert len(state.log_likelihood_trace) == EM_CAP
    assert np.all(np.diff(state.log_likelihood_trace) >= -1e-6)


def test_fit_cacgmm_stopped_bins_ignore_the_cap_and_white_noise_runs_to_it():
    values, activity = _stopping_instance(0)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=EM_CAP)
    longer, longer_masks = fit_cacgmm(_spec(values), activity, iterations=EM_CAP + 1)
    np.testing.assert_array_equal(longer.B[:-1], state.B[:-1])
    np.testing.assert_array_equal(longer_masks.gamma[:, :, :-1], masks.gamma[:, :, :-1])
    assert not np.array_equal(longer.B[-1], state.B[-1])
    # stopped bins carry their last value, so the longer trace only appends
    np.testing.assert_allclose(
        longer.log_likelihood_trace[:EM_CAP], state.log_likelihood_trace, rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("block_bins", [1, 3])
@pytest.mark.parametrize(
    "seed, instance",
    [(0, _silent_bin_instance), (1, _silent_bin_instance), (0, _stopping_instance)],
    ids=["0", "1", "stops"],
)
def test_fit_cacgmm_bits_do_not_depend_on_workers_or_block_size(
    monkeypatch, seed, instance, block_bins, workers
):
    values, activity = instance(seed)
    _workers(monkeypatch, 1)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=6)
    _workers(monkeypatch, workers)
    monkeypatch.setattr(gss_module, "_EM_BLOCK_BIN_FRAMES", block_bins * values.shape[0])
    blocked, blocked_masks = fit_cacgmm(_spec(values), activity, iterations=6)
    np.testing.assert_array_equal(blocked.B, state.B)
    np.testing.assert_array_equal(blocked_masks.gamma, masks.gamma)
    assert blocked_masks.gamma.flags.c_contiguous
    np.testing.assert_allclose(
        blocked.log_likelihood_trace, state.log_likelihood_trace, rtol=1e-12, atol=0
    )
    assert np.all(np.diff(blocked.log_likelihood_trace) >= -1e-6)


def test_fit_cacgmm_all_zero_input_matches_reference():
    values = np.zeros((20, 5, 2), dtype=complex)
    activity = ActivityPattern(("a",), np.ones((2, 20), dtype=bool))
    state, masks = fit_cacgmm(_spec(values), activity, iterations=3)
    b0 = _identity(5, 2, 2)
    b, trace, gamma, _ = ref.fit_cacgmm(values, activity.active, b0, 3)
    assert_rel_close(state.B, b)
    np.testing.assert_array_equal(masks.gamma, gamma)
    np.testing.assert_allclose(state.log_likelihood_trace, trace, rtol=0, atol=LL_ATOL)


def test_posteriors_match_reference_e_step():
    values, activity = _cacgmm_instance(3)
    b = ref.random_hermitian_covariances(values.shape[1], 4, values.shape[2], 9)
    b = b + 0.5 * np.eye(values.shape[2])  # loaded, so none is near singular
    masks = cacgmm_posteriors(_spec(values), activity, CacgmmState(B=b))
    z, nonzero = ref.unit_directions(values)
    expected = ref.posteriors(ref.log_densities(z, b)[0], activity.active, nonzero)
    assert_rel_close(masks.gamma, expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_masks_equal_the_posteriors_of_the_fitted_state(seed):
    # one E-step serves both: zero-norm bins and a never-active class included
    values, activity = _cacgmm_instance(seed)
    state, masks = fit_cacgmm(_spec(values), activity, iterations=4)
    again = cacgmm_posteriors(_spec(values), activity, state)
    np.testing.assert_array_equal(masks.gamma, again.gamma)
    assert masks.gamma.flags.c_contiguous


def test_packed_directions_match_the_complex_outer_products():
    values, _ = _cacgmm_instance(4, channels=4)
    packed, nonzero = gss_module._directions(values)
    z, expected_nonzero = ref.unit_directions(values)
    np.testing.assert_array_equal(nonzero, expected_nonzero.T)
    outer = np.einsum("tfc,tfd->ftcd", z, z.conj())
    c = values.shape[2]
    row, col = np.triu_indices(c, 1)
    upper = outer[:, :, row, col]
    expected = np.concatenate(
        (np.einsum("ftcc->ftc", outer).real, upper.real, upper.imag), axis=2
    )
    assert packed.shape == values.shape[1::-1] + (c * c,)
    np.testing.assert_allclose(packed, expected, rtol=0, atol=1e-14)
    assert np.all(packed[~nonzero] == 0.0)


def _hpd_stack(rng, c, rank, floor=0.0):
    """(5, 3, c, c) Gram matrices of the given rank, trace-normalized to c,
    plus ``floor`` on the diagonal."""
    g = _gram(_complex(rng, (5, 3, c, rank)))
    g *= c / np.trace(g, axis1=2, axis2=3).real[:, :, None, None]
    return g + floor * np.eye(c)


@pytest.mark.parametrize("c", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", ["well_conditioned", "loaded_by_the_floor"])
def test_inv_logdet_matches_numpy(c, kind):
    rng = np.random.default_rng(20 + c)
    if kind == "well_conditioned":
        b = _hpd_stack(rng, c, 2 * c)
    else:  # rank one plus the fit's 1e-10 * C loading: cond about 1e10
        b = _hpd_stack(rng, c, 1, floor=1e-10 * c)
    inv, logdet = gss_module._inv_logdet(b)
    sign, expected_logdet = np.linalg.slogdet(b)
    assert np.all(sign.real > 0.0)
    expected_inv = np.linalg.inv(b)
    cond = np.linalg.cond(b)
    if kind == "loaded_by_the_floor":
        assert np.all(cond > 1e9)
    # both are backward stable: they may differ by about cond * eps
    tol = 4 * c * cond * np.finfo(np.float64).eps
    scale = np.max(np.abs(expected_inv), axis=(2, 3))
    assert np.all(np.max(np.abs(inv - expected_inv), axis=(2, 3)) <= tol * scale)
    assert np.all(np.abs(logdet - expected_logdet.real) <= tol)


def test_inv_logdet_rejects_a_non_finite_pivot():
    b = _hpd_stack(np.random.default_rng(30), 3, 6)
    b[1, 2, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="^class 2 covariance is not positive definite$"):
        gss_module._inv_logdet(b)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_posteriors_non_positive_definite_state_names_the_class(k):
    values, activity = _cacgmm_instance(5)  # 7 bins, 4 classes, 3 channels
    rng = np.random.default_rng(31)
    b = np.stack(
        [
            [_hermitian_with_eigenvalues(rng, rng.uniform(1.0, 2.0, 3)) for _ in range(4)]
            for _ in range(7)
        ]
    )
    b[4, k] = _hermitian_with_eigenvalues(rng, [2.0, 1.0, -0.5])
    with pytest.raises(NumericalError, match=f"^class {k} covariance is not positive definite$"):
        cacgmm_posteriors(_spec(values), activity, CacgmmState(B=b))


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
    w = mvdr_weights(phi_ss, phi_nn).w
    channel = select_reference_channel(phi_ss, phi_nn)
    assert_rel_close(w, ref.mvdr_weights(phi_ss, phi_nn, channel))


def test_mvdr_singular_noise_covariance_takes_the_loading_retry(monkeypatch):
    rng = np.random.default_rng(11)
    phi_ss, phi_nn = _covariances(rng, 6, 3)
    n = np.array([[1.0], [0.5], [-2.0]])
    phi_nn[4] = n @ n.T  # rank one with exact elimination: singular, fixed by loading
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(phi_nn[4], phi_ss[4])
    calls = _spy(monkeypatch, linalg_module, "_loaded_solve")
    w = mvdr_weights(phi_ss, phi_nn).w
    assert [c[2:] for c in calls] == [(f, "noise covariance") for f in range(6)]
    channel = select_reference_channel(phi_ss, phi_nn)
    assert_rel_close(w, ref.mvdr_weights(phi_ss, phi_nn, channel))


def test_mvdr_unrecoverable_bin_error_names_the_bin():
    phi_ss, phi_nn = _covariances(np.random.default_rng(12), 6, 2)
    # negative trace: the loading floor is absorbed and it stays singular
    phi_nn[4] = -1e10 * np.ones((2, 2))
    with pytest.raises(NumericalError, match="^noise covariance singular in frequency bin 4$"):
        mvdr_weights(phi_ss, phi_nn)


def _class_instance(seed, frames=40, bins=6, channels=3, classes=4):
    """A spectrogram with a zero-norm frame, random masks, and a bin 2
    where class 1 holds all but 2^-40 (about 1e-12) of the mass, split
    exactly so that its complement is exact too."""
    rng = np.random.default_rng(seed)
    values = _complex(rng, (frames, bins, channels))
    values[7] = 0.0
    gamma = rng.dirichlet(np.ones(classes), size=(frames, bins)).transpose(2, 0, 1).copy()
    gamma[:, :, 2] = [[2.0**-41], [1.0 - 2.0**-40], [2.0**-42], [2.0**-42]]
    return values, gamma


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_covariances_match_the_per_bin_oracle(seed):
    values, gamma = _class_instance(seed)
    stats = gss_module._class_statistics(values, gamma)
    target, noise = ref.class_covariances(values, gamma)
    for k in range(gamma.shape[0]):
        phi_ss, phi_nn = gss_module._target_and_noise(stats, k)
        assert_rel_close(phi_ss, target[k])
        assert_rel_close(phi_nn, noise[k])
    # the other classes' sum stays positive semidefinite where class 1
    # holds nearly all of the bin
    phi_nn = gss_module._target_and_noise(stats, 1)[1][2]
    np.testing.assert_array_equal(phi_nn, phi_nn.conj().T)
    assert np.linalg.eigvalsh(phi_nn).min() >= -1e-12 * np.trace(phi_nn).real


@pytest.mark.parametrize("workers, budget", [(2, 40), (3, 120)])
def test_class_statistics_bits_do_not_depend_on_workers_or_block_size(
    monkeypatch, workers, budget
):
    values, gamma = _class_instance(3)
    _workers(monkeypatch, 1)
    stats = gss_module._class_statistics(values, gamma)
    _workers(monkeypatch, workers)
    monkeypatch.setattr(gss_module, "_COV_BLOCK_BIN_FRAMES", budget)
    np.testing.assert_array_equal(gss_module._class_statistics(values, gamma), stats)


@pytest.mark.parametrize("holder", [0, 1], ids=["class", "complement"])
def test_a_zero_weight_total_raises_the_same_error(holder):
    # class 0 (or the other classes) hold no weight in bin 1
    values, gamma = _class_instance(4)
    gamma[:, :, 1] = 0.0
    gamma[holder, :, 1] = 1.0
    spec = _spec(values)
    match = "^weights sum to zero in at least one frequency bin$"
    with pytest.raises(ParameterError, match=match):
        mvdr_beamform(spec, MaskSet(gamma), 0)
    with pytest.raises(ParameterError, match=match):
        spatial_covariance(spec, gamma[0] if holder else 1.0 - gamma[0])


# ------------------------------------------------------- shared solve


def _solve_stack(rng):
    """Five 3x3 Hermitian systems: item 1 indefinite, item 3 singular."""
    a = np.stack(
        [_hermitian_with_eigenvalues(rng, rng.uniform(1.0, 3.0, 3)) for _ in range(5)]
    )
    a[1] = _hermitian_with_eigenvalues(rng, [2.0, 1.0, -1.5])
    n = np.array([[1.0], [0.5], [-2.0]])
    a[3] = n @ n.T  # rank one with exact elimination
    return a, _complex(rng, (5, 3, 2))


@pytest.mark.parametrize("singular", [False, True], ids=["batched", "per_item"])
def test_solve_hermitian_gives_every_item_its_solve_alone(singular):
    a, b = _solve_stack(np.random.default_rng(40))
    if not singular:
        a[3] = np.eye(3)
    x = linalg_module.solve_hermitian(a, b, range(5), "test matrix")
    for i in range(5):
        if singular and i == 3:
            continue
        np.testing.assert_array_equal(x[i], np.linalg.solve(a[i], b[i]))


def test_solve_hermitian_loads_a_singular_item_once():
    a, b = _solve_stack(np.random.default_rng(41))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a[3], b[3])
    x = linalg_module.solve_hermitian(a, b, range(5), "test matrix")
    load = 1e-6 * a[3].trace().real / 3
    np.testing.assert_array_equal(x[3], np.linalg.solve(a[3] + load * np.eye(3), b[3]))
    assert_rel_close(a[3] @ x[3] + load * x[3], b[3])


def test_solve_hermitian_zero_item_gets_zero_from_the_floor_loading():
    a, b = _solve_stack(np.random.default_rng(42))
    a[3] = b[3] = 0.0
    x = linalg_module.solve_hermitian(a, b, range(5), "test matrix")
    assert np.all(x[3] == 0.0)


@pytest.mark.skipif(
    linalg_module._openblas_threads() is None, reason="BLAS thread count not settable"
)
def test_one_blas_thread_nests_across_threads_and_restores_the_count():
    get, set_ = linalg_module._openblas_threads()
    before = get()
    set_(2)
    seen = []

    def enter():
        for _ in range(200):
            with linalg_module.one_blas_thread:
                seen.append(get())
                with linalg_module.one_blas_thread:
                    seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 1600
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)


def test_solve_hermitian_unrecoverable_item_names_its_bin():
    a, b = _solve_stack(np.random.default_rng(43))
    a[2] = -1e10 * np.ones((3, 3))  # negative trace: the 1e-10 floor is absorbed
    with pytest.raises(NumericalError, match="^test matrix singular in frequency bin 17$"):
        linalg_module.solve_hermitian(a, b, [15, 16, 17, 18, 19], "test matrix")
