"""Image-source room simulation and meeting synthesis."""

import importlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import reference_kernels as ref
from farfield import (
    DataError,
    MixturePlan,
    ParameterError,
    PlannedSource,
    RoomSpec,
    WaveformBuffer,
    image_source_rir,
    image_sources,
    make_meeting,
)

simulate_module = importlib.import_module("farfield.simulate")

FS = 16000


def _room(**kw):
    base = dict(
        dimensions=(4.0, 5.0, 6.0),
        absorption=0.36,
        max_order=1,
        sample_rate_hz=FS,
        source_positions=((1.0, 2.0, 3.0),),
        mic_positions=((2.5, 2.2, 1.4),),
    )
    base.update(kw)
    return RoomSpec(**base)


# ------------------------------------------------------------ RoomSpec


def test_room_spec_validation():
    with pytest.raises(ParameterError, match="dimensions"):
        _room(dimensions=(4.0, -5.0, 6.0))
    with pytest.raises(ParameterError, match="absorption"):
        _room(absorption=0.0)
    with pytest.raises(ParameterError, match="absorption"):
        _room(absorption=1.5)
    with pytest.raises(ParameterError, match="max_order"):
        _room(max_order=-1)
    with pytest.raises(ParameterError, match="sample_rate"):
        _room(sample_rate_hz=0)
    with pytest.raises(ParameterError, match="speed_of_sound"):
        _room(speed_of_sound=0.0)
    with pytest.raises(ParameterError, match="source_positions"):
        _room(source_positions=())
    with pytest.raises(ParameterError, match="mic_positions"):
        _room(mic_positions=())


def test_room_spec_caps_the_image_source_order():
    assert _room(max_order=30).max_order == 30
    for order in (31, 10**6):
        with pytest.raises(ParameterError, match=f"max_order must be <= 30, got {order}"):
            _room(max_order=order)


def test_room_spec_bounds_the_sample_rate_by_the_rir_length():
    # at order 0 every image lies within one 13 m diagonal of the mic, 1/32 s
    # at 416 m/s, so 32 * (2**20 - 42) Hz keeps the RIR within 2**20 samples
    def room(rate):
        return _room(dimensions=(3.0, 4.0, 12.0), max_order=0, sample_rate_hz=rate,
                     speed_of_sound=416.0, source_positions=((1.0, 1.0, 1.0),),
                     mic_positions=((2.0, 2.0, 2.0),))

    bound = 32 * (2**20 - 42)
    assert len(image_source_rir(room(bound), 0, 0)) <= 2**20
    with pytest.raises(ParameterError, match=f"sample_rate_hz must be <= {bound}"):
        room(bound + 1)
    with pytest.raises(ParameterError, match="sample_rate_hz must be <= "):
        _room(sample_rate_hz=10**9)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sample_rate_hz", 16000.7),
        ("speed_of_sound", math.inf),
        ("dimensions", (4.0, math.nan, 6.0)),
        ("dimensions", (4.0, 10**400, 6.0)),
        ("source_positions", ((1.0, math.nan, 3.0),)),
        ("mic_positions", ((2.5, 2.2, -math.inf),)),
    ],
)
def test_room_spec_rejects_truncated_or_non_finite_values(field, value):
    with pytest.raises(ParameterError, match=field):
        _room(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("source_positions", 5),
        ("mic_positions", True),
        ("source_positions", {"a": 1}),
        ("mic_positions", "abc"),
        ("dimensions", "abc"),
        ("dimensions", 5.0),
        ("dimensions", (4.0, "5", 6.0)),
        ("dimensions", (4.0, None, 6.0)),
        ("source_positions", ((1.0, True, 3.0),)),
        ("mic_positions", ((2.5, [2.2], 1.4, 1.0),)),
    ],
)
def test_room_spec_rejects_non_numeric_or_scalar_geometry(field, value):
    with pytest.raises(ParameterError, match=field):
        _room(**{field: value})


def test_room_spec_stores_geometry_as_its_float64_values():
    room = _room(
        dimensions=[4, np.float32(5.1), 6.0],
        source_positions=[np.array([1.0, 2.0, 3.0]), (0.1 + 0.2, 1, np.float32(2.7))],
    )
    assert room.dimensions == tuple(np.asarray([4, np.float32(5.1), 6.0], dtype=np.float64))
    assert room.source_positions == ((1.0, 2.0, 3.0), (0.1 + 0.2, 1.0, float(np.float32(2.7))))
    assert all(type(v) is np.float64 for p in room.source_positions for v in p)


def test_room_spec_positions_must_be_strictly_inside():
    with pytest.raises(ParameterError, match=r"source_positions\[0\]"):
        _room(source_positions=((0.0, 2.0, 3.0),))
    with pytest.raises(ParameterError, match=r"mic_positions\[1\]"):
        _room(mic_positions=((1.0, 1.0, 1.0), (2.0, 5.0, 1.0)))
    with pytest.raises(ParameterError, match="3-vector"):
        _room(source_positions=((1.0, 2.0),))


# ------------------------------------------------------- image sources


def test_image_sources_order_one_mirror_oracle():
    room = _room()
    delays, amps, orders = image_sources(room, 0, 0)
    assert delays.shape == amps.shape == orders.shape == (7,)

    # explicit first-order mirrors of the source in each wall
    sx, sy, sz = 1.0, 2.0, 3.0
    lx, ly, lz = 4.0, 5.0, 6.0
    positions = [
        ((sx, sy, sz), 0),
        ((-sx, sy, sz), 1),
        ((2 * lx - sx, sy, sz), 1),
        ((sx, -sy, sz), 1),
        ((sx, 2 * ly - sy, sz), 1),
        ((sx, sy, -sz), 1),
        ((sx, sy, 2 * lz - sz), 1),
    ]
    mic = np.array([2.5, 2.2, 1.4])
    dists = np.array([np.linalg.norm(np.array(p) - mic) for p, _ in positions])
    want_delays = dists / 343.0 * FS
    want_amps = np.array(
        [(1.0 - 0.36) ** order / (4 * math.pi * d) for (_, order), d in zip(positions, dists)]
    )
    want_orders = np.array([order for _, order in positions])
    idx = np.argsort(want_delays)
    assert delays == pytest.approx(want_delays[idx], rel=1e-12)
    assert amps == pytest.approx(want_amps[idx], rel=1e-12)
    assert np.array_equal(orders, want_orders[idx])


def test_image_sources_order_zero_is_direct_path_only():
    room = _room(max_order=0)
    delays, amps, orders = image_sources(room, 0, 0)
    d = np.linalg.norm(np.array([1.0, 2.0, 3.0]) - np.array([2.5, 2.2, 1.4]))
    assert delays == pytest.approx([d / 343.0 * FS], rel=1e-12)
    assert amps == pytest.approx([1 / (4 * math.pi * d)], rel=1e-12)
    assert np.array_equal(orders, [0])


def test_image_sources_image_count_grows_with_order():
    counts = [
        image_sources(_room(max_order=n), 0, 0)[0].size for n in range(4)
    ]
    assert counts[0] == 1 and counts[1] == 7
    assert counts == sorted(counts)


def test_image_sources_coincident_source_and_mic_rejected():
    room = _room(mic_positions=((1.0, 2.0, 3.0),))
    with pytest.raises(ParameterError, match="coincide"):
        image_sources(room, 0, 0)


@pytest.mark.parametrize(
    "src, mic, name",
    [(-1, 0, "src"), (1, 0, "src"), (1.0, 0, "src"), (True, 0, "src"),
     (0, -2, "mic"), (0, 2, "mic"), (0, 0.0, "mic")],
)
def test_image_sources_reject_bad_indices(src, mic, name):
    room = _room(mic_positions=((2.5, 2.2, 1.4), (2.0, 2.0, 1.0)))
    for fn in (image_sources, image_source_rir):
        with pytest.raises(ParameterError, match=f"^{name} "):
            fn(room, src, mic)


def test_image_amplitude_halves_when_distance_doubles():
    near = _room(max_order=0, mic_positions=((2.0, 2.0, 3.0),))
    far = _room(max_order=0, mic_positions=((3.0, 2.0, 3.0),))
    _, a_near, _ = image_sources(near, 0, 0)
    _, a_far, _ = image_sources(far, 0, 0)
    assert a_far[0] == pytest.approx(a_near[0] / 2.0, rel=1e-12)


def _random_room(rng, max_order):
    dims = rng.uniform(2.0, 9.0, size=3)
    src, mic = rng.uniform(0.05, 0.95, size=(2, 2, 3)) * dims
    return RoomSpec(
        dimensions=tuple(dims),
        absorption=float(rng.uniform(0.05, 1.0)),
        max_order=max_order,
        sample_rate_hz=int(rng.choice([8000, 16000, 44100])),
        source_positions=tuple(map(tuple, src)),
        mic_positions=tuple(map(tuple, mic)),
    )


def _assert_same_images(room, src, mic):
    got = image_sources(room, src, mic)
    want = ref.image_sources(room, src, mic)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("max_order", [*range(7), 9, 12])
def test_image_sources_equal_the_per_image_loop(max_order):
    rng = np.random.default_rng(100 + max_order)
    for _ in range(2):
        room = _random_room(rng, max_order)
        for src in range(2):
            for mic in range(2):
                _assert_same_images(room, src, mic)


@pytest.mark.parametrize("max_order", [2, 5, 9])
def test_image_sources_tied_delays_keep_enumeration_order(max_order):
    # source and mic share x and y at the room's centre, so mirrors in
    # opposite walls arrive at exactly the same time
    room = _room(
        dimensions=(4.0, 4.0, 6.0),
        max_order=max_order,
        source_positions=((2.0, 2.0, 4.5),),
        mic_positions=((2.0, 2.0, 1.5),),
    )
    delays = image_sources(room, 0, 0)[0]
    assert np.unique(delays).size < delays.size
    _assert_same_images(room, 0, 0)


def test_image_sources_and_rir_memory_at_the_order_cap():
    # the README's 6 x 5 x 3 m room at order 30 keeps 37881 of 8 * 62^3 mirror
    # combinations: a position and a distance row for each would take 262 MiB
    room = _room(
        dimensions=(6.0, 5.0, 3.0),
        max_order=30,
        source_positions=((1.8, 3.6, 1.6),),
        mic_positions=((2.95, 2.45, 1.4),),
    )
    for fn in (image_sources, image_source_rir):
        tracemalloc.start()
        try:
            fn(room, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"{fn.__name__} peaked at {peak / 2**20:.1f} MiB"


# ----------------------------------------------------------------- RIR


def test_rir_integer_delay_is_exact_spike():
    # 2 m at 320 m/s and 16 kHz: a delay of exactly 100 samples
    d = 2.0
    room = _room(
        max_order=0,
        source_positions=((1.0, 2.0, 3.0),),
        mic_positions=((1.0 + d, 2.0, 3.0),),
        dimensions=(6.0, 5.0, 6.0),
        speed_of_sound=320.0,
    )
    assert image_sources(room, 0, 0)[0][0] == 100.0
    h = image_source_rir(room, 0, 0)
    assert np.argmax(np.abs(h)) == 100
    assert h[100] == 1 / (4 * math.pi * d)
    # sinc zeros off the spike, as np.sinc rounds them
    others = np.delete(h, 100)
    assert np.max(np.abs(others)) < 1e-15 * abs(h[100])


def test_rir_fractional_delay_peak_within_one_sample():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mic = (
            1.0 + float(rng.uniform(0.5, 2.5)),
            2.0 + float(rng.uniform(-1.0, 1.0)),
            3.0 + float(rng.uniform(-1.0, 1.0)),
        )
        room = _room(max_order=0, dimensions=(6.0, 5.0, 6.0), mic_positions=(mic,))
        delays, _, _ = image_sources(room, 0, 0)
        h = image_source_rir(room, 0, 0)
        assert abs(np.argmax(np.abs(h)) - delays[0]) <= 1.0


def test_rir_length_covers_latest_image_plus_interpolator():
    room = _room(max_order=2)
    delays, _, _ = image_sources(room, 0, 0)
    h = image_source_rir(room, 0, 0)
    assert h.size == int(math.ceil(delays.max())) + 42


@pytest.mark.parametrize("max_order", [*range(7), 12])
def test_rir_equals_the_per_image_loop(max_order):
    # every room has 2625 images at order 12, more than one _RIR_BLOCK
    rng = np.random.default_rng(max_order)
    for _ in range(3):
        dims = rng.uniform(2.5, 7.0, 3)
        src, mic = (tuple(rng.uniform(0.1, 0.9, 3) * dims) for _ in range(2))
        room = _room(
            max_order=max_order,
            absorption=float(rng.uniform(0.1, 0.9)),
            dimensions=tuple(dims),
            source_positions=(src,),
            mic_positions=(mic,),
        )
        assert np.array_equal(image_source_rir(room, 0, 0), ref.image_source_rir(room, 0, 0))


def test_rir_with_an_integer_delay_image_equals_the_per_image_loop():
    # 1 m at 128 m/s is 125 samples at 16 kHz, exactly in binary floating point
    room = _room(
        max_order=2,
        source_positions=((1.0, 2.0, 3.0),),
        mic_positions=((2.0, 2.0, 3.0),),
        dimensions=(6.0, 5.0, 6.0),
        speed_of_sound=128.0,
    )
    assert image_sources(room, 0, 0)[0][0] == 125.0
    assert np.array_equal(image_source_rir(room, 0, 0), ref.image_source_rir(room, 0, 0))


def test_rir_with_clipped_taps_equals_the_per_image_loop():
    # the direct path arrives after 10.3 samples, so 29 of its taps fall
    # before sample 0 and are dropped; the RIR ends 41 samples after the
    # latest image, so no tap falls past its end
    d = 10.3 * 343.0 / FS
    room = _room(
        max_order=3,
        source_positions=((1.0, 2.0, 3.0),),
        mic_positions=((1.0 + d, 2.0, 3.0),),
    )
    delays = image_sources(room, 0, 0)[0]
    assert math.ceil(delays[0]) - 40 < 0
    h = image_source_rir(room, 0, 0)
    assert math.floor(delays[-1]) + 40 < h.size - 1
    assert np.array_equal(h, ref.image_source_rir(room, 0, 0))


@pytest.mark.parametrize("block", [1, 7, 100])
def test_rir_in_small_tap_blocks_equals_the_per_image_loop(monkeypatch, block):
    # every room has 377 images at order 6: 377 blocks of 1, or 54 of 7 and
    # 4 of 100 whose last holds 6 and 77 images
    monkeypatch.setattr(simulate_module, "_RIR_BLOCK", block)
    room = _random_room(np.random.default_rng(40 + block), 6)
    for src in range(2):
        for mic in range(2):
            assert image_sources(room, src, mic)[0].size == 377
            assert np.array_equal(
                image_source_rir(room, src, mic), ref.image_source_rir(room, src, mic)
            )


# ------------------------------------------------------------ convolve


def test_convolve_with_impulse_reproduces_rir():
    room = _room()
    h = image_source_rir(room, 0, 0)
    out = simulate_module._convolve(np.r_[1.0, np.zeros(9)], [h])
    assert out.shape == (1, 10 + h.size - 1)
    assert np.max(np.abs(out[0, : h.size] - h)) <= 1e-12 * np.max(np.abs(h))
    assert np.max(np.abs(out[0, h.size :])) <= 1e-12 * np.max(np.abs(h))


def test_fft_size_is_the_smallest_5_smooth_length():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(7)
    )
    smooth = np.array([m for m in smooth if m <= 8192])
    for n in range(1, 5001):
        assert simulate_module._fft_size(n) == smooth[np.searchsorted(smooth, n)], n


# -------------------------------------------------------- meeting plan


def _burst(rng, total_s, spans, level=0.2):
    x = np.zeros(int(total_s * FS))
    for a, b in spans:
        lo, hi = int(a * FS), int(b * FS)
        x[lo:hi] = level * rng.normal(size=hi - lo)
    return WaveformBuffer(x, FS)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_planned_source_rejects_non_finite_audio(bad):
    x = np.zeros(10)
    x[5] = bad
    with pytest.raises(
        DataError, match=rf"^speaker ann: non-finite sample {bad} in channel 0 at sample index 5$"
    ):
        PlannedSource("ann", WaveformBuffer(x, FS))


def test_mixture_plan_rejects_non_finite_noise():
    src = PlannedSource("ann", WaveformBuffer(np.ones(10), FS))
    noise = np.ones((2, 20))
    noise[1, 3] = np.nan
    noise[1, 7] = np.inf
    with pytest.raises(
        DataError, match=r"^noise: non-finite sample nan in channel 1 at sample index 3$"
    ):
        MixturePlan(sources=(src,), snr_db=10.0, noise=WaveformBuffer(noise, FS))


def test_planned_source_validation():
    with pytest.raises(ParameterError, match="onset"):
        PlannedSource("a", WaveformBuffer(np.ones(10), FS), onset_s=-0.5)
    with pytest.raises(ParameterError, match="mono"):
        PlannedSource("a", WaveformBuffer(np.ones((2, 10)), FS))


def test_mixture_plan_validation():
    with pytest.raises(ParameterError, match="at least one source"):
        MixturePlan(sources=())
    src = PlannedSource("a", WaveformBuffer(np.ones(10), FS))
    with pytest.raises(ParameterError, match="snr_db"):
        MixturePlan(sources=(src,), noise=WaveformBuffer(np.ones(100), FS))


@pytest.mark.parametrize("snr_db", [-200.5, 200.5, 999999999999])
def test_mixture_plan_bounds_the_snr(snr_db):
    # 10^(snr_db / 10) overflowed a float at 999999999999 dB
    src = PlannedSource("a", WaveformBuffer(np.ones(10), FS))
    with pytest.raises(ParameterError, match="^snr_db must be between -200 and 200, got "):
        MixturePlan(sources=(src,), snr_db=snr_db)
    assert MixturePlan(sources=(src,), snr_db=-200.0).snr_db == -200.0


def test_make_meeting_bounds_the_mixture_length():
    # an onset of 999999999999 s once asked numpy for a 227 PiB buffer
    src = PlannedSource("a", WaveformBuffer(np.ones(10), FS), onset_s=999999999999.0)
    message = r"^the mixture would last \d+ samples, more than 2\^27$"
    with pytest.raises(ParameterError, match=message):
        make_meeting(MixturePlan(sources=(src,)), _room(max_order=0))


def test_mixture_plan_rejects_a_speaker_with_two_sources():
    # images are keyed by speaker: a second source would replace the first
    ann = PlannedSource("ann", WaveformBuffer(np.ones(10), FS))
    bob = PlannedSource("bob", WaveformBuffer(np.ones(10), FS))
    with pytest.raises(ParameterError, match="^speaker 'ann' has more than one source"):
        MixturePlan(sources=(ann, bob, replace(ann, onset_s=0.5)))


@pytest.mark.parametrize("speaker", ["", ".", "..", "../x", "a\\b", "a\x00b"])
def test_planned_source_speaker_must_name_one_file(speaker):
    with pytest.raises(ParameterError, match="^speaker must be a non-empty string"):
        PlannedSource(speaker, WaveformBuffer(np.ones(10), FS))


def _two_source_setup(seed=0, snr=None):
    rng = np.random.default_rng(seed)
    room = RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=1,
        sample_rate_hz=FS,
        source_positions=((1.5, 3.5, 1.6), (4.5, 1.5, 1.7)),
        mic_positions=((2.9, 2.4, 1.4), (3.1, 2.6, 1.4)),
    )
    a = _burst(rng, 0.8, [(0.05, 0.75)])
    b = _burst(rng, 0.8, [(0.05, 0.75)])
    plan = MixturePlan(
        sources=(PlannedSource("ann", a, 0.0), PlannedSource("bob", b, 0.4)),
        snr_db=snr,
        seed=seed,
        session="mtg",
    )
    return plan, room


def test_make_meeting_mixture_is_exact_sum_of_parts():
    plan, room = _two_source_setup(seed=4, snr=20.0)
    meeting = make_meeting(plan, room)
    total = meeting.images["ann"].samples + meeting.images["bob"].samples
    total = total + meeting.noise.samples
    assert np.array_equal(meeting.mixture.samples, total)


def test_make_meeting_without_noise():
    plan, room = _two_source_setup(seed=5, snr=None)
    meeting = make_meeting(plan, room)
    assert meeting.noise is None
    total = meeting.images["ann"].samples + meeting.images["bob"].samples
    assert np.array_equal(meeting.mixture.samples, total)


def test_make_meeting_seeded_rerun_is_bit_exact():
    plan, room = _two_source_setup(seed=6, snr=15.0)
    m1 = make_meeting(plan, room)
    m2 = make_meeting(plan, room)
    assert np.array_equal(m1.mixture.samples, m2.mixture.samples)
    assert np.array_equal(m1.noise.samples, m2.noise.samples)
    bumped = MixturePlan(
        sources=plan.sources, snr_db=plan.snr_db, seed=7, session=plan.session
    )
    m3 = make_meeting(bumped, room)
    assert not np.array_equal(m1.noise.samples, m3.noise.samples)


def test_make_meeting_reference_segments_track_dry_energy():
    rng = np.random.default_rng(8)
    room = _room(max_order=0, dimensions=(6.0, 5.0, 6.0))
    dry = _burst(rng, 1.0, [(0.1, 0.5)])
    plan = MixturePlan(
        sources=(PlannedSource("spk", dry, 0.25),), session="mtg"
    )
    meeting = make_meeting(plan, room)
    segs = meeting.reference.segments
    assert len(segs) == 1
    (seg,) = segs
    assert (seg.session, seg.speaker) == ("mtg", "spk")
    # gate timestamps land within a window of the true burst edges
    assert 0.35 - 0.025 <= seg.start_s <= 0.35 + 1e-9
    assert 0.75 - 1e-9 <= seg.end_s <= 0.75 + 0.035


def test_make_meeting_merges_segments_across_short_gaps():
    rng = np.random.default_rng(9)
    room = _room(max_order=0, dimensions=(6.0, 5.0, 6.0))
    merged = MixturePlan(
        sources=(PlannedSource("s", _burst(rng, 1.4, [(0.1, 0.4), (0.6, 0.9)]),),),
        session="m",
    )
    split = MixturePlan(
        sources=(PlannedSource("s", _burst(rng, 1.6, [(0.1, 0.4), (1.0, 1.3)]),),),
        session="m",
    )
    assert len(make_meeting(merged, room).reference.segments) == 1
    assert len(make_meeting(split, room).reference.segments) == 2


def _gated_source(rate, n, bursts, onset_s=0.0):
    # 0.5 over each burst's samples: a frame is active if it holds one of them
    x = np.zeros(n)
    for a, b in bursts:
        x[a:b] = 0.5
    return PlannedSource("s", WaveformBuffer(x, rate), onset_s)


def _dry_segments_match_the_loops(source):
    rate = source.audio.sample_rate_hz
    got = simulate_module._dry_segments(source, "m", rate)
    want = ref.dry_segments(source, "m", rate)
    assert [(s.start_s, s.end_s) for s in got] == [(s.start_s, s.end_s) for s in want]
    return got


@pytest.mark.parametrize(
    "rate, second, count",
    [
        # 2560 Hz: 64-sample frames every 26; the run of frame 0 ends at
        # sample 64, and the next run starts at frame 31, 32 or 33
        (2560, 869, 1),  # gap 742 samples, below the 768 of 0.3 s: joined
        (2560, 895, 2),  # gap 768, exactly 0.3 s: kept apart
        (2560, 921, 2),  # gap 794
        # 16 kHz: 400-sample frames every 160, next run at frame 32 or 33
        (16000, 5519, 1),  # gap 4720, below 4800
        (16000, 5679, 2),  # gap 4880
    ],
)
def test_dry_segments_join_runs_closer_than_the_merge_gap(rate, second, count):
    hop = int(round(0.01 * rate))
    source = _gated_source(rate, rate, [(0, hop), (second, second + hop)])
    assert len(_dry_segments_match_the_loops(source)) == count


def test_dry_segments_equal_the_frame_and_run_loops():
    rng = np.random.default_rng(21)
    for k in range(300):
        rate = int(rng.choice([2560, 8000, 16000]))
        n = int(rng.integers(1, 2 * rate))
        kind = k % 5
        if kind == 0:  # bursts of random lengths and gaps
            edges = np.sort(rng.integers(0, n + 1, 2 * int(rng.integers(1, 8))))
            bursts = edges.reshape(-1, 2)
        elif kind == 1:  # silence
            bursts = []
        elif kind == 2:  # always active
            bursts = [(0, n)]
        elif kind == 3:  # shorter than one 25 ms window, or just as long
            n = int(rng.integers(1, int(round(0.025 * rate)) + 2))
            bursts = [(0, n)] if rng.random() < 0.5 else []
        else:  # a second burst around 0.3 s after the first ends
            a = int(rng.integers(0, rate // 4))
            b = a + int(rng.integers(1, rate // 10))
            c = b + int(round(0.3 * rate)) + int(rng.integers(-rate // 20, rate // 20))
            bursts = [(a, b), (c, c + int(rng.integers(1, rate // 10)))]
        source = _gated_source(rate, n, bursts, onset_s=float(rng.uniform(0.0, 3.0)))
        _dry_segments_match_the_loops(source)


def test_make_meeting_validation():
    plan, room = _two_source_setup(seed=10, snr=10.0)
    one_pos = RoomSpec(
        dimensions=room.dimensions,
        absorption=room.absorption,
        max_order=room.max_order,
        sample_rate_hz=room.sample_rate_hz,
        source_positions=room.source_positions[:1],
        mic_positions=room.mic_positions,
    )
    with pytest.raises(ParameterError, match="source positions"):
        make_meeting(plan, one_pos)
    wrong_rate = RoomSpec(
        dimensions=room.dimensions,
        absorption=room.absorption,
        max_order=room.max_order,
        sample_rate_hz=8000,
        source_positions=room.source_positions,
        mic_positions=room.mic_positions,
    )
    with pytest.raises(ParameterError, match="sample rate"):
        make_meeting(plan, wrong_rate)
    short_noise = MixturePlan(
        sources=plan.sources,
        snr_db=10.0,
        noise=WaveformBuffer(np.ones(100), FS),
        session="m",
    )
    with pytest.raises(ParameterError, match="shorter"):
        make_meeting(short_noise, room)
    three_channel_noise = MixturePlan(
        sources=plan.sources,
        snr_db=10.0,
        noise=WaveformBuffer(np.ones((3, 40000)), FS),
        session="m",
    )
    with pytest.raises(ParameterError, match="channels"):
        make_meeting(three_channel_noise, room)


def test_make_meeting_rejects_unusable_noise_settings():
    plan, room = _two_source_setup(seed=10, snr=10.0)
    for snr_db in (math.nan, math.inf, -math.inf, "10"):
        with pytest.raises(ParameterError, match="snr_db"):
            replace(plan, snr_db=snr_db)
    wrong_rate_noise = replace(plan, noise=WaveformBuffer(np.ones(40000), 8000))
    with pytest.raises(ParameterError, match="noise sample rate"):
        make_meeting(wrong_rate_noise, room)
    silent_noise = replace(plan, noise=WaveformBuffer(np.zeros(40000), FS))
    with pytest.raises(ParameterError, match="noise crop has zero power"):
        make_meeting(silent_noise, room)
    silent = WaveformBuffer(np.zeros(FS // 2), FS)
    silent_sources = replace(
        plan, sources=(PlannedSource("ann", silent), PlannedSource("bob", silent))
    )
    with pytest.raises(ParameterError, match="mixture of sources has zero power"):
        make_meeting(silent_sources, room)


def test_make_meeting_hits_the_target_snr_exactly():
    plan, room = _two_source_setup(seed=14)
    noise = WaveformBuffer(np.random.default_rng(0).normal(size=(2, 50000)), FS)
    for seed, snr, wav in [(0, 20.0, noise), (1, 5.0, noise), (2, 0.0, None),
                           (3, -5.0, noise), (4, 35.0, None)]:
        meeting = make_meeting(replace(plan, snr_db=snr, noise=wav, seed=seed), room)
        clean = meeting.mixture.samples - meeting.noise.samples
        got = 10 * np.log10(np.mean(clean**2) / np.mean(meeting.noise.samples**2))
        assert got == pytest.approx(snr, abs=1e-9)


def test_make_meeting_seed_controls_the_wav_noise_crop():
    plan, room = _two_source_setup(seed=13, snr=10.0)
    noise = WaveformBuffer(np.random.default_rng(4).normal(size=(2, 50000)), FS)
    plan = replace(plan, noise=noise, seed=7)
    a = make_meeting(plan, room).noise.samples
    assert np.array_equal(a, make_meeting(plan, room).noise.samples)
    assert not np.array_equal(a, make_meeting(replace(plan, seed=8), room).noise.samples)
    # the noise is the recording's window at the seeded offset, times one scale
    length = a.shape[1]
    offset = int(np.random.default_rng(7).integers(0, 50000 - length + 1))
    crop = noise.samples[:, offset : offset + length]
    np.testing.assert_allclose(a, crop * (a[0, 0] / crop[0, 0]), rtol=1e-12)


def test_make_meeting_broadcasts_mono_wav_noise():
    plan, room = _two_source_setup(seed=12, snr=5.0)
    rng = np.random.default_rng(3)
    mono = WaveformBuffer(0.1 * rng.normal(size=40000), FS)
    meeting = make_meeting(
        MixturePlan(sources=plan.sources, snr_db=5.0, noise=mono, seed=12, session="m"), room
    )
    noise = meeting.noise.samples
    assert noise.shape == meeting.mixture.samples.shape
    assert np.array_equal(noise[0], noise[1])
    total = meeting.images["ann"].samples + meeting.images["bob"].samples
    assert np.array_equal(meeting.mixture.samples, total + noise)
    snr = 10 * np.log10(np.mean(total**2) / np.mean(noise**2))
    assert snr == pytest.approx(5.0, abs=1e-9)


def test_make_meeting_broadcasts_mono_noise_to_three_mics():
    plan, room = _two_source_setup(seed=15, snr=15.0)
    room = replace(room, mic_positions=room.mic_positions + ((3.0, 2.5, 1.6),))
    mono = WaveformBuffer(np.random.default_rng(2).normal(size=40000), FS)
    noise = make_meeting(replace(plan, noise=mono), room).noise.samples
    assert noise.shape[0] == 3
    # one scale for all mics: every row is the same mono crop
    assert np.array_equal(noise[0], noise[1])
    assert np.array_equal(noise[0], noise[2])


def test_make_meeting_image_shapes():
    plan, room = _two_source_setup(seed=11, snr=None)
    meeting = make_meeting(plan, room)
    n = meeting.mixture.n_samples
    for img in meeting.images.values():
        assert img.samples.shape == (2, n)


@pytest.mark.parametrize(
    "dims, order, onsets, seconds, mics",
    [
        ((6.0, 5.0, 3.0), 0, (0.0, 0.3), 0.5, 2),
        ((4.0, 5.0, 6.0), 1, (0.25, 0.0), 0.8, 3),
        ((7.0, 5.5, 3.2), 3, (0.0, 0.45), 0.6, 2),
        ((6.0, 5.0, 3.0), 4, (0.1, 0.1), 0.3, 4),
    ],
)
def test_make_meeting_images_match_direct_convolution(dims, order, onsets, seconds, mics):
    rng = np.random.default_rng(order)
    room = RoomSpec(
        dimensions=dims,
        absorption=0.4,
        max_order=order,
        sample_rate_hz=FS,
        source_positions=((1.5, 3.5, 1.6), (2.5, 1.2, 1.7)),
        mic_positions=((2.9, 2.4, 1.4), (3.1, 2.6, 1.4), (2.9, 2.6, 1.5), (3.1, 2.4, 1.3))[:mics],
    )
    plan = MixturePlan(
        sources=tuple(
            PlannedSource(spk, _burst(rng, seconds, [(0.02, seconds - 0.02)]), onset)
            for spk, onset in zip(("ann", "bob"), onsets)
        ),
        snr_db=20.0,
        seed=order,
    )
    meeting = make_meeting(plan, room)
    expected = ref.meeting_images(plan, room)
    for speaker, image in meeting.images.items():
        assert image.samples.shape == expected[speaker].shape
        for got, want in zip(image.samples, expected[speaker]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_make_meeting_images_at_or_below_the_crossover_are_the_direct_sums():
    # short sources take the FFT path too: the direct sums to rounding
    rng = np.random.default_rng(3)
    room = _room(max_order=2, mic_positions=((2.5, 2.2, 1.4), (2.6, 2.3, 1.4)))
    for n in (1, 100, 256):
        plan = MixturePlan(
            sources=(PlannedSource("ann", WaveformBuffer(rng.normal(size=n), FS), 0.01),)
        )
        got = make_meeting(plan, room).images["ann"].samples
        want = ref.meeting_images(plan, room)["ann"]
        assert got.shape == want.shape
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
