"""Separate two overlapping speakers from a simulated far-field meeting.

The script builds a small reverberant room with two talkers and a
two-microphone array, renders a mixture with a 20 dB noise floor, and
runs the full enhancement recipe: dereverberation, activity-guided mask
estimation, and mask-based beamforming. Per-speaker SI-SDR against the
known room images shows the improvement over the best raw channel.
"""

import numpy as np

import farfield as ff

FS = 16000


def speechy(rng, seconds, f_env):
    # envelope-modulated noise stands in for speech
    t = np.arange(int(seconds * FS)) / FS
    env = 0.55 + 0.45 * np.sin(2 * np.pi * f_env * t + rng.uniform(0, 2 * np.pi))
    return ff.WaveformBuffer(0.1 * env * rng.normal(size=t.size), FS)


def main():
    rng = np.random.default_rng(0)
    room = ff.RoomSpec(
        dimensions=(6.0, 5.0, 3.0),
        absorption=0.5,
        max_order=1,
        sample_rate_hz=FS,
        source_positions=((1.8, 3.6, 1.6), (4.3, 1.4, 1.5)),
        mic_positions=((2.95, 2.45, 1.4), (3.05, 2.55, 1.4)),
    )
    plan = ff.MixturePlan(
        sources=(
            ff.PlannedSource("ann", speechy(rng, 2.4, 2.3), 0.0),
            ff.PlannedSource("bob", speechy(rng, 2.4, 3.1), 0.8),
        ),
        snr_db=20.0,
        seed=0,
        session="meeting",
    )
    result = ff.make_meeting(plan, room)
    print(f"mixture: {result.mixture.channels} channels, "
          f"{result.mixture.duration_s:.2f} s, speakers overlap for 1.6 s")

    # who speaks when; normally this comes from a diarizer, here we know
    segments = ff.DiarizationSet.from_rows(
        [("meeting", "ann", 0.0, 2.4), ("meeting", "bob", 0.8, 3.2)]
    )
    cfg = ff.GssConfig(
        wpe=ff.WpeConfig(taps=5, delay=2, iterations=2),
        em_iterations=20,
    )
    enhanced = ff.gss_enhance(result.mixture, segments, cfg)

    # one mono estimate per segment, keyed by (speaker, start_s, end_s)
    for (speaker, a, b), mono in enhanced.items():
        lo, hi = int(a * FS), int(b * FS)
        image = result.images[speaker].samples[:, lo:hi]
        estimate = mono.samples[0]
        mix = result.mixture.samples[:, lo:hi]
        base = max(ff.si_sdr(mix[c], image[c]) for c in range(2))
        after = max(ff.si_sdr(estimate, image[c]) for c in range(2))
        print(f"  {speaker}: best channel {base:6.2f} dB -> "
              f"enhanced {after:6.2f} dB  (gain {after - base:+.2f} dB)")


if __name__ == "__main__":
    main()
