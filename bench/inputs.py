"""Seeded input generation for the benchmark workloads.

Every generator is a pure function of its seed and size. The layout of a
workload (turn schedule, room geometry, transcript lengths) is fixed per
size, so the amount of work does not change with the seed; the seed only
draws the signal content, the noise and the text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import farfield as ff
from farfield.wavio import write_wav

FS = 16000
ROOM_DIMS = (6.0, 5.0, 3.0)
ABSORPTION = 0.5
SNR_DB = 20.0
# speaker positions around a small table, mic array in the middle
SPEAKER_POSITIONS = ((1.8, 3.6, 1.6), (4.3, 1.4, 1.5), (4.1, 3.9, 1.7))
MIC_POSITIONS = ((2.95, 2.45, 1.4), (3.05, 2.55, 1.4), (2.95, 2.55, 1.4), (3.05, 2.45, 1.4))
LETTERS = tuple("abcdefghijklmnopqrstuvwxyz")
NOVEL = tuple("0123456789")  # never in a reference transcript


@dataclass(frozen=True)
class SessionLayout:
    """Shape of a simulated enhance session; independent of the seed."""

    session: str
    duration_s: float
    n_mics: int
    max_order: int
    turns: tuple  # (speaker, start_s, end_s), times on a 1 ms grid
    config: dict  # pipeline config JSON; {} for the defaults
    background: float = 0.0  # level of an undiarized talker playing throughout


def meeting_layout(size: str) -> SessionLayout:
    """Dense, overlapping three-speaker turns, shorter than 2 x context_s.

    Each turn overlaps the next by 60%, so every segment's +-15 s context
    window covers the whole session (the shape of the 18 s, 19-segment
    meeting, shortened). The tiny size only lightens the config.
    """
    duration, k = 0.8, 3
    step = (duration - 0.1) / (k + 0.6)
    turns = []
    for i in range(k):
        a = 0.05 + i * step
        turns.append(("abc"[i % 3], round(a, 3), round(a + 1.6 * step, 3)))
    config = {} if size == "full" else {
        "wpe": {"taps": 2, "delay": 1, "iterations": 1}, "gss": {"em_iterations": 2}
    }
    return SessionLayout("meeting", duration, 4, 3, tuple(turns), config)


def turns_layout(size: str) -> SessionLayout:
    """Many short alternating two-speaker turns spaced wider than the
    1 s context, so each window holds one turn and frames are processed
    about once."""
    k, pitch, turn = {"full": (4, 2.2, 0.5), "tiny": (3, 1.2, 0.4)}[size]
    turns = tuple(
        ("ab"[i % 2], round(0.2 + i * pitch, 3), round(0.2 + i * pitch + turn, 3))
        for i in range(k)
    )
    config = {"wpe": None, "gss": {"context_s": 1.0}}
    if size == "tiny":
        config["gss"]["em_iterations"] = 2
    return SessionLayout("turns", round(k * pitch + 0.2, 3), 2, 3, turns, config, 0.5)


def _speechy(rng, n: int) -> np.ndarray:
    """Envelope-modulated noise standing in for speech."""
    t = np.arange(n) / FS
    rate = rng.uniform(2.0, 4.0)
    env = 0.55 + 0.45 * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi))
    return 0.1 * env * rng.standard_normal(n)


def session_plan(layout: SessionLayout, seed: int):
    """MixturePlan and RoomSpec of a session: one dry track per speaker,
    silent outside that speaker's turns."""
    rng = np.random.default_rng(seed)
    speakers = sorted({s for s, _, _ in layout.turns})
    n = int(round(layout.duration_s * FS))
    tracks = {s: np.zeros(n) for s in speakers}
    for spk, a, b in layout.turns:
        lo, hi = int(round(a * FS)), int(round(b * FS))
        tracks[spk][lo:hi] = _speechy(rng, hi - lo)
    if layout.background:
        speakers.append("zz")  # not in the RTTM: the noise class must absorb it
        tracks["zz"] = layout.background * _speechy(rng, n)
    room = ff.RoomSpec(
        dimensions=ROOM_DIMS,
        absorption=ABSORPTION,
        max_order=layout.max_order,
        sample_rate_hz=FS,
        source_positions=SPEAKER_POSITIONS[: len(speakers)],
        mic_positions=MIC_POSITIONS[: layout.n_mics],
    )
    plan = ff.MixturePlan(
        sources=tuple(
            ff.PlannedSource(s, ff.WaveformBuffer(tracks[s], FS), 0.0) for s in speakers
        ),
        snr_db=SNR_DB,
        seed=seed,
        session=layout.session,
    )
    return plan, room


def rttm_text(session: str, turns) -> str:
    return "".join(
        f"SPEAKER {session} 1 {a:.3f} {b - a:.3f} <NA> <NA> {spk} <NA> <NA>\n"
        for spk, a, b in sorted(turns, key=lambda t: (t[1], t[2], t[0]))
    )


def write_session(layout: SessionLayout, mixture, directory: Path) -> Path:
    """Write one float32 wav per mic, the RTTM, config and manifest.

    Returns the manifest path.
    """
    directory.mkdir(parents=True, exist_ok=True)
    wavs = []
    for c in range(mixture.channels):
        name = f"{layout.session}.CH{c}.wav"
        write_wav(directory / name, ff.WaveformBuffer(mixture.samples[c], FS), "float32")
        wavs.append(name)
    (directory / "ref.rttm").write_text(rttm_text(layout.session, layout.turns))
    (directory / "config.json").write_text(json.dumps(layout.config))
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"session": layout.session, "wavs": wavs, "rttm": "ref.rttm"}))
    return manifest


# ------------------------------------------------------------ scoring side

@dataclass(frozen=True)
class ScoringLayout:
    sim_seconds: float
    sim_mics: int
    sim_order: int
    cpcer_sessions: int
    cpcer_streams: int
    cpcer_chars: int
    cpcer_subs: int  # novel-character substitutions per hypothesis stream
    der_hours: float
    rover_systems: int
    rover_tokens: int


def scoring_layout(size: str) -> ScoringLayout:
    if size == "full":
        return ScoringLayout(4.0, 2, 6, 2, 4, 800, 12, 1.0, 5, 400)
    return ScoringLayout(0.5, 2, 1, 1, 2, 40, 2, 0.02, 5, 20)


def scoring_plan(layout: ScoringLayout, seed: int):
    """Two-source meeting at a high reflection order."""
    rng = np.random.default_rng(seed)
    n = int(round(layout.sim_seconds * FS))
    room = ff.RoomSpec(
        dimensions=ROOM_DIMS,
        absorption=ABSORPTION,
        max_order=layout.sim_order,
        sample_rate_hz=FS,
        source_positions=SPEAKER_POSITIONS[:2],
        mic_positions=MIC_POSITIONS[: layout.sim_mics],
    )
    plan = ff.MixturePlan(
        sources=(
            ff.PlannedSource("a", ff.WaveformBuffer(_speechy(rng, n), FS), 0.0),
            ff.PlannedSource("b", ff.WaveformBuffer(_speechy(rng, n), FS), 0.4),
        ),
        snr_db=SNR_DB,
        seed=seed,
        session="sim",
    )
    return plan, room


def transcripts(layout: ScoringLayout, seed: int):
    """Reference and hypothesis transcript files with known errors.

    Each hypothesis stream is its reference stream with ``cpcer_subs``
    characters replaced by digits (which never occur in a reference),
    renamed through a seeded permutation. The exact cpCER is therefore
    known: ``cpcer_subs`` errors per stream under that permutation.

    Returns (ref_text, hyp_text, permutations) where permutations maps
    session -> {ref stream: hyp stream}.
    """
    rng = np.random.default_rng(seed + 1)
    ref_lines, hyp_lines, perms = [], [], {}
    pieces = 8  # utterances per stream
    for si in range(layout.cpcer_sessions):
        session = f"s{si}"
        order = rng.permutation(layout.cpcer_streams)
        perms[session] = {f"r{i}": f"h{int(order[i])}" for i in range(layout.cpcer_streams)}
        for i in range(layout.cpcer_streams):
            chars = list(rng.choice(LETTERS, layout.cpcer_chars))
            hyp = list(chars)
            for pos in rng.choice(layout.cpcer_chars, layout.cpcer_subs, replace=False):
                hyp[pos] = str(rng.choice(NOVEL))
            bounds = np.linspace(0, layout.cpcer_chars, pieces + 1).astype(int)
            for u in range(pieces):
                a, b = 10.0 * u + i, 10.0 * u + i + 5.0
                text = "".join(chars[bounds[u]:bounds[u + 1]])
                htext = "".join(hyp[bounds[u]:bounds[u + 1]])
                ms = f"{int(a * 1000)}-{int(b * 1000)}"
                ref_lines.append(f"r{i}-{session}-{ms} {text}\n")
                hyp_lines.append(f"{perms[session][f'r{i}']}-{session}-{ms} {htext}\n")
    return "".join(ref_lines), "".join(hyp_lines), perms


def diarization(layout: ScoringLayout, seed: int):
    """Reference RTTM over ``der_hours`` and a hypothesis with shifted
    boundaries, dropped turns and swapped labels, plus the same
    hypothesis with every speaker renamed.

    Returns (ref_text, hyp_text, relabelled_hyp_text).
    """
    rng = np.random.default_rng(seed + 2)
    horizon = layout.der_hours * 3600.0
    ref, hyp, rel = [], [], []
    names = ("A", "B", "C", "D")
    t = 0.5
    while t < horizon - 10.0:
        spk = int(rng.integers(len(names)))
        dur = round(float(rng.uniform(0.5, 6.0)), 2)
        ref.append((names[spk], round(t, 2), round(t + dur, 2)))
        if rng.random() > 0.05:  # miss 5% of the turns
            shift = round(float(rng.normal(0.0, 0.2)), 2)
            a = max(0.0, round(t + shift, 2))
            b = round(max(a + 0.1, t + dur + shift), 2)
            lab = spk if rng.random() > 0.1 else int(rng.integers(len(names)))
            hyp.append((f"spk{lab}", a, b))
            rel.append((f"x{(3 * lab + 1) % len(names)}", a, b))
        t += dur + round(float(rng.uniform(-0.3, 1.0)), 2)
    def text(rows):
        return rttm_text("rec", rows)
    return text(ref), text(hyp), text(rel)


def rover_systems(layout: ScoringLayout, seed: int):
    """Equal-length token sequences in which each position is corrupted in
    at most two of the systems, with tokens no other system uses.

    Returns (hypothesis lines per system, truth tokens).
    """
    rng = np.random.default_rng(seed + 3)
    n = layout.rover_tokens
    truth = [f"w{int(v)}" for v in rng.integers(0, 10**6, n)]  # no shifted matches
    systems = [list(truth) for _ in range(layout.rover_systems)]
    for pos in range(n):
        bad = rng.choice(layout.rover_systems, int(rng.integers(0, 3)), replace=False)
        for s in bad:
            systems[int(s)][pos] = f"z{int(s)}_{pos}"
    return systems, truth


def utterance_text(tokens) -> str:
    return "utt " + " ".join(tokens) + "\n"
