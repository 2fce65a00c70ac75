"""The three benchmark workloads.

Each workload has the same life cycle, driven by ``run.py``:

``setup_round()``
    Generate the seeded inputs and write them under the work directory.
    ``trace_setup`` says whether a traced run should trace one round
    (true where set-up calls the package).
``warm_up()``
    Run the operation once at the smallest size, so lazy imports and
    library caches are filled before anything is timed.
``run_op()``
    One measured operation. Returns its timings in seconds; the first
    key, ``op_wall_s``, is the whole operation.
``check()``
    Check the outputs of the last operation. Returns (attempted, failed);
    ``ops_per_run`` operations are attempted each time.
``figures(times)``
    Workload-specific end-to-end figures, from the fastest timings and the
    checked outputs, as name -> (value, unit).

``track_memory`` says whether a traced run records tracemalloc peaks
(only the enhance workloads report them; tracemalloc slows the pure
Python scoring code the most).

``corrupt=True`` damages one output after each operation and before its
check, which must then count failures; it exists for the smoke test.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import farfield
import farfield.cli
import farfield.formats
import farfield.metrics
import farfield.simulate
import farfield.wavio

from inputs import (
    FS,
    diarization,
    meeting_layout,
    rover_systems,
    scoring_layout,
    scoring_plan,
    session_plan,
    transcripts,
    turns_layout,
    utterance_text,
    write_session,
)

# the package re-exports the function rover() under the submodule's name
rover_module = importlib.import_module("farfield.rover")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class EnhanceWorkload:
    """``farfield enhance`` on one simulated session, through ``cli.main``."""

    track_memory = True
    trace_setup = True

    def __init__(self, layout_fn, size, seed, workdir: Path, corrupt=False):
        self.layout_fn = layout_fn
        self.layout = layout_fn(size)
        self.seed = seed
        self.workdir = workdir
        self.corrupt = corrupt
        self.first_shas = None
        self.output_sha256 = None
        self.sdr_gains = None

    @property
    def ops_per_run(self) -> int:
        return len(self.layout.turns)

    def setup_round(self) -> None:
        plan, room = session_plan(self.layout, self.seed)
        self.sim = farfield.simulate.make_meeting(plan, room)
        self.manifest = write_session(self.layout, self.sim.mixture, self.workdir / "in")
        self.config = self.manifest.parent / "config.json"
        self.session_s = self.sim.mixture.n_samples / FS
        # expected outputs, derived from the RTTM text as a reader parses it
        self.expected = []
        for line in (self.manifest.parent / "ref.rttm").read_text().splitlines():
            f = line.split()
            start_s, end_s = float(f[3]), float(f[3]) + float(f[4])
            self.expected.append((f[7], start_s, end_s))
        self.expected.sort(key=lambda e: (e[0], e[1], e[2]))
        stft_params = farfield.StftParams()
        probe = farfield.WaveformBuffer(np.zeros(self.sim.mixture.n_samples), FS)
        self.session_frames = farfield.stft(probe, stft_params).frames

    def warm_up(self) -> None:
        small = EnhanceWorkload(self.layout_fn, "tiny", self.seed, self.workdir / "warm")
        small.setup_round()
        small.run_op()
        shutil.rmtree(self.workdir / "warm")

    def run_op(self) -> dict:
        out = self.workdir / "out"
        if out.exists():
            shutil.rmtree(out)
        argv = ["enhance", str(self.manifest), "--config", str(self.config), "--out", str(out)]
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            self.exit_code = farfield.cli.main(argv)
        wall = perf_counter() - start
        self.cli_stdout = stdout.getvalue()
        self.out_dir = out / self.layout.session
        if self.corrupt:
            self._damage_one_output()
        return {"op_wall_s": wall}

    def _damage_one_output(self) -> None:
        index = self.out_dir / "index.json"
        if index.exists():
            first = json.loads(index.read_text())["outputs"][0]["path"]
            wav = farfield.wavio.read_wav(self.out_dir / first)
            short = farfield.WaveformBuffer(wav.samples[:, :-1], wav.sample_rate_hz)
            farfield.wavio.write_wav(self.out_dir / first, short, "float32")

    def check(self) -> tuple:
        """One operation per expected segment: exit code 0 and the summary
        line for the expected file count, then per segment an index entry,
        a finite mono output of the segment's length whose hash matches
        the index and the first operation's output."""
        attempted = self.ops_per_run
        summary = f"session={self.layout.session} files={len(self.expected)}"
        if self.exit_code != 0 or self.cli_stdout.strip() != summary:
            return attempted, attempted
        try:
            index = json.loads((self.out_dir / "index.json").read_text())
            entries = {(o["speaker"], o["start_ms"], o["end_ms"]): o for o in index["outputs"]}
        except (OSError, ValueError, KeyError):
            return attempted, attempted
        shas, outputs, failed = [], [], 0
        for speaker, start_s, end_s in self.expected:
            key = (speaker, int(round(start_s * 1000)), int(round(end_s * 1000)))
            entry = entries.get(key)
            ok = entry is not None
            sha = None
            if ok:
                path = self.out_dir / entry["path"]
                sha = _sha256(path) if path.exists() else None
                ok = sha == entry["sha256"]
            if ok:
                wav = farfield.wavio.read_wav(path)
                length = int(round(end_s * FS)) - int(round(start_s * FS))
                ok = (wav.channels == 1 and wav.n_samples == length
                      and bool(np.all(np.isfinite(wav.samples))))
            if ok and self.first_shas is not None:
                ok = sha == self.first_shas[len(shas)]
            failed += not ok
            shas.append(sha)
            outputs.append(wav.samples[0] if ok else None)
        if self.first_shas is None:
            self.first_shas = shas
            canon = json.dumps(index["outputs"], sort_keys=True, separators=(",", ":"))
            self.output_sha256 = hashlib.sha256(canon.encode()).hexdigest()
            if failed == 0:
                self.sdr_gains = self._sdr_gains(outputs)
        return attempted, failed

    def _sdr_gains(self, outputs) -> list:
        """SI-SDR of each enhanced segment minus that of the best raw
        channel, both against the target speaker's simulated image."""
        si_sdr = farfield.metrics.si_sdr
        gains = []
        for (speaker, start_s, end_s), est in zip(self.expected, outputs):
            lo, hi = int(round(start_s * FS)), int(round(end_s * FS))
            image = self.sim.images[speaker].samples[:, lo:hi]
            mix = self.sim.mixture.samples[:, lo:hi]
            raw = max(si_sdr(mix[c], image[c]) for c in range(image.shape[0]))
            enh = max(si_sdr(est, image[c]) for c in range(image.shape[0]))
            gains.append(enh - raw)
        return gains

    def figures(self, times: dict) -> dict:
        out = {"enhance_rtf": (times["op_wall_s"] / self.session_s, "ratio")}
        if self.sdr_gains is not None:
            out["sdr_gain_db"] = (float(np.mean(self.sdr_gains)), "dB")
        return out


class SimulateScoreWorkload:
    """make_meeting at a high reflection order, cpCER and DER on long
    inputs, and ROVER over long hypotheses; no enhancement."""

    track_memory = False
    trace_setup = False  # set-up only parses files
    ops_per_run = 5  # make_meeting, cpcer, two der calls, rover
    session_frames = 0

    def __init__(self, size, seed, workdir: Path, corrupt=False):
        self.layout = scoring_layout(size)
        self.seed = seed
        self.workdir = workdir
        self.corrupt = corrupt

    def setup_round(self) -> None:
        lay, seed, d = self.layout, self.seed, self.workdir / "in"
        d.mkdir(parents=True, exist_ok=True)
        self.plan, self.room = scoring_plan(lay, seed)
        ref_trn, hyp_trn, self.perms = transcripts(lay, seed)
        (d / "ref.trn").write_text(ref_trn)
        (d / "hyp.trn").write_text(hyp_trn)
        ref_rttm, hyp_rttm, rel_rttm = diarization(lay, seed)
        for name, text in (("ref", ref_rttm), ("hyp", hyp_rttm), ("rel", rel_rttm)):
            (d / f"{name}.rttm").write_text(text)
        systems, self.truth = rover_systems(lay, seed)
        for i, tokens in enumerate(systems):
            (d / f"sys{i}.txt").write_text(utterance_text(tokens))
        formats = farfield.formats
        self.refs = formats.read_transcripts(d / "ref.trn")
        self.hyps = formats.read_transcripts(d / "hyp.trn")
        self.ref_rttm = formats.read_rttm(d / "ref.rttm")
        self.hyp_rttm = formats.read_rttm(d / "hyp.rttm")
        self.rel_rttm = formats.read_rttm(d / "rel.rttm")
        self.systems = [
            list(formats.read_utterances(d / f"sys{i}.txt")["utt"]) for i in range(len(systems))
        ]

    def warm_up(self) -> None:
        small = SimulateScoreWorkload("tiny", self.seed, self.workdir / "warm")
        small.setup_round()
        small.run_op()
        shutil.rmtree(self.workdir / "warm")

    def run_op(self) -> dict:
        t0 = perf_counter()
        self.sim = farfield.simulate.make_meeting(self.plan, self.room)
        t1 = perf_counter()
        self.cpcer_out = farfield.metrics.cpcer(self.refs, self.hyps)
        self.der_out = farfield.metrics.der(self.ref_rttm, self.hyp_rttm)
        t2 = perf_counter()
        self.fused = rover_module.rover(self.systems)
        t3 = perf_counter()
        if self.corrupt:
            self.fused = self.fused[1:]
        return {"op_wall_s": t3 - t0, "simulate_s": t1 - t0, "score_s": t2 - t1,
                "rover_s": t3 - t2}

    def check(self) -> tuple:
        failed = 0
        # the mixture is the images plus the noise, bit for bit
        images = self.sim.images
        expected = np.zeros_like(self.sim.mixture.samples)
        for source in self.plan.sources:
            expected += images[source.speaker].samples
        expected = expected + self.sim.noise.samples
        failed += not np.array_equal(expected, self.sim.mixture.samples)
        # exactly cpcer_subs errors per stream, under the planted permutation
        rate, breakdown, assignment = self.cpcer_out
        lay = self.layout
        per_session = lay.cpcer_subs * lay.cpcer_streams
        ok = all(breakdown[s].errors == per_session for s in self.perms)
        ok = ok and all(dict(assignment[s]) == self.perms[s] for s in self.perms)
        total_chars = lay.cpcer_sessions * lay.cpcer_streams * lay.cpcer_chars
        ok = ok and rate == len(self.perms) * per_session / total_chars
        failed += not ok
        # DER is positive, consistent, and blind to speaker names
        der_rate, miss, fa, conf = self.der_out
        failed += not (0.0 < der_rate < 1.0 and math.isclose(der_rate, miss + fa + conf))
        failed += farfield.metrics.der(self.ref_rttm, self.rel_rttm) != self.der_out
        # each position is corrupted in at most 2 of 5 systems
        failed += list(self.fused) != self.truth
        return self.ops_per_run, failed

    def figures(self, times: dict) -> dict:
        return {name: (times[name], "s") for name in ("simulate_s", "score_s", "rover_s")}


def make_workload(name: str, size: str, seed: int, workdir: Path, corrupt=False):
    if name == "meeting":
        return EnhanceWorkload(meeting_layout, size, seed, workdir, corrupt)
    if name == "turns":
        return EnhanceWorkload(turns_layout, size, seed, workdir, corrupt)
    if name == "simulate-score":
        return SimulateScoreWorkload(size, seed, workdir, corrupt)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("meeting", "turns", "simulate-score")
