"""Command line entry point.

Verbs::

    farfield enhance <manifest.json> [--config cfg.json] [--out DIR]
    farfield simulate <plan.json> <room.json> --out DIR [--seed N]
    farfield score --mode {cpcer,der} <ref> <hyp> [--collar S] [--no-score-overlap]
    farfield rover <hyp.txt>... [--alpha A] [--out FILE]
    farfield fuse-demo [--audio f.ftoy] [--video f.ftoy] [--seed N] [--out f.ftoy]

Exit codes: 0 success, 1 usage or parameter errors, 2 data or I/O
errors, 3 numerical failures. The ``FARFIELD_LOG`` environment variable
sets the log level (default WARNING).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .errors import DataError, FarfieldError, NumericalError, ParameterError, check_file_name
from .fusion import (
    CrossFusionParams,
    FeatureSequence,
    ParamSeed,
    cross_modal_fuse,
    ctc_loss,
    read_ftoy,
    write_ftoy,
)
from .gss import GssConfig, gss_enhance
from .metrics import DiarizationSet, TranscriptSet, cpcer, der
from .rover import NULL_TOKEN, rover
from .signal import WaveformBuffer
from .simulate import make_meeting
from .wavio import read_wav, write_wav

logger = logging.getLogger("farfield.cli")

# Error class -> exit code, most specific first; any other package error
# exits 1, the code Python gives an uncaught exception.
_EXIT_CODES = (
    (NumericalError, 3),
    (ParameterError, 1),
    ((DataError, OSError), 2),
    (FarfieldError, 1),
)


def _exit_code(exc: BaseException) -> int:
    """Exit code for a package or I/O error; any other error is re-raised."""
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    raise exc


def _write_wav_atomic(path, wav: WaveformBuffer) -> None:
    formats.atomic_write(path, lambda tmp: write_wav(tmp, wav, encoding="float32"))


def _input_hashes(paths) -> dict:
    """Content hashes keyed by file name (suffixed on collision)."""
    out: dict = {}
    for p in paths:
        key = Path(p).name
        if key in out:
            suffix = 2
            while f"{key}.{suffix}" in out:
                suffix += 1
            key = f"{key}.{suffix}"
        out[key] = formats.sha256_file(p)
    return out


# ------------------------------------------------------------- enhance

def _read_session_audio(manifest) -> WaveformBuffer:
    """Stack the manifest's wav files into one multichannel buffer."""
    buffers = [read_wav(p) for p in manifest.wav_paths]
    rates = {b.sample_rate_hz for b in buffers}
    if len(rates) != 1:
        raise DataError(f"session {manifest.session}: mixed sample rates {sorted(rates)}")
    lengths = {b.n_samples for b in buffers}
    if len(lengths) != 1:
        raise DataError(f"session {manifest.session}: wav lengths differ {sorted(lengths)}")
    samples = np.vstack([b.samples for b in buffers])
    return WaveformBuffer(samples, buffers[0].sample_rate_hz)


def _enhance_session(manifest, cfg, out_root: Path) -> dict:
    wav = _read_session_audio(manifest)
    segments = formats.read_rttm(manifest.rttm_path).for_session(manifest.session)
    for speaker in sorted({s.speaker for s in segments.segments}):
        # names an output directory
        formats._build(manifest.rttm_path, check_file_name, "speaker", speaker)
    session_dir = out_root / manifest.session
    outputs = []
    if not segments.segments:
        logger.warning("session %s: no segments in %s, nothing to enhance",
                       manifest.session, manifest.rttm_path)
    else:
        for (speaker, start_s, end_s), mono in gss_enhance(wav, segments, cfg).items():
            start_ms = int(round(start_s * 1000))
            end_ms = int(round(end_s * 1000))
            rel = f"{speaker}/{start_ms}-{end_ms}.wav"
            _write_wav_atomic(session_dir / rel, mono)
            outputs.append({
                "speaker": speaker,
                "start_ms": start_ms,
                "end_ms": end_ms,
                "path": rel,
                "sha256": formats.sha256_file(session_dir / rel),
            })
    outputs.sort(key=lambda o: (o["speaker"], o["start_ms"], o["end_ms"]))
    described = formats.describe_config(cfg)
    inputs = _input_hashes(list(manifest.wav_paths) + [manifest.rttm_path])
    formats.write_json(
        session_dir / "provenance.json",
        {"config": described, "inputs": inputs, "session": manifest.session},
    )
    index = {
        "session": manifest.session,
        "config_sha256": formats.config_fingerprint(described),
        "outputs": outputs,
    }
    formats.write_json(session_dir / "index.json", index)
    return index


def cmd_enhance(args) -> int:
    cfg = formats.load_pipeline_config(args.config) if args.config else GssConfig()
    manifests = formats.parse_manifests(args.manifest)
    planned = []
    session_dirs = set()
    for m in manifests:
        out_root = Path(args.out) if args.out else m.out_dir
        if out_root is None:
            raise ParameterError(
                f"session {m.session}: no output directory (set out_dir or --out)"
            )
        # two runs into one directory would overwrite each other's index
        session_dir = (out_root / m.session).resolve()
        if session_dir in session_dirs:
            raise DataError(f"session {m.session}: listed twice for the output {session_dir}")
        session_dirs.add(session_dir)
        planned.append((m, out_root))
    failures = []
    for m, out_root in planned:
        try:
            index = _enhance_session(m, cfg, out_root)
        except Exception as exc:  # reported now, mapped or re-raised once every session ran
            failures.append(exc)
            print(f"error: session {m.session}: {exc}", file=sys.stderr)
        else:
            print(f"session={m.session} files={len(index['outputs'])}")
    return max((_exit_code(exc) for exc in failures), default=0)


# ------------------------------------------------------------ simulate

def cmd_simulate(args) -> int:
    plan = formats.load_plan(args.plan)
    room = formats.load_room(args.room)
    if args.seed is not None:
        plan = replace(plan, seed=args.seed)
    # the plan and room may disagree
    result = formats._build(f"{args.plan}, {args.room}", make_meeting, plan, room)
    out = Path(args.out)
    _write_wav_atomic(out / "mixture.wav", result.mixture)
    for speaker in sorted(result.images):
        _write_wav_atomic(out / "images" / f"{speaker}.wav", result.images[speaker])
    if result.noise is not None:
        _write_wav_atomic(out / "noise.wav", result.noise)
    formats.write_rttm(out / "reference.rttm", result.reference)
    formats.write_json(out / "provenance.json", {
        "plan_sha256": formats.sha256_file(args.plan),
        "room_sha256": formats.sha256_file(args.room),
        "seed": plan.seed,
        "session": plan.session,
    })
    print(f"session={plan.session} samples={result.mixture.n_samples} "
          f"channels={result.mixture.channels}")
    return 0


# --------------------------------------------------------------- score

def _intersect_sessions(ref_sessions, hyp_sessions, what: str):
    common = sorted(set(ref_sessions) & set(hyp_sessions))
    only_ref = sorted(set(ref_sessions) - set(common))
    only_hyp = sorted(set(hyp_sessions) - set(common))
    if only_ref or only_hyp:
        logger.warning(
            "%s: scoring %d common sessions; reference-only %s, hypothesis-only %s",
            what, len(common), only_ref, only_hyp,
        )
    if not common:
        raise DataError(f"{what}: no sessions in common between reference and hypothesis")
    return common


def cmd_score(args) -> int:
    if args.mode == "cpcer":
        refs = formats.read_transcripts(args.ref)
        hyps = formats.read_transcripts(args.hyp)
        common = _intersect_sessions(refs.sessions(), hyps.sessions(), "cpcer")
        keep = set(common)
        refs = TranscriptSet(tuple(e for e in refs.entries if e.session in keep))
        hyps = TranscriptSet(tuple(e for e in hyps.entries if e.session in keep))
        rate, breakdown, assignment = cpcer(refs, hyps)
        print(f"cpCER: {100 * rate:.2f}% over {len(breakdown)} sessions")
        for session in sorted(breakdown):
            score = breakdown[session]
            print(f"  {session}: {100 * score.rate:.2f}% "
                  f"({score.errors} errors / {score.ref_chars} chars)")
        for session in sorted(breakdown):
            print(f"metric=cpcer session={session} value={breakdown[session].rate:.6f}")
        print(f"metric=cpcer session=ALL value={rate:.6f}")
        return 0
    ref = formats.read_rttm(args.ref)
    hyp = formats.read_rttm(args.hyp)
    common = _intersect_sessions(ref.sessions(), hyp.sessions(), "der")
    keep = set(common)
    ref = DiarizationSet(tuple(s for s in ref.segments if s.session in keep))
    hyp = DiarizationSet(tuple(s for s in hyp.segments if s.session in keep))
    rate, miss, fa, conf = der(
        ref, hyp, collar_s=args.collar, score_overlap=args.score_overlap
    )
    print(f"DER: {100 * rate:.2f}% "
          f"(miss {100 * miss:.2f}%, fa {100 * fa:.2f}%, conf {100 * conf:.2f}%)")
    for session in common:
        s_rate, _, _, _ = der(
            ref.for_session(session), hyp.for_session(session),
            collar_s=args.collar, score_overlap=args.score_overlap,
        )
        print(f"metric=der session={session} value={s_rate:.6f}")
    print(f"metric=der session=ALL value={rate:.6f}")
    return 0


# --------------------------------------------------------------- rover

def cmd_rover(args) -> int:
    files = sorted(args.hyps, key=lambda p: (Path(p).name, str(p)))
    maps = [formats.read_utterances(p) for p in files]
    for path, utts in zip(files, maps):
        for utt_id, tokens in utts.items():
            if NULL_TOKEN in tokens:
                raise DataError(
                    f"{path}: utterance {utt_id!r} holds the reserved token {NULL_TOKEN!r}"
                )
    all_ids = sorted(set().union(*maps))
    if not all_ids:
        raise DataError("rover: no utterances in any input file")
    fused = {}
    for utt_id in all_ids:
        hyp_lists = [list(m.get(utt_id, ())) for m in maps]
        fused[utt_id] = tuple(rover(hyp_lists, alpha=args.alpha))
    text = formats.format_utterances(fused)
    if args.out:
        formats.atomic_write_bytes(args.out, text.encode("utf-8"))
        print(f"fused {len(all_ids)} utterances from {len(files)} systems -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------- fuse-demo

def _load_feature(path, modality: str) -> FeatureSequence:
    arrays = read_ftoy(path)
    if not arrays or arrays[0].ndim != 2:
        raise DataError(f"{path}: expected a rank-2 feature array in the first block")
    return FeatureSequence(arrays[0], modality)


def cmd_fuse_demo(args) -> int:
    gen = ParamSeed(args.seed).generator()
    if args.audio:
        audio = _load_feature(args.audio, "audio")
    else:
        audio = FeatureSequence(gen.draw(args.audio_frames, args.dim), "audio")
    if args.video:
        video = _load_feature(args.video, "video")
    else:
        video = FeatureSequence(gen.draw(args.video_frames, args.dim), "video")
    if audio.dim != video.dim:
        raise DataError(
            f"audio dim {audio.dim} != video dim {video.dim}; fusion needs equal dims"
        )
    params = CrossFusionParams.seeded(gen, audio.dim, heads=args.heads)
    fused = cross_modal_fuse(audio, video, params)
    vocab = 5
    classifier = gen.draw(fused.dim, vocab)
    logits = fused.frames @ classifier
    log_probs = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    loss = ctc_loss(log_probs, (1, 2, 3))
    digest = formats.sha256_bytes(np.ascontiguousarray(fused.frames).tobytes())
    print(f"fused frames={fused.length} dim={fused.dim} sha256={digest}")
    print(f"ctc_loss={loss:.6f}")
    if args.out:
        write_ftoy(args.out, [fused.frames])
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() owns the exit code."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="farfield",
                     description="Far-field meeting enhancement and scoring tools.")
    sub = parser.add_subparsers(dest="verb")

    p = sub.add_parser("enhance", help="separate speakers from multichannel meetings")
    p.add_argument("manifest", help="session manifest JSON (object or list)")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", help="output root (overrides manifest out_dir)")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("simulate", help="render a meeting from sources and a room")
    p.add_argument("plan", help="mixture plan JSON")
    p.add_argument("room", help="room spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the plan seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("score", help="score transcripts (cpcer) or diarization (der)")
    p.add_argument("--mode", choices=("cpcer", "der"), required=True)
    p.add_argument("ref", help="reference file (transcripts or RTTM)")
    p.add_argument("hyp", help="hypothesis file (transcripts or RTTM)")
    p.add_argument("--collar", type=float, default=0.25, help="der collar in seconds")
    p.add_argument("--score-overlap", action=argparse.BooleanOptionalAction,
                   default=True, help="score frames where references overlap")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rover", help="fuse hypothesis files by word-level voting")
    p.add_argument("hyps", nargs="+", help="hypothesis text files")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="vote weight between counts (1.0) and confidences (0.0)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_rover)

    p = sub.add_parser("fuse-demo", help="run the audio-visual fusion forward pass")
    p.add_argument("--audio", help="audio features (ftoy); synthesized when absent")
    p.add_argument("--video", help="video features (ftoy); synthesized when absent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--dim", type=int, default=16, help="synthesized feature dim")
    p.add_argument("--audio-frames", type=int, default=24)
    p.add_argument("--video-frames", type=int, default=10)
    p.add_argument("--out", help="write fused features to this ftoy file")
    p.set_defaults(func=cmd_fuse_demo)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("FARFIELD_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.error("a verb is required (enhance, simulate, score, rover, fuse-demo)")
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (FarfieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
