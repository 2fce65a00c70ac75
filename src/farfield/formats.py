"""File formats and configuration plumbing for the command line.

Fixes the on-disk contracts: RTTM segment files, one-utterance-per-line
transcript files with ``<speaker>-<session>-<start_ms>-<end_ms>`` ids,
JSON configs with unknown-key rejection, atomic writes, and SHA-256
provenance hashing. Everything parses strictly and fails with the file
and line (or key) that is wrong; silent config typos are the dominant
pipeline failure mode and are rejected outright.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import DataError, FarfieldError, ParameterError
from .gss import GssConfig
from .metrics import DiarizationSet, TranscriptSet
from .signal import StftParams, WaveformBuffer
from .simulate import MixturePlan, PlannedSource, RoomSpec
from .wavio import read_wav
from .wpe import WpeConfig

RTTM_DECIMALS = 3


# ---------------------------------------------------------------- RTTM

def read_rttm(path) -> DiarizationSet:
    """Parse SPEAKER records from an RTTM file.

    Blank lines, ``;;`` comments and non-SPEAKER record types are
    skipped; malformed SPEAKER lines raise a data error naming the line.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(";;"):
                continue
            fields = stripped.split()
            if fields[0] != "SPEAKER":
                continue
            if len(fields) < 8:
                raise DataError(f"{path}:{lineno}: SPEAKER line has {len(fields)} fields")
            try:
                tbeg = float(fields[3])
                tdur = float(fields[4])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: unparseable times") from exc
            if tdur <= 0:
                raise DataError(f"{path}:{lineno}: non-positive duration {tdur}")
            rows.append((fields[1], fields[7], tbeg, tbeg + tdur))
    try:
        return DiarizationSet.from_rows(rows)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def format_rttm(segments: DiarizationSet) -> str:
    lines = []
    ordered = sorted(
        segments.segments, key=lambda s: (s.session, s.start_s, s.end_s, s.speaker)
    )
    for s in ordered:
        tbeg = f"{s.start_s:.{RTTM_DECIMALS}f}"
        tdur = f"{s.end_s - s.start_s:.{RTTM_DECIMALS}f}"
        lines.append(f"SPEAKER {s.session} 1 {tbeg} {tdur} <NA> <NA> {s.speaker} <NA> <NA>")
    return "".join(line + "\n" for line in lines)


def write_rttm(path, segments: DiarizationSet) -> None:
    atomic_write_bytes(path, format_rttm(segments).encode("utf-8"))


# ------------------------------------------------------ transcript files

def build_utt_id(speaker: str, session: str, start_s: float, end_s: float) -> str:
    """``<speaker>-<session>-<start_ms>-<end_ms>``; ids must be dash-free."""
    for name, value in (("speaker", speaker), ("session", session)):
        if "-" in value or any(ch.isspace() for ch in value) or not value:
            raise ParameterError(
                f"{name} {value!r} must be non-empty without dashes or whitespace"
            )
    return f"{speaker}-{session}-{int(round(start_s * 1000))}-{int(round(end_s * 1000))}"


def parse_utt_id(utt_id: str) -> tuple:
    """Inverse of :func:`build_utt_id`: (speaker, session, start_s, end_s)."""
    parts = utt_id.split("-")
    if len(parts) != 4:
        raise DataError(f"utterance id {utt_id!r} is not speaker-session-start-end")
    speaker, session, start_ms, end_ms = parts
    try:
        start, end = int(start_ms), int(end_ms)
    except ValueError as exc:
        raise DataError(f"utterance id {utt_id!r} has non-integer times") from exc
    if start >= end:
        raise DataError(f"utterance id {utt_id!r} has start >= end")
    return speaker, session, start / 1000.0, end / 1000.0


def read_transcripts(path) -> TranscriptSet:
    """Read ``<utt_id> <text...>`` lines into a scored transcript set."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            utt_id, _, text = stripped.partition(" ")
            try:
                speaker, session, start, end = parse_utt_id(utt_id)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            rows.append((session, speaker, start, end, text))
    try:
        return TranscriptSet.from_rows(rows)
    except ParameterError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_utterances(path) -> dict:
    """Hypothesis file as utterance id -> token tuple (whitespace split).

    Duplicate ids within one file are an error.
    """
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            utt_id, *tokens = stripped.split()
            if utt_id in out:
                raise DataError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
            out[utt_id] = tuple(tokens)
    return out


def format_utterances(utts: dict) -> str:
    return "".join(
        (utt_id + (" " + " ".join(tokens) if tokens else "") + "\n")
        for utt_id, tokens in sorted(utts.items())
    )


# ------------------------------------------------------------- hashing

def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file and rename, never leaving partial output."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".part")
    tmp.write_bytes(data)
    os.replace(tmp, target)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_fingerprint(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode("utf-8"))


# ------------------------------------------------------ config parsing

def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _mapping(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise DataError(f"{context}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(d: dict, allowed, context: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise DataError(
            f"{context}: unknown keys {unknown}; allowed keys are {sorted(allowed)}"
        )


def _build(cls, kwargs: dict, context: str):
    try:
        return cls(**kwargs)
    except FarfieldError as exc:
        raise DataError(f"{context}: {exc}") from exc


def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def parse_stft_config(obj, context: str = "stft") -> StftParams:
    d = _mapping(obj, context)
    _reject_unknown(d, _field_names(StftParams), context)
    return _build(StftParams, d, context)


def parse_wpe_config(obj, context: str = "wpe") -> WpeConfig | None:
    if obj is None:
        return None
    d = _mapping(obj, context)
    _reject_unknown(d, _field_names(WpeConfig), context)
    return _build(WpeConfig, d, context)


# GssConfig fields at the top level of the JSON layout; the rest sit under "gss"
_GSS_TOP_LEVEL = ("seed", "stft", "wpe")
_GSS_NESTED = tuple(n for n in _field_names(GssConfig) if n not in _GSS_TOP_LEVEL)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the orchestration verbs need, one sub-config per stage."""

    gss: GssConfig = GssConfig()

    def describe(self) -> dict:
        """JSON-ready serialization, used for provenance and hashing.

        Built from the dataclass fields, so every field is fingerprinted
        and :func:`parse_pipeline_config` reads the result back.
        """
        g = self.gss
        return {
            "seed": g.seed,
            "stft": asdict(g.stft),
            "wpe": None if g.wpe is None else asdict(g.wpe),
            "gss": {name: getattr(g, name) for name in _GSS_NESTED},
        }


def parse_pipeline_config(obj, context: str = "config") -> PipelineConfig:
    d = _mapping(obj, context)
    _reject_unknown(d, _GSS_TOP_LEVEL + _field_names(PipelineConfig), context)
    stft = parse_stft_config(d.get("stft", {}), f"{context}.stft")
    wpe_cfg = parse_wpe_config(d.get("wpe", {}), f"{context}.wpe")
    gss_part = _mapping(d.get("gss", {}), f"{context}.gss")
    _reject_unknown(gss_part, _GSS_NESTED, f"{context}.gss")
    seed = d.get("seed", 0)
    if not isinstance(seed, int):
        raise DataError(f"{context}: seed must be an integer, got {seed!r}")
    gss = _build(
        GssConfig,
        {"stft": stft, "wpe": wpe_cfg, "seed": seed, **gss_part},
        f"{context}.gss",
    )
    return PipelineConfig(gss=gss)


def load_pipeline_config(path) -> PipelineConfig:
    return parse_pipeline_config(load_json(path), context=str(path))


# --------------------------------------------------------- manifests

@dataclass(frozen=True)
class SessionManifest:
    """One session's inputs: recordings, diarization, and output home."""

    session: str
    wav_paths: tuple
    rttm_path: Path
    out_dir: Path | None = None

    def __post_init__(self):
        if not self.session:
            raise ParameterError("session id must be non-empty")
        if not self.wav_paths:
            raise ParameterError("manifest needs at least one wav path")
        object.__setattr__(self, "wav_paths", tuple(Path(p) for p in self.wav_paths))
        object.__setattr__(self, "rttm_path", Path(self.rttm_path))
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))


def parse_manifests(path) -> list:
    """Read one or several session manifests; paths resolve relative to
    the manifest file's directory."""
    data = load_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise DataError(f"{path}: expected a manifest object or non-empty list")
    base = Path(path).resolve().parent
    out = []
    for i, item in enumerate(data):
        context = f"{path}[{i}]"
        d = _mapping(item, context)
        _reject_unknown(d, ("session", "wavs", "rttm", "out_dir"), context)
        for key in ("session", "wavs", "rttm"):
            if key not in d:
                raise DataError(f"{context}: missing required key {key!r}")
        out.append(
            _build(
                SessionManifest,
                {
                    "session": d["session"],
                    "wav_paths": tuple(base / p for p in d["wavs"]),
                    "rttm_path": base / d["rttm"],
                    "out_dir": (base / d["out_dir"]) if "out_dir" in d else None,
                },
                context,
            )
        )
    return out


# ------------------------------------------------- simulation configs

def parse_room(obj, context: str = "room") -> RoomSpec:
    d = _mapping(obj, context)
    _reject_unknown(
        d,
        (
            "dimensions",
            "absorption",
            "max_order",
            "sample_rate_hz",
            "speed_of_sound",
            "source_positions",
            "mic_positions",
        ),
        context,
    )
    for key in ("dimensions", "absorption", "max_order", "sample_rate_hz",
                "source_positions", "mic_positions"):
        if key not in d:
            raise DataError(f"{context}: missing required key {key!r}")
    kwargs = dict(d)
    kwargs["dimensions"] = tuple(kwargs["dimensions"])
    kwargs["source_positions"] = tuple(tuple(p) for p in kwargs["source_positions"])
    kwargs["mic_positions"] = tuple(tuple(p) for p in kwargs["mic_positions"])
    return _build(RoomSpec, kwargs, context)


def load_room(path) -> RoomSpec:
    return parse_room(load_json(path), context=str(path))


def load_plan(path) -> MixturePlan:
    """Plan file: sources with wav paths and onsets, plus the noise floor.

    ``noise`` may be ``"gaussian"`` (seeded white noise), a wav path, or
    absent together with ``snr_db`` for a noise-free mixture.
    """
    context = str(path)
    d = _mapping(load_json(path), context)
    _reject_unknown(d, ("session", "seed", "snr_db", "noise", "sources"), context)
    if "sources" not in d or not d["sources"]:
        raise DataError(f"{context}: missing or empty 'sources'")
    base = Path(path).resolve().parent
    sources = []
    for i, item in enumerate(d["sources"]):
        sctx = f"{context}.sources[{i}]"
        s = _mapping(item, sctx)
        _reject_unknown(s, ("speaker", "wav", "onset_s"), sctx)
        for key in ("speaker", "wav"):
            if key not in s:
                raise DataError(f"{sctx}: missing required key {key!r}")
        sources.append(
            _build(
                PlannedSource,
                {
                    "speaker": s["speaker"],
                    "audio": read_wav(base / s["wav"]),
                    "onset_s": float(s.get("onset_s", 0.0)),
                },
                sctx,
            )
        )
    noise_spec = d.get("noise")
    noise: WaveformBuffer | None = None
    if noise_spec not in (None, "gaussian"):
        noise = read_wav(base / noise_spec)
    return _build(
        MixturePlan,
        {
            "sources": tuple(sources),
            "snr_db": d.get("snr_db"),
            "noise": noise,
            "seed": int(d.get("seed", 0)),
            "session": d.get("session", "sim0"),
        },
        context,
    )
