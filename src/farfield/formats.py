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
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .errors import DataError, FarfieldError, ParameterError, check_field, check_file_name
from .gss import GssConfig
from .metrics import DiarizationSet, TranscriptSet
from .signal import WaveformBuffer
from .simulate import MixturePlan, PlannedSource, RoomSpec
from .wavio import read_wav
from .wpe import WpeConfig

RTTM_DECIMALS = 3


def _records(path):
    """(line number, stripped line) for each non-blank line of a UTF-8 text
    file; bytes that are not UTF-8 are a data error."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped:
                    yield lineno, stripped
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _build(context: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, which builds objects from file content; a
    package error it raises becomes a data error prefixed with ``context``."""
    try:
        return make(*args, **kwargs)
    except FarfieldError as exc:
        raise DataError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------- RTTM

def read_rttm(path) -> DiarizationSet:
    """Parse SPEAKER records from an RTTM file.

    Blank lines, ``;;`` comments and non-SPEAKER record types are
    skipped; malformed SPEAKER lines raise a data error naming the line.
    """
    rows = []
    for lineno, line in _records(path):
        fields = line.split()
        if fields[0] != "SPEAKER":  # also every ;; comment
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
    return _build(path, DiarizationSet.from_rows, rows)


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

def parse_utt_id(utt_id: str) -> tuple:
    """``<speaker>-<session>-<start_ms>-<end_ms>`` as (speaker, session, start_s, end_s)."""
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
    for lineno, line in _records(path):
        utt_id, _, text = line.partition(" ")
        speaker, session, start, end = _build(f"{path}:{lineno}", parse_utt_id, utt_id)
        rows.append((session, speaker, start, end, text))
    return _build(path, TranscriptSet.from_rows, rows)


def read_utterances(path) -> dict:
    """Hypothesis file as utterance id -> token tuple (whitespace split).

    Duplicate ids within one file are an error.
    """
    out: dict = {}
    for lineno, line in _records(path):
        utt_id, *tokens = line.split()
        if utt_id in out:
            raise DataError(f"{path}:{lineno}: duplicate utterance id {utt_id!r}")
        out[utt_id] = tuple(tokens)
    return out


def format_utterances(utts: dict) -> str:
    """``<utt_id> <tokens...>`` lines sorted by id, which
    :func:`read_utterances` reads back unchanged.

    Raises
    ------
    ParameterError
        An id or token is empty or holds whitespace.
    """
    for utt_id, tokens in utts.items():
        check_field("utterance id", utt_id)
        for tok in tokens:
            check_field(f"token of {utt_id}", tok)
    return "".join(
        (utt_id + (" " + " ".join(tokens) if tokens else "") + "\n")
        for utt_id, tokens in sorted(utts.items())
    )


# ------------------------------------------------------------- hashing

def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def atomic_write(path, write) -> None:
    """Call ``write(tmp)`` on a temp path beside ``path``, then rename the
    temp file onto ``path``, so no partial output is ever left there."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".part")
    write(tmp)
    os.replace(tmp, target)


def atomic_write_bytes(path, data: bytes) -> None:
    atomic_write(path, lambda tmp: tmp.write_bytes(data))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_json(path, obj) -> None:
    """``obj`` as one line of canonical JSON, written atomically."""
    atomic_write_bytes(path, (canonical_json(obj) + "\n").encode("utf-8"))


def config_fingerprint(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode("utf-8"))


# ------------------------------------------------------ config parsing

def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _object(obj, context: str, required=(), optional=()) -> dict:
    """``obj`` if it is a JSON object that has every ``required`` key and
    no key outside ``required`` and ``optional``; otherwise a data error
    naming ``context``."""
    if not isinstance(obj, dict):
        raise DataError(f"{context}: expected an object, got {type(obj).__name__}")
    allowed = sorted((*required, *optional))
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise DataError(f"{context}: unknown keys {unknown}; allowed keys are {allowed}")
    for key in required:
        if key not in obj:
            raise DataError(f"{context}: missing required key {key!r}")
    return obj


def _path(base: Path, value, context: str, key: str) -> Path:
    """``value`` resolved against ``base``; a value that is not a string, or
    holds a NUL that no file name can, is a data error naming ``key``."""
    if not isinstance(value, str) or "\0" in value:
        raise DataError(f"{context}: {key} must be a path string without NUL, got {value!r}")
    return base / value


def _parse_fields(cls, obj, context: str):
    """Build dataclass ``cls`` from a JSON object keyed by its field names.

    Keys that name no field are rejected, and so is a missing key for a
    field without a default; both errors name ``context``.
    """
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    optional = [f.name for f in fields(cls) if f.name not in required]
    return _build(context, cls, **_object(obj, context, required, optional))


# GssConfig fields at the top level of the JSON layout; the rest sit under "gss"
_GSS_TOP_LEVEL = ("wpe",)
_GSS_NESTED = tuple(f.name for f in fields(GssConfig) if f.name not in _GSS_TOP_LEVEL)


def describe_config(cfg: GssConfig) -> dict:
    """JSON-ready form of an enhancement config, used for provenance and hashing.

    Built from the dataclass fields, so every field is fingerprinted and
    :func:`parse_pipeline_config` reads the result back.
    """
    return {
        "wpe": None if cfg.wpe is None else asdict(cfg.wpe),
        "gss": {name: getattr(cfg, name) for name in _GSS_NESTED},
    }


def parse_pipeline_config(obj, context: str = "config") -> GssConfig:
    """Enhancement config from the layout :func:`describe_config` writes.

    Every key is optional and defaults to the :class:`GssConfig` field.
    """
    d = _object(obj, context, optional=(*_GSS_TOP_LEVEL, "gss"))
    wpe_cfg = d.get("wpe", {})
    if wpe_cfg is not None:
        wpe_cfg = _parse_fields(WpeConfig, wpe_cfg, f"{context}.wpe")
    gss_part = _object(d.get("gss", {}), f"{context}.gss", optional=_GSS_NESTED)
    return _build(context, GssConfig, wpe=wpe_cfg, **gss_part)


def load_pipeline_config(path) -> GssConfig:
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
        check_file_name("session", self.session)
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
        d = _object(item, context, ("session", "wavs", "rttm"), ("out_dir",))
        wavs = d["wavs"]
        if not isinstance(wavs, list):
            raise DataError(f"{context}: wavs must be a list of paths, got {wavs!r}")
        out_dir = _path(base, d["out_dir"], context, "out_dir") if "out_dir" in d else None
        out.append(
            _build(
                context,
                SessionManifest,
                session=d["session"],
                wav_paths=tuple(_path(base, p, context, f"wavs[{j}]") for j, p in enumerate(wavs)),
                rttm_path=_path(base, d["rttm"], context, "rttm"),
                out_dir=out_dir,
            )
        )
    return out


# ------------------------------------------------- simulation configs

def load_room(path) -> RoomSpec:
    return _parse_fields(RoomSpec, load_json(path), str(path))


def load_plan(path) -> MixturePlan:
    """Plan file: sources with wav paths and onsets, plus the noise floor.

    ``noise`` may be ``"gaussian"`` (seeded white noise), a wav path, or
    absent together with ``snr_db`` for a noise-free mixture.
    """
    context = str(path)
    d = _object(
        load_json(path), context, optional=("session", "seed", "snr_db", "noise", "sources")
    )
    items = d.get("sources", [])
    if not isinstance(items, list):
        raise DataError(f"{context}: sources must be a list of sources, got {items!r}")
    if not items:
        raise DataError(f"{context}: missing or empty 'sources'")
    base = Path(path).resolve().parent
    sources = []
    for i, item in enumerate(items):
        sctx = f"{context}.sources[{i}]"
        s = _object(item, sctx, ("speaker", "wav"), ("onset_s",))
        audio = read_wav(_path(base, s["wav"], sctx, "wav"))
        sources.append(_build(sctx, PlannedSource, s["speaker"], audio, s.get("onset_s", 0.0)))
    noise_spec = d.get("noise")
    noise: WaveformBuffer | None = None
    if noise_spec not in (None, "gaussian"):
        noise = read_wav(_path(base, noise_spec, context, "noise"))
    return _build(
        context,
        MixturePlan,
        sources=tuple(sources),
        snr_db=d.get("snr_db"),
        noise=noise,
        seed=d.get("seed", 0),
        session=d.get("session", "sim0"),
    )
