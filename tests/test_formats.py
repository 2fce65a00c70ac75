"""On-disk contracts: RTTM, utterance ids, transcripts, JSON configs."""

import json
from dataclasses import replace

import numpy as np
import pytest

from farfield import (
    DataError,
    DiarizationSet,
    GssConfig,
    ParameterError,
    WaveformBuffer,
    WpeConfig,
    atomic_write_bytes,
    canonical_json,
    config_fingerprint,
    describe_config,
    format_rttm,
    format_utterances,
    load_json,
    load_pipeline_config,
    load_plan,
    load_room,
    parse_manifests,
    parse_pipeline_config,
    parse_utt_id,
    read_rttm,
    read_transcripts,
    read_utterances,
    sha256_bytes,
    sha256_file,
    write_rttm,
    write_wav,
)

FS = 16000


# ---------------------------------------------------------------- RTTM


def test_rttm_roundtrip(tmp_path):
    segs = DiarizationSet.from_rows(
        [
            ("mtg", "alice", 0.5, 1.75),
            ("mtg", "bob", 1.0, 2.25),
            ("other", "alice", 0.0, 0.125),
        ]
    )
    path = tmp_path / "ref.rttm"
    write_rttm(path, segs)
    back = read_rttm(path)
    assert sorted(
        (s.session, s.speaker, s.start_s, s.end_s) for s in back.segments
    ) == sorted((s.session, s.speaker, s.start_s, s.end_s) for s in segs.segments)


def test_rttm_line_format_and_order():
    segs = DiarizationSet.from_rows(
        [("m", "bob", 1.0, 2.0), ("m", "alice", 0.5, 1.75)]
    )
    assert format_rttm(segs) == (
        "SPEAKER m 1 0.500 1.250 <NA> <NA> alice <NA> <NA>\n"
        "SPEAKER m 1 1.000 1.000 <NA> <NA> bob <NA> <NA>\n"
    )


def test_rttm_skips_comments_and_other_record_types(tmp_path):
    path = tmp_path / "mixed.rttm"
    path.write_text(
        ";; a comment\n"
        "\n"
        "SPKR-INFO m 1 <NA> <NA> <NA> unknown alice <NA>\n"
        "SPEAKER m 1 0.000 1.000 <NA> <NA> alice <NA> <NA>\n"
    )
    back = read_rttm(path)
    assert len(back.segments) == 1
    assert back.segments[0].speaker == "alice"


def test_rttm_malformed_lines_name_the_line(tmp_path):
    path = tmp_path / "bad.rttm"
    path.write_text("SPEAKER m 1 0.0 1.0\n")
    with pytest.raises(DataError, match=r"bad\.rttm:1.*fields"):
        read_rttm(path)
    path.write_text("SPEAKER m 1 zero 1.0 <NA> <NA> a <NA> <NA>\n")
    with pytest.raises(DataError, match=r"bad\.rttm:1.*times"):
        read_rttm(path)
    path.write_text("SPEAKER m 1 1.0 0.0 <NA> <NA> a <NA> <NA>\n")
    with pytest.raises(DataError, match=r"bad\.rttm:1.*duration"):
        read_rttm(path)


# ------------------------------------------------------- utterance ids


def test_utt_id_roundtrip():
    utt = "alice-mtg03-1234-2500"
    speaker, session, start_s, end_s = parse_utt_id(utt)
    assert (speaker, session, start_s, end_s) == ("alice", "mtg03", 1.234, 2.5)
    assert f"{speaker}-{session}-{round(start_s * 1000)}-{round(end_s * 1000)}" == utt


def test_parse_utt_id_errors():
    with pytest.raises(DataError, match="speaker-session-start-end"):
        parse_utt_id("alice-mtg-100")
    with pytest.raises(DataError, match="non-integer"):
        parse_utt_id("alice-mtg-aa-200")
    with pytest.raises(DataError, match="start >= end"):
        parse_utt_id("alice-mtg-300-200")


# ------------------------------------------------------- text readers


def test_read_transcripts(tmp_path):
    path = tmp_path / "ref.trn"
    path.write_text(
        "alice-mtg-0-1500 hello there\n"
        "\n"
        "bob-mtg-1500-2000 ok\n"
    )
    ts = read_transcripts(path)
    assert ts.sessions() == ["mtg"]
    streams = ts.streams("mtg")
    assert streams["alice"] == tuple("hellothere")
    assert streams["bob"] == tuple("ok")


def test_read_transcripts_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.trn"
    path.write_text("ok-m-0-100 fine\nnot_an_id text\n")
    with pytest.raises(DataError, match=r"bad\.trn:2"):
        read_transcripts(path)
    path.write_text("a-m-0-200 one\na-m-100-300 overlapping\n")
    with pytest.raises(DataError, match="overlapping"):
        read_transcripts(path)


def test_read_utterances_and_format_roundtrip(tmp_path):
    path = tmp_path / "hyp.txt"
    path.write_text("b-m-0-100 later words\na-m-0-100 first\nempty-m-0-50\n")
    utts = read_utterances(path)
    assert utts == {
        "b-m-0-100": ("later", "words"),
        "a-m-0-100": ("first",),
        "empty-m-0-50": (),
    }
    text = format_utterances(utts)
    assert text == "a-m-0-100 first\nb-m-0-100 later words\nempty-m-0-50\n"
    path.write_text(text)
    assert read_utterances(path) == utts


@pytest.mark.parametrize(
    "utts, what",
    [
        ({"u": ("x y",)}, "token of u"),
        ({"u": ("x", "")}, "token of u"),
        ({"a b": ("x",)}, "utterance id"),
        ({"": ()}, "utterance id"),
    ],
)
def test_format_utterances_rejects_what_would_not_read_back(utts, what):
    with pytest.raises(ParameterError, match=what):
        format_utterances(utts)


def test_read_utterances_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("a-m-0-100 x\na-m-0-100 y\n")
    with pytest.raises(DataError, match=r"dup\.txt:2.*duplicate"):
        read_utterances(path)


# ----------------------------------------------------- hashing, writes


def test_sha256_known_value(tmp_path):
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert sha256_bytes(b"") == empty
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    assert sha256_file(path) == sha256_bytes(b"abc")


def test_atomic_write_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_bytes(target, b"first")
    assert target.read_bytes() == b"first"
    atomic_write_bytes(target, b"second")
    assert target.read_bytes() == b"second"
    assert list(target.parent.glob("*.part")) == []


def test_canonical_json_is_order_independent():
    a = {"b": [1, 2], "a": {"y": 1, "x": 2}, "u": "é"}
    b = {"u": "é", "a": {"x": 2, "y": 1}, "b": [1, 2]}
    assert canonical_json(a) == canonical_json(b)
    assert canonical_json(a) == '{"a":{"x":2,"y":1},"b":[1,2],"u":"é"}'
    assert config_fingerprint(a) == config_fingerprint(b)


def test_load_json_errors(tmp_path):
    with pytest.raises(DataError):
        load_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "a": 1,\n}\n')
    with pytest.raises(DataError, match=r"bad\.json:3.*invalid JSON"):
        load_json(bad)


# ------------------------------------------------------ config parsing


def test_parse_stft_config():
    # the framing is fixed: an "stft" section is an unknown key, whatever it holds
    for value in ({"frame_length": 256, "frame_shift": 64}, {"frame_len": 256}, {}, [1, 2]):
        with pytest.raises(DataError, match=r"config: unknown keys \['stft'\]"):
            parse_pipeline_config({"stft": value})


def test_parse_wpe_config():
    assert parse_pipeline_config({"wpe": None}).wpe is None
    p = parse_pipeline_config({"wpe": {"taps": 8, "delay": 2}}).wpe
    assert p == WpeConfig(taps=8, delay=2)
    with pytest.raises(DataError, match=r"config\.wpe.*unknown keys"):
        parse_pipeline_config({"wpe": {"tap": 8}})


def test_parse_pipeline_config_defaults_and_nesting():
    cfg = parse_pipeline_config({})
    assert cfg == GssConfig()
    cfg = parse_pipeline_config(
        {
            "wpe": None,
            "gss": {"em_iterations": 5, "context_s": 4.0},
        }
    )
    assert cfg.wpe is None
    assert cfg.em_iterations == 5


def test_parse_pipeline_config_rejections():
    with pytest.raises(DataError, match="config.*unknown keys"):
        parse_pipeline_config({"sftf": {}})
    # scoring options are command-line flags of `score`, not enhance config
    with pytest.raises(DataError, match=r"config: unknown keys \['scoring'\]"):
        parse_pipeline_config({"scoring": {"collar_s": 0.1}})
    with pytest.raises(DataError, match=r"config\.gss.*unknown keys"):
        parse_pipeline_config({"gss": {"iterations": 5}})
    # the mixture fit has no random start, so the config has no seed
    with pytest.raises(DataError, match=r"config: unknown keys \['seed'\]"):
        parse_pipeline_config({"seed": 7})
    with pytest.raises(DataError, match=r"config\.wpe"):
        parse_pipeline_config({"wpe": [1, 2]})


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"gss": {"em_iterations": 2.5}}, "em_iterations"),
        ({"gss": {"em_iterations": True}}, "em_iterations"),
        ({"wpe": {"taps": 2.5}}, "taps"),
        ({"wpe": {"iterations": 2.0}}, "iterations"),
        ({"gss": {"masking_postfilter": "no"}}, "masking_postfilter"),
        ({"gss": {"masking_postfilter": 1}}, "masking_postfilter"),
        ({"gss": {"weight_cap": -1.0}}, "weight_cap"),
        ({"gss": {"weight_cap": 0}}, "weight_cap"),
        ({"gss": {"context_s": float("nan")}}, "context_s"),
        ({"gss": {"mask_floor": "0.1"}}, "mask_floor"),
        ({"wpe": {"psd_floor": float("inf")}}, "psd_floor"),
    ],
)
def test_parse_pipeline_config_rejects_wrongly_typed_values(obj, field):
    # each of these used to parse, or to fail with an uncaught TypeError;
    # masking_postfilter, weight_cap, mask_floor and psd_floor are no
    # longer fields, so they now fail as unknown keys (see the next test)
    with pytest.raises(DataError, match=field):
        parse_pipeline_config(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"gss": {"em_iterations": 1001}}, "config: em_iterations must be <= 1000, got 1001"),
        (
            {"gss": {"em_iterations": 999999999999}},
            "config: em_iterations must be <= 1000, got 999999999999",
        ),
        ({"wpe": {"iterations": 1001}}, "config.wpe: iterations must be <= 1000, got 1001"),
    ],
    ids=["em_iterations", "em_iterations-huge", "wpe-iterations"],
)
def test_parse_pipeline_config_bounds_the_iteration_counts(obj, message):
    # the EM trace is sized by its cap, and every WPE iteration takes time
    with pytest.raises(DataError) as info:
        parse_pipeline_config(obj)
    assert str(info.value) == message
    assert parse_pipeline_config({"gss": {"em_iterations": 1000}}).em_iterations == 1000


@pytest.mark.parametrize(
    "section, key",
    [
        ("gss", "masking_postfilter"),
        ("gss", "mask_floor"),
        ("gss", "weight_cap"),
        ("stft", "window"),
        ("wpe", "psd_floor"),
        ("wpe", "diagonal_loading"),
    ],
    ids=["masking_postfilter", "mask_floor", "weight_cap", "window", "psd_floor",
         "diagonal_loading"],
)
def test_parse_pipeline_config_rejects_removed_gss_keys(section, key):
    # settings that became constants: a config that still sets one is a
    # data error, not silently ignored; the whole "stft" section is gone
    default = describe_config(GssConfig())
    if section in default:
        assert key not in default[section]
        unknown = rf"config\.{section}: unknown keys \['{key}'\]"
    else:
        unknown = rf"config: unknown keys \['{section}'\]"
    for value in (False, 0.1, 1e4, "hann"):
        with pytest.raises(DataError, match=unknown):
            parse_pipeline_config({section: {key: value}})


def test_pipeline_config_describe_roundtrip():
    cfg = GssConfig(
        wpe=WpeConfig(taps=8, delay=2, iterations=2),
        em_iterations=7,
        context_s=5.0,
    )
    assert parse_pipeline_config(describe_config(cfg)) == cfg
    # fingerprints only change when the config does
    assert config_fingerprint(describe_config(cfg)) == config_fingerprint(describe_config(cfg))
    other = GssConfig()
    assert config_fingerprint(describe_config(cfg)) != config_fingerprint(describe_config(other))


def test_describe_fingerprints_every_config_field():
    base = GssConfig()
    changed = [
        replace(base, em_iterations=7),
        replace(base, context_s=2.5),
        replace(base, wpe=replace(base.wpe, iterations=2)),
        replace(base, wpe=None),
    ]
    prints = {config_fingerprint(describe_config(c)) for c in [base, *changed]}
    assert len(prints) == len(changed) + 1
    for cfg in changed:
        assert parse_pipeline_config(describe_config(cfg)) == cfg
    assert describe_config(base)["gss"] == {"em_iterations": 20, "context_s": 15.0}
    assert parse_pipeline_config({"gss": {"context_s": 2.5}}).context_s == 2.5


def test_config_fingerprints_pin_the_json_layout():
    # literal hashes: a renamed, moved or re-defaulted field changes them
    default = describe_config(parse_pipeline_config({}))
    assert config_fingerprint(default) == (
        "b8a92e0300b6bf8e21acd1a68968dc1ed99c474c9a9497bcfef316f44d8f59b2"
    )
    turns = describe_config(parse_pipeline_config({"wpe": None, "gss": {"context_s": 1.0}}))
    assert config_fingerprint(turns) == (
        "dba32a72824c2b533dfe5f05607b15eb3818a093d50117d14d8837d877fed061"
    )


def test_load_pipeline_config_names_file_in_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"wpe": {"taps": -1}}')
    with pytest.raises(DataError, match=r"cfg\.json\.wpe"):
        load_pipeline_config(path)
    path.write_text('{"seed": 2}')
    with pytest.raises(DataError, match=r"cfg\.json: unknown keys \['seed'\]"):
        load_pipeline_config(path)
    path.write_text('{"gss": {"em_iterations": 2}}')
    assert load_pipeline_config(path).em_iterations == 2


# ----------------------------------------------------------- manifests


def test_parse_manifests_resolves_paths_relative_to_file(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    mpath = sub / "sessions.json"
    mpath.write_text(
        '[{"session": "m1", "wavs": ["a.wav", "b.wav"], "rttm": "m1.rttm",'
        ' "out_dir": "out"},'
        ' {"session": "m2", "wavs": ["c.wav"], "rttm": "../m2.rttm"}]'
    )
    manifests = parse_manifests(mpath)
    assert [m.session for m in manifests] == ["m1", "m2"]
    assert manifests[0].wav_paths == (sub / "a.wav", sub / "b.wav")
    assert manifests[0].rttm_path == sub / "m1.rttm"
    assert manifests[0].out_dir == sub / "out"
    assert manifests[1].out_dir is None
    assert manifests[1].rttm_path == sub / ".." / "m2.rttm"


def test_parse_manifests_single_object(tmp_path):
    mpath = tmp_path / "one.json"
    mpath.write_text('{"session": "m", "wavs": ["x.wav"], "rttm": "x.rttm"}')
    (m,) = parse_manifests(mpath)
    assert m.session == "m"


def test_parse_manifests_rejections(tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text("[]")
    with pytest.raises(DataError, match="non-empty"):
        parse_manifests(mpath)
    mpath.write_text('[{"session": "m", "wavs": ["x.wav"]}]')
    with pytest.raises(DataError, match=r"\[0\].*missing required key 'rttm'"):
        parse_manifests(mpath)
    mpath.write_text('[{"session": "m", "wavs": [], "rttm": "x.rttm"}]')
    with pytest.raises(DataError, match="at least one wav"):
        parse_manifests(mpath)
    mpath.write_text('[{"session": "m", "wavs": ["x.wav"], "rttm": "r", "foo": 1}]')
    with pytest.raises(DataError, match="unknown keys"):
        parse_manifests(mpath)


# ------------------------------------------------- simulation configs


def test_load_room(tmp_path):
    path = tmp_path / "room.json"
    path.write_text(
        '{"dimensions": [6.0, 5.0, 3.0], "absorption": 0.5, "max_order": 1,'
        ' "sample_rate_hz": 16000,'
        ' "source_positions": [[1.8, 3.6, 1.6]],'
        ' "mic_positions": [[2.95, 2.45, 1.4], [3.05, 2.55, 1.4]]}'
    )
    room = load_room(path)
    assert room.dimensions == (6.0, 5.0, 3.0)
    assert len(room.mic_positions) == 2
    assert room.speed_of_sound == 343.0

    path.write_text('{"dimensions": [6, 5, 3]}')
    with pytest.raises(DataError, match="missing required key"):
        load_room(path)
    path.write_text('{"dimension": [6, 5, 3]}')
    with pytest.raises(DataError, match="unknown keys"):
        load_room(path)

    # the keys are the RoomSpec fields; speed_of_sound has a default
    room = {
        "dimensions": [6.0, 5.0, 3.0], "absorption": 0.5, "max_order": 1,
        "sample_rate_hz": 16000, "source_positions": [[1.8, 3.6, 1.6]],
        "mic_positions": [[2.95, 2.45, 1.4], [3.05, 2.55, 1.4]],
    }
    path.write_text(json.dumps({**room, "speed_of_sound": 340.0}))
    parsed = load_room(path)
    assert parsed.speed_of_sound == 340.0
    assert parsed.source_positions == ((1.8, 3.6, 1.6),)
    for key in ("absorption", "mic_positions"):
        path.write_text(json.dumps({k: v for k, v in room.items() if k != key}))
        with pytest.raises(DataError, match=rf"room\.json: missing required key '{key}'"):
            load_room(path)
    # a flat position list is a bad room, not a crash
    path.write_text(json.dumps({**room, "source_positions": [1.8, 3.6, 1.6]}))
    with pytest.raises(DataError, match=r"room\.json: source_positions\[0\]"):
        load_room(path)


def test_load_plan(tmp_path):
    rng = np.random.default_rng(0)
    write_wav(tmp_path / "a.wav", WaveformBuffer(0.1 * rng.normal(size=800), FS))
    write_wav(tmp_path / "n.wav", WaveformBuffer(0.1 * rng.normal(size=4000), FS))
    path = tmp_path / "plan.json"
    path.write_text(
        '{"session": "mtg", "seed": 5, "snr_db": 20.0, "noise": "gaussian",'
        ' "sources": [{"speaker": "alice", "wav": "a.wav", "onset_s": 0.25}]}'
    )
    plan = load_plan(path)
    assert (plan.session, plan.seed, plan.snr_db) == ("mtg", 5, 20.0)
    assert plan.noise is None  # gaussian noise is drawn at mix time
    assert plan.sources[0].speaker == "alice"
    assert plan.sources[0].onset_s == 0.25
    assert plan.sources[0].audio.n_samples == 800

    path.write_text(
        '{"snr_db": 10.0, "noise": "n.wav",'
        ' "sources": [{"speaker": "a", "wav": "a.wav"}]}'
    )
    plan = load_plan(path)
    assert plan.noise is not None and plan.noise.n_samples == 4000
    assert (plan.session, plan.seed) == ("sim0", 0)


def test_load_plan_rejections(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"sources": []}')
    with pytest.raises(DataError, match="empty 'sources'"):
        load_plan(path)
    path.write_text('{"sources": [{"speaker": "a"}]}')
    with pytest.raises(DataError, match=r"sources\[0\].*missing required key 'wav'"):
        load_plan(path)
    path.write_text('{"sources": [{"speaker": "a", "wav": "a.wav", "gain": 1}]}')
    with pytest.raises(DataError, match="unknown keys"):
        load_plan(path)


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"sources": 5}, "sources must be a list of sources, got 5"),
        ({"sources": True}, "sources must be a list of sources, got True"),
        ({"sources": 1.5}, "sources must be a list of sources, got 1.5"),
        ({"sources": None}, "sources must be a list of sources, got None"),
        ({"sources": "a.wav"}, "sources must be a list of sources, got 'a.wav'"),
        ({}, "missing or empty 'sources'"),
    ],
    ids=["int", "bool", "float", "null", "string", "missing"],
)
def test_load_plan_sources_must_be_a_non_empty_list(tmp_path, plan, message):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    with pytest.raises(DataError) as info:
        load_plan(path)
    assert str(info.value) == f"{path}: {message}"


def test_readers_reject_a_nul_in_a_path_naming_the_key(tmp_path):
    write_wav(tmp_path / "a.wav", WaveformBuffer(np.full(800, 0.1), FS))
    plan = {"snr_db": 10.0, "sources": [{"speaker": "a", "wav": "a.wav"}]}
    manifest = {"session": "m", "wavs": ["x.wav"], "rttm": "x.rttm", "out_dir": "out"}
    cases = [
        (load_plan, {**plan, "sources": [{"speaker": "a", "wav": "s\x00.wav"}]}, "wav"),
        (load_plan, {**plan, "noise": "n\x00.wav"}, "noise"),
        (parse_manifests, {**manifest, "wavs": ["x.wav", "s\x00.wav"]}, r"wavs\[1\]"),
        (parse_manifests, {**manifest, "rttm": "\x00"}, "rttm"),
        (parse_manifests, {**manifest, "out_dir": "o\x00"}, "out_dir"),
    ]
    path = tmp_path / "doc.json"
    for read, doc, key in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"doc\.json.*: {key} must be a path string without"):
            read(path)


_ROOM = {
    "dimensions": [6.0, 5.0, 3.0], "absorption": 0.5, "max_order": 1,
    "sample_rate_hz": 16000, "source_positions": [[1.8, 3.6, 1.6]],
    "mic_positions": [[2.95, 2.45, 1.4], [3.05, 2.55, 1.4]],
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("source_positions", 5, "source_positions must be a non-empty list of 3-vectors"),
        ("mic_positions", True, "mic_positions must be a non-empty list of 3-vectors"),
        ("dimensions", "abc", "dimensions must be a 3-vector"),
        ("source_positions", {"a": 1}, "source_positions must be a non-empty list"),
        ("source_positions", [[1.8, float("nan"), 1.6]], r"source_positions\[0\]\[1\]"),
        ("mic_positions", [[2.95, 2.45, 1.4], [3.05, "2.55", 1.4]], r"mic_positions\[1\]\[1\]"),
        ("dimensions", [6.0, 10**400, 3.0], r"dimensions\[1\] must be a finite number"),
        ("absorption", -(10**400), "absorption must be a finite number"),
    ],
    ids=[
        "sources-int", "mics-bool", "dims-string", "sources-object", "nan-coordinate",
        "string-coordinate", "huge-dimension", "huge-absorption",
    ],
)
def test_load_room_rejects_malformed_geometry(tmp_path, key, value, message):
    path = tmp_path / "room.json"
    path.write_text(json.dumps({**_ROOM, key: value}))
    with pytest.raises(DataError, match=rf"room\.json: {message}"):
        load_room(path)


@pytest.mark.parametrize(
    "read, suffix", [(read_rttm, "rttm"), (read_transcripts, "trn"), (read_utterances, "txt"),
                     (load_json, "json")],
)
def test_readers_reject_text_that_is_not_utf8(tmp_path, read, suffix):
    path = tmp_path / f"bin.{suffix}"
    path.write_bytes(b"SPEAKER \xff\xfe\n")
    with pytest.raises(DataError, match=rf"bin\.{suffix}: .*utf-8"):
        read(path)
