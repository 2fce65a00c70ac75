"""On-disk contracts: RTTM, utterance ids, transcripts, JSON configs."""

from dataclasses import replace

import numpy as np
import pytest

from farfield import (
    DataError,
    DiarizationSet,
    GssConfig,
    ParameterError,
    PipelineConfig,
    StftParams,
    WaveformBuffer,
    WpeConfig,
    atomic_write_bytes,
    build_utt_id,
    canonical_json,
    config_fingerprint,
    format_rttm,
    format_utterances,
    load_json,
    load_pipeline_config,
    load_plan,
    load_room,
    parse_manifests,
    parse_pipeline_config,
    parse_stft_config,
    parse_utt_id,
    parse_wpe_config,
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
    utt = build_utt_id("alice", "mtg03", 1.2345, 2.5)
    assert utt == "alice-mtg03-1234-2500"  # banker's rounding on .5 ms
    assert parse_utt_id(utt) == ("alice", "mtg03", 1.234, 2.5)


def test_build_utt_id_rejects_unsafe_names():
    with pytest.raises(ParameterError, match="speaker"):
        build_utt_id("a-b", "m", 0.0, 1.0)
    with pytest.raises(ParameterError, match="session"):
        build_utt_id("a", "m 1", 0.0, 1.0)
    with pytest.raises(ParameterError, match="speaker"):
        build_utt_id("", "m", 0.0, 1.0)


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
    p = parse_stft_config({"frame_length": 256, "frame_shift": 64})
    assert p == StftParams(frame_length=256, frame_shift=64, fft_size=512)
    with pytest.raises(DataError, match=r"stft.*unknown keys.*frame_len"):
        parse_stft_config({"frame_len": 256})
    with pytest.raises(DataError, match="stft"):
        parse_stft_config({"frame_shift": 100})  # breaks overlap-add


def test_parse_wpe_config():
    assert parse_wpe_config(None) is None
    p = parse_wpe_config({"taps": 8, "delay": 2})
    assert p == WpeConfig(taps=8, delay=2)
    with pytest.raises(DataError, match="unknown keys"):
        parse_wpe_config({"tap": 8})


def test_parse_pipeline_config_defaults_and_nesting():
    cfg = parse_pipeline_config({})
    assert cfg == PipelineConfig()
    cfg = parse_pipeline_config(
        {
            "seed": 7,
            "stft": {"frame_length": 256, "frame_shift": 64, "fft_size": 256},
            "wpe": None,
            "gss": {"em_iterations": 5, "context_s": 4.0},
        }
    )
    assert cfg.gss.seed == 7
    assert cfg.gss.wpe is None
    assert cfg.gss.stft.frame_length == 256
    assert cfg.gss.em_iterations == 5


def test_parse_pipeline_config_rejections():
    with pytest.raises(DataError, match="config.*unknown keys"):
        parse_pipeline_config({"sftf": {}})
    # scoring options are command-line flags of `score`, not enhance config
    with pytest.raises(DataError, match=r"config: unknown keys \['scoring'\]"):
        parse_pipeline_config({"scoring": {"collar_s": 0.1}})
    with pytest.raises(DataError, match=r"config\.gss.*unknown keys"):
        parse_pipeline_config({"gss": {"iterations": 5}})
    with pytest.raises(DataError, match="seed must be an integer"):
        parse_pipeline_config({"seed": "7"})
    with pytest.raises(DataError, match=r"config\.stft"):
        parse_pipeline_config({"stft": [1, 2]})


def test_pipeline_config_describe_roundtrip():
    cfg = PipelineConfig(
        gss=GssConfig(
            stft=StftParams(frame_length=256, frame_shift=64, fft_size=256),
            wpe=WpeConfig(taps=8, delay=2, iterations=2),
            em_iterations=7,
            context_s=5.0,
            masking_postfilter=True,
            seed=3,
        ),
    )
    assert parse_pipeline_config(cfg.describe()) == cfg
    # fingerprints only change when the config does
    assert config_fingerprint(cfg.describe()) == config_fingerprint(cfg.describe())
    other = PipelineConfig()
    assert config_fingerprint(cfg.describe()) != config_fingerprint(other.describe())


def test_describe_fingerprints_every_config_field():
    base = PipelineConfig()
    changed = [
        replace(base, gss=replace(base.gss, weight_cap=5.0)),
        replace(base, gss=replace(base.gss, mask_floor=0.2)),
        replace(base, gss=replace(base.gss, wpe=replace(base.gss.wpe, psd_floor=1e-9))),
        replace(base, gss=replace(base.gss, stft=StftParams(window="sqrt-hann"))),
    ]
    prints = {config_fingerprint(c.describe()) for c in [base, *changed]}
    assert len(prints) == len(changed) + 1
    for cfg in changed:
        assert parse_pipeline_config(cfg.describe()) == cfg
    assert base.describe()["gss"]["weight_cap"] == 1e4
    assert parse_pipeline_config({"gss": {"weight_cap": 5.0}}).gss.weight_cap == 5.0


def test_load_pipeline_config_names_file_in_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"wpe": {"taps": -1}}')
    with pytest.raises(DataError, match=r"cfg\.json\.wpe"):
        load_pipeline_config(path)
    path.write_text('{"seed": 2}')
    assert load_pipeline_config(path).gss.seed == 2


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
