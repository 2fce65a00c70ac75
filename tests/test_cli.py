"""Command-line verbs, exit codes, and output provenance."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from farfield import (
    DataError,
    FarfieldError,
    NumericalError,
    ParameterError,
    WaveformBuffer,
    read_utterances,
    read_wav,
    sha256_file,
    write_wav,
)
from farfield import cli
from farfield.cli import main

FS = 16000


def _dry(rng, seconds):
    t = np.arange(int(seconds * FS)) / FS
    env = 0.6 + 0.4 * np.sin(2 * np.pi * 2.0 * t)
    return WaveformBuffer(0.1 * env * rng.normal(size=t.size), FS)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Simulated session plus manifests, built once for the module."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(21)
    write_wav(root / "ann.wav", _dry(rng, 1.6))
    write_wav(root / "bob.wav", _dry(rng, 1.6))
    (root / "plan.json").write_text(
        json.dumps(
            {
                "session": "mtg",
                "seed": 3,
                "snr_db": 20.0,
                "sources": [
                    {"speaker": "ann", "wav": "ann.wav", "onset_s": 0.0},
                    {"speaker": "bob", "wav": "bob.wav", "onset_s": 0.6},
                ],
            }
        )
    )
    (root / "room.json").write_text(
        json.dumps(
            {
                "dimensions": [6.0, 5.0, 3.0],
                "absorption": 0.5,
                "max_order": 1,
                "sample_rate_hz": FS,
                "source_positions": [[1.5, 3.5, 1.6], [4.5, 1.5, 1.7]],
                "mic_positions": [[2.9, 2.4, 1.4], [3.1, 2.6, 1.4]],
            }
        )
    )
    (root / "cfg.json").write_text(
        json.dumps(
            {
                "wpe": {"taps": 4, "delay": 2, "iterations": 1},
                "gss": {"em_iterations": 5},
            }
        )
    )
    rc = main(["simulate", str(root / "plan.json"), str(root / "room.json"),
               "--out", str(root / "sim")])
    assert rc == 0
    return root


# ------------------------------------------------------------ simulate


def test_simulate_outputs(workspace, capsys):
    sim = workspace / "sim"
    for name in ("mixture.wav", "noise.wav", "reference.rttm", "provenance.json",
                 "images/ann.wav", "images/bob.wav"):
        assert (sim / name).exists(), name
    mixture = read_wav(sim / "mixture.wav")
    assert mixture.channels == 2
    prov = json.loads((sim / "provenance.json").read_text())
    assert prov["session"] == "mtg" and prov["seed"] == 3
    assert set(prov) == {"plan_sha256", "room_sha256", "seed", "session"}


def test_simulate_rerun_is_identical(workspace, capsys):
    rc = main(["simulate", str(workspace / "plan.json"), str(workspace / "room.json"),
               "--out", str(workspace / "sim2")])
    assert rc == 0
    assert (workspace / "sim2" / "mixture.wav").read_bytes() == (
        workspace / "sim" / "mixture.wav"
    ).read_bytes()
    assert (workspace / "sim2" / "reference.rttm").read_text() == (
        workspace / "sim" / "reference.rttm"
    ).read_text()


def test_simulate_seed_override_changes_noise(workspace, capsys):
    rc = main(["simulate", str(workspace / "plan.json"), str(workspace / "room.json"),
               "--out", str(workspace / "sim_seed9"), "--seed", "9"])
    assert rc == 0
    a = read_wav(workspace / "sim" / "noise.wav")
    b = read_wav(workspace / "sim_seed9" / "noise.wav")
    assert not np.array_equal(a.samples, b.samples)


def _simulate_edited(workspace, tmp_path, edit):
    """Run simulate on copies of the workspace plan and room that
    ``edit(plan, room, tmp_path)`` changes in place."""
    plan = json.loads((workspace / "plan.json").read_text())
    room = json.loads((workspace / "room.json").read_text())
    for source in plan["sources"]:
        source["wav"] = str(workspace / source["wav"])
    edit(plan, room, tmp_path)
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "room.json").write_text(json.dumps(room))
    return main(["simulate", str(tmp_path / "plan.json"), str(tmp_path / "room.json"),
                 "--out", str(tmp_path / "sim")])


@pytest.mark.parametrize(
    "target, key, value",
    [
        ("source", "onset_s", "soon"),
        ("plan", "seed", "7"),
        ("plan", "seed", 7.9),
        ("plan", "snr_db", "loud"),
        ("room", "max_order", 1.5),
        ("room", "sample_rate_hz", 16000.7),
        ("room", "speed_of_sound", float("inf")),
        ("room", "dimensions", [6.0, float("nan"), 3.0]),
        ("source", "wav", 5),
        ("source", "speaker", 5),
        ("source", "speaker", "ann"),  # a second source for one speaker
        ("plan", "noise", 5),
        ("room", "max_order", 31),
        ("room", "max_order", 10**6),
        ("room", "sample_rate_hz", 10**9),
    ],
)
def test_simulate_rejects_wrongly_typed_plan_and_room_values(
    workspace, tmp_path, capsys, target, key, value
):
    def edit(plan, room, _):
        {"source": plan["sources"][1], "plan": plan, "room": room}[target][key] = value

    assert _simulate_edited(workspace, tmp_path, edit) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "session, speaker",
    [("my mtg", "ann smith"), ("mtg", "ann\tx"), ("", "ann")],
    ids=["spaces", "tab", "empty-session"],
)
def test_simulate_rejects_names_an_rttm_cannot_hold(
    workspace, tmp_path, capsys, session, speaker
):
    def edit(plan, room, _):
        plan["session"] = session
        plan["sources"][0]["speaker"] = speaker

    assert _simulate_edited(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "plan.json") in err and "without whitespace" in err
    assert not (tmp_path / "sim").exists()


def _one_source(plan, room, _):
    del plan["sources"][1]


def _narrowband_source(plan, room, tmp_path):
    write_wav(tmp_path / "bob8k.wav", WaveformBuffer(np.full(8000, 0.1), 8000))
    plan["sources"][1]["wav"] = str(tmp_path / "bob8k.wav")


def _short_noise(plan, room, tmp_path):
    write_wav(tmp_path / "noise.wav", WaveformBuffer(np.full(100, 0.1), FS))
    plan["noise"] = str(tmp_path / "noise.wav")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_one_source, "plan has 1 sources but the room declares 2"),
        (_narrowband_source, "sample rate 8000 != room rate 16000"),
        (_short_noise, "shorter than mixture"),
    ],
    ids=["source-count", "sample-rate", "short-noise"],
)
def test_simulate_plan_and_room_mismatch_is_a_data_error(
    workspace, tmp_path, capsys, edit, message
):
    assert _simulate_edited(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "plan.json") in err and str(tmp_path / "room.json") in err
    assert message in err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "target, key, value, message",
    [
        ("plan", "sources", 5, "sources must be a list of sources, got 5"),
        ("plan", "sources", True, "sources must be a list of sources, got True"),
        ("plan", "sources", 1.5, "sources must be a list of sources, got 1.5"),
        ("source", "wav", "s\x00.wav", "wav must be a path string without NUL"),
        ("room", "source_positions", 5, "source_positions must be a non-empty list"),
        ("room", "mic_positions", True, "mic_positions must be a non-empty list"),
        ("room", "dimensions", "abc", "dimensions must be a 3-vector"),
        ("room", "source_positions", {"a": 1}, "source_positions must be a non-empty list"),
        (
            "room",
            "mic_positions",
            [[2.9, float("nan"), 1.4], [3.1, 2.6, 1.4]],
            "mic_positions[0][1] must be a finite number, got nan",
        ),
    ],
    ids=[
        "sources-int", "sources-bool", "sources-float", "wav-nul", "sources-positions-int",
        "mic-positions-bool", "dimensions-string", "source-positions-object", "nan-coordinate",
    ],
)
def test_simulate_malformed_plan_and_room_are_data_errors(
    workspace, tmp_path, capsys, target, key, value, message
):
    def edit(plan, room, _):
        {"source": plan["sources"][1], "plan": plan, "room": room}[target][key] = value

    assert _simulate_edited(workspace, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / ("room.json" if target == "room" else "plan.json")) in err
    assert message in err
    assert not (tmp_path / "sim").exists()


# ------------------------------------------------------------- enhance


def test_enhance_pipeline(workspace, capsys, caplog):
    (workspace / "broken.rttm").write_text(
        "SPEAKER broken 1 0.000 1.000 <NA> <NA> x <NA> <NA>\n"
    )
    manifest = [
        {
            "session": "mtg",
            "wavs": ["sim/mixture.wav"],
            "rttm": "sim/reference.rttm",
            "out_dir": "enh",
        },
        {
            # present in the wavs but absent from its rttm: zero segments
            "session": "ghost",
            "wavs": ["sim/mixture.wav"],
            "rttm": "sim/reference.rttm",
            "out_dir": "enh",
        },
        {
            "session": "broken",
            "wavs": ["missing.wav"],
            "rttm": "broken.rttm",
            "out_dir": "enh",
        },
    ]
    (workspace / "sessions.json").write_text(json.dumps(manifest))
    with caplog.at_level(logging.WARNING, logger="farfield.cli"):
        rc = main(["enhance", str(workspace / "sessions.json"),
                   "--config", str(workspace / "cfg.json")])
    captured = capsys.readouterr()
    assert rc == 2  # the broken session fails with a data error
    assert "session=mtg files=2" in captured.out
    assert "session=ghost files=0" in captured.out
    assert "error: session broken" in captured.err
    assert any("nothing to enhance" in r.message for r in caplog.records)

    index = json.loads((workspace / "enh" / "mtg" / "index.json").read_text())
    assert set(index) == {"session", "config_sha256", "outputs"}
    assert index["session"] == "mtg"
    assert {o["speaker"] for o in index["outputs"]} == {"ann", "bob"}
    for entry in index["outputs"]:
        path = workspace / "enh" / "mtg" / entry["path"]
        assert path.exists()
        mono = read_wav(path)
        assert mono.channels == 1
        n_expected = int(round((entry["end_ms"] - entry["start_ms"]) / 1000 * FS))
        assert mono.n_samples == n_expected
    prov = json.loads((workspace / "enh" / "mtg" / "provenance.json").read_text())
    assert set(prov) == {"config", "inputs", "session"}
    assert set(prov["inputs"]) == {"mixture.wav", "reference.rttm"}
    ghost_index = json.loads((workspace / "enh" / "ghost" / "index.json").read_text())
    assert ghost_index["outputs"] == []


def test_enhance_rerun_is_byte_identical(workspace, capsys):
    (workspace / "only_mtg.json").write_text(
        json.dumps(
            {"session": "mtg", "wavs": ["sim/mixture.wav"], "rttm": "sim/reference.rttm"}
        )
    )
    rc = main(["enhance", str(workspace / "only_mtg.json"),
               "--config", str(workspace / "cfg.json"),
               "--out", str(workspace / "enh2")])
    assert rc == 0
    for name in ("index.json", "provenance.json"):
        assert (workspace / "enh2" / "mtg" / name).read_bytes() == (
            workspace / "enh" / "mtg" / name
        ).read_bytes()
    index = json.loads((workspace / "enh2" / "mtg" / "index.json").read_text())
    for entry in index["outputs"]:
        a = (workspace / "enh" / "mtg" / entry["path"]).read_bytes()
        b = (workspace / "enh2" / "mtg" / entry["path"]).read_bytes()
        assert a == b


def test_enhance_requires_an_output_directory(workspace, capsys):
    rc = main(["enhance", str(workspace / "only_mtg.json"),
               "--config", str(workspace / "cfg.json")])
    assert rc == 1
    assert "output directory" in capsys.readouterr().err


def test_enhance_missing_manifest_is_a_data_error(workspace, capsys):
    rc = main(["enhance", str(workspace / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _enhance_one_wav(workspace, name, wav, encoding):
    """Run enhance on a single wav against the simulated session's RTTM."""
    write_wav(workspace / f"{name}.wav", wav, encoding=encoding)
    (workspace / f"{name}.json").write_text(
        json.dumps({"session": "mtg", "wavs": [f"{name}.wav"], "rttm": "sim/reference.rttm"})
    )
    return main(["enhance", str(workspace / f"{name}.json"),
                 "--config", str(workspace / "cfg.json"),
                 "--out", str(workspace / f"enh_{name}")])


def test_enhance_non_finite_sample_is_a_data_error(workspace, capsys):
    samples = read_wav(workspace / "sim" / "mixture.wav").samples.copy()
    samples[1, 1234] = np.nan
    rc = _enhance_one_wav(workspace, "nan", WaveformBuffer(samples, FS), "float32")
    assert rc == 2
    err = capsys.readouterr().err
    assert "nan.wav" in err and "channel 1" in err and "sample index 1234" in err


def test_enhance_mono_input_is_a_data_error(workspace, capsys):
    mixture = read_wav(workspace / "sim" / "mixture.wav")
    rc = _enhance_one_wav(workspace, "mono", WaveformBuffer(mixture.samples[0], FS), "pcm16")
    assert rc == 2
    assert "at least 2 channels, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("session", 5, "session must be a non-empty string"),
        ("rttm", 5, "rttm must be a path string"),
        ("wavs", "sim/mixture.wav", "wavs must be a list of paths"),
        ("wavs", [5], "wavs[0] must be a path string"),
        ("out_dir", 5, "out_dir must be a path string"),
    ],
    ids=["session", "rttm", "wavs-string", "wavs-item", "out_dir"],
)
def test_enhance_rejects_wrongly_typed_manifest_values(
    workspace, tmp_path, capsys, key, value, message
):
    manifest = {
        "session": "mtg",
        "wavs": [str(workspace / "sim" / "mixture.wav")],
        "rttm": str(workspace / "sim" / "reference.rttm"),
        "out_dir": str(tmp_path / "enh"),
    }
    manifest[key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["enhance", str(tmp_path / "manifest.json"),
               "--config", str(workspace / "cfg.json")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "enh").exists()


@pytest.mark.parametrize("key", ["wavs", "rttm", "out_dir"])
def test_enhance_rejects_a_nul_in_a_manifest_path(workspace, tmp_path, capsys, key):
    manifest = {
        "session": "mtg",
        "wavs": [str(workspace / "sim" / "mixture.wav")],
        "rttm": str(workspace / "sim" / "reference.rttm"),
        "out_dir": str(tmp_path / "enh"),
    }
    manifest[key] = ["mix\x00.wav"] if key == "wavs" else str(tmp_path / "x\x00")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["enhance", str(tmp_path / "manifest.json"),
               "--config", str(workspace / "cfg.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "manifest.json[0]: " in err and "must be a path string without NUL" in err
    assert not (tmp_path / "enh").exists()


def test_enhance_context_window_too_short_for_wpe_is_a_data_error(workspace, tmp_path, capsys):
    # 0.1 s with no context is 16 frames; the default WPE on 2 mics needs 23
    (tmp_path / "cfg.json").write_text(json.dumps({"gss": {"context_s": 0.0}}))
    (tmp_path / "ref.rttm").write_text(
        "SPEAKER mtg 1 0.100 1.000 <NA> <NA> ann <NA> <NA>\n"
        "SPEAKER mtg 1 1.500 0.100 <NA> <NA> bob <NA> <NA>\n"
    )
    (tmp_path / "manifest.json").write_text(json.dumps({
        "session": "mtg", "wavs": [str(workspace / "sim" / "mixture.wav")], "rttm": "ref.rttm"
    }))
    rc = main(["enhance", str(tmp_path / "manifest.json"),
               "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "session mtg: segment bob [1.5, 1.6]: " in err
    assert "16 frames, fewer than the 23 that WPE needs" in err
    assert not (tmp_path / "out" / "mtg" / "index.json").exists()


def test_enhance_rejects_a_removed_config_key(workspace, tmp_path, capsys):
    manifest = {
        "session": "mtg",
        "wavs": [str(workspace / "sim" / "mixture.wav")],
        "rttm": str(workspace / "sim" / "reference.rttm"),
        "out_dir": str(tmp_path / "enh"),
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for config, message in (
        (
            {"gss": {"masking_postfilter": False}},
            "cfg.json.gss: unknown keys ['masking_postfilter']",
        ),
        ({"wpe": {"psd_floor": 1e-10}}, "cfg.json.wpe: unknown keys ['psd_floor']"),
        ({"wpe": {"diagonal_loading": 1e-6}}, "cfg.json.wpe: unknown keys ['diagonal_loading']"),
        ({"stft": {"window": "hann"}}, "cfg.json: unknown keys ['stft']"),
        ({"stft": {"frame_length": 512}}, "cfg.json: unknown keys ['stft']"),
        ({"seed": 3}, "cfg.json: unknown keys ['seed']"),
    ):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = main(["enhance", str(tmp_path / "manifest.json"),
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "enh").exists()


def test_enhance_rejects_an_iteration_count_beyond_its_bound(workspace, tmp_path, capsys):
    # the EM trace is sized by its cap: 999999999999 iterations would ask
    # numpy for 939 TiB and end in a MemoryError traceback
    manifest = {
        "session": "mtg",
        "wavs": [str(workspace / "sim" / "mixture.wav")],
        "rttm": str(workspace / "sim" / "reference.rttm"),
        "out_dir": str(tmp_path / "enh"),
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for config, message in (
        ({"gss": {"em_iterations": 999999999999}}, "em_iterations must be <= 1000"),
        ({"wpe": {"iterations": 999999999999}}, "cfg.json.wpe: iterations must be <= 1000"),
    ):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = main(["enhance", str(tmp_path / "manifest.json"),
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "enh" / "mtg" / "index.json").exists()


@pytest.mark.parametrize(
    "out_dirs, out_flag",
    [(("enh", "enh"), False), (("enh", "sub/../enh"), False), (("a", "b"), True)],
    ids=["same-out_dir", "same-resolved-out_dir", "same-out"],
)
def test_enhance_rejects_a_session_listed_twice_for_one_output(
    workspace, tmp_path, capsys, out_dirs, out_flag
):
    # two runs into one session directory would overwrite each other's index
    sim = workspace / "sim"
    (tmp_path / "a.rttm").write_text("SPEAKER mtg 1 0.000 1.600 <NA> <NA> ann <NA> <NA>\n")
    (tmp_path / "b.rttm").write_text("SPEAKER mtg 1 0.600 1.600 <NA> <NA> bob <NA> <NA>\n")
    manifest = [
        {"session": "mtg", "wavs": [str(sim / "mixture.wav")], "rttm": rttm, "out_dir": out}
        for rttm, out in zip(("a.rttm", "b.rttm"), out_dirs)
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = ["--out", str(tmp_path / "enh")] if out_flag else []
    rc = main(["enhance", str(tmp_path / "manifest.json"),
               "--config", str(workspace / "cfg.json"), *out])
    captured = capsys.readouterr()
    assert rc == 2
    assert "session mtg: listed twice" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.rttm", "b.rttm", "manifest.json"]


def _enhance_rttm(workspace, name, rttm_text):
    """Run enhance on the simulated mixture against the given RTTM text."""
    (workspace / f"{name}.rttm").write_text(rttm_text)
    (workspace / f"{name}.json").write_text(
        json.dumps({"session": "mtg", "wavs": ["sim/mixture.wav"], "rttm": f"{name}.rttm"})
    )
    return main(["enhance", str(workspace / f"{name}.json"),
                 "--config", str(workspace / "cfg.json"),
                 "--out", str(workspace / f"enh_{name}")])


def _files_under(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("session", ["../x", "..", ".", "a\\b", "a\x00b"])
def test_enhance_rejects_a_session_name_that_leaves_the_output(
    workspace, tmp_path, capsys, session
):
    work = tmp_path / "work"
    work.mkdir()
    (work / "manifest.json").write_text(json.dumps({
        "session": session,
        "wavs": [str(workspace / "sim" / "mixture.wav")],
        "rttm": str(workspace / "sim" / "reference.rttm"),
    }))
    before = _files_under(tmp_path)
    rc = main(["enhance", str(work / "manifest.json"),
               "--config", str(workspace / "cfg.json"), "--out", str(work / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "manifest.json[0]: session must be a non-empty string" in err
    assert _files_under(tmp_path) == before


@pytest.mark.parametrize("speaker", ["../../escaped", "..", "a\\b"])
def test_enhance_rejects_a_speaker_name_that_leaves_the_output(
    workspace, tmp_path, capsys, speaker
):
    work = tmp_path / "work"
    work.mkdir()
    (work / "ref.rttm").write_text(
        f"SPEAKER mtg 1 0.100 1.000 <NA> <NA> {speaker} <NA> <NA>\n"
        "SPEAKER mtg 1 0.600 1.000 <NA> <NA> bob <NA> <NA>\n"
    )
    (work / "manifest.json").write_text(json.dumps({
        "session": "mtg", "wavs": [str(workspace / "sim" / "mixture.wav")], "rttm": "ref.rttm"
    }))
    before = _files_under(tmp_path)
    rc = main(["enhance", str(work / "manifest.json"),
               "--config", str(workspace / "cfg.json"), "--out", str(work / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ref.rttm: speaker must be a non-empty string" in err
    assert _files_under(tmp_path) == before
    assert not (work / "out" / "mtg" / "index.json").exists()


def test_enhance_warns_once_per_sub_frame_segment(workspace, capsys, caplog):
    reference = (workspace / "sim" / "reference.rttm").read_text()
    short = "SPEAKER mtg 1 0.100 0.010 <NA> <NA> ann <NA> <NA>\n"
    with caplog.at_level(logging.WARNING, logger="farfield.gss"):
        rc = _enhance_rttm(workspace, "short", reference + short)
    assert rc == 0
    skips = [r for r in caplog.records if "shorter than one frame" in r.getMessage()]
    assert len(skips) == 1
    n_kept = len(reference.splitlines())
    assert f"session=mtg files={n_kept}" in capsys.readouterr().out


def test_wav_outputs_are_written_through_the_module_write_wav(tmp_path, monkeypatch):
    # the bench tracer wraps farfield.cli.write_wav and sizes the file at
    # its first argument when the call returns
    sizes = []

    def sized(path, wav, **kwargs):
        write_wav(path, wav, **kwargs)
        sizes.append(os.path.getsize(path))

    monkeypatch.setattr(cli, "write_wav", sized)
    target = tmp_path / "deep" / "out.wav"
    cli._write_wav_atomic(target, WaveformBuffer(np.zeros((2, 10)), FS))
    assert sizes == [target.stat().st_size]
    assert [p.name for p in target.parent.iterdir()] == ["out.wav"]


def test_enhance_segment_outside_the_recording_is_a_data_error(workspace, capsys):
    # the simulated mixture lasts 2.225 s
    rc = _enhance_rttm(workspace, "outside", "SPEAKER mtg 1 1.000 5.000 <NA> <NA> ann <NA> <NA>\n")
    assert rc == 2
    assert "outside the 2.225 s file" in capsys.readouterr().err
    assert not (workspace / "enh_outside").exists()


def test_enhance_writes_a_repeated_segment_once(workspace, capsys):
    lines = (workspace / "sim" / "reference.rttm").read_text().splitlines(keepends=True)
    rc = _enhance_rttm(workspace, "repeat", "".join(lines + lines[:1]))
    assert rc == 0
    assert f"session=mtg files={len(lines)}" in capsys.readouterr().out
    session_dir = workspace / "enh_repeat" / "mtg"
    index = json.loads((session_dir / "index.json").read_text())
    paths = [entry["path"] for entry in index["outputs"]]
    assert len(set(paths)) == len(paths) == len(lines)
    written = sorted(p.relative_to(session_dir).as_posix() for p in session_dir.rglob("*.wav"))
    assert written == sorted(paths)


def test_enhance_keeps_the_first_of_segments_with_one_output_name(workspace, capsys):
    # both bounds round to ann/100-700.wav; the earlier segment is the one kept
    rttm = (
        "SPEAKER mtg 1 0.1000 0.6000 <NA> <NA> ann <NA> <NA>\n"
        "SPEAKER mtg 1 0.1002 0.5998 <NA> <NA> ann <NA> <NA>\n"
    )
    rc = _enhance_rttm(workspace, "same_ms", rttm)
    assert rc == 0
    assert "session=mtg files=1" in capsys.readouterr().out
    session_dir = workspace / "enh_same_ms" / "mtg"
    written = [p.relative_to(session_dir).as_posix() for p in session_dir.rglob("*.wav")]
    assert written == ["ann/100-700.wav"]
    index = json.loads((session_dir / "index.json").read_text())
    assert [entry["path"] for entry in index["outputs"]] == written
    assert index["outputs"][0]["sha256"] == sha256_file(session_dir / written[0])
    assert read_wav(session_dir / written[0]).n_samples == int(0.6 * FS)


def test_enhance_has_no_seed_option(workspace, capsys):
    # the mixture fit starts from the activity; only simulate and
    # fuse-demo draw random numbers
    out = workspace / "enh_seed"
    rc = main(["enhance", str(workspace / "only_mtg.json"),
               "--config", str(workspace / "cfg.json"), "--out", str(out),
               "--seed", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "unrecognized arguments: --seed 3" in err
    assert not out.exists()


def test_enhance_has_no_jobs_option(workspace, capsys):
    out = workspace / "enh_jobs"
    rc = main(["enhance", str(workspace / "only_mtg.json"),
               "--config", str(workspace / "cfg.json"), "--out", str(out),
               "--jobs", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "unrecognized arguments: --jobs 2" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_enhance_jobs_below_one_is_a_usage_error(workspace, capsys, jobs):
    out = workspace / f"enh_jobs{jobs}"
    rc = main(["enhance", str(workspace / "only_mtg.json"),
               "--config", str(workspace / "cfg.json"), "--out", str(out),
               f"--jobs={jobs}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and f"unrecognized arguments: --jobs={jobs}" in err
    assert not out.exists()


def _enhance_failing_sessions(tmp_path, monkeypatch, errors):
    """Run enhance over one session per error; session i raises errors[i]."""
    by_session = {f"s{i}": exc for i, exc in enumerate(errors)}

    def fail(manifest, cfg, out_root):
        raise by_session[manifest.session]

    monkeypatch.setattr(cli, "_enhance_session", fail)
    manifest = tmp_path / "sessions.json"
    manifest.write_text(json.dumps(
        [{"session": s, "wavs": [f"{s}.wav"], "rttm": f"{s}.rttm"} for s in by_session]
    ))
    return main(["enhance", str(manifest), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("first_unexpected", [False, True])
def test_enhance_unexpected_session_error_propagates(tmp_path, monkeypatch, capsys,
                                                      first_unexpected):
    errors = [DataError("unreadable wav"), RuntimeError("bug in the pipeline")]
    if first_unexpected:
        errors.reverse()
    with pytest.raises(RuntimeError, match="bug in the pipeline"):
        _enhance_failing_sessions(tmp_path, monkeypatch, errors)
    # every session failure is reported once, the data error included
    assert capsys.readouterr().err.count("unreadable wav") == 1


@pytest.mark.parametrize(
    "errors, code",
    [
        ([DataError("d"), NumericalError("n")], 3),
        ([NumericalError("n"), DataError("d")], 3),
        ([ParameterError("p"), DataError("d")], 2),
        ([OSError("o"), ParameterError("p")], 2),
    ],
)
def test_enhance_exits_with_the_gravest_session_code(tmp_path, monkeypatch, capsys,
                                                     errors, code):
    assert _enhance_failing_sessions(tmp_path, monkeypatch, errors) == code
    err = capsys.readouterr().err
    assert err.count("error: session") == len(errors)


@pytest.mark.parametrize(
    "exc, code",
    [(NumericalError("n"), 3), (ParameterError("p"), 1), (DataError("d"), 2),
     (OSError("o"), 2), (FarfieldError("f"), 1)],
)
def test_main_maps_error_classes_to_exit_codes(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_rover", fail)
    assert main(["rover", "h.txt"]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


# --------------------------------------------------------------- score


def test_score_cpcer_worked_case(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("A-s1-0-1000 abcd\nB-s1-1000-2000 wxyz\n")
    hyp.write_text("h1-s1-0-1000 wxyz\nh2-s1-1000-2000 abcx\n")
    rc = main(["score", "--mode", "cpcer", str(ref), str(hyp)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cpCER: 12.50% over 1 sessions" in out
    assert "metric=cpcer session=s1 value=0.125000" in out
    assert "metric=cpcer session=ALL value=0.125000" in out


def test_score_der_worked_case(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER m 1 0.000 8.000 <NA> <NA> A <NA> <NA>\n")
    hyp.write_text(
        "SPEAKER m 1 0.000 6.000 <NA> <NA> X <NA> <NA>\n"
        "SPEAKER m 1 6.000 2.000 <NA> <NA> Y <NA> <NA>\n"
    )
    rc = main(["score", "--mode", "der", str(ref), str(hyp), "--collar", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "DER: 25.00%" in out
    assert "conf 25.00%" in out
    assert "metric=der session=m value=0.250000" in out
    assert "metric=der session=ALL value=0.250000" in out


def test_score_der_overlap_toggle(tmp_path, capsys):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text(
        "SPEAKER m 1 0.000 1.000 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER m 1 0.500 1.000 <NA> <NA> B <NA> <NA>\n"
    )
    hyp.write_text("SPEAKER m 1 0.500 0.500 <NA> <NA> A <NA> <NA>\n")
    rc = main(["score", "--mode", "der", str(ref), str(hyp), "--collar", "0"])
    assert rc == 0
    assert "metric=der session=ALL value=0.750000" in capsys.readouterr().out
    rc = main(["score", "--mode", "der", str(ref), str(hyp), "--collar", "0",
               "--no-score-overlap"])
    assert rc == 0
    assert "metric=der session=ALL value=1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("collar", ["nan", "inf"])
def test_score_der_non_finite_collar_is_a_usage_error(tmp_path, capsys, collar):
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER m 1 0.000 8.000 <NA> <NA> A <NA> <NA>\n")
    rc = main(["score", "--mode", "der", str(ref), str(ref), "--collar", collar])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "collar_s must be a finite number" in err


@pytest.mark.parametrize(
    "bad_line",
    [
        "SPEAKER m 1 1.000 inf <NA> <NA> a <NA> <NA>\n",
        "SPEAKER m 1 -1.000 0.500 <NA> <NA> a <NA> <NA>\n",
    ],
    ids=["inf-duration", "negative-start"],
)
def test_score_der_rejects_a_non_finite_or_negative_reference_time(tmp_path, capsys, bad_line):
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text(
        "SPEAKER m 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n"
        "SPEAKER m 1 2.500 0.500 <NA> <NA> b <NA> <NA>\n" + bad_line
    )
    hyp.write_text("SPEAKER m 1 2.500 0.500 <NA> <NA> b <NA> <NA>\n")
    rc = main(["score", "--mode", "der", str(ref), str(hyp), "--collar", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("error:") == 1 and "ref.rttm" in err


def test_score_intersects_sessions_with_warning(tmp_path, capsys, caplog):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("A-s1-0-1000 abcd\nA-s2-0-1000 efgh\n")
    hyp.write_text("h-s1-0-1000 abcd\n")
    with caplog.at_level(logging.WARNING, logger="farfield.cli"):
        rc = main(["score", "--mode", "cpcer", str(ref), str(hyp)])
    out = capsys.readouterr().out
    assert rc == 0
    assert any("reference-only" in r.message for r in caplog.records)
    assert "metric=cpcer session=ALL value=0.000000" in out
    assert "session=s2" not in out


def test_score_disjoint_sessions_fail(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("A-s1-0-1000 abcd\n")
    hyp.write_text("h-s9-0-1000 abcd\n")
    rc = main(["score", "--mode", "cpcer", str(ref), str(hyp)])
    assert rc == 2
    assert "no sessions in common" in capsys.readouterr().err


# --------------------------------------------------------------- rover


def _write_hyps(tmp_path):
    files = []
    lines = [
        "u1-m-0-1000 a b\nu2-m-1000-2000 x\n",
        "u1-m-0-1000 a c\nu2-m-1000-2000 x\n",
        "u1-m-0-1000 a c\n",  # u2 missing from the third system
    ]
    for i, text in enumerate(lines):
        p = tmp_path / f"hyp{i}.txt"
        p.write_text(text)
        files.append(str(p))
    return files


def test_rover_cli_fuses_files(tmp_path, capsys):
    files = _write_hyps(tmp_path)
    out = tmp_path / "fused.txt"
    rc = main(["rover", *files, "--out", str(out)])
    assert rc == 0
    fused = read_utterances(out)
    assert fused["u1-m-0-1000"] == ("a", "c")
    # two of three systems vote for x; the absent one contributes nulls
    assert fused["u2-m-1000-2000"] == ("x",)


def test_rover_cli_stdout_and_argument_order(tmp_path, capsys):
    files = _write_hyps(tmp_path)
    rc = main(["rover", *files])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(["rover", files[2], files[0], files[1]])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second  # inputs are folded in sorted file order
    assert "u1-m-0-1000 a c\n" in first


def test_rover_cli_duplicate_id_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "dup.txt"
    p.write_text("u1-m-0-100 a\nu1-m-0-100 b\n")
    rc = main(["rover", str(p)])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


def test_rover_cli_null_token_in_a_file_is_a_data_error(tmp_path, capsys):
    files = _write_hyps(tmp_path)
    bad = tmp_path / "hyp_at.txt"
    bad.write_text("u1-m-0-1000 a @ b\n")
    rc = main(["rover", *files, str(bad)])
    assert rc == 2
    assert f"{bad}: utterance 'u1-m-0-1000' holds the reserved token '@'" in (
        capsys.readouterr().err
    )


def test_rover_cli_alpha_out_of_range_is_a_usage_error(tmp_path, capsys):
    rc = main(["rover", *_write_hyps(tmp_path), "--alpha", "2"])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


def test_rover_cli_empty_inputs_fail(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("\n")
    rc = main(["rover", str(p)])
    assert rc == 2
    assert "no utterances" in capsys.readouterr().err


# ----------------------------------------------------------- fuse-demo


def test_fuse_demo_is_deterministic(tmp_path, capsys):
    rc = main(["fuse-demo", "--seed", "5", "--out", str(tmp_path / "fused.ftoy")])
    first = capsys.readouterr().out
    assert rc == 0
    assert "fused frames=24 dim=32 sha256=" in first
    assert "ctc_loss=" in first

    rc = main(["fuse-demo", "--seed", "5"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first.splitlines()[:2] == second.splitlines()[:2]

    rc = main(["fuse-demo", "--seed", "6"])
    third = capsys.readouterr().out
    assert rc == 0
    assert first.splitlines()[0] != third.splitlines()[0]

    from farfield import read_ftoy, sha256_bytes

    (fused,) = read_ftoy(tmp_path / "fused.ftoy")
    assert fused.shape == (24, 32)
    digest = sha256_bytes(np.ascontiguousarray(fused).tobytes())
    assert digest in first


def test_fuse_demo_loads_feature_files(tmp_path, capsys):
    from farfield import write_ftoy

    rng = np.random.default_rng(3)
    write_ftoy(tmp_path / "a.ftoy", [rng.normal(size=(6, 4))])
    write_ftoy(tmp_path / "v.ftoy", [rng.normal(size=(3, 4))])
    rc = main(["fuse-demo", "--audio", str(tmp_path / "a.ftoy"),
               "--video", str(tmp_path / "v.ftoy"), "--heads", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fused frames=6 dim=8" in out

    write_ftoy(tmp_path / "bad.ftoy", [rng.normal(size=(3, 5))])
    rc = main(["fuse-demo", "--audio", str(tmp_path / "a.ftoy"),
               "--video", str(tmp_path / "bad.ftoy")])
    assert rc == 2
    assert "equal dims" in capsys.readouterr().err

    write_ftoy(tmp_path / "rank1.ftoy", [rng.normal(size=7)])
    rc = main(["fuse-demo", "--audio", str(tmp_path / "rank1.ftoy")])
    assert rc == 2
    assert "rank-2" in capsys.readouterr().err


# ------------------------------------------------------- parser basics


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert "verb" in capsys.readouterr().err
    assert main(["bogus-verb"]) == 1
    assert main(["score", "--mode", "bogus", "r", "h"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "enhance" in capsys.readouterr().out
    assert main(["score", "--help"]) == 0


def _child(*args):
    # the child imports the package under test, installed or not
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _child("-m", "farfield.cli", "--help")
    assert proc.returncode == 0
    assert "farfield" in proc.stdout


def test_importing_the_package_and_cli_loads_no_scipy_optimize_or_special():
    # enhance never calls them; scoring and the CTC loss import them on use
    proc = _child(
        "-c",
        "import sys, farfield, farfield.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
