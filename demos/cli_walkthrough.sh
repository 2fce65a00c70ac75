#!/usr/bin/env bash
# End-to-end command-line tour: simulate a meeting, enhance it, score
# the reference against itself, fuse recognizer outputs, and run the
# audio-visual fusion demo. Everything happens in a temp directory.
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== 1. synthesize two dry sources =="
python3 - <<'PY'
import numpy as np
import farfield as ff

FS = 16000
rng = np.random.default_rng(0)
t = np.arange(int(1.6 * FS)) / FS
for name, f_env in (("ann", 2.3), ("bob", 3.1)):
    env = 0.55 + 0.45 * np.sin(2 * np.pi * f_env * t)
    ff.write_wav(f"{name}.wav", ff.WaveformBuffer(0.1 * env * rng.normal(size=t.size), FS))
print("wrote ann.wav, bob.wav")
PY

cat > plan.json <<'JSON'
{
  "session": "mtg",
  "seed": 3,
  "snr_db": 20.0,
  "sources": [
    {"speaker": "ann", "wav": "ann.wav", "onset_s": 0.0},
    {"speaker": "bob", "wav": "bob.wav", "onset_s": 0.6}
  ]
}
JSON
cat > room.json <<'JSON'
{
  "dimensions": [6.0, 5.0, 3.0],
  "absorption": 0.5,
  "max_order": 1,
  "sample_rate_hz": 16000,
  "source_positions": [[1.5, 3.5, 1.6], [4.5, 1.5, 1.7]],
  "mic_positions": [[2.9, 2.4, 1.4], [3.1, 2.6, 1.4]]
}
JSON

echo "== 2. simulate the meeting =="
python3 -m farfield.cli simulate plan.json room.json --out sim

echo "== 3. enhance each speaker from the mixture =="
cat > manifest.json <<'JSON'
{
  "session": "mtg",
  "wavs": ["sim/mixture.wav"],
  "rttm": "sim/reference.rttm",
  "out_dir": "enhanced"
}
JSON
cat > config.json <<'JSON'
{
  "wpe": {"taps": 5, "delay": 2, "iterations": 2},
  "gss": {"em_iterations": 10}
}
JSON
python3 -m farfield.cli enhance manifest.json --config config.json
find enhanced -type f | sort

echo "== 4. score diarization (reference vs itself: 0% DER) =="
python3 -m farfield.cli score --mode der sim/reference.rttm sim/reference.rttm --collar 0

echo "== 5. fuse recognizer hypotheses =="
printf 'ann-mtg-0-1600 the cat sat\nbob-mtg-600-2200 on the mat\n' > sys_a.txt
printf 'ann-mtg-0-1600 the cat sat\nbob-mtg-600-2200 on a mat\n' > sys_b.txt
printf 'ann-mtg-0-1600 a cat sat\nbob-mtg-600-2200 on the mat\n' > sys_c.txt
python3 -m farfield.cli rover sys_a.txt sys_b.txt sys_c.txt

echo "== 6. audio-visual fusion forward pass =="
python3 -m farfield.cli fuse-demo --seed 7
