"""Benchmark of the farfield package: one workload per process.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload meeting --seed 1 --seconds 30 --trace 0

Workloads are ``meeting``, ``turns`` and ``simulate-score`` (see
bench/README.md). ``--trace 0`` times the workload untraced and prints
the end-to-end metrics; ``--trace 1`` prints per-layer metrics from a
traced run and writes its spans under ``.bench_out/``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a full
report with every figure, the output hash and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
import time
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_ROUNDS = 5
# share of the run spent on the reference work (reference.py), and the
# time of one pass of it at the nominal speed setup_s is scaled to
REF_SHARE = 0.1
REF_NOMINAL_S = 0.05
# seeds 1..10 were used while sizing the workloads; claim a gain on this one too
HELD_OUT_SEED = 7919

# metric name -> (span name, quantity, unit, scale)
PER_LAYER = {}
for _span, _quantities in (
    ("wpe.wpe", ("self_s", "calls", "frames", "peak_alloc_mb")),
    ("gss.fit_cacgmm", ("self_s", "calls", "bin_frames", "peak_alloc_mb")),
    ("gss.cacgmm_posteriors", ("self_s",)),
    ("gss.spatial_covariance", ("self_s",)),
    ("gss.mvdr_weights", ("self_s", "calls")),
    ("gss.mvdr_beamform", ("self_s",)),
    ("gss.gss_enhance", ("self_s",)),
    ("signal.stft", ("self_s", "calls")),
    ("signal.istft", ("self_s", "calls")),
    ("wavio.read_wav", ("self_s",)),
    ("wavio.write_wav", ("self_s", "bytes")),
    ("formats.read_rttm", ("self_s",)),
    ("formats.sha256_file", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("simulate.make_meeting", ("self_s",)),
    ("simulate.image_source_rir", ("self_s", "calls")),
    ("metrics.cpcer", ("self_s",)),
    ("metrics.edit_distance", ("self_s", "calls", "cells")),
    ("metrics.der", ("self_s",)),
    ("rover.rover", ("self_s",)),
    ("rover.align_into_wtn", ("self_s", "calls", "cells")),
):
    for _q in _quantities:
        if _q == "peak_alloc_mb":
            PER_LAYER[f"{_span}.{_q}"] = (_span, "peak_bytes", "MB", 1.0 / 2**20)
        else:
            unit = {"self_s": "s", "bytes": "B"}.get(_q, "count")
            PER_LAYER[f"{_span}.{_q}"] = (_span, _q, unit, 1.0)


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; must run before
    numpy is imported."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int, seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def time_reference(last_op_s: float) -> list:
    """Wall seconds of passes of the reference work, at least two and
    together at least REF_SHARE of the last operation's wall time."""
    from reference import reference_s

    passes = []
    while len(passes) < 2 or sum(passes) < REF_SHARE * last_op_s:
        passes.append(reference_s())
    return passes


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run operations back to back until the next one would end after
    ``seconds``. With a tracer, operations alternate between untraced and
    traced, so both see the same machine; at least one of each runs.
    Without one, the reference work is timed before every operation and
    after the last. Returns the timings of each kind, the reference
    passes around each operation and the operation counts."""
    timings = {False: [], True: []}
    ops = {False: 0, True: 0}
    attempted = failed = 0
    rep_walls = []
    refs = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rep_walls) % 2 == 1
        rep_start = perf_counter()
        if tracer is None:
            refs.append(time_reference(rep_walls[-1] if rep_walls else 0.0))
        try:
            with tracer if traced else contextlib.nullcontext():
                t = wl.run_op()
            a, f = wl.check()
        except Exception:  # a crash fails the operation, not the run
            traceback.print_exc(file=sys.stderr)
            a, f, t = wl.ops_per_run, wl.ops_per_run, None
        attempted += a
        failed += f
        ops[traced] += 1
        if t is not None:
            timings[traced].append(t)
        rep_walls.append(perf_counter() - rep_start)
        elapsed = perf_counter() - start
        enough = len(rep_walls) >= (2 if tracer is not None else 1)
        if enough and elapsed + statistics.median(rep_walls) > seconds:
            break
    if tracer is None:
        refs.append(time_reference(rep_walls[-1]))
    return {"timings": timings[False], "traced_timings": timings[True], "refs": refs,
            "ops": ops[False], "traced_ops": ops[True],
            "attempted": attempted, "failed": failed}


def summarize(timings, stat) -> dict:
    """``stat`` of each kind of time over the operations."""
    if not timings:
        raise RuntimeError("no operation succeeded; nothing to report")
    return {k: stat([t[k] for t in timings]) for k in timings[0]}


def per_layer(setup_totals: dict, op_totals: dict, reps: int, session_frames: int) -> dict:
    """Per-layer figures per operation: set-up spans count once, spans of
    the measured operations are averaged over ``reps``."""
    merged = {}
    for totals, share in ((setup_totals, 1.0), (op_totals, 1.0 / reps)):
        for name, quantities in totals.items():
            into = merged.setdefault(name, {})
            for q, v in quantities.items():
                if q == "peak_bytes":
                    into[q] = max(into.get(q, 0.0), v)
                else:
                    into[q] = into.get(q, 0.0) + v * share
    out = {}
    for metric, (span, quantity, unit, scale) in PER_LAYER.items():
        out[metric] = {"value": merged.get(span, {}).get(quantity, 0.0) * scale, "unit": unit}
    fit_frames = merged.get("gss.fit_cacgmm", {}).get("frames", 0.0)
    out["gss.fit_cacgmm.frames_per_session_frame"] = {
        "value": fit_frames / session_frames if session_frames else 0.0, "unit": "ratio"
    }
    return out


def timed_setups(args) -> tuple:
    """SETUP_ROUNDS cold set-ups, each in a fresh process that imports the
    package, writes the inputs and warms up. Returns the wall seconds of
    each, from the start of its process to the end of its warm-up, and
    the mean reference pass each process timed right after."""
    times, refs = [], []
    for _ in range(SETUP_ROUNDS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
               "--setup-only", repr(time.time())]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        round_ = json.loads(out.stdout.splitlines()[-1])
        times.append(round_["setup_s"])
        refs.append(round_["ref_s"])
    return times, refs


def set_up_once(args) -> dict:
    """One set-up, timed from ``--setup-only``'s stamp, then reference
    passes timed while its caches are still warm."""
    with set_up(args):
        setup_s = time.time() - args.setup_only
        from reference import reference_s

        reference_s()  # the first pass in a process loads numpy's linalg
        ref_s = statistics.mean(reference_s() for _ in range(3))
    return {"setup_s": setup_s, "ref_s": ref_s}


@contextlib.contextmanager
def set_up(args):
    """Import the package, write the inputs and warm up; yields the
    workload and removes its work files afterwards."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import make_workload

    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wl = make_workload(args.workload, args.size, args.seed, workdir, args.corrupt)
    try:
        wl.setup_round()
        wl.warm_up()
        yield wl
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, nproc: int) -> tuple:
    setups, setup_refs = ([], []) if args.trace else timed_setups(args)
    with set_up(args) as wl:
        from tracer import Tracer

        report = {"workload": args.workload, "size": args.size, "seconds": args.seconds}
        if not args.trace:
            # The host's speed drifts for longer than a run, and that drift
            # slows the reference work timed after each set-up and between
            # the operations about as much as it slows them, so times divided
            # by the reference follow the code (README, Noise). setup_s is in
            # seconds at the nominal speed of the reference work.
            setup_s = statistics.median(
                t * REF_NOMINAL_S / r for t, r in zip(setups, setup_refs))
            m = measure(wl, args.seconds)
            walls = [t["op_wall_s"] for t in m["timings"]]
            passes = [t for slot in m["refs"] for t in slot]
            ref_ratio = statistics.mean(walls) / statistics.mean(passes)
            fastest = summarize(m["timings"], min)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_ref_ratio": {"value": ref_ratio, "unit": "ratio"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            figures = dict(metrics)
            figures["setup_wall_s"] = {"value": statistics.median(setups), "unit": "s"}
            figures["op_best_s"] = {"value": fastest["op_wall_s"], "unit": "s"}
            figures["op_median_s"] = {"value": statistics.median(walls), "unit": "s"}
            figures["ref_mean_s"] = {"value": statistics.mean(passes), "unit": "s"}
            for name, (value, unit) in wl.figures(fastest).items():
                figures[name] = {"value": value, "unit": unit}
            report.update(ops=m["ops"], op_wall_s_all=walls, ref_s_all=m["refs"],
                          setup_wall_s_all=setups, setup_ref_s_all=setup_refs)
        else:
            setup_tracer = Tracer(wl.track_memory)
            if wl.trace_setup:
                with setup_tracer:
                    wl.setup_round()
            op_tracer = Tracer(wl.track_memory)
            m = measure(wl, args.seconds, op_tracer)
            # means, like the per-layer figures; alternation gives both
            # kinds the same mix of machine states
            untraced = summarize(m["timings"], statistics.mean)["op_wall_s"]
            traced = summarize(m["traced_timings"], statistics.mean)["op_wall_s"]
            reps = m["traced_ops"]
            op_totals = op_tracer.layer_totals()
            metrics = per_layer(setup_tracer.layer_totals(), op_totals, reps, wl.session_frames)
            metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "fraction"}
            metrics["trace.layer_self_sum_s"] = {
                "value": sum(t["self_s"] for t in op_totals.values()) / reps, "unit": "s"
            }
            metrics["trace.untraced_op_s"] = {"value": untraced, "unit": "s"}
            figures = metrics
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps({
                "columns": ["name", "start", "end", "parent", "work"],
                "setup": setup_tracer.rows(),
                "ops": op_tracer.rows(),
            }))
            report.update(ops=reps, spans=str(spans))
        report.update(
            figures=figures,
            fail_rate=m["failed"] / m["attempted"],
            output_sha256=getattr(wl, "output_sha256", None),
            environment=environment(nproc, args.seed),
        )
        result = {
            "correct": m["failed"] == 0,
            "attempted": m["attempted"],
            "failed": m["failed"],
            "metrics": metrics,
        }
        return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("meeting", "turns", "simulate-score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a reduced workload (smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output per operation before it is checked")
    parser.add_argument("--setup-only", type=float, metavar="STAMP",
                        help="set up once, print its time since STAMP (a time.time() "
                             "value) and a reference pass, and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "farfield" / "__init__.py").is_file():
        print(f"error: no farfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    if args.setup_only is not None:
        print(json.dumps(set_up_once(args)))
        return 0
    report, result = run(args, nproc)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
