#!/usr/bin/env python3
"""asyncsep pipeline benchmark: one workload per run, checked and timed.

Usage (from the root of a checkout)::

    python3 pipebench/run.py --workload demo-e2e --seed 2024 --seconds 15 --trace 0

The workloads are defined in ``workloads.py``.  A run sets the workload up
three times, each in a fresh process, and reports the median set-up time;
runs one untimed warm-up iteration; then repeats
the timed iteration until ``--seconds`` would be exceeded (at least once)
and checks every iteration's outputs against the correctness gates.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` iterations
alternate untraced and traced, the metrics are the per-layer ones (medians
over the traced iterations) and the spans are written to
``.pipebench/traces/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, set before numpy is imported: the per-tile
# kernels are batched small matrices that BLAS threads do not speed up, and
# single-threaded runs spread less on a shared host.  Never above nproc.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
MAX_MISSING_ITERATIONS = 4

# mean SDR and the error rate are printed but are not metrics: the SDR
# of a 15 s scene moves by up to 25% between seeds, wider than any bound
# allowed, and the error rate is 0 when the program is right.
END_TO_END = [
    ("setup_s", "s"),
    ("audio_s_per_s", "s/s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2024,
                   help="test-scene seed; the training scene uses seed + 1")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--duration-s", type=float, default=None,
                   help="shrink the scene (self-check only; size-specific "
                        "gates are skipped)")
    p.add_argument("--prepare", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def environment() -> dict:
    """Machine, versions and kernel path that the figures depend on."""
    import numpy
    import scipy
    from asyncsep import _kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "use_numba": bool(_kernels.USE_NUMBA),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_setups(args, workdir: Path) -> tuple[list[float], Path]:
    """Set the workload up in fresh processes; returns times and data dir."""
    times = []
    repeats = 1 if args.trace else SETUP_REPEATS
    keep = workdir / "setup0"
    for r in range(repeats):
        target = workdir / f"setup{r}"
        target.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--prepare", str(target)]
        if args.duration_s is not None:
            cmd += ["--duration-s", str(args.duration_s)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"set-up {r} exited {proc.returncode}")
        if target != keep:
            shutil.rmtree(target)
    return times, keep


def measure(workload, state, args, tracer):
    """Warm up, then iterate until the run's seconds are spent."""
    from tracing import median_metrics

    attempted = failed = 0
    untraced, traced, sdr_means = [], [], []

    def one(st, timed_state: bool, traced_it: bool):
        nonlocal attempted, failed
        attempted += 1
        if traced_it:
            tracer.begin_iteration()
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw = workload.run(st)
            dt = time.perf_counter() - t0
        except Exception:
            dt = time.perf_counter() - t0
            failed += 1
            traceback.print_exc()
            return dt
        finally:
            if traced_it:
                tracer.uninstall()
        try:
            outcome = workload.check(st, raw)
        except Exception:
            failed += 1
            traceback.print_exc()
            return dt
        del raw
        if timed_state and outcome.sdr_db:
            sdr_means.append(sum(outcome.sdr_db) / len(outcome.sdr_db))
            if sdr_means[-1] != sdr_means[0]:
                outcome.failures.append(
                    f"mean SDR {sdr_means[-1]!r} dB differs from the first "
                    f"iteration's {sdr_means[0]!r} dB on the same seed")
        if outcome.failures:
            failed += 1
            for msg in outcome.failures:
                print(f"gate failed: {msg}", file=sys.stderr)
        if timed_state:
            (traced if traced_it else untraced).append(outcome.audio_s / dt)
        return dt

    one(workload.warmup_state(state), False, False)
    start = time.perf_counter()
    n = 0
    while True:
        dt = one(state, True, args.trace == 1 and n % 2 == 1)
        n += 1
        missing = not untraced or (args.trace == 1 and not traced)
        if missing and n >= MAX_MISSING_ITERATIONS:
            break  # the iterations keep failing; they are counted
        if not missing and time.perf_counter() - start + dt > args.seconds:
            break

    result = {"attempted": attempted, "failed": failed, "untraced": untraced,
              "traced": traced, "iterations": n,
              "mean_sdr_db": sdr_means[0] if sdr_means else math.nan}
    if tracer is not None and tracer.counters:
        result["layers"] = median_metrics(tracer.layer_metrics())
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asyncsep" / "__init__.py").is_file():
        print(f"error: no asyncsep sources under {SRC}; run from the root "
              f"of an asyncsep checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.prepare is not None:
        workload.prepare(Path(args.prepare), args.seed, args.duration_s)
        return 0

    from tracing import PER_LAYER, Tracer

    workdir = ROOT / ".pipebench" / "work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    try:
        setup_times, data = run_setups(args, workdir)
        state = workload.load(data, args.seed, args.duration_s)
        tracer = Tracer() if args.trace else None
        res = measure(workload, state, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    untraced_rate = med(res["untraced"])
    e2e = {
        "setup_s": med(setup_times),
        "audio_s_per_s": untraced_rate,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"pipebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations={res['iterations']} (+1 warm-up)")
    print("env " + json.dumps(env, sort_keys=True))
    print("  audio_s_per_s by iteration: untraced "
          + " ".join(f"{r:.3f}" for r in res["untraced"])
          + ("; traced " + " ".join(f"{r:.3f}" for r in res["traced"])
             if args.trace else ""))
    for name, unit in END_TO_END:
        print(f"  {name:<16s} {e2e[name]:12.4f} {unit}")
    print(f"  {'mean_sdr_db':<16s} {res['mean_sdr_db']:12.4f} dB")
    print(f"  {'error_rate':<16s} {res['failed'] / res['attempted']:12.4f} "
          f"({res['failed']} of {res['attempted']} operations failed)")

    if args.trace:
        layers = dict(res.get("layers", {}))
        traced_rate = med(res["traced"])
        layers["trace.audio_s_per_s"] = traced_rate
        layers["trace.overhead_audio_s_per_s"] = traced_rate - untraced_rate
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        trace_path = ROOT / ".pipebench" / "traces" / \
            f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "env": env, "end_to_end": e2e,
                                  "mean_sdr_db": res["mean_sdr_db"],
                                  "per_layer": layers})
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<40s} {metrics[name]['value']:16.6g} {unit}")
        print(f"trace written to {trace_path}")
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
