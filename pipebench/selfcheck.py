#!/usr/bin/env python3
"""Self-check of the benchmark harness, at a reduced size.

1. Runs every workload of BENCHMARK.json on a 2 s scene, untraced and
   traced, and asserts that each end-to-end and per-layer metric is
   printed with its unit and that no operation failed.
2. Feeds the correctness gates corrupted estimates and asserts they fail.
3. Asserts that the benchmark exits non-zero, printing no result, in a
   directory that holds only BENCHMARK.json and the benchmark's files.

Run from the root of a checkout::

    python3 pipebench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".pipebench" / "selfcheck"
SMALL = ["--seed", "7", "--seconds", "1", "--duration-s", "2"]


def run_benchmark(cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "pipebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_printed(spec: dict) -> None:
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), \
        "BENCHMARK.json workloads differ from workloads.py"
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER, "BENCHMARK.json per_layer differs from tracing.py"
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, ["--workload", w["name"],
                                        "--trace", str(trace), *SMALL])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], result
            assert result["correct"] and result["failed"] == 0, proc.stderr
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{w['name']} trace={trace}: {got} != {want}"
            if trace == 0:
                for name in want:
                    assert result["metrics"][name]["value"] != 0, name
                assert "error_rate" in proc.stdout
            print(f"ok  {w['name']} trace={trace}: "
                  f"{len(got)} metrics, {result['attempted']} operations")


def check_gates_fail_on_corruption() -> None:
    import numpy as np

    import workloads as wl

    work = WORK_ROOT / "gates"
    work.mkdir(parents=True)

    long = wl.WORKLOADS["long-separate"]
    long.prepare(work, 7, 2.0)
    state = long.load(work, 7, 2.0)
    observations, result, scores = long.run(state)
    assert long.check(state, (observations, result, scores)).failures == []
    rng = np.random.default_rng(0)
    for key, img in result.images.items():
        img.coeffs = img.coeffs + 50.0 * rng.standard_normal(img.coeffs.shape)
    failures = long.check(state, (observations, result,
                                  long.score(state, result)))
    assert any("A5" in f for f in failures.failures), failures
    assert any("unprocessed" in f for f in failures.failures), failures

    assert wl.readme_failures({"tv-distributed": 7.23}) != []
    assert wl.readme_failures({"static-local": 2.66, "unprocessed": 0.0}) == []

    gamma = np.full((3, 5, 4), 0.25)
    assert wl.posterior_failures(gamma, 4) == []
    gamma[1, 2] *= 1.001
    assert wl.posterior_failures(gamma, 4) != []
    assert wl.posterior_failures(gamma[:, :, :3], 4) != []

    cli = wl.WORKLOADS["cli-separate"]
    cli_state = {"duration_s": 2.0, "unprocessed_db": 0.0, "n_states": 4,
                 "seed": 7, "full": False}
    outcome = cli.check(cli_state, (2, 0, "", work / "none.npy",
                                    work / "none.json"))
    assert any("exit codes" in f for f in outcome.failures), outcome
    print("ok  gates fail on corrupted estimates, posteriors and exit codes")


def check_refuses_without_sources() -> None:
    bare = WORK_ROOT / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, ["--workload", "demo-e2e", "--seed", "1",
                                "--seconds", "1", "--trace", "0"])
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the asyncsep sources")


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK_ROOT, ignore_errors=True)
    try:
        check_metrics_printed(spec)
        check_gates_fail_on_corruption()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
