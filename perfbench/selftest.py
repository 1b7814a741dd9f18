"""Self-tests of the benchmark harness.

Usage: ``python3 perfbench/selftest.py`` (about three minutes on 2 vCPUs).

1. A tiny-size run of each workload, untraced and traced, prints every
   metric BENCHMARK.json names for that kind of run, with its unit.
2. A deliberately corrupted expected answer is reported as a failed
   operation (and ``correct: false``), not as a pass.
3. ``REPRO_CACHE_DIR`` / ``REPRO_FAULTS`` make the run refuse, and a
   directory holding only the benchmark (no program) exits non-zero
   without a result line.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import HERE, ROOT, WORK_PARENT, use_program_sources

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args: list[str], cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_metrics_emitted(failures: list[str]) -> None:
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run(["--workload", workload, "--tiny", "--seconds", "3",
                         "--trace", trace])
            name = f"{workload} trace={trace}"
            before = len(failures)
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failed_checks = [line for line in proc.stdout.splitlines()
                                 if line.startswith("check ") and "FAIL" in line]
                failures.append(f"{name}: not correct: attempted "
                                f"{result['attempted']} failed "
                                f"{result['failed']} {failed_checks}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name}: metrics/units differ: "
                                f"{sorted(set(got) ^ set(want))}")
            if len(failures) == before:
                print(f"ok   metrics emitted: {name}", flush=True)


def test_corrupted_expectation_fails(failures: list[str]) -> None:
    use_program_sources()
    from run import load_workload

    for workload in WORKLOADS:
        outcome = load_workload(workload).run(
            1, 3.0, False, tiny=True, corrupt=True
        )
        if outcome.failed < 1 or outcome.correct:
            failures.append(f"{workload}: corrupted expectation passed")
        else:
            print(f"ok   corrupted expectation counted as failed: {workload}",
                  flush=True)


def test_refusals(failures: list[str]) -> None:
    for var in ("REPRO_CACHE_DIR", "REPRO_FAULTS"):
        env = dict(os.environ, **{var: "x"})
        proc = _run(["--workload", "select", "--tiny"], env=env)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"{var} set: run did not refuse")
        else:
            print(f"ok   refuses with {var} set", flush=True)
    WORK_PARENT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_PARENT)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "campaign"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("benchmark-only directory: run did not fail")
        else:
            print("ok   fails without the program", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass


def main() -> int:
    failures: list[str] = []
    test_refusals(failures)
    test_corrupted_expectation_fails(failures)
    test_metrics_emitted(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
