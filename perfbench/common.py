"""Shared pieces of the benchmark harness.

Paths inside the checkout, child-process plumbing, order statistics,
the host fingerprint and environment guard, and the result line every
workload prints last.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for corpora, models and span dumps (inside the checkout).
WORK_PARENT = ROOT / ".perfbench_work"

#: Environment variables that change what the program does: a cache hit
#: skips the campaign, fault injection measures a different program.
FORBIDDEN_ENV = ("REPRO_CACHE_DIR", "REPRO_FAULTS")

#: The four SpMV formats a selector may recommend.
FORMATS = ("csr", "coo", "ell", "hyb")

#: Seed used when ``--seed`` is not given.  Seed 9001 is held out: its
#: reference digests are recorded, but tuning never looked at it.
DEFAULT_SEED = 1


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad environment)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the harness."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")


def environment_guard(environ=os.environ) -> None:
    """Refuse to run when the environment changes the measured program."""
    bad = [name for name in FORBIDDEN_ENV if environ.get(name)]
    if bad:
        raise BenchError(
            "refusing to run with " + ", ".join(bad) + " set: the run "
            "would not measure the default program"
        )


def child_env() -> dict[str, str]:
    """Environment for program processes: sources on the path, no knobs."""
    env = {k: v for k, v in os.environ.items() if k not in FORBIDDEN_ENV}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def use_program_sources() -> None:
    """Make ``import repro`` work in this (harness) process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class WorkDir:
    """A private scratch directory under the checkout, removed on exit."""

    def __init__(self, tag: str) -> None:
        WORK_PARENT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_PARENT))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it


def run_worker(task: str, spec: dict, timeout: float = 170.0) -> dict:
    """Run ``perfbench/worker.py <task>`` in a fresh interpreter.

    The spec goes in on stdin as JSON and the result comes back as the
    last stdout line.  A fresh process per call keeps the program's
    in-process memos cold and gives each call its own peak RSS.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), task],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {task} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def train_model(out: Path, seed: int, labeler: str = "vote") -> subprocess.Popen:
    """Start ``repro train`` for a small selector; the caller waits."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "train",
            "--size", "60", "--clusters", "12", "--trials", "5",
            "--labeler", labeler, "--seed", str(seed), "--out", str(out),
        ],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_all(procs: list[subprocess.Popen], timeout: float = 120.0) -> None:
    """Wait for every process; fail loudly if one failed."""
    errors = []
    for proc in procs:
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            errors.append(f"{proc.args[3]} timed out")
            continue
        if proc.returncode != 0:
            errors.append(f"{' '.join(proc.args[2:4])}: {err[-1000:]}")
    if errors:
        raise BenchError("; ".join(errors))


# -- statistics -------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def digest(obj) -> str:
    """Stable short digest of a JSON-serialisable value."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- host fingerprint -------------------------------------------------------


def host_fingerprint() -> dict:
    """nproc, CPU model, Python/numpy versions, commit and load at start."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }


# -- the result -------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    #: name -> (value, unit) for the result line.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: name -> (value, unit) for the report only (workload-named aliases,
    #: per-step figures).
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: (input size, digest) of the checked outputs, for ``--record``.
    output_digest: tuple[int, str] | None = None

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values()) and self.failed == 0


def print_report(workload: str, seed: int, host: dict, outcome: Outcome,
                 wall: float) -> None:
    """Human-readable lines before the result line."""
    print(f"workload {workload} seed {seed} wall {wall:.1f}s")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"operations sent {outcome.attempted} "
          f"succeeded {outcome.attempted - outcome.failed} "
          f"failed {outcome.failed}")
    for name, ok in sorted(outcome.checks.items()):
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for name, (value, unit) in outcome.report.items():
        print(f"report {name} = {value:.6g} {unit}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for note in outcome.notes:
        print(f"note {note}")


def result_line(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    })


def now() -> float:
    return time.perf_counter()


def pick_nearest(items: list, size, targets) -> list:
    """For each target size, the unused item whose ``size(item)`` is nearest
    in log scale.

    Stratifies a seeded draw to a fixed size profile, so the cost of a
    corpus varies with the seed far less than a plain draw's would,
    while the matrices themselves (family, structure) still change.
    """
    import math

    pool = list(items)
    chosen = []
    for target in targets:
        best = min(range(len(pool)), key=lambda i: abs(
            math.log1p(size(pool[i])) - math.log1p(target)))
        chosen.append(pool.pop(best))
    return chosen
