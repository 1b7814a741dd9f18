"""The ``serve`` workload: open-loop JSONL arrivals into ``repro serve``.

``repro serve --model M`` runs at default flags behind a stdin pipe.
The generator is this process: the main thread writes requests on a
seeded Poisson schedule at each rate of :data:`LADDER`, a reader thread
collects responses.  Each request is timed from when it was *due*, so a
stalled server (or a late generator, reported separately) shows up as
latency on every request behind it.

Mix, in every shuffled block of :data:`MIX_BLOCK` requests: 5% hostile
lines from the serving drill's poison table, 10% campaign-family
matrices of up to :data:`MEDIUM_MAX_NNZ` entries (ingest dominates; far
under the serve byte caps), the rest drill-sized matrices of at most
:data:`SMALL_MAX_NNZ` entries (per-request overhead dominates); every
:data:`OP_EVERY`-th request is a ``metrics`` or ``healthz`` op.  The
shares are exact and the medium payloads and poison lines are used in
turn, so the server's work per request is the same from seed to seed.
Halfway through each rate step the harness atomically renames the other
trained model over the served path: one hot swap per step, the writes
beside the reads.

The server runs under ``serve_launcher.py``, which calls the same CLI
entry point as ``python -m repro`` and, in the untraced run, times
calibration units (:mod:`calibrate`) in the server's own thread when it
is idle.  The gated cost is the server's CPU time per request line (its
main thread: the server is single-threaded), read from ``/proc`` at the
start and end of every step, less the units' own time, divided by the
units' slowness during the step.  Wall latencies from due time are
reported per step, not gated: on a shared host a stalled vCPU moves
them by a third from run to run.

It does not touch the campaign layers.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    HERE,
    ROOT,
    BenchError,
    Outcome,
    WorkDir,
    child_env,
    median,
    now,
    pick_nearest,
    quantile,
    train_model,
    use_program_sources,
    wait_all,
)
from calibrate import Calibrator
from layers import per_layer_metrics
from serve_launcher import SETUP_TICKS

#: (arrival rate in requests/s, seconds), sent in this order.  The first
#: rate is the reference rate of the latency quantiles, split in two
#: steps so its samples span the run.  It is low enough that a slow spell
#: of the host does not push the median request into the queue behind
#: the campaign-family payloads.  Frozen: every step sits below this
#: workload's capacity on a 2-vCPU host.
LADDER = ((30.0, 10.0), (60.0, 4.0), (30.0, 10.0), (90.0, 4.0))
TINY_LADDER = ((30.0, 2.0), (45.0, 1.0))
#: p99 latency limit of a rate step, in milliseconds.
P99_LIMIT_MS = 500.0
#: Request kinds of one shuffled block: 5% hostile, 10% medium.
MIX_BLOCK = ("hostile",) + ("medium",) * 2 + ("small",) * 17
OP_EVERY = 50
SMALL_MAX_NNZ = 300
SMALL_POOL = 300
#: Text lengths of the medium payloads, picked from a seeded draw of
#: ``MEDIUM_DRAW`` campaign matrices (about 40 of which qualify).
MEDIUM_BYTES = tuple(range(60_000, 540_001, 32_000))
MEDIUM_DRAW = 96
MEDIUM_MAX_NNZ = 22_000
MEDIUM_MAX_BYTES = 1024 * 1024
#: ``repro serve`` defaults the expected answers depend on.
OOD_FACTOR = 8.0
FALLBACK_FORMAT = "csr"
MODEL_SEEDS = (7, 8)
CORPUS_SEED_OFFSET = 200_000
#: Boots timed: the measured server's and one after each ladder step.
SETUP_SAMPLES = 5
#: Seconds of untraced reference-rate traffic a traced run measures
#: first, for the tracing overhead.
BASELINE_SECONDS = 5.0


@dataclass
class Planned:
    rid: str | None
    line: str
    kind: str  # small | medium | hostile | op
    offset: float
    #: small/medium: payload index; hostile: expected invalid code.
    ref: object = None


@dataclass
class StepResult:
    rate: float
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)  # valid predicts
    #: Index of the step's first answer without an id.
    anon_from: int = 0
    #: Server CPU seconds and the clock at the step's start and end.
    cpu_s: float = 0.0
    begin: float = 0.0
    end: float = 0.0
    late_max: float = 0.0
    backlog: list[int] = field(default_factory=list)
    first_sent: float = 0.0
    last_sent: float = 0.0

    @property
    def p50_ms(self) -> float:
        return quantile(self.latencies, 0.5) * 1e3

    @property
    def p99_ms(self) -> float:
        return quantile(self.latencies, 0.99) * 1e3

    @property
    def growing(self) -> bool:
        """Mean backlog of the last quarter of sends clearly above the first."""
        q = max(1, len(self.backlog) // 4)
        head = sum(self.backlog[:q]) / q
        tail = sum(self.backlog[-q:]) / q
        return tail > head + max(5.0, 0.05 * self.rate)

    @property
    def achieved_rps(self) -> float:
        span = self.last_sent - self.first_sent
        return (self.sent - 1) / span if span > 0 else 0.0

    @property
    def passes(self) -> bool:
        return (self.failed == 0 and not self.growing
                and self.p99_ms <= P99_LIMIT_MS)


# -- inputs -----------------------------------------------------------------


def _small_texts(rng, n: int) -> list[str]:
    import numpy as np

    from repro.formats.coo import COOMatrix
    from repro.formats.io import matrix_market_string

    out = []
    for _ in range(n):
        nrows, ncols = (int(v) for v in rng.integers(4, 64, size=2))
        nnz = int(rng.integers(1, min(SMALL_MAX_NNZ, nrows * ncols // 3) + 1))
        flat = rng.choice(nrows * ncols, size=nnz, replace=False)
        rows, cols = np.divmod(flat, ncols)
        vals = rng.uniform(0.5, 2.0, size=nnz)
        out.append(matrix_market_string(
            COOMatrix((nrows, ncols), rows, cols, vals)))
    return out


def _medium_texts(seed: int) -> list[str]:
    """Campaign-family payloads stratified to :data:`MEDIUM_BYTES`.

    Ingest cost follows the text's length, which varies with the family
    at equal entry counts, so the stratification is by length.
    """
    from repro.datasets import build_collection
    from repro.formats.io import matrix_market_string

    records = build_collection(seed=CORPUS_SEED_OFFSET + seed,
                               size=MEDIUM_DRAW).records
    texts = [matrix_market_string(rec.matrix) for rec in records
             if rec.nnz <= MEDIUM_MAX_NNZ]
    texts = [t for t in texts if len(t) <= MEDIUM_MAX_BYTES]
    return pick_nearest(texts, len, MEDIUM_BYTES)


def _expectations(texts: list[str], models: list[Path]) -> list[list[tuple]]:
    """Per payload, per model version: the answer the server must give.

    Computed in process with the serving gateway and the frozen
    selector, applying the server's out-of-distribution rule.
    """
    import numpy as np

    from repro.core.deploy import FrozenSelector
    from repro.serving.gateway import IngestError, IngestionGateway

    gateway = IngestionGateway()
    vecs, errors = [], {}
    for i, text in enumerate(texts):
        try:
            vecs.append(gateway.ingest({"mtx": text})[1][0])
        except IngestError as exc:
            errors[i] = exc.code
            vecs.append(np.zeros(21))
    X = np.vstack(vecs)
    out: list[list[tuple]] = [[] for _ in texts]
    for path in models:
        sel = FrozenSelector.load(path)
        centroids = sel.assign(X)
        dist = sel.nearest_distance(X)
        limit = OOD_FACTOR * sel.centroid_scale()
        for i in range(len(texts)):
            if i in errors:
                out[i].append(("invalid", errors[i]))
            elif math.isfinite(limit) and dist[i] > limit:
                out[i].append(("fallback", FALLBACK_FORMAT))
            else:
                c = int(centroids[i])
                out[i].append(("ok", str(sel.centroid_labels[c]), c))
    return out


def _observed(resp: dict) -> tuple:
    status = resp.get("status")
    if status == "ok":
        return ("ok", resp.get("format"), resp.get("centroid"))
    if status == "fallback":
        return ("fallback", resp.get("format"))
    return (status, resp.get("code"))


def _plan(seed: int, ladder, n_small: int, n_medium: int) -> list[list[Planned]]:
    import numpy as np

    from repro.serving.drill import _POISON_PAYLOADS

    rng = np.random.default_rng([seed, 1])
    mediums = [int(i) for i in rng.permutation(n_medium)]
    poisons = [int(i) for i in rng.permutation(len(_POISON_PAYLOADS))]
    steps, counter, kinds = [], 0, []
    n_hostile = n_medium_sent = 0
    for s, (rate, seconds) in enumerate(ladder):
        plan, t = [], float(rng.exponential(1.0 / rate))
        while t < seconds:
            rid = f"s{s}r{counter}"
            counter += 1
            if counter % OP_EVERY == 0:
                op = "metrics" if (counter // OP_EVERY) % 2 else "healthz"
                plan.append(Planned(rid, json.dumps({"id": rid, "op": op}),
                                    "op", t))
                t += float(rng.exponential(1.0 / rate))
                continue
            if not kinds:
                kinds = [str(k) for k in rng.permutation(MIX_BLOCK)]
            kind = kinds.pop()
            if kind == "hostile":
                _, code, build = _POISON_PAYLOADS[
                    poisons[n_hostile % len(poisons)]]
                n_hostile += 1
                raw = build()
                try:
                    body = json.loads(raw)
                except ValueError:
                    body = None
                if isinstance(body, dict):
                    body["id"] = rid
                    plan.append(Planned(rid, json.dumps(body), "hostile", t,
                                        code))
                else:
                    plan.append(Planned(None, raw, "hostile", t, code))
            elif kind == "medium":
                plan.append(Planned(rid, "", "medium", t, n_small + mediums[
                    n_medium_sent % n_medium]))
                n_medium_sent += 1
            else:
                plan.append(Planned(rid, "", "small", t,
                                    int(rng.integers(n_small))))
            t += float(rng.exponential(1.0 / rate))
        steps.append(plan)
    return steps


def _lines(steps: list[list[Planned]], encoded: list[str]) -> list[list[str]]:
    """Wire lines of every step; predict payloads are pre-encoded once."""
    return [[
        p.line if p.kind in ("op", "hostile") else
        f'{{"id":"{p.rid}","op":"predict","mtx":{encoded[p.ref]}}}'
        for p in plan] for plan in steps]


# -- the server and the generator -------------------------------------------


class ServerSession:
    """One ``repro serve`` process, its reader thread and its responses.

    ``mode`` and ``out`` are the launcher's (``trace``, ``calibrate`` or
    ``plain``).  Set-up runs from spawn to the answer to a first
    ``healthz``.
    """

    def __init__(self, model: Path, work: Path, mode: str, out: Path):
        self.out = out
        cmd = [sys.executable, str(HERE / "serve_launcher.py"), mode,
               str(out), "serve", "--model", str(model)]
        self.stderr = open(work / f"serve-{time.monotonic_ns()}.log", "w")
        t0 = now()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), text=True, bufsize=1,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
        )
        self.write('{"id":"boot","op":"healthz"}')
        first = self.proc.stdout.readline()
        self.setup_s = now() - t0
        self.setup_cpu_s = self.cpu_s()
        if '"status":"ok"' not in first:
            self.close()
            raise BenchError(f"server did not come up: {first[:200]!r}")
        self.lock = threading.Lock()
        self.responses: dict[str, list[tuple[float, dict]]] = {}
        self.anonymous: list[dict] = []
        self.answered = 0
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            t = now()
            resp = json.loads(line)
            with self.lock:
                rid = resp.get("id")
                if rid is None:
                    self.anonymous.append(resp)
                else:
                    self.responses.setdefault(rid, []).append((t, resp))
                self.answered += 1

    def write(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def wait_for(self, rids: list[str], anonymous_total: int,
                 timeout: float) -> None:
        deadline = now() + timeout
        while now() < deadline:
            with self.lock:
                if (len(self.anonymous) >= anonymous_total
                        and all(r in self.responses for r in rids)):
                    return
            time.sleep(0.005)

    def calibrator(self) -> Calibrator:
        """The units a ``calibrate`` session timed (after it closed)."""
        calibrator = Calibrator()
        calibrator.samples = [tuple(s) for s in json.loads(self.out.read_text())]
        return calibrator

    def setup_cost(self) -> tuple[float, float]:
        """(set-up wall, set-up CPU at reference speed), each without the
        units timed right after set-up, which set its slowness."""
        units = self.calibrator()
        units.samples = units.samples[:SETUP_TICKS]
        spent = units.spent(float("-inf"), float("inf"))
        return self.setup_s - spent, (self.setup_cpu_s - spent) / units.slowness()

    def cpu_s(self) -> float:
        """CPU seconds of the server's main thread so far."""
        with open(f"/proc/{self.proc.pid}/schedstat", encoding="utf-8") as fh:
            return int(fh.read().split()[0]) / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def close(self) -> None:
        try:
            self.write('{"id":"bye","op":"shutdown"}')
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if getattr(self, "reader", None) is not None:
            self.reader.join(timeout=10)
        self.stderr.close()


class Swapper:
    """Atomic renames of the other trained model over the served path."""

    def __init__(self, served: Path, models: list[Path]) -> None:
        self.served = served
        self.models = models
        self.version = 0
        #: (client time, version now on disk)
        self.events: list[tuple[float, int]] = [(float("-inf"), 0)]
        shutil.copyfile(models[0], served)

    def swap(self) -> None:
        self.version = 1 - self.version
        tmp = self.served.with_suffix(".tmp")
        shutil.copyfile(self.models[self.version], tmp)
        # Stamped before the rename: an answer received earlier was
        # computed before it, and the writer thread (the only sender)
        # sends nothing until the rename is done.
        self.events.append((now(), self.version))
        os.replace(tmp, self.served)

    def version_at(self, t: float) -> int:
        version = 0
        for when, v in self.events:
            if when <= t:
                version = v
        return version


def _run_step(server: ServerSession, plan: list[Planned], lines: list[str],
              swapper: Swapper, rate: float):
    """Send one step on schedule; returns (step result, send records)."""
    step = StepResult(rate)
    swap_at = plan[-1].offset / 2 if plan else 0.0
    swapped = False
    with server.lock:
        sent_before = server.answered
        step.anon_from = len(server.anonymous)
    records = []
    step.begin, cpu0 = now(), server.cpu_s()
    t0 = step.begin + 0.02
    for i, item in enumerate(plan):
        due = t0 + item.offset
        if not swapped and item.offset >= swap_at:
            swapper.swap()
            swapped = True
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        sent = now()
        server.write(lines[i])
        step.late_max = max(step.late_max, sent - due)
        with server.lock:
            step.backlog.append(i + 1 - (server.answered - sent_before))
        records.append((item, due, sent))
    step.sent = len(plan)
    if records:
        step.first_sent, step.last_sent = records[0][2], records[-1][2]
    server.wait_for([p.rid for p in plan if p.rid], step.anon_from
                    + sum(1 for p in plan if p.rid is None), timeout=60.0)
    step.cpu_s = server.cpu_s() - cpu0
    step.end = now()
    return step, records


def _account(server: ServerSession, step: StepResult, records, expected,
             swapper: Swapper, out: Outcome, corrupt: bool) -> None:
    """Check every answer of one step and time the valid predicts."""
    anon_expected = [item.ref for item, _, _ in records if item.rid is None]
    for item, due, sent in records:
        if item.rid is None:
            continue
        answers = server.responses.get(item.rid, [])
        ok = len(answers) == 1
        out.check("every_id_answered_once", ok)
        latency = math.inf
        if ok:
            t_recv, resp = answers[0]
            seen = _observed(resp)
            if item.kind == "op":
                ok = resp.get("status") == "ok"
                out.check("ops_answered_ok", ok)
            elif item.kind == "hostile":
                ok = seen in (("invalid", item.ref),) or seen[0] == "overloaded"
                out.check("hostile_typed_code", ok)
            else:
                options = {expected[item.ref][swapper.version_at(sent)],
                           expected[item.ref][swapper.version_at(t_recv)]}
                if corrupt and len(step.latencies) == 0:
                    options = {("ok", "corrupted", -1)}
                ok = seen in options
                out.check("predict_matches_in_process_model", ok)
                latency = t_recv - due
        if item.kind in ("small", "medium"):
            step.latencies.append(latency if ok else math.inf)
        step.failed += int(not ok)
    anon = server.anonymous[step.anon_from:step.anon_from + len(anon_expected)]
    codes_ok = (len(anon) == len(anon_expected) and sorted(
        r.get("code") for r in anon) == sorted(anon_expected))
    out.check("hostile_without_id_typed_code", codes_ok)
    step.failed += 0 if codes_ok else len(anon_expected)
    step.succeeded = step.sent - step.failed
    out.attempted += step.sent
    out.failed += step.failed


def _metrics_op(server: ServerSession) -> dict:
    server.write('{"id":"final-metrics","op":"metrics"}')
    server.wait_for(["final-metrics"], 0, timeout=30.0)
    return server.responses["final-metrics"][0][1].get("metrics", {})


def _drive(server, steps, lines, expected, swapper, out, corrupt,
           ladder, after_step=None) -> list[StepResult]:
    results = []
    for plan, step_lines, (rate, _) in zip(steps, lines, ladder):
        step, records = _run_step(server, plan, step_lines, swapper, rate)
        _account(server, step, records, expected, swapper, out, corrupt)
        results.append(step)
        if after_step is not None:
            after_step()
    return results


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: bool = False) -> Outcome:
    use_program_sources()
    import numpy as np

    out = Outcome()
    ladder = TINY_LADDER if tiny else LADDER
    with WorkDir("serve") as work:
        models = [work / f"model{i}.npz" for i in range(2)]
        trainers = [train_model(m, s) for m, s in zip(models, MODEL_SEEDS)]
        try:
            rng = np.random.default_rng([seed, 0])
            texts = _small_texts(rng, SMALL_POOL) + _medium_texts(seed)
        finally:
            wait_all(trainers)
        n_medium = len(texts) - SMALL_POOL
        expected = _expectations(texts, models)
        steps = _plan(seed, ladder, SMALL_POOL, n_medium)
        encoded = [json.dumps(t) for t in texts]
        lines = _lines(steps, encoded)
        served = work / "served.npz"
        swapper = Swapper(served, models)
        os.sync()  # no write-back of the set-up's files inside the timing

        setups = []

        def boot() -> None:
            """One more set-up sample, while the measured server idles
            between steps, so the samples spread over the whole run."""
            if len(setups) < SETUP_SAMPLES:
                session = ServerSession(served, work, "calibrate",
                                        work / f"boot{len(setups)}.json")
                session.close()
                setups.append(session.setup_cost())
        baseline_p50 = None
        if trace:
            base_plan = _plan(seed + 1, ((ladder[0][0], BASELINE_SECONDS),),
                              SMALL_POOL, n_medium)
            session = ServerSession(served, work, "plain", work / "none")
            try:
                base = _drive(session, base_plan, _lines(base_plan, encoded),
                              expected, swapper, Outcome(), False, ladder[:1])
            finally:
                session.close()
            baseline_p50 = base[0].p50_ms
        launcher_out = work / "launcher.json"
        server = ServerSession(served, work,
                               "trace" if trace else "calibrate", launcher_out)
        try:
            results = _drive(server, steps, lines, expected, swapper, out,
                             corrupt, ladder, None if trace else boot)
            registry = _metrics_op(server)
            rss = server.peak_rss_mb()
        finally:
            server.close()
        if trace:
            summary = json.loads(launcher_out.read_text())
        else:
            setups.append(server.setup_cost())
            calibrator = server.calibrator()

    for i, step in enumerate(results):
        tag = f"step{i}_{step.rate:g}rps"
        out.report[f"{tag}.sent"] = (step.sent, "count")
        out.report[f"{tag}.succeeded"] = (step.succeeded, "count")
        out.report[f"{tag}.failed"] = (step.failed, "count")
        out.report[f"{tag}.p50_ms"] = (step.p50_ms, "ms")
        out.report[f"{tag}.p99_ms"] = (step.p99_ms, "ms")
        out.report[f"{tag}.gen_late_ms"] = (step.late_max * 1e3, "ms")
        out.report[f"{tag}.backlog_max"] = (max(step.backlog, default=0), "count")
        out.report[f"{tag}.growing_backlog"] = (int(step.growing), "bool")
        out.report[f"{tag}.meets_limit"] = (int(step.passes), "bool")
    ref = StepResult(ladder[0][0])
    for step in results:
        if step.rate == ref.rate:
            ref.latencies += step.latencies
    passing = [s for s in results if s.passes]
    # The highest passing rate counts only if every lower step passed too.
    max_rps = 0.0
    for step in sorted(results, key=lambda s: s.rate):
        if not step.passes:
            break
        max_rps = step.achieved_rps
    out.report["serve_p50_ms"] = (ref.p50_ms, "ms")
    out.report["serve_p99_ms"] = (ref.p99_ms, "ms")
    out.report["serve_max_rps"] = (max_rps, "1/s")
    out.report["reference_samples"] = (len(ref.latencies), "count")
    out.report["p99_limit_ms"] = (P99_LIMIT_MS, "ms")
    if len(passing) < len(results):
        out.notes.append("a rate step missed the p99 limit or backlogged")
    if trace:
        waits = summary["samples"].get("admission_wait_s") or [0.0]
        hist = registry.get("serving.batch_size", {})
        counters = {k: v.get("value", 0) for k, v in registry.items()
                    if isinstance(v, dict) and v.get("type") == "counter"}
        idle = summary["layers"].get("serving.stdin_wait", {}).get("self_s", 0)
        busy = summary["wall_s"] - idle
        out.metrics.update(per_layer_metrics(summary, {
            "serving.admission.wait_ms.p50": quantile(waits, 0.5) * 1e3,
            "serving.admission.wait_ms.p99": quantile(waits, 0.99) * 1e3,
            "serving.shed": counters.get("serving.shed", 0),
            "serving.microbatch.size.mean": (
                hist.get("sum", 0.0) / hist["count"]
                if hist.get("count") else 0.0
            ),
            "serving.reload.swaps": counters.get("serving.reload.swapped", 0),
            "serving.breaker.opens": counters.get("serving.breaker.opened", 0),
            "serving.fallbacks": counters.get("serving.responses.fallback", 0),
            "serve.gen_late_ms.max": max(s.late_max for s in results) * 1e3,
            "serve.backlog.max": max(max(s.backlog, default=0)
                                     for s in results),
            "trace.unattributed_share": (
                1.0 - (summary["covered_s"] - idle) / busy if busy > 0 else 0.0
            ),
            "trace.overhead_share": ref.p50_ms / baseline_p50 - 1.0,
        }))
        return out
    sent = sum(s.sent for s in results)
    cost = sum((s.cpu_s - calibrator.spent(s.begin, s.end))
               / calibrator.slowness(s.begin, s.end) for s in results)
    out.report["setup_wall_s"] = (median([w for w, _ in setups]), "s")
    out.report["server_cpu_ms_per_request"] = (
        sum(s.cpu_s for s in results) / sent * 1e3, "ms")
    out.report["calibration_units"] = (len(calibrator.samples), "count")
    out.metrics["setup_s"] = (median([c for _, c in setups]), "s")
    out.metrics["peak_rss_mb"] = (rss, "MB")
    out.metrics["cpu_ms_per_op"] = (cost / sent * 1e3, "ms")
    return out
