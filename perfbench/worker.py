"""One measured piece of work in a fresh interpreter.

Usage: ``python perfbench/worker.py <task>`` with a JSON spec on stdin;
the JSON result is the last stdout line.  Tasks:

- ``campaign`` — seeded campaigns, each plus its Table 4 evaluation,
  the call sequence of ``repro tables --only table4``.
- ``select`` — one pass of the ``repro predict`` sequence per file and
  the ``repro predict-batch`` sequence at the default ``--jobs`` and at
  ``--jobs`` = nproc.
- ``setup`` — import plus model load only (the select set-up cost).

The spec's ``trace`` flag installs the layer wrappers after the
untraced measurements; spans stay in memory and come back summarised.
"""

from __future__ import annotations

import json
import os
import sys
import time

now = time.perf_counter
#: CPU seconds of the main thread since the process started.  A shared
#: host's steal time and run-queue waits are not in it, and neither is the
#: spin-waiting of the BLAS library's helper threads.
cpu = time.thread_time


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``VmHWM`` rather than ``getrusage``: Linux carries ``ru_maxrss``
    across ``exec``, so a fresh interpreter would report the peak of the
    harness process it was forked from.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


#: Calibration units timed right after set-up, for its slowness.
SETUP_TICKS = 30
#: Process CPU seconds between calibration units during a campaign.
TICK_EVERY = 0.1
#: Calibration units within this many seconds of a predict call set its
#: slowness.
SELECT_WINDOW_S = 0.5


def _setup_cost(calibrator, setup_cpu: float) -> float:
    """Set-up CPU seconds at reference speed, from units timed just after
    it in the same process."""
    t0 = now()
    calibrator.tick(SETUP_TICKS)
    return setup_cpu / calibrator.slowness(t0, now())


def campaign(spec: dict) -> dict:
    """Seeded campaigns plus Table 4, one per seed in ``spec["seeds"]``.

    Untraced campaigns run with a calibration unit every
    :data:`TICK_EVERY` CPU seconds; its time is taken out of the
    campaign's and its slowness normalises the campaign's CPU time.
    """
    t0 = now()
    from repro.experiments import table4
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.data import build_experiment_data

    configs = [
        ExperimentConfig.small(seed=seed, collection_size=spec["size"],
                               nc_grid=tuple(spec["nc_grid"]))
        for seed in spec["seeds"]
    ]
    setup = now() - t0
    setup_cpu = cpu()
    from calibrate import Calibrator

    calibrator = Calibrator()
    setup_cost = _setup_cost(calibrator, setup_cpu)
    tracer = None
    if spec.get("trace"):
        from layers import install_campaign
        from tracer import Tracer

        tracer = Tracer()
        install_campaign(tracer)
    runs = []
    for config in configs:
        t1, c1 = now(), cpu()
        if tracer is None:
            with calibrator.every(TICK_EVERY):
                data = build_experiment_data(config)
                table = table4.generate(data, config)
        else:
            data = build_experiment_data(config)
            table = table4.generate(data, config)
        t2, c2 = now(), cpu()
        ticks = calibrator.spent(t1, t2)
        runs.append({
            "wall_s": t2 - t1 - ticks,
            "cpu_s": c2 - c1 - ticks,
            "cost_s": (c2 - c1 - ticks) / calibrator.slowness(t1, t2),
            "rows": [[repr(v) for v in row] for row in table.rows],
            "labels": sorted({str(label) for ds in data.datasets.values()
                              for label in ds.labels}),
            "n_matrices": len(data.features.names),
        })
    wall = sum(r["wall_s"] for r in runs)
    return {
        "setup_s": setup,
        "setup_cost_s": setup_cost,
        "rss_mb": peak_rss_mb(),
        "runs": runs,
        "trace": tracer.summary(wall) if tracer else None,
    }


def setup(spec: dict) -> dict:
    t0 = now()
    from repro.core.deploy import FallbackSelector
    from repro.features import extract_features_streaming  # noqa: F401

    selector = FallbackSelector.load(spec["model"])
    setup_s, setup_cpu = now() - t0, cpu()
    from calibrate import Calibrator

    return {"setup_s": setup_s,
            "setup_cost_s": _setup_cost(Calibrator(), setup_cpu),
            "degraded": selector.degraded}


def _single(selector, policy, path: str):
    """The ``repro predict`` sequence for one file:
    (label, wall seconds, CPU seconds)."""
    from repro.features import extract_features_streaming

    t0, c0 = now(), cpu()
    try:
        vec = extract_features_streaming(path, policy)[None, :]
    except Exception as exc:
        return f"error:{type(exc).__name__}", now() - t0, cpu() - c0
    label = selector.predict_one(vec)
    int(selector.selector.assign(vec)[0])  # the centroid predict prints
    return label, now() - t0, cpu() - c0


def _batch(selector, paths: list[str], jobs: int, tracer=None):
    """The ``repro predict-batch`` sequence: (labels, extract s, total s)."""
    import numpy as np

    from repro.cli import _extract_task
    from repro.features import FEATURE_NAMES
    from repro.inference import BatchPredictor
    from repro.runtime.parallel import parallel_map

    names = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    t0 = now()
    if tracer is not None:
        tracer.enter("inference.extract" if jobs == 1 else "runtime.parallel")
    try:
        extracted = parallel_map(
            _extract_task, paths, jobs=jobs, label="inference.extract"
        )
    finally:
        if tracer is not None:
            tracer.leave()
    t_extract = now() - t0
    good = [i for i, (_, err) in enumerate(extracted) if err is None]
    X = (
        np.vstack([extracted[i][0] for i in good])
        if good
        else np.empty((0, len(FEATURE_NAMES)))
    )
    report = BatchPredictor(selector).predict_sharded(
        X, names=[names[i] for i in good], jobs=jobs, shard_size=None
    )
    records: list = [None] * len(paths)
    for item, i in zip(report.items, good):
        records[i] = item.to_json()
    for i, (_, err) in enumerate(extracted):
        if err is not None:
            records[i] = {"name": names[i], "format": selector.fallback_format,
                          "source": "fallback", "error": err}
    "\n".join(json.dumps(r) for r in records)  # the CLI's JSONL output
    total = now() - t0
    labels = [
        f"error:{r['error'].split(':')[0]}" if r["source"] == "fallback"
        else r["format"]
        for r in records
    ]
    return labels, t_extract, total


def _select_pass(selector, policy, paths, pool_jobs, tracer=None,
                 calibrator=None) -> dict:
    """The single path over the corpus five times, in alternating orders
    and spread around the two batch runs (default ``--jobs``, then
    ``pool_jobs``).  A file's wall latency and CPU time are the least of
    its calls, which keeps a slow spell of a shared host out.  With a
    ``calibrator``, a calibration unit follows every call and the file's
    cost is the median of its calls' CPU times each divided by the
    slowness of the units within :data:`SELECT_WINDOW_S` of the call: a
    least value would fall further the noisier the host ran.
    """
    t0 = now()
    spans = []

    def single_pass(order):
        done = {}
        for path in order:
            start = now()
            done[path] = _single(selector, policy, path)
            if calibrator is not None:
                calibrator.tick()
            spans.append((path, start, now()))
        return [done[p] for p in paths]

    rounds = [single_pass(paths), single_pass(paths[::-1])]
    batch_labels, batch_extract, batch_total = _batch(
        selector, paths, 1, tracer
    )
    rounds += [single_pass(paths), single_pass(paths[::-1])]
    pool_labels, pool_extract, pool_total = _batch(
        selector, paths, pool_jobs, tracer
    )
    rounds.append(single_pass(paths))
    return {
        "single_labels": [label for label, *_ in rounds[0]],
        "repeat_labels": [
            label if all(r[i][0] == label for r in rounds) else None
            for i, (label, *_) in enumerate(rounds[0])
        ],
        "single_s": [min(r[i][1] for r in rounds) for i in range(len(paths))],
        "single_cpu_s": [min(r[i][2] for r in rounds)
                         for i in range(len(paths))],
        "single_cost_s": _costs(rounds, spans, paths, calibrator),
        "batch_labels": batch_labels,
        "batch_s": batch_total,
        "batch_extract_s": batch_extract,
        "pool_labels": pool_labels,
        "pool_s": pool_total,
        "pool_extract_s": pool_extract,
        "wall": now() - t0,
    }


def _costs(rounds, spans, paths, calibrator) -> list[float] | None:
    """Per file, the median calibrated CPU time of its calls."""
    import statistics

    if calibrator is None:
        return None
    costs = {p: [] for p in paths}
    for r, chunk in enumerate((spans[i:i + len(paths)]
                               for i in range(0, len(spans), len(paths)))):
        for path, start, end in chunk:
            cpu_s = rounds[r][paths.index(path)][2]
            slow = calibrator.slowness(start - SELECT_WINDOW_S,
                                       end + SELECT_WINDOW_S)
            costs[path].append(cpu_s / slow)
    return [statistics.median(costs[p]) for p in paths]


def _tiered_pass(selector, policy, paths) -> dict:
    from repro.core.tiered import TieredSelector

    tiered = TieredSelector.calibrate(selector.selector)
    formats, times, failed = [], [], 0
    for path in paths:
        t0 = now()
        try:
            formats.append(tiered.select_stream(path, policy).format)
        except Exception:
            formats.append(None)
            failed += 1
        times.append(now() - t0)
    return {
        "formats": formats,
        "s": times,
        "failed": failed,
        "tier1_share": 1.0 - tiered.escalation_rate,
    }


def select(spec: dict) -> dict:
    t0 = now()
    from repro.core.deploy import FallbackSelector
    from repro.formats import ReadPolicy

    selector = FallbackSelector.load(spec["model"])
    # The CLI's default --max-dim / --max-nnz caps.
    policy = ReadPolicy(max_dim=50_000_000, max_nnz=2_000_000_000)
    setup_s = now() - t0
    setup_cpu = cpu()
    from calibrate import Calibrator

    calibrator = Calibrator()
    paths = spec["files"]
    out = {
        "setup_s": setup_s,
        "setup_cost_s": _setup_cost(calibrator, setup_cpu),
        "pass": _select_pass(selector, policy, paths, spec["pool_jobs"],
                             calibrator=calibrator),
        "degraded": selector.degraded,
    }
    if spec.get("trace"):
        out["tiered"] = _tiered_pass(selector, policy, paths)
        from layers import install_select
        from tracer import Tracer

        tracer = Tracer()
        install_select(tracer)
        t1 = now()
        traced = _select_pass(
            selector, policy, paths, spec["pool_jobs"], tracer
        )
        wall = now() - t1
        tracer.uninstall()
        out["trace"] = tracer.summary(wall)
    out["rss_mb"] = peak_rss_mb()
    return out


TASKS = {"campaign": campaign, "select": select, "setup": setup}


def main() -> int:
    task = TASKS[sys.argv[1]]
    spec = json.loads(sys.stdin.read())
    result = task(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
