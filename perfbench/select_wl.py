"""The ``select`` workload: "which format for this file?".

The harness trains a small selector (fixed model seed) and writes a
corpus of MatrixMarket files from a campaign-shaped collection at a
seed derived from the workload seed, so the corpus is never the model's
training data, and stratified to a fixed entry-count profile
(:data:`NNZ_PROFILE`).  A stated share of edge files rides along: ``EDGE_EACH`` files
of each of :data:`EDGE_KINDS` (symmetric, pattern, duplicate-entry and
nnz=0), 8 of 60 files.

A worker process then runs, closed loop with one caller, one file at a
time, the ``repro predict`` call sequence (five times per file, see
``worker._select_pass``), and the whole corpus through the ``repro
predict-batch`` sequence at the default ``--jobs`` (1) and at ``--jobs``
= nproc: one pass, the same work on every run.

It does not touch the campaign layers or serving.
"""

from __future__ import annotations

import os
from pathlib import Path

from common import (
    FORMATS,
    Outcome,
    WorkDir,
    digest,
    median,
    pick_nearest,
    quantile,
    run_worker,
    train_model,
    use_program_sources,
    wait_all,
)
from layers import per_layer_metrics
from references import expected_digest

#: Campaign-family files in the corpus, and edge files per kind.
N_CAMPAIGN = 52
EDGE_EACH = 2
TINY_CAMPAIGN = 8
EDGE_KINDS = ("symmetric", "pattern", "duplicate", "empty")
#: Entry-count profile of the corpus: the 23 quantiles of campaign
#: matrices up to 60k entries (default collection, 400 matrices).  Each
#: target takes the nearest-sized unused matrix of a seeded draw
#: ``DRAW_FACTOR`` times larger than the corpus (large enough that a draw
#: short of small matrices still fills the profile), so the files change
#: with the seed while the corpus cost stays comparable across seeds.
NNZ_PROFILE = (
    1738, 3386, 4212, 5664, 6783, 8652, 10634, 11760, 13956, 16022, 17198,
    19321, 21505, 23143, 25418, 27344, 29198, 32657, 35232, 38905, 43264,
    47490, 55013,
)
DRAW_FACTOR = 3
#: The model is trained once at this seed; corpora use other seeds.
MODEL_SEED = 7
CORPUS_SEED_OFFSET = 100_000
#: Extra fresh-process set-ups measured besides the worker's own, half
#: before it and half after, so that they spread over the run.
EXTRA_SETUPS = 6


def _entries_text(banner: str, shape, rows, cols, vals) -> str:
    lines = [f"%%MatrixMarket matrix coordinate {banner}",
             f"{shape[0]} {shape[1]} {len(rows)}"]
    if vals is None:
        lines += [f"{r + 1} {c + 1}" for r, c in zip(rows, cols)]
    else:
        lines += [f"{r + 1} {c + 1} {v!r}" for r, c, v in zip(rows, cols, vals)]
    return "\n".join(lines) + "\n"


def _edge_text(kind: str, matrix) -> str:
    """One edge file derived from a campaign matrix."""
    rows = [int(r) for r in matrix.rows]
    cols = [int(c) for c in matrix.cols]
    vals = [float(v) for v in matrix.vals]
    if kind == "symmetric":
        n = max(matrix.shape)
        lower = {}
        for r, c, v in zip(rows, cols, vals):
            key = (max(r, c), min(r, c))
            lower[key] = lower.get(key, 0.0) + v
        keys = sorted(lower)
        return _entries_text(
            "real symmetric", (n, n), [k[0] for k in keys],
            [k[1] for k in keys], [lower[k] for k in keys],
        )
    if kind == "pattern":
        return _entries_text("pattern general", matrix.shape, rows, cols, None)
    if kind == "duplicate":
        extra = max(1, len(rows) // 20)
        return _entries_text(
            "real general", matrix.shape, rows + rows[:extra],
            cols + cols[:extra], vals + vals[:extra],
        )
    return _entries_text("real general", matrix.shape, [], [], [])


def write_corpus(directory: Path, seed: int, n_campaign: int) -> list[str]:
    """Campaign-shaped files plus edge files; returns sorted paths."""
    use_program_sources()
    from repro.datasets import build_collection
    from repro.formats import write_matrix_market

    directory.mkdir()
    records = build_collection(
        seed=CORPUS_SEED_OFFSET + seed, size=int(n_campaign * DRAW_FACTOR)
    ).records
    chosen = pick_nearest(records, lambda r: r.nnz, [
        NNZ_PROFILE[i * len(NNZ_PROFILE) // n_campaign]
        for i in range(n_campaign)
    ])
    left = [r for r in records if all(r is not c for c in chosen)]
    donors = pick_nearest(left, lambda r: r.nnz,
                          [NNZ_PROFILE[len(NNZ_PROFILE) // 2]] * EDGE_EACH)
    for rec in chosen:
        write_matrix_market(rec.matrix, directory / f"{rec.name}.mtx")
    for kind in EDGE_KINDS:
        for i, donor in enumerate(donors):
            path = directory / f"edge_{kind}_{i}.mtx"
            path.write_text(_edge_text(kind, donor.matrix))
    # Flush now, so write-back of the fresh corpus does not land inside
    # the timed region.
    os.sync()
    return sorted(str(p) for p in directory.glob("*.mtx"))


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: bool = False) -> Outcome:
    out = Outcome()
    n_campaign = TINY_CAMPAIGN if tiny else N_CAMPAIGN
    with WorkDir("select") as work:
        model = work / "model.npz"
        trainer = train_model(model, MODEL_SEED)
        try:
            files = write_corpus(work / "corpus", seed, n_campaign)
        finally:
            wait_all([trainer])
        n = len(files)
        extra = 0 if trace else EXTRA_SETUPS
        setups = [run_worker("setup", {"model": str(model)})
                  for _ in range(extra // 2)]
        res = run_worker("select", {
            "model": str(model), "files": files,
            "pool_jobs": os.cpu_count() or 1, "trace": trace,
        })
        setups += [res] + [run_worker("setup", {"model": str(model)})
                           for _ in range(extra - extra // 2)]
    out.check("model_usable", not res["degraded"])
    p = res["pass"]

    # Checks: the single path answers every file with a format, its
    # repeat and both batch paths agree with it file by file.
    labels = p["single_labels"]
    for i in range(n):
        out.attempted += 4
        bad = int(labels[i] not in FORMATS)
        bad += int(p["repeat_labels"][i] != labels[i])
        bad += int(p["batch_labels"][i] != labels[i])
        bad += int(p["pool_labels"][i] != labels[i])
        out.failed += bad
        out.check("labels_agree_across_paths", bad == 0)
    labels_digest = digest([[Path(f).name, label]
                            for f, label in zip(files, labels)])
    out.output_digest = (n_campaign, labels_digest)
    reference = expected_digest("select", n_campaign, seed)
    if corrupt:
        reference = "0" * 16
    if reference is not None:
        out.attempted += 1
        ok = labels_digest == reference
        out.failed += int(not ok)
        out.check("labels_match_reference", ok)
    else:
        out.notes.append(f"no reference digest for seed {seed}; "
                         f"label digest {labels_digest}")

    out.report["select_p50_ms"] = (quantile(p["single_s"], 0.5) * 1e3, "ms")
    out.report["select_p90_ms"] = (quantile(p["single_s"], 0.9) * 1e3, "ms")
    out.report["select_samples"] = (n, "count")
    out.report["batch_matrices_per_s"] = (n / p["batch_s"], "1/s")
    out.report["batch_pool_matrices_per_s"] = (n / p["pool_s"], "1/s")
    if trace:
        summary = res["trace"]
        wall = summary["wall_s"]
        tiered = res["tiered"]
        answered = [(f, s) for f, s in zip(tiered["formats"], labels)
                    if f is not None]
        ingest_s = summary["layers"].get("formats.ingest", {}).get("self_s", 0.0)
        out.metrics.update(per_layer_metrics(summary, {
            "formats.ingest.mb_per_s": (
                summary["counts"].get("formats.ingest.bytes", 0) / 1e6 / ingest_s
                if ingest_s > 0 else 0.0
            ),
            "core.tiered.p50_ms": quantile(tiered["s"], 0.5) * 1e3,
            "core.tiered.p90_ms": quantile(tiered["s"], 0.9) * 1e3,
            "core.tiered.tier1_share": tiered["tier1_share"],
            "core.tiered.agree_share": (
                sum(f == s for f, s in answered) / len(answered)
                if answered else 0.0
            ),
            "core.tiered.failed": tiered["failed"],
            "runtime.parallel.overhead_s": (
                p["pool_extract_s"] - p["batch_extract_s"] / (os.cpu_count() or 1)
            ),
            "runtime.parallel.pool_matrices_per_s": n / p["pool_s"],
            "trace.unattributed_share": 1.0 - summary["covered_s"] / wall,
            "trace.overhead_share": wall / p["wall"] - 1.0,
        }))
        return out
    cpus, costs = p["single_cpu_s"], p["single_cost_s"]
    out.report["setup_wall_s"] = (median([s["setup_s"] for s in setups]), "s")
    out.report["select_cpu_ms"] = (sum(cpus) / len(cpus) * 1e3, "ms")
    out.metrics["setup_s"] = (median([s["setup_cost_s"] for s in setups]), "s")
    out.metrics["peak_rss_mb"] = (res["rss_mb"], "MB")
    out.metrics["cpu_ms_per_op"] = (sum(costs) / len(costs) * 1e3, "ms")
    return out
