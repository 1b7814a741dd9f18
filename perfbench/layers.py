"""The program's layers as the traced runs see them.

Three ``install_*`` functions put timing wrappers on the public
functions and methods of each layer, one per workload process.
:data:`PER_LAYER` is the benchmark's metadata for every per-layer
metric: its unit, and the end-to-end metric and workload it is meant to
move (and where it should not), so a later change can state its
prediction against this map before measuring.
"""

from __future__ import annotations

from tracer import Tracer

# -- metadata -------------------------------------------------------------

#: name -> (unit, should move, should not move), as "metric@workload".
#: Metric names are the generic end-to-end ones of BENCHMARK.json, or
#: ``report`` for a figure the report prints but BENCHMARK.json does not
#: gate, with the workload's own name for it in brackets.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    # campaign: the training path
    "datasets.generate.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve (corpus written by the harness)"),
    "datasets.generate.calls": ("count", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "formats.canonicalise.self_s": ("s", "cpu_ms_per_op@campaign", "any@serve"),
    "features.stats.self_s": ("s", "cpu_ms_per_op@campaign; cpu_ms_per_op@select; report[select_p90_ms]@select", "any@serve"),
    "features.derive.self_s": ("s", "cpu_ms_per_op@campaign", "cpu_ms_per_op@select (barely)"),
    "gpu.simulate.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "gpu.simulate.calls": ("count", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "core.preprocess.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "ml.cluster.kmeans.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "ml.cluster.birch.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "ml.cluster.meanshift.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "ml.cluster.kmeans.iters": ("count", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "core.label.vote.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "core.label.lr.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "core.label.rf.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "ml.tree.fits": ("count", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "ml.logistic.solves": ("count", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    "experiments.evaluate.self_s": ("s", "cpu_ms_per_op@campaign", "any@select, any@serve"),
    # select: "which format for this file?"
    "formats.ingest.self_s": ("s", "cpu_ms_per_op@select; report[select_p90_ms,batch_matrices_per_s]@select; report[serve_p99_ms]@serve", "any@campaign"),
    "formats.ingest.mb_per_s": ("MB/s", "cpu_ms_per_op@select; report[select_p90_ms]@select", "any@campaign"),
    "core.transform.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve", "cpu_ms_per_op@select (barely), any@campaign"),
    "core.assign.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve", "cpu_ms_per_op@select (barely), any@campaign"),
    "core.tiered.p50_ms": ("ms", "compare with report[select_p50_ms]@select", "any (not on a default path)"),
    "core.tiered.p90_ms": ("ms", "compare with report[select_p90_ms]@select", "any (not on a default path)"),
    "core.tiered.tier1_share": ("share", "core.tiered.p50_ms@select", "any (not on a default path)"),
    "core.tiered.agree_share": ("share", "correctness of tier 1 against the full path@select", "any"),
    "core.tiered.failed": ("count", "tiered failures (nnz=0 edge file today)@select", "any"),
    "inference.extract.self_s": ("s", "report[batch_matrices_per_s]@select", "any@campaign, any@serve"),
    "inference.predict_sharded.self_s": ("s", "report[batch_matrices_per_s]@select", "any@campaign, any@serve"),
    "runtime.parallel.overhead_s": ("s", "runtime.parallel.pool_matrices_per_s[batch_pool_matrices_per_s]@select", "any@serve"),
    "runtime.parallel.pool_matrices_per_s": ("1/s", "(the pool-width end-to-end figure)@select", "any@serve"),
    # serve: gateway -> admission -> route -> worker predict
    "serving.protocol.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve", "any@campaign, any@select"),
    "serving.gateway.parse.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve; report[serve_p99_ms]@serve", "any@campaign, any@select"),
    "serving.gateway.features.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve; report[serve_p99_ms]@serve", "any@campaign, any@select"),
    "serving.admission.wait_ms.p50": ("ms", "report[serve_p99_ms,serve_max_rps]@serve", "any@campaign, any@select"),
    "serving.admission.wait_ms.p99": ("ms", "report[serve_p99_ms,serve_max_rps]@serve", "any@campaign, any@select"),
    "serving.admission.depth.max": ("count", "report[serve_p99_ms,serve_max_rps]@serve", "any@campaign, any@select"),
    "serving.shed": ("count", "report[serve_p99_ms,serve_max_rps]@serve", "any@campaign, any@select"),
    "serving.microbatch.size.mean": ("count", "report[serve_p99_ms,serve_max_rps]@serve", "any@campaign, any@select"),
    "serving.route.calls": ("count", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve (0 at one worker)", "any@campaign, any@select"),
    "serving.route.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve (0 at one worker)", "any@campaign, any@select"),
    "serving.predict.self_s": ("s", "cpu_ms_per_op@serve; report[serve_p50_ms]@serve", "any@campaign"),
    "serving.reload.self_s": ("s", "report[serve_p99_ms]@serve on swap steps", "any@campaign, any@select"),
    "serving.reload.swaps": ("count", "report[serve_p99_ms]@serve on swap steps", "any@campaign, any@select"),
    "serving.breaker.opens": ("count", "(counter from the metrics op)@serve", "any"),
    "serving.fallbacks": ("count", "(counter from the metrics op)@serve", "any"),
    "serve.gen_late_ms.max": ("ms", "validity of a rate step for report[serve_max_rps]@serve", "any"),
    "serve.backlog.max": ("count", "validity of a rate step for report[serve_max_rps]@serve", "any"),
    # hygiene of the traced run itself (per workload)
    "trace.unattributed_share": ("share", "(coverage gap of the wrapped layers)", "any"),
    "trace.overhead_share": ("share", "(traced wall over untraced median, minus 1)", "any"),
}

def per_layer_metrics(summary: dict | None, extra: dict[str, float]) -> dict:
    """Every per-layer metric as name -> (value, unit).

    Self times and span call counts come from the tracer ``summary``;
    everything else from ``extra``.  A layer the workload never called
    reads 0, which is the measured answer ("does none of the work").
    """
    layers = (summary or {}).get("layers", {})
    counts = (summary or {}).get("counts", {})
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name in extra:
            value = extra[name]
        elif name.endswith(".self_s"):
            value = layers.get(name[: -len(".self_s")], {}).get("self_s", 0.0)
        elif name.endswith(".calls") and name[: -len(".calls")] in layers:
            value = layers[name[: -len(".calls")]]["calls"]
        else:
            value = counts.get(name, 0)
        out[name] = (float(value), unit)
    return out


# -- wrappers -------------------------------------------------------------


def install_common(tracer: Tracer) -> None:
    """Ingest, stats and derive: shared by the campaign and select paths."""
    import os

    from repro.features import extract as fx
    from repro.features import stats as fstats
    from repro.formats import io as fio

    def count_bytes(tr, args, kwargs, _):
        source = args[0] if args else kwargs.get("source")
        if isinstance(source, (str, os.PathLike)):
            tr.counts["formats.ingest.bytes"] += os.path.getsize(source)

    tracer.patch_function(
        fio.read_matrix_market_streaming,
        tracer.timed_iter("formats.ingest", fio.read_matrix_market_streaming,
                          after=count_bytes),
    )
    for fn in (fstats.compute_stats, fx.stats_from_stream):
        tracer.patch_function(fn, tracer.timed("features.stats", fn))
    for fn in (fx.features_from_stats, fx.features_from_stats_batch):
        tracer.patch_function(fn, tracer.timed("features.derive", fn))


def install_campaign(tracer: Tracer) -> None:
    """Generate -> canonicalise -> simulate -> preprocess -> cluster -> label -> evaluate."""
    from repro.core.pipeline import FeaturePipeline
    from repro.core.semisupervised import ClusterFormatSelector
    from repro.datasets import generators
    from repro.experiments import table4
    from repro.formats.coo import COOMatrix
    from repro.gpu.simulator import GPUSimulator
    from repro.ml.cluster import Birch, KMeans, MeanShift
    from repro.ml.logistic import LogisticRegression
    from repro.ml.tree import DecisionTreeClassifier

    install_common(tracer)
    for fn in set(generators.GENERATORS.values()):
        tracer.patch_function(fn, tracer.timed("datasets.generate", fn))
    tracer.patch_method(
        COOMatrix, "__init__",
        lambda f: tracer.timed("formats.canonicalise", f),
    )
    tracer.patch_method(
        GPUSimulator, "benchmark_stats",
        lambda f: tracer.timed("gpu.simulate", f),
    )
    for name in ("fit", "transform_features"):
        tracer.patch_method(
            FeaturePipeline, name, lambda f: tracer.timed("core.preprocess", f)
        )

    def kmeans_iters(tr, args, kwargs, result):
        tr.counts["ml.cluster.kmeans.iters"] += int(result.n_iter_)

    tracer.patch_method(
        KMeans, "fit",
        lambda f: tracer.timed("ml.cluster.kmeans", f, after=kmeans_iters),
    )
    tracer.patch_method(
        KMeans, "predict", lambda f: tracer.timed("ml.cluster.kmeans", f)
    )
    for cls, layer in ((Birch, "ml.cluster.birch"),
                       (MeanShift, "ml.cluster.meanshift")):
        for name in ("fit", "predict"):
            tracer.patch_method(
                cls, name, lambda f, layer=layer: tracer.timed(layer, f)
            )
    tracer.patch_method(
        ClusterFormatSelector, "label_clusters",
        lambda f: tracer.timed(lambda sel, *a, **k: f"core.label.{sel.labeler}", f),
    )
    tracer.patch_method(
        DecisionTreeClassifier, "fit", lambda f: tracer.counted("ml.tree.fits", f)
    )
    tracer.patch_method(
        LogisticRegression, "fit",
        lambda f: tracer.counted("ml.logistic.solves", f),
    )
    tracer.patch_function(
        table4.evaluate_combo,
        tracer.timed("experiments.evaluate", table4.evaluate_combo),
    )


def install_select(tracer: Tracer) -> None:
    """Ingest -> stats -> derive -> transform -> assign, plus the batch engine."""
    import repro.cli  # noqa: F401  (the predict-batch call sites)
    from repro.core.deploy import FrozenSelector
    from repro.inference import BatchPredictor

    install_common(tracer)
    tracer.patch_method(
        FrozenSelector, "transform", lambda f: tracer.timed("core.transform", f)
    )
    for name in ("assign", "predict"):
        tracer.patch_method(
            FrozenSelector, name, lambda f: tracer.timed("core.assign", f)
        )
    tracer.patch_method(
        BatchPredictor, "predict_sharded",
        lambda f: tracer.timed("inference.predict_sharded", f),
    )


def install_serve(tracer: Tracer) -> None:
    """Protocol -> admission -> gateway -> route -> predict -> reload."""
    import time

    import repro.cli  # noqa: F401
    import repro.serving.server  # noqa: F401  (looks protocol up by name)
    from repro.core.deploy import FrozenSelector
    from repro.serving import protocol
    from repro.serving.admission import AdmissionController
    from repro.serving.gateway import IngestionGateway
    from repro.serving.reload import ModelHost
    from repro.serving.routing import HashRing

    for fn in (protocol.parse_request_line, protocol.encode_response):
        tracer.patch_function(fn, tracer.timed("serving.protocol", fn))
    tracer.patch_method(
        IngestionGateway, "parse_matrix",
        lambda f: tracer.timed("serving.gateway.parse", f),
    )
    tracer.patch_method(
        IngestionGateway, "features",
        lambda f: tracer.timed("serving.gateway.features", f),
    )

    def after_offer(tr, args, kwargs, result):
        depth = args[0].depth
        if depth > tr.counts["serving.admission.depth.max"]:
            tr.counts["serving.admission.depth.max"] = depth

    def after_take(tr, args, kwargs, result):
        request = result[0]
        if request is not None:
            tr.samples["admission_wait_s"].append(
                time.monotonic() - request.arrival
            )

    tracer.patch_method(
        AdmissionController, "offer",
        lambda f: tracer.timed("serving.admission", f, after=after_offer),
    )
    tracer.patch_method(
        AdmissionController, "take",
        lambda f: tracer.timed("serving.admission", f, after=after_take),
    )
    tracer.patch_method(
        HashRing, "assign", lambda f: tracer.timed("serving.route", f)
    )
    for name in ("assign", "nearest_distance", "predict"):
        tracer.patch_method(
            FrozenSelector, name, lambda f: tracer.timed("serving.predict", f)
        )
    tracer.patch_method(
        ModelHost, "check_reload", lambda f: tracer.timed("serving.reload", f)
    )
