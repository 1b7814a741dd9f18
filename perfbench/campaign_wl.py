"""The ``campaign`` workload: the paper's training path.

Seeded campaigns (generate -> canonicalise -> simulate -> preprocess),
each followed by the Table 4 evaluation (cluster -> label -> evaluate),
on the small ``ExperimentConfig`` preset with :data:`SIZE` matrices and
:data:`NC_GRID`, default ``jobs``, disk cache and fault injection off.
A run makes :data:`CAMPAIGNS` campaigns at distinct sub-seeds, each in
a fresh interpreter as ``repro tables`` would run it: the program's
in-process campaign memo keeps every campaign it built, so one process
running all of them would grow by each collection and report their sum
as its peak memory.  One collection's cost is heavy-tailed (a few
scale-free graphs can double it), so the sub-seeds are drawn stratified:
``campaign_pool.json`` ranks :data:`POOL_SIZE` candidate sub-seeds by a
once-measured cost into :data:`CAMPAIGNS` strata of equal size, and the
workload seed picks one candidate from each stratum.  Every run thus
holds light and heavy collections in the same proportion, and the work
per seed is the same on every commit.  The traced run repeats the first
:data:`TRACED_CAMPAIGNS` with the layer wrappers installed and checks
that their Table 4 rows are byte-identical.

It does not touch text ingest or serving.
"""

from __future__ import annotations

import json
import random
import sys

from common import HERE, FORMATS, Outcome, digest, median, run_worker
from layers import per_layer_metrics
from references import expected_digest

#: Matrices per campaign, and the cluster-count grid that suits them
#: (the small preset's (15, 30) needs 60+ matrices).
SIZE = 40
NC_GRID = (8, 16)
#: Campaigns per run (untraced), per traced run, and per tiny run.
CAMPAIGNS = 8
TRACED_CAMPAIGNS = 3
TINY_CAMPAIGNS = 1


#: Candidate sub-seeds (``POOL_BASE`` onwards) and their cost strata.
POOL_SIZE = 80
POOL_BASE = 1000
POOL_PATH = HERE / "campaign_pool.json"


def sub_seeds(seed: int, n: int) -> list[int]:
    """One candidate from each of the first ``n`` cost strata."""
    strata = json.loads(POOL_PATH.read_text())["strata"]
    rng = random.Random(seed)
    return [rng.choice(stratum) for stratum in strata[:n]]


def make_pool() -> None:
    """Measure every candidate once and write the strata, lightest first.

    Run as ``python3 perfbench/campaign_wl.py``; the ranking only has to
    be roughly right, so it is not remeasured when the program changes.
    """
    candidates = list(range(POOL_BASE, POOL_BASE + POOL_SIZE))
    costs = {}
    for i in range(0, POOL_SIZE, CAMPAIGNS):
        chunk = candidates[i:i + CAMPAIGNS]
        res = run_worker("campaign", {"seeds": chunk, "size": SIZE,
                                      "nc_grid": NC_GRID}, timeout=600)
        costs.update({s: r["cost_s"] for s, r in zip(chunk, res["runs"])})
    ranked = sorted(candidates, key=costs.get)
    per = POOL_SIZE // CAMPAIGNS
    strata = [ranked[i:i + per] for i in range(0, POOL_SIZE, per)]
    POOL_PATH.write_text(
        '{"strata": [\n  ' + ",\n  ".join(map(json.dumps, strata))
        + '\n ],\n "cost_s": [\n  '
        + ",\n  ".join(json.dumps([round(costs[s], 3) for s in stratum])
                       for stratum in strata)
        + "\n ]\n}\n")


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        corrupt: bool = False) -> Outcome:
    n = TINY_CAMPAIGNS if tiny else TRACED_CAMPAIGNS if trace else CAMPAIGNS
    spec = {"seeds": sub_seeds(seed, n), "size": SIZE, "nc_grid": NC_GRID}
    out = Outcome()
    procs = [run_worker("campaign", dict(spec, seeds=[s]))
             for s in spec["seeds"]]
    runs = [p["runs"][0] for p in procs]
    rows_digest = digest([r["rows"] for r in runs])
    out.output_digest = (SIZE, rows_digest)
    reference = expected_digest("campaign", SIZE, seed) if n == CAMPAIGNS else None
    if corrupt:
        reference = "0" * 16
    for r in runs:
        out.attempted += 1
        ok = set(r["labels"]) <= set(FORMATS)
        out.check("labels_in_formats", ok)
        out.failed += int(not ok)
    if reference is not None:
        out.attempted += 1
        ok = rows_digest == reference
        out.check("rows_match_reference", ok)
        out.failed += int(not ok)
    elif not trace:
        out.notes.append(f"no reference digest for seed {seed}; "
                         f"rows digest {rows_digest}")

    walls = [r["wall_s"] for r in runs]
    n_matrices = sum(r["n_matrices"] for r in runs)
    out.report["campaign_s"] = (median(walls), "s")
    out.report["campaigns"] = (len(walls), "count")
    out.report["campaign_matrices_per_s"] = (n_matrices / sum(walls), "1/s")
    if trace:
        traced = run_worker("campaign", dict(spec, trace=True))
        same = [r["rows"] for r in traced["runs"]] == [
            r["rows"] for r in runs]
        out.attempted += 1
        out.failed += int(not same)
        out.check("traced_rows_identical", same)
        summary = traced["trace"]
        wall = summary["wall_s"]
        out.metrics.update(per_layer_metrics(summary, {
            "trace.unattributed_share": 1.0 - summary["covered_s"] / wall,
            "trace.overhead_share": wall / sum(walls) - 1.0,
        }))
        out.report["traced_campaigns_s"] = (wall, "s")
        return out
    cpus = [r["cpu_s"] for r in runs]
    costs = [r["cost_s"] for r in runs]
    out.report["slowest_campaign_s"] = (max(walls), "s")
    out.report["setup_wall_s"] = (median([p["setup_s"] for p in procs]), "s")
    out.report["campaign_cpu_s"] = (sum(cpus) / len(cpus), "s")
    out.metrics["setup_s"] = (median([p["setup_cost_s"] for p in procs]), "s")
    out.metrics["peak_rss_mb"] = (median([p["rss_mb"] for p in procs]), "MB")
    out.metrics["cpu_ms_per_op"] = (sum(costs) / len(costs) * 1e3, "ms")
    return out


if __name__ == "__main__":
    sys.exit(make_pool())
