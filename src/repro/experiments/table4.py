"""Table 4: semi-supervised performance, local setting.

Nine (clusterer × labeler) combinations per architecture, 5-fold CV,
reporting NC / MCC / ACC / F1.  For K-Means and Birch the cluster count is
chosen from the configured NC grid by MCC (the paper: *"We ran a series of
preliminary experiments to determine a good choice of K for each clustering
algorithm and architecture"*); Mean-Shift determines NC itself.

The grid shares its fold-level fits through a :class:`FoldContext`; every
score is the one fresh fits per combo and fold give.
"""

from __future__ import annotations

import numpy as np

from repro.core.labeling import LabeledDataset
from repro.core.pipeline import FeaturePipeline
from repro.core.semisupervised import CLUSTERERS, LABELERS, ClusterFormatSelector
from repro.experiments.common import TableResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.data import ExperimentData, build_experiment_data
from repro.ml.metrics import accuracy_score, f1_macro, matthews_corrcoef
from repro.ml.model_selection import StratifiedKFold

#: Display names matching the paper's rows.
COMBO_NAMES = {
    ("kmeans", "vote"): "K-Means-VOTE",
    ("kmeans", "lr"): "K-Means-LR",
    ("kmeans", "rf"): "K-Means-RF",
    ("meanshift", "vote"): "Mean-Shift-VOTE",
    ("meanshift", "lr"): "Mean-Shift-LR",
    ("meanshift", "rf"): "Mean-Shift-RF",
    ("birch", "vote"): "Birch-VOTE",
    ("birch", "lr"): "Birch-LR",
    ("birch", "rf"): "Birch-RF",
}


class FoldContext:
    """One cross-validation's fold-level work, shared across combos.

    Holds the ``StratifiedKFold`` splits of ``ds`` and, per fold, the
    feature pipeline, the LR/RF label models and the clustering of each
    (clusterer, NC).  Each is fitted on first use, so the fits run inside
    the :func:`evaluate_combo` call that first needs them.  Sharing is
    exact: the pipeline sees only the fold's training features,
    clustering never sees labels, and a label model is fit on the fold's
    whole ``(Z_train, y_train)`` with the context's seed and only
    predicts at each clustering's centroids.
    """

    def __init__(self, ds: LabeledDataset, n_folds: int, seed: int = 0):
        self.ds = ds
        self.n_folds = n_folds
        self.seed = seed
        self.splits = list(StratifiedKFold(n_folds, seed=seed).split(ds.labels))
        self._pipelines = [FeaturePipeline() for _ in self.splits]
        self._clusterings: dict[tuple, ClusterFormatSelector] = {}
        self._label_models: dict[tuple[int, str], object] = {}

    def selector(
        self, fold: int, clusterer: str, labeler: str, n_clusters: int | None
    ) -> ClusterFormatSelector:
        """The combo's selector, fitted on fold ``fold``'s training part."""
        train, _ = self.splits[fold]
        key = (fold, clusterer, n_clusters)
        clustered = self._clusterings.get(key)
        if clustered is None:
            clustered = ClusterFormatSelector(
                clusterer, labeler, n_clusters,
                pipeline=self._pipelines[fold], seed=self.seed,
            ).fit_clusters(self.ds.X[train])
            self._clusterings[key] = clustered
        sel = clustered.relabeled(
            labeler, self._label_models.get((fold, labeler))
        )
        sel.label_clusters(self.ds.labels[train])
        if labeler != "vote":
            self._label_models[(fold, labeler)] = sel.label_model_
        return sel


def evaluate_combo(
    ds: LabeledDataset,
    clusterer: str,
    labeler: str,
    n_clusters: int | None,
    n_folds: int,
    seed: int = 0,
    folds: FoldContext | None = None,
) -> dict[str, float]:
    """Cross-validated scores of one (clusterer, labeler, NC) choice.

    ``folds`` shares fold-level fits with other combos of the same
    ``(ds, n_folds, seed)``; without it every fit is this call's own.
    """
    if folds is None:
        folds = FoldContext(ds, n_folds, seed)
    elif folds.ds is not ds or (folds.n_folds, folds.seed) != (n_folds, seed):
        raise ValueError("folds was built for another (ds, n_folds, seed)")
    accs, f1s, mccs, ncs = [], [], [], []
    for fold, (_, test) in enumerate(folds.splits):
        sel = folds.selector(fold, clusterer, labeler, n_clusters)
        pred = sel.predict(ds.X[test])
        accs.append(accuracy_score(ds.labels[test], pred))
        f1s.append(f1_macro(ds.labels[test], pred))
        mccs.append(matthews_corrcoef(ds.labels[test], pred))
        ncs.append(sel.n_clusters_)
    return {
        "NC": float(np.mean(ncs)),
        "ACC": float(np.mean(accs)),
        "F1": float(np.mean(f1s)),
        "MCC": float(np.mean(mccs)),
    }


def best_nc(
    ds: LabeledDataset,
    clusterer: str,
    labeler: str,
    nc_grid: tuple[int, ...],
    n_folds: int,
    seed: int = 0,
    folds: FoldContext | None = None,
) -> tuple[int | None, dict[str, float]]:
    """Pick the grid NC with the best cross-validated MCC."""
    if clusterer == "meanshift":
        return None, evaluate_combo(
            ds, clusterer, labeler, None, n_folds, seed, folds=folds
        )
    best: tuple[int | None, dict[str, float]] | None = None
    for nc in nc_grid:
        if nc >= len(ds) // 2:
            continue
        scores = evaluate_combo(
            ds, clusterer, labeler, nc, n_folds, seed, folds=folds
        )
        if best is None or scores["MCC"] > best[1]["MCC"]:
            best = (nc, scores)
    if best is None:
        raise ValueError("NC grid has no feasible entry for this dataset")
    return best


def generate(
    data: ExperimentData | None = None,
    config: ExperimentConfig | None = None,
) -> TableResult:
    if data is None:
        data = build_experiment_data(config)
    cfg = data.config
    table = TableResult(
        table_id="Table 4",
        title=(
            "Performance of the semi-supervised approach using different "
            "clustering algorithms on different GPUs"
        ),
        headers=["Arch", "Algorithm", "NC", "MCC", "ACC", "F1"],
    )
    seed = cfg.seed % 2**31
    for arch in data.arch_names:
        ds = data.datasets[arch]
        folds = FoldContext(ds, cfg.n_folds, seed)
        for clusterer in CLUSTERERS:
            for labeler in LABELERS:
                _, scores = best_nc(
                    ds, clusterer, labeler, cfg.nc_grid, cfg.n_folds,
                    seed=seed, folds=folds,
                )
                table.add_row(
                    arch,
                    COMBO_NAMES[(clusterer, labeler)],
                    int(round(scores["NC"])),
                    scores["MCC"],
                    scores["ACC"],
                    scores["F1"],
                )
    table.notes.append(
        "paper shape: K-Means-VOTE / K-Means-RF / Birch-VOTE strong, all "
        "Mean-Shift variants weak (too few clusters)"
    )
    return table
