"""The semi-supervised selector: clustering + labeling + inference."""

import numpy as np
import pytest

from repro.core.semisupervised import ClusterFormatSelector, make_clusterer
from repro.ml.base import NotFittedError
from repro.ml.cluster import Birch, KMeans, MeanShift
from repro.ml.metrics import accuracy_score, matthews_corrcoef


@pytest.fixture(scope="module")
def volta(tiny_data):
    return tiny_data.datasets["volta"]


class TestMakeClusterer:
    def test_instances(self):
        assert isinstance(make_clusterer("kmeans", 5), KMeans)
        assert isinstance(make_clusterer("meanshift"), MeanShift)
        assert isinstance(make_clusterer("birch", 5), Birch)

    def test_kmeans_requires_nc(self):
        with pytest.raises(ValueError):
            make_clusterer("kmeans")
        with pytest.raises(ValueError):
            make_clusterer("birch")

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_clusterer("dbscan", 5)


class TestClusterFormatSelector:
    def test_fit_predict_accuracy(self, volta):
        sel = ClusterFormatSelector("kmeans", "vote", 12, seed=0)
        sel.fit(volta.X, volta.labels)
        pred = sel.predict(volta.X)
        assert accuracy_score(volta.labels, pred) > 0.7
        assert matthews_corrcoef(volta.labels, pred) > 0.2

    def test_predictions_constant_within_cluster(self, volta):
        sel = ClusterFormatSelector("kmeans", "vote", 8, seed=0)
        sel.fit(volta.X, volta.labels)
        clusters = sel.assign_clusters(volta.X)
        pred = sel.predict(volta.X)
        for c in np.unique(clusters):
            assert len(set(pred[clusters == c])) == 1

    def test_all_labelers_work(self, volta):
        for labeler in ("vote", "lr", "rf"):
            sel = ClusterFormatSelector("kmeans", labeler, 10, seed=0)
            sel.fit(volta.X, volta.labels)
            assert len(sel.cluster_labels_) == sel.n_clusters_

    def test_all_clusterers_work(self, volta):
        for clusterer in ("kmeans", "meanshift", "birch"):
            sel = ClusterFormatSelector(clusterer, "vote", 10, seed=0)
            sel.fit(volta.X, volta.labels)
            assert sel.predict(volta.X).shape == volta.labels.shape

    def test_two_stage_separation(self, volta):
        # fit_clusters needs no labels; label_clusters supplies them later.
        sel = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        sel.fit_clusters(volta.X)
        with pytest.raises(NotFittedError):
            sel.predict(volta.X)
        sel.label_clusters(volta.labels)
        assert sel.predict(volta.X).shape == volta.labels.shape

    def test_partial_benchmarking_mask(self, volta):
        sel = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        sel.fit_clusters(volta.X)
        sample = sel.sample_for_benchmarking(per_cluster=1, seed=0)
        assert len(sample) <= sel.benchmarking_budget(1)
        sel.label_clusters(volta.labels, benchmarked=sample)
        pred = sel.predict(volta.X)
        # One benchmarked matrix per cluster already predicts decently.
        assert accuracy_score(volta.labels, pred) > 0.6

    def test_unbenchmarked_cluster_falls_back_to_majority(self, volta):
        sel = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        sel.fit_clusters(volta.X)
        # Benchmark only cluster 0's members.
        members = np.flatnonzero(sel.train_assignments_ == 0)
        sel.label_clusters(volta.labels, benchmarked=members)
        # Other clusters carry the global majority of the benchmarked set.
        from collections import Counter

        majority = Counter(
            volta.labels[members].tolist()
        ).most_common(1)[0][0]
        assert all(
            lab == majority
            for c, lab in enumerate(sel.cluster_labels_)
            if c != 0
        )

    def test_source_y_evidence_combination(self, volta, tiny_data):
        pascal = tiny_data.datasets["pascal"]
        shared = [n for n in volta.names if n in set(pascal.names)]
        v = volta.subset_by_names(shared)
        p = pascal.subset_by_names(shared)
        sel = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        sel.fit_clusters(v.X)
        none_mask = np.zeros(len(v), dtype=bool)
        sel.label_clusters(v.labels, benchmarked=none_mask, source_y=p.labels)
        # With zero target benchmarks, labels must be derivable from the
        # source labels alone.
        sel2 = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        sel2.fit_clusters(v.X)
        sel2.label_clusters(p.labels)
        np.testing.assert_array_equal(sel.cluster_labels_, sel2.cluster_labels_)

    def test_custom_clusterer_object(self, volta):
        sel = ClusterFormatSelector(KMeans(n_clusters=6, seed=1), "vote")
        sel.fit(volta.X, volta.labels)
        assert sel.n_clusters_ == 6

    def test_validation(self, volta):
        with pytest.raises(ValueError):
            ClusterFormatSelector("dbscan")
        with pytest.raises(ValueError):
            ClusterFormatSelector(labeler="svm")
        sel = ClusterFormatSelector("kmeans", "vote", 10)
        with pytest.raises(NotFittedError):
            sel.assign_clusters(volta.X)
        sel.fit_clusters(volta.X)
        with pytest.raises(ValueError):
            sel.label_clusters(volta.labels[:3])
        with pytest.raises(ValueError):
            sel.label_clusters(
                volta.labels, benchmarked=np.zeros(len(volta), dtype=bool)
            )

    @pytest.mark.parametrize("labeler", ["lr", "rf"])
    def test_prefit_label_model_is_reused_not_refit(self, volta, labeler):
        first = ClusterFormatSelector("kmeans", labeler, 10, seed=0)
        first.fit(volta.X, volta.labels)
        model = first.label_model_
        second = ClusterFormatSelector(
            "birch", labeler, 6, pipeline=first.pipeline_, seed=0,
            label_model=model,
        )
        fresh = ClusterFormatSelector(
            "birch", labeler, 6, pipeline=first.pipeline_, seed=0
        )
        model.fit = None  # a refit would raise
        second.fit(volta.X, volta.labels)
        fresh.fit(volta.X, volta.labels)
        assert second.label_model_ is model
        np.testing.assert_array_equal(
            second.cluster_labels_, fresh.cluster_labels_
        )

    def test_partial_evidence_fits_its_own_label_model(self, volta):
        shared = ClusterFormatSelector("kmeans", "lr", 10, seed=0)
        shared.fit(volta.X, volta.labels)
        sel = ClusterFormatSelector(
            "kmeans", "lr", 10, seed=0, label_model=shared.label_model_
        )
        sel.fit_clusters(volta.X)
        sel.label_clusters(volta.labels, benchmarked=np.arange(20))
        assert sel.label_model_ is not shared.label_model_

    def test_relabeled_shares_clusters(self, volta):
        base = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        base.fit(volta.X, volta.labels)
        other = base.relabeled("rf")
        assert other.labeler == "rf" and base.labeler == "vote"
        assert other.train_assignments_ is base.train_assignments_
        assert not hasattr(other, "cluster_labels_")
        other.label_clusters(volta.labels)
        direct = ClusterFormatSelector("kmeans", "rf", 10, seed=0)
        direct.fit(volta.X, volta.labels)
        np.testing.assert_array_equal(
            other.cluster_labels_, direct.cluster_labels_
        )
        with pytest.raises(ValueError):
            base.relabeled("svm")
        with pytest.raises(NotFittedError):
            ClusterFormatSelector("kmeans", "vote", 10).relabeled("lr")

    def test_more_clusters_higher_purity(self, volta):
        from repro.core.purity import cluster_purity

        few = ClusterFormatSelector("kmeans", "vote", 4, seed=0)
        many = ClusterFormatSelector("kmeans", "vote", 24, seed=0)
        few.fit_clusters(volta.X)
        many.fit_clusters(volta.X)
        p_few = cluster_purity(volta.labels, few.train_assignments_)
        p_many = cluster_purity(volta.labels, many.train_assignments_)
        assert p_many >= p_few - 0.02


class TestDegenerateClusterIds:
    def test_empty_kmeans_cluster_still_labelable(self):
        # Two distinct points, four requested clusters: K-Means must keep
        # four centroids (reseeding duplicates), and the selector must
        # label all of them so predict() can never index out of range.
        import numpy as np

        X = np.repeat(
            np.array([[0.0] * 21, [1000.0] * 21]), 12, axis=0
        )
        y = np.array(["csr"] * 12 + ["ell"] * 12, dtype=object)
        sel = ClusterFormatSelector("kmeans", "vote", 4, seed=0)
        sel.fit(X, y)
        assert len(sel.cluster_labels_) == sel.n_clusters_ == 4
        rng = np.random.default_rng(0)
        probe = rng.uniform(-10, 1010, size=(50, 21))
        pred = sel.predict(probe)
        assert set(pred) <= {"csr", "ell"}
