"""Table generators: every table produces well-formed, in-range rows."""

from collections import Counter

import pytest

from repro.core.pipeline import FeaturePipeline
from repro.experiments import table2, table3, table4, table5, table6, table7, table8, table9
from repro.experiments.common import TableResult
from repro.experiments.table4 import (
    COMBO_NAMES,
    FoldContext,
    best_nc,
    evaluate_combo,
)
from repro.experiments.table5 import transfer_pairs
from repro.experiments.table7 import transfer_scenarios
from repro.ml.logistic import LogisticRegression
from repro.ml.tree import DecisionTreeClassifier


class TestTableResult:
    def test_add_row_validates_width(self):
        t = TableResult("T", "title", ["a", "b"])
        t.add_row(1, 2)
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_access(self):
        t = TableResult("T", "title", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]

    def test_renderings(self):
        t = TableResult("T", "title", ["a"])
        t.add_row(0.123456)
        assert "0.123" in t.format_text()
        md = t.to_markdown()
        assert md.startswith("### T: title")
        assert "| a |" in md


class TestTable2:
    def test_three_rows(self):
        result = table2.generate()
        assert len(result.rows) == 3
        models = result.column("Model")
        assert "GeForce GTX 1080" in models


class TestTable3:
    def test_totals_consistent(self, tiny_data):
        result = table3.generate(tiny_data)
        total_row = result.rows[-1]
        assert total_row[0] == "Total"
        for j, arch in enumerate(tiny_data.arch_names, start=1):
            col_sum = sum(r[j] for r in result.rows[:-1])
            assert col_sum == total_row[j] == len(tiny_data.datasets[arch])

    def test_common_columns_equal_across_archs(self, tiny_data):
        result = table3.generate(tiny_data)
        n_arch = len(tiny_data.arch_names)
        totals = result.rows[-1][1 + n_arch :]
        assert len(set(totals)) == 1  # same common-subset size everywhere


class TestTable4Helpers:
    def test_evaluate_combo_ranges(self, tiny_data):
        ds = tiny_data.datasets["volta"]
        scores = evaluate_combo(ds, "kmeans", "vote", 10, 3, seed=0)
        assert 0 <= scores["ACC"] <= 1
        assert -1 <= scores["MCC"] <= 1
        assert scores["NC"] == 10

    def test_best_nc_picks_from_grid(self, tiny_data):
        ds = tiny_data.datasets["volta"]
        nc, scores = best_nc(ds, "kmeans", "vote", (5, 10), 3)
        assert nc in (5, 10)
        assert scores["MCC"] >= -1

    def test_meanshift_ignores_grid(self, tiny_data):
        ds = tiny_data.datasets["volta"]
        nc, scores = best_nc(ds, "meanshift", "vote", (5, 10), 3)
        assert nc is None

    def test_combo_names_cover_nine(self):
        assert len(COMBO_NAMES) == 9


class TestTable4:
    def test_full_generation(self, tiny_data):
        result = table4.generate(tiny_data)
        assert len(result.rows) == 9 * len(tiny_data.arch_names)
        for mcc in result.column("MCC"):
            assert -1 <= mcc <= 1
        for acc in result.column("ACC"):
            assert 0 <= acc <= 1

    def test_generation_fits_once_per_fold(self, tiny_data, monkeypatch):
        """One pipeline and one LR/RF label model per (arch, fold)."""
        calls = Counter()
        for cls in (FeaturePipeline, LogisticRegression, DecisionTreeClassifier):
            fit = cls.__dict__["fit"]

            def counted(self, *args, _fit=fit, _name=cls.__name__, **kwargs):
                calls[_name] += 1
                return _fit(self, *args, **kwargs)

            monkeypatch.setattr(cls, "fit", counted)
        table4.generate(tiny_data)
        per_fold = len(tiny_data.arch_names) * tiny_data.config.n_folds
        assert calls["FeaturePipeline"] == per_fold
        assert calls["LogisticRegression"] == per_fold
        assert calls["DecisionTreeClassifier"] == per_fold * 100

    def test_shared_folds_score_like_fresh_fits(self, tiny_data):
        ds = tiny_data.datasets["volta"]
        folds = FoldContext(ds, 3, seed=0)
        combos = [("kmeans", "lr", 10), ("birch", "lr", 10),
                  ("kmeans", "rf", 25), ("kmeans", "vote", 25)]
        shared = [evaluate_combo(ds, c, l, nc, 3, folds=folds)
                  for c, l, nc in combos]
        fresh = [evaluate_combo(ds, c, l, nc, 3) for c, l, nc in combos]
        assert shared == fresh

    def test_folds_must_match_the_call(self, tiny_data):
        ds = tiny_data.datasets["volta"]
        folds = FoldContext(ds, 3, seed=0)
        with pytest.raises(ValueError):
            evaluate_combo(ds, "kmeans", "vote", 10, 3, seed=1, folds=folds)
        with pytest.raises(ValueError):
            evaluate_combo(tiny_data.datasets["pascal"], "kmeans", "vote",
                           10, 3, folds=folds)


class TestTable5:
    def test_pairs(self):
        pairs = transfer_pairs(["a", "b", "c"])
        assert len(pairs) == 6
        assert ("a", "a") not in pairs

    def test_generation_shape(self, tiny_data):
        result = table5.generate(tiny_data)
        assert len(result.rows) == 6 * 9
        for col in ("MCC@0%", "MCC@25%", "MCC@50%"):
            for v in result.column(col):
                assert -1 <= v <= 1


class TestTable6:
    def test_generation(self, tiny_data):
        result = table6.generate(tiny_data, models=("DT", "KNN", "CNN"))
        assert len(result.rows) == 3 * len(tiny_data.arch_names)
        for gt in result.column("GT"):
            assert gt <= 1.0 + 1e-9
        for acc in result.column("ACC"):
            assert 0 <= acc <= 100


class TestTable7:
    def test_scenarios_omit_volta_to_pascal(self):
        scen = transfer_scenarios(["pascal", "volta", "turing"])
        assert ("volta", "pascal") not in scen
        assert len(scen) == 5

    def test_generation(self, tiny_data):
        result = table7.generate(tiny_data, models=("DT",))
        assert len(result.rows) == 5
        for v in result.column("GT@0%"):
            assert v <= 1.0 + 1e-9


class TestTable8:
    def test_rows(self, tiny_data):
        result = table8.generate(tiny_data)
        values = dict(zip(result.column("Row"), result.column("Value")))
        assert values["conversion cost ELL (x CSR SpMV)"] == 102.0
        hours = [
            v for k, v in values.items() if k.startswith("benchmarking time")
        ]
        assert len(hours) == 3
        assert all(h > 0 for h in hours)


class TestTable9:
    def test_generation(self, tiny_data):
        result = table9.generate(
            tiny_data, models=("DT", "K-Means-VOTE", "K-Means-RF")
        )
        assert len(result.rows) == 3
        for row in result.rows:
            assert all(v >= 0 for v in row[1:])

    def test_kmeans_vote_cheaper_than_rf_variant(self, tiny_data):
        result = table9.generate(
            tiny_data, models=("K-Means-VOTE", "K-Means-RF")
        )
        vote = result.rows[0][1]
        rf = result.rows[1][1]
        assert vote <= rf
