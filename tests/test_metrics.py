import dataclasses
import json

import numpy as np
import pytest

from crowdfuse import cli
from crowdfuse.fileio import (read_responses, read_truth, write_responses,
                              write_truth)
from crowdfuse.metrics import score
from crowdfuse.model import GroundTruth
from crowdfuse.synth import diag_dominant_spec, generate


class TestScore:
    def test_worked_example(self):
        truth = GroundTruth(labels=np.array([1, 1, 2, 2]))
        card = score([1, 2, 2, 2], truth)
        assert card.accuracy == pytest.approx(0.75)
        assert card.micro_f1 == pytest.approx(0.75)
        # Class 1: P=1, R=1/2 -> F1=2/3. Class 2: P=2/3, R=1 -> F1=4/5.
        assert card.macro_f1 == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-4)
        assert card.macro_f1 == pytest.approx(0.7333, abs=1e-4)

    def test_micro_equals_accuracy_single_label(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(2, 6))
            truth = GroundTruth(labels=rng.integers(1, k + 1, size=n))
            pred = rng.integers(1, k + 1, size=n)
            card = score(pred, truth, n_classes=k)
            assert card.micro_f1 == pytest.approx(card.accuracy, abs=1e-12)

    def test_perfect_prediction(self):
        truth = GroundTruth(labels=np.array([1, 2, 3]))
        card = score([1, 2, 3], truth)
        assert card.accuracy == 1.0
        assert card.macro_f1 == 1.0
        for cls in card.per_class.values():
            assert cls["f1"] == 1.0

    def test_unknown_truth_skipped(self):
        truth = GroundTruth(labels=np.array([1, 0, 2]))
        card = score([1, 2, 1], truth)
        assert card.n_evaluated == 2
        assert card.accuracy == pytest.approx(0.5)

    def test_no_known_truth_rejected(self):
        truth = GroundTruth(labels=np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            score([1, 1, 1], truth)

    def test_absent_class_flagged_and_counted_as_zero(self):
        truth = GroundTruth(labels=np.array([1, 1]))
        card = score([1, 1], truth, n_classes=3)
        assert card.per_class["3"]["absent"]
        assert card.per_class["3"]["f1"] == 0.0
        assert card.macro_f1 == pytest.approx(1 / 3)

    def test_zero_division_yields_zero(self):
        truth = GroundTruth(labels=np.array([1, 1]))
        card = score([2, 2], truth, n_classes=2)
        assert card.per_class["1"]["precision"] == 0.0
        assert card.per_class["1"]["recall"] == 0.0
        assert card.per_class["2"]["f1"] == 0.0

    def test_written_scores_are_the_card(self, tmp_path):
        # The scores block `aggregate --truth` writes is the card of the
        # written labels as a dict, its classes keyed "1".."K".
        rm, truth = generate(diag_dominant_spec(40, 4, 3, 0.7, seed=3))
        responses, truth_path = tmp_path / "r.csv", tmp_path / "t.csv"
        out = tmp_path / "o.json"
        write_responses(responses, rm)
        write_truth(truth_path, truth, rm.item_ids)
        assert cli.main(["aggregate", "--responses", str(responses),
                         "--method", "vb", "--k", "3", "--truth",
                         str(truth_path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        items = read_responses(responses, n_classes=3).item_ids
        card = score(doc["labels"], read_truth(truth_path, items, 3),
                     n_classes=3)
        assert doc["scores"] == dataclasses.asdict(card)
        assert list(doc["scores"]["per_class"]) == ["1", "2", "3"]
        assert set(doc["scores"]["per_class"]["1"]) == {
            "precision", "recall", "f1", "absent"}
