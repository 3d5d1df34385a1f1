import contextlib
import csv
import itertools
import json
import re
import subprocess
import sys
import warnings
from unittest import mock

import jsonschema
import numpy as np
import pytest

from crowdfuse import aggregators, bounds, cli, constraints, fileio, model
from crowdfuse.fileio import (InputFormatError, read_constraints,
                              read_responses, read_truth, result_schema,
                              write_constraints, write_responses,
                              write_truth)
from crowdfuse.model import GroundTruth, PosteriorParams, paper_default_priors
from crowdfuse.synth import CrowdSpec, diag_dominant_spec, generate

from oracles import (reference_label_union, reference_read_responses,
                     repr_spelled, response_triples)


def fit_must_not_run(*args, **kwargs):
    raise AssertionError("vbem_fit ran before the inputs were checked")


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "crowdfuse.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture
def dataset(tmp_path):
    spec = diag_dominant_spec(60, 4, 3, 0.75, seed=17, mu=0.9)
    rm, truth = generate(spec)
    responses = tmp_path / "responses.csv"
    truth_path = tmp_path / "truth.csv"
    spec_path = tmp_path / "spec.json"
    write_responses(responses, rm)
    write_truth(truth_path, truth, rm.item_ids)
    spec_path.write_text(json.dumps(spec.to_dict()))
    return {"rm": rm, "truth": truth, "responses": responses,
            "truth_path": truth_path, "spec_path": spec_path,
            "dir": tmp_path}


class TestResponsesRoundTrip:
    def test_roundtrip(self, dataset):
        back = read_responses(dataset["responses"], n_classes=3)
        assert response_triples(back) == response_triples(dataset["rm"])
        assert back.item_ids == dataset["rm"].item_ids

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,1,1\n")
        with pytest.raises(InputFormatError, match="header"):
            read_responses(path)

    def test_zero_label_skipped(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\ny,a,0\ny,b,2\n")
        rm = read_responses(path)
        assert rm.n_responses == 2
        assert rm.item_ids == ["x", "y"]

    def test_blank_label_registers_item(self, tmp_path):
        # The item of a blank or 0 row is registered, in first-seen order;
        # the annotator of such a row is not.
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\nz,a,\ny,b,2\n"
                        "w,c,0\n")
        rm = read_responses(path)
        assert rm.item_ids == ["x", "z", "y", "w"]
        assert rm.annotator_ids == ["a", "b"]
        np.testing.assert_array_equal(rm.responses_per_item(), [1, 0, 1, 0])

    @pytest.mark.parametrize("label, message", [
        ("zebra", "non-integer label 'zebra'"),
        ("7", "label 7 out of range")])
    def test_bad_label_line_counts_skipped_rows(self, tmp_path, label,
                                                message):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\n\ny,a,0\nz,b,\n"
                        f"w,a, {label} \nv,a,2\n")
        with pytest.raises(InputFormatError,
                           match=rf"r\.csv:6: {re.escape(message)}$"):
            read_responses(path, n_classes=3)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\nx,a,2\n")
        with pytest.raises(InputFormatError, match="duplicate"):
            read_responses(path)

    def test_duplicate_names_repeated_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\ny,b,2\ny,a,\n"
                        "y,a,1\nx,b,2\ny,b,1\nx,a,2\n")
        with pytest.raises(InputFormatError,
                           match=r"r\.csv:7: duplicate response for item "
                                 r"'y' by annotator 'b'"):
            read_responses(path)

    def test_duplicate_raised_before_class_warning(self, tmp_path):
        # Classes above the highest label are warned of for a valid file
        # only; a repeated pair is raised with no warning before it.
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,1\ny,a,2\n")
        with pytest.warns(UserWarning, match="configured 4 classes"):
            read_responses(path, n_classes=4)
        path.write_text("item,annotator,label\nx,a,1\nx,a,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputFormatError,
                               match=r"r\.csv:3: duplicate response"):
                read_responses(path, n_classes=4)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,zebra\n")
        with pytest.raises(InputFormatError, match="non-integer"):
            read_responses(path)

    def test_label_above_class_count(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\nx,a,5\n")
        with pytest.raises(InputFormatError, match="out of range"):
            read_responses(path, n_classes=3)


    def test_block_wise_write_equals_one_pass(self, tmp_path):
        # Seven responses written two rows at a time, so that blocks end
        # inside an item and the last block is short; the ids need quoting.
        item_ids = ["a,b", 'say "hi"', "line\nend", "cr\r\nlf", "plain"]
        ann_ids = ['q"', "x,y"]
        rm = model.ResponseMatrix(5, 2, [0, 0, 0, 1, 1, 1, 1],
                                  [0, 1, 3, 0, 2, 3, 4],
                                  [1, 2, 3, 3, 1, 2, 1], n_classes=3,
                                  item_ids=item_ids, annotator_ids=ann_ids)
        path = tmp_path / "blocks.csv"
        with mock.patch.object(fileio, "_WRITE_ROWS", 2):
            write_responses(path, rm)
        one_pass = tmp_path / "one.csv"
        with open(one_pass, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(
                [["item", "annotator", "label"], ["a,b", 'q"', 1],
                 ["a,b", "x,y", 3], ['say "hi"', 'q"', 2],
                 ["line\nend", "x,y", 1], ["cr\r\nlf", 'q"', 3],
                 ["cr\r\nlf", "x,y", 2], ["plain", "x,y", 1]])
        assert path.read_bytes() == one_pass.read_bytes()
        back = read_responses(path, n_classes=3)
        assert response_triples(back) == response_triples(rm)


class TestTruthRoundTrip:
    def test_roundtrip(self, dataset):
        truth = read_truth(dataset["truth_path"], dataset["rm"].item_ids, 3)
        np.testing.assert_array_equal(truth.labels, dataset["truth"].labels)

    def test_missing_items_stay_unknown(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item,label\nb,2\n")
        truth = read_truth(path, ["a", "b"], 3)
        np.testing.assert_array_equal(truth.labels, [0, 2])

    def test_unknown_item_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("item,label\nzzz,1\n")
        with pytest.raises(InputFormatError, match="unknown item"):
            read_truth(path, ["a", "b"], 3)

    def test_duplicate_item_rejected(self, dataset, capsys):
        # A second row for one item names its line and exits 2; the last
        # row used to win silently.
        item = dataset["rm"].item_ids[0]
        path = dataset["dir"] / "t.csv"
        path.write_text(f"item,label\n{item},1\n\n{item},2\n")
        with pytest.raises(InputFormatError,
                           match=rf"t\.csv:4: duplicate truth for item "
                                 rf"'{item}'$"):
            read_truth(path, dataset["rm"].item_ids, 3)
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "mv",
                         "--truth", str(path), "--output",
                         str(dataset["dir"] / "o.json")]) == 2
        assert f"duplicate truth for item '{item}'" in capsys.readouterr().err


class TestTruthAndConstraintsFormat:
    # Each row fault names the file and line, a header fault the file,
    # and all of them exit 2; blank lines are skipped. {0} and {1} stand
    # for the first two item ids.
    @pytest.mark.parametrize("flag, text, message", [
        ("--truth", "item,class\n{0},1\n",
         "t.csv: expected header item,label"),
        ("--truth", "item,label\n{0},1\n{1}\n", "t.csv:3: expected 2 fields"),
        ("--truth", "item,label\n\n{0},1,2\n", "t.csv:3: expected 2 fields"),
        ("--truth", "item,label\n\n{0},1\n\n{1},2\n", None),
        ("--truth", "item,label\n{0},1\n{1},x\n",
         "t.csv:3: non-integer label 'x'"),
        ("--constraints", "kind,i,j\nML,{0},{1}\n",
         "c.csv: expected header kind,a,b"),
        ("--constraints", "kind,a,b\nML,{0},{1}\nCL,{0}\n",
         "c.csv:3: expected 3 fields"),
        ("--constraints", "kind,a,b\n\nML,{0},{1},x\n",
         "c.csv:3: expected 3 fields"),
        ("--constraints", "kind,a,b\n\nML,{0},{1}\n\nLABEL,{1},2\n", None),
        ("--constraints", "kind,a,b\nML,{0},{1}\nLABEL,nobody,2\n",
         "c.csv:3: unknown item 'nobody'"),
    ])
    def test_faults_and_blank_lines(self, dataset, capsys, flag, text,
                                    message):
        ids = dataset["rm"].item_ids
        path = dataset["dir"] / ("t.csv" if flag == "--truth" else "c.csv")
        path.write_text(text.format(*ids))
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "mv",
                         flag, str(path), "--output",
                         str(dataset["dir"] / "o.json")])
        if message is not None:
            assert code == 2
            assert message in capsys.readouterr().err
        elif flag == "--truth":
            assert code == 0
            truth = read_truth(path, ids, 3)
            np.testing.assert_array_equal(truth.labels[:3], [1, 2, 0])
        else:
            assert code == 0
            cs, labels = read_constraints(path, ids)
            assert cs.must_link == frozenset({(0, 1)})
            assert labels == [(1, 2)]


class TestOversizedField:
    # A field longer than the csv module's limit (131,072 characters) is a
    # fault of its file and line, exit 2, in each file the CLI reads.
    @pytest.mark.parametrize("flag, text", [
        ("--responses", "item,annotator,label\n{0},a,1\n{big},a,1\n"),
        ("--truth", "item,label\n{0},1\n{big},2\n"),
        ("--constraints", "kind,a,b\nML,{0},{1}\nCL,{0},{big}\n"),
    ], ids=["responses", "truth", "constraints"])
    def test_exit_2_naming_line(self, dataset, capsys, flag, text):
        path = dataset["dir"] / "big.csv"
        path.write_text(text.format(*dataset["rm"].item_ids,
                                    big="x" * 200_000))
        files = {"--responses": str(dataset["responses"]), flag: str(path)}
        assert cli.main(["aggregate", *itertools.chain(*files.items()),
                         "--method", "mv", "--k", "3", "--output",
                         str(dataset["dir"] / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: ")
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("flag, text", [
        ("--responses", b"item,annotator,label\n{0},a,1\n{0},b,\xff\n"),
        ("--truth", b"item,label\n{0},1\n{1},\xff\n"),
        ("--constraints", b"kind,a,b\nML,{0},{1}\nCL,\xff,{0}\n"),
    ], ids=["responses", "truth", "constraints"])
    def test_not_utf8_exit_2_naming_file(self, dataset, capsys, flag, text):
        # The byte 0xff exited 4 with the decoder's message alone. The
        # decoder reads ahead in blocks, so no line is named.
        path = dataset["dir"] / "latin.csv"
        ids = [i.encode() for i in dataset["rm"].item_ids]
        path.write_bytes(text.replace(b"{0}", ids[0]).replace(b"{1}",
                                                             ids[1]))
        files = {"--responses": str(dataset["responses"]), flag: str(path)}
        assert cli.main(["aggregate", *itertools.chain(*files.items()),
                         "--method", "mv", "--k", "3", "--output",
                         str(dataset["dir"] / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "can't decode byte 0xff" in err


# One of each fault read_responses names at n_classes=3, with its message.
RESPONSE_FAULTS = [(("f1", "x", "zz"), "non-integer label 'zz'"),
                   (("f2", "x", "7"), "label 7 out of range"),
                   (("f3", "x"), "expected 3 fields"),
                   (("f4", "x", "x" * 131_073),
                    "field larger than field limit (131072)"),
                   (("g0", "x", "2"),
                    "duplicate response for item 'g0' by annotator 'x'")]


class TestResponsesFile:
    @pytest.mark.parametrize("order", [
        RESPONSE_FAULTS[shift:] + RESPONSE_FAULTS[:shift]
        for shift in range(len(RESPONSE_FAULTS))] + [
        RESPONSE_FAULTS[shift::-1] + RESPONSE_FAULTS[:shift:-1]
        for shift in range(len(RESPONSE_FAULTS))])
    def test_first_fault_named_in_file_order(self, tmp_path, order):
        # Good rows, each a new item, come before, between and after the
        # faulty ones.
        path = tmp_path / "r.csv"
        good = [f"g{i},x,1\ng{i},y,2\n" for i in range(len(order) + 1)]
        path.write_text("item,annotator,label\n" + good[0] + "".join(
            ",".join(row) + "\n" + good[i + 1]
            for i, (row, _) in enumerate(order)))
        with pytest.raises(InputFormatError) as raised:
            read_responses(path, n_classes=3)
        assert str(raised.value) == f"{path}:4: {order[0][1]}"


    @pytest.mark.parametrize("text", [
        "item,annotator,label\nx,a,1\ny,a,2\nx,b,\n",
        "item,annotator,label\nx,a,1\ny,a,2\nx,a,3\n",
        "item,annotator,label\nx,a,1\ny,a,9\nx,a,3\n",
        "item,annotator,label\nx,a,1\ny,a,2\nx,a\n",
    ], ids=["clean", "repeat", "label-fault", "width-fault"])
    def test_one_pair_order_call(self, tmp_path, text):
        # The reader's repeat check and ResponseMatrix's order share one
        # sort, whether the file is clean or not.
        path = tmp_path / "r.csv"
        path.write_text(text)
        counted = mock.Mock(wraps=model.pair_order)
        with mock.patch.object(model, "pair_order", counted), \
                mock.patch.object(fileio, "pair_order", counted):
            with contextlib.suppress(InputFormatError):
                read_responses(path, n_classes=3)
        assert counted.call_count == 1


class TestTokenizers:
    # A file with no quote, no NUL, no line over the field limit and no
    # byte outside UTF-8 is split without the csv module, into the rows the
    # csv module reads; any other file is read by csv.reader. Either way
    # the reader gives what the csv-module oracle gives, or its fault.
    @pytest.mark.parametrize("data, plain", [
        (b"item,annotator,label\r\nx,a,1\r\n\r\n y ,b, 2\r\nz,a,",
         True),
        (b"item,annotator,label\rx,a,1\r\ry,a\x0bb,+1\rz\x1c,a,01\r",
         True),
        ("item,annotator,label\n\u00e9,a\u2028b,1\n\n\n\u6f22, a,2\n"
         .encode(), True),
        (b"item,annotator,label\nx,a,1\ny,a,2\nx,a\n", True),
        (b"item,annotator,label\nabcdefgh1,annotator-a,1\n"
         b"abcdefgh2,annotator-a,2\nabcdefgh1,annotator-b,3\n", True),
        (b'item,annotator,label\r\n" x,1 ",a,1\r\n"y""",a,2\r\n', False),
        (b"item,annotator,label\nx\0,a,1\nx,a,2\n", False),
        (b"item,annotator,label\nx,a,1\n" + b"y" * 131_073 + b",a,1\n",
         False),
        (b"item,annotator,label\nx,a,1\ny,\xff,1\n", False),
    ], ids=["crlf", "cr", "non-ascii", "width-fault", "long-ids", "quoted",
            "nul", "long-line", "not-utf8"])
    def test_plain_split_unless_csv_needed(self, tmp_path, data, plain):
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        split_csv = mock.Mock(wraps=fileio._split_csv)
        with mock.patch.object(fileio, "_split_csv", split_csv):
            try:
                rm = read_responses(path, n_classes=3)
            except InputFormatError as exc:
                rm = exc
        assert split_csv.called != plain
        try:
            item_ids, ann_ids, coords = reference_read_responses(path, 3)
        except (InputFormatError, csv.Error, UnicodeDecodeError) as exc:
            assert isinstance(rm, InputFormatError)
            assert str(exc) in str(rm)
            return
        assert (rm.item_ids, rm.annotator_ids) == (item_ids, ann_ids)
        for got, want in zip(rm.coords, coords):
            np.testing.assert_array_equal(got, want)

    def test_one_sort_per_column_for_long_ids(self, tmp_path):
        # Ids of several 8-byte words are folded into one word each, so
        # each column is sorted once, however long its ids.
        path = tmp_path / "r.csv"
        path.write_text("item,annotator,label\n" + "".join(
            f"item-{i % 7:031d},worker-{i % 5:033d},{1 + i % 3}\n"
            for i in range(35)))
        groups = mock.Mock(wraps=fileio._groups)
        with mock.patch.object(fileio, "_groups", groups):
            rm = read_responses(path, n_classes=3)
        assert groups.call_count == 3
        assert (rm.n_items, rm.n_annotators) == (7, 5)

    def test_keys_folded_alike_sorted_whole(self, tmp_path):
        # With a multiplier of 0 every key folds to its last word, so ids
        # that differ only before it fold alike, and the reader must sort
        # the whole keys to tell them apart.
        path = tmp_path / "r.csv"
        path.write_bytes(b"item,annotator,label\r\n" + b"".join(
            b"%c-same-last-word,%c-annotator-id,%d\r\n" % (item, ann, label)
            for item, ann, label in [(97, 120, 1), (98, 120, 2),
                                     (97, 121, 3), (99, 121, 1),
                                     (98, 122, 2)]))
        groups = mock.Mock(wraps=fileio._groups)
        with mock.patch.object(fileio, "_FOLD", np.uint64(0)), \
                mock.patch.object(fileio, "_groups", groups):
            rm = read_responses(path, n_classes=3)
        # Labels once; items and annotators folded, then whole.
        assert groups.call_count == 5
        item_ids, ann_ids, coords = reference_read_responses(path, 3)
        assert (rm.item_ids, rm.annotator_ids) == (item_ids, ann_ids)
        for got, want in zip(rm.coords, coords):
            np.testing.assert_array_equal(got, want)


# One of each fault read_constraints names, with its message.
CONSTRAINT_FAULTS = [(("ML", "a", "zzz"), "unknown item in pair ('a', 'zzz')"),
                     (("CL", "b", "b"), "self-pair ('b', 'b')"),
                     (("NOPE", "a", "b"), "unknown kind 'NOPE'"),
                     (("LABEL", "a", "x"), "non-integer class 'x'"),
                     (("ML", "a"), "expected 3 fields"),
                     (("ML", "a", "x" * 131_073),
                      "field larger than field limit (131072)")]


class TestConstraintsFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.csv"
        rows = [("ML", "a", "b"), ("CL", "a", "c"), ("LABEL", "b", 2)]
        write_constraints(path, rows)
        cs, labels = read_constraints(path, ["a", "b", "c"])
        assert cs.must_link == frozenset({(0, 1)})
        assert cs.cannot_link == frozenset({(0, 2)})
        assert labels == [(1, 2)]

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,a,b\nNOPE,a,b\n")
        with pytest.raises(InputFormatError, match="unknown kind"):
            read_constraints(path, ["a", "b"])

    def test_unknown_pair_item(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,a,b\nML,a,zzz\n")
        with pytest.raises(InputFormatError, match="unknown item"):
            read_constraints(path, ["a", "b"])

    @pytest.mark.parametrize("kind", ["ML", "CL"])
    def test_self_pair_names_line(self, tmp_path, kind):
        path = tmp_path / "c.csv"
        path.write_text(f"kind,a,b\nML,a,b\n{kind},b,b\n")
        with pytest.raises(InputFormatError, match=r"c\.csv:3: self-pair"):
            read_constraints(path, ["a", "b"])

    @pytest.mark.parametrize("order", [
        CONSTRAINT_FAULTS[shift:] + CONSTRAINT_FAULTS[:shift]
        for shift in range(len(CONSTRAINT_FAULTS))] + [
        CONSTRAINT_FAULTS[shift::-1] + CONSTRAINT_FAULTS[:shift:-1]
        for shift in range(len(CONSTRAINT_FAULTS))])
    def test_first_fault_named_in_file_order(self, tmp_path, order):
        # Good rows come before, between and after the faulty ones.
        path = tmp_path / "c.csv"
        good = "ML,a,b\nLABEL,b,2\n"
        path.write_text("kind,a,b\n" + good + "".join(
            ",".join(row) + "\n" + good for row, _ in order))
        with pytest.raises(InputFormatError) as raised:
            read_constraints(path, ["a", "b"])
        assert str(raised.value) == f"{path}:4: {order[0][1]}"


class TestResultSchema:
    def test_schema_loads(self):
        schema = result_schema()
        assert schema["type"] == "object"
        assert "labels" in schema["required"]

    @staticmethod
    def aggregate(dataset, tmp_path, monkeypatch, method):
        """(text written, `json.dumps` of the document passed to the writer
        with its arrays as lists) for an `aggregate` call."""
        written, write = [], fileio.write_result_json

        def capture(path, document):
            written.append(document)
            write(path, document)

        monkeypatch.setattr(fileio, "write_result_json", capture)
        out = tmp_path / f"{method}.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", method,
                         "--k", "3", "--truth", str(dataset["truth_path"]),
                         "--output", str(out)]) == 0
        return (out.read_text(encoding="utf-8"),
                json.dumps(written[0], sort_keys=True,
                           default=np.ndarray.tolist))

    def test_aggregate_result_layout(self, dataset, tmp_path, monkeypatch):
        # One line with the default separators: the benchmark blanks the
        # timestamp by matching `"timestamp": "...`.
        text, listed = self.aggregate(dataset, tmp_path, monkeypatch, "vb")
        assert re.search(r'"timestamp": "[^"]+"', text)
        assert text.endswith("}\n") and text.count("\n") == 1
        # The floats of the arrays keep their values bit for bit, which
        # `repr` tells apart; only their spelling may differ from json's.
        assert repr_spelled(text) == listed + "\n"
        doc = json.loads(text)
        assert doc == json.loads(listed)
        jsonschema.validate(doc, result_schema())

    def test_mv_result_is_json_dumps(self, dataset, tmp_path, monkeypatch):
        # Vote shares are at least 1/M, so orjson spells them as repr does.
        text, listed = self.aggregate(dataset, tmp_path, monkeypatch, "mv")
        assert text == listed + "\n"


class TestResultWriter:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("place", ["array", "params", "scalar"])
    def test_non_finite_writes_no_file(self, tmp_path, place, bad):
        posterior = np.full((2, 2), 0.5)
        params = {"alpha": np.ones(2)}
        document = {"posterior": posterior, "params": params, "eta": 1.0}
        if place == "array":
            posterior[1, 0] = bad
        elif place == "params":
            params["alpha"][1] = bad
        else:
            document["eta"] = bad
        out = tmp_path / "r.json"
        with pytest.raises(ValueError):
            fileio.write_result_json(out, document)
        assert not out.exists()

    def test_seed_past_64_bits(self, dataset, tmp_path):
        out = tmp_path / "mv.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "mv",
                         "--seed", str(2**64), "--output", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert '"seed": 18446744073709551616,' in text
        assert json.loads(text)["seed"] == 2**64


class TestCliAggregate:
    @pytest.mark.parametrize("method", ["mv", "ds", "vb"])
    def test_methods_produce_valid_json(self, dataset, method):
        out = dataset["dir"] / f"{method}.json"
        proc = run_cli(["aggregate", "--responses", str(dataset["responses"]),
                        "--method", method, "--truth",
                        str(dataset["truth_path"]), "--k", "3",
                        "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, result_schema())
        assert doc["method"] == method
        assert len(doc["labels"]) == 60
        assert doc["scores"]["accuracy"] > 0.5

    def test_constrained_methods(self, dataset):
        truth = dataset["truth"]
        rm = dataset["rm"]
        rows = [("LABEL", rm.item_ids[i], int(truth.labels[i]))
                for i in range(10)]
        rows += [("ML", rm.item_ids[0], rm.item_ids[1])] \
            if truth.labels[0] == truth.labels[1] else \
            [("CL", rm.item_ids[0], rm.item_ids[1])]
        cons = dataset["dir"] / "cons.csv"
        write_constraints(cons, rows)
        for method in ("vb-lc", "vb-ilc"):
            out = dataset["dir"] / f"{method}.json"
            proc = run_cli(["aggregate", "--responses",
                            str(dataset["responses"]), "--method", method,
                            "--constraints", str(cons), "--k", "3",
                            "--truth", str(dataset["truth_path"]),
                            "--eta-grid", "0.5,1,2",
                            "--output", str(out)])
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(out.read_text())
            jsonschema.validate(doc, result_schema())
        ilc = json.loads((dataset["dir"] / "vb-ilc.json").read_text())
        assert ilc["eta"] in (0.5, 1.0, 2.0)
        assert ilc["n_v"] is not None

    def test_format_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        proc = run_cli(["aggregate", "--responses", str(bad), "--method",
                        "mv", "--output", str(tmp_path / "o.json")])
        assert proc.returncode == 2

    def test_conflict_exit_code(self, dataset):
        cons = dataset["dir"] / "conflict.csv"
        ids = dataset["rm"].item_ids
        write_constraints(cons, [("ML", ids[0], ids[1]),
                                 ("CL", ids[0], ids[1])])
        proc = run_cli(["aggregate", "--responses",
                        str(dataset["responses"]), "--method", "vb-ilc",
                        "--constraints", str(cons), "--k", "3",
                        "--output", str(dataset["dir"] / "o.json")])
        assert proc.returncode == 3

    @pytest.mark.parametrize("method", ["vb-lc", "vb-ilc"])
    def test_self_pair_exit_code(self, dataset, capsys, method):
        cons = dataset["dir"] / "self.csv"
        ids = dataset["rm"].item_ids
        write_constraints(cons, [("LABEL", ids[0], 1), ("ML", ids[1], ids[1])])
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", method,
                         "--constraints", str(cons), "--k", "3",
                         "--output", str(dataset["dir"] / "o.json")])
        assert code == 2
        assert "self.csv:3: self-pair" in capsys.readouterr().err

    def test_query_row_exit_code(self, dataset, capsys):
        # QUERY is not a constraint kind: the row is refused, not dropped.
        cons = dataset["dir"] / "query.csv"
        ids = dataset["rm"].item_ids
        write_constraints(cons, [("ML", ids[0], ids[1]),
                                 ("QUERY", ids[1], ids[2])])
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb-ilc",
                         "--constraints", str(cons), "--k", "3",
                         "--output", str(dataset["dir"] / "o.json")])
        assert code == 2
        assert "query.csv:3: unknown kind 'QUERY'" in capsys.readouterr().err
        assert not (dataset["dir"] / "o.json").exists()

    @pytest.mark.parametrize("method", ["vb-lc", "vb-ilc"])
    @pytest.mark.parametrize("labels, code, message", [
        ([(0, 1), (0, 2)], 3, "item '0': classes 1 and 2"),
        ([(0, 1), (1, 7)], 4, "class 7 outside 1..3"),
        ([(0, 0)], 4, "class 0 outside 1..3"),
    ])
    def test_label_constraints_checked_alike(self, dataset, capsys,
                                             monkeypatch, method, labels,
                                             code, message):
        # Checked before the VB fit, under vb-lc as under vb-ilc.
        monkeypatch.setattr(aggregators, "vbem_fit", fit_must_not_run)
        cons = dataset["dir"] / "labels.csv"
        ids = dataset["rm"].item_ids
        write_constraints(cons, [("LABEL", ids[i], c) for i, c in labels])
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", method,
                         "--constraints", str(cons), "--k", "3",
                         "--eta", "2",
                         "--output", str(dataset["dir"] / "o.json")]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("violations_on", ["given", "closed"])
    @pytest.mark.parametrize("weights", [["--eta", "2"],
                                         ["--eta-grid", "default"]])
    def test_labels_overlapping_pairs_match_pair_union(
            self, dataset, monkeypatch, weights, violations_on):
        # File pairs among the labelled items 0..14, between them and other
        # items, and among other items, all agreeing with the truth. Joining
        # the labels as groups writes the document that the union of every
        # pair writes.
        ids, labels = dataset["rm"].item_ids, dataset["truth"].labels
        rows = [("LABEL", ids[i], int(labels[i])) for i in range(15)]
        rows += [("ML" if labels[a] == labels[b] else "CL", ids[a], ids[b])
                 for a, b in [(0, 1), (2, 7), (3, 11), (5, 14), (4, 20),
                              (9, 31), (20, 21), (33, 40), (12, 13)]]
        cons = dataset["dir"] / "overlap.csv"
        write_constraints(cons, rows)

        def aggregate(name):
            out = dataset["dir"] / name
            assert cli.main(["aggregate", "--responses",
                             str(dataset["responses"]), "--method", "vb-ilc",
                             "--constraints", str(cons), "--k", "3",
                             "--truth", str(dataset["truth_path"]),
                             "--violations-on", violations_on, *weights,
                             "--max-iters", "30", "--output", str(out)]) == 0
            return re.sub(r'"timestamp": "[^"]*"', "", out.read_text())
        joined = aggregate("joined.json")
        monkeypatch.setattr(constraints, "join_labels",
                            lambda cs, labels, *_: reference_label_union(
                                cs, labels))
        assert joined == aggregate("union.json")

    def test_pair_contradicting_labels_exit_code(self, dataset, capsys):
        ids, labels = dataset["rm"].item_ids, dataset["truth"].labels
        a = 0
        b = next(i for i in range(1, 60) if labels[i] != labels[a])
        cons = dataset["dir"] / "contradiction.csv"
        write_constraints(cons, [("LABEL", ids[a], int(labels[a])),
                                 ("LABEL", ids[b], int(labels[b])),
                                 ("ML", ids[a], ids[b])])
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb-ilc",
                         "--constraints", str(cons), "--k", "3",
                         "--output", str(dataset["dir"] / "o.json")]) == 3
        assert f"pair ({ids[a]!r}, {ids[b]!r})" in capsys.readouterr().err

    def test_numeric_error_exit_code(self, dataset, tmp_path):
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({
            "alpha0": [0.1, 0.1, 0.1],
            "beta0": np.ones((4, 3, 3)).tolist()}))
        proc = run_cli(["aggregate", "--responses",
                        str(dataset["responses"]), "--method", "vb",
                        "--k", "3", "--priors-file", str(priors),
                        "--output", str(tmp_path / "o.json")])
        assert proc.returncode == 4

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_priors_exit_code(self, dataset, tmp_path, capsys,
                                         recwarn, value):
        # json writes NaN and Infinity tokens, which json.load reads back;
        # the priors are rejected before any fit step can warn.
        beta0 = np.ones((4, 3, 3))
        beta0[0, 0, 0] = value
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"alpha0": [1.0, 1.0, 1.0],
                                      "beta0": beta0.tolist()}))
        assert ("NaN" if np.isnan(value) else "Infinity") in \
            priors.read_text()
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--priors-file", str(priors),
                         "--output", str(tmp_path / "o.json")])
        assert code == 4
        assert "prior parameters must be finite" in capsys.readouterr().err
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_priors_without_beta0(self, dataset, tmp_path, capsys):
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"alpha0": [1.0, 1.0, 1.0]}))
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--priors-file", str(priors),
                         "--output", str(tmp_path / "o.json")])
        assert code == 2
        assert "missing key 'beta0'" in capsys.readouterr().err

    def test_result_without_posterior(self, dataset, tmp_path, capsys):
        result = tmp_path / "result.json"
        result.write_text(json.dumps(
            {"index_maps": {"items": dataset["rm"].item_ids}}))
        code = cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                         "--result", str(result),
                         "--truth", str(dataset["truth_path"]),
                         "--output", str(tmp_path / "b.json")])
        assert code == 2
        assert "missing key 'posterior'" in capsys.readouterr().err

    def test_spec_without_mu(self, dataset, tmp_path, capsys):
        spec = json.loads(dataset["spec_path"].read_text())
        del spec["mu"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = cli.main(["synth", "--spec-json", str(spec_path),
                         "--out-responses", str(tmp_path / "r.csv"),
                         "--out-truth", str(tmp_path / "t.csv")])
        assert code == 2
        assert "missing key 'mu'" in capsys.readouterr().err

    def test_priors_not_an_object(self, dataset, tmp_path, capsys):
        priors = tmp_path / "priors.json"
        priors.write_text("[1, 2]")
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--priors-file", str(priors),
                         "--output", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(priors) in err and "expected a JSON object" in err

    def test_spec_not_an_object(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[1, 2]")
        code = cli.main(["synth", "--spec-json", str(spec_path),
                         "--out-responses", str(tmp_path / "r.csv"),
                         "--out-truth", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(spec_path) in err and "expected a JSON object" in err

    def test_result_not_an_object(self, dataset, tmp_path, capsys):
        result = tmp_path / "result.json"
        result.write_text("[1, 2]")
        code = cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                         "--result", str(result),
                         "--truth", str(dataset["truth_path"]),
                         "--output", str(tmp_path / "b.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(result) in err and "expected a JSON object" in err

    def test_spec_non_integer_field(self, dataset, tmp_path, capsys):
        # 7.9 made a 7-item crowd and "12" a 12-item one, both exit 0.
        spec = json.loads(dataset["spec_path"].read_text())
        spec_path = tmp_path / "spec.json"
        for value in ("abc", 7.9, "12"):
            spec["n_items"] = value
            spec_path.write_text(json.dumps(spec))
            code = cli.main(["synth", "--spec-json", str(spec_path),
                             "--out-responses", str(tmp_path / "r.csv"),
                             "--out-truth", str(tmp_path / "t.csv")])
            assert code == 2, value
            assert f"{spec_path}: 'n_items' must be an integer" in \
                capsys.readouterr().err
            assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("key", ["pi_star", "gamma_star", "mu"])
    def test_spec_non_numeric_array_field(self, dataset, tmp_path, capsys,
                                          key):
        spec = json.loads(dataset["spec_path"].read_text())
        spec[key] = "abc"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = cli.main(["synth", "--spec-json", str(spec_path),
                         "--out-responses", str(tmp_path / "r.csv"),
                         "--out-truth", str(tmp_path / "t.csv")])
        assert code == 2
        assert f"{key!r} must be an array of numbers" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha0", "beta0"])
    def test_priors_non_numeric_array(self, dataset, tmp_path, capsys, key):
        doc = {"alpha0": [1.0, 1.0, 1.0], "beta0": np.ones((4, 3, 3)).tolist()}
        doc[key] = "abc"
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps(doc))
        code = cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--priors-file", str(priors),
                         "--output", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(priors) in err
        assert f"{key!r} must be an array of numbers" in err

    @pytest.mark.parametrize("name, edit", [
        ("posterior", lambda doc: doc.update(posterior="abc")),
        ("posterior", lambda doc: doc["posterior"][0].append([1.0])),
        ("params.alpha", lambda doc: doc["params"].update(alpha=["x"])),
        ("params.beta", lambda doc: doc["params"].update(beta={"a": 1}))])
    def test_result_non_numeric_array(self, dataset, tmp_path, capsys, name,
                                      edit):
        code, result = self.bounds_on_edited_result(dataset, tmp_path, edit)
        assert code == 2
        err = capsys.readouterr().err
        assert str(result) in err
        assert f"{name!r} must be an array of numbers" in err

    @staticmethod
    def bounds_on_edited_result(dataset, tmp_path, edit):
        """Exit code of `bounds` on a vb result changed by `edit`, and the
        edited result's path."""
        vb_out = tmp_path / "vb.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--output", str(vb_out)]) == 0
        doc = json.loads(vb_out.read_text())
        edit(doc)
        result = tmp_path / "result.json"
        result.write_text(json.dumps(doc))
        code = cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                         "--result", str(result),
                         "--truth", str(dataset["truth_path"]),
                         "--output", str(tmp_path / "b.json")])
        return code, result

    @pytest.mark.parametrize("key", ["index_maps", "params"])
    def test_result_nested_field_not_an_object(self, dataset, tmp_path,
                                               capsys, key):
        code, result = self.bounds_on_edited_result(
            dataset, tmp_path, lambda doc: doc.update({key: [1, 2]}))
        assert code == 2
        err = capsys.readouterr().err
        assert str(result) in err
        assert f"expected a JSON object at {key!r}, found list" in err

    @pytest.mark.parametrize("items", [5, [1, 2], [["a"]]])
    def test_result_item_ids_not_strings(self, dataset, tmp_path, capsys,
                                         items):
        code, result = self.bounds_on_edited_result(
            dataset, tmp_path,
            lambda doc: doc["index_maps"].update({"items": items}))
        assert code == 2
        assert f"{result}: expected a JSON array of strings at 'items'" in \
            capsys.readouterr().err

    def test_result_posterior_shape_names_file(self, dataset, tmp_path,
                                               capsys):
        code, result = self.bounds_on_edited_result(
            dataset, tmp_path, lambda doc: doc["posterior"].pop())
        assert code == 2
        assert f"{result}: result posterior does not match the spec " \
            "dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (b'{"alpha0": [1, 2],', "Expecting property name"),
        (b"[1, 2", "Expecting ',' delimiter"),
        (b"", "Expecting value"),
        (b'\xff{"a": 1}', "can't decode byte 0xff")])
    @pytest.mark.parametrize("flag", ["--spec-json", "--result",
                                      "--priors-file"])
    def test_malformed_json_names_file(self, dataset, tmp_path, capsys, flag,
                                       text, message):
        # Malformed JSON printed the parser's message alone, without the
        # file; bytes that are not UTF-8 exited 4.
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        vb = tmp_path / "vb.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--output", str(vb)]) == 0
        inputs = {"--spec-json": dataset["spec_path"], "--result": vb,
                  flag: bad}
        assert cli.main(["bounds", "--truth", str(dataset["truth_path"]),
                         "--output", str(tmp_path / "b.json"),
                         *itertools.chain(*((key, str(path)) for key, path
                                            in inputs.items()))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    @pytest.mark.parametrize("key", ["pi_star", "gamma_star", "mu"])
    def test_spec_non_finite_field(self, dataset, tmp_path, capsys, command,
                                   key):
        # json reads NaN tokens back. A NaN mu or gamma_star passed the
        # spec's range checks, and synth wrote a crowd with no responses
        # or all labels 1.
        spec = json.loads(dataset["spec_path"].read_text())
        spec[key] = np.full(np.shape(spec[key]), np.nan).tolist()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out.csv"
        if command == "synth":
            argv = ["synth", "--spec-json", str(spec_path),
                    "--out-responses", str(out),
                    "--out-truth", str(tmp_path / "t.csv")]
        else:
            argv = ["experiment", "--spec-json", str(spec_path), "--nc", "0",
                    "--output", str(out)]
        assert cli.main(argv) == 4
        assert f"{key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, edit", [
        ("posterior",
         lambda doc: doc["posterior"][3].__setitem__(1, float("nan"))),
        ("posterior alpha",
         lambda doc: doc["params"]["alpha"].__setitem__(0, float("nan"))),
        ("posterior beta",
         lambda doc: doc["params"]["beta"][1][2].__setitem__(0,
                                                             float("inf")))])
    def test_result_non_finite_array(self, dataset, tmp_path, capsys, name,
                                     edit):
        # A NaN passed as a positive parameter or a probability, and
        # bounds exited 0 with a "violated" or "nan" entry.
        code, _ = self.bounds_on_edited_result(dataset, tmp_path, edit)
        assert code == 4
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()

    def test_internal_key_error_propagates(self, dataset, tmp_path,
                                           monkeypatch):
        def broken(rm):
            raise KeyError("internal")
        monkeypatch.setattr(aggregators, "majority_vote", broken)
        with pytest.raises(KeyError):
            cli.main(["aggregate", "--responses", str(dataset["responses"]),
                      "--method", "mv", "--output", str(tmp_path / "o.json")])

    @pytest.mark.parametrize("argv, message", [
        (["aggregate", "--method", "vb-lc"],
         "vb-lc needs LABEL rows in a constraints file"),
        (["aggregate", "--method", "vb-lc", "--constraints", "{pairs}"],
         "vb-lc needs LABEL rows in a constraints file"),
        (["aggregate", "--method", "vb-ilc"],
         "vb-ilc needs a constraints file"),
        (["experiment"],
         "experiment needs --spec-json or --responses with --truth"),
        (["experiment", "--responses", "{responses}"],
         "experiment needs --spec-json or --responses with --truth"),
    ], ids=["vb-lc-no-file", "vb-lc-no-labels", "vb-ilc-no-file",
            "experiment-no-input", "experiment-no-truth"])
    def test_missing_input_exit_2(self, dataset, tmp_path, capsys,
                                  monkeypatch, argv, message):
        # Raised before any VB fit: aggregate's vb-lc and vb-ilc faults
        # used to exit only after a full vbem_fit.
        monkeypatch.setattr(aggregators, "vbem_fit", fit_must_not_run)
        pairs = tmp_path / "pairs.csv"
        write_constraints(pairs, [("ML", *dataset["rm"].item_ids[:2])])
        if argv[0] == "aggregate":
            argv = [*argv, "--responses", "{responses}", "--k", "3"]
        out = tmp_path / "out"
        argv = [a.format(pairs=pairs, responses=dataset["responses"])
                for a in argv]
        assert cli.main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--spec-json", "--responses",
                                      "--output"])
    def test_directory_path_exit_2(self, dataset, tmp_path, capsys, flag):
        # A directory ended in an IsADirectoryError traceback.
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = {
            "--spec-json": ["synth", "--spec-json", str(folder),
                            "--out-responses", str(tmp_path / "r.csv"),
                            "--out-truth", str(tmp_path / "t.csv")],
            "--responses": ["aggregate", "--responses", str(folder),
                            "--method", "mv", "--output",
                            str(tmp_path / "o.json")],
            "--output": ["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "mv",
                         "--output", str(folder)],
        }[flag]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err

    def test_uniform_priors_are_a_file_of_ones(self, dataset, tmp_path):
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps({"alpha0": [1.0] * 3,
                                    "beta0": np.ones((4, 3, 3)).tolist()}))
        docs = {}
        for name, flags in [("uniform", ["--priors", "uniform"]),
                            ("ones", ["--priors-file", str(ones)]),
                            ("default", [])]:
            out = tmp_path / f"{name}.json"
            assert cli.main(["aggregate", "--responses",
                             str(dataset["responses"]), "--method", "vb",
                             "--k", "3", *flags, "--output", str(out)]) == 0
            docs[name] = json.loads(out.read_text())
            del docs[name]["timestamp"]
        assert docs["uniform"] == docs["ones"]
        assert docs["uniform"] != docs["default"]


class TestCliNonFiniteWeights:
    # A NaN or infinite weight, or a NaN tolerance, exits 4 before any
    # arithmetic runs on it (RuntimeWarnings are errors here) and writes
    # no output.
    @pytest.mark.parametrize("command, flags, message", [
        ("aggregate", ["--eta", "nan"], "eta must be finite"),
        ("aggregate", ["--eta", "inf"], "eta must be finite"),
        ("aggregate", ["--eta-grid", "1,nan"], "eta must be finite"),
        ("aggregate", ["--tol", "nan"], "tol must be >= 0"),
        ("experiment", ["--eta-grid", "nan"], "eta must be finite"),
        ("experiment", ["--tol", "nan"], "tol must be >= 0"),
    ])
    def test_exit_4(self, dataset, capsys, monkeypatch, command, flags,
                    message):
        # Both commands check their weights before any VB fit.
        monkeypatch.setattr(aggregators, "vbem_fit", fit_must_not_run)
        ids, labels = dataset["rm"].item_ids, dataset["truth"].labels
        cons = dataset["dir"] / "labels.csv"
        write_constraints(cons, [("LABEL", ids[i], int(labels[i]))
                                 for i in range(6)])
        out = dataset["dir"] / "out"
        if command == "aggregate":
            argv = ["aggregate", "--responses", str(dataset["responses"]),
                    "--method", "vb-ilc", "--constraints", str(cons),
                    "--k", "3"]
        else:
            argv = ["experiment", "--spec-json", str(dataset["spec_path"]),
                    "--nc", "12", "--protocols", "label-derived"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv + flags + ["--output", str(out)])
        assert code == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan", "1,-2"])
    def test_experiment_grid_checked_without_constraints(self, dataset,
                                                         capsys, grid):
        # At N_C = 0 no cell searches the grid; it is checked all the same.
        out = dataset["dir"] / "exp.csv"
        code = cli.main(["experiment", "--spec-json",
                         str(dataset["spec_path"]), "--nc", "0",
                         "--eta-grid", grid, "--output", str(out)])
        assert code == 4
        assert "eta must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["aggregate", "experiment"])
def test_empty_eta_grid_rejected(dataset, capsys, monkeypatch, command):
    # aggregate took an empty --eta-grid for no grid and fitted --eta alone.
    # Both commands reject it before any VB fit.
    monkeypatch.setattr(aggregators, "vbem_fit", fit_must_not_run)
    cons = dataset["dir"] / "c.csv"
    write_constraints(cons, [("ML", *dataset["rm"].item_ids[:2])])
    inputs = {"aggregate": ["--responses", str(dataset["responses"]),
                            "--method", "vb-ilc", "--k", "3",
                            "--constraints", str(cons)],
              "experiment": ["--spec-json", str(dataset["spec_path"])]}
    out = dataset["dir"] / "out"
    assert cli.main([command, *inputs[command], "--eta-grid", "",
                     "--output", str(out)]) == 2
    assert "bad eta grid ''" in capsys.readouterr().err
    assert not out.exists()


class TestCliExperimentCounts:
    @pytest.mark.parametrize("flags, code, message", [
        (["--nc", "abc"], 2, "bad N_C list 'abc'"),
        (["--nc", "5,x"], 2, "bad N_C list '5,x'"),
        (["--nc", "-3"], 4, "N_C must be >= 0, got -3"),
        (["--repeats", "0"], 4, "repeats must be >= 1, got 0"),
        (["--repeats", "-2"], 4, "repeats must be >= 1, got -2"),
        (["--protocols", "label-derived,bogus"], 2,
         "protocol list 'label-derived,bogus': unknown entry 'bogus'"),
        (["--protocols", "label-derived,label-derived"], 2,
         "protocol list 'label-derived,label-derived': repeated entry "
         "'label-derived'"),
        (["--nc", "0,3,03"], 2, "N_C list '0,3,03': repeated entry 3"),
    ])
    def test_rejected_before_any_cell(self, dataset, capsys, flags, code,
                                      message):
        # A count that is not an integer, an unknown protocol or a
        # repeated entry is malformed input; a negative N_C or fewer than
        # one repeat is a domain error. Either way no CSV is written, where
        # a header-only CSV, numpy's own error or each row twice was.
        out = dataset["dir"] / "exp.csv"
        assert cli.main(["experiment", "--spec-json",
                         str(dataset["spec_path"]), *flags,
                         "--output", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCliConstraintConflict:
    def test_direct_conflict_named_in_any_row_order(self, tmp_path, capsys):
        # Pairs (0, 6) and (1, 5) are both must- and cannot-links; the
        # smaller is named whatever the rows' order.
        r = tmp_path / "r.csv"
        assert cli.main(["synth", "--n", "10", "--m", "3", "--k", "2",
                         "--seed", "1", "--out-responses", str(r),
                         "--out-truth", str(tmp_path / "t.csv"),
                         "--out-spec", str(tmp_path / "s.json")]) == 0
        rows = [("ML", 0, 2), ("ML", 0, 6), ("ML", 1, 5), ("ML", 7, 3),
                ("CL", 1, 4), ("CL", 1, 5), ("CL", 5, 0), ("CL", 6, 0)]
        messages = set()
        for seed in range(8):
            order = np.random.default_rng(seed).permutation(len(rows))
            cons = tmp_path / "c.csv"
            write_constraints(cons, [rows[i] for i in order])
            assert cli.main(["aggregate", "--responses", str(r),
                             "--method", "vb-ilc", "--constraints",
                             str(cons), "--output",
                             str(tmp_path / "o.json")]) == 3
            messages.add(capsys.readouterr().err)
        assert messages == {"error: conflicting constraints on pair "
                            "('0', '6')\n"}

    def test_closure_conflict_named_in_any_row_order(self, tmp_path,
                                                      capsys):
        # A must-link chain through items 0..40 puts every cannot-link
        # inside one component; the smallest, (0, 15), is named whatever
        # the rows' order.
        r = tmp_path / "r.csv"
        assert cli.main(["synth", "--n", "41", "--m", "3", "--k", "2",
                         "--seed", "1", "--out-responses", str(r),
                         "--out-truth", str(tmp_path / "t.csv")]) == 0
        rows = [("ML", i, i + 1) for i in range(40)] + [
            ("CL", a, b) for a, b in [(0, 15), (3, 7), (5, 19), (2, 11),
                                      (30, 33), (1, 39)]]
        messages = []
        for ordered in (rows, rows[::-1]):
            cons = tmp_path / "c.csv"
            write_constraints(cons, ordered)
            assert cli.main(["aggregate", "--responses", str(r),
                             "--method", "vb-ilc", "--constraints",
                             str(cons), "--output",
                             str(tmp_path / "o.json")]) == 3
            messages.append(capsys.readouterr().err)
        assert messages == ["error: conflicting constraints on pair "
                            "('0', '15')\n"] * 2

    @staticmethod
    def crowd(tmp_path):
        """A crowd of three items whose ids are not their positions: the
        responses, truth and spec files, and a vb result on them."""
        r, t = tmp_path / "r.csv", tmp_path / "t.csv"
        r.write_text("item,annotator,label\nzeta,a,1\nalpha,a,2\nmid,a,1\n"
                     "zeta,b,1\nalpha,b,2\nmid,b,2\n")
        t.write_text("item,label\nzeta,1\nalpha,2\nmid,1\n")
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(
            diag_dominant_spec(3, 2, 2, 0.8, seed=1).to_dict()))
        vb = tmp_path / "vb.json"
        assert cli.main(["aggregate", "--responses", str(r), "--method",
                         "vb", "--output", str(vb)]) == 0
        return r, t, spec, vb

    # Items 0, 1, 2 of the crowd are zeta, alpha, mid.
    DIRECT = ([("ML", "alpha", "mid"), ("CL", "mid", "alpha")],
              "conflicting constraints on pair ('alpha', 'mid')")
    LABEL = ([("LABEL", "mid", 1), ("LABEL", "mid", 2)],
             "conflicting label constraints on item 'mid': classes 1 and 2")
    CLOSURE = ([("ML", "zeta", "alpha"), ("ML", "alpha", "mid"),
                ("CL", "mid", "zeta")],
               "conflicting constraints on pair ('zeta', 'mid')")

    @pytest.mark.parametrize("method, rows, message", [
        ("vb-ilc", *DIRECT), ("vb-ilc", *LABEL), ("vb-ilc", *CLOSURE),
        ("vb-lc", *LABEL)])
    def test_aggregate_names_item_ids(self, tmp_path, capsys, monkeypatch,
                                      method, rows, message):
        r, *_ = self.crowd(tmp_path)
        # Every conflict, the closure's included, is found before the fit.
        monkeypatch.setattr(aggregators, "vbem_fit", fit_must_not_run)
        cons = tmp_path / "c.csv"
        write_constraints(cons, rows)
        assert cli.main(["aggregate", "--responses", str(r), "--method",
                         method, "--constraints", str(cons), "--output",
                         str(tmp_path / "o.json")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rows, message", [DIRECT, LABEL])
    def test_bounds_names_item_ids(self, tmp_path, capsys, rows, message):
        r, t, spec, vb = self.crowd(tmp_path)
        cons = tmp_path / "c.csv"
        write_constraints(cons, rows)
        assert cli.main(["bounds", "--spec-json", str(spec), "--result",
                         str(vb), "--truth", str(t), "--constraints",
                         str(cons), "--eta", "1", "--output",
                         str(tmp_path / "b.json")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliSynthExperimentBounds:
    def test_synth_roundtrip(self, tmp_path):
        proc = run_cli(["synth", "--n", "30", "--m", "3", "--k", "2",
                        "--diag", "0.8", "--seed", "3",
                        "--out-responses", str(tmp_path / "r.csv"),
                        "--out-truth", str(tmp_path / "t.csv"),
                        "--out-spec", str(tmp_path / "s.json")])
        assert proc.returncode == 0, proc.stderr
        rm = read_responses(tmp_path / "r.csv", n_classes=2)
        assert rm.n_items == 30
        truth = read_truth(tmp_path / "t.csv", rm.item_ids, 2)
        assert np.all(truth.known_mask)

    def test_experiment_runs(self, dataset):
        out = dataset["dir"] / "exp.csv"
        proc = run_cli(["experiment", "--spec-json",
                        str(dataset["spec_path"]), "--nc", "0,12",
                        "--repeats", "1", "--protocols",
                        "random-constraints,label-derived",
                        "--eta-grid", "1", "--seed", "5",
                        "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("protocol,n_c,repeat,method,eta,n_v,"
                            "accuracy,micro_f1,macro_f1")
        # 2 protocols x 2 sizes x 5 methods.
        assert len(lines) == 1 + 2 * 2 * 5

    def test_bounds_report(self, dataset):
        vb_out = dataset["dir"] / "vb.json"
        proc = run_cli(["aggregate", "--responses",
                        str(dataset["responses"]), "--method", "vb",
                        "--k", "3", "--truth", str(dataset["truth_path"]),
                        "--output", str(vb_out)])
        assert proc.returncode == 0, proc.stderr
        report_out = dataset["dir"] / "bounds.json"
        proc = run_cli(["bounds", "--spec-json", str(dataset["spec_path"]),
                        "--result", str(vb_out), "--truth",
                        str(dataset["truth_path"]),
                        "--output", str(report_out)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(report_out.read_text())
        assert "U" in doc and "statuses" in doc
        assert doc["empirical"]["max_label_error"] is not None

    @pytest.mark.parametrize("method", ["mv", "ds"])
    def test_bounds_on_a_fit_without_dirichlet_parameters(self, dataset,
                                                          method):
        # An mv or ds result has no alpha or beta: only the label error is
        # measured, and the parameter bounds are compared with nothing.
        result = dataset["dir"] / f"{method}.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", method,
                         "--k", "3", "--output", str(result)]) == 0
        report = dataset["dir"] / "bounds.json"
        assert cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                         "--result", str(result), "--truth",
                         str(dataset["truth_path"]),
                         "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        posterior = np.array(json.loads(result.read_text())["posterior"])
        onehot = np.eye(3)[dataset["truth"].labels - 1]
        assert doc["empirical"] == {
            "max_label_error": float(np.max(np.abs(posterior - onehot))),
            "max_pi_error": None, "max_gamma_error": None}
        assert "eps_pi_vs_empirical" not in doc["statuses"]
        assert "eps_gamma_vs_empirical" not in doc["statuses"]

    def test_ds_result_carries_its_point_estimates(self, dataset):
        result = dataset["dir"] / "ds.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "ds",
                         "--k", "3", "--output", str(result)]) == 0
        fit = aggregators.ds_em_fit(read_responses(dataset["responses"],
                                                   n_classes=3))
        assert json.loads(result.read_text())["params"] == {
            "pi_hat": fit.pi_hat.tolist(),
            "gamma_hat": fit.gamma_hat.tolist()}

    def test_vacuous_bounds_are_strict_json(self, tmp_path):
        # This crowd's label and confusion bounds are infinite in places;
        # they are written as strings, never as bare Infinity or NaN.
        r, t, s = (tmp_path / name for name in ("r.csv", "t.csv", "s.json"))
        assert cli.main(["synth", "--n", "300", "--m", "8", "--k", "3",
                         "--mu", "0.7", "--seed", "3", "--out-responses",
                         str(r), "--out-truth", str(t),
                         "--out-spec", str(s)]) == 0
        assert cli.main(["aggregate", "--responses", str(r), "--k", "3",
                         "--method", "vb", "--output",
                         str(tmp_path / "vb.json")]) == 0
        out = tmp_path / "bounds.json"
        assert cli.main(["bounds", "--spec-json", str(s), "--result",
                         str(tmp_path / "vb.json"), "--truth", str(t),
                         "--output", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")
        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert "inf" in doc["tilde_eps_q"]
        assert "inf" in np.ravel(doc["eps_gamma_bound"]).tolist()


class TestCliBoundsConstraints:
    @staticmethod
    def run_bounds(dataset, rows, monkeypatch, *extra):
        """Exit code of `bounds --eta 1` on a vb result, with a constraints
        file of `rows`, and the constraint counts it computed."""
        vb = dataset["dir"] / "vb.json"
        if not vb.exists():
            assert cli.main(["aggregate", "--responses",
                             str(dataset["responses"]), "--method", "vb",
                             "--k", "3", "--output", str(vb)]) == 0
        cons = dataset["dir"] / "cons.csv"
        write_constraints(cons, rows)
        counts = []

        def recording(*args):
            counts.append(real(*args))
            return counts[-1]
        real = bounds.constraint_counts
        monkeypatch.setattr(bounds, "constraint_counts", recording)
        code = cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                         "--result", str(vb),
                         "--truth", str(dataset["truth_path"]),
                         "--constraints", str(cons), "--eta", "1", *extra,
                         "--output", str(dataset["dir"] / "b.json")])
        return code, counts

    def test_label_rows_count_as_their_pairs(self, dataset, monkeypatch):
        # LABEL rows for items 0..14 give the degrees and per-class
        # cannot-link counts of the ML/CL file of every pair they imply.
        ids, labels = dataset["rm"].item_ids, dataset["truth"].labels
        labelled = range(15)
        code, [from_labels] = self.run_bounds(
            dataset, [("LABEL", ids[i], int(labels[i])) for i in labelled],
            monkeypatch)
        assert code == 0
        pairs = [("ML" if labels[a] == labels[b] else "CL", ids[a], ids[b])
                 for a, b in itertools.combinations(labelled, 2)]
        code, [from_pairs] = self.run_bounds(dataset, pairs, monkeypatch)
        assert code == 0
        assert from_labels.keys() == from_pairs.keys()
        for key in from_labels:
            np.testing.assert_array_equal(from_labels[key], from_pairs[key])
        n_ml, n_cl = from_labels["n_ml_per_item"], from_labels["n_cl_per_item"]
        assert np.count_nonzero(n_ml + n_cl) == len(labelled)

    @pytest.mark.parametrize("labels, code, message", [
        ([(0, 1), (0, 2)], 3, "item '0': classes 1 and 2"),
        ([(0, 7)], 4, "constraint class 7 outside 1..3")])
    def test_label_rows_checked_as_under_aggregate(
            self, dataset, monkeypatch, capsys, labels, code, message):
        ids = dataset["rm"].item_ids
        assert self.run_bounds(
            dataset, [("LABEL", ids[i], c) for i, c in labels],
            monkeypatch)[0] == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--tol", "1e-6"], ["--max-iters", "3"],
                                      ["--seed", "4"], ["--k", "9"]])
    def test_fit_flags_are_usage_errors(self, dataset, flag):
        # `bounds` fits nothing, so it takes only the priors flags.
        with pytest.raises(SystemExit) as exited:
            cli.main(["bounds", "--spec-json", str(dataset["spec_path"]),
                      "--result", str(dataset["dir"] / "vb.json"),
                      "--truth", str(dataset["truth_path"]), *flag,
                      "--output", str(dataset["dir"] / "b.json")])
        assert exited.value.code == 2


class TestCliBoundsInputs:
    @staticmethod
    def bounds_argv(dataset, *extra):
        vb = dataset["dir"] / "vb.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--output", str(vb)]) == 0
        return ["bounds", "--spec-json", str(dataset["spec_path"]),
                "--result", str(vb), "--truth", str(dataset["truth_path"]),
                *extra, "--output", str(dataset["dir"] / "b.json")]

    # A NaN passed the error levels' `min(...) < 0` test, and no other
    # number was checked: each of these exited 0, as `--eps-pi nan` with
    # `eps_pi_vs_empirical: held`.
    @pytest.mark.parametrize("flag, value, name", [
        ("--eps-pi", "nan", "eps_pi"), ("--eps-gamma", "nan", "eps_gamma"),
        ("--eps-q", "nan", "eps_q"), ("--eps-q", "inf", "eps_q"),
        ("--eta", "nan", "eta"), ("--eta", "-1", "eta"),
        ("--g-pi", "nan", "g_pi"), ("--g-gamma", "nan", "g_gamma"),
        ("--t-scale", "nan", "t_scale"), ("--r-scale", "nan", "r_scale"),
        ("--r-scale", "-0.5", "r_scale"),
    ])
    def test_exit_4_naming_the_input(self, dataset, capsys, flag, value,
                                     name):
        argv = self.bounds_argv(dataset, flag, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 4
        assert capsys.readouterr().err == \
            f"error: {name} must be finite and >= 0, got {float(value)}\n"
        assert not (dataset["dir"] / "b.json").exists()

    def test_priors_of_another_shape_exit_4(self, dataset, tmp_path, capsys):
        # The crowd has 4 annotators and 3 classes; numpy's broadcast error
        # was the message.
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps({"alpha0": [1.0] * 2,
                                      "beta0": np.ones((4, 2, 2)).tolist()}))
        argv = self.bounds_argv(dataset, "--priors-file", str(priors))
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: priors are for 4 annotators and 2 classes, the spec "
            "for 4 and 3\n")
        assert not (dataset["dir"] / "b.json").exists()

    def test_observed_errors_evaluated_once(self, dataset, monkeypatch):
        # The default error levels and the report's comparison share one
        # evaluation of the result's errors.
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)
        real = bounds.empirical_errors
        monkeypatch.setattr(bounds, "empirical_errors", counted)
        assert cli.main(self.bounds_argv(dataset)) == 0
        assert len(calls) == 1
        report = json.loads((dataset["dir"] / "b.json").read_text())
        assert report["empirical"] == dict(zip(
            ("max_label_error", "max_pi_error", "max_gamma_error"),
            real(*calls[0])))


    def test_no_known_truth_exit_4(self, dataset, capsys):
        # A header-only truth file gives no item a label; numpy's
        # "zero-size array to reduction operation maximum" was the message.
        truth = dataset["dir"] / "no_truth.csv"
        truth.write_text("item,label\n")
        argv = self.bounds_argv(dataset)
        argv[argv.index("--truth") + 1] = str(truth)
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == "error: no item has known truth\n"
        assert not (dataset["dir"] / "b.json").exists()

    def test_zero_confusion_entry_exit_4(self, tmp_path, capsys):
        # Perfect annotators: gamma_star has zeros off the diagonal, and
        # f_gamma's division by rho_gamma = 0 was the message.
        r, t, s, vb = (tmp_path / name
                       for name in ("r.csv", "t.csv", "s.json", "vb.json"))
        assert cli.main(["synth", "--n", "60", "--m", "4", "--k", "2",
                         "--diag", "1.0", "--seed", "1", "--out-responses",
                         str(r), "--out-truth", str(t),
                         "--out-spec", str(s)]) == 0
        assert cli.main(["aggregate", "--responses", str(r), "--k", "2",
                         "--method", "vb", "--output", str(vb)]) == 0
        out = tmp_path / "b.json"
        assert cli.main(["bounds", "--spec-json", str(s), "--result",
                         str(vb), "--truth", str(t),
                         "--output", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: the bounds need every gamma_star entry > 0, and "
            "(m, k, k') = (0, 0, 1) is 0\n")
        assert not out.exists()


class TestCliWritesLibraryReport:
    @pytest.mark.parametrize("with_constraints", [False, True])
    def test_written_json_is_report_json(self, dataset, with_constraints):
        # The CLI writes the library's report as it stands: no second
        # spelling or reshaping between build_report and the file.
        vb, out = dataset["dir"] / "vb.json", dataset["dir"] / "b.json"
        assert cli.main(["aggregate", "--responses",
                         str(dataset["responses"]), "--method", "vb",
                         "--k", "3", "--output", str(vb)]) == 0
        argv = ["bounds", "--spec-json", str(dataset["spec_path"]),
                "--result", str(vb), "--truth", str(dataset["truth_path"]),
                "--output", str(out)]
        ids, labels = dataset["rm"].item_ids, dataset["truth"].labels
        if with_constraints:
            cons = dataset["dir"] / "cons.csv"
            write_constraints(cons, [("ML", ids[0], ids[1]),
                                     ("CL", ids[2], ids[3]),
                                     *[("LABEL", ids[i], int(labels[i]))
                                       for i in (4, 5, 6)]])
            argv += ["--constraints", str(cons), "--eta", "2"]
        assert cli.main(argv) == 0

        spec = CrowdSpec.from_dict(json.loads(
            dataset["spec_path"].read_text()))
        doc = json.loads(vb.read_text())
        params = PosteriorParams(alpha=np.array(doc["params"]["alpha"]),
                                 beta=np.array(doc["params"]["beta"]))
        truth = read_truth(dataset["truth_path"], ids, 3)
        errors = bounds.empirical_errors(np.array(doc["posterior"]), params,
                                         truth, spec)
        counts = {}
        if with_constraints:
            cs = constraints.join_labels(*read_constraints(cons, ids), 60, 3)
            counts = bounds.constraint_counts(cs, truth, 60, 3)
        inputs = bounds.BoundInputs(
            spec=spec, priors=paper_default_priors(4, 3), eps_q=errors[0],
            eps_pi=errors[1], eps_gamma=errors[2],
            eta=2.0 if with_constraints else 0.0, **counts)
        report = bounds.empirical_vs_bound(
            bounds.build_report(inputs, nu_scales=(0.5, 0.5)), errors)
        assert json.loads(out.read_text()) == bounds.report_json(report)


class TestCliTruthLabelRange:
    @pytest.mark.parametrize("command", ["aggregate", "experiment",
                                         "bounds"])
    def test_label_above_class_count(self, dataset, capsys, command):
        # A K=3 crowd and a truth row of class 7: exit 2 naming the line,
        # where `bounds` raised IndexError and `aggregate` scored the row.
        ids, out = dataset["rm"].item_ids, dataset["dir"] / "out"
        truth = dataset["dir"] / "bad_truth.csv"
        truth.write_text(f"item,label\n{ids[0]},1\n{ids[1]},7\n")
        responses = ["--responses", str(dataset["responses"]), "--k", "3"]
        argv = {
            "aggregate": ["aggregate", *responses, "--method", "mv"],
            "experiment": ["experiment", *responses, "--nc", "0"],
            "bounds": ["bounds", "--spec-json", str(dataset["spec_path"]),
                       "--result", str(dataset["dir"] / "vb.json")],
        }[command]
        assert cli.main(["aggregate", *responses, "--method", "vb",
                         "--output", str(dataset["dir"] / "vb.json")]) == 0
        assert cli.main([*argv, "--truth", str(truth),
                         "--output", str(out)]) == 2
        assert "bad_truth.csv:3: label 7 outside 0..3" in \
            capsys.readouterr().err
        assert not out.exists()


class TestCliDeterminism:
    def strip_timestamp(self, text):
        doc = json.loads(text)
        doc.pop("timestamp", None)
        return doc

    def test_repeat_invocations_identical(self, dataset):
        docs = []
        for i in range(2):
            out = dataset["dir"] / f"rep-{i}.json"
            proc = run_cli(["aggregate", "--responses",
                            str(dataset["responses"]), "--method", "vb",
                            "--k", "3", "--seed", "7",
                            "--output", str(out)])
            assert proc.returncode == 0, proc.stderr
            docs.append(self.strip_timestamp(out.read_text()))
        assert docs[0] == docs[1]


class TestParserOnce:
    def test_calls_read_as_with_a_fresh_parser(self, dataset):
        # `main` builds its parser once; a second call that leaves out
        # flags the first gave (--eta-grid, --truth) writes what it writes
        # when it is the first call, and so does the first call.
        ids, labels = dataset["rm"].item_ids, dataset["truth"].labels
        same = [i for i in range(len(ids)) if labels[i] == labels[0]]
        other = next(i for i in range(len(ids)) if labels[i] != labels[0])
        cons = dataset["dir"] / "c.csv"
        cons.write_text(f"kind,a,b\nML,{ids[0]},{ids[same[1]]}\n"
                        f"CL,{ids[0]},{ids[other]}\n")
        common = ["aggregate", "--responses", str(dataset["responses"]),
                  "--method", "vb-ilc", "--constraints", str(cons),
                  "--max-iters", "5"]
        calls = [common + ["--eta-grid", "0.5,2", "--truth",
                           str(dataset["truth_path"])], common]

        def documents(fresh):
            docs = []
            for i, argv in enumerate(calls):
                if fresh:
                    cli.build_parser.cache_clear()
                out = dataset["dir"] / f"{fresh}-{i}.json"
                assert cli.main(argv + ["--output", str(out)]) == 0
                docs.append(re.sub(r'"timestamp": "[^"]*"', "",
                                   out.read_text()))
            return docs

        cached, fresh = documents(False), documents(True)
        assert cached == fresh
        assert '"eta_table": null' in cached[1]
        assert '"scores": null' in cached[1]
        assert '"eta_table": null' not in cached[0]
