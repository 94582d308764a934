from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

from promex.cli import default_config_path, default_gazetteer_path
from promex.corpus_io import load_corpus, save_corpus
from promex.ingest import OrgGazetteer
from promex.model import Corpus, Provenance, RelationMention, Span, Token
from promex.patterns import expand, parse_config

from conftest import run_cli

EXAMPLES_DIR = "src/promex/data/examples"
GOLDEN = "src/promex/data/golden.corpus"


class TestPatternsExpand:
    def test_count_only(self, capsys):
        code, out, err = run_cli(["patterns", "expand", "--count-only"], capsys)
        assert code == 0
        assert out.strip() == "173"

    def test_full_listing(self, capsys):
        code, out, _ = run_cli(["patterns", "expand"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 173
        assert lines[0].startswith("P01#000\t")

    def test_custom_config(self, tmp_path, capsys):
        config = tmp_path / "tiny.pat"
        config.write_text("P1: <ORG> <TRIG:~offer> <PRO>\n")
        code, out, _ = run_cli(
            ["patterns", "expand", "--config", str(config), "--count-only"], capsys
        )
        assert code == 0
        assert out.strip() == "4"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.pat"
        config.write_text("P1: <ORG> <PRO>\n")
        code, _, err = run_cli(
            ["patterns", "expand", "--config", str(config), "--count-only"], capsys
        )
        assert code == 2
        assert "trigger" in err


class TestPreannotate:
    def test_bundled_examples(self, tmp_path, capsys):
        out_file = tmp_path / "out.corpus"
        code, out, _ = run_cli(
            ["preannotate", "--in", EXAMPLES_DIR, "--out", str(out_file), "--tagged"],
            capsys,
        )
        assert code == 0
        assert "pattern" in out and "total" in out
        corpus = load_corpus(str(out_file))
        assert len(corpus.documents) == 7
        total_relations = sum(len(d.relations) for d in corpus.documents)
        assert total_relations >= 8

    def test_jobs_flag_order_independent(self, tmp_path, capsys):
        single = tmp_path / "single.corpus"
        multi = tmp_path / "multi.corpus"
        code1, _, _ = run_cli(
            ["preannotate", "--in", EXAMPLES_DIR, "--out", str(single), "--tagged"],
            capsys,
        )
        code2, _, _ = run_cli(
            ["preannotate", "--in", EXAMPLES_DIR, "--out", str(multi), "--tagged",
             "--jobs", "4"],
            capsys,
        )
        assert code1 == code2 == 0
        assert single.read_text() == multi.read_text()

    def test_raw_text_ingestion(self, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        (src / "a.txt").write_text("Sensata Technologies develops sensors and controls.")
        out_file = tmp_path / "out.corpus"
        code, _, _ = run_cli(
            ["preannotate", "--in", str(src), "--out", str(out_file)], capsys
        )
        assert code == 0
        corpus = load_corpus(str(out_file))
        assert len(corpus.documents[0].relations) == 1

    def test_raw_text_with_lowercase_symbol(self, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        (src / "a.txt").write_text("Garmin sells ⓐ thermostats.", encoding="utf-8")
        out_file = tmp_path / "out.corpus"
        code, _, err = run_cli(["preannotate", "--in", str(src), "--out", str(out_file)], capsys)
        assert (code, err) == (0, "")
        assert load_corpus(str(out_file)).documents[0].tokens[2].pos == "SYM"

    def test_match_crossing_a_product_minted_earlier_is_dropped(self, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        (src / "a.txt").write_text("Intel is Samsung developing chips providers .", encoding="utf-8")
        out_file = tmp_path / "out.corpus"
        code, out, err = run_cli(["preannotate", "--in", str(src), "--out", str(out_file)], capsys)
        assert (code, err) == (0, "")
        [doc] = load_corpus(str(out_file)).documents
        # the dropped P03 match still takes the id r1
        assert [(r.relation_id, r.pattern_id) for r in doc.relations] == [
            ("a-pre-s0-r0", "P05"), ("a-pre-s0-r2", "nested"),
        ]
        assert "P03" not in out

    @pytest.mark.parametrize("clitic", ["'s", "’s"])
    def test_raw_text_possessive_clitic(self, clitic, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        (src / "a.txt").write_text(f"Apple{clitic} iPhone is great.", encoding="utf-8")
        out_file = tmp_path / "out.corpus"
        code, out, _ = run_cli(["preannotate", "--in", str(src), "--out", str(out_file)], capsys)
        assert code == 0
        doc = load_corpus(str(out_file)).documents[0]
        [rel] = doc.relations
        assert (rel.pattern_id, doc.span_text(rel.trigger)) == ("P01", clitic)
        assert [doc.span_text(doc.entity(p).span) for p in rel.products] == ["iPhone"]
        assert "nested" not in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        ("name", "content", "tagged", "message"),
        [
            ("bad.conll", b"Apple\tNNP\nWatch\n", True, "line 2: malformed column line"),
            ("bad.txt", b"\xff\xfeAcme sells widgets.\n", False, "can't decode byte 0xff"),
        ],
        ids=["malformed-column", "non-utf8"],
    )
    def test_bad_input_file_exits_2_without_corpus(
        self, name, content, tagged, message, jobs, tmp_path, capsys
    ):
        src = tmp_path / "docs"
        src.mkdir()
        good = "Sensata\tNNP\ndevelops\tVBZ\n" if tagged else "Sensata develops sensors."
        (src / "a.txt").write_text(good)
        (src / name).write_bytes(content)
        out_file = tmp_path / "out.corpus"
        argv = ["preannotate", "--in", str(src), "--out", str(out_file), "--jobs", jobs]
        code, out, err = run_cli(argv + (["--tagged"] if tagged else []), capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{src / name}: ") and message in err
        assert len(err.splitlines()) == 1  # the good file is not reported
        assert not out_file.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_same_stem_exits_2_without_corpus(self, jobs, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        (src / "a.txt").write_text("Sensata develops sensors.")
        (src / "a.md").write_text("Acme sells widgets.")
        (src / "b.txt").write_text("Acme sells gadgets.")
        out_file = tmp_path / "out.corpus"
        argv = ["preannotate", "--in", str(src), "--out", str(out_file), "--jobs", jobs]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"{src / 'a.md'}: duplicate doc_id 'a'", f"{src / 'a.txt'}: duplicate doc_id 'a'",
        ]
        assert not out_file.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_files_leave_the_old_corpus(self, jobs, tmp_path, capsys):
        src = tmp_path / "docs"
        src.mkdir()
        for name in ("a.txt", "c.txt", "e.txt"):
            (src / name).write_text("Sensata develops sensors.")
        (src / "b.txt").write_bytes(b"\xff\xfeAcme sells widgets.\n")
        (src / "d.txt").write_bytes(b"Acme sells \xff gadgets.\n")
        out_file = tmp_path / "out.corpus"
        save_corpus(load_corpus(GOLDEN), str(out_file))
        old = out_file.read_bytes()
        argv = ["preannotate", "--in", str(src), "--out", str(out_file), "--jobs", jobs]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert [line.split(": ")[0] for line in err.splitlines()] == [str(src / "b.txt"), str(src / "d.txt")]
        assert out_file.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["docs", "out.corpus"]

    @pytest.mark.parametrize(
        ("jobs", "cpus", "expected"),
        # the examples are 7 files
        [("64", 16, [7]), ("5", 16, [5]), ("3", 2, [2]), ("2", None, []), ("1", 8, []), ("0", 8, []),
         ("-3", 8, [])],
    )
    def test_worker_count_is_capped(self, jobs, cpus, expected, tmp_path, capsys, monkeypatch):
        import concurrent.futures
        from concurrent.futures import Future

        class RecordingPool:
            """Runs each task at once in this process; records the workers asked for."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                submitted.append(args[0].stat().st_size)
                future = Future()
                future.set_result(fn(*args))
                return future

        started, submitted = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        out_file = tmp_path / "out.corpus"
        argv = ["preannotate", "--in", EXAMPLES_DIR, "--tagged", "--out", str(out_file), "--jobs", jobs]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and started == expected
        assert submitted == sorted(submitted, reverse=True)  # largest file first
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED_OUTPUT["examples"][0]

    def test_worker_state_pickles(self):
        gazetteer = OrgGazetteer.from_file(str(default_gazetteer_path()))
        state = (gazetteer, expand(parse_config(default_config_path().read_text(encoding="utf-8"))))
        values = [
            Token("BMW", "NNP", 0, 3), Span(2, 5), state,
            RelationMention("r0", "c0", ("p0", "p1"), Span(1, 2), Provenance.PRE_ANNOTATION, "P01"),
        ]
        for value in values:
            assert pickle.loads(pickle.dumps(value)) == value
        words = ["the", "bmw", "group", "and", "apple"]
        assert pickle.loads(pickle.dumps(gazetteer)).spans(words, 0, 5) == gazetteer.spans(words, 0, 5)

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["preannotate", "--in", str(tmp_path / "nope"), "--out", "x.corpus"],
            capsys,
        )
        assert code == 2
        assert "directory" in err


# sha256 of (corpus file, yield table) recorded before the pre-annotation
# pipeline was refactored; any change to these bytes is a behaviour change
PINNED_OUTPUT = {
    "examples": (
        "e67c0aa8f6d0bda575fc53662d1d0f5851aba3b7cf50c094fde76244e0209ef1",
        "dd4856411187a8bffcbf810573b00b51324dc2a64d3b3ce915e2d2653fd159dd",
    ),
    "golden-raw": (
        "a11eec3fb508cc3a152e78733b0abcda42b35fa0baa7080244b611ed6ff56240",
        "4834d4c0f99c658a7e22c67c8b70466a7fdcebee5e0bcabb1066236381005c01",
    ),
}


PINNED_EXPANSION = "6c556d78e41b804d6cab1770f05762f5d02b3ad5aee786722fafc07cfac970a2"


class TestOutputContract:
    def test_patterns_expand_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(["patterns", "expand"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_EXPANSION

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("source", sorted(PINNED_OUTPUT))
    def test_preannotate_bytes_are_pinned(self, source, jobs, tmp_path, golden, capsys):
        if source == "examples":
            args = ["--in", EXAMPLES_DIR, "--tagged"]
        else:
            raw = tmp_path / "raw"
            raw.mkdir()
            for doc in golden.documents:
                (raw / f"{doc.doc_id}.txt").write_text(doc.text, encoding="utf-8")
            args = ["--in", str(raw)]
        out_file = tmp_path / "out.corpus"
        code, out, _ = run_cli(
            ["preannotate", *args, "--out", str(out_file), "--jobs", jobs], capsys
        )
        assert code == 0
        corpus_digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        yield_digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (corpus_digest, yield_digest) == PINNED_OUTPUT[source]


class TestValidate:
    def test_clean_corpus_exits_0(self, capsys):
        code, out, _ = run_cli(["validate", "--in", GOLDEN], capsys)
        assert code == 0
        assert out.strip() == ""

    def test_errors_exit_1(self, tmp_path, capsys):
        from promex.examples import annotated_document

        doc = annotated_document(
            "bad", ["the/DT sensors/NNS"],
            entities=[("p1", "product", "nominal", 0, 2)],
        )
        path = tmp_path / "bad.corpus"
        save_corpus(Corpus("1.0", (doc,)), str(path))
        code, out, _ = run_cli(["validate", "--in", str(path), "--format", "tsv"], capsys)
        assert code == 1
        assert "V1\tError" in out

    def test_malformed_input_exits_2(self, capsys):
        code, _, err = run_cli(
            ["validate", "--in", "tests/data/tampered-missing-field.corpus"], capsys
        )
        assert code == 2
        assert "cannot read corpus" in err

    def test_stoplist_flag_extends_defaults(self, tmp_path, capsys):
        from promex.examples import annotated_document

        doc = annotated_document(
            "warn", ["rugged/JJ sensors/NNS"],
            entities=[("p1", "product", "nominal", 0, 2)],
        )
        corpus_path = tmp_path / "warn.corpus"
        save_corpus(Corpus("1.0", (doc,)), str(corpus_path))
        stoplist = tmp_path / "extra.txt"
        stoplist.write_text("# extras\nrugged\n")
        code, out, _ = run_cli(
            ["validate", "--in", str(corpus_path), "--stoplist", str(stoplist),
             "--format", "tsv"],
            capsys,
        )
        assert code == 0  # warnings only
        assert "V8\tWarning" in out


class TestStats:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(["stats", "--in", GOLDEN], capsys)
        assert code == 0
        assert "# Documents" in out
        assert "19" in out

    def test_kv_output(self, capsys):
        code, out, _ = run_cli(["stats", "--in", GOLDEN, "--kv"], capsys)
        assert code == 0
        assert "documents_total\t19" in out

    def test_wrongly_typed_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.corpus"
        with open(GOLDEN, encoding="utf-8") as fh:
            text = fh.read()
        bad.write_text(text.replace('"doc_id":"bmw-1series"', '"doc_id":["bmw-1series"]', 1), encoding="utf-8")
        code, _, err = run_cli(["stats", "--in", str(bad)], capsys)
        assert code == 2
        assert str(bad) in err and "doc_id must be a string" in err

    @pytest.mark.parametrize("field, value", [
        (("tokens", 0, "start"), 0.9),
        (("entities", 0, "start"), False),
        (("entities", 0, "end"), "1"),
        (("relations", 0, "products"), {"p1": 1}),
        (("sentences", 0, "end"), 9.0),
    ])
    def test_coercible_value_exits_2_naming_file_and_line(self, field, value, tmp_path, capsys):
        lines = Path(GOLDEN).read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        target = record
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        lines[1] = json.dumps(record)
        bad = tmp_path / "bad.corpus"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(["stats", "--in", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert str(bad) in err and "line 2: " in err


class TestAgreement:
    def test_identical_layers(self, capsys):
        code, out, _ = run_cli(["agreement", "--a", GOLDEN, "--b", GOLDEN], capsys)
        assert code == 0
        assert "token_kappa_company\t1.000" in out
        assert "relation_f1\t1.000" in out

    def test_mismatched_layers_exit_2(self, tmp_path, capsys):
        from promex.examples import tagged_document

        other = tmp_path / "other.corpus"
        save_corpus(Corpus("1.0", (tagged_document("solo", ["a/NN"]),)), str(other))
        code, _, err = run_cli(["agreement", "--a", GOLDEN, "--b", str(other)], capsys)
        assert code == 2


class TestConvert:
    def test_corpus_to_column(self, capsys):
        code, out, _ = run_cli(["convert", "--in", GOLDEN, "--to", "column"], capsys)
        assert code == 0
        assert "BMW\tNNP\tB-Company" in out

    def test_malformed_column_file_exits_2(self, tmp_path, capsys):
        column = tmp_path / "bad.conll"
        column.write_text("Apple\tNNP\nWatch\n")
        code, out, err = run_cli(["convert", "--in", str(column), "--to", "corpus"], capsys)
        assert code == 2
        assert out == ""
        assert str(column) in err and "line 2" in err

    def test_column_to_corpus(self, tmp_path, capsys):
        column = tmp_path / "doc.conll"
        column.write_text("Acme\tNNP\tB-Company\nwins\tVBZ\tO\n")
        code, out, _ = run_cli(["convert", "--in", str(column), "--to", "corpus"], capsys)
        assert code == 0
        assert out.startswith('{"schema_version":"1.0"}')
        assert '"doc_id":"doc"' in out


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--in", "{bad}"],
            ["validate", "--in", GOLDEN, "--stoplist", "{bad}"],
            ["stats", "--in", "{bad}"],
            ["agreement", "--a", GOLDEN, "--b", "{bad}"],
            ["convert", "--in", "{bad}", "--to", "column"],
            ["patterns", "expand", "--config", "{bad}"],
            ["preannotate", "--in", EXAMPLES_DIR, "--out", "{out}", "--config", "{bad}"],
            ["preannotate", "--in", EXAMPLES_DIR, "--out", "{out}", "--gazetteer", "{bad}"],
        ],
        ids=["validate", "stoplist", "stats", "agreement", "convert", "patterns", "config",
             "gazetteer"],
    )
    def test_exits_2_naming_the_file(self, argv, tmp_path, capsys):
        bad = tmp_path / "latin1.corpus"
        bad.write_bytes('{"schema_version":"1.0"}\n# caf\u00e9\n'.encode("latin-1"))
        out = tmp_path / "out.corpus"
        code, _, err = run_cli([a.format(bad=bad, out=out) for a in argv], capsys)
        assert code == 2
        assert str(bad) in err and "can't decode" in err
        assert not out.exists()


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(["stats", "--bogus"], capsys)
        assert code == 2
