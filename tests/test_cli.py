from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from promex.cli import _runs, default_config_path, default_gazetteer_path
from promex.corpus_io import document_line, load_corpus, save_corpus
from promex.ingest import OrgGazetteer
from promex.model import Corpus, Provenance, RelationMention, Span, Token
from promex.patterns import expand, parse_config

from conftest import run_cli
from test_oracles import attach_inputs

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
        assert load_corpus(str(out_file)).documents[0].tags[2] == "SYM"

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
    def test_failing_files_leave_the_old_corpus(self, jobs, tmp_path, capsys, monkeypatch):
        src = tmp_path / "docs"
        src.mkdir()
        for name in ("a.txt", "c.txt", "e.txt"):
            (src / name).write_text("Sensata develops sensors.")
        (src / "b.txt").write_bytes(b"\xff\xfeAcme sells widgets.\n")
        (src / "d.txt").write_bytes(b"Acme sells \xff gadgets.\n")
        if jobs == "2":  # b.txt fails in this process's run, d.txt in the worker's
            monkeypatch.setattr("os.cpu_count", lambda: 2)
            paths = sorted(src.iterdir())
            first, second = _runs(paths, [p.stat().st_size for p in paths], 2)
            assert src / "b.txt" in first and src / "d.txt" in second
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
        # the examples are 7 files; this process is one of the workers, so it starts one fewer
        [("64", 16, [6]), ("5", 16, [4]), ("3", 2, [1]), ("2", None, []), ("1", 8, []), ("0", 8, []),
         ("-3", 8, [])],
    )
    def test_worker_count_is_capped(self, jobs, cpus, expected, tmp_path, capsys, monkeypatch):
        import promex.cli

        class RecordingProcess:
            """Runs its worker at once in this process when started; records its run and its message."""

            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                run, job, run_file, conn = self.args
                submitted.append(run)
                self.target(run, job, run_file, RecordingConn(conn))

            def terminate(self):
                pass

            def join(self):
                pass

        class RecordingConn:
            def __init__(self, conn):
                self.conn = conn

            def send(self, message):
                sent.append(message)
                self.conn.send(message)

        submitted, sent, processed = [], [], []
        process = promex.cli._process

        def recording_process(path, *args):
            processed.append(path)
            return process(path, *args)

        monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
        monkeypatch.setattr(promex.cli, "_process", recording_process)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        out_file = tmp_path / "out.corpus"
        argv = ["preannotate", "--in", EXAMPLES_DIR, "--tagged", "--out", str(out_file), "--jobs", jobs]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and ([len(submitted)] if submitted else []) == expected
        # one non-empty run per worker process, all started before this process starts its own;
        # the runs, this process's first, are the files in input order
        assert all(submitted)
        own = [path for path in processed if not any(path in run for run in submitted)]
        assert own and processed[-len(own):] == own
        assert [path for run in [own, *submitted] for path in run] == sorted(Path(EXAMPLES_DIR).iterdir())
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED_OUTPUT["examples"][0]
        # each worker sends its failures and raw relations, and none of its corpus lines
        lines = out_file.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
        assert len(sent) == len(submitted) and all(failures == [] for failures, _ in sent)
        assert not any(line.encode() in pickle.dumps(message) for message in sent for line in lines)
        assert sorted(tmp_path.iterdir()) == [out_file]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched `_process` reaches only workers started by fork")
    @pytest.mark.parametrize(("death", "code"), [("exit", 3), ("raise", 1)])
    def test_dead_worker_exits_2_naming_its_run(self, death, code, tmp_path, capfd, monkeypatch):
        """`capfd`, not `capsys`, so that the worker's own stderr is read too."""
        import promex.cli

        src = tmp_path / "docs"
        src.mkdir()
        for name in ("a.txt", "b.txt", "c.txt", "d.txt"):
            (src / name).write_text("Sensata develops sensors.")
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        paths = sorted(src.iterdir())
        _, second = _runs(paths, [p.stat().st_size for p in paths], 2)
        this_process, process = os.getpid(), promex.cli._process

        def dying(path, *args):
            if os.getpid() != this_process:
                if death == "exit":
                    os._exit(3)
                raise RuntimeError("a fault in the worker")
            return process(path, *args)

        monkeypatch.setattr(promex.cli, "_process", dying)
        out_file = tmp_path / "out.corpus"
        save_corpus(load_corpus(GOLDEN), str(out_file))
        old = out_file.read_bytes()
        argv = ["preannotate", "--in", str(src), "--out", str(out_file), "--jobs", "2"]
        assert run_cli(argv, capfd) == (
            2, "", f"{second[0]}: the worker for its run exited with code {code}\n")
        assert out_file.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["docs", "out.corpus"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["document_line", "sink"])
    def test_failed_write_keeps_old_file_with_workers(self, where, tmp_path, golden, capsys, monkeypatch):
        """`document_line` raising in this process's run takes the exception through the workers'
        generator; a sink that fails after one line leaves it suspended, to be closed."""
        import promex.corpus_io

        src = tmp_path / "docs"
        src.mkdir()
        for name in ("a.txt", "b.txt", "c.txt", "d.txt"):
            (src / name).write_text("Sensata develops sensors.")
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        written = []
        line, save = promex.corpus_io.document_line, promex.corpus_io.save_document_lines

        def fail_on_second(doc):
            if written:
                raise OSError(28, "No space left on device")
            written.append(doc.doc_id)
            return line(doc)

        def save_failing_on_second(lines, *args):
            def first_only():
                yield next(lines)
                raise OSError(28, "No space left on device")
            save(first_only(), *args)

        out_file = tmp_path / "out.corpus"
        save_corpus(Corpus("1.0", golden.documents[:1]), str(out_file))
        old = out_file.read_bytes()
        if where == "document_line":
            monkeypatch.setattr(promex.corpus_io, "document_line", fail_on_second)
        else:
            monkeypatch.setattr(promex.corpus_io, "save_document_lines", save_failing_on_second)
        argv = ["preannotate", "--in", str(src), "--out", str(out_file), "--jobs", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"could not write {str(out_file)!r}: [Errno 28] No space left on device\n"
        assert written == (["a"] if where == "document_line" else [])  # failed mid-stream, in this process's run
        assert out_file.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["docs", "out.corpus"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        ("sizes", "workers", "lengths"),
        [
            ([1000, 2000, 4000, 8000], 2, [3, 1]),  # the long-docs shape
            ([5] * 6, 2, [3, 3]),
            ([5] * 6, 3, [2, 2, 2]),
            ([3, 1, 4, 1, 5], 5, [1] * 5),
            ([100, 1, 1], 3, [1, 1, 1]),
            ([1, 1, 100], 2, [2, 1]),
            ([1, 1, 100], 3, [1, 1, 1]),
            ([0, 0, 0, 0], 2, [3, 1]),
        ],
    )
    def test_runs_are_contiguous_and_of_about_equal_size(self, sizes, workers, lengths):
        paths = [Path(f"{i}.txt") for i in range(len(sizes))]
        runs = _runs(paths, sizes, workers)
        assert [len(run) for run in runs] == lengths
        assert [path for run in runs for path in run] == paths

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40), st.integers(1, 40))
    def test_runs_cover_every_file_once_in_order(self, sizes, workers):
        workers = min(workers, len(sizes))
        paths = [Path(f"{i}.txt") for i in range(len(sizes))]
        runs = _runs(paths, sizes, workers)
        assert len(runs) == workers and all(runs)
        assert [path for run in runs for path in run] == paths

    def test_spawned_workers_write_the_jobs_1_output(self, tmp_path, capsys):
        """Workers started by `spawn`, which `fork` platforms use only when asked,
        import the module afresh and so see none of this process's state."""
        import promex

        single = tmp_path / "single.corpus"
        code, single_yield, _ = run_cli(
            ["preannotate", "--in", EXAMPLES_DIR, "--tagged", "--out", str(single), "--jobs", "1"], capsys)
        assert code == 0
        script = tmp_path / "spawned.py"
        script.write_text(
            "import multiprocessing, os, sys\n"
            "from promex.cli import main\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    os.cpu_count = lambda: 2  # a pool starts on a one-CPU host too\n"
            "    sys.exit(main(sys.argv[1:]))\n"
        )
        multi = tmp_path / "multi.corpus"
        env = dict(os.environ, PYTHONPATH=str(Path(promex.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, str(script), "preannotate", "--in", EXAMPLES_DIR, "--tagged", "--out", str(multi),
             "--jobs", "2"], env=env, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert (multi.read_bytes(), result.stdout) == (single.read_bytes(), single_yield)

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
# sha256 of `convert --in GOLDEN --to column`
PINNED_COLUMN = "4c13b21494ec3f9650c385923996304ae07fe75104feb684f4a11e905455e9ce"


class TestOutputContract:
    def test_patterns_expand_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(["patterns", "expand"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_EXPANSION

    def test_column_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(["convert", "--in", GOLDEN, "--to", "column"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_COLUMN

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

    def test_invariant_violation_exits_2(self, tmp_path, capsys):
        lines = Path(GOLDEN).read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        duplicate = record["entities"][1]["id"] = record["entities"][0]["id"]
        lines[1] = json.dumps(record)
        bad = tmp_path / "bad.corpus"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(["validate", "--in", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"cannot read corpus {str(bad)!r}: duplicate mention id {duplicate!r}\n"

    def test_unreadable_corpus_is_named_before_a_missing_stoplist(self, tmp_path, capsys):
        header, *records = golden_lines()
        corpus = write_lines(tmp_path / "bad.corpus", [header, *records, "{not json"])
        code, out, err = run_cli(["validate", "--in", corpus, "--stoplist", str(tmp_path / "none.txt")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read corpus {corpus!r}: line 21: invalid JSON")

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

    def test_header_only_corpus_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.corpus"
        save_corpus(Corpus("1.0", ()), str(empty))
        code, out, err = run_cli(["stats", "--in", str(empty)], capsys)
        assert code == 2
        assert out == ""
        assert "corpus contains no documents" in err

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

    def test_header_only_layers_agree_fully(self, tmp_path, capsys):
        empty = tmp_path / "empty.corpus"
        save_corpus(Corpus("1.0", ()), str(empty))
        code, out, _ = run_cli(["agreement", "--a", str(empty), "--b", str(empty)], capsys)
        assert code == 0
        rows = out.splitlines()
        assert rows and all(row.split("\t")[1] == "1.000" for row in rows)

    def test_mismatched_layers_exit_2(self, tmp_path, capsys):
        from promex.examples import tagged_document

        other = tmp_path / "other.corpus"
        save_corpus(Corpus("1.0", (tagged_document("solo", ["a/NN"]),)), str(other))
        code, _, err = run_cli(["agreement", "--a", GOLDEN, "--b", str(other)], capsys)
        assert code == 2

    def test_layers_in_other_orders_agree_as_in_the_same(self, tmp_path, capsys):
        header, *records = golden_lines()
        reversed_golden = write_lines(tmp_path / "reversed.corpus", [header, *reversed(records)])
        expected = run_cli(["agreement", "--a", GOLDEN, "--b", GOLDEN], capsys)
        assert run_cli(["agreement", "--a", GOLDEN, "--b", reversed_golden], capsys) == expected
        assert run_cli(["agreement", "--a", reversed_golden, "--b", GOLDEN], capsys) == expected

    # as when `--a` was read whole before `--b`: a failure to read `--a` comes first
    @pytest.mark.parametrize("b", ["missing", "bad"])
    def test_unreadable_a_is_named_before_b(self, b, tmp_path, capsys):
        header, *records = golden_lines()
        layer_a = write_lines(tmp_path / "a.corpus", [header, *records[:5], "{not json", *records[5:]])
        layer_b = str(tmp_path / "b.corpus")
        if b == "bad":
            write_lines(layer_b, [header, "[1]", *records])
        code, out, err = run_cli(["agreement", "--a", layer_a, "--b", layer_b], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read corpus {layer_a!r}: line 7: invalid JSON")

    def test_unreadable_b_is_named_before_a_mismatch(self, tmp_path, capsys):
        header, first, *records = golden_lines()
        lines = [header, retokenized(first), *records[:9], "{not json", *records[9:]]
        layer_b = write_lines(tmp_path / "b.corpus", lines)
        code, out, err = run_cli(["agreement", "--a", GOLDEN, "--b", layer_b], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read corpus {layer_b!r}: line 12: invalid JSON")

    def test_different_documents_are_named_before_a_mismatch(self, tmp_path, capsys):
        header, first, *records = golden_lines()
        layer_b = write_lines(tmp_path / "b.corpus", [header, retokenized(first), *records[:-1]])
        code, out, err = run_cli(["agreement", "--a", GOLDEN, "--b", layer_b], capsys)
        assert (code, out, err) == (2, "", "the two layers cover different documents\n")

    def test_the_smallest_mismatched_doc_id_is_named(self, tmp_path, capsys):
        header, *records = golden_lines()
        edited = [retokenized(line) if i in (3, 7, 12) else line for i, line in enumerate(records)]
        smallest = min(json.loads(records[i])["doc_id"] for i in (3, 7, 12))
        layer_b = write_lines(tmp_path / "b.corpus", [header, *reversed(edited)])
        for argv in (["--a", GOLDEN, "--b", layer_b], ["--a", layer_b, "--b", GOLDEN]):
            code, out, err = run_cli(["agreement", *argv], capsys)
            assert (code, out, err) == (2, "", f"document {smallest!r} is tokenized differently\n")


def golden_lines() -> list[str]:
    return Path(GOLDEN).read_text(encoding="utf-8").splitlines()


def write_lines(path, lines: list[str]) -> str:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def retokenized(line: str) -> str:
    """The record of a one-token document with the doc_id of `line`."""
    from promex.examples import tagged_document

    return document_line(tagged_document(json.loads(line)["doc_id"], ["a/NN"])).rstrip("\n")


class TestMemory:
    """The commands that read a corpus hold one document at a time, not the corpus."""

    @pytest.mark.parametrize("command", [
        ["validate", "--in", "{f}"], ["stats", "--in", "{f}"], ["agreement", "--a", "{f}", "--b", "{f}"],
    ], ids=["validate", "stats", "agreement"])
    def test_peak_does_not_grow_with_the_corpus(self, command, tmp_path, capsys):
        header, *records = golden_lines()

        def peak_bytes(copies: int) -> int:
            path = write_lines(tmp_path / f"{copies}.corpus", [header] + [
                line.replace('{"doc_id":"', f'{{"doc_id":"c{k}-', 1) for k in range(copies) for line in records
            ])
            tracemalloc.start()
            try:
                code, _, _ = run_cli([arg.format(f=path) for arg in command], capsys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        peak_bytes(1)  # warm up: imports and caches
        # CPython 3.11 and 3.12 keep up to 2,000 freed 20-item tuples and never reuse
        # them, so that list grows with the documents of 20 tokens read; fill it first
        [tuple(range(20)) for _ in range(2000)]
        one, sixteen = peak_bytes(1), peak_bytes(16)
        assert sixteen <= 2 * one, f"16 copies peaked at {sixteen} bytes, one at {one}"


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

    def test_unrepresentable_document_exits_2_writing_nothing(self, tmp_path, capsys):
        from promex.examples import tagged_document

        corpus = tmp_path / "tab-id.corpus"
        documents = (tagged_document("ok", ["a/NN"]), tagged_document("a\tb", ["b/NN"]))
        save_corpus(Corpus("1.0", documents), str(corpus))
        code, out, err = run_cli(["convert", "--in", str(corpus), "--to", "column"], capsys)
        assert code == 2
        assert out == ""
        assert str(corpus) in err and "'a\\tb'" in err

    def test_unreadable_record_is_named_before_an_unrepresentable_document(self, tmp_path, capsys):
        from promex.examples import tagged_document

        header, *records = golden_lines()
        unrepresentable = document_line(tagged_document("a\tb", ["b/NN"])).rstrip("\n")
        corpus = write_lines(tmp_path / "bad.corpus", [header, unrepresentable, *records, "{not json"])
        code, out, err = run_cli(["convert", "--in", corpus, "--to", "column"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read corpus {corpus!r}: line 22: invalid JSON")

    def test_column_text_of_several_documents_exits_2(self, tmp_path, capsys):
        column = tmp_path / "golden.conll"
        code, out, _ = run_cli(["convert", "--in", GOLDEN, "--to", "column"], capsys)
        assert code == 0
        column.write_text(out, encoding="utf-8")
        code, out, err = run_cli(["convert", "--in", str(column), "--to", "corpus"], capsys)
        # not one document merged from all 19
        assert code == 2
        assert out == ""
        assert str(column) in err and "doc_id" in err

    def test_column_to_corpus(self, tmp_path, capsys):
        column = tmp_path / "doc.conll"
        column.write_text("Acme\tNNP\tB-Company\nwins\tVBZ\tO\n")
        code, out, _ = run_cli(["convert", "--in", str(column), "--to", "corpus"], capsys)
        assert code == 0
        assert out.startswith('{"schema_version":"1.0"}')
        assert '"doc_id":"doc"' in out


# deeper than json.loads or a recursive parser gets on Python 3.10-3.14: 3.12
# and later count C recursion apart from Python's, and 3.14 checks the C stack
DEEP = 100_000


def golden_line_with(edit) -> str:
    """The golden corpus header and its first record, changed by `edit`."""
    header, record = Path(GOLDEN).read_text(encoding="utf-8").splitlines()[:2]
    return f"{header}\n{edit(record)}\n"


def extra_field(value: str):
    """An edit that adds a field the reader ignores, holding the JSON text `value`."""
    return lambda record: record[:-1] + ',"extra":' + value + "}"


def bad_input(kind: str) -> tuple[bytes, str]:
    """A file that no subcommand can read, and what the message about it says."""
    if kind == "non-utf8":
        return '{"schema_version":"1.0"}\n# caf\u00e9\n'.encode("latin-1"), "can't decode"
    if kind == "deep-groups":
        return f"P1: <ORG> <TRIG:by> {'[a ' * DEEP}{']' * DEEP} <PRO>\n".encode(), "line 1: [...] groups nested"
    if kind == "bom":
        content = b"\xef\xbb\xbf" + golden_line_with(lambda record: record).encode()
        return content, "line 1: invalid JSON: Unexpected UTF-8 BOM"
    edit, message = {
        "deep-json": (extra_field("[" * DEEP + "]" * DEEP), "line 2: invalid JSON"),
        "long-int": (extra_field("9" * 5_000), "line 2: invalid JSON"),  # over 4,300 digits
        "surrogate": (lambda r: r.replace('"doc_id":"', '"doc_id":"a\\ud800', 1), "line 2: a string holds a lone"),
    }[kind]
    return golden_line_with(edit).encode(), message


CORPUS_READERS = {
    "validate": ["validate", "--in", "{bad}"],
    "stats": ["stats", "--in", "{bad}"],
    "agreement": ["agreement", "--a", GOLDEN, "--b", "{bad}"],
    "convert": ["convert", "--in", "{bad}", "--to", "column"],
}
CONFIG_READERS = {
    "patterns": ["patterns", "expand", "--config", "{bad}"],
    "config": ["preannotate", "--in", EXAMPLES_DIR, "--out", "{out}", "--config", "{bad}"],
}
BAD_INPUT_ROWS = [
    # rows named by their reader alone hold a file that is not UTF-8
    *(pytest.param("non-utf8", argv, id=name) for name, argv in {
        **CORPUS_READERS,
        "stoplist": ["validate", "--in", GOLDEN, "--stoplist", "{bad}"],
        **CONFIG_READERS,
        "gazetteer": ["preannotate", "--in", EXAMPLES_DIR, "--out", "{out}", "--gazetteer", "{bad}"],
        "column": ["convert", "--in", "{bad}", "--to", "corpus"],
    }.items()),
    *(pytest.param(kind, argv, id=f"{kind}-{name}")
      for kind in ("deep-json", "long-int", "surrogate", "bom") for name, argv in CORPUS_READERS.items()),
    *(pytest.param("deep-groups", argv, id=f"deep-groups-{name}") for name, argv in CONFIG_READERS.items()),
]


class TestNonUtf8Input:
    """Each input file that no reader can take exits 2 naming the file, and the
    line where it is known, with nothing on stdout and no `--out` file."""

    @pytest.mark.parametrize(("kind", "argv"), BAD_INPUT_ROWS)
    def test_exits_2_naming_the_file(self, kind, argv, tmp_path, capsys):
        content, message = bad_input(kind)
        bad = tmp_path / f"{kind}.input"
        bad.write_bytes(content)
        out = tmp_path / "out.corpus"
        code, stdout, err = run_cli([a.format(bad=bad, out=out) for a in argv], capsys)
        assert code == 2
        assert str(bad) in err and message in err
        assert stdout == ""
        assert not out.exists()

    def test_lone_surrogate_exits_2_on_a_utf8_stdout(self, tmp_path):
        """Run as a user would: a UTF-8 stdout cannot take a lone surrogate."""
        import promex

        bad = tmp_path / "surrogate.corpus"
        bad.write_bytes(bad_input("surrogate")[0])
        env = dict(os.environ, PYTHONIOENCODING="utf-8",
                   PYTHONPATH=str(Path(promex.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-m", "promex.cli", "convert", "--in", str(bad), "--to", "column"],
                                env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(f"cannot read corpus {str(bad)!r}: line 2: a string holds a lone surrogate")

    @pytest.mark.parametrize("argv", [
        ["convert", "--in", "{golden}", "--to", "column"],
        ["convert", "--in", "{column}", "--to", "corpus"],
        ["patterns", "expand", "--config", "{config}"],
    ], ids=["to-column", "to-corpus", "patterns-expand"])
    def test_output_a_stdout_cannot_encode_exits_2(self, argv, tmp_path):
        """Run as a user would: an ASCII stdout cannot take the registered sign or an accent."""
        import promex

        column, config = tmp_path / "a.txt", tmp_path / "a.pat"
        column.write_text("Acme\tNNP\nmakes\tVBZ\nWidgets\tNNP\n\u00ae\tSYM\n.\t.\n", encoding="utf-8")
        config.write_text("P1: <ORG> <TRIG:makes> {caf\u00e9} <PRO>\n", encoding="utf-8")
        package = Path(promex.__file__).resolve().parent
        paths = {"golden": package / "data" / "golden.corpus", "column": column, "config": config}
        env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=str(package.parent))
        result = subprocess.run([sys.executable, "-m", "promex.cli", *(a.format(**paths) for a in argv)],
                                env=env, capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("cannot write output in stdout's encoding 'ascii': ")
        assert "Traceback" not in result.stderr


class TestByteOrderMark:
    """One leading U+FEFF of a raw-text, column, gazetteer or stoplist file is
    dropped: the output equals that of the same file without it."""

    @staticmethod
    def run(role: str, bom: bytes, work: Path, capsys) -> tuple[int, str, bytes]:
        work.mkdir()
        docs, out = work / "docs", work / "out.corpus"
        docs.mkdir()
        (docs / "a.txt").write_bytes(bom * (role == "raw-text") + b"Intel makes sensors.")
        argv = {
            "raw-text": ["preannotate", "--in", str(docs), "--out", str(out)],
            "column": ["convert", "--in", str(work / "a.conll"), "--to", "corpus"],
            "gazetteer": ["preannotate", "--in", str(docs), "--out", str(out), "--gazetteer", str(work / "g.txt")],
            "stoplist": ["validate", "--in", str(out), "--stoplist", str(work / "s.txt"), "--format", "tsv"],
        }[role]
        (work / "a.conll").write_bytes(bom + b"Intel\tNNP\tB-Company\nmakes\tVBZ\tO\n")
        (work / "g.txt").write_bytes(bom + b"Intel\n")
        (work / "s.txt").write_bytes(bom + b"quick\n")
        if role == "stoplist":
            from promex.examples import annotated_document

            doc = annotated_document("a", ["quick/JJ sensors/NNS"], entities=[("p1", "product", "nominal", 0, 2)])
            save_corpus(Corpus("1.0", (doc,)), str(out))
        code, stdout, _ = run_cli(argv, capsys)
        return code, stdout, out.read_bytes() if out.exists() else b""

    @pytest.mark.parametrize("role", ["raw-text", "column", "gazetteer", "stoplist"])
    def test_leading_bom_is_dropped(self, role, tmp_path, capsys):
        plain = self.run(role, b"", tmp_path / "plain", capsys)
        with_bom = self.run(role, b"\xef\xbb\xbf", tmp_path / "bom", capsys)
        assert with_bom == plain
        # the file's first entry was read: Intel as a company, or `quick` as a stoplisted adjective
        used = {"column": '"text":"Intel"', "stoplist": "V8\tWarning"}.get(role, '"relations":[{')
        assert plain[0] == 0 and used in plain[1] + plain[2].decode()


# what each edit does to a corpus file's record line; "bom" prefixes the file
RECORD_EDITS = {
    "deep-json": extra_field("[" * DEEP + "]" * DEEP),
    "long-int": extra_field("9" * 5_000),
    "surrogate": lambda line: line.replace('"doc_id":"', '"doc_id":"\\udc00', 1),
}


@settings(max_examples=25, deadline=None)
@given(inputs=attach_inputs(), edits=st.sets(st.sampled_from([*RECORD_EDITS, "bom"])))
def test_no_input_file_escapes_the_exit_codes(inputs, edits):
    """Any file, in each role a subcommand reads it in, exits 0, 1 or 2 and raises
    nothing but SystemExit, with stdout as strict as a real UTF-8 one."""
    from promex.cli import main

    doc, entities, relations, chains = inputs
    line = document_line(replace(doc, entities=tuple(entities), relations=tuple(relations), chains=tuple(chains)))
    for edit in sorted(edits - {"bom"}):
        line = RECORD_EDITS[edit](line.rstrip("\n")) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "docs").mkdir()
        for path in (work / "f.corpus", work / "docs" / "f.txt"):
            path.write_bytes(b"\xef\xbb\xbf" * ("bom" in edits) + f'{{"schema_version":"1.0"}}\n{line}'.encode())
        f, docs, out = str(work / "f.corpus"), str(work / "docs"), str(work / "out.corpus")
        for argv in (
            ["validate", "--in", f], ["validate", "--in", GOLDEN, "--stoplist", f], ["stats", "--in", f],
            ["agreement", "--a", f, "--b", f], ["convert", "--in", f, "--to", "column"],
            ["convert", "--in", f, "--to", "corpus"], ["patterns", "expand", "--config", f, "--count-only"],
            ["preannotate", "--in", docs, "--out", out], ["preannotate", "--in", docs, "--out", out, "--tagged"],
            ["preannotate", "--in", docs, "--out", out, "--gazetteer", f],
        ):
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                stdout.flush()
            assert code in (0, 1, 2), argv


def test_cli_import_does_not_read_the_golden_corpus():
    """`promex.examples` reads the golden corpus; the CLI's startup must not load it."""
    import promex

    script = "import sys, promex.cli; print('promex.examples' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(promex.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(["stats", "--bogus"], capsys)
        assert code == 2
