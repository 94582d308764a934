from __future__ import annotations

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from promex.corpus_io import (
    CorpusIOError,
    MalformedRecord,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    export_column,
    load_corpus,
    read_corpus,
    save_corpus,
    write_corpus,
)
from promex.examples import annotated_document, apple_watch, golden_corpus, tagged_document
from promex.ingest import read_tagged
from promex.model import Corpus, InvariantViolation, ModelError


def round_trip(corpus: Corpus) -> Corpus:
    sink = io.StringIO()
    write_corpus(corpus, sink)
    return read_corpus(io.StringIO(sink.getvalue()))


class TestRoundTrip:
    def test_empty_corpus_is_header_only(self):
        sink = io.StringIO()
        write_corpus(Corpus(SCHEMA_VERSION, ()), sink)
        lines = sink.getvalue().splitlines()
        assert lines == ['{"schema_version":"1.0"}']

    def test_single_document(self):
        doc = annotated_document(
            "d", ["Acme/NNP sells/VBZ gadgets/NNS ./."],
            entities=[
                ("c1", "company", "name", 0, 1),
                ("p1", "product", "nominal", 2, 3),
            ],
            relations=[("r1", "c1", ("p1",), (1, 2))],
        )
        corpus = Corpus(SCHEMA_VERSION, (doc,))
        assert round_trip(corpus) == corpus

    def test_nested_mentions_preserved(self):
        corpus = Corpus(SCHEMA_VERSION, (apple_watch(),))
        again = round_trip(corpus)
        spans = sorted((e.span.start, e.span.end) for e in again.documents[0].entities)
        assert spans == [(0, 1), (0, 4)]

    def test_golden_round_trip_identity(self, golden):
        assert round_trip(golden) == golden

    def test_write_read_write_byte_identity(self, golden):
        first = io.StringIO()
        write_corpus(golden, first)
        second = io.StringIO()
        write_corpus(read_corpus(io.StringIO(first.getvalue())), second)
        assert first.getvalue() == second.getvalue()

    def test_shipped_file_matches_builder(self, golden):
        sink = io.StringIO()
        write_corpus(golden, sink)
        shipped = Path("src/promex/data/golden.corpus").read_text(encoding="utf-8")
        assert sink.getvalue() == shipped

    def test_save_and_load(self, tmp_path, golden):
        path = tmp_path / "out.corpus"
        save_corpus(golden, str(path))
        assert load_corpus(str(path)) == golden

    def test_sink_failure(self, tmp_path, golden):
        from promex.corpus_io import SinkFailure

        with pytest.raises(SinkFailure):
            save_corpus(golden, str(tmp_path / "missing-dir" / "out.corpus"))

    def test_failed_write_keeps_old_file(self, tmp_path, golden, monkeypatch):
        import promex.corpus_io
        from promex.corpus_io import SinkFailure

        path = tmp_path / "out.corpus"
        save_corpus(Corpus("1.0", golden.documents[:1]), str(path))
        old = path.read_bytes()
        record = promex.corpus_io._document_record
        written = []

        def fail_on_second(doc):
            if written:
                raise OSError(28, "No space left on device")
            written.append(doc.doc_id)
            return record(doc)

        monkeypatch.setattr(promex.corpus_io, "_document_record", fail_on_second)
        with pytest.raises(SinkFailure):
            save_corpus(golden, str(path))
        assert written == [golden.documents[0].doc_id]  # failed mid-stream
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["out.corpus"]


class TestReadErrors:
    def test_tampered_unknown_mention(self):
        with pytest.raises(InvariantViolation):
            load_corpus("tests/data/tampered-unknown-mention.corpus")

    def test_tampered_future_version(self):
        with pytest.raises(SchemaVersionMismatch):
            load_corpus("tests/data/tampered-future-version.corpus")

    def test_tampered_missing_field(self):
        with pytest.raises(MalformedRecord) as exc:
            load_corpus("tests/data/tampered-missing-field.corpus")
        assert exc.value.line_no == 3

    def test_invalid_json(self):
        with pytest.raises(MalformedRecord):
            read_corpus(io.StringIO('{"schema_version":"1.0"}\nnot json\n'))

    def test_empty_stream(self):
        with pytest.raises(MalformedRecord):
            read_corpus(io.StringIO(""))

    def test_minor_version_accepted(self):
        corpus = read_corpus(io.StringIO('{"schema_version":"1.7"}\n'))
        assert corpus.schema_version == "1.7"

    def test_duplicate_doc_id_rejected(self):
        doc = tagged_document("dup", ["a/NN"])
        sink = io.StringIO()
        write_corpus(Corpus(SCHEMA_VERSION, (doc, doc)), sink)
        with pytest.raises(InvariantViolation):
            read_corpus(io.StringIO(sink.getvalue()))


def full_record() -> dict:
    """The record of a golden document with mentions, relations, a trigger and a chain."""
    doc = next(
        d for d in golden_corpus().documents
        if d.chains and any(r.trigger for r in d.relations)
    )
    sink = io.StringIO()
    write_corpus(Corpus(SCHEMA_VERSION, (doc,)), sink)
    return json.loads(sink.getvalue().splitlines()[1])


HEADER = {"schema_version": SCHEMA_VERSION}
OPTIONAL_FIELDS = ("trigger", "pattern_id")


def dump_lines(records: list) -> str:
    return "".join(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n" for r in records)


def read_records(records: list) -> Corpus:
    """Read the stream whose lines are `records`, a header and then documents."""
    return read_corpus(io.StringIO(dump_lines(records)))


def paths(value, prefix=()):
    """Every (key or index) path into a JSON value, the value itself included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, (*prefix, key))


def replaced(record: dict, path: tuple, new) -> dict:
    record = json.loads(json.dumps(record))
    if not path:
        return new
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return record


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


class TestFieldTypes:
    # a path starts with the index of the line: 0 the header, 1 the document
    @pytest.mark.parametrize("path, value", [
        ((1, "entities", 0, "id"), ["x"]),
        ((1, "doc_id"), ["z"]),
        ((1, "text"), 5),
        ((1, "entities", 1, "id"), 7),
        ((1, "tokens", 0, "pos"), ["NNP"]),
        ((1, "relations", 0, "products", 0), None),
        ((1, "chains", 0, "targets", 0), 1),
        ((1, "tokens", 0, "start"), float("inf")),
        ((1, "tokens", 0, "start"), 0.9),
        ((1, "tokens", 0, "start"), False),
        ((1, "entities", 0, "start"), False),
        ((1, "entities", 0, "end"), "1"),
        ((1, "relations", 0, "products"), {"p1": 1}),
        ((1, "chains", 0, "targets"), "c2"),
        ((1, "sentences", 0, "end"), 15.0),
        ((0, "schema_version"), 1),
        ((1, "entities", 0, "type"), "company"),
    ])
    def test_wrong_type_is_a_malformed_record(self, path, value):
        with pytest.raises(MalformedRecord) as exc:
            read_records(replaced([HEADER, full_record()], path, value))
        assert exc.value.line_no == path[0] + 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_field_types_fail_cleanly(self, data):
        records = [HEADER, full_record()]
        path = data.draw(st.sampled_from(list(paths(records))[1:]))
        mutated = replaced(records, path, data.draw(json_values))
        try:
            corpus = read_records(mutated)
        except (CorpusIOError, ModelError):
            return
        # accepted: every value comes back as it was, and a null optional field is omitted
        for rel in mutated[1]["relations"]:
            for key in OPTIONAL_FIELDS:
                if key in rel and rel[key] is None:
                    del rel[key]
        sink = io.StringIO()
        write_corpus(corpus, sink)
        assert sink.getvalue() == dump_lines(mutated)


class TestExportColumn:
    def test_bio_tags(self):
        doc = annotated_document(
            "d", ["Acme/NNP Corp./NNP sells/VBZ gadgets/NNS"],
            entities=[("c1", "company", "name", 0, 2)],
        )
        lines = export_column(doc).splitlines()
        rows = [l for l in lines if l and not l.startswith("#")]
        assert rows[0] == "Acme\tNNP\tB-Company"
        assert rows[1] == "Corp.\tNNP\tI-Company"
        assert rows[2] == "sells\tVBZ\tO"

    def test_nested_mention_noted_in_comment(self):
        out = export_column(apple_watch())
        assert "nested-mention" in out
        # outer product wins the BIO layer
        assert "Apple\tNNP\tB-Product" in out

    def test_empty_document(self):
        out = export_column(tagged_document("empty", []))
        assert out.startswith("# doc_id: empty")
        assert "relations" in out

    def test_round_trips_through_read_tagged(self):
        doc = annotated_document(
            "d",
            ["Acme/NNP sells/VBZ gadgets/NNS ./.", "More/JJR text/NN ./."],
            entities=[
                ("c1", "company", "name", 0, 1),
                ("p1", "product", "nominal", 2, 3),
            ],
        )
        again = read_tagged(export_column(doc), doc_id="d")
        assert [t.text for t in again.tokens] == [t.text for t in doc.tokens]
        assert [s.span for s in again.sentences] == [s.span for s in doc.sentences]
        assert [(e.entity_type, e.span) for e in again.entities] == [
            (e.entity_type, e.span) for e in doc.entities
        ]
