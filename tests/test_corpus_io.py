from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from promex.corpus_io import (
    CorpusIOError,
    MalformedRecord,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    SinkFailure,
    document_line,
    load_corpus,
    read_corpus,
    save_corpus,
    write_corpus,
)
from promex.examples import annotated_document, apple_watch, golden_corpus, tagged_document
from promex.ingest import (
    COLUMN_BREAKS,
    UnrepresentableDocument,
    document_from_text,
    document_from_tokens,
    export_column,
    read_tagged,
)
from promex.model import (
    Corpus,
    Document,
    EntityMention,
    EntityType,
    InvariantViolation,
    ModelError,
    NestingIndex,
    NOUN_TAGS,
    Provenance,
    Span,
    Token,
    attach_annotations,
    mention_kind,
)

GOLDEN_FILE = Path("src/promex/data/golden.corpus")


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

    def test_write_corpus_reproduces_shipped_file(self, golden):
        sink = io.StringIO()
        write_corpus(golden, sink)
        assert sink.getvalue() == GOLDEN_FILE.read_text(encoding="utf-8")

    def test_shipped_file_bytes_are_pinned(self):
        digest = hashlib.sha256(GOLDEN_FILE.read_bytes()).hexdigest()
        assert digest == "c82aaf6b6dfa3dffb8b6969f3521c9313807a8433e443cc9c8b5e02f14e2ed5e"

    def test_save_and_load(self, tmp_path, golden):
        path = tmp_path / "out.corpus"
        save_corpus(golden, str(path))
        assert load_corpus(str(path)) == golden

    def test_sink_failure(self, tmp_path, golden):
        with pytest.raises(SinkFailure):
            save_corpus(golden, str(tmp_path / "missing-dir" / "out.corpus"))

    def test_failing_sink_raises_sink_failure(self, golden):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        with pytest.raises(SinkFailure):
            write_corpus(golden, FullDisk())

    def test_failed_write_keeps_old_file(self, tmp_path, golden, monkeypatch):
        import promex.corpus_io

        path = tmp_path / "out.corpus"
        save_corpus(Corpus("1.0", golden.documents[:1]), str(path))
        old = path.read_bytes()
        line = promex.corpus_io.document_line
        written = []

        def fail_on_second(doc):
            if written:
                raise OSError(28, "No space left on device")
            written.append(doc.doc_id)
            return line(doc)

        monkeypatch.setattr(promex.corpus_io, "document_line", fail_on_second)
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

    def test_blank_lines_are_skipped_and_counted(self):
        sink = io.StringIO()
        write_corpus(golden_corpus(), sink)
        lines = sink.getvalue().splitlines(keepends=True)
        spaced = "".join(line + ("\n" if i % 2 else " \t\n") for i, line in enumerate(lines))
        assert read_corpus(io.StringIO(spaced)) == read_corpus(io.StringIO(sink.getvalue()))
        with pytest.raises(MalformedRecord) as exc:
            read_corpus(io.StringIO(spaced + "\n  \nnot json\n"))
        # each record is followed by one blank line, then two more and the bad record
        assert exc.value.line_no == 2 * len(lines) + 3

    @pytest.mark.parametrize("value", [
        "[" * 100_000 + "]" * 100_000,  # deeper than json.loads recurses on Python 3.10-3.14
        "9" * 5_000,  # more digits than sys.int_info.default_max_str_digits
        '"a\\ud800"', '"\\udfff b"', '"\\uDC00\\ud800"', '{"\\ud9ff": 1}', '[["\\ud83d"]]',
    ], ids=["deep", "long-int", "high", "low", "swapped-pair", "in-key", "nested"])
    def test_unreadable_value_in_an_ignored_field_is_a_malformed_record(self, value):
        line = document_line(tagged_document("a", ["a/NN"]))[:-2] + ',"extra":%s}' % value
        with pytest.raises(MalformedRecord) as exc:
            read_corpus(io.StringIO(f'{{"schema_version":"1.0"}}\n\n{line}\n'))
        assert exc.value.line_no == 3

    def test_lone_surrogate_in_a_field_is_a_malformed_record(self):
        line = document_line(tagged_document("a", ["a/NN"])).replace('"doc_id":"a"', '"doc_id":"a\\ud800"')
        with pytest.raises(MalformedRecord, match="^line 2: a string holds a lone surrogate"):
            read_corpus(io.StringIO('{"schema_version":"1.0"}\n' + line))

    def test_surrogate_pairs_and_escaped_backslashes_read(self):
        # a pair is one character; "\\ud800" is a backslash and five letters
        line = document_line(tagged_document("a", ["a/NN"]))
        line = line.replace('"doc_id":"a"', '"doc_id":"a\\ud83d\\ude00\\\\ud800","x":"\\uD83D\\uDE00"')
        [doc] = read_corpus(io.StringIO('{"schema_version":"1.0"}\n' + line)).documents
        assert doc.doc_id == "a\U0001f600\\ud800"

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


def chained_record() -> dict:
    """A two-sentence document record with a relation, its trigger and a chain."""
    doc = annotated_document(
        "d", ["Acme/NNP sells/VBZ gadgets/NNS ./.", "Acme/NNP ships/VBZ ./."],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("p1", "product", "nominal", 2, 3),
            ("c2", "company", "name", 4, 5),
        ],
        relations=[("r1", "c1", ("p1",), (1, 2))],
        chains=[("ch1", "c1", ("c2",))],
    )
    sink = io.StringIO()
    write_corpus(Corpus(SCHEMA_VERSION, (doc,)), sink)
    return json.loads(sink.getvalue().splitlines()[1])


class TestModelChecksOnRead:
    @pytest.mark.parametrize("tamper, message", [
        (lambda r: replaced(r, ("entities", 2, "id"), "c1"), "duplicate mention id 'c1'"),
        (lambda r: {**r, "relations": r["relations"] * 2}, "duplicate relation id 'r1'"),
        (lambda r: {**r, "chains": r["chains"] * 2}, "duplicate chain id 'ch1'"),
        (lambda r: replaced(r, ("chains", 0, "targets"), ["c2", "c1"]),
         "document 'd': chain ch1 lists its source among its targets"),
        (lambda r: replaced(r, ("chains", 0, "targets"), ["zz"]),
         "chain ch1 member 'zz' is not a known mention"),
        (lambda r: replaced(r, ("relations", 0, "trigger"), {"start": 5, "end": 6}),
         "document 'd': relation r1 trigger lies outside the argument sentence"),
    ])
    def test_tampered_record_names_the_broken_invariant(self, tamper, message):
        with pytest.raises(InvariantViolation) as exc:
            read_records([HEADER, tamper(chained_record())])
        assert str(exc.value) == message


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


class TestTokenColumns:
    def test_validate_stats_and_agreement_build_no_token(self, capsys, monkeypatch):
        """Reading a corpus and the commands that read one use the token columns alone."""
        from conftest import run_cli
        from promex import corpus_io

        loaded: list[list] = []
        iter_documents = corpus_io.iter_documents

        def read(source):
            loaded.append(items := [])
            for item in iter_documents(source):
                items.append(item)
                yield item

        monkeypatch.setattr(corpus_io, "iter_documents", read)
        monkeypatch.setattr(Token, "__init__", mock.Mock(side_effect=AssertionError("a Token was built")))
        golden = "src/promex/data/golden.corpus"
        for argv in (["validate", "--in", golden], ["stats", "--in", golden, "--kv"],
                     ["agreement", "--a", golden, "--b", golden]):
            code, out, err = run_cli(argv, capsys)
            assert code == 0 and err == "", argv
        assert [len(items) for items in loaded] == [1 + 19] * 4  # the schema version, then each document
        assert not any("tokens" in doc.__dict__ for items in loaded for doc in items[1:])

    def test_tokens_are_built_from_the_columns(self, golden):
        """Each sentence's `Token`s equal those the reader before token columns built."""
        from test_oracles import make_document_of_tokens, oracle_token_parse_document

        def keep(doc_id, text, tokens, sentences):
            old_tokens.append(tokens)
            return make_document_of_tokens(doc_id, text, tokens, sentences)

        old_tokens: list[list[Token]] = []
        sink = io.StringIO()
        write_corpus(golden, sink)
        records = [json.loads(line) for line in sink.getvalue().splitlines()[1:]]
        for doc, record in zip(read_corpus(io.StringIO(sink.getvalue())).documents, records, strict=True):
            oracle_token_parse_document(record, 2, keep)
            for sentence in doc.sentences:
                assert doc.sentence_tokens(sentence) == tuple(old_tokens[-1][sentence.span.start:sentence.span.end])
        assert len(old_tokens) == len(golden.documents)

    def test_reader_keeps_one_string_per_tag(self, golden):
        tags = [tag for doc in round_trip(golden).documents for tag in doc.tags]
        assert len({id(tag) for tag in tags}) == len(set(tags))


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
        assert again.texts == doc.texts
        assert [s.span for s in again.sentences] == [s.span for s in doc.sentences]
        assert [(e.entity_type, e.span) for e in again.entities] == [
            (e.entity_type, e.span) for e in doc.entities
        ]

    def test_token_starting_with_hash_round_trips(self):
        """A token line may start with `#`: only a line with no TAB is a comment."""
        doc = document_from_text("Intel sells #AI chips .", doc_id="d")
        again = read_tagged(export_column(doc), doc_id="d")
        assert again.texts == ("Intel", "sells", "#AI", "chips", ".")
        assert (again.tags, again.char_starts, again.char_ends) == (doc.tags, doc.char_starts, doc.char_ends)
        assert [s.span for s in again.sentences] == [s.span for s in doc.sentences]


# pieces of drawn ids, token texts and tags; half the documents also draw what the column format cannot hold
_PIECES = ["a", "Z", "#", " ", "B-", "I-"]
_BREAKS = ["\t", "\n", "\r", "\u2028", "\x85"]
_TAGS = ["NN", "NNP", "VBZ", "#"]


@st.composite
def column_documents(draw) -> Document:
    """A document whose id, tokens, tags and mention ids may hold what the column format cannot."""
    breaks = draw(st.booleans())
    fields = st.lists(st.sampled_from(_PIECES + _BREAKS * breaks), min_size=1, max_size=4).map("".join)
    # `read_tagged` strips the tag field, so a padded tag cannot be written either
    tags = st.sampled_from(_TAGS + ["N\tN", "NN\u2028", " NN", "VBZ ", "NNP\u3000"] * breaks)
    sentence = st.lists(st.tuples(fields, tags), min_size=1, max_size=4)
    doc = document_from_tokens(draw(fields), draw(st.lists(sentence, min_size=1, max_size=3)))
    kept = NestingIndex(())
    entities = []
    starts_and_widths = st.lists(st.tuples(st.integers(0, len(doc.texts) - 1), st.integers(1, 3)), max_size=4)
    for i, (start, width) in enumerate(draw(starts_and_widths)):
        sentence = doc.sentences[doc.sentence_index(start)].span
        span = Span(start, min(start + width, sentence.end))
        if kept.crosses(span):
            continue
        kept.add(span)
        has_noun = not NOUN_TAGS.isdisjoint(doc.tags[span.start:span.end])
        entity_type = EntityType.PRODUCT if has_noun and draw(st.booleans()) else EntityType.COMPANY
        entities.append(EntityMention(f"{draw(fields)}{i}", entity_type, span,
                                      mention_kind(doc.tags, span), Provenance.HUMAN))
    return attach_annotations(doc, entities)


class TestColumnRoundTrip:
    def test_breaks_are_the_reader_s_separators(self):
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        line_ends = {line[-1] for line in every_char.splitlines(keepends=True)[:-1]}
        assert COLUMN_BREAKS == line_ends | {"\t"}

    @settings(max_examples=300, deadline=None)
    @given(column_documents())
    # `read_tagged` would read these tags back stripped, as NNP and NNS
    @example(document_from_tokens("x", [[("Intel", "NNP "), ("chips", " NNS")]]))
    def test_writes_what_it_reads_back_or_refuses(self, doc):
        try:
            column = export_column(doc)
        except UnrepresentableDocument:
            fields = [doc.doc_id, *doc.texts, *doc.tags, *(m.mention_id for m in doc.entities)]
            assert (not all(COLUMN_BREAKS.isdisjoint(f) for f in fields)
                    or any(tag != tag.strip() for tag in doc.tags))
            return
        again = read_tagged(column, doc_id=doc.doc_id)
        assert (again.texts, again.tags) == (doc.texts, doc.tags)
        assert [s.span for s in again.sentences] == [s.span for s in doc.sentences]
        outermost = {m.span for m in doc.entities
                     if not any(o.span != m.span and o.span.contains(m.span) for o in doc.entities)}
        assert {m.span for m in again.entities} == outermost
