from __future__ import annotations

import pytest

from promex.model import (
    Corpus,
    EntityMention,
    EntityType,
    MentionKind,
    Provenance,
    RelationMention,
    Span,
    Token,
    TokenColumns,
    attach_annotations,
    make_document,
)

def spans_overlap(a: Span, b: Span) -> bool:
    return a.start < b.end and b.start < a.end


def spans_cross(a: Span, b: Span) -> bool:
    """Partial overlap, the spec `NestingIndex` and the nesting check are held to:
    the spans overlap but neither contains the other."""
    return spans_overlap(a, b) and not (a.contains(b) or b.contains(a))


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    """Invoke the CLI in-process, capturing exit code and streams."""
    from promex.cli import main

    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


def simple_rows(tagged: str) -> list[tuple[str, str, int, int]]:
    """'BMW/NNP 's/POS' -> offset-consistent (text, POS, char start, char end) rows."""
    rows = []
    cursor = 0
    for item in tagged.split():
        text, _, pos = item.rpartition("/")
        if rows:
            cursor += 1
        rows.append((text, pos, cursor, cursor + len(text)))
        cursor += len(text)
    return rows


def simple_tokens(tagged: str) -> list[Token]:
    """'BMW/NNP 's/POS' -> offset-consistent Token list."""
    return [Token(*row) for row in simple_rows(tagged)]


def simple_columns(tagged: str) -> TokenColumns:
    """'BMW/NNP 's/POS' -> offset-consistent token columns, as `make_document` takes them."""
    return TokenColumns.from_rows(simple_rows(tagged))


def table3_scale_corpus() -> Corpus:
    """A synthetic corpus whose totals equal the reference statistics row.

    152 documents, 4001 sentences, 131929 word tokens, 2191 company
    mentions, 1717 product mentions and 379 relation mentions, spread as
    evenly as integer arithmetic allows.
    """
    n_docs = 152

    def share(total: int, index: int) -> int:
        base, extra = divmod(total, n_docs)
        return base + (1 if index < extra else 0)

    documents = []
    for d in range(n_docs):
        n_sentences = share(4001, d)
        n_words = share(131929, d)
        n_companies = share(2191, d)
        n_products = share(1717, d)
        n_relations = share(379, d)

        lengths = [
            n_words // n_sentences + (1 if k < n_words % n_sentences else 0)
            for k in range(n_sentences)
        ]
        assert lengths[0] >= n_companies + n_products

        rows: list[tuple[str, str, int, int]] = []
        spans: list[tuple[int, int]] = []
        pieces: list[str] = []
        cursor = 0
        for length in lengths:
            start = len(rows)
            for _ in range(length):
                text = f"w{len(rows)}"
                if pieces:
                    cursor += 1
                pieces.append(text)
                rows.append((text, "NN", cursor, cursor + len(text)))
                cursor += len(text)
            spans.append((start, len(rows)))
        doc = make_document(f"doc-{d:03d}", " ".join(pieces), TokenColumns.from_rows(rows), spans)

        entities = []
        for i in range(n_companies):
            entities.append(
                EntityMention(f"c{i}", EntityType.COMPANY, Span(i, i + 1),
                              MentionKind.NAME, Provenance.HUMAN)
            )
        for i in range(n_products):
            offset = n_companies + i
            entities.append(
                EntityMention(f"p{i}", EntityType.PRODUCT, Span(offset, offset + 1),
                              MentionKind.NOMINAL, Provenance.HUMAN)
            )
        relations = [
            RelationMention(f"r{i}", f"c{i}", (f"p{i}",), None, Provenance.HUMAN)
            for i in range(n_relations)
        ]
        documents.append(attach_annotations(doc, entities, relations))
    return Corpus(schema_version="1.0", documents=tuple(documents))


@pytest.fixture(scope="session")
def golden():
    from promex.examples import golden_corpus

    return golden_corpus()
