"""Corpus serialization: line-delimited JSON records with a versioned header.

The first line is a header record carrying the schema version; every
following line is one self-describing document record.  Field order is
fixed, so files written by this module round-trip byte-identically.
All model invariants are re-checked on read.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable

from .model import (
    Corpus,
    Document,
    EntityMention,
    EntityType,
    IdentityChain,
    InvariantViolation,
    MentionKind,
    ModelError,
    Provenance,
    RelationMention,
    Span,
    Token,
    attach_annotations,
    make_document,
)

SCHEMA_VERSION = "1.0"


class CorpusIOError(ValueError):
    pass


class SchemaVersionMismatch(CorpusIOError):
    def __init__(self, found: str) -> None:
        super().__init__(f"unsupported schema version {found!r} (supported: {SCHEMA_VERSION})")
        self.found = found


class MalformedRecord(CorpusIOError):
    def __init__(self, line_no: int, detail: str) -> None:
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


class SinkFailure(CorpusIOError):
    pass


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _document_record(doc: Document) -> dict:
    record: dict = {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "tokens": [
            {"text": t.text, "pos": t.pos, "start": t.char_start, "end": t.char_end}
            for t in doc.tokens
        ],
        "sentences": [{"start": s.span.start, "end": s.span.end} for s in doc.sentences],
        "entities": [
            {
                "id": e.mention_id,
                "type": e.entity_type.value,
                "kind": e.mention_kind.value,
                "start": e.span.start,
                "end": e.span.end,
                "provenance": e.provenance.value,
            }
            for e in doc.entities
        ],
        "relations": [],
        "chains": [
            {"id": c.chain_id, "source": c.source, "targets": list(c.targets)}
            for c in doc.chains
        ],
    }
    for r in doc.relations:
        rel: dict = {
            "id": r.relation_id,
            "company": r.company,
            "products": list(r.products),
        }
        if r.trigger is not None:
            rel["trigger"] = {"start": r.trigger.start, "end": r.trigger.end}
        rel["provenance"] = r.provenance.value
        if r.pattern_id is not None:
            rel["pattern_id"] = r.pattern_id
        record["relations"].append(rel)
    return record


def write_corpus(corpus: Corpus, sink: IO[str]) -> None:
    """Write `corpus` to a text sink, one record per line after the header."""
    try:
        sink.write(_dump({"schema_version": corpus.schema_version}) + "\n")
        for doc in corpus.documents:
            sink.write(_dump(_document_record(doc)) + "\n")
    except OSError as exc:
        raise SinkFailure(f"could not write corpus: {exc}") from exc


def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise MalformedRecord(line_no, f"missing field {key!r}")
    return record[key]


def _require_strings(line_no: int, field: str, values: Iterable) -> None:
    for value in values:
        if not isinstance(value, str):
            raise MalformedRecord(
                line_no, f"{field} must be a string, not {type(value).__name__}"
            )


def _check_field_types(
    line_no: int,
    doc_id: object,
    text: object,
    tokens: list[Token],
    entities: list[EntityMention],
    relations: list[RelationMention],
    chains: list[IdentityChain],
) -> None:
    """Reject ids and texts that are not strings before the model hashes or compares them."""
    _require_strings(line_no, "doc_id", (doc_id,))
    _require_strings(line_no, "text", (text,))
    _require_strings(line_no, "token text", (t.text for t in tokens))
    _require_strings(line_no, "token pos", (t.pos for t in tokens))
    _require_strings(line_no, "mention id", (e.mention_id for e in entities))
    for r in relations:
        _require_strings(line_no, "relation id", (r.relation_id, r.company, *r.products))
        if r.pattern_id is not None:
            _require_strings(line_no, "pattern_id", (r.pattern_id,))
    for c in chains:
        _require_strings(line_no, "chain id", (c.chain_id, c.source, *c.targets))


def _parse_document(record: dict, line_no: int) -> Document:
    try:
        doc_id = _require(record, "doc_id", line_no)
        text = _require(record, "text", line_no)
        tokens = [
            Token(t["text"], t["pos"], int(t["start"]), int(t["end"]))
            for t in _require(record, "tokens", line_no)
        ]
        sentences = [
            (int(s["start"]), int(s["end"]))
            for s in _require(record, "sentences", line_no)
        ]
        entities = [
            EntityMention(
                mention_id=e["id"],
                entity_type=EntityType(e["type"]),
                span=Span(int(e["start"]), int(e["end"])),
                mention_kind=MentionKind(e["kind"]),
                provenance=Provenance(e["provenance"]),
            )
            for e in _require(record, "entities", line_no)
        ]
        relations = [
            RelationMention(
                relation_id=r["id"],
                company=r["company"],
                products=tuple(r["products"]),
                trigger=Span(int(r["trigger"]["start"]), int(r["trigger"]["end"]))
                if r.get("trigger") is not None
                else None,
                provenance=Provenance(r["provenance"]),
                pattern_id=r.get("pattern_id"),
            )
            for r in _require(record, "relations", line_no)
        ]
        chains = [
            IdentityChain(
                chain_id=c["id"], source=c["source"], targets=tuple(c["targets"])
            )
            for c in _require(record, "chains", line_no)
        ]
    except MalformedRecord:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(line_no, f"bad document record: {exc}") from exc
    _check_field_types(line_no, doc_id, text, tokens, entities, relations, chains)

    try:
        doc = make_document(doc_id, text, tokens, sentences)
        return attach_annotations(doc, entities, relations, chains)
    except InvariantViolation:
        raise
    except ModelError as exc:
        raise InvariantViolation(f"document {doc_id!r}: {exc}") from exc


def read_corpus(source: IO[str] | Iterable[str]) -> Corpus:
    """Read a corpus stream, re-validating every model invariant."""
    documents: list[Document] = []
    version: str | None = None
    seen_ids: set[str] = set()
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "record is not an object")
        if version is None:
            if "schema_version" not in record:
                raise MalformedRecord(line_no, "first record must carry schema_version")
            version = str(record["schema_version"])
            major = version.split(".", 1)[0]
            if major != SCHEMA_VERSION.split(".", 1)[0]:
                raise SchemaVersionMismatch(version)
            continue
        doc = _parse_document(record, line_no)
        if doc.doc_id in seen_ids:
            raise InvariantViolation(f"duplicate doc_id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        documents.append(doc)
    if version is None:
        raise MalformedRecord(1, "empty stream: missing header record")
    return Corpus(schema_version=version, documents=tuple(documents))


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write `corpus` to `path`, replacing any old file only once the new one is whole.

    The corpus goes to a temporary file beside `path`, which is then renamed
    over it; on failure the temporary file is removed and `path` is untouched.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                write_corpus(corpus, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise SinkFailure(f"could not write {path!r}: {exc}") from exc


def load_corpus(path: str) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return read_corpus(fh)


# ---------------------------------------------------------------------------
# Column export

def export_column(doc: Document) -> str:
    """Render a document in the TOKEN/POS/BIO column format.

    Lossy: relations and identity chains are dropped, and nested mentions
    lose to their enclosing mention; both facts are noted in comments.
    """
    lines = [
        f"# doc_id: {doc.doc_id}",
        "# columns: TOKEN POS BIO",
        "# note: relations and identity chains are not representable in this format",
    ]
    bio = ["O"] * len(doc.tokens)
    owner: list[EntityMention | None] = [None] * len(doc.tokens)
    for mention in sorted(doc.entities, key=lambda m: (m.span.start, -len(m.span))):
        covered = [owner[i] is not None for i in range(mention.span.start, mention.span.end)]
        if any(covered):
            lines.append(
                f"# nested-mention: {mention.mention_id} {mention.entity_type.value} "
                f"[{mention.span.start},{mention.span.end}) suppressed"
            )
            continue
        for i in range(mention.span.start, mention.span.end):
            owner[i] = mention
            prefix = "B" if i == mention.span.start else "I"
            bio[i] = f"{prefix}-{mention.entity_type.value}"
    for sentence in doc.sentences:
        for i in range(sentence.span.start, sentence.span.end):
            token = doc.tokens[i]
            lines.append(f"{token.text}\t{token.pos}\t{bio[i]}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
