"""Corpus serialization: line-delimited JSON records with a versioned header.

The first line is a header record carrying the schema version; every
following line is one self-describing document record.  Field order is
fixed, so files written by this module round-trip byte-identically.
All model invariants are re-checked on read.
"""

from __future__ import annotations

import json
import operator
import os
import re
from json.encoder import encode_basestring  # the quoting of json.dumps(ensure_ascii=False)
from sys import intern
from typing import IO, Iterable, Iterator

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
    TokenColumns,
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


def _header_line(schema_version: str) -> str:
    return _dump({"schema_version": schema_version}) + "\n"


def _array_body(item: str, columns: list, n: int) -> str:
    """The body of a JSON array of `n` objects, formatted by one `%` call: `item`,
    a template ending in a comma, is repeated `n` times, less the last comma,
    and takes its i-th value of each object from `columns[i]`."""
    if not n:
        return ""
    values: list = [None] * (len(columns) * n)
    for i, column in enumerate(columns):
        values[i::len(columns)] = column
    return (item * n)[:-1] % tuple(values)


def document_line(doc: Document) -> str:
    """The line that holds `doc` in a corpus file, with its newline.

    The tokens and sentences, most of the line, are formatted directly, one
    `%` call for each array; the line equals `_dump` of the record holding the
    same fields.
    """
    quote = encode_basestring
    tokens = _array_body('{"text":%s,"pos":%s,"start":%d,"end":%d},', [
        map(quote, doc.texts), map(quote, doc.tags), doc.char_starts, doc.char_ends], len(doc.texts))
    spans = [s.span for s in doc.sentences]
    sentences = _array_body('{"start":%d,"end":%d},', [[s.start for s in spans], [s.end for s in spans]], len(spans))
    entities = [
        {
            "id": e.mention_id,
            "type": e.entity_type.value,
            "kind": e.mention_kind.value,
            "start": e.span.start,
            "end": e.span.end,
            "provenance": e.provenance.value,
        }
        for e in doc.entities
    ]
    relations = []
    for r in doc.relations:
        rel: dict = {"id": r.relation_id, "company": r.company, "products": list(r.products)}
        if r.trigger is not None:
            rel["trigger"] = {"start": r.trigger.start, "end": r.trigger.end}
        rel["provenance"] = r.provenance.value
        if r.pattern_id is not None:
            rel["pattern_id"] = r.pattern_id
        relations.append(rel)
    chains = [{"id": c.chain_id, "source": c.source, "targets": list(c.targets)} for c in doc.chains]
    # one join, so that the line is built without a second copy of it
    return "".join([
        '{"doc_id":', quote(doc.doc_id), ',"text":', quote(doc.text),
        ',"tokens":[', tokens, '],"sentences":[', sentences,
        '],"entities":', _dump(entities), ',"relations":', _dump(relations),
        ',"chains":', _dump(chains), "}\n",
    ])


def write_corpus(corpus: Corpus, sink: IO[str]) -> None:
    """Write `corpus` to a text sink, one record per line after the header."""
    try:
        sink.write(_header_line(corpus.schema_version))
        sink.writelines(map(document_line, corpus.documents))
    except OSError as exc:
        raise SinkFailure(f"could not write corpus: {exc}") from exc


# Record layouts as (field, kind) pairs.  A kind is str, int, list, an Enum
# whose value the field holds, `tuple` for a list of strings, or the layout
# of a nested object.  The fields in `_OPTIONAL` may be absent or null.
_SPAN = (("start", int), ("end", int))
_TOKEN = (("text", str), ("pos", str), *_SPAN)
_ENTITY = (("id", str), ("type", EntityType), ("kind", MentionKind), *_SPAN,
           ("provenance", Provenance))
_RELATION = (("id", str), ("company", str), ("products", tuple), ("trigger", _SPAN),
             ("provenance", Provenance), ("pattern_id", str))
_CHAIN = (("id", str), ("source", str), ("targets", tuple))
_OPTIONAL = frozenset({"trigger", "pattern_id"})
_MEMBERS = {kind: {m.value: m for m in kind} for kind in (EntityType, MentionKind, Provenance)}
_KIND_NAMES = {str: "a string", int: "an integer", list: "a list", tuple: "a list of strings",
               **{kind: "one of " + ", ".join(map(repr, m)) for kind, m in _MEMBERS.items()}}


def _path_name(path: tuple) -> str:
    """A field path as messages spell it, such as ``tokens[3].start``."""
    return "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path)[1:]


def _field(container, key, kind, line_no: int, path: tuple = ()):
    """`container[key]` read as `kind`, whose JSON type it must have exactly.

    A bool, a float or a numeric string is not an integer.  An enum reads as
    its member, a nested object as the tuple of its fields.  `path` locates
    `container` in the record, to name the field in a MalformedRecord.
    """
    value = container.get(key) if type(container) is dict else container[key]
    if value is None and key in _OPTIONAL:
        return None
    if value is None and type(container) is dict and key not in container:
        raise MalformedRecord(line_no, f"missing field {_path_name((*path, key))!r}")
    if type(value) is kind:
        return value
    if kind in _MEMBERS and type(value) is str and value in _MEMBERS[kind]:
        return _MEMBERS[kind][value]
    where = (*path, key)
    # plain strings and integers inside are taken as they are, without a call
    if type(kind) is tuple and type(value) is dict:
        return tuple([v if type(v := value.get(name)) is k else _field(value, name, k, line_no, where)
                      for name, k in kind])
    if kind is tuple and type(value) is list:
        return tuple([v if type(v) is str else _field(value, i, str, line_no, where)
                      for i, v in enumerate(value)])
    expected = "an object" if type(kind) is tuple else _KIND_NAMES[kind]
    found = repr(value) if type(value) is str else type(value).__name__
    raise MalformedRecord(line_no, f"{_path_name(where)} must be {expected}, not {found}")


def _objects(record: dict, key: str, layout: tuple, line_no: int) -> list[tuple]:
    """The list of objects `record[key]`, each read as the values of its `layout`."""
    items, path = _field(record, key, list, line_no), (key,)
    return [_field(items, i, layout, line_no, path) for i in range(len(items))]


_TOKEN_GETTERS = tuple(operator.itemgetter(name) for name, _ in _TOKEN)


def _all_exactly(column: tuple, kind: type) -> bool:
    """Whether every value of `column` has exactly type `kind`: a bool is not an int."""
    return operator.countOf(map(type, column), kind) == len(column)


def _token_columns(raw_tokens: list) -> TokenColumns | None:
    """The columns of a record's tokens, each taken and type-checked in one pass,
    or None if a token is not an object with each field of exactly its type."""
    try:
        # through lists, so that each tuple is made at its length: CPython keeps a freed small tuple
        # for reuse at that length only, and a tuple built from a map starts at another and grows
        texts, tags, starts, ends = (tuple([*map(get, raw_tokens)]) for get in _TOKEN_GETTERS)
        # one string is kept per tag; `intern` takes nothing but a str
        tags = tuple([*map(intern, tags)])
    except (KeyError, TypeError):
        return None
    if _all_exactly(texts, str) and _all_exactly(starts, int) and _all_exactly(ends, int):
        return TokenColumns(texts, tags, starts, ends)
    return None


def _parse_document(record: dict, line_no: int) -> Document:
    """Build a document from `record`, reading and type-checking each field once."""
    doc_id = _field(record, "doc_id", str, line_no)
    text = _field(record, "text", str, line_no)
    tokens = _token_columns(_field(record, "tokens", list, line_no))
    if tokens is None:
        # reading the tokens one by one through `_field` raises the MalformedRecord naming the bad one
        tokens = TokenColumns.from_rows(_objects(record, "tokens", _TOKEN, line_no))
    sentences = _objects(record, "sentences", _SPAN, line_no)
    entities = [
        EntityMention(mention_id, entity_type, Span(start, end), kind, provenance)
        for mention_id, entity_type, kind, start, end, provenance
        in _objects(record, "entities", _ENTITY, line_no)
    ]
    relations = [
        RelationMention(relation_id, company, products, trigger and Span(*trigger), provenance, pattern)
        for relation_id, company, products, trigger, provenance, pattern
        in _objects(record, "relations", _RELATION, line_no)
    ]
    chains = [IdentityChain(*chain) for chain in _objects(record, "chains", _CHAIN, line_no)]

    try:
        doc = make_document(doc_id, text, tokens, sentences)
        return attach_annotations(doc, entities, relations, chains)
    except InvariantViolation:
        raise
    except ModelError as exc:
        raise InvariantViolation(f"document {doc_id!r}: {exc}") from exc


# a JSON escape of a UTF-16 surrogate: a line decoded from UTF-8 without one holds no surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_surrogate(record: dict) -> bool:
    """Whether a key or a string value of `record`, at any depth, holds a lone surrogate,
    which UTF-8 cannot encode (RFC 8259, section 8.2); `json.loads` joins each escaped pair.
    The walk keeps its own stack, as a record may nest deeper than Python recurses."""
    stack: list = [record]
    while stack:
        value = stack.pop()
        if type(value) is dict:
            stack += value
            stack += value.values()
        elif type(value) is list:
            stack += value
        elif type(value) is str and _SURROGATE.search(value):
            return True
    return False


def iter_documents(source: IO[str] | Iterable[str]) -> Iterator[str | Document]:
    """Yield the header's schema version, then each document of a corpus stream as it is read,
    re-validating every model invariant; a doc_id seen before raises InvariantViolation.

    A line that `json.loads` cannot read, including one nested too deeply or
    holding an integer of more digits than `int` converts, raises MalformedRecord,
    and so does one holding a lone surrogate, which could not be written back.
    """
    version: str | None = None
    seen_ids: set[str] = set()
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise MalformedRecord(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "record is not an object")
        if _SURROGATE_ESCAPE.search(line) and _holds_surrogate(record):
            raise MalformedRecord(line_no, "a string holds a lone surrogate, which UTF-8 cannot encode")
        if version is None:
            version = _field(record, "schema_version", str, line_no)
            major = version.split(".", 1)[0]
            if major != SCHEMA_VERSION.split(".", 1)[0]:
                raise SchemaVersionMismatch(version)
            yield version
            continue
        doc = _parse_document(record, line_no)
        if doc.doc_id in seen_ids:
            raise InvariantViolation(f"duplicate doc_id {doc.doc_id!r}")
        seen_ids.add(doc.doc_id)
        # a suspended reader holds no line or record: two readers in turn would hold two
        del line, record
        yield doc
    if version is None:
        raise MalformedRecord(1, "empty stream: missing header record")


def read_corpus(source: IO[str] | Iterable[str]) -> Corpus:
    """Read a corpus stream whole, as `iter_documents` reads it."""
    documents = iter_documents(source)
    return Corpus(schema_version=next(documents), documents=tuple(documents))


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write `corpus` to `path`, replacing any old file only once the new one is whole."""
    save_document_lines(map(document_line, corpus.documents), path, corpus.schema_version)


def save_document_lines(lines: Iterable[str], path: str, schema_version: str) -> None:
    """Write the header and each `document_line` of `lines` as it comes to a file beside `path`,
    renamed over `path` once whole; on any error it is removed (an OSError raises SinkFailure)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(_header_line(schema_version))
                fh.writelines(lines)
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

