"""Turning raw text or pre-tagged column files into Documents, and Documents back into column files.

The built-in tokenizer and tagger exist so the toolkit is self-contained and
tests are hermetic.  A word's tag depends on the word alone and on whether it
opens a sentence, so a bounded memo (`TAG_MEMO_SIZE` pairs) tags each distinct
word once per process.  The recommended path for serious use is pre-tagged
column input, which `read_tagged` reads one line at a time (`str.splitlines`):

* a line that starts with `#` and holds no TAB is a comment, so `#AI<TAB>NNP`
  is a token line;
* a line of whitespace only ends the sentence;
* any other line is a token line of 2 or 3 TAB-separated fields,
  `TOKEN<TAB>POS[<TAB>BIO]`: a non-empty token, a POS tag that is non-empty
  once stripped, and a BIO tag (`O`, or `B-` or `I-` and an entity type),
  stripped, `O` when absent;
* `I-X` may follow only `B-X` or `I-X` in the same sentence;
* the document's text is the tokens joined by single spaces.

Company mentions are recognised with a gazetteer plus a legal-suffix
heuristic over capitalized proper-noun runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Iterable, Sequence

from .inflect import inflections
from .model import (
    Document,
    EntityMention,
    EntityType,
    MentionKind,
    NestingIndex,
    POSSESSIVE_CLITICS,
    PROPER_NOUN_TAGS,
    Provenance,
    Span,
    TokenColumns,
    TRADEMARK_TEXTS,
    attach_annotations,
    is_word,
    make_document,
    mention_kind,
)


class IngestError(ValueError):
    pass


class MalformedLine(IngestError):
    def __init__(self, line_no: int, detail: str = "") -> None:
        super().__init__(f"line {line_no}: malformed column line{': ' if detail else ''}{detail}")
        self.line_no = line_no


class IllegalBioTransition(IngestError):
    def __init__(self, line_no: int, tag: str) -> None:
        super().__init__(f"line {line_no}: illegal BIO transition to {tag!r}")
        self.line_no = line_no


class UnrepresentableDocument(IngestError):
    """`export_column` cannot write a document whose id, suppressed mention ids,
    token texts or tags hold a character of `COLUMN_BREAKS`, or whose tags
    `str.strip` would change."""


# ---------------------------------------------------------------------------
# Tokenization

_PUNCT = set(".,;:!?()\"'")
_APOSTROPHES = {"'", "’"}
_SENTENCE_FINAL = {".", "!", "?"}
_CHUNK = re.compile(r"\S+")
# a trademark symbol, which always stands alone, or a run of other characters
_CORE_PART = re.compile("[{0}]|[^{0}]+".format("".join(sorted(TRADEMARK_TEXTS))))


def _split_core(core: str, offset: int) -> list[tuple[str, int, int]]:
    # almost no chunk holds a trademark symbol
    parts = ([(core, offset, offset + len(core))] if TRADEMARK_TEXTS.isdisjoint(core)
             else [(m.group(), offset + m.start(), offset + m.end()) for m in _CORE_PART.finditer(core)])

    out: list[tuple[str, int, int]] = []
    for text, start, end in parts:
        # possessive clitic is always its own token
        if len(text) > 2 and text[-1] in "sS" and text[-2] in _APOSTROPHES:
            out.append((text[:-2], start, end - 2))
            out.append((text[-2:], end - 2, end))
        else:
            out.append((text, start, end))
    return out


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split `text` into (token, char_start, char_end) triples.

    Whitespace-delimited chunks are split further: leading/trailing
    punctuation, the possessive clitic "'s" and trademark symbols each
    become their own token; internal hyphens are kept.
    """
    tokens: list[tuple[str, int, int]] = []
    for m in _CHUNK.finditer(text):
        start, end = m.start(), m.end()
        word = m.group()
        # most chunks are plain words, which the steps below would leave whole
        if (word[0] not in _PUNCT and word[-1] not in _PUNCT
                and word[-2:-1] not in _APOSTROPHES and TRADEMARK_TEXTS.isdisjoint(word)):
            tokens.append((word, start, end))
            continue
        # peel leading punctuation, but never the apostrophe of a bare clitic
        while start < end and text[start] in _PUNCT:
            rest = text[start:end]
            if (
                rest[0] in _APOSTROPHES
                and len(rest) >= 2
                and rest[1] in "sS"
                and all(c in _PUNCT for c in rest[2:])
            ):
                break
            tokens.append((text[start], start, start + 1))
            start += 1
        # collect trailing punctuation (kept in order after the core)
        trailing: list[tuple[str, int, int]] = []
        while end > start and text[end - 1] in _PUNCT:
            # do not peel the apostrophe of a final possessive clitic
            if end - start >= 2 and text[end - 1] in "sS'" and text[end - 2] in _APOSTROPHES:
                break
            trailing.append((text[end - 1], end - 1, end))
            end -= 1
        if end > start:
            tokens.extend(_split_core(text[start:end], start))
        tokens.extend(reversed(trailing))
    return tokens


def split_sentences(token_texts: Sequence[str]) -> list[tuple[int, int]]:
    """Token-index sentence intervals: a sentence ends after . ! or ?"""
    spans: list[tuple[int, int]] = []
    start = 0
    for i, text in enumerate(token_texts):
        if text in _SENTENCE_FINAL:
            spans.append((start, i + 1))
            start = i + 1
    if start < len(token_texts):
        spans.append((start, len(token_texts)))
    return spans


# ---------------------------------------------------------------------------
# Tagging

_NUMERIC = re.compile(r"^\d[\d.,\-/]*$")


def _word_map() -> dict[str, str]:
    words = {
        "the": "DT", "a": "DT", "an": "DT", "this": "DT", "that": "DT",
        "these": "DT", "those": "DT", "each": "DT", "every": "DT",
        "which": "WDT", "who": "WP", "whom": "WP",
        "of": "IN", "in": "IN", "on": "IN", "at": "IN", "by": "IN",
        "for": "IN", "with": "IN", "from": "IN", "into": "IN", "over": "IN",
        "under": "IN", "between": "IN", "during": "IN", "through": "IN",
        "as": "IN", "about": "IN",
        "to": "TO",
        "and": "CC", "or": "CC", "but": "CC", "nor": "CC",
        "is": "VBZ", "are": "VBP", "am": "VBP", "was": "VBD", "were": "VBD",
        "be": "VB", "been": "VBN", "being": "VBG",
        "has": "VBZ", "had": "VBD", "does": "VBZ", "did": "VBD",
        "will": "MD", "would": "MD", "can": "MD", "could": "MD",
        "may": "MD", "might": "MD", "should": "MD", "must": "MD",
        "it": "PRP", "he": "PRP", "she": "PRP", "they": "PRP", "we": "PRP",
        "you": "PRP", "i": "PRP",
        "its": "PRP$", "their": "PRP$", "his": "PRP$", "her": "PRP$",
        "our": "PRP$", "your": "PRP$", "my": "PRP$",
        **dict.fromkeys(POSSESSIVE_CLITICS, "POS"),
        "not": "RB", "also": "RB", "very": "RB", "only": "RB",
        "new": "JJ", "large": "JJ", "small": "JJ", "high": "JJ", "low": "JJ",
        "business": "NN", "speed": "NN", "process": "NN",
    }
    # verbs used by the shipped pattern configuration, in all four forms
    for verb in (
        "produce", "create", "develop", "make", "manufacture", "offer",
        "launch", "release", "sell", "distribute", "provide", "supply",
        "include", "collect", "analyze", "invest", "have", "do",
    ):
        for form, form_tag in zip(inflections(verb), ("VB", "VBZ", "VBD", "VBG")):
            words.setdefault(form, form_tag)
    return words


_WORDS = _word_map()
# ordered longest suffix first; a word matching none is tagged NN
_SUFFIX_RULES = (
    ("ing", "VBG"),
    ("eed", "NN"),
    ("ed", "VBN"),
    ("ly", "RB"),
    ("s", "NNS"),
)


# the (word, sentence-initial) pairs whose tags are kept: a full memo holds about
# 3 MB, some 200 bytes a pair with its word; a pair it has dropped is tagged again
TAG_MEMO_SIZE = 2 ** 14


@lru_cache(maxsize=TAG_MEMO_SIZE)
def _tag_word(text: str, initial: bool) -> str:
    lower = text.lower()
    if lower in _WORDS:
        return _WORDS[lower]
    if text in TRADEMARK_TEXTS:
        return "SYM"
    if text and not is_word(text):
        # a lone mark is its own tag unless it counts as lowercase (ⓐ),
        # which no POS tag may
        return text if len(text) == 1 and not text.islower() else "SYM"
    if _NUMERIC.match(text):
        return "CD"
    if not initial and text[:1].isupper():
        return "NNP"
    for suffix, suffix_tag in _SUFFIX_RULES:
        if len(text) >= len(suffix) + 2 and lower.endswith(suffix):
            return suffix_tag
    return "NN"


def tag(tokens: Sequence[str]) -> list[str]:
    """Tag one sentence worth of token strings. Total and deterministic.

    Order: word map, punctuation/symbols, numerals, capitalized
    non-sentence-initial words, suffix rules, default tag.  Capitalization
    is tested before the suffix rules so that proper nouns like plural
    company-name parts are not mis-read as common plurals.
    """
    return [_tag_word(text, i == 0) for i, text in enumerate(tokens)]


# ---------------------------------------------------------------------------
# Column format

# the BIO vocabulary of both directions: "O", or B-/I- and an entity type's value
_BIO_TYPE = {t.value: t for t in EntityType}
_BIO_TAGS = {"O", *(f"{prefix}-{name}" for name in _BIO_TYPE for prefix in "BI")}
# each mention type's B- and I- tags
_MENTION_TAGS = tuple((f"B-{name}", f"I-{name}", entity_type) for name, entity_type in _BIO_TYPE.items())
# each BIO tag with the tags it may follow in a sentence ("O" before the first token)
_MAY_FOLLOW = {bio: frozenset({f"B-{bio[2:]}", bio}) if bio.startswith("I-") else _BIO_TAGS for bio in _BIO_TAGS}
# the column format's field separator and every character `str.splitlines` ends a line at
COLUMN_BREAKS = frozenset("\t\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")


def _joined_document(doc_id: str, texts: Sequence[str], tags: Sequence[str],
                     spans: Sequence[tuple[int, int]]) -> Document:
    """The Document of token columns whose text is the tokens joined by single spaces.

    Token i starts after the i tokens before it and a space after each, so
    its offsets are the sum of their lengths, plus i, and that plus its own length.
    """
    chars = list(accumulate(map(len, texts), initial=0))  # chars[i]: the length of the first i tokens
    starts = tuple(map(add, chars, range(len(texts))))
    ends = tuple(map(add, chars[1:], range(len(texts))))
    columns = TokenColumns(tuple(texts), tuple(tags), starts, ends)
    return make_document(doc_id, " ".join(texts), columns, spans)


def document_from_tokens(doc_id: str, sentences: Sequence[Sequence[tuple[str, str]]]) -> Document:
    """A Document of (text, POS) sentences whose text is the tokens joined by spaces."""
    bounds = list(accumulate(map(len, sentences), initial=0))
    rows = [row for sentence in sentences for row in sentence]
    spans = list(zip(bounds, bounds[1:]))
    return _joined_document(doc_id, [text for text, _ in rows], [pos for _, pos in rows], spans)


def read_tagged(column_text: str, doc_id: str = "doc") -> Document:
    """Parse the TOKEN/POS/BIO column format, by the grammar in the module docstring, into a Document.

    Each line is split once: a token line goes straight into the token
    columns, and a sentence's bounds are kept when it ends.  BIO-marked
    Company/Product mentions are attached with Human provenance.
    The text holds one document: a second `# doc_id:` comment, which opens
    another document in `export_column`'s output, raises MalformedLine.
    """
    texts: list[str] = []
    tags: list[str] = []
    bios: list[str] = []
    spans: list[tuple[int, int]] = []
    start = 0  # where the open sentence starts
    prev = "O"  # the BIO tag before the next token in its sentence
    doc_id_seen = False
    for line_no, line in enumerate(column_text.splitlines(), start=1):
        fields = line.split("\t")
        # the common line, tested at once: a token, a tag, and a BIO tag that may follow `prev`;
        # any other line takes the checks one at a time, so that an error names the first it fails
        if not (len(fields) == 3 and fields[0] and (pos := fields[1].strip())
                and prev in _MAY_FOLLOW.get(bio := fields[2].strip(), ())):
            if line.startswith("#") and len(fields) == 1:
                if line.startswith("# doc_id:"):
                    if doc_id_seen:
                        raise MalformedLine(
                            line_no, "a second '# doc_id:' comment; a column text holds one document")
                    doc_id_seen = True
                continue
            if not line.strip():
                if start < len(texts):
                    spans.append((start, len(texts)))
                    start, prev = len(texts), "O"
                continue
            if len(fields) not in (2, 3) or not fields[0] or not (pos := fields[1].strip()):
                raise MalformedLine(line_no, line.strip()[:40])
            bio = fields[2].strip() if len(fields) == 3 else "O"
            if bio not in _MAY_FOLLOW:
                raise MalformedLine(line_no, f"unknown BIO tag {bio!r}")
            if prev not in _MAY_FOLLOW[bio]:
                raise IllegalBioTransition(line_no, bio)
        texts.append(fields[0])
        tags.append(pos)
        bios.append(bio)
        prev = bio
    if start < len(texts):
        spans.append((start, len(texts)))
    doc = _joined_document(doc_id, texts, tags, spans)

    # every BIO tag is one of the vocabulary's, so a mention begins exactly where a tag equals
    # a B- tag, found by `list.index`, and runs on over the I- tags of its type after it;
    # an I- tag never opens a sentence, so a mention never crosses one
    found: list[tuple[int, int, EntityType]] = []
    for begin, inside, entity_type in _MENTION_TAGS:
        start = -1
        for _ in range(bios.count(begin)):
            start = bios.index(begin, start + 1)
            end = start + 1
            while end < len(bios) and bios[end] == inside:
                end += 1
            found.append((start, end, entity_type))
    entities: list[EntityMention] = []
    for start, end, entity_type in sorted(found):
        span = Span(start, end)
        entities.append(
            EntityMention(
                mention_id=f"{doc_id}-e{len(entities)}",
                entity_type=entity_type,
                span=span,
                mention_kind=mention_kind(doc.tags, span),
                provenance=Provenance.HUMAN,
            )
        )
    return attach_annotations(doc, entities=entities)


def export_column(doc: Document) -> str:
    """Render a document in the TOKEN/POS/BIO column format that `read_tagged` reads.

    Lossy: relations and identity chains are dropped, and nested mentions
    lose to their enclosing mention; both facts are noted in comments.
    Raises UnrepresentableDocument rather than write what `read_tagged` would
    read back differently.
    """
    def field(what: str, value: str) -> str:
        if not COLUMN_BREAKS.isdisjoint(value):
            raise UnrepresentableDocument(f"document {doc.doc_id!r}: {what} {value!r} holds a TAB or a line break")
        if what == "tag" and value != value.strip():
            # `read_tagged` strips the POS field
            raise UnrepresentableDocument(f"document {doc.doc_id!r}: tag {value!r} has surrounding whitespace")
        return value

    lines = [
        f"# doc_id: {field('doc id', doc.doc_id)}",
        "# columns: TOKEN POS BIO",
        "# note: relations and identity chains are not representable in this format",
    ]
    bio = ["O"] * len(doc.texts)
    for mention in sorted(doc.entities, key=lambda m: (m.span.start, -len(m.span))):
        span, name = mention.span, mention.entity_type.value
        if any(bio[i] != "O" for i in range(span.start, span.end)):
            mention_id = field("mention id", mention.mention_id)
            lines.append(f"# nested-mention: {mention_id} {name} [{span.start},{span.end}) suppressed")
            continue
        bio[span.start:span.end] = [f"B-{name}"] + [f"I-{name}"] * (len(span) - 1)
    for sentence in doc.sentences:
        for i in range(sentence.span.start, sentence.span.end):
            lines.append(f"{field('token', doc.texts[i])}\t{field('tag', doc.tags[i])}\t{bio[i]}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def read_text(path: str) -> str:
    """The text of a raw-text, column, list or pattern file: UTF-8, newlines read as
    `open` reads them, and one leading byte-order mark dropped, which is an
    encoding signature and not the first character of the text."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def read_list(path: str) -> list[str]:
    """The entries of a list file such as a gazetteer or a stoplist: one per line,
    stripped, with blank lines and lines that start with `#` skipped."""
    lines = read_text(path).split("\n")
    return [entry for line in lines if (entry := line.strip()) and not line.startswith("#")]


def document_from_text(text: str, doc_id: str = "doc") -> Document:
    """Tokenize, sentence-split and tag raw text into a Document.

    Tags come from the `_tag_word` memo, so a process tags each distinct
    (word, sentence-initial) pair once, however many documents hold it.
    """
    triples = tokenize(text)
    texts, char_starts, char_ends = zip(*triples) if triples else ((), (), ())
    spans = split_sentences(texts)
    # a document uses few distinct words: look each up once as not sentence-initial,
    # then look up each sentence's first token again
    tag_of = {word: _tag_word(word, False) for word in set(texts)}
    tags = list(map(tag_of.__getitem__, texts))
    for start, _ in spans:
        tags[start] = _tag_word(texts[start], True)
    return make_document(doc_id, text, TokenColumns(texts, tuple(tags), char_starts, char_ends), spans)


# ---------------------------------------------------------------------------
# Organization recognition

LEGAL_SUFFIXES = frozenset({
    "LLC", "Inc.", "Inc", "Corp.", "Corp", "Ltd.", "Ltd", "GmbH", "Co.", "Co", "AG", "Plc",
})


@dataclass(frozen=True)
class OrgGazetteer:
    """Known company names as normalized token sequences."""

    names: frozenset[tuple[str, ...]]
    # the lengths of the names that start with each word, longest first
    _widths: dict[str, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        widths: dict[str, set[int]] = {}
        for name in filter(None, self.names):
            widths.setdefault(name[0], set()).add(len(name))
        object.__setattr__(self, "_widths", {w: sorted(ns, reverse=True) for w, ns in widths.items()})

    def spans(self, lowered: Sequence[str], start: int, end: int) -> list[Span]:
        """Where the lowercased words `lowered[start:end]` hold a name: by start, longest first."""
        return [Span(i, i + n) for i in range(start, end) for n in self._widths.get(lowered[i], ())
                if n <= end - i and tuple(lowered[i:i + n]) in self.names]

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "OrgGazetteer":
        return cls(frozenset(
            tuple(w.lower() for w in name.split()) for name in names if name.strip()
        ))

    @classmethod
    def from_file(cls, path: str) -> "OrgGazetteer":
        return cls.from_names(read_list(path))


def recognize_orgs(doc: Document, gazetteer: OrgGazetteer) -> list[EntityMention]:
    """Mark Company mentions: gazetteer matches and NNP runs ending in a legal suffix.

    Overlapping candidates are resolved longest-first, then leftmost; the
    returned spans never overlap each other or existing Company mentions.
    """
    texts, tags = doc.texts, doc.tags
    lowered = list(map(str.lower, texts))
    chosen: list[Span] = []
    existing = NestingIndex(m.span for m in doc.entities)
    # positions held by a Company mention, existing or chosen
    taken = {i for m in doc.entities if m.entity_type is EntityType.COMPANY
             for i in range(m.span.start, m.span.end)}

    for sentence in doc.sentences:
        s, e = sentence.span.start, sentence.span.end
        candidates = gazetteer.spans(lowered, s, e)
        # capitalized proper-noun runs ending in a legal suffix
        i = s
        while i < e:
            if tags[i] in PROPER_NOUN_TAGS and texts[i][:1].isupper():
                j = i
                while j < e and tags[j] in PROPER_NOUN_TAGS and texts[j][:1].isupper():
                    j += 1
                for k in range(j - 1, i, -1):  # run of >= 2 tokens
                    if texts[k] in LEGAL_SUFFIXES:
                        candidates.append(Span(i, k + 1))
                        break
                i = j
            else:
                i += 1

        for span in sorted(set(candidates), key=lambda sp: (-len(sp), sp.start)):
            positions = range(span.start, span.end)
            if taken.isdisjoint(positions) and not existing.crosses(span):
                taken.update(positions)
                chosen.append(span)

    chosen.sort()
    return [
        EntityMention(
            mention_id=f"{doc.doc_id}-org{i}",
            entity_type=EntityType.COMPANY,
            span=span,
            mention_kind=MentionKind.NAME,
            provenance=Provenance.PRE_ANNOTATION,
        )
        for i, span in enumerate(chosen)
    ]
