"""Turning raw text or pre-tagged column files into Documents.

The built-in tokenizer and tagger exist so the toolkit is self-contained
and tests are hermetic; the recommended path for serious use is pre-tagged
column input (one `TOKEN<TAB>POS[<TAB>BIO]` line per token, blank line
between sentences, `#` comments).  Company mentions are recognised with a
gazetteer plus a legal-suffix heuristic over capitalized proper-noun runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    Token,
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

_BIO_TAGS = {"B-Company", "I-Company", "B-Product", "I-Product", "O"}
_BIO_TYPE = {"Company": EntityType.COMPANY, "Product": EntityType.PRODUCT}


def document_from_tokens(doc_id: str, sentences: Sequence[Sequence[tuple[str, str]]]) -> Document:
    """A Document of (text, POS) sentences whose text is the tokens joined by spaces."""
    tokens: list[Token] = []
    spans: list[tuple[int, int]] = []
    cursor = 0
    for sentence in sentences:
        start = len(tokens)
        for text, pos in sentence:
            tokens.append(Token(text, pos, cursor, cursor + len(text)))
            cursor += len(text) + 1
        spans.append((start, len(tokens)))
    return make_document(doc_id, " ".join(t.text for t in tokens), tokens, spans)


def read_tagged(column_text: str, doc_id: str = "doc") -> Document:
    """Parse the TOKEN/POS/BIO column format into a Document.

    BIO-marked Company/Product mentions are attached with Human provenance.
    """
    sentences: list[list[tuple[str, str]]] = [[]]
    bios: list[str] = []
    for line_no, line in enumerate(column_text.splitlines(), start=1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if sentences[-1]:
                sentences.append([])
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3) or not fields[0] or not fields[1].strip():
            raise MalformedLine(line_no, line.strip()[:40])
        bio = fields[2].strip() if len(fields) == 3 else "O"
        if bio not in _BIO_TAGS:
            raise MalformedLine(line_no, f"unknown BIO tag {bio!r}")
        prev_bio = bios[-1] if sentences[-1] else "O"
        if bio.startswith("I-") and prev_bio not in (f"B-{bio[2:]}", f"I-{bio[2:]}"):
            raise IllegalBioTransition(line_no, bio)
        sentences[-1].append((fields[0], fields[1].strip()))
        bios.append(bio)
    if not sentences[-1]:
        sentences.pop()
    doc = document_from_tokens(doc_id, sentences)

    # an I- tag never opens a sentence, so a mention never crosses one
    entities: list[EntityMention] = []
    for start, bio in enumerate(bios):
        if bio.startswith("B-"):
            end = start + 1
            while end < len(bios) and bios[end].startswith("I-"):
                end += 1
            span = Span(start, end)
            entities.append(
                EntityMention(
                    mention_id=f"{doc_id}-e{len(entities)}",
                    entity_type=_BIO_TYPE[bio[2:]],
                    span=span,
                    mention_kind=mention_kind(doc.tokens, span),
                    provenance=Provenance.HUMAN,
                )
            )
    return attach_annotations(doc, entities=entities)


def document_from_text(text: str, doc_id: str = "doc") -> Document:
    """Tokenize, sentence-split and tag raw text into a Document."""
    triples = tokenize(text)
    spans = split_sentences([t for t, _, _ in triples])
    tokens: list[Token] = []
    # a document uses few distinct words: tag each (word, sentence-initial) once
    tags: dict[tuple[str, bool], str] = {}
    for start, end in spans:
        for i, (text_, cs, ce) in enumerate(triples[start:end]):
            key = (text_, i == 0)
            pos = tags.get(key) or tags.setdefault(key, _tag_word(*key))
            tokens.append(Token(text_, pos, cs, ce))
    return make_document(doc_id, text, tokens, spans)


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
        with open(path, encoding="utf-8") as fh:
            return cls.from_names(line for line in fh if not line.startswith("#"))


def recognize_orgs(doc: Document, gazetteer: OrgGazetteer) -> list[EntityMention]:
    """Mark Company mentions: gazetteer matches and NNP runs ending in a legal suffix.

    Overlapping candidates are resolved longest-first, then leftmost; the
    returned spans never overlap each other or existing Company mentions.
    """
    lowered = [t.text.lower() for t in doc.tokens]
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
            if doc.tokens[i].pos in PROPER_NOUN_TAGS and doc.tokens[i].text[:1].isupper():
                j = i
                while j < e and doc.tokens[j].pos in PROPER_NOUN_TAGS and doc.tokens[j].text[:1].isupper():
                    j += 1
                for k in range(j - 1, i, -1):  # run of >= 2 tokens
                    if doc.tokens[k].text in LEGAL_SUFFIXES:
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
