"""Immutable document model for company/product annotation corpora.

All values are frozen dataclasses (`Token` and `Span` with slots), apart from
`TokenColumns`, a `NamedTuple`: picklable for worker processes, compared by
structural equality, and never mutated after construction.  A `Document` stores its tokens only as four parallel tuples
(texts, tags, character starts and ends), and the package reads only these;
`sentence_tokens` and `tokens` build `Token`s from them on each call, for
callers that want one value per token.  Invariants are enforced by the
construction operations (`make_document`, `attach_annotations`) and by the
corpus reader, not by the dataclasses themselves, so that the validator can
still inspect broken values built in tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})
PROPER_NOUN_TAGS = frozenset({"NNP", "NNPS"})
# trademark symbols: always their own token, matched exactly, never a boundary fault
TRADEMARK_TEXTS = frozenset({"®", "™"})
# possessive clitics: tagged POS by the built-in tagger, matched exactly by <POSS>
POSSESSIVE_CLITICS = frozenset({"'s", "’s"})
# the words that join the last two conjuncts of a coordination
CONJUNCTIONS = frozenset({"and", "or"})


def is_word(text: str) -> bool:
    """Whether `text` holds a letter or digit: a word to `stats`, not punctuation to the tagger."""
    return any(c.isalnum() for c in text)


class EntityType(str, Enum):
    COMPANY = "Company"
    PRODUCT = "Product"


class MentionKind(str, Enum):
    NAME = "Name"
    NOMINAL = "Nominal"
    PRONOMINAL = "Pronominal"


class Provenance(str, Enum):
    HUMAN = "Human"
    PRE_ANNOTATION = "PreAnnotation"


class ModelError(ValueError):
    """Base class for document-model violations."""


class OverlappingTokens(ModelError):
    def __init__(self, index: int) -> None:
        super().__init__(f"token {index} overlaps or is out of order with its predecessor")
        self.index = index


class OffsetOutOfBounds(ModelError):
    def __init__(self, index: int) -> None:
        super().__init__(f"token {index} has character offsets outside the document text")
        self.index = index


class NonPartitioningSentences(ModelError):
    def __init__(self, index: int) -> None:
        super().__init__(f"sentence {index} breaks the partition of the token sequence")
        self.index = index


class SpanCrossesSentence(ModelError):
    pass


class EmptyProductList(ModelError):
    pass


class DuplicateChainMembership(ModelError):
    pass


class NonNameChainSource(ModelError):
    pass


class InvariantViolation(ModelError):
    """Catch-all for structural violations without a dedicated error class."""


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Half-open token-index interval [start, end)."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    pos: str
    char_start: int
    char_end: int


class TokenColumns(NamedTuple):
    """A document's tokens as parallel tuples: token i is (texts[i], tags[i], char_starts[i], char_ends[i])."""

    texts: tuple[str, ...]
    tags: tuple[str, ...]
    char_starts: tuple[int, ...]
    char_ends: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[str, str, int, int]]) -> "TokenColumns":
        """The columns of (text, tag, char start, char end) rows."""
        return cls(*zip(*rows)) if rows else cls((), (), (), ())


@dataclass(frozen=True)
class Sentence:
    index: int
    span: Span


@dataclass(frozen=True)
class EntityMention:
    mention_id: str
    entity_type: EntityType
    span: Span
    mention_kind: MentionKind
    provenance: Provenance


@dataclass(frozen=True)
class RelationMention:
    relation_id: str
    company: str
    products: tuple[str, ...]
    trigger: Span | None
    provenance: Provenance
    pattern_id: str | None = None

    @property
    def key(self) -> tuple[str, tuple[str, ...], Span | None]:
        """What makes two relations the same: company, products and trigger."""
        return (self.company, self.products, self.trigger)


@dataclass(frozen=True)
class IdentityChain:
    chain_id: str
    source: str
    targets: tuple[str, ...]


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    # the tokens, as the columns of `TokenColumns`
    texts: tuple[str, ...]
    tags: tuple[str, ...]
    char_starts: tuple[int, ...]
    char_ends: tuple[int, ...]
    sentences: tuple[Sentence, ...]
    entities: tuple[EntityMention, ...] = ()
    relations: tuple[RelationMention, ...] = ()
    chains: tuple[IdentityChain, ...] = ()

    @cached_property
    def _sentence_starts(self) -> list[int]:
        # computed once per document; not a field, so equality ignores it
        return [s.span.start for s in self.sentences]

    def sentence_index(self, token_index: int) -> int:
        """Index of the sentence containing `token_index` (-1 if out of range)."""
        i = bisect.bisect_right(self._sentence_starts, token_index) - 1
        if 0 <= i < len(self.sentences) and token_index < self.sentences[i].span.end:
            return i
        return -1

    def sentence_tokens(self, sentence: Sentence) -> tuple[Token, ...]:
        """The sentence's tokens as `Token`s, built from the columns on each call."""
        s = slice(sentence.span.start, sentence.span.end)
        return tuple(map(Token, self.texts[s], self.tags[s], self.char_starts[s], self.char_ends[s]))

    @property
    def tokens(self) -> tuple[Token, ...]:
        """Every token as a `Token`, built on each read; the package itself reads the columns."""
        return self.sentence_tokens(Sentence(0, Span(0, len(self.texts))))

    def span_text(self, span: Span) -> str:
        return " ".join(self.texts[span.start:span.end])

    def entity(self, mention_id: str) -> EntityMention | None:
        for e in self.entities:
            if e.mention_id == mention_id:
                return e
        return None


def by_sentence(doc: Document, mentions: Iterable[EntityMention]) -> list[list[EntityMention]]:
    """`mentions` grouped by the sentence holding the start of their span, in input order.

    Mentions never cross a sentence, so a sentence's group holds everything
    that can overlap it.  Mentions starting outside every sentence are dropped.
    """
    groups: list[list[EntityMention]] = [[] for _ in doc.sentences]
    for mention in mentions:
        i = doc.sentence_index(mention.span.start)
        if i >= 0:
            groups[i].append(mention)
    return groups


@dataclass(frozen=True)
class Corpus:
    schema_version: str
    documents: tuple[Document, ...]


def mention_kind(tags: Sequence[str], span: Span) -> MentionKind:
    """Pronominal if every token is a pronoun, Name if any is a proper noun, by the POS `tags`."""
    window = tags[span.start:span.end]
    if window and all(pos in ("PRP", "PRP$") for pos in window):
        return MentionKind.PRONOMINAL
    if not PROPER_NOUN_TAGS.isdisjoint(window):
        return MentionKind.NAME
    return MentionKind.NOMINAL


def make_document(
    doc_id: str,
    text: str,
    tokens: TokenColumns,
    sentences: Sequence[tuple[int, int]],
) -> Document:
    """Build a Document with empty annotation lists, checking token/sentence invariants.

    `sentences` is a sequence of half-open token-index intervals that must
    partition the token sequence in order.
    """
    # a POS tag is non-empty with no lowercase letter; each distinct tag is checked once
    bad_tags = {tag for tag in set(tokens.tags) if not tag or any(c.islower() for c in tag)}
    prev_end = 0
    for i, (tok_text, pos, start, end) in enumerate(zip(*tokens)):
        if start < 0 or end > len(text) or start >= end:
            raise OffsetOutOfBounds(i)
        if start < prev_end:
            raise OverlappingTokens(i)
        if text[start:end] != tok_text:
            raise InvariantViolation(
                f"token {i} text {tok_text!r} does not match the document substring"
            )
        if pos in bad_tags:
            raise InvariantViolation(f"token {i} has malformed POS tag {pos!r}")
        prev_end = end

    spans = [Span(*s) for s in sentences]
    expected_start = 0
    for i, span in enumerate(spans):
        if span.start != expected_start or span.end <= span.start:
            raise NonPartitioningSentences(i)
        expected_start = span.end
    if expected_start != len(tokens.texts):
        raise NonPartitioningSentences(len(spans) - 1 if spans else 0)

    # from a list, so that the tuple is made at its length, as `corpus_io._parse_document` makes the columns
    return Document(doc_id, text, *tokens, sentences=tuple([Sentence(i, s) for i, s in enumerate(spans)]))


def _check_entity(doc: Document, mention: EntityMention) -> None:
    span = mention.span
    if span.end <= span.start or span.start < 0 or span.end > len(doc.texts):
        raise InvariantViolation(f"mention {mention.mention_id} has an empty or out-of-bounds span")
    sent = doc.sentence_index(span.start)
    if sent < 0 or span.end > doc.sentences[sent].span.end:
        raise SpanCrossesSentence(f"mention {mention.mention_id} crosses a sentence boundary")
    if mention.entity_type is EntityType.PRODUCT and mention.mention_kind in (
        MentionKind.NAME,
        MentionKind.NOMINAL,
    ):
        if NOUN_TAGS.isdisjoint(doc.tags[span.start:span.end]):
            raise InvariantViolation(
                f"product mention {mention.mention_id} contains no noun token"
            )


def relation_faults(
    doc: Document, rel: RelationMention, by_id: dict[str, EntityMention]
) -> Iterator[ModelError]:
    """Each fault of `rel` over the mentions `by_id`, in check order; `attach_annotations` raises the first."""
    if not rel.products:
        yield EmptyProductList(f"relation {rel.relation_id} has no product arguments")
    company = by_id.get(rel.company)
    if company is None or company.entity_type is not EntityType.COMPANY:
        yield InvariantViolation(
            f"relation {rel.relation_id} company argument {rel.company!r} is not a Company mention"
        )
        return
    sent = doc.sentence_index(company.span.start)
    for pid in rel.products:
        product = by_id.get(pid)
        if product is None or product.entity_type is not EntityType.PRODUCT:
            yield InvariantViolation(
                f"relation {rel.relation_id} product argument {pid!r} is not a Product mention"
            )
        elif doc.sentence_index(product.span.start) != sent:
            yield SpanCrossesSentence(
                f"relation {rel.relation_id} arguments lie in different sentences"
            )
    if rel.trigger is not None:
        trig = rel.trigger
        if trig.end <= trig.start or trig.start < 0 or trig.end > len(doc.texts):
            yield InvariantViolation(f"relation {rel.relation_id} trigger span is malformed")
        elif doc.sentence_index(trig.start) != sent or trig.end > doc.sentences[sent].span.end:
            yield SpanCrossesSentence(
                f"relation {rel.relation_id} trigger lies outside the argument sentence"
            )


def chain_faults(
    chains: Sequence[IdentityChain], by_id: dict[str, EntityMention]
) -> Iterator[tuple[IdentityChain, ModelError]]:
    """Each fault of `chains` with its chain, once, in check order; `attach_annotations` raises the first."""
    seen: dict[str, str] = {}

    def shared(mid: str, chain: IdentityChain) -> DuplicateChainMembership:
        return DuplicateChainMembership(f"mention {mid!r} belongs to chains {seen[mid]!r} and {chain.chain_id!r}")

    for chain in chains:
        source = by_id.get(chain.source)
        if source is None:
            yield chain, InvariantViolation(
                f"chain {chain.chain_id} source {chain.source!r} is not a known mention"
            )
        elif source.mention_kind is not MentionKind.NAME:
            yield chain, NonNameChainSource(
                f"chain {chain.chain_id} source {chain.source!r} is not a Name mention"
            )
        if not chain.targets:
            yield chain, InvariantViolation(f"chain {chain.chain_id} has no targets")
        if chain.source in chain.targets:
            yield chain, DuplicateChainMembership(
                f"chain {chain.chain_id} lists its source among its targets"
            )
        if chain.source in seen:
            yield chain, shared(chain.source, chain)
        seen[chain.source] = chain.chain_id
        # the source, also where it is among the targets, is checked above;
        # a member seen before was checked where it was first listed
        for mid in chain.targets:
            if mid == chain.source:
                continue
            if mid in seen:
                yield chain, shared(mid, chain)
            elif mid not in by_id:
                yield chain, InvariantViolation(
                    f"chain {chain.chain_id} member {mid!r} is not a known mention"
                )
            seen[mid] = chain.chain_id


class NestingIndex:
    """Kept spans, answering whether a span [s, e) would cross one of them.

    A kept span crosses it when it starts strictly inside and ends after e, or
    ends strictly inside and starts before s.  So for each position the index
    keeps the greatest end of the spans starting there and the least start of
    the spans ending there, and a query costs O(e - s).
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self._end_from, self._start_to = {}, {}  # start -> greatest end, end -> least start
        for span in spans:
            self.add(span)

    def add(self, span: Span) -> None:
        self._end_from[span.start] = max(span.end, self._end_from.get(span.start, span.end))
        self._start_to[span.end] = min(span.start, self._start_to.get(span.end, span.start))

    def crosses(self, span: Span) -> bool:
        inside = range(span.start + 1, span.end)
        return (any(self._end_from.get(i, 0) > span.end for i in inside)
                or any(self._start_to.get(i, span.start) < span.start for i in inside))


def _check_nesting(ents: Sequence[EntityMention]) -> None:
    """Reject two mentions that overlap without one containing the other.

    One sweep in (start, -end) order with a stack of the spans still open:
    a span that starts inside the innermost open span but ends after it
    crosses that span.  Spans that no longer reach the sweep position are
    popped first, so the innermost open span is always on top.  This batch
    check costs O(n log n); a `NestingIndex` would cost the spans' total length.
    """
    open_spans: list[EntityMention] = []
    for mention in sorted(ents, key=lambda e: (e.span.start, -e.span.end)):
        while open_spans and open_spans[-1].span.end <= mention.span.start:
            open_spans.pop()
        if open_spans and mention.span.end > open_spans[-1].span.end:
            a, b = sorted((open_spans[-1].mention_id, mention.mention_id))
            raise InvariantViolation(f"mentions {a!r} and {b!r} overlap without nesting")
        open_spans.append(mention)


def attach_annotations(
    doc: Document,
    entities: Iterable[EntityMention] = (),
    relations: Iterable[RelationMention] = (),
    chains: Iterable[IdentityChain] = (),
) -> Document:
    """Return a copy of `doc` carrying the given annotations.

    Every mention/relation/chain invariant is checked; invalid input is
    rejected, never repaired.
    """
    ents = tuple(entities)
    rels = tuple(relations)
    chns = tuple(chains)

    by_id: dict[str, EntityMention] = {}
    for e in ents:
        if e.mention_id in by_id:
            raise InvariantViolation(f"duplicate mention id {e.mention_id!r}")
        by_id[e.mention_id] = e
        _check_entity(doc, e)

    _check_nesting(ents)

    seen_rel: set[str] = set()
    for r in rels:
        if r.relation_id in seen_rel:
            raise InvariantViolation(f"duplicate relation id {r.relation_id!r}")
        seen_rel.add(r.relation_id)
        for fault in relation_faults(doc, r, by_id):
            raise fault

    seen_chain: set[str] = set()
    for c in chns:
        if c.chain_id in seen_chain:
            raise InvariantViolation(f"duplicate chain id {c.chain_id!r}")
        seen_chain.add(c.chain_id)
    for _, fault in chain_faults(chns, by_id):
        raise fault

    return replace(doc, entities=ents, relations=rels, chains=chns)
