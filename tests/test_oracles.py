"""Differential oracles for the per-document indexes and the matcher.

The validator rules V2, V5 and V6, the nesting check of
`attach_annotations` and the relation matching of `agreement` used to
compare every pair of mentions, positions or relations, and `agreement`
scored kappa from one (in a, in b) pair per token of the corpus.  Those pairwise
versions are kept here, verbatim apart from their signatures, and the
indexed versions in `promex` must agree with them on random documents.
So is the trigger-coordination parse that sorted its trigger set on every
call and tested each conjunct position twice, and the corpus reader that
coerced offsets with `int(...)` and type-checked the built objects in a
second walk, the tokenizer step that built every chunk one character at a
time, the tokenizer that ran its punctuation peel on every chunk, plain
words included, and the gazetteer lookup that tried every name length at
every position, the company recognition that tested each candidate
against every company chosen or annotated before it, the product conjuncts
that tested the grammar on every prefix of a candidate, and the pipeline
that tested each match against every mention of its sentence.  That
pipeline missed products minted earlier in the same sentence, so where it
fails to attach them the new one must drop the later match instead.  The
raw-text tagger that tags each (word, sentence-initial) key once per
document must agree with `tag`, which tags every token, and no surface
pattern may match a sentence with no company mention, nor one that
`may_relate` skips for holding no trigger word and no company mention a
candidate could enclose.  The pattern parser
that split a body into element strings and then classified each string
again by its first and last characters must parse the same bodies into
the same elements, and reject the same bodies, apart from a `<` or `{`
opened again before its closer, which it read as part of one element.
The corpus reader that built one `Token` per token, and the walk over
those Tokens that checked them, must read each record into an equal
document, or reject it with the same error, and so must the reader that
read each sentence, mention, relation and chain field by field through
`_field`, which now only names a field that the column reader refused.
The corpus writer that built one dict per token and dumped the whole
record must write the same line.
The relation and chain checks that raised at their first fault, before
they became the fault generators that `validate` reports from too, must
make `attach_annotations` raise the same error.  The raw-text tagger that
built one row per token must build the same document as tagging each
distinct word once.  The column reader that built a row per token and a
list per sentence, and walked the rows again for the offsets, must read
each column text into an equal document, or reject it with the same error
at the same line.  The coverage count of `agreement` that built the set of
positions inside each layer's spans must count the same positions, and
`agreement` of two layers read once each, in any order, must score them as
the pairwise version does.  The `validate_corpus` that sorted the documents
before validating them and the `CorpusStats` that held the corpus whole must
give what the streamed versions give.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from dataclasses import replace
from sys import intern
from unittest import mock
from typing import Iterable, Iterator, Sequence

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from promex import corpus_io
from promex.analytics import AgreementScores, CorpusStats, EmptyCorpus, TokenizationMismatch, _covered, agreement
from promex.examples import golden_corpus, tagged_document
from promex.model import (
    Corpus,
    Document,
    DuplicateChainMembership,
    EmptyProductList,
    EntityMention,
    EntityType,
    IdentityChain,
    InvariantViolation,
    MentionKind,
    ModelError,
    NonNameChainSource,
    NonPartitioningSentences,
    NOUN_TAGS,
    OffsetOutOfBounds,
    OverlappingTokens,
    POSSESSIVE_CLITICS,
    PROPER_NOUN_TAGS,
    Provenance,
    RelationMention,
    Sentence,
    Span,
    SpanCrossesSentence,
    TRADEMARK_TEXTS,
    Token,
    TokenColumns,
    _check_entity,
    attach_annotations,
    by_sentence,
    is_word,
    make_document,
    mention_kind,
)
from promex.chunker import (
    CHUNK_TAGS,
    ChunkCandidate,
    SentenceColumns,
    chunk,
    separator_ends,
    split_coordination,
)
from promex.cli import default_config_path, default_gazetteer_path
from promex.corpus_io import (
    _CHAIN,
    _ENTITY,
    _RELATION,
    _SPAN,
    _TOKEN,
    CorpusIOError,
    MalformedRecord,
    _field,
    _objects,
    write_corpus,
)
from promex import ingest
from promex.ingest import (
    _APOSTROPHES,
    _BIO_TAGS,
    _BIO_TYPE,
    _PUNCT,
    LEGAL_SUFFIXES,
    IllegalBioTransition,
    IngestError,
    MalformedLine,
    OrgGazetteer,
    TAG_MEMO_SIZE,
    _split_core,
    _tag_word,
    document_from_text,
    document_from_tokens,
    read_tagged,
    recognize_orgs,
    split_sentences,
    tag,
    tokenize,
)
from promex.patterns import (
    MAX_CONJUNCTS,
    NESTED_PATTERN_ID,
    Alt,
    Element,
    LiteralSlot,
    OptionalGroup,
    OrgSlot,
    PatternConfigError,
    PatternSyntaxError,
    PossessiveTrigger,
    ProductSlot,
    SentenceMatches,
    SurfaceElement,
    SurfacePattern,
    TriggerLiteral,
    TriggerSlot,
    Words,
    _CLOSERS,
    _EXACT_LITERALS,
    _SLOTS,
    _SentenceContext,
    _parse_alternation,
    _parse_elements,
    expand,
    match_sentence,
    parse_config,
    resolve_acronyms,
    trigger_words,
)
from promex.pipeline import PreannotateResult, may_relate, preannotate_document
from promex.validator import DEFAULT_STOPLIST, Severity, Violation, validate, validate_corpus

from conftest import spans_cross, spans_overlap
from test_chunker import TAG_POOL


def doc_tokens(doc: Document) -> tuple[Token, ...]:
    """One `Token` per token of `doc`, built from its columns, as the oracles read them."""
    return tuple(map(Token, doc.texts, doc.tags, doc.char_starts, doc.char_ends))


def make_document_of_tokens(doc_id: str, text: str, tokens: Sequence[Token], sentences) -> Document:
    """`make_document` of the columns of `tokens`, as the oracle readers call it."""
    columns = TokenColumns.from_rows([(t.text, t.pos, t.char_start, t.char_end) for t in tokens])
    return make_document(doc_id, text, columns, sentences)


# ---------------------------------------------------------------------------
# Pairwise oracles

def oracle_v2(doc: Document, products, companies) -> Iterable[Violation]:
    for product in products:
        for company in companies:
            if not product.span.contains(company.span) or product.span == company.span:
                continue
            pos = company.span.end
            if pos < product.span.end and doc.tags[pos] == "POS":
                yield Violation(
                    "V2", Severity.ERROR, doc.doc_id, product.mention_id, product.span,
                    "company mention inside a product extent carries a possessive marker",
                )


def oracle_v5(doc: Document, products) -> Iterable[Violation]:
    lowered = [text.lower() for text in doc.texts]
    product_spans = [m.span for m in products]
    sequences = {
        tuple(lowered[m.span.start:m.span.end]): m.mention_id for m in products
    }
    for seq, mention_id in sorted(sequences.items(), key=lambda kv: kv[1]):
        width = len(seq)
        for start in range(0, len(lowered) - width + 1):
            span = Span(start, start + width)
            if tuple(lowered[start:start + width]) != seq:
                continue
            if any(p.contains(span) for p in product_spans):
                continue
            yield Violation(
                "V5", Severity.WARNING, doc.doc_id, mention_id, span,
                f"token sequence {' '.join(seq)!r} is annotated as a product elsewhere but not here",
            )


def oracle_v6(doc: Document, by_id) -> Iterable[Violation]:
    linked: dict[str, set[str]] = {}
    for chain in doc.chains:
        members = {chain.source, *chain.targets}
        for mid in members:
            linked.setdefault(mid, set()).update(members - {mid})
    for i, rel in enumerate(doc.relations):
        for other in doc.relations[:i]:
            if (
                rel.company != other.company
                and other.company in linked.get(rel.company, set())
                and rel.products == other.products
                and rel.trigger == other.trigger
            ):
                anchor = by_id.get(rel.company)
                span = anchor.span if anchor else Span(0, 1)
                yield Violation(
                    "V6", Severity.ERROR, doc.doc_id, rel.relation_id, span,
                    f"identity-linked company mentions both carry this relation (see {other.relation_id})",
                )


def oracle_validate(doc: Document, stoplist=DEFAULT_STOPLIST) -> list[Violation]:
    """`validate` with V2, V5 and V6 replaced by their pairwise oracles."""
    by_id = {e.mention_id: e for e in doc.entities}
    products = [e for e in doc.entities if e.entity_type is EntityType.PRODUCT]
    companies = [e for e in doc.entities if e.entity_type is EntityType.COMPANY]
    violations = [v for v in validate(doc, stoplist) if v.rule_id not in ("V2", "V5", "V6")]
    violations.extend(oracle_v2(doc, products, companies))
    violations.extend(oracle_v5(doc, products))
    violations.extend(oracle_v6(doc, by_id))
    violations.sort(
        key=lambda v: (v.span.start, v.span.end, v.severity is not Severity.ERROR, v.rule_id, v.target_id)
    )
    return violations


def _check_relation(doc: Document, rel: RelationMention, by_id: dict[str, EntityMention]) -> None:
    if not rel.products:
        raise EmptyProductList(f"relation {rel.relation_id} has no product arguments")
    company = by_id.get(rel.company)
    if company is None or company.entity_type is not EntityType.COMPANY:
        raise InvariantViolation(
            f"relation {rel.relation_id} company argument {rel.company!r} is not a Company mention"
        )
    sent = doc.sentence_index(company.span.start)
    for pid in rel.products:
        product = by_id.get(pid)
        if product is None or product.entity_type is not EntityType.PRODUCT:
            raise InvariantViolation(
                f"relation {rel.relation_id} product argument {pid!r} is not a Product mention"
            )
        if doc.sentence_index(product.span.start) != sent:
            raise SpanCrossesSentence(
                f"relation {rel.relation_id} arguments lie in different sentences"
            )
    if rel.trigger is not None:
        trig = rel.trigger
        if trig.end <= trig.start or trig.start < 0 or trig.end > len(doc.texts):
            raise InvariantViolation(f"relation {rel.relation_id} trigger span is malformed")
        if doc.sentence_index(trig.start) != sent or trig.end > doc.sentences[sent].span.end:
            raise SpanCrossesSentence(
                f"relation {rel.relation_id} trigger lies outside the argument sentence"
            )


def _check_chains(chains: Sequence[IdentityChain], by_id: dict[str, EntityMention]) -> None:
    seen: dict[str, str] = {}
    for chain in chains:
        source = by_id.get(chain.source)
        if source is None:
            raise InvariantViolation(
                f"chain {chain.chain_id} source {chain.source!r} is not a known mention"
            )
        if source.mention_kind is not MentionKind.NAME:
            raise NonNameChainSource(
                f"chain {chain.chain_id} source {chain.source!r} is not a Name mention"
            )
        if not chain.targets:
            raise InvariantViolation(f"chain {chain.chain_id} has no targets")
        if chain.source in chain.targets:
            raise DuplicateChainMembership(
                f"chain {chain.chain_id} lists its source among its targets"
            )
        for mid in (chain.source, *chain.targets):
            if mid in seen:
                raise DuplicateChainMembership(
                    f"mention {mid!r} belongs to chains {seen[mid]!r} and {chain.chain_id!r}"
                )
            seen[mid] = chain.chain_id
            if mid not in by_id:
                raise InvariantViolation(
                    f"chain {chain.chain_id} member {mid!r} is not a known mention"
                )


def oracle_attach(doc, entities=(), relations=(), chains=()) -> Document:
    """`attach_annotations` with the pairwise crossing loop and the raising relation and chain checks."""
    ents = tuple(entities)
    rels = tuple(relations)
    chns = tuple(chains)
    by_id: dict[str, EntityMention] = {}
    for e in ents:
        if e.mention_id in by_id:
            raise InvariantViolation(f"duplicate mention id {e.mention_id!r}")
        by_id[e.mention_id] = e
        _check_entity(doc, e)
    for a in ents:
        for b in ents:
            if a.mention_id < b.mention_id and spans_cross(a.span, b.span):
                raise InvariantViolation(
                    f"mentions {a.mention_id!r} and {b.mention_id!r} overlap without nesting"
                )
    seen_rel: set[str] = set()
    for r in rels:
        if r.relation_id in seen_rel:
            raise InvariantViolation(f"duplicate relation id {r.relation_id!r}")
        seen_rel.add(r.relation_id)
        _check_relation(doc, r, by_id)
    seen_chain: set[str] = set()
    for c in chns:
        if c.chain_id in seen_chain:
            raise InvariantViolation(f"duplicate chain id {c.chain_id!r}")
        seen_chain.add(c.chain_id)
    _check_chains(chns, by_id)
    return replace(doc, entities=ents, relations=rels, chains=chns)


def _as_documents(layer: Corpus | Sequence[Document]) -> list[Document]:
    if isinstance(layer, Corpus):
        return list(layer.documents)
    return list(layer)


def _kappa(pairs: Sequence[tuple[bool, bool]]) -> float:
    if not pairs:
        return 1.0
    n = len(pairs)
    observed = sum(1 for a, b in pairs if a == b) / n
    pa = sum(1 for a, _ in pairs if a) / n
    pb = sum(1 for _, b in pairs if b) / n
    expected = pa * pb + (1 - pa) * (1 - pb)
    if expected >= 1.0 - 1e-12:
        # both layers single-class: perfect agreement by definition
        return 1.0 if observed >= 1.0 - 1e-12 else 0.0
    return (observed - expected) / (1 - expected)


def _f1(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    tp = len(a & b)
    if tp == 0:
        return 0.0
    precision = tp / len(a)
    recall = tp / len(b)
    return 2 * precision * recall / (precision + recall)


def _oracle_relation_key(doc: Document, rel: RelationMention) -> tuple | None:
    by_id = {e.mention_id: e for e in doc.entities}
    company = by_id.get(rel.company)
    products = [by_id.get(p) for p in rel.products]
    if company is None or any(p is None for p in products):
        return None
    return (
        (company.span.start, company.span.end),
        frozenset((p.span.start, p.span.end) for p in products),
    )


def oracle_agreement(annotations_a, annotations_b) -> AgreementScores:
    """`agreement` with per-token pair lists, corpus-wide mention sets and
    the pairwise first-unmatched relation search."""
    docs_a = {d.doc_id: d for d in _as_documents(annotations_a)}
    docs_b = {d.doc_id: d for d in _as_documents(annotations_b)}
    if set(docs_a) != set(docs_b):
        raise TokenizationMismatch("the two layers cover different documents")

    token_pairs: dict[str, list[tuple[bool, bool]]] = {t.value: [] for t in EntityType}
    mentions_a: dict[str, set] = {t.value: set() for t in EntityType}
    mentions_b: dict[str, set] = {t.value: set() for t in EntityType}
    rels_a: list[tuple] = []
    rels_b: list[tuple] = []

    for doc_id in sorted(docs_a):
        a, b = docs_a[doc_id], docs_b[doc_id]
        if a.texts != b.texts:
            raise TokenizationMismatch(f"document {doc_id!r} is tokenized differently")
        for etype in EntityType:
            inside_a = [False] * len(a.texts)
            inside_b = [False] * len(b.texts)
            for doc, inside, mentions in ((a, inside_a, mentions_a), (b, inside_b, mentions_b)):
                for m in doc.entities:
                    if m.entity_type is etype:
                        mentions[etype.value].add((doc_id, m.span.start, m.span.end))
                        for i in range(m.span.start, m.span.end):
                            inside[i] = True
            token_pairs[etype.value].extend(zip(inside_a, inside_b))
        for doc, bucket in ((a, rels_a), (b, rels_b)):
            for rel in doc.relations:
                key = _oracle_relation_key(doc, rel)
                if key is not None:
                    trigger = (
                        (rel.trigger.start, rel.trigger.end) if rel.trigger else None
                    )
                    bucket.append((doc_id, key, trigger))

    matched_b: set[int] = set()
    tp = 0
    for doc_id, key, trigger in rels_a:
        for j, (doc_id_b, key_b, trigger_b) in enumerate(rels_b):
            if j in matched_b or doc_id != doc_id_b or key != key_b:
                continue
            if trigger is not None and trigger_b is not None and trigger != trigger_b:
                continue
            matched_b.add(j)
            tp += 1
            break
    if not rels_a and not rels_b:
        relation_f1 = 1.0
    elif tp == 0:
        relation_f1 = 0.0
    else:
        precision = tp / len(rels_a)
        recall = tp / len(rels_b)
        relation_f1 = 2 * precision * recall / (precision + recall)

    return AgreementScores(
        token_kappa={t: _kappa(pairs) for t, pairs in token_pairs.items()},
        mention_f1={t: _f1(mentions_a[t], mentions_b[t]) for t in mentions_a},
        relation_f1=relation_f1,
    )


def _positions(spans: set[Span]) -> set[int]:
    return {i for span in spans for i in range(span.start, span.end)}


def oracle_covered(spans: set[Span]) -> int:
    """The positions inside `spans`, counted one by one."""
    return len(_positions(spans))


def oracle_validate_corpus(documents: Iterable[Document], stoplist=DEFAULT_STOPLIST) -> list[Violation]:
    """`validate_corpus` that sorted the whole corpus by doc_id, then validated it."""
    out: list[Violation] = []
    for doc in sorted(documents, key=lambda d: d.doc_id):
        out.extend(validate(doc, stoplist))
    return out


def oracle_stats(corpus: Corpus) -> CorpusStats:
    """`CorpusStats.from_corpus` over a corpus held whole."""
    if not corpus.documents:
        raise EmptyCorpus("corpus contains no documents")
    types = Counter(e.entity_type for d in corpus.documents for e in d.entities)
    texts = Counter(text for d in corpus.documents for text in d.texts)
    return CorpusStats(
        documents=len(corpus.documents),
        sentences=sum(len(d.sentences) for d in corpus.documents),
        words=sum(count for text, count in texts.items() if is_word(text)),
        companies=types[EntityType.COMPANY],
        products=types[EntityType.PRODUCT],
        relations=sum(len(d.relations) for d in corpus.documents),
    )


def oracle_trigger_matches(ctx: _SentenceContext, pos: int, trig: TriggerLiteral) -> Iterator[tuple[Span, int]]:
    members = sorted(set(trig.coordination_set), key=lambda w: (-len(w), w))

    def conjunct_at(p: int) -> tuple[tuple[str, ...], int] | None:
        for words in members:
            end = ctx.literal_at(p, words)
            if end is not None:
                return words, end
        return None

    options: list[tuple[Span, int]] = []
    # maximal coordination parse
    conjuncts: list[tuple[tuple[str, ...], Span]] = []
    p = pos
    while True:
        hit = conjunct_at(p)
        if hit is None:
            break
        words, end = hit
        conjuncts.append((words, Span(p, end)))
        advanced = None
        for sep_end in separator_ends(ctx.doc_texts, end, ctx.end):
            if conjunct_at(sep_end) is not None:
                advanced = sep_end
                break
        if advanced is None:
            p = end
            break
        p = advanced
    if conjuncts and any(words == trig.words for words, _ in conjuncts):
        span = next(s for words, s in conjuncts if words == trig.words)
        options.append((span, p))
    # plain literal at pos
    plain_end = ctx.literal_at(pos, trig.words)
    if plain_end is not None:
        plain = (Span(pos, plain_end), plain_end)
        if plain not in options:
            options.append(plain)
    return iter(options)


# ---------------------------------------------------------------------------
# The matcher that searched each surface at each anchor on its own

def _texts_equal(token_text: str, word: str) -> bool:
    if word in _EXACT_LITERALS:
        return token_text == word
    return token_text.lower() == word.lower()


def oracle_span_matches_grammar(tags: Sequence[str]) -> bool:
    """True when a tag sequence parses as a product candidate."""
    if not tags or any(t not in CHUNK_TAGS for t in tags):
        return False
    noun_positions = [i for i, t in enumerate(tags) if t in NOUN_TAGS]
    if not noun_positions:
        return False
    # a gerund after the last noun could only sit in the suffix, which bans VBG
    return all(t != "VBG" for t in tags[noun_positions[-1] + 1:])


class OracleContext(_SentenceContext):
    """The sentence context with per-comparison lowercasing, an unshared trigger
    parse and a grammar test per prefix of a candidate."""

    def __init__(self, doc: Document, *args) -> None:
        super().__init__(doc, *args)
        self.tokens = doc_tokens(doc)

    def product_firsts(self, pos: int) -> list[tuple[Span, int]]:
        """Possible first-conjunct spans at `pos`, longest first."""
        firsts = self._product_firsts.get(pos)
        if firsts is None:
            firsts = self._product_firsts[pos] = []
            cand = self.covering.get(pos)
            # the candidate itself when it starts here, then its grammatical
            # prefixes from `pos`; descending ends, so longest first
            for q in range(cand.end, pos, -1) if cand else ():
                if (q == cand.end and cand.start == pos) or oracle_span_matches_grammar(
                    self.tags[pos - self.start:q - self.start]
                ):
                    firsts.append((Span(pos, q), q))
        return firsts

    def literal_at(self, pos: int, words: tuple[str, ...]) -> int | None:
        if pos + len(words) > self.end:
            return None
        for off, word in enumerate(words):
            if not _texts_equal(self.tokens[pos + off].text, word):
                return None
        return pos + len(words)

    def trigger_matches(self, pos: int, trig: TriggerLiteral) -> list[tuple[Span, int]]:
        return list(oracle_trigger_matches(self, pos, trig))


def _match_elements(
    ctx: OracleContext,
    elements: tuple[SurfaceElement, ...],
    idx: int,
    pos: int,
    companies: list[EntityMention],
    products: list[Span],
    trigger: Span | None,
) -> Iterator[tuple[list[EntityMention], list[Span], Span | None]]:
    if idx == len(elements):
        yield companies, products, trigger
        return
    el = elements[idx]
    if isinstance(el, OrgSlot):
        for mentions, end in ctx.coordinations(pos, ctx.org_firsts):
            yield from _match_elements(ctx, elements, idx + 1, end, mentions, products, trigger)
    elif isinstance(el, ProductSlot):
        for spans, end in ctx.coordinations(pos, ctx.product_firsts):
            yield from _match_elements(ctx, elements, idx + 1, end, companies, spans, trigger)
    elif isinstance(el, PossessiveTrigger):
        if pos < ctx.end and ctx.tokens[pos].pos == "POS" and ctx.tokens[pos].text in POSSESSIVE_CLITICS:
            yield from _match_elements(
                ctx, elements, idx + 1, pos + 1, companies, products, Span(pos, pos + 1)
            )
    elif isinstance(el, TriggerLiteral):
        for span, end in ctx.trigger_matches(pos, el):
            yield from _match_elements(ctx, elements, idx + 1, end, companies, products, span)
    else:
        end = ctx.literal_at(pos, el.words)
        if end is not None:
            yield from _match_elements(ctx, elements, idx + 1, end, companies, products, trigger)


def oracle_match_sentence(
    doc: Document,
    sentence: Sentence,
    org_mentions: Sequence[EntityMention],
    candidates: Sequence[Span],
    surface_patterns: Sequence[SurfacePattern],
) -> SentenceMatches:
    """`match_sentence` with one backtracking search per surface and anchor.

    `org_mentions` and the product chunk `candidates` are taken as given:
    they must be this sentence's, in document coordinates
    (`preannotate_document` groups them with `by_sentence`).

    One match is kept per (surface pattern, anchor position); matches from
    different patterns may overlap.
    """
    span_lo, span_hi = sentence.span.start, sentence.span.end
    orgs = sorted(org_mentions, key=lambda m: m.span)
    ctx = OracleContext(doc, sentence, orgs, candidates)

    # (anchor, surface_id, company order) -> raw match tuples
    raw: list[tuple[int, str, int, EntityMention, tuple[Span, ...], Span | None, str]] = []
    for pattern in surface_patterns:
        first = pattern.elements[0]
        if isinstance(first, OrgSlot):
            anchors = [m.span.start for m in orgs]
        elif isinstance(first, ProductSlot):
            anchors = [c.start for c in candidates]
        else:
            anchors = list(range(span_lo, span_hi))
        for anchor in dict.fromkeys(anchors):
            found = next(
                _match_elements(ctx, pattern.elements, 0, anchor, [], [], None), None
            )
            if found is None:
                continue
            companies, product_spans, trigger = found
            for k, company in enumerate(companies):
                raw.append(
                    (anchor, pattern.surface_id, k, company, tuple(product_spans), trigger, pattern.base_id)
                )

    # nested company-in-candidate rule: a company mention strictly inside a
    # product candidate with no possessive token reads as a relation
    for cand in candidates:
        if any(doc.tags[i] == "POS" for i in range(cand.start, cand.end)):
            continue
        for org in orgs:
            if cand.contains(org.span) and cand != org.span:
                raw.append(
                    (cand.start, NESTED_PATTERN_ID, 0, org, (cand,), None, NESTED_PATTERN_ID)
                )

    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return SentenceMatches(relations=tuple(r[3:] for r in raw))


# ---------------------------------------------------------------------------
# The pipeline that tested each match against every mention of its sentence

def oracle_preannotate_document(
    doc: Document,
    gazetteer: OrgGazetteer,
    surface_patterns: Sequence[SurfacePattern],
) -> PreannotateResult:
    """Run the full pre-annotation pipeline over one tagged document.

    Human annotations already on the document are kept; recognized company
    mentions, matched product mentions and relation mentions are added with
    PreAnnotation provenance.  A sentence with no company mention, human or
    recognized, is skipped before chunking: no match can come from it.
    """
    orgs = recognize_orgs(doc, gazetteer)
    # a span already annotated as a product keeps that mention's id
    product_ids = {
        e.span: e.mention_id for e in doc.entities
        if e.entity_type is EntityType.PRODUCT
    }
    minted: list[EntityMention] = []
    raw: list[RelationMention] = []
    for sentence, fixed in zip(doc.sentences, by_sentence(doc, (*doc.entities, *orgs))):
        companies = [m for m in fixed if m.entity_type is EntityType.COMPANY]
        if not companies:
            continue
        tokens = doc.sentence_tokens(sentence)
        base = sentence.span.start
        candidates = [
            Span(c.span.start + base, c.span.end + base)
            for c in split_coordination(chunk(tokens), tokens)
        ]
        found = match_sentence(doc, sentence, companies, candidates, surface_patterns)
        # relation ids count every match of the sentence, dropped ones too
        for i, (company, spans, trigger, pattern_id) in enumerate(found.relations):
            # a matched span that crosses an existing mention cannot be attached
            if any(spans_cross(s, m.span) for s in spans for m in fixed):
                continue
            for span in spans:
                if span not in product_ids:
                    product_ids[span] = f"{doc.doc_id}-pre-p{span.start}-{span.end}"
                    minted.append(EntityMention(
                        product_ids[span], EntityType.PRODUCT, span,
                        mention_kind(doc.tags, span), Provenance.PRE_ANNOTATION,
                    ))
            raw.append(RelationMention(
                f"{doc.doc_id}-pre-s{sentence.index}-r{i}", company.mention_id,
                tuple(product_ids[s] for s in spans), trigger, Provenance.PRE_ANNOTATION, pattern_id,
            ))

    entities = tuple(doc.entities) + tuple(orgs) + tuple(
        sorted(minted, key=lambda m: m.span)
    )
    # re-pointing reads only entities and chains, and deduplicates the
    # whole document; the one attach below checks every invariant
    resolved = resolve_acronyms(raw, replace(doc, entities=entities))
    final = attach_annotations(
        doc,
        entities=entities,
        relations=tuple(doc.relations) + tuple(resolved),
        chains=doc.chains,
    )
    return PreannotateResult(document=final, raw_relations=tuple(raw))


# ---------------------------------------------------------------------------
# The corpus reader that coerced offsets and type-checked in a second walk

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


def oracle_coercing_parse_document(record: dict, line_no: int) -> Document:
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
        doc = make_document_of_tokens(doc_id, text, tokens, sentences)
        return attach_annotations(doc, entities, relations, chains)
    except InvariantViolation:
        raise
    except ModelError as exc:
        raise InvariantViolation(f"document {doc_id!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# The corpus reader that read every sentence, mention and relation field by field

def oracle_parse_document(record: dict, line_no: int) -> Document:
    """Each object read through `_field`, one field at a time; the tokens, which the
    reader took as columns already, as it read them where a token was off."""
    doc_id = _field(record, "doc_id", str, line_no)
    text = _field(record, "text", str, line_no)
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


# ---------------------------------------------------------------------------
# The corpus reader that built one Token per token, and the check that walked them

def oracle_make_document(doc_id: str, text: str, tokens: Sequence[Token], sentences) -> Document:
    # a POS tag is non-empty with no lowercase letter; each distinct tag is checked once
    bad_tags = {tag for tag in {t.pos for t in tokens} if not tag or any(c.islower() for c in tag)}
    prev_end = 0
    for i, tok in enumerate(tokens):
        if tok.char_start < 0 or tok.char_end > len(text) or tok.char_start >= tok.char_end:
            raise OffsetOutOfBounds(i)
        if tok.char_start < prev_end:
            raise OverlappingTokens(i)
        if text[tok.char_start:tok.char_end] != tok.text:
            raise InvariantViolation(
                f"token {i} text {tok.text!r} does not match the document substring"
            )
        if tok.pos in bad_tags:
            raise InvariantViolation(f"token {i} has malformed POS tag {tok.pos!r}")
        prev_end = tok.char_end

    spans = [Span(*s) for s in sentences]
    expected_start = 0
    for i, span in enumerate(spans):
        if span.start != expected_start or span.end <= span.start:
            raise NonPartitioningSentences(i)
        expected_start = span.end
    if expected_start != len(tokens):
        raise NonPartitioningSentences(len(spans) - 1 if spans else 0)

    return Document(
        doc_id, text, *(tuple(getattr(t, name) for t in tokens) for name in Token.__slots__),
        sentences=tuple(Sentence(i, s) for i, s in enumerate(spans)),
    )


def oracle_token_parse_document(record: dict, line_no: int, build=make_document_of_tokens) -> Document:
    """The reader before token columns; `build` makes the document of its Tokens."""
    doc_id = _field(record, "doc_id", str, line_no)
    text = _field(record, "text", str, line_no)
    raw_tokens = _field(record, "tokens", list, line_no)
    # each token's types are tested inline, and one string is kept per tag
    tokens = [
        Token(tok_text, intern(pos), start, end) for t in raw_tokens
        if type(t) is dict and type(tok_text := t.get("text")) is str and type(pos := t.get("pos")) is str
        and type(start := t.get("start")) is int and type(end := t.get("end")) is int
    ]
    if len(tokens) < len(raw_tokens):
        # a token was left out: reading the tokens through `_field` raises the MalformedRecord naming it
        _objects(record, "tokens", _TOKEN, line_no)
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
        doc = build(doc_id, text, tokens, sentences)
        return attach_annotations(doc, entities, relations, chains)
    except InvariantViolation:
        raise
    except ModelError as exc:
        raise InvariantViolation(f"document {doc_id!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# The corpus writer that built one dict per token and dumped the whole record

def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _document_record(doc: Document) -> dict:
    record: dict = {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "tokens": [
            {"text": text, "pos": pos, "start": start, "end": end}
            for text, pos, start, end in zip(doc.texts, doc.tags, doc.char_starts, doc.char_ends)
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


def oracle_document_line(doc: Document) -> str:
    return _dump(_document_record(doc)) + "\n"


# ---------------------------------------------------------------------------
# The tokenizer steps that took every character and peeled every chunk, and
# the gazetteer lookup that tried every width

def oracle_split_core(core: str, offset: int) -> list[tuple[str, int, int]]:
    # trademark symbols always stand alone
    parts: list[tuple[str, int, int]] = []
    buf_start = offset
    buf = ""
    for i, ch in enumerate(core):
        if ch in TRADEMARK_TEXTS:
            if buf:
                parts.append((buf, buf_start, offset + i))
                buf = ""
            parts.append((ch, offset + i, offset + i + 1))
            buf_start = offset + i + 1
        else:
            if not buf:
                buf_start = offset + i
            buf += ch
    if buf:
        parts.append((buf, buf_start, offset + len(core)))

    out: list[tuple[str, int, int]] = []
    for text, start, end in parts:
        # possessive clitic is always its own token
        if len(text) > 2 and text[-1] in "sS" and text[-2] in _APOSTROPHES:
            out.append((text[:-2], start, end - 2))
            out.append((text[-2:], end - 2, end))
        else:
            out.append((text, start, end))
    return out


def oracle_tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split `text` into (token, char_start, char_end) triples.

    Whitespace-delimited chunks are split further: leading/trailing
    punctuation, the possessive clitic "'s" and trademark symbols each
    become their own token; internal hyphens are kept.
    """
    tokens: list[tuple[str, int, int]] = []
    for m in re.finditer(r"\S+", text):
        start, end = m.start(), m.end()
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


def oracle_gazetteer_spans(lowered: Sequence[str], gazetteer: OrgGazetteer, s: int, e: int) -> list[Span]:
    max_name = max((len(n) for n in gazetteer.names), default=0)
    candidates: list[Span] = []
    for i in range(s, e):
        for width in range(min(max_name, e - i), 0, -1):
            if tuple(lowered[i:i + width]) in gazetteer.names:
                candidates.append(Span(i, i + width))
    return candidates


def oracle_recognize_orgs(doc: Document, gazetteer: OrgGazetteer) -> list[EntityMention]:
    tokens = doc_tokens(doc)
    lowered = [t.text.lower() for t in tokens]
    chosen: list[Span] = []

    for sentence, entities in zip(doc.sentences, by_sentence(doc, doc.entities)):
        s, e = sentence.span.start, sentence.span.end
        candidates = gazetteer.spans(lowered, s, e)
        # capitalized proper-noun runs ending in a legal suffix
        i = s
        while i < e:
            if tokens[i].pos in PROPER_NOUN_TAGS and tokens[i].text[:1].isupper():
                j = i
                while j < e and tokens[j].pos in PROPER_NOUN_TAGS and tokens[j].text[:1].isupper():
                    j += 1
                for k in range(j - 1, i, -1):  # run of >= 2 tokens
                    if tokens[k].text in LEGAL_SUFFIXES:
                        candidates.append(Span(i, k + 1))
                        break
                i = j
            else:
                i += 1

        # candidates and mentions of other sentences never overlap these
        existing = [m.span for m in entities if m.entity_type is EntityType.COMPANY]
        in_sentence: list[Span] = []
        for span in sorted(set(candidates), key=lambda sp: (-len(sp), sp.start)):
            if any(spans_overlap(span, other) for other in in_sentence):
                continue
            if any(spans_overlap(span, other) for other in existing):
                continue
            if any(spans_cross(span, m.span) for m in entities):
                continue
            in_sentence.append(span)
        chosen.extend(in_sentence)

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


# ---------------------------------------------------------------------------
# The raw-text tagger that built one row per token

def oracle_document_from_text(text: str, doc_id: str = "doc") -> Document:
    triples = tokenize(text)
    spans = split_sentences([t for t, _, _ in triples])
    rows: list[tuple[str, str, int, int]] = []
    # a document uses few distinct words: tag each (word, sentence-initial) once
    tags: dict[tuple[str, bool], str] = {}
    for start, end in spans:
        for i, (text_, cs, ce) in enumerate(triples[start:end]):
            key = (text_, i == 0)
            pos = tags.get(key) or tags.setdefault(key, _tag_word.__wrapped__(*key))
            rows.append((text_, pos, cs, ce))
    return make_document(doc_id, text, TokenColumns.from_rows(rows), spans)


# ---------------------------------------------------------------------------
# The column reader that built a (text, POS) row per token and a list per
# sentence, and then walked the rows again for the columns and offsets

def oracle_document_from_tokens(doc_id: str, sentences: Sequence[Sequence[tuple[str, str]]]) -> Document:
    """A Document of (text, POS) sentences whose text is the tokens joined by spaces."""
    rows: list[tuple[str, str, int, int]] = []
    spans: list[tuple[int, int]] = []
    cursor = 0
    for sentence in sentences:
        start = len(rows)
        for text, pos in sentence:
            rows.append((text, pos, cursor, cursor + len(text)))
            cursor += len(text) + 1
        spans.append((start, len(rows)))
    columns = TokenColumns.from_rows(rows)
    return make_document(doc_id, " ".join(columns.texts), columns, spans)


def oracle_read_tagged(column_text: str, doc_id: str = "doc") -> Document:
    """Parse the TOKEN/POS/BIO column format into a Document.

    BIO-marked Company/Product mentions are attached with Human provenance.
    A `#` line is a comment only when it holds no TAB, so `#AI` can be a token.
    The text holds one document: a second `# doc_id:` comment, which opens
    another document in `export_column`'s output, raises MalformedLine.
    """
    sentences: list[list[tuple[str, str]]] = [[]]
    bios: list[str] = []
    doc_id_seen = False
    for line_no, line in enumerate(column_text.splitlines(), start=1):
        if line.startswith("#") and "\t" not in line:
            if line.startswith("# doc_id:"):
                if doc_id_seen:
                    raise MalformedLine(line_no, "a second '# doc_id:' comment; a column text holds one document")
                doc_id_seen = True
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
    doc = oracle_document_from_tokens(doc_id, sentences)

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
                    mention_kind=mention_kind(doc.tags, span),
                    provenance=Provenance.HUMAN,
                )
            )
    return attach_annotations(doc, entities=entities)


# ---------------------------------------------------------------------------
# The pattern parser that split a body into element strings, then worked out
# each element again from its first and last characters

def oracle_tokenize_elements(body: str, line_no: int) -> list[str]:
    """Split a pattern body into raw element strings, honouring brackets."""
    out: list[str] = []
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c.isspace():
            i += 1
        elif c in _CLOSERS:
            close, name = _CLOSERS[c]
            j = body.find(close, i)
            if j < 0:
                raise PatternSyntaxError(line_no, f"unterminated {name}")
            out.append(body[i:j + 1])
            i = j + 1
        elif c == "[":
            depth = 0
            j = i
            while j < n:
                if body[j] == "[":
                    depth += 1
                elif body[j] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= n:
                raise PatternSyntaxError(line_no, "unterminated [...] group")
            out.append(body[i:j + 1])
            i = j + 1
        elif c == "]":
            raise PatternSyntaxError(line_no, "unbalanced ']'")
        else:
            j = i
            while j < n and not body[j].isspace():
                j += 1
            out.append(body[i:j])
            i = j
    return out


def oracle_parse_element(raw: str, sets: dict[str, tuple[Alt, ...]], line_no: int, *, in_optional: bool) -> Element:
    is_trigger = raw.startswith("<TRIG:") and raw.endswith(">")
    if in_optional and (is_trigger or raw in _SLOTS):
        name = "trigger" if is_trigger else raw
        raise PatternSyntaxError(line_no, f"{name} may not appear inside an optional group")
    if raw in _SLOTS:
        return _SLOTS[raw]()
    if is_trigger:
        return TriggerSlot(_parse_alternation(raw[6:-1], sets, line_no))
    if raw.startswith("<"):
        raise PatternSyntaxError(line_no, f"unknown slot {raw!r}")
    if raw.startswith("[") and raw.endswith("]"):
        inner = oracle_tokenize_elements(raw[1:-1], line_no)
        if not inner:
            raise PatternSyntaxError(line_no, "empty optional group")
        elements = tuple(
            oracle_parse_element(item, sets, line_no, in_optional=True) for item in inner
        )
        return OptionalGroup(elements)
    # a bare word, ~verb or @set reads like a one-alternative {...}
    body = raw[1:-1] if raw.startswith("{") and raw.endswith("}") else raw
    return LiteralSlot(_parse_alternation(body, sets, line_no))


# ---------------------------------------------------------------------------
# Random documents: a small vocabulary so that token sequences repeat

VOCAB = (
    "Acme/NNP", "BMW/NNP", "Inc./NNP", "'s/POS", "'s/POS", "sensor/NN", "sensors/NNS",
    "chip/NN", "Z3/NNP", "the/DT", "and/CC", ",/,", "of/IN", "new/JJ", "makes/VBZ",
    "®/SYM", "it/PRP",
)


@st.composite
def tagged_documents(draw, doc_id: str = "d") -> Document:
    sentences = draw(st.lists(
        st.lists(st.sampled_from(VOCAB), min_size=1, max_size=7).map(" ".join),
        min_size=1, max_size=4,
    ))
    return tagged_document(doc_id, sentences)


@st.composite
def spans_in(draw, doc: Document, loose: bool, near: Sequence[Span] = ()) -> Span:
    """A non-empty span inside one sentence, often starting inside one of `near`.

    When `loose`, it may also run across sentences.
    """
    if near and draw(st.booleans()):
        # nested in a span drawn earlier, or crossing it
        around = draw(st.sampled_from(near))
        sentence = doc.sentences[doc.sentence_index(around.start)]
        lo, hi = around.start, max(around.end, sentence.span.end)
    elif loose and draw(st.booleans()):
        lo, hi = 0, len(doc.texts)
    else:
        sentence = draw(st.sampled_from(doc.sentences))
        lo, hi = sentence.span.start, sentence.span.end
    start = draw(st.integers(lo, hi - 1))
    return Span(start, draw(st.integers(start + 1, hi)))


@st.composite
def annotations(draw, doc: Document, loose: bool):
    """Random mentions, relations and chains over `doc`, sometimes malformed.

    Relations often have twins that differ only in their company, which V6
    reports when a chain links the two companies.  When `loose`, spans may
    run across sentences and relations may have no products.
    """
    entities: list[EntityMention] = []
    for i in range(draw(st.integers(0, 8))):
        etype = draw(st.sampled_from(EntityType))
        span = draw(spans_in(doc, loose, [e.span for e in entities]))
        kind = draw(st.sampled_from(MentionKind))
        window = doc.tags[span.start:span.end]
        if not loose and etype is EntityType.PRODUCT and not any(pos in NOUN_TAGS for pos in window):
            # a product without a noun is rejected first; let later checks run
            kind = MentionKind.PRONOMINAL
        entities.append(EntityMention(f"m{i}", etype, span, kind, Provenance.HUMAN))
    # mostly known ids; "ghost" names no mention
    ref = st.sampled_from([e.mention_id for e in entities] * 4 + ["ghost"])
    products = st.lists(ref, min_size=0 if loose else 1, max_size=3).map(tuple)
    triggers = st.none() | spans_in(doc, loose)
    relations: list[RelationMention] = []
    for i in range(draw(st.integers(0, 5))):
        rel = RelationMention(f"r{i}", draw(ref), draw(products), draw(triggers), Provenance.HUMAN)
        relations.append(rel)
        for twin in range(draw(st.integers(0, 2))):
            relations.append(replace(rel, relation_id=f"r{i}t{twin}", company=draw(ref)))
    chains = [
        IdentityChain(f"ch{i}", draw(ref), draw(st.lists(ref, max_size=3).map(tuple)))
        for i in range(draw(st.integers(0, 2)))
    ]
    return entities, relations, chains


@st.composite
def annotated_documents(draw) -> Document:
    doc = draw(tagged_documents())
    entities, relations, chains = draw(annotations(doc, loose=True))
    return replace(
        doc, entities=tuple(entities), relations=tuple(relations), chains=tuple(chains)
    )


@st.composite
def attach_inputs(draw):
    doc = draw(tagged_documents())
    return (doc, *draw(annotations(doc, loose=False)))


@st.composite
def some_of(draw, items: list) -> list:
    """A random subset of `items`, in random order."""
    return draw(st.permutations(items))[:draw(st.integers(0, len(items)))]


@st.composite
def layer_pairs(draw, max_documents: int = 2):
    """Two layers over the same documents; the second keeps some of the first's
    mentions and relations, reordered and often with another trigger."""
    layers: tuple[list[Document], list[Document]] = ([], [])
    for k in range(draw(st.integers(1, max_documents))):
        doc = draw(tagged_documents(doc_id=f"d{k}"))
        entities, relations, _ = draw(annotations(doc, loose=False))
        layers[0].append(replace(doc, entities=tuple(entities), relations=tuple(relations)))
        kept = [
            replace(r, trigger=draw(st.sampled_from([r.trigger, None, Span(0, 1)])))
            for r in draw(some_of(relations))
        ]
        layers[1].append(replace(
            doc, entities=tuple(draw(some_of(entities))), relations=tuple(kept)
        ))
    return layers


# every trigger alternation of the shipped inventory, plus one whose members
# are prefixes of one another, so that longest-first order decides, and
# which holds a conjunction, so that `, and` may end at either separator
TRIGGER_SETS = sorted({
    el.coordination_set
    for config in (
        default_config_path().read_text(encoding="utf-8"),
        "P1: <ORG> <TRIG:maker|maker of|Vendor|vendor of|of|~make|and> <PRO>",
    )
    for surface in expand(parse_config(config))
    for el in surface.elements
    if isinstance(el, TriggerLiteral)
})
SEPARATORS = (",/,", "and/CC", "or/CC", ",/, and/CC", ",/, or/CC")


@st.composite
def trigger_sentences(draw):
    """A coordination set and a sentence of its members, separators and noise.

    Lists of members run past MAX_CONJUNCTS, and members are sometimes
    capitalised, since literals match case-insensitively.
    """
    members = draw(st.sampled_from(TRIGGER_SETS))
    member = st.builds(
        lambda words, upper: " ".join(f"{w.title() if upper else w}/NN" for w in words),
        st.sampled_from(members), st.booleans(),
    )
    units = draw(st.lists(
        st.one_of(member, st.sampled_from(SEPARATORS), st.just("sensors/NNS")),
        max_size=12,
    ))
    if draw(st.booleans()):
        chain = draw(st.lists(member, min_size=2, max_size=MAX_CONJUNCTS + 10))
        separator = draw(st.sampled_from(SEPARATORS))
        units.insert(draw(st.integers(0, len(units))), f" {separator} ".join(chain))
    units.append("./.")
    return members, tagged_document("d", [" ".join(units)])


# the shipped inventory, and a small one with a surface that starts with a
# literal, two base patterns with the same elements (one trie leaf ends
# both), a capitalised literal, literals compared exactly, a trigger member
# that extends another into a product word (so that the chain and the plain
# trigger can both match) and two trigger sets that share a member
SMALL_CONFIG = """
set verbs = ~make|sells|and
S1: Of <PRO> <TRIG:by|from> <ORG>
S2: <ORG> <TRIG:@verbs> <PRO>
S3: <ORG> <TRIG:@verbs> <PRO>
S4: <ORG> 's [new] <PRO> <TRIG:line|™>
S5: <ORG> <POSS> <PRO> ®
S6: <ORG> <TRIG:maker|maker sensors> <PRO>
S7: <ORG> <TRIG:sells|offers> <PRO>
"""
# a surface with no <ORG>, which the config syntax rejects but the matcher
# must still take: it can relate no company, so it never matches
ORGLESS = SurfacePattern("S8#000", "S8", (ProductSlot(), TriggerLiteral(("rocks",), (("rocks",),))))
INVENTORIES = {
    "default": expand(parse_config(default_config_path().read_text(encoding="utf-8"))),
    "small": [*expand(parse_config(SMALL_CONFIG)), ORGLESS],
}
# every literal of an inventory, and its trigger coordination sets
LITERALS = {
    name: sorted({el.words for s in surfaces for el in s.elements if isinstance(el, (Words, TriggerLiteral))})
    for name, surfaces in INVENTORIES.items()
}
COORDINATION_SETS = {
    name: sorted({el.coordination_set for s in surfaces for el in s.elements if isinstance(el, TriggerLiteral)})
    for name, surfaces in INVENTORIES.items()
}
COMPANY_NAMES = (("Acme",), ("BMW",), ("Bosch", "GmbH"), ("IBM",))
PRODUCT_PHRASES = (("sensors",), ("smart", "chip"), ("Z3",), ("new", "modules"), ("Galaxy", "phones", "®"))
NOISE = ("'s", "’s", "'S", "®", "™", ",", "and", "or", "the", "it")


@st.composite
def coordinated(draw, phrases, max_size: int) -> tuple[list[str], list[tuple[int, int]]]:
    """Phrases joined by separators, with the (start, end) of each phrase."""
    words: list[str] = []
    spans: list[tuple[int, int]] = []
    for i, phrase in enumerate(draw(st.lists(st.sampled_from(phrases), min_size=1, max_size=max_size))):
        if i:
            words += draw(st.sampled_from(SEPARATORS)).replace(",/,", ",").replace("/CC", "").split()
        spans.append((len(words), len(words) + len(phrase)))
        words += phrase
    return words, spans


@st.composite
def realised(draw, el: SurfaceElement) -> tuple[list[str], list[tuple[int, int]]]:
    """Words that `el` can match, with the (start, end) of their companies."""
    if isinstance(el, OrgSlot):
        return draw(coordinated(COMPANY_NAMES, 4))
    if isinstance(el, ProductSlot):
        return draw(coordinated(PRODUCT_PHRASES, 4))[0], []
    if isinstance(el, PossessiveTrigger):
        return [draw(st.sampled_from(sorted(POSSESSIVE_CLITICS)))], []
    if isinstance(el, TriggerLiteral) and draw(st.booleans()):
        return draw(coordinated(el.coordination_set, MAX_CONJUNCTS + 10))[0], []
    return list(el.words), []


@st.composite
def units(draw, kind: str, name: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The words of one sentence unit, with the (start, end) of its companies."""
    if kind == "surface":
        words: list[str] = []
        companies: list[tuple[int, int]] = []
        for el in draw(st.sampled_from(INVENTORIES[name])).elements:
            unit, spans = draw(realised(el))
            companies += [(len(words) + a, len(words) + b) for a, b in spans]
            words += unit
        return words, companies
    if kind == "companies":
        return draw(realised(OrgSlot()))
    if kind == "products":
        return draw(realised(ProductSlot()))
    if kind == "chain":
        return draw(coordinated(draw(st.sampled_from(COORDINATION_SETS[name])), MAX_CONJUNCTS + 10))[0], []
    if kind == "literal":
        return list(draw(st.sampled_from(LITERALS[name]))), []
    return [draw(st.sampled_from(NOISE))], []


@st.composite
def match_cases(draw):
    """An inventory and `match_sentence`'s other arguments for one sentence.

    The sentence strings together realisations of the inventory's surfaces
    (company and product coordinations, trigger chains past MAX_CONJUNCTS
    or single triggers) with more coordinations, chains, literals, clitics,
    trademarks and separators, each word in a drawn case.  It sometimes
    follows another sentence, so that its positions do not start at 0;
    company mentions sometimes nest, so that two start at the same token.
    """
    name = draw(st.sampled_from(sorted(INVENTORIES)))
    words: list[str] = []
    companies: list[tuple[int, int]] = []
    kinds = st.sampled_from(["surface", "surface", "companies", "products", "chain", "literal", "noise"])
    for kind in draw(st.lists(kinds, max_size=6)):
        unit, spans = draw(units(kind, name))
        companies += [(len(words) + a, len(words) + b) for a, b in spans]
        words += [draw(st.sampled_from([w, w.lower(), w.title(), w.upper()])) for w in unit]
    sentences = [["It", "is", "."]] if draw(st.booleans()) else []
    if draw(st.booleans()):
        companies += [(a, a + 1) for a, b in companies if b - a > 1]
    return match_case(name, sentences + [words or ["it"]], companies)


def match_case(name: str, sentences: list[list[str]], companies: list[tuple[int, int]]):
    """An inventory and `match_sentence`'s other arguments for the last of `sentences`.

    `companies` are (start, end) pairs within that sentence.
    """
    doc = document_from_tokens("d", [list(zip(texts, tag(texts))) for texts in sentences])
    sentence = doc.sentences[-1]
    base = sentence.span.start
    orgs = [
        EntityMention(f"c{i}", EntityType.COMPANY, Span(base + a, base + b), MentionKind.NAME,
                      Provenance.PRE_ANNOTATION)
        for i, (a, b) in enumerate(companies)
    ]
    tokens = doc.sentence_tokens(sentence)
    candidates = [
        Span(c.span.start + base, c.span.end + base)
        for c in split_coordination(chunk(tokens), tokens)
    ]
    return INVENTORIES[name], (doc, sentence, orgs, candidates)


# ---------------------------------------------------------------------------
# Pattern bodies: every kind of element, unknown names and lone brackets

PATTERN_SETS = {"maker": (Alt(("make",), inflect=True), Alt(("made", "by")))}
SLOT_PARTS = ("<ORG>", "<PRO>", "<POSS>", "<TRIG:by>", "<TRIG:~make|vendor of>", "<TRIG:@maker>")
WORD_PARTS = ("{a|the}", "{~make}", "{@maker|of}", "@maker", "~make", "of", "a|an", "x>", "y}")
BROKEN_PARTS = (
    "<FOO>", "{a||b}", "{~make up}", "@nope", "~@maker", "a]", "[", "]", "<", ">", "{", "}", "|", "~",
)


@st.composite
def optional_groups(draw, depth: int = 2) -> str:
    nested = optional_groups(depth - 1) if depth else st.nothing()
    return "[%s]" % " ".join(draw(st.lists(st.sampled_from(WORD_PARTS) | nested, min_size=1, max_size=3)))


@st.composite
def pattern_bodies(draw) -> str:
    """Well-formed elements and groups, with at most one broken part among them."""
    parts = draw(st.lists(st.sampled_from(SLOT_PARTS + WORD_PARTS) | optional_groups(), max_size=5))
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(BROKEN_PARTS)))
    return "".join(part + draw(st.sampled_from((" ", " ", "  ", ""))) for part in parts)


# ---------------------------------------------------------------------------
# Mutated corpus records

SPAN_TYPES = {"start": int, "end": int}
# the JSON type of each document-record field as the writer gives it
RECORD_TYPES = {
    "doc_id": str,
    "text": str,
    "tokens": [{"text": str, "pos": str, "start": int, "end": int}],
    "sentences": [SPAN_TYPES],
    "entities": [
        {"id": str, "type": str, "kind": str, "start": int, "end": int, "provenance": str}
    ],
    "relations": [
        {"id": str, "company": str, "products": [str], "trigger": SPAN_TYPES,
         "provenance": str, "pattern_id": str}
    ],
    "chains": [{"id": str, "source": str, "targets": [str]}],
}
DELETE = object()


def exactly_typed(value, types) -> bool:
    """Whether each field of `value` that `types` names is null or has exactly that type."""
    if isinstance(types, dict):
        return type(value) is dict and all(
            value.get(key) is None or exactly_typed(value[key], t) for key, t in types.items()
        )
    if isinstance(types, list):
        return type(value) is list and all(exactly_typed(v, types[0]) for v in value)
    return type(value) is types


def golden_records() -> list[dict]:
    sink = io.StringIO()
    write_corpus(golden_corpus(), sink)
    return [json.loads(line) for line in sink.getvalue().splitlines()[1:]]


GOLDEN_RECORDS = golden_records()


def json_paths(value, prefix=()) -> Iterator[tuple[tuple, object]]:
    """(path, value) for `value` and everything inside it."""
    yield prefix, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_paths(child, (*prefix, key))


def lookalikes(value) -> list:
    """Values of other JSON types that a lax reader could take for `value`."""
    if type(value) is int:
        return [float(value), value + 0.5, value == 1, str(value), [value], None]
    if type(value) is str:
        return [[value], {value: 1}, None, 1, value.lower()]
    if type(value) is list:
        return [{str(v): 1 for v in value}, "".join(map(str, value)), value[:1]]
    if type(value) is dict:
        return [list(value.values()), dict(list(value.items())[1:]), {**value, "x": 1}]
    return []


json_scalars = st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=3)


@st.composite
def mutated_records(draw) -> dict:
    """A golden document record with up to two values replaced or deleted.

    The field to change is drawn within a drawn top-level field, so that
    the few entities and relations are changed about as often as the many
    tokens.
    """
    record = json.loads(json.dumps(draw(st.sampled_from(GOLDEN_RECORDS))))
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from(sorted(record)))
        located = list(json_paths(record[section], (section,)))
        path, old = draw(st.sampled_from(located))
        same_type = [old, *(v for _, v in located if type(v) is type(old) in (str, int))]
        new = draw(
            st.sampled_from([DELETE, *lookalikes(old)]) | st.sampled_from(same_type) | json_scalars
        )
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return record


@st.composite
def token_faulted_records(draw) -> dict:
    """A golden document record with up to three of its tokens' values changed
    to well-typed values that may break the token invariants."""
    record = json.loads(json.dumps(draw(st.sampled_from(GOLDEN_RECORDS))))
    tokens = record["tokens"]
    for _ in range(draw(st.integers(1, 3))):
        token = draw(st.sampled_from(tokens))
        key = draw(st.sampled_from(["text", "pos", "start", "end"]))
        if key == "pos":
            token[key] = draw(st.sampled_from(["", "nn", "Nn", "NN", "X-Y", token[key].lower()]))
        elif key == "text":
            token[key] = draw(st.sampled_from([t["text"] for t in tokens]) | st.text(max_size=2))
        else:
            token[key] = draw(st.sampled_from([t[key] for t in tokens]) | st.integers(-1, len(record["text"]) + 1)
                              | st.just(token[key] + draw(st.sampled_from([-1, 1]))))
    return record


RECORD_LAYOUTS = {"tokens": _TOKEN, "sentences": _SPAN, "entities": _ENTITY, "relations": _RELATION,
                  "chains": _CHAIN}
NOT_OBJECTS = [None, True, 1, 1.5, "x", [], ["start", "end"]]
# the golden relations have no pattern id: one may be set, or be absent or null
PATTERN_IDS = [DELETE, None, 1, True, ["P01"], "P01", ""]


def field_values(kind, old) -> list:
    """Values, or DELETE, to put in place of `old`, a field of `kind`: ones of
    other JSON types, unknown enum strings and lists holding a non-string,
    beside well-typed ones."""
    if kind is int:
        old = old if type(old) is int else 0
        return [DELETE, None, True, False, float(old), old + 0.5, str(old), [old], old + 1, -1]
    if kind is str:
        old = old if type(old) is str else "x"
        return [DELETE, None, True, 1, 1.0, [old], {old: 1}, old + "x", ""]
    if kind is tuple:
        old = old if type(old) is list else ["x"]
        return [DELETE, None, "x", {}, [1], [*old, None], [*old, True], [old], [], old[:1], old * 2]
    if type(kind) is tuple:  # the trigger of a relation
        return [DELETE, None, {"start": 1}, {"start": 1, "end": True}, {"start": 1, "end": 2.0},
                {"start": "1", "end": 2}, {"start": 1, "end": 2}, {"start": 1, "end": 2, "x": 0}, [1, 2], "x", {}]
    # an enum: its values, and strings that are none of them
    old = old if type(old) is str else "x"
    return [DELETE, None, 1, True, [old], *(m.value for m in kind), old.lower(), old.upper(), "Foo", ""]


def field_faults(record: dict, section: str) -> Iterator[tuple[tuple, object]]:
    """(path, value) of each single change to an object of `record[section]`: a field
    set to one of its `field_values`, an extra key, or an object that is not one."""
    for i, item in enumerate(record[section]):
        for value in NOT_OBJECTS:
            yield (section, i), value
        if type(item) is not dict:
            continue
        yield (section, i, "x"), 1
        for name, kind in RECORD_LAYOUTS[section]:
            for value in PATTERN_IDS if name == "pattern_id" else field_values(kind, item.get(name)):
                yield (section, i, name), value


@st.composite
def field_faulted_records(draw) -> dict:
    """A golden document record with one or two of the changes of `field_faults`,
    the second drawn on the record the first made."""
    record = draw(st.sampled_from(GOLDEN_RECORDS))
    for _ in range(draw(st.integers(1, 2))):
        # the section first, so that the few relations and chains are changed as often as the tokens
        section = draw(st.sampled_from([key for key in RECORD_LAYOUTS if record[key]]))
        record = with_fault(record, *draw(st.sampled_from(list(field_faults(record, section)))))
    return record


def with_fault(record: dict, path: tuple, value) -> dict:
    """A copy of `record` with the value at `path` set to `value`, or deleted for DELETE."""
    record = json.loads(json.dumps(record))
    *keys, last = path
    parent = record
    for key in keys:
        parent = parent[key]
    if value is DELETE:
        parent.pop(last, None)
    else:
        parent[last] = json.loads(json.dumps(value))  # a copy: a value is used more than once
    return record


# characters JSON escapes (quote, backslash, controls) and ones it writes as
# they are with ensure_ascii=False (DEL, NEL, U+2028, U+2029, non-BMP)
WRITER_CHARS = ('"', "\\", "\x00", "\x08", "\n", "\x1f", "\x7f", "\x85", "\u2028", "\u2029",
                "\U0001f600", "\U00010400", "é", "A", "a", " ", "/")
writer_strings = st.text(st.sampled_from(WRITER_CHARS), max_size=6) | st.text(max_size=4)


@st.composite
def written_documents(draw) -> Document:
    """A document whose ids, token texts and tags hold characters JSON must escape,
    with relations drawn with and without a trigger and a pattern id.

    The annotations are set as they are, unchecked: the writer reads only their fields.
    """
    tags = writer_strings.filter(lambda tag: tag and not any(c.islower() for c in tag))
    token = st.tuples(writer_strings.filter(bool), tags)
    doc = document_from_tokens(draw(writer_strings), draw(st.lists(st.lists(token, min_size=1, max_size=4),
                                                                   max_size=3)))
    spans = st.builds(lambda a, b: Span(min(a, b), max(a, b) + 1), st.integers(0, 9), st.integers(0, 9))
    entities = draw(st.lists(st.builds(EntityMention, writer_strings, st.sampled_from(EntityType), spans,
                                       st.sampled_from(MentionKind), st.sampled_from(Provenance)), max_size=3))
    relations = draw(st.lists(st.builds(
        RelationMention, writer_strings, writer_strings, st.lists(writer_strings, max_size=3).map(tuple),
        st.none() | spans, st.sampled_from(Provenance), st.none() | writer_strings,
    ), max_size=3))
    chains = draw(st.lists(st.builds(IdentityChain, writer_strings, writer_strings,
                                     st.lists(writer_strings, max_size=2).map(tuple)), max_size=2))
    return replace(doc, entities=tuple(entities), relations=tuple(relations), chains=tuple(chains))


def outcome(build, args: Sequence):
    try:
        return build(*args)
    except (CorpusIOError, IngestError, ModelError) as exc:
        return exc


# a sentence opens with companies and a trigger, then strings together
# candidates and more companies, triggers and separators; a candidate may
# hold a company, a gerund trigger, a trigger noun or a coordination, so that
# products matched in one sentence often cross one another
OPENERS = ("Intel/NNP is/VBZ", "Samsung/NNP makes/VBZ", "Apple/NNP 's/POS",
           "Intel/NNP ,/, Samsung/NNP and/CC Apple/NNP are/VBP", "the/DT")
CANDIDATE_PARTS = (
    ("", "smart/JJ", "big/JJ and/CC new/JJ", "Intel/NNP", "Samsung/NNP"),
    ("", "developing/VBG", "making/VBG", "Apple/NNP"),
    ("chips/NNS", "sensors/NNS", "Watch/NNP", "Z3/NNP ®/SYM"),
    ("", "providers/NNS", "maker/NN", "and/CC new/JJ sensors/NNS"),
)
PIPELINE_UNITS = ("Intel/NNP", "is/VBZ", "sells/VBZ", "a/DT provider/NN of/IN", "by/IN", "'s/POS", ",/,", "and/CC")
PIPELINE_GAZETTEER = OrgGazetteer.from_file(str(default_gazetteer_path()))


@st.composite
def pipeline_cases(draw):
    """An inventory and a document with human mentions for `preannotate_document`.

    Human mentions are drawn often inside one drawn before, and kept when
    they nest in or sit beside the earlier ones, so that matched products
    often cross them; a mention with no noun is a company.
    """
    candidate = st.tuples(*map(st.sampled_from, CANDIDATE_PARTS)).map(lambda parts: " ".join(filter(None, parts)))
    sentence = st.builds(lambda opener, rest: " ".join([opener, *rest, "./."]), st.sampled_from(OPENERS),
                         st.lists(candidate | st.sampled_from(PIPELINE_UNITS), max_size=5))
    doc = tagged_document("d", draw(st.lists(sentence, min_size=1, max_size=3)))
    entities: list[EntityMention] = []
    for i in range(draw(st.integers(0, 4))):
        span = draw(spans_in(doc, False, [e.span for e in entities]))
        if any(spans_cross(span, e.span) for e in entities):
            continue
        nouns = any(pos in NOUN_TAGS for pos in doc.tags[span.start:span.end])
        etype = draw(st.sampled_from(EntityType)) if nouns else EntityType.COMPANY
        entities.append(EntityMention(f"h{i}", etype, span, mention_kind(doc.tags, span), Provenance.HUMAN))
    return INVENTORIES[draw(st.sampled_from(sorted(INVENTORIES)))], attach_annotations(doc, entities)


# ---------------------------------------------------------------------------
# Differential tests

def human(mention_id: str, etype: EntityType, start: int, end: int) -> EntityMention:
    """A human mention over [start, end): Nominal for a product, Name for a company."""
    kind = MentionKind.NOMINAL if etype is EntityType.PRODUCT else MentionKind.NAME
    return EntityMention(mention_id, etype, Span(start, end), kind, Provenance.HUMAN)


@settings(max_examples=300, deadline=None)
@given(annotated_documents())
# two product sequences with the same first word and width, each left
# unannotated once: each window is reported once
@example(replace(
    tagged_document("d", [
        "Acme/NNP sells/VBZ wireless/JJ chargers/NNS and/CC wireless/JJ routers/NNS ./.",
        "Bosch/NNP sells/VBZ wireless/JJ routers/NNS and/CC wireless/JJ chargers/NNS ./.",
    ]),
    entities=(human("m0", EntityType.PRODUCT, 2, 4), human("m1", EntityType.PRODUCT, 5, 7)),
))
# the same product words in two cases: `Wireless routers` annotated and
# `wireless routers` not, and the reverse for `chargers`
@example(replace(
    tagged_document("d", [
        "Wireless/JJ routers/NNS sell/VBP ./.",
        "Acme/NNP sells/VBZ wireless/JJ routers/NNS and/CC wireless/JJ chargers/NNS ./.",
        "Wireless/JJ chargers/NNS sell/VBP ./.",
    ]),
    entities=(human("m0", EntityType.PRODUCT, 0, 2), human("m1", EntityType.PRODUCT, 9, 11)),
))
# at `wireless` of the first sentence the last product to start is `home`,
# which ends before it; the earlier, longer product covers the window
@example(replace(
    tagged_document("d", [
        "Acme/NNP makes/VBZ smart/JJ home/NN wireless/JJ routers/NNS ./.",
        "Bosch/NNP sells/VBZ wireless/JJ routers/NNS ./.",
    ]),
    entities=(human("m0", EntityType.PRODUCT, 2, 6), human("m1", EntityType.PRODUCT, 3, 4),
              human("m2", EntityType.PRODUCT, 9, 11)),
))
# at the last `wireless` the widest sequence it opens would run past the last
# token: cut short there, the window would read as the narrower sequence
@example(replace(
    tagged_document("d", [
        "Acme/NNP sells/VBZ wireless/JJ routers/NNS for/IN homes/NNS ./.",
        "Bosch/NNP sells/VBZ wireless/JJ routers/NNS",
    ]),
    entities=(human("m0", EntityType.PRODUCT, 2, 6), human("m1", EntityType.PRODUCT, 2, 4)),
))
# pre-annotation nests products that share their end
@example(preannotate_document(
    document_from_text("Intel developing Intel developing Intel developing chips ."),
    PIPELINE_GAZETTEER, INVENTORIES["default"],
).document)
# "it" sits in the chains of Intel and of Acme, and all three carry the same
# relation: two V6 faults of r2, in document order
@example(replace(
    tagged_document("d", ["Intel/NNP and/CC Acme/NNP make/VBP chips/NNS ./.", "It/PRP makes/VBZ chips/NNS ./."]),
    entities=(
        human("c0", EntityType.COMPANY, 0, 1), human("c1", EntityType.COMPANY, 2, 3),
        replace(human("c2", EntityType.COMPANY, 6, 7), mention_kind=MentionKind.PRONOMINAL),
        human("p0", EntityType.PRODUCT, 4, 5),
    ),
    relations=tuple(RelationMention(f"r{i}", f"c{i}", ("p0",), Span(3, 4), Provenance.HUMAN) for i in range(3)),
    chains=(IdentityChain("ch0", "c0", ("c2",)), IdentityChain("ch1", "c1", ("c2",))),
))
def test_validate_agrees_with_pairwise_rules(doc):
    assert validate(doc) == oracle_validate(doc)


@settings(max_examples=300, deadline=None)
@given(attach_inputs())
def test_attach_agrees_with_pairwise_crossing_check(args):
    new, old = outcome(attach_annotations, args), outcome(oracle_attach, args)
    assert type(new) is type(old)
    if isinstance(old, Document):
        assert new == old
    elif "without nesting" in str(old):
        # both find a crossing pair, though not necessarily the same one
        by_id = {e.mention_id: e for e in args[1]}
        a, b = re.findall(r"'([^']*)'", str(new))
        assert a < b
        assert spans_cross(by_id[a].span, by_id[b].span)
    else:
        assert str(new) == str(old)


@settings(max_examples=300, deadline=None)
@given(attach_inputs())
@example((
    tagged_document("d", ["Acme/NNP sells/VBZ sensors/NNS ./."]),
    [EntityMention("m0", EntityType.PRODUCT, Span(2, 3), MentionKind.NOMINAL, Provenance.HUMAN)],
    [RelationMention("r0", "m0", ("m0",), None, Provenance.HUMAN)],
    [],
))
def test_attach_raises_exactly_what_validate_reports(args):
    doc, entities, relations, chains = args
    assume(isinstance(outcome(attach_annotations, (doc, entities)), Document))
    reported = [
        v.message
        for v in validate(replace(
            doc, entities=tuple(entities), relations=tuple(relations), chains=tuple(chains)
        ))
        if v.rule_id in ("V3", "V4", "V9")
    ]
    raised = outcome(attach_annotations, args)
    if isinstance(raised, Document):
        assert reported == []
    else:
        assert str(raised) in reported


@settings(max_examples=200, deadline=None)
@given(layer_pairs())
def test_agreement_agrees_with_pairwise_matching(layers):
    a, b = layers
    assert agreement(a, b) == oracle_agreement(a, b)
    corpus_a, corpus_b = Corpus("1.0", tuple(a)), Corpus("1.0", tuple(b))
    assert agreement(corpus_b, corpus_a) == oracle_agreement(corpus_b, corpus_a)


def scores_or_mismatch(score, a, b) -> AgreementScores | str:
    try:
        return score(a, b)
    except TokenizationMismatch as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(layer_pairs(max_documents=4), st.data())
def test_agreement_of_layers_in_any_order_agrees_with_pairwise_matching(layers, data):
    """The layers are read once each, in any order, and may miss or retokenize documents."""
    a, b = layers
    edits = data.draw(st.lists(st.sampled_from(["keep"] * 4 + ["drop", "retokenize"]),
                               min_size=len(b), max_size=len(b)))
    b = [tagged_document(doc.doc_id, ["zzz/NN"]) if edit == "retokenize" else doc
         for doc, edit in zip(b, edits) if edit != "drop"]
    expected = scores_or_mismatch(oracle_agreement, a, b)
    shuffled_a, shuffled_b = data.draw(st.permutations(a)), data.draw(st.permutations(b))
    assert scores_or_mismatch(agreement, iter(shuffled_a), iter(shuffled_b)) == expected


# a span of one to twelve positions starting at 0-30
SPANS = st.builds(lambda start, width: Span(start, start + width), st.integers(0, 30), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(st.sets(SPANS, max_size=8), st.sets(SPANS, max_size=8))
def test_coverage_agrees_with_position_sets(spans_a, spans_b):
    """Positions inside both layers: inside a, plus inside b, less inside either."""
    assert _covered(spans_a) == oracle_covered(spans_a)
    both = _covered(spans_a) + _covered(spans_b) - _covered(spans_a | spans_b)
    assert both == len(_positions(spans_a) & _positions(spans_b))


@settings(max_examples=100, deadline=None)
@given(st.lists(annotated_documents(), max_size=4), st.data())
def test_streamed_validation_and_stats_agree_with_the_whole_corpus(documents, data):
    """Documents validated and counted as they come, in any order and with repeated doc_ids."""
    ids = data.draw(st.lists(st.sampled_from(["d0", "d1", "d2"]), min_size=len(documents), max_size=len(documents)))
    documents = [replace(doc, doc_id=doc_id) for doc, doc_id in zip(documents, ids)]
    assert validate_corpus(iter(documents)) == oracle_validate_corpus(documents)
    corpus = Corpus("1.0", tuple(documents))
    try:
        expected = oracle_stats(corpus)
    except EmptyCorpus:
        with pytest.raises(EmptyCorpus):
            CorpusStats.from_corpus(iter(documents))
    else:
        assert CorpusStats.from_corpus(iter(documents)) == CorpusStats.from_corpus(corpus) == expected


@settings(max_examples=300, deadline=None)
@given(trigger_sentences())
def test_trigger_matches_agree_with_per_call_sort(case):
    members, doc = case
    ctx = _SentenceContext(doc, doc.sentences[0], [], [])
    oracle = OracleContext(doc, doc.sentences[0], [], [])
    for words in members:
        trig = TriggerLiteral(words, members)
        for pos in range(len(doc.texts)):
            assert ctx.trigger_matches(pos, trig) == list(oracle_trigger_matches(oracle, pos, trig))


@settings(max_examples=300, deadline=None)
@given(match_cases())
# the trigger chain ("maker sensors , maker") and the plain trigger ("maker",
# then the products "sensors , maker chips") both match; the chain comes first
@example(match_case("small", [["Acme", "maker", "sensors", ",", "maker", "chips"]], [(0, 1)]))
def test_match_sentence_agrees_with_per_surface_search(case):
    surfaces, args = case
    assert match_sentence(*args, surfaces) == oracle_match_sentence(*args, surfaces)


@settings(max_examples=300, deadline=None)
@given(pipeline_cases())
# the P03 product "chips providers" crosses the P05 product "Samsung
# developing chips" minted before it: the oracle fails to attach
@example((INVENTORIES["default"], document_from_text("Intel is Samsung developing chips providers .")))
def test_preannotate_agrees_with_pairwise_crossing_scan(case):
    surfaces, doc = case
    new = preannotate_document(doc, PIPELINE_GAZETTEER, surfaces)
    old = outcome(oracle_preannotate_document, (doc, PIPELINE_GAZETTEER, surfaces))
    if isinstance(old, PreannotateResult):
        assert new == old
    else:
        # a product crossing one minted earlier in its sentence; now dropped
        assert "without nesting" in str(old)


def test_nested_rule_skips_candidates_holding_a_possessive():
    # chunks never hold a POS token, and random cases never tag a separator
    # POS, so no merged coordination holds one either
    doc = tagged_document("d", ["Acme/NNP 's/POS Z3/NNP and/CC Acme/NNP Z4/NNP"])
    orgs = [EntityMention(f"c{i}", EntityType.COMPANY, Span(p, p + 1), MentionKind.NAME, Provenance.HUMAN)
            for i, p in enumerate((0, 4))]
    args = (doc, doc.sentences[0], orgs, [Span(0, 3), Span(4, 6)], ())
    expected = SentenceMatches(relations=((orgs[1], (Span(4, 6),), None, NESTED_PATTERN_ID),))
    assert match_sentence(*args) == oracle_match_sentence(*args) == expected


@settings(max_examples=300, deadline=None)
@given(match_cases())
def test_sentence_without_companies_matches_nothing(case):
    surfaces, (doc, sentence, _, candidates) = case
    assert match_sentence(doc, sentence, [], candidates, surfaces).relations == ()


# the shipped inventory, its one `<POSS>` pattern alone, no pattern at all, and a
# surface with no trigger, which the config syntax rejects but the matcher takes
GATE_INVENTORIES = {
    "default": INVENTORIES["default"],
    "P01": expand(parse_config("P01: <ORG> <POSS> <PRO>")),
    "empty": [],
    "triggerless": [SurfacePattern("T#000", "T", (OrgSlot(), Words(("sold",)), ProductSlot()))],
}
GATE_WORDS = (
    ("makes", "VBZ"), ("By", "IN"), ("maker", "NN"), ("from", "IN"), ("includes", "VBZ"), ("of", "IN"),
    ("'s", "POS"), ("'s", "VBZ"), ("®", "SYM"), ("™", "NN"),
    ("and", "CC"), ("or", "CC"), (",", ","), ("and", "JJ"), ("or", "JJ"), (",", "JJ"),
    ("fast", "JJ"), ("2", "CD"), ("leading", "VBG"), ("chip", "NN"), ("phones", "NNS"),
    ("Watch", "NNP"), ("Labs", "NNPS"), ("the", "DT"), ("it", "PRP"), ("in", "IN"), ("sold", "VBD"),
)
# trigger-free sentences that yield only a nested relation, so the gate must keep them
NESTING_SHAPES = (
    ("fast/JJ and/CC Apple/NNP", (2, 3)),  # Apple ends a merged coordination
    ("Apple/JJ and/CC gadgets/NNS", (0, 1)),  # Apple is a non-final adjective unit of one
    ("and/JJ and/CC Apple/NNP", (2, 3)),
    ("Apple/NNP ®/SYM", (0, 1)),
    ("Apple/NNP Watch/NNP", (0, 1)),
    ("fast/JJ ,/, or/CC Apple/NNP", (3, 4)),  # a separator of two tokens
    ("leading/VBG Apple/NNP", (1, 2)),  # a chunk tag that is no noun before the company
    ("Apple/NNP ®/SYM ®/SYM", (2, 3)),  # a trademark symbol absorbed before the company
)


def nesting_case(line: str, span: tuple[int, int]):
    return "empty", [[tuple(word.rsplit("/", 1)) for word in line.split()]], [span]


def nesting_examples(test):
    """`test` with each of the NESTING_SHAPES as an explicit example."""
    for shape in NESTING_SHAPES:
        test = example(nesting_case(*shape))(test)
    return test


@st.composite
def gate_cases(draw):
    """An inventory, the tagged sentences of a document and company spans in its last sentence.

    The words are trigger words, clitics tagged `POS` or not, trademark
    symbols, separators tagged as such or `JJ`, words of the other chunk
    tags and function words, in runs of one or two, each run a company
    mention or not.  The sentence sometimes follows another one, so that
    its positions do not start at 0.
    """
    words: list[tuple[str, str]] = []
    spans: list[tuple[int, int]] = []
    unit = st.tuples(st.booleans(), st.lists(st.sampled_from(GATE_WORDS), min_size=1, max_size=2))
    for company, unit_words in draw(st.lists(unit, min_size=1, max_size=6)):
        if company:
            spans.append((len(words), len(words) + len(unit_words)))
        words += unit_words
    sentences = [[("It", "PRP"), ("is", "VBZ"), (".", ".")]] if draw(st.booleans()) else []
    return draw(st.sampled_from(sorted(GATE_INVENTORIES))), sentences + [words], spans


def gate_arguments(name: str, sentences: list[list[tuple[str, str]]], spans: list[tuple[int, int]]):
    """`match_sentence`'s arguments for the last of `sentences`, and its columns."""
    doc = document_from_tokens("d", sentences)
    sentence = doc.sentences[-1]
    base = sentence.span.start
    orgs = [
        EntityMention(f"c{i}", EntityType.COMPANY, Span(base + a, base + b), MentionKind.NAME,
                      Provenance.PRE_ANNOTATION)
        for i, (a, b) in enumerate(spans)
    ]
    columns = SentenceColumns(doc.texts, doc.tags, sentence.span.start, sentence.span.end)
    candidates = [c.span for c in split_coordination(chunk(columns), columns)]
    return (doc, sentence, orgs, candidates, GATE_INVENTORIES[name]), columns


@settings(max_examples=500, deadline=None)
@given(gate_cases())
@nesting_examples
@example(("default", [[("Acme", "NNP"), ("Makes", "VBZ"), ("chips", "NNS")]], [(0, 1)]))
@example(("P01", [[("Acme", "NNP"), ("'s", "POS"), ("chips", "NNS")]], [(0, 1)]))
@example(("triggerless", [[("Acme", "NNP"), ("sold", "VBD"), ("chips", "NNS")]], [(0, 1)]))
def test_sentence_the_gate_skips_matches_nothing(case):
    args, columns = gate_arguments(*case)
    doc, sentence, orgs, candidates, surfaces = args
    if not may_relate(columns, orgs, trigger_words(surfaces)):
        assert match_sentence(*args).relations == ()


@pytest.mark.parametrize("line, span", NESTING_SHAPES)
def test_gate_keeps_a_company_that_only_nests(line, span):
    args, columns = gate_arguments(*nesting_case(line, span))
    assert may_relate(columns, args[2], trigger_words(args[4]))
    assert [m[3] for m in match_sentence(*args).relations] == [NESTED_PATTERN_ID]


def reopened(body: str) -> bool:
    """Whether an element of `body`, or of a group in it, opens its `<` or `{` again before its closer.

    Only an element that starts with the bracket is read up to the closer;
    a bare word such as `~make{` ends at the next space.
    """
    return any(
        reopened(raw[1:-1]) if raw[0] == "[" else raw[0] in "<{" and raw[0] in raw[1:]
        for raw in oracle_tokenize_elements(body, 1)
    )


@settings(max_examples=500, deadline=None)
@given(pattern_bodies(), st.booleans())
@example("{ {a|the} ", False)
@example("~make{ [{a|the}] ", False)
@example("[of {a {b}]", False)
@example("<ORG> [to be] [{a|the}] <TRIG:maker of|vendor of> <PRO>", False)
@example("of [a [b]] a] [~make]", True)
@example("<ORG> [a", False)
def test_parse_elements_agrees_with_split_then_classify(body, in_optional):
    try:
        expected = tuple(
            oracle_parse_element(raw, PATTERN_SETS, 1, in_optional=in_optional)
            for raw in oracle_tokenize_elements(body, 1)
        )
    except PatternConfigError:
        with pytest.raises(PatternConfigError):
            _parse_elements(body, PATTERN_SETS, 1, in_optional=in_optional)
    else:
        if reopened(body):
            # the old parser read `{a {b}` as one alternation of the words `a {b`
            with pytest.raises(PatternSyntaxError, match="unterminated"):
                _parse_elements(body, PATTERN_SETS, 1, in_optional=in_optional)
        else:
            assert _parse_elements(body, PATTERN_SETS, 1, in_optional=in_optional) == expected


def written(doc: Document) -> str:
    sink = io.StringIO()
    write_corpus(Corpus("1.0", (doc,)), sink)
    return sink.getvalue()


@settings(max_examples=300, deadline=None)
@given(written_documents())
# the line of an empty or blank raw-text file, one token, and texts and tags that JSON escapes
@example(document_from_text(" \n", "blank"))
@example(document_from_tokens("d", [[("Acme", "NNP")]]))
@example(document_from_tokens('d"\\', [[('say "hi"', '"'), ("a\\b", "\\"), ("\x00\x1f\x7f", "\x01\t"),
                                        ("\u2028", "\u2028"), ("Acme®", "®")]]))
def test_document_line_agrees_with_dumping_the_record(doc):
    assert corpus_io.document_line(doc) == oracle_document_line(doc)


def reads_alike(record: dict, oracle, *args) -> None:
    """The reader and `oracle` read `record` into equal documents that write the same line,
    or raise the same error."""
    new, old = outcome(corpus_io._parse_document, (record, 2)), outcome(oracle, (record, 2, *args))
    assert type(new) is type(old)
    if isinstance(new, Document):
        assert new == old and written(new) == written(old)
    else:
        assert str(new) == str(old)
        assert getattr(new, "line_no", None) == getattr(old, "line_no", None)


@settings(max_examples=400, deadline=None)
@given(mutated_records())
def test_reader_agrees_with_coercing_reader(record):
    new = outcome(corpus_io._parse_document, (record, 2))
    old = outcome(oracle_coercing_parse_document, (record, 2))
    if isinstance(new, Document):
        # `==` takes True for 1; the written bytes do not
        assert new == old and written(new) == written(old)
    elif isinstance(old, Document):
        # only a value the old reader coerced may be rejected now
        assert not exactly_typed(record, RECORD_TYPES)
    if isinstance(new, MalformedRecord):
        assert new.line_no == 2


@pytest.mark.parametrize("build", [make_document_of_tokens, oracle_make_document],
                         ids=["make_document", "oracle_make_document"])
@settings(max_examples=300, deadline=None)
@given(record=mutated_records() | token_faulted_records())
def test_column_reader_agrees_with_token_reader(build, record):
    """`build` checks the Tokens of the old reader: as columns in `make_document`, or in the old walk."""
    reads_alike(record, oracle_token_parse_document, build)


@settings(max_examples=500, deadline=None)
@given(field_faulted_records())
def test_column_reader_agrees_with_per_field_reader(record):
    reads_alike(record, oracle_parse_document)


def test_column_reader_agrees_with_per_field_reader_on_each_single_fault():
    """Every change of `field_faults` to the sentences, mentions, relations and chains
    of the golden records that hold a relation."""
    checked = 0
    for golden in GOLDEN_RECORDS:
        if not golden["relations"]:
            continue
        for section in ("sentences", "entities", "relations", "chains"):
            for fault in field_faults(golden, section):
                reads_alike(with_fault(golden, *fault), oracle_parse_document)
                checked += 1
    assert checked > 1000


def test_golden_corpus_is_read_without_the_per_item_reader():
    """`_objects` runs only to name a field that `_columns` refused."""
    with mock.patch.object(corpus_io, "_objects", side_effect=AssertionError("_objects was called")):
        corpus = corpus_io.load_corpus("src/promex/data/golden.corpus")
    assert len(corpus.documents) == 19


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(["Acme", "s", "S", "®", "™", "'", "’", "'s", "’s", ".", ",", "(", ")",
                                 "\"", "!", "?", ";", ":", "-", "x", " ", "  ", "\n"]), max_size=24).map("".join))
def test_tokenize_agrees_with_character_split(text):
    with mock.patch.object(ingest, "_split_core", oracle_split_core):
        expected = tokenize(text)
    assert tokenize(text) == expected


# plain words, words that end in a clitic or a trademark symbol once joined,
# and every mark the tokenizer peels or splits off
TOKENIZER_PIECES = ["Acme", "sensors", "Z3", "x", "s", "S", "'s", "’s", "'S", "’", "'", "®", "™", "ⓐ",
                    ".", ",", "(", ")", "\"", "!", "?", ";", ":", "-", " ", "  ", "\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=24).map("".join))
@example("Acme's Z3® sensors, BMW’s (new) ’ 's ™x ⓐ.")
def test_tokenize_agrees_with_peeling_every_chunk(text):
    assert tokenize(text) == oracle_tokenize(text)


# the same words sentence-initial and not, capitalised, lowercase and
# plural, numerals, lone marks and symbols, and the marks that end a sentence
TAGGER_WORDS = ["Acme", "acme", "Sensors", "sensors", "Making", "making", "The", "the", "1500", "3.5",
                "®", "™", "ⓐ", "-", "&", "'s", ",", ".", "!", "?"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TAGGER_WORDS), max_size=30).map(" ".join))
@example("Sensors ship . Acme Sensors ship .")
def test_document_tags_agree_with_tagging_each_sentence(text):
    doc = document_from_text(text)
    for sentence in doc.sentences:
        tokens = doc.sentence_tokens(sentence)
        assert [t.pos for t in tokens] == tag([t.text for t in tokens])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TAGGER_WORDS), max_size=30).map(" ".join))
@example("")
@example(" ")
@example("Sensors ship . Acme Sensors ship . ® ™")
def test_document_from_text_agrees_with_tagging_each_row(text):
    assert document_from_text(text, "d") == oracle_document_from_text(text, "d")


def test_tag_memo_changes_no_document():
    texts = [doc.text for doc in golden_corpus().documents]
    _tag_word.cache_clear()
    cold = [document_from_text(text, "d") for text in texts]
    misses = _tag_word.cache_info().misses
    warm = [document_from_text(text, "d") for text in texts]
    info = _tag_word.cache_info()
    # the warm pass tags nothing anew
    assert info.misses == misses and info.hits > 0
    assert warm == cold == [oracle_document_from_text(text, "d") for text in texts]
    assert info.maxsize == TAG_MEMO_SIZE == 2 ** 14


# every character `str.splitlines` ends a line at, and "\r\n"
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# comments with and without a TAB, a second `# doc_id:`, and blank and whitespace-only lines
WHOLE_LINES = ("# note", "#", "# doc_id: a", "#\tNNP", "#AI\tNNP\tB-Product", "", " ", "\t", " \t ")
# the fields of a row: first those a row may hold (a whitespace token, a padded
# tag, padded BIO tags), then those it may not (an empty token; an empty, blank
# or lowercase tag; an unknown BIO tag)
COLUMN_TOKENS = ("Acme", "sensors", "it", "#AI", " ", "")
COLUMN_TAGS = ("NNP", "NNS", "PRP", " NNS ", "", " ", "nn")
COLUMN_BIOS = ("O", "O", "B-Company", "I-Company", "B-Product", "I-Product", " I-Product ", "B-Foo", "", "I-")


@st.composite
def column_texts(draw) -> str:
    """Column text of whole lines and rows of 1 to 4 fields, joined by any line break,
    often with no final newline.  Half the texts draw rows only from the fields a
    row may hold, so that many read; `I-` transitions and products on a
    non-noun still fail some of those."""
    valid = draw(st.booleans())
    tokens, tags, bios = (pool[:n] if valid else pool for pool, n in
                          ((COLUMN_TOKENS, 5), (COLUMN_TAGS, 4), (COLUMN_BIOS, 7)))
    widths = (2, 3, 3) if valid else (1, 2, 3, 3, 4)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(WHOLE_LINES)))
            continue
        fields = [draw(st.sampled_from(tokens)), draw(st.sampled_from(tags)), draw(st.sampled_from(bios)), "x"]
        lines.append("\t".join(fields[:draw(st.sampled_from(widths))]))
    breaks = st.sampled_from(LINE_BREAKS)
    return "".join(line + draw(breaks) for line in lines) + draw(st.sampled_from(("",) * 3 + WHOLE_LINES))


@settings(max_examples=500, deadline=None)
@given(column_texts())
@example("")
# a document: padded fields, a token line that starts with `#`, a TAB-only line
# between sentences, and no final newline
@example("# doc_id: a\r\nAcme\t NNP \t B-Company \r\n#AI\tNNP\tI-Company\x85\t\nit\tPRP\u2028sensors\tNNS\tB-Product")
# each error, in the order the reader checks: a second `# doc_id:`, one and four
# fields, an empty token, an empty tag, an unknown BIO tag, `I-` after `O`,
# after another type, after a blank line and at the start
@example("# doc_id: a\nAcme\tNNP\n# doc_id: b\n")
@example("Acme\tNNP\nAcme\n")
@example("Acme\tNNP\tO\tx")
@example("\tNNP\tO")
@example("Acme\t \tO")
@example("Acme\tNNP\tB-Foo")
@example("Acme\tNNP\tO\nsensors\tNNS\tI-Product")
@example("Acme\tNNP\tB-Product\nsensors\tNNS\tI-Company")
@example("Acme\tNNP\tB-Company\n \t \nAcme\tNNP\tI-Company")
@example("Acme\tNNP\tI-Company")
# and the errors of `make_document` and `attach_annotations`: a lowercase tag,
# and a product with no noun
@example("Acme\tnn")
@example("it\tPRP\tB-Product")
def test_read_tagged_agrees_with_row_reader(text):
    new = outcome(read_tagged, (text, "d"))
    old = outcome(oracle_read_tagged, (text, "d"))
    assert type(new) is type(old)
    if isinstance(new, Document):
        assert new == old
    else:
        assert str(new) == str(old)
        assert getattr(new, "line_no", None) == getattr(old, "line_no", None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(COLUMN_TOKENS), st.sampled_from(COLUMN_TAGS)), max_size=4),
                max_size=3))
@example([])
@example([[("Acme", "NNP"), ("sensors", "NNS")], [("it", "PRP")]])
# an empty sentence does not partition the tokens
@example([[("Acme", "NNP")], []])
def test_document_from_tokens_agrees_with_row_builder(sentences):
    new = outcome(document_from_tokens, ("d", sentences))
    old = outcome(oracle_document_from_tokens, ("d", sentences))
    assert type(new) is type(old)
    assert new == old if isinstance(new, Document) else str(new) == str(old)


@st.composite
def gazetteer_cases(draw):
    """Names that are prefixes of a few word sequences, so that several start
    at one token, and a text built of those sequences and single words."""
    words = st.sampled_from(("acme", "bmw", "group"))
    bases = draw(st.lists(st.lists(words, min_size=1, max_size=4), min_size=1, max_size=3))
    names = [" ".join(b[:n]) for b in bases for n in draw(st.sets(st.integers(1, len(b)), min_size=1))]
    pieces = draw(st.lists(st.one_of(st.sampled_from(bases), words.map(lambda w: [w])), max_size=6))
    lowered = [w for piece in pieces for w in piece]
    s = draw(st.integers(0, len(lowered)))
    return OrgGazetteer.from_names(names), lowered, s, draw(st.integers(s, len(lowered)))


@settings(max_examples=300, deadline=None)
@given(gazetteer_cases())
def test_gazetteer_spans_agree_with_every_width(case):
    gazetteer, lowered, s, e = case
    assert gazetteer.spans(lowered, s, e) == oracle_gazetteer_spans(lowered, gazetteer, s, e)


# names that start inside or overlap one another, the words of legal-suffix
# runs, a lowercase name word and noise
ORG_WORDS = (("Acme", "NNP"), ("Bosch", "NNP"), ("Group", "NNP"), ("Sensor", "NNP"), ("Inc.", "NNP"),
             ("GmbH", "NNP"), ("acme", "NN"), ("sensors", "NNS"), ("and", "CC"), ("makes", "VBZ"))
ORG_NAMES = ("acme", "acme group", "group inc.", "acme group inc.", "bosch", "bosch sensor", "sensor gmbh",
             "group", "sensors")


@st.composite
def org_cases(draw):
    """Column text with human BIO Company and Product mentions over gazetteer
    names and legal-suffix runs, and a gazetteer of overlapping names."""
    sentences = []
    for _ in range(draw(st.integers(1, 3))):
        rows, inside = [], None
        for text, pos in draw(st.lists(st.sampled_from(ORG_WORDS), min_size=1, max_size=10)):
            bio = draw(st.sampled_from(["O", "O", "O", "B-Company", "B-Product", "I"]))
            if bio == "I":
                bio = f"I-{inside}" if inside else "O"
            elif bio == "B-Product" and pos not in NOUN_TAGS:
                bio = "O"  # a product needs a noun
            inside = bio[2:] if bio != "O" else None
            rows.append(f"{text}\t{pos}\t{bio}")
        sentences.append("\n".join(rows))
    names = draw(st.lists(st.sampled_from(ORG_NAMES), max_size=5))
    return "\n\n".join(sentences), OrgGazetteer.from_names(names)


@settings(max_examples=300, deadline=None)
@given(org_cases())
@example(("Acme\tNNP\tO\nGroup\tNNP\tB-Product\nInc.\tNNP\tO\nBosch\tNNP\tB-Company",
          OrgGazetteer.from_names(["acme group", "group inc.", "acme", "bosch"])))
def test_recognize_orgs_agrees_with_pairwise_overlap_scans(case):
    column_text, gazetteer = case
    doc = read_tagged(column_text)
    assert recognize_orgs(doc, gazetteer) == oracle_recognize_orgs(doc, gazetteer)


# trademark symbols and separators, most often with a tag of their own
CHUNK_TEXTS = ("w", "w", "w", "®", "™", ",", "and", "Or")


@st.composite
def chunk_tokens(draw, max_size: int) -> list[tuple[str, str]]:
    texts = st.sampled_from(CHUNK_TEXTS)
    tags = st.sampled_from(TAG_POOL + ["SYM"])
    return draw(st.lists(st.tuples(texts, tags), max_size=max_size))


@settings(max_examples=500, deadline=None)
@given(chunk_tokens(3), chunk_tokens(16), chunk_tokens(3))
# an empty sentence, and noun-less JJ, CD and VBG runs, one after a noun
@example([], [], [])
@example([("w", "NN")], [("w", "JJ"), ("w", "CD"), ("w", "VBG"), ("w", "JJ"), ("w", "DT"), ("w", "VBG")], [("w", "NN")])
@example([], [("w", "NN"), ("w", "VBG"), ("w", "JJ"), ("and", "CC"), ("w", "JJ"), ("w", "NNS"), ("w", "VBG")], [])
# a candidate that ends in an adjective, before a coordination
@example([], [("w", "NN"), ("w", "JJ"), ("and", "CC"), ("w", "JJ"), ("w", "NN")], [])
# trademark symbols tagged SYM and NN: absorbed, reaching into the next run
# and taking its only noun, or standing past the sentence's end
@example([], [("w", "NNP"), ("®", "SYM"), ("™", "JJ"), ("w", "NN"), ("w", "NNP"), ("™", "NN")], [("®", "SYM")])
@example([("®", "NN")], [("w", "NN"), ("®", "SYM"), ("™", "NN"), ("w", "JJ"), ("w", "VBG"), ("®", "NN")], [])
@example([], [("w", "NN"), ("™", "VBG"), ("w", "JJ"), (",", ","), ("w", "JJ"), ("or", "CC"), ("w", "NN")], [])
def test_chunker_reads_tokens_and_columns_alike(before, sentence, after):
    tokens = [Token(text, pos, 0, 1) for text, pos in sentence]
    chunks = chunk(tokens)
    split = split_coordination(chunks, tokens)

    # the same sentence inside a document, in the document's coordinates
    rows = before + sentence + after
    texts, tags = [text for text, _ in rows], [pos for _, pos in rows]
    start, stop = len(before), len(before) + len(sentence)

    def shifted(candidates: list[ChunkCandidate]) -> list[ChunkCandidate]:
        return [replace(c, span=Span(c.span.start + start, c.span.end + start)) for c in candidates]

    columns = SentenceColumns(texts, tags, start, stop)
    assert chunk(columns) == shifted(chunks)
    assert split_coordination(shifted(chunks), columns) == shifted(split)
