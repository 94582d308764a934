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
pattern may match a sentence with no company mention.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import replace
from unittest import mock
from typing import Iterable, Iterator, Sequence

from hypothesis import example, given, settings, strategies as st

from promex import corpus_io, validator
from promex.analytics import AgreementScores, TokenizationMismatch, agreement
from promex.examples import golden_corpus, tagged_document
from promex.model import (
    Corpus,
    Document,
    EntityMention,
    EntityType,
    IdentityChain,
    InvariantViolation,
    MentionKind,
    ModelError,
    NOUN_TAGS,
    POSSESSIVE_CLITICS,
    PROPER_NOUN_TAGS,
    Provenance,
    RelationMention,
    Sentence,
    Span,
    TRADEMARK_TEXTS,
    Token,
    _check_chains,
    _check_entity,
    _check_relation,
    attach_annotations,
    by_sentence,
    make_document,
    mention_kind,
)
from promex.chunker import CHUNK_TAGS, chunk, separator_ends, split_coordination
from promex.cli import default_config_path, default_gazetteer_path
from promex.corpus_io import CorpusIOError, MalformedRecord, write_corpus
from promex import ingest
from promex.ingest import (
    _APOSTROPHES,
    _PUNCT,
    LEGAL_SUFFIXES,
    OrgGazetteer,
    _split_core,
    document_from_text,
    document_from_tokens,
    read_tagged,
    recognize_orgs,
    tag,
    tokenize,
)
from promex.patterns import (
    MAX_CONJUNCTS,
    NESTED_PATTERN_ID,
    OrgSlot,
    PossessiveTrigger,
    ProductSlot,
    SentenceMatches,
    SurfaceElement,
    SurfacePattern,
    TriggerLiteral,
    Words,
    _EXACT_LITERALS,
    _SentenceContext,
    expand,
    match_sentence,
    parse_config,
    resolve_acronyms,
)
from promex.pipeline import PreannotateResult, preannotate_document
from promex.validator import DEFAULT_STOPLIST, Severity, Violation, validate


# ---------------------------------------------------------------------------
# Pairwise oracles

def oracle_v2(doc: Document, products, companies) -> Iterable[Violation]:
    for product in products:
        for company in companies:
            if not product.span.contains(company.span) or product.span == company.span:
                continue
            pos = company.span.end
            if pos < product.span.end and doc.tokens[pos].pos == "POS":
                yield Violation(
                    "V2", Severity.ERROR, doc.doc_id, product.mention_id, product.span,
                    "company mention inside a product extent carries a possessive marker",
                )


def oracle_v5(doc: Document, products) -> Iterable[Violation]:
    lowered = [t.text.lower() for t in doc.tokens]
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
    stop = frozenset(w.lower() for w in stoplist)
    by_id = {e.mention_id: e for e in doc.entities}
    products = [e for e in doc.entities if e.entity_type is EntityType.PRODUCT]
    companies = [e for e in doc.entities if e.entity_type is EntityType.COMPANY]
    violations: list[Violation] = []
    violations.extend(validator._v1_boundaries(doc, products))
    violations.extend(oracle_v2(doc, products, companies))
    violations.extend(validator._v3_cross_sentence(doc, by_id))
    violations.extend(validator._v4_chains(doc, by_id))
    violations.extend(oracle_v5(doc, products))
    violations.extend(oracle_v6(doc, by_id))
    violations.extend(validator._v7_nouns(doc, products))
    violations.extend(validator._v8_stoplist(doc, products, stop))
    violations.extend(validator._v9_relations(doc, by_id))
    violations.sort(
        key=lambda v: (v.span.start, v.span.end, v.severity is not Severity.ERROR, v.rule_id, v.target_id)
    )
    return violations


def oracle_attach(doc, entities=(), relations=(), chains=()) -> Document:
    """`attach_annotations` with the pairwise crossing loop."""
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
            if a.mention_id < b.mention_id and a.span.crosses(b.span):
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
        if [t.text for t in a.tokens] != [t.text for t in b.tokens]:
            raise TokenizationMismatch(f"document {doc_id!r} is tokenized differently")
        for etype in EntityType:
            inside_a = [False] * len(a.tokens)
            inside_b = [False] * len(b.tokens)
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
        for sep_end in separator_ends(ctx.tokens, end, ctx.end):
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
    ctx: _SentenceContext,
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
        if any(doc.tokens[i].pos == "POS" for i in range(cand.start, cand.end)):
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
            if any(s.crosses(m.span) for s in spans for m in fixed):
                continue
            for span in spans:
                if span not in product_ids:
                    product_ids[span] = f"{doc.doc_id}-pre-p{span.start}-{span.end}"
                    minted.append(EntityMention(
                        product_ids[span], EntityType.PRODUCT, span,
                        mention_kind(doc.tokens, span), Provenance.PRE_ANNOTATION,
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


def oracle_parse_document(record: dict, line_no: int) -> Document:
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
    lowered = [t.text.lower() for t in doc.tokens]
    chosen: list[Span] = []

    for sentence, entities in zip(doc.sentences, by_sentence(doc, doc.entities)):
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

        # candidates and mentions of other sentences never overlap these
        existing = [m.span for m in entities if m.entity_type is EntityType.COMPANY]
        in_sentence: list[Span] = []
        for span in sorted(set(candidates), key=lambda sp: (-len(sp), sp.start)):
            if any(span.overlaps(other) for other in in_sentence):
                continue
            if any(span.overlaps(other) for other in existing):
                continue
            if any(span.crosses(m.span) for m in entities):
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
        lo, hi = 0, len(doc.tokens)
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
        window = doc.tokens[span.start:span.end]
        if not loose and etype is EntityType.PRODUCT and not any(t.pos in NOUN_TAGS for t in window):
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
def layer_pairs(draw):
    """Two layers over the same documents; the second keeps some of the first's
    mentions and relations, reordered and often with another trigger."""
    layers: tuple[list[Document], list[Document]] = ([], [])
    for k in range(draw(st.integers(1, 2))):
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


def outcome(build, args: Sequence):
    try:
        return build(*args)
    except (CorpusIOError, ModelError) as exc:
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
        if any(span.crosses(e.span) for e in entities):
            continue
        nouns = any(t.pos in NOUN_TAGS for t in doc.tokens[span.start:span.end])
        etype = draw(st.sampled_from(EntityType)) if nouns else EntityType.COMPANY
        entities.append(EntityMention(f"h{i}", etype, span, mention_kind(doc.tokens, span), Provenance.HUMAN))
    return INVENTORIES[draw(st.sampled_from(sorted(INVENTORIES)))], attach_annotations(doc, entities)


# ---------------------------------------------------------------------------
# Differential tests

@settings(max_examples=300, deadline=None)
@given(annotated_documents())
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
        assert by_id[a].span.crosses(by_id[b].span)
    else:
        assert str(new) == str(old)


@settings(max_examples=200, deadline=None)
@given(layer_pairs())
def test_agreement_agrees_with_pairwise_matching(layers):
    a, b = layers
    assert agreement(a, b) == oracle_agreement(a, b)
    corpus_a, corpus_b = Corpus("1.0", tuple(a)), Corpus("1.0", tuple(b))
    assert agreement(corpus_b, corpus_a) == oracle_agreement(corpus_b, corpus_a)


@settings(max_examples=300, deadline=None)
@given(trigger_sentences())
def test_trigger_matches_agree_with_per_call_sort(case):
    members, doc = case
    ctx = _SentenceContext(doc, doc.sentences[0], [], [])
    oracle = OracleContext(doc, doc.sentences[0], [], [])
    for words in members:
        trig = TriggerLiteral(words, members)
        for pos in range(len(doc.tokens)):
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


def written(doc: Document) -> str:
    sink = io.StringIO()
    write_corpus(Corpus("1.0", (doc,)), sink)
    return sink.getvalue()


@settings(max_examples=400, deadline=None)
@given(mutated_records())
def test_reader_agrees_with_coercing_reader(record):
    new = outcome(corpus_io._parse_document, (record, 2))
    old = outcome(oracle_parse_document, (record, 2))
    if isinstance(new, Document):
        # `==` takes True for 1; the written bytes do not
        assert new == old and written(new) == written(old)
    elif isinstance(old, Document):
        # only a value the old reader coerced may be rejected now
        assert not exactly_typed(record, RECORD_TYPES)
    if isinstance(new, MalformedRecord):
        assert new.line_no == 2


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
