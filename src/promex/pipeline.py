"""End-to-end pre-annotation: ingest, chunk, match, resolve, attach.

This is where matched spans become pre-annotated product and relation
mentions with their ids.  Every surface relates a company, so a sentence
that mentions none is neither chunked nor matched.  Everything here is a
pure function of its inputs, so each document can be pre-annotated in any
worker process and the results merged in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .chunker import chunk, split_coordination
from .ingest import OrgGazetteer, recognize_orgs
from .model import (
    Document,
    EntityMention,
    EntityType,
    NestingIndex,
    Provenance,
    RelationMention,
    Span,
    attach_annotations,
    by_sentence,
    mention_kind,
)
from .patterns import SurfacePattern, match_sentence, resolve_acronyms


@dataclass(frozen=True)
class PreannotateResult:
    document: Document
    # every match before fan-out deduplication, for yield reporting
    raw_relations: tuple[RelationMention, ...]


def preannotate_document(
    doc: Document,
    gazetteer: OrgGazetteer,
    surface_patterns: Sequence[SurfacePattern],
) -> PreannotateResult:
    """Run the full pre-annotation pipeline over one tagged document.

    Human annotations already on the document are kept; recognized company
    mentions, matched product mentions and relation mentions are added with
    PreAnnotation provenance.  A sentence with no company mention, human or
    recognized, is skipped before chunking: no match can come from it.  A
    match is dropped when one of its products would cross a mention kept
    before it: human, recognized, or minted from an earlier match.
    """
    orgs = recognize_orgs(doc, gazetteer)
    # a span already annotated as a product keeps that mention's id
    product_ids = {
        e.span: e.mention_id for e in doc.entities
        if e.entity_type is EntityType.PRODUCT
    }
    kept = NestingIndex(m.span for m in (*doc.entities, *orgs))
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
            # a product that would cross a kept mention cannot be attached
            if any(kept.crosses(s) for s in spans if s not in product_ids):
                continue
            for span in spans:
                if span not in product_ids:
                    product_ids[span] = f"{doc.doc_id}-pre-p{span.start}-{span.end}"
                    kept.add(span)
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
