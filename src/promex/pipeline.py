"""End-to-end pre-annotation: ingest, chunk, match, resolve, attach.

Everything here is a pure function of its inputs, so each document can be
pre-annotated in any worker process and the results merged in any order.
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
    RelationMention,
    Span,
    attach_annotations,
    by_sentence,
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
    PreAnnotation provenance.
    """
    orgs = recognize_orgs(doc, gazetteer)
    companies = [
        e for e in doc.entities if e.entity_type is EntityType.COMPANY
    ] + orgs

    existing_products = {
        e.span: e.mention_id for e in doc.entities
        if e.entity_type is EntityType.PRODUCT
    }
    fixed_spans = [e.span for e in doc.entities] + [m.span for m in orgs]

    raw: list[RelationMention] = []
    minted: dict[str, EntityMention] = {}
    for sentence, sentence_companies, sentence_fixed in zip(
        doc.sentences,
        by_sentence(doc, companies, lambda m: m.span),
        by_sentence(doc, fixed_spans, lambda s: s),
    ):
        tokens = doc.sentence_tokens(sentence)
        base = sentence.span.start
        candidates = [
            replace(c, span=Span(c.span.start + base, c.span.end + base))
            for c in split_coordination(chunk(tokens), tokens)
        ]
        found = match_sentence(doc, sentence, sentence_companies, candidates, surface_patterns)
        mentions = {m.mention_id: m for m in found.product_mentions}
        for rel in found.relations:
            spans = [mentions[p].span for p in rel.products]
            # a matched span that crosses an existing mention cannot be attached
            if any(s.crosses(other) for s in spans for other in sentence_fixed):
                continue
            # a product span already annotated keeps its mention; others are minted
            pairs = list(zip(rel.products, spans))
            minted.update((pid, mentions[pid]) for pid, span in pairs if span not in existing_products)
            raw.append(replace(rel, products=tuple(existing_products.get(span, pid) for pid, span in pairs)))

    entities = tuple(doc.entities) + tuple(orgs) + tuple(
        sorted(minted.values(), key=lambda m: m.span)
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
