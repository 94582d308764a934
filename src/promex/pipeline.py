"""End-to-end pre-annotation: ingest, chunk, match, resolve, attach.

This is where matched spans become pre-annotated product and relation
mentions with their ids.  A sentence is chunked and matched only when it
can yield a relation (`may_relate`): it names a company, which every
surface relates, and either holds a word that can begin a trigger, or a
`POS` token for `<POSS>`, since `parse_config` gives every pattern one
trigger outside any optional group; or, for the nested rule, has a company
mention next to a token that a product candidate can hold: a chunk tag, an
absorbed trademark symbol or, in a merged adjective coordination, a
separator after an adjective.  Everything here is a pure function of its
inputs, so each document can be pre-annotated in any worker process and
the results merged in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .chunker import SentenceColumns, can_enclose, chunk, split_coordination
from .ingest import OrgGazetteer, recognize_orgs
from .model import (
    Document,
    EntityMention,
    EntityType,
    NestingIndex,
    Provenance,
    RelationMention,
    attach_annotations,
    by_sentence,
    mention_kind,
)
from .patterns import SurfacePattern, Triggers, match_sentence, resolve_acronyms, trigger_words


@dataclass(frozen=True)
class PreannotateResult:
    document: Document
    # every match before fan-out deduplication, for yield reporting
    raw_relations: tuple[RelationMention, ...]


def may_relate(columns: SentenceColumns, companies: Sequence[EntityMention], triggers: Triggers) -> bool:
    """Whether `match_sentence` can find a relation in a sentence that names `companies`:
    whether it holds a trigger's first word or, for `<POSS>`, a `POS` token, or
    a company mention that a product candidate could strictly contain."""
    texts, tags, start, stop = columns
    return (
        triggers.firsts is None or not triggers.firsts.isdisjoint(map(str.lower, texts[start:stop]))
        or triggers.possessive and "POS" in tags[start:stop]
        or any(can_enclose(columns, c.span) for c in companies)
    )


def preannotate_document(
    doc: Document,
    gazetteer: OrgGazetteer,
    surface_patterns: Sequence[SurfacePattern],
) -> PreannotateResult:
    """Run the full pre-annotation pipeline over one tagged document.

    Human annotations already on the document are kept; recognized company
    mentions, matched product mentions and relation mentions are added with
    PreAnnotation provenance.  A sentence is skipped before chunking when no
    match can come from it: it has no company mention, human or recognized,
    or `may_relate` finds in it no trigger word and no company mention that
    a candidate could enclose.  A match is dropped when one of its products
    would cross a mention kept before it: human, recognized, or minted from
    an earlier match.
    """
    orgs = recognize_orgs(doc, gazetteer)
    # a span already annotated as a product keeps that mention's id
    product_ids = {
        e.span: e.mention_id for e in doc.entities
        if e.entity_type is EntityType.PRODUCT
    }
    kept = NestingIndex(m.span for m in (*doc.entities, *orgs))
    triggers = trigger_words(surface_patterns)
    minted: list[EntityMention] = []
    raw: list[RelationMention] = []
    for sentence, fixed in zip(doc.sentences, by_sentence(doc, (*doc.entities, *orgs))):
        companies = [m for m in fixed if m.entity_type is EntityType.COMPANY]
        if not companies:
            continue
        columns = SentenceColumns(doc.texts, doc.tags, sentence.span.start, sentence.span.end)
        if not may_relate(columns, companies, triggers):
            continue
        candidates = [c.span for c in split_coordination(chunk(columns), columns)]
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
