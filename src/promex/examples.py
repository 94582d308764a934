"""Hand-annotated demonstration documents.

The golden corpus ships as data, in `data/golden.corpus`, and this module
reads it.  Its documents exercise every corner of the data model
(possessive and prepositional triggers, nested company-in-product mentions,
coordinated products, identity chains, multi-trigger appositions) and double
as the clean reference corpus: the validator must stay silent on all of them.
"""

from __future__ import annotations

from functools import cache, partial
from importlib import resources

from .corpus_io import read_corpus
from .ingest import document_from_tokens
from .model import (
    Corpus,
    Document,
    EntityMention,
    EntityType,
    IdentityChain,
    MentionKind,
    Provenance,
    RelationMention,
    Span,
    attach_annotations,
)

def tagged_document(doc_id: str, sentences: list[str]) -> Document:
    """Build a Document from 'token/TAG token/TAG ...' sentence strings."""
    return document_from_tokens(doc_id, [
        [item.rpartition("/")[::2] for item in sentence.split()] for sentence in sentences
    ])


def annotated_document(
    doc_id: str,
    sentences: list[str],
    entities: list[tuple[str, str, str, int, int]] = (),
    relations: list[tuple[str, str, tuple[str, ...], tuple[int, int] | None]] = (),
    chains: list[tuple[str, str, tuple[str, ...]]] = (),
) -> Document:
    doc = tagged_document(doc_id, sentences)
    ents = [
        EntityMention(
            mention_id=mid,
            entity_type=EntityType(etype.title()),
            span=Span(start, end),
            mention_kind=MentionKind(kind.title()),
            provenance=Provenance.HUMAN,
        )
        for mid, etype, kind, start, end in entities
    ]
    rels = [
        RelationMention(
            relation_id=rid,
            company=company,
            products=products,
            trigger=Span(*trigger) if trigger else None,
            provenance=Provenance.HUMAN,
        )
        for rid, company, products, trigger in relations
    ]
    chns = [IdentityChain(cid, source, targets) for cid, source, targets in chains]
    return attach_annotations(doc, ents, rels, chns)


@cache
def golden_corpus() -> Corpus:
    """The clean reference corpus, read once from the shipped `data/golden.corpus`.

    Caching is safe: a Corpus and its Documents are frozen, with tuple fields.
    """
    with resources.files("promex").joinpath("data/golden.corpus").open(encoding="utf-8") as fh:
        return read_corpus(fh)


def _golden(doc_id: str) -> Document:
    """The golden document `doc_id`."""
    return next(doc for doc in golden_corpus().documents if doc.doc_id == doc_id)


# the golden documents that tests name one by one
bmw_1series = partial(_golden, "bmw-1series")
honeywell_intuition = partial(_golden, "honeywell-intuition")
sensata_develops = partial(_golden, "sensata-develops")
amazon_vendor = partial(_golden, "amazon-vendor")
smartphone_providers = partial(_golden, "smartphone-providers")
parkifi_parking_data = partial(_golden, "parkifi-parking-data")
sensata_holding = partial(_golden, "sensata-holding")
bmw_z3 = partial(_golden, "bmw-z3")
apple_watch = partial(_golden, "apple-watch")
fujifilm_biomedical = partial(_golden, "fujifilm-biomedical")
