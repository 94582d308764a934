"""Hand-annotated demonstration documents.

These documents exercise every corner of the data model (possessive and
prepositional triggers, nested company-in-product mentions, coordinated
products, identity chains, multi-trigger appositions) and double as the
clean reference corpus: the validator must stay silent on all of them.
"""

from __future__ import annotations

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


def bmw_1series() -> Document:
    return annotated_document(
        "bmw-1series",
        ["BMW/NNP 's/POS 1-Series/NNP Convertible/NNP is/VBZ a/DT stylish/JJ convertible/NN ./."],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("p1", "product", "name", 2, 4),
        ],
        relations=[("r1", "c1", ("p1",), (1, 2))],
    )


def honeywell_intuition() -> Document:
    return annotated_document(
        "honeywell-intuition",
        ["Intuition/NNP Executive/NNP by/IN Honeywell/NNP collects/VBZ and/CC analyzes/VBZ large/JJ amounts/NNS of/IN data/NNS ./."],
        entities=[
            ("p1", "product", "name", 0, 2),
            ("c1", "company", "name", 3, 4),
        ],
        relations=[("r1", "c1", ("p1",), (2, 3))],
    )


def sensata_develops() -> Document:
    return annotated_document(
        "sensata-develops",
        ["Sensata/NNP Technologies/NNP develops/VBZ sensors/NNS and/CC controls/NNS ./."],
        entities=[
            ("c1", "company", "name", 0, 2),
            ("p1", "product", "nominal", 3, 4),
            ("p2", "product", "nominal", 5, 6),
        ],
        relations=[("r1", "c1", ("p1", "p2"), (2, 3))],
    )


def amazon_vendor() -> Document:
    return annotated_document(
        "amazon-vendor",
        ["Amazon/NNP is/VBZ a/DT vendor/NN of/IN books/NNS and/CC technology/NN products/NNS ./."],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("p1", "product", "nominal", 5, 6),
            ("p2", "product", "nominal", 7, 9),
        ],
        relations=[("r1", "c1", ("p1", "p2"), (3, 5))],
    )


def smartphone_providers() -> Document:
    return annotated_document(
        "smartphone-providers",
        ["Apple/NNP and/CC Samsung/NNP are/VBP smartphone/NN providers/NNS ./."],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("c2", "company", "name", 2, 3),
            ("p1", "product", "nominal", 4, 5),
        ],
        relations=[
            ("r1", "c1", ("p1",), (5, 6)),
            ("r2", "c2", ("p1",), (5, 6)),
        ],
    )


def parkifi_parking_data() -> Document:
    return annotated_document(
        "parkifi-parking-data",
        ["Parkifi/NNP is/VBZ a/DT fast-growing/JJ technology/NN company/NN focused/VBN on/IN "
         "providing/VBG their/PRP$ customers/NNS with/IN real-time/JJ parking/NN data/NNS"],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("p1", "product", "nominal", 12, 15),
        ],
        relations=[("r1", "c1", ("p1",), (8, 9))],
    )


def sensata_holding() -> Document:
    return annotated_document(
        "sensata-holding",
        ["Sensata/NNP Technologies/NNP Holding/NNP produces/VBZ sensors/NNS"],
        entities=[
            ("c1", "company", "name", 0, 3),
            ("p1", "product", "nominal", 4, 5),
        ],
        relations=[("r1", "c1", ("p1",), (3, 4))],
    )


def bmw_z3() -> Document:
    return annotated_document(
        "bmw-z3",
        ["BMW/NNP 's/POS Z3/NNP"],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("p1", "product", "name", 2, 3),
        ],
        relations=[("r1", "c1", ("p1",), (1, 2))],
    )


def apple_watch() -> Document:
    return annotated_document(
        "apple-watch",
        ["Apple/NNP Watch/NNP Series/NNP 2/CD"],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("p1", "product", "name", 0, 4),
        ],
        relations=[("r1", "c1", ("p1",), None)],
    )


def is_international_services() -> Document:
    return annotated_document(
        "is-international-services",
        ["IS/NNP International/NNP Services/NNP LLC/NNP (/( IS/NNP )/) is/VBZ a/DT uniquely/RB "
         "qualified/JJ business/NN providing/VBG engineering/NN services/NNS"],
        entities=[
            ("c1", "company", "name", 0, 4),
            ("c2", "company", "name", 5, 6),
            ("p1", "product", "nominal", 13, 15),
        ],
        relations=[("r1", "c1", ("p1",), (12, 13))],
        chains=[("ch1", "c1", ("c2",))],
    )


def fujifilm_biomedical() -> Document:
    return annotated_document(
        "fujifilm-biomedical",
        ["FUJIFILM/NNP invested/VBD in/IN Japan/NNP Biomedical/NNP Co./NNP ,/, a/DT developer/NN ,/, "
         "manufacturer/NN and/CC vendor/NN of/IN additives/NNS for/IN cell/NN culture/NN media/NNS ./."],
        entities=[
            ("c1", "company", "name", 0, 1),
            ("c2", "company", "name", 3, 6),
            ("p1", "product", "nominal", 14, 19),
        ],
        relations=[
            ("r1", "c2", ("p1",), (8, 9)),
            ("r2", "c2", ("p1",), (10, 11)),
            ("r3", "c2", ("p1",), (12, 13)),
        ],
    )


def semiconductor_ip() -> Document:
    return annotated_document(
        "semiconductor-ip",
        ["semiconductor/NN and/CC IP/NNP products/NNS"],
        entities=[
            ("p1", "product", "nominal", 0, 1),
            ("p2", "product", "name", 2, 4),
        ],
    )


def wireless_led_controls() -> Document:
    return annotated_document(
        "wireless-led-controls",
        ["wireless/JJ and/CC self-powered/JJ LED/NNP controls/NNS"],
        entities=[("p1", "product", "nominal", 0, 5)],
    )


def toyota_cruiser_forms() -> Document:
    return annotated_document(
        "toyota-cruiser-forms",
        [
            "vehicle/NN",
            "SUV/NN",
            "Land/NNP Cruiser/NNP",
            "Toyota/NNP Land/NNP Cruiser/NNP",
            "Toyota/NNP Land/NNP Cruiser/NNP 100/CD Series/NNP VX/NNP",
            "Toyota/NNP Land/NNP Cruiser/NNP 100/CD Series/NNP VX/NNP SUV/NN",
        ],
        entities=[
            ("p1", "product", "nominal", 0, 1),
            ("p2", "product", "nominal", 1, 2),
            ("p3", "product", "name", 2, 4),
            ("p4", "product", "name", 4, 7),
            ("c1", "company", "name", 4, 5),
            ("p5", "product", "name", 7, 13),
            ("c2", "company", "name", 7, 8),
            ("p6", "product", "name", 13, 20),
            ("c3", "company", "name", 13, 14),
        ],
    )


def part_codes() -> Document:
    return annotated_document(
        "part-codes",
        [
            "AP3405/NNP",
            "1500/CD ECL-PTU-208/NNP",
            "Samsung/NNP 14nm/CD LPP/NNP Process/NNP",
        ],
        entities=[
            ("p1", "product", "name", 0, 1),
            ("p2", "product", "name", 1, 3),
            ("p3", "product", "name", 3, 7),
            ("c1", "company", "name", 3, 4),
        ],
    )


def sensor_attributes() -> Document:
    return annotated_document(
        "sensor-attributes",
        [
            "smart/JJ sensors/NNS",
            "communicating/VBG sensors/NNS",
            "vision/NN sensors/NNS",
            "Hall/NNP sensors/NNS",
        ],
        entities=[
            ("p1", "product", "nominal", 0, 2),
            ("p2", "product", "nominal", 2, 4),
            ("p3", "product", "nominal", 4, 6),
            ("p4", "product", "name", 6, 8),
        ],
    )


def mention_variety() -> Document:
    return annotated_document(
        "mention-variety",
        [
            "sensors/NNS",
            "Kleenex/NNP",
            "Q7/NNP",
            "Audi/NNP Q7/NNP",
            "Innocent/NNP Drinks/NNP smoothies/NNS",
            "white/JJ iPhone/NNP 6/CD",
            "Toyota/NNP Land/NNP Cruiser/NNP 100/CD Series/NNP VX/NNP SUV/NN diesel/NN turbo/NN",
        ],
        entities=[
            ("p1", "product", "nominal", 0, 1),
            ("p2", "product", "name", 1, 2),
            ("p3", "product", "name", 2, 3),
            ("p4", "product", "name", 3, 5),
            ("c1", "company", "name", 3, 4),
            ("p5", "product", "name", 5, 8),
            ("c2", "company", "name", 5, 7),
            ("p6", "product", "name", 8, 11),
            ("p7", "product", "name", 11, 20),
            ("c3", "company", "name", 11, 12),
        ],
    )


def product_elements() -> Document:
    return annotated_document(
        "product-elements",
        [
            "Dunlop/NNP Sport/NNP M3/NNP winters/NNS",
            "Apple/NNP iPhone/NNP 6S/NNP",
            "VW/NNP Golf/NNP VII/NNP",
            "BMW/NNP i8/NNP",
            "McRib/NNP ®/SYM",
            "Nike/NNP Air/NNP Max/NNP 2016/CD running/VBG shoes/NNS",
            "2006/CD Ford/NNP Mustang/NNP GT/NNP Convertible/NNP 2-Door/NNP",
            "Samsung/NNP Galaxy/NNP S7/NNP 32/CD GB/NNP black/JJ",
        ],
        entities=[
            ("p1", "product", "name", 0, 4),
            ("c1", "company", "name", 0, 1),
            ("p2", "product", "name", 4, 7),
            ("c2", "company", "name", 4, 5),
            ("p3", "product", "name", 7, 10),
            ("c3", "company", "name", 7, 8),
            ("p4", "product", "name", 10, 12),
            ("c4", "company", "name", 10, 11),
            ("p5", "product", "name", 12, 14),
            ("p6", "product", "name", 14, 20),
            ("c5", "company", "name", 14, 15),
            ("p7", "product", "name", 20, 26),
            ("c6", "company", "name", 21, 22),
            ("p8", "product", "name", 26, 32),
            ("c7", "company", "name", 26, 27),
        ],
    )


def sensata_product_line() -> Document:
    return annotated_document(
        "sensata-product-line",
        ["Sensata/NNP Technologies/NNP 's/POS products/NNS include/VBP speed/NN sensors/NNS ,/, "
         "motor/NN protectors/NNS ,/, and/CC magnetic-hydraulic/JJ circuit/NN breakers/NNS ./."],
        entities=[
            ("c1", "company", "name", 0, 2),
            ("p1", "product", "nominal", 5, 7),
            ("p2", "product", "nominal", 8, 10),
            ("p3", "product", "nominal", 12, 15),
        ],
        relations=[("r1", "c1", ("p1", "p2", "p3"), (4, 5))],
    )


ALL_DOCUMENTS = (
    bmw_1series,
    honeywell_intuition,
    sensata_develops,
    amazon_vendor,
    smartphone_providers,
    parkifi_parking_data,
    sensata_holding,
    bmw_z3,
    apple_watch,
    is_international_services,
    fujifilm_biomedical,
    semiconductor_ip,
    wireless_led_controls,
    toyota_cruiser_forms,
    part_codes,
    sensor_attributes,
    mention_variety,
    product_elements,
    sensata_product_line,
)


def golden_corpus() -> Corpus:
    """The clean reference corpus: every shipped demonstration document."""
    from .corpus_io import SCHEMA_VERSION

    return Corpus(
        schema_version=SCHEMA_VERSION,
        documents=tuple(build() for build in ALL_DOCUMENTS),
    )
