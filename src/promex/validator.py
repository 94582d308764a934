"""Guideline validation for annotated documents.

Checks the machine-decidable subset of the annotation rules and emits a
deterministic violation report.  Semantic judgements that belong to human
annotators (distinctive vs. filler adjectives, apposition detection) are
approximated by stoplist/POS heuristics and reported as warnings only.

Rule registry:
    V1  product extent starts/ends with a function word or comma
    V2  possessive clitic follows a company mention inside a product extent
    V3  relation argument or trigger outside the company's sentence
    V4  malformed identity chain: unknown or non-Name source, no targets,
        or a member that names no mention or sits in two chains
    V5  product token sequence left unannotated elsewhere in the document
    V6  identity-linked company mentions carry duplicate relations
    V7  product extent contains no noun token
    V8  product extent starts with a stoplisted adjective
    V9  relation without products, with an argument that is not a mention
        of its type, or with a malformed trigger

V1, V2, V7 and V8 share one walk of the product extents; V3, V9 and V6
share one walk of the relations, after which V4 reads the chains.  V3,
V4 and V9 report the faults of `model.relation_faults` and
`model.chain_faults`.  `attach_annotations` raises the first of them and
every reader calls it, so a document read from a file has none.

Costs.  V1-V4 and V7-V9 read each mention, relation or chain once, V2
through a bisect index of the companies.  V7, like `model._check_entity`,
reads each product extent token by token, so `validate` grows with the
total width of the extents: quadratic in document length when nested
products grow with the sentence.  Pre-annotating `Intel developing` x k
`chips .` gives such products: on a shared 2-vCPU host, 0.005, 0.014 and
0.086 s at 502, 1,002 and 2,002 tokens.  V5 costs the products' total
width, for their token tuples, and at each position whose word begins a
product sequence, the widths of those sequences that no product covers
there.  V6 compares pairwise the chained relations that share products
and a trigger.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .model import (
    Document,
    EntityMention,
    EntityType,
    NOUN_TAGS,
    RelationMention,
    Span,
    SpanCrossesSentence,
    TRADEMARK_TEXTS,
    chain_faults,
    relation_faults,
)

BAD_BOUNDARY_TAGS = frozenset({"DT", "IN", "WDT", "WP", "CC"})

DEFAULT_STOPLIST = frozenset({"advanced", "new", "innovative", "leading"})


class Severity(str, Enum):
    ERROR = "Error"
    WARNING = "Warning"


class UnknownFormat(ValueError):
    def __init__(self, fmt: str) -> None:
        super().__init__(f"unknown report format {fmt!r}")
        self.format = fmt


@dataclass(frozen=True)
class Violation:
    rule_id: str
    severity: Severity
    doc_id: str
    target_id: str
    span: Span
    message: str


def _extent_rules(
    doc: Document, products: list[EntityMention], companies: list[EntityMention], stoplist: frozenset[str]
) -> Iterable[Violation]:
    """V1, V2, V7 and V8 of each product extent."""
    # a company inside a product starts inside it: look only at those
    by_start = sorted(companies, key=lambda c: c.span.start)
    starts = [c.span.start for c in by_start]
    for m in products:
        span = m.span
        first, first_pos = doc.texts[span.start], doc.tags[span.start]
        if first_pos in BAD_BOUNDARY_TAGS or first == ",":
            yield Violation(
                "V1", Severity.ERROR, doc.doc_id, m.mention_id, span,
                f"product extent starts with {first!r}/{first_pos}",
            )
        last, last_pos = doc.texts[span.end - 1], doc.tags[span.end - 1]
        if last not in TRADEMARK_TEXTS and (last_pos in BAD_BOUNDARY_TAGS or last == ","):
            yield Violation(
                "V1", Severity.ERROR, doc.doc_id, m.mention_id, span,
                f"product extent ends with {last!r}/{last_pos}",
            )
        # a company starting inside the extent and ending before its last token lies within it
        lo, hi = bisect.bisect_left(starts, span.start), bisect.bisect_left(starts, span.end)
        for company in by_start[lo:hi]:
            if company.span.end < span.end and doc.tags[company.span.end] == "POS":
                yield Violation(
                    "V2", Severity.ERROR, doc.doc_id, m.mention_id, span,
                    "company mention inside a product extent carries a possessive marker",
                )
        if NOUN_TAGS.isdisjoint(doc.tags[span.start:span.end]):
            yield Violation(
                "V7", Severity.ERROR, doc.doc_id, m.mention_id, span,
                "product extent contains no noun token",
            )
        if (word := first.lower()) in stoplist:
            yield Violation(
                "V8", Severity.WARNING, doc.doc_id, m.mention_id, span,
                f"product extent starts with non-distinctive adjective {word!r}",
            )


def _relation_rules(doc: Document, by_id: dict[str, EntityMention]) -> Iterable[Violation]:
    """V3, V9 and V6 of each relation, then V4 of each chain."""
    # the positions of the chains that list each mention
    chains_of: dict[str, set[int]] = {}
    for i, chain in enumerate(doc.chains):
        for mid in (chain.source, *chain.targets):
            chains_of.setdefault(mid, set()).add(i)
    # only chained relations with the same products and trigger can duplicate each other
    earlier: dict[tuple, list[RelationMention]] = {}
    for rel in doc.relations:
        anchor = by_id.get(rel.company)
        span = anchor.span if anchor else Span(0, 1)
        for fault in relation_faults(doc, rel, by_id):
            rule = "V3" if isinstance(fault, SpanCrossesSentence) else "V9"
            yield Violation(rule, Severity.ERROR, doc.doc_id, rel.relation_id, span, str(fault))
        if chains := chains_of.get(rel.company):
            group = earlier.setdefault((rel.products, rel.trigger), [])
            for other in group:  # in document order: two faults of `rel` tie on the sort key
                if rel.company != other.company and not chains.isdisjoint(chains_of[other.company]):
                    yield Violation(
                        "V6", Severity.ERROR, doc.doc_id, rel.relation_id, span,
                        f"identity-linked company mentions both carry this relation (see {other.relation_id})",
                    )
            group.append(rel)
    for chain, fault in chain_faults(doc.chains, by_id):
        source = by_id.get(chain.source)
        span = source.span if source else Span(0, 1)
        yield Violation("V4", Severity.ERROR, doc.doc_id, chain.chain_id, span, str(fault))


def _v5_consistency(doc: Document, products: list[EntityMention]) -> Iterable[Violation]:
    if not products:
        return
    lowered = list(map(str.lower, doc.texts))
    n = len(lowered)
    sequences = {
        tuple(lowered[m.span.start:m.span.end]): m.mention_id for m in products
    }
    # reach[s]: the largest end of any product starting at or before s, so
    # some product contains [s, s + width) iff reach[s] >= s + width
    reach = [-1] * (n + 1)
    for m in products:
        reach[m.span.start] = max(reach[m.span.start], m.span.end)
    reach = list(itertools.accumulate(reach, max))
    # the distinct widths of the sequences each word begins, narrowest first
    widths: dict[str, list[int]] = {}
    for width, word in sorted({(len(seq), seq[0]) for seq in sequences}):
        widths.setdefault(word, []).append(width)
    for u, word in enumerate(lowered):
        if ws := widths.get(word):
            # the windows that reach[u] covers come first; the rest are uncovered
            for width in ws[bisect.bisect_right(ws, reach[u] - u):]:
                if u + width > n:
                    break
                if (seq := tuple(lowered[u:u + width])) in sequences:
                    yield Violation(
                        "V5", Severity.WARNING, doc.doc_id, sequences[seq], Span(u, u + width),
                        f"token sequence {' '.join(seq)!r} is annotated as a product elsewhere but not here",
                    )


def validate(doc: Document, stoplist: Iterable[str] = DEFAULT_STOPLIST) -> list[Violation]:
    """Run every registry rule over one document.

    Pure and idempotent; output is sorted by (document position, rule id).
    Precondition: every product mention's span is non-empty and lies within
    the document's tokens, as `attach_annotations` ensures; V1 and V8 read
    the tokens at its ends, and V5 the word at its start.
    """
    stop = frozenset(w.lower() for w in stoplist)
    by_id = {e.mention_id: e for e in doc.entities}
    products = [e for e in doc.entities if e.entity_type is EntityType.PRODUCT]
    companies = [e for e in doc.entities if e.entity_type is EntityType.COMPANY]
    violations = [
        *_extent_rules(doc, products, companies, stop),
        *_relation_rules(doc, by_id),
        *_v5_consistency(doc, products),
    ]
    # errors sort before warnings at the same document position
    violations.sort(
        key=lambda v: (v.span.start, v.span.end, v.severity is not Severity.ERROR, v.rule_id, v.target_id)
    )
    return violations


def validate_corpus(
    documents: Iterable[Document], stoplist: Iterable[str] = DEFAULT_STOPLIST
) -> list[Violation]:
    """The violations of each document, validated as it comes, in doc_id order."""
    violations = [v for doc in documents for v in validate(doc, stoplist)]
    violations.sort(key=lambda v: v.doc_id)  # stable: the violations of each document keep their order
    return violations


def report(violations: Sequence[Violation], fmt: str = "text") -> str:
    """Render violations as human-readable text or TAB-separated lines."""
    if fmt not in ("text", "tsv"):
        raise UnknownFormat(fmt)
    lines: list[str] = []
    for v in violations:
        span = f"[{v.span.start},{v.span.end})"
        if fmt == "tsv":
            lines.append("\t".join([v.doc_id, v.rule_id, v.severity.value, span, v.message]))
        else:
            lines.append(f"{v.doc_id} {span} {v.rule_id} {v.severity.value}: {v.message}")
    return "\n".join(lines)
