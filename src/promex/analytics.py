"""Corpus statistics and inter-annotator agreement.

Statistics are exact integer totals with per-document means rounded
half-up to one decimal.  Agreement between two annotation layers of the
same text is measured as token-level Cohen's kappa per entity type,
exact-span mention F1 per entity type, and relation F1 over
(company span, product span set, trigger) triples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from typing import Sequence

from .model import Corpus, Document, EntityMention, EntityType, RelationMention, is_word


class EmptyCorpus(ValueError):
    pass


class TokenizationMismatch(ValueError):
    pass


STAT_ROWS: tuple[tuple[str, str], ...] = (
    ("documents", "# Documents"),
    ("sentences", "# Sentences"),
    ("words", "# Words"),
    ("companies", "# Companies"),
    ("products", "# Products"),
    ("relations", "# CompanyProvidesProduct"),
)


def mean_string(total: int, documents: int) -> str:
    """total / documents, rounded half-up to one decimal, as a string."""
    if documents < 1:
        raise EmptyCorpus("means are undefined for an empty corpus")
    value = (Decimal(total) / Decimal(documents)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return str(value)


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    sentences: int
    words: int
    companies: int
    products: int
    relations: int

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "CorpusStats":
        if not corpus.documents:
            raise EmptyCorpus("corpus contains no documents")
        types = Counter(e.entity_type for d in corpus.documents for e in d.entities)
        return cls(
            documents=len(corpus.documents),
            sentences=sum(len(d.sentences) for d in corpus.documents),
            words=sum(1 for d in corpus.documents for t in d.tokens if is_word(t.text)),
            companies=types[EntityType.COMPANY],
            products=types[EntityType.PRODUCT],
            relations=sum(len(d.relations) for d in corpus.documents),
        )

    def total(self, key: str) -> int:
        return int(getattr(self, key))

    def means(self) -> dict[str, str]:
        """Per-document means for every non-document row."""
        return {
            key: mean_string(self.total(key), self.documents)
            for key, _ in STAT_ROWS
            if key != "documents"
        }

    def render_table(self) -> str:
        means = self.means()
        label_width = max(len(label) for _, label in STAT_ROWS)
        lines = [f"{'':{label_width}}  {'Total':>8}  {'Mean':>8}"]
        for key, label in STAT_ROWS:
            mean = means.get(key, "-")
            lines.append(f"{label:<{label_width}}  {self.total(key):>8}  {mean:>8}")
        return "\n".join(lines)

    def render_kv(self) -> str:
        means = self.means()
        lines = [f"{key}_total\t{self.total(key)}" for key, _ in STAT_ROWS]
        lines += [f"{key}_mean\t{means[key]}" for key, _ in STAT_ROWS if key != "documents"]
        return "\n".join(lines)


def stats(corpus: Corpus) -> CorpusStats:
    return CorpusStats.from_corpus(corpus)


# ---------------------------------------------------------------------------
# Agreement

@dataclass(frozen=True)
class AgreementScores:
    token_kappa: dict[str, float]
    mention_f1: dict[str, float]
    relation_f1: float

    def render(self) -> str:
        lines = []
        for etype in sorted(self.token_kappa):
            lines.append(f"token_kappa_{etype.lower()}\t{self.token_kappa[etype]:.3f}")
        for etype in sorted(self.mention_f1):
            lines.append(f"mention_f1_{etype.lower()}\t{self.mention_f1[etype]:.3f}")
        lines.append(f"relation_f1\t{self.relation_f1:.3f}")
        return "\n".join(lines)


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


def _relation_key(by_id: dict[str, EntityMention], rel: RelationMention) -> tuple | None:
    company = by_id.get(rel.company)
    products = [by_id.get(p) for p in rel.products]
    if company is None or any(p is None for p in products):
        return None
    return (
        (company.span.start, company.span.end),
        frozenset((p.span.start, p.span.end) for p in products),  # type: ignore[union-attr]
    )


def agreement(
    annotations_a: Corpus | Sequence[Document],
    annotations_b: Corpus | Sequence[Document],
) -> AgreementScores:
    """Compare two annotation layers over identical token sequences."""
    docs_a = {d.doc_id: d for d in _as_documents(annotations_a)}
    docs_b = {d.doc_id: d for d in _as_documents(annotations_b)}
    if set(docs_a) != set(docs_b):
        raise TokenizationMismatch("the two layers cover different documents")

    token_pairs: dict[str, list[tuple[bool, bool]]] = {t.value: [] for t in EntityType}
    mentions_a: dict[str, set] = {t.value: set() for t in EntityType}
    mentions_b: dict[str, set] = {t.value: set() for t in EntityType}
    # (doc_id, relation key, trigger) per relation, in document order
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
            by_id = {e.mention_id: e for e in doc.entities}
            for rel in doc.relations:
                key = _relation_key(by_id, rel)
                if key is not None:
                    trigger = (
                        (rel.trigger.start, rel.trigger.end) if rel.trigger else None
                    )
                    bucket.append((doc_id, key, trigger))

    # relations match on arguments; triggers are compared only when both
    # sides have one.  Each relation of `a` takes the first unmatched one
    # of `b` with the same arguments, so unmatched ones are kept in order.
    unmatched_b: dict[tuple, list[tuple | None]] = {}
    for doc_id, key, trigger in rels_b:
        unmatched_b.setdefault((doc_id, key), []).append(trigger)
    tp = 0
    for doc_id, key, trigger in rels_a:
        candidates = unmatched_b.get((doc_id, key), [])
        for j, trigger_b in enumerate(candidates):
            if trigger is not None and trigger_b is not None and trigger != trigger_b:
                continue
            del candidates[j]
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
        mention_f1={
            t: _f1(mentions_a[t], mentions_b[t]) for t in mentions_a
        },
        relation_f1=relation_f1,
    )


# ---------------------------------------------------------------------------
# Pattern yield

@dataclass(frozen=True)
class PatternYield:
    rows: tuple[tuple[str, int, int], ...]  # (pattern_id, raw, dedup)

    @property
    def total_raw(self) -> int:
        return sum(raw for _, raw, _ in self.rows)

    @property
    def total_dedup(self) -> int:
        return sum(dedup for _, _, dedup in self.rows)

    def render(self) -> str:
        width = max([len("pattern")] + [len(p) for p, _, _ in self.rows])
        lines = [f"{'pattern':<{width}}  {'raw':>6}  {'dedup':>6}"]
        for pattern_id, raw, dedup in self.rows:
            lines.append(f"{pattern_id:<{width}}  {raw:>6}  {dedup:>6}")
        lines.append(f"{'total':<{width}}  {self.total_raw:>6}  {self.total_dedup:>6}")
        return "\n".join(lines)


def pattern_yield(
    corpus: Corpus | None = None,
    relations: Sequence[tuple[str, RelationMention]] | None = None,
) -> PatternYield:
    """Raw and deduplicated match counts per pattern id.

    `relations` is a sequence of (doc_id, relation) pairs; when omitted the
    relations of `corpus` are used.  A relation `key` within a document
    counts towards the dedup column of the first pattern producing it, so
    the totals row is always the sum of the per-pattern rows.
    """
    if relations is None:
        if corpus is None:
            raise ValueError("either corpus or relations must be given")
        relations = [
            (doc.doc_id, rel) for doc in corpus.documents for rel in doc.relations
        ]

    raw_counts: dict[str, int] = {}
    dedup_counts: dict[str, int] = {}
    seen: set[tuple] = set()
    for doc_id, rel in relations:
        pattern_id = rel.pattern_id or "(unpatterned)"
        raw_counts[pattern_id] = raw_counts.get(pattern_id, 0) + 1
        dedup_counts.setdefault(pattern_id, 0)
        key = (doc_id, rel.key)
        if key not in seen:
            seen.add(key)
            dedup_counts[pattern_id] += 1
    rows = tuple(
        (pattern_id, raw_counts[pattern_id], dedup_counts[pattern_id])
        for pattern_id in sorted(raw_counts)
    )
    return PatternYield(rows=rows)
