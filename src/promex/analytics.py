"""Corpus statistics and inter-annotator agreement.

Statistics are exact integer totals with per-document means rounded
half-up to one decimal.  Agreement between two annotation layers of the
same text is measured as token-level Cohen's kappa per entity type,
exact-span mention F1 per entity type, and relation F1 over
(company span, product span set, trigger) triples.  Each agreement score
comes from integer counts summed over the documents: kappa from the 2x2
table of tokens inside a mention in either layer, F1 from the sizes of the
two layers' mention or relation sets and of their match.
Both sum their counts as the documents are read; `agreement` pairs the
layers' documents by doc_id, holding only those whose partner is unread.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from itertools import zip_longest
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .model import Corpus, Document, EntityType, RelationMention, Span, is_word


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
    def from_corpus(cls, corpus: Corpus | Iterable[Document]) -> "CorpusStats":
        totals, types, texts = Counter(), Counter(), Counter()
        for doc in getattr(corpus, "documents", corpus):
            totals.update(documents=1, sentences=len(doc.sentences), relations=len(doc.relations))
            types.update(e.entity_type for e in doc.entities)
            texts.update(doc.texts)
        if not totals:
            raise EmptyCorpus("corpus contains no documents")
        # a corpus repeats few distinct token texts: each is tested once
        words = sum(count for text, count in texts.items() if is_word(text))
        return cls(**totals, words=words, companies=types[EntityType.COMPANY], products=types[EntityType.PRODUCT])

    def means(self) -> dict[str, str]:
        """Per-document means for every non-document row."""
        return {
            key: mean_string(getattr(self, key), self.documents)
            for key, _ in STAT_ROWS
            if key != "documents"
        }

    def render_table(self) -> str:
        means = self.means()
        label_width = max(len(label) for _, label in STAT_ROWS)
        lines = [f"{'':{label_width}}  {'Total':>8}  {'Mean':>8}"]
        for key, label in STAT_ROWS:
            mean = means.get(key, "-")
            lines.append(f"{label:<{label_width}}  {getattr(self, key):>8}  {mean:>8}")
        return "\n".join(lines)

    def render_kv(self) -> str:
        means = self.means()
        lines = [f"{key}_total\t{getattr(self, key)}" for key, _ in STAT_ROWS]
        lines += [f"{key}_mean\t{means[key]}" for key, _ in STAT_ROWS if key != "documents"]
        return "\n".join(lines)


def stats(corpus: Corpus | Iterable[Document]) -> CorpusStats:
    return CorpusStats.from_corpus(corpus)


# ---------------------------------------------------------------------------
# Agreement

@dataclass(frozen=True)
class AgreementScores:
    token_kappa: dict[str, float]
    mention_f1: dict[str, float]
    relation_f1: float

    def render(self) -> str:
        lines = [f"token_kappa_{t.lower()}\t{self.token_kappa[t]:.3f}" for t in sorted(self.token_kappa)]
        lines += [f"mention_f1_{t.lower()}\t{self.mention_f1[t]:.3f}" for t in sorted(self.mention_f1)]
        lines.append(f"relation_f1\t{self.relation_f1:.3f}")
        return "\n".join(lines)


def _kappa(tokens: int, in_a: int, in_b: int, in_both: int) -> float:
    """Cohen's kappa over `tokens` tokens: `in_a` inside a mention of layer a,
    `in_b` inside one of layer b, `in_both` inside one of each."""
    if not tokens:
        return 1.0
    observed = (tokens - in_a - in_b + 2 * in_both) / tokens
    pa, pb = in_a / tokens, in_b / tokens
    expected = pa * pb + (1 - pa) * (1 - pb)
    if expected >= 1.0 - 1e-12:
        # both layers single-class: perfect agreement by definition
        return 1.0 if observed >= 1.0 - 1e-12 else 0.0
    return (observed - expected) / (1 - expected)


def _f1(in_a: int, in_b: int, in_both: int) -> float:
    """F1 of `a` against `b`, given the sizes of `a`, `b` and their match."""
    if not in_a and not in_b:
        return 1.0
    if in_both == 0:
        return 0.0
    precision = in_both / in_a
    recall = in_both / in_b
    return 2 * precision * recall / (precision + recall)


def _covered(spans: Iterable[Span]) -> int:
    """How many positions lie inside one of `spans` or more: one sweep over them in order."""
    total = reach = 0
    for span in sorted(spans, key=attrgetter("start")):
        if span.end > reach:
            total += span.end - (span.start if span.start > reach else reach)
            reach = span.end
    return total


def _add(counts: list[int], *values: int) -> None:
    for i, value in enumerate(values):
        counts[i] += value


def _relations(doc: Document) -> dict[tuple, list[Span | None]]:
    """Triggers by (company span, product span set) in document order, unknown mentions left out."""
    span_of = {e.mention_id: e.span for e in doc.entities}
    keyed: dict[tuple, list[Span | None]] = {}
    for rel in doc.relations:
        spans = [span_of.get(m) for m in (rel.company, *rel.products)]
        if None not in spans:
            keyed.setdefault((spans[0], frozenset(spans[1:])), []).append(rel.trigger or None)
    return keyed


def _pairs(layer_a: Iterable[Document], layer_b: Iterable[Document]) -> Iterator[tuple[Document, Document]]:
    """Each document of `layer_a` with the one of `layer_b` of its doc_id, read from both in turn:
    a document waits until its partner is read.  TokenizationMismatch if one has none."""
    waiting: tuple[dict[str, Document], dict[str, Document]] = ({}, {})
    for docs in zip_longest(layer_a, layer_b):
        for side, doc in enumerate(docs):
            if doc is not None:
                if (partner := waiting[1 - side].pop(doc.doc_id, None)) is None:
                    waiting[side][doc.doc_id] = doc
                else:
                    yield (partner, doc) if side else (doc, partner)
    if any(waiting):
        raise TokenizationMismatch("the two layers cover different documents")


def agreement(
    annotations_a: Corpus | Iterable[Document],
    annotations_b: Corpus | Iterable[Document],
) -> AgreementScores:
    """Compare two annotation layers over identical token sequences, reading each once.  Of the
    documents tokenized differently, TokenizationMismatch names the smallest doc_id."""
    tokens = 0
    # [in a, in b, in both] per entity type over token positions and over
    # mention spans, and over relations
    covered = {t.value: [0, 0, 0] for t in EntityType}
    mentions = {t.value: [0, 0, 0] for t in EntityType}
    relations = [0, 0, 0]
    mismatched: list[str] = []
    for a, b in _pairs(getattr(annotations_a, "documents", annotations_a),
                       getattr(annotations_b, "documents", annotations_b)):
        if a.texts != b.texts:
            mismatched.append(a.doc_id)
            continue
        tokens += len(a.texts)
        for etype in EntityType:
            spans_a = {m.span for m in a.entities if m.entity_type is etype}
            spans_b = {m.span for m in b.entities if m.entity_type is etype}
            _add(mentions[etype.value], len(spans_a), len(spans_b), len(spans_a & spans_b))
            in_a, in_b = _covered(spans_a), _covered(spans_b)
            _add(covered[etype.value], in_a, in_b, in_a + in_b - _covered([*spans_a, *spans_b]))
        # relations match on arguments; triggers are compared only when both
        # sides have one.  Each relation of `a` takes the first unmatched one
        # of `b` with the same arguments.
        rels_a, rels_b = _relations(a), _relations(b)
        relations[0] += sum(map(len, rels_a.values()))
        relations[1] += sum(map(len, rels_b.values()))
        for key, triggers in rels_a.items():
            unmatched = rels_b.get(key, [])
            for trigger in triggers:
                for j, trigger_b in enumerate(unmatched):
                    if trigger is None or trigger_b is None or trigger == trigger_b:
                        del unmatched[j]
                        relations[2] += 1
                        break
    if mismatched:
        raise TokenizationMismatch(f"document {min(mismatched)!r} is tokenized differently")

    return AgreementScores(
        token_kappa={t: _kappa(tokens, *counts) for t, counts in covered.items()},
        mention_f1={t: _f1(*counts) for t, counts in mentions.items()},
        relation_f1=_f1(*relations),
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
        relations = [(doc.doc_id, rel) for doc in corpus.documents for rel in doc.relations]

    raw_counts: Counter[str] = Counter()
    first: dict[tuple, str] = {}
    for doc_id, rel in relations:
        pattern_id = rel.pattern_id or "(unpatterned)"
        raw_counts[pattern_id] += 1
        first.setdefault((doc_id, rel.key), pattern_id)
    dedup_counts = Counter(first.values())
    return PatternYield(rows=tuple((p, raw_counts[p], dedup_counts[p]) for p in sorted(raw_counts)))
