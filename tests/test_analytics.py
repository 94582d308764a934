from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from promex.analytics import (
    AgreementScores,
    CorpusStats,
    EmptyCorpus,
    TokenizationMismatch,
    agreement,
    mean_string,
    pattern_yield,
    stats,
)
from promex.examples import annotated_document, tagged_document
from promex.model import Corpus, Provenance, RelationMention, Span

from conftest import table3_scale_corpus


REFERENCE_TOTALS = CorpusStats(
    documents=152, sentences=4001, words=131929,
    companies=2191, products=1717, relations=379,
)


class TestStats:
    def test_reference_means(self):
        assert REFERENCE_TOTALS.means() == {
            "sentences": "26.3",
            "words": "868.0",
            "companies": "14.4",
            "products": "11.3",
            "relations": "2.5",
        }

    def test_reference_corpus_recomputes_totals(self):
        corpus = table3_scale_corpus()
        got = stats(corpus)
        assert got == REFERENCE_TOTALS

    def test_single_empty_document(self):
        corpus = Corpus("1.0", (tagged_document("d", []),))
        got = stats(corpus)
        assert (got.documents, got.sentences, got.words) == (1, 0, 0)
        assert (got.companies, got.products, got.relations) == (0, 0, 0)
        assert set(got.means().values()) == {"0.0"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            stats(Corpus("1.0", ()))

    def test_punctuation_not_counted_as_words(self):
        doc = tagged_document("d", ["wait/VB ,/, stop/VB ./."])
        got = stats(Corpus("1.0", (doc,)))
        assert got.words == 2

    def test_half_up_rounding(self):
        assert mean_string(5, 2) == "2.5"
        assert mean_string(25, 100) == "0.3"   # 0.25 rounds up, not to even
        assert mean_string(868, 1) == "868.0"

    def test_totals_additive_under_concatenation(self):
        docs = table3_scale_corpus().documents
        first, second = docs[:50], docs[50:]
        merged = stats(Corpus("1.0", docs))
        a = stats(Corpus("1.0", first))
        b = stats(Corpus("1.0", second))
        assert merged.sentences == a.sentences + b.sentences
        assert merged.words == a.words + b.words
        assert merged.relations == a.relations + b.relations

    def test_render_table_mean_column(self):
        table = REFERENCE_TOTALS.render_table()
        for expected in ("26.3", "868.0", "14.4", "11.3", "2.5"):
            assert expected in table
        assert "# CompanyProvidesProduct" in table


def layer(doc_id, product_spans, company_spans=(), relations=()):
    sentences = ["w0/NN w1/NN w2/NN w3/NN w4/NN w5/NN w6/NN w7/NN"]
    entities = []
    for i, (s, e) in enumerate(product_spans):
        entities.append((f"p{i}", "product", "nominal", s, e))
    for i, (s, e) in enumerate(company_spans):
        entities.append((f"c{i}", "company", "name", s, e))
    return annotated_document(doc_id, sentences, entities=entities, relations=list(relations))


class TestAgreement:
    def test_identical_layers_are_perfect(self):
        a = layer("d", [(0, 2), (3, 4)], [(5, 6)])
        scores = agreement([a], [a])
        assert scores.token_kappa == {"Company": 1.0, "Product": 1.0}
        assert scores.mention_f1 == {"Company": 1.0, "Product": 1.0}
        assert scores.relation_f1 == 1.0

    def test_disjoint_mentions_score_zero(self):
        a = layer("d", [(0, 2)])
        b = layer("d", [(3, 4)])
        scores = agreement([a], [b])
        assert scores.mention_f1["Product"] == 0.0

    def test_partial_overlap_f1(self):
        a = layer("d", [(0, 1), (2, 3), (4, 5)])
        b = layer("d", [(0, 1), (2, 3), (6, 7)])
        scores = agreement([a], [b])
        assert scores.mention_f1["Product"] == pytest.approx(0.667, abs=1e-3)

    def test_symmetry(self):
        a = layer("d", [(0, 1), (2, 3), (4, 5)])
        b = layer("d", [(0, 1), (2, 3), (6, 7)])
        ab, ba = agreement([a], [b]), agreement([b], [a])
        assert ab.mention_f1 == ba.mention_f1
        assert ab.token_kappa == ba.token_kappa

    def test_kappa_bounds(self):
        a = layer("d", [(0, 4)])
        b = layer("d", [(3, 7)])
        scores = agreement([a], [b])
        for value in scores.token_kappa.values():
            assert -1.0 <= value <= 1.0

    def test_relation_trigger_compared_only_when_present(self):
        rel_with = [("r1", "c0", ("p0",), (1, 2))]
        rel_without = [("r1", "c0", ("p0",), None)]
        a = layer("d", [(0, 1)], [(3, 4)], rel_with)
        b = layer("d", [(0, 1)], [(3, 4)], rel_without)
        assert agreement([a], [b]).relation_f1 == 1.0
        c = layer("d", [(0, 1)], [(3, 4)], [("r1", "c0", ("p0",), (5, 6))])
        assert agreement([a], [c]).relation_f1 == 0.0

    def test_tokenization_mismatch(self):
        a = layer("d", [(0, 1)])
        b = annotated_document("d", ["x0/NN x1/NN"], entities=[])
        with pytest.raises(TokenizationMismatch):
            agreement([a], [b])

    def test_document_set_mismatch(self):
        a = layer("d1", [(0, 1)])
        b = layer("d2", [(0, 1)])
        with pytest.raises(TokenizationMismatch):
            agreement([a], [b])

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2)), max_size=3))
    def test_self_agreement_always_perfect(self, raw_spans):
        spans = []
        taken = set()
        for start, width in raw_spans:
            span = (start, min(start + width, 8))
            if any(s < span[1] and span[0] < e for s, e in taken):
                continue
            taken.add(span)
            spans.append(span)
        doc = layer("d", spans)
        scores = agreement([doc], [doc])
        assert set(scores.token_kappa.values()) == {1.0}
        assert set(scores.mention_f1.values()) == {1.0}


def rel(rid, pattern_id, company="c", products=("p",), trigger=None):
    return RelationMention(rid, company, tuple(products), trigger, Provenance.PRE_ANNOTATION, pattern_id)


class TestPatternYield:
    def test_simple_counts(self):
        matches = [
            ("d", rel("r1", "P3", trigger=Span(1, 2))),
            ("d", rel("r2", "P3", trigger=Span(4, 5))),
        ]
        result = pattern_yield(relations=matches)
        assert result.rows == (("P3", 2, 2),)
        assert result.total_raw == 2

    def test_empty(self):
        result = pattern_yield(relations=[])
        assert result.rows == ()
        assert result.total_raw == 0 and result.total_dedup == 0

    def test_neither_corpus_nor_relations_rejected(self):
        with pytest.raises(ValueError):
            pattern_yield()

    def test_cross_pattern_duplicate_dedups(self):
        duplicated = [
            ("d", rel("r1", "Pa", trigger=Span(1, 2))),
            ("d", rel("r2", "Pb", trigger=Span(1, 2))),
        ]
        result = pattern_yield(relations=duplicated)
        assert result.total_raw == 2
        assert result.total_dedup == 1
        assert result.total_dedup == sum(d for _, _, d in result.rows)

    def test_from_corpus(self, golden):
        result = pattern_yield(corpus=golden)
        assert result.total_raw == sum(len(d.relations) for d in golden.documents)

    def test_render_contains_totals(self):
        out = pattern_yield(relations=[("d", rel("r1", "P3"))]).render()
        assert "total" in out and "P3" in out


class TestRender:
    def test_agreement_render(self):
        scores = AgreementScores(
            token_kappa={"Company": 1.0, "Product": 0.5},
            mention_f1={"Company": 1.0, "Product": 0.667},
            relation_f1=0.25,
        )
        out = scores.render()
        assert "token_kappa_product\t0.500" in out
        assert "relation_f1\t0.250" in out
