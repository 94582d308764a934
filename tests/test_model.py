from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from promex.model import (
    EmptyProductList,
    EntityMention,
    EntityType,
    IdentityChain,
    InvariantViolation,
    MentionKind,
    NestingIndex,
    NonNameChainSource,
    NonPartitioningSentences,
    OffsetOutOfBounds,
    OverlappingTokens,
    Provenance,
    RelationMention,
    Span,
    SpanCrossesSentence,
    Token,
    attach_annotations,
    make_document,
)

from conftest import simple_tokens


def mention(mid, etype, start, end, kind=MentionKind.NAME):
    return EntityMention(mid, etype, Span(start, end), kind, Provenance.HUMAN)


class TestMakeDocument:
    def test_possessive_tokens(self):
        tokens = [
            Token("BMW", "NNP", 0, 3),
            Token("'s", "POS", 3, 5),
            Token("Z3", "NNP", 6, 8),
        ]
        doc = make_document("d1", "BMW's Z3", tokens, [(0, 3)])
        assert len(doc.tokens) == 3
        assert len(doc.sentences) == 1
        assert doc.entities == ()

    def test_empty_document(self):
        doc = make_document("d2", "", [], [])
        assert doc.tokens == ()
        assert doc.sentences == ()

    def test_offset_out_of_bounds(self):
        with pytest.raises(OffsetOutOfBounds) as exc:
            make_document("d3", "ab", [Token("abc", "NN", 0, 3)], [(0, 1)])
        assert exc.value.index == 0

    def test_overlapping_tokens(self):
        tokens = [Token("ab", "NN", 0, 2), Token("bc", "NN", 1, 3)]
        with pytest.raises(OverlappingTokens) as exc:
            make_document("d", "abc", tokens, [(0, 2)])
        assert exc.value.index == 1

    def test_text_mismatch_rejected(self):
        with pytest.raises(InvariantViolation):
            make_document("d", "xy", [Token("ab", "NN", 0, 2)], [(0, 1)])

    def test_non_partitioning_sentences(self):
        tokens = simple_tokens("a/NN b/NN c/NN")
        with pytest.raises(NonPartitioningSentences):
            make_document("d", "a b c", tokens, [(0, 2)])
        with pytest.raises(NonPartitioningSentences):
            make_document("d", "a b c", tokens, [(0, 2), (2, 2), (2, 3)])

    def test_sentence_index_lookup(self):
        tokens = simple_tokens("a/NN ./. b/NN ./.")
        doc = make_document("d", "a . b .", tokens, [(0, 2), (2, 4)])
        assert [doc.sentence_index(i) for i in range(4)] == [0, 0, 1, 1]
        assert doc.sentence_index(99) == -1


class TestAttachAnnotations:
    def build(self):
        tokens = simple_tokens("Acme/NNP makes/VBZ widgets/NNS ./. It/PRP ships/VBZ them/PRP ./.")
        return make_document("d", "Acme makes widgets . It ships them .", tokens, [(0, 4), (4, 8)])

    def test_cross_sentence_relation_rejected(self):
        doc = self.build()
        entities = [
            mention("c", EntityType.COMPANY, 0, 1),
            mention("p", EntityType.PRODUCT, 6, 7, MentionKind.PRONOMINAL),
        ]
        rel = RelationMention("r", "c", ("p",), None, Provenance.HUMAN)
        with pytest.raises(SpanCrossesSentence):
            attach_annotations(doc, entities, [rel])

    def test_pronominal_chain_source_rejected(self):
        doc = self.build()
        entities = [
            mention("c", EntityType.COMPANY, 0, 1),
            mention("it", EntityType.COMPANY, 4, 5, MentionKind.PRONOMINAL),
        ]
        chain = IdentityChain("ch", "it", ("c",))
        with pytest.raises(NonNameChainSource):
            attach_annotations(doc, entities, chains=[chain])

    def test_empty_product_list_rejected(self):
        doc = self.build()
        entities = [mention("c", EntityType.COMPANY, 0, 1)]
        rel = RelationMention("r", "c", (), None, Provenance.HUMAN)
        with pytest.raises(EmptyProductList):
            attach_annotations(doc, entities, [rel])

    def test_product_without_noun_rejected(self):
        doc = self.build()
        entities = [mention("p", EntityType.PRODUCT, 1, 2, MentionKind.NOMINAL)]
        with pytest.raises(InvariantViolation):
            attach_annotations(doc, entities)

    def test_entity_crossing_sentence_rejected(self):
        doc = self.build()
        with pytest.raises(SpanCrossesSentence):
            attach_annotations(doc, [mention("p", EntityType.PRODUCT, 2, 5)])

    def test_inverted_spans_rejected(self):
        doc = self.build()
        with pytest.raises(InvariantViolation):
            attach_annotations(doc, [mention("c", EntityType.COMPANY, 2, 1)])
        entities = [mention("c", EntityType.COMPANY, 0, 1), mention("p", EntityType.PRODUCT, 2, 3)]
        rel = RelationMention("r", "c", ("p",), Span(2, 1), Provenance.HUMAN)
        with pytest.raises(InvariantViolation):
            attach_annotations(doc, entities, [rel])

    def test_crossing_overlap_rejected(self):
        doc = self.build()
        entities = [
            mention("a", EntityType.PRODUCT, 0, 3),
            mention("b", EntityType.COMPANY, 2, 4),
        ]
        with pytest.raises(InvariantViolation):
            attach_annotations(doc, entities)

    def test_pairwise_crossing_names_a_crossing_pair(self):
        tokens = simple_tokens("Acme/NNP makes/VBZ big/JJ red/JJ widgets/NNS ./.")
        doc = make_document("d", "Acme makes big red widgets .", tokens, [(0, 6)])
        # every two of these cross; ids run against span order
        entities = [
            mention("z", EntityType.COMPANY, 0, 3),
            mention("y", EntityType.COMPANY, 1, 4),
            mention("x", EntityType.COMPANY, 2, 5),
        ]
        with pytest.raises(InvariantViolation) as exc:
            attach_annotations(doc, entities)
        named = re.findall(r"'([^']*)'", str(exc.value))
        assert len(named) == 2 and named[0] < named[1]
        by_id = {e.mention_id: e for e in entities}
        assert by_id[named[0]].span.crosses(by_id[named[1]].span)

    def test_nested_company_in_product_accepted(self):
        doc = self.build()
        entities = [
            mention("outer", EntityType.PRODUCT, 0, 3),
            mention("inner", EntityType.COMPANY, 0, 1),
        ]
        annotated = attach_annotations(doc, entities)
        assert len(annotated.entities) == 2

    def test_chain_double_membership_rejected(self):
        doc = self.build()
        from promex.model import DuplicateChainMembership

        entities = [
            mention("a", EntityType.COMPANY, 0, 1),
            mention("b", EntityType.COMPANY, 1, 2),
            mention("c", EntityType.COMPANY, 2, 3),
        ]
        chains = [IdentityChain("ch1", "a", ("b",)), IdentityChain("ch2", "c", ("b",))]
        with pytest.raises(DuplicateChainMembership):
            attach_annotations(doc, entities, chains=chains)


spans = st.builds(
    lambda a, b: Span(min(a, b), max(a, b) + 1),
    st.integers(0, 30),
    st.integers(0, 30),
)


class TestSpanAlgebra:
    @given(spans, spans)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(spans, spans)
    def test_containment_antisymmetric(self, a, b):
        if a.contains(b) and b.contains(a):
            assert a == b

    @given(spans, spans)
    def test_crossing_excludes_containment(self, a, b):
        if a.crosses(b):
            assert a.overlaps(b)
            assert not a.contains(b) and not b.contains(a)

    @given(st.lists(spans, max_size=12), spans)
    def test_nesting_index_agrees_with_pairwise_crossing(self, kept, span):
        # the kept spans may cross each other too; each query stays exact
        index = NestingIndex(kept[:6])
        for other in kept[6:]:
            index.add(other)
        assert index.crosses(span) == any(span.crosses(other) for other in kept)

    def test_structural_equality(self):
        assert Span(1, 3) == Span(1, 3)
        t1 = Token("x", "NN", 0, 1)
        t2 = Token("x", "NN", 0, 1)
        assert t1 == t2
