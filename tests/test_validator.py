from __future__ import annotations

from dataclasses import replace

import pytest

from promex.examples import annotated_document, tagged_document
from promex.model import (
    EntityMention,
    EntityType,
    IdentityChain,
    MentionKind,
    ModelError,
    Provenance,
    RelationMention,
    Span,
    attach_annotations,
)
from promex.validator import (
    DEFAULT_STOPLIST,
    Severity,
    UnknownFormat,
    Violation,
    report,
    validate,
    validate_corpus,
)


def rules(violations):
    return [v.rule_id for v in violations]


def human(mid, etype, start, end, kind=MentionKind.NOMINAL):
    return EntityMention(mid, etype, Span(start, end), kind, Provenance.HUMAN)


class TestRuleFixtures:
    def test_v1_leading_determiner(self):
        doc = annotated_document(
            "v1", ["the/DT sensors/NNS"],
            entities=[("p1", "product", "nominal", 0, 2)],
        )
        assert rules(validate(doc)) == ["V1"]

    def test_v1_trailing_trademark_exempt(self):
        doc = annotated_document(
            "v1b", ["McRib/NNP ®/SYM"],
            entities=[("p1", "product", "name", 0, 2)],
        )
        assert validate(doc) == []

    def test_v2_possessive_after_contained_company(self):
        doc = annotated_document(
            "v2", ["BMW/NNP 's/POS Z3/NNP"],
            entities=[
                ("p1", "product", "name", 0, 3),
                ("c1", "company", "name", 0, 1),
            ],
        )
        assert rules(validate(doc)) == ["V2"]

    def test_v2_silent_without_possessive(self):
        doc = annotated_document(
            "v2b", ["Apple/NNP Watch/NNP Series/NNP 2/CD"],
            entities=[
                ("p1", "product", "name", 0, 4),
                ("c1", "company", "name", 0, 1),
            ],
        )
        assert validate(doc) == []

    def test_v3_cross_sentence_relation(self):
        doc = tagged_document(
            "v3", ["Acme/NNP wins/VBZ ./.", "gadgets/NNS sell/VBP ./."]
        )
        bad = replace(
            doc,
            entities=(
                human("c1", EntityType.COMPANY, 0, 1, MentionKind.NAME),
                human("p1", EntityType.PRODUCT, 3, 4),
            ),
            relations=(
                RelationMention("r1", "c1", ("p1",), None, Provenance.HUMAN),
            ),
        )
        assert "V3" in rules(validate(bad))

    def test_v4_malformed_chain(self):
        doc = tagged_document("v4", ["It/PRP serves/VBZ Acme/NNP ./."])
        bad = replace(
            doc,
            entities=(
                human("it", EntityType.COMPANY, 0, 1, MentionKind.PRONOMINAL),
                human("c1", EntityType.COMPANY, 2, 3, MentionKind.NAME),
            ),
            chains=(IdentityChain("ch1", "it", ("c1",)),),
        )
        assert "V4" in rules(validate(bad))

    def test_v5_inconsistent_labelling(self):
        doc = annotated_document(
            "v5",
            [
                "Acme/NNP sells/VBZ smartphones/NNS ./.",
                "also/RB available/JJ ./.",
                "nothing/NN here/RB ./.",
                "smartphones/NNS everywhere/RB ./.",
            ],
            entities=[
                ("c1", "company", "name", 0, 1),
                ("p1", "product", "nominal", 2, 3),
            ],
        )
        found = [v for v in validate(doc) if v.rule_id == "V5"]
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert found[0].span == Span(10, 11)

    def test_v5_case_insensitive(self):
        doc = annotated_document(
            "v5b",
            ["Smartphones/NNS sell/VBP ./.", "smartphones/NNS everywhere/RB ./."],
            entities=[("p1", "product", "nominal", 0, 1)],
        )
        assert "V5" in rules(validate(doc))

    def test_v6_identity_linked_duplicate_relations(self):
        doc = annotated_document(
            "v6",
            ["Acme/NNP International/NNP (/( AI/NNP )/) provides/VBZ tools/NNS"],
            entities=[
                ("c1", "company", "name", 0, 2),
                ("c2", "company", "name", 3, 4),
                ("p1", "product", "nominal", 6, 7),
            ],
            relations=[
                ("r1", "c1", ("p1",), (5, 6)),
                ("r2", "c2", ("p1",), (5, 6)),
            ],
            chains=[("ch1", "c1", ("c2",))],
        )
        assert "V6" in rules(validate(doc))

    def test_v7_product_without_noun(self):
        doc = annotated_document(
            "v7", ["Acme/NNP sells/VBZ it/PRP ./."],
            entities=[("p1", "product", "pronominal", 2, 3)],
        )
        assert rules(validate(doc)) == ["V7"]

    def test_v8_stoplisted_adjective(self):
        doc = annotated_document(
            "v8", ["advanced/JJ sensors/NNS"],
            entities=[("p1", "product", "nominal", 0, 2)],
        )
        found = validate(doc)
        assert rules(found) == ["V8"]
        assert found[0].severity is Severity.WARNING

    def test_v8_custom_stoplist(self):
        doc = annotated_document(
            "v8b", ["rugged/JJ sensors/NNS"],
            entities=[("p1", "product", "nominal", 0, 2)],
        )
        assert validate(doc) == []
        assert rules(validate(doc, DEFAULT_STOPLIST | {"rugged"})) == ["V8"]

    def test_v9_empty_products(self):
        doc = tagged_document("v9", ["Acme/NNP sells/VBZ stuff/NN ./."])
        bad = replace(
            doc,
            entities=(human("c1", EntityType.COMPANY, 0, 1, MentionKind.NAME),),
            relations=(RelationMention("r1", "c1", (), None, Provenance.HUMAN),),
        )
        assert "V9" in rules(validate(bad))

    def test_v9_dangling_reference(self):
        doc = tagged_document("v9b", ["Acme/NNP sells/VBZ stuff/NN ./."])
        bad = replace(
            doc,
            entities=(human("c1", EntityType.COMPANY, 0, 1, MentionKind.NAME),),
            relations=(RelationMention("r1", "c1", ("ghost",), None, Provenance.HUMAN),),
        )
        assert "V9" in rules(validate(bad))


# faults that `attach_annotations` rejects and that the validator once missed
MODEL_FAULTS = {
    "company argument is a Product mention": (
        "V9", [RelationMention("r1", "p1", ("p1",), None, Provenance.HUMAN)], []
    ),
    "product argument is a Company mention": (
        "V9", [RelationMention("r1", "c1", ("c1",), None, Provenance.HUMAN)], []
    ),
    "trigger in another sentence": (
        "V3", [RelationMention("r1", "c1", ("p1",), Span(5, 6), Provenance.HUMAN)], []
    ),
    "chain member names no mention": (
        "V4", [], [IdentityChain("ch1", "c1", ("ghost",))]
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_FAULTS))
def test_reports_the_fault_attach_rejects(case):
    rule, relations, chains = MODEL_FAULTS[case]
    doc = tagged_document("f", ["Acme/NNP sells/VBZ sensors/NNS ./.", "It/PRP ships/VBZ ./."])
    entities = (
        human("c1", EntityType.COMPANY, 0, 1, MentionKind.NAME),
        human("p1", EntityType.PRODUCT, 2, 3),
    )
    with pytest.raises(ModelError) as raised:
        attach_annotations(doc, entities, relations, chains)
    found = validate(replace(doc, entities=entities, relations=tuple(relations), chains=tuple(chains)))
    assert rules(found) == [rule]
    assert found[0].message == str(raised.value)


# one chain fault each, which the member walk once reported a second time
CHAIN_FAULTS = {
    "unknown source": (
        IdentityChain("ch1", "ghost", ("c1",)), "chain ch1 source 'ghost' is not a known mention",
    ),
    "source among its targets": (
        IdentityChain("ch1", "c1", ("c1",)), "chain ch1 lists its source among its targets",
    ),
    "target listed twice": (
        IdentityChain("ch1", "c1", ("c2", "c2")), "mention 'c2' belongs to chains 'ch1' and 'ch1'",
    ),
}


@pytest.mark.parametrize("case", sorted(CHAIN_FAULTS))
def test_chain_fault_is_reported_once(case):
    chain, message = CHAIN_FAULTS[case]
    doc = tagged_document("f", ["Acme/NNP and/CC it/PRP ship/VBP ./."])
    entities = (
        human("c1", EntityType.COMPANY, 0, 1, MentionKind.NAME),
        human("c2", EntityType.COMPANY, 2, 3, MentionKind.PRONOMINAL),
    )
    with pytest.raises(ModelError) as raised:
        attach_annotations(doc, entities, chains=[chain])
    found = validate(replace(doc, entities=entities, chains=(chain,)))
    assert [(v.rule_id, v.message) for v in found] == [("V4", message)]
    assert str(raised.value) == message


class TestGoldenCorpus:
    def test_zero_violations(self, golden):
        assert validate_corpus(golden.documents) == []

    def test_idempotent(self, golden):
        doc = golden.documents[0]
        assert validate(doc) == validate(doc)


class TestReport:
    def sample(self):
        return [
            Violation("V1", Severity.ERROR, "d", "p1", Span(0, 2), "starts badly"),
            Violation("V8", Severity.WARNING, "d", "p1", Span(0, 2), "stoplisted"),
        ]

    def test_empty_report(self):
        assert report([]) == ""

    def test_error_sorts_first_at_same_position(self):
        doc = annotated_document(
            "mix", ["advanced/JJ sensors/NNS ,/,"],
            entities=[("p1", "product", "nominal", 0, 3)],
        )
        found = validate(doc)
        assert rules(found) == ["V1", "V8"]
        assert [v.severity for v in found] == [Severity.ERROR, Severity.WARNING]

    def test_tsv_format(self):
        lines = report(self.sample(), "tsv").splitlines()
        assert lines[0].split("\t") == ["d", "V1", "Error", "[0,2)", "starts badly"]

    def test_tsv_escapes_tabs_and_line_breaks_in_a_field(self):
        """A doc id, an id or a tag in a message may hold a TAB or a line break; each row keeps five fields."""
        v = Violation("V1", Severity.ERROR, "doc\tone", "p1", Span(2, 4), "ends with 'x'/N\u2028N\x85 \\t\r\n")
        out = report([v, v], "tsv")
        assert out == "\n".join(["doc\\tone\tV1\tError\t[2,4)\tends with 'x'/N\\u2028N\\x85 \\t\\r\\n"] * 2)
        assert [len(row.split("\t")) for row in out.splitlines()] == [5, 5]
        # the text format is for people: it writes the fields as they are
        assert report([v], "text") == "doc\tone [2,4) V1 Error: ends with 'x'/N\u2028N\x85 \\t\r\n"

    def test_text_format(self):
        text = report(self.sample(), "text")
        assert "V1 Error" in text

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            report([], "yaml")

    def test_grouped_by_document(self):
        docs = [
            annotated_document(
                "b-doc", ["the/DT sensors/NNS"],
                entities=[("p1", "product", "nominal", 0, 2)],
            ),
            annotated_document(
                "a-doc", ["the/DT gadgets/NNS"],
                entities=[("p1", "product", "nominal", 0, 2)],
            ),
        ]
        out = report(validate_corpus(docs), "tsv")
        doc_ids = [line.split("\t")[0] for line in out.splitlines()]
        assert doc_ids == sorted(doc_ids)
