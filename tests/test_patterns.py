from __future__ import annotations

import pytest

from promex.chunker import candidate_ends, chunk, split_coordination
from promex.cli import default_config_path, default_gazetteer_path
from promex.examples import annotated_document, tagged_document
from promex.inflect import inflections
from promex.ingest import OrgGazetteer, document_from_text, read_tagged, recognize_orgs
from promex.model import (
    EntityType,
    Provenance,
    RelationMention,
    Span,
)
from promex.patterns import (
    MAX_GROUP_DEPTH,
    MAX_SURFACES,
    Alt,
    BasePattern,
    DuplicatePatternId,
    LiteralSlot,
    MultipleTriggers,
    OptionalGroup,
    OrgSlot,
    PatternSyntaxError,
    PossessiveTrigger,
    ProductSlot,
    TriggerSlot,
    UnknownSetReference,
    expand,
    fan_out_triggers,
    match_sentence,
    parse_config,
    resolve_acronyms,
)
from promex.pipeline import preannotate_document


DEFAULT_CONFIG = default_config_path().read_text(encoding="utf-8")
DEFAULT_SURFACES = expand(parse_config(DEFAULT_CONFIG))
DEFAULT_GAZETTEER = OrgGazetteer.from_file(str(default_gazetteer_path()))


def _variant_count(el) -> int:
    if isinstance(el, (OrgSlot, ProductSlot, PossessiveTrigger)):
        return 1
    if isinstance(el, (TriggerSlot, LiteralSlot)):
        return sum(4 if alt.inflect else 1 for alt in el.alternatives)
    if isinstance(el, OptionalGroup):
        inner = 1
        for e in el.elements:
            inner *= _variant_count(e)
        return 1 + inner
    raise TypeError(el)


def expansion_count(config) -> int:
    """Closed-form number of surface patterns: an oracle for `expand`."""
    total = 0
    for pattern in config.patterns:
        n = 1
        for el in pattern.elements:
            n *= _variant_count(el)
        total += n
    return total


def preannotate(tagged_sentences, gazetteer=DEFAULT_GAZETTEER, surfaces=DEFAULT_SURFACES):
    doc = tagged_document("d", list(tagged_sentences))
    return preannotate_document(doc, gazetteer, surfaces).document


def relation_shapes(doc):
    """(company text, product texts, trigger text, pattern id) per relation."""
    shapes = []
    for rel in doc.relations:
        company = doc.entity(rel.company)
        products = tuple(doc.span_text(doc.entity(p).span) for p in rel.products)
        trigger = doc.span_text(rel.trigger) if rel.trigger else None
        shapes.append((doc.span_text(company.span), products, trigger, rel.pattern_id))
    return shapes


class TestParseConfig:
    def test_possessive_pattern(self):
        config = parse_config("P1: <ORG> <POSS> <PRO>")
        assert config.patterns == (
            BasePattern("P1", (OrgSlot(), PossessiveTrigger(), ProductSlot())),
        )

    def test_trigger_literal(self):
        config = parse_config("P2: <PRO> <TRIG:by> <ORG>")
        trigger = config.patterns[0].elements[1]
        assert trigger == TriggerSlot((Alt(("by",)),))

    def test_multiple_triggers_rejected(self):
        with pytest.raises(MultipleTriggers):
            parse_config("P1: <ORG> <POSS> <TRIG:by> <PRO>")

    def test_unknown_set(self):
        with pytest.raises(UnknownSetReference):
            parse_config("P1: <ORG> <TRIG:@nope> <PRO>")

    def test_duplicate_id(self):
        text = "P1: <ORG> <TRIG:by> <PRO>\nP1: <PRO> <TRIG:by> <ORG>"
        with pytest.raises(DuplicatePatternId):
            parse_config(text)

    def test_missing_trigger_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_config("P1: <ORG> makes <PRO>")

    def test_slot_inside_optional_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_config("P1: <ORG> <TRIG:by> [ <PRO> ]")

    def test_comments_and_sets(self):
        config = parse_config(
            "# comment\nset vs = ~make|offer\nP1: <ORG> <TRIG:@vs> <PRO>  # tail\n"
        )
        assert config.patterns[0].elements[1] == TriggerSlot(
            (Alt(("make",), inflect=True), Alt(("offer",)))
        )

    @pytest.mark.parametrize("element", ["~make", "@maker", "make|made", "of"])
    def test_bare_element_reads_like_braces(self, element):
        sets = "set maker = ~make|made by\n"
        bare = parse_config(f"{sets}P1: <ORG> {element} <PRO> <TRIG:by>")
        braced = parse_config(f"{sets}P1: <ORG> {{{element}}} <PRO> <TRIG:by>")
        assert bare == braced

    def test_bare_inflection_expands(self):
        surfaces = expand(parse_config("P01: <ORG> ~make <PRO> <TRIG:by>"))
        assert [s.render() for s in surfaces] == [
            "<ORG> made <PRO> <TRIG:by>",
            "<ORG> make <PRO> <TRIG:by>",
            "<ORG> makes <PRO> <TRIG:by>",
            "<ORG> making <PRO> <TRIG:by>",
        ]

    def test_inflected_set_reference_rejected(self):
        with pytest.raises(PatternSyntaxError, match="apply ~"):
            parse_config("set v = make\nP1: <ORG> ~@v <PRO> <TRIG:by>")

    def test_optional_group_with_alternation(self):
        config = parse_config("P1: <ORG> [{a|the|an}] <POSS> <PRO>")
        group = config.patterns[0].elements[1]
        assert isinstance(group, OptionalGroup)
        assert isinstance(group.elements[0], LiteralSlot)

    @pytest.mark.parametrize("text, message", [
        ("P1: <ORG> {a||b} <PRO> <TRIG:by>", "line 2: empty alternative in alternation"),
        ("P1: <ORG> {~} <PRO> <TRIG:by>", "line 2: empty alternative in alternation"),
        ("P1: <ORG> {~make up} <PRO> <TRIG:by>", "line 2: verb inflection applies to single words only"),
        ("P1: <PRO> <TRIG:by> <ORG", "line 2: unterminated <...> element"),
        ("P1: <ORG> <PRO> <TRIG:by> {a|b", "line 2: unterminated {...} alternation"),
        ("P1: <ORG <PRO> <TRIG:by>", "line 2: unterminated <...> element"),
        ("P1: <ORG> <PRO> {a {b} <TRIG:by>", "line 2: unterminated {...} alternation"),
        ("P1: <ORG> <PRO> <TRIG:by> [a", "line 2: unterminated [...] group"),
        ("P1: <ORG> <PRO> <TRIG:by> a ]", "line 2: unbalanced ']'"),
        ("P1: <ORG> <FOO> <PRO> <TRIG:by>", "line 2: unknown slot '<FOO>'"),
        ("P1: <ORG> [ ] <PRO> <TRIG:by>", "line 2: empty optional group"),
        ("set a = x\nset a = y", "line 3: set 'a' redefined"),
        ("makes <PRO>", "line 2: expected 'set name = ...' or 'ID: ELEMENT+'"),
        ("P1: <ORG> <ORG> <PRO> <TRIG:by>", "line 2: pattern 'P1' must declare exactly one <ORG>"),
        ("P1: <ORG> <TRIG:by>", "line 2: pattern 'P1' must declare exactly one <PRO>"),
    ])
    def test_syntax_error_names_its_line(self, text, message):
        with pytest.raises(PatternSyntaxError) as exc:
            parse_config("# a comment line first\n" + text)
        assert str(exc.value) == message

    def test_group_nesting_is_capped(self):
        def nested(depth: int) -> str:
            return "P1: <ORG> <TRIG:by> " + "[a " * depth + "]" * depth + " <PRO>"

        # each level adds one variant: the groups left out from that level inwards
        assert len(expand(parse_config(nested(MAX_GROUP_DEPTH)))) == MAX_GROUP_DEPTH + 1
        message = f"line 2: [...] groups nested deeper than {MAX_GROUP_DEPTH} levels"
        for depth in (MAX_GROUP_DEPTH + 1, 100_000):  # far past Python's recursion limit
            with pytest.raises(PatternSyntaxError) as exc:
                parse_config("# a comment line first\n" + nested(depth))
            assert str(exc.value) == message

    def test_surface_count_is_capped(self):
        def siblings(groups: int) -> str:
            return "P1: <ORG> <TRIG:by> " + " ".join(f"[w{i}]" for i in range(groups)) + " <PRO>"

        # each sibling group doubles the count; 12 of them reach the cap
        assert MAX_SURFACES == 2 ** 12
        assert len(expand(parse_config(siblings(12)))) == MAX_SURFACES
        message = f"line 2: pattern 'P1' expands to more than {MAX_SURFACES} surfaces"
        for groups in (13, 64):  # counted, not built: 2 ** 64 surfaces would never fit
            with pytest.raises(PatternSyntaxError) as exc:
                parse_config("# a comment line first\n" + siblings(groups))
            assert str(exc.value) == message

    def test_leftmost_of_two_errors_is_reported(self):
        with pytest.raises(PatternSyntaxError) as exc:
            parse_config("P1: <FOO> [a")
        assert str(exc.value) == "line 1: unknown slot '<FOO>'"


class TestExpand:
    def test_counted_example(self):
        config = parse_config(
            "P1: <ORG> [to be] {a|the|an} <PRO> <TRIG:producer|provider|supplier>"
        )
        surfaces = expand(config)
        assert expansion_count(config) == 18
        assert len(surfaces) == 18

    def test_inflection_forms(self):
        config = parse_config("P1: <ORG> <TRIG:~develop> <PRO>")
        words = sorted(s.elements[1].words[0] for s in expand(config))
        assert words == ["develop", "developed", "developing", "develops"]

    def test_final_consonant_doubles(self):
        assert inflections("ship") == ("ship", "ships", "shipped", "shipping")

    def test_default_config_shape(self):
        config = parse_config(DEFAULT_CONFIG)
        assert len(config.patterns) == 13
        assert expansion_count(config) == 173
        assert len(DEFAULT_SURFACES) == 173

    def test_no_duplicates(self):
        seen = {(s.base_id, s.elements) for s in DEFAULT_SURFACES}
        assert len(seen) == len(DEFAULT_SURFACES)

    def test_deterministic(self):
        again = expand(parse_config(DEFAULT_CONFIG))
        assert again == DEFAULT_SURFACES

    def test_closed_form_matches_length(self):
        for text in (
            "P1: <ORG> <POSS> <PRO>",
            "set v = ~produce|~offer\nP1: <ORG> <TRIG:@v> <PRO>",
            "P1: <ORG> [to be] [{a|the}] <TRIG:maker of|vendor of> <PRO>",
        ):
            config = parse_config(text)
            assert expansion_count(config) == len(expand(config))


class TestMatch:
    def test_equal_inventory_takes_over_the_cached_trie(self):
        from promex import patterns

        root = patterns._trie(DEFAULT_SURFACES)
        parsed_again = expand(parse_config(DEFAULT_CONFIG))
        # not rebuilt, and later calls compare the new objects by identity
        assert patterns._trie(parsed_again) is root
        assert all(a is b for a, b in zip(patterns._compiled[0], parsed_again, strict=True))

    def test_a_new_inventory_rebinds_no_module_name(self):
        # a caller that saved the module's bindings, as a tracer restoring its wrappers does, finds them unchanged
        from promex import patterns

        doc = tagged_document("d", ["Garmin/NNP makes/VBZ devices/NNS ./."])
        orgs = recognize_orgs(doc, OrgGazetteer.from_names(["Garmin"]))
        before = dict(vars(patterns))
        for surfaces in (DEFAULT_SURFACES, DEFAULT_SURFACES[:1]):
            match_sentence(doc, doc.sentences[0], orgs, [Span(2, 3)], surfaces)
        after = vars(patterns)
        assert after.keys() == before.keys()
        assert [name for name, value in before.items() if after[name] is not value] == []

    def test_possessive_pattern(self):
        doc = preannotate(["BMW/NNP 's/POS 1-Series/NNP Convertible/NNP is/VBZ a/DT stylish/JJ convertible/NN ./."])
        assert relation_shapes(doc) == [
            ("BMW", ("1-Series Convertible",), "'s", "P01"),
        ]

    def test_verb_pattern_with_coordination(self):
        doc = preannotate(["Sensata/NNP Technologies/NNP develops/VBZ sensors/NNS and/CC controls/NNS ./."])
        assert relation_shapes(doc) == [
            ("Sensata Technologies", ("sensors", "controls"), "develops", "P03"),
        ]

    def test_by_pattern(self):
        doc = preannotate(["Intuition/NNP Executive/NNP by/IN Honeywell/NNP collects/VBZ and/CC analyzes/VBZ large/JJ amounts/NNS of/IN data/NNS ./."])
        assert relation_shapes(doc) == [
            ("Honeywell", ("Intuition Executive",), "by", "P02"),
        ]

    def test_nominalization_of_pattern(self):
        doc = preannotate(["Amazon/NNP is/VBZ a/DT vendor/NN of/IN books/NNS and/CC technology/NN products/NNS ./."])
        assert relation_shapes(doc) == [
            ("Amazon", ("books", "technology products"), "vendor of", "P04"),
        ]

    def test_company_coordination_fans_out(self):
        doc = preannotate(["Apple/NNP and/CC Samsung/NNP are/VBP smartphone/NN providers/NNS ./."])
        assert relation_shapes(doc) == [
            ("Apple", ("smartphone",), "providers", "P05"),
            ("Samsung", ("smartphone",), "providers", "P05"),
        ]

    def test_nested_company_inside_candidate(self):
        doc = preannotate(["Apple/NNP Watch/NNP Series/NNP 2/CD"])
        assert relation_shapes(doc) == [
            ("Apple", ("Apple Watch Series 2",), None, "nested"),
        ]

    def test_possessive_blocks_nested_reading(self):
        doc = preannotate(["BMW/NNP 's/POS Z3/NNP"])
        shapes = relation_shapes(doc)
        assert shapes == [("BMW", ("Z3",), "'s", "P01")]

    def test_no_match_empty(self):
        doc = preannotate(["nothing/NN happens/VBZ here/RB ./."])
        assert doc.relations == ()

    def test_match_signature_returns_relations(self):
        doc = tagged_document("d", ["Garmin/NNP makes/VBZ devices/NNS ./."])
        from promex.ingest import recognize_orgs

        gazetteer = OrgGazetteer.from_names(["Garmin"])
        orgs = recognize_orgs(doc, gazetteer)
        tokens = doc.sentence_tokens(doc.sentences[0])
        candidates = [c.span for c in split_coordination(chunk(tokens), tokens)]
        relations = match_sentence(doc, doc.sentences[0], orgs, candidates, DEFAULT_SURFACES).relations
        assert relations == ((orgs[0], (Span(2, 3),), Span(1, 2), "P03"),)
        document = preannotate_document(doc, gazetteer, DEFAULT_SURFACES).document
        assert [r.provenance for r in document.relations] == [Provenance.PRE_ANNOTATION]

    def test_product_spans_parse_as_chunks(self):
        docs = [
            preannotate(["Apple/NNP and/CC Samsung/NNP are/VBP smartphone/NN providers/NNS ./."]),
            preannotate(["Amazon/NNP is/VBZ a/DT vendor/NN of/IN books/NNS and/CC technology/NN products/NNS ./."]),
        ]
        for doc in docs:
            for mention in doc.entities:
                if mention.entity_type is EntityType.PRODUCT:
                    tags = doc.tags[mention.span.start:mention.span.end]
                    assert len(tags) in candidate_ends(tags, 0, len(tags))[0]

    def test_match_order_deterministic(self):
        sentence = ["Garmin/NNP makes/VBZ devices/NNS and/CC Garmin/NNP offers/VBZ maps/NNS ./."]
        first = relation_shapes(preannotate(sentence))
        second = relation_shapes(preannotate(sentence))
        assert first == second

    @pytest.mark.parametrize(
        "sentence,expected",
        [
            (
                "sensors/NNS are/VBP manufactured/VBN by/IN Sensata/NNP Technologies/NNP ./.",
                ("Sensata Technologies", ("sensors",), "manufactured by", "P07"),
            ),
            (
                "Garmin/NNP launched/VBD new/JJ maps/NNS ./.",
                ("Garmin", ("new maps",), "launched", "P08"),
            ),
            (
                "Garmin/NNP offers/VBZ a/DT range/NN of/IN navigation/NN devices/NNS ./.",
                ("Garmin", ("navigation devices",), "offers", "P10"),
            ),
            (
                "Garmin/NNP ,/, maker/NN of/IN GPS/NNP devices/NNS ,/, reported/VBD results/NNS ./.",
                ("Garmin", ("GPS devices",), "maker of", "P11"),
            ),
            (
                "new/JJ maps/NNS from/IN Garmin/NNP ./.",
                ("Garmin", ("new maps",), "from", "P12"),
            ),
            (
                "gadgets/NNS made/VBN by/IN Acme/NNP Corp./NNP ./.",
                ("Acme Corp.", ("gadgets",), "made by", "P13"),
            ),
        ],
    )
    def test_every_reconstruction_pattern_matches(self, sentence, expected):
        gazetteer = OrgGazetteer.from_names(
            ["Garmin", "Acme Corp.", "Sensata Technologies"]
        )
        doc = preannotate([sentence], gazetteer=gazetteer)
        assert relation_shapes(doc) == [expected]


class TestPathologicalInput:
    def test_keyword_spam_list_does_not_blow_the_stack(self):
        # one "sentence" of 1500 comma-separated nouns, as produced by
        # boilerplate-removal failures on keyword-spam pages
        spam = " ,/, ".join(f"word{i}/NN" for i in range(1500))
        doc = preannotate([f"Garmin/NNP offers/VBZ a/DT range/NN of/IN {spam} ./."])
        assert len(doc.relations) >= 1
        longest = max(len(r.products) for r in doc.relations)
        assert longest <= 25


class TestFanOut:
    def test_multi_trigger_apposition(self):
        doc = preannotate([
            "FUJIFILM/NNP invested/VBD in/IN Japan/NNP Biomedical/NNP Co./NNP ,/, a/DT developer/NN ,/, "
            "manufacturer/NN and/CC vendor/NN of/IN additives/NNS for/IN cell/NN culture/NN media/NNS ./."
        ])
        shapes = relation_shapes(doc)
        assert len(shapes) == 3
        assert {s[2] for s in shapes} == {"developer", "manufacturer", "vendor"}
        assert {s[0] for s in shapes} == {"Japan Biomedical Co."}
        assert {s[1] for s in shapes} == {("additives",)}

    def test_single_trigger_unchanged(self):
        rel = RelationMention("r", "c", ("p",), Span(1, 2), Provenance.PRE_ANNOTATION, "P03")
        assert fan_out_triggers([rel]) == [rel]

    def test_exact_duplicates_collapse(self):
        a = RelationMention("r1", "c", ("p",), Span(1, 2), Provenance.PRE_ANNOTATION, "P03")
        b = RelationMention("r2", "c", ("p",), Span(1, 2), Provenance.PRE_ANNOTATION, "P08")
        assert fan_out_triggers([a, b]) == [a]


class TestPreannotateDocument:
    def test_attaches_annotations_once_per_document(self, monkeypatch):
        import promex.pipeline

        calls = []
        original = promex.pipeline.attach_annotations

        def counting(doc, *args, **kwargs):
            calls.append(doc.doc_id)
            return original(doc, *args, **kwargs)

        monkeypatch.setattr(promex.pipeline, "attach_annotations", counting)
        docs = [
            tagged_document("one", ["Garmin/NNP makes/VBZ devices/NNS ./."]),
            tagged_document("two", [
                "Acme/NNP Corp./NNP sells/VBZ gadgets/NNS ./.",
                "Sensata/NNP Technologies/NNP develops/VBZ sensors/NNS and/CC controls/NNS ./.",
            ]),
        ]
        for doc in docs:
            assert preannotate_document(doc, DEFAULT_GAZETTEER, DEFAULT_SURFACES).document.relations
        assert calls == ["one", "two"]

    def test_later_sentence_products_in_document_coordinates(self):
        doc = preannotate([
            "Garmin/NNP makes/VBZ devices/NNS ./.",
            "Acme/NNP Corp./NNP offers/VBZ wireless/JJ sensors/NNS and/CC smart/JJ valves/NNS ./.",
        ])
        products = [e for e in doc.entities if e.entity_type is EntityType.PRODUCT]
        assert [(e.span, doc.span_text(e.span)) for e in products] == [
            (Span(2, 3), "devices"),
            (Span(7, 9), "wireless sensors"),
            (Span(10, 12), "smart valves"),
        ]

    SMART_WATCHES = ["Garmin/NNP makes/VBZ smart/JJ watches/NNS for/IN runners/NNS ./."]

    def test_match_crossing_a_human_mention_is_dropped(self):
        assert relation_shapes(preannotate(self.SMART_WATCHES)) == [
            ("Garmin", ("smart watches",), "makes", "P03"),
        ]
        # "watches for runners" crosses the matched "smart watches"
        doc = annotated_document("d", self.SMART_WATCHES, entities=[("p1", "product", "nominal", 3, 6)])
        result = preannotate_document(doc, DEFAULT_GAZETTEER, DEFAULT_SURFACES)
        assert result.raw_relations == () and result.document.relations == ()
        assert [e.mention_id for e in result.document.entities] == ["p1", "d-org0"]

    def test_match_crossing_a_product_minted_earlier_is_dropped(self):
        doc = document_from_text("Intel is Samsung developing chips providers .", "a")
        result = preannotate_document(doc, DEFAULT_GAZETTEER, DEFAULT_SURFACES)
        # P05 mints "Samsung developing chips"; P03's "chips providers" (the
        # match numbered r1) crosses it, and the nested rule's candidate holds it
        assert [(r.relation_id, r.pattern_id) for r in result.raw_relations] == [
            ("a-pre-s0-r0", "P05"), ("a-pre-s0-r2", "nested"),
        ]
        assert relation_shapes(result.document) == [
            ("Intel", ("Samsung developing chips",), "providers", "P05"),
            ("Samsung", ("Samsung developing chips providers",), None, "nested"),
        ]

    @pytest.mark.parametrize("tag,nested", [("POS", False), ("CC", True)])
    def test_nested_rule_skips_a_merged_coordination_holding_a_possessive(self, tag, nested):
        # the bare adjective "big" and "new Apple watches" merge over the
        # separator "and"; a column file may tag it POS
        doc = read_tagged(f"big\tJJ\nand\t{tag}\nnew\tJJ\nApple\tNNP\nwatches\tNNS\n.\t.")
        result = preannotate_document(doc, OrgGazetteer.from_names(["Apple"]), DEFAULT_SURFACES).document
        expected = [("Apple", ("big and new Apple watches",), None, "nested")] if nested else []
        assert relation_shapes(result) == expected

    def test_match_on_a_human_product_points_at_it(self):
        doc = annotated_document("d", self.SMART_WATCHES, entities=[("p1", "product", "nominal", 2, 4)])
        result = preannotate_document(doc, DEFAULT_GAZETTEER, DEFAULT_SURFACES).document
        assert [r.products for r in result.relations] == [("p1",)]
        products = [e for e in result.entities if e.entity_type is EntityType.PRODUCT]
        assert [(e.mention_id, e.provenance) for e in products] == [("p1", Provenance.HUMAN)]


def acronym_document(attach_to="abbr"):
    company = "c1" if attach_to == "full" else "c2"
    return annotated_document(
        "acr",
        ["IS/NNP International/NNP Services/NNP LLC/NNP (/( IS/NNP )/) is/VBZ a/DT uniquely/RB "
         "qualified/JJ business/NN providing/VBG engineering/NN services/NNS"],
        entities=[
            ("c1", "company", "name", 0, 4),
            ("c2", "company", "name", 5, 6),
            ("p1", "product", "nominal", 13, 15),
        ],
        relations=[("r1", company, ("p1",), (12, 13))],
        chains=[("ch1", "c1", ("c2",))],
    )


class TestResolveAcronyms:
    def test_relation_repointed_to_full_name(self):
        doc = acronym_document("abbr")
        resolved = resolve_acronyms(doc.relations, doc)
        assert len(resolved) == 1
        assert resolved[0].company == "c1"

    def test_duplicate_dropped_after_repointing(self):
        doc = acronym_document("abbr")
        duplicate = RelationMention("r2", "c1", ("p1",), Span(12, 13), Provenance.HUMAN)
        resolved = resolve_acronyms([duplicate, *doc.relations], doc)
        assert [r.relation_id for r in resolved] == ["r2"]
        assert resolved[0].company == "c1"

    def test_no_chains_is_identity(self):
        doc = annotated_document(
            "plain",
            ["Acme/NNP Corp./NNP sells/VBZ gadgets/NNS"],
            entities=[
                ("c1", "company", "name", 0, 2),
                ("p1", "product", "nominal", 3, 4),
            ],
            relations=[("r1", "c1", ("p1",), (2, 3))],
        )
        assert resolve_acronyms(doc.relations, doc) == list(doc.relations)

    def test_cross_sentence_source_left_alone(self):
        doc = annotated_document(
            "cross",
            [
                "Acme/NNP International/NNP Holdings/NNP announced/VBD results/NNS ./.",
                "AIH/NNP sells/VBZ gadgets/NNS ./.",
            ],
            entities=[
                ("c1", "company", "name", 0, 3),
                ("c2", "company", "name", 6, 7),
                ("p1", "product", "nominal", 8, 9),
            ],
            relations=[("r1", "c2", ("p1",), (7, 8))],
            chains=[("ch1", "c1", ("c2",))],
        )
        resolved = resolve_acronyms(doc.relations, doc)
        assert resolved[0].company == "c2"
