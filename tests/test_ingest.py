from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from promex.ingest import (
    IllegalBioTransition,
    IngestError,
    MalformedLine,
    OrgGazetteer,
    document_from_text,
    read_list,
    read_tagged,
    read_text,
    recognize_orgs,
    split_sentences,
    tag,
    tokenize,
)
from promex.model import EntityType, MentionKind, ModelError, Provenance, Span

from conftest import simple_columns, spans_overlap
from promex.model import make_document


def texts(result):
    return [t for t, _, _ in result]


class TestTokenize:
    def test_possessive_clitic(self):
        assert texts(tokenize("BMW's Z3")) == ["BMW", "'s", "Z3"]

    def test_hyphenated_words_stay_whole(self):
        assert texts(tokenize("mixed-signal circuits")) == ["mixed-signal", "circuits"]

    def test_trademark_symbol_split(self):
        assert texts(tokenize("McRib®")) == ["McRib", "®"]

    def test_punctuation_separation(self):
        assert texts(tokenize('He said: "stop, now!"')) == [
            "He", "said", ":", '"', "stop", ",", "now", "!", '"',
        ]

    def test_offsets_recover_surface(self):
        text = "Sensata Technologies' products (incl. sensors)."
        for tok, start, end in tokenize(text):
            assert text[start:end] == tok

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
    def test_offset_faithful(self, text):
        result = tokenize(text)
        covered = []
        for tok, start, end in result:
            assert text[start:end] == tok
            covered.append((start, end))
        # tokens are ordered, non-overlapping, and cover all non-whitespace
        assert covered == sorted(covered)
        for (s1, e1), (s2, e2) in zip(covered, covered[1:]):
            assert e1 <= s2
        outside = set(range(len(text))) - {
            i for s, e in covered for i in range(s, e)
        }
        assert all(text[i].isspace() for i in outside)


class TestSplitSentences:
    def test_terminators(self):
        assert split_sentences(["a", ".", "b", "!", "c"]) == [(0, 2), (2, 4), (4, 5)]

    def test_no_terminator(self):
        assert split_sentences(["a", "b"]) == [(0, 2)]

    def test_empty(self):
        assert split_sentences([]) == []


class TestTag:
    def test_gerund_and_plural(self):
        assert tag(["communicating", "sensors"]) == ["VBG", "NNS"]

    def test_numeric(self):
        assert tag(["1500"]) == ["CD"]

    def test_shipped_lexicon_noun_compound(self):
        assert tag(["speed", "sensors"]) == ["NN", "NNS"]

    def test_capitalized_non_initial(self):
        assert tag(["the", "Acme", "Holdings"]) == ["DT", "NNP", "NNP"]

    def test_deterministic(self):
        sample = ["Acme", "launched", "high-speed", "sensors", "."]
        assert tag(sample) == tag(sample)

    def test_possessive_clitic(self):
        assert tag(["BMW", "'s", "Z3"]) == ["NN", "POS", "NNP"]

    def test_typographic_possessive_clitic(self):
        assert tag(["Apple", "’s", "iPhone"]) == ["NN", "POS", "NN"]

    def test_lowercase_symbol_is_sym(self):
        # a lone mark is its own tag, but a POS tag may hold no lowercase letter
        assert tag(["sells", "ⓐ", "\u0345", "-", "thermostats"]) == ["VBZ", "SYM", "SYM", "-", "NNS"]
        doc = document_from_text("Acme sells ⓐ thermostats.")
        assert doc.tags[2] == "SYM"


class TestReadTagged:
    def test_bio_mention(self):
        doc = read_tagged(
            "Sensata\tNNP\tB-Company\n"
            "Technologies\tNNP\tI-Company\n"
            "develops\tVBZ\tO\n"
            "sensors\tNNS\tO\n"
        )
        assert len(doc.sentences) == 1
        assert len(doc.texts) == 4
        assert len(doc.entities) == 1
        m = doc.entities[0]
        assert m.entity_type is EntityType.COMPANY
        assert m.span == Span(0, 2)
        assert m.provenance is Provenance.HUMAN

    def test_pronoun_company_is_pronominal(self):
        doc = read_tagged("it\tPRP\tB-Company\nships\tVBZ\tO\n")
        assert [(m.entity_type, m.mention_kind) for m in doc.entities] == [
            (EntityType.COMPANY, MentionKind.PRONOMINAL)
        ]

    def test_empty_input(self):
        doc = read_tagged("")
        assert doc.texts == doc.tags == doc.char_starts == doc.char_ends == ()
        assert doc.sentences == ()

    def test_missing_tag_field(self):
        with pytest.raises(MalformedLine) as exc:
            read_tagged("sensors\t")
        assert exc.value.line_no == 1

    def test_illegal_bio_transition(self):
        with pytest.raises(IllegalBioTransition) as exc:
            read_tagged("a\tNN\tO\nb\tNN\tI-Company\n")
        assert exc.value.line_no == 2

    def test_bio_does_not_continue_across_sentences(self):
        with pytest.raises(IllegalBioTransition):
            read_tagged("a\tNNP\tB-Company\n\nb\tNNP\tI-Company\n")

    def test_comments_and_blank_lines(self):
        doc = read_tagged("# header\na\tNN\n\n\nb\tNN\n")
        assert [s.span for s in doc.sentences] == [Span(0, 1), Span(1, 2)]

    def test_second_doc_id_comment_is_malformed(self):
        # `export_column` of two documents: reading it as one would merge them
        text = "# doc_id: a\nx\tNN\tO\n\n# doc_id: b\ny\tNN\tO\n"
        with pytest.raises(MalformedLine) as exc:
            read_tagged(text)
        assert exc.value.line_no == 4
        assert read_tagged(text.split("\n\n")[0]).texts == ("x",)

    def test_product_mention_kinds(self):
        doc = read_tagged("sensors\tNNS\tB-Product\nZ3\tNNP\tB-Product\n")
        kinds = [m.mention_kind.value for m in doc.entities]
        assert kinds == ["Nominal", "Name"]


class TestReadFiles:
    def test_read_text_drops_one_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "a.txt"
        for raw, text in [
            (b"Intel makes sensors.", "Intel makes sensors."),
            (b"\xef\xbb\xbfIntel makes sensors.", "Intel makes sensors."),
            (b"\xef\xbb\xbf\xef\xbb\xbfIntel", "\ufeffIntel"),
            (b"Intel\xef\xbb\xbf\r\nchips", "Intel\ufeff\nchips"),
        ]:
            path.write_bytes(raw)
            assert read_text(str(path)) == text

    def test_read_text_refuses_what_is_not_utf8(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"caf\xe9")
        with pytest.raises(UnicodeDecodeError):
            read_text(str(path))

    def test_read_list_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_bytes(b"\xef\xbb\xbf# heading\n  Intel Corp \n\n \t\n#AMD\n  #kept\r\nBMW")
        assert read_list(str(path)) == ["Intel Corp", "#kept", "BMW"]
        gazetteer = OrgGazetteer.from_file(str(path))
        assert gazetteer.names == {("intel", "corp"), ("#kept",), ("bmw",)}


class TestRecognizeOrgs:
    def test_legal_suffix_run(self):
        doc = make_document(
            "d",
            "IS International Services LLC",
            simple_columns("IS/NNP International/NNP Services/NNP LLC/NNP"),
            [(0, 4)],
        )
        orgs = recognize_orgs(doc, OrgGazetteer.from_names([]))
        assert [m.span for m in orgs] == [Span(0, 4)]
        assert orgs[0].provenance is Provenance.PRE_ANNOTATION

    def test_gazetteer_match(self):
        doc = make_document(
            "d",
            "Sensata Technologies develops sensors",
            simple_columns("Sensata/NNP Technologies/NNP develops/VBZ sensors/NNS"),
            [(0, 4)],
        )
        orgs = recognize_orgs(doc, OrgGazetteer.from_names(["Sensata Technologies"]))
        assert [m.span for m in orgs] == [Span(0, 2)]

    def test_no_candidates(self):
        doc = make_document(
            "d", "plain words here",
            simple_columns("plain/JJ words/NNS here/RB"), [(0, 3)],
        )
        assert recognize_orgs(doc, OrgGazetteer.from_names([])) == []

    def test_longest_first_resolution(self):
        doc = make_document(
            "d",
            "Sensata Technologies Holding produces sensors",
            simple_columns("Sensata/NNP Technologies/NNP Holding/NNP produces/VBZ sensors/NNS"),
            [(0, 5)],
        )
        gaz = OrgGazetteer.from_names(["Sensata Technologies", "Sensata Technologies Holding"])
        assert [m.span for m in recognize_orgs(doc, gaz)] == [Span(0, 3)]

    def test_output_spans_never_overlap(self):
        doc = make_document(
            "d",
            "Acme Corp. and Acme Corp. Europe",
            simple_columns("Acme/NNP Corp./NNP and/CC Acme/NNP Corp./NNP Europe/NNP"),
            [(0, 6)],
        )
        gaz = OrgGazetteer.from_names(["Acme Corp. Europe", "Acme"])
        spans = [m.span for m in recognize_orgs(doc, gaz)]
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                assert not spans_overlap(a, b)


class TestDocumentFromText:
    def test_round_trip_surfaces(self):
        text = "Sensata Technologies develops sensors. BMW's Z3 is a roadster."
        doc = document_from_text(text)
        assert doc.text == text
        assert len(doc.sentences) == 2
        for tok_text, start, end in zip(doc.texts, doc.char_starts, doc.char_ends):
            assert text[start:end] == tok_text

    def test_tagging_uses_sentence_position(self):
        doc = document_from_text("Communicating sensors. Acme Devices ships.")
        tags = doc.tags
        assert tags[0] == "VBG"          # sentence-initial gerund
        assert tags[4] == "NNP"          # capitalized, non-initial


# Pieces that trip tokenizers and taggers: apostrophes and clitics, trademark
# signs, lowercase symbols (U+24D0, U+0345), titlecase, digits and punctuation.
_PIECES = st.sampled_from([
    "Acme", "sells", "Z3", "ǅ", "ß", "1500", "2.5", "ⓐ", "\u0345", "’", "'", "'s", "’s", "S",
    "®", "™", ".", ",", "!", "?", ";", "(", ")", '"', "-", "/", " ", "  ", "\t", "\n",
])
_TEXTS = st.lists(st.one_of(_PIECES, st.characters()), max_size=30).map("".join)


class TestFuzz:
    @given(_TEXTS)
    def test_tokenize_triples(self, text):
        prev_end = 0
        for token, start, end in tokenize(text):
            assert token and prev_end <= start < end
            assert text[start:end] == token
            prev_end = end

    @given(_TEXTS)
    def test_document_from_text_accepts_any_string(self, text):
        doc = document_from_text(text)
        assert doc.text == text

    @given(st.lists(st.one_of(
        st.just(""),
        _TEXTS.map(lambda t: "#" + t),
        st.tuples(
            _TEXTS, st.one_of(_TEXTS, st.sampled_from(["NN", "NNP", "VBZ", "SYM", ","])),
            st.sampled_from(["", "\tO", "\tB-Company", "\tI-Company", "\tB-Product",
                             "\tI-Product", "\tX", "\t"]),
        ).map(lambda row: f"{row[0]}\t{row[1]}{row[2]}"),
    ), max_size=12).map("\n".join))
    def test_read_tagged_fails_only_cleanly(self, column_text):
        try:
            read_tagged(column_text)
        except (IngestError, ModelError):
            pass
