"""Scaling guards: validating, checking, chunking, tagging raw text, writing and reading a
corpus line, counting corpus statistics, and writing and reading column files stay linear
in input length.

Each guard times one input and another 16 times as long.  Linear cost
predicts a time ratio of 16 between them, quadratic cost 256; the bound of
48 leaves room for a host whose speed swings by a factor of two between runs.
Company recognition and pre-annotation are guarded the same way on one
long sentence, as raw text with no sentence punctuation makes, and
agreement on a pre-annotated document whose nested products grow with it.
Matching is guarded by counting work instead: a company coordination is
parsed once per anchor, however many surfaces start with `<ORG>`, the
nested company-in-candidate rule looks up one candidate per company, a
candidate is walked as a `<PRO>` anchor only when a later word can follow
a product, a sentence with no company mention is neither chunked nor
matched, nor is one with no trigger word and no company mention that a
candidate could enclose, and pre-annotation builds no `Token` at all: it chunks the
columns.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace

import pytest

from promex import pipeline
from promex.analytics import CorpusStats, agreement
from promex.chunker import chunk, split_coordination
from promex.cli import default_config_path
from promex.corpus_io import SCHEMA_VERSION, document_line, iter_documents
from promex.examples import golden_corpus, tagged_document
from promex.ingest import OrgGazetteer, document_from_text, export_column, read_tagged, recognize_orgs
from promex.model import (
    Document,
    EntityMention,
    EntityType,
    IdentityChain,
    MentionKind,
    Provenance,
    RelationMention,
    Span,
    Token,
    TokenColumns,
    attach_annotations,
    make_document,
)
from promex.patterns import OrgSlot, _SentenceContext, expand, match_sentence, parse_config
from promex.validator import validate

from conftest import simple_tokens
from test_oracles import human

K = 4
GROWTH = 16
MAX_RATIO = 48


def repeated_golden(times: int) -> tuple[Document, tuple, tuple, tuple]:
    """The golden documents laid end to end `times` times, with their annotations.

    Returns the bare document and the entities, relations and chains to
    attach to it, all with ids made unique per copy.
    """
    rows: list[tuple[str, str, int, int]] = []
    sentences: list[tuple[int, int]] = []
    texts: list[str] = []
    entities, relations, chains = [], [], []
    chars = 0
    golden = golden_corpus().documents
    for copy in range(times):
        for doc in golden:
            base = len(rows)
            prefix = f"{copy}-{doc.doc_id}-"
            rows += [
                (text, pos, start + chars, end + chars)
                for text, pos, start, end in zip(doc.texts, doc.tags, doc.char_starts, doc.char_ends)
            ]
            sentences += [(s.span.start + base, s.span.end + base) for s in doc.sentences]
            entities += [
                replace(e, mention_id=prefix + e.mention_id,
                        span=Span(e.span.start + base, e.span.end + base))
                for e in doc.entities
            ]
            relations += [
                replace(
                    r,
                    relation_id=prefix + r.relation_id,
                    company=prefix + r.company,
                    products=tuple(prefix + p for p in r.products),
                    trigger=r.trigger and Span(r.trigger.start + base, r.trigger.end + base),
                )
                for r in doc.relations
            ]
            chains += [
                replace(c, chain_id=prefix + c.chain_id, source=prefix + c.source,
                        targets=tuple(prefix + t for t in c.targets))
                for c in doc.chains
            ]
            texts.append(doc.text)
            chars += len(doc.text) + 1
    bare = make_document("long", " ".join(texts), TokenColumns.from_rows(rows), sentences)
    return bare, tuple(entities), tuple(relations), tuple(chains)


def growth_ratio(run, short, long) -> float:
    """Best time of `run(long)` over best time of `run(short)`."""
    def seconds(inputs) -> float:
        start = time.perf_counter()
        run(inputs)
        return time.perf_counter() - start

    seconds(short)  # warm up
    # best of 3, alternating, so that a slow spell of the host hits both sizes
    best_short = best_long = float("inf")
    for _ in range(3):
        best_short = min(best_short, seconds(short))
        best_long = min(best_long, seconds(long))
    return best_long / best_short


def gadget_sentences(k: int) -> tuple[Document, tuple, tuple, tuple]:
    """k sentences `Intel makes wireless gadget<i>s .`, each with its product annotated.

    All k product sequences start with `wireless`, which recurs k times.
    """
    doc = tagged_document("d", [f"Intel/NNP makes/VBZ wireless/JJ gadget{i}s/NNS ./." for i in range(k)])
    products = tuple(human(f"p{i}", EntityType.PRODUCT, 5 * i + 2, 5 * i + 4) for i in range(k))
    return doc, products, (), ()


def one_chain(k: int) -> tuple[Document, tuple, tuple, tuple]:
    """A Name company and k pronoun companies in one identity chain, each with its own relation."""
    doc = tagged_document("d", ["Intel/NNP makes/VBZ wireless/JJ chips/NNS ./."]
                          + ["It/PRP makes/VBZ wireless/JJ chips/NNS ./."] * k)
    entities, relations = [], []
    for i in range(k + 1):
        company = human(f"c{i}", EntityType.COMPANY, 5 * i, 5 * i + 1)
        entities += [replace(company, mention_kind=MentionKind.PRONOMINAL) if i else company,
                     human(f"p{i}", EntityType.PRODUCT, 5 * i + 2, 5 * i + 4)]
        relations.append(RelationMention(f"r{i}", f"c{i}", (f"p{i}",), Span(5 * i + 1, 5 * i + 2), Provenance.HUMAN))
    chain = IdentityChain("ch0", "c0", tuple(f"c{i}" for i in range(1, k + 1)))
    return doc, tuple(entities), tuple(relations), (chain,)


# the golden documents end to end; many product sequences that share a first
# word, for V5; one long identity chain, for V6
@pytest.mark.parametrize("build,k", [
    (repeated_golden, K),
    (gadget_sentences, 128),
    (one_chain, 128),
], ids=["repeated_golden", "shared_first_word", "long_chain"])
def test_validate_and_attach_scale_linearly(build, k):
    ratio = growth_ratio(
        lambda inputs: validate(attach_annotations(*inputs)),
        build(k), build(GROWTH * k),
    )
    assert ratio < MAX_RATIO, f"{GROWTH}x longer document took {ratio:.0f}x as long"


# a comma list with no final conjunction never coordinates; a noun-less run
# never yields a candidate
@pytest.mark.parametrize("unit", ["widgets/NNS ,/,", "fast/JJ"], ids=["comma-list", "noun-less"])
def test_chunk_and_split_coordination_scale_linearly(unit):
    def split(tokens: list[Token]) -> None:
        split_coordination(chunk(tokens), tokens)

    short = simple_tokens(" ".join([unit] * 128))
    long = simple_tokens(" ".join([unit] * GROWTH * 128))
    ratio = growth_ratio(split, short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer sentence took {ratio:.0f}x as long"


def test_read_tagged_scales_linearly():
    # a sentence of 6 lines and a blank one, with a Company and a Product mention
    sentence = ("Acme\tNNP\tB-Company\nGroup\tNNP\tI-Company\nmakes\tVBZ\tO\n"
                "wireless\tJJ\tB-Product\nsensors\tNNS\tI-Product\n.\t.\tO\n\n")
    short, long = sentence * 64, sentence * 64 * GROWTH
    assert len(read_tagged(long).entities) == 2 * 64 * GROWTH
    ratio = growth_ratio(read_tagged, short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer column file took {ratio:.0f}x as long"


def test_document_from_text_scales_linearly():
    # the golden texts, one after another, 16 times and 256 times
    text = " ".join(doc.text for doc in golden_corpus().documents)
    short, long = (" ".join([text] * n) for n in (16, 16 * GROWTH))
    ratio = growth_ratio(document_from_text, short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer text took {ratio:.0f}x as long"


@pytest.fixture(scope="module")
def golden_documents() -> tuple[Document, Document]:
    """`repeated_golden` 16 times and 16 * GROWTH times, annotated."""
    short, long = (attach_annotations(*repeated_golden(n)) for n in (16, 16 * GROWTH))
    return short, long


def test_document_line_scales_linearly(golden_documents):
    ratio = growth_ratio(document_line, *golden_documents)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer document took {ratio:.0f}x as long"


def test_iter_documents_scales_linearly(golden_documents):
    # a corpus of one document: the header, then its line
    header = f'{{"schema_version":"{SCHEMA_VERSION}"}}\n'
    short, long = ([header, document_line(doc)] for doc in golden_documents)
    ratio = growth_ratio(lambda lines: deque(iter_documents(lines), maxlen=0), short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer corpus line took {ratio:.0f}x as long to read"


def test_corpus_stats_scales_linearly(golden_documents):
    ratio = growth_ratio(lambda doc: CorpusStats.from_corpus([doc]), *golden_documents)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer document took {ratio:.0f}x as long"


def test_export_column_scales_linearly(golden_documents):
    ratio = growth_ratio(export_column, *golden_documents)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer document took {ratio:.0f}x as long"


def test_recognize_orgs_scales_linearly_in_sentence_length():
    gazetteer = OrgGazetteer.from_names(["Intel"])
    # no sentence punctuation: each text is one sentence
    short, long = (document_from_text(" ".join(["Intel makes sensors"] * n)) for n in (64, 64 * GROWTH))
    ratio = growth_ratio(lambda doc: recognize_orgs(doc, gazetteer), short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer sentence took {ratio:.0f}x as long"


# one sentence each: a run-on text, possessive spam, and one candidate holding
# every company, which the nested rule relates to each of them
@pytest.mark.parametrize("text,n", [
    (lambda n: " ".join(["Intel makes sensors"] * n), 256),
    (lambda n: " ".join(["Intel 's"] * n) + " sensors .", 128),
    (lambda n: " ".join(["sensors"] + ["Intel"] * n), 100),
], ids=["run-on", "possessive", "nested"])
def test_preannotate_scales_linearly_in_sentence_length(text, n):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    gazetteer = OrgGazetteer.from_names(["Intel"])
    short, long = document_from_text(text(n)), document_from_text(text(n * GROWTH))
    assert len(long.sentences) == 1
    ratio = growth_ratio(lambda doc: pipeline.preannotate_document(doc, gazetteer, surfaces), short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer sentence took {ratio:.0f}x as long"


def developing_chips(n: int) -> Document:
    """`Intel developing` n times, then `chips .`, pre-annotated: n nested products
    that each run to `chips`, so their total width grows with the square of n."""
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    doc = document_from_text("Intel developing " * n + "chips .")
    return pipeline.preannotate_document(doc, OrgGazetteer.from_names(["Intel"]), surfaces).document


def test_agreement_scales_linearly_in_product_nesting():
    short, long = developing_chips(32), developing_chips(32 * GROWTH)
    assert (len(short.texts), len(long.texts)) == (66, 1026)
    ratio = growth_ratio(lambda doc: agreement([doc], [doc]), short, long)
    assert ratio < MAX_RATIO, f"{GROWTH}x longer document took {ratio:.0f}x as long"


def test_company_coordination_is_parsed_once_for_all_surfaces(monkeypatch):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    doc = tagged_document("d", ["Acme/NNP ,/, BMW/NNP and/CC Bosch/NNP make/VBP sensors/NNS ./."])
    orgs = [
        EntityMention(f"c{i}", EntityType.COMPANY, Span(p, p + 1), MentionKind.NAME, Provenance.HUMAN)
        for i, p in enumerate((0, 2, 4))
    ]
    tokens = doc.sentence_tokens(doc.sentences[0])
    candidates = [c.span for c in split_coordination(chunk(tokens), tokens)]
    calls = []
    org_firsts = _SentenceContext.org_firsts

    def counted(ctx, pos):
        calls.append(pos)
        return org_firsts(ctx, pos)

    monkeypatch.setattr(_SentenceContext, "org_firsts", counted)

    def count(inventory) -> int:
        calls.clear()
        match_sentence(doc, doc.sentences[0], orgs, candidates, inventory)
        return len(calls)

    org_initial = [s for s in surfaces if isinstance(s.elements[0], OrgSlot)]
    assert len(org_initial) == 158
    # each company anchor parses the coordination from there once: 3 + 2 + 1
    # lookups, where a search per surface makes that many per <ORG> surface
    assert count(surfaces) == count(org_initial[:1]) == 6


def test_nested_rule_looks_up_one_candidate_per_company(monkeypatch):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    doc = document_from_text(" ".join(["Intel makes sensors"] * 30))
    orgs = recognize_orgs(doc, OrgGazetteer.from_names(["Intel"]))
    tokens = doc.sentence_tokens(doc.sentences[0])
    candidates = [c.span for c in split_coordination(chunk(tokens), tokens)]
    calls = []
    contains = Span.contains

    def counted(span, other):
        calls.append(other)
        return contains(span, other)

    monkeypatch.setattr(Span, "contains", counted)
    match_sentence(doc, doc.sentences[0], orgs, candidates, surfaces)
    # one run-on sentence; testing every candidate against every company
    # makes len(orgs) * len(candidates) calls
    assert len(doc.sentences) == 1 and len(orgs) == 30
    assert len(calls) <= len(orgs)


@pytest.mark.parametrize("tail", ["./.", "by/IN Bosch/NNP ./."], ids=["no-follower", "by"])
def test_product_anchors_are_walked_only_before_a_follower(monkeypatch, tail):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    n = 40
    doc = tagged_document("d", [" ".join(["Acme/NNP likes/VBZ", *["sensors/NNS with/IN"] * (n - 1), "sensors/NNS", tail])])
    orgs = [EntityMention("c0", EntityType.COMPANY, Span(0, 1), MentionKind.NAME, Provenance.HUMAN)]
    tokens = doc.sentence_tokens(doc.sentences[0])
    candidates = [c.span for c in split_coordination(chunk(tokens), tokens)]
    calls = []
    product_firsts = _SentenceContext.product_firsts

    def counted(ctx, pos):
        calls.append(pos)
        return product_firsts(ctx, pos)

    monkeypatch.setattr(_SentenceContext, "product_firsts", counted)
    match_sentence(doc, doc.sentences[0], orgs, candidates, surfaces)
    # a <PRO> walk goes on only at by, is, are, from or made; walking every
    # candidate makes one call each, for nothing where none follows it
    followed = [c.start for c in candidates if "by" in doc.texts[c.end:]]
    assert len(followed) == (0 if tail == "./." else n + 1)  # Acme and the n sensors
    assert calls == followed


def test_sentences_without_companies_are_not_chunked_or_matched(monkeypatch):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    n = 20
    doc = tagged_document("d", ["The/DT new/JJ sensors/NNS are/VBP made/VBN by/IN hand/NN ./."] * n
                          + ["Acme/NNP makes/VBZ sensors/NNS ./."])
    calls = {"chunk": 0, "match_sentence": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "chunk", counted("chunk", chunk))
    monkeypatch.setattr(pipeline, "match_sentence", counted("match_sentence", match_sentence))
    result = pipeline.preannotate_document(doc, OrgGazetteer.from_names(["Acme"]), surfaces)
    assert [r.pattern_id for r in result.document.relations] == ["P03"]
    # only the last sentence names a company; the other n cannot match
    assert calls == {"chunk": 1, "match_sentence": 1}


def test_sentences_without_triggers_or_nesting_are_not_chunked_or_matched(monkeypatch):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    n = 20
    doc = tagged_document("d", ["Apple/NNP expanded/VBD the/DT quarter/NN ./."] * n
                          + ["Acme/NNP makes/VBZ sensors/NNS ./.", "the/DT Apple/NNP Watch/NNP sold/VBD ./."])
    calls = {"chunk": 0, "match_sentence": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pipeline, "chunk", counted("chunk", chunk))
    monkeypatch.setattr(pipeline, "match_sentence", counted("match_sentence", match_sentence))
    result = pipeline.preannotate_document(doc, OrgGazetteer.from_names(["Acme", "Apple"]), surfaces)
    assert [r.pattern_id for r in result.document.relations] == ["P03", "nested"]
    # the n sentences name Apple, but hold no trigger word, and no candidate can enclose Apple
    assert calls == {"chunk": 2, "match_sentence": 2}


def test_preannotate_builds_no_tokens(monkeypatch):
    surfaces = expand(parse_config(default_config_path().read_text(encoding="utf-8")))
    relational = "Acme/NNP makes/VBZ sensors/NNS ./."
    doc = tagged_document("d", ["The/DT new/JJ sensors/NNS are/VBP made/VBN by/IN hand/NN ./."] * 20
                          + [relational])
    built = []
    init = Token.__init__

    def counted(token, *args):
        built.append(args[0])
        init(token, *args)

    monkeypatch.setattr(Token, "__init__", counted)
    result = pipeline.preannotate_document(doc, OrgGazetteer.from_names(["Acme"]), surfaces)
    assert [r.pattern_id for r in result.document.relations] == ["P03"]
    # the one sentence that names a company is chunked from the columns
    assert built == []
