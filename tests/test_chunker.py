from __future__ import annotations

import random
import re

from hypothesis import given, strategies as st

from promex.chunker import ChunkCandidate, candidate_ends, chunk, span_matches_grammar, split_coordination
from promex.model import NOUN_TAGS, Span, Token

from conftest import simple_tokens


# --- independent oracle ------------------------------------------------------
# Regex enumeration over a symbol alphabet; shares no code with the scanner.

_SYMBOL = {"NN": "N", "NNS": "N", "NNP": "N", "NNPS": "N", "JJ": "J", "CD": "C", "VBG": "G"}
_GRAMMAR = re.compile(r"^[GNJC]*N[NJC]*$")


def oracle_parses(tags: list[str]) -> bool:
    return all(t in _SYMBOL for t in tags) and bool(_GRAMMAR.match("".join(_SYMBOL[t] for t in tags)))


def oracle_chunks(tags: list[str]) -> list[tuple[int, int]]:
    def matches(i: int, j: int) -> bool:
        return oracle_parses(tags[i:j])

    spans = []
    pos = 0
    n = len(tags)
    while pos < n:
        found = None
        for j in range(n, pos, -1):
            if matches(pos, j):
                found = j
                break
        if found is None:
            pos += 1
        else:
            spans.append((pos, found))
            pos = found
    return spans


TAG_POOL = ["NN", "NNS", "NNP", "NNPS", "JJ", "CD", "VBG", "DT", "IN", "CC", "VBZ", "PRP", "POS", ",", "."]


def tokens_for(tags: list[str]) -> list[Token]:
    return [Token(f"w{i}", t, 0, 1) for i, t in enumerate(tags)]


class TestChunk:
    def spans(self, tagged: str) -> list[Span]:
        return [c.span for c in chunk(simple_tokens(tagged))]

    def test_premodified_compound(self):
        assert self.spans("high-resolution/JJ waveform/NN analysis/NN") == [Span(0, 3)]

    def test_gerund_premodifier(self):
        assert self.spans("communicating/VBG sensors/NNS") == [Span(0, 2)]

    def test_determiner_excluded(self):
        assert self.spans("the/DT advanced/JJ sensors/NNS") == [Span(1, 3)]

    def test_leading_cardinal(self):
        assert self.spans("1500/CD ECL-PTU-208/NNP") == [Span(0, 2)]

    def test_gerund_never_head(self):
        assert self.spans("sensors/NNS communicating/VBG") == [Span(0, 1)]

    def test_trademark_absorbed(self):
        cands = chunk(simple_tokens("McRib/NNP ®/SYM burger/NN"))
        assert [c.span for c in cands] == [Span(0, 2), Span(2, 3)]

    def test_every_candidate_has_noun(self):
        rng = random.Random(7)
        for _ in range(200):
            tags = [rng.choice(TAG_POOL) for _ in range(rng.randint(0, 12))]
            for cand in chunk(tokens_for(tags)):
                assert any(t in NOUN_TAGS for t in tags[cand.span.start:cand.span.end])

    def test_agrees_with_oracle_seeded(self):
        rng = random.Random(20260808)
        for _ in range(1000):
            tags = [rng.choice(TAG_POOL) for _ in range(rng.randint(0, 15))]
            got = [(c.span.start, c.span.end) for c in chunk(tokens_for(tags))]
            assert got == oracle_chunks(tags), tags

    @given(st.lists(st.sampled_from(TAG_POOL), max_size=15))
    def test_agrees_with_oracle_hypothesis(self, tags):
        got = [(c.span.start, c.span.end) for c in chunk(tokens_for(tags))]
        assert got == oracle_chunks(tags)


class TestSplitCoordination:
    def split(self, tagged: str) -> list[ChunkCandidate]:
        tokens = simple_tokens(tagged)
        return split_coordination(chunk(tokens), tokens)

    def test_noun_conjuncts_stay_separate(self):
        out = self.split("semiconductor/NN and/CC IP/NNP products/NNS")
        assert [c.span for c in out] == [Span(0, 1), Span(2, 4)]
        assert all(c.coordinated for c in out)

    def test_adjective_conjuncts_merge(self):
        out = self.split("wireless/JJ and/CC self-powered/JJ LED/NNP controls/NNS")
        assert [c.span for c in out] == [Span(0, 5)]
        assert out[0].coordinated

    def test_plain_noun_coordination(self):
        out = self.split("sensors/NNS and/CC controls/NNS")
        assert [c.span for c in out] == [Span(0, 1), Span(2, 3)]
        assert all(c.coordinated for c in out)

    def test_adjective_list_merges_to_single_candidate(self):
        out = self.split(
            "analog/JJ ,/, digital/JJ and/CC mixed-signal/JJ integrated/JJ circuits/NNS"
        )
        assert [c.span for c in out] == [Span(0, 7)]
        assert out[0].coordinated

    def test_no_conjunction_no_coordination(self):
        out = self.split("sensors/NNS ,/, controls/NNS")
        assert [c.span for c in out] == [Span(0, 1), Span(2, 3)]
        assert not any(c.coordinated for c in out)

    def test_non_coordinated_pass_through(self):
        out = self.split("advanced/JJ sensors/NNS")
        assert out == [ChunkCandidate(span=Span(0, 2))]

    def test_oxford_comma(self):
        out = self.split("sensors/NNS ,/, protectors/NNS ,/, and/CC breakers/NNS")
        assert [c.span for c in out] == [Span(0, 1), Span(2, 3), Span(5, 6)]
        assert all(c.coordinated for c in out)


class TestGrammar:
    def test_requires_noun(self):
        assert not span_matches_grammar(["JJ", "JJ"])
        assert span_matches_grammar(["JJ", "NN"])

    def test_rejects_trailing_gerund(self):
        assert not span_matches_grammar(["NN", "VBG"])
        assert span_matches_grammar(["VBG", "NN"])
        assert span_matches_grammar(["NN", "VBG", "NN"])

    def test_rejects_foreign_tags(self):
        assert not span_matches_grammar(["NN", "DT", "NN"])
        assert not span_matches_grammar([])

    @given(st.lists(st.sampled_from(TAG_POOL), max_size=12), st.data())
    def test_candidate_ends_agree_with_oracle(self, tags, data):
        start = data.draw(st.integers(0, len(tags)))
        stop = data.draw(st.integers(start, len(tags)))
        ends, run_end = candidate_ends(tags, start, stop)
        assert start <= run_end <= stop and all(t in _SYMBOL for t in tags[start:run_end])
        assert run_end == stop or tags[run_end] not in _SYMBOL
        assert ends == [j for j in range(start + 1, run_end + 1) if oracle_parses(tags[start:j])]
        assert span_matches_grammar(tags[start:stop]) == oracle_parses(tags[start:stop])
