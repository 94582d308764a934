"""Product-candidate chunking over the text and tag columns of one sentence.

A candidate is a token span whose tags match
``(VBG|NN*|JJ|CD)* (NN*)+ (NN*|JJ|CD)*`` where ``NN*`` ranges over the
noun tags; gerunds are admitted as premodifiers only, never as heads.
Each maximal run of these chunk tags gives at most one candidate: from the
run's start to the end of the ``(NN*|JJ|CD)*`` tail after the run's last
noun, plus any trademark symbols that follow.  That is left-to-right
maximal munch, so candidates never overlap; a run whose first tokens are
trademark symbols taken by the candidate before it starts after them.
`chunk` and `split_coordination` read a sentence either as its `Token`s,
giving spans from 0, or as `SentenceColumns`, tokens `start` to `stop` of
a document's columns, giving spans in the document's token coordinates.
`can_enclose` tells from the tokens next to a span of a `SentenceColumns`
whether a candidate could strictly contain it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .model import CONJUNCTIONS, NOUN_TAGS, TRADEMARK_TEXTS, Span, Token

CHUNK_TAGS = NOUN_TAGS | {"JJ", "CD", "VBG"}


@dataclass(frozen=True)
class ChunkCandidate:
    span: Span
    coordinated: bool = False


class SentenceColumns(NamedTuple):
    """One sentence: tokens `start` to `stop` of a document's text and tag columns."""

    texts: Sequence[str]
    tags: Sequence[str]
    start: int
    stop: int


def _columns(tokens: Sequence[Token] | SentenceColumns) -> SentenceColumns:
    """The columns of a sentence; a sentence's `Token`s start at 0."""
    if isinstance(tokens, SentenceColumns):
        return tokens
    return SentenceColumns([t.text for t in tokens], [t.pos for t in tokens], 0, len(tokens))


def candidate_ends(tags: Sequence[str], start: int, stop: int) -> tuple[list[int], int]:
    """Ascending ends of the prefixes of the chunk-tag run at `start` that parse as a
    candidate, and the end of that run, which stops at `stop` or at a tag outside `CHUNK_TAGS`."""
    ends: list[int] = []
    headed = False  # a noun seen and no gerund since
    j = start
    while j < stop and tags[j] in CHUNK_TAGS:
        headed = tags[j] in NOUN_TAGS or (headed and tags[j] != "VBG")
        j += 1
        if headed:
            ends.append(j)
    return ends, j


def chunk(tokens: Sequence[Token] | SentenceColumns) -> list[ChunkCandidate]:
    """Maximal-munch candidates for one sentence.

    Trademark symbols immediately following a candidate are absorbed into
    its span.
    """
    texts, tags, start, stop = _columns(tokens)
    out: list[ChunkCandidate] = []
    i = start
    while i < stop:
        ends, run_end = candidate_ends(tags, i, stop)
        if not ends:
            # no noun before `run_end`, so no start before it can find one either
            i = max(i + 1, run_end)
            continue
        end = ends[-1]
        while end < stop and texts[end] in TRADEMARK_TEXTS:
            end += 1
        out.append(ChunkCandidate(span=Span(i, end)))
        i = end
    return out


def _adjective_runs(tags: Sequence[str], start: int, stop: int, taken: set[int]) -> list[Span]:
    runs: list[Span] = []
    i = start
    while i < stop:
        if tags[i] == "JJ" and i not in taken:
            j = i
            while j < stop and tags[j] == "JJ" and j not in taken:
                j += 1
            runs.append(Span(i, j))
            i = j
        else:
            i += 1
    return runs


def separator_ends(texts: Sequence[str], pos: int, end: int) -> list[int]:
    """End positions of the coordination separators starting at `pos`, longest first.

    `texts` are token texts.  A separator is `,`, a conjunction, or `,`
    followed by a conjunction; it must lie before `end`.
    """
    if pos >= end:
        return []
    text = texts[pos].lower()
    if text == ",":
        if pos + 1 < end and texts[pos + 1].lower() in CONJUNCTIONS:
            return [pos + 2, pos + 1]
        return [pos + 1]
    return [pos + 1] if text in CONJUNCTIONS else []


def split_coordination(
    candidates: Sequence[ChunkCandidate], tokens: Sequence[Token] | SentenceColumns
) -> list[ChunkCandidate]:
    """Apply the coordination rules to the chunk output of one sentence.

    A coordination `X (, X)* (and|or) X` over candidates and bare adjective
    runs is split into one candidate per conjunct when every non-final
    conjunct carries a noun, and merged into a single spanning candidate
    when all non-final conjuncts are pure adjectives.  All members of a
    coordination come back with the `coordinated` flag set.
    """
    texts, tags, start, stop = _columns(tokens)
    taken = {i for c in candidates for i in range(c.span.start, c.span.end)}
    # units never share a start: adjective runs avoid candidate tokens
    units: list[tuple[Span, ChunkCandidate | None]] = [(c.span, c) for c in candidates]
    units += [(run, None) for run in _adjective_runs(tags, start, stop, taken)]
    units.sort(key=lambda u: u[0].start)

    out: list[ChunkCandidate] = []
    i = 0
    while i < len(units):
        # the chain of units joined by separators, starting at unit i
        j = i
        conj_last = False
        while j + 1 < len(units):
            gap_end = units[j + 1][0].start
            if gap_end not in separator_ends(texts, units[j][0].end, stop):
                break
            conj_last = texts[gap_end - 1].lower() in CONJUNCTIONS
            j += 1
        chain = units[i:j + 1]
        final = chain[-1][1]
        if j > i and conj_last and final is not None:
            if all(c is None for _, c in chain[:-1]):
                out.append(ChunkCandidate(Span(chain[0][0].start, final.span.end), coordinated=True))
            else:
                # every noun-bearing conjunct stands alone; bare adjective
                # runs in mixed chains are dropped
                out.extend(replace(c, coordinated=True) for _, c in chain if c is not None)
        else:
            # every later start in the chain ends in the same link and unit,
            # so none of them coordinates either
            out.extend(c for _, c in chain if c is not None)
        i = j + 1
    return out


def can_enclose(columns: SentenceColumns, span: Span) -> bool:
    """Whether a candidate of `split_coordination` over the sentence could strictly contain `span`.

    Such a candidate holds the token after `span` or the one before it, and
    holds only chunk-tag tokens, the trademark symbols it absorbed and, if
    merged from a coordination, the separators after its adjective runs.
    So only the few tokens next to `span` are read.
    """
    texts, tags, start, stop = columns
    after, before = span.end, span.start - 1
    if after < stop and (tags[after] in CHUNK_TAGS or texts[after] in TRADEMARK_TEXTS
                         or separator_ends(texts, after, stop)):
        return True
    if before >= start and (tags[before] in CHUNK_TAGS or texts[before] in TRADEMARK_TEXTS):
        return True
    # a separator is one or two tokens long
    return any(sep > start and tags[sep - 1] == "JJ" and span.start in separator_ends(texts, sep, stop)
               for sep in (before, before - 1))
