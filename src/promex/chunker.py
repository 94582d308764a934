"""Product-candidate chunking over POS tag sequences.

A candidate is a maximal token span whose tags match
``(VBG|NN*|JJ|CD)* (NN*)+ (NN*|JJ|CD)*`` where ``NN*`` ranges over the
noun tags; gerunds are admitted as premodifiers only, never as heads.
Matching is left-to-right maximal munch, so candidates never overlap.
Every function works in the token coordinates of the sentence it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .model import CONJUNCTIONS, NOUN_TAGS, TRADEMARK_TEXTS, Span, Token

CHUNK_TAGS = NOUN_TAGS | {"JJ", "CD", "VBG"}


@dataclass(frozen=True)
class ChunkCandidate:
    span: Span
    coordinated: bool = False


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


def span_matches_grammar(tags: Sequence[str]) -> bool:
    """True when a tag sequence parses as a product candidate."""
    return candidate_ends(tags, 0, len(tags))[0][-1:] == [len(tags)]


def chunk(tokens: Sequence[Token]) -> list[ChunkCandidate]:
    """Maximal-munch candidates for one sentence.

    Trademark symbols immediately following a candidate are absorbed into
    its span.
    """
    tags = [t.pos for t in tokens]
    out: list[ChunkCandidate] = []
    i, n = 0, len(tokens)
    while i < n:
        ends, run_end = candidate_ends(tags, i, n)
        if not ends:
            # no noun before `run_end`, so no start before it can find one either
            i = max(i + 1, run_end)
            continue
        end = ends[-1]
        while end < n and tokens[end].text in TRADEMARK_TEXTS:
            end += 1
        out.append(ChunkCandidate(span=Span(i, end)))
        i = end
    return out


def _adjective_runs(tokens: Sequence[Token], taken: set[int]) -> list[Span]:
    runs: list[Span] = []
    i, n = 0, len(tokens)
    while i < n:
        if tokens[i].pos == "JJ" and i not in taken:
            j = i
            while j < n and tokens[j].pos == "JJ" and j not in taken:
                j += 1
            runs.append(Span(i, j))
            i = j
        else:
            i += 1
    return runs


def separator_ends(tokens: Sequence[Token], pos: int, end: int) -> list[int]:
    """End positions of the coordination separators starting at `pos`, longest first.

    A separator is `,`, a conjunction, or `,` followed by a conjunction; it
    must lie before `end`.
    """
    if pos >= end:
        return []
    text = tokens[pos].text.lower()
    if text == ",":
        if pos + 1 < end and tokens[pos + 1].text.lower() in CONJUNCTIONS:
            return [pos + 2, pos + 1]
        return [pos + 1]
    return [pos + 1] if text in CONJUNCTIONS else []


def split_coordination(
    candidates: Sequence[ChunkCandidate], tokens: Sequence[Token]
) -> list[ChunkCandidate]:
    """Apply the coordination rules to chunk output.

    A coordination `X (, X)* (and|or) X` over candidates and bare adjective
    runs is split into one candidate per conjunct when every non-final
    conjunct carries a noun, and merged into a single spanning candidate
    when all non-final conjuncts are pure adjectives.  All members of a
    coordination come back with the `coordinated` flag set.
    """
    taken = {i for c in candidates for i in range(c.span.start, c.span.end)}
    # units never share a start: adjective runs avoid candidate tokens
    units: list[tuple[Span, ChunkCandidate | None]] = [(c.span, c) for c in candidates]
    units += [(run, None) for run in _adjective_runs(tokens, taken)]
    units.sort(key=lambda u: u[0].start)

    out: list[ChunkCandidate] = []
    i = 0
    while i < len(units):
        # the chain of units joined by separators, starting at unit i
        j = i
        conj_last = False
        while j + 1 < len(units):
            gap_end = units[j + 1][0].start
            if gap_end not in separator_ends(tokens, units[j][0].end, len(tokens)):
                break
            conj_last = tokens[gap_end - 1].text.lower() in CONJUNCTIONS
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
