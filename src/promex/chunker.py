"""Product-candidate chunking over POS tag sequences.

A candidate is a maximal token span whose tags match
``(VBG|NN*|JJ|CD)* (NN*)+ (NN*|JJ|CD)*`` where ``NN*`` ranges over the
noun tags; gerunds are admitted as premodifiers only, never as heads.
Matching is left-to-right maximal munch, so candidates never overlap.
Both functions work in the token coordinates of the sentence they are given.
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


def span_matches_grammar(tags: Sequence[str]) -> bool:
    """True when a tag sequence parses as a product candidate."""
    if not tags or any(t not in CHUNK_TAGS for t in tags):
        return False
    noun_positions = [i for i, t in enumerate(tags) if t in NOUN_TAGS]
    if not noun_positions:
        return False
    # a gerund after the last noun could only sit in the suffix, which bans VBG
    return all(t != "VBG" for t in tags[noun_positions[-1] + 1:])


def chunk(tokens: Sequence[Token]) -> list[ChunkCandidate]:
    """Maximal-munch candidates for one sentence.

    Trademark symbols immediately following a candidate are absorbed into
    its span.
    """
    tags = [t.pos for t in tokens]
    out: list[ChunkCandidate] = []
    i, n = 0, len(tokens)
    while i < n:
        j = i
        best = -1
        headed = False  # a noun seen and no gerund since
        while j < n and tags[j] in CHUNK_TAGS:
            if tags[j] in NOUN_TAGS:
                headed = True
            elif tags[j] == "VBG":
                headed = False
            j += 1
            if headed:
                best = j
        if best < 0:
            # no noun before `j`, so no start before `j` can find one either
            i = max(i + 1, j)
            continue
        end = best
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
