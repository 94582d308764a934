"""Bootstrap pattern compilation and matching.

Base patterns are declared in a small line-oriented language (see
`parse_config`), expanded into fully literal surface patterns, compiled
into one trie of elements and matched against tagged sentences that
already carry company mentions and product chunk candidates.  Matches come
back as spans; `pipeline.preannotate_document` turns them into product and
CompanyProvidesProduct relation mentions.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .chunker import candidate_ends, separator_ends
from .inflect import inflections
from .model import (
    Document,
    EntityMention,
    EntityType,
    POSSESSIVE_CLITICS,
    RelationMention,
    Sentence,
    Span,
    TRADEMARK_TEXTS,
)

_EXACT_LITERALS = POSSESSIVE_CLITICS | TRADEMARK_TEXTS
NESTED_PATTERN_ID = "nested"

# Longest coordination the matcher will consume.  Keyword-spam pages carry
# comma lists with thousands of conjuncts; the cap bounds recursion depth
# while staying far above any legitimate product enumeration.
MAX_CONJUNCTS = 25

_Conjunct = TypeVar("_Conjunct")


class PatternConfigError(ValueError):
    pass


class PatternSyntaxError(PatternConfigError):
    def __init__(self, line_no: int, detail: str) -> None:
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


class UnknownSetReference(PatternConfigError):
    def __init__(self, name: str, line_no: int) -> None:
        super().__init__(f"line {line_no}: unknown set @{name}")
        self.name = name


class DuplicatePatternId(PatternConfigError):
    def __init__(self, pattern_id: str) -> None:
        super().__init__(f"duplicate pattern id {pattern_id!r}")
        self.pattern_id = pattern_id


class MultipleTriggers(PatternConfigError):
    def __init__(self, pattern_id: str) -> None:
        super().__init__(f"pattern {pattern_id!r} declares more than one trigger element")
        self.pattern_id = pattern_id


# ---------------------------------------------------------------------------
# Base pattern model

@dataclass(frozen=True)
class Alt:
    """One alternative of an alternation: a word sequence, optionally inflected."""

    words: tuple[str, ...]
    inflect: bool = False


@dataclass(frozen=True)
class OrgSlot:
    pass


@dataclass(frozen=True)
class ProductSlot:
    pass


@dataclass(frozen=True)
class PossessiveTrigger:
    pass


@dataclass(frozen=True)
class TriggerSlot:
    alternatives: tuple[Alt, ...]


@dataclass(frozen=True)
class LiteralSlot:
    alternatives: tuple[Alt, ...]


@dataclass(frozen=True)
class OptionalGroup:
    elements: tuple["Element", ...]


Element = OrgSlot | ProductSlot | PossessiveTrigger | TriggerSlot | LiteralSlot | OptionalGroup

# the one table of slot names, read by the parser and by `SurfacePattern.render`
_SLOTS = {"<ORG>": OrgSlot, "<PRO>": ProductSlot, "<POSS>": PossessiveTrigger}
_SLOT_NAMES = {slot: name for name, slot in _SLOTS.items()}


@dataclass(frozen=True)
class BasePattern:
    pattern_id: str
    elements: tuple[Element, ...]


@dataclass(frozen=True)
class PatternConfig:
    patterns: tuple[BasePattern, ...] = ()


# ---------------------------------------------------------------------------
# Surface pattern model

@dataclass(frozen=True)
class Words:
    words: tuple[str, ...]


@dataclass(frozen=True)
class TriggerLiteral:
    words: tuple[str, ...]
    # distinct members of the base pattern's trigger alternation, longest
    # first, used to recognise coordinated trigger lists ("a developer,
    # manufacturer and vendor of")
    coordination_set: tuple[tuple[str, ...], ...]


SurfaceElement = OrgSlot | ProductSlot | PossessiveTrigger | TriggerLiteral | Words


@dataclass(frozen=True)
class SurfacePattern:
    surface_id: str
    base_id: str
    elements: tuple[SurfaceElement, ...]

    def render(self) -> str:
        parts = []
        for el in self.elements:
            if isinstance(el, TriggerLiteral):
                parts.append("<TRIG:%s>" % " ".join(el.words))
            elif isinstance(el, Words):
                parts.append(" ".join(el.words))
            else:
                parts.append(_SLOT_NAMES[type(el)])
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Config parsing

_SET_LINE = re.compile(r"^set\s+(\w+)\s*=\s*(.+)$")
_PATTERN_LINE = re.compile(r"^(\S+?):\s+(.+)$")
# opening bracket of a slot or alternation -> its closing bracket and name
_CLOSERS = {"<": (">", "<...> element"), "{": ("}", "{...} alternation")}


def _parse_alternation(body: str, sets: dict[str, tuple[Alt, ...]], line_no: int) -> tuple[Alt, ...]:
    alts: list[Alt] = []
    for raw in body.split("|"):
        raw = raw.strip()
        if not raw:
            raise PatternSyntaxError(line_no, "empty alternative in alternation")
        if raw.startswith("@"):
            name = raw[1:]
            if name not in sets:
                raise UnknownSetReference(name, line_no)
            alts.extend(sets[name])
            continue
        inflect = raw.startswith("~")
        if inflect:
            raw = raw[1:]
            if raw.startswith("@"):
                raise PatternSyntaxError(
                    line_no, "apply ~ to the words inside the set, not to the set reference"
                )
        words = tuple(raw.split())
        if not words:
            raise PatternSyntaxError(line_no, "empty alternative in alternation")
        if inflect and len(words) != 1:
            raise PatternSyntaxError(line_no, "verb inflection applies to single words only")
        alts.append(Alt(words=words, inflect=inflect))
    return tuple(alts)


def _tokenize_elements(body: str, line_no: int) -> list[str]:
    """Split a pattern body into raw element strings, honouring brackets."""
    out: list[str] = []
    i, n = 0, len(body)
    while i < n:
        c = body[i]
        if c.isspace():
            i += 1
        elif c in _CLOSERS:
            close, name = _CLOSERS[c]
            j = body.find(close, i)
            if j < 0:
                raise PatternSyntaxError(line_no, f"unterminated {name}")
            out.append(body[i:j + 1])
            i = j + 1
        elif c == "[":
            depth = 0
            j = i
            while j < n:
                if body[j] == "[":
                    depth += 1
                elif body[j] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= n:
                raise PatternSyntaxError(line_no, "unterminated [...] group")
            out.append(body[i:j + 1])
            i = j + 1
        elif c == "]":
            raise PatternSyntaxError(line_no, "unbalanced ']'")
        else:
            j = i
            while j < n and not body[j].isspace():
                j += 1
            out.append(body[i:j])
            i = j
    return out


def _parse_element(raw: str, sets: dict[str, tuple[Alt, ...]], line_no: int, *, in_optional: bool) -> Element:
    is_trigger = raw.startswith("<TRIG:") and raw.endswith(">")
    if in_optional and (is_trigger or raw in _SLOTS):
        name = "trigger" if is_trigger else raw
        raise PatternSyntaxError(line_no, f"{name} may not appear inside an optional group")
    if raw in _SLOTS:
        return _SLOTS[raw]()
    if is_trigger:
        return TriggerSlot(_parse_alternation(raw[6:-1], sets, line_no))
    if raw.startswith("<"):
        raise PatternSyntaxError(line_no, f"unknown slot {raw!r}")
    if raw.startswith("[") and raw.endswith("]"):
        inner = _tokenize_elements(raw[1:-1], line_no)
        if not inner:
            raise PatternSyntaxError(line_no, "empty optional group")
        elements = tuple(
            _parse_element(item, sets, line_no, in_optional=True) for item in inner
        )
        return OptionalGroup(elements)
    # a bare word, ~verb or @set reads like a one-alternative {...}
    body = raw[1:-1] if raw.startswith("{") and raw.endswith("}") else raw
    return LiteralSlot(_parse_alternation(body, sets, line_no))


def parse_config(text: str) -> PatternConfig:
    """Parse a pattern declaration file into a validated PatternConfig."""
    sets: dict[str, tuple[Alt, ...]] = {}
    patterns: list[BasePattern] = []
    seen: set[str] = set()

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SET_LINE.match(line)
        if m:
            name, body = m.group(1), m.group(2)
            if name in sets:
                raise PatternSyntaxError(line_no, f"set {name!r} redefined")
            sets[name] = _parse_alternation(body, sets, line_no)
            continue
        m = _PATTERN_LINE.match(line)
        if not m:
            raise PatternSyntaxError(line_no, "expected 'set name = ...' or 'ID: ELEMENT+'")
        pattern_id, body = m.group(1), m.group(2)
        if pattern_id in seen:
            raise DuplicatePatternId(pattern_id)
        seen.add(pattern_id)
        elements = tuple(
            _parse_element(item, sets, line_no, in_optional=False)
            for item in _tokenize_elements(body, line_no)
        )
        triggers = sum(isinstance(e, (TriggerSlot, PossessiveTrigger)) for e in elements)
        if triggers > 1:
            raise MultipleTriggers(pattern_id)
        if triggers == 0:
            raise PatternSyntaxError(line_no, f"pattern {pattern_id!r} declares no trigger element")
        for name in ("<ORG>", "<PRO>"):
            if sum(isinstance(e, _SLOTS[name]) for e in elements) != 1:
                raise PatternSyntaxError(line_no, f"pattern {pattern_id!r} must declare exactly one {name}")
        patterns.append(BasePattern(pattern_id, elements))

    return PatternConfig(patterns=tuple(patterns))


# ---------------------------------------------------------------------------
# Expansion

def _alt_variants(alt: Alt) -> list[tuple[str, ...]]:
    if alt.inflect:
        return [(form,) for form in inflections(alt.words[0])]
    return [alt.words]


def _element_variants(el: Element) -> list[tuple[SurfaceElement, ...]]:
    if type(el) in _SLOT_NAMES:
        return [(el,)]
    if isinstance(el, TriggerSlot):
        members = tuple(sorted(
            {variant for alt in el.alternatives for variant in _alt_variants(alt)},
            key=lambda words: (-len(words), words),
        ))
        return [(TriggerLiteral(words=v, coordination_set=members),) for v in members]
    if isinstance(el, LiteralSlot):
        return [
            (Words(words=v),)
            for alt in el.alternatives
            for v in _alt_variants(alt)
        ]
    if isinstance(el, OptionalGroup):
        inner = [_element_variants(e) for e in el.elements]
        present = [
            tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*inner)
        ]
        return [()] + present
    raise TypeError(el)


_SORT_RANK = {OrgSlot: 0, ProductSlot: 1, PossessiveTrigger: 2, TriggerLiteral: 3, Words: 4}


def _sort_key(elements: tuple[SurfaceElement, ...]) -> tuple:
    return tuple((_SORT_RANK[type(el)], getattr(el, "words", ())) for el in elements)


def expand(config: PatternConfig) -> list[SurfacePattern]:
    """Expand every base pattern into its surface patterns.

    Output order is deterministic: config order, then lexicographic over
    the resolved element sequences.  Duplicates within a base pattern are
    removed.
    """
    surfaces: list[SurfacePattern] = []
    for pattern in config.patterns:
        combos = itertools.product(*(_element_variants(el) for el in pattern.elements))
        variants = {tuple(itertools.chain.from_iterable(c)) for c in combos}
        for i, elements in enumerate(sorted(variants, key=_sort_key)):
            surfaces.append(
                SurfacePattern(
                    surface_id=f"{pattern.pattern_id}#{i:03d}",
                    base_id=pattern.pattern_id,
                    elements=elements,
                )
            )
    return surfaces


# ---------------------------------------------------------------------------
# Matching

@functools.cache
def _keys(words: tuple[str, ...]) -> tuple[tuple[str, bool], ...]:
    """Literal words as compared: lowercased, but clitics and trademarks exactly as written."""
    return tuple((w, True) if w in _EXACT_LITERALS else (w.lower(), False) for w in words)


@dataclass(eq=False)
class _Node:
    """A trie node: one element, or (`element` None) the end of `surfaces`."""

    element: SurfaceElement | None
    # lowercased words a literal or trigger element can begin with; None for wordless slots and ends
    firsts: frozenset[str] | None = None
    children: dict[SurfaceElement | None, _Node] = field(default_factory=dict)
    surfaces: list[SurfacePattern] = field(default_factory=list)
    size: int = 0  # surfaces ending at or below this node


_compiled: tuple[tuple[SurfacePattern, ...], _Node] = ((), _Node(None))


def _trie(surface_patterns: Sequence[SurfacePattern]) -> _Node:
    """The root of the inventory's trie of elements, built again only when the inventory changes."""
    global _compiled
    cached, root = _compiled
    if (surfaces := tuple(surface_patterns)) != cached:
        root = _Node(None)
        for surface in surfaces:
            node = root
            for el in (*surface.elements, None):
                node.size += 1
                if el not in node.children:
                    starts = [getattr(el, "words", ()), *getattr(el, "coordination_set", ())]
                    firsts = frozenset(w[0].lower() for w in starts) if all(starts) else None
                    node.children[el] = _Node(el, firsts)
                node = node.children[el]
            node.size += 1
            node.surfaces.append(surface)
    # an equal inventory parsed again takes over, so that next calls compare by identity
    _compiled = (surfaces, root)
    return root


class _SentenceContext:
    def __init__(self, doc: Document, sentence: Sentence, orgs: Sequence[EntityMention],
                 candidates: Sequence[Span]) -> None:
        self.tokens = doc.tokens
        self.start, self.end = sentence.span.start, sentence.span.end
        # token texts and POS tags of this sentence only: index with `pos - self.start`
        self.texts = [t.text for t in self.tokens[self.start:self.end]]
        self.lower = [text.lower() for text in self.texts]
        self.tags = [t.pos for t in self.tokens[self.start:self.end]]
        # candidates never overlap, so one span covers any given position
        self.covering: dict[int, Span] = {}
        for cand in candidates:
            for i in range(cand.start, cand.end):
                self.covering[i] = cand
        # first conjuncts as (conjunct, end): longest first, company ties by id
        self._org_firsts: dict[int, list[tuple[EntityMention, int]]] = {}
        for mention in sorted(orgs, key=lambda m: (-m.span.end, m.mention_id)):
            self._org_firsts.setdefault(mention.span.start, []).append((mention, mention.span.end))
        self._product_firsts: dict[int, list[tuple[Span, int]]] = {}
        # (pos, coordination set) -> conjuncts of the maximal chain at pos, and its end
        self._chains: dict[tuple[int, tuple], tuple[list[tuple[tuple[str, ...], Span]], int]] = {}
        # walk state: surfaces matched at or below each node from the anchor, and the matches
        self.done: dict[_Node, int] = {}
        self.hits: list[tuple[SurfacePattern, list[EntityMention], list[Span], Span | None]] = []

    def literal_at(self, pos: int, words: tuple[str, ...]) -> int | None:
        if pos + len(words) > self.end:
            return None
        for off, (key, exact) in enumerate(_keys(words)):
            if (self.texts if exact else self.lower)[pos - self.start + off] != key:
                return None
        return pos + len(words)

    def coordinations(
        self,
        pos: int,
        firsts: Callable[[int], Sequence[tuple[_Conjunct, int]]],
        depth: int = MAX_CONJUNCTS,
    ) -> Iterator[tuple[list[_Conjunct], int]]:
        """Coordinations of `firsts` conjuncts starting at `pos`, larger parses first."""
        if depth <= 0:
            return
        for first, first_end in firsts(pos):
            for sep_end in separator_ends(self.tokens, first_end, self.end):
                for rest, rest_end in self.coordinations(sep_end, firsts, depth - 1):
                    yield [first, *rest], rest_end
            yield [first], first_end

    def org_firsts(self, pos: int) -> list[tuple[EntityMention, int]]:
        return self._org_firsts.get(pos, [])

    def product_firsts(self, pos: int) -> list[tuple[Span, int]]:
        """Possible first-conjunct spans at `pos`, longest first."""
        firsts = self._product_firsts.get(pos)
        if firsts is None:
            cand, start = self.covering.get(pos), self.start
            # grammatical prefixes from `pos`, and the candidate itself when it starts here
            ends = [start + q for q in candidate_ends(self.tags, pos - start, cand.end - start)[0]] if cand else []
            if cand and cand.start == pos and ends[-1:] != [cand.end]:
                ends.append(cand.end)
            firsts = self._product_firsts[pos] = [(Span(pos, q), q) for q in reversed(ends)]
        return firsts

    def member_at(self, pos: int, trig: TriggerLiteral) -> tuple[tuple[str, ...], int] | None:
        """The longest member of the trigger's coordination set at `pos`, with its end."""
        for words in trig.coordination_set:
            end = self.literal_at(pos, words)
            if end is not None:
                return words, end
        return None

    def trigger_matches(self, pos: int, trig: TriggerLiteral) -> list[tuple[Span, int]]:
        """(trigger span, end) options for a trigger element at `pos`.

        Besides the plain literal, a coordination of members of the base
        trigger alternation is consumed as a whole provided the designated
        literal is one of its conjuncts.
        """
        # maximal coordination parse, each separator leading to the next
        # member; every literal of one base trigger shares it
        key = (pos, trig.coordination_set)
        if key not in self._chains:
            conjuncts: list[tuple[tuple[str, ...], Span]] = []
            start, end = pos, pos
            hit = self.member_at(pos, trig)
            while hit is not None:
                words, end = hit
                conjuncts.append((words, Span(start, end)))
                hit = None
                for start in separator_ends(self.tokens, end, self.end):
                    hit = self.member_at(start, trig)
                    if hit is not None:
                        break
            self._chains[key] = (conjuncts, end)
        conjuncts, end = self._chains[key]
        options = [(span, end) for words, span in conjuncts if words == trig.words][:1]
        plain_end = self.literal_at(pos, trig.words)
        if plain_end is not None and (Span(pos, plain_end), plain_end) not in options:
            options.append((Span(pos, plain_end), plain_end))
        return options

    def step(self, node: _Node, pos: int, companies: list[EntityMention], products: list[Span],
             trigger: Span | None) -> int:
        """Match `node`'s element at `pos`, then the elements below it.

        Each option of the element, in order, is followed into every child
        that can begin where the option ends and has a surface below it not
        yet matched from this anchor.  Returns the number of surfaces newly
        matched at or below `node`.
        """
        done, el = self.done, node.element
        if el is None:
            self.hits.extend((s, companies, products, trigger) for s in node.surfaces)
            done[node] = node.size
            return node.size
        options: Iterable[tuple[int, list[EntityMention], list[Span], Span | None]] = ()
        if isinstance(el, OrgSlot):
            options = ((e, c, products, trigger) for c, e in self.coordinations(pos, self.org_firsts))
        elif isinstance(el, ProductSlot):
            options = ((e, companies, p, trigger) for p, e in self.coordinations(pos, self.product_firsts))
        elif isinstance(el, PossessiveTrigger):
            if pos < self.end and self.tokens[pos].pos == "POS" and self.tokens[pos].text in POSSESSIVE_CLITICS:
                options = [(pos + 1, companies, products, Span(pos, pos + 1))]
        elif isinstance(el, TriggerLiteral):
            options = [(e, companies, products, t) for t, e in self.trigger_matches(pos, el)]
        elif (end := self.literal_at(pos, el.words)) is not None:
            options = [(end, companies, products, trigger)]
        found = before = done.get(node, 0)
        for end, *state in options:
            word = self.lower[end - self.start] if end < self.end else None
            for child in node.children.values():
                if (child.firsts is None or word in child.firsts) and done.get(child, 0) < child.size:
                    found += self.step(child, end, *state)
            if found == node.size:
                break
        done[node] = found
        return found - before


# (company, product spans, trigger span, base pattern id)
Match = tuple[EntityMention, tuple[Span, ...], Span | None, str]


@dataclass(frozen=True)
class SentenceMatches:
    relations: tuple[Match, ...]


def match_sentence(
    doc: Document,
    sentence: Sentence,
    org_mentions: Sequence[EntityMention],
    candidates: Sequence[Span],
    surface_patterns: Sequence[SurfacePattern],
) -> SentenceMatches:
    """Match every surface pattern against one sentence, returning spans.

    `org_mentions` and the product chunk `candidates` are taken as given:
    they must be this sentence's, in document coordinates
    (`preannotate_document` groups them with `by_sentence`).

    Each anchor takes one walk of the inventory's trie, so a coordination
    is parsed once for all the surfaces that share the elements before it.
    One match is kept per (surface pattern, anchor position): the first in
    option order (larger coordinations first, a trigger chain before the
    plain trigger), as a search of that surface alone would find it.
    Literals compare case-insensitively, possessive clitics and trademark
    symbols exactly.  Matches from different patterns may overlap; they come
    in order of anchor, surface id and company.
    """
    orgs = sorted(org_mentions, key=lambda m: m.span)
    ctx = _SentenceContext(doc, sentence, orgs, candidates)

    # (anchor, surface_id, company order) -> raw match tuples
    raw: list[tuple[int, str, int, EntityMention, tuple[Span, ...], Span | None, str]] = []
    for node in _trie(surface_patterns).children.values():
        first = node.element
        if isinstance(first, OrgSlot):
            anchors = [m.span.start for m in orgs]
        elif isinstance(first, ProductSlot):
            anchors = [c.start for c in candidates]
        else:
            anchors = list(range(sentence.span.start, sentence.span.end))
        for anchor in dict.fromkeys(anchors):
            ctx.done, ctx.hits = {}, []
            ctx.step(node, anchor, [], [], None)
            for surface, companies, product_spans, trigger in ctx.hits:
                raw.extend((anchor, surface.surface_id, k, company, tuple(product_spans), trigger, surface.base_id)
                           for k, company in enumerate(companies))

    # nested company-in-candidate rule: a company mention strictly inside a
    # product candidate with no possessive token reads as a relation; only
    # the candidate covering a company's first token can hold it
    possessive = {cand for i, cand in ctx.covering.items() if doc.tokens[i].pos == "POS"}
    for org in orgs:
        cand = ctx.covering.get(org.span.start)
        if cand is not None and cand not in possessive and cand.contains(org.span) and cand != org.span:
            raw.append((cand.start, NESTED_PATTERN_ID, 0, org, (cand,), None, NESTED_PATTERN_ID))

    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return SentenceMatches(relations=tuple(r[3:] for r in raw))


def fan_out_triggers(sentence_matches: Sequence[RelationMention]) -> list[RelationMention]:
    """One relation per distinct trigger of a (company, products) pair.

    Matching already emits one relation per trigger, so this reduces to
    removing relations with the same `key` as an earlier one.
    """
    first: dict[tuple, RelationMention] = {}
    for rel in sentence_matches:
        first.setdefault(rel.key, rel)
    return list(first.values())


def resolve_acronyms(relations: Sequence[RelationMention], doc: Document) -> list[RelationMention]:
    """Re-point relations from acronym company mentions to their chain source.

    When a relation's company is an Identity target whose chain source is a
    longer same-sentence Company name mention, the relation attaches to the
    source; duplicates created by the move are dropped.
    """
    by_id = {e.mention_id: e for e in doc.entities}
    source_of = {target: by_id.get(chain.source) for chain in doc.chains for target in chain.targets}

    def repoint(rel: RelationMention) -> RelationMention:
        company = by_id.get(rel.company)
        source = source_of.get(rel.company)
        if (
            company is not None
            and source is not None
            and source.entity_type is EntityType.COMPANY
            and len(source.span) > len(company.span)
            and doc.sentence_index(source.span.start) == doc.sentence_index(company.span.start)
        ):
            return replace(rel, company=source.mention_id)
        return rel

    return fan_out_triggers([repoint(rel) for rel in relations])
