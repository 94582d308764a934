"""Seeded generator for the benchmark's workloads.

Each workload is a directory of input documents (raw text or
TOKEN<TAB>POS<TAB>BIO column files) plus a gold annotation layer in the
corpus format, written by this module alone so that the program under test
only ever sees generated files.  The same (workload, seed) pair always gives
the same bytes.

Raw text is laid out so that the program's tokenizer splits it exactly where
the generator did: words carry no internal punctuation, and the only glued
pieces are a trailing comma or period, the possessive clitic and the
trademark sign.  The gold layer therefore shares the program's token
sequence and sentence partition, which `agreement` requires.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# Vocabulary (tags are the Penn tags a column file carries)

GAZETTEER_COMPANIES = (
    ("Amazon",), ("Apple",), ("Audi",), ("BMW",), ("Dunlop",), ("Ford",),
    ("FUJIFILM",), ("Garmin",), ("Honeywell",), ("Intel",), ("Nike",),
    ("Parkifi",), ("Rambus",), ("Samsung",), ("Toyota",), ("VW",),
    ("Innocent", "Drinks"), ("Sensata", "Technologies"),
)
NAME_FIRST = ("Norvex", "Altamira", "Kestrel", "Brightwave", "Corvane", "Lumatek",
              "Ostara", "Pyrona", "Quillon", "Veridian", "Zentra", "Halcyon")
NAME_SECOND = ("Systems", "Dynamics", "Labs", "Robotics", "Devices", "Instruments",
               "Materials", "Networks")
# a period inside raw text would end the sentence, so dotted suffixes are column-only
RAW_SUFFIXES = ("Inc", "GmbH", "LLC", "AG", "Corp", "Ltd", "Plc")
COLUMN_SUFFIXES = RAW_SUFFIXES + ("Inc.", "Corp.", "Ltd.")

PRODUCT_MODIFIERS = {
    "pressure": "NN", "temperature": "NN", "industrial": "JJ", "wireless": "JJ",
    "automotive": "JJ", "digital": "JJ", "solar": "JJ", "hybrid": "JJ",
    "optical": "JJ", "smart": "JJ", "portable": "JJ", "compact": "JJ",
    "medical": "JJ", "thermal": "JJ", "electric": "JJ", "marine": "JJ",
    "charging": "VBG", "navigation": "NN", "security": "NN", "storage": "NN",
    "power": "NN", "audio": "NN", "fitness": "NN",
}
PRODUCT_HEADS = (
    "sensors", "controls", "valves", "pumps", "chargers", "batteries", "tires",
    "drones", "thermostats", "routers", "printers", "cameras", "monitors",
    "turbines", "brakes", "filters", "lenses", "smartphones", "tablets",
    "headphones", "displays", "processors", "chips", "modules", "actuators",
    "inverters", "scanners", "speakers", "trackers", "watches",
)
NAMED_FIRST = ("Aurora", "Nimbus", "Vortex", "Pixel", "Orion", "Zephyr", "Titan", "Echo")
NAMED_SECOND = ("Pro", "Max", "Mini", "Lite", "One", "X2", "S7", "Edge")

VERBS_3SG = ("develops", "produces", "creates", "makes", "manufactures", "offers",
             "launches", "releases")
VERBS_PL = ("develop", "produce", "create", "make", "manufacture", "offer",
            "launch", "release")
NOMS = ("producer", "maker", "vendor", "provider", "supplier", "manufacturer",
        "developer", "distributor")
AGENTS = ("developer", "manufacturer", "vendor", "producer", "supplier")
PASSIVES = ("produced", "created", "developed", "made", "manufactured", "offered")

FILLER_NOUNS = ("market", "demand", "revenue", "growth", "quarter", "region",
                "segment", "share", "price", "cost", "supply", "customer",
                "industry", "report", "forecast", "margin", "production",
                "investment", "outlook", "capacity")
FILLER_VERBS = ("increased", "declined", "improved", "remained", "expanded",
                "reached", "exceeded", "doubled", "slowed", "stabilized")
FILLER_ADJ = ("strong", "weak", "steady", "modest", "new", "large", "small", "high", "low")
FILLER_PREP = ("in", "during", "for", "over", "through", "between", "under")
FILLER_SUBJECTS = ("analysts", "investors", "suppliers", "regulators", "engineers")


# ---------------------------------------------------------------------------
# Sentence assembly

@dataclass
class Tok:
    text: str
    tag: str
    glued: bool = False  # no space before this token in raw text


@dataclass
class Sentence:
    tokens: list[Tok] = field(default_factory=list)
    companies: list[tuple[int, int]] = field(default_factory=list)
    products: list[tuple[int, int, str]] = field(default_factory=list)  # start, end, kind
    # (company index, product indices, trigger span or None)
    relations: list[tuple[int, tuple[int, ...], tuple[int, int] | None]] = field(default_factory=list)
    coordination: int = 0  # longest coordination in this sentence
    spam: bool = False

    def add(self, text: str, tag: str, glued: bool = False) -> int:
        self.tokens.append(Tok(text, tag, glued))
        return len(self.tokens) - 1

    def words(self, *pairs: tuple[str, str]) -> None:
        for text, tag in pairs:
            self.add(text, tag)


class Deck:
    """Deals a fixed multiset in shuffled order, reshuffling when it runs out.

    Structural choices (sizes, shapes, kinds, which mentions are annotated)
    come from decks shuffled by an RNG that depends on the workload alone,
    never on the seed.  Every seed's workload therefore has the same
    documents, sentence structures and mention counts in the same places,
    and seeds change the words but not the cost of a run.
    """

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.hand: list = []

    def draw(self):
        if not self.hand:
            self.hand = self.items[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


class _Writer:
    """Draws words from the seeded RNG `rng` and structure from decks
    shuffled by the seed-independent RNG `shape`."""

    def __init__(self, rng: random.Random, shape: random.Random, column: bool,
                 company_share: int) -> None:
        self.rng = rng
        self.column = column
        deck = lambda *items: Deck(shape, items)  # noqa: E731
        self.company_kind = deck(*["gazetteer"] * 5, "gazetteer-2", *["legal"] * 4)
        self.product_kind = deck("named", "named", "named-tm", *["nominal"] * 7)
        self.modifiers = deck(0, 1, 1, 2)
        self.stoplisted = deck(True, *[False] * 9)
        self.serial = deck(True, False)
        # subjects of filler clauses: `company_share` in twenty are companies
        self.subject = deck(*["company"] * company_share, *["noun"] * 6,
                            *["people"] * (14 - company_share))
        self.pps = deck(0, 1, 2)
        self.percent = deck(True, True, True, *[False] * 7)

    def company_words(self) -> tuple[str, ...]:
        rng = self.rng
        kind = self.company_kind.draw()
        if kind == "gazetteer":
            return rng.choice([c for c in GAZETTEER_COMPANIES if len(c) == 1])
        if kind == "gazetteer-2":
            return rng.choice([c for c in GAZETTEER_COMPANIES if len(c) == 2])
        suffixes = COLUMN_SUFFIXES if self.column else RAW_SUFFIXES
        return (rng.choice(NAME_FIRST), rng.choice(NAME_SECOND), rng.choice(suffixes))

    def company(self, s: Sentence) -> int:
        start = len(s.tokens)
        for word in self.company_words():
            s.add(word, "NNP")
        s.companies.append((start, len(s.tokens)))
        return len(s.companies) - 1

    def product(self, s: Sentence, plain: bool = False) -> int:
        """A product phrase; `plain` ones are common-noun phrases without extras."""
        rng = self.rng
        start = len(s.tokens)
        kind = "nominal" if plain else self.product_kind.draw()
        if kind != "nominal":
            s.add(rng.choice(NAMED_FIRST), "NNP")
            s.add(rng.choice(NAMED_SECOND), "NNP")
            if kind == "named-tm":
                s.add("™", "SYM", glued=True)
        else:
            if not plain and self.stoplisted.draw():
                # a filler adjective the validator's stoplist flags (rule V8)
                s.add(rng.choice(("new", "innovative", "leading")), "JJ")
            for mod in rng.sample(sorted(PRODUCT_MODIFIERS), self.modifiers.draw()):
                s.add(mod, PRODUCT_MODIFIERS[mod])
            s.add(rng.choice(PRODUCT_HEADS), "NNS")
        s.products.append((start, len(s.tokens), "Nominal" if kind == "nominal" else "Name"))
        return len(s.products) - 1

    def coordinate(self, s: Sentence, n: int, item) -> list:
        """`item, item, ... and item`, optionally with a serial comma."""
        out = []
        serial = self.serial.draw()
        for k in range(n):
            if k and k == n - 1:
                if serial and n > 2:
                    s.add(",", ",", glued=True)
                s.add(self.rng.choice(("and", "or")), "CC")
            elif k:
                s.add(",", ",", glued=True)
            out.append(item())
        s.coordination = max(s.coordination, n)
        return out

    def filler_clause(self, s: Sentence) -> None:
        rng = self.rng
        subject = self.subject.draw()
        if subject == "company":
            self.company(s)
        elif subject == "noun":
            s.words(("the", "DT"), (rng.choice(FILLER_NOUNS), "NN"))
        else:
            s.add(rng.choice(FILLER_SUBJECTS), "NNS")
        s.add(rng.choice(FILLER_VERBS), "VBD")
        s.words((rng.choice(("the", "a", "its", "their")), "DT"),
                (rng.choice(FILLER_ADJ), "JJ"), (rng.choice(FILLER_NOUNS), "NN"))
        for _ in range(self.pps.draw()):
            s.words((rng.choice(FILLER_PREP), "IN"), ("the", "DT"),
                    (rng.choice(FILLER_NOUNS), "NN"))
        if self.percent.draw():
            s.words((str(rng.randint(2, 95)), "CD"), ("percent", "NN"))

    def filler(self, length: int) -> Sentence:
        s = Sentence()
        self.filler_clause(s)
        while len(s.tokens) < length - 1:
            s.add(",", ",", glued=True)
            s.add(self.rng.choice(("and", "but")), "CC")
            self.filler_clause(s)
        s.add(".", ".", glued=True)
        return self.capitalize(s)

    @staticmethod
    def capitalize(s: Sentence) -> Sentence:
        first = s.tokens[0]
        first.text = first.text[:1].upper() + first.text[1:]
        return s

    def relational(self, shape: str, orgs: int, prods: int, trigs: int) -> Sentence:
        """One relational sentence shaped like pattern `shape`, with `orgs`
        companies, `prods` products and up to `trigs` coordinated triggers."""
        rng = self.rng
        s = Sentence()
        product = lambda: self.product(s)  # noqa: E731
        company = lambda: self.company(s)  # noqa: E731
        if shape == "P01":
            c = company()
            t = s.add("'s", "POS", glued=True)
            ps = [self.product(s)]
            s.words(("remained", "VBD"), ("popular", "JJ"), ("with", "IN"),
                    ("customers", "NNS"))
            rels = [(c, ps, (t, t + 1))]
        elif shape in ("P02", "P07", "P12"):
            ps = self.coordinate(s, prods, product)
            t0 = len(s.tokens)
            if shape == "P02":
                s.add("by", "IN")
            elif shape == "P12":
                s.add("from", "IN")
            else:
                s.words(("is", "VBZ") if prods == 1 else ("are", "VBP"), (rng.choice(PASSIVES), "VBN"),
                        ("by", "IN"))
                t0 += 1
            trigger = (t0, len(s.tokens))
            cs = self.coordinate(s, orgs, company)
            s.words(("remained", "VBD"), ("popular", "JJ"))
            rels = [(c, ps, trigger) for c in cs]
        elif shape == "P03":
            cs = self.coordinate(s, orgs, company)
            if orgs == 1:
                t = s.add(rng.choice(VERBS_3SG), "VBZ")
            else:
                t = s.add(rng.choice(VERBS_PL), "VBP")
            ps = self.coordinate(s, prods, product)
            rels = [(c, ps, (t, t + 1)) for c in cs]
        elif shape in ("P04", "P06"):
            cs = self.coordinate(s, orgs, company)
            if shape == "P04":
                s.words(("is", "VBZ") if orgs == 1 else ("are", "VBP"), ("a", "DT"))
            else:
                s.add(",", ",", glued=True)
                s.add("a", "DT")
            t = len(s.tokens)
            nouns = rng.sample(NOMS if shape == "P04" else AGENTS, min(trigs, 5))
            self.coordinate(s, len(nouns), lambda: s.add(nouns.pop(), "NN"))
            s.add("of", "IN")
            ps = self.coordinate(s, prods, product)
            if shape == "P06":
                s.add(",", ",", glued=True)
                s.words(("reported", "VBD"), ("strong", "JJ"), ("growth", "NN"))
            rels = [(c, ps, (t, t + 1)) for c in cs]
        elif shape == "P05":
            cs = self.coordinate(s, orgs, company)
            s.words(("is", "VBZ") if orgs == 1 else ("are", "VBP"), ("a", "DT"))
            ps = [self.product(s, plain=True)]
            t = s.add(rng.choice(("provider", "supplier")), "NN")
            rels = [(c, ps, (t, t + 1)) for c in cs]
        else:  # P10
            cs = self.coordinate(s, orgs, company)
            t = s.add(rng.choice(("offers", "provides", "supplies")), "VBZ")
            s.words(("a", "DT"), (rng.choice(("range", "portfolio", "line")), "NN"), ("of", "IN"))
            ps = self.coordinate(s, prods, product)
            rels = [(c, ps, (t, t + 1)) for c in cs]
        s.add(".", ".", glued=True)
        s.relations = [(c, tuple(ps), trig) for c, ps, trig in rels]
        return self.capitalize(s)

    def spam(self, length: int) -> Sentence:
        """A keyword-spam comma list of product phrases ending in one company."""
        s = Sentence(spam=True)
        s.words(("Buy", "VB"), ("cheap", "JJ"))
        n = 0
        while len(s.tokens) < length - 4:
            if n:
                s.add(",", ",", glued=True)
            self.product(s, plain=True)
            n += 1
        s.products.clear()  # nobody annotates spam
        s.add("from", "IN")
        self.company(s)
        s.add(".", ".", glued=True)
        s.coordination = n
        return s


# ---------------------------------------------------------------------------
# Workload specifications

@dataclass(frozen=True)
class Spec:
    why: str
    column: bool
    doc_sizes: str  # how the document sizes are drawn, for the manifest


# coordination-heavy is not listed in BENCHMARK.json: the repeated runs of a
# third workload at the same run length would not fit the time allowed for a
# full pass of the benchmark.  Run it by name.
SPECS = {
    "paper-corpus": Spec(
        "The everyday batch, documents shaped like the paper's corpus row (152 "
        "raw-text documents, ~4k sentences, ~130k tokens, one sentence in ten "
        "relational), a quarter of them: 38 documents, ~1k sentences, ~33k tokens. "
        "Per-sentence matching dominates and per-document parallelism can show.",
        column=False,
        doc_sizes="16-37 sentences of 17-42 (filler) or 9-25 (relational) tokens",
    ),
    "long-docs": Spec(
        "Column files of 1k to 8k tokens with human BIO mentions, run with --tagged: "
        "the per-document quadratic paths dominate, and the spread of lengths "
        "gives the scaling exponents.",
        column=True,
        doc_sizes="4 documents of 1k, 2k, 4k and 8k tokens",
    ),
    "coordination-heavy": Spec(
        "Raw text whose relational sentences carry long company, product and "
        "trigger coordinations (some past MAX_CONJUNCTS) plus one keyword-spam "
        "sentence: the backtracking matcher and split_coordination do the work.",
        column=False,
        doc_sizes="6 documents of 13 sentences, 8 of them relational, plus a spam page",
    ),
}

ALL_SHAPES = ("P01", "P02", "P03", "P03", "P04", "P05", "P06", "P07", "P10", "P12")
# the possessive shape has no coordination to stretch
COORDINATED_SHAPES = ("P02", "P03", "P04", "P05", "P06", "P07", "P10", "P12")
# A quarter of the paper's 152 documents: one pre-annotation of all 152 takes
# a sixth of a 60-s run or more, too few invocations for a steady median on a
# shared host.  Throughput per token does not depend on the document count.
PAPER_DOCUMENTS = 38
LONG_DOC_TOKENS = (1000, 2000, 4000, 8000)
SPAM_TOKENS = 4300


def _design(size: int, *choices: tuple) -> list[tuple]:
    """`size` combinations in which each value of each choice appears equally
    often.  The list is the same for every seed; seeds only deal it in
    another order, so every seed gets the same mix of sentence structures."""
    fixed = random.Random(0)
    columns = []
    for values in choices:
        column = [values[i % len(values)] for i in range(size)]
        fixed.shuffle(column)
        columns.append(column)
    return list(zip(*columns))


def _paper_corpus(rng: random.Random, shape: random.Random, column: bool) -> list[list[Sentence]]:
    w = _Writer(rng, shape, column, company_share=3)
    n_sentences = Deck(shape, range(16, 38))
    relational = Deck(shape, [True] + [False] * 9)
    filler_len = Deck(shape, range(17, 43))
    structure = Deck(shape, _design(100, ALL_SHAPES, (1, 1, 1, 2), (1, 1, 2, 3), (1,)))
    docs = []
    for _ in range(PAPER_DOCUMENTS):
        docs.append([
            w.relational(*structure.draw()) if relational.draw() else w.filler(filler_len.draw())
            for _ in range(n_sentences.draw())
        ])
    return docs


def _long_docs(rng: random.Random, shape: random.Random, column: bool) -> list[list[Sentence]]:
    w = _Writer(rng, shape, column, company_share=10)
    relational = Deck(shape, [True] * 3 + [False] * 7)
    filler_len = Deck(shape, range(14, 31))
    structure = Deck(shape, _design(90, ALL_SHAPES, (1, 1, 2), (1, 2, 3), (1,)))
    docs = []
    for target in LONG_DOC_TOKENS:
        doc: list[Sentence] = []
        size = 0
        while size < target:
            if relational.draw():
                doc.append(w.relational(*structure.draw()))
            else:
                doc.append(w.filler(filler_len.draw()))
            size += len(doc[-1].tokens)
        docs.append(doc)
    return docs


def _coordination_heavy(rng: random.Random, shape: random.Random, column: bool) -> list[list[Sentence]]:
    # 6 documents of 8 relational and 5 filler sentences, then one spam page
    w = _Writer(rng, shape, column, company_share=6)
    structure = Deck(shape, _design(48, COORDINATED_SHAPES, tuple(range(1, 9)),
                                    tuple(range(4, 36, 2)), (2, 3, 4, 5)))
    filler_len = Deck(shape, range(14, 31))
    docs = []
    for _ in range(6):
        doc = [w.relational(*structure.draw()) for _ in range(8)]
        doc += [w.filler(filler_len.draw()) for _ in range(5)]
        shape.shuffle(doc)
        docs.append(doc)
    docs.append([w.spam(SPAM_TOKENS)])
    return docs


_GENERATORS = {
    "paper-corpus": _paper_corpus,
    "long-docs": _long_docs,
    "coordination-heavy": _coordination_heavy,
}


# ---------------------------------------------------------------------------
# Rendering

def _raw_text(sentences: list[Sentence]) -> tuple[str, list[tuple[int, int]]]:
    """Document text plus the character offsets of every token."""
    parts: list[str] = []
    offsets: list[tuple[int, int]] = []
    cursor = 0
    for sentence in sentences:
        for tok in sentence.tokens:
            if parts and not tok.glued:
                parts.append(" ")
                cursor += 1
            parts.append(tok.text)
            offsets.append((cursor, cursor + len(tok.text)))
            cursor += len(tok.text)
    return "".join(parts) + "\n", offsets


def _joined_text(sentences: list[Sentence]) -> tuple[str, list[tuple[int, int]]]:
    """Space-joined token text, as the column reader builds it."""
    offsets = []
    cursor = 0
    for sentence in sentences:
        for tok in sentence.tokens:
            if offsets:
                cursor += 1
            offsets.append((cursor, cursor + len(tok.text)))
            cursor += len(tok.text)
    return " ".join(t.text for s in sentences for t in s.tokens), offsets


def _column_text(sentences: list[Sentence], annotated: Deck) -> str:
    lines = []
    for sentence in sentences:
        bio = ["O"] * len(sentence.tokens)
        spans = [(a, b, "Company") for a, b in sentence.companies]
        spans += [(a, b, "Product") for a, b, _ in sentence.products]
        for start, end, etype in sorted(spans):
            if annotated.draw():  # humans annotated half the mentions
                bio[start] = f"B-{etype}"
                for i in range(start + 1, end):
                    bio[i] = f"I-{etype}"
        lines += [f"{t.text}\t{t.tag}\t{b}" for t, b in zip(sentence.tokens, bio)]
        lines.append("")
    return "\n".join(lines)


def _gold_record(doc_id: str, sentences: list[Sentence], text: str,
                 offsets: list[tuple[int, int]]) -> dict:
    tokens, sents, entities, relations = [], [], [], []
    base = 0
    for sentence in sentences:
        sents.append({"start": base, "end": base + len(sentence.tokens)})
        for tok in sentence.tokens:
            start, end = offsets[len(tokens)]
            tokens.append({"text": tok.text, "pos": tok.tag, "start": start, "end": end})
        company_ids = []
        for a, b in sentence.companies:
            company_ids.append(f"g{len(entities)}")
            entities.append({"id": company_ids[-1], "type": "Company", "kind": "Name",
                             "start": base + a, "end": base + b, "provenance": "Human"})
        product_ids = []
        for a, b, kind in sentence.products:
            product_ids.append(f"g{len(entities)}")
            entities.append({"id": product_ids[-1], "type": "Product", "kind": kind,
                             "start": base + a, "end": base + b, "provenance": "Human"})
        for c, ps, trigger in sentence.relations:
            rel = {"id": f"gr{len(relations)}", "company": company_ids[c],
                   "products": [product_ids[p] for p in ps]}
            if trigger is not None:
                rel["trigger"] = {"start": base + trigger[0], "end": base + trigger[1]}
            rel["provenance"] = "Human"
            relations.append(rel)
        base += len(sentence.tokens)
    return {"doc_id": doc_id, "text": text, "tokens": tokens, "sentences": sents,
            "entities": entities, "relations": relations, "chains": []}


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def generate(name: str, seed: int, out_dir: Path) -> dict:
    """Write workload `name` for `seed` under `out_dir`; return its manifest.

    Layout: `out_dir/docs/` holds the inputs, `out_dir/gold.corpus` the gold
    layer and `out_dir/manifest.json` the workload's shape and purpose.
    """
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    shape = random.Random(name)  # structure: the same for every seed
    docs = _GENERATORS[name](rng, shape, spec.column)
    annotated = Deck(shape, (True, False))

    docs_dir = out_dir / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    for stale in docs_dir.iterdir():
        stale.unlink()
    gold_lines = [_dump({"schema_version": "1.0"})]
    doc_tokens = {}
    for i, sentences in enumerate(docs):
        doc_id = f"doc-{i:03d}"
        if spec.column:
            (docs_dir / f"{doc_id}.conll").write_text(_column_text(sentences, annotated), encoding="utf-8")
            text, offsets = _joined_text(sentences)
        else:
            text, offsets = _raw_text(sentences)
            (docs_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        gold_lines.append(_dump(_gold_record(doc_id, sentences, text, offsets)))
        doc_tokens[doc_id] = len(offsets)
    (out_dir / "gold.corpus").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")

    sentences = [s for doc in docs for s in doc]
    ordinary = [s.coordination for s in sentences if not s.spam]
    manifest = {
        "workload": name,
        "seed": seed,
        "why": spec.why,
        "format": "column" if spec.column else "raw",
        "doc_sizes": spec.doc_sizes,
        "documents": len(docs),
        "sentences": len(sentences),
        "tokens": sum(doc_tokens.values()),
        "words": sum(1 for s in sentences for t in s.tokens if any(c.isalnum() for c in t.text)),
        "relational_share": round(sum(1 for s in sentences if s.relations) / len(sentences), 4),
        "longest_coordination": max(ordinary, default=0),
        "spam_sentence_tokens": sum(len(s.tokens) for s in sentences if s.spam),
        "doc_tokens": doc_tokens,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest
