"""Spans around promex's public functions, recorded from outside the program.

`LAYERS` maps each layer span name to the function it wraps.  `Tracer.install`
replaces every binding of that function in the loaded `promex.*` modules (the
places its callers look it up) with a wrapper that records one span per call,
and `Tracer.uninstall` puts the originals back.  A wrapped name that no longer
exists is reported in `Tracer.missing` instead of failing the run.

Spans stay in memory as `[name, start, end, parent, doc_id]` lists and are
written out as JSON once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def _doc_of_arg(index: int, key: str = "doc") -> Callable:
    """Doc id of the Document passed as positional `index` or keyword `key`."""
    def get(args: tuple, kwargs: dict) -> str | None:
        doc = args[index] if len(args) > index else kwargs.get(key)
        return getattr(doc, "doc_id", None)
    return get


def _doc_id_arg(index: int) -> Callable:
    """Doc id passed as a plain string, positionally or as `doc_id=`."""
    def get(args: tuple, kwargs: dict) -> str | None:
        value = args[index] if len(args) > index else kwargs.get("doc_id")
        return value if isinstance(value, str) else None
    return get


def _written_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    sink = args[1] if len(args) > 1 else kwargs["sink"]
    return {"corpus_io.bytes_written": sink.tell()}


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # a function, or `Class.method` for a classmethod
    doc_id: Callable | None = None
    count: Callable | None = None


LAYERS: dict[str, Layer] = {
    "ingest.document_from_text": Layer("promex.ingest", "document_from_text", _doc_id_arg(1)),
    "ingest.read_tagged": Layer("promex.ingest", "read_tagged", _doc_id_arg(1)),
    "ingest.recognize_orgs": Layer(
        "promex.ingest", "recognize_orgs", _doc_of_arg(0),
        lambda a, k, r: {"ingest.orgs_found": len(r)}),
    "chunker.chunk": Layer("promex.chunker", "chunk"),
    "chunker.split_coordination": Layer(
        "promex.chunker", "split_coordination", None,
        lambda a, k, r: {"chunker.candidates": len(r)}),
    "patterns.match_sentence": Layer(
        "promex.patterns", "match_sentence", _doc_of_arg(0),
        lambda a, k, r: {"patterns.raw_matches": len(r.relations)}),
    "patterns.fan_out_triggers": Layer("promex.patterns", "fan_out_triggers"),
    "patterns.resolve_acronyms": Layer("promex.patterns", "resolve_acronyms", _doc_of_arg(1)),
    "model.make_document": Layer("promex.model", "make_document", _doc_id_arg(0)),
    "model.attach_annotations": Layer(
        "promex.model", "attach_annotations", _doc_of_arg(0),
        lambda a, k, r: {"model.attach_annotations.mentions_checked": len(r.entities)}),
    "pipeline.preannotate_document": Layer(
        "promex.pipeline", "preannotate_document", _doc_of_arg(0),
        lambda a, k, r: {"pipeline.relations_kept":
                         len(r.document.relations) - len(a[0].relations)}),
    "corpus_io.write_corpus": Layer("promex.corpus_io", "write_corpus", None, _written_bytes),
    "corpus_io.read_corpus": Layer("promex.corpus_io", "read_corpus"),
    "validator.validate": Layer(
        "promex.validator", "validate", _doc_of_arg(0),
        lambda a, k, r: {"validator.violations": len(r)}),
    "analytics.stats": Layer("promex.analytics", "CorpusStats.from_corpus"),
    "analytics.agreement": Layer("promex.analytics", "agreement"),
    "analytics.pattern_yield": Layer("promex.analytics", "pattern_yield"),
}

# Layers whose work is done once per document; each gets a scaling exponent.
PER_DOCUMENT_LAYERS = ("ingest", "chunker", "patterns", "pipeline", "model", "validator")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, doc_id]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, doc_id: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if doc_id is None and parent is not None:
            doc_id = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, doc_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, layer.doc_id(args, kwargs) if layer.doc_id else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if layer.count is not None:
                try:
                    self.counts.update(layer.count(args, kwargs, result))
                except Exception:  # a counter must never break the traced call
                    self.counts["trace.count_errors"] += 1
            return result
        return traced

    # -- patching -----------------------------------------------------------

    def install(self, layers: dict[str, Layer] = LAYERS) -> None:
        """Wrap every layer function wherever a loaded promex module binds it."""
        for name, layer in layers.items():
            try:
                module = importlib.import_module(layer.module)
                owner, attr = module, layer.attr
                if "." in attr:
                    cls_name, attr = attr.split(".", 1)
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(original, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, layer, original.__func__)))
                continue
            wrapper = self._wrap(name, layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "promex" or mod_name.startswith("promex."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "doc_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Span arithmetic

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 if undefined."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, doc_tokens: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed by metric name."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    per_doc: dict[str, Counter] = defaultdict(Counter)
    doc_ms = []
    for (name, start, end, _, doc_id), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
        module = name.split(".", 1)[0]
        if module in PER_DOCUMENT_LAYERS and doc_id in doc_tokens:
            per_doc[module][doc_id] += own
        if name == "pipeline.preannotate_document":
            doc_ms.append((end - start) * 1000.0)

    out: dict[str, float] = {}
    for name in list(LAYERS) + [n for n in self_s if n.startswith("cli.")]:
        out[f"{name}.self_s"] = self_s[name]
    out["patterns.match_sentence.calls"] = calls["patterns.match_sentence"]
    out["model.attach_annotations.calls"] = calls["model.attach_annotations"]
    for key in ("ingest.orgs_found", "chunker.candidates", "patterns.raw_matches",
                "model.attach_annotations.mentions_checked", "pipeline.relations_kept",
                "corpus_io.bytes_written", "validator.violations"):
        out[key] = tracer.counts[key]
    out["pipeline.doc_ms_p50"] = _percentile(doc_ms, 0.5)
    out["pipeline.doc_ms_p90"] = _percentile(doc_ms, 0.9)
    out["pipeline.doc_samples"] = len(doc_ms)
    raw = tracer.counts["patterns.raw_matches"]
    out["pipeline.kept_ratio"] = tracer.counts["pipeline.relations_kept"] / raw if raw else 0.0
    for module in PER_DOCUMENT_LAYERS:
        points = [(doc_tokens[d], t) for d, t in per_doc[module].items()]
        out[f"{module}.scaling_exp"] = scaling_exponent(points)
    out["trace.spans"] = len(spans)
    out["trace.missing_layers"] = len(tracer.missing)
    out["trace.count_errors"] = tracer.counts["trace.count_errors"]
    return out
