"""Tests for the benchmark itself: generator, tracer and output checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from promex import corpus_io  # noqa: E402
from promex.ingest import document_from_text, read_tagged  # noqa: E402


def _tree(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for name in workloads.SPECS:
        workloads.generate(name, 5, tmp_path / "a" / name)
        workloads.generate(name, 5, tmp_path / "b" / name)
        workloads.generate(name, 6, tmp_path / "c" / name)
        first = _tree(tmp_path / "a" / name)
        assert first == _tree(tmp_path / "b" / name)
        other = _tree(tmp_path / "c" / name)
        assert first.keys() == other.keys()
        assert first["gold.corpus"] != other["gold.corpus"]
        assert any(first[k] != other[k] for k in first if k.startswith("docs"))


def test_seeds_change_words_not_structure(tmp_path):
    for name in workloads.SPECS:
        first = workloads.generate(name, 5, tmp_path / "a" / name)
        other = workloads.generate(name, 6, tmp_path / "b" / name)
        for key in ("documents", "sentences", "tokens", "words", "relational_share",
                    "longest_coordination", "doc_tokens"):
            assert first[key] == other[key], (name, key)


def test_regenerating_replaces_stale_documents(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "stale.txt").write_text("left over\n")
    workloads.generate("coordination-heavy", 1, tmp_path)
    assert not (tmp_path / "docs" / "stale.txt").exists()


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_gold_layer_matches_program_tokenization(tmp_path, name):
    manifest = workloads.generate(name, 3, tmp_path)
    gold = corpus_io.load_corpus(str(tmp_path / "gold.corpus"))
    assert len(gold.documents) == manifest["documents"]
    assert sum(len(d.tokens) for d in gold.documents) == manifest["tokens"]
    for doc in gold.documents:
        if manifest["format"] == "column":
            text = (tmp_path / "docs" / f"{doc.doc_id}.conll").read_text(encoding="utf-8")
            seen = read_tagged(text, doc_id=doc.doc_id)
        else:
            text = (tmp_path / "docs" / f"{doc.doc_id}.txt").read_text(encoding="utf-8")
            seen = document_from_text(text, doc_id=doc.doc_id)
        assert [t.text for t in seen.tokens] == [t.text for t in doc.tokens]
        assert [s.span for s in seen.sentences] == [s.span for s in doc.sentences]


def test_manifest_records_shape(tmp_path):
    manifest = workloads.generate("coordination-heavy", 1, tmp_path)
    assert manifest["why"]
    assert manifest["longest_coordination"] > 25  # past MAX_CONJUNCTS
    assert manifest["spam_sentence_tokens"] >= workloads.SPAM_TOKENS
    assert 0.5 < manifest["relational_share"] < 0.7


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 5.0, 9.0, 0, None],
        ["c", 6.0, 7.0, 2, None],
        ["d", 6.5, 8.0, 2, None],  # overlaps its sibling c: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_scaling_exponent_of_quadratic_points():
    points = [(n, 3e-6 * n * n) for n in (1000, 2000, 4000, 8000)]
    assert tracing.scaling_exponent(points) == pytest.approx(2.0)
    assert tracing.scaling_exponent([(1000, 1.0)]) == 0.0


def _promex_bindings() -> dict[tuple[str, str], object]:
    return {
        (mod_name, key): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "promex" or mod_name.startswith("promex.")
        for key, value in vars(mod).items()
    }


def test_wrappers_record_spans_and_are_restored(tmp_path):
    import promex.analytics
    import promex.cli
    from promex import pipeline

    before = _promex_bindings()
    from_corpus = promex.analytics.CorpusStats.__dict__["from_corpus"]
    workloads.generate("coordination-heavy", 1, tmp_path)
    text = next((tmp_path / "docs").iterdir()).read_text(encoding="utf-8")

    with tracing.Tracer() as tracer:
        assert promex.cli.preannotate_document is not before[("promex.cli", "preannotate_document")]
        doc = promex.cli.document_from_text(text, doc_id="d0")
        pipeline.preannotate_document(doc, promex.cli.OrgGazetteer.from_names(["Apple"]), [])

    assert tracer.missing == []
    assert _promex_bindings() == before
    assert promex.analytics.CorpusStats.__dict__["from_corpus"] is from_corpus
    names = [span[0] for span in tracer.spans]
    assert names[0] == "ingest.document_from_text"
    assert "pipeline.preannotate_document" in names
    by_name = {span[0]: span for span in tracer.spans}
    chunk = by_name["chunker.chunk"]
    assert tracer.spans[chunk[3]][0] == "pipeline.preannotate_document"
    assert chunk[4] == "d0"  # inherited from the enclosing document span
    assert all(span[2] is not None and span[2] >= span[1] for span in tracer.spans)


def test_missing_layer_is_reported_not_fatal():
    layers = {"model.gone": tracing.Layer("promex.model", "no_such_function"),
              "nowhere.gone": tracing.Layer("promex.no_such_module", "f")}
    tracer = tracing.Tracer()
    tracer.install(layers)
    tracer.uninstall()
    assert tracer.missing == ["model.gone", "nowhere.gone"]


def test_checker_counts_wrong_exit_codes_and_changed_outputs():
    manifest = {"documents": 1, "sentences": 1, "words": 1}
    checker = worker.Checker(manifest, expected=None)
    validate = worker.Command("validate", ["validate"], (0, 1))
    checker.check(validate, 1, "report\n", "")
    checker.check(validate, 2, "", "cannot read corpus")
    checker.check(validate, 0, "another report\n", "")
    assert (checker.attempted, checker.failed) == (3, 2)


def test_checker_compares_recorded_digest():
    manifest = {"documents": 1, "sentences": 1, "words": 1}
    stats = worker.Command("stats", ["stats"], (0,))
    output = "documents_total\t1\nsentences_total\t1\nwords_total\t1\n"
    good = worker.Checker(manifest, {"stats.stats_kv": worker.sha256(output.encode())})
    good.check(stats, 0, output, "")
    bad = worker.Checker(manifest, {"stats.stats_kv": "0" * 64})
    bad.check(stats, 0, output, "")
    assert (good.failed, bad.failed) == (0, 1)


def test_timed_runs_alternate_which_preannotate_goes_first(tmp_path):
    even = [c.name for c in worker.commands(tmp_path, False, timed=True, order=0)]
    odd = [c.name for c in worker.commands(tmp_path, False, timed=True, order=1)]
    assert even[:2] == ["preannotate", "preannotate_j2"]
    assert odd[:2] == ["preannotate_j2", "preannotate"]
    assert even[2:] == odd[2:] == ["validate", "stats", "agreement"]
    traced = [c.name for c in worker.commands(tmp_path, False, timed=False)]
    assert traced == ["preannotate", "validate", "stats", "agreement"]


def test_schedule_shares_time_equally_within_budget(tmp_path):
    cmds = worker.commands(tmp_path, False, timed=True)
    cost = {"preannotate": 3.0, "preannotate_j2": 3.0, "validate": 2.0,
            "stats": 0.25, "agreement": 0.5}
    slots = {cmd.name: [] for cmd in cmds}
    order, clock = [], 0.0
    while (cmd := worker.next_command(cmds, slots, clock, 30.0)) is not None:
        order.append(cmd.name)
        slots[cmd.name].append(cost[cmd.name])
        clock += cost[cmd.name]
    names = [c.name for c in cmds]
    assert order[:5] == names  # every command runs once, then once more
    assert sorted(order[5:10]) == sorted(names)
    assert order[10:12] == ["stats", "stats"]  # then the short ones catch up
    assert clock <= 30.0
    assert max(map(sum, slots.values())) - min(map(sum, slots.values())) <= 3.0


def test_chunks_scale_seconds_to_reference_speed():
    assert len(worker.calibrate(0.0)) == 1
    assert worker.gc.isenabled()  # a chunk holds the collector off only while it runs
    ref = worker.REFERENCE_CHUNK_S
    assert worker.speed_scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert worker.speed_scale([ref / 2, ref / 2]) == pytest.approx(2.0)
