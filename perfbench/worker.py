"""Child process that runs the promex CLI on one generated workload.

Run from the repository root with `src` on PYTHONPATH:

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py timed  WORKDIR SECONDS WORKLOAD SEED
    python3 perfbench/worker.py traced WORKDIR SECONDS WORKLOAD SEED

`setup` times what every CLI invocation pays before its first document.
`timed` invokes the user's commands through `promex.cli.main`, unmodified,
in turns for about SECONDS, and scales their seconds to idle host speed.  `traced` runs rounds under the
`tracing.Tracer` wrappers, each followed by a round of the unmodified
program.  Every invocation's exit code and output is checked, against the
digests in digests.json when SEED is the seed they were recorded for.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


# A shared host runs the same code up to twice as slowly from one second to
# the next while other tenants load it, and the share of slow time drifts
# over minutes, so raw times of runs made minutes apart disagree by more
# than any useful bound.  Every timed invocation is therefore bracketed by
# chunks of fixed work, and its seconds are scaled by how much slower than
# REFERENCE_CHUNK_S those chunks ran: to the seconds it takes on the idle
# host.  The chunks run in the same process, one after another with the
# program; chunks running beside it on the other processor were tried, but
# they slow the program down and mostly measure themselves.  The raw seconds
# are reported beside.
REFERENCE_CHUNK_S = 0.0052  # one chunk on the idle 2-vCPU Intel Xeon host, Python 3.11
CALIBRATION_SHARE = 0.1  # of an invocation's seconds, half before it, half after
_RECORDS = [{"id": f"e{i}", "type": ("Company", "Product")[i % 2], "start": i,
             "end": i + 2, "text": f"word{i} other{i * 7}"} for i in range(3000)]


def chunk() -> float:
    """Seconds one chunk of fixed work takes now: a JSON round trip, as
    corpus files take, of records the interpreter builds.  The cyclic
    garbage collector is held off meanwhile, because a collection would
    walk the whole heap the program left, which varies from run to run."""
    gc.disable()
    try:
        start = perf_counter()
        json.loads(json.dumps(_RECORDS))
        return perf_counter() - start
    finally:
        gc.enable()


def calibrate(seconds: float) -> list[float]:
    """Chunks for about `seconds`, at least one; the seconds of each."""
    times = [chunk()]
    while sum(times) < seconds:
        times.append(chunk())
    return times


def speed_scale(chunks: list[float]) -> float:
    """Factor that takes seconds measured beside `chunks` to idle host speed."""
    return REFERENCE_CHUNK_S / statistics.mean(chunks)


def setup_times() -> dict[str, float]:
    before = calibrate(0.05)
    t0 = perf_counter()
    from promex import cli
    from promex.ingest import OrgGazetteer
    from promex.patterns import expand, parse_config
    t1 = perf_counter()
    config = parse_config(cli.default_config_path().read_text(encoding="utf-8"))
    t2 = perf_counter()
    expand(config)
    t3 = perf_counter()
    OrgGazetteer.from_file(str(cli.default_gazetteer_path()))
    t4 = perf_counter()
    scale = speed_scale(before + calibrate(0.05))
    return {"import_s": (t1 - t0) * scale, "parse_config_s": (t2 - t1) * scale,
            "expand_s": (t3 - t2) * scale, "gazetteer_s": (t4 - t3) * scale,
            "setup_s": (t4 - t0) * scale, "setup_raw_s": t4 - t0}


# Every command runs at least this often when it fits, so that no figure
# rests on one invocation even where equal time shares would give a slow
# command only one.
MIN_INVOCATIONS = 2


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]
    codes: tuple[int, ...]  # documented exit codes for this input


def commands(work: Path, column: bool, timed: bool, order: int = 0) -> list[Command]:
    """The user's commands.  Timed runs add `--jobs 2`, next to `--jobs 1`
    with which of them comes first alternating with `order`; traced runs
    leave it out, as it shares every layer with `--jobs 1`."""
    docs, gold = str(work / "docs"), str(work / "gold.corpus")
    j1, j2 = str(work / "out" / "j1.corpus"), str(work / "out" / "j2.corpus")
    tagged = ["--tagged"] if column else []
    out = [Command("preannotate", ["preannotate", "--in", docs, "--out", j1, *tagged], (0,))]
    if timed:
        j2_cmd = Command("preannotate_j2",
                         ["preannotate", "--in", docs, "--out", j2, "--jobs", "2", *tagged], (0,))
        out = out + [j2_cmd] if order % 2 == 0 else [j2_cmd] + out
    return out + [
        Command("validate", ["validate", "--in", j1, "--format", "tsv"], (0, 1)),
        Command("stats", ["stats", "--in", j1, "--kv"], (0,)),
        Command("agreement", ["agreement", "--a", gold, "--b", j1], (0,)),
    ]


def invoke(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one CLI invocation in-process: (exit code, stdout, stderr, seconds)."""
    from promex.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed invocation, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


OUTPUT_NAMES = {"validate": "validate_tsv", "stats": "stats_kv", "agreement": "agreement"}


class Checker:
    """Output checks for every invocation; counts attempts and failures."""

    def __init__(self, manifest: dict, expected: dict | None) -> None:
        self.manifest = manifest
        self.expected = expected
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def outputs(self, cmd: Command, stdout: str) -> dict[str, bytes]:
        if cmd.name.startswith("preannotate"):
            return {"corpus": Path(cmd.argv[cmd.argv.index("--out") + 1]).read_bytes(),
                    "yield": stdout.encode()}
        return {OUTPUT_NAMES[cmd.name]: stdout.encode()}

    def check(self, cmd: Command, code: int | None, stdout: str, stderr: str) -> None:
        self.attempted += 1
        problems = []
        if code not in cmd.codes:
            problems.append(f"exit code {code}, expected one of {cmd.codes}: {stderr.strip()[-400:]}")
        else:
            for key, data in self.outputs(cmd, stdout).items():
                # the --jobs 2 outputs must equal the --jobs 1 outputs byte for byte
                ref_key = f"{cmd.name.removesuffix('_j2')}.{key}"
                if ref_key not in self.reference:
                    self.reference[ref_key] = data
                    problems += self.first_sight(ref_key, data)
                elif self.reference[ref_key] != data:
                    problems.append(f"{cmd.name} {key} differs from its first output")
        if problems:
            self.failed += 1
            self.problems += [f"{cmd.name}: {p}" for p in problems]

    def first_sight(self, key: str, data: bytes) -> list[str]:
        problems = []
        if self.expected is not None and self.expected.get(key) != sha256(data):
            problems.append(f"sha256 of {key} does not match the recorded digest")
        if key == "preannotate.corpus":
            problems += self.round_trip(data)
        if key == "stats.stats_kv":
            problems += self.stats_totals(data.decode())
        if key == "agreement.agreement":
            problems += self.agreement_scores(data.decode())
        return problems

    def round_trip(self, data: bytes) -> list[str]:
        from promex.corpus_io import read_corpus, write_corpus

        sink = io.StringIO()
        write_corpus(read_corpus(io.StringIO(data.decode("utf-8"))), sink)
        if sink.getvalue().encode("utf-8") != data:
            return ["corpus does not round-trip through read_corpus/write_corpus"]
        return []

    def stats_totals(self, text: str) -> list[str]:
        values = dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)
        problems = []
        for key in ("documents", "sentences", "words"):
            if values.get(f"{key}_total") != str(self.manifest[key]):
                problems.append(f"{key}_total is {values.get(f'{key}_total')}, "
                                f"the generator wrote {self.manifest[key]}")
        return problems

    def agreement_scores(self, text: str) -> list[str]:
        rows = [line.split("\t") for line in text.splitlines()]
        names = [fields[0] for fields in rows]
        if names != ["token_kappa_company", "token_kappa_product", "mention_f1_company",
                     "mention_f1_product", "relation_f1"]:
            return [f"unexpected agreement rows {names}"]
        try:
            in_range = all(-1.0 <= float(fields[1]) <= 1.0 for fields in rows)
        except (IndexError, ValueError):
            in_range = False
        return [] if in_range else ["agreement score missing or outside [-1, 1]"]


def run_command(cmd: Command, checker: Checker, tracer=None) -> float:
    """Invoke `cmd` once, under a `cli.<name>` span if traced; its seconds."""
    if tracer is None:
        code, stdout, stderr, elapsed = invoke(cmd.argv)
    else:
        span = tracer.open(f"cli.{cmd.name}")
        try:
            code, stdout, stderr, elapsed = invoke(cmd.argv)
        finally:
            tracer.close(span)
    checker.check(cmd, code, stdout, stderr)
    return elapsed


def run_round(cmds: list[Command], checker: Checker, tracer=None) -> float:
    """Run each command once; the seconds their invocations took."""
    return sum(run_command(cmd, checker, tracer) for cmd in cmds)


def next_command(cmds: list[Command], slots: dict[str, list[float]],
                 elapsed: float, budget: float) -> Command | None:
    """Among the commands never run and those whose median slot (an
    invocation with its chunks) still ends within `budget`: one that has run
    fewer than MIN_INVOCATIONS times, else the one whose slots took least
    time so far.  None when no command fits.  Ties go to the earlier command
    in `cmds`."""
    fits = [cmd for cmd in cmds if not slots[cmd.name]
            or elapsed + statistics.median(slots[cmd.name]) <= budget]
    return min(fits, key=lambda cmd: (min(len(slots[cmd.name]), MIN_INVOCATIONS),
                                      sum(slots[cmd.name])), default=None)


def timed_run(work: Path, column: bool, seed: int, checker: Checker,
              budget: float) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Invocations of the unmodified program for `budget` seconds, each
    command given an equal share of the time by `next_command` once it has
    run MIN_INVOCATIONS times.  The short
    commands thus take turns between the long ones, and every command's
    invocations spread over the whole run instead of bunching in one stretch
    of it.  The seconds of every invocation by command, raw and scaled to
    idle host speed by the chunks around it."""
    cmds = commands(work, column, timed=True, order=seed)
    raw: dict[str, list[float]] = {cmd.name: [] for cmd in cmds}
    scaled: dict[str, list[float]] = {cmd.name: [] for cmd in cmds}
    slots: dict[str, list[float]] = {cmd.name: [] for cmd in cmds}
    start = perf_counter()
    while (cmd := next_command(cmds, slots, perf_counter() - start, budget)) is not None:
        slot_start = perf_counter()
        expected = statistics.median(raw[cmd.name]) if raw[cmd.name] else 0.0
        before = calibrate(CALIBRATION_SHARE / 2 * expected)
        elapsed = run_command(cmd, checker)
        after = calibrate(CALIBRATION_SHARE / 2 * elapsed)
        raw[cmd.name].append(elapsed)
        scaled[cmd.name].append(elapsed * speed_scale(before + after))
        slots[cmd.name].append(perf_counter() - slot_start)
    return raw, scaled


def traced_run(work: Path, column: bool, checker: Checker, budget: float,
               doc_tokens: dict[str, int]) -> tuple[dict[str, float], tracing.Tracer]:
    """A plain warm-up round, then pairs of a round under the tracer and a
    plain round right after it, while the next pair is expected to end within
    `budget` seconds (always at least one pair).  The per-layer metrics
    (medians over the traced rounds) and the last tracer."""
    cmds = commands(work, column, timed=False)
    start = perf_counter()
    # the process's first round pays one-off costs; it would bias the ratio
    run_round(cmds, checker)
    layers: list[dict[str, float]] = []
    overhead: list[float] = []
    pair_times: list[float] = []
    while True:
        t0 = perf_counter()
        tracer = tracing.Tracer()
        with tracer:
            traced = run_round(cmds, checker, tracer)
        layers.append(tracing.layer_metrics(tracer, doc_tokens))
        overhead.append(traced / run_round(cmds, checker))
        pair_times.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(pair_times) > budget:
            break
    metrics = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(overhead)
    metrics["trace.overhead_samples"] = len(overhead)
    return metrics, tracer


def expected_digests(workload: str, seed: int) -> dict | None:
    """The digests recorded in digests.json, if `seed` is the one they are for."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return recorded["workloads"][workload] if seed == recorded["seed"] else None


def measure(mode: str, work: Path, budget: float, workload: str, seed: int) -> dict:
    from promex import cli  # noqa: F401  (import cost belongs to setup_s)

    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    (work / "out").mkdir(exist_ok=True)
    checker = Checker(manifest, expected_digests(workload, seed))
    column = manifest["format"] == "column"
    result: dict = {}
    if mode == "traced":
        layers, tracer = traced_run(work, column, checker, budget, manifest["doc_tokens"])
        tracer.dump(work / "trace.json")
        result.update(layers=layers, missing_layers=tracer.missing)
    else:
        result["raw_seconds"], result["seconds"] = timed_run(work, column, seed, checker, budget)
    result.update({
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems[:20],
        "digests": {key: sha256(data) for key, data in sorted(checker.reference.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        result = setup_times()
    else:
        result = measure(argv[0], Path(argv[1]), float(argv[2]), argv[3], int(argv[4]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
