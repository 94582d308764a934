"""promex batch benchmark: CLI throughput per workload, or per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload paper-corpus --seed 1 --seconds 60 --trace 0

Without `--workload` it runs every workload in turn, each with its own report.

The benchmark generates the workload from the seed (`workloads.py`), times
how long setup takes in fresh interpreters, then runs the commands a user
would type (`preannotate`, `preannotate --jobs 2`, `validate`, `stats`,
`agreement`) through `promex.cli.main` in one child process (`worker.py`).
Every invocation's exit code and output is checked.  Times and throughputs
are scaled to the host's idle speed, measured by chunks of fixed work run
beside each invocation (see `worker.REFERENCE_CHUNK_S`), so that other
tenants of a shared machine do not move them; the report prints the raw
figures beside them.  With `--trace 1` the
child runs `--jobs 1` rounds with and without the `tracing.py` wrappers and
the per-layer metrics are reported instead of the end-to-end ones.

It reports the metrics that BENCHMARK.json lists, in the units listed there.
The human-readable report goes to stdout; its last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
CHILD_TIMEOUT = 170

# (metric, command whose invocations it times)
THROUGHPUT = (
    ("preannotate_tok_per_s", "preannotate"),
    ("preannotate_j2_tok_per_s", "preannotate_j2"),
    ("validate_tok_per_s", "validate"),
    ("stats_tok_per_s", "stats"),
    ("agreement_tok_per_s", "agreement"),
)


def _child(args: list[str]) -> dict:
    """Run the worker in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup() -> dict[str, float]:
    """Median over fresh interpreters, after one run that fills the bytecode cache."""
    _child(["setup"])
    runs = [_child(["setup"]) for _ in range(SETUP_REPEATS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS),
                        help="workload to run (default: all of them, one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "promex" / "cli.py").is_file():
        print(f"promex sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else list(workloads.SPECS):
        report(name, args.seed, args.seconds, args.trace)
    return 0


def report(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Measure one workload and print its report, ending in the JSON line."""
    work = WORK / workload
    manifest = workloads.generate(workload, seed, work)
    setup = measure_setup()
    result = _child(["traced" if trace else "timed", str(work), str(seconds), workload, str(seed)])

    tokens = manifest["tokens"]
    if trace:
        values = dict(result["layers"])
        for key in ("import_s", "parse_config_s", "expand_s", "gazetteer_s"):
            values[f"setup.{key}"] = setup[key]
    else:
        # every invocation of a command processes the workload's tokens once;
        # its median invocation, at idle host speed, gives the throughput
        values = {name: tokens / statistics.median(result["seconds"][command])
                  for name, command in THROUGHPUT}
        values["setup_s"] = setup["setup_s"]
        raw = {name: tokens / statistics.median(result["raw_seconds"][command])
               for name, command in THROUGHPUT}
        raw["setup_s"] = setup["setup_raw_s"]
        values["peak_rss_mb"] = result["peak_rss_mb"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if trace else "end_to_end"]}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload} seed {seed}: {manifest['documents']} documents, "
          f"{manifest['sentences']} sentences, {tokens} tokens, "
          f"relational share {manifest['relational_share']}, "
          f"longest coordination {manifest['longest_coordination']}, "
          f"spam sentence {manifest['spam_sentence_tokens']} tokens")
    print(f"error_rate {failed / attempted:.4f} "
          f"({failed} failed of {attempted} attempted)")
    if not trace:
        print("invocations: " + ", ".join(f"{command} {len(result['seconds'][command])}"
                                          for _, command in THROUGHPUT))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name in result.get("missing_layers", []):
        print(f"missing layer {name}")
    if not trace:
        print("  (at idle host speed; the raw figures as measured follow in brackets)")
    for name, metric in metrics.items():
        measured = f"  [{raw[name]:.6g}]" if not trace and name in raw else ""
        print(f"  {name:44} {metric['value']:>14.6g} {metric['unit']}{measured}")
    for key, digest in result["digests"].items():
        print(f"  sha256 {key:28} {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
