"""Seeded end-to-end benchmark of the spherotree CLI, with an optional traced run.

    python3 bench/run.py --workload gram --seed 1 --seconds 56 --trace 0

Workloads (inputs and checks in ``workloads.py``):

- ``gram``: ``gram --family nessonov`` over families of five arity-2,
  budget-8 random elements, two of them automorphisms, with a seeded cap-2
  spec.  Many products g_i^-1 g_j share a double coset, so a coset memo
  would show here.
- ``distinct``: three parts run in order in one process.  ``theta`` on
  random elements with pairwise distinct double cosets, with an arity-2
  cap-3 table and an arity-3 cap-2 table: the layers of ``gram`` without the
  reuse.  ``canon`` on symmetric tables and on random elements,
  ``compose``/``invert``/``equals`` on Thompson words, and ``element.power``
  up to k=100: group arithmetic and coset codes.  ``enum-thorns`` for ten
  (arity, iota, max vertices) settings: the only part where class
  enumeration does real work.

A run is a sequence of rounds.  Each round has its own inputs, drawn from
the seed and the round number, and two processes, one after the other:
``child.py setup`` imports the library and writes the input files, and
``child.py ops`` runs the operations in a fresh interpreter.  Library
caches therefore start cold in every round, as they do for a CLI user who
starts a new process; this is deliberate, and within a round caches carry
over from one operation to the next.  Rounds continue while the next one
fits into ``--seconds`` and at least ``MIN_ROUNDS`` have run.  With
``--trace 1`` each round runs its operations twice, untraced and then
traced, so that the tracing overhead is a paired difference.

End-to-end metrics (``--trace 0``), over the untraced rounds:

- ``setup_s``: median over rounds of the set-up process's time from before
  ``import spherotree`` to the last input file written.
- ``wall_s``: median over rounds of the time to run the round's operations.
- ``op_p50_ms``: median latency of one operation, all rounds pooled.
- ``op_tail_ms``: latency at the workload's tail percentile, all rounds
  pooled.  The percentile is the highest of 50/75/90/95/99 that leaves at
  least ten operations beyond it in ``MIN_ROUNDS`` rounds, so it is fixed
  per workload; the details line names it with the sample count.
- ``peak_rss_mb``: median over rounds of ``ru_maxrss`` of the operations
  process.

``fail_frac`` (failed output checks over operations attempted) is 0 on
every workload, so it is reported through ``failed``/``attempted`` and the
details line rather than as a bounded metric.

Per-layer metrics (``--trace 1``): ``<span>.self_s`` is the median over
rounds of a span's self time per round; counts (``.calls``, work counters,
cache hits and sizes, the coset repeat share) are totals over the first
``DIGEST_ROUNDS`` rounds, whose inputs depend only on the seed, so two
traced runs of one seed report identical counts.  ``trace.overhead_s`` is
the median over rounds of traced minus untraced ``wall_s``.

The last line of standard output is the result as JSON; the line before it,
prefixed ``details``, carries informational fields (calibration loop
timings, ``src/`` line count, Python version, CPU count, hash seed, output
digest, tail percentile).  The exit code is non-zero, with no result line,
if the library cannot be imported or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 4
DIGEST_ROUNDS = 2  # rounds whose outputs and counts must repeat exactly
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
LAST_ROUND_START_S = 150.0  # start no round after this, and
CHILD_DEADLINE_S = 170.0  # end every process by this, to exit within 180 s
CALIBRATION_LOOPS = 2_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tracks the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with ten samples beyond it; the maximum when
    there are fewer than twenty samples, which only ``--tiny`` runs have."""
    for p in TAIL_LADDER:
        if samples - math.ceil(p / 100.0 * samples) >= 10:
            return p
    return 100.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], env: dict, deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def run_rounds(opts, env: dict, work: Path) -> list[dict]:
    start = time.monotonic()
    deadline = start + CHILD_DEADLINE_S
    rounds: list[dict] = []
    durations: list[float] = []
    min_rounds = DIGEST_ROUNDS if opts.trace else MIN_ROUNDS
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds:
            if elapsed + statistics.median(durations) > opts.seconds:
                break
        if elapsed > LAST_ROUND_START_S:
            break
        folder = work / f"r{len(rounds)}"
        folder.mkdir()
        round_start = time.monotonic()
        run_child(["setup", str(folder), opts.workload, str(opts.seed), str(len(rounds)),
                   "1" if opts.tiny else "0"], env, deadline)
        run_child(["ops", str(folder), opts.workload, "0"], env, deadline)
        record = {
            "setup": json.loads((folder / "setup.json").read_text(encoding="utf-8")),
            "plain": json.loads((folder / "ops-0.json").read_text(encoding="utf-8")),
        }
        if opts.trace:
            run_child(["ops", str(folder), opts.workload, "1"], env, deadline)
            record["traced"] = json.loads((folder / "ops-1.json").read_text(encoding="utf-8"))
        durations.append(time.monotonic() - round_start)
        rounds.append(record)
        shutil.rmtree(folder)
    return rounds


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    plain = [r["plain"] for r in rounds]
    latencies = [x for p in plain for x in p["latencies"]]
    # every round of a workload has the same number of operations
    p_tail = tail_percentile(MIN_ROUNDS * len(plain[0]["latencies"]))
    metrics = {
        "setup_s": (statistics.median(r["setup"]["setup_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "op_p50_ms": (1000.0 * percentile(latencies, 50.0), "ms"),
        "op_tail_ms": (1000.0 * percentile(latencies, p_tail), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }
    details = {
        "round_wall_s": [p["wall_s"] for p in plain],
        "tail_percentile": p_tail,
        "tail_samples": len(latencies),
        "tail_beyond": len(latencies) - math.ceil(p_tail / 100.0 * len(latencies)),
    }
    return metrics, details


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(rounds: list[dict]) -> tuple[dict, dict]:
    traced = [r["traced"] for r in rounds]
    counted = [t["trace"] for t in traced[:DIGEST_ROUNDS]]

    def calls(span: str) -> int:
        return sum(t["calls"].get(span, 0) for t in counted)

    def self_s(span: str) -> float:
        return statistics.median(t["trace"]["self_s"].get(span, 0.0) for t in traced)

    def counter(name: str) -> int:
        return sum(t["counters"].get(name, 0) for t in counted)

    def cache(prefix: str, field: str) -> int:
        return sum(t["caches"].get(prefix, {}).get(field, 0) for t in counted)

    def cache_max(prefix: str) -> int:
        return max(t["caches"].get(prefix, {}).get("size", 0) for t in counted)

    repeats = sum(t["coset_repeats"][0] for t in counted)
    repeat_base = sum(t["coset_repeats"][1] for t in counted)
    embeddings = counter("thorn.embeddings")
    found = counter("orbitstats.moved_sets_found")
    overhead = statistics.median(r["traced"]["wall_s"] - r["plain"]["wall_s"] for r in rounds)
    count, sec, ratio = "count", "s", "ratio"
    metrics = {
        "cli.self_s": (self_s("cli.main"), sec),
        "textio.parse.self_s": (self_s("textio.parse"), sec),
        "textio.format.self_s": (self_s("textio.format"), sec),
        "textio.bytes_in": (counter("textio.bytes_in"), "bytes"),
        "textio.bytes_out": (counter("textio.bytes_out"), "bytes"),
        "element.compose.calls": (calls("element.compose"), count),
        "element.compose.self_s": (self_s("element.compose"), sec),
        "element.invert.self_s": (self_s("element.invert"), sec),
        "element.power.self_s": (self_s("element.power"), sec),
        "element.pieces_out": (counter("element.pieces_out"), count),
        "bithorn.minimal_bithorn.calls": (calls("bithorn.minimal_bithorn"), count),
        "bithorn.minimal_bithorn.self_s": (self_s("bithorn.minimal_bithorn"), sec),
        "bithorn.coset_code.calls": (calls("bithorn.coset_code"), count),
        "bithorn.coset_code.self_s": (self_s("bithorn.coset_code"), sec),
        "bithorn.vertices": (counter("bithorn.vertices"), count),
        "thorn.enumerate_embeddings.calls": (calls("thorn.enumerate_embeddings"), count),
        "thorn.enumerate_embeddings.self_s": (self_s("thorn.enumerate_embeddings"), sec),
        "thorn.embeddings": (embeddings, count),
        "thorn.canonical_code.calls": (calls("thorn.canonical_code"), count),
        "thorn.canonical_code.self_s": (self_s("thorn.canonical_code"), sec),
        "thorn.reduce_subthorn.self_s": (self_s("thorn.reduce_subthorn"), sec),
        "thorn.subthorn_from_balls.self_s": (self_s("thorn.subthorn_from_balls"), sec),
        "thorn.code_cache.hit_rate": (
            _rate(cache("thorn.code_cache", "hits"), cache("thorn.code_cache", "misses")), ratio),
        "thorn.code_cache.size": (cache_max("thorn.code_cache"), count),
        "thorn.enumerate_class_codes.self_s": (self_s("thorn.enumerate_class_codes"), sec),
        "thorn.class_codes": (counter("thorn.class_codes"), count),
        "tree.from_balls.calls": (calls("tree.from_balls"), count),
        "tree.from_balls.self_s": (self_s("tree.from_balls"), sec),
        "tree.children.hit_rate": (
            _rate(cache("tree.children", "hits"), cache("tree.children", "misses")), ratio),
        "tree.neighbors.hit_rate": (
            _rate(cache("tree.neighbors", "hits"), cache("tree.neighbors", "misses")), ratio),
        "tree.cache_entries": (cache_max("tree.caches"), count),
        "orbitstats.theta.calls": (calls("orbitstats.theta"), count),
        "orbitstats.moved_sets.self_s": (self_s("orbitstats.moved_sets"), sec),
        "orbitstats.moved_sets_found": (found, count),
        "orbitstats.moved_per_embedding": (found / embeddings if embeddings else 0.0, ratio),
        "orbitstats.moved_sets_cache.hit_rate": (
            _rate(cache("orbitstats.moved_sets_cache", "hits"),
                  cache("orbitstats.moved_sets_cache", "misses")), ratio),
        "orbitstats.moved_sets_cache.size": (cache_max("orbitstats.moved_sets_cache"), count),
        "spherical.phi.calls": (calls("spherical.phi"), count),
        "spherical.phi.self_s": (self_s("spherical.phi"), sec),
        "spherical.jacobi_s": (self_s("spherical.jacobi"), sec),
        "spherical.coset_repeat_share": (repeats / repeat_base if repeat_base else 0.0, ratio),
        "trace.overhead_s": (overhead, sec),
    }
    details = {
        "coset_repeats": repeats,
        "coset_repeat_base": repeat_base,
        "moved_per_embedding_base": embeddings,
        "missing_hooks": sorted({m for t in counted for m in t["missing"]}),
        "traced_digests_match": all(r["traced"]["digest"] == r["plain"]["digest"] for r in rounds),
    }
    return metrics, details


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test (selftest.py)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    opts = parse_args(argv)
    calib_start = calibrate()
    # one fixed hash seed, so that set and dict layouts do not differ between runs
    hash_seed = "0"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    work = ROOT / ".bench_work" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        rounds = run_rounds(opts, env, work)
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = [r["plain"] for r in rounds]
    runs = plain + [r["traced"] for r in rounds if "traced" in r]
    attempted = sum(len(p["latencies"]) for p in runs)
    failed = sum(len(p["failed"]) for p in runs)
    digest_parts = "".join(p["digest"] for p in plain[:DIGEST_ROUNDS])
    details = {
        "workload": opts.workload,
        "seed": opts.seed,
        "rounds": len(rounds),
        "ops_per_round": [len(p["latencies"]) for p in plain],
        "fail_frac": failed / attempted,
        "failures": [m for p in runs for m in p["messages"]][:20],
        "stdout_digest": hashlib.sha256(digest_parts.encode("ascii")).hexdigest(),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hash_seed": hash_seed,
    }
    if opts.trace:
        metrics, extra = per_layer(rounds)
    else:
        metrics, extra = end_to_end(rounds)
    details.update(extra)
    correct = failed == 0 and details.get("traced_digests_match", True)
    details["calib_s"] = [calib_start, calibrate()]
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
