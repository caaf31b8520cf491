"""Self-test of the benchmark on tiny inputs; takes about a minute.

    python3 bench/selftest.py

For every workload it runs ``run.py --tiny`` once untraced and twice traced
with one seed, and checks that:

- every metric that ``BENCHMARK.json`` names is printed with its unit;
- no output check failed (``fail_frac`` is 0) and the result is correct;
- the traced runs print the same output digest as the untraced run;
- the two traced runs report identical counts (every metric that is not a
  time in seconds).

Finally it copies only ``BENCHMARK.json`` and this directory into an empty
folder and checks that the benchmark fails there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("details "))


def check_metrics(result: dict, wanted: list[dict], what: str) -> None:
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise AssertionError(f"{what}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{what}: {m['name']} printed as {got}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_details = result_of(run(ROOT, workload, 0), f"{workload} untraced")
        check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        traced = [result_of(run(ROOT, workload, 1), f"{workload} traced") for _ in range(2)]
        for result, details in [(plain, plain_details), *traced]:
            if not result["correct"] or result["failed"] or details["fail_frac"] != 0:
                raise AssertionError(f"{workload}: failed checks {details['failures']}")
            if details["stdout_digest"] != plain_details["stdout_digest"]:
                raise AssertionError(f"{workload}: tracing changed the output digest")
        for result, details in traced:
            check_metrics(result, spec["per_layer"], f"{workload} traced")
        counts = [
            {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}
            for result, _ in traced
        ]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            raise AssertionError(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: ok")
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark did not fail without the library")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: fails as it should")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
