"""One benchmark process: the set-up or the operations of one round.

    python3 bench/child.py setup ROUND_DIR WORKLOAD SEED ROUND TINY
    python3 bench/child.py ops ROUND_DIR WORKLOAD TRACE

``setup`` imports the library, writes the round's input files and its plan
(``plan.json``) and records how long that took in ``setup.json``.  ``ops``
starts from a fresh interpreter, so every library cache is cold, as it is
for a CLI user; it runs the plan's operations in order, timing each one,
then checks the outputs and writes ``ops-<TRACE>.json``.  The parent
(``run.py``) never runs both roles in one process and never runs two
processes at once.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    """Import ``spherotree`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "spherotree" / "__init__.py").is_file():
        raise SystemExit(f"no spherotree package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spherotree
    import spherotree.cli  # also imports spherotree.textio

    if Path(spherotree.__file__).resolve().parent != (SRC / "spherotree").resolve():
        raise SystemExit(f"imported spherotree from {spherotree.__file__}, not from {SRC}")
    return spherotree


def setup(folder: Path, workload: str, seed: int, rnd: int, tiny: bool) -> None:
    start = time.perf_counter()
    st = _import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    plan = workloads.generate(st, workload, seed, rnd, tiny, folder)
    (folder / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    elapsed = time.perf_counter() - start
    (folder / "setup.json").write_text(json.dumps({"setup_s": elapsed}), encoding="utf-8")


def _run_op(st, op: dict) -> int:
    if op["kind"] == "cli":
        return st.cli.main(op["argv"])
    path = op["file"]
    g = st.textio.parse_element(Path(path).read_text(encoding="utf-8"), source=path)
    sys.stdout.write(st.textio.format_element(st.element.power(g, op["k"])))
    return 0


def ops(folder: Path, workload: str, trace: bool) -> None:
    st = _import_library()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    if trace:
        tracer.install(st)
    plan = json.loads((folder / "plan.json").read_text(encoding="utf-8"))
    os.chdir(folder)
    latencies, outputs, errors, codes = [], [], [], []
    round_start = time.perf_counter()
    for op in plan["ops"]:
        out, err = io.StringIO(), io.StringIO()
        tracer.active = trace
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = _run_op(st, op)
        latencies.append(time.perf_counter() - start)
        tracer.active = False
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
        codes.append(code)
        if op.get("save"):
            Path(op["save"]).write_text(out.getvalue(), encoding="utf-8")
    wall = time.perf_counter() - round_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    caches = tracer.cache_figures() if trace else {}

    # everything below is outside the timed region
    bad = {i: f"exit code {c}: {errors[i].strip()[-300:]}" for i, c in enumerate(codes) if c != 0}
    try:
        checked = workloads.check(st, plan, outputs, folder)
    except Exception as err:  # output too broken to check: every operation fails
        checked = {i: f"output check raised {type(err).__name__}: {err}" for i in range(len(codes))}
    for index, message in checked.items():
        bad.setdefault(index, message)
    digest = hashlib.sha256()
    for op, code, text in zip(plan["ops"], codes, outputs):
        digest.update(json.dumps([op, code, text]).encode("utf-8"))
    result = {
        "latencies": latencies,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "failed": sorted(bad),
        "messages": [f"op {i}: {bad[i]}" for i in sorted(bad)],
        "digest": digest.hexdigest(),
    }
    if trace:
        try:
            coset_repeats = workloads.coset_repeats(st, plan, outputs, folder)
        except Exception:  # broken outputs, already counted as failures above
            coset_repeats = (0, 0)
        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_time,
            "counters": tracer.counters,
            "caches": caches,
            "missing": tracer.missing,
            "coset_repeats": coset_repeats,
        }
    name = "ops-1.json" if trace else "ops-0.json"
    (folder / name).write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> None:
    role, folder = argv[0], Path(argv[1]).resolve()
    if role == "setup":
        setup(folder, argv[2], int(argv[3]), int(argv[4]), argv[5] == "1")
    elif role == "ops":
        ops(folder, argv[2], argv[3] == "1")
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
