"""Closed-loop benchmark of cold `qrob check` -> `qrob verify` round trips.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's queries (see `workloads.py`) in passes, in
an order fixed by the seed. For each query it calls `check ... -o doc.json`
and then `verify doc.json`, each through `qrob.cli.main` in a child forked
from this process, which has imported `qrob` but never run a query: every
call starts as cold as a real `qrob` invocation, without touching the
package's private caches. Passes repeat while another one fits in
`--seconds`; only whole passes run, so every run weighs the queries alike.

Times are reported in reference seconds (see `calibration.py`): a fixed
calibration kernel is timed before, during and after each call, and the
call's wall time is scaled by the machine speed it measured, so drift in a
shared machine's speed does not read as a change in the program. Wall times
are printed and recorded beside them.

Every call's exit code, verdict, certificate kind and `OK` line are checked
against the workload table. With `--trace 0` the last stdout line is the
end-to-end result; with `--trace 1` each check is run once untraced and once
with layer spans (see `spans.py`), then verified traced, and the last line
holds the per-layer metrics. Both write the full record to
`perfbench/results/<workload>-seed<N>-trace<T>.json`. The command exits
nonzero if any call fails or the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, pass_order  # noqa: E402

SETUP_SAMPLES = 9
# Past the measuring window, calls still running get this long before the
# run gives up on them, so a hung query fails the run instead of stalling it.
GRACE_S = 100.0


def _import_cli():
    """Import `qrob.cli` from this checkout's sources, and from nowhere else."""
    if not (SRC / "qrob" / "cli.py").is_file():
        raise SystemExit(f"qrob sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qrob.cli

    if Path(qrob.cli.__file__).resolve().parent != SRC / "qrob":
        raise SystemExit(f"imported qrob from {qrob.cli.__file__}, not {SRC}")
    return qrob.cli


def _setup_seconds() -> tuple[float, float]:
    """Set-up cost: median over fresh interpreters of the package import, in
    reference seconds and in wall seconds."""
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        import_s, *kernel = map(float, done.stdout.split())
        wall.append(import_s)
        scaled.append(import_s * calibration.REFERENCE_S / statistics.mean(kernel))
    return statistics.median(scaled), statistics.median(wall)


# -- one call in a fresh child -------------------------------------------------


def _child(cli, argv: list[str], traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    out = io.StringIO()
    record: dict = {"exit": None, "error": None}

    def call():
        try:
            record["exit"] = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, reported below
            record["error"] = repr(exc)

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        record["wall_s"], record["seconds"] = calibration.timed_call(call)
    record["stdout"] = out.getvalue()[:200]
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    return record


def run_call(cli, argv: list[str], traced: bool, timeout: float) -> dict:
    """Fork, run one `qrob` command in the child, and collect its record."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(_child(cli, argv, traced)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb", buffering=0) as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([pipe], [], [], remaining)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = pipe.read(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if timed_out:
        return {"exit": None, "error": f"timed out after {timeout:.0f} s",
                "seconds": timeout, "wall_s": timeout, "rss_mb": usage.ru_maxrss / 1024}
    if status != 0 or not chunks:
        return {"exit": None, "error": f"child ended with wait status {status}",
                "seconds": None, "wall_s": None, "rss_mb": usage.ru_maxrss / 1024}
    record = json.loads(b"".join(chunks))
    record["rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return record


# -- correctness gate ------------------------------------------------------------


def check_problem(query, record: dict, doc_path: Path) -> str | None:
    """Why a `check` call is wrong for this query, or None if it is right.

    A right call keeps its document's `search_log` for the traced metrics.
    """
    if record["error"]:
        return record["error"]
    if record["exit"] != query.exit_code:
        return f"exit {record['exit']}, expected {query.exit_code}"
    try:
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable document: {exc}"
    if doc.get("verdict") != query.verdict:
        return f"verdict {doc.get('verdict')}, expected {query.verdict}"
    kind = (doc.get("certificate") or {}).get("kind")
    if kind != query.kind:
        return f"certificate kind {kind}, expected {query.kind}"
    if (doc.get("witness") is not None) != (query.verdict == "WITNESS"):
        return "witness payload does not match the verdict"
    record["search_log"] = doc.get("search_log")
    return None


def verify_problem(record: dict) -> str | None:
    """Why a `verify` call failed, or None if it printed OK and exited 0."""
    if record["error"]:
        return record["error"]
    if record["exit"] != 0 or not record["stdout"].startswith("OK"):
        return f"exit {record['exit']}: {record['stdout'].strip()[:120]}"
    return None


# -- the loop ----------------------------------------------------------------------


def run_workload(cli, name: str, seed: int, seconds: float, traced: bool, work: Path):
    """Whole passes over the seeded query order; returns the call records."""
    order = pass_order(name, seed)
    doc = work / "doc.json"
    calls: list[dict] = []
    start = time.monotonic()
    hard_deadline = start + seconds + GRACE_S
    longest_pass = 0.0
    passes = 0
    while passes == 0 or time.monotonic() - start + longest_pass <= seconds:
        pass_start = time.monotonic()
        for qid, query in enumerate(order):
            steps = [("check", query.check_argv(str(doc)), False)]
            if traced:
                steps = [("check_untraced", query.check_argv(str(doc)), False),
                         ("check", query.check_argv(str(doc)), True)]
            steps.append(("verify", ["verify", str(doc)], traced))
            for kind, argv, traced_call in steps:
                timeout = hard_deadline - time.monotonic()
                if timeout <= 0:
                    return calls, passes
                if kind != "verify":
                    doc.unlink(missing_ok=True)
                record = run_call(cli, argv, traced_call, timeout)
                record.update({"kind": kind, "query": qid, "label": query.label(), "pass": passes})
                if kind == "verify":
                    record["problem"] = verify_problem(record)
                else:
                    record["problem"] = check_problem(query, record, doc)
                calls.append(record)
        passes += 1
        longest_pass = max(longest_pass, time.monotonic() - pass_start)
    return calls, passes


# -- metrics -----------------------------------------------------------------------


def end_to_end(calls: list[dict], setup_s: float, key: str = "seconds") -> dict:
    """The end-to-end metrics, from reference seconds or from `wall_s`.

    Every query runs equally often, so the median latency of a run is taken
    as the median over queries of each query's median: pooling the calls
    instead would put the median on the slowest call of one query or the
    fastest of the next whenever the workload has an even number of queries.
    """
    def times(kind: str) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        for c in calls:
            if c["kind"] == kind and c[key] is not None:
                out.setdefault(c["query"], []).append(c[key])
        return out

    def rate(by_query: dict) -> float:
        flat = [t for ts in by_query.values() for t in ts]
        return len(flat) / sum(flat) if flat else 0.0

    def p50(by_query: dict) -> float:
        medians = [statistics.median(ts) for ts in by_query.values()]
        return statistics.median(medians) if medians else 0.0

    checks, verifies = times("check"), times("verify")
    return {
        "check_qps": (rate(checks), "1/s"),
        "check_s_p50": (p50(checks), "s"),
        "verify_dps": (rate(verifies), "1/s"),
        "verify_s_p50": (p50(verifies), "s"),
        "peak_rss_mb": (max(c["rss_mb"] for c in calls), "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(calls: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics per query (one traced check + verify), and the summary.

    Times are self times, from `spans.self_times`, scaled to reference
    seconds by the call's calibration; counts come from the hot leaf
    counters and the enumeration's own node count in `search_log`.
    """
    traced = [c for c in calls if "spans" in c]
    queries = max(1, sum(1 for c in traced if c["kind"] == "check"))
    by_side: dict[str, dict] = {}
    for side in ("check", "verify"):
        merged: dict[str, dict] = {}
        for call in traced:
            if call["kind"] != side:
                continue
            scale = call["seconds"] / call["wall_s"]
            for name, row in spans.self_times(call["spans"]).items():
                acc = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                acc["calls"] += row["calls"]
                acc["total_s"] += row["total_s"] * scale
                acc["self_s"] += row["self_s"] * scale
            for name, count in call["counts"].items():
                merged.setdefault(name, {"calls": 0})["calls"] += count
        by_side[side] = merged

    def total(name: str, key: str) -> float:
        return sum(side.get(name, {}).get(key, 0) for side in by_side.values())

    nodes = 0
    for call in traced:
        log = call.get("search_log") or {}
        nodes += (log.get("enumeration") or {}).get("nodes", 0) or log.get("nodes", 0)
    hom_in_enum = sum(
        1
        for call in traced
        for name, _, _, parent in call["spans"]
        if name == "homsearch.verify_hom" and parent >= 0
        and call["spans"][parent][0] == "homsearch.enum"
    )
    enum_total = total("homsearch.enum", "total_s")
    untraced = sum(c["seconds"] or 0.0 for c in calls if c["kind"] == "check_untraced")
    traced_check = sum(c["seconds"] or 0.0 for c in traced if c["kind"] == "check")

    def per_query(value: float) -> float:
        return value / queries

    metrics = {
        "homsearch.enum_s": (per_query(total("homsearch.enum", "self_s")), "s/query"),
        "homsearch.enum_nodes": (per_query(nodes), "count/query"),
        "homsearch.enum_nodes_per_s": (nodes / enum_total if enum_total else 0.0, "1/s"),
        "exterior.wedge_calls": (per_query(total("exterior.wedge_calls", "calls")), "count/query"),
        "homsearch.verify_hom_calls": (
            per_query(total("homsearch.verify_hom", "calls")), "count/query"),
        "homsearch.verify_hom_per_node": (hom_in_enum / nodes if nodes else 0.0, "ratio"),
        "obstruct.search_s": (per_query(total("obstruct.search", "self_s")), "s/query"),
        "obstruct.kronecker_systems": (
            per_query(total("obstruct.kronecker_systems", "calls")), "count/query"),
        "ring.multiply_calls": (per_query(total("ring.multiply_calls", "calls")), "count/query"),
        "ring.factorizations_s": (
            per_query(total("ring.factorizations", "self_s")), "s/query"),
        "linalg.elim_calls": (per_query(total("linalg.elim", "calls")), "count/query"),
        "linalg.elim_s": (per_query(total("linalg.elim", "self_s")), "s/query"),
        "ring.validate_s": (per_query(total("ring.validate", "self_s")), "s/query"),
        "ring.validate_calls": (per_query(total("ring.validate", "calls")), "count/query"),
        "manifolds.build_s": (per_query(total("manifolds.build", "self_s")), "s/query"),
        "homsearch.template_s": (per_query(total("homsearch.template", "self_s")), "s/query"),
        "homsearch.verify_hom_s": (
            per_query(total("homsearch.verify_hom", "self_s")), "s/query"),
        "pipeline.emit_s": (per_query(total("pipeline.emit", "self_s")), "s/query"),
        "pipeline.verify_s": (per_query(total("pipeline.verify", "self_s")), "s/query"),
        "pipeline.cert_verify_s": (
            per_query(total("pipeline.cert_verify", "self_s")), "s/query"),
        "ring.ideal_s": (per_query(total("ring.ideal", "self_s")), "s/query"),
        "dsl.parse_s": (per_query(total("dsl.parse", "self_s")), "s/query"),
        "cli.self_s": (per_query(total("cli.main", "self_s")), "s/query"),
        "trace.overhead_frac": (traced_check / untraced - 1 if untraced else 0.0, "frac"),
    }
    return metrics, by_side


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    setup_s, setup_wall_s = _setup_seconds()
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        calls, passes = run_workload(
            cli, args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in calls if c["problem"]]
    attempted = len(calls)
    failed_frac = len(failed) / attempted if attempted else 1.0
    e2e = end_to_end(calls, setup_s)
    e2e_wall = end_to_end(calls, setup_wall_s, key="wall_s")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "order": [q.label() for q in pass_order(args.workload, args.seed)],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "failed_frac": failed_frac,
        "failures": [{k: c[k] for k in ("kind", "label", "problem")} for c in failed],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_wall": {k: {"value": v, "unit": u} for k, (v, u) in e2e_wall.items()},
        "calls": [
            {k: c.get(k) for k in ("kind", "label", "pass", "seconds", "wall_s", "rss_mb")}
            for c in calls
        ],
        "samples": {
            kind: sum(1 for c in calls if c["kind"] == kind and c["seconds"] is not None)
            for kind in ("check", "verify")
        },
    }
    if args.trace:
        layers, by_side = per_layer(calls)
        metrics = layers
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["summary_by_side"] = by_side
        record["spans"] = [
            {k: c[k] for k in ("query", "label", "pass", "kind", "spans", "counts")}
            for c in calls if "spans" in c
        ]
    else:
        metrics = e2e
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"trace={args.trace} record={out.relative_to(ROOT)}")
    for name, (value, unit) in e2e.items():
        side = name.split("_")[0]
        count = f", n={record['samples'][side]}" if side in record["samples"] else ""
        print(f"{name} = {value:.6g} {unit} (wall {e2e_wall[name][0]:.6g}{count})")
    print(f"failed_frac = {failed_frac:.6g} frac ({len(failed)}/{attempted})")
    for fail in record["failures"]:
        print(f"FAILED {fail['kind']} {fail['label']}: {fail['problem']}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed or not attempted else 0


if __name__ == "__main__":
    sys.exit(main())
