"""tkern benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload multiplier_sweep --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in a fresh process
    python3 perfbench/run.py --workload all --smoke  # a few queries each, for its own test

One client in one thread sends each query after the previous one returned
(a closed loop), with BLAS pinned to one thread and the process pinned to
one CPU. Every answer is checked. Times are reported at a reference host
speed (``hostspeed.py``), so that load from other tenants of a shared host
does not read as a change in tkern; the unscaled median is printed too.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
queries without and then with per-layer wrappers (``layertrace.py``) and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, every failing case
and the spans of a traced run are written under ``perfbench/out/``.

Each workload is a fixed set of cases drawn from the seed, run in whole
passes; ``attempted`` counts its distinct cases and ``failed`` those that got
a wrong answer or raised, including the known defects, so both depend on the
seed and the code alone. ``correct`` is false when a case inside tkern's
known-good range (see ``workloads.py``) fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("multiplier_sweep", "oracle_crosscheck", "degree_sweep", "cli_oneshot")
SETUP_REPEATS = 9
SMOKE_QUERIES = 3
WARMUP_QUERIES = 2
# share of --seconds spent on the untraced pass of a traced run; the traced
# pass then repeats the same queries with the wrappers installed
TRACE_BASELINE_SHARE = 1 / 3

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("correct_share", "share"),
    ("peak_rss_mb", "MB"),
)


def measure_setup(repeats: int, probe) -> list[float]:
    """Seconds at reference speed per fresh interpreter, from process start
    to ``import tkern`` done; one untimed start first fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import tkern"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        proc, _, scaled = probe.measure(lambda: hostspeed.run_child(cmd, timeout=60, env=env))
        if proc.returncode != 0:
            raise RuntimeError(f"import tkern failed: {proc.stderr}")
        if i:
            times.append(scaled)
    return times


def timed_query(query, raw, probe) -> tuple:
    """Run one query: (ok, detail, seconds, seconds at reference speed).

    A query written as a generator is timed part by part, the host speed
    probed at each ``yield``, so a long query is scaled by the speed the
    host had during each of its parts. A query that raises has failed.
    """
    took = scaled = 0.0

    def part(fn):
        nonlocal took, scaled
        value, t, s = probe.measure(fn)
        took, scaled = took + t, scaled + s
        return value

    def step(steps):
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
        return None

    try:
        result = part(lambda: query(raw))
        if isinstance(result, types.GeneratorType):
            steps = result
            result = None
            while result is None:
                result = part(lambda: step(steps))
        ok, detail = result
    except Exception as exc:  # noqa: BLE001 - recorded as a failed query
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    return ok, detail, took, scaled


def run_loop(cases, query, seconds, probe, limit=None, tracer=None):
    """Closed loop over ``cases`` for exactly ``limit`` queries or else in
    whole passes, at least one, until ``seconds`` have passed. Returns
    records (case, ok, detail, seconds, seconds at reference speed)."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i and i % len(cases) == 0 and time.perf_counter() - start >= seconds:
            break
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.begin_query()
        records.append((case, *timed_query(query, case.raw, probe)))
        i += 1
    return records


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest whole percentile
    with at least ten samples beyond it, or the maximum for short runs."""
    import numpy as np

    n = len(latencies)
    pct = next((p for p in range(99, 49, -1) if n * (100 - p) / 100 >= 10), 100)
    value = float(np.percentile(latencies, pct))
    return value, pct, sum(1 for x in latencies if x > value)


def peak_rss_mb(in_subprocess: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_subprocess else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "tkern").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        # context only: ROADMAP aim 2 tracks the size of src/tkern
        "src_tkern_lines": src_lines,
    }


def failures(records) -> list[dict]:
    """Every failing case once, with how often it failed and why."""
    seen: dict[str, dict] = {}
    for case, ok, detail, _, _ in records:
        if not ok:
            entry = seen.setdefault(case.id, {"case": case.id, "expect_pass": case.expect_pass,
                                              "count": 0, "detail": detail})
            entry["count"] += 1
    return list(seen.values())


def run_workload(args) -> int:
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    spawn = hostspeed.spawn_probe()
    if not args.trace:
        setup = measure_setup(1 if args.smoke else SETUP_REPEATS, spawn)
    cases = wl.draw(np.random.default_rng(args.seed))
    limit = SMOKE_QUERIES if args.smoke else None
    if args.trace and wl.traced_query:
        query, probe = wl.traced_query, hostspeed.compute_probe()
    else:
        query = wl.query
        probe = spawn if wl.in_subprocess else hostspeed.compute_probe()
    for case in cases[:WARMUP_QUERIES]:  # lazy imports and caches fill here
        timed_query(query, case.raw, probe)

    meta = metadata(args)
    if args.trace:
        import layertrace

        base = run_loop(cases, query, args.seconds * TRACE_BASELINE_SHARE, probe, limit)
        tracer = layertrace.Tracer()
        uninstall = layertrace.install(tracer)
        try:
            traced = run_loop(cases, query, None, probe, len(base), tracer)
        finally:
            uninstall()
        records = base + traced
        base_s = sum(r[4] for r in base)
        traced_s = sum(r[4] for r in traced)
        values = tracer.metrics(base_s, traced_s)
        specs = [(name, unit) for name, unit, _ in layertrace.metric_specs()]
        notes = {"trace.overhead_share":
                 f"untraced {base_s:.3f} s, traced {traced_s:.3f} s, {len(base)} queries each"}
    else:
        records = run_loop(cases, query, args.seconds, probe, limit)
    # a run repeats its cases in whole passes; each distinct case is one
    # operation, failed if any of its runs failed, so that ``attempted`` and
    # ``failed`` depend on the seed and the code, not on how many passes fit
    failed = failures(records)
    n_attempted = len({r[0].id for r in records})
    n_failed = len(failed)
    if not args.trace:
        # a case's latency is its fastest run, so that a run another tenant
        # of the host preempted does not read as a slow case
        best: dict[str, float] = {}
        for case, _, _, _, scaled in records:
            best[case.id] = min(scaled, best.get(case.id, scaled))
        latencies = list(best.values())
        n_ok = sum(1 for r in records if r[1])
        tail, pct, beyond = tail_latency(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_tail_ms": 1e3 * tail,
            "goodput_qps": n_ok / sum(r[4] for r in records),
            "correct_share": 1 - n_failed / n_attempted,
            "peak_rss_mb": peak_rss_mb(wl.in_subprocess),
        }
        specs = list(END_TO_END)
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "query_p50_ms": f"fastest of {len(records) // n_attempted} runs per case,"
                            f" {n_attempted} cases; median of all runs, unscaled"
                            f" {1e3 * statistics.median(r[3] for r in records):.4f} ms",
            "query_tail_ms": f"p{pct}, {beyond} cases beyond, {n_attempted} cases",
            "goodput_qps": "correct queries per second of query time",
            "correct_share": f"{n_attempted - n_failed} of {n_attempted} distinct cases",
        }
    meta["probe_median_ms"] = {"spawn": 1e3 * statistics.median(spawn.samples),
                               "queries": 1e3 * statistics.median(probe.samples)}

    unexpected = [f for f in failed if f["expect_pass"]]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}

    print(f"meta {json.dumps(meta)}")
    for name, unit in specs:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {values[name]!r} {unit}{note}")
    print(f"{args.workload} fail_share = {n_failed / n_attempted!r} share"
          f"  ({n_failed} failed of {n_attempted} distinct cases attempted,"
          f" {len(records)} queries run)")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}"
    result_path = OUT / f"{stem}.json"
    print(f"failing cases: {len(failed)} distinct, {len(unexpected)} unexpected"
          f" (all listed in {result_path.relative_to(ROOT)})")
    for f in (unexpected + [f for f in failed if not f["expect_pass"]])[:20]:
        kind = "UNEXPECTED" if f["expect_pass"] else "known defect"
        print(f"  FAIL [{kind}] {f['case']} x{f['count']}: {f['detail']}")
    if args.trace:
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    result = {
        "correct": not unexpected,
        "attempted": n_attempted,
        "failed": n_failed,
        "metrics": metrics,
    }
    result_path.write_text(json.dumps({**result, "meta": meta, "notes": notes,
                                       "failing_cases": failed}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; metrics keyed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run {SMOKE_QUERIES} queries per workload instead of --seconds")
    args = parser.parse_args(argv)

    if not (SRC / "tkern" / "__init__.py").is_file():
        print(f"tkern sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads; children inherit it
        os.environ[var] = "1"
    # one client: the process and every child it starts share one CPU, the
    # one the speed probe measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import warnings

    import tkern

    if Path(tkern.__file__).resolve().parent != SRC / "tkern":
        print(f"imported tkern from {tkern.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    # near-circle cases warn by design; warnings would only flood the output
    warnings.simplefilter("ignore")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
