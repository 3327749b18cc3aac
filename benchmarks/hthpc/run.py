#!/usr/bin/env python3
"""The hthpc benchmark: six workloads, end-to-end and per-layer metrics.

Two ways in, one measuring core:

``python3 benchmarks/hthpc/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  ``--trace 0`` repeats it in fresh child interpreters,
    tracing off, until ``S`` seconds are used, and reports the median of
    every end-to-end metric; ``--trace 1`` runs the layer probes and the
    traced engine runs and reports every per-layer metric.  The last
    line of stdout is one JSON object (see ``BENCHMARK.json``).

``PYTHONPATH=src python -m benchmarks.hthpc.run --seed 11``
    Every workload, ``--repeats`` times each, then its traced pass;
    prints every metric with unit, median, quartiles and sample count
    and writes ``results/<label>.json``.  ``--quick`` is a schema run,
    ``--selfcheck`` runs the end-to-end set twice and compares,
    ``--compare A.json B.json`` compares two result files.

See ``README.md`` for what each metric means and what should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import ceiling  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from spans import SpanLog  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Workload, read_arg_file, rng_for, write_blobs, write_random_file,
)

RESULTS = HERE / "results"

#: Seconds each K of the spawn-ceiling probe runs.
CEILING_SECONDS = 0.3
QUICK_SHRINK = 50
CHILD_TIMEOUT_S = 170

#: End-to-end metrics that only one workload has.  BENCHMARK.json's
#: ``end_to_end`` list must be reported by every workload, so there
#: these sit under ``per_layer`` (no bound); here they are gated, by
#: --selfcheck and --compare, like the others.
WORKLOAD_E2E = {
    "sleep_fill": [
        {"name": "slot_utilization", "unit": "ratio", "better": "higher", "bound": 0.02},
        {"name": "refill_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15},
    ],
}
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def e2e_defs(contract: dict, workload: str) -> list[dict]:
    return contract["end_to_end"] + WORKLOAD_E2E.get(workload, []) + [FAILED_SHARE]


# -- one engine run -------------------------------------------------------------
def run_child(
    spec: dict, directory: Path, *, variant: dict | None = None,
    pinned: bool | None = None, sample_threads: bool = False,
) -> dict:
    """Run ``spec`` once in a fresh interpreter and return what it measured.

    The child works in ``directory`` (the generated inputs) with its own
    scratch directory as ``TMPDIR``, so everything the engine writes
    stays inside the checkout.
    """
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=directory))
    (scratch / "tmp").mkdir()
    out = scratch / "result.json"
    job = {
        "spec": spec, "variant": variant or {}, "out": str(out),
        "pinned": spec["pinned"] if pinned is None else pinned,
        "sample_threads": sample_threads,
    }
    (scratch / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(scratch / "tmp")}
    try:
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(scratch / "job.json")],
            cwd=directory, env=env, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{spec['workload']}: child exited {proc.returncode}")
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    n = spec["n"]
    ok = result["check_error"] is None
    result.update(
        n=n,
        # A failed output check fails every job of the run.
        failed=(n - result["n_succeeded"]) if ok else n,
        failed_share=((n - result["n_succeeded"]) if ok else n) / n,
        setup_s=result["first_start"] - spawned,
        jobs_per_s=n / result["wall_s"],
        cpu_us_per_job=result["cpu_s"] / n * 1e6,
    )
    if not ok:
        print(f"CHECK FAILED {spec['workload']}: {result['check_error']}", file=sys.stderr)
    return result


def host_cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks since boot from ``/proc/stat``: time the
    hypervisor gave to someone else while this guest wanted to run."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def prepare(workload: Workload, seed: int, n: int, work: Path) -> tuple[dict, Path]:
    directory = work / f"{workload.name}-{n}"
    directory.mkdir()
    spec = workload.make_inputs(seed, n, directory)
    # stage_mixed's inputs are 166 MiB of fresh dirty pages; left alone,
    # their write-back slows the first two repeats by a quarter.
    os.sync()
    return spec, directory


# -- end to end (tracing off) ---------------------------------------------------
def measure_e2e(
    spec: dict, directory: Path, *, repeats: int | None, seconds: float | None,
    shrink: int = 1,
) -> list[dict]:
    """Repeat the workload with a spawn-ceiling probe between the runs.

    Stops after ``repeats`` runs, or when another run would overshoot
    ``seconds`` (at least one run either way).  The first probe walks
    the K-curve; the later ones re-measure its best K.  A ceiling is
    the best the box does and interference only ever lowers a probe, so
    every run of this call is divided by the best probe: over ten such
    calls on ``true_spawn`` that efficiency spread 2.7% IQR, against
    3.7% for the mean of each run's two neighbouring probes (single
    0.3 s probes scatter 6%).
    """
    begun = time.monotonic()
    stolen0, ticks0 = host_cpu_ticks()
    samples = []
    curve = ceiling.ceiling_curve(CEILING_SECONDS / shrink)
    best_k = max(curve, key=curve.get)
    probes = [curve[best_k]]
    while True:
        started = time.monotonic()
        samples.append(run_child(spec, directory))
        probes.append(ceiling.spawn_rate(best_k, CEILING_SECONDS / shrink))
        now = time.monotonic()
        if repeats is not None:
            done = len(samples) >= repeats
        else:  # would one more run like the last overshoot the budget?
            done = (now - begun) + (now - started) > seconds
        if done:
            break
    for sample in samples:
        sample["efficiency"] = sample["jobs_per_s"] / max(probes)
        sample.update(sample["slots"] or {})
    stolen, ticks = host_cpu_ticks()
    print(f"\n{spec['workload']}: spawn ceiling {max(probes):.0f}/s at K={best_k}; "
          f"host stole {(stolen - stolen0) / max(1, ticks - ticks0):.1%} of CPU time")
    return samples


def summarise_e2e(samples: list[dict], defs: list[dict]) -> dict:
    attempted = sum(s["n"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    out = {
        d["name"]: stats.summarise([s[d["name"]] for s in samples], d["unit"])
        for d in defs
    }
    return {"e2e": out, "attempted": attempted, "failed": failed}


# -- traced pass ----------------------------------------------------------------
def _engine_trace_view(path: Path) -> tuple[list, dict, dict]:
    """Job intervals and RUN_END counters from the engine's own trace —
    the only place a ``cli.main`` run exposes slots and RPC counts."""
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    intervals = [
        (e["tid"], e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6)
        for e in trace["traceEvents"] if e.get("cat") == "job" and e["ph"] == "X"
    ]
    other = trace.get("otherData", {})
    return intervals, other.get("rpc", {}), other.get("staging", {})


def trace_pass(
    workload: Workload, seed: int, n: int, work: Path, log: SpanLog, shrink: int = 1
) -> dict:
    """Layer probes under benchmark-side spans, then the workload with
    the engine's own --trace/--metrics on, forced to popen, and with its
    pinning flipped.  Returns ``{layers, table, attempted, failed, ...}``."""
    spec, directory = prepare(workload, seed, n, work)
    with log.span(f"traced pass {workload.name}", n=n, j=workload.j):
        blob_dir, big = directory / "blobs", directory / "base.bin"
        blobs = write_blobs(seed, blob_dir)
        if not big.exists():
            write_random_file(rng_for(seed, "basefile"), big, 16 << 20)
        scratch = directory / "probe-scratch"
        scratch.mkdir()
        kit = layers.Kit(
            arg_file=str(directory / "args.txt"),
            args=read_arg_file(str(directory / "args.txt")),
            template=spec["command"] or "true # {}",
            blobs=blobs, big_file=str(big), scratch=scratch, j=workload.j, seed=seed,
            shrink=shrink,
        )
        os.chdir(directory)  # blob names are relative, as the engine sees them
        try:
            m = layers.run_probes(kit, log)
        finally:
            os.chdir(ROOT)
        with log.span("spawn ceiling"):
            curve = ceiling.ceiling_curve(CEILING_SECONDS / shrink)
        m["spawn_ceiling_serial_per_s"] = curve[1]
        m["spawn_ceiling_k2_per_s"] = curve[2]
        m["spawn_ceiling_per_s"] = max(curve.values())

        engine_trace = directory / "engine-trace.json"
        runs = {}
        # The engine-traced run goes last: it writes one trace event per
        # job, and the write-back of that file must not slow the others.
        for label, kwargs in {
            "plain": {},
            "--spawn-path popen": {"variant": {"spawn_path": "popen"}},
            "pinning flipped": {"pinned": not workload.pinned},
            "engine --trace": {
                "variant": {"trace": str(engine_trace),
                            "metrics": str(directory / "engine-metrics.jsonl")},
                "sample_threads": True,
            },
        }.items():
            with log.span(f"engine run [{label}]"):
                runs[label] = run_child(spec, directory, **kwargs)
        plain, traced = runs["plain"], runs["engine --trace"]
        slots, rpc, staging = plain["slots"], plain["rpc"], plain["staging"]
        if slots is None:
            intervals, rpc, staging = _engine_trace_view(engine_trace)
            slots = stats.slot_metrics(intervals, workload.j)
        pinned_run, unpinned_run = (
            (plain, runs["pinning flipped"]) if workload.pinned
            else (runs["pinning flipped"], plain)
        )
        m.update(
            tracing_overhead_ratio=traced["jobs_per_s"] / plain["jobs_per_s"],
            popen_ratio=runs["--spawn-path popen"]["jobs_per_s"] / plain["jobs_per_s"],
            gil_convoy_ratio=unpinned_run["jobs_per_s"] / pinned_run["jobs_per_s"],
            threads_peak=traced["threads_peak"],
            slot_utilization=slots["slot_utilization"],
            refill_ms_p50=slots["refill_ms_p50"],
            refill_ms_p99=slots["refill_ms_p99"],
            refill_samples=slots["refill_samples"],
            rpc_frames=rpc.get("frames_sent", 0),
            rpc_jobs_per_frame=rpc.get("jobs_per_frame", 0.0),
            requeued=rpc.get("requeued", 0),
            files_staged=staging.get("files_staged", 0),
            cache_hits=staging.get("cache_hits", 0),
            staged_mb_per_s=staging.get("bytes_moved", 0) / 1e6 / plain["wall_s"],
        )
        table = layers.layer_table(workload.name, m)
        wall_us = 1e6 / plain["jobs_per_s"]
        m["scheduler_residual_us"] = wall_us - sum(table.values())
    shutil.rmtree(directory)
    return {
        "layers": m, "table": table, "wall_us_per_job": wall_us,
        "cpu_us_per_job": plain["cpu_us_per_job"], "n_jobs": n,
        "spawn_ceiling_curve": {str(k): v for k, v in curve.items()},
        "attempted": sum(r["n"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
    }


# -- reporting ------------------------------------------------------------------
def print_e2e(name: str, e2e: dict) -> None:
    print(f"\n{name}: end to end, tracing off")
    print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit   IQR/median")
    for metric, s in e2e.items():
        iqr = f"{stats.spread(s):.4f}" if s["median"] else "-"
        print(f"  {metric:<22}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['n']:>4}  {s['unit']:<6} {iqr}")


def layer_metrics(traced: dict, contract: dict) -> dict:
    """Every per-layer metric BENCHMARK.json names, with its unit."""
    return {
        d["name"]: {"value": traced["layers"][d["name"]], "unit": d["unit"]}
        for d in contract["per_layer"]
    }


def print_layers(name: str, traced: dict, metrics: dict) -> None:
    print(f"\n{name}: per-layer metrics (traced pass, n={traced['n_jobs']})")
    for metric, m in metrics.items():
        print(f"  {metric:<30}{m['value']:>16.6g}  {m['unit']}")
    print(f"\n{name}: us per job by layer (probe self time x calls per job)")
    for layer, us in traced["table"].items():
        print(f"  {layer:<36}{us:>12.2f}")
    print(f"  {'sum of layers':<36}{sum(traced['table'].values()):>12.2f}")
    print(f"  {'wall us/job (1e6 / jobs_per_s)':<36}{traced['wall_us_per_job']:>12.2f}")
    print(f"  {'cpu_us_per_job':<36}{traced['cpu_us_per_job']:>12.2f}")
    print(f"  {'scheduler_residual_us':<36}{traced['layers']['scheduler_residual_us']:>12.2f}")


# -- the contract's single-workload mode ----------------------------------------
def run_contract(args, contract: dict, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        log = SpanLog(f"{workload.name}/seed{args.seed}")
        traced = trace_pass(workload, args.seed, workload.n_jobs, work, log)
        log.write_chrome_trace(RESULTS / f"spans-{workload.name}-seed{args.seed}.json")
        metrics = layer_metrics(traced, contract)
        print_layers(workload.name, traced, metrics)
        attempted, failed = traced["attempted"], traced["failed"]
    else:
        spec, directory = prepare(workload, args.seed, workload.n_jobs, work)
        samples = measure_e2e(spec, directory, repeats=None, seconds=args.seconds)
        summary = summarise_e2e(samples, e2e_defs(contract, workload.name))
        print_e2e(workload.name, summary["e2e"])
        metrics = {
            d["name"]: {"value": summary["e2e"][d["name"]]["median"], "unit": d["unit"]}
            for d in contract["end_to_end"]
        }
        attempted, failed = summary["attempted"], summary["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# -- the full set ----------------------------------------------------------------
def run_set(args, contract: dict, work: Path, label: str, *, with_layers: bool) -> dict:
    shrink = QUICK_SHRINK if args.quick else 1
    repeats = 1 if args.quick else args.repeats
    doc = {"seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "kernel": platform.release(),
           "label": label, "workloads": {}}
    logs = []
    for workload in WORKLOADS.values():
        n = max(workload.min_jobs, workload.n_jobs // shrink)
        spec, directory = prepare(workload, args.seed, n, work)
        samples = measure_e2e(
            spec, directory, repeats=repeats, seconds=None, shrink=shrink
        )
        shutil.rmtree(directory)
        summary = summarise_e2e(samples, e2e_defs(contract, workload.name))
        print_e2e(workload.name, summary["e2e"])
        entry = {"n_jobs": n, "j": workload.j, "repeats": repeats,
                 "why": workload.why, "loads": workload.loads,
                 "idles": workload.idles, "e2e": summary["e2e"], "layers": {}}
        if with_layers:
            log = SpanLog(f"{workload.name}/seed{args.seed}")
            traced = trace_pass(workload, args.seed, n, work, log, shrink)
            logs.append(log)
            entry["layers"] = layer_metrics(traced, contract)
            print_layers(workload.name, traced, entry["layers"])
            entry["us_per_job_by_layer"] = traced["table"]
            entry["spawn_ceiling_curve"] = traced["spawn_ceiling_curve"]
            summary["failed"] += traced["failed"]
        entry["failed"] = summary["failed"]
        doc["workloads"][workload.name] = entry
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{label}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    for log in logs:
        log.write_chrome_trace(RESULTS / f"{label}-spans-{log.trace_id.split('/')[0]}.json")
    print(f"\nwrote {RESULTS / (label + '.json')}")
    return doc


def worsening(a: dict, b: dict, d: dict) -> float:
    """How much worse ``b``'s median is than ``a``'s, as a share of ``a``'s
    (negative = better)."""
    if a["median"] == 0:  # failed_share: any rise is a worsening
        return float(b["median"] > 0)
    change = (b["median"] - a["median"]) / abs(a["median"])
    return -change if d["better"] == "higher" else change


def verdict(a: dict, b: dict, d: dict) -> str:
    """better / unchanged / worse by the metric's bound, or unresolved
    when either side's own spread is wider than the bound."""
    if a["median"] and max(stats.spread(a), stats.spread(b)) > d["bound"]:
        return "unresolved"
    w = worsening(a, b, d)
    if w > d["bound"]:
        return "worse"
    return "better" if w < -d["bound"] else "unchanged"


def compare(doc_a: dict, doc_b: dict, contract: dict) -> list[tuple[float, dict, str]]:
    """Print one row per (workload, metric); return (worsening, metric
    definition, verdict) per row."""
    print(f"{'workload':<15}{'metric':<19}{'A median [q1, q3]':>38}"
          f"{'B median [q1, q3]':>38}{'bound':>7}  verdict")
    rows = []
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"][name]
        for d in e2e_defs(contract, name):
            a, b = entry_a["e2e"][d["name"]], entry_b["e2e"][d["name"]]
            rows.append((worsening(a, b, d), d, verdict(a, b, d)))
            cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]" for s in (a, b)]
            print(f"{name:<15}{d['name']:<19}{cells[0]:>38}{cells[1]:>38}"
                  f"{d['bound']:>7.2f}  {rows[-1][2]}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=None,
                    help="with --workload: time to measure for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 = the traced pass (per-layer metrics)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="full set: fresh-interpreter repeats per workload")
    ap.add_argument("--quick", action="store_true",
                    help=f"schema run: every workload ~{QUICK_SHRINK}x smaller, one repeat")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run the end-to-end set twice and compare the two")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--label", default=None, help="results/<label>.json")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"hthpc: no engine source under {SRC}", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.compare:
        docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare]
        rows = compare(docs[0], docs[1], contract)
        return 1 if any(v in ("worse", "unresolved") for _w, _d, v in rows) else 0

    HERE.joinpath("work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="w-", dir=HERE / "work"))
    try:
        if args.workload:
            if args.seconds is None:
                args.seconds = float(contract["run_seconds"])
            return run_contract(args, contract, work)
        label = args.label or ("quick" if args.quick else f"seed{args.seed}")
        if args.selfcheck:
            first = run_set(args, contract, work, f"{label}-selfcheck-a", with_layers=False)
            second = run_set(args, contract, work, f"{label}-selfcheck-b", with_layers=False)
            # Same code twice: a median that moved by more than its
            # bound, either way, is the benchmark's own unsteadiness.
            rows = compare(first, second, contract)
            moved = [d["name"] for w, d, _v in rows if abs(w) > d["bound"]]
            print(f"selfcheck: {len(moved)} of {len(rows)} medians moved past their bound")
            return 1 if moved else 0
        doc = run_set(args, contract, work, label, with_layers=True)
        return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
