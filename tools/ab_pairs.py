#!/usr/bin/env python3
"""Interleaved A/B pairs of one ``hthpc`` workload across two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload noop_callable \\
        --seed 11 --seconds 15 --pairs 10

Runs ``benchmarks/hthpc/run.py --trace 0`` in each checkout, alternately,
flipping which side goes first on every pair, and reads each run's last
JSON line.  Prints every pair and, per end-to-end metric, both medians
and quartiles, the change's worsening against the metric's ``bound``
(unresolved when a side's IQR/median exceeds it, unless every change run
is better), its wins by ``better`` (ties count for neither) and the gain
rule: >= 9 wins in 10 pairs, a median gap over the parent's IQR, no more
failed jobs than the parent and every change run ``correct``.  The
result line carries only ``BENCHMARK.json``'s ``end_to_end`` metrics, so
``sleep_fill``'s own (``slot_utilization``, ``refill_ms_p50``) need
``run.py --compare``.  Stdlib only; the benchmark is run, not imported.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def last_json(stdout: str) -> dict:
    """The last line of ``stdout`` that starts a JSON object."""
    for line in reversed(stdout.splitlines()):
        if line.lstrip().startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the run's output")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``; its result document."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "benchmarks/hthpc/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        return last_json(proc.stdout)
    except ValueError:
        sys.exit(f"{checkout}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def aggregate(pairs: list[tuple[dict, dict]], defs: list[dict]) -> list[dict]:
    """One row per end-to-end metric: both sides' quartiles, the change's
    wins, its worsening against ``bound`` and whether the gain rule holds."""
    clean = (sum(p[1]["failed"] for p in pairs) <= sum(p[0]["failed"] for p in pairs)
             and all(p[1]["correct"] for p in pairs))
    rows = []
    for d in defs:
        name, sign = d["name"], 1.0 if d["better"] == "higher" else -1.0
        a, b = ([p[k]["metrics"][name]["value"] for p in pairs] for k in (0, 1))
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gap, iqr = sign * (qb[1] - qa[1]), qa[2] - qa[0]
        worse = -gap / abs(qa[1]) if qa[1] else float(gap < 0)
        spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
        every = all(sign * (y - x) > 0 for x in a for y in b)  # every change run better
        verdict = "unresolved" if spread > d["bound"] and not every else (
            "inside" if worse <= d["bound"] else "OUTSIDE")
        rows.append({"name": name, "unit": d["unit"], "parent": qa, "change": qb,
                     "wins": wins, "pairs": len(pairs), "gap": gap, "parent_iqr": iqr,
                     "worse": worse, "bound": d["bound"], "verdict": verdict,
                     "gain": clean and 10 * wins >= 9 * len(pairs) and gap > iqr})
    return rows


def report(pairs: list[tuple[dict, dict]], defs: list[dict]) -> str:
    """Every pair, then the per-metric summary, as printable text."""
    names = [d["name"] for d in defs]
    lines = [f"{'pair':<6}{'side':<8}" + "".join(f"{n:>16}" for n in names) + f"{'failed':>8}"]
    for i, pair in enumerate(pairs, 1):
        for side, doc in zip(("parent", "change"), pair):
            values = "".join(f"{doc['metrics'][n]['value']:>16.6g}" for n in names)
            lines.append(f"{i:<6}{side:<8}{values}{doc['failed']:>8}")
    lines += ["", f"{'metric':<16}{'parent median [q1, q3]':>36}{'change median [q1, q3]':>36}"
                  f"{'worse':>8}{'bound':>7}  {'bound check':<11}{'wins':>6}  gain rule"]
    for r in aggregate(pairs, defs):
        cells = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (r["parent"], r["change"])]
        lines.append(f"{r['name']:<16}{cells[0]:>36}{cells[1]:>36}{r['worse']:>+8.1%}"
                     f"{r['bound']:>7.2f}  {r['verdict']:<11}{r['wins']:>3}/{r['pairs']:<3}"
                     f"  {'holds' if r['gain'] else 'no'} (gap {r['gap']:.6g}"
                     f" vs parent IQR {r['parent_iqr']:.6g} {r['unit']})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    contract = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides, pairs = (args.parent, args.change), []
    for i in range(args.pairs):
        docs = {k: run_side(sides[k], args.workload, args.seed, args.seconds)
                for k in ((0, 1) if i % 2 == 0 else (1, 0))}
        pairs.append((docs[0], docs[1]))
        print(f"pair {i + 1}/{args.pairs} done", flush=True)
    print(f"\n{args.workload}, seed {args.seed}, --seconds {args.seconds}\n\n"
          + report(pairs, contract["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
