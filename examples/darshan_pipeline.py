#!/usr/bin/env python3
"""The Darshan massive-log-processing workflow (§IV-B), end to end.

Part 1 runs the *real* analysis: a synthetic year of Darshan logs is
generated, then processed with the Listing-5 one-liner semantics —
``parallel -j36 darshan_arch ::: {1..12} ::: {0..2}`` — via the engine's
callable backend (36 month x app slices, all in parallel).

Part 2 replays the Fig. 7 staged NVMe-prefetch pipeline on the simulated
Frontier storage stack and prints the per-stage timings against the
paper's 86/68-minute stages and 17% improvement.

Run:  python examples/darshan_pipeline.py
"""

import json
import tempfile

from repro import Parallel
from repro.sim import Environment
from repro.storage.filesystem import make_lustre, make_nvme
from repro.workloads.darshan import (
    DarshanPipelineConfig,
    darshan_arch,
    generate_archive,
    run_staged_pipeline,
)


def main() -> None:
    # ---- Part 1: real parallel log analysis (Listing 5) -----------------
    with tempfile.TemporaryDirectory() as workdir:
        archive = f"{workdir}/archive"
        outdir = f"{workdir}/summaries"
        print("generating a synthetic year of Darshan logs ...")
        generate_archive(archive, n_jobs=60, seed=0)

        # parallel -j36 darshan_arch {1} {2} ::: {1..12} ::: {0..2}
        task = lambda month, app: darshan_arch(month, app, archive, outdir)
        summary = Parallel(task, jobs=36).run_sources(
            [[str(m) for m in range(1, 13)], ["0", "1", "2"]]
        )
        assert summary.ok
        print(f"processed {summary.n_succeeded} (month, app) slices in "
              f"{summary.wall_time:.2f}s with -j36")
        one = json.load(open(summary.sorted_results()[0].value))
        print(f"sample slice: month={one['month']} app={one['app']} "
              f"records={one['n_records']} read={one['bytes_read'] / 1e9:.1f} GB")

    # ---- Part 2: the Fig. 7 staged pipeline (simulated) -----------------
    print("\nreplaying the Fig. 7 NVMe-prefetch pipeline on simulated storage ...")
    env = Environment()
    report = run_staged_pipeline(
        env, make_lustre(env), make_nvme(env), DarshanPipelineConfig()
    )
    for i, t in enumerate(report.stage_times, start=1):
        src = "Lustre" if i == 1 else "NVMe"
        print(f"  stage {i} ({src:>6}): {t / 60:6.1f} min")
    print(f"  pipeline total : {report.total_time / 60:6.1f} min (paper: 358)")
    print(f"  all-Lustre     : {report.baseline_all_lustre / 60:6.1f} min (paper: 430)")
    print(f"  improvement    : {report.improvement:.1%} (paper: ~17%)")


if __name__ == "__main__":
    main()
