"""Per-layer probes: time each layer's public functions from outside.

Every probe works on the inputs the workload's generator wrote from the
seed (its arg file and command template, the seed's 64 KiB blobs and
16 MiB file) and runs under a benchmark-side span.  Tight loops get one
span with a ``calls`` count; calls that take a millisecond (spawn, reap)
get a span each, with child spans per step.

The predictions — which end-to-end metric each number here should move,
and on which workload it should not — are in ``README.md`` and were
written before the first measurement.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import SpanLog


@dataclass
class Kit:
    """The generated inputs the probes share; paths are relative to the
    workload's input directory, which is the working directory."""

    arg_file: str
    args: list[str]
    template: str
    blobs: list[str]
    big_file: str
    scratch: Path
    j: int
    seed: int
    #: --quick divides every probe's call count by this.
    shrink: int = 1

    def count(self, full: int, floor: int = 8) -> int:
        return max(floor, full // self.shrink)


def _per_call_us(span: dict) -> float:
    return (span["end"] - span["start"]) / span["args"]["calls"] * 1e6


def probe_inputs(kit: Kit, log: SpanLog) -> dict:
    from repro.core.inputs import from_file, group_args, normalize

    passes = max(1, kit.count(20_000) // len(kit.args))
    with log.span("core.inputs", calls=passes * len(kit.args)) as span:
        for _ in range(passes):
            for _group in group_args(normalize(from_file(kit.arg_file)), 1):
                pass
    return {"inputs_us_per_item": _per_call_us(span)}


def probe_template(kit: Kit, log: SpanLog) -> dict:
    from repro.core.template import CommandTemplate

    template = CommandTemplate(kit.template)
    groups = [(a,) for a in kit.args[:kit.count(20_000)]]
    passes = max(1, kit.count(20_000) // len(groups))
    with log.span("core.template", calls=passes * len(groups)) as span:
        for _ in range(passes):
            for seq, group in enumerate(groups, 1):
                template.render(group, seq=seq, slot=1 + seq % kit.j)
    return {"render_us_per_job": _per_call_us(span)}


def probe_slots(kit: Kit, log: SpanLog) -> dict:
    from repro.core.slots import SlotPool

    pool = SlotPool(kit.j)
    calls = kit.count(50_000)
    with log.span("core.slots", calls=calls) as span:
        for _ in range(calls):
            pool.release(pool.acquire())
    return {"slot_cycle_us": _per_call_us(span)}


def probe_callable(kit: Kit, log: SpanLog) -> dict:
    from repro.core.backends.callable_backend import CallableBackend
    from repro.core.job import Job
    from repro.core.options import Options

    from workloads import noop

    backend = CallableBackend(noop)
    options = Options(jobs=kit.j)
    jobs = [Job(seq, (a,)) for seq, a in enumerate(kit.args[:kit.count(50_000)], 1)]
    with log.span("core.backends.callable_backend", calls=len(jobs)) as span:
        for job in jobs:
            backend.run_job(job, 1, options)
    return {"callable_run_job_us": _per_call_us(span)}


def _cycled_args(kit: Kit, count: int) -> list[str]:
    return (kit.args * (count // len(kit.args) + 1))[:count]


def _true_jobs(kit: Kit, count: int) -> list:
    from repro.core.job import Job

    return [
        Job(seq, (arg,), command=f"true # {arg}")
        for seq, arg in enumerate(_cycled_args(kit, count), 1)
    ]


def probe_spawn_reap(kit: Kit, log: SpanLog) -> dict:
    """``SpawnLauncher.spawn`` -> ``PipeReaper.register`` -> ``wait``
    against the same ``sh -c`` started raw, and the reaper's byte rate."""
    from repro.core.backends.reaper import PipeReaper
    from repro.core.backends.spawn import SpawnLauncher

    commands = [job.command for job in _true_jobs(kit, kit.count(300))]
    launcher, reaper = SpawnLauncher(), PipeReaper()
    try:
        with log.span("spawn+reaper", calls=len(commands)) as layered:
            for command in commands:
                with log.span("core.backends.spawn.spawn"):
                    pid, out_fd, err_fd = launcher.spawn(command)
                with log.span("core.backends.reaper.register+wait"):
                    reaper.register(pid, out_fd, err_fd).wait()

        devnull = os.open(os.devnull, os.O_RDWR)
        actions = [(os.POSIX_SPAWN_DUP2, devnull, fd) for fd in (0, 1, 2)]
        try:
            with log.span("raw posix_spawn+waitpid", calls=len(commands)) as raw:
                for command in commands:
                    pid = os.posix_spawn(
                        "/bin/sh", ["/bin/sh", "-c", command], os.environ,
                        file_actions=actions, setsid=True,
                    )
                    os.waitpid(pid, 0)
        finally:
            os.close(devnull)

        # Eight processes, one after the other, each writing every blob
        # eight times: 8 MiB a process, so reading dominates the spawn.
        cat = "cat " + " ".join(kit.blobs * 8)
        nbytes = 0
        with log.span("core.backends.reaper bytes") as reading:
            for _ in range(kit.count(8, floor=1)):
                pid, out_fd, err_fd = launcher.spawn(cat)
                handle = reaper.register(pid, out_fd, err_fd)
                handle.wait()
                nbytes += len(handle.stdout_buf)
    finally:
        reaper.close()
        launcher.close()
    spawn_reap, raw_spawn = _per_call_us(layered), _per_call_us(raw)
    return {
        "spawn_reap_us": spawn_reap,
        "raw_spawn_us": raw_spawn,
        "spawn_layer_overhead_us": spawn_reap - raw_spawn,
        "reaper_mb_per_s": nbytes / 1e6 / (reading["end"] - reading["start"]),
    }


def probe_local_run_job(kit: Kit, log: SpanLog) -> dict:
    """``LocalShellBackend.run_job``, serial, on each spawn path."""
    from repro.core.backends.local import LocalShellBackend
    from repro.core.options import Options

    out = {}
    jobs = _true_jobs(kit, kit.count(300))
    for path in ("posix", "popen"):
        backend = LocalShellBackend()
        options = Options(jobs=kit.j, spawn_path=path)
        backend.prepare_run(options)
        try:
            with log.span(f"core.backends.local.run_job[{path}]",
                          calls=len(jobs)) as span:
                for job in jobs:
                    result = backend.run_job(job, 1, options)
                    if result.exit_code != 0:
                        raise RuntimeError(f"probe job failed: {result}")
        finally:
            backend.close()
        out[f"run_job_us_{path}"] = _per_call_us(span)
    return out


def probe_rpc_codec(kit: Kit, log: SpanLog) -> dict:
    """One spawn record and one result record, each packed, framed and
    parsed back, per iteration."""
    from repro.core.backends.pool import (
        FK_RESULT, FK_SPAWN, iter_result_records, iter_spawn_records,
        pack_frame, pack_result_record, pack_spawn_record,
    )

    groups = [(a,) for a in kit.args[:kit.count(10_000)]]
    with log.span("core.backends.pool codec", calls=2 * len(groups)) as span:
        for i, group in enumerate(groups):
            frame = pack_frame(FK_SPAWN, [pack_spawn_record(i, i, 3, args=group)])
            for _record in iter_spawn_records(frame):
                pass
            frame = pack_frame(FK_RESULT, [pack_result_record(
                i, 0, b"", b"", 1.0, 2.0, 0.001, 4242)])
            for _record in iter_result_records(frame):
                pass
    return {"rpc_records_per_s": 1e6 / _per_call_us(span)}


def probe_sequencer(kit: Kit, log: SpanLog) -> dict:
    """``OutputSequencer.push`` + ``format_output`` on shuffled 64 KiB
    results under --keep-order --tag."""
    from repro.core.job import JobResult
    from repro.core.options import Options
    from repro.core.output import OutputSequencer

    texts = [Path(b).read_text() for b in kit.blobs]
    results = [
        JobResult(seq, (kit.blobs[seq % len(texts)],), "cat", 0,
                  stdout=texts[seq % len(texts)], slot=1)
        for seq in range(1, 257)
    ]
    random.Random(f"{kit.seed}/sequencer").shuffle(results)
    emitted = 0

    def emit(_result, text: str) -> None:
        nonlocal emitted
        emitted += len(text)

    sequencer = OutputSequencer(emit, Options(jobs=kit.j, keep_order=True, tag=True))
    with log.span("core.output", calls=len(results)) as span:
        for result in results:
            sequencer.push(result)
    if sequencer.pending or not emitted:
        raise RuntimeError("sequencer probe did not emit every result")
    return {"sequencer_us_per_result": _per_call_us(span)}


def probe_joblog(kit: Kit, log: SpanLog) -> dict:
    """Writes beside reads: the log just written is scanned back."""
    from repro.core.job import JobResult
    from repro.core.joblog import JoblogWriter, completed_seqs, scan_joblog

    results = [
        JobResult(seq, (arg,), f"true # {arg}", 0,
                  start_time=1.7e9 + seq, end_time=1.7e9 + seq + 0.004)
        for seq, arg in enumerate(_cycled_args(kit, kit.count(20_000)), 1)
    ]
    path = str(kit.scratch / "probe-joblog.tsv")
    with log.span("core.joblog write", calls=len(results)) as writing:
        writer = JoblogWriter(path)
        for result in results:
            writer.write(result)
        writer.close()
    with log.span("core.joblog scan", calls=2 * len(results)) as scanning:
        scan = scan_joblog(path)
        done = completed_seqs(path)
    os.remove(path)
    if len(scan.entries) != len(results) or len(done) != len(results):
        raise RuntimeError("joblog probe read back a different record count")
    return {
        "joblog_write_us_per_record": _per_call_us(writing),
        "joblog_scan_us_per_line": _per_call_us(scanning),
    }


def probe_copy(kit: Kit, log: SpanLog) -> dict:
    from repro.storage.transfer import copy_file

    dest = str(kit.scratch / "probe-copy.bin")
    nbytes = 0
    with log.span("storage.transfer") as span:
        for _ in range(kit.count(3, floor=1)):
            nbytes += copy_file(kit.big_file, dest)
    os.remove(dest)
    return {"copy_mb_per_s": nbytes / 1e6 / (span["end"] - span["start"])}


PROBES: list[Callable[[Kit, SpanLog], dict]] = [
    probe_inputs, probe_template, probe_slots, probe_callable,
    probe_spawn_reap, probe_local_run_job, probe_rpc_codec,
    probe_sequencer, probe_joblog, probe_copy,
]


def run_probes(kit: Kit, log: SpanLog) -> dict[str, float]:
    metrics: dict[str, float] = {}
    with log.span("layer probes"):
        for probe in PROBES:
            metrics.update(probe(kit, log))
    return metrics


_STAGE_BYTES = 256 << 10
_BLOB_BYTES = 64 << 10

_COMMON = {
    "core.inputs": lambda m: m["inputs_us_per_item"],
    "core.template": lambda m: m["render_us_per_job"],
    "core.slots": lambda m: m["slot_cycle_us"],
}
_RUN_JOB = {"core.backends.local (spawn+reap)": lambda m: m["run_job_us_posix"]}

#: What one job of each workload pays, per probed layer, in µs.  Bytes
#: over a MB/s rate are µs.  Whatever wall time these do not explain is
#: printed as ``scheduler_residual_us``.
JOB_PATH: dict[str, dict[str, Callable[[dict], float]]] = {
    "noop_callable": {
        "core.inputs": _COMMON["core.inputs"],
        "core.slots": _COMMON["core.slots"],
        "core.backends.callable_backend": lambda m: m["callable_run_job_us"],
    },
    "true_spawn": {
        **_COMMON, **_RUN_JOB,
        "core.joblog": lambda m: m["joblog_write_us_per_record"],
    },
    "sharded_spawn": {
        **_COMMON,
        "core.backends.pool (2 records)": lambda m: 2e6 / m["rpc_records_per_s"],
        "core.backends.spawn+reaper": lambda m: m["spawn_reap_us"],
        "core.joblog": lambda m: m["joblog_write_us_per_record"],
    },
    "cat_output": {
        **_COMMON, **_RUN_JOB,
        "core.backends.reaper (64 KiB)": lambda m: _BLOB_BYTES / m["reaper_mb_per_s"],
        "core.output": lambda m: m["sequencer_us_per_result"],
    },
    "sleep_fill": {**_COMMON, **_RUN_JOB},
    "stage_mixed": {
        **_COMMON,
        "core.backends.spawn+reaper": lambda m: m["spawn_reap_us"],
        "storage.transfer (256 KiB)": lambda m: _STAGE_BYTES / m["copy_mb_per_s"],
    },
}


def layer_table(workload: str, metrics: dict[str, float]) -> dict[str, float]:
    return {layer: cost(metrics) for layer, cost in JOB_PATH[workload].items()}
