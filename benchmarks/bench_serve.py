"""Throughput/latency benchmark of the multi-tenant serving layer.

Measures the programmatic :class:`repro.serve.Server` path (pool + queue +
worker execution, no HTTP socket noise) under a fixed CPU-bound multi-tenant
job mix — each tenant submits interleaved ``validate``/``profile``/
``discover`` requests against its own relation — sweeping the worker-pool
size (1/2/4/8 by default) for each executor (``thread`` and ``process`` by
default)::

    PYTHONPATH=src python benchmarks/bench_serve.py --label serve
    PYTHONPATH=src python benchmarks/bench_serve.py --executors process

For each (executor, worker count) pair the bench records wall-clock
throughput (jobs/s) and per-job latency percentiles (p50/p95, submission to
completion).  Results merge under their label into ``BENCH_serve.json``
(repo root), following the conventions of ``bench_partition_kernel.py``;
run metadata records the executor kinds, worker counts, multiprocessing
start method and the **host CPU count** — read flat process-executor curves
against that number before reading them as regressions.

Scaling expectation: the kernel is CPU-bound Python/numpy, so thread
workers serialise on the GIL (throughput stays within a few percent of the
bare sequential baseline across the sweep — the signal is that it does not
*collapse*), while process workers run truly in parallel: on an N-core host
the process executor should approach min(workers, N)× the thread executor's
throughput, minus the wire cost of shipping each relation to a worker
process.  Worker processes are warmed up before timing starts, so spawn
cost is not measured.

A registry-backed leg rides along: one shared relation submitted
``jobs_per_tenant`` times, inline versus ``PUT /relations`` once and
``relation_ref`` thereafter, recording wall seconds and submitted payload
bytes for both modes (the ``registry`` key of the merged run).  The leg
uses a persistent registry, so under the process executor each worker
resolves the ref from disk once and reuses the cached relation.

Scale comes from ``REPRO_BENCH_SCALE`` (``tiny``/``small``/``medium``/
``large`` or an explicit row count).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import ServeConfig  # noqa: E402
from repro.relational.relation import Relation  # noqa: E402
from repro.serve import JobRequest, Server  # noqa: E402
from repro.session import Session  # noqa: E402

#: Rows of each tenant's relation per named scale.
SCALE_ROWS = {"tiny": 300, "small": 1_500, "medium": 5_000, "large": 15_000}

#: (attribute, cardinality as a function of n_rows) of the tenant relations.
COLUMN_SPECS = (
    ("flag", lambda n: 2),
    ("grade", lambda n: 5),
    ("city", lambda n: 40),
    ("dept", lambda n: max(2, n // 100)),
    ("account", lambda n: max(4, n // 20)),
    ("region", lambda n: 3),
)


def _resolve_rows(scale: str) -> int:
    if scale in SCALE_ROWS:
        return SCALE_ROWS[scale]
    try:
        return max(10, int(float(scale) * SCALE_ROWS["small"]))
    except ValueError:
        raise SystemExit(f"unknown REPRO_BENCH_SCALE {scale!r}")


def build_relation(name: str, n_rows: int, seed: int) -> Relation:
    rng = random.Random(seed)
    names = tuple(name for name, _ in COLUMN_SPECS)
    cards = [max(1, card(n_rows)) for _, card in COLUMN_SPECS]
    rows = [
        tuple(f"{col}_{rng.randrange(card)}" for (col, _), card in zip(COLUMN_SPECS, cards))
        for _ in range(n_rows)
    ]
    return Relation(name, names, rows)


#: The interleaved (kind, params) job mix each tenant cycles through.
JOB_MIX = (
    ("validate", {"fds": ["dept -> flag", "account -> grade", "city,region -> dept"]}),
    ("profile", {"threshold": 0.3, "max_lhs": 2}),
    ("discover", {"algorithm": "tane", "max_lhs_size": 3}),
)


def tenant_requests(tenant: str, n_rows: int, jobs: int, seed: int) -> list[JobRequest]:
    """An interleaved validate/profile/discover mix of ``jobs`` requests.

    Every request carries its **own** relation (same shape, different seed):
    the wire protocol ships relations inline, so a worker process pays the
    decode/encode of each job's relation — giving the thread executor the
    same cold-cache job makes the comparison measure executor scaling, not
    relation-cache reuse (and matches a serving mix where tenants profile
    many datasets, which is the CPU-bound case worth scaling).
    """
    requests = []
    for index in range(jobs):
        kind, params = JOB_MIX[index % len(JOB_MIX)]
        relation = build_relation(f"rel_{seed}_{index}", n_rows, seed=seed * 1000 + index)
        requests.append(
            JobRequest(tenant=tenant, kind=kind, relation=relation, params=dict(params))
        )
    return requests


def bench_workers(
    executor: str, workers: int, requests_by_tenant: dict[str, list[JobRequest]]
) -> dict:
    """Run the full job mix through a fresh server; returns timing stats.

    The server (including executor warmup — worker processes are started
    and pinged before the clock starts) is built outside the timed window,
    so the numbers measure steady-state serving, not boot.
    """
    n_tenants = len(requests_by_tenant)
    total_jobs = sum(len(reqs) for reqs in requests_by_tenant.values())
    with Server(
        workers=workers,
        max_queue=total_jobs,
        max_inflight_per_tenant=1,
        max_sessions=n_tenants,
        executor=executor,
        warmup=True,
    ) as server:
        started = time.perf_counter()
        tickets = []
        # Round-robin submission: all tenants contend from the first job on.
        for round_requests in zip(*requests_by_tenant.values()):
            for request in round_requests:
                tickets.append(server.submit(request))
        jobs = [server.queue.get(ticket.job_id) for ticket in tickets]
        for job in jobs:
            if not job.wait(600):
                raise SystemExit(f"job {job.job_id} did not finish")
        elapsed = time.perf_counter() - started
        failed = [job for job in jobs if job.status != "done"]
        if failed:
            raise SystemExit(f"{len(failed)} jobs failed: {failed[0].error}")
        latencies = sorted(job.finished_at - job.submitted_at for job in jobs)
    return {
        "executor": executor,
        "workers": workers,
        "jobs": total_jobs,
        "tenants": n_tenants,
        "wall_seconds": round(elapsed, 6),
        "throughput_jobs_per_s": round(total_jobs / elapsed, 3),
        "latency_p50_s": round(statistics.median(latencies), 6),
        "latency_p95_s": round(latencies[max(0, int(len(latencies) * 0.95) - 1)], 6),
    }


def bench_registry(executor: str, workers: int, n_rows: int, jobs: int) -> dict:
    """The registry-backed leg: one shared relation, ``jobs`` submissions.

    Compares shipping the relation inline with every request against
    ``PUT /relations`` once and submitting by ``relation_ref`` — the
    hot-relation serving mix the content-addressed registry exists for.
    Records wall seconds and the submitted payload bytes of both modes
    (the byte ratio is deterministic; the wall-clock gap grows with
    relation size and, for the process executor, with the per-job decode
    the inline path pays in each worker).
    """
    relation = build_relation("shared", n_rows, seed=1234)
    mix = [JOB_MIX[index % len(JOB_MIX)] for index in range(jobs)]
    timings: dict[str, dict] = {}
    for mode in ("inline", "relation_ref"):
        with tempfile.TemporaryDirectory(prefix="repro-bench-registry-") as root:
            with Server(
                workers=workers,
                max_queue=jobs,
                max_inflight_per_tenant=workers,
                executor=executor,
                warmup=True,
                registry=root,
            ) as server:
                content_hash = server.put_relation(relation)["hash"]
                payload_bytes = 0
                started = time.perf_counter()
                tickets = []
                for kind, params in mix:
                    request = {
                        "schema": "repro/job-request-v1",
                        "tenant": "bench",
                        "kind": kind,
                        "params": dict(params),
                        "overrides": {},
                    }
                    if mode == "inline":
                        request["relation"] = {
                            "name": relation.name,
                            "attributes": list(relation.attribute_names),
                            "rows": [list(row) for row in relation.rows],
                        }
                    else:
                        request["relation_ref"] = content_hash
                    payload_bytes += len(json.dumps(request).encode("utf-8"))
                    tickets.append(server.submit(request))
                jobs_list = [server.queue.get(ticket.job_id) for ticket in tickets]
                for job in jobs_list:
                    if not job.wait(600):
                        raise SystemExit(f"registry bench job {job.job_id} did not finish")
                    if job.status != "done":
                        raise SystemExit(f"registry bench job failed: {job.error}")
                elapsed = time.perf_counter() - started
        timings[mode] = {
            "wall_seconds": round(elapsed, 6),
            "payload_bytes": payload_bytes,
            "throughput_jobs_per_s": round(jobs / elapsed, 3),
        }
    inline, by_ref = timings["inline"], timings["relation_ref"]
    return {
        "executor": executor,
        "workers": workers,
        "jobs": jobs,
        "n_rows": n_rows,
        "inline": inline,
        "relation_ref": by_ref,
        "payload_bytes_saved": inline["payload_bytes"] - by_ref["payload_bytes"],
        "speedup_vs_inline": round(inline["wall_seconds"] / by_ref["wall_seconds"], 3),
    }


def bench_bare_baseline(requests_by_tenant: dict[str, list[JobRequest]]) -> float:
    """Sequential bare-session execution of the same mix (no serving layer)."""
    from repro.serve import execute_request

    started = time.perf_counter()
    for tenant, requests in requests_by_tenant.items():
        session = Session()
        for request in requests:
            execute_request(session, request)
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="serve", help="run label merged into the output JSON")
    default_output = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    parser.add_argument(
        "--output", default=str(default_output), help="path of the JSON trajectory file"
    )
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--jobs-per-tenant", type=int, default=9)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=[1, 2, 4, 8],
        help="worker-pool sizes to sweep",
    )
    parser.add_argument(
        "--executors",
        nargs="*",
        choices=("thread", "process"),
        default=["thread", "process"],
        help="executor kinds to sweep (default: both)",
    )
    args = parser.parse_args(argv)

    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    n_rows = _resolve_rows(scale)
    requests_by_tenant = {
        f"tenant-{i}": tenant_requests(
            f"tenant-{i}", n_rows, args.jobs_per_tenant, seed=7 + i
        )
        for i in range(args.tenants)
    }

    bare_seconds = bench_bare_baseline(requests_by_tenant)
    sweeps = [
        bench_workers(executor, workers, requests_by_tenant)
        for executor in args.executors
        for workers in args.workers
    ]
    registry_workers = min(2, max(args.workers))
    registry_legs = [
        bench_registry(executor, registry_workers, n_rows, jobs=args.jobs_per_tenant)
        for executor in args.executors
    ]
    headlines = {
        executor: max(
            entry["throughput_jobs_per_s"]
            for entry in sweeps
            if entry["executor"] == executor
        )
        for executor in args.executors
    }
    result = {
        "n_rows": n_rows,
        "tenants": args.tenants,
        "jobs_per_tenant": args.jobs_per_tenant,
        "bare_sequential_seconds": round(bare_seconds, 6),
        "meta": {
            # Read scaling curves against the host: a process sweep cannot
            # beat min(workers, host_cpu_count)x on CPU-bound jobs.
            "host_cpu_count": os.cpu_count(),
            "executors": list(args.executors),
            "worker_counts": list(args.workers),
            "start_method": ServeConfig.from_env().start_method,
        },
        "sweep": sweeps,
        "registry": registry_legs,
        "headline_by_executor": headlines,
        "headline_throughput_jobs_per_s": max(headlines.values()),
    }

    output = Path(args.output)
    data: dict = {"schema_version": 1, "runs": {}}
    if output.exists():
        try:
            data = json.loads(output.read_text())
        except json.JSONDecodeError:
            pass
    data.setdefault("runs", {})[args.label] = {"scale": scale, **result}
    output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    print(
        f"[bench_serve] scale={scale} rows/tenant={n_rows} "
        f"tenants={args.tenants} jobs/tenant={args.jobs_per_tenant} "
        f"host_cpus={os.cpu_count()}"
    )
    print(
        f"  bare sequential: {bare_seconds:.3f} s "
        f"({args.tenants * args.jobs_per_tenant / bare_seconds:.1f} jobs/s)"
    )
    for sweep in sweeps:
        print(
            f"  executor={sweep['executor']:<8} workers={sweep['workers']:<3} "
            f"throughput={sweep['throughput_jobs_per_s']:8.1f} jobs/s  "
            f"p50={sweep['latency_p50_s'] * 1000:7.1f} ms  "
            f"p95={sweep['latency_p95_s'] * 1000:7.1f} ms"
        )
    for leg in registry_legs:
        saved = leg["payload_bytes_saved"]
        inline_bytes = leg["inline"]["payload_bytes"]
        print(
            f"  registry executor={leg['executor']:<8} workers={leg['workers']:<3} "
            f"inline={leg['inline']['wall_seconds']:.3f} s  "
            f"by-ref={leg['relation_ref']['wall_seconds']:.3f} s "
            f"(x{leg['speedup_vs_inline']:.2f})  "
            f"payload saved={saved:,} B ({100.0 * saved / inline_bytes:.1f}%)"
        )
    print(f"  -> merged into {output} under label {args.label!r}")


if __name__ == "__main__":
    main()
