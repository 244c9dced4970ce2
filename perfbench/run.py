"""The repository benchmark: InFine vs the straightforward pipeline, and a served mix.

Run from the repository root::

    python3 perfbench/run.py --workload infine-views --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Lines before it
are a human-readable report and one ``perfbench-meta`` line of run
metadata.

Other modes::

    python3 perfbench/run.py --smoke                       # all workloads, tiny inputs
    python3 perfbench/run.py ... --save results/base.jsonl  # append the run to a file
    python3 perfbench/run.py --compare base.jsonl head.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import pairs_won, percentile, quartiles, spread, verdict  # noqa: E402

WORKLOADS = ("infine-views", "baseline-views", "serve-profiling")
#: Input scale of each workload.
SCALES = {"infine-views": "medium", "baseline-views": "medium", "serve-profiling": "large"}
#: Set-ups per served run; ``setup_s`` is their median.
SERVE_SETUPS = 2
BASELINES = ("tane", "fun", "fastfds", "hyfd")
#: Served-mix counts that grow with the run's length, reported per pass.
PER_PASS_COUNTS = frozenset({"registry.ref_hits", "serve.rejected_429", "serve.retries"})


def _view_metric(key: str) -> str:
    return "infine.view." + key.replace("/", ".") + "_s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from repro.datasets import paper_views

    units = {
        "infine.base_s": "s",
        "infine.upstage_s": "s",
        "infine.infer_s": "s",
        "infine.mine_s": "s",
        "infine.mine.candidates_validated": "count",
        "infine.mine.pruned_logically": "count",
        "infine.mine.fds": "count",
        "infine.mine.useful_ratio": "ratio",
        "infine.partial_join_rows": "count",
    }
    units.update({_view_metric(case.key): "s" for case in paper_views()})
    for name in ("hits", "misses", "evictions", "evicted_positions"):
        units[f"relational.partition_cache.{name}"] = "count"
    units["relational.partition_cache.hit_rate"] = "ratio"
    units["relational.equi_join.calls"] = "count"
    units["relational.equi_join_s"] = "s"
    for op in ("from_column", "from_columns", "intersect", "refines"):
        units[f"relational.partition.{op}.calls"] = "count"
        units[f"relational.partition.{op}.s"] = "s"
    units["relational.validate_level.calls"] = "count"
    units["relational.validate_level.candidates"] = "count"
    units["relational.validate_level.s"] = "s"
    units["relational.mark_cache.hits"] = "count"
    units["relational.mark_cache.misses"] = "count"
    units["relational.mark_cache.hit_rate"] = "ratio"
    units["relational.sort.counting"] = "count"
    units["relational.sort.introsort"] = "count"
    units["relational.sharded_groupings"] = "count"
    units["relational.combined_prefix.hits"] = "count"
    units["relational.combined_prefix.misses"] = "count"
    for name in BASELINES:
        units[f"discovery.{name}.calls"] = "count"
        units[f"discovery.{name}.s"] = "s"
    units.update(
        {
            "serve.job_ms.p95": "ms",
            "serve.post_ms.p50": "ms",
            "serve.poll_ms.p50": "ms",
            "serve.polls_per_job": "count",
            "serve.queue_wait_ms.p50": "ms",
            "serve.queue_wait_ms.p95": "ms",
            "serve.service_ms.discover.p50": "ms",
            "serve.service_ms.validate.p50": "ms",
            "serve.service_ms.profile.p50": "ms",
            "serve.overhead_ms.p50": "ms",
            "serve.executed_share": "ratio",
            "serve.rejected_429": "count",
            "serve.retries": "count",
            "registry.put_s": "s",
            "registry.ref_hits": "count",
            "datasets.generate_s": "s",
        }
    )
    for layer in ("infine", "relational", "discovery", "serve", "registry", "datasets"):
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "trace.uncovered_s": "s",
            "trace.covered_share": "ratio",
            "trace.overhead_s": "s",
            "trace.overhead_share": "ratio",
            "error_rate": "ratio",
            "host.reference_ms": "ms",
            "host.raw_wall_s": "s",
        }
    )
    return units


# -- per-layer assembly -------------------------------------------------------


def _kernel_layers(kernel: dict, operations: dict, per: float) -> dict[str, float]:
    """Metrics read from the kernel counters and the span table."""

    def op(name, field):
        return operations.get(name, {}).get(field, 0) / per

    hits, misses = kernel["partition_hits"], kernel["partition_misses"]
    mark_hits, mark_misses = kernel["mark_hits"], kernel["mark_misses"]
    layers = {
        "relational.partition_cache.hits": hits / per,
        "relational.partition_cache.misses": misses / per,
        "relational.partition_cache.evictions": kernel["partition_evictions"] / per,
        "relational.partition_cache.evicted_positions": kernel["partition_evicted_positions"]
        / per,
        "relational.partition_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "datasets.generate_s": op("datasets.generate", "s"),
        "relational.equi_join.calls": op("relational.equi_join", "calls"),
        "relational.equi_join_s": op("relational.equi_join", "s"),
        "relational.validate_level.calls": op("relational.validate_level", "calls"),
        "relational.validate_level.candidates": op("relational.validate_level", "items"),
        "relational.validate_level.s": op("relational.validate_level", "s"),
        "relational.mark_cache.hits": mark_hits / per,
        "relational.mark_cache.misses": mark_misses / per,
        "relational.mark_cache.hit_rate": mark_hits / (mark_hits + mark_misses)
        if mark_hits + mark_misses
        else 0.0,
        "relational.sort.counting": kernel["counting_sorts"] / per,
        "relational.sort.introsort": kernel["introsorts"] / per,
        "relational.sharded_groupings": kernel["sharded_groupings"] / per,
        "relational.combined_prefix.hits": kernel["combined_prefix_hits"] / per,
        "relational.combined_prefix.misses": kernel["combined_prefix_misses"] / per,
    }
    for name in ("from_column", "from_columns", "intersect", "refines"):
        layers[f"relational.partition.{name}.calls"] = op(f"relational.partition.{name}", "calls")
        layers[f"relational.partition.{name}.s"] = op(f"relational.partition.{name}", "s")
    for name in BASELINES:
        layers[f"discovery.{name}.calls"] = op(f"discovery.{name}", "calls")
        layers[f"discovery.{name}.s"] = op(f"discovery.{name}", "s")
    return layers


def _trace_tables(measurement):
    """``(operations, kernel counters, layer self s, passes, covered share)``.

    The served mix reads the summary its traced server wrote out; its
    operations are jobs, whose covered share is the executed share of
    their latency.
    """
    if measurement.server_trace is not None:
        from serving import PASS_JOBS

        trace = measurement.server_trace
        passes = max(measurement.layers["serve.jobs"], 1) / PASS_JOBS
        covered = measurement.layers.get("serve.executed_share", 0.0)
        return trace["operations"], trace["kernel"], trace["layers"], passes, covered
    tracer = measurement.tracer
    return (
        tracer.operations(),
        tracer.kernel_totals(),
        tracer.layer_self_seconds(),
        measurement.traced_passes,
        tracer.coverage(),
    )


def per_layer(measurement) -> dict[str, float]:
    """Every per-layer metric, per pass, from a traced run."""
    values = dict.fromkeys(per_layer_units(), 0.0)
    operations, kernel, self_s, per, covered = _trace_tables(measurement)
    uncovered = self_s.get("untraced", 0.0) / per
    values.update(_kernel_layers(kernel, operations, per))
    for name, value in measurement.layers.items():
        if name not in values:
            continue
        scaled = name in PER_PASS_COUNTS or (
            name.startswith("infine.") and not name.startswith("infine.view.")
        )
        values[name] = value / per if scaled else value
    if values["infine.mine.candidates_validated"]:
        values["infine.mine.useful_ratio"] = (
            values["infine.mine.fds"] / values["infine.mine.candidates_validated"]
        )
    for key, samples in measurement.infine_views.items():
        values[_view_metric(key)] = statistics.median(samples)
    for layer in ("infine", "relational", "discovery", "serve", "registry", "datasets"):
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0) / per
    untraced = statistics.median(measurement.pass_s)
    traced = statistics.median(measurement.traced_pass_s)
    values["trace.uncovered_s"] = uncovered
    values["trace.covered_share"] = covered
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_share"] = (traced - untraced) / untraced
    values["error_rate"] = measurement.failed / max(measurement.attempted, 1)
    if measurement.reference_s:
        values["host.reference_ms"] = statistics.median(measurement.reference_s) * 1000.0
        values["host.raw_wall_s"] = statistics.median(measurement.raw_pass_s)
    return values


# -- metadata and reports -----------------------------------------------------


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, measurement) -> dict:
    import numpy

    from repro.session import Session

    session = Session()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": session.kernel_stats()["backend"],
        "config_fingerprint": session.config.fingerprint(),
        "commit": _commit(),
    }
    meta.update(measurement.meta)
    return meta


def _report_end_to_end(workload, measurement, metrics) -> None:
    from measure import END_TO_END_UNITS

    scope = "untraced half of a traced run" if measurement.traced else "tracing off"
    print(f"== {workload}: end-to-end ({scope})")
    samples = {
        "setup_s": f"median of {len(measurement.setup_s)} set-ups, in reference seconds",
        "wall_s": f"median of {measurement.passes} passes",
        "jobs_per_s": f"{len(measurement.latencies)} operations",
        "job_ms.p50": f"{len(measurement.latencies)} operations",
        "job_ms.mean": f"{len(measurement.latencies)} operations",
        "ok_rate": f"error_rate {measurement.failed}/{measurement.attempted}",
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<14} {metrics[name]:>12.4f} {unit:<6} {samples.get(name, '')}")
    print("  passes (s): " + ", ".join(f"{seconds:.3f}" for seconds in measurement.pass_s))
    if measurement.reference_s:
        print("  times above are reference seconds; passes in wall seconds: " + ", ".join(
            f"{seconds:.3f}" for seconds in measurement.raw_pass_s
        ) + "; median reference task (ms): " + ", ".join(
            f"{seconds * 1000.0:.2f}" for seconds in measurement.reference_s
        ))
    latencies_ms = [seconds * 1000.0 for seconds in measurement.latencies]
    print("  latency percentiles (ms): " + ", ".join(
        f"p{q} {percentile(latencies_ms, q):.1f}" for q in (50, 90, 95, 97, 98, 99)
    ))


def _report_layers(workload, measurement, values) -> None:
    print(f"== {workload}: per layer (traced, per pass)")
    operations, _, _, per, _ = _trace_tables(measurement)
    wall = statistics.median(measurement.traced_pass_s)
    print(f"  {'span':<36} {'calls':>10} {'s':>9} {'self s':>9} {'self share':>10}")
    for name, row in sorted(operations.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"  {name:<36} {row['calls'] / per:>10.1f} {row['s'] / per:>9.3f} "
            f"{row['self_s'] / per:>9.3f} {row['self_s'] / per / wall:>10.1%}"
        )
    if measurement.server_trace is not None:
        print("  jobs: " + ", ".join(
            f"{name[6:]} {values[name]:.2f}" for name in values
            if name.startswith("serve.") and not name.endswith("self_s")
        ))
    print("  self time by layer: " + ", ".join(
        f"{layer} {values[f'{layer}.self_s']:.3f} s"
        for layer in ("infine", "relational", "discovery", "serve", "registry", "datasets")
    ) + f", uncovered {values['trace.uncovered_s']:.3f} s")
    print(f"  layer spans cover {values['trace.covered_share']:.1%} of operation wall time")
    print(
        "  partition cache hit_rate "
        f"{values['relational.partition_cache.hit_rate']:.3f} "
        f"(hits {values['relational.partition_cache.hits']:.0f}, "
        f"misses {values['relational.partition_cache.misses']:.0f}, "
        f"evictions {values['relational.partition_cache.evictions']:.0f})"
    )
    print(
        "  mark cache hit_rate "
        f"{values['relational.mark_cache.hit_rate']:.3f} "
        f"(hits {values['relational.mark_cache.hits']:.0f}, "
        f"misses {values['relational.mark_cache.misses']:.0f})"
    )
    print(
        "  mineFDs useful_ratio "
        f"{values['infine.mine.useful_ratio']:.4f} "
        f"(mined FDs {values['infine.mine.fds']:.0f} / "
        f"candidates validated {values['infine.mine.candidates_validated']:.0f})"
    )
    print(
        f"  tracing overhead {values['trace.overhead_s']:+.3f} s per pass "
        f"({values['trace.overhead_share']:+.1%}): traced wall_s "
        f"{statistics.median(measurement.traced_pass_s):.3f} vs untraced "
        f"{statistics.median(measurement.pass_s):.3f}"
    )
    print(f"  error_rate {values['error_rate']:.4f} ({measurement.failed}/{measurement.attempted})")


def _write_trace(args, measurement) -> Path:
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    path = workdir / f"trace-{args.workload}-seed{args.seed}.json"
    if measurement.tracer is not None:
        measurement.tracer.dump(path)
    else:
        path.write_text(json.dumps(measurement.server_trace))
    return path


# -- modes --------------------------------------------------------------------


def measure(args):
    """Run one workload; returns ``(measurement, result)``."""
    if args.workload == "serve-profiling":
        from serving import run_serve

        measurement = run_serve(
            ROOT, args.seed, args.seconds, bool(args.trace), args.scale, args.setups
        )
    else:
        from views import run_views

        measurement = run_views(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
    if args.trace:
        metrics = per_layer(measurement)
        units = per_layer_units()
        _report_end_to_end(args.workload, measurement, measurement.end_to_end())
        _report_layers(args.workload, measurement, metrics)
        print(f"  spans written to {_write_trace(args, measurement)}")
    else:
        from measure import END_TO_END_UNITS

        metrics = measurement.end_to_end()
        units = END_TO_END_UNITS
        _report_end_to_end(args.workload, measurement, metrics)
    for message in measurement.errors[:20]:
        print(f"  FAILED: {message}")
    result = {
        "correct": not measurement.errors,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return measurement, result


def run_one(args) -> int:
    measurement, result = measure(args)
    meta = metadata(args, measurement)
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        with open(args.save, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**record, "meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def smoke(args) -> int:
    """Every workload on tiny inputs, with its checks and its trace."""
    attempted = failed = 0
    for workload in WORKLOADS:
        # A traced run measures an untraced half too, so it covers both paths.
        run = argparse.Namespace(
            **{**vars(args), "workload": workload, "trace": 1, "seconds": 1.0,
               "scale": "tiny", "setups": 1}
        )
        _, result = measure(run)
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"smoke {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if not failed else 1


def compare(base_path: str, head_path: str) -> int:
    """Per workload and end-to-end metric: medians, quartiles, pairs, verdict."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs: dict[str, list] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record["result"])
        return runs

    base, head = load(base_path), load(head_path)
    print(f"{'workload':<16} {'metric':<12} {'base q1/med/q3':>30} {'head q1/med/q3':>30} "
          f"{'won':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in head:
            print(f"{workload:<16} (missing on one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [run["metrics"][name]["value"] for run in base[workload]]
            new = [run["metrics"][name]["value"] for run in head[workload]]
            won, pairs = pairs_won(old, new, metric["better"])
            outcome = verdict(old, new, metric["better"], metric["bound"])
            print(
                f"{workload:<16} {name:<12} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(old)):>30} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(new)):>30} "
                f"{won:>3}/{pairs:<2}  {outcome} "
                f"(spread {spread(old):.1%}/{spread(new):.1%}, bound {metric['bound']:.0%})"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="append the run's record to this file")
    parser.add_argument("--smoke", action="store_true", help="all workloads on tiny inputs")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so started servers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    args.scale = SCALES[args.workload]
    args.setups = SERVE_SETUPS
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
