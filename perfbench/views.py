"""The two in-process workloads: InFine and the straightforward pipeline.

Both make one *pass* over the 16 paper views at a time, on a catalog
generated afresh for the pass and under a fresh ``Session``, so every pass
starts with cold relation and kernel caches, as a user profiling a view
does.  Generating the catalog is the workload's set-up; it is timed apart
from the pass.  The pass is the operation whose latency is reported:
per-view latencies mix 16 view sizes, and their median jumps between
neighbouring views from run to run.  Each view's result is one checked
output, counted in ``attempted``.  Outputs are checked after the timed
passes.  Pass and set-up times are in reference seconds: a fixed task
timed before every view scales out the host's drift (see ``hostspeed.py``).

A run's inputs are :data:`CATALOGS` catalogs, ``load_all(scale, s)`` for
``s = CATALOGS * seed + k``, and its passes take them in turn.  Peak
memory depends on the data: FastFDs' pair dictionary on one view crosses
a resize threshold for some catalogs and not others, so a run on one
catalog would make ``peak_rss_mb`` flip with the seed (see README.md).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.datasets import load_all, paper_views
from repro.infine.straightforward import StraightforwardPipeline
from repro.session import Session

from hostspeed import NOMINAL_S, ReferenceTask
from layers import Tracer, install
from measure import Measurement, peak_rss_mb

#: Catalogs per run (see the module docstring).
CATALOGS = 3
#: The four classical algorithms of the paper's comparison.
BASELINES = ("tane", "fun", "fastfds", "hyfd")


def canonical(fds) -> frozenset:
    """An FD set as a hashable set of ``(lhs, rhs)`` pairs."""
    return frozenset((frozenset(fd.lhs), fd.rhs) for fd in fds)


def _infine_pass(catalogs, measurement, tracer, outputs, reference) -> None:
    session = Session()
    for case in paper_views():
        reference.sample()
        span = tracer.span("op", view=case.key) if tracer else nullcontext()
        measurement.attempted += 1
        started = time.perf_counter()
        try:
            with span:
                result = session.infine(case.spec, catalogs[case.database])
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            measurement.fail(f"{case.key}: {type(exc).__name__}: {exc}")
            continue
        outputs.append((case.key, canonical(result.fds)))
        if tracer is not None:
            measurement.add_infine_stats(case.key, result, time.perf_counter() - started)


def _baseline_pass(catalogs, measurement, tracer, outputs, reference) -> None:
    pipelines = [StraightforwardPipeline(name) for name in BASELINES]
    with Session():
        for case in paper_views():
            reference.sample()
            catalog = catalogs[case.database]
            for pipeline in pipelines:
                span = tracer.span("op", view=case.key) if tracer else nullcontext()
                measurement.attempted += 1
                try:
                    with span:
                        run = pipeline.run(case.spec, catalog, with_provenance=False)
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    measurement.fail(f"{case.key}/{pipeline.algorithm.name}: {exc!r}")
                    continue
                outputs.append(((case.key, pipeline.algorithm.name), canonical(run.fds)))


def _reference_fds(catalogs) -> dict[str, frozenset]:
    """TANE's FD set of every materialised view: the InFine oracle."""
    tane = StraightforwardPipeline("tane")
    return {
        case.key: canonical(
            tane.run(case.spec, catalogs[case.database], with_provenance=False).fds
        )
        for case in paper_views()
    }


def _check_infine(passes, load, measurement) -> None:
    """Every pass's InFine FD sets equal TANE's on its catalog's views."""
    references: dict[int, dict] = {}
    for catalog, outputs in passes:
        if catalog not in references:
            references[catalog] = _reference_fds(load(catalog))
        for key, fds in outputs:
            if fds != references[catalog][key]:
                measurement.fail(f"{key}: InFine FD set differs from TANE on the view")


def _check_baselines(passes, load, measurement) -> None:
    """Each (view, algorithm) result must equal the view's majority FD set."""
    by_pass_view: dict[tuple, list] = {}
    for index, (_, outputs) in enumerate(passes):
        for (view, algorithm), fds in outputs:
            by_pass_view.setdefault((index, view), []).append((algorithm, fds))
    for (_, view), results in by_pass_view.items():
        sets = [fds for _, fds in results]
        majority = max(sets, key=sets.count)
        for algorithm, fds in results:
            if fds != majority:
                measurement.fail(f"{view}: {algorithm} disagrees with the other baselines")


WORKLOADS = {
    "infine-views": (_infine_pass, _check_infine),
    "baseline-views": (_baseline_pass, _check_baselines),
}


def run_views(workload: str, seed: int, seconds: float, trace: bool, scale: str):
    """Measure ``workload`` for ``seconds``; returns a :class:`Measurement`.

    Times are in reference seconds (see ``hostspeed.py``): the reference
    task runs before each view and after the last, outside the timed
    views, and scales the pass and its catalog generation.  With ``trace``
    the first half of the time runs untraced and the second half under the
    layer wrappers, each half taking the catalogs from the first, so the
    tracing overhead is measured in the same run on the same inputs.
    """
    run_pass, check = WORKLOADS[workload]
    measurement = Measurement()
    reference = ReferenceTask()
    seeds = [CATALOGS * seed + k for k in range(CATALOGS)]
    passes: list[tuple[int, list]] = []
    tracer: Tracer | None = None
    started = time.perf_counter()
    untraced_budget = seconds / 2 if trace else seconds
    while True:
        elapsed = time.perf_counter() - started
        if tracer is None and measurement.passes and elapsed >= untraced_budget:
            if not trace:
                break
            tracer = install(Tracer())
            measurement.traced = True
        elif tracer is not None and measurement.traced_passes and elapsed >= seconds:
            break
        catalog = (measurement.traced_passes if tracer else measurement.passes) % CATALOGS
        mark = reference.mark()
        generated = time.perf_counter()
        catalogs = load_all(scale, seeds[catalog])
        generate_s = time.perf_counter() - generated
        passes.append((catalog, []))
        spent = reference.spent_s
        pass_started = time.perf_counter()
        with tracer.span("pass") if tracer else nullcontext():
            run_pass(catalogs, measurement, tracer, passes[-1][1], reference)
        reference.sample()
        wall_s = time.perf_counter() - pass_started - (reference.spent_s - spent)
        factor = reference.factor(mark)
        measurement.setup_s.append(generate_s * factor)
        measurement.end_pass(wall_s * factor, wall_s, NOMINAL_S / factor)
        measurement.record(wall_s * factor)
    if tracer is not None:
        tracer.uninstall()
    measurement.peak_rss_mb = peak_rss_mb()
    measurement.tracer = tracer
    check(passes, lambda catalog: load_all(scale, seeds[catalog]), measurement)
    return measurement
