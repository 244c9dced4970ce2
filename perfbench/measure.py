"""What one benchmark run collects, and the end-to-end metrics made from it."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

from stats import percentile

#: End-to-end metric units, in report order.  The mean stands in for a
#: tail percentile (see README.md, "End-to-end metrics").
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.mean": "ms",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB (0.0 when ``/proc`` cannot tell)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Measurement:
    """Raw samples of one run.

    A *pass* is the workload's unit of repeated work: the 16 views for the
    view workloads, 16 consecutive job completions for the served mix.  The
    latencies are of passes (view workloads) or jobs (served mix);
    ``attempted`` counts checked outputs: views, pipeline runs or jobs.
    """

    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    traced_pass_s: list[float] = field(default_factory=list)
    #: Wall seconds of each untraced pass and the median reference-task
    #: seconds during it, for the view workloads, whose ``pass_s`` are in
    #: reference seconds (see ``hostspeed.py``).
    raw_pass_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Seconds the untraced operations were measured over (throughput base).
    busy_s: float = 0.0
    #: Per-layer values the workload reports directly (serve, registry, infine).
    layers: dict[str, float] = field(default_factory=dict)
    infine_views: dict[str, list[float]] = field(default_factory=dict)
    tracer: Any = None
    #: Summary the traced server writes out when it stops (served mix only).
    server_trace: dict | None = None
    #: Run metadata the workload learns while running (server executor).
    meta: dict = field(default_factory=dict)
    traced: bool = False

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    @property
    def traced_passes(self) -> int:
        return len(self.traced_pass_s)

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def record(self, seconds: float) -> None:
        """One completed operation's latency (untraced operations only)."""
        if not self.traced:
            self.latencies.append(seconds)

    def end_pass(self, seconds: float, wall_s: float = 0.0, reference_s: float = 0.0) -> None:
        if self.traced:
            self.traced_pass_s.append(seconds)
        else:
            self.pass_s.append(seconds)
            self.busy_s += seconds
            if reference_s:
                self.raw_pass_s.append(wall_s)
                self.reference_s.append(reference_s)

    def add_infine_stats(self, key: str, result, seconds: float) -> None:
        """Accumulate one traced InFine run's step timings and counters."""
        stats = result.stats
        timings = stats["timings"]
        layers = self.layers
        for step, name in (
            ("base", "infine.base_s"),
            ("upstageFDs", "infine.upstage_s"),
            ("inferFDs", "infine.infer_s"),
            ("mineFDs", "infine.mine_s"),
        ):
            layers[name] = layers.get(name, 0.0) + timings[step]
        for stat, name in (
            ("mine_candidates_validated", "infine.mine.candidates_validated"),
            ("mine_candidates_pruned_logically", "infine.mine.pruned_logically"),
            ("partial_join_rows", "infine.partial_join_rows"),
        ):
            layers[name] = layers.get(name, 0) + stats[stat]
        mined = result.artifacts["count_by_step"]["mineFDs"]
        layers["infine.mine.fds"] = layers.get("infine.mine.fds", 0) + mined
        self.infine_views.setdefault(key, []).append(seconds)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics of the untraced part of the run."""
        latencies_ms = [seconds * 1000.0 for seconds in self.latencies]
        completed = len(self.latencies)
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(self.pass_s),
            "jobs_per_s": completed / self.busy_s if self.busy_s else 0.0,
            "job_ms.p50": percentile(latencies_ms, 50),
            "job_ms.mean": statistics.fmean(latencies_ms),
            "peak_rss_mb": self.peak_rss_mb,
            "ok_rate": 1.0 - self.failed / max(self.attempted, 1),
        }
