"""The served profiling mix: closed-loop HTTP clients against ``repro serve``.

Set-up generates ``load_all(scale, seed)``, computes each relation's TANE
FDs (the validate jobs' input), starts ``python -m repro serve`` with its
default executor and worker count and a temporary ``--registry-dir``, and
sends one ``PUT /relations`` per base relation of at least
:data:`MIN_ROWS` rows.

The load is one client thread per CPU, each its own tenant on one
persistent HTTP/1.1 connection: post a job by ``relation_ref``, poll
``GET /jobs/<id>`` until the job is terminal, then post the next.  The
clients wait for every answer, as protocol clients do, so the loop is
closed.  The seeded mix is 50% validate, 25% profile and 25% discover
(TANE or HyFD, evenly), dealt in exact proportion (see :func:`job_plan`).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.datasets import load_all
from repro.serve.protocol import relation_to_payload
from repro.session import RunResult, Session

from hostspeed import ReferenceTask
from measure import Measurement, peak_rss_mb
from stats import percentile

MIN_ROWS = 100
#: Job completions per pass: ``wall_s`` is the median time to complete one.
PASS_JOBS = 16
TERMINAL = frozenset({"done", "failed", "cancelled", "deadline_exceeded"})
#: Pause between two polls of one job.
POLL_INTERVAL_S = 0.002
PROFILE_PARAMS = {"threshold": 0.05, "max_lhs": 2}
#: Reference-task samples taken on each side of a set-up.
SETUP_SAMPLES = 5
HERE = Path(__file__).resolve().parent


class ServerProcess:
    """``python -m repro serve`` (or its traced launcher) as a subprocess."""

    def __init__(self, root: Path, workdir: Path, trace_out: Path | None = None) -> None:
        self.registry_dir = tempfile.mkdtemp(prefix="registry-", dir=workdir)
        serve_args = ["--port", "0", "--registry-dir", self.registry_dir]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(60.0) or self.address is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.output[-20:]))

    address: tuple[str, int] | None = None

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            match = re.search(r"serving on http://([\d.]+):(\d+)", line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill after a grace period; waits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30.0)
        self._reader.join(timeout=10.0)
        self.process.stdout.close()
        shutil.rmtree(self.registry_dir, ignore_errors=True)


class Connection:
    """One persistent HTTP/1.1 connection speaking JSON."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._conn = http.client.HTTPConnection(*address, timeout=60.0)

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict, float]:
        """``(status, JSON body, seconds)`` of one request."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, json.loads(data), time.perf_counter() - started

    def close(self) -> None:
        self._conn.close()


class Deployment:
    """A started server with the catalog's relations registered."""

    def __init__(self, root, workdir, seed, scale, trace_out=None) -> None:
        started = time.perf_counter()
        catalogs = load_all(scale, seed)
        self.generate_s = time.perf_counter() - started
        self.relations = {
            f"{database}.{name}": relation
            for database, catalog in sorted(catalogs.items())
            for name, relation in sorted(catalog.items())
            if len(relation) >= MIN_ROWS
        }
        session = Session()
        self.fds = {
            key: [
                [record["lhs"], record["rhs"]]
                for record in session.discover(relation, algorithm="tane").artifacts["fds"]
            ]
            for key, relation in self.relations.items()
        }
        self.server = ServerProcess(root, workdir, trace_out)
        self.refs: dict[str, str] = {}
        self.put_s = 0.0
        connection = Connection(self.server.address)
        try:
            for key, relation in self.relations.items():
                status, ack, seconds = connection.request(
                    "PUT", "/relations", relation_to_payload(relation)
                )
                self.put_s += seconds
                if status != 200 or ack.get("hash") != relation.content_hash():
                    raise RuntimeError(f"PUT /relations of {key} answered {status}: {ack}")
                self.refs[key] = ack["hash"]
        except BaseException:
            connection.close()
            self.server.stop()
            raise
        connection.close()
        self.setup_s = time.perf_counter() - started

    def stats(self) -> dict:
        connection = Connection(self.server.address)
        try:
            return connection.request("GET", "/stats")[1]
        finally:
            connection.close()


#: One deck of the mix per relation: 4 validate, 2 profile, 1 TANE, 1 HyFD.
DECK = (
    ("validate", None),
    ("validate", None),
    ("validate", None),
    ("validate", None),
    ("profile", PROFILE_PARAMS),
    ("profile", PROFILE_PARAMS),
    ("discover", {"algorithm": "tane"}),
    ("discover", {"algorithm": "hyfd"}),
)


def job_plan(seed: int, client: int, keys: list[str]):
    """The endless seeded job sequence of one client: ``(kind, key, params)``.

    Jobs are dealt from shuffled decks holding every (relation, job) pair
    once, so every run gets the mix in exact proportion and only the order
    depends on the seed; a few slow jobs (HyFD on the largest relation)
    would otherwise swing the tail latency from seed to seed.
    """
    rng = random.Random(seed * 1000 + client)
    deck = [(kind, key, params) for key in keys for kind, params in DECK]
    while True:
        rng.shuffle(deck)
        yield from deck


def _client(index, deployment, seed, deadline, records, errors) -> None:
    """One closed-loop client: post, poll to a terminal status, repeat."""
    tenant = f"client-{index}"
    connection = Connection(deployment.server.address)
    try:
        for kind, key, params in job_plan(seed, index, sorted(deployment.refs)):
            if time.perf_counter() >= deadline:
                return
            if kind == "validate":
                params = {"fds": deployment.fds[key]}
            request = {
                "schema": "repro/job-request-v1",
                "tenant": tenant,
                "kind": kind,
                "relation_ref": deployment.refs[key],
                "params": params,
            }
            started = time.perf_counter()
            rejected = 0
            while True:
                status, ticket, post_s = connection.request("POST", "/jobs", request)
                if status != 429:
                    break
                rejected += 1
                time.sleep(0.01)
            if status != 202:
                errors.append(f"POST /jobs answered {status}: {ticket}")
                continue
            polls = []
            while True:
                status, job, poll_s = connection.request("GET", f"/jobs/{ticket['job_id']}")
                polls.append(poll_s)
                if status != 200 or job["status"] in TERMINAL:
                    break
                time.sleep(POLL_INTERVAL_S)
            finished = time.perf_counter()
            records.append(
                {
                    "key": key,
                    "kind": kind,
                    "params": params,
                    "latency": finished - started,
                    "finished": finished,
                    "post_s": post_s,
                    "polls": polls,
                    "rejected": rejected,
                    "http": status,
                    "job": job,
                }
            )
    except Exception as exc:  # noqa: BLE001 - the run reports the failure
        errors.append(f"{tenant}: {type(exc).__name__}: {exc}")
    finally:
        connection.close()


def drive(deployment: Deployment, seed: int, seconds: float) -> tuple[list, list, float]:
    """Run the closed loop for ``seconds``; ``(records, errors, start)``."""
    records: list[dict] = []
    errors: list[str] = []
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(index, deployment, seed, started + seconds, records, errors),
            daemon=True,
        )
        for index in range(len(os.sched_getaffinity(0)))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            errors.append(f"{thread.name} still running after the load ended")
    records.sort(key=lambda record: record["finished"])
    return records, errors, started


def _pass_seconds(records: list[dict], started: float) -> list[float]:
    """Durations of consecutive windows of :data:`PASS_JOBS` completions.

    A load too short for one whole window yields one pass extrapolated
    from the completions it has.
    """
    marks = [started] + [record["finished"] for record in records]
    if len(records) < PASS_JOBS:
        return [(marks[-1] - started) * PASS_JOBS / len(records)] if records else []
    return [
        marks[end] - marks[end - PASS_JOBS]
        for end in range(PASS_JOBS, len(marks), PASS_JOBS)
    ]


def _reference_fingerprint(deployment, record, cache, session) -> str:
    """The artifact fingerprint of the same request run in-process."""
    params = record["params"]
    cache_key = (record["key"], record["kind"], json.dumps(params, sort_keys=True))
    if cache_key not in cache:
        relation = deployment.relations[record["key"]]
        if record["kind"] == "validate":
            result = session.validate(relation, [tuple(fd) for fd in params["fds"]])
        elif record["kind"] == "profile":
            result = session.profile(relation, **params)
        else:
            result = session.discover(relation, **params)
        cache[cache_key] = result.artifact_fingerprint()
    return cache[cache_key]


def _check(deployment, records, measurement) -> None:
    """Every job done, with the artifacts of an in-process ``Session`` call."""
    cache: dict = {}
    session = Session()
    for record in records:
        job = record["job"]
        if record["http"] != 200 or job["status"] != "done":
            measurement.fail(f"job {job.get('job_id')}: {job.get('status')} {job.get('error')}")
            continue
        served = RunResult(job["result"]).artifact_fingerprint()
        if served != _reference_fingerprint(deployment, record, cache, session):
            measurement.fail(f"job {job['job_id']}: artifacts differ from an in-process run")


def _account(measurement, records, errors, started) -> None:
    """Fold one load phase into the measurement (untraced or traced)."""
    measurement.attempted += len(records) + len(errors)
    for message in errors:
        measurement.fail(message)
    for record in records:
        measurement.record(record["latency"])
    passes = _pass_seconds(records, started)
    if measurement.traced:
        measurement.traced_pass_s.extend(passes)
    elif records:
        measurement.pass_s.extend(passes)
        measurement.busy_s += records[-1]["finished"] - started


def _layers(records, server_stats, deployment) -> dict[str, float]:
    """The serve/registry per-layer values of one traced load phase."""
    jobs = [record["job"] for record in records if record["http"] == 200]
    ms = 1000.0

    def p(values, q):
        return percentile(values, q) if values else 0.0

    waits = [(job["started_at"] - job["submitted_at"]) * ms for job in jobs if job["started_at"]]
    layers = {
        "serve.job_ms.p95": p([record["latency"] * ms for record in records], 95),
        "serve.post_ms.p50": p([record["post_s"] * ms for record in records], 50),
        "serve.poll_ms.p50": p([s * ms for record in records for s in record["polls"]], 50),
        "serve.polls_per_job": statistics.mean(len(r["polls"]) for r in records) if records else 0,
        "serve.queue_wait_ms.p50": p(waits, 50),
        "serve.queue_wait_ms.p95": p(waits, 95),
        "serve.rejected_429": sum(record["rejected"] for record in records),
        "serve.retries": server_stats["queue"].get("retries", 0),
        "registry.put_s": deployment.put_s,
        "datasets.generate_s": deployment.generate_s,
        "registry.ref_hits": server_stats["registry"].get("cache_hits", 0),
    }
    overheads = []
    service_total = latency_total = 0.0
    for record in records:
        job = record["job"]
        if record["http"] != 200 or not job["started_at"] or not job["finished_at"]:
            continue
        wait = (job["started_at"] - job["submitted_at"]) * ms
        service = (job["finished_at"] - job["started_at"]) * ms
        overheads.append(record["latency"] * ms - wait - service)
        service_total += service
        latency_total += record["latency"] * ms
        layers.setdefault(f"serve.service_ms.{record['kind']}", []).append(service)
    for kind in ("discover", "validate", "profile"):
        layers[f"serve.service_ms.{kind}.p50"] = p(layers.pop(f"serve.service_ms.{kind}", []), 50)
    layers["serve.overhead_ms.p50"] = p(overheads, 50)
    layers["serve.executed_share"] = service_total / latency_total if latency_total else 0.0
    return layers


def run_serve(root: Path, seed: int, seconds: float, trace: bool, scale: str, setups: int):
    """Measure the served mix for ``seconds``; returns a :class:`Measurement`.

    Untraced runs set up ``setups`` times (the last deployment serves the
    load) and report the median set-up time.  A traced run loads an
    untraced server for half the time, then a server started under the
    layer wrappers, which writes its trace out when it stops.
    """
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
    measurement = Measurement()
    reference = ReferenceTask()

    def deploy(trace_out=None) -> Deployment:
        return _deploy(measurement, reference, root, rundir, seed, scale, trace_out)

    try:
        if not trace:
            for _ in range(setups - 1):
                deploy().server.stop()
            _load_phase(measurement, deploy(), seed, seconds)
        else:
            _load_phase(measurement, deploy(), seed, seconds / 2)
            measurement.traced = True
            trace_out = rundir / "server-trace.json"
            _load_phase(measurement, deploy(trace_out), seed, seconds / 2)
            with open(trace_out, encoding="utf-8") as handle:
                measurement.server_trace = json.load(handle)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return measurement


def _deploy(measurement, reference, root, rundir, seed, scale, trace_out) -> Deployment:
    """Set up once, recording the set-up time in reference seconds.

    Set-up is CPU-bound (catalog generation, TANE, server start-up) and
    drifts with the host's speed as the view workloads do, so it is scaled
    by the reference task timed on each side of it (see ``hostspeed.py``).
    The served load is not: its latency is mostly the server's fixed
    per-response stall.
    """
    mark = reference.mark()
    for _ in range(SETUP_SAMPLES):
        reference.sample()
    deployment = Deployment(root, rundir, seed, scale, trace_out)
    try:
        for _ in range(SETUP_SAMPLES):
            reference.sample()
    except BaseException:
        deployment.server.stop()
        raise
    measurement.setup_s.append(deployment.setup_s * reference.factor(mark))
    return deployment


def _load_phase(measurement, deployment, seed, seconds) -> None:
    """Drive one deployment, account its jobs, stop it and check outputs."""
    try:
        records, errors, started = drive(deployment, seed, seconds)
        server_stats = deployment.stats()
        measurement.meta["server"] = {
            "executor": server_stats["queue"]["executor"],
            "workers": server_stats["queue"]["workers"],
        }
        if measurement.traced:
            measurement.layers.update(_layers(records, server_stats, deployment))
            measurement.layers["serve.jobs"] = len(records)
        else:
            measurement.peak_rss_mb = peak_rss_mb(deployment.server.pid)
        _account(measurement, records, errors, started)
    finally:
        deployment.server.stop()
    _check(deployment, records, measurement)
