"""Engine configuration: every tuning knob of the partition kernel in one place.

Before the :class:`~repro.session.Session` API, the kernel was configured
through scattered process-wide environment variables (backend selection,
cache budgets) read lazily at first use.  :class:`EngineConfig` turns those
into an explicit, immutable value object:

* environment variables become *defaults*, parsed once by
  :meth:`EngineConfig.from_env`;
* an explicit ``EngineConfig(...)`` (or keyword overrides on
  ``Session(...)``/per-call overrides on ``Session.discover(...)``) always
  wins over the environment;
* the whole configuration is JSON-serialisable (:meth:`as_dict`) and
  content-addressed (:meth:`fingerprint`), so every
  :class:`~repro.session.RunResult` can record exactly which engine settings
  produced it.

The configuration only affects *how fast* results are computed, never *what*
is computed: the two partition backends are bit-compatible and every cache is
semantics-preserving, so artefacts stay byte-identical across any two
configurations (this is pinned by tests).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

#: Environment variable forcing the backend (``python`` / ``numpy`` / ``auto``).
ENV_BACKEND = "REPRO_PARTITION_BACKEND"

#: Environment variable overriding the mark-table cache budget in bytes.
ENV_MARKS_CACHE_BYTES = "REPRO_MARKS_CACHE_BYTES"

#: Environment variable for the per-relation backend heuristic: relations
#: with fewer rows than this fall back to the pure-python loops (their lower
#: constant factors beat the vectorized path on micro inputs).
ENV_BACKEND_MIN_NUMPY_ROWS = "REPRO_BACKEND_MIN_NUMPY_ROWS"

#: Default mark-table budget: sixteen ~1M-row tables at 8 bytes per row.
DEFAULT_MARKS_CACHE_BYTES = 128 * 1024 * 1024

#: Default row threshold of the per-relation backend heuristic (0 = always
#: honour the nominal backend choice; the heuristic is opt-in).
DEFAULT_BACKEND_MIN_NUMPY_ROWS = 0

_BACKEND_CHOICES = ("auto", "python", "numpy")


def _env_int(env: Mapping[str, str], name: str, default: int, minimum: int = 0) -> int:
    raw = env.get(name)
    if raw:
        try:
            return max(minimum, int(raw))
        except ValueError:
            pass
    return default


def _env_bool(env: Mapping[str, str], name: str, default: bool) -> bool:
    raw = env.get(name)
    if raw is None or raw == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


def _env_float(env: Mapping[str, str], name: str, default: float, minimum: float = 0.0) -> float:
    raw = env.get(name)
    if raw:
        try:
            return max(minimum, float(raw))
        except ValueError:
            pass
    return default


class ConfigError(ValueError):
    """Raised for invalid engine configurations."""


@dataclass(frozen=True)
class EngineConfig:
    """Immutable configuration of the partition-kernel engine.

    Parameters
    ----------
    backend:
        Nominal partition backend: ``auto`` (numpy when importable),
        ``python`` or ``numpy`` (raises at resolution time when numpy is not
        importable).
    backend_min_numpy_rows:
        Per-relation override of ``auto``: relations with fewer rows than
        this threshold use the pure-python loops even when numpy is
        available (the python kernel's lower constant factors win on micro
        inputs).  ``0`` disables the heuristic.  Both backends are
        bit-compatible, so the switch point never changes artefacts.
    marks_cache_bytes:
        Byte budget of each relation-scoped row -> group-id mark-table cache.
    partition_cache_max_positions:
        Default ``stripped_size`` budget for algorithm-owned
        :class:`~repro.relational.partition.PartitionCache` instances
        (``None`` = unbounded; call sites may still pass an explicit budget).
    """

    backend: str = "auto"
    backend_min_numpy_rows: int = DEFAULT_BACKEND_MIN_NUMPY_ROWS
    marks_cache_bytes: int = DEFAULT_MARKS_CACHE_BYTES
    partition_cache_max_positions: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKEND_CHOICES:
            raise ConfigError(
                f"unknown partition backend {self.backend!r}: "
                f"expected one of {_BACKEND_CHOICES}"
            )
        for name in ("backend_min_numpy_rows", "marks_cache_bytes"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if (
            self.partition_cache_max_positions is not None
            and self.partition_cache_max_positions < 0
        ):
            raise ConfigError(
                "partition_cache_max_positions must be non-negative or None"
            )

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "EngineConfig":
        """Parse the environment-variable defaults into a configuration.

        Unset or malformed variables fall back to the built-in defaults, so
        a pristine environment yields ``EngineConfig()`` with ``auto``
        backend selection — exactly the pre-session behaviour.
        """
        if env is None:
            env = os.environ
        backend = (env.get(ENV_BACKEND) or "auto").strip().lower() or "auto"
        if backend not in _BACKEND_CHOICES:
            raise ConfigError(
                f"{ENV_BACKEND}={backend!r} is not a valid backend: "
                f"expected one of {_BACKEND_CHOICES}"
            )
        return cls(
            backend=backend,
            backend_min_numpy_rows=_env_int(
                env, ENV_BACKEND_MIN_NUMPY_ROWS, DEFAULT_BACKEND_MIN_NUMPY_ROWS
            ),
            marks_cache_bytes=_env_int(
                env, ENV_MARKS_CACHE_BYTES, DEFAULT_MARKS_CACHE_BYTES
            ),
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "EngineConfig":
        """Build a configuration from a JSON-native mapping of field values.

        The inverse of :meth:`as_dict` (and the parser of per-tenant config
        files for the serving layer): unknown keys raise :class:`ConfigError`,
        missing keys keep their built-in defaults, ``None`` values mean
        "default" (mirroring :meth:`replace`).
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"engine configuration must be a mapping, got {type(data).__name__}"
            )
        return cls().replace(**dict(data))

    def replace(self, **overrides) -> "EngineConfig":
        """A copy with ``overrides`` applied; ``None`` values mean "keep".

        This is the per-call override mechanism of the session API:
        ``session.discover(relation, backend="python")`` derives a one-call
        configuration from the session's without mutating it.
        """
        cleaned = {key: value for key, value in overrides.items() if value is not None}
        unknown = set(cleaned) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown EngineConfig fields: {sorted(unknown)}")
        return dataclasses.replace(self, **cleaned) if cleaned else self

    # -- serialisation --------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """The configuration as a JSON-native dictionary."""
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """A short, stable content hash of the configuration.

        Recorded in every :class:`~repro.session.RunResult` so artefacts can
        be traced back to the exact engine settings that produced them.
        """
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Serving-executor configuration (the serving layer's worker model).
# ---------------------------------------------------------------------------

#: Environment variable selecting the serving executor (``thread``/``process``).
ENV_SERVE_EXECUTOR = "REPRO_SERVE_EXECUTOR"

#: Environment variable overriding the serving worker count.
ENV_SERVE_WORKERS = "REPRO_SERVE_WORKERS"

#: Environment variable toggling eager worker-process warmup (``1``/``0``).
ENV_SERVE_WARMUP = "REPRO_SERVE_WARMUP"

#: Environment variable selecting the ``multiprocessing`` start method of the
#: process executor (``spawn``/``fork``/``forkserver``).
ENV_SERVE_START_METHOD = "REPRO_SERVE_START_METHOD"

#: Environment variable holding a fault-injection plan spec (see
#: :mod:`repro.serve.faults`; the literal is duplicated here so ``config``
#: never imports the serving package).  Empty/unset disables injection.
ENV_SERVE_FAULTS = "REPRO_FAULTS"

#: Environment variable capping execution attempts per job (infra retries).
ENV_SERVE_MAX_ATTEMPTS = "REPRO_SERVE_MAX_ATTEMPTS"

#: Environment variable setting the worker-respawn budget per rolling window.
ENV_SERVE_RESTART_BUDGET = "REPRO_SERVE_RESTART_BUDGET"

#: Environment variable setting the rolling respawn-budget window (seconds).
ENV_SERVE_RESTART_WINDOW = "REPRO_SERVE_RESTART_WINDOW"

#: Environment variable toggling the degraded-mode inline fallback (``1``/``0``).
ENV_SERVE_DEGRADED_FALLBACK = "REPRO_SERVE_DEGRADED_FALLBACK"

#: Environment variable setting the graceful-drain deadline (seconds).
ENV_SERVE_DRAIN_DEADLINE = "REPRO_SERVE_DRAIN_DEADLINE"

#: Environment variable pointing the serving layer at an on-disk relation
#: registry root (see :class:`repro.registry.RelationRegistry`); empty/unset
#: keeps the registry in-memory (``relation_ref`` still works, nothing
#: survives a restart).
ENV_REGISTRY_DIR = "REPRO_REGISTRY_DIR"

#: Default serving worker count (threads or worker processes).
DEFAULT_SERVE_WORKERS = 4

#: Default execution attempts per job: one retry-capable serving stack, but
#: conservative (the first infra failure is retried twice at most).
DEFAULT_SERVE_MAX_ATTEMPTS = 3

#: Default worker-respawn budget within the rolling window.
DEFAULT_SERVE_RESTART_BUDGET = 5

#: Default rolling window of the respawn budget, in seconds.
DEFAULT_SERVE_RESTART_WINDOW = 30.0

#: Default graceful-drain deadline, in seconds.
DEFAULT_SERVE_DRAIN_DEADLINE = 10.0

_EXECUTOR_CHOICES = ("thread", "process")

_START_METHOD_CHOICES = ("spawn", "fork", "forkserver")


@dataclass(frozen=True)
class ServeConfig:
    """Immutable executor configuration of the serving layer.

    Parameters
    ----------
    executor:
        ``thread`` (in-process worker threads sharing one session pool — the
        GIL bounds CPU-bound throughput) or ``process`` (one worker process
        per worker, each with its own session pool — CPU-bound jobs scale
        with cores).  Served artefacts are byte-identical either way.
    workers:
        Worker count of the job queue (threads, and under ``process`` also
        the paired worker processes).
    warmup:
        Under ``process``, start and ping every worker process at server
        boot (paying interpreter/import cost once, upfront) instead of
        lazily on each slot's first job.
    start_method:
        ``multiprocessing`` start method of the process executor.  ``spawn``
        is the safe default (fresh interpreter per worker); ``fork`` starts
        faster but inherits parent threads' lock state.
    max_attempts:
        Execution attempts per job: *infra* failures (worker killed, broken
        pipe, injected transient faults) are retried with capped exponential
        backoff up to this many attempts total; *application* failures never
        retry.  Safe because runs are pure — a retried job's artefacts are
        byte-identical to a first-try run.  ``1`` disables retries.
    restart_budget / restart_window:
        Supervision of process workers: more than ``restart_budget`` worker
        respawns within the rolling ``restart_window`` seconds marks the
        executor *degraded* (``/healthz`` turns 503).
    degraded_fallback:
        When the process executor is degraded, run jobs inline in the server
        process (the thread-executor path — same dispatch, byte-identical
        artefacts) instead of feeding a crash-looping worker fleet.
    drain_deadline:
        Graceful-shutdown bound in seconds: running jobs get this long to
        drain before overrunning process workers are terminated.
    faults:
        Fault-injection plan spec (see :mod:`repro.serve.faults`), parsed by
        the serving layer; ``None``/empty disables injection (zero overhead).
    registry_dir:
        Root directory of the on-disk relation registry
        (:class:`repro.registry.RelationRegistry`); ``None`` keeps the
        server's registry in-memory — ``PUT /relations``/``relation_ref``
        still work, but entries do not survive a restart.  Under
        ``process`` a persistent registry also lets each worker process
        resolve and cache ``relation_ref`` jobs itself; an in-memory one
        makes the server ship every by-ref job's rows inline.
    """

    executor: str = "thread"
    workers: int = DEFAULT_SERVE_WORKERS
    warmup: bool = True
    start_method: str = "spawn"
    max_attempts: int = DEFAULT_SERVE_MAX_ATTEMPTS
    restart_budget: int = DEFAULT_SERVE_RESTART_BUDGET
    restart_window: float = DEFAULT_SERVE_RESTART_WINDOW
    degraded_fallback: bool = False
    drain_deadline: float = DEFAULT_SERVE_DRAIN_DEADLINE
    faults: str | None = None
    registry_dir: str | None = None

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTOR_CHOICES:
            raise ConfigError(
                f"unknown serving executor {self.executor!r}: "
                f"expected one of {_EXECUTOR_CHOICES}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.start_method not in _START_METHOD_CHOICES:
            raise ConfigError(
                f"unknown start method {self.start_method!r}: "
                f"expected one of {_START_METHOD_CHOICES}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.restart_budget < 0:
            raise ConfigError(
                f"restart_budget must be non-negative, got {self.restart_budget}"
            )
        if self.restart_window <= 0:
            raise ConfigError(f"restart_window must be positive, got {self.restart_window}")
        if self.drain_deadline <= 0:
            raise ConfigError(f"drain_deadline must be positive, got {self.drain_deadline}")

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ServeConfig":
        """Parse the environment-variable defaults into a serving configuration.

        Unset variables fall back to the built-in defaults (thread executor,
        4 workers, warmup on, ``spawn``, 3 attempts, no fault plan);
        malformed choices raise :class:`ConfigError` rather than silently
        degrading.
        """
        return cls(**cls.from_env_fields([f.name for f in dataclasses.fields(cls)], env))

    @classmethod
    def from_env_fields(
        cls, names: "Iterable[str]", env: Mapping[str, str] | None = None
    ) -> dict[str, object]:
        """Parse just ``names`` from the environment (see :meth:`from_env`).

        Lets a caller resolve only the fields it actually left defaulted: a
        server constructed with an explicit executor must not fail on (or
        vary with) a malformed ``REPRO_SERVE_*`` variable it never reads.
        The returned values are validated (malformed requested variables
        still raise :class:`ConfigError`).
        """
        if env is None:
            env = os.environ
        parsers: dict[str, Callable[[], object]] = {
            "executor": lambda: (env.get(ENV_SERVE_EXECUTOR) or "thread").strip().lower()
            or "thread",
            "workers": lambda: _env_int(env, ENV_SERVE_WORKERS, DEFAULT_SERVE_WORKERS, minimum=1),
            "warmup": lambda: _env_bool(env, ENV_SERVE_WARMUP, True),
            "start_method": lambda: (env.get(ENV_SERVE_START_METHOD) or "spawn").strip().lower()
            or "spawn",
            "max_attempts": lambda: _env_int(
                env, ENV_SERVE_MAX_ATTEMPTS, DEFAULT_SERVE_MAX_ATTEMPTS, minimum=1
            ),
            "restart_budget": lambda: _env_int(
                env, ENV_SERVE_RESTART_BUDGET, DEFAULT_SERVE_RESTART_BUDGET
            ),
            "restart_window": lambda: _env_float(
                env, ENV_SERVE_RESTART_WINDOW, DEFAULT_SERVE_RESTART_WINDOW, minimum=0.001
            ),
            "degraded_fallback": lambda: _env_bool(env, ENV_SERVE_DEGRADED_FALLBACK, False),
            "drain_deadline": lambda: _env_float(
                env, ENV_SERVE_DRAIN_DEADLINE, DEFAULT_SERVE_DRAIN_DEADLINE, minimum=0.001
            ),
            "faults": lambda: (env.get(ENV_SERVE_FAULTS) or "").strip() or None,
            "registry_dir": lambda: (env.get(ENV_REGISTRY_DIR) or "").strip() or None,
        }
        unknown = set(names) - set(parsers)
        if unknown:
            raise ConfigError(f"unknown ServeConfig fields: {sorted(unknown)}")
        values = {name: parsers[name]() for name in names}
        # Validate only the requested fields: everything else stays at its
        # (always valid) built-in default.
        cls(**values)  # type: ignore[arg-type]
        return values

    def as_dict(self) -> dict[str, object]:
        """The configuration as a JSON-native dictionary."""
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Per-tenant configuration (the serving layer's tenant model).
# ---------------------------------------------------------------------------

#: Tenant-config key holding the defaults applied to tenants with no entry.
TENANT_DEFAULT_KEY = "*"


def parse_tenant_configs(
    data: Mapping[str, Mapping[str, object]],
) -> dict[str, EngineConfig]:
    """Parse a ``{tenant: {field: value}}`` mapping into per-tenant configs.

    The wire/file format of ``python -m repro serve --tenant-config``: each
    key is a tenant name, each value a partial :class:`EngineConfig` mapping
    (unknown fields raise :class:`ConfigError`, naming the offending tenant).
    The special key ``"*"`` configures the *default* applied to tenants
    without an explicit entry; explicit entries are layered on top of it, so

    .. code-block:: json

        {"*": {"backend": "python"},
         "acme": {"marks_cache_bytes": 1048576}}

    gives ``acme`` the python backend *and* the 1 MiB budget.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"tenant configuration must be a mapping, got {type(data).__name__}"
        )
    base = EngineConfig()
    default_fields = data.get(TENANT_DEFAULT_KEY)
    if default_fields is not None:
        try:
            base = base.replace(**dict(default_fields))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"tenant {TENANT_DEFAULT_KEY!r}: {exc}") from exc
    configs: dict[str, EngineConfig] = {TENANT_DEFAULT_KEY: base}
    for tenant, fields in data.items():
        if tenant == TENANT_DEFAULT_KEY:
            continue
        if not isinstance(tenant, str) or not tenant:
            raise ConfigError(f"tenant names must be non-empty strings, got {tenant!r}")
        try:
            configs[tenant] = base.replace(**dict(fields))
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"tenant {tenant!r}: {exc}") from exc
    return configs


def load_tenant_configs(path: "os.PathLike[str] | str") -> dict[str, EngineConfig]:
    """Load :func:`parse_tenant_configs` input from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"tenant config {path}: invalid JSON ({exc})") from exc
    return parse_tenant_configs(data)
