"""Drift guard: the ``EngineConfig`` knob table of ``docs/API.md``.

The table must list exactly the fields of :class:`repro.config.EngineConfig`,
each with the ``ENV_*`` variable of :mod:`repro.config` that
:meth:`EngineConfig.from_env` reads for it (``—`` when none does).
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro import config
from repro.config import ConfigError, EngineConfig

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"

TABLE_HEADER = "| Field | Env-var default | Meaning |"


def _knob_table() -> dict[str, str | None]:
    """``{field: env var or None}`` of the knob table's rows."""
    lines = API_DOC.read_text(encoding="utf-8").splitlines()
    start = lines.index(TABLE_HEADER) + 2  # skip the header and its rule
    rows: dict[str, str | None] = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        field_cell, env_cell = line.split("|")[1:3]
        field = re.fullmatch(r"\s*`(\w+)`\s*", field_cell).group(1)
        env = re.match(r"\s*`(REPRO_\w+)`", env_cell)
        rows[field] = env.group(1) if env else None
    return rows


def _env_var_of(field: str) -> str | None:
    """The ``repro.config.ENV_*`` variable that ``from_env`` maps to ``field``."""
    default = getattr(EngineConfig(), field)
    probe = "python" if field == "backend" else "12345"
    found = []
    for name in dir(config):
        if not name.startswith("ENV_"):
            continue
        variable = getattr(config, name)
        try:
            value = getattr(EngineConfig.from_env({variable: probe}), field)
        except ConfigError:
            continue  # the backend variable rejects the numeric probe
        if value != default:
            found.append(variable)
    assert len(found) <= 1, f"{field} is read from several variables: {found}"
    return found[0] if found else None


def test_knob_table_lists_exactly_the_engine_config_fields():
    table = _knob_table()
    assert list(table) == [field.name for field in dataclasses.fields(EngineConfig)]
    for field, env in table.items():
        assert env == _env_var_of(field), field
