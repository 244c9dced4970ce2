"""Drift guard: the ``EngineConfig`` and ``ServeConfig`` knob tables of ``docs/API.md``.

Each table must list exactly the fields of its configuration class, each
with the ``ENV_*`` variable of :mod:`repro.config` that the class's
``from_env`` reads for it (``—`` when none does).  The serving table also
names each knob's ``Server`` kwarg and ``python -m repro serve`` flag,
which must exist.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

from repro import config
from repro.config import ConfigError, EngineConfig, ServeConfig
from repro.serve import Server
from repro.serve.cli import build_serve_parser

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"

ENGINE_TABLE_HEADER = "| Field | Env-var default | Meaning |"

SERVE_TABLE_HEADER = "| Field | `Server` kwarg / CLI flag | Env-var default | Meaning |"

#: Env-var probes for fields whose parsers reject a number.
CHOICE_PROBES = {"backend": "python", "executor": "process", "start_method": "fork"}


def _table_rows(header: str) -> list[list[str]]:
    """The cells of each row of the table under ``header``."""
    lines = API_DOC.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2  # skip the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1:-1])
    return rows


def _code(cell: str, pattern: str = r"\w+") -> str | None:
    """The first backticked token of ``cell`` matching ``pattern``."""
    match = re.search(rf"`({pattern})", cell)
    return match.group(1) if match else None


def _knob_table(header: str, env_column: int) -> dict[str, str | None]:
    """``{field: env var or None}`` of a knob table's rows."""
    return {
        _code(row[0]): _code(row[env_column], r"REPRO_\w+")
        for row in _table_rows(header)
    }


def _env_var_of(cls: type, field: str) -> str | None:
    """The ``repro.config.ENV_*`` variable that ``cls.from_env`` maps to ``field``."""
    default = getattr(cls(), field)
    if field in CHOICE_PROBES:
        probe = CHOICE_PROBES[field]
    elif isinstance(default, bool):
        probe = "0" if default else "1"
    else:
        probe = "12345"
    found = []
    for name in dir(config):
        if not name.startswith("ENV_"):
            continue
        variable = getattr(config, name)
        try:
            value = getattr(cls.from_env({variable: probe}), field)
        except ConfigError:
            continue  # a choice variable rejects the probe
        if value != default:
            found.append(variable)
    assert len(found) <= 1, f"{field} is read from several variables: {found}"
    return found[0] if found else None


def test_knob_table_lists_exactly_the_engine_config_fields():
    table = _knob_table(ENGINE_TABLE_HEADER, env_column=1)
    assert list(table) == [field.name for field in dataclasses.fields(EngineConfig)]
    for field, env in table.items():
        assert env == _env_var_of(EngineConfig, field), field


def test_knob_table_lists_exactly_the_serve_config_fields():
    table = _knob_table(SERVE_TABLE_HEADER, env_column=2)
    assert list(table) == [field.name for field in dataclasses.fields(ServeConfig)]
    for field, env in table.items():
        assert env == _env_var_of(ServeConfig, field), field


def test_serve_knob_table_names_real_kwargs_and_flags():
    kwargs = inspect.signature(Server).parameters
    dests = {
        option: action.dest
        for action in build_serve_parser()._actions
        for option in action.option_strings
    }
    for row in _table_rows(SERVE_TABLE_HEADER):
        field = _code(row[0])
        assert _code(row[1]) in kwargs, field
        assert dests.get(_code(row[1], r"--[\w-]+")) == field, field
