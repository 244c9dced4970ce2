"""``python -m repro serve`` under the benchmark's layer wrappers.

Usage: ``python serve_traced.py OUT.json [serve arguments...]``.  Runs the
server exactly as ``python -m repro serve`` does and, once it has drained
and returned, writes the per-operation table, the per-layer self time and
the kernel counters of every tenant session to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    from repro.serve.cli import main_serve

    tracer = install(Tracer())
    try:
        code = main_serve(serve_args)
    finally:
        tracer.uninstall()
        summary = {
            "operations": tracer.operations(),
            "layers": tracer.layer_self_seconds(),
            "kernel": tracer.kernel_totals(),
        }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
