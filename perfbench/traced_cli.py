"""Run ``mapscore`` CLI arguments with the layer tracer installed.

Usage: ``python traced_cli.py <flush_dir> <mapscore arguments...>`` with
the repository's ``src`` on ``PYTHONPATH``. The process writes its own
spans and counters to ``<flush_dir>/spans-<pid>.json``; workers that the
CLI's process pool forks from it append theirs to
``<flush_dir>/spans-<pid>.jsonl`` (see ``tracing``).
"""
import json
import os
import sys
from pathlib import Path

import mapscore  # noqa: F401  (the tracer wraps the modules this loads)
from mapscore.cli import main as cli_main

from tracing import Tracer


def main() -> int:
    flush_dir = Path(sys.argv[1])
    tracer = Tracer(flush_dir)
    tracer.install()
    try:
        code = cli_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        (flush_dir / f"spans-{os.getpid()}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
