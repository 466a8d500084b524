"""Traced ``serve-online`` launcher for the hot-http traced run.

Wraps the layers (:func:`tracing.instrument`), then calls the same
``serve-online`` entry point the untraced run starts with default
flags. Tracing starts disabled; ``SIGUSR1`` turns it on and ``SIGUSR2``
off, so one process serves both halves of the overhead comparison.
The spans are written to ``--trace-out`` when the server exits::

    python3 perfbench/server.py --trace-out .perfbench/t.json --port 0
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from typing import Any, List

from common import use_program_path

use_program_path()

import tracing  # noqa: E402


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    from repro.cli import serve_online_main

    tracing.instrument()
    tracing.REC.enabled = False

    def toggle(on: bool) -> Any:
        def handler(_signum: int, _frame: Any) -> None:
            tracing.REC.enabled = on
        return handler

    signal.signal(signal.SIGUSR1, toggle(True))
    signal.signal(signal.SIGUSR2, toggle(False))
    try:
        return serve_online_main(argv[2:])
    finally:
        tracing.REC.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
