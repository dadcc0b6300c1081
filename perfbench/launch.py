"""Run ``repro serve`` with every layer's entry point wrapped in a span.

Usage (from the repository root)::

    python3 perfbench/launch.py SPANS.json serve --port 0 --cache DIR

Installs :class:`layers.SpanLog` over ``layers.HOOKS``, then hands the
remaining arguments to ``repro.cli.main``.  When the server exits
(SIGTERM drains it), every span is written to ``SPANS.json``.  A hook
whose target is gone is recorded as absent; the server runs regardless.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    from layers import SpanLog

    log = SpanLog()
    log.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        log.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
