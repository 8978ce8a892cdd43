"""Traced launcher for the program under test.

Usage::

    python3 perfbench/launch.py SPANS.json -- serve REGISTRY [flags...]

Wraps the layer entry points (see :func:`spans.instrument`), then runs
the ``invarnetx`` CLI entry point with the given arguments, exactly as
``python -m repro.cli`` would.  When the CLI returns (``serve`` returns
on SIGINT) the recorded spans, call counts and the MIC content-hash
cache statistics are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    rec = spans.Recorder()
    spans.instrument(rec)
    from repro.cli import main as cli_main
    from repro.stats.micfast import association_cache

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(out, {"mic_cache": association_cache().stats()})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
