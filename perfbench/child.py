"""Run one `sp4whittaker` command line with the benchmark's tracing installed.

    python3 perfbench/child.py SUMMARY.json verify lie --seed 1

The command's output and exit status are those of `sp4whittaker ...`; the
span and count summary goes to SUMMARY.json and the spans next to it.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer as tr


def main(argv: list[str]) -> int:
    summary_path = Path(argv[0])
    from sp4whittaker import cli
    trace = tr.install(tr.Tracer())
    try:
        status = trace.run_op(summary_path.stem, "cli", cli.run, argv[1:])
    finally:
        trace.uninstall()
    sys.stdout.flush()
    summary = trace.summary()
    summary["ops"] = 0      # the parent counts the operation
    summary_path.write_text(json.dumps(summary))
    trace.write_spans(summary_path.with_suffix(".spans.jsonl.gz"))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
