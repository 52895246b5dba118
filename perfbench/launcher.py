"""One traced CLI command, as a user would run it but with the tracer installed.

    python -X importtime launcher.py SNAPSHOT_JSON SPANS_JSONL PROC -- ARGV...

Imports ``parastar.cli``, installs the tracer's wrappers and calls
``cli.main(ARGV)`` as the root span; the command's own output goes to
stdout unchanged.  The per-span totals and counters are written to
SNAPSHOT_JSON and the spans appended to SPANS_JSONL under process id PROC.
"""

import json
import sys

import tracer


def main(argv) -> int:
    snapshot_path, spans_path, proc = argv[0], argv[1], int(argv[2])
    cli_argv = argv[argv.index("--") + 1:]
    from parastar import cli

    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        return tr.run_op(proc, lambda: cli.main(cli_argv), name="cli.main")
    finally:
        tr.write_spans(spans_path, proc)
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump(tr.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
