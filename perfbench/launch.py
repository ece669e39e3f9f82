"""Run `phq.cli.main` in a child process with layer spans recorded.

Usage: python perfbench/launch.py COMMAND FILE   (with `src` on PYTHONPATH)

Stdout and the exit code are the command's own.  The span snapshot, with
the time `import phq.cli` took as the `cli.import` span, is written to
stderr as one last line starting with `perfbench-spans `.  Only the traced
`cli_fixtures` runs use this launcher.
"""

import json
import sys
from time import perf_counter

import spans


def main() -> int:
    start = perf_counter()
    import phq.cli

    took = perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    tracer.record(spans.IMPORT_SPAN, took)
    tracer.active = True
    try:
        return phq.cli.main(sys.argv[1:])
    finally:
        tracer.restore()
        sys.stdout.flush()
        sys.stderr.write(spans.SPANS_MARK + json.dumps(tracer.snapshot) + "\n")


if __name__ == "__main__":
    sys.exit(main())
