"""Run one sccore command under the tracer and write its spans at exit.

Usage: python3 perfbench/cli_boot.py SPANS_FILE ARGS...

Equivalent to `python -m sccore ARGS...`, with the same exit code and output.
`cli.startup_s` is the time from PERFBENCH_SPAWN (the parent's monotonic
clock just before it started this process) to `sccore.cli` imported.
"""

import os
import sys
import time

import sccore.cli

startup_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])

from tracer import Tracer  # noqa: E402  (after the import being timed)

tracer = Tracer()
tracer.install()
tracer.count("cli.startup_s", startup_s)
try:
    code = sccore.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(code)
