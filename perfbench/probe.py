"""Set-up probe run in a fresh interpreter.

Usage: python3 probe.py SRC_DIR WARMUP_JSON

Imports ``jsrbound.cli`` from SRC_DIR, makes each warm-up call listed in
WARMUP_JSON (a JSON list of argument lists), and prints the monotonic
clock after the import and after the last call.  On Linux
``time.monotonic`` reads the system-wide CLOCK_MONOTONIC, so the parent
subtracts the reading it took just before starting this process.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])

import jsrbound.cli  # noqa: E402

t_import = time.monotonic()
with open(sys.argv[2], encoding="utf-8") as fh:
    calls = json.load(fh)
for argv in calls:
    jsrbound.cli.main(argv)
t_end = time.monotonic()
print(json.dumps({"import": t_import, "end": t_end,
                  "module": jsrbound.cli.__file__}))
