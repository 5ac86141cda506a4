"""Run one gl2aut command under the tracer and record what it measured.

    python3 bench/traced_cli.py <record dir> <gl2aut arguments...>

The traced cli run starts this in place of `python3 -m gl2aut.cli`.  It
times the import of gl2aut.cli, installs the tracer, runs the command's
main() and writes calls, times and spans to <record dir>/<pid>.json.
"""

import json
import os
import sys
import time

record_dir, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
import gl2aut.cli  # noqa: E402  (the import is what is being timed)
import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = " ".join(argv[:3])
try:
    code = gl2aut.cli.main(argv)
finally:
    tracer.uninstall()
    with open(os.path.join(record_dir, f"{os.getpid()}.json"), "w") as fh:
        json.dump(dict(tracer.state(), import_s=import_s, argv=argv), fh)
sys.exit(code)
