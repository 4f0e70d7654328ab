"""One traced ``krullkit`` command in a fresh interpreter.

Usage: ``python3 perfbench/child.py OUT.json <krullkit arguments...>``

It times the import of ``krullkit.cli`` (``cli.import_s``), installs the
tracing wrappers, runs ``krullkit.cli.main`` on the arguments, writes the
per-layer totals and the spans to ``OUT.json`` and exits with the command's
exit code.  Standard output and error are the command's own.
"""

import json
import sys
from time import perf_counter

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import krullkit.cli

    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.job = 0
    try:
        code = krullkit.cli.main(argv)
    finally:
        tracer.disable()
        tracer.totals["cli.import_s"] = import_s
        with open(out, "w") as fh:
            json.dump(
                {
                    "totals": tracer.totals,
                    "names": tracer.names,
                    "spans": [s for s in tracer.spans if s is not None],
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
