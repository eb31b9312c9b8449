"""Run one ``softalign`` command with every layer traced.

    python3 bench/child.py TRACE_OUT <softalign arguments...>

Used by the traced runs of the cli-eval-tps workload in place of
``python3 -m softalign``: it wraps the layers, calls ``softalign.cli.main``
and writes the tracer's counts to ``TRACE_OUT`` as JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from layertrace import LayerTracer  # noqa: E402


def main(argv) -> int:
    trace_out, args = argv[0], argv[1:]
    from softalign import cli

    tracer = LayerTracer().install()
    try:
        return cli.main(args)
    finally:
        tracer.remove()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
