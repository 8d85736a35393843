"""Run ``repro serve`` with the service and synthesis layers traced.

    python perfbench/serve.py TRACE_DIR serve [repro serve flags...]

The traced ``service_mix`` pass starts the server through this
launcher; the untraced pass runs ``python -m repro serve`` itself.
Spans stay in memory and are written to ``TRACE_DIR`` when the server
exits after its SIGTERM drain.
"""

import sys

from tracing import Tracer, instrument_service


def main() -> int:
    tracer = Tracer(sys.argv[1])
    note_counters = instrument_service(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        note_counters()
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
