"""Run one ``omnitrack`` subcommand in this fresh process.

Usage: ``python clichild.py TRACE_OUT COMMAND [ARGS...]``.  With
``TRACE_OUT`` set to ``-`` this does what the ``omnitrack`` console script
does: import :func:`omnitrack.cli.main` and call it.  Otherwise the
tracer is installed around ``main()`` and the spans, counts, import time
and ``main()`` wall time are written to ``TRACE_OUT`` as JSON on exit.
"""

import json
import sys
import time


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from omnitrack.cli import main as cli_main

    import_s = time.perf_counter() - start
    if trace_out == "-":
        return cli_main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = tracer.call("cli.main", cli_main, argv)
        main_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    with open(trace_out, "w", encoding="ascii") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, **tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
