"""Run one recstrata CLI verb as a user does, noting when its import is done.

    python3 bench/launch.py RECORD_JSON TRACE VERB [ARGS...]

Imports `recstrata.cli`, reads the monotonic clock (the same clock in every
process of the host), prints IMPORT_DONE on standard error, runs
`recstrata.cli.main` on the remaining arguments and exits with the verb's
exit code.  RECORD_JSON gets that clock reading (`imported`), so the caller
can split the verb's wall time into the cold set-up (interpreter start and
import) and the verb's own work; under `python3 -X importtime` the marker
ends the set-up's import timings.  With TRACE 1
the tracer's wrappers are installed after the import, the verb runs inside
a `cli.<verb>` span, and RECORD_JSON also gets the spans and the import's
own time (`import_s`).
"""

import json
import sys
import time

IMPORT_DONE = "recstrata.cli imported"


def main() -> int:
    record_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import recstrata.cli

    imported = time.perf_counter()
    print(IMPORT_DONE, file=sys.stderr, flush=True)
    if not traced:
        try:
            return recstrata.cli.main(argv)
        finally:
            with open(record_path, "w", encoding="utf-8") as f:
                json.dump({"imported": imported}, f)

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap(f"cli.{argv[0]}", recstrata.cli.main)(argv)
    finally:
        tracer.dump(record_path, imported=imported, import_s=imported - start)


if __name__ == "__main__":
    sys.exit(main())
