"""One measured gfpp process, started afresh by run.py for every sample.

    child.py setup CAP P:E,P:E,...        import gfpp, build Field(p, e) for each
                                          pair; print the seconds that took
    child.py run -- GFPP_ARGS...          gfpp.cli.main(GFPP_ARGS)
    child.py trace SPANS RUN_ID -- ARGS   the same with tracer spans installed;
                                          the spans are written to SPANS at exit

The exit status is gfpp's own (0 when every verdict passes, 1 otherwise).
"""

import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        started = perf_counter()
        import gfpp

        cap = int(argv[1])
        for pair in argv[2].split(","):
            p, e = pair.split(":")
            gfpp.Field(int(p), int(e), cap=cap)
        print(repr(perf_counter() - started))
        return 0
    gfpp_args = argv[argv.index("--") + 1:]
    if mode == "run":
        import gfpp.cli

        return gfpp.cli.main(gfpp_args)
    if mode == "trace":
        import tracer

        spans_path, run_id = argv[1], argv[2]
        rec = tracer.Tracer(run_id)
        rec.install()
        import gfpp.cli

        try:
            return gfpp.cli.main(gfpp_args)
        finally:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(rec.dump(), fh)
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
