"""Run one zetapoly CLI invocation in this fresh interpreter and time it.

Usage: python3 perfbench/invoke.py REQUEST.json

REQUEST.json holds ``argv`` (the CLI arguments), ``trace`` (wrap the
public functions of every zetapoly module before the call), ``src`` (the
checkout's source directory, which zetapoly must be imported from) and
``result`` (where to write the result).  The result holds the
CLOCK_MONOTONIC time at which ``import zetapoly.cli`` finished, the time
and exit code of ``cli.main(argv)``, the times of a fixed probe taken
before, during (every TICK_S, untraced runs only; their time is taken
out of the call's) and after the call, and, when traced, the spans and
the estimated tracing overhead.  The process exits with the CLI's exit
code, or 70 if the CLI raised.
"""

import json
import signal
import sys
import time
import traceback
from pathlib import Path

TICK_S = 0.25


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_s() -> float:
    """Time of a fixed piece of pure-Python Fraction and integer work."""
    from fractions import Fraction

    t0 = clock()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k * k + 1, 3 * k + 7)
    x = 1
    for k in range(5000):
        x = (x * 1103515245 + 12345) % (1 << 61)
    return clock() - t0


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    result = {}
    try:
        import zetapoly.cli as cli

        result["imported"] = clock()
        src = Path(request["src"]).resolve()
        if src not in Path(cli.__file__).resolve().parents:
            raise RuntimeError(f"imported {cli.__file__}, not the package under {src}")
        tracer = None
        if request["trace"]:
            import spans

            t0 = clock()
            tracer = spans.Tracer()
            tracer.install(spans.zetapoly_modules())
            patch_s = clock() - t0
            span_cost = spans.span_cost_s()
        probes = [probe_s() for _ in range(3)]
        ticks = []
        if tracer is None:
            signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(probe_s()))
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t1 = clock()
        try:
            rc = cli.main(list(request["argv"]))
        finally:
            t2 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
        probes += ticks + [probe_s() for _ in range(3)]
        result.update(exit=rc, main_s=t2 - t1 - sum(ticks), probes=probes)
        if tracer is not None:
            result["spans"] = tracer.spans
            result["overhead_s"] = patch_s + span_cost * len(tracer.spans) + tracer.note_s
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        Path(request["result"]).write_text(json.dumps(result))
    return 70 if "error" in result else result["exit"]


if __name__ == "__main__":
    sys.exit(main())
