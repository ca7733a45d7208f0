"""Child processes of the benchmark; each run starts a fresh interpreter.

    child.py setup --cache PATH
        Pay the set-up a build pays (imports, cache load, field, lattice spec),
        print {"t_ready": ...} and exit.
    child.py build --cache PATH --x X --out CSV [--spans FILE]
        Set up, then build the length-spectrum table at cutoff X through the
        cache and write its CSV. Prints one JSON line with the timings.
    child.py cli --spans FILE --op N -- ARGV...
        Run ``holonomy.cli.main(ARGV)`` once under the tracer and dump its spans.

``t_ready`` is read from ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import Tracer

FIELD_M = 2


def setup(cache_path: str, tracer: Tracer | None = None):
    import holonomy.cli  # noqa: F401  (the CLI imports every layer)
    from holonomy.fields import make_field
    from holonomy.orders import LatticeSpec, OrderCache

    if tracer is not None:
        tracer.install()
    cache = OrderCache(cache_path)
    K = make_field(FIELD_M)
    return cache, K, LatticeSpec.hilbert(K)


def _time_ops(spectrum, op_ms: list) -> None:
    """Time each classified trace: the builds' unit of work."""
    for name in ("classify_trace", "classify_elliptic_trace"):
        fn = getattr(spectrum, name)

        def timed(*args, _fn=fn, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                op_ms.append(1000.0 * (time.perf_counter() - t0))

        setattr(spectrum, name, timed)


def build(args) -> int:
    tracer = Tracer() if args.spans else None
    cache, K, spec = setup(args.cache, tracer)
    t_ready = time.perf_counter()
    from holonomy import spectrum
    from holonomy.cli import table_to_csv

    op_ms: list = []
    _time_ops(spectrum, op_ms)
    c0, t0 = time.process_time(), time.perf_counter()
    table = spectrum.length_spectrum(K, args.x, spec, cache)
    text = table_to_csv(table)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    with open(args.out, "w") as fh:
        fh.write(text)
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps({
        "t_ready": t_ready, "wall_s": wall, "cpu_s": cpu, "op_ms": op_ms,
        "elliptic": len(table.elliptic),
        "elliptic_uncertified": sum(not e.multiplicity.certified for e in table.elliptic),
    }))
    return 0


def cli(args) -> int:
    import holonomy.cli

    tracer = Tracer(op=args.op)
    tracer.install()
    try:
        rc = holonomy.cli.main(args.argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="child.py")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--cache", required=True)
    p = sub.add_parser("build")
    p.add_argument("--cache", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--op", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.cmd == "setup":
        setup(args.cache)
        print(json.dumps({"t_ready": time.perf_counter()}))
        return 0
    if args.cmd == "build":
        return build(args)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return cli(args)


if __name__ == "__main__":
    sys.exit(main())
