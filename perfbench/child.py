"""One part of a workload's pass, in a fresh interpreter.

Started by `run.py`, one at a time.  Each pass pays xxxchain's lazy caches
(`sector_basis`, `build_beta_table`, `permutations_of`, the per-Hamiltonian
sector cache) as a command-line user does.  Prints one JSON line: the moment
the imports finished, the pass timings, the check failures, the tallies, the
peak RSS, the times of a fixed reference computation taken between operations
and, with --trace 1, the per-layer metrics.
"""

import time

import numpy
import scipy
import xxxchain

READY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402

SETUP_REFERENCES = 5


def reference_s() -> float:
    """Time of a fixed computation that runs no xxxchain code.

    The host's speed drifts by up to 1.7x within minutes, for every kind of
    work alike, so `run.py` scales a run's times by the mean of these, taken
    before each operation and after the last one.  The mix follows the
    package's: interpreted loops over dicts of tuples, numpy calls on tiny
    arrays, and arithmetic on a vector of 16,384 complex entries."""
    vec = numpy.linspace(0.0, 1.0, 1 << 14) * (1 + 1j)
    t0 = time.perf_counter()
    table = {}
    for i in range(40000):
        key = (i % 101, i % 37)
        table[key] = table.get(key, 0) + i
    small = numpy.ones(4)
    for _ in range(2000):
        small = numpy.abs(small * 0.5 - 1.0)
    acc = vec
    for _ in range(80):
        acc = acc * 0.999 + vec
    return time.perf_counter() - t0


def _versions() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def run_part(part: str, seed: int, tracer=None) -> dict:
    from workloads import PARTS

    latencies, outputs, errors, references = [], [], [], []
    with warnings.catch_warnings(record=tracer is not None) as caught:
        if tracer is not None:
            warnings.simplefilter("always", RuntimeWarning)
            tracer.install()
        try:
            start = time.perf_counter()
            ops = PARTS[part](seed)
            for op in ops:
                references.append(reference_s())
                t0 = time.perf_counter()
                try:
                    outputs.append(op.run())
                    errors.append(None)
                except Exception as exc:  # a raising operation is a failed operation
                    outputs.append(None)
                    errors.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
                latencies.append(time.perf_counter() - t0)
            references.append(reference_s())
            wall = time.perf_counter() - start - sum(references)
        finally:
            if tracer is not None:
                tracer.uninstall()

    tally = Counter()
    failures = []
    for op, out, err in zip(ops, outputs, errors):
        if err is None:
            try:
                problems = op.check(out)
                tally.update(op.tally(out))
            except Exception as exc:
                problems = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
            err = "; ".join(problems) or None
        failures.append(err)
    result = {
        "part": part,
        "wall_s": wall,
        "ops": [{"label": op.label, "s": s, "error": e}
                for op, s, e in zip(ops, latencies, failures)],
        "tally": dict(tally),
        "reference_s": references,
    }
    if tracer is not None:
        numpy_warnings = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
        result["layers"] = tracer.layer_metrics(numpy_warnings)
        result["spans"] = len(tracer.spans)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", default=None, help="omit to measure imports only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced part's spans")
    args = parser.parse_args()

    out = {"ready": READY, "package": xxxchain.__file__, "versions": _versions()}
    if args.part is None:
        out["reference_s"] = [reference_s() for _ in range(SETUP_REFERENCES)]
    else:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        out.update(run_part(args.part, args.seed, tracer))
        if tracer is not None and args.spans:
            tracer.write(args.spans)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
