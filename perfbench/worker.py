"""Child process of the benchmark: one set-up measurement, or one workload.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE SPANS

`run.py` starts it with PYTHONPATH pointing at the checkout's `src`, so the
package under test is the one in the checkout.  The last line of standard
output is one JSON object with the measurements (operation times at a
reference speed of the host, see `hostclock.py`); `run.py` turns them into metrics.
"""

from __future__ import annotations

import collections
import importlib.util
import json
import os
import resource
import sys
import time

import hostclock
import tracer as tracing
import workloads

# Any nonzero value: the first `factor` call builds the lazy prime sieve.
SETUP_FACTOR = 2**31 - 1


def setup():
    """Time `import biquadrank` plus the first `factor` call.

    Returns the time at reference speed, the layer modules (None if they
    failed), the error that makes set-up fail, and the package's own import
    error, which is only reported (see `workloads.load_layers`).
    """
    layers, package_error, error = None, None, None
    clock = hostclock.HostClock()
    clock.start()
    with clock.measure() as sample:
        try:
            layers, package_error = workloads.load_layers()
            layers.arith.factor(SETUP_FACTOR)
        except Exception as exc:  # the layers under test may not even import
            layers, error = None, f"{type(exc).__name__}: {exc}"
    clock.stop()
    return sample.reference_s([]), layers, error, package_error


def run_pass(ops, layers, errors, clock) -> dict:
    samples = []
    start = time.perf_counter()
    for op in ops:
        with clock.measure() as sample:
            try:
                if layers is None:
                    raise workloads.CheckFailed("set-up failed")
                op.run(layers)
            except Exception as exc:  # every failure is counted, with its text
                errors[f"{op.label}: {type(exc).__name__}: {exc}"] += 1
        samples.append(sample)
    return {"wall_s": time.perf_counter() - start, "samples": samples}


def at_reference_speed(passes: list[dict]):
    """Replace each pass's samples by `op_s`, the times at reference speed."""
    every = [x for p in passes for sample in p["samples"] for x in sample.probes]
    for p in passes:
        samples = p.pop("samples")
        in_pass = [x for sample in samples for x in sample.probes] or every
        p["op_s"] = [sample.reference_s(in_pass) for sample in samples]


def run(name: str, seed: int, seconds: float, trace: bool, spans_path: str) -> dict:
    setup_s, layers, setup_error, package_error = setup()
    ops = workloads.build(name, seed)
    tracer = tracing.Tracer()
    if trace and layers is not None:
        tracer.install(layers)
    errors: collections.Counter = collections.Counter()
    # Spans must not include probe time, so a traced run times without probes.
    clock = hostclock.HostClock()
    if not trace:
        clock.start()
    result = {"setup_s": setup_s, "setup_error": setup_error, "package_error": package_error,
              "ops": [op.label for op in ops], "untimed_passes": 1}

    # One untimed pass first: the first calls pay for caches and lazy
    # imports that later passes do not.
    run_pass(ops, layers, errors, clock)
    deadline = time.perf_counter() + seconds
    if not trace:
        passes = []
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(ops, layers, errors, clock))
        clock.stop()
        at_reference_speed(passes)
        result["fastest_probe_s"] = clock.fastest_probe
        result["passes"] = passes
    else:
        untraced = run_pass(ops, layers, errors, clock)
        tracer.enabled = True
        passes, layers_metrics, first_pass_end = [untraced], [], None
        while len(layers_metrics) < 2 or time.perf_counter() < deadline:
            first = tracer.begin_pass()
            passes.append(run_pass(ops, layers, errors, clock))
            layers_metrics.append(tracer.pass_metrics(first))
            if first_pass_end is None:
                first_pass_end = len(tracer.spans)
        tracer.enabled = False
        tracer.begin_pass()
        if any(span[0] == tracing.SEARCH for span in tracer.spans):
            tracer.track_memory = True
            run_pass(ops, layers, errors, clock)
            result["untimed_passes"] += 1
            tracer.track_memory = False
        peak_mb = tracer.counters.get("search.peak_bytes", 0) / 2**20
        for pass_metrics in layers_metrics:
            pass_metrics["biquadrate.search.peak_mb"] = peak_mb
        for p in passes:
            p["op_s"] = [sample.elapsed for sample in p.pop("samples")]
        result["passes"] = passes
        result["layers"] = layers_metrics
        result["per_certificate"] = tracing.per_certificate(
            tracer.spans[:first_pass_end], tracing.CERTIFY,
            ("arith.factor", "heights.canonical_height"))
        tracer.write(spans_path)

    result["errors"] = dict(errors)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv: list[str]) -> int:
    src = os.environ.get("PYTHONPATH", "")
    spec = importlib.util.find_spec("biquadrank")
    if spec is None or not os.path.abspath(spec.origin).startswith(os.path.join(src, "")):
        print(f"worker: biquadrank does not resolve to {src}", file=sys.stderr)
        return 2
    if argv[:1] == ["setup"]:
        setup_s, _, error, package_error = setup()
        out = {"setup_s": setup_s, "setup_error": error, "package_error": package_error}
    elif argv[:1] == ["run"] and len(argv) == 6:
        name, seed, seconds, trace, spans_path = argv[1:]
        out = run(name, int(seed), float(seconds), trace == "1", spans_path)
    else:
        print(__doc__, file=sys.stderr)
        return 64
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
