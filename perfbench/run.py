"""Benchmark of the biquadrank certificate pipeline.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Runs one workload (or `all` of them, one after the other) against the
package in `src/` of the checkout this file sits in.  Each workload runs in
its own child process; set-up time is measured in separate fresh
processes.  With `--trace 0` it reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_SAMPLES = 8  # fresh processes timing set-up, besides the workload's own
TIME_LIMIT_S = 170  # a workload's run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process with no extra threads
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One workload: returns attempted/failed/metrics plus lines for people."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    # Set-up samples go before and after the workload, so they meet different
    # phases of load from elsewhere on the machine.
    samples = 0 if trace else SETUP_SAMPLES
    setups = [run_child(["setup"], deadline) for _ in range(samples // 2)]
    res = run_child(["run", workload, str(seed), str(seconds), "1" if trace else "0", spans],
                    deadline)
    setups += [run_child(["setup"], deadline) for _ in range(samples - samples // 2)]

    passes = res["passes"]
    attempted = len(res["ops"]) * (len(passes) + res["untimed_passes"])
    failed = sum(res["errors"].values())
    lines = [f"{workload}: seed {seed}, one warm-up pass, then {len(passes)} passes "
             f"of {len(res['ops'])} operations"]
    lines += [f"  op: {label}" for label in res["ops"]]
    for err in sorted({s["package_error"] for s in setups + [res]} - {None}):
        lines.append(f"  note: import biquadrank failed ({err}); the layer modules "
                     "imported before the failure are measured")
    setup_errors = {s["setup_error"] for s in setups + [res]} - {None}
    lines += [f"  set-up failed: {err}" for err in sorted(setup_errors)]
    lines += [f"  FAILED x{count}: {text}" for text, count in sorted(res["errors"].items())]

    if not trace:
        # Pass and operation times are at a reference speed (hostclock.py).
        setup_s = [s["setup_s"] for s in setups] + [res["setup_s"]]
        walls = [p["wall_s"] for p in passes]
        pass_s = [sum(p["op_s"]) for p in passes]
        op_med = [statistics.median(p["op_s"][i] for p in passes) for i in range(len(res["ops"]))]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} fresh processes"),
            "pass_s": (statistics.median(pass_s), "s",
                       f"median of {len(passes)} passes at reference speed (elapsed: median "
                       f"{statistics.median(walls):.4f} s, fastest {min(walls):.4f} s)"),
            "op_p50_s": (statistics.median(op_med), "s",
                         f"median over {len(op_med)} operations of each one's median at "
                         f"reference speed over {len(passes)} passes"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", "peak resident set of the workload process"),
        }
        lines.append(f"  fastest probe {res['fastest_probe_s'] * 1e3:.4f} ms, "
                     f"reference {hostclock.REFERENCE_PROBE_S * 1e3:.4f} ms")
    else:
        layers = res["layers"]
        for metric in COUNT_METRICS:
            values = {pass_metrics[metric] for pass_metrics in layers}
            if len(values) > 1:
                failed += 1
                lines.append(f"  FAILED: {metric} differs between traced passes: {sorted(values)}")
        metrics = {m: (layers[0][m] if unit == "count" else statistics.median(p[m] for p in layers),
                       unit, "") for m, (unit, _) in LAYER_METRICS.items()}
        traced_wall = statistics.median(p["wall_s"] for p in passes[1:])
        metrics["trace.overhead_s"] = (traced_wall - passes[0]["wall_s"], "s",
                                       f"traced median of {len(layers)} passes minus one untraced pass")
        for row in res["per_certificate"]:
            lines.append("  per certificate: " + ", ".join(
                f"{name} {calls} calls on {distinct} distinct" for name, (calls, distinct) in row.items()))
        lines.append(f"  spans written to {os.path.relpath(spans, ROOT)}")

    lines.append(f"  attempted {attempted}, failed {failed}")
    lines += [f"  {name:<36} {value:>14{'d' if isinstance(value, int) else '.6f'}} {unit:<5} {note}"
              for name, (value, unit, note) in metrics.items()]
    return {
        "correct": failed == 0 and not setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "biquadrank", "__init__.py")):
        print(f"perfbench: no package source at {os.path.join(ROOT, 'src', 'biquadrank')}",
              file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for res in results.values():
        print("\n".join(res.pop("lines")))
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
