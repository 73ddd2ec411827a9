"""Benchmark for the chowcalc intersection engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; chowcalc is imported from its `src/`.
Workloads: bezout, excess-tor, correspondences, scripts (see workloads.py).
Each workload is a closed loop with one caller in one process, and every op
is checked against an oracle built from the generated input.

--trace 0 runs whole cycles of the workload's family mix until --seconds of
op time and at least 100 ops are done, and prints the end-to-end metrics:
setup_s (median of several fresh set-ups), ops_per_s, op_p50_ms, op_p90_ms
and peak_rss_mb; failed_ops_frac is printed above the result and is the
result's `failed` / `attempted`.  The timings are scaled to a reference
machine speed measured by a probe next to each op (see speed.py); the
unscaled wall-clock figures are printed above the result.
--trace 1 runs a fixed number of ops with spans around every listed engine
function, replays the same ops untraced in a fresh process, and prints the
per-layer metrics and the tracing overhead.  Its answers must equal the
untraced replay's, compared by digest.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Worker processes run one at a time and are waited for.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

WORKLOADS = ("bezout", "excess-tor", "correspondences", "scripts")

# p90 is reported from at least this many ops, so ten lie beyond it.
MIN_OPS = 100
# Fresh set-up-only processes per untraced run.
SETUPS = 3
# Ops per traced run: whole cycles of each workload's family mix (24, 48, 12
# and 6 ops), about 5-10 s each with tracing on.
TRACE_OPS = {"bezout": 48, "excess-tor": 48, "correspondences": 36,
             "scripts": 36}
# Every worker must finish within this many seconds; the whole run stays
# under 180 s.
WORKER_TIMEOUT = 150

LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))


def layer_metric_names():
    from tracing import REPEAT_KEYS, TRACED
    names = [(f"{m}.{f}.{stat}", unit) for m, f in TRACED
             for stat, unit in LAYER_STATS]
    names += [(f"{name}.repeat_frac", "ratio") for name in REPEAT_KEYS]
    return names + [("trace_overhead", "ratio")]


def run_worker(workload, seed, mode, deadline, **opts):
    """Start one worker, wait for it, and return (its result, set-up seconds
    from process start to the end of its warm-up op)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{mode} worker for {workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker for {workload} exited with "
                         f"{proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_at"] - started


def report_failures(result):
    for f in result["failures"][:5]:
        print(f"FAILED op {f['op']}: {f['error']}\n  input: "
              f"{json.dumps(f['input'])[:500]}")


def timing_metrics(lat):
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
    }


def untraced(args, deadline):
    setups = []
    for _ in range(SETUPS):
        result, setup = run_worker(args.workload, args.seed, "setup", deadline)
        setup -= result["probed_s"]
        setups.append((setup, setup * speed.REFERENCE_S / result["probe_s"]))
    result, _ = run_worker(args.workload, args.seed, "timed", deadline,
                           seconds=args.seconds, min_ops=MIN_OPS)
    lat = result["latencies"]
    n, failed = result["ops"], len(result["failures"])
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        **timing_metrics(speed.scaled(lat, result["probes"])),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    wall = {"setup_s": (statistics.median(s for s, _ in setups), "s"),
            **timing_metrics(lat)}
    report_failures(result)
    print(f"{args.workload} seed {args.seed}: {n} ops in "
          f"{result['busy_s']:.2f} s of op time, one caller, closed loop")
    print(f"  {'':16s} {'scaled':>12s} {'wall-clock':>12s}")
    for name, (value, unit) in metrics.items():
        raw = f"{wall[name][0]:12.4f}" if name in wall else f"{'':12s}"
        print(f"  {name:16s} {value:12.4f} {raw} {unit}")
    print(f"  {'failed_ops_frac':16s} {failed / n:12.4f} ratio")
    print(f"  latency samples {n}, {n - int(0.9 * n)} at or above p90; "
          f"setup_s is the median of {len(setups)} fresh set-ups; median "
          f"probe {statistics.median(result['probes']) * 1e3:.3f} ms, "
          f"reference {speed.REFERENCE_S * 1e3:.3f} ms")
    print(f"  digest sha256:{result['digest']} over the first "
          f"{result['digest_ops']} ops")
    return failed == 0, n, failed, metrics


def scaled_busy(result):
    return sum(speed.scaled(result["latencies"], result["probes"]))


def traced(args, deadline):
    ops = TRACE_OPS[args.workload]
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
    t_res, _ = run_worker(args.workload, args.seed, "traced", deadline,
                          ops=ops, spans=spans)
    u_res, _ = run_worker(args.workload, args.seed, "replay", deadline, ops=ops)
    report_failures(t_res)
    failed = len(t_res["failures"])
    same = t_res["digest"] == u_res["digest"]
    layers = t_res["layers"]
    op_time = layers["op"][2]
    metrics = {}
    print(f"{args.workload} seed {args.seed}: {ops} ops traced "
          f"({t_res['busy_s']:.2f} s), replayed untraced "
          f"({u_res['busy_s']:.2f} s); spans in {spans.relative_to(ROOT)}")
    print(f"  {'layer':42s} {'calls':>7s} {'self_s':>8s} {'self%':>6s} "
          f"{'total_s':>8s} {'total%':>6s}")
    for name, unit in layer_metric_names():
        layer, _, stat = name.rpartition(".")
        if stat == "repeat_frac":
            metrics[name] = (t_res["repeat_frac"][layer], unit)
        elif name == "trace_overhead":
            metrics[name] = (scaled_busy(u_res) / scaled_busy(t_res), unit)
        else:
            calls, self_s, total_s = layers.get(layer, [0, 0.0, 0.0])
            metrics[name] = (dict(calls=calls, self_s=self_s,
                                  total_s=total_s)[stat], unit)
            if stat == "total_s":
                print(f"  {layer:42s} {calls:7d} {self_s:8.3f} "
                      f"{100 * self_s / op_time:6.1f} {total_s:8.3f} "
                      f"{100 * total_s / op_time:6.1f}")
    print(f"  {'op (benchmark and unlisted code)':42s} {ops:7d} "
          f"{layers['op'][1]:8.3f} {100 * layers['op'][1] / op_time:6.1f}")
    for name in t_res["repeat_frac"]:
        print(f"  {name}.repeat_frac {t_res['repeat_frac'][name]:.4f}")
    print(f"  trace_overhead {metrics['trace_overhead'][0]:.4f} (scaled "
          f"ops_per_s untraced {ops / scaled_busy(u_res):.3f}, traced "
          f"{ops / scaled_busy(t_res):.3f})")
    print(f"  digest traced {t_res['digest']} untraced {u_res['digest']}: "
          f"{'equal' if same else 'DIFFERENT'}")
    return failed == 0 and same, ops, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chowcalc" / "__init__.py").is_file():
        print(f"no chowcalc sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + WORKER_TIMEOUT
    correct, attempted, failed, metrics = (traced if args.trace else untraced)(
        args, deadline)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
