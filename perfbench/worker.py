"""One benchmark process: set up, then run ops of one workload in a closed
loop with a single caller, checking every answer against its oracle.

Each run gets a fresh interpreter because chowcalc keeps module-level caches
(`primes._MINIMAL_PRIME_CACHE`) that would otherwise carry answers from one
run into the next.  The last line on stdout is a JSON result for run.py.

    python3 perfbench/worker.py --workload W --seed N --mode M
        [--seconds S] [--ops N] [--min-ops N] [--spans PATH]

Modes: `setup` times speed probes before the set-up and again after it, and
stops after the warm-up op; `timed` runs whole cycles of the workload's
family mix until both --seconds of op time and --min-ops ops are done, so
every run holds the same mix; `replay` runs exactly --ops ops; `traced` runs
exactly --ops ops with spans recorded and written to --spans.  All but
`setup` time a speed probe after each op (see speed.py).
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# The digest covers the first ops of a run, which every mode completes, so
# that runs of one seed compare whatever their length.
DIGEST_OPS = 48
# Speed probes a set-up process times before its set-up and again after it.
SETUP_PROBES = 11


def load_engine():
    sys.path.insert(0, str(ROOT / "src"))
    import chowcalc
    if Path(chowcalc.__file__).resolve().parent != ROOT / "src" / "chowcalc":
        raise SystemExit(f"chowcalc imported from {chowcalc.__file__}, "
                         f"not from {ROOT / 'src'}")
    return chowcalc


class Inputs:
    """Op inputs by index, generated from the seed in blocks."""

    BLOCK = 256

    def __init__(self, workload, seed):
        self.make, self.seed = workload.make, seed
        self.items = []
        self.extend()

    def extend(self):
        start = len(self.items)
        self.items.extend(self.make(self.seed, i)
                          for i in range(start, start + self.BLOCK))

    def __getitem__(self, i):
        while i >= len(self.items):
            self.extend()
        return self.items[i]


def run_op(workload, inp, call):
    """(output, failure message or None, seconds).  Any exception counts as
    a failed op; the loop goes on."""
    t0 = time.perf_counter()
    try:
        out = call(workload.run, inp)
    except Exception as exc:
        dt = time.perf_counter() - t0
        out = f"error: {type(exc).__name__}: {exc}"
        return out, out, dt
    dt = time.perf_counter() - t0
    try:
        msg = workload.check(inp, out)
    except Exception as exc:
        msg = f"oracle could not read the answer: {type(exc).__name__}: {exc}"
    return out, msg, dt


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "replay", "traced"],
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    # A set-up process probes on both sides of its set-up, so that a move to
    # a faster or slower core during it shows in their median.  run.py takes
    # the first probes' time out of the set-up time.
    t0 = time.perf_counter()
    probes = []
    if args.mode == "setup":
        probes = [speed.probe() for _ in range(SETUP_PROBES)]
    probed_s = time.perf_counter() - t0

    cc = load_engine()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](cc)
    inputs = Inputs(workload, args.seed)
    warm = workload.warmup(args.seed)
    _, msg, _ = run_op(workload, warm, lambda fn, inp: fn(inp))
    if msg:
        raise SystemExit(f"warm-up op failed: {msg}")
    result = {"ready_at": time.time()}
    if args.mode == "setup":
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
        result.update(probe_s=statistics.median(probes), probed_s=probed_s)
        print(json.dumps(result))
        return 0

    tracer = None
    call = lambda fn, inp: fn(inp)
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        call = lambda fn, inp: tracer.call("op", fn, inp)

    latencies, probes, failures, digest = [], [], [], hashlib.sha256()
    busy = 0.0
    i = 0
    while True:
        if args.mode == "timed":
            if (busy >= args.seconds and i >= args.min_ops
                    and i % workload.cycle == 0):
                break
        elif i >= args.ops:
            break
        inp = inputs[i]
        out, msg, dt = run_op(workload, inp, call)
        busy += dt
        latencies.append(dt)
        probes.append(speed.probe())
        if msg:
            failures.append({"op": i, "input": inp, "error": msg[:2000]})
        if i < DIGEST_OPS:
            digest.update(f"{i}\t{out}\n".encode())
        i += 1

    result.update({
        "ops": i, "busy_s": busy, "latencies": latencies, "probes": probes,
        "failures": failures, "digest_ops": min(i, DIGEST_OPS),
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["repeat_frac"] = {name: tracer.repeat_frac(name)
                                 for name in tracer.repeats}
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
