"""hilb3 benchmark: one workload per process, closed loop, checked results.

    python3 bench/run.py --workload polynomial --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 56 --trace 0

Run from the repository root; the program is imported from ./src.  Each op
is one in-process call of the real entry point `hilb3.cli.main(argv)` with
stdout captured; one client issues ops back to back, each starting when the
previous one returns.  Passes over the workload's fixed op list repeat for
--seconds (at least MIN_PASSES).  Every result is checked; an op fails on an
unexpected exit code or a failed check.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, prints the per-layer metrics of the traced passes and the
tracing overhead, and writes the spans of the first traced pass to
.bench_out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Exit 2 when ./src/hilb3 is missing.
"""
from __future__ import annotations

import argparse
import os
import sys

THREADS = 1  # BLAS/OpenMP pool size, fixed before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 3
SETUP_PER_GAP = 2  # fresh imports timed before each pass and after the last
TAIL_LADDER = (99.9, 99.0, 90.0)  # highest with at least ten ops beyond it wins


def load_spec() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_times() -> list[float]:
    """Wall time of a fresh interpreter importing hilb3.cli (numpy included)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_PER_GAP):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import hilb3.cli"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # the CLI would die with exit 1: a failed op, not a failed run
            rc = 1
            buf.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, buf.getvalue(), dt


def run_pass(cli, ops, tracer=None) -> tuple[float, list[float], list]:
    """(pass wall time, op latencies, (rc, stdout) per op); checks come later."""
    lat, outs = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        rc, out, dt = call(cli, op.argv)
        lat.append(dt)
        outs.append((rc, out))
    return time.perf_counter() - t0, lat, outs


class Checker:
    """Counts attempted and failed ops; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def ops(self, ops, outs, pass_check=None) -> None:
        results = []
        for op, (rc, out) in zip(ops, outs):
            self.attempted += 1
            res, err = None, None
            if rc != 0:
                err = f"exit {rc}: {out.strip()[-300:]}"
            else:
                try:
                    res = json.loads(out)["result"]
                    err = op.check(res)
                except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                    err = f"unreadable result ({exc!r}): {out.strip()[-300:]}"
            if err is not None:
                self.failed += 1
                self.note(f"{' '.join(op.argv)[:120]}: {err}")
                res = None
            results.append(res)
        if pass_check is not None:
            err = pass_check(results)
            if err is not None:  # cannot tell which op is wrong: fail the pass
                self.failed += len(ops) - results.count(None)
                self.note(f"pass check: {err}")

    def note(self, message: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(message)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n ops beyond it.

    Fewer than 20 ops leave no tail percentile, so the median stands in.
    """
    return next((q for q in TAIL_LADDER if n * (100 - q) / 100 >= 10), 50.0)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def keep_going(start: float, seconds: float, walls: list[float], minimum: int) -> bool:
    """Another pass fits in the time budget (or the minimum is not met)."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD read from .git without running git (a checkout may have none)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hilb3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(args, np) -> dict:
    blas = None
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    from hilb3 import gfp
    return {"git_sha": git_sha(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "prime": gfp.DEFAULT_PRIME, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(cli, wl, checker, seconds) -> dict:
    # set-up samples are spread over the run, so a slow spell of the machine
    # weighs on them no more than on the passes
    setup, walls, lat = [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, walls, MIN_PASSES):
        setup += setup_times()
        wall, op_lat, outs = run_pass(cli, wl.ops)
        walls.append(wall)
        lat += op_lat
        checker.ops(wl.ops, outs, wl.pass_check)
    setup += setup_times()
    # fixed per workload by the guaranteed op count, so it never moves between runs
    q = tail_percentile(len(wl.ops) * MIN_PASSES)
    tail_value = percentile(lat, q)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s     = {statistics.median(setup):.4f} s   median of {len(setup)} fresh imports")
    print(f"wall_s      = {statistics.median(walls):.4f} s   median of {len(walls)} passes "
          f"of {len(wl.ops)} ops (throughput {len(wl.ops) / statistics.median(walls):.2f} ops/s); "
          f"passes {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"op_p50_ms   = {1000 * statistics.median(lat):.3f} ms  median of {len(lat)} ops")
    print(f"op_tail_ms  = {1000 * tail_value:.3f} ms  p{q:g} of {len(lat)} ops, "
          f"{len(lat) * (100 - q) / 100:g} beyond it")
    print(f"fail_ratio  = {checker.failed / max(checker.attempted, 1):.4f}     "
          f"{checker.failed} failed / {checker.attempted} attempted")
    print(f"peak_rss_mb = {rss_mb:.1f} MB  ru_maxrss of the workload process")
    return {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(lat), "op_tail_ms": 1000 * tail_value,
            "peak_rss_mb": rss_mb}


def traced(cli, wl, checker, seconds, span_path, names) -> dict:
    from spans import Tracer, layer_metrics

    plain, spanned, per_pass = [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, [a + b for a, b in zip(plain, spanned)], 1):
        wall, _, outs = run_pass(cli, wl.ops)
        plain.append(wall)
        checker.ops(wl.ops, outs, wl.pass_check)
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, outs = run_pass(cli, wl.ops, tracer)
        finally:
            tracer.uninstall()
        spanned.append(wall)
        checker.ops(wl.ops, outs, wl.pass_check)
        per_pass.append(layer_metrics(tracer.spans))
        per_pass[-1]["trace.spans"] = len(tracer.spans)
        if len(per_pass) == 1:
            tracer.write(span_path)
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass]
    if any(c != counts[0] for c in counts):
        checker.failed += 1
        checker.note("per-layer counts differ between traced passes")
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_pass)
               if name.endswith("_s") else int(counts[0].get(name, 0)) for name in names}
    metrics["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)
    for name in names:
        print(f"{name:45s} = {metrics[name]:.6g} {names[name]}")
    print(f"tracing overhead: traced wall_s {statistics.median(spanned):.4f} s - untraced "
          f"{statistics.median(plain):.4f} s = {metrics['trace.overhead_s']:.4f} s "
          f"over {len(per_pass)} pass pairs; spans in {os.path.relpath(span_path, ROOT)}")
    return metrics


def run_all(args) -> int:
    """Each workload in its own process; prefixed metrics on the last line."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hilb3", "cli.py")):
        fail(f"no hilb3 sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    import numpy as np
    from hilb3 import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"hilb3 imported from {cli.__file__}, not from {SRC}")
    os.makedirs(OUT, exist_ok=True)
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(environment(args, np), sort_keys=True))

    wl = WORKLOADS[args.workload](random.Random(args.seed), OUT)
    checker = Checker()
    for op in wl.warmup:  # lazy set-up (first numpy calls, regex compiles)
        rc, out, _ = call(cli, op.argv)
        checker.ops([op], [(rc, out)])
    end_to_end_units, per_layer_units = load_spec()
    if args.trace:
        span_path = os.path.join(OUT, f"spans-{args.workload}.jsonl")
        units = per_layer_units
        values = traced(cli, wl, checker, args.seconds, span_path, units)
    else:
        units = end_to_end_units
        values = end_to_end(cli, wl, checker, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for message in checker.errors:
        print(f"FAILED {message}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
