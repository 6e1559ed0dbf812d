"""hamcert benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload sweep-light-n7 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                  # every workload, fresh processes
    python3 bench/run.py --workload extract-large --repeat 10 --seed 1   # spread per metric

A run with ``--trace 0`` measures the end-to-end metrics of BENCHMARK.json;
``--trace 1`` measures the per-layer metrics: a third of the time untraced,
then two thirds with every layer wrapped, so the tracing overhead shows.
Every item is checked outside the timed interval; at the default seed the
deterministic outputs must also match ``bench/pins.json``. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Details of each run go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0  # the seed whose outputs are pinned in pins.json
SETUP_PROBES = 9
CALIBRATION_REF_S = 0.002  # nominal seconds of one calibration pass
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    return [w["name"] for w in load_spec()["workloads"]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names() + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed..seed+repeat-1")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        ap.error("--seconds must be positive and --repeat at least 1")
    return args


def load_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hamcert" / "__init__.py").is_file():
        sys.exit(f"bench: no hamcert package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hamcert

    if Path(hamcert.__file__).resolve().parent != SRC / "hamcert":
        sys.exit(f"bench: imported hamcert from {hamcert.__file__}, not from {SRC}")


# --- provenance ----------------------------------------------------------------


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# --- one run --------------------------------------------------------------------


def _guarded(fn, *args):
    """(value, None) or (None, error text): a bug in the package must not
    abort the measurement."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _set_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def calibration_pass() -> float:
    """Seconds taken by a fixed piece of interpreter work that shares no
    code with the package but looks like its inner loops: bit tricks,
    generators, calls, small objects, dict and list traffic.

    The machine is shared and its effective speed drifts by a third
    within seconds, for wall and CPU time alike. Every timing is scaled
    by CALIBRATION_REF_S over the mean of the two passes that bracket it,
    which cancels the drift but not a change in the package."""
    t0 = time.perf_counter()
    acc = 0
    table: dict = {}
    cells = []
    for i in range(1200):
        m = (i * 2654435761) & 0xFFFFFF
        for b in _set_bits(m & 0xFFF):
            acc += b
        table[m & 255] = table.get(m & 255, 0) + 1
        cells.append(_Cell(i, (m, acc)))
        if len(cells) > 64:
            cells.clear()
    return time.perf_counter() - t0


@dataclass
class Loop:
    latencies: array = field(default_factory=lambda: array("d"))  # per item, scaled seconds
    rates: list = field(default_factory=list)  # per window, items per scaled second
    raw_rates: list = field(default_factory=list)  # per window, items per wall second
    speeds: list = field(default_factory=list)  # per calibration, reference over measured
    failures: list = field(default_factory=list)
    prefix_failed: bool = False


def timed_loop(wl, seconds: float, observe: bool, tracer=None) -> Loop:
    """Closed loop from item 0 until ``seconds`` have passed, stopping on a
    window boundary, with a calibration pass every ``wl.calibrate_every``
    items. With ``observe`` the first ``wl.pinned_items`` results also
    feed the workload's digest."""
    loop = Loop()
    block = array("d")  # wall seconds of the items since the last calibration
    scaled_busy = raw_busy = 0.0
    stream = wl.items()
    before = calibration_pass()
    started = time.perf_counter()
    i = 0
    while True:
        item = next(stream)
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        result, error = _guarded(wl.run, item)
        block.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if error is None:
            failure, error = _guarded(wl.check, item, result)
            error = error or failure
        if error is not None:
            where, _ = _guarded(wl.describe, item)
            loop.failures.append({"item": i, "error": error, **(where or {})})
        if tracer is not None:
            tracer.active = True
        if observe and i < wl.pinned_items:
            if error is None:
                wl.observe(item, result)
            else:
                loop.prefix_failed = True
        i += 1
        if i % wl.calibrate_every == 0:
            after = calibration_pass()
            speed = 2 * CALIBRATION_REF_S / (before + after)
            before = after
            loop.speeds.append(speed)
            if tracer is not None:
                tracer.scale_spans(speed)
            loop.latencies.extend(dt * speed for dt in block)
            raw = sum(block)
            raw_busy += raw
            scaled_busy += raw * speed
            del block[:]
        if i % wl.window == 0:
            loop.rates.append(wl.window / scaled_busy)
            loop.raw_rates.append(wl.window / raw_busy)
            scaled_busy = raw_busy = 0.0
            if time.perf_counter() - started >= seconds and i >= wl.pinned_items:
                return loop


def percentile(sorted_values, pct: int) -> float:
    """Nearest-rank percentile of a sorted sample."""
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time, scaled and on the wall clock, of fresh interpreters
    that import the package and its CLI and finish the workload's first
    item."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = calibration_pass()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        dt = time.perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * 2 * CALIBRATION_REF_S / (before + calibration_pass()))
    return statistics.median(scaled), statistics.median(raw)


def setup_probe(workload: str, seed: int) -> int:
    import hamcert.cli  # noqa: F401  (its import cost belongs to set-up)
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    wl.run(next(wl.items()))
    return 0


def single_run(args) -> dict:
    import resource

    import workloads

    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    if args.trace == 0:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.run(next(wl.items()))  # warm-up, untimed

    tracer = None
    if args.trace:
        import tracing

        untraced = timed_loop(wl, args.seconds / 3, True)
        tracer = tracing.Tracer()
        try:
            loop = timed_loop(wl, args.seconds * 2 / 3, False, tracer)
        finally:
            tracer.close()
        failures = untraced.failures + loop.failures
        attempted = len(untraced.latencies) + len(loop.latencies)
        prefix_failed = untraced.prefix_failed
    else:
        loop = timed_loop(wl, args.seconds, True)
        failures = loop.failures
        attempted = len(loop.latencies)
        prefix_failed = loop.prefix_failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = wl.cross_check()
    digest = None
    if prefix_failed:
        problems.append("an item of the pinned prefix failed, so it has no digest")
    else:
        digest = wl.digest()
        if args.seed == DEFAULT_SEED:
            with open(BENCH / "pins.json") as fh:
                pinned = json.load(fh).get(args.workload)
            if pinned != digest:
                problems.append(f"digest mismatch at seed {DEFAULT_SEED}: pinned {pinned}, got {digest}")

    ordered = sorted(loop.latencies)
    count = len(ordered)
    extra = {
        "failed_frac": (len(failures) / attempted, "ratio"),
        "raw_items_per_s": (statistics.median(loop.raw_rates), "1/s"),
        "speed_scale": (statistics.median(loop.speeds), "ratio"),
        "latency_samples": (count, "count"),
        "windows": (len(loop.rates), "count"),
        "stalled": (wl.stalled, "count"),
    }
    if args.trace:
        computed = tracer.metrics()
        traced_rate = statistics.median(loop.rates)
        untraced_rate = statistics.median(untraced.rates)
        computed["trace.items_per_s"] = (traced_rate, "1/s")
        computed["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
        computed["trace.overhead_frac"] = (untraced_rate / traced_rate - 1, "ratio")
    else:
        computed = {
            "items_per_s": (statistics.median(loop.rates), "1/s"),
            "p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
            "p90_ms": (percentile(ordered, 90) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra["raw_setup_s"] = (raw_setup_s, "s")
        if count >= 1000:
            extra["p99_ms"] = (percentile(ordered, 99) * 1e3, "ms")
    missing = {m["name"] for m in declared} - set(computed)
    if missing:
        sys.exit(f"bench: BENCHMARK.json declares metrics this run does not produce: {sorted(missing)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = None
    if tracer is not None:
        spans_file = OUT / f"{stem}-spans.jsonl"
        tracer.write_spans(spans_file)
    metrics = {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "git_commit": git_commit(),
        "items": {"attempted": attempted, "failed": len(failures), "timed": count,
                  "window": wl.window, "pinned": wl.pinned_items, "cross_checked": len(wl.sample)},
        "result": result,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "digest": digest,
        "problems": problems,
        "failures": failures[:100],
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  {why}")
    for name, (value, unit) in [(m["name"], computed[m["name"]]) for m in declared] + list(extra.items()):
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if "p99_ms" not in extra and not args.trace:
        print(f"  {'p99_ms':<44} {'n/a':>14} (needs 1000 items, run had {count})")
    print(f"  attempted {attempted}  failed {len(failures)}  (percentiles over {count} items)")
    for problem in problems:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    for failure in failures[:10]:
        print(f"  FAILED {json.dumps(failure)}", file=sys.stderr)
    print(f"  details in {OUT.relative_to(ROOT) / (stem + '.json')}")
    return result


# --- several runs ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat_runs(args) -> dict:
    """Each run in a fresh process, one after another; prints each metric's
    median, quartiles and spread (interquartile distance over the median)."""
    names = workload_names() if args.workload == "all" else [args.workload]
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    OUT.mkdir(exist_ok=True)
    for name in names:
        runs = []
        for r in range(args.repeat):
            seed = args.seed + r
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"bench: run of {name} at seed {seed} exited {proc.returncode}")
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
        stats = {}
        print(f"{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for decl in declared:
            metric = decl["name"]
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = decl.get("bound")
            stats[metric] = {"unit": decl["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound, "values": values}
            combined["metrics"][f"{name}.{metric}"] = {"value": med, "unit": decl["unit"]}
            print(f"  {metric:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}")
        summary = {"workload": name, "trace": args.trace, "seconds": args.seconds,
                   "machine": machine(), "git_commit": git_commit(), "runs": runs, "metrics": stats}
        path = OUT / f"summary-{name}-trace{args.trace}.json"
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        print(f"  summary in {path.relative_to(ROOT)}")
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all" or args.repeat > 1:
        result = repeat_runs(args)
    else:
        result = single_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
