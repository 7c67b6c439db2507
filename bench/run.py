"""clustercat benchmark: verified sweeps, timed end to end and traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread runs the workload's sweeps back to back (a closed
loop) for about S seconds: another sweep starts only while it is expected to
end less than half a sweep past the deadline. Every sweep starts with
clustercat's caches emptied, and every answer is checked against its known
value after the sweep's clock stops; a sweep with a wrong or failed item
counts toward ``failed`` and its time is not used.

--trace 0 reports the end-to-end metrics: solve_s (median sweep time),
setup_s (median of several fresh-interpreter set-ups) and peak_rss_mb. Both
times are scaled to a reference host speed: sweeps by a few milliseconds of
fixed work timed ten times a second while they run, set-ups by a bare
interpreter started next to each probe. The raw wall times are in the
detail line. --trace 1 alternates an untraced and a traced sweep over the
same items and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries the details (seed, sample counts, tail
percentiles, machine).

Exit status: 0 when every answer matched, 1 when one did not, 2 when the
arguments are wrong or the clustercat sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("finite-explore", "tilting-sweep", "module-descent", "affine-walk")
SETUP_SAMPLES = 13
# The host's speed swings by up to half within seconds and drifts over
# minutes, for clustercat and for any other Python code alike. HostMeter
# times meter_work_s() every METER_PERIOD_S while a sweep runs; a sweep time
# scaled by REFERENCE_METER_S / mean sample reads in seconds at the speed at
# which the work takes REFERENCE_METER_S, about this benchmark's first
# machine (BASELINE.md) on a quiet day.
METER_PERIOD_S = 0.1
REFERENCE_METER_S = 0.003
# Set-up probes run in fresh interpreters, out of the meter's reach, and
# starting an interpreter swings with the host by more than pure-Python work
# does; so each set-up probe is paired with the start of a bare interpreter.
# A probe scaled by BARE_START_REFERENCE_S / bare start reads in seconds on a
# host where a bare interpreter starts in that time.
BARE_START_REFERENCE_S = 0.04
BARE_START = ["-c", "import time; print(repr(time.monotonic()))"]


@dataclass
class ItemResult:
    name: str
    kind: str
    seconds: float
    ok: bool
    answer: dict
    error: str | None


@dataclass
class Sweep:
    index: int
    seconds: float  # wall time of the items
    scaled_s: float  # the same, at the reference host speed
    items: list[ItemResult]
    meter_s: float  # mean meter_work_s() sample during the sweep
    spans: dict | None = None
    span_count: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.items)


def run_sweep(workload, index: int, tracer=None) -> Sweep:
    """Run every item of one sweep under the host meter, then check the
    answers. An item's time leaves out the meter's own time. A traced sweep
    keeps the meter from ticking, so that no meter work runs inside spans."""
    import workloads

    items = workload(index)
    workloads.clear_caches()
    raws = []
    with HostMeter(ticking=tracer is None) as meter, tracer or contextlib.nullcontext():
        for item in items:
            spent = meter.spent
            s = time.perf_counter()
            try:
                raw, err = item.run(), None
            except Exception as exc:  # a failed item is counted, not fatal
                raw, err = None, f"{type(exc).__name__}: {exc}"
            secs = time.perf_counter() - s - (meter.spent - spent)
            raws.append((raw, err, secs))
    results = []
    for item, (raw, err, secs) in zip(items, raws):
        answer: dict = {}
        if err is None:
            try:
                answer = item.summarize(raw)
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
        ok = err is None and item.check(answer)
        if err is None and not ok:
            err = "answer mismatch: " + json.dumps(
                {k: answer.get(k) for k, v in item.expected.items() if answer.get(k) != v},
                default=str,
            )[:2000]
        results.append(ItemResult(item.name, item.kind, secs, ok, answer, err))
    seconds = sum(r[2] for r in raws)
    meter_s = statistics.mean(meter.samples)
    sweep = Sweep(index, seconds, seconds * REFERENCE_METER_S / meter_s, results, meter_s)
    if tracer is not None:
        sweep.spans = tracer.summary()
        sweep.span_count = tracer.span_count
    return sweep


# A Laurent polynomial in three variables with 81 terms, as exponent tuple ->
# coefficient; meter_work_s() multiplies 20 of its terms by all of them.
_METER_POLY = {(i, j, -i - j): 7 * i + j + 50 for i in range(-4, 5) for j in range(-4, 5)}
_METER_ROWS = list(_METER_POLY.items())[:20]


def meter_work_s() -> float:
    """Time of a few milliseconds of fixed pure-Python work that runs no
    clustercat code: integer arithmetic, then a product of dicts keyed by
    tuples. The host slows these two kinds of work by different amounts,
    and clustercat's layers lean on them in different shares."""
    t = time.perf_counter()
    s = 0
    for i in range(5000):
        s += i * i % 7
    out: dict = {}
    for e1, c1 in _METER_ROWS:
        for e2, c2 in _METER_POLY.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - t


class HostMeter:
    """Takes one meter_work_s() sample at once; then, while active and
    ``ticking``, a SIGALRM handler takes one every METER_PERIOD_S. ``spent``
    adds up the handler's time, so that callers can take it out of the
    clocks it interrupted."""

    def __init__(self, ticking: bool = True):
        self.samples = [meter_work_s()]
        self.spent = 0.0
        self.ticking = ticking

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(meter_work_s())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        if self.ticking:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, METER_PERIOD_S, METER_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def closed_loop(seconds: float, step) -> list:
    """Call ``step(i)`` for i = 0, 1, ... while the next call is expected to
    end less than half a call past the deadline; always at least once."""
    out, times = [], []
    start = time.perf_counter()
    while True:
        s = time.perf_counter()
        out.append(step(len(out)))
        times.append(time.perf_counter() - s)
        expected = statistics.median(times)
        if time.perf_counter() - start + expected / 2 > seconds:
            return out


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"p": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def timing(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples) if samples else None,
        "tail": tail(samples),
        "n": len(samples),
        "samples": samples,
    }


def spawn_to_ready_s(args: list[str]) -> float:
    """Seconds from spawning ``python3 ARGS`` until the monotonic clock
    reading that it prints last."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1]) - spawned


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh set-up probes, each followed by the
    start of a bare interpreter."""
    raw, bare = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(spawn_to_ready_s([str(BENCH / "setup_probe.py"), workload, str(seed)]))
        bare.append(spawn_to_ready_s(BARE_START))
    return raw, bare


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "clustercat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
    }


def item_stats(sweeps: list[Sweep]) -> dict:
    kinds: dict[str, list[float]] = {}
    for sw in sweeps:
        for r in sw.items:
            if r.ok:
                kinds.setdefault(r.kind, []).append(r.seconds)
    return {k: timing(v) for k, v in kinds.items()}


def end_to_end(sweeps: list[Sweep], setup: list[float], setup_bare: list[float]) -> dict:
    solved = [sw.scaled_s for sw in sweeps if sw.ok]
    setup_s = statistics.median(
        s * BARE_START_REFERENCE_S / b for s, b in zip(setup, setup_bare)
    )
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    if solved:
        metrics["solve_s"] = {"value": statistics.median(solved), "unit": "s"}
    return metrics


def per_layer(pairs: list[tuple[Sweep, Sweep]]) -> dict:
    traced = [t for _, t in pairs]
    first = traced[0]
    stats = first.spans
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for path, _ in spans.PROBES:
        put(f"{path}.calls", stats[path].calls, "count")
        put(f"{path}.s", statistics.median(t.spans[path].inclusive_s for t in traced), "s")
    for layer in spans.LAYERS:
        own = [
            sum(st.self_s for p, st in t.spans.items() if p.split(".")[0] == layer)
            for t in traced
        ]
        put(f"{layer}.self_s", statistics.median(own), "s")
        put(f"{layer}.share", statistics.median(o / t.seconds for o, t in zip(own, traced)), "ratio")

    answers = [r.answer for r in first.items]
    mutations = stats["laurent.seed_mutate"].calls
    new_clusters = sum(a.get("new_clusters", 0) for a in answers)
    put("laurent.max_terms", max((a.get("max_terms", 0) for a in answers), default=0), "count")
    put("laurent.new_cluster_ratio", new_clusters / mutations if mutations else 0.0, "ratio")
    mutations = stats["category.mutate_tilting"].calls
    new_tiltings = sum(a.get("new_tiltings", 0) for a in answers)
    put("category.new_tilting_ratio", new_tiltings / mutations if mutations else 0.0, "ratio")
    torsion = stats["tilting.torsion_class"]
    put(
        "tilting.torsion_class.repeat_ratio",
        torsion.repeats / torsion.calls if torsion.calls else 0.0,
        "ratio",
    )
    put("trace.spans", first.span_count, "count")
    put(
        "trace.overhead_ratio",
        statistics.median(t.seconds / u.seconds for u, t in pairs) - 1.0,
        "ratio",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "clustercat" / "__init__.py").is_file():
        print(f"clustercat sources not found under {SRC}", file=sys.stderr)
        return 2

    context = machine()
    setup, setup_bare = setup_samples(args.workload, args.seed) if not args.trace else ([], [])
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tracer = spans.Tracer()
        pairs = closed_loop(
            args.seconds, lambda i: (run_sweep(wl, i), run_sweep(wl, i, tracer))
        )
        sweeps = [sw for pair in pairs for sw in pair]
        untraced = [u for u, _ in pairs]
        metrics = per_layer(pairs)
        missing = tracer.missing
    else:
        sweeps = untraced = closed_loop(args.seconds, lambda i: run_sweep(wl, i))
        metrics = end_to_end(sweeps, setup, setup_bare)
        missing = []

    attempted = sum(len(sw.items) for sw in sweeps)
    failed = sum(not r.ok for sw in sweeps for r in sw.items)
    correct = failed == 0 and (args.trace or "solve_s" in metrics)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": context,
        "sweeps": len(sweeps),
        "fail_ratio": failed / attempted,
        "failures": [
            {"sweep": sw.index, "item": r.name, "error": r.error}
            for sw in sweeps
            for r in sw.items
            if not r.ok
        ][:10],
        "solve_s": timing([sw.scaled_s for sw in untraced if sw.ok]),
        "solve_wall_s": timing([sw.seconds for sw in untraced if sw.ok]),
        "first_sweep_wall_s": untraced[0].seconds,
        "host_meter_s": timing([sw.meter_s for sw in sweeps]),
        "setup_wall_s": timing(setup) if setup else None,
        "setup_bare_start_s": timing(setup_bare) if setup else None,
        "items": item_stats(sweeps),
        "untraced_probes": missing,
    }
    for name, m in sorted(metrics.items()):
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, default=str))
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
