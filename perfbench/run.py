"""ifreq benchmark: end-to-end and per-layer figures for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload extract --seed 60451 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``extract`` (CLI batch
extraction), ``compare`` (CLI fast-vs-grid comparison) and ``recover`` (library
``fast_if`` on noiseless cycles). The program is imported from ``src/`` next to
this directory; the run fails if it is not there.

A run generates its inputs from ``--seed``, sets up (import, input generation,
one warm-up call), then repeats passes over the inputs until ``--seconds`` have
passed; the first pass always completes and covers every input. With
``--trace 0`` nothing is patched and the last line carries the end-to-end
metrics. With ``--trace 1`` the passes alternate traced and untraced (the
first one traced), the kernel is timed per call, and the last line carries the
per-layer metrics; the traced/untraced difference is the tracing overhead.

End-to-end times are scaled by the machine's speed (see :class:`Pace`), since
on a shared host the wall-clock throughput of the same run drifts by 20-50%
from one minute to the next: ``setup_s`` is the import, input generation and
warm-up (median of the repeats) and ``cycle_ms_p50`` is the median over the
inputs of the time per cycle, each operation's time being its median over the
passes divided by its cycles. A median, not a mean, because the cost of a
``recover`` cycle is heavy-tailed (its 90th percentile is twice its median):
in the search's evaluation counts, the quartiles over ten seeds of the mean of
200 cycles lie about 7% apart, those of the median about 3%.
The mean-based ``cycles_per_s``, the time-per-cycle percentiles and the
unscaled wall-clock figures are in the report.

Before the last line, one ``{"report": ...}`` line gives the environment, the
input SHA-256, operation timings (median, the highest percentile with at least
ten samples beyond it, sample count), the quality figures, every named check
and, when traced, each span's self time. The same report, and the spans of a
traced run, are written under ``.perfbench_out/``. The last line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

# one BLAS thread: set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Wall times are scaled to a machine on which one reference step takes this
# long; an Intel Xeon vCPU at 2.0 GHz took 40-130 µs as its host's load varied.
NOMINAL_STEP_S = 50e-6
# The machine's speed is sampled on average this often, each sample this many
# steps long.
SAMPLE_EVERY_S = 0.05
SAMPLE_STEPS = 12


def _import_program() -> float:
    """Import ifreq from ``src/``; return the seconds it took."""
    if not (SRC / "ifreq" / "__init__.py").is_file():
        raise SystemExit(f"error: no ifreq package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    begin = time.perf_counter()
    import ifreq

    elapsed = time.perf_counter() - begin
    if Path(ifreq.__file__).resolve().parent != SRC / "ifreq":
        raise SystemExit(f"error: imported ifreq from {ifreq.__file__}, not from {SRC}")
    return elapsed


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _timing(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    import numpy

    out = {"n": len(values), "p50": statistics.median(values) if values else None}
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            out[f"p{pct:g}"] = float(numpy.percentile(values, pct))
            break
    else:
        out["max"] = max(values, default=None)
    return out


def _reference_step_seconds(steps: int) -> float:
    """Seconds per step of a fixed computation shaped like one objective evaluation.

    It uses numpy the way the kernel does (trig over ~500 samples, dot
    products, a 3x3 condition estimate and solve) but none of ifreq's code,
    so no change to the program changes it: it measures how fast the machine
    is running right now.
    """
    import numpy

    t1 = 0.002 * numpy.arange(181)
    t2 = 0.002 * numpy.arange(1, 321)
    f = numpy.cos(7.0 * numpy.concatenate([t1, t2]))
    begin = time.perf_counter()
    for k in range(steps):
        w1, w2 = 8.0 + 1e-6 * k, 6.0 - 1e-6 * k
        c1, s1, c2, s2 = numpy.cos(w1 * t1), numpy.sin(w1 * t1), numpy.cos(w2 * t2), numpy.sin(w2 * t2)
        v1 = numpy.concatenate([0.3 * c1 + s1, 0.2 * c2])
        v2 = numpy.concatenate([0.1 * c1, 0.4 * c2 + s2])
        gram = numpy.array([[v1 @ v1, v1 @ v2, v1.sum()],
                            [v1 @ v2, v2 @ v2, v2.sum()],
                            [v1.sum(), v2.sum(), float(f.size)]])
        numpy.linalg.cond(gram)
        x = numpy.linalg.solve(gram, numpy.array([v1 @ f, v2 @ f, f.sum()]))
        residual = x[0] * v1 + x[1] * v2 + x[2] - f
        float(residual @ residual)
    return (time.perf_counter() - begin) / steps


class Pace:
    """Samples the machine's speed throughout a run and scales wall times by it.

    The host's speed drifts by tens of percent over seconds to minutes as
    other tenants load it. While started, a timer signal runs
    ``SAMPLE_STEPS`` reference steps at random intervals averaging
    ``SAMPLE_EVERY_S`` seconds, in the main thread between bytecodes, so no
    thread or process is added. The intervals are random so that the samples
    do not keep in step with a periodic load of another tenant. The scaled
    time of an interval is its wall time minus the sampling inside it, times
    ``NOMINAL_STEP_S`` over the mean step time of the samples taken inside it
    (or of the three nearest, when it holds fewer).
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (begin, end, step seconds)
        self.running = False
        self._delays = random.Random(0)

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        step = _reference_step_seconds(SAMPLE_STEPS)
        self.samples.append((begin, time.perf_counter(), step))
        if self.running:
            delay = self._delays.uniform(0.5 * SAMPLE_EVERY_S, 1.5 * SAMPLE_EVERY_S)
            signal.setitimer(signal.ITIMER_REAL, delay)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self.running = True
        self._sample(None, None)

    def stop(self) -> None:
        # the handler stays installed, so a signal already raised is still handled
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def _inside(self, start: float, end: float) -> list[tuple[float, float, float]]:
        first = bisect.bisect_left(self.samples, (start,))  # samples are in time order
        last = bisect.bisect_right(self.samples, (end,), lo=first)
        return [s for s in self.samples[first:last] if s[1] <= end]

    def busy(self, start: float, end: float) -> float:
        """Seconds of sampling inside [start, end]."""
        return sum(e - b for b, e, _ in self._inside(start, end))

    def step(self, start: float, end: float) -> float:
        window = self._inside(start, end)
        if len(window) < 3:
            middle = (start + end) / 2
            window = sorted(self.samples, key=lambda s: abs((s[0] + s[1]) / 2 - middle))[:3]
        return statistics.fmean(s[2] for s in window)

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of [start, end], sampling excluded."""
        return end - start - self.busy(start, end)

    def scaled(self, start: float, end: float) -> float:
        return self.wall(start, end) * NOMINAL_STEP_S / self.step(start, end)


def _run_passes(workload, seconds: float, tracer, trace: bool):
    """Repeat passes until ``seconds`` have passed; return (results, op records)."""
    from workloads import OpResult

    results, ops = [], []
    begin = time.perf_counter()
    pass_index = 0
    while True:
        traced = trace and pass_index % 2 == 0
        if traced:
            tracer.enable()
        else:
            tracer.disable()
        tracer.pass_index = pass_index
        for k in range(workload.ops_per_pass):
            cycles = len(workload.op_cases(k))
            error = None
            with tracer.span("op", index=k):
                start = time.perf_counter()
                try:
                    returned = workload.call(k)
                except Exception as exc:  # a crashing batch counts as failed, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
            result = workload.collect(k, returned) if error is None else OpResult(
                cycles, cycles, error=error)
            results.append(result)
            ops.append({"pass": pass_index, "index": k, "traced": traced, "cycles": cycles,
                        "start": start, "end": end, "error": result.error})
            first_done = pass_index > 0 or k == workload.ops_per_pass - 1
            untraced_done = not trace or pass_index > 0
            if first_done and untraced_done and time.perf_counter() - begin >= seconds:
                tracer.disable()
                return results, ops
        pass_index += 1


def _by_index(ops: list[dict], key: str) -> dict[int, float]:
    """Median of ``key`` over the passes, for each operation index."""
    groups: dict[int, list[float]] = {}
    for op in ops:
        groups.setdefault(op["index"], []).append(op[key])
    return {k: statistics.median(v) for k, v in groups.items()}


def _cycles_per_s(ops: list[dict], key: str = "norm_s") -> float | None:
    """Cycles of one pass over the sum of each operation's median time."""
    if not ops:
        return None
    cycles = {op["index"]: op["cycles"] for op in ops}
    medians = _by_index(ops, key)
    return sum(cycles.values()) / sum(medians.values())


def _cycle_seconds(ops: list[dict], key: str = "norm_s") -> list[float]:
    """Seconds per cycle of each operation: its median over the passes over its cycles."""
    cycles = {op["index"]: op["cycles"] for op in ops}
    return [seconds / cycles[k] for k, seconds in sorted(_by_index(ops, key).items())]


def _overhead(ops: list[dict]) -> float:
    """Traced over untraced normalized time of the same operations, minus one."""
    traced = _by_index([op for op in ops if op["traced"]], "norm_s")
    untraced = _by_index([op for op in ops if not op["traced"]], "norm_s")
    both = traced.keys() & untraced.keys()
    if not both:
        return 0.0
    return sum(traced[k] for k in both) / sum(untraced[k] for k in both) - 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["extract", "compare", "recover"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 60451 for noisy, 123500 for clean cycles)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--cycles", type=int, default=None,
                        help="input cycles (default: the workload's benchmark size)")
    args = parser.parse_args(argv)

    import_s = _import_program()
    import tracing
    import workloads

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    count = args.cycles or workloads.DEFAULT_CYCLES[args.workload]
    trace = bool(args.trace)
    name = f"{args.workload}-seed{seed}-trace{args.trace}"
    workdir = OUT / f"{name}-{os.getpid()}"
    tracer = tracing.Tracer(run_id=name)
    workload = workloads.WORKLOADS[args.workload](seed, count, workdir, tracer)

    pace = Pace()
    try:
        if trace:
            tracer.enable()
        pace.start()
        setup_intervals = []
        for _ in range(1 if trace else SETUP_REPEATS):
            begin = time.perf_counter()
            workload.setup()
            setup_intervals.append((begin, time.perf_counter()))
        pace.stop()  # the kernel is timed per call without interruptions
        kernel = tracing.kernel_timings(workload.cases, seed, tracer) if trace else {}
        tracer.disable()
        pace.start()
        results, ops = _run_passes(workload, args.seconds, tracer, trace)
        pace.stop()
        ingest_sums = {}
        for path in workload.input_files():
            ingest_sums[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        pace.stop()
        tracer.disable()
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops:
        op["seconds"] = pace.wall(op["start"], op["end"])
        op["step_s"] = pace.step(op["start"], op["end"])
        op["norm_s"] = pace.scaled(op["start"], op["end"])
    setup_wall = [pace.wall(*interval) for interval in setup_intervals]
    setup_norm = [pace.scaled(*interval) for interval in setup_intervals]
    # the import ran before numpy was loaded: scale it by the set-up's samples
    import_norm = import_s * NOMINAL_STEP_S / pace.step(setup_intervals[0][0],
                                                        setup_intervals[-1][1])

    quality, checks = workloads.evaluate(workload, results)
    if trace and ingest_sums:
        reported = {s["checksum"] for s in tracer.spans
                    if s["name"] == "pipeline.ingest" and s["pass"] >= 0}
        checks.append({
            "name": "inputs.ingest_checksum",
            "passed": reported == set(ingest_sums.values()),
            "gating": True,
            "detail": f"ingest reported {len(reported)} checksums for {len(ingest_sums)} "
                      "input files; they must be the files' SHA-256",
        })

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    breakdown = None
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    if trace:
        values, breakdown = tracing.layer_metrics(tracer.spans, kernel, pace.busy)
        values["search.grid_fast_ratio"] = quality.get("grid_fast_ratio", {}).get("value", 0.0)
        values["trace.overhead_frac"] = _overhead(ops)
        section = "per_layer"
    else:
        values = {
            "setup_s": import_norm + statistics.median(setup_norm),
            "cycle_ms_p50": 1000.0 * statistics.median(_cycle_seconds(untraced)),
        }
        section = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    report = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "inputs": {"cycles": count, "sha256": workload.input_sha256, "files": ingest_sums},
        "setup": {"import_s": import_s, "wall_s": setup_wall, "norm_s": setup_norm},
        "operations": {
            "cycles_per_op": [len(workload.op_cases(k)) for k in range(workload.ops_per_pass)],
            "reference_step_s": _timing([op["step_s"] for op in ops]),
            "untraced_wall_s": _timing([op["seconds"] for op in untraced]),
            "untraced_norm_s": _timing([op["norm_s"] for op in untraced]),
            "untraced_wall_cycles_per_s": _cycles_per_s(untraced, "seconds"),
            "untraced_cycles_per_s": _cycles_per_s(untraced),
            "untraced_cycle_ms": _timing([1000.0 * v for v in _cycle_seconds(untraced)]),
            "untraced_wall_cycle_ms": _timing(
                [1000.0 * v for v in _cycle_seconds(untraced, "seconds")]),
            "traced_wall_s": _timing([op["seconds"] for op in traced]),
            "traced_norm_s": _timing([op["norm_s"] for op in traced]),
            "traced_wall_cycles_per_s": _cycles_per_s(traced, "seconds"),
            "traced_cycles_per_s": _cycles_per_s(traced),
            "errors": sorted({op["error"] for op in ops if op["error"]}),
            "each": [{k: op[k] for k in ("pass", "index", "traced", "cycles", "seconds", "step_s")}
                     for op in ops],
        },
        "quality": quality,
        "checks": checks,
        "self_time": breakdown,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if trace:
        tracer.write(OUT / f"{name}.spans.jsonl")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": all(c["passed"] for c in checks if c["gating"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
