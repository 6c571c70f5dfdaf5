"""Spans around calls into each ifreq layer, and the per-layer figures they give.

A traced pass swaps the layer functions the program looks up at run time
(``ifreq.cli.ingest``, ``ifreq.pipeline.fast_if``, ...) for wrappers that record
a span around each call: name, start, end, parent span and run id, plus counts
where the work happens (evaluations and starts of a search, grid points and
+inf points of a scan, bytes and rejections of an ingest). Spans stay in memory
and are written out when the run ends. Nothing is patched while tracing is off.

The kernel (``objective_p``, ``build_basis``, ``solve_inner``) is called
hundreds of thousands of times per run, so it is not wrapped: it is timed per
call on a fixed set of general-case points instead.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from ifreq import FreqPair, UnconvergedSearchError, cli, model, objective, pipeline, search


class Tracer:
    """In-memory span recorder; ``span`` costs nothing while it is disabled."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.enabled = False
        self.pass_index = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield {}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "pass": self.pass_index,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def enable(self) -> None:
        if self.enabled:
            return
        self.enabled = True
        for owner, attr, name, annotate in _patch_points():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, annotate))

    def disable(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.enabled = False

    def _wrap(self, name, fn, annotate):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                except UnconvergedSearchError as exc:
                    annotate(record, args, exc.outcome)
                    raise
                annotate(record, args, result)
                return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _no_counts(record, args, result) -> None:
    pass


def _search_counts(record, args, outcome) -> None:
    record["evals"] = outcome.evals
    record["starts"] = len(outcome.traces)
    record["starts_converged"] = sum(trace.converged for trace in outcome.traces)
    record["converged"] = outcome.converged


def _grid_counts(record, args, result) -> None:
    outcome, grid = result
    record["evals"] = outcome.evals
    record["inf_points"] = int(np.isinf(grid.values).sum())


def _ingest_counts(record, args, ingested) -> None:
    record["bytes"] = os.path.getsize(args[0])
    record["records"] = len(ingested.records)
    record["rejected"] = len(ingested.rejected)
    record["checksum"] = ingested.checksum


def _patch_points():
    """(module, attribute, span name, count recorder) for every traced call site."""
    return [
        (cli, "ingest", "pipeline.ingest", _ingest_counts),
        (cli, "run_batch", "pipeline.run_batch", _no_counts),
        (cli, "write_results", "pipeline.write_results", _no_counts),
        (pipeline, "fast_if", "search.fast_if", _search_counts),
        (pipeline, "brute_force_if", "search.brute_force_if", _grid_counts),
        (search, "fast_if", "search.fast_if", _search_counts),
        (search, "brute_force_if", "search.brute_force_if", _grid_counts),
        (model, "synthesize_cycle", "model.synthesize_cycle", _no_counts),
    ]


def kernel_timings(cases, seed: int, tracer: Tracer, points_per_cycle: int = 16,
                   rounds: int = 7, calls_per_round: int = 400) -> dict[str, float]:
    """Median µs per call of the three kernel functions on fixed general-case points.

    The points are drawn from ``seed`` on the workload's first four cycles, at
    least 0.05 from every lattice node so every call takes the general path.
    """
    rng = np.random.default_rng([seed, 1])
    probes = []
    for case in cases[:4]:
        cycle = case.cycle
        drawn = 0
        while drawn < points_per_cycle:
            u1, u2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0)
            if objective.node_distance(u1, u2) >= 0.05:
                probes.append((FreqPair.from_dimensionless(u1, u2, cycle.T0, cycle.T), cycle))
                drawn += 1
    functions = {
        "objective.p_us": objective.objective_p,
        "objective.build_basis_us": objective.build_basis,
        "objective.solve_inner_us": objective.solve_inner,
    }
    per_call: dict[str, list[float]] = {metric: [] for metric in functions}
    with tracer.span("objective.kernel_timings", calls=rounds * calls_per_round * len(functions)):
        for _ in range(rounds):  # functions interleaved, so they share the machine's pace
            for metric, fn in functions.items():
                begin = time.perf_counter()
                for i in range(calls_per_round):
                    freqs, cycle = probes[i % len(probes)]
                    fn(freqs, cycle)
                per_call[metric].append((time.perf_counter() - begin) / calls_per_round * 1e6)
    return {metric: float(np.median(values)) for metric, values in per_call.items()}


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def layer_metrics(spans: list[dict], kernel: dict[str, float], busy) -> tuple[dict, dict]:
    """Per-layer figures from the spans of the traced operations.

    ``busy(start, end)`` gives the seconds the benchmark's own speed sampling
    took inside an interval; span durations exclude it.

    Returns the metrics and the self-time breakdown: for each span name, its
    self time summed over the traced operations and its share of their wall
    time; the shares add up to 1, and ``op`` is the benchmark's own part.
    Medians are over calls. Exact counts come from the first pass, which
    covers every input once. A layer the workload does not run reports 0.
    """
    durations = {s["id"]: (s["end"] - s["start"] - busy(s["start"], s["end"])) * 1000.0
                 for s in spans}

    def _ms(span: dict) -> float:
        return durations[span["id"]]

    def _self_ms(span: dict) -> float:
        return _ms(span) - sum(_ms(c) for c in children.get(span["id"], []))

    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    in_ops = [s for s in spans if root(s)["name"] == "op"]

    def named(name, first_pass=False):
        return [s for s in in_ops if s["name"] == name and (not first_pass or s["pass"] == 0)]

    fast, fast_first = named("search.fast_if"), named("search.fast_if", first_pass=True)
    grid, grid_first = named("search.brute_force_if"), named("search.brute_force_if", True)
    ingest = named("pipeline.ingest")
    fast_ms = [_ms(s) for s in fast]
    fast_evals = sum(s["evals"] for s in fast if "evals" in s)
    grid_ms = [_ms(s) for s in grid]
    grid_points = sum(s["evals"] for s in grid if "evals" in s)

    def mean_count(group, key):
        return sum(s.get(key, 0) for s in group) / len(group) if group else 0.0

    metrics = {
        **kernel,
        "search.fast_ms_p50": _median(fast_ms),
        "search.fast_ms_p90": float(np.percentile(fast_ms, 90)) if fast_ms else 0.0,
        "search.fast_samples": len(fast_ms),
        "search.fast_evals_per_cycle": mean_count(fast_first, "evals"),
        "search.fast_overhead_us_per_eval": (
            sum(fast_ms) * 1000.0 / fast_evals - kernel["objective.p_us"] if fast_evals else 0.0
        ),
        "search.starts_converged_frac": (
            mean_count(fast_first, "starts_converged") / mean_count(fast_first, "starts")
            if fast_first else 0.0
        ),
        "search.grid_ms_p50": _median(grid_ms),
        "search.grid_ms_max": max(grid_ms, default=0.0),
        "search.grid_samples": len(grid_ms),
        "search.grid_us_per_point": sum(grid_ms) * 1000.0 / grid_points if grid_points else 0.0,
        "search.grid_points_per_cycle": mean_count(grid_first, "evals"),
        "search.grid_inf_points": mean_count(grid_first, "inf_points"),
        "pipeline.ingest_ms": _median(_ms(s) for s in ingest),
        "pipeline.ingest_mb_per_s": _median(s["bytes"] / _ms(s) / 1000.0 for s in ingest),
        "pipeline.batch_ms": _median(_ms(s) for s in named("pipeline.run_batch")),
        "pipeline.write_ms": _median(_ms(s) for s in named("pipeline.write_results")),
        "pipeline.rejected": sum(s.get("rejected", 0) for s in ingest if s["pass"] == 0),
        "cli.self_ms": _median(_self_ms(s) for s in named("cli.main")),
        "model.synthesize_ms": sum(_ms(s) for s in spans if s["name"] == "model.synthesize_cycle"),
    }
    op_ms = sum(_ms(s) for s in named("op"))
    breakdown: dict[str, dict] = {}
    for s in in_ops:
        entry = breakdown.setdefault(s["name"], {"self_ms": 0.0, "calls": 0})
        entry["self_ms"] += _self_ms(s)
        entry["calls"] += 1
    for entry in breakdown.values():
        entry["share"] = entry["self_ms"] / op_ms if op_ms else 0.0
    metrics["trace.accounted_frac"] = 1.0 - breakdown.get("op", {}).get("share", 1.0)
    return {k: (v if math.isfinite(v) else 0.0) for k, v in metrics.items()}, breakdown
