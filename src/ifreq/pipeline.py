"""Batch I/O: cycle ingestion, batch extraction, grid export, synthetic data generation.

Input formats
-------------
* Single-cycle CSV: two numeric columns ``time_s, pressure``, UTF-8 with or
  without a byte-order mark, uniformly sampled, with a JSON sidecar next to it
  (same stem, ``.json`` extension) carrying at least ``{"t0": ...}`` and
  optionally ``t``, ``id``, ``subject``, ``interval``. The sidecar's ``t0``
  and ``t`` are on the CSV's own time axis and are measured from its first
  timestamp: a file whose clock starts at 5.0 s, with the notch 0.36 s in,
  says ``"t0": 5.36``. The first non-blank line is a header, and skipped,
  when neither of its columns is a number.
* Batch JSONL: one JSON object per line with keys ``dt``, ``t0`` (from the
  first sample), ``samples`` and optionally ``id``, ``t``, ``subject``,
  ``interval``.

A record without an ``id``, or with a null one, is named after the file: its
stem for a CSV, ``<stem>:<line>`` for a JSONL line. A declared period ``t``
must match the sampled span to half a sample in either format. ``dt``, ``t0``
and ``t`` are numbers or numeric strings, and JSONL ``samples`` a list of
numbers; a JSON boolean in any of them rejects the record.

Output is line-delimited JSON: one ``{"record": "result", ...}`` object per
extraction, then, in compare mode, a ``{"record": "comparison", ...}`` object,
then a ``{"record": "summary", ...}`` object. Grids are written as a plain text
matrix with a commented header carrying the axes, minimizer, and lattice node
locations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .model import (
    FreqPair,
    HarmonicSeriesSpec,
    InvalidSpecError,
    ModelParams,
    SampledCycle,
    synthesize_appendix_cycle,
    synthesize_cycle,
)
from .objective import (
    DEFAULT_DOMAIN,
    DegenerateFrequencyError,
    Domain,
    enumerate_nodes,
    node_distance,
    reduce_constraints,
)
from .search import (
    COMPARE_THRESHOLD,
    ComparisonReport,
    GridConfig,
    SearchConfig,
    SearchOutcome,
    UnconvergedSearchError,
    brute_force_if,
    compare_cycle,
    comparison_report,
    fast_if,
)

_TIMESTAMP_JITTER_LIMIT = 1e-6


class NoValidRecordsError(ValueError):
    """A batch operation was asked to run with zero valid records."""


@dataclass(frozen=True)
class CycleRecord:
    """One ingested cycle plus its source metadata."""

    id: str
    cycle: SampledCycle
    subject: str | None = None
    interval: str | None = None
    t0_rounding: float = 0.0  # seconds the supplied notch time moved when snapping

    @property
    def sampling_rate(self) -> float:
        return 1.0 / self.cycle.dt


@dataclass(frozen=True)
class Rejection:
    """Why one input record was dropped; the batch continues without it."""

    source: str
    reason: str


@dataclass(frozen=True)
class IngestResult:
    records: tuple[CycleRecord, ...]
    rejected: tuple[Rejection, ...]
    checksum: str


@dataclass(frozen=True)
class ResultRecord:
    """Flat, serialization-friendly view of one extraction outcome."""

    id: str
    algorithm: str
    omega1: float
    omega2: float
    omega1_bpm: float
    omega2_bpm: float
    u1: float
    u2: float
    a1: float
    b1: float
    a2: float
    b2: float
    pbar: float
    objective_value: float
    normalized_objective_value: float
    converged: bool
    evals: int
    wall_ms: float
    lobe: str
    newton_iterations: int
    gradient_norm: float
    starts_joined: int
    gram_condition: float
    t0_rounding: float
    subject: str | None = None
    interval: str | None = None

    def to_json(self) -> dict:
        """The fields by name in declaration order, as ``dataclasses.asdict`` gives them.

        ``__init__`` sets the fields in that order and each is a scalar, so a
        shallow copy of the instance dict is enough.
        """
        return dict(vars(self))

    @classmethod
    def from_json(cls, data: dict) -> "ResultRecord":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})


@dataclass(frozen=True)
class BatchResult:
    results: tuple[ResultRecord, ...]
    failures: tuple[Rejection, ...]
    summary: dict
    report: ComparisonReport | None = None


def result_record(record: CycleRecord, outcome: SearchOutcome) -> ResultRecord:
    """The result of one extraction on ``record``, with the notch snapping it was ingested with."""
    u1, u2 = outcome.dimensionless(record.cycle)
    bpm1, bpm2 = outcome.best.bpm()
    params = outcome.params
    return ResultRecord(
        id=record.id,
        algorithm=outcome.algorithm,
        omega1=outcome.best.omega1,
        omega2=outcome.best.omega2,
        omega1_bpm=bpm1,
        omega2_bpm=bpm2,
        u1=u1,
        u2=u2,
        a1=params.a1,
        b1=params.b1,
        a2=params.a2,
        b2=params.b2,
        pbar=params.pbar,
        objective_value=outcome.objective_value,
        normalized_objective_value=outcome.normalized_objective_value,
        converged=outcome.converged,
        evals=outcome.evals,
        wall_ms=outcome.wall_ms,
        lobe=outcome.lobe,
        newton_iterations=outcome.newton_iterations,
        gradient_norm=outcome.gradient_norm,
        starts_joined=sum(trace.joined is not None for trace in outcome.traces),
        gram_condition=outcome.gram_condition,
        t0_rounding=record.t0_rounding,
        subject=record.subject,
        interval=record.interval,
    )


def _seconds(meta: dict, key: str) -> float:
    """``meta[key]`` as a float; a JSON boolean is refused, not read as 0 or 1 s."""
    if isinstance(meta[key], bool):
        raise TypeError(f"{key} must be a number, got {json.dumps(meta[key])}")
    return float(meta[key])


def _cycle_record(
    meta: dict, samples: np.ndarray, default_id: str, dt: float | None = None, origin: float = 0.0
) -> CycleRecord:
    """The record of one cycle whose metadata ``meta`` is a CSV sidecar or a JSONL line.

    Reads ``id`` (``default_id`` where it is absent or null), ``subject`` and
    ``interval``, each kept as text, the sampling step ``dt`` unless a CSV's
    measured one is given, the notch time ``t0`` and the period ``t``, if
    declared and not null; both times are measured from ``origin``. ``t0``
    must lie in the sampled span and is snapped to the nearest sample, and
    ``t`` must match the span to half a sample. Raises ValueError, TypeError
    or OverflowError (an integer too large for a float).
    """
    dt = _seconds(meta, "dt") if dt is None else dt
    t0 = _seconds(meta, "t0") - origin
    period = None if meta.get("t") is None else _seconds(meta, "t") - origin
    if not (dt > 0.0 and math.isfinite(dt) and math.isfinite(t0 / dt)):
        raise ValueError(f"need a finite dt > 0 and a finite t0, got dt={dt}, t0={t0}")
    span = (samples.size - 1) * dt
    if period is not None and not abs(period - span) <= 0.5 * dt:
        raise ValueError(f"declared period {period:.6g} != sampled span {span:.6g}")
    if not 0.0 <= t0 <= span:
        raise ValueError(f"t0 {t0:.6g} is outside the sampled span [0, {span:.6g}]")
    n = int(round(t0 / dt)) + 1
    m = samples.size - n
    if n < 3 or m < 3:
        raise ValueError(f"segments too short after snapping: n={n}, m={m} (need >= 3)")
    record_id, subject, interval = (
        None if meta.get(key) is None else str(meta[key]) for key in ("id", "subject", "interval")
    )
    return CycleRecord(
        id=default_id if record_id is None else record_id,
        cycle=SampledCycle(samples=samples, dt=dt, n=n, m=m),
        subject=subject,
        interval=interval,
        t0_rounding=(n - 1) * dt - t0,
    )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _csv_record(path: Path, content: bytes) -> CycleRecord:
    """The one cycle of the CSV file ``path`` (its bytes ``content``) and its sidecar.

    Raises ValueError, TypeError or OverflowError, whose text is the reason
    for rejecting the file.
    """
    sidecar = path.with_suffix(".json")
    if not sidecar.exists():
        raise ValueError(f"missing sidecar {sidecar.name}")
    try:
        meta = json.loads(sidecar.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"unreadable sidecar: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError("sidecar is not a JSON object")
    if "t0" not in meta:
        raise ValueError("sidecar lacks t0")

    try:
        text = content.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from exc
    times: list[float] = []
    pressures: list[float] = []
    first = True  # the first non-blank line is the only header candidate
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 2 columns")
        header, first = first, False
        try:
            t_val, p_val = float(parts[0]), float(parts[1])
        except ValueError:
            if header and not any(map(_is_number, parts)):
                continue
            raise ValueError(f"line {lineno}: non-numeric value") from None
        if not (math.isfinite(t_val) and math.isfinite(p_val)):
            raise ValueError(f"line {lineno}: non-finite value")
        times.append(t_val)
        pressures.append(p_val)
    if len(times) < 6:
        raise ValueError(f"only {len(times)} samples")

    t = np.asarray(times)
    diffs = np.diff(t)
    dt = float(np.median(diffs))
    if dt <= 0.0:
        raise ValueError("timestamps are not increasing")
    if float(np.max(np.abs(diffs - dt))) / dt > _TIMESTAMP_JITTER_LIMIT:
        raise ValueError("non-uniform timestamps")
    return _cycle_record(meta, np.asarray(pressures), path.stem, dt=dt, origin=float(t[0]))


def _jsonl_record(line: bytes, default_id: str) -> CycleRecord:
    """The cycle on one JSONL line, decoded as UTF-8.

    Raises ValueError, TypeError or OverflowError, whose text is the reason
    for rejecting the line.
    """
    try:
        data = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    missing = [key for key in ("dt", "t0", "samples") if key not in data]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    samples = data["samples"]
    # no JSON number holds the "u" of true or the "f" of false
    if (b"u" in line or b"f" in line) and type(samples) is list and bool in {*map(type, samples)}:
        raise ValueError("samples must be numbers, got a boolean")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or not np.all(np.isfinite(samples)):
        raise ValueError("samples must be a flat list of finite numbers")
    return _cycle_record(data, samples, default_id)


def ingest(path: str | Path, fmt: str | None = None) -> IngestResult:
    """Read cycles from a CSV (plus sidecar) or JSONL batch file.

    Bad rows or lines reject only the record they belong to, a line that is
    not UTF-8 included, as does a JSONL line whose id an earlier line took;
    everything else is kept. The input is read once, and the returned
    checksum is the SHA-256 of the bytes that were parsed.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    data = path.read_bytes()
    if fmt == "csv":
        reads = [(str(path), partial(_csv_record, path, data))]
    elif fmt == "jsonl":
        reads = [
            (f"{path}:{lineno}", partial(_jsonl_record, line, f"{path.stem}:{lineno}"))
            for lineno, line in enumerate(map(bytes.strip, data.splitlines()), start=1)
            if line
        ]
    else:
        raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'jsonl')")
    records: list[CycleRecord] = []
    rejected: list[Rejection] = []
    seen: set[str] = set()
    for source, read in reads:
        try:
            record = read()
        except (ValueError, TypeError, OverflowError) as exc:
            rejected.append(Rejection(source, str(exc)))
            continue
        if record.id in seen:
            rejected.append(Rejection(source, f"duplicate id {record.id!r}"))
            continue
        seen.add(record.id)
        records.append(record)
    return IngestResult(tuple(records), tuple(rejected), hashlib.sha256(data).hexdigest())


def run_batch(
    records: list[CycleRecord] | tuple[CycleRecord, ...],
    mode: str = "fast",
    search_config: SearchConfig | None = None,
    grid_config: GridConfig | None = None,
    threshold: float = COMPARE_THRESHOLD,
    input_checksum: str | None = None,
    rejected: tuple[Rejection, ...] = (),
) -> BatchResult:
    """Run one extraction mode over a batch; per-record failures never abort the batch.

    ``compare`` runs the grid scan, then the fast search, on each record and
    aggregates their disagreement over the records where both succeeded.
    ``input_checksum`` and the ingest ``rejected`` list describe the input;
    both go into the summary, whose ``rejected`` also lists every run failure.
    """
    if mode not in ("fast", "brute", "compare"):
        raise ValueError(f"mode must be fast, brute, or compare, got {mode!r}")
    if not records:
        raise NoValidRecordsError("no valid records to process")

    results: list[ResultRecord] = []
    failures: list[Rejection] = []
    per_cycle = []
    for index, record in enumerate(records):
        fast = brute = None
        try:
            if mode != "fast":
                brute, _ = brute_force_if(record.cycle, grid_config)
            if mode != "brute":
                fast = fast_if(record.cycle, search_config)
        except UnconvergedSearchError as exc:
            fast = exc.outcome
            failures.append(Rejection(record.id, "no start converged"))
        except Exception as exc:  # isolate per-record failures
            failures.append(Rejection(record.id, f"{type(exc).__name__}: {exc}"))
        else:
            if mode == "compare":
                per_cycle.append(compare_cycle(index, record.cycle, fast, brute))
        results += [result_record(record, o) for o in (fast, brute) if o]
    summary = {
        "mode": mode,
        "cycles": len(records),
        "results": len(results),
        "converged": sum(1 for r in results if r.converged),
        "failures": len(failures),
        "rejected": [dataclasses.asdict(r) for r in (*rejected, *failures)],
        "input_checksum": input_checksum,
        "mean_wall_ms": statistics.fmean([r.wall_ms for r in results]) if results else 0.0,
    }
    report = None
    if mode == "compare":
        report = comparison_report(per_cycle, threshold)
        summary.update(
            mean_abs_domega1=report.mean_abs_domega[0],
            mean_abs_domega2=report.mean_abs_domega[1],
            max_mean_abs_domega=report.max_mean_abs_domega,
            median_wall_ratio=report.median_wall_ratio,
            threshold=report.threshold,
            passed=report.passed,
        )
    return BatchResult(tuple(results), tuple(failures), summary, report)


def write_results(batch: BatchResult, path: str | Path) -> None:
    """Write results as line-delimited JSON ending with the summary; ``-`` is standard output.

    In compare mode a ``comparison`` record, the summary without its ``mode``,
    comes before the summary.
    """
    rows = [{"record": "result", **record.to_json()} for record in batch.results]
    if batch.report is not None:
        comparison = {k: v for k, v in batch.summary.items() if k != "mode"}
        rows.append({"record": "comparison", **comparison})
    rows.append({"record": "summary", **batch.summary})
    text = "".join(json.dumps(row) + "\n" for row in rows)
    if str(path) == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def read_results(path: str | Path) -> list[ResultRecord]:
    """Read back the result records from a line-delimited output file."""
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        if data.get("record") == "result":
            out.append(ResultRecord.from_json(data))
    return out


def export_grid(
    cycle: SampledCycle, grid_config: GridConfig | None = None, path: str | Path = "grid.txt"
) -> SearchOutcome:
    """Scan the objective over a grid and write the dense matrix for plotting.

    The text file has commented header lines with both axes (dimensionless and
    rad/s), the minimizer, and the lattice nodes inside the scan window,
    followed by the matrix itself, one u1 row per line, u2 across the columns.
    Returns the grid-argmin outcome.
    """
    grid_config = grid_config or GridConfig()
    outcome, objective_grid = brute_force_if(cycle, grid_config)
    u1, u2 = objective_grid.u1, objective_grid.u2
    if u1.size > 1 and u2.size > 1:
        window = Domain(float(u1[0]), float(u1[-1]), float(u2[0]), float(u2[-1]))
        nodes = enumerate_nodes(cycle.T0, cycle.T, window)
    else:
        nodes = []
    best_u1, best_u2 = outcome.dimensionless(cycle)
    lines = [
        "# objective grid: rows are u1 values, columns are u2 values",
        "# u1: " + " ".join(f"{v:.17g}" for v in u1),
        "# u2: " + " ".join(f"{v:.17g}" for v in u2),
        "# omega1_rad_s: " + " ".join(f"{v:.17g}" for v in objective_grid.omega1),
        "# omega2_rad_s: " + " ".join(f"{v:.17g}" for v in objective_grid.omega2),
        f"# minimizer: u1={best_u1:.17g} u2={best_u2:.17g} "
        f"objective={outcome.objective_value:.17g}",
        "# nodes: " + " ".join(f"({node.u1},{node.u2})" for node in nodes),
        f"# node_tube_cells: {int(objective_grid.node_tube.sum())}",
    ]
    for i in range(u1.size):
        lines.append(" ".join(f"{v:.17g}" for v in objective_grid.values[i]))
    Path(path).write_text("\n".join(lines) + "\n")
    return outcome


def _unit_envelopes(
    rng: np.random.Generator,
    freqs: FreqPair,
    T0: float,
    T: float,
    min_segment_amplitude: float,
) -> tuple[float, float, float, float] | None:
    """One random envelope direction scaled to max coefficient 1; None at a node or if lopsided."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    b1, b2 = math.cos(phase), math.sin(phase)
    try:
        a1, a2 = reduce_constraints(freqs, b1, b2, T0, T)
    except DegenerateFrequencyError:
        return None
    scale = max(abs(a1), abs(b1), abs(a2), abs(b2))
    a1, b1, a2, b2 = a1 / scale, b1 / scale, a2 / scale, b2 / scale
    if min(math.hypot(a1, b1), math.hypot(a2, b2)) < min_segment_amplitude:
        return None
    return a1, b1, a2, b2


def sample_params(
    rng: np.random.Generator,
    T0: float,
    T: float,
    domain: Domain = DEFAULT_DOMAIN,
    min_node_distance: float = 0.05,
    pbar_range: tuple[float, float] = (80.0, 120.0),
    amplitude_range: tuple[float, float] = (15.0, 30.0),
    min_segment_amplitude: float = 0.3,
) -> ModelParams:
    """Draw a constraint-satisfying parameter set with frequencies inside ``domain``.

    Frequencies are uniform over the domain (redrawn within
    ``min_node_distance`` of a lattice node) and the envelope direction is
    uniform; directions that leave either segment's oscillation below
    ``min_segment_amplitude`` of the peak coefficient are redrawn.

    Raises InfeasibleDomainError when no acceptable draw turns up (see
    :meth:`ifreq.objective.Domain.draw`).
    """

    def accept(u1: float, u2: float) -> tuple[FreqPair, tuple[float, ...]] | None:
        if node_distance(u1, u2) < min_node_distance:
            return None
        freqs = FreqPair.from_dimensionless(u1, u2, T0, T)
        envelopes = _unit_envelopes(rng, freqs, T0, T, min_segment_amplitude)
        return None if envelopes is None else (freqs, envelopes)

    freqs, (a1, b1, a2, b2) = domain.draw(rng, accept)
    amplitude = rng.uniform(*amplitude_range)
    pbar = rng.uniform(*pbar_range)
    return ModelParams(
        a1=a1 * amplitude,
        b1=b1 * amplitude,
        a2=a2 * amplitude,
        b2=b2 * amplitude,
        pbar=pbar,
        omega1=freqs.omega1,
        omega2=freqs.omega2,
    )


_GENERATOR_DEFAULTS = {
    "kind": "model",
    "t0": 0.36,
    "t": 1.0,
    "dt": 0.002,
    "pbar": [80.0, 120.0],
    "amplitude": [15.0, 30.0],
    "u1_range": [0.55, 1.45],
    "u2_range": [0.55, 2.95],
    "min_node_distance": 0.05,
    "min_segment_amplitude": 0.3,
    "noise_sigma": 0.0,
    "relative_noise": 0.0,
    "harmonics": [1.0, 0.2, 0.05],
    "damping_ratio": 0.0,
}


def _as_range(value) -> tuple[float, float]:
    if isinstance(value, (int, float)):
        return float(value), float(value)
    lo, hi = float(value[0]), float(value[1])
    if hi < lo:
        raise InvalidSpecError(f"range [{lo}, {hi}] is reversed")
    return lo, hi


def generate(
    spec: dict | str | Path,
    count: int,
    seed: int | None,
    path: str | Path,
) -> tuple[Path, Path]:
    """Write a deterministic synthetic batch (JSONL) plus a ground-truth sidecar.

    ``spec`` is a generator description (dict, or path to a JSON file); unknown
    keys are rejected. Returns (batch_path, truth_path).
    """
    if isinstance(spec, (str, Path)):
        spec = json.loads(Path(spec).read_text())
    if count < 1:
        raise InvalidSpecError(f"count must be >= 1, got {count}")
    unknown = set(spec) - set(_GENERATOR_DEFAULTS)
    if unknown:
        raise InvalidSpecError(f"unknown generator keys: {sorted(unknown)}")
    merged = {**_GENERATOR_DEFAULTS, **spec}
    kind = merged["kind"]
    if kind not in ("model", "appendix"):
        raise InvalidSpecError(f"kind must be 'model' or 'appendix', got {kind!r}")
    t0, t_period, dt = float(merged["t0"]), float(merged["t"]), float(merged["dt"])
    u1_range = _as_range(merged["u1_range"])
    u2_range = _as_range(merged["u2_range"])
    domain = Domain(u1_range[0], u1_range[1], u2_range[0], u2_range[1])
    noise_sigma = float(merged["noise_sigma"])
    relative_noise = float(merged["relative_noise"])
    if noise_sigma < 0.0 or relative_noise < 0.0:
        raise InvalidSpecError("noise settings must be >= 0")

    rng = np.random.default_rng(seed)
    path = Path(path)
    truth_path = path.with_name(path.name + ".truth.json")
    lines = []
    truths = []
    for index in range(count):
        record_id = f"cyc{index:05d}"
        if kind == "model":
            params = sample_params(
                rng,
                t0,
                t_period,
                domain=domain,
                min_node_distance=float(merged["min_node_distance"]),
                pbar_range=_as_range(merged["pbar"]),
                amplitude_range=_as_range(merged["amplitude"]),
                min_segment_amplitude=float(merged["min_segment_amplitude"]),
            )
            freqs = params.freqs
            clean = synthesize_cycle(params, t0, t_period, dt, noise_sigma=0.0)
            detail = {"params": dataclasses.asdict(params)}
        else:
            series, freqs = _sample_appendix_spec(rng, merged, domain, t0, t_period)
            clean = synthesize_appendix_cycle(series, t0, t_period, dt)
            detail = {"damping_ratio": series.damping_ratio}
        sigma = noise_sigma
        if relative_noise > 0.0:
            sigma += relative_noise * float(np.ptp(clean.samples))
        samples = clean.samples
        if sigma > 0.0:
            samples = samples + rng.normal(0.0, sigma, size=samples.size)
        u1, u2 = freqs.dimensionless(clean.T0, clean.T)
        truths.append(
            {
                "id": record_id,
                "omega1": freqs.omega1,
                "omega2": freqs.omega2,
                "u1": u1,
                "u2": u2,
                **detail,
                "noise_sigma": sigma,
            }
        )
        lines.append(
            json.dumps(
                {
                    "id": record_id,
                    "dt": clean.dt,
                    "t0": clean.T0,
                    "t": clean.T,
                    "samples": samples.tolist(),
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    truth_path.write_text(
        json.dumps({"seed": seed, "kind": kind, "count": count, "cycles": truths}, indent=1)
        + "\n"
    )
    return path, truth_path


def _sample_appendix_spec(
    rng: np.random.Generator,
    merged: dict,
    domain: Domain,
    t0: float,
    t_period: float,
) -> tuple[HarmonicSeriesSpec, FreqPair]:
    """Multi-harmonic series with dominant frequencies drawn from the domain."""
    harmonics = [float(h) for h in merged["harmonics"]]
    if not harmonics or harmonics[0] <= 0.0:
        raise InvalidSpecError("harmonics must start with a positive fundamental weight")
    min_distance = float(merged["min_node_distance"])
    u1, u2 = domain.draw(
        rng, lambda u1, u2: (u1, u2) if node_distance(u1, u2) >= min_distance else None
    )
    freqs = FreqPair.from_dimensionless(u1, u2, t0, t_period)
    amplitude = rng.uniform(*_as_range(merged["amplitude"]))
    pbar = rng.uniform(*_as_range(merged["pbar"]))

    def terms(base: float) -> tuple[tuple[float, float, float], ...]:
        out = []
        for k, weight in enumerate(harmonics, start=1):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            mag = amplitude * weight
            out.append((mag * math.sin(phase), mag * math.cos(phase), k * base))
        return tuple(out)

    series = HarmonicSeriesSpec(
        pbar=pbar,
        damping_ratio=float(merged["damping_ratio"]),
        systolic_terms=terms(freqs.omega1),
        diastolic_terms=terms(freqs.omega2),
    )
    return series, freqs
