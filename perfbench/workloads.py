"""Inputs, operations and correctness checks of the three benchmark workloads.

``extract``
    JSONL batches of 50 noisy cycles through ``ifreq extract --mode fast`` with
    the CLI's two default lobe guesses, written to a file. The production batch
    path, and the only workload that runs ingest, ``run_batch``,
    ``write_results`` and the CLI glue. The kernel is called at scattered
    compass probes.
``compare``
    Noisy cycles, one per ``ifreq compare`` call, with the acceptance suite's
    four guesses and the default 0.02*pi rad/s grid. More than 98% of kernel
    calls come from the grid scan's row-major sweep, the access pattern that
    per-axis caches favour, so a kernel change that helps one search and hurts
    the other shows here. Criteria 2 and 3 are read here.
``recover``
    Noiseless cycles through library ``fast_if`` calls with the criterion-1
    configuration (two lobe guesses plus eight seeded random starts). No I/O
    and no grid scan; the plain random envelopes contain the diagonal valleys
    in which compass search stalls, so a search change shows here.

Inputs are drawn from the seed alone and never touch the objective: frequencies
uniform over the default window at least 0.05 from every lattice node, one
random envelope direction per cycle through ``reduce_constraints``, synthesis
with ``synthesize_cycle``. There is no skew selection (``sample_params`` /
``valley_skew``), so a kernel change cannot change the inputs and the stalls it
would hide stay in the data.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ifreq import cli, model, search
from ifreq import (
    DEFAULT_DOMAIN,
    FreqPair,
    ModelParams,
    SampledCycle,
    SearchConfig,
    UnconvergedSearchError,
    constraint_residuals,
    evaluate_model,
    node_distance,
    reduce_constraints,
)

T0, T, DT = 0.36, 1.0, 0.002
PBAR_RANGE = (1800.0, 2600.0)
AMPLITUDE_RANGE = (12.0, 24.0)
MIN_NODE_DISTANCE = 0.05
# Same floor as the library generator: both segments keep at least 0.3 of the
# peak coefficient, so each frequency stays identifiable from the data.
MIN_SEGMENT_AMPLITUDE = 0.3
NOISE_FRACTION = 0.01  # of peak-to-peak

RECOVERY_CONFIG = SearchConfig(random_guesses=8, seed=2024)
COMPARE_GUESSES = ("1,2", "1,0.9", "0.6,2.4", "1.4,2.4")
# Warm-up only: a coarse grid runs the compare path end to end in ~50 ms.
WARMUP_MESH = "0.5"
WARMUP_SEED = 0

# criterion 1 bounds, criterion 2 threshold, criterion 3 gate
RECOVERY_DU = 0.002
RECOVERY_ENERGY = 1e-10
DOMEGA_THRESHOLD = 0.0475
GRID_FAST_RATIO_MIN = 50.0

DEFAULT_SEEDS = {"extract": 60451, "compare": 60451, "recover": 123500}
DEFAULT_CYCLES = {"extract": 1200, "compare": 3, "recover": 200}


@dataclass(frozen=True)
class Case:
    """One generated cycle and the frequencies it was synthesized at."""

    id: str
    cycle: SampledCycle
    truth: tuple[float, float]  # dimensionless (u1, u2)

    def jsonl(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "dt": self.cycle.dt,
                "t0": self.cycle.T0,
                "t": self.cycle.T,
                "samples": self.cycle.samples.tolist(),
            }
        )


def _draw_params(rng: np.random.Generator) -> ModelParams:
    domain = DEFAULT_DOMAIN
    while True:
        u1 = rng.uniform(domain.u1_min, domain.u1_max)
        u2 = rng.uniform(domain.u2_min, domain.u2_max)
        if node_distance(u1, u2) < MIN_NODE_DISTANCE:
            continue
        freqs = FreqPair.from_dimensionless(u1, u2, T0, T)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        b1, b2 = math.cos(phase), math.sin(phase)
        a1, a2 = reduce_constraints(freqs, b1, b2, T0, T)
        scale = max(abs(a1), abs(b1), abs(a2), abs(b2))
        a1, b1, a2, b2 = a1 / scale, b1 / scale, a2 / scale, b2 / scale
        if min(math.hypot(a1, b1), math.hypot(a2, b2)) < MIN_SEGMENT_AMPLITUDE:
            continue
        amplitude = rng.uniform(*AMPLITUDE_RANGE)
        return ModelParams(
            a1=a1 * amplitude,
            b1=b1 * amplitude,
            a2=a2 * amplitude,
            b2=b2 * amplitude,
            pbar=rng.uniform(*PBAR_RANGE),
            omega1=freqs.omega1,
            omega2=freqs.omega2,
        )


def generate_cases(seed: int, count: int, noisy: bool) -> list[Case]:
    """``count`` cycles drawn from ``seed``; the same seed gives the same cycles."""
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        params = _draw_params(rng)
        # looked up on the module so a traced run sees these calls
        cycle = model.synthesize_cycle(params, T0, T, DT)
        if noisy:
            sigma = NOISE_FRACTION * float(np.ptp(cycle.samples))
            cycle = model.synthesize_cycle(params, T0, T, DT, noise_sigma=sigma, rng=rng)
        truth = params.freqs.dimensionless(cycle.T0, cycle.T)
        cases.append(Case(f"cyc{index:05d}", cycle, truth))
    return cases


@dataclass(frozen=True)
class Fit:
    """One extraction result as its user sees it."""

    algorithm: str
    omega1: float
    omega2: float
    a1: float
    b1: float
    a2: float
    b2: float
    pbar: float
    objective: float
    converged: bool
    wall_ms: float

    @classmethod
    def from_record(cls, row: dict) -> "Fit":
        return cls(
            row["algorithm"], row["omega1"], row["omega2"], row["a1"], row["b1"],
            row["a2"], row["b2"], row["pbar"], row["objective_value"],
            row["converged"], row["wall_ms"],
        )

    @classmethod
    def from_outcome(cls, outcome: search.SearchOutcome) -> "Fit":
        p = outcome.params
        return cls(
            outcome.algorithm, p.omega1, p.omega2, p.a1, p.b1, p.a2, p.b2, p.pbar,
            outcome.objective_value, outcome.converged, outcome.wall_ms,
        )

    def params(self) -> ModelParams:
        return ModelParams(self.a1, self.b1, self.a2, self.b2, self.pbar, self.omega1, self.omega2)

    def u(self, cycle: SampledCycle) -> tuple[float, float]:
        return FreqPair(self.omega1, self.omega2).dimensionless(cycle.T0, cycle.T)


@dataclass
class OpResult:
    """What one timed operation produced: cycles attempted and failed, and the fits."""

    attempted: int
    failed: int
    fits: dict[tuple[str, str], Fit] = field(default_factory=dict)  # (case id, algorithm)
    error: str | None = None


def _read_fits(path: Path) -> dict[tuple[str, str], Fit]:
    fits = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if row.get("record") == "result":
            fits[(row["id"], row["algorithm"])] = Fit.from_record(row)
    return fits


def _failed(cases: list[Case], fits: dict, algorithms: tuple[str, ...]) -> int:
    """Cycles with a missing or unconverged result for any of ``algorithms``."""
    return sum(
        1
        for case in cases
        if not all((case.id, a) in fits and fits[(case.id, a)].converged for a in algorithms)
    )


def _run_cli(argv: list[str], tracer) -> int:
    with tracer.span("cli.main"), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Workload:
    """A set of generated cases and the operations that process them.

    Operation ``k`` of a pass processes the ``op_size`` cases from
    ``k * op_size`` on, so a pass of ``ops_per_pass`` operations covers every
    case once. ``call`` is the timed part of an operation; ``collect`` turns
    what it returned into an :class:`OpResult` outside the timed region.
    """

    name: str
    noisy: bool
    op_size: int
    algorithms: tuple[str, ...] = ("fast",)

    def __init__(self, seed: int, count: int, workdir: Path, tracer):
        self.seed = seed
        self.count = count
        self.workdir = workdir
        self.tracer = tracer
        self.cases: list[Case] = []
        self.input_bytes = b""

    def setup(self) -> None:
        """Generate the inputs and make one warm-up call."""
        self.cases = generate_cases(self.seed, self.count, self.noisy)
        # the warm-up cycle is the same for every seed, so set-up time is too
        self.warmup = generate_cases(WARMUP_SEED, 1, self.noisy)[0]
        self.lines = [case.jsonl() + "\n" for case in self.cases]
        self.input_bytes = "".join(self.lines).encode()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._prepare()

    @property
    def input_sha256(self) -> str:
        return hashlib.sha256(self.input_bytes).hexdigest()

    @property
    def ops_per_pass(self) -> int:
        return -(-len(self.cases) // self.op_size)

    def op_cases(self, index: int) -> list[Case]:
        return self.cases[index * self.op_size:(index + 1) * self.op_size]

    def input_files(self) -> list[Path]:
        return []

    def _prepare(self) -> None:
        raise NotImplementedError

    def call(self, index: int):
        raise NotImplementedError

    def collect(self, index: int, returned) -> OpResult:
        raise NotImplementedError


class _CliWorkload(Workload):
    """Each operation is one ``ifreq`` CLI call on its own JSONL batch file."""

    def _argv(self, path: Path, *extra: str) -> list[str]:
        raise NotImplementedError

    def _prepare(self) -> None:
        self.out = self.workdir / f"{self.name}-out.jsonl"
        self.files = []
        for k in range(self.ops_per_pass):
            path = self.workdir / f"{self.name}-in-{k}.jsonl"
            path.write_text("".join(self.lines[k * self.op_size:(k + 1) * self.op_size]))
            self.files.append(path)
        warm = self.workdir / "warmup-in.jsonl"
        warm.write_text(self.warmup.jsonl() + "\n")
        _run_cli(self._argv(warm, *self.warmup_flags), self.tracer)

    def input_files(self) -> list[Path]:
        return self.files

    def call(self, index: int) -> int:
        return _run_cli(self._argv(self.files[index]), self.tracer)

    def collect(self, index: int, returned: int) -> OpResult:
        cases = self.op_cases(index)
        if returned != 0:
            return OpResult(len(cases), len(cases), error=f"exit code {returned}")
        fits = _read_fits(self.out)
        return OpResult(len(cases), _failed(cases, fits, self.algorithms), fits)


class ExtractWorkload(_CliWorkload):
    name = "extract"
    noisy = True
    op_size = 50
    warmup_flags = ()

    def _argv(self, path: Path, *extra: str) -> list[str]:
        return ["extract", "--input", str(path), "--mode", "fast", "--out", str(self.out), *extra]


class CompareWorkload(_CliWorkload):
    name = "compare"
    noisy = True
    op_size = 1
    algorithms = ("fast", "brute")
    warmup_flags = ("--mesh", WARMUP_MESH)

    def _argv(self, path: Path, *extra: str) -> list[str]:
        argv = ["compare", "--input", str(path), "--out", str(self.out), *extra]
        for guess in COMPARE_GUESSES:
            argv += ["--guess", guess]
        return argv


class RecoverWorkload(Workload):
    name = "recover"
    noisy = False
    op_size = 1

    def _prepare(self) -> None:
        search.fast_if(self.warmup.cycle, RECOVERY_CONFIG)

    def call(self, index: int) -> list:
        returned = []
        for case in self.op_cases(index):
            try:
                returned.append(search.fast_if(case.cycle, RECOVERY_CONFIG))
            except Exception as exc:  # one cycle's failure must not end the run
                returned.append(exc)
        return returned

    def collect(self, index: int, returned: list) -> OpResult:
        cases = self.op_cases(index)
        fits = {}
        errors = []
        for case, item in zip(cases, returned):
            if isinstance(item, UnconvergedSearchError):
                item = item.outcome
            if isinstance(item, Exception):
                errors.append(f"{case.id}: {type(item).__name__}: {item}")
                continue
            fits[(case.id, "fast")] = Fit.from_outcome(item)
        return OpResult(len(cases), _failed(cases, fits, self.algorithms), fits,
                        "; ".join(errors) or None)


WORKLOADS = {w.name: w for w in (ExtractWorkload, CompareWorkload, RecoverWorkload)}


def _check(name: str, passed: bool, gating: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "gating": gating, "detail": detail}


def evaluate(workload: Workload, results: list[OpResult]) -> tuple[dict, list[dict]]:
    """Quality figures and named checks over every operation of a run.

    Gating checks decide ``correct``: each fit's reported objective is the
    residual of its reported parameters (recomputed with ``evaluate_model``,
    outside the kernel), those parameters satisfy both coupling constraints
    (criterion 5), repeated operations on the same input agree, and on
    ``compare`` criterion 3's median grid/fast ratio. Criteria 1 and 2 are
    reported, not gating: plain random envelopes make the compass search miss
    them on some cycles, and that defect has to show as a number.
    """
    cases = {case.id: case for case in workload.cases}
    first: dict[tuple[str, str], Fit] = {}
    drift = 0
    for result in results:
        for key, fit in result.fits.items():
            ref = first.setdefault(key, fit)
            if (ref.omega1, ref.omega2) != (fit.omega1, fit.omega2) or not math.isclose(
                ref.objective, fit.objective, rel_tol=1e-9, abs_tol=0.0
            ):
                drift += 1

    worst_residual = 0.0
    worst_constraint = 0.0
    for (case_id, _), fit in first.items():
        cycle = cases[case_id].cycle
        params = fit.params()
        fitted = evaluate_model(params, cycle.dt, cycle.n, cycle.m)
        residual = cycle.samples - fitted
        energy = float(cycle.samples @ cycle.samples)
        gap = abs(float(residual @ residual) - fit.objective)
        worst_residual = max(worst_residual, gap / (1e-6 * fit.objective + 1e-15 * energy))
        continuity, periodicity = constraint_residuals(params, cycle.T0, cycle.T)
        worst_constraint = max(
            worst_constraint,
            max(abs(continuity), abs(periodicity)) / (1e-9 * params.envelope_scale),
        )
    if not first:  # nothing to check is a failure, not a pass
        worst_residual = worst_constraint = math.inf

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    quality = {"failed_frac": {"value": failed / attempted, "unit": "frac"}}
    checks = [
        _check("outputs.residual", worst_residual <= 1.0, True,
               f"worst |sum(r^2) - P| is {worst_residual:.3g} of 1e-6*P + 1e-15*||f||^2"),
        _check("outputs.constraints", worst_constraint <= 1.0, True,
               f"worst coupling residual is {worst_constraint:.3g} of 1e-9*scale"),
        _check("outputs.deterministic", drift == 0, True,
               f"{drift} repeated fits differ from the first fit of their input"),
        _check("outputs.complete", failed == 0, False,
               f"{failed} of {attempted} cycles raised, were rejected or did not converge"),
    ]

    fast = {cid: first[(cid, "fast")] for cid in cases if (cid, "fast") in first}
    if workload.name in ("extract", "recover"):
        du = {
            cid: max(abs(got - want) for got, want in zip(fit.u(cases[cid].cycle), cases[cid].truth))
            for cid, fit in fast.items()
        }
        values = list(du.values()) or [math.inf]
        quality["du_truth_mean"] = {"value": statistics.fmean(values), "unit": "1"}
        quality["du_truth_max"] = {"value": max(values), "unit": "1"}
    if workload.name == "recover":
        misses = []
        for cid, case in cases.items():
            energy_ratio = (
                fast[cid].objective / float(case.cycle.samples @ case.cycle.samples)
                if cid in fast else math.inf
            )
            if du.get(cid, math.inf) > RECOVERY_DU or energy_ratio > RECOVERY_ENERGY:
                misses.append(f"{cid} |du|={du.get(cid, math.inf):.3g} P/|f|^2={energy_ratio:.3g}")
        quality["miss_frac"] = {"value": len(misses) / len(cases), "unit": "frac"}
        checks.append(_check(
            "criterion_1.recovery", not misses, False,
            f"{len(misses)} of {len(cases)} cycles outside |du| <= {RECOVERY_DU} and "
            f"P/||f||^2 <= {RECOVERY_ENERGY}" + (": " + "; ".join(misses) if misses else ""),
        ))
    if workload.name == "compare":
        pairs = [(fast[cid], first[(cid, "brute")]) for cid in fast if (cid, "brute") in first]
        if pairs:
            domega = max(
                statistics.fmean(abs(f.omega1 - b.omega1) for f, b in pairs),
                statistics.fmean(abs(f.omega2 - b.omega2) for f, b in pairs),
            )
        else:
            domega = math.inf
        ratios = [
            r.fits[(cid, "brute")].wall_ms / r.fits[(cid, "fast")].wall_ms
            for r in results
            for cid in cases
            if (cid, "brute") in r.fits and (cid, "fast") in r.fits
        ]
        ratio = statistics.median(ratios) if ratios else 0.0
        quality["domega_grid_max_mean"] = {"value": domega, "unit": "rad/s"}
        quality["grid_fast_ratio"] = {"value": ratio, "unit": "x"}
        checks.append(_check(
            "criterion_2.domega", domega <= DOMEGA_THRESHOLD, False,
            f"max mean |d omega| {domega:.4g} rad/s over {len(pairs)} cycles, "
            f"threshold {DOMEGA_THRESHOLD}",
        ))
        checks.append(_check(
            "criterion_3.grid_fast_ratio", ratio >= GRID_FAST_RATIO_MIN, True,
            f"median grid/fast wall ratio {ratio:.1f}x over {len(ratios)} cycles, "
            f"gate {GRID_FAST_RATIO_MIN:g}x",
        ))
    return quality, checks
