"""Ingestion, batch extraction, grid export, and the synthetic batch generator."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from ifreq import (
    FreqPair,
    GridConfig,
    InvalidSpecError,
    NoValidRecordsError,
    Rejection,
    ResultRecord,
    SearchConfig,
    brute_force_if,
    export_grid,
    generate,
    ingest,
    read_results,
    run_batch,
    sample_params,
    solve_inner,
    write_results,
)
from ifreq import pipeline

from conftest import T, T0, make_cycle, run_bounded


def write_csv_cycle(tmp_path, name="cycle", t0=0.36, t_period=1.0, dt=0.002, meta_extra=None):
    cycle, params = make_cycle(1.1, 2.2, b1=0.4, b2=1.0, dt=dt, t0=t0, t_period=t_period)
    times = np.concatenate([cycle.t1, t0 + cycle.t2])
    csv_path = tmp_path / f"{name}.csv"
    lines = ["time_s,pressure"]
    lines += [f"{float(t)!r},{float(p)!r}" for t, p in zip(times, cycle.samples)]
    csv_path.write_text("\n".join(lines) + "\n")
    meta = {"t0": t0, "t": t_period, "id": name}
    meta.update(meta_extra or {})
    (tmp_path / f"{name}.json").write_text(json.dumps(meta))
    return csv_path, cycle, params


class TestIngestCsv:
    def test_counts_from_sidecar(self, tmp_path):
        csv_path, cycle, _ = write_csv_cycle(tmp_path)
        result = ingest(csv_path)
        assert not result.rejected
        record = result.records[0]
        assert record.id == "cycle"
        assert record.cycle.n == 181
        assert record.cycle.m == 320
        assert record.sampling_rate == pytest.approx(500.0)
        np.testing.assert_allclose(record.cycle.samples, cycle.samples, rtol=1e-12)

    def test_t0_snapping_recorded(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path, meta_extra={"t0": 0.3612})
        result = ingest(csv_path)
        record = result.records[0]
        assert record.cycle.T0 == pytest.approx(0.362)
        assert record.t0_rounding == pytest.approx(0.362 - 0.3612)

    def test_missing_sidecar_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        (tmp_path / "cycle.json").unlink()
        result = ingest(csv_path)
        assert not result.records
        assert "sidecar" in result.rejected[0].reason

    def test_non_numeric_row_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        content = csv_path.read_text().splitlines()
        content[100] = "0.198,not-a-number"
        csv_path.write_text("\n".join(content))
        result = ingest(csv_path)
        assert not result.records
        assert "non-numeric" in result.rejected[0].reason

    def test_jittered_timestamps_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        lines = csv_path.read_text().splitlines()
        parts = lines[50].split(",")
        lines[50] = f"{float(parts[0]) + 2e-4!r},{parts[1]}"
        csv_path.write_text("\n".join(lines))
        result = ingest(csv_path)
        assert not result.records
        assert "non-uniform" in result.rejected[0].reason

    def test_period_mismatch_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path, meta_extra={"t": 1.25})
        result = ingest(csv_path)
        assert not result.records
        assert "period" in result.rejected[0].reason

    @pytest.mark.parametrize(
        "sidecar, reason",
        [
            ('{"t0": Infinity, "t": 1.0}', "finite t0"),
            ('{"t0": "abc", "t": 1.0}', "could not convert"),
            ('{"t0": 0.36, "t": "abc"}', "could not convert"),
            ("42", "not a JSON object"),
        ],
    )
    def test_bad_sidecar_value_rejected(self, tmp_path, sidecar, reason):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        (tmp_path / "cycle.json").write_text(sidecar)
        result = ingest(csv_path)
        assert not result.records
        [rejection] = result.rejected
        assert reason in rejection.reason

    def test_headerless_csv_with_byte_order_mark_keeps_its_first_sample(self, tmp_path):
        # the mark once made line 1 non-numeric, so it was skipped as a header
        csv_path, cycle, _ = write_csv_cycle(tmp_path)
        body = csv_path.read_text().split("\n", 1)[1]
        csv_path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        result = ingest(csv_path)
        assert not result.rejected
        record = result.records[0]
        assert (record.cycle.n, record.cycle.m) == (181, 320)
        np.testing.assert_allclose(record.cycle.samples, cycle.samples, rtol=1e-12)

    def test_header_after_a_blank_first_line_is_skipped(self, tmp_path):
        csv_path, cycle, _ = write_csv_cycle(tmp_path)
        csv_path.write_text("\n" + csv_path.read_text())
        result = ingest(csv_path)
        assert not result.rejected
        np.testing.assert_allclose(result.records[0].cycle.samples, cycle.samples, rtol=1e-12)

    def test_first_row_with_one_number_is_data_not_a_header(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[:2] = ["0.0,abc"]
        csv_path.write_text("\n".join(lines))
        result = ingest(csv_path)
        assert not result.records
        [rejection] = result.rejected
        assert "line 1: non-numeric" in rejection.reason


    def test_non_utf8_csv_and_sidecar_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        sidecar = csv_path.with_suffix(".json")
        good_sidecar = sidecar.read_bytes()
        sidecar.write_bytes(good_sidecar[:-1] + b', "subject": "\xff"}')
        [rejection] = ingest(csv_path).rejected
        assert "unreadable sidecar" in rejection.reason
        sidecar.write_bytes(good_sidecar)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"time_s", b"time_\xb5s"))
        result = ingest(csv_path)
        assert not result.records
        [rejection] = result.rejected
        assert "not UTF-8" in rejection.reason

    def test_sidecar_subject_and_interval_reach_the_results(self, tmp_path):
        # read from the sidecar, then dropped before the result was written
        csv_path, _, _ = write_csv_cycle(
            tmp_path, meta_extra={"subject": "S12", "interval": "post-dose"}
        )
        batch = run_batch(list(ingest(csv_path).records), mode="fast")
        write_results(batch, tmp_path / "out.jsonl")
        row = json.loads((tmp_path / "out.jsonl").read_text().splitlines()[0])
        assert (row["subject"], row["interval"]) == ("S12", "post-dose")
        (result,) = read_results(tmp_path / "out.jsonl")
        assert (result.subject, result.interval) == ("S12", "post-dose")

    def test_null_id_in_the_sidecar_gives_the_file_stem(self, tmp_path):
        # null counts as absent, not as the name "None"
        csv_path, _, _ = write_csv_cycle(tmp_path, meta_extra={"id": None})
        [record] = ingest(csv_path).records
        assert record.id == "cycle"

    def test_null_period_in_the_sidecar_counts_as_absent(self, tmp_path):
        # float(None) once rejected the record with a TypeError
        csv_path, _, _ = write_csv_cycle(tmp_path, meta_extra={"t": None})
        result = ingest(csv_path)
        assert not result.rejected
        assert (result.records[0].cycle.n, result.records[0].cycle.m) == (181, 320)

    def rejection(self, csv_path):
        result = ingest(csv_path)
        assert not result.records
        [rejection] = result.rejected
        assert rejection.source == str(csv_path)
        return rejection.reason

    def test_sidecar_without_t0_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        csv_path.with_suffix(".json").write_text('{"t": 1.0, "id": "cycle"}')
        assert self.rejection(csv_path) == "sidecar lacks t0"

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("0.1,2.0,3.0", "line 6: expected 2 columns"),
            ("0.1", "line 6: expected 2 columns"),
            ("0.1,nan", "line 6: non-finite value"),
            ("inf,2.0", "line 6: non-finite value"),
        ],
    )
    def test_bad_row_rejected(self, tmp_path, row, reason):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        lines = csv_path.read_text().splitlines()
        lines[5] = row
        csv_path.write_text("\n".join(lines) + "\n")
        assert self.rejection(csv_path) == reason

    def test_too_few_samples_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        csv_path.write_text("\n".join(csv_path.read_text().splitlines()[:6]) + "\n")
        assert self.rejection(csv_path) == "only 5 samples"

    def test_decreasing_timestamps_rejected(self, tmp_path):
        csv_path, _, _ = write_csv_cycle(tmp_path)
        header, *rows = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([header, *reversed(rows)]) + "\n")
        assert self.rejection(csv_path) == "timestamps are not increasing"

    @pytest.mark.parametrize("key", ["t0", "t"])
    def test_boolean_time_in_the_sidecar_rejected(self, tmp_path, key):
        # float(True) is 1.0: a 1.6 s recording once took "t0": true as a
        # notch 1 s in, and a 1 s one took "t": true as its period
        t_period = 1.6 if key == "t0" else 1.0
        csv_path, _, _ = write_csv_cycle(
            tmp_path, t0=0.8, t_period=t_period, meta_extra={key: True}
        )
        assert self.rejection(csv_path) == f"{key} must be a number, got true"

    def test_csv_on_a_late_clock_and_jsonl_give_the_same_record(self, tmp_path):
        # dt = 2**-9 and a clock from 5.0 s keep every timestamp exact; the
        # notch lies a quarter sample past sample 184, so it is snapped
        dt, start, t0 = 2.0**-9, 5.0, 184 * 2.0**-9 + 2.0**-11
        cycle, _ = make_cycle(1.1, 2.2, dt=dt, t0=184 * dt, t_period=512 * dt)
        csv_path = tmp_path / "late.csv"
        rows = [f"{start + k * dt!r},{float(p)!r}" for k, p in enumerate(cycle.samples)]
        csv_path.write_text("time_s,pressure\n" + "\n".join(rows) + "\n")
        meta = {"id": "beat", "subject": "S3", "interval": "pre-dose"}
        sidecar = {**meta, "t0": start + t0, "t": start + 1.0}
        csv_path.with_suffix(".json").write_text(json.dumps(sidecar))
        line = {**meta, "dt": dt, "t0": t0, "t": 1.0, "samples": cycle.samples.tolist()}
        jsonl_path = tmp_path / "late.jsonl"
        jsonl_path.write_text(json.dumps(line) + "\n")
        [from_csv] = ingest(csv_path).records
        [from_jsonl] = ingest(jsonl_path).records
        for record in (from_csv, from_jsonl):
            assert (record.id, record.subject, record.interval) == ("beat", "S3", "pre-dose")
            assert record.cycle.samples.tobytes() == cycle.samples.tobytes()
            assert (record.cycle.n, record.cycle.m, record.cycle.dt) == (185, 328, dt)
            assert record.t0_rounding == -(2.0**-11)
            assert record.sampling_rate == 512.0


class TestIngestJsonl:
    def write_batch(self, tmp_path, rows):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        return path

    def cycle_row(self, record_id="a", **overrides):
        cycle, _ = make_cycle(1.05, 1.9)
        row = {
            "id": record_id,
            "dt": cycle.dt,
            "t0": cycle.T0,
            "samples": cycle.samples.tolist(),
        }
        row.update(overrides)
        return row

    def test_bad_line_isolated(self, tmp_path):
        rows = [self.cycle_row("a"), self.cycle_row("b"), self.cycle_row("c")]
        path = self.write_batch(tmp_path, rows)
        content = path.read_text().splitlines()
        content[1] = '{"id": "b", "dt": 0.002, "samples": "broken"'
        path.write_text("\n".join(content))
        result = ingest(path)
        assert [r.id for r in result.records] == ["a", "c"]
        assert len(result.rejected) == 1
        assert "bad JSON" in result.rejected[0].reason

    def test_short_segment_rejected(self, tmp_path):
        row = self.cycle_row("tiny")
        row["samples"] = row["samples"][:8]
        row["t0"] = 0.002  # n = 2 after snapping
        path = self.write_batch(tmp_path, [row, self.cycle_row("ok")])
        result = ingest(path)
        assert [r.id for r in result.records] == ["ok"]
        assert "segments too short" in result.rejected[0].reason

    def test_duplicate_ids_rejected(self, tmp_path):
        path = self.write_batch(tmp_path, [self.cycle_row("x"), self.cycle_row("x")])
        result = ingest(path)
        assert len(result.records) == 1
        assert "duplicate" in result.rejected[0].reason

    def test_a_malformed_duplicate_reports_what_is_wrong_with_it(self, tmp_path):
        short = self.cycle_row("x", t0=0.002)  # n = 2 after snapping
        path = self.write_batch(tmp_path, [self.cycle_row("x"), short, self.cycle_row("x")])
        result = ingest(path)
        assert [r.id for r in result.records] == ["x"]
        assert [r.reason.split(":")[0] for r in result.rejected] == [
            "segments too short after snapping", "duplicate id 'x'"
        ]

    def test_null_ids_take_the_line_number(self, tmp_path):
        # null counts as absent: as "None", the second line would be a duplicate
        path = self.write_batch(tmp_path, [self.cycle_row(None), self.cycle_row(None)])
        result = ingest(path)
        assert not result.rejected
        assert [r.id for r in result.records] == ["batch:1", "batch:2"]

    @pytest.mark.parametrize("t0", [1e300, -1e300, 1.5, -0.1])
    def test_t0_outside_the_span_gets_a_short_reason(self, tmp_path, t0):
        # 1e300 was once snapped first, and the reason carried two ~300-digit integers
        path = self.write_batch(tmp_path, [self.cycle_row("far", t0=t0), self.cycle_row("ok")])
        result = ingest(path)
        assert [r.id for r in result.records] == ["ok"]
        [rejection] = result.rejected
        assert rejection.reason == f"t0 {t0:.6g} is outside the sampled span [0, 1]"

    def test_null_period_counts_as_absent(self, tmp_path):
        path = self.write_batch(tmp_path, [self.cycle_row("a", t=None)])
        result = ingest(path)
        assert not result.rejected
        assert [r.id for r in result.records] == ["a"]

    def test_subject_and_interval_are_kept_as_text(self, tmp_path):
        row = self.cycle_row("a", subject=3, interval=2.5)
        [record] = ingest(self.write_batch(tmp_path, [row])).records
        assert (record.subject, record.interval) == ("3", "2.5")
        [result] = run_batch([record], mode="fast").results
        assert (result.subject, result.interval) == ("3", "2.5")

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("null", "not a JSON object"),
            ("42", "not a JSON object"),
            ('{"dt": 0, "t0": 0.36, "samples": [1, 2, 3, 4, 5, 6, 7, 8]}', "dt > 0"),
            ('{"dt": 0.002, "t0": Infinity, "samples": [1, 2, 3, 4, 5, 6]}', "finite t0"),
        ],
    )
    def test_bad_record_isolated(self, tmp_path, line, reason):
        path = self.write_batch(tmp_path, [self.cycle_row("a")])
        path.write_text(line + "\n" + path.read_text())
        result = ingest(path)
        assert [r.id for r in result.records] == ["a"]
        [rejection] = result.rejected
        assert rejection.source == f"{path}:1"
        assert reason in rejection.reason

    def test_period_mismatch_rejected(self, tmp_path):
        declared = self.cycle_row("declared", t=1.0)
        wrong = self.cycle_row("wrong", t=5.0)
        result = ingest(self.write_batch(tmp_path, [declared, wrong]))
        assert [r.id for r in result.records] == ["declared"]
        [rejection] = result.rejected
        assert "declared period 5 != sampled span 1" in rejection.reason

    def test_non_finite_sample_rejected(self, tmp_path):
        row = self.cycle_row("bad")
        row["samples"][7] = 1e999  # becomes inf through JSON float parsing
        path = self.write_batch(tmp_path, [row])
        result = ingest(path)
        assert not result.records

    def test_non_utf8_line_isolated(self, tmp_path):
        path = self.write_batch(tmp_path, [self.cycle_row("a")])
        data = path.read_bytes() + b'{"id": "b\xff", "dt": 0.002}\n'
        path.write_bytes(data)
        result = ingest(path)
        assert [r.id for r in result.records] == ["a"]
        [rejection] = result.rejected
        assert rejection.source == f"{path}:2"
        assert "bad JSON: 'utf-8' codec can't decode" in rejection.reason
        assert result.checksum == hashlib.sha256(data).hexdigest()

    def test_blank_lines_are_skipped_and_keep_the_line_numbers(self, tmp_path):
        path = self.write_batch(tmp_path, [self.cycle_row("a")])
        line = json.dumps(self.cycle_row(None))
        path.write_text(path.read_text() + "\n  \t\nnull\n" + line + "\n\n")
        result = ingest(path)
        assert [r.id for r in result.records] == ["a", "batch:5"]
        assert [(r.source, r.reason) for r in result.rejected] == [
            (f"{path}:4", "not a JSON object")
        ]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"dt": true, "t0": 3, "samples": [1, 2, 3, 4, 5, 6, 7, 8]}',
             "dt must be a number, got true"),
            ('{"dt": 0.002, "t0": false, "samples": [1, 2, 3, 4, 5, 6, 7, 8]}',
             "t0 must be a number, got false"),
            ('{"dt": 0.125, "t0": 0.5, "t": true, "samples": [1, 2, 3, 4, 5, 6, 7, 8, 9]}',
             "t must be a number, got true"),
        ],
    )
    def test_boolean_time_rejected(self, tmp_path, line, reason):
        # float(True) is 1.0: the first and last lines were once accepted,
        # one sampled at 1 s, the other with a declared period of 1 s
        path = tmp_path / "batch.jsonl"
        path.write_text(line + "\n")
        result = ingest(path)
        assert not result.records
        assert [(r.source, r.reason) for r in result.rejected] == [(f"{path}:1", reason)]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"dt": 1' + "0" * 400 + ', "t0": 3, "samples": [1, 2, 3, 4, 5, 6, 7, 8]}',
             "int too large to convert to float"),
            ('{"dt": 0.5, "t0": 1, "samples": [1' + "0" * 400 + ', 2, 3, 4, 5, 6, 7, 8]}',
             "int too large to convert to float"),
            ('{"dt": 0.5, "t0": 1, "samples": [' + "1" * 5000 + "]}",
             "bad JSON: Exceeds the limit (4300 digits) for integer string conversion"),
            ('{"samples": ' + "[" * 100000 + "}",
             "bad JSON: maximum recursion depth exceeded"),
        ],
        ids=["huge-dt", "huge-sample", "5000-digits", "deep-nesting"],
    )
    def test_line_python_cannot_read_is_isolated(self, tmp_path, line, reason):
        # each of these once raised out of ingest and lost the whole batch
        path = self.write_batch(tmp_path, [self.cycle_row("a")])
        path.write_text(line + "\n" + path.read_text())
        result = ingest(path)
        assert [r.id for r in result.records] == ["a"]
        [rejection] = result.rejected
        assert rejection.source == f"{path}:1"
        assert rejection.reason.startswith(reason)

    def test_unknown_format_refused(self, tmp_path):
        path = self.write_batch(tmp_path, [self.cycle_row("a")])
        with pytest.raises(ValueError) as excinfo:
            ingest(path, fmt="xml")
        assert str(excinfo.value) == "unknown format 'xml' (expected 'csv' or 'jsonl')"


class TestGenerate:
    def spec_file(self, tmp_path, **overrides):
        spec = {"kind": "model", "t0": 0.36, "t": 1.0, "dt": 0.002}
        spec.update(overrides)
        path = tmp_path / "genspec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_deterministic_given_seed(self, tmp_path):
        spec = self.spec_file(tmp_path)
        first, first_truth = generate(spec, count=3, seed=42, path=tmp_path / "one.jsonl")
        second, second_truth = generate(spec, count=3, seed=42, path=tmp_path / "two.jsonl")
        assert first.read_text() == second.read_text()
        assert json.loads(first_truth.read_text())["cycles"] == json.loads(
            second_truth.read_text()
        )["cycles"]

    def test_roundtrip_through_ingest(self, tmp_path):
        spec = self.spec_file(tmp_path)
        batch_path, _ = generate(spec, count=4, seed=7, path=tmp_path / "batch.jsonl")
        result = ingest(batch_path)
        assert len(result.records) == 4
        assert not result.rejected
        for record, line in zip(result.records, batch_path.read_text().splitlines()):
            data = json.loads(line)
            assert record.cycle.dt == data["dt"]
            np.testing.assert_array_equal(record.cycle.samples, np.asarray(data["samples"]))

    def test_truth_frequencies_inside_domain(self, tmp_path):
        spec = self.spec_file(tmp_path, u1_range=[0.6, 1.4], u2_range=[1.2, 2.8])
        _, truth_path = generate(spec, count=6, seed=3, path=tmp_path / "b.jsonl")
        truth = json.loads(truth_path.read_text())
        for entry in truth["cycles"]:
            assert 0.6 <= entry["u1"] <= 1.4
            assert 1.2 <= entry["u2"] <= 2.8

    def test_unknown_keys_refused(self, tmp_path):
        spec = self.spec_file(tmp_path, nonsense=1)
        with pytest.raises(Exception, match="unknown generator keys"):
            generate(spec, count=1, seed=0, path=tmp_path / "x.jsonl")

    def test_phase_candidates_key_refused(self, tmp_path):
        # the skew-selected envelope draw is gone; every envelope is a plain draw
        spec = self.spec_file(tmp_path, phase_candidates=16)
        with pytest.raises(Exception, match="unknown generator keys"):
            generate(spec, count=1, seed=0, path=tmp_path / "x.jsonl")

    def test_appendix_kind(self, tmp_path):
        spec = self.spec_file(tmp_path, kind="appendix", harmonics=[1.0, 0.15])
        batch_path, truth_path = generate(spec, count=2, seed=5, path=tmp_path / "a.jsonl")
        result = ingest(batch_path)
        assert len(result.records) == 2
        truth = json.loads(truth_path.read_text())
        assert truth["kind"] == "appendix"

    @pytest.mark.parametrize("kind", ["model", "appendix"])
    def test_noise_is_absolute_plus_relative_to_the_clean_range(self, tmp_path, kind):
        # with one cycle, the noise is the last draw: the same seed without
        # noise gives the clean samples it was added to
        spec = {"kind": kind, "noise_sigma": 0.5, "relative_noise": 0.01}
        noisy_path, truth_path = generate(spec, count=1, seed=9, path=tmp_path / "noisy.jsonl")
        clean_path, clean_truth = generate(
            {"kind": kind}, count=1, seed=9, path=tmp_path / "clean.jsonl"
        )
        noisy = np.asarray(json.loads(noisy_path.read_text())["samples"])
        clean = np.asarray(json.loads(clean_path.read_text())["samples"])
        [truth] = json.loads(truth_path.read_text())["cycles"]
        assert json.loads(clean_truth.read_text())["cycles"][0]["noise_sigma"] == 0.0
        sigma = 0.5 + 0.01 * float(np.ptp(clean))
        assert truth["noise_sigma"] == sigma
        # the sample sd of 501 normal draws is within 15% (4.7 standard errors) of sigma
        assert np.std(noisy - clean, ddof=1) == pytest.approx(sigma, rel=0.15)

    def test_one_seed_gives_identical_bytes_with_noise(self, tmp_path):
        spec = {"kind": "appendix", "relative_noise": 0.01, "damping_ratio": 0.5}
        first = generate(spec, count=3, seed=42, path=tmp_path / "one.jsonl")
        second = generate(spec, count=3, seed=42, path=tmp_path / "two.jsonl")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_scalar_range_is_one_value(self, tmp_path):
        _, truth_path = generate({"pbar": 100}, count=2, seed=1, path=tmp_path / "p.jsonl")
        cycles = json.loads(truth_path.read_text())["cycles"]
        assert [c["params"]["pbar"] for c in cycles] == [100.0, 100.0]

    @pytest.mark.parametrize(
        "spec, count, message",
        [
            ({}, 0, "count must be >= 1, got 0"),
            ({"kind": "mixed"}, 1, "kind must be 'model' or 'appendix', got 'mixed'"),
            ({"u1_range": [1.4, 0.6]}, 1, "range [1.4, 0.6] is reversed"),
            ({"pbar": [120, 80]}, 1, "range [120.0, 80.0] is reversed"),
            ({"noise_sigma": -0.1}, 1, "noise settings must be >= 0"),
            ({"relative_noise": -0.01}, 1, "noise settings must be >= 0"),
            ({"kind": "appendix", "harmonics": []}, 1, "harmonics must start with a positive"),
            ({"kind": "appendix", "harmonics": [0.0, 1.0]}, 1, "harmonics must start with a"),
        ],
    )
    def test_bad_spec_refused(self, tmp_path, spec, count, message):
        with pytest.raises(InvalidSpecError) as excinfo:
            generate(spec, count=count, seed=0, path=tmp_path / "x.jsonl")
        assert str(excinfo.value).startswith(message)
        assert not (tmp_path / "x.jsonl").exists()


class TestRunBatch:
    def records_from_generate(self, tmp_path, count=5, **spec_overrides):
        spec = {"kind": "model", "t0": 0.36, "t": 1.0, "dt": 0.002}
        spec.update(spec_overrides)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        batch_path, truth_path = generate(spec_path, count=count, seed=11, path=tmp_path / "b.jsonl")
        truth = {c["id"]: c for c in json.loads(truth_path.read_text())["cycles"]}
        return ingest(batch_path), truth

    def test_fast_mode_recovers_noiseless_batch(self, tmp_path):
        ingested, truth = self.records_from_generate(tmp_path)
        batch = run_batch(list(ingested.records), mode="fast")
        assert len(batch.results) == 5
        assert not batch.failures
        for record in batch.results:
            assert record.converged
            entry = truth[record.id]
            assert abs(record.u1 - entry["u1"]) <= 0.002
            assert abs(record.u2 - entry["u2"]) <= 0.002
            assert record.algorithm == "fast"
            assert record.omega1_bpm == pytest.approx(60 * record.omega1 / (2 * math.pi))

    def test_compare_mode_summary(self, tmp_path):
        ingested, _ = self.records_from_generate(tmp_path, count=2)
        batch = run_batch(
            list(ingested.records),
            mode="compare",
            grid_config=GridConfig(mesh=0.05, mesh_unit="dimensionless"),
            threshold=0.3,
            input_checksum=ingested.checksum,
        )
        assert batch.report is not None
        assert batch.summary["input_checksum"] == ingested.checksum
        assert batch.summary["passed"]
        assert batch.summary["median_wall_ratio"] > 1.0
        assert len(batch.results) == 4  # one fast + one brute per cycle

    def test_compare_mode_isolates_unconverged_search(self, tmp_path):
        ingested, _ = self.records_from_generate(tmp_path, count=2)
        ids = [record.id for record in ingested.records]
        batch = run_batch(
            list(ingested.records),
            mode="compare",
            search_config=SearchConfig(max_evals=3),
            grid_config=GridConfig(mesh=0.1, mesh_unit="dimensionless"),
        )
        assert batch.failures == tuple(Rejection(i, "no start converged") for i in ids)
        assert [entry["source"] for entry in batch.summary["rejected"]] == ids
        assert [(r.id, r.algorithm) for r in batch.results] == [
            (i, algorithm) for i in ids for algorithm in ("fast", "brute")
        ]
        assert batch.report.per_cycle == ()
        assert not batch.summary["passed"]

    def test_compare_statistics_skip_failed_cycles(self, tmp_path, monkeypatch):
        ingested, _ = self.records_from_generate(tmp_path, count=2)
        first, second = ingested.records
        search = pipeline.fast_if

        def failing_first(cycle, config=None):
            if cycle is first.cycle:
                raise RuntimeError("search failed")
            return search(cycle, config)

        monkeypatch.setattr(pipeline, "fast_if", failing_first)
        batch = run_batch(
            [first, second],
            mode="compare",
            grid_config=GridConfig(mesh=0.05, mesh_unit="dimensionless"),
            threshold=0.3,
        )
        assert batch.failures == (Rejection(first.id, "RuntimeError: search failed"),)
        assert [(r.id, r.algorithm) for r in batch.results] == [
            (first.id, "brute"), (second.id, "fast"), (second.id, "brute")
        ]
        assert [c.index for c in batch.report.per_cycle] == [1]
        assert batch.summary["passed"]
        assert batch.summary["converged"] == 3

    def test_empty_batch_raises(self):
        with pytest.raises(NoValidRecordsError):
            run_batch([], mode="fast")

    def test_results_roundtrip_through_jsonl(self, tmp_path):
        ingested, _ = self.records_from_generate(tmp_path, count=2)
        batch = run_batch(list(ingested.records), mode="fast")
        out = tmp_path / "results.jsonl"
        write_results(batch, out)
        parsed = read_results(out)
        assert parsed == list(batch.results)
        last = json.loads(out.read_text().splitlines()[-1])
        assert last["record"] == "summary"
        assert last["results"] == 2

    def test_result_record_json_roundtrip(self, tmp_path):
        ingested, _ = self.records_from_generate(tmp_path, count=1)
        batch = run_batch(list(ingested.records), mode="fast")
        record = batch.results[0]
        assert ResultRecord.from_json(json.loads(json.dumps(record.to_json()))) == record

    def test_result_record_to_json_is_asdict(self, tmp_path):
        # the shallow field dict writes the same JSON bytes as the deep copy
        ingested, _ = self.records_from_generate(tmp_path, count=1)
        record = run_batch(list(ingested.records), mode="fast").results[0]
        shallow, deep = record.to_json(), dataclasses.asdict(record)
        assert shallow == deep
        assert list(shallow) == list(deep)
        assert json.dumps(shallow) == json.dumps(deep)

    def test_records_carry_gram_condition_and_t0_rounding(self, tmp_path, capsys):
        # both extractors' records, on stdout and in the file: the final
        # solve's Gram condition and the notch snapping ingest applied
        csv_path, _, _ = write_csv_cycle(tmp_path, meta_extra={"t0": 0.3612})
        record = ingest(csv_path).records[0]
        assert record.t0_rounding != 0.0
        batch = run_batch(
            [record], mode="compare", grid_config=GridConfig(mesh=0.05, mesh_unit="dimensionless")
        )
        assert [r.algorithm for r in batch.results] == ["fast", "brute"]
        for result in batch.results:
            freqs = FreqPair(result.omega1, result.omega2)
            assert result.gram_condition == solve_inner(freqs, record.cycle).gram_condition
            assert result.t0_rounding == record.t0_rounding
        write_results(batch, tmp_path / "out.jsonl")
        write_results(batch, "-")
        for text in (capsys.readouterr().out, (tmp_path / "out.jsonl").read_text()):
            rows = [json.loads(line) for line in text.splitlines()]
            assert [(row["gram_condition"], row["t0_rounding"]) for row in rows[:2]] == [
                (r.gram_condition, r.t0_rounding) for r in batch.results
            ]


class TestExportGrid:
    def test_grid_matches_brute_force(self, tmp_path):
        cycle, params = make_cycle(0.9, 1.7, b1=0.4, b2=1.0)
        grid_config = GridConfig(mesh=0.05, mesh_unit="dimensionless")
        out = tmp_path / "grid.txt"
        outcome = export_grid(cycle, grid_config, out)
        brute, matrix = brute_force_if(cycle, grid_config)
        assert outcome.best == brute.best

        lines = out.read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        u1 = np.array([float(v) for v in header[1].split(":")[1].split()])
        u2 = np.array([float(v) for v in header[2].split(":")[1].split()])
        values = np.array([[float(v) for v in line.split()] for line in body])
        assert values.shape == (u1.size, u2.size)
        np.testing.assert_allclose(values, matrix.values, rtol=1e-15)
        i, j = np.unravel_index(np.argmin(values), values.shape)
        got = outcome.dimensionless(cycle)
        assert u1[i] == pytest.approx(got[0])
        assert u2[j] == pytest.approx(got[1])
        assert np.all(values[np.isfinite(values)] >= 0.0)
        nodes_line = next(line for line in header if line.startswith("# nodes:"))
        assert "(1,1)" in nodes_line and "(1,3)" in nodes_line


class TestSampleParams:
    def test_empty_feasible_set_raises(self):
        # every point of this domain lies within 0.05 of the (1, 1) node
        done = run_bounded(
            "import numpy as np\n"
            "from ifreq import Domain, InfeasibleDomainError, sample_params\n"
            "try:\n"
            "    sample_params(np.random.default_rng(0), 0.36, 1.0,"
            " domain=Domain(0.99, 1.01, 0.99, 1.01))\n"
            "except InfeasibleDomainError:\n"
            "    print('raised')\n"
        )
        assert done.stdout.strip() == "raised", done.stderr

    def test_respects_ranges_and_node_distance(self, rng):
        from ifreq import constraint_residuals, node_distance

        for _ in range(10):
            params = sample_params(rng, T0, T, pbar_range=(90, 95), amplitude_range=(5, 6))
            assert 90 <= params.pbar <= 95
            assert max(abs(params.a1), abs(params.b1), abs(params.a2), abs(params.b2)) == pytest.approx(
                5.5, abs=0.5
            )
            u1, u2 = params.freqs.dimensionless(T0, T)
            assert node_distance(u1, u2) >= 0.05
            continuity, periodicity = constraint_residuals(params, T0, T)
            assert abs(continuity) <= 1e-9 * params.envelope_scale
            assert abs(periodicity) <= 1e-9 * params.envelope_scale
