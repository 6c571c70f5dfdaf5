"""Command line interface: subcommands, flags, outputs, exit codes."""

from __future__ import annotations

import argparse
import json
import math

import pytest

from ifreq import Domain, GridConfig, SearchConfig, ingest, run_batch, write_results
from ifreq.cli import build_parser, main

from conftest import run_bounded

TIMING_FIELDS = {"wall_ms", "mean_wall_ms", "median_wall_ratio"}

INPUT_OPTIONS = {
    "--input": None,
    "--format": "auto",
    "--mesh": 0.02 * math.pi,
    "--mesh-unit": "rad/s",
    "--domain": Domain(0.5, 1.5, 0.5, 3.0),
}
SEARCH_OPTIONS = {
    "--tol": 0.02,
    "--step0": 0.1,
    "--guess": None,
    "--random-guesses": 0,
    "--seed": None,
}
RESULT_FIELDS = {
    "record", "id", "algorithm", "omega1", "omega2", "omega1_bpm", "omega2_bpm", "u1", "u2",
    "a1", "b1", "a2", "b2", "pbar", "objective_value", "normalized_objective_value",
    "converged", "evals", "wall_ms", "lobe", "newton_iterations", "gradient_norm",
    "starts_joined", "gram_condition", "t0_rounding", "subject", "interval",
}
PINNED_OPTIONS = {
    "extract": {**INPUT_OPTIONS, **SEARCH_OPTIONS, "--mode": "fast", "--out": "-"},
    "grid": {**INPUT_OPTIONS, "--out": None},
    "compare": {**INPUT_OPTIONS, **SEARCH_OPTIONS, "--threshold": 0.0475, "--out": "-"},
    "generate": {"--spec": None, "--count": 10, "--seed": 0, "--out": None},
}


@pytest.fixture
def batch_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "model", "t0": 0.36, "t": 1.0, "dt": 0.002}))
    out = tmp_path / "batch.jsonl"
    code = main(["generate", "--spec", str(spec), "--count", "3", "--seed", "9", "--out", str(out)])
    assert code == 0
    return out


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def untimed(rows):
    return [{k: v for k, v in row.items() if k not in TIMING_FIELDS} for row in rows]


class TestGenerateCommand:
    def test_writes_batch_and_truth(self, tmp_path, batch_file):
        assert batch_file.exists()
        truth = batch_file.with_name(batch_file.name + ".truth.json")
        assert truth.exists()
        assert len(batch_file.read_text().splitlines()) == 3

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"kind": "model", "nonsense": True}))
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "unknown generator keys" in capsys.readouterr().err

    def test_empty_frequency_window_exits_1(self, tmp_path):
        # no point of this window is at least 0.05 from the (1, 1) node
        spec = tmp_path / "narrow.json"
        spec.write_text(json.dumps({"u1_range": [0.99, 1.01], "u2_range": [0.99, 1.01]}))
        done = run_bounded(
            "import sys\n"
            "from ifreq.cli import main\n"
            f"sys.exit(main(['generate', '--spec', {str(spec)!r},"
            f" '--out', {str(tmp_path / 'x.jsonl')!r}]))\n"
        )
        assert done.returncode == 1, done.stderr
        assert "no acceptable point" in done.stderr


class TestExtractCommand:
    def test_fast_mode_to_file(self, tmp_path, batch_file):
        out = tmp_path / "results.jsonl"
        code = main(["extract", "--input", str(batch_file), "--mode", "fast", "--out", str(out)])
        assert code == 0
        rows = read_records(out)
        results = [r for r in rows if r["record"] == "result"]
        summary = rows[-1]
        assert len(results) == 3
        assert summary["record"] == "summary"
        assert summary["converged"] == 3
        truth = json.loads(
            batch_file.with_name(batch_file.name + ".truth.json").read_text()
        )["cycles"]
        by_id = {t["id"]: t for t in truth}
        for row in results:
            assert abs(row["u1"] - by_id[row["id"]]["u1"]) <= 0.002
            assert abs(row["u2"] - by_id[row["id"]]["u2"]) <= 0.002

    def test_subject_and_interval_reach_the_results(self, tmp_path, batch_file):
        # both were read from the line and then dropped; a non-string value is
        # written as text, as the id is, and a line without them writes null
        lines = batch_file.read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        first.update(subject="rat-07", interval=3)
        tagged = tmp_path / "tagged.jsonl"
        tagged.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        out = tmp_path / "results.jsonl"
        assert main(["extract", "--input", str(tagged), "--out", str(out)]) == 0
        results = [r for r in read_records(out) if r["record"] == "result"]
        assert [(r["id"], r["subject"], r["interval"]) for r in results] == [
            (first["id"], "rat-07", "3"),
            (second["id"], None, None),
        ]

    def test_stdout_output(self, batch_file, capsys):
        code = main(["extract", "--input", str(batch_file), "--mode", "fast"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert sum(1 for r in rows if r["record"] == "result") == 3

    def test_search_flags(self, tmp_path, batch_file):
        out = tmp_path / "r.jsonl"
        code = main(
            [
                "extract",
                "--input", str(batch_file),
                "--mode", "fast",
                "--tol", "0.002",
                "--step0", "0.2",
                "--guess", "1.2,2.5",
                "--guess", "0.8,0.7",
                "--random-guesses", "2",
                "--seed", "5",
                "--domain", "0.5,1.5,0.5,3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len([r for r in read_records(out) if r["record"] == "result"]) == 3

    def test_no_valid_records_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"id": "a", "dt": 0.002}\n')
        code = main(["extract", "--input", str(empty), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "missing keys" in capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["extract", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("command", ["extract", "grid"])
    def test_infinite_domain_is_a_usage_error(self, command, batch_file, capsys):
        # an infinite bound once reached the grid axes (OverflowError) and
        # Domain.draw (every record failed) instead of the parser
        argv = [command, "--input", str(batch_file), "--domain", "0.5,inf,0.5,3"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + (["--random-guesses", "1"] if command == "extract" else []))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--domain" in err and "Traceback" not in err

    def test_infinite_initial_step_exits_1(self, batch_file):
        done = run_bounded(
            "import sys\n"
            "from ifreq.cli import main\n"
            f"sys.exit(main(['extract', '--input', {str(batch_file)!r}, '--step0', 'inf']))\n"
        )
        assert done.returncode == 1, done.stderr
        assert "finite delta0" in done.stderr


class TestDefaults:
    """Every default the command line uses is the one SearchConfig and GridConfig carry."""

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_options_and_defaults_pinned(self, command):
        [subparsers] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            action.option_strings[-1]: action.default
            for action in subparsers.choices[command]._actions
            if action.default is not argparse.SUPPRESS
        }
        assert options == PINNED_OPTIONS[command]

    @pytest.mark.parametrize(
        "argv, mode, grid",
        [
            (["extract", "--mode", "fast"], "fast", GridConfig()),
            (["extract", "--mode", "brute"], "brute", GridConfig()),
            (["compare", "--mesh", "0.3"], "compare", GridConfig(mesh=0.3)),
        ],
        ids=["extract-fast", "extract-brute", "compare"],
    )
    def test_same_records_as_default_configs(self, tmp_path, batch_file, argv, mode, grid):
        # one cycle keeps the full default grid of the brute case to about a second
        single = tmp_path / "single.jsonl"
        single.write_text(batch_file.read_text().splitlines()[0] + "\n")
        out = tmp_path / "cli.jsonl"
        assert main([*argv, "--input", str(single), "--out", str(out)]) == 0
        ingested = ingest(single)
        batch = run_batch(
            list(ingested.records),
            mode=mode,
            search_config=SearchConfig(),
            grid_config=grid,
            input_checksum=ingested.checksum,
            rejected=ingested.rejected,
        )
        expected = tmp_path / "library.jsonl"
        write_results(batch, expected)
        assert untimed(read_records(out)) == untimed(read_records(expected))
        results = [row for row in read_records(out) if row["record"] == "result"]
        assert results
        for row in results:
            assert set(row) == RESULT_FIELDS
            # Newton steps of the winning start, and |grad_u P| / centered energy
            assert type(row["newton_iterations"]) is int
            assert (row["newton_iterations"] > 0) == (row["algorithm"] == "fast")
            assert 0.0 <= row["gradient_norm"] < math.inf
            # starts that met an earlier start's path; the grid has no starts
            assert type(row["starts_joined"]) is int
            if row["algorithm"] == "fast":
                assert row["gradient_norm"] < 1e-3
                assert 0 <= row["starts_joined"] < len(SearchConfig().guesses)
            else:
                assert row["starts_joined"] == 0
            # the final solve's Gram condition; the batch file's notch is on a sample
            assert 1.0 <= row["gram_condition"] < math.inf
            assert row["t0_rounding"] == 0.0


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "--mode", "fast"],
            ["compare", "--mesh", "0.3", "--threshold", "0.35"],
        ],
    )
    def test_stdout_matches_file(self, tmp_path, batch_file, capsys, argv):
        out = tmp_path / "out.jsonl"
        assert main([*argv, "--input", str(batch_file), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*argv, "--input", str(batch_file), "--out", "-"]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert untimed(printed) == untimed(read_records(out))
        summary = printed[-1]
        assert summary["record"] == "summary"
        assert summary["input_checksum"]
        assert summary["rejected"] == []

    def test_bad_line_listed_in_summary(self, tmp_path, batch_file):
        lines = batch_file.read_text().splitlines()
        lines[1] = '{"id": "broken", "dt": 0.002'
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["extract", "--input", str(bad), "--out", str(out)]) == 0
        summary = read_records(out)[-1]
        assert summary["cycles"] == 2
        [entry] = summary["rejected"]
        assert entry["source"] == f"{bad}:2"
        assert entry["reason"].startswith("bad JSON")


class TestGridCommand:
    def test_writes_matrix(self, tmp_path, batch_file):
        out = tmp_path / "grid.txt"
        code = main(
            [
                "grid",
                "--input", str(batch_file),
                "--mesh", "0.1",
                "--mesh-unit", "dimensionless",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# objective grid")
        assert any(line.startswith("# minimizer:") for line in lines)


class TestCompareCommand:
    def test_report_written(self, tmp_path, batch_file, capsys):
        out = tmp_path / "cmp.jsonl"
        code = main(
            [
                "compare",
                "--input", str(batch_file),
                "--mesh", "0.3",
                "--threshold", "0.35",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_records(out)
        comparison = next(r for r in rows if r["record"] == "comparison")
        assert comparison["input_checksum"]
        assert "median_wall_ratio" in comparison
        err = capsys.readouterr().err
        assert "max mean |d omega|" in err
