"""End-to-end coverage of the command line interface."""

import json
import os
import warnings

import numpy as np
import pytest

from matseg import cli
from matseg import io as mio
from matseg.cli import _thread_count, main
from matseg.estimators import _center
from matseg.segmentation import (
    CvThreshold,
    FixedThreshold,
    NoThreshold,
    SegmentationConfig,
    _level_rule,
    lag_scores,
)
from matseg.series import MatrixSeries, TensorSeries


def _run(argv):
    return main([str(a) for a in argv])


def test_simulate_writes_declared_dimensions(tmp_path):
    out = tmp_path / "ex1.txt"
    assert _run(["simulate", "--example", 1, "--n", 100, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "matseg,matrix,1"
    assert lines[1] == "100,3,6"
    assert len(lines) == 102
    truth = mio.read_truth(str(out) + ".truth")
    assert truth.partition == [[1, 2, 3], [4, 5], [6]]

    out3 = tmp_path / "ex3.txt"
    assert _run(["simulate", "--example", 3, "--n", 100, "--out", out3]) == 0
    assert out3.read_text().splitlines()[1] == "100,10,10"


def test_simulate_seed_determinism(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert _run(["simulate", "--example", 1, "--n", 100, "--seed", 3, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.truth").read_bytes() == (tmp_path / "b.txt.truth").read_bytes()

    assert _run(["simulate", "--example", 1, "--n", 100, "--seed", 4, "--out", b]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_simulate_truth_out_flag(tmp_path):
    out = tmp_path / "series.txt"
    sidecar = tmp_path / "custom.truth"
    assert _run(
        ["simulate", "--example", 2, "--n", 80, "--out", out, "--truth-out", sidecar]
    ) == 0
    truth = mio.read_truth(sidecar)
    assert truth.example == 2
    assert not os.path.exists(str(out) + ".truth")


def test_segment_recovers_benchmark_groups(tmp_path):
    found = False
    for seed in (0, 1, 2):
        series_path = tmp_path / f"ex1_{seed}.txt"
        result_path = tmp_path / f"ex1_{seed}.json"
        assert _run(
            ["simulate", "--example", 1, "--n", 1500, "--seed", seed, "--out", series_path]
        ) == 0
        assert _run(["segment", series_path, "--out", result_path]) == 0
        doc = mio.read_result(result_path)
        if sorted(len(g) for g in doc["groups"]) == [1, 2, 3]:
            found = True
            break
    assert found


def test_segment_huge_threshold_removes_all_structure(tmp_path):
    series_path = tmp_path / "ex1.txt"
    result_path = tmp_path / "ex1.json"
    assert _run(["simulate", "--example", 1, "--n", 400, "--out", series_path]) == 0
    assert _run(
        ["segment", series_path, "--out", result_path, "--threshold", "fixed:1e9,1e9"]
    ) == 0
    doc = mio.read_result(result_path)
    assert np.array_equal(np.asarray(doc["gamma"]), np.eye(6))
    assert all(score == 0.0 for _, _, score in doc["scores"])


def test_segment_tensor_input_reports_each_mode(tmp_path):
    rng = np.random.default_rng((920, 0))
    series_path = tmp_path / "tensor.txt"
    mio.write_series(series_path, TensorSeries(rng.standard_normal((40, 2, 3))))
    result_path = tmp_path / "tensor.json"
    assert _run(["segment", series_path, "--out", result_path]) == 0
    doc = mio.read_result(result_path)
    assert doc["kind"] == "tensor"
    assert len(doc["modes"]) == 2
    for mode_doc, dim in zip(doc["modes"], (2, 3)):
        gamma = np.asarray(mode_doc["gamma"])
        assert gamma.shape == (dim, dim)
        assert np.allclose(gamma.T @ gamma, np.eye(dim), atol=1e-8)


def test_segment_flag_values_echoed_in_document(tmp_path):
    series_path = tmp_path / "ex1.txt"
    result_path = tmp_path / "ex1.json"
    assert _run(["simulate", "--example", 1, "--n", 120, "--out", series_path]) == 0
    assert _run(
        [
            "segment",
            series_path,
            "--out",
            result_path,
            "--k0",
            3,
            "--m",
            4,
            "--c0",
            0.6,
            "--threshold",
            "cv:4",
            "--seed",
            9,
        ]
    ) == 0
    doc = mio.read_result(result_path)
    cfg = mio.config_from_doc(doc["config"])
    assert cfg.k0 == 3
    assert cfg.m == 4
    assert cfg.c0 == 0.6
    assert cfg.threshold == CvThreshold(n_splits=4, seed=9)
    assert doc["u_per_lag"] is not None
    assert len(doc["u_per_lag"]) == 3


def test_segment_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    series_path = tmp_path / "ex1.txt"
    result_path = tmp_path / "ex1.json"
    assert _run(["simulate", "--example", 1, "--n", 120, "--out", series_path]) == 0
    assert _run(["segment", series_path, "--out", result_path]) == 0
    assert mio.read_result(result_path)["config"] == mio.config_to_doc(SegmentationConfig())
    modes = [
        ([], NoThreshold()),
        (["--threshold", "none"], NoThreshold()),
        (["--threshold", "fixed:0.1,0.05"], FixedThreshold(u=0.1, v=0.05)),
        (["--threshold", "cv"], CvThreshold(seed=3)),
        (["--threshold", "cv:4"], CvThreshold(n_splits=4, seed=3)),
    ]
    for flags, mode in modes:
        argv = ["segment", series_path, "--out", result_path, "--seed", 3] + flags
        assert _run(argv) == 0
        cfg = mio.config_from_doc(mio.read_result(result_path)["config"])
        assert cfg == SegmentationConfig(threshold=mode)
    # the correlogram command receives the same modes
    received = []
    monkeypatch.setattr(
        cli, "cmd_correlogram", lambda args: received.append(args.threshold(args.seed))
    )
    for flags, _ in modes:
        assert _run(["correlogram", series_path, "--out", result_path, "--seed", 3] + flags) == 0
    assert received == [mode for _, mode in modes]


def test_correlogram_layout_and_noise_floor(tmp_path):
    rng = np.random.default_rng((910, 0))
    series_path = tmp_path / "wn.txt"
    mio.write_series(series_path, MatrixSeries(rng.standard_normal((10000, 2, 4))))
    out = tmp_path / "wn.csv"
    assert _run(["correlogram", series_path, "--out", out, "--m", 2]) == 0
    rows = mio.read_correlogram_csv(out)
    # q(q+1)/2 unordered pairs, m+1 lags each
    assert len(rows) == 10 * 3
    assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    for i, j, h, value in rows:
        if i == j and h == 0:
            assert abs(value - 1.0) <= 1e-10
        if i != j:
            assert value < 0.05


def test_correlogram_gamma_applies_stored_transformation(tmp_path):
    series_path = tmp_path / "ex1.txt"
    result_path = tmp_path / "ex1.json"
    assert _run(["simulate", "--example", 1, "--n", 300, "--seed", 5, "--out", series_path]) == 0
    assert _run(["segment", series_path, "--out", result_path]) == 0

    doc = mio.read_result(result_path)
    series = mio.read_series(series_path)
    transformed = series.data @ np.asarray(doc["standardizer"]) @ np.asarray(doc["gamma"])
    transformed_path = tmp_path / "ex1_z.txt"
    mio.write_series(transformed_path, MatrixSeries(transformed))

    via_gamma = tmp_path / "via_gamma.csv"
    direct = tmp_path / "direct.csv"
    assert _run(
        ["correlogram", series_path, "--out", via_gamma, "--m", 3, "--gamma", result_path]
    ) == 0
    assert _run(["correlogram", transformed_path, "--out", direct, "--m", 3]) == 0
    assert via_gamma.read_bytes() == direct.read_bytes()


def test_correlogram_input_validation(tmp_path, capsys):
    rng = np.random.default_rng((920, 1))
    matrix_path = tmp_path / "m.txt"
    mio.write_series(matrix_path, MatrixSeries(rng.standard_normal((20, 2, 3))))
    tensor_path = tmp_path / "t.txt"
    mio.write_series(tensor_path, TensorSeries(rng.standard_normal((20, 2, 2, 2))))
    out = tmp_path / "out.csv"

    capsys.readouterr()
    assert _run(["correlogram", matrix_path, "--out", out, "--m", 19]) == 3
    record = _one_error_record(capsys)
    assert record["message"] == "m must satisfy 0 <= m <= n - 2, got 19 with n = 20"
    assert _run(["correlogram", tensor_path, "--out", out]) == 3

    # a tensor document, matrix documents without a numeric standardizer or
    # gamma (missing, ragged or text), and one whose shapes are not the series'
    other_path = tmp_path / "other.txt"
    mio.write_series(other_path, MatrixSeries(rng.standard_normal((30, 2, 5))))
    for name, path in [("t", tensor_path), ("other", other_path), ("good", matrix_path)]:
        assert _run(["segment", path, "--out", tmp_path / f"{name}.json"]) == 0
    good = json.loads((tmp_path / "good.json").read_text())
    broken = [
        {k: v for k, v in good.items() if k != "standardizer"},
        {k: v for k, v in good.items() if k != "gamma"},
        {**good, "gamma": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]},
        {**good, "standardizer": {"a": 1}},
        {**good, "gamma": [["a", "b", "c"]] * 3},
    ]
    lacking = "result document lacks a numeric standardizer and gamma"
    documents = {tmp_path / "t.json": "only matrix result documents carry a usable gamma"}
    for index, doc in enumerate(broken):
        path = tmp_path / f"broken{index}.json"
        path.write_text(json.dumps(doc))
        documents[path] = lacking
    documents[tmp_path / "other.json"] = "result document dimensions do not match the series"
    # json reads NaN and Infinity; the document is at fault, not the series
    non_finite = [
        {**good, "gamma": [[float("nan")] * 3] * 3},
        {**good, "standardizer": [[float("inf"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    ]
    for index, doc in enumerate(non_finite):
        path = tmp_path / f"non_finite{index}.json"
        path.write_text(json.dumps(doc))
        documents[path] = "result document has a non-finite standardizer or gamma"
    for path, message in documents.items():
        capsys.readouterr()
        assert _run(["correlogram", matrix_path, "--out", out, "--m", 2, "--gamma", path]) == 3
        record = _one_error_record(capsys)
        assert record["error"] == "InvalidInput"
        assert record["message"].startswith(message)
        assert not out.exists()

    # sums of squares that overflow leave no finite correlation to write
    huge_path = tmp_path / "huge.txt"
    mio.write_series(huge_path, MatrixSeries(rng.standard_normal((200, 3, 4)) * 1e200))
    capsys.readouterr()
    assert _run(["correlogram", huge_path, "--out", out]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InvalidInput"
    assert not out.exists()


def test_correlogram_rows_are_lag_scores_entries(tmp_path):
    rng = np.random.default_rng((930, 0))
    data = rng.standard_normal((80, 3, 4))
    data[1:] += 0.5 * data[:-1]
    series_path = tmp_path / "s.txt"
    mio.write_series(series_path, MatrixSeries(data))
    result_path = tmp_path / "s.json"
    assert _run(["segment", series_path, "--out", result_path]) == 0
    doc = mio.read_result(result_path)
    transformed = MatrixSeries(data @ np.asarray(doc["standardizer"]) @ np.asarray(doc["gamma"]))
    m = 3
    cases = [
        (MatrixSeries(data), ["--threshold", "none"], NoThreshold()),
        (MatrixSeries(data), ["--threshold", "fixed:0.1,0.05"], FixedThreshold(0.1, 0.05)),
        (
            transformed,
            ["--threshold", "cv:3", "--seed", 4, "--gamma", result_path],
            CvThreshold(n_splits=3, seed=4),
        ),
    ]
    for series, flags, threshold in cases:
        # each lag's v level chosen on the scored series, then applied at that lag alone
        rule, centered = _level_rule(threshold, 1), _center(series.data)
        levels = [None if rule is None else rule(centered, h) for h in range(m + 1)]
        per_lag = [NoThreshold() if v is None else FixedThreshold(0.0, v) for v in levels]
        out = tmp_path / "c.csv"
        assert _run(["correlogram", series_path, "--out", out, "--m", m] + flags) == 0
        scores = [lag_scores(series, np.eye(4), h, level)[h] for h, level in enumerate(per_lag)]
        assert np.array_equal(scores, lag_scores(series, np.eye(4), m, threshold))
        want = [
            (i + 1, j + 1, h, float(scores[h][i, j]))
            for i in range(4)
            for j in range(i, 4)
            for h in range(m + 1)
        ]
        assert mio.read_correlogram_csv(out) == want


def test_correlogram_forms_each_full_sample_product_once(tmp_path, full_products):
    # under cross-validation each lag's v level reads the product the lag is scored on
    rng = np.random.default_rng((931, 0))
    series_path = tmp_path / "s.txt"
    mio.write_series(series_path, MatrixSeries(rng.standard_normal((60, 3, 4))))
    formed = full_products()
    m = 4
    argv = ["correlogram", series_path, "--out", tmp_path / "c.csv", "--m", m, "--threshold", "cv:3"]
    assert _run(argv) == 0
    assert formed == {(12, h): 1 for h in range(m + 1)}


def test_replicate_report_layout_and_determinism(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    threaded = tmp_path / "threaded.csv"
    argv = ["replicate", "--example", 1, "--n", "60,100", "--reps", 4, "--seed", 0, "--out"]
    assert _run(argv + [first, "--threads", 1]) == 0
    assert _run(argv + [second, "--threads", 1]) == 0
    assert _run(argv + [threaded, "--threads", 4]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == threaded.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "example,n,reps,correct,incorrect,near_complete,d_bar_median"
    assert len(lines) == 3
    rows = mio.read_report_csv(first)
    assert [(r[0], r[1], r[2]) for r in rows] == [(1, 60, 4), (1, 100, 4)]
    for row in rows:
        # near-complete runs are a sub-count of the incorrect ones
        assert row[3] + row[4] == 1.0
        assert 0.0 <= row[5] <= row[4]


def test_replicate_single_rep_gives_binary_proportions(tmp_path):
    out = tmp_path / "single.csv"
    assert _run(
        ["replicate", "--example", 1, "--n", "100", "--reps", 1, "--seed", 0, "--out", out]
    ) == 0
    row = mio.read_report_csv(out)[0]
    assert row[3] in (0.0, 1.0)
    assert row[4] in (0.0, 1.0)
    assert row[5] in (0.0, 1.0)


def test_report_without_correct_runs_has_empty_median_field(tmp_path):
    # the one example-3 run at n = 50 is not correct, so no median exists
    out = tmp_path / "report.csv"
    argv = ["replicate", "--example", 3, "--n", 50, "--reps", 1, "--seed", 0, "--threads", 1]
    assert _run(argv + ["--out", out]) == 0
    text = out.read_text()
    assert "nan" not in text
    assert text.splitlines()[1].endswith(",")
    (row,) = mio.read_report_csv(out)
    assert row[:5] == (3, 50, 1, 0.0, 1.0)
    assert np.isnan(row[6])


def test_usage_errors_exit_2(tmp_path):
    cases = [
        [],
        ["segment"],
        ["simulate", "--example", "4", "--n", "100", "--out", str(tmp_path / "x")],
        ["segment", "in.txt", "--out", "out.json", "--threshold", "median:3"],
        ["segment", "in.txt", "--out", "out.json", "--threshold", "fixed:1"],
        ["segment", "in.txt", "--out", "out.json", "--threshold", "cv:zero"],
        ["replicate", "--example", "1", "--n", "100", "--reps", "0", "--out", "r.csv"],
        ["replicate", "--example", "1", "--n", "1", "--reps", "2", "--out", "r.csv"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_main_dispatches_through_each_module_level_handler(tmp_path, monkeypatch):
    # main reads each cmd_* name when it runs, so a wrapper bound to that name
    # (as the benchmark tracer binds one) receives the parsed flags
    received = {}
    for command in ("simulate", "segment", "correlogram", "replicate"):
        monkeypatch.setattr(
            cli, f"cmd_{command}", lambda args, command=command: received.setdefault(command, args)
        )
    out = tmp_path / "out"
    argvs = {
        "simulate": ["simulate", "--example", 2, "--n", 80, "--seed", 4, "--out", out],
        "segment": ["segment", "in.txt", "--out", out, "--k0", 3, "--threshold", "cv:4"],
        "correlogram": ["correlogram", "in.txt", "--out", out, "--m", 6, "--gamma", "g.json"],
        "replicate": ["replicate", "--example", 3, "--n", "60,80", "--reps", 2, "--out", out],
    }
    for command, argv in argvs.items():
        assert _run(argv) == 0
        assert received[command].command == command
    assert not out.exists()
    assert (received["simulate"].example, received["simulate"].n) == (2, 80)
    assert received["simulate"].seed == 4
    assert received["segment"].input == "in.txt"
    assert received["segment"].k0 == 3
    assert received["segment"].threshold(5) == CvThreshold(n_splits=4, seed=5)
    assert (received["correlogram"].m, received["correlogram"].gamma) == (6, "g.json")
    assert received["replicate"].n == [60, 80]
    assert (received["replicate"].reps, received["replicate"].threads) == (2, None)


def test_correlogram_resolves_its_threshold_before_reading_the_series(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    argv = ["correlogram", missing, "--out", tmp_path / "out.csv", "--threshold", "cv"]
    assert _run(argv + ["--seed", -1]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidInput",
        "message": "seed must be nonnegative, got -1",
    }
    assert _run(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_correlogram_help_explains_m(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["correlogram", "--help"])
    assert exc.value.code == 0
    help_lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert "--m M largest lag for pair scores" in help_lines


def test_data_errors_exit_3_with_error_record(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert _run(["segment", missing, "--out", tmp_path / "r.json"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "FileNotFoundError"

    bad = tmp_path / "bad.txt"
    bad.write_text("matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0\n")
    assert _run(["segment", bad, "--out", tmp_path / "r.json"]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert record["line"] == 4

    # a width that wraps in int64 is still read exactly
    wrapping = tmp_path / "wrapping.txt"
    wrapping.write_text("matseg,matrix,1\n2,7,7905747460161236407\n1.0\n2.0\n")
    wrapping_out = tmp_path / "wrapping.json"
    assert _run(["segment", wrapping, "--out", wrapping_out]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ParseError"
    assert not wrapping_out.exists()

    # int() would read this header as n=2, p=10, q=1
    digits = tmp_path / "digits.txt"
    rows = "\n".join([",".join(["1.0"] * 10)] * 2) + "\n"
    digits.write_bytes(f"matseg,matrix,1\n\u0662,1_0,1\n{rows}".encode())
    digits_out = tmp_path / "digits.json"
    assert _run(["segment", digits, "--out", digits_out]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ParseError"
    assert record["line"] == 2
    assert not digits_out.exists()

    series_path = tmp_path / "s.txt"
    data = np.random.default_rng(5).standard_normal((40, 2, 3))
    mio.write_series(series_path, MatrixSeries(data))
    result_path = tmp_path / "s.json"
    invalid_values = [
        ["--ratio-shift", "inf"],
        ["--threshold", "fixed:-1,0"],
        ["--threshold", "fixed:nan,0.1"],
        ["--threshold", "fixed:0.1,inf"],
    ]
    for flags in invalid_values:
        assert _run(["segment", series_path, "--out", result_path] + flags) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InvalidInput"
        assert not result_path.exists()

    # a negative seed is refused before numpy's SeedSequence sees it
    out_path = tmp_path / "out"
    negative_seed = [
        ["simulate", "--example", 1, "--n", 60, "--out", out_path],
        ["replicate", "--example", 1, "--n", "60", "--reps", 1, "--out", out_path],
        ["segment", series_path, "--out", out_path, "--threshold", "cv:3"],
        ["correlogram", series_path, "--out", out_path, "--threshold", "cv:3"],
    ]
    for argv in negative_seed:
        assert _run(argv + ["--seed", -1]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InvalidInput"
        assert not out_path.exists()


def _one_error_record(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def test_undecodable_bytes_exit_3_with_one_error_record(tmp_path, capsys):
    series_path = tmp_path / "s.txt"
    data = np.random.default_rng(6).standard_normal((40, 2, 3))
    mio.write_series(series_path, MatrixSeries(data))
    result_path = tmp_path / "s.json"
    assert _run(["segment", series_path, "--out", result_path]) == 0

    bad_series = tmp_path / "bad.txt"
    raw = series_path.read_bytes().splitlines(keepends=True)
    raw[6] = b"\xff" + raw[6]
    bad_series.write_bytes(b"".join(raw))
    document = result_path.read_bytes()
    kind_line = document[: document.index(b'"kind"')].count(b"\n") + 1
    bad_result = tmp_path / "bad.json"
    bad_result.write_bytes(document.replace(b'"kind"', b'"k\xffind"', 1))
    out = tmp_path / "out"
    commands = [
        (["segment", bad_series, "--out", out], 7),
        (["correlogram", bad_series, "--out", out], 7),
        (["correlogram", series_path, "--out", out, "--gamma", bad_result], kind_line),
    ]
    for argv, line in commands:
        assert _run(argv) == 3
        record = _one_error_record(capsys)
        assert (record["error"], record["line"]) == ("ParseError", line)
        assert not out.exists()


def test_empty_payload_gives_one_error_record_and_no_warning(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("matseg,matrix,1\n2,1,2\n")
    out = tmp_path / "r.json"
    for argv in (["segment", empty, "--out", out], ["correlogram", empty, "--out", out]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(argv) == 3
        record = _one_error_record(capsys)
        assert (record["error"], record["line"]) == ("ParseError", 3)
        assert record["reason"] == "expected 2 data lines, found 0"
        assert not out.exists()


def test_overflow_gives_one_error_record_and_no_warning(tmp_path, capsys):
    # sums of squares of a series scaled by 1e200 overflow in the estimators
    huge_path = tmp_path / "huge.txt"
    data = np.random.default_rng((920, 1)).standard_normal((200, 3, 4)) * 1e200
    mio.write_series(huge_path, MatrixSeries(data))
    # the tensor pipeline checks no series of its own before the last mode's
    huge_tensor_path = tmp_path / "huge_tensor.txt"
    data = np.random.default_rng((920, 2)).standard_normal((200, 2, 3, 2)) * 1e200
    mio.write_series(huge_tensor_path, TensorSeries(data))
    commands = [
        ["segment", huge_path, "--out", tmp_path / "r.json"],
        ["segment", huge_path, "--out", tmp_path / "r.json", "--threshold", "cv:3"],
        ["correlogram", huge_path, "--out", tmp_path / "c.csv"],
        ["segment", huge_tensor_path, "--out", tmp_path / "r.json"],
        ["segment", huge_tensor_path, "--out", tmp_path / "r.json", "--threshold", "cv:3"],
    ]
    for argv in commands:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidInput"


def test_degenerate_data_exits_4(tmp_path, capsys):
    const = tmp_path / "const.txt"
    mio.write_series(const, MatrixSeries(np.ones((30, 1, 2))))
    assert _run(["segment", const, "--out", tmp_path / "r.json"]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DegenerateColumn"


def test_degenerate_tensor_mode_is_named_in_the_error_record(tmp_path, capsys):
    data = np.random.default_rng((921, 1)).standard_normal((40, 3, 2, 2))
    data[:, 1] = 1.0
    const = tmp_path / "tensor.txt"
    mio.write_series(const, TensorSeries(data))
    assert _run(["segment", const, "--out", tmp_path / "r.json"]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record == {
        "error": "DegenerateColumn",
        "message": "mode 1: column 2 has zero sample variance",
    }


def test_thread_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv("MATSEG_THREADS", raising=False)
    assert _thread_count(3) == 3
    assert _thread_count(None) >= 1

    monkeypatch.setenv("MATSEG_THREADS", "2")
    assert _thread_count(None) == 2
    assert _thread_count(5) == 5

    monkeypatch.setenv("MATSEG_THREADS", "many")
    out = tmp_path / "r.csv"
    assert _run(
        ["replicate", "--example", 1, "--n", "60", "--reps", 1, "--out", out]
    ) == 3
