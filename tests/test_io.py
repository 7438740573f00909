"""Round trips and parse failures for every file format the tool emits."""

import json
import math

import numpy as np
import pytest

from matseg import io
from matseg.cli import main
from matseg.errors import InvalidInput, ParseError
from matseg.segmentation import (
    CvThreshold,
    FixedThreshold,
    NoThreshold,
    SegmentationConfig,
    segment,
)
from matseg.series import MatrixSeries, TensorSeries
from matseg.simulation import (
    ExperimentReport,
    ExperimentRow,
    GroundTruth,
    gen_example,
)
from matseg.tensor import sequential_segment
from oracles import brute_read_series


def test_matrix_series_file_layout(tmp_path):
    series = MatrixSeries(
        np.array(
            [
                [[1.5, -2.0], [3.0, 4.25]],
                [[0.5, 0.25], [-1.0, 2.0]],
            ]
        )
    )
    path = tmp_path / "series.txt"
    io.write_series(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "matseg,matrix,1"
    assert lines[1] == "2,2,2"
    assert lines[2] == "1.5,-2.0,3.0,4.25"
    assert lines[3] == "0.5,0.25,-1.0,2.0"
    assert len(lines) == 4


def test_matrix_series_round_trip_exact(tmp_path):
    path = tmp_path / "series.txt"
    for rep in range(30):
        rng = np.random.default_rng((900, rep))
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 6))
        series = MatrixSeries(rng.standard_normal((n, p, q)))
        io.write_series(path, series)
        back = io.read_series(path)
        assert isinstance(back, MatrixSeries)
        assert back.data.tobytes() == series.data.tobytes()


def test_tensor_series_file_layout(tmp_path):
    series = TensorSeries(
        np.array(
            [
                [[1.0, 3.0], [2.0, 4.0]],
                [[5.0, 7.0], [6.0, 8.0]],
            ]
        )
    )
    path = tmp_path / "series.txt"
    io.write_series(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "matseg,tensor,1"
    assert lines[1] == "2,2,2,2"
    # first-mode index varies fastest within each flattened tensor
    assert lines[2] == "1.0,2.0,3.0,4.0"
    assert lines[3] == "5.0,6.0,7.0,8.0"


def test_tensor_series_round_trip_exact(tmp_path):
    path = tmp_path / "series.txt"
    for rep in range(30):
        rng = np.random.default_rng((901, rep))
        order = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(order))
        n = int(rng.integers(2, 9))
        series = TensorSeries(rng.standard_normal((n, *dims)))
        io.write_series(path, series)
        back = io.read_series(path)
        assert isinstance(back, TensorSeries)
        assert back.dims == series.dims
        assert back.data.tobytes() == series.data.tobytes()


def test_write_series_rejects_plain_arrays(tmp_path):
    with pytest.raises(InvalidInput):
        io.write_series(tmp_path / "x.txt", np.zeros((3, 2, 2)))


def _write(path, text):
    path.write_text(text)
    return path


def test_read_series_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, ""))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "nonsense\n"))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,9\n2,1,1\n1.0\n2.0\n"))
    assert exc.value.line == 1
    assert "version" in exc.value.reason

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n2,2\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n1,2,2\n1.0,2.0,3.0,4.0\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0\n"))
    assert exc.value.line == 4

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n2,1,2\n1.0,2.0\nx,4.0\n"))
    assert exc.value.line == 4
    assert "bad float" in exc.value.reason

    # blank lines are skipped but still counted
    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n3,1,2\n1.0,2.0\n\n3.0,4.0\nx,5.0\n"))
    assert exc.value.line == 6
    assert "bad float" in exc.value.reason

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n3,1,2\n1.0,2.0\n3.0,4.0\n"))
    assert exc.value.line == 3

    # 7 * 7905747460161236407 wraps to 1 in int64; the exact width is 3 * 2**64 + 1
    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,matrix,1\n2,7,7905747460161236407\n1.0\n2.0\n"))
    assert exc.value.line == 3
    assert "expected 55340232221128654849 values" in exc.value.reason

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,tensor,1\n4,1,3\n"))
    assert exc.value.line == 2

    # one dimension-line rule for both kinds: n >= 2, r dims (r = 2 for a
    # matrix), each positive; the data lines would fit the widths read
    for text in (
        "matseg,matrix,1\n2,1,2,2\n1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n",
        "matseg,matrix,1\n2,0,2\n\n\n",
        "matseg,matrix,1\n2,2,0\n\n\n",
        "matseg,tensor,1\n2,2,0,3\n\n\n",
        "matseg,tensor,1\n2,3,1,2\n1.0,2.0\n3.0,4.0\n",
        "matseg,tensor,1\n2,2,1,2,1\n1.0,2.0\n3.0,4.0\n",
        "matseg,tensor,1\n1,2,1,2\n1.0,2.0\n",
    ):
        with pytest.raises(ParseError) as exc:
            io.read_series(_write(path, text))
        assert exc.value.line == 2, text

    with pytest.raises(ParseError) as exc:
        io.read_series(_write(path, "matseg,tensor,1\n4,3\n"))
    assert exc.value.line == 2

    # int() reads the first header as n=2, p=10, q=1: an Arabic-Indic two and
    # a digit-group underscore; integers are ASCII digits only
    rows = "\n".join([",".join(["1.0"] * 10)] * 2) + "\n"
    for header in ("\u0662,1_0,1", "2,1_0,1", "2,\u0661\u0660,1"):
        path.write_bytes(f"matseg,matrix,1\n{header}\n{rows}".encode())
        with pytest.raises(ParseError) as exc:
            io.read_series(path)
        assert exc.value.line == 2, header
        assert "bad integer" in exc.value.reason, header

    # a blank field or a trailing comma is named as a token, as a bad digit is
    for header, token in (("", "''"), ("2,1,2,", "''"), ("\u0662,1,2", "'\u0662'")):
        path.write_bytes(f"matseg,matrix,1\n{header}\n1.0,2.0\n3.0,4.0\n".encode())
        with pytest.raises(ParseError) as exc:
            io.read_series(path)
        assert exc.value.line == 2, header
        assert exc.value.reason == f"bad integer: {token}", header


def test_read_series_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    cases = [
        # a line of whitespace only is a data line, and not a float
        ("matseg,matrix,1\n3,1,2\n1.0,2.0\n   \n3.0,4.0\n", 4, "expected 2 values, found 1"),
        ("matseg,matrix,1\n3,1,1\n1.0\n \t\n3.0\n", 4, "bad float"),
        ("matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0,4.0,\n", 4, "expected 2 values, found 3"),
        ("matseg,matrix,1\n2,1,3\n1.0,2.0,\n3.0,4.0,5.0\n", 3, "bad float"),
        ("matseg,matrix,1\n3,1,2\n1.0,2.0\n3.0,4.0\n5.0,6.O\n", 5, "bad float"),
        (
            "matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0,4.0\n5.0,6.0\n",
            3,
            "expected 2 data lines, found 3",
        ),
        # digit-group underscores, which float() accepts, are refused
        ("matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0,1_0\n", 4, "bad float"),
        ("matseg,tensor,1\n2,2,1,2\n1.0,2.0\n3.0,x\n", 4, "bad float"),
    ]
    for text, line, reason in cases:
        with pytest.raises(ParseError) as exc:
            io.read_series(_write(path, text))
        assert exc.value.line == line, text
        assert reason in exc.value.reason, text


def test_read_series_crlf_and_cr_line_ends_are_bit_identical(tmp_path):
    rng = np.random.default_rng((900, 99))
    lf = tmp_path / "lf.txt"
    other = tmp_path / "other.txt"
    for series in (
        MatrixSeries(rng.standard_normal((9, 3, 4))),
        TensorSeries(rng.standard_normal((7, 2, 3, 2))),
    ):
        io.write_series(lf, series)
        for ending in (b"\r\n", b"\r"):
            other.write_bytes(lf.read_bytes().replace(b"\n", ending))
            assert io.read_series(other).data.tobytes() == series.data.tobytes()


def test_every_reader_takes_lf_crlf_and_cr_line_ends(tmp_path):
    # each good file has a blank line between two records; its bad twin has a
    # fault after that blank line, whose line number counts it
    cases = [
        (
            io.read_series,
            "matseg,matrix,1\n2,1,2\n1.0,2.0\n\n3.0,4.0\n",
            "matseg,matrix,1\n2,1,2\n1.0,2.0\n\n3.0,x\n",
            5,
        ),
        (
            io.read_truth,
            "matseg,truth,1\n2,1,1\ngroup,1,2\n\na,1.0,0.5\na,-0.25,2.0\n",
            "matseg,truth,1\n2,1,1\ngroup,1,2\n\na,1.0,0.5\nblob,1\n",
            6,
        ),
        (
            io.read_correlogram_csv,
            "i,j,h,max_abs_corr\n1,1,0,1.0\n\n1,2,0,0.25\n",
            "i,j,h,max_abs_corr\n1,1,0,1.0\n\n1,2,0,x\n",
            4,
        ),
        (
            io.read_report_csv,
            io.REPORT_HEADER + "\n1,100,8,0.5,0.5,0.0,0.1\n\n1,200,8,1.0,0.0,0.0,\n",
            io.REPORT_HEADER + "\n1,100,8,0.5,0.5,0.0,0.1\n\n1,200,8\n",
            4,
        ),
        (
            io.read_result,
            '{"format": "matseg-result",\n\n"kind": "matrix"}\n',
            '{"format": "matseg-result",\n\n"kind": matrix}\n',
            3,
        ),
    ]

    def content(value):
        # a series or truth holds an array, whose bytes repr does not show
        arrays = [getattr(value, name) for name in ("data", "a") if hasattr(value, name)]
        return repr(value), [a.tobytes() for a in arrays]

    path = tmp_path / "file"
    for reader, good, bad, line in cases:
        want = content(reader(_write(path, good)))
        for ending in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(good.encode().replace(b"\n", ending))
            assert content(reader(path)) == want, (reader.__name__, ending)
            path.write_bytes(bad.encode().replace(b"\n", ending))
            with pytest.raises(ParseError) as exc:
                reader(path)
            assert exc.value.line == line, (reader.__name__, ending)


def test_series_containers_share_their_input_rules():
    bad = {
        "nan": np.full((4, 2, 3), np.nan),
        "inf": np.full((4, 2, 3), np.inf),
        "two axes": np.zeros((4, 3)),
        "n = 1": np.zeros((1, 2, 3)),
        "zero dim": np.zeros((4, 0, 3)),
        "zero last dim": np.zeros((4, 2, 0)),
    }
    for data in bad.values():
        for container in (MatrixSeries, TensorSeries):
            with pytest.raises(InvalidInput):
                container(data)
    # a matrix series holds exactly 3 axes; a tensor series may hold more
    with pytest.raises(InvalidInput):
        MatrixSeries(np.zeros((4, 2, 3, 2)))
    assert TensorSeries(np.zeros((4, 2, 3, 2))).dims == (2, 3, 2)
    series = MatrixSeries([[[1, 2, 3]], [[4, 5, 6]]])
    assert series.data.dtype == float and (series.n, series.p, series.q) == (2, 1, 3)


def test_read_series_matches_per_token_oracle(tmp_path):
    paths = []
    for example in (1, 2, 3):
        path = tmp_path / f"ex{example}.txt"
        assert main(["simulate", "--example", str(example), "--n", "300", "--out", str(path)]) == 0
        paths.append(path)
    tensor = tmp_path / "tensor.txt"
    data = np.random.default_rng((900, 98)).standard_normal((50, 3, 4, 5))
    io.write_series(tensor, TensorSeries(data))
    paths.append(tensor)
    for path in paths:
        expected = brute_read_series(path)
        got = io.read_series(path).data
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_extreme_doubles_round_trip(tmp_path):
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308,
              1.7976931348623157e308, -1e308, 1e23, 0.1, -0.1, 1 / 3]
    data = np.array(values).reshape(len(values), 1, 1)
    path = tmp_path / "extreme.txt"
    io.write_series(path, MatrixSeries(data))
    back = io.read_series(path).data
    assert back.tobytes() == data.tobytes()
    assert list(np.signbit(back.ravel())) == [math.copysign(1, v) < 0 for v in values]
    assert brute_read_series(path).tobytes() == data.tobytes()


def test_undecodable_bytes_are_parse_errors(tmp_path):
    path = tmp_path / "bad"
    cases = [
        (io.read_series, b"matseg,matrix,1\n2,1,2\n1.0,2.0\n3.0,4.0\xff\n", 4),
        (io.read_series, b"matseg,matrix\xff,1\n2,1,2\n1.0,2.0\n3.0,4.0\n", 1),
        (io.read_truth, b"matseg,truth,1\n1,1,1\ngroup,1\na,1.0\xff\n", 4),
        (io.read_result, b'{"format": "matseg-result",\n"kind": "\xff"}\n', 2),
        (io.read_correlogram_csv, b"i,j,h,max_abs_corr\n1,1,0,1.0\n1,2,0,0.5\xfe\n", 3),
        (io.read_report_csv, io.REPORT_HEADER.encode() + b"\n1,100,8,0.5,0.5,0.0,0.1\xff\n", 2),
    ]
    for reader, raw, line in cases:
        path.write_bytes(raw)
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert exc.value.line == line, raw
        assert "UTF-8" in exc.value.reason


def test_truth_round_trip(tmp_path):
    path = tmp_path / "series.truth"
    for example in (1, 2, 3):
        rng = np.random.default_rng((902, example))
        _, truth = gen_example(example, 60, rng)
        io.write_truth(path, truth)
        back = io.read_truth(path)
        assert back.example == truth.example
        assert back.partition == truth.partition
        assert back.a.tobytes() == truth.a.tobytes()


def test_truth_file_layout(tmp_path):
    truth = GroundTruth(
        example=1,
        a=np.array([[1.0, 0.5], [-0.25, 2.0]]),
        partition=[[1], [2]],
    )
    path = tmp_path / "t.truth"
    io.write_truth(path, truth)
    lines = path.read_text().splitlines()
    assert lines[0] == "matseg,truth,1"
    assert lines[1] == "2,2,1"
    assert lines[2] == "group,1"
    assert lines[3] == "group,2"
    assert lines[4] == "a,1.0,0.5"
    assert lines[5] == "a,-0.25,2.0"


def test_read_truth_parse_errors(tmp_path):
    path = tmp_path / "bad.truth"

    with pytest.raises(ParseError) as exc:
        io.read_truth(_write(path, "matseg,matrix,1\n"))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        io.read_truth(_write(path, "matseg,truth,1\n2,1\ngroup,1,2\na,1.0,0.0\na,0.0,1.0\n"))
    assert exc.value.line == 2

    # header line only
    with pytest.raises(ParseError) as exc:
        io.read_truth(_write(path, "matseg,truth,1\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        io.read_truth(
            _write(path, "matseg,truth,1\n2,1,1\nblob,1,2\na,1.0,0.0\na,0.0,1.0\n")
        )
    assert exc.value.line == 3
    assert "unknown record" in exc.value.reason

    # declared two groups but only one present
    with pytest.raises(ParseError):
        io.read_truth(_write(path, "matseg,truth,1\n2,2,1\ngroup,1,2\na,1.0,0.0\na,0.0,1.0\n"))

    # declared q=2 but a single transformation row
    with pytest.raises(ParseError):
        io.read_truth(_write(path, "matseg,truth,1\n2,1,1\ngroup,1,2\na,1.0,0.0\n"))

    # int() reads the group as 1, 2 from an Arabic-Indic two
    path.write_bytes("matseg,truth,1\n2,1,1\ngroup,1,\u0662\na,1.0,0.0\na,0.0,1.0\n".encode())
    with pytest.raises(ParseError) as exc:
        io.read_truth(path)
    assert exc.value.line == 3
    assert "bad integer" in exc.value.reason


def test_threshold_doc_round_trip():
    cases = [
        (NoThreshold(), {"mode": "none"}),
        (FixedThreshold(u=0.3, v=0.1), {"mode": "fixed", "u": 0.3, "v": 0.1}),
        (
            CvThreshold(n_splits=7, grid_size=12, seed=42),
            {"mode": "cv", "n_splits": 7, "grid_size": 12, "seed": 42},
        ),
    ]
    for mode, want in cases:
        doc = io._threshold_to_doc(mode)
        # the written keys and their order, not only the values
        assert list(doc.items()) == list(want.items())
        assert io.threshold_from_doc(doc) == mode
    # levels read back as floats and counts as ints, whatever the JSON held
    read = io.threshold_from_doc({"mode": "fixed", "u": 1, "v": "0.5"})
    assert type(read.u) is float and type(read.v) is float
    read = io.threshold_from_doc({"mode": "cv", "n_splits": 3.0, "grid_size": "8", "seed": 1})
    assert read == CvThreshold(n_splits=3, grid_size=8, seed=1)
    assert all(type(x) is int for x in (read.n_splits, read.grid_size, read.seed))
    for name in ("zzz", None, ["cv"], {"cv": 1}):
        with pytest.raises(InvalidInput):
            io.threshold_from_doc({"mode": name})
    with pytest.raises(InvalidInput):
        io.threshold_from_doc({})
    with pytest.raises(InvalidInput):
        io._threshold_to_doc("junk")


def test_config_doc_round_trip():
    configs = [
        SegmentationConfig(),
        SegmentationConfig(k0=5, m=3, c0=0.6, ratio_shift=1.0),
        SegmentationConfig(threshold=FixedThreshold(u=1 / 3, v=0.05)),
        SegmentationConfig(threshold=CvThreshold(n_splits=4, grid_size=8, seed=9)),
    ]
    for cfg in configs:
        assert io.config_from_doc(io.config_to_doc(cfg)) == cfg
    # the written keys, their order and their bytes
    doc = io.config_to_doc(configs[3])
    assert list(doc) == ["k0", "m", "c0", "ratio_shift", "threshold", "eps"]
    assert list(doc["threshold"]) == ["mode", "n_splits", "grid_size", "seed"]
    assert json.dumps(doc) == (
        '{"k0": 2, "m": 10, "c0": 0.75, "ratio_shift": null, "threshold": '
        '{"mode": "cv", "n_splits": 4, "grid_size": 8, "seed": 9}, "eps": 1e-10}'
    )
    assert json.dumps(io.config_to_doc(configs[1])) == (
        '{"k0": 5, "m": 3, "c0": 0.6, "ratio_shift": 1.0, "threshold": {"mode": "none"}, '
        '"eps": 1e-10}'
    )


def test_matrix_result_document_round_trip(tmp_path):
    rng = np.random.default_rng((903, 0))
    series, _ = gen_example(1, 120, rng)
    cfg = SegmentationConfig()
    result = segment(series, cfg)
    doc = io.result_document(cfg, matrix_result=result)
    assert doc["kind"] == "matrix"
    assert doc["groups"] == result.groups
    assert doc["selected_edges"] == result.selected_edges
    path = tmp_path / "result.json"
    io.write_result(path, doc)
    assert io.read_result(path) == doc
    standardizer, gamma = io.read_matrix_maps(path)
    assert standardizer.tobytes() == result.standardizer.tobytes()
    assert gamma.tobytes() == result.gamma.tobytes()


def test_fixed_threshold_result_document_round_trip(tmp_path):
    rng = np.random.default_rng((903, 1))
    series, _ = gen_example(1, 120, rng)
    cfg = SegmentationConfig(threshold=FixedThreshold(u=0.1, v=0.05))
    result = segment(series, cfg)
    doc = io.result_document(cfg, matrix_result=result)
    assert doc["u_lag0"] is not None
    path = tmp_path / "result.json"
    io.write_result(path, doc)
    back = io.read_result(path)
    assert back == doc
    assert io.config_from_doc(back["config"]) == cfg


def test_tensor_result_document_round_trip(tmp_path):
    rng = np.random.default_rng((903, 2))
    series = TensorSeries(rng.standard_normal((60, 2, 3)))
    cfg = SegmentationConfig(m=2)
    results, _ = sequential_segment(series, cfg)
    doc = io.result_document(cfg, mode_results=results)
    assert doc["kind"] == "tensor"
    assert len(doc["modes"]) == 2
    path = tmp_path / "result.json"
    io.write_result(path, doc)
    assert io.read_result(path) == doc
    with pytest.raises(InvalidInput, match="only matrix result documents"):
        io.read_matrix_maps(path)


def test_result_document_requires_payload():
    with pytest.raises(InvalidInput):
        io.result_document(SegmentationConfig())


def test_read_result_parse_errors(tmp_path):
    path = tmp_path / "bad.json"

    with pytest.raises(ParseError):
        io.read_result(_write(path, "{not json"))

    with pytest.raises(ParseError) as exc:
        io.read_result(_write(path, "[1, 2]\n"))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        io.read_result(_write(path, '{"format": "other"}\n'))
    assert exc.value.line == 1


def test_correlogram_csv_round_trip(tmp_path):
    rows = [
        (1, 1, 0, 1.0),
        (1, 2, 0, 0.25),
        (1, 2, 3, 1 / 3),
        (2, 2, 1, 0.123456789012345678),
    ]
    path = tmp_path / "corr.csv"
    io.write_correlogram_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,h,max_abs_corr"
    assert lines[1] == "1,1,0,1.0"
    assert len(lines) == 5
    assert io.read_correlogram_csv(path) == rows


def test_read_correlogram_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"

    with pytest.raises(ParseError) as exc:
        io.read_correlogram_csv(_write(path, "a,b\n"))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        io.read_correlogram_csv(_write(path, "i,j,h,max_abs_corr\n1,2,0\n"))
    assert exc.value.line == 2

    with pytest.raises(ParseError) as exc:
        io.read_correlogram_csv(_write(path, "i,j,h,max_abs_corr\n1,x,0,0.5\n"))
    assert exc.value.line == 2


_CORRELOGRAM, _REPORT = "i,j,h,max_abs_corr", io.REPORT_HEADER


@pytest.mark.parametrize(
    "reader, header, record, reason",
    [
        (io.read_correlogram_csv, _CORRELOGRAM, "1,2,0", "expected 4 values, found 3"),
        (io.read_correlogram_csv, _CORRELOGRAM, "x,2,0,y", "bad integer: 'x'"),
        (io.read_correlogram_csv, _CORRELOGRAM, "1,2,\u0663,0.5", "bad integer: '\u0663'"),
        (
            io.read_correlogram_csv,
            _CORRELOGRAM,
            "1,2,0,y",
            "bad float: could not convert string 'y' to float64",
        ),
        (io.read_correlogram_csv, _CORRELOGRAM, "1,2,0,", "bad float: no value"),
        (io.read_report_csv, _REPORT, "1,100,8,0.5,0.5,0.0", "expected 7 values, found 6"),
        (io.read_report_csv, _REPORT, "1,1_00,8,zz,,0.0,", "bad integer: '1_00'"),
        (
            io.read_report_csv,
            _REPORT,
            "1,100,8,zz,,0.0,",
            "bad float: could not convert string 'zz' to float64",
        ),
        # only the median may be empty
        (io.read_report_csv, _REPORT, "1,100,8,0.5,,0.0,0.1", "bad float: no value"),
    ],
)
def test_numeric_record_fault_is_the_first_rule_broken(tmp_path, reader, header, record, reason):
    # field count, then the three integers, then the floats in order
    path = _write(tmp_path / "bad.csv", f"{header}\n\n{record}\n")
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert (exc.value.line, exc.value.reason) == (3, reason)


def test_report_csv_round_trip(tmp_path):
    rows = [
        ExperimentRow(
            example=1,
            n=100,
            reps=8,
            n_correct=6,
            n_near_complete=1,
            n_incorrect=1,
            n_failed=0,
            d_bar_mean=0.21,
            d_bar_q1=0.1,
            d_bar_median=0.123456789012345678,
            d_bar_q3=0.3,
        ),
        ExperimentRow(
            example=1,
            n=200,
            reps=8,
            n_correct=0,
            n_near_complete=0,
            n_incorrect=8,
            n_failed=0,
            d_bar_mean=float("nan"),
            d_bar_q1=float("nan"),
            d_bar_median=float("nan"),
            d_bar_q3=float("nan"),
        ),
    ]
    report = ExperimentReport(example=1, seed=0, config=SegmentationConfig(), rows=rows)
    path = tmp_path / "report.csv"
    io.write_report_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "example,n,reps,correct,incorrect,near_complete,d_bar_median"
    assert len(lines) == 3
    # a cell with no correct run has no median: an empty field, not nan
    assert lines[2] == "1,200,8,0.0,1.0,0.0,"

    back = io.read_report_csv(path)
    assert len(back) == 2
    for parsed, row in zip(back, rows):
        assert parsed[:3] == (row.example, row.n, row.reps)
        assert parsed[3] == row.correct_prop
        assert parsed[4] == row.incorrect_prop
        assert parsed[5] == row.near_complete_prop
        if math.isnan(row.d_bar_median):
            assert math.isnan(parsed[6])
        else:
            assert parsed[6] == row.d_bar_median


def test_read_report_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"

    with pytest.raises(ParseError) as exc:
        io.read_report_csv(_write(path, "wrong,header\n"))
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        io.read_report_csv(
            _write(path, "example,n,reps,correct,incorrect,near_complete,d_bar_median\n1,100\n")
        )
    assert exc.value.line == 2
