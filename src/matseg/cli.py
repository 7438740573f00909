"""Command line interface: simulate, segment, correlogram and replicate."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io as mio
from .errors import (
    DegenerateColumn,
    DegenerateCovariance,
    DegenerateVariance,
    InvalidInput,
    InvalidState,
    MatsegError,
    NumericalFailure,
    ParseError,
)
from .segmentation import (
    CvThreshold,
    FixedThreshold,
    NoThreshold,
    SegmentationConfig,
    lag_scores,
    segment,
)
from .series import MatrixSeries, TensorSeries
from .simulation import gen_example, run_experiment
from .tensor import sequential_segment

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_NUMERICAL_ERRORS = (
    NumericalFailure,
    DegenerateCovariance,
    DegenerateColumn,
    DegenerateVariance,
    InvalidState,
)


def _parse_threshold_spec(spec: str):
    """Validate a --threshold value; returns the mode as a function of the seed."""
    if spec == "none":
        return lambda seed: NoThreshold()
    if spec.startswith("fixed:"):
        parts = spec[len("fixed:") :].split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected fixed:U,V, got {spec!r}")
        try:
            u, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad fixed threshold values in {spec!r}")
        return lambda seed: FixedThreshold(u=u, v=v)
    if spec == "cv":
        return lambda seed: CvThreshold(seed=seed)
    if spec.startswith("cv:"):
        try:
            splits = int(spec[len("cv:") :])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad split count in {spec!r}")
        if splits < 1:
            raise argparse.ArgumentTypeError("cv split count must be positive")
        return lambda seed: CvThreshold(n_splits=splits, seed=seed)
    raise argparse.ArgumentTypeError(f"threshold must be none, fixed:U,V or cv[:N], got {spec!r}")


def _parse_n_list(spec: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad length list {spec!r}")
    if not values or any(v < 2 for v in values):
        raise argparse.ArgumentTypeError(f"bad length list {spec!r}")
    return values


def _positive_int(tok: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {tok!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {tok!r}")
    return value


def _config_from_args(args) -> SegmentationConfig:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(SegmentationConfig)}
    return SegmentationConfig(**{**values, "threshold": args.threshold(args.seed)})


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threshold", type=_parse_threshold_spec, default="none", help="none, fixed:U,V or cv[:N]"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="nonnegative seed of the cv splits; for replicate, "
        "also the root seed of every replication's series"
    )


def _add_m_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--m", type=int, default=SegmentationConfig().m, help="largest lag for pair scores"
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    _add_threshold_flags(parser)
    defaults = SegmentationConfig()
    parser.add_argument("--k0", type=int, default=defaults.k0, help="lags in the eigen statistic")
    _add_m_flag(parser)
    parser.add_argument("--c0", type=float, default=defaults.c0, help="ratio-rule search fraction")
    parser.add_argument(
        "--ratio-shift",
        type=float,
        default=defaults.ratio_shift,
        help="additive stabilizer for the ratio rule (default: none)",
    )
    parser.add_argument("--eps", type=float, default=defaults.eps, help="eigenvalue floor")


def _thread_count(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get("MATSEG_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidInput(f"MATSEG_THREADS must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


def cmd_simulate(args: argparse.Namespace) -> None:
    """Generate one simulated series and its truth sidecar."""
    if args.seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng((int(args.seed), int(args.example), int(args.n)))
    series, truth = gen_example(args.example, args.n, rng)
    mio.write_series(args.out, series)
    mio.write_truth(args.truth_out if args.truth_out else args.out + ".truth", truth)


def cmd_segment(args: argparse.Namespace) -> None:
    """Segment a series file and write the result document."""
    cfg = _config_from_args(args)
    series = mio.read_series(args.input)
    if isinstance(series, TensorSeries):
        results, _ = sequential_segment(series, cfg)
        doc = mio.result_document(cfg, mode_results=results)
    else:
        doc = mio.result_document(cfg, matrix_result=segment(series, cfg))
    mio.write_result(args.out, doc)


def cmd_correlogram(args: argparse.Namespace) -> None:
    """Write the per-lag maximal absolute correlations of every column pair.

    These are the pair scores of the segmentation broken down by lag
    (:func:`matseg.segmentation.lag_scores`), taken on the series itself or,
    given a result document (``--gamma``), on its transformed series.
    """
    threshold = args.threshold(args.seed)
    series = mio.read_series(args.input)
    if not isinstance(series, MatrixSeries):
        raise InvalidInput("the correlogram command requires a matrix series")
    q, data = series.q, series.data
    if args.gamma is not None:
        standardizer, gamma = mio.read_matrix_maps(args.gamma)
        if standardizer.shape != (q, q) or gamma.shape != (q, q):
            raise InvalidInput("result document dimensions do not match the series")
        data = data @ standardizer @ gamma
    scores = lag_scores(MatrixSeries(data), np.eye(q), args.m, threshold)
    rows = [
        (i + 1, j + 1, h, float(scores[h, i, j]))
        for i in range(q)
        for j in range(i, q)
        for h in range(args.m + 1)
    ]
    mio.write_correlogram_csv(args.out, rows)


def cmd_replicate(args: argparse.Namespace) -> None:
    """Run replications and write the aggregate report."""
    cfg, threads = _config_from_args(args), _thread_count(args.threads)
    report = run_experiment(args.example, args.n, args.reps, cfg, seed=args.seed, threads=threads)
    mio.write_report_csv(args.out, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matseg",
        description="Segment matrix- and tensor-valued time series into uncorrelated column groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a benchmark series")
    sim.set_defaults(run=cmd_simulate)
    sim.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--truth-out", default=None)

    seg = sub.add_parser("segment", help="segment a series file")
    seg.set_defaults(run=cmd_segment)
    seg.add_argument("input")
    seg.add_argument("--out", required=True)
    _add_config_flags(seg)

    cor = sub.add_parser("correlogram", help="per-pair maximal absolute correlations")
    cor.set_defaults(run=cmd_correlogram)
    cor.add_argument("input")
    cor.add_argument("--out", required=True)
    _add_m_flag(cor)
    cor.add_argument("--gamma", default=None, help="result document whose transformation to apply")
    _add_threshold_flags(cor)

    rep = sub.add_parser("replicate", help="replicate a benchmark scenario")
    rep.set_defaults(run=cmd_replicate)
    rep.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    rep.add_argument("--n", type=_parse_n_list, required=True, help="comma-separated lengths")
    rep.add_argument("--reps", type=_positive_int, required=True)
    rep.add_argument("--threads", type=int, default=None)
    rep.add_argument("--out", required=True)
    _add_config_flags(rep)

    return parser


def _report_error(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        record["line"] = exc.line
        record["reason"] = exc.reason
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    # built per call, so each subcommand runs whatever its cmd_* name holds now
    args = build_parser().parse_args(argv)
    try:
        # an overflow in the estimators ends in a typed error below, so
        # numpy's own warnings would only print ahead of the error record
        with np.errstate(over="ignore", invalid="ignore"):
            args.run(args)
    except _NUMERICAL_ERRORS as exc:
        _report_error(exc)
        return EXIT_NUMERICAL
    except (MatsegError, OSError) as exc:
        _report_error(exc)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
