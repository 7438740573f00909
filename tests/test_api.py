"""The package's public names and the functions the benchmark tracer wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import matseg

PIPELINE = {
    "segment",
    "SegmentationConfig",
    "SegmentationResult",
    "NoThreshold",
    "FixedThreshold",
    "CvThreshold",
    "pair_score_matrix",
    "sequential_segment",
    "gen_example",
    "MatrixSeries",
    "TensorSeries",
}
# the error types the CLI's error records name
ERRORS = {
    "MatsegError",
    "InvalidInput",
    "ParseError",
    "NumericalFailure",
    "DegenerateCovariance",
    "DegenerateColumn",
    "DegenerateVariance",
    "InvalidState",
    "ResourceLimit",
}

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_exports_are_the_documented_names():
    assert len(matseg.__all__) == len(set(matseg.__all__))
    assert set(matseg.__all__) == PIPELINE | ERRORS | {"__version__"}
    for name in matseg.__all__:
        assert hasattr(matseg, name), name
    for name in ERRORS:
        assert issubclass(getattr(matseg, name), matseg.MatsegError)


def test_traced_functions_resolve_on_their_modules():
    # the tracer replaces each function by getattr on its module, so every
    # name it lists must stay a module attribute even when src stops calling it
    spec = importlib.util.spec_from_file_location("matseg_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    for module, funcs in tracing.LAYER_STATS.items():
        mod = importlib.import_module(f"matseg.{module}")
        for func in funcs:
            assert callable(getattr(mod, func, None)), f"matseg.{module}.{func}"
