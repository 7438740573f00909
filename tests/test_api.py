"""The package's public names, the functions the benchmark tracer wraps, and numpy as its
only runtime dependency."""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
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

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

# every entry point once, on small inputs, in a fresh interpreter
NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from matseg import (
        CvThreshold, SegmentationConfig, TensorSeries, gen_example, segment,
        sequential_segment,
    )
    from matseg.cli import main
    from matseg.simulation import run_experiment

    series, _ = gen_example(1, 200, np.random.default_rng(0))
    segment(series)
    segment(series, SegmentationConfig(threshold=CvThreshold(n_splits=3)))
    sequential_segment(TensorSeries(np.random.default_rng(1).standard_normal((60, 2, 3, 2))))
    run_experiment(1, [60], 2, threads=1)
    for argv in (
        ["simulate", "--example", "1", "--n", "100", "--out", "s.txt"],
        ["segment", "s.txt", "--out", "s.json"],
        ["correlogram", "s.txt", "--out", "c.csv", "--gamma", "s.json"],
        ["replicate", "--example", "1", "--n", "60", "--reps", "2", "--threads", "1",
         "--out", "r.csv"],
    ):
        assert main(argv) == 0, argv
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded[:5]
    """
)


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


def test_no_scipy_is_loaded_at_run_time(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
