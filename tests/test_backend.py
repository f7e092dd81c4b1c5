"""Backend choice on :class:`repro.core.expected_coverage.SelectionEvaluator`.

The evaluator runs pure python unless the caller explicitly asks for the
``numpy`` backend; there is no environment variable, process-wide
override or pool-size cutover that could pick numpy implicitly.
"""

from __future__ import annotations

import importlib.util
import math

import pytest

from repro.core.coverage_index import CoverageIndex
from repro.core.expected_coverage import SelectionEvaluator
from repro.core.geometry import Point
from repro.core.poi import PoIList

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)


def _index() -> CoverageIndex:
    return CoverageIndex(
        PoIList.from_points([Point(0.0, 0.0)]), effective_angle=math.radians(30.0)
    )


class TestSelectionEvaluatorResolution:
    def test_default_backend_is_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        evaluator = SelectionEvaluator(_index(), (), 0.5)
        assert evaluator.backend == "python"

    def test_explicit_python_backend(self):
        evaluator = SelectionEvaluator(_index(), (), 0.5, backend="python")
        assert evaluator.backend == "python"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SelectionEvaluator(_index(), (), 0.5, backend="fortran")

    @needs_numpy
    def test_no_hint_keeps_numpy(self):
        evaluator = SelectionEvaluator(_index(), (), 0.5, backend="numpy")
        assert evaluator.backend == "numpy"
