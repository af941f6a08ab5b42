import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def peak_arrays():
    """peak_arrays(q, fn) runs fn() under tracemalloc and returns its traced
    peak in q-long int64 arrays of 8q bytes each, with fn's result.  Lazy
    field tables that fn reads must be built first, or the peak counts them."""

    def measure(q: int, fn):
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * q), result

    return measure
