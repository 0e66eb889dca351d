"""Memory measurement for the tests: the peak of Python-traced allocations
while one call runs."""

from __future__ import annotations

import tracemalloc


def traced_peak(call) -> int:
    """Peak bytes traced by `tracemalloc` while `call()` runs. Allocations
    made outside Python's allocators (a C++ tree's nodes, say) are not
    counted."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak
