"""Whether the matchers use numpy: they never do.

Every matcher has one pure-Python implementation, and nothing in the
package imports numpy. :func:`numpy_enabled` exists for the benchmark
harness, whose environment block (``benchmarks/harness/common.py``)
records it in every result file.
"""


def numpy_enabled() -> bool:
    """Always False: no matcher has a numpy path."""
    return False
