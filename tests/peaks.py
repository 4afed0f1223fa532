"""The tracemalloc peak of one call, for the tests' memory bounds."""

import tracemalloc


def traced_peak(call):
    """Run ``call()`` under tracemalloc; returns its result and the peak, in
    bytes, of what was allocated meanwhile. Tracing stops on every path."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
