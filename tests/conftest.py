"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on
every run, so a failure seen in CI can be reproduced locally.  The
``traced_peak`` fixture measures the memory peak of one call."""

import os
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def traced_peak():
    """``measure(fn, *args, **kwargs)``: the tracemalloc peak of one call, in
    bytes above what was traced before it; the result is dropped."""
    def measure(fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure
