"""Every function the benchmark's tracer wraps must still exist.

perfbench/tracing.py replaces symkern functions at the names their callers
look them up by, and raises at install time for a name that is gone.  This
test installs the full tracer, so a refactor that removes or renames a
traced name fails here rather than in a later traced benchmark run.
"""

import os

from symkern import greedy, kernels

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    tracer = Tracer(full=True)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert greedy.mixed2_field is kernels.mixed2_field
