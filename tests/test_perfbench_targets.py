"""The span tracer's wrapped names still exist.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by module path
when a traced benchmark pass starts; a renamed or deleted target makes
only the traced pass fail.  This test looks every target up the way
``install`` does, without installing anything, so such a rename fails
here as well.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _load_spans()


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _name, _count in _MODULE.TARGETS],
    ids=lambda value: value,
)
def test_target_resolves_as_install_does(module_name, attr):
    _module, owner, leaf = _MODULE._resolve(module_name, attr)
    raw = owner.__dict__[leaf]
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    assert callable(fn)


def test_trace_set_generation_goes_through_the_traced_name(monkeypatch):
    """``traces.gen`` times ``generate_platform_traces`` as the
    trace-set builder calls it.  A builder that made its traces some
    other way would read ``traces.gen_s = 0`` in every traced run while
    its results stayed correct; this pins one call per trace."""
    from repro.cluster.models import ConstantOverhead, Platform
    from repro.distributions import Weibull
    from repro.simulation import parallel

    calls = []
    real = parallel.generate_platform_traces

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "generate_platform_traces", counting)
    platform = Platform(
        p=4,
        dist=Weibull.from_mtbf(86400.0, 0.7),
        downtime=60.0,
        overhead=ConstantOverhead(600.0),
    )
    shared, publication = parallel._build_trace_set(
        platform, 1e6, seed=7, n_traces=3, t0=0.0, publish=False
    )
    assert publication is None
    assert len(calls) == 3
    assert len(shared.traces) == 3
