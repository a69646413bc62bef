"""The package names the benchmark resolves in a traced run.

``perfbench/layers.py`` wraps package functions by name (``install``) and
times a few kernels by calling them (``kernel_rates``), so a deletion in
``src/`` that removes one of them breaks ``perfbench/run.py --trace 1``.
Both run here once, on the benchmark's own fixed inputs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

from drillstab import abc, cli  # noqa: E402


def test_install_wraps_the_traced_functions():
    originals = (cli.fit, abc.run)
    tracer = Tracer("names")
    try:
        layers.install(tracer)
        assert cli.fit.__wrapped__ is originals[0]
        assert abc.run.__wrapped__ is originals[1]
    finally:
        tracer.restore()
    assert (cli.fit, abc.run) == originals


def test_kernel_rates_call_every_kernel(monkeypatch):
    calls = []

    def once(fn, work, *args, **kwargs):
        fn()
        calls.append(work)
        return float(work)

    monkeypatch.setattr(layers, "_rate", once)
    rates = layers.kernel_rates(np.linspace(0.5, 15.0, 40))
    assert len(calls) == len(rates) > 0
    assert set(rates) <= set(layers.UNITS)
