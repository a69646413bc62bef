"""The package names and files the benchmark relies on.

``perfbench/layers.py`` wraps package functions by name (``install``) and
times a few kernels by calling them (``kernel_rates``), so a deletion in
``src/`` that removes one of them breaks ``perfbench/run.py --trace 1``.
Both run here once, on the benchmark's own fixed inputs. The map workloads
also write an ABC bundle through ``abc.save_state`` and read it back with
the benchmark's own parser, which must accept it.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from drillstab import abc, cli  # noqa: E402
from drillstab.dataio import synthesize  # noqa: E402
from drillstab.reference import REFERENCE_PARAMS, reference_model  # noqa: E402


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


def test_benchmark_bundle_reads_as_the_package_reads_it(tmp_path):
    ds = synthesize(reference_model(3), 1.0, noise_std=0.8, seed=0)
    speeds, torques = ds.calibration_speeds, ds.calibration_torques
    counts = [{1: 30, 2: 30, 3: 30, 4: 30}, {1: 10, 2: 40, 3: 50, 4: 20}]
    workloads.build_bundle(tmp_path, np.random.default_rng(0), speeds,
                           torques, counts)
    checks.abc_bundle(tmp_path, speeds, torques, REFERENCE_PARAMS,
                      workloads.PRIOR_DELTA, 120, np.random.default_rng(1))
    bundle, state = oracle.read_bundle(tmp_path), abc.load_state(tmp_path)
    assert bundle["tolerances"] == state.tolerances
    assert len(bundle["populations"]) == state.n_populations == 2
    for arrays, pop in zip(bundle["populations"], state.populations):
        for got, want in zip(arrays, (pop.kinds, pop.phis, pop.distances)):
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
