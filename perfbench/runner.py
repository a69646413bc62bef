"""One benchmark run: set-up, timed rounds, checks, and the result object."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import layers
from checks import CheckFailed
from tracing import Tracer
from workloads import ROUND_METRICS, WORKLOADS, Bench, StageFailed

SETUP_REPEATS = 3
# name -> unit of the end-to-end metrics, in the order they are printed
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "fit_s": "s", "abc_s": "s",
             "map_deterministic_s": "s", "map_stochastic_s": "s",
             "map_mixture_s": "s", "simulate_s": "s"}


def _median_times(rounds: list[dict]) -> dict[str, float]:
    return {m: statistics.median(r[m] for r in rounds) for m in ROUND_METRICS}


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int,
        import_s: float, tmp_root: Path, out_root: Path, root: Path, log) -> dict:
    """Run one workload and return the result object to print.

    Rounds repeat until the next one would end after ``seconds``; at least
    one runs. With ``trace`` the second round is traced, the others give the
    untraced baseline the tracing overhead is measured against.
    """
    wl = WORKLOADS[workload]()
    tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None
    b = Bench(seed, threads)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    setup_times, rounds, traced, completed = [], [], None, False
    try:
        for rep in range(SETUP_REPEATS):
            d = tmp / f"setup{rep}"
            last = rep == SETUP_REPEATS - 1
            if tracer is not None and last:
                layers.install(tracer)
                b.tracer, tracer.tag = tracer, "setup"
            t0 = time.perf_counter()
            try:
                inputs = wl.setup(b, d)
            finally:
                if b.tracer is not None:
                    tracer.restore()
                    b.tracer, tracer.tag = None, None
            setup_times.append(time.perf_counter() - t0)
            if not last:
                shutil.rmtree(d)
        log(f"set-up {[round(t, 3) for t in setup_times]} s, imports {import_s:.3f} s")
        wl.setup_checks(b, inputs)

        start = time.perf_counter()
        while True:
            k = len(rounds) + (traced is not None)
            traced_round = tracer is not None and k == 1
            b.times.clear()
            if traced_round:
                layers.install(tracer)
                b.tracer = tracer
            t0 = time.perf_counter()
            try:
                with tracer.span("round") if traced_round else nullcontext():
                    wl.round(b, inputs, tmp / f"round{k}")
            finally:
                if traced_round:
                    tracer.restore()
                    b.tracer = None
            wall = time.perf_counter() - t0
            shutil.rmtree(tmp / f"round{k}")
            if traced_round:
                traced = dict(b.times)
            else:
                rounds.append(dict(b.times))
            log(f"round {k}{' (traced)' if traced_round else ''}: {wall:.2f} s "
                + " ".join(f"{m}={b.times[m]:.3f}" for m in ROUND_METRICS))
            done = len(rounds) + (traced is not None)
            if done >= (2 if trace else 1) and \
                    time.perf_counter() - start + wall > seconds:
                break
        completed = True
    except StageFailed:
        pass
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)

    b.check("threads closed", _only_main_thread)
    metrics: dict[str, dict] = {}
    if completed and not trace:
        values = _median_times(rounds)
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in E2E_UNITS.items()}
    elif completed:
        values = layers.kernel_rates(inputs["data"][0][1])
        values.update(layers.span_metrics(tracer))
        values["src_lines"] = layers.src_lines(root)
        base = sum(_median_times(rounds).values())
        values["trace.overhead_pct"] = 100.0 * (sum(traced.values()) - base) / base
        metrics = {m: {"value": values[m], "unit": u}
                   for m, u in layers.UNITS.items()}
        out_root.mkdir(exist_ok=True)
        path = out_root / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"run": tracer.run_id, "spans": tracer.spans,
                                    "metrics": metrics}, indent=1) + "\n")
        log(f"spans written to {path}")
    for err in b.errors:
        log(err)
    return {"correct": completed and b.check_failures == 0,
            "attempted": b.attempted, "failed": b.failed, "metrics": metrics}


def _only_main_thread() -> None:
    others = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if others:
        raise CheckFailed(f"threads still running: {others}")
