"""Benchmark of the loewner library: one process, one caller, closed loop.

    python3 bench/run.py --workload hull --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.  Ops
of the workload (``workloads.py``) run one after another, round-robin, until
``--seconds`` have passed.  Each op is timed around the user-facing call only
and its output is checked against an oracle afterwards.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced passes over the op list and
prints the per-layer metrics, including the tracing overhead.  The last line
of stdout is one JSON object; the lines before it are a human-readable
report.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 7

#: time a short op may repeat for in one round of the op list
ROUND_SHARE_S = 0.25

#: iterations of one machine-speed probe
PROBE_ITERS = 3000
#: the probe's time in the fast state of the calibration host (2 shared cores,
#: Python 3.11); reported op times are rescaled to this speed
PROBE_NOMINAL_S = 3.5e-4
#: probes taken right before and right after each timed call
PROBES_AROUND = 5
#: interval of the probes taken while a timed call runs
PROBE_INTERVAL_S = 0.025


def _probe() -> float:
    """Wall time of a fixed pure-Python complex-arithmetic loop."""
    start = time.perf_counter()
    z = 0j
    for _ in range(PROBE_ITERS):
        z = 0.5 * z * z + 0.25j
    return time.perf_counter() - start


class SpeedProbe:
    """Samples machine speed around and during one call.

    On a host with shared cores, speed shifts by up to 1.8x for seconds at a
    time (2-core calibration host), so a wall time alone mostly measures when
    it was taken.
    The probe times a fixed loop every ``PROBE_INTERVAL_S`` from a SIGALRM
    handler while the call runs (and before and after it, for calls too short
    to be sampled).  :meth:`rescale` removes the handler's time from the
    call's wall time and rescales it to the speed where the loop takes
    ``PROBE_NOMINAL_S``.
    """

    def __init__(self):
        self.around = []
        self.during = []
        self.stolen = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.during.append(_probe())
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        self.around += [_probe() for _ in range(PROBES_AROUND)]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.around += [_probe() for _ in range(PROBES_AROUND)]

    def rescale(self, wall: float) -> float:
        speed = statistics.median(self.during or self.around)
        return (wall - self.stolen) * PROBE_NOMINAL_S / speed


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _set_up(workload: str, seed: int, out_dir: Path):
    """Import the library and build the workload's inputs, several times.

    numpy is imported once beforehand: it is the runtime every caller pays
    for, not the library's set-up.  Each repeat drops every ``loewner``
    module, so module-level work in the library is paid again each time.
    Returns the last library, its op list and the median set-up time,
    rescaled like the op times.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "loewner" or m.startswith("loewner.")]:
            del sys.modules[name]
        with SpeedProbe() as probe:
            start = time.perf_counter()
            lib = importlib.import_module("loewner")
            importlib.import_module("loewner.cli")
            ops = workloads.build(lib, workload, seed, out_dir)
            wall = time.perf_counter() - start
        times.append(probe.rescale(wall))
    if Path(lib.__file__).resolve().parent != ROOT / "src" / "loewner":
        raise SystemExit(f"loewner imported from {lib.__file__}, not from this checkout")
    return lib, ops, statistics.median(times)


class Ledger:
    """Attempted and failed calls, and which ops ended OK."""

    def __init__(self, ops):
        self.attempted = 0
        self.failed = 0
        self.ok = {op.name: True for op in ops}
        self.expected = {}

    def fail(self, op, why: str):
        self.failed += 1
        self.ok[op.name] = False
        print(f"FAIL {op.name}: {why}", file=sys.stderr)


def _run_known(op, ledger: Ledger):
    """Run a known-failure input once; it must fail with its recorded class or succeed correctly."""
    ledger.attempted += 1
    try:
        out = op.call()
    except Exception as exc:  # noqa: BLE001 -- the failure class is the result
        if type(exc).__name__ == op.expect:
            ledger.ok[op.name] = False
            ledger.expected[op.name] = f"{type(exc).__name__}: {exc}"
        else:
            ledger.fail(op, f"expected {op.expect}, got {type(exc).__name__}: {exc}")
        return
    try:
        op.check(out)
    except Exception as exc:  # noqa: BLE001
        ledger.fail(op, f"now succeeds but misses its oracle: {exc}")


def _call(op, ledger: Ledger):
    """Call ``op`` once; returns (wall time, output), or None if it raised."""
    ledger.attempted += 1
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception:  # noqa: BLE001 -- reported, and the run goes on
        ledger.fail(op, traceback.format_exc())
        return None
    return time.perf_counter() - start, out


def _checked(op, out, ledger: Ledger) -> bool:
    try:
        op.check(out)
    except Exception:  # noqa: BLE001
        ledger.fail(op, traceback.format_exc())
        return False
    return True


def _timed_call(op, ledger: Ledger):
    """Call and check ``op`` once; returns its wall time, or None if it failed."""
    got = _call(op, ledger)
    if got is None or not _checked(op, got[1], ledger):
        return None
    return got[0]


def _measure(ops, ledger: Ledger, seconds: float):
    """Round-robin over ``ops`` until ``seconds`` pass.

    Returns op name -> rescaled times and op name -> wall times.  In a round,
    an op shorter than ``ROUND_SHARE_S`` repeats until it has used about that
    long, so short ops get enough samples.  An op starts only if its median
    wall time still fits before the deadline, so a run ends close to
    ``seconds``; every op runs at least once.
    """
    samples = {op.name: [] for op in ops}
    walls = {op.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    started = True
    while started:
        started = False
        for op in ops:
            wall = walls[op.name]
            reps = max(1, int(ROUND_SHARE_S / statistics.median(wall))) if wall else 1
            for _ in range(reps):
                if not ledger.ok[op.name] or (
                        wall and time.perf_counter() + statistics.median(wall) > deadline):
                    break
                with SpeedProbe() as probe:
                    got = _call(op, ledger)
                if got is not None and _checked(op, got[1], ledger):
                    samples[op.name].append(probe.rescale(got[0]))
                    wall.append(got[0])
                    started = True
    return samples, walls


def _traced_pass(ops, ledger: Ledger, tracer: Tracer) -> dict:
    """One pass over ``ops`` with the tracer installed; outputs are checked after it."""
    tracer.install()
    tracer.begin_pass()
    done = []
    try:
        for op in ops:
            if not ledger.ok[op.name]:
                continue
            tracer.op = op.name
            with tracer.span(op.layer, "op"):
                got = _call(op, ledger)
            if got is not None:
                done.append((op, got))
    finally:
        tracer.remove()
    stats = tracer.end_pass()
    stats.op_time = {op.name: elapsed for op, (elapsed, out) in done
                     if _checked(op, out, ledger)}
    return stats


def _layer_metrics(stats) -> dict:
    """Per-layer metrics of one traced pass."""
    s = stats.sum

    def per(total, calls):
        return total / calls if calls else 0.0

    rhs = stats.totals["rhs"]
    flows_self = stats.layer_self.get("flows", 0.0)
    m = {
        "flows.rhs_evals": rhs,
        "flows.rhs_us": per(flows_self * 1e6, rhs),
        "flows.forward.swallowed_rhs_per_call": per(s("flow_forward.swallowed", "rhs"),
                                                    s("flow_forward.swallowed", "calls")),
        "flows.forward.alive_rhs_per_call": per(s("flow_forward.alive", "rhs"),
                                                s("flow_forward.alive", "calls")),
        "flows.welding.rhs_evals": s("welding", "u"),
        "flows.inverse_map.rhs_per_call": per(s("inverse_map", "rhs"), s("inverse_map", "calls")),
        "flows.reverse.rhs_per_call": per(s("flow_reverse", "rhs"), s("flow_reverse", "calls")),
        "flows.reverse_anti.rhs_per_call": per(s("flow_reverse_anti", "rhs"),
                                               s("flow_reverse_anti", "calls")),
        "transforms.map_evals": stats.totals["map"],
        "transforms.stieltjes_nodes_per_s": per(s("invert_stieltjes", "nodes"),
                                                s("invert_stieltjes", "time")),
        "transforms.empirical_eval_us": per(s("invert_stieltjes", "time", "empirical") * 1e6,
                                            s("invert_stieltjes", "incl_map", "empirical")),
        "transforms.closed_eval_us": per(s("invert_stieltjes", "time", "density") * 1e6,
                                         s("invert_stieltjes", "incl_map", "density")),
        "transforms.atoms_found": s("invert_stieltjes", "atoms"),
        "convolve.leaf_evals_per_node": per(s("materialize", "incl_leaf", "convolve"),
                                            s("materialize", "incl_map", "convolve")),
        "evolution.measure_s": s("measure", "time"),
        "cli.self_ms": stats.layer_self.get("cli", 0.0) * 1e3,
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = stats.layer_self.get(layer, 0.0)
    return m


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def _report_ops(ops, samples, walls=None):
    head = f"{'op':<20}{'role':<8}{'n':>4}{'median_ms':>12}{'q1_ms':>12}{'q3_ms':>12}"
    print(head + (f"{'wall_ms':>12}" if walls else ""))
    for op in ops:
        times = samples.get(op.name) or []
        if not times:
            continue
        q1, q2, q3 = (statistics.quantiles(times, n=4) if len(times) > 1 else times * 3)
        line = (f"{op.name:<20}{op.role:<8}{len(times):>4}{q2 * 1e3:>12.3f}"
                f"{q1 * 1e3:>12.3f}{q3 * 1e3:>12.3f}")
        if walls:
            line += f"{statistics.median(walls[op.name]) * 1e3:>12.3f}"
        print(line)


def _end_to_end(ops, ledger, samples, setup_s) -> dict:
    role_ms = {}
    for op in ops:
        if op.role != "known":
            role_ms.setdefault(op.role, 0.0)
            role_ms[op.role] += _median_or_zero(samples[op.name]) * 1e3
    return {
        "setup_s": setup_s,
        "ok_frac": sum(ledger.ok.values()) / len(ledger.ok),
        "readme_ms": role_ms["readme"],
        "seeded_ms": role_ms["seeded"],
        "fixed_ms": role_ms["fixed"],
    }


def _per_layer(ops, ledger, lib, seconds) -> dict:
    """Alternate traced and untraced passes until ``seconds`` pass (at least one each)."""
    tracer = Tracer(lib)
    traced, plain = [], {op.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    pass_time = [0.0, 0.0]  # last traced, last untraced
    n = 0
    while n < 2 or time.perf_counter() + pass_time[n % 2] <= deadline:
        start = time.perf_counter()
        if n % 2 == 0:
            traced.append(_traced_pass(ops, ledger, tracer))
        else:
            for op in ops:
                if ledger.ok[op.name]:
                    elapsed = _timed_call(op, ledger)
                    if elapsed is not None:
                        plain[op.name].append(elapsed)
        pass_time[n % 2] = time.perf_counter() - start
        n += 1

    per_pass = [_layer_metrics(st) for st in traced]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    traced_total = sum(_median_or_zero([st.op_time.get(op.name) for st in traced
                                        if op.name in st.op_time]) for op in ops)
    plain_total = sum(_median_or_zero(plain[op.name]) for op in ops)
    metrics["trace.overhead_frac"] = traced_total / plain_total - 1.0 if plain_total else 0.0
    for name in workloads.TIMED_OPS:
        metrics[f"op.{name}_ms"] = _median_or_zero(plain.get(name)) * 1e3

    pass_time = sum(traced[0].op_time.values()) or 1.0
    print(f"layer self-time share of a traced pass ({pass_time:.3f} s), "
          f"tracing overhead {metrics['trace.overhead_frac']:+.1%}")
    for layer in LAYERS:
        share = statistics.median(st.layer_self.get(layer, 0.0) / sum(st.op_time.values())
                                  for st in traced if st.op_time)
        print(f"  {layer:<12}{share:>8.1%}")
    print("counts of the first traced pass, by op and span:")
    for (op, name), agg in sorted(traced[0].fn.items()):
        counts = " ".join(f"{k}={int(agg[k])}" for k in ("rhs", "u", "map", "leaf") if agg[k])
        print(f"  {op:<16}{name:<26}calls={int(agg['calls']):<6}{counts}")
    _report_ops(ops, plain)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        lib, ops, setup_s = _set_up(args.workload, args.seed, out_dir)
        ledger = Ledger(ops)
        for op in ops:
            if op.role == "known":
                _run_known(op, ledger)
        timed = [op for op in ops if op.role != "known"]
        if args.trace:
            metrics = _per_layer(timed, ledger, lib, args.seconds)
            declared = spec["per_layer"]
        else:
            samples, walls = _measure(timed, ledger, args.seconds)
            _report_ops(timed, samples, walls)
            metrics = _end_to_end(ops, ledger, samples, setup_s)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.exists() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()

    for name, why in ledger.expected.items():
        print(f"known failure {name}: {why}")
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
