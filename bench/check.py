"""Self-checks of the benchmark's tracing, run from the root of a checkout.

    python3 bench/check.py --seed 1

1. Wrapped and unwrapped calls return bit-identical values: every op of
   every workload runs once untraced and once with the tracer installed
   (counting drivers and maps, span wrappers), and the two outputs, files
   the op writes included, must match byte for byte.  So the counts measure
   the same program the end-to-end times do.
2. Counts are deterministic: two traced passes with one seed give identical
   count columns, and a traced pass with the next seed changes no counts but
   those of seeded ops (``empirical`` does the same work for every seed).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads
from tracing import COUNTS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _digest(obj) -> bytes:
    """Exact bytes of an op's output (callables, which cannot be compared, are skipped)."""
    if isinstance(obj, bytes):
        return obj
    if isinstance(obj, (str, bool, int)) or obj is None:
        return repr(obj).encode()
    if isinstance(obj, float):
        return obj.hex().encode()
    if isinstance(obj, complex):
        return (obj.real.hex() + "," + obj.imag.hex()).encode()
    if isinstance(obj, np.ndarray):
        return str(obj.dtype).encode() + obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return b"[" + b";".join(_digest(x) for x in obj) + b"]"
    if dataclasses.is_dataclass(obj):
        return _digest([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if callable(obj):
        return b"<callable>"
    raise TypeError(f"cannot digest {type(obj).__name__}")


def _files(out_dir: Path) -> bytes:
    return b"".join(p.name.encode() + p.read_bytes() for p in sorted(out_dir.iterdir()))


def _output(op, out_dir: Path) -> bytes:
    for p in out_dir.iterdir():
        p.unlink()
    try:
        out = op.call()
    except Exception as exc:  # noqa: BLE001 -- a known failure's class is its output
        out = f"raised {type(exc).__name__}: {exc}"
    return _digest(out) + _files(out_dir)


def _counts(lib, tracer: Tracer, ops) -> dict:
    """(op, span) -> work counts of one traced pass."""
    tracer.install()
    tracer.begin_pass()
    try:
        for op in ops:
            tracer.op = op.name
            with tracer.span(op.layer, "op"):
                op.call()
    finally:
        tracer.remove()
    stats = tracer.end_pass()
    return {key: {k: int(agg[k]) for k in ("calls", "nodes", "atoms") + COUNTS}
            for key, agg in stats.fn.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    lib = importlib.import_module("loewner")
    importlib.import_module("loewner.cli")

    out_dir = ROOT / ".bench_out" / f"check-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        for workload in workloads.WORKLOADS:
            ops = workloads.build(lib, workload, args.seed, out_dir)
            tracer = Tracer(lib)
            for op in ops:
                plain = _output(op, out_dir)
                tracer.install()
                try:
                    traced = _output(op, out_dir)
                finally:
                    tracer.remove()
                same = plain == traced
                print(f"{workload:<9}{op.name:<20}traced output identical: {same}")
                if not same:
                    problems.append(f"{workload}/{op.name}: traced output differs")

            timed = [op for op in ops if op.role != "known"]
            first = _counts(lib, tracer, timed)
            second = _counts(lib, tracer, timed)
            if first != second:
                problems.append(f"{workload}: counts differ between two passes at one seed")
            other = workloads.build(lib, workload, args.seed + 1, out_dir)
            third = _counts(lib, tracer, [op for op in other if op.role != "known"])
            for op in timed:
                mine = {k: v for k, v in first.items() if k[0] == op.name}
                theirs = {k: v for k, v in third.items() if k[0] == op.name}
                moved = mine != theirs
                print(f"{workload:<9}{op.name:<20}counts move with the seed: {moved} "
                      f"(seeded: {op.role == 'seeded'})")
                if moved and op.role != "seeded":
                    problems.append(f"{workload}/{op.name}: counts move with the seed")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.exists() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()

    for line in problems:
        print("PROBLEM", line)
    print("all checks hold" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
