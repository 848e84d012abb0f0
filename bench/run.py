"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify-k2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
the seed, times the set-up of a fresh interpreter importing menonk, runs the
workload in a separate process (``worker.py``) for ``--seconds``, checks
every output independently (``check.py``) and prints, as its last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
A human-readable summary goes to stderr.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import workloads
from worker import CALIBRATION_REFERENCE_S, calibration_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
WORKER_TIMEOUT = 150  # seconds past --seconds before the worker is killed


class BenchError(RuntimeError):
    pass


def setup_seconds(src: Path) -> list[tuple[float, float]]:
    """(wall seconds, calibration seconds) of fresh interpreters that import menonk and click, then exit."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibration_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--probe", str(src)],
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        samples.append((wall, (before + calibration_seconds()) / 2))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return samples


def execute(workload, seconds: float, trace: bool) -> dict:
    """Run the workload's passes in the worker process and return its report."""
    spec = {
        "src": str(ROOT / "src"),
        "seconds": seconds,
        "trace": trace,
        "passes": [[op.argv for op in p.ops] for p in workload.passes],
        "table_out": workload.table["out"] if workload.table else None,
        "spans": str(OUT_DIR / f"spans-{workload.name}.npz"),
    }
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                              capture_output=True, text=True, timeout=seconds + WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker killed after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    *passes, last = map(json.loads, proc.stdout.splitlines())
    return {"passes": passes, "peak_rss_kb": last["peak_rss_kb"]}


def failed_ops(workload, report: dict, seed: int) -> tuple[int, dict, list[str]]:
    """Operations attempted, failed operations with a message each, and sample-check details."""
    passes = report["passes"]
    failures = check.check_ops(workload, passes)
    details = []
    if workload.table is not None:
        details = check.check_table_sample(workload.table, seed)
        if details:
            # The last pass left the file; every pass with the same digest shares its fault.
            last = passes[-1]["ops"][-1].get("digest")
            for i, p in enumerate(passes):
                if p["ops"][-1].get("digest") == last:
                    failures.setdefault((i, len(p["ops"]) - 1),
                                        f"pass {p['index']}: sampled rows disagree with sympy")
    return sum(len(p["ops"]) for p in passes), failures, details


def end_to_end(workload, report: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same medians unscaled for the summary.

    Each pass and each set-up probe is scaled by the machine's slowdown
    around it: calibration seconds / CALIBRATION_REFERENCE_S.
    """
    passes = [p for p in report["passes"] if not p["traced"]]
    items = [workload.passes[p["index"] % len(workload.passes)].items for p in passes]
    slow = [p["calibration"] / CALIBRATION_REFERENCE_S for p in passes]
    setup_slow = [c / CALIBRATION_REFERENCE_S for _, c in setup]
    metrics = {
        "items_per_s": statistics.median(n / p["wall"] * f for n, p, f in zip(items, passes, slow)),
        "cpu_s": statistics.median(p["cpu"] / f for p, f in zip(passes, slow)),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(w / f for (w, _), f in zip(setup, setup_slow)),
    }
    raw = {
        "slowdown": statistics.median(slow + setup_slow),
        "items_per_s": statistics.median(n / p["wall"] for n, p in zip(items, passes)),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "setup_s": statistics.median(w for w, _ in setup),
    }
    return metrics, raw


def per_layer(report: dict, spans_path: Path) -> dict:
    """Median over traced passes of each layer's calls, self seconds, counts and hit ratios."""
    with np.load(spans_path) as npz:
        spans = {key: npz[key] for key in npz.files}
    names = list(spans["names"])
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
    self_time = dur - child
    bounds = spans["pass_starts"]
    untraced = {p["index"]: p for p in report["passes"] if not p["traced"]}
    traced = [p for p in report["passes"] if p["traced"]]
    rows = []
    for j, res in enumerate(traced):
        lo, hi = bounds[j], bounds[j + 1]
        ids = spans["name"][lo:hi]
        calls = dict(zip(names, np.bincount(ids, minlength=len(names)).tolist()))
        secs = dict(zip(names, np.bincount(ids, weights=self_time[lo:hi], minlength=len(names)).tolist()))
        n = lambda name: calls.get(name, 0)
        s = lambda name: secs.get(name, 0.0)
        lookups = {key: c["hits"] + c["misses"] for key, c in res["caches"].items()}
        hit_ratio = lambda key: res["caches"][key]["hits"] / lookups[key] if lookups[key] else 0.0
        counters = res["counters"]
        rows.append({
            "factor.factorize.calls": n("factor.factorize"),
            "factor.factorize.s": s("factor.factorize"),
            "factor.is_prime.calls": n("factor.is_prime"),
            "factor.is_prime.s": s("factor.is_prime"),
            "factor.cache_hit_ratio": hit_ratio("factor"),
            "arith.kth_divisor.calls": lookups["kth"],
            "arith.kth_divisor.hit_ratio": hit_ratio("kth"),
            "arith.closed_form.calls": n("arith.closed_form"),
            "arith.closed_form.s": s("arith.closed_form"),
            "residues.sets.calls": n("residues.sets"),
            "residues.sets.s": s("residues.sets"),
            "residues.elements": counters.get("residues.elements", 0),
            "residues.cache_hit_ratio": hit_ratio("residues"),
            "menon.sum.calls": n("menon.sum"),
            "menon.sum.terms": counters.get("menon.sum.terms", 0),
            "menon.sum.s": s("menon.sum"),
            "menon.closed_form.s": s("menon.closed_form"),
            "batch.sieve.s": s("batch.sieve"),
            "batch.factorization.calls": n("batch.factorization"),
            "batch.factorization.s": s("batch.factorization"),
            "batch.rows": counters.get("batch.rows", 0),
            "batch.rows.s": s("batch.rows"),
            "cli.render.s": s("cli.render"),
            "cli.output_bytes": counters["cli.output_bytes"],
            "cli.command.s": s("cli.command"),
            "trace.overhead_ratio": res["wall"] / untraced[res["index"]]["wall"],
            "trace.self_share": sum(secs.values()) / res["wall"],
        })
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "menonk" / "__init__.py").is_file():
        print(f"error: no menonk sources at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, str(OUT_DIR))
    try:
        setup = None if args.trace else setup_seconds(src)
        report = execute(workload, args.seconds, bool(args.trace))
        attempted, failures, details = failed_ops(workload, report, args.seed)
        raw = {}
        if args.trace:
            values, declared = per_layer(report, OUT_DIR / f"spans-{workload.name}.npz"), units("per_layer")
        else:
            (values, raw), declared = end_to_end(workload, report, setup), units("end_to_end")
        if set(values) != set(declared):
            raise BenchError(f"measured {sorted(values)}, but BENCHMARK.json declares {sorted(declared)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if workload.table is not None:
            Path(workload.table["out"]).unlink(missing_ok=True)

    failed = len(failures)
    passes = sum(not p["traced"] for p in report["passes"])
    print(f"{args.workload} seed={args.seed} passes={passes} attempted={attempted} "
          f"failed={failed} fail_share={failed / attempted:.4f}", file=sys.stderr)
    for message in [*failures.values(), *details][:10]:
        print(f"  FAIL {message}", file=sys.stderr)
    for name, unit in declared.items():
        print(f"  {name:28s} {values[name]:.6g} {unit}", file=sys.stderr)
    if raw:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
