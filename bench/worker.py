"""The workload process: one process, one client, no threads, a closed loop.

It reads a JSON spec on stdin, imports menonk from the checkout's ``src``
and runs passes of CLI calls through ``menonk.cli.run`` until ``seconds``
have elapsed (always at least one).  Each pass starts cold, like a fresh
``menonk`` process: every ``functools.lru_cache`` in menonk is cleared and
the garbage collector run before its clock starts, and a calibration loop
brackets it to measure the machine's speed.  On stdout it writes one JSON
line per pass, as the pass ends: the wall, CPU and calibration seconds and
each call's exit code, stdout and output-file digest.  A last line holds
the process's peak RSS.

With ``trace`` set, each pass runs twice, untraced and traced.  The tracer
wraps menonk's public functions at every name they are looked up under
(``arith`` and ``menon`` import ``factorize``, ``is_prime`` and the closed
forms by name), keeps spans (name, parent, start, end) in flat arrays and
writes them once, after the last pass, to ``spans``.  The hottest
functions are not wrapped; their counts come from ``cache_info()``.

``worker.py --probe SRC`` only imports menonk and click and exits; its
wall time from spawn to exit is the benchmark's set-up time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import sys
import time
from array import array
from pathlib import Path


def import_menonk(src: str):
    sys.path.insert(0, src)
    import menonk
    import menonk.cli  # noqa: F401  (pulls in click and every layer)

    if not Path(menonk.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"menonk imported from {menonk.__file__}, not from {src}")
    return menonk


#: Wall seconds the calibration loop takes on the reference machine: a
#: 2-core x86-64 cloud VM running CPython 3.11 at its usual speed.
CALIBRATION_REFERENCE_S = 0.030


def calibration_seconds() -> float:
    """Wall seconds of a fixed loop of big-int, small-int, str and dict work.

    It never touches menonk, so no change to the program can move it; only
    the speed the machine is giving this process right now can.  Divided by
    CALIBRATION_REFERENCE_S it says how much slower than usual the machine
    is running, and the end-to-end times are scaled by that factor.
    """
    t0 = time.perf_counter()
    modulus = (1 << 127) - 1
    x, acc, table = 3, 0, {}
    for i in range(40_000):
        x = x * x % modulus
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table[i & 1023] = str(acc)
    return time.perf_counter() - t0


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Tracer:
    """Spans in flat arrays: span i has name id, parent span (-1 for a root), start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.pass_starts: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn, counter: str | None = None, amount=None):
        """fn inside a span; ``amount(args, result)`` is added to ``counter``."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter:
                self.count(counter, amount(args, result))
            return result

        return traced

    def iterate(self, name: str, iterator, counter: str | None = None):
        """Each ``next`` of a lazy iterator in its own span; items add 1 to ``counter``."""
        nid = self._id(name)
        step = iter(iterator).__next__
        while True:
            idx = self._open(nid)
            try:
                item = step()
            except StopIteration:
                return
            finally:
                self._close(idx)
            if counter:
                self.count(counter, 1)
            yield item

    def dump(self, path: str) -> None:
        import numpy as np  # only after the last pass, so it costs no measured time

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            pass_starts=np.array(self.pass_starts + [len(self.end)], dtype=np.int64),
        )


def peak_rss() -> int:
    """This process's peak resident set in KiB.

    ``VmHWM`` belongs to the address space that exec created.  ``ru_maxrss``
    would not do: Linux carries it across exec, so it would include the
    parent process that spawned this one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def menonk_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "menonk" or name.startswith("menonk.")]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap each layer's public functions wherever menonk looks them up; return the undo list."""
    from menonk import arith, batch, cli, factor, menon, residues

    modules = menonk_modules()
    undo: list[tuple] = []

    def patch(original, replacement):
        sites = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
        if not sites:
            raise RuntimeError(f"{original.__qualname__} is looked up nowhere")
        for module, attr in sites:
            undo.append((module, attr, original))
            setattr(module, attr, replacement)

    for fn, name in ((factor.factorize, "factor.factorize"), (factor.is_prime, "factor.is_prime"),
                     (batch.build_sieve, "batch.sieve"), (menon.menon_closed_form, "menon.closed_form")):
        patch(fn, tracer.wrap(name, fn))
    for attr in ("euler_phi", "cohen_phi", "divisor_count", "d_s", "d_s_k", "pillai"):
        fn = getattr(arith, attr)
        patch(fn, tracer.wrap("arith.closed_form", fn))
    patch(residues.standard_residue_set, tracer.wrap(
        "residues.sets", residues.standard_residue_set, "residues.elements", lambda a, r: len(r)))
    patch(menon.menon_sum_over, tracer.wrap(
        "menon.sum", menon.menon_sum_over, "menon.sum.terms", lambda a, r: len(a[0])))

    table = tracer.wrap("batch.rows", batch.batch_table)
    patch(batch.batch_table, lambda *a, **kw: tracer.iterate("batch.rows", table(*a, **kw), "batch.rows"))
    render = cli._render_rows
    patch(render, lambda rows, fmt: tracer.iterate("cli.render", render(rows, fmt)))

    factorization = batch.SpfSieve.factorization
    undo.append((batch.SpfSieve, "factorization", factorization))
    batch.SpfSieve.factorization = tracer.wrap("batch.factorization", factorization)
    return undo


def clear_caches() -> None:
    for module in menonk_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def cache_counts() -> dict:
    from menonk import arith, factor, residues

    out = {}
    for key, fn in (("factor", factor._factor_pairs), ("kth", arith.largest_kth_power_divisor),
                    ("residues", residues._standard_elements)):
        info = fn.cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses}
    return out


def run_pass(menonk, argvs: list[list[str]], table_out: str | None, tracer: Tracer | None) -> dict:
    calibration = calibration_seconds()
    run = menonk.cli.run
    undo = []
    if tracer is not None:
        tracer.pass_starts.append(len(tracer.end))
        tracer.counters = {}
        run = tracer.wrap("cli.command", run)
        undo = install(tracer)
    if table_out is not None and os.path.exists(table_out):
        os.remove(table_out)
    clear_caches()
    gc.collect()
    captured = []
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            captured.append((code, out))
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
    calibration = (calibration + calibration_seconds()) / 2
    ops = [{"exit": code, "stdout": out.getvalue()} for code, out in captured]
    output_bytes = sum(len(op["stdout"].encode()) for op in ops)
    if table_out is not None and os.path.exists(table_out):
        ops[-1]["digest"] = file_digest(table_out)
        output_bytes += os.path.getsize(table_out)
    result = {"traced": tracer is not None, "wall": wall, "cpu": cpu, "calibration": calibration, "ops": ops}
    if tracer is not None:
        result["counters"] = dict(tracer.counters, **{"cli.output_bytes": output_bytes})
        result["caches"] = cache_counts()
    return result


def main() -> None:
    if sys.argv[1:2] == ["--probe"]:
        import_menonk(sys.argv[2])
        return
    spec = json.load(sys.stdin)
    menonk = import_menonk(spec["src"])
    passes = spec["passes"]
    tracer = Tracer() if spec["trace"] else None
    deadline = time.perf_counter() + spec["seconds"]
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        argvs = passes[index % len(passes)]
        order = [None]
        if tracer is not None:
            # Alternate which of the pair runs first, so order effects cancel in the overhead ratio.
            order = [None, tracer] if index % 2 == 0 else [tracer, None]
        for pass_tracer in order:
            res = run_pass(menonk, argvs, spec["table_out"], pass_tracer)
            # Written at once rather than kept, so results do not add to the peak RSS.
            print(json.dumps(dict(res, index=index)), flush=True)
        index += 1
    peak_rss_kb = peak_rss()
    if tracer is not None:
        tracer.dump(spec["spans"])
    print(json.dumps({"peak_rss_kb": peak_rss_kb}))


if __name__ == "__main__":
    main()
