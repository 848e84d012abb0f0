"""The names the benchmark's traced run needs from menonk are still there.

``bench/worker.py`` wraps menonk's public functions at every name they
are looked up under and reads ``cache_info()`` of the hottest ones.  A
refactor that renames one of them breaks ``bench/run.py --trace 1``;
this test loads the worker by path and fails in well under a second.
"""

import importlib.util
from pathlib import Path

import menonk.cli

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_tracer_installs_and_undoes_every_patch():
    worker = load_worker()
    before = {m: dict(vars(m)) for m in worker.menonk_modules()}
    factorization = menonk.batch.SpfSieve.factorization
    undo = []
    try:
        undo = worker.install(worker.Tracer())
        assert undo
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
    assert {m: dict(vars(m)) for m in worker.menonk_modules()} == before
    assert menonk.batch.SpfSieve.factorization is factorization
    counts = worker.cache_counts()
    assert set(counts) == {"factor", "kth", "residues"}
    worker.clear_caches()
    assert worker.cache_counts() == {key: {"hits": 0, "misses": 0} for key in counts}


def test_traced_pass_records_every_layer(tmp_path):
    worker = load_worker()
    tracer = worker.Tracer()
    argvs = [
        ["verify", "--m", "1..6", "--s", "0..1", "--k", "2"],
        ["table", "--n", "6", "--s", "1", "--k", "1", "--format", "csv"],
        ["compute", "d-s-k", "--m", "36", "--s", "12", "--k", "2"],
        ["residues", "--m", "6", "--k", "1"],
        # verify takes the many-shift closed route; menon-rhs still calls menon_closed_form
        ["compute", "menon-rhs", "--m", "36", "--s", "12", "--k", "2"],
    ]
    result = worker.run_pass(menonk, argvs, None, tracer)
    assert [op["exit"] for op in result["ops"]] == [0, 0, 0, 0, 0]
    assert result["ops"][0]["stdout"] == "checked=12 passed=12 failed=0 skipped=0\n"
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"cli.command", "factor.factorize", "arith.closed_form", "menon.closed_form",
            "batch.sieve", "batch.rows", "cli.render", "residues.sets"} <= recorded
    assert result["counters"]["batch.rows"] == 6
