"""Self-check of the benchmark, at toy size, in well under a minute.

    python3 bench/selfcheck.py

For every workload it shows that

* the same seed gives the same inputs, and another seed other inputs;
* an untraced and a traced run at toy size pass every output check;
* the output checker rejects the same output with one digit flipped, so
  that ``failed = 0`` in a real run means something;
* the traced run reports every per-layer metric, and the layers' self
  times add up to within 10% of the traced wall time;

and that ``run.py`` exits non-zero, printing no result, in a directory
that holds only ``BENCHMARK.json`` and ``bench/``.  Exits 1 on any failure.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from worker import file_digest

SEED = 7


def flip_digit(text: str, rng: random.Random) -> str:
    """``text`` with one digit, picked by rng, replaced by another digit."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = rng.choice(positions)
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def corrupt(workload, report: dict, rng: random.Random) -> None:
    """Flip one digit of the output of the last pass, in the report or in the table file."""
    last = report["passes"][-1]["ops"]
    if workload.table is None:
        op = rng.choice([op for op in last if any(ch.isdigit() for ch in op["stdout"])])
        op["stdout"] = flip_digit(op["stdout"], rng)
        return
    path = Path(workload.table["out"])
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = rng.randrange(len(lines) // 2, len(lines))
    lines[row] = flip_digit(lines[row], rng)
    path.write_text("".join(lines), encoding="utf-8")
    last[-1]["digest"] = file_digest(str(path))


def check_workload(name: str, problems: list[str]) -> None:
    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(f"{name}: {what}")

    print(name)
    argvs = lambda w: [op.argv for p in w.passes for op in p.ops]
    first = workloads.build(name, SEED, str(run.OUT_DIR), toy=True)
    expect(argvs(first) == argvs(workloads.build(name, SEED, str(run.OUT_DIR), toy=True)),
           "same seed, same inputs")
    expect(argvs(first) != argvs(workloads.build(name, SEED + 1, str(run.OUT_DIR), toy=True)),
           "other seed, other inputs")

    report = run.execute(first, 0.5, trace=False)
    attempted, failures, details = run.failed_ops(first, report, SEED)
    expect(attempted >= 1 and not failures and not details, f"{attempted} operations, none failed")
    corrupt(first, report, random.Random(SEED))
    attempted, failures, details = run.failed_ops(first, report, SEED)
    expect(len(failures) == 1, f"one flipped digit fails one operation ({len(failures)} failed)")

    report = run.execute(first, 0.5, trace=True)
    attempted, failures, details = run.failed_ops(first, report, SEED)
    expect(not failures and not details, f"traced run: {attempted} operations, none failed")
    metrics = run.per_layer(report, run.OUT_DIR / f"spans-{name}.npz")
    expect(set(metrics) == set(run.units("per_layer")), "every per-layer metric reported")
    share = metrics["trace.self_share"]
    expect(0.9 <= share <= 1.1, f"self times sum to {share:.3f} of the traced wall time")
    if first.table is not None:
        Path(first.table["out"]).unlink(missing_ok=True)


def check_bare_directory(problems: list[str]) -> None:
    """run.py must refuse, with no result line, where there are no menonk sources."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify-k2", "--seed", "1",
         "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"bare directory\n  {'ok  ' if ok else 'FAIL'} exit {proc.returncode}, no result line")
    if not ok:
        problems.append("bare directory: run.py did not refuse")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    for name in workloads.SIZES:
        check_workload(name, problems)
    check_bare_directory(problems)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
