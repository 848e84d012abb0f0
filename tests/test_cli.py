import json
import resource
import subprocess
import sys
from pathlib import Path

from menonk import arith, cli, factor, residues
from menonk.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, run

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None, preexec_fn=None):
    # python -m puts its working directory first on sys.path, so this
    # runs the checkout's menonk whether or not it is installed.
    return subprocess.run(
        [sys.executable, "-m", "menonk", *argv],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def limit_address_space():
    # A table that escapes its bound fails here at 2 GiB instead of
    # growing until the timeout.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_compute_examples(capsys):
    assert invoke(capsys, "compute", "cohen-phi", "--m", "4", "--k", "2") == (EXIT_OK, "12\n", "")
    assert invoke(capsys, "compute", "d-s", "--m", "12", "--s", "3") == (EXIT_OK, "3\n", "")
    assert invoke(capsys, "compute", "menon-lhs", "--m", "12", "--s", "2", "--k", "1") == (
        EXIT_OK,
        "8\n",
        "",
    )
    assert invoke(capsys, "compute", "phi", "--m", "12")[:2] == (EXIT_OK, "4\n")
    assert invoke(capsys, "compute", "d", "--m", "12")[:2] == (EXIT_OK, "6\n")
    assert invoke(capsys, "compute", "pillai", "--m", "4", "--k", "2")[:2] == (EXIT_OK, "40\n")
    assert invoke(capsys, "compute", "d-s-k", "--m", "4", "--s", "12", "--k", "2")[:2] == (
        EXIT_OK,
        "1\n",
    )
    assert invoke(capsys, "compute", "menon-rhs", "--m", "4", "--s", "12", "--k", "2")[:2] == (
        EXIT_OK,
        "12\n",
    )


def test_compute_usage_errors(capsys):
    code, _, err = invoke(capsys, "compute", "no-such-function", "--m", "3")
    assert code == EXIT_USAGE and "no-such-function" in err
    code, _, err = invoke(capsys, "compute", "phi")
    assert code == EXIT_USAGE and "requires --m" in err
    code, _, err = invoke(capsys, "compute", "phi", "--m", "12", "--k", "2")
    assert code == EXIT_USAGE and "does not take --k" in err
    code, _, err = invoke(capsys, "compute", "phi", "--m", "-3")
    assert code == EXIT_USAGE


def test_compute_limit_errors(capsys):
    big = str(2**70)
    code, _, err = invoke(capsys, "compute", "cohen-phi", "--m", big, "--k", "2")
    assert code == EXIT_LIMIT and "2^128" in err
    code, _, err = invoke(
        capsys, "--max-iterations", "5", "compute", "menon-lhs", "--m", "12", "--s", "1", "--k", "1"
    )
    assert code == EXIT_LIMIT and "cap" in err


def test_verify_single_point(capsys):
    code, out, _ = invoke(capsys, "verify", "--m", "12..12", "--s", "1..1", "--k", "1")
    assert code == EXIT_OK
    assert out == "checked=1 passed=1 failed=0 skipped=0\n"


def test_verify_grid(capsys):
    code, out, _ = invoke(capsys, "verify", "--m", "1..50", "--s", "-5..5", "--k", "1")
    assert code == EXIT_OK
    assert out == "checked=550 passed=550 failed=0 skipped=0\n"


def test_verify_multiple_k_and_verbose(capsys):
    code, out, _ = invoke(capsys, "verify", "--m", "1..3", "--s", "0..0", "--k", "1,2", "--verbose")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "ok m=1 s=0 k=1 lhs=1 rhs=1"
    assert lines[-1] == "checked=6 passed=6 failed=0 skipped=0"
    assert sum(1 for line in lines if line.startswith("ok ")) == 6


def test_verify_skips_over_cap(capsys):
    code, out, _ = invoke(
        capsys, "--max-iterations", "5", "verify", "--m", "1..12", "--s", "0..1", "--k", "1"
    )
    assert code == EXIT_OK
    assert out == "checked=10 passed=10 failed=0 skipped=14\n"


def test_verify_counts_skipped_moduli_without_walking_them():
    # 10^13 moduli, all but 50 over the cap; a hang here times out.
    proc = run_module(
        "--max-iterations", "50", "verify", "--m", "1..10000000000000", "--s", "1..1", "--k", "1",
        timeout=10,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "checked=50 passed=50 failed=0 skipped=9999999999950\n"


def test_verify_builds_each_table_once(capsys):
    residues._standard_elements.cache_clear()
    arith.largest_kth_power_divisor.cache_clear()
    factor._factor_pairs.cache_clear()
    code, out, _ = invoke(capsys, "verify", "--m", "1..30", "--s", "-2..2", "--k", "1,2")
    assert code == EXIT_OK and out == "checked=300 passed=300 failed=0 skipped=0\n"
    assert residues._standard_elements.cache_info().currsize == 0
    # One factorization per modulus serves both routes and every k; no divisor is factored.
    assert factor._factor_pairs.cache_info().misses <= 30
    info = arith.largest_kth_power_divisor.cache_info()
    assert info.hits + info.misses == 0


def test_verify_usage_errors(capsys):
    code, _, err = invoke(capsys, "verify", "--m", "5..1", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "empty" in err
    code, _, err = invoke(capsys, "verify", "--m", "0..5", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE
    code, _, err = invoke(capsys, "verify", "--m", "1-5", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "lo..hi" in err
    code, _, err = invoke(capsys, "verify", "--m", "1..5", "--s", "0..0", "--k", "x")
    assert code == EXIT_USAGE
    code, _, err = invoke(capsys, "verify", "--m", "1..5", "--s", "0..0", "--k", "0")
    assert code == EXIT_USAGE
    code, _, err = invoke(capsys, "verify", "--m", f"1..{2**128}", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "spans more than" in err


def test_verify_reports_failures(capsys, monkeypatch):
    # The identity cannot fail for real inputs, so fake disagreeing sides
    # to check the failure path and its exit code.
    def fake_sums(m, k, shifts, max_iterations=None):
        return iter([1] * len(shifts))

    monkeypatch.setattr(cli.menon, "menon_sums", fake_sums)
    monkeypatch.setattr(cli.menon, "menon_closed_form", lambda m, s, k: 2)
    code, out, _ = invoke(capsys, "verify", "--m", "12..12", "--s", "1..1", "--k", "1")
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL m=12 s=1 k=1: lhs=1 rhs=2" in out
    assert "checked=1 passed=0 failed=1 skipped=0" in out


def test_table_csv(capsys):
    code, out, _ = invoke(capsys, "table", "--n", "12", "--s", "1", "--k", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,phi_k,d_s_k,pillai_k,menon_lhs,menon_rhs,verified"
    assert len(lines) == 13
    assert lines[-1] == "12,4,6,40,24,24,true"


def test_table_single_row_of_ones(capsys):
    code, out, _ = invoke(capsys, "table", "--n", "1", "--s", "0", "--k", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m phi_k d_s_k pillai_k menon_lhs menon_rhs verified"
    assert lines[1] == "1 1 1 1 1 1 true"


def test_table_json_lines(capsys):
    code, out, _ = invoke(
        capsys,
        "table", "--n", "16", "--s", "1", "--k", "2",
        "--format", "json-lines", "--with-bruteforce",
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 16
    row4 = records[3]
    assert row4 == {
        "m": 4, "phi_k": 12, "d_s_k": 3, "pillai_k": 40,
        "menon_lhs": 36, "menon_rhs": 36, "verified": True,
    }
    assert list(row4) == ["m", "phi_k", "d_s_k", "pillai_k", "menon_lhs", "menon_rhs", "verified"]


def test_table_no_bruteforce_omits_columns(capsys):
    code, out, _ = invoke(
        capsys, "table", "--n", "4", "--s", "1", "--k", "1",
        "--format", "json-lines", "--no-bruteforce",
    )
    assert code == EXIT_OK
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert "menon_lhs" not in record and "verified" not in record

    code, out, _ = invoke(
        capsys, "table", "--n", "2", "--s", "1", "--k", "1", "--format", "csv", "--no-bruteforce"
    )
    assert out.strip().splitlines()[1] == "1,1,1,1,,1,"


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = invoke(
        capsys, "table", "--n", "3", "--s", "1", "--k", "1", "--format", "csv",
        "--out", str(target),
    )
    assert code == EXIT_OK and out == ""
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,phi_k,d_s_k,pillai_k,menon_lhs,menon_rhs,verified"
    assert len(lines) == 4


def test_table_errors(capsys):
    code, _, err = invoke(capsys, "table", "--n", "0", "--s", "1", "--k", "1")
    assert code == EXIT_USAGE
    code, _, err = invoke(
        capsys, "--max-iterations", "9", "table", "--n", "12", "--s", "1", "--k", "1"
    )
    assert code == EXIT_LIMIT


def test_table_overflow_after_streamed_rows(tmp_path):
    # P_16(216) is the first value past 2^128: the 215 rows before it are already out.
    argv = ("table", "--n", "255", "--s", "1", "--k", "16", "--no-bruteforce", "--format", "csv")
    proc = run_module(*argv, timeout=30)
    assert proc.returncode == EXIT_LIMIT
    lines = proc.stdout.splitlines()
    assert lines[0] == "m,phi_k,d_s_k,pillai_k,menon_lhs,menon_rhs,verified"
    assert len(lines) == 1 + 215 and lines[-1].startswith("215,")
    assert "P_k" in proc.stderr
    # --out leaves no partial table, and an existing file keeps its bytes
    target = tmp_path / "table.csv"
    proc = run_module(*argv, "--out", str(target), timeout=30)
    assert proc.returncode == EXIT_LIMIT and not target.exists()
    target.write_bytes(b"kept\n")
    proc = run_module(*argv, "--out", str(target), timeout=30)
    assert proc.returncode == EXIT_LIMIT and target.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_residues_examples(capsys):
    assert invoke(capsys, "residues", "--m", "12", "--k", "1") == (EXIT_OK, "1 5 7 11\n", "")
    assert invoke(capsys, "residues", "--m", "1", "--k", "2") == (EXIT_OK, "1\n", "")
    code, out, _ = invoke(capsys, "residues", "--m", "4", "--k", "2")
    values = [int(x) for x in out.split()]
    assert len(values) == 12 and all(v % 4 != 0 for v in values)


def test_residues_cap(capsys):
    code, _, err = invoke(capsys, "residues", "--m", "11", "--k", "8")
    assert code == EXIT_LIMIT


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("MENONK_MAX_ITERATIONS", "5")
    code, _, err = invoke(capsys, "residues", "--m", "12", "--k", "1")
    assert code == EXIT_LIMIT
    # explicit flag still wins over the environment
    monkeypatch.setenv("MENONK_MAX_ITERATIONS", "5")
    code, out, _ = invoke(capsys, "--max-iterations", "100", "residues", "--m", "12", "--k", "1")
    assert code == EXIT_OK and out == "1 5 7 11\n"


def test_outputs_are_deterministic(capsys):
    first = invoke(capsys, "table", "--n", "20", "--s", "-3", "--k", "2", "--format", "json-lines")
    second = invoke(capsys, "table", "--n", "20", "--s", "-3", "--k", "2", "--format", "json-lines")
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == EXIT_OK and "compute" in out


def test_module_entry_point():
    proc = run_module("compute", "phi", "--m", "12")
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_compute_d_s_k_huge_k():
    # 3^(10^8) > 1 cannot divide s = 1; a hang building it times out.
    proc = run_module("compute", "d-s-k", "--m", "3", "--s", "1", "--k", "100000000", timeout=10)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "2\n"


def test_pillai_sums_over_millions_of_divisors_at_once():
    # 2^10 3^6 5^4 7^3 11^2 13^2 17 ... 53: 14,192,640 divisors, summed prime by prime.
    m = 3551333934609277846516206720000
    proc = run_module("compute", "pillai", "--m", str(m), "--k", "1", timeout=10)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == f"{arith.eval_multiplicative(arith.pillai_rule(1), factor.factorize(m))}\n"


def test_table_bound_holds_whatever_the_cap():
    # 2^64 classes are far over MAX_TABLE_CLASSES; a raised cap must not let the table grow.
    m, cap = str(2**64), str(10**40)
    for argv in (
        ("residues", "--m", m, "--k", "1"),
        ("compute", "menon-lhs", "--m", m, "--s", "0", "--k", "1"),
    ):
        proc = run_module("--max-iterations", cap, *argv, timeout=10, preexec_fn=limit_address_space)
        assert proc.returncode == EXIT_LIMIT, argv
        assert "over the bound" in proc.stderr, argv
    proc = run_module(
        "--max-iterations", cap, "verify", "--m", f"{m}..{m}", "--s", "0..0", "--k", "1",
        timeout=10, preexec_fn=limit_address_space,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "checked=0 passed=0 failed=0 skipped=1\n"
