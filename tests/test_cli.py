import contextlib
import gc
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from menonk import arith, batch, cli, factor, menon, residues
from menonk.cli import EXIT_LIMIT, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, run
from menonk.limits import DEFAULT_MAX_ITERATIONS, ensure_u128

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


def test_values_that_start_with_a_minus_sign(capsys):
    # Stock argparse reads "--s -7..-3" as two options and refuses it; verify-k2's shift
    # centre runs over -50..50, so a range or integer after "-" must stay the option's value.
    checks = (
        (("verify", "--m", "1..3", "--s", "-7..-3", "--k", "1"),
         "checked=15 passed=15 failed=0 skipped=0\n"),
        (("compute", "d-s", "--m", "12", "--s", "-3"), "3\n"),
        (("compute", "phi", "--m=12"), "4\n"),
        (("table", "--n", "3", "--s", "-1", "--k", "1", "--format", "csv", "--with-bruteforce"),
         "m,phi_k,d_s_k,pillai_k,menon_lhs,menon_rhs,verified\n"
         "1,1,1,1,1,1,true\n2,1,2,3,2,2,true\n3,2,2,5,4,4,true\n"),
        (("verify", "--m", "1..20", "--s", "-48..-44", "--k", "2"),
         "checked=100 passed=100 failed=0 skipped=0\n"),
    )
    for argv, expected in checks:
        assert invoke(capsys, *argv) == (EXIT_OK, expected, ""), argv


def test_usage_errors_exit_one_with_a_message(capsys):
    # Every refusal of the command line itself: exit 1, nothing on stdout, a message and
    # no traceback on stderr, and no SystemExit out of run.
    for argv in (
        [],
        ["bogus"],
        ["compute", "phi", "--m", "x"],
        ["compute", "phi", "--m", "12", "extra"],
        ["table", "--n", "3", "--s", "1", "--k", "1", "--format", "xml"],
        ["--max-iterations", "x", "compute", "phi", "--m", "4"],
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.strip() and "Traceback" not in err, argv
    assert run(["table", "--help"]) == EXIT_OK
    assert capsys.readouterr().out
    # The top-level help shows the module's summary line and each command's.
    assert run(["--help"]) == EXIT_OK
    words = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal's width
    for doc in (cli.__doc__, cli.cmd_compute.__doc__, cli.cmd_verify.__doc__, cli.cmd_table.__doc__,
                cli.cmd_residues.__doc__):
        assert " ".join(doc.splitlines()[0].split()) in words


def test_exit_codes_by_value():
    codes = cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_LIMIT, cli.EXIT_VERIFY_FAILED, cli.EXIT_BROKEN_PIPE
    assert codes == (0, 1, 2, 3, 141)


def test_compute_usage_errors(capsys):
    code, _, err = invoke(capsys, "compute", "no-such-function", "--m", "3")
    assert code == EXIT_USAGE and "no-such-function" in err


def test_cap_boundaries(capsys, monkeypatch):
    # A cap of exactly 1 admits the one class mod 1.
    code, out, _ = invoke(
        capsys, "--max-iterations", "1", "compute", "menon-lhs", "--m", "1", "--s", "0", "--k", "1"
    )
    assert (code, out) == (EXIT_OK, "1\n")
    # The default cap is 10^7 classes: m = 10^7 at k = 1 is summed, one more is refused.
    monkeypatch.delenv("MENONK_MAX_ITERATIONS", raising=False)
    code, out, _ = invoke(capsys, "compute", "menon-lhs", "--m", "10000000", "--s", "0", "--k", "1")
    assert (code, out) == (EXIT_OK, "4000000\n")
    code, out, err = invoke(capsys, "compute", "menon-lhs", "--m", "10000001", "--s", "0", "--k", "1")
    assert (code, out) == (EXIT_LIMIT, "") and "over the cap of 10000000" in err


def test_compute_refuses_a_semiprime_rho_cannot_split(capsys, monkeypatch):
    monkeypatch.setattr(factor, "_ECM_BUDGET", 1 << 16)
    hard = (2**61 - 1) * (2**64 - 59)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "compute", "phi", "--m", str(hard))
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_LIMIT, "")
    assert err == f"error: ECM found no factor of {hard} within 65536 modular reductions\n"


def test_run_keeps_no_redirected_stream():
    # An in-process caller that captures each call (as the bench worker does)
    # must get its streams back: after output, a refusal, a domain error and
    # a usage error the parser reports.
    refs = []
    for argv, code in (
        (["compute", "phi", "--m", "12"], EXIT_OK),
        (["compute", "cohen-phi", "--m", str(2**127 - 1), "--k", "2"], EXIT_LIMIT),
        (["compute", "phi", "--m", "0"], EXIT_USAGE),
        (["compute", "nope"], EXIT_USAGE),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(argv) == code
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


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
    # A modulus' table is freed before the next one is built: two moduli peak about as one.
    peaks = []
    for m_range in ("300..300", "299..300"):
        tracemalloc.start()
        try:
            assert invoke(capsys, "verify", "--m", m_range, "--s", "0..0", "--k", "2")[0] == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_verify_factors_each_modulus_once(capsys, monkeypatch):
    # The closed route reads factorize and evaluates phi_k once per modulus, for every
    # shift; the literal route factors m itself and reads it never.
    calls, rules = [], []
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or factor.factorize(n))

    def counted_rule(k):
        rules.append(k)
        return arith.cohen_phi_rule(k)

    monkeypatch.setattr(menon, "cohen_phi_rule", counted_rule)
    code, out, _ = invoke(capsys, "verify", "--m", "1..30", "--s", "0..2", "--k", "2")
    assert code == EXIT_OK and out == "checked=90 passed=90 failed=0 skipped=0\n"
    assert calls == list(range(1, 31))
    assert rules == [2] * 30


def test_verify_usage_errors(capsys):
    code, _, err = invoke(capsys, "verify", "--m", "5..1", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "empty" in err
    code, _, err = invoke(capsys, "verify", "--m", "0..5", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE
    code, _, err = invoke(capsys, "verify", "--m", f"1..{2**128}", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "spans more than" in err
    # A span of exactly sys.maxsize values is refused as too wide, not as an invalid grid.
    code, _, err = invoke(capsys, "verify", "--m", f"0..{sys.maxsize}", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "spans more than" in err


def test_verify_reports_failures(capsys, monkeypatch):
    # The identity cannot fail for real inputs, so fake disagreeing sides
    # to check the failure path and its exit code.
    def fake_sums(m, k, shifts, max_iterations=None):
        return iter([1] * len(shifts))

    def fake_closed_forms(m, k, shifts):
        return iter([2] * len(shifts))

    monkeypatch.setattr(cli.menon, "menon_sums", fake_sums)
    monkeypatch.setattr(cli.menon, "menon_closed_forms", fake_closed_forms)
    code, out, _ = invoke(capsys, "verify", "--m", "12..12", "--s", "1..1", "--k", "1")
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL m=12 s=1 k=1: lhs=1 rhs=2" in out
    assert "checked=1 passed=0 failed=1 skipped=0" in out


@pytest.mark.parametrize("at_the_call", [True, False], ids=["at-the-call", "lazily"])
def test_verify_closed_route_refusal_ends_the_run(capsys, monkeypatch, at_the_call):
    # A refusal of the closed route is no class-gate skip: the run stops with exit 2,
    # one error line and no summary, whether it comes at the call or with a value.
    real = menon.menon_closed_forms

    def refusing(m, k, shifts):
        if m != 3:
            return real(m, k, shifts)
        if at_the_call:
            ensure_u128(2**64 * 2**64, "d_s_k(m) * phi_k(m)")
        return (ensure_u128(2**64 * 2**64, "d_s_k(m) * phi_k(m)") for _ in shifts)

    monkeypatch.setattr(menon, "menon_closed_forms", refusing)
    code, out, err = invoke(capsys, "verify", "--m", "1..5", "--s", "0..1", "--k", "2", "--verbose")
    assert code == EXIT_LIMIT
    assert err.splitlines() == [f"error: d_s_k(m) * phi_k(m) = {2**128} is outside [0, 2^128)"]
    assert "skipped" not in out
    assert [line.split(" lhs")[0] for line in out.splitlines()] == [
        "ok m=1 s=0 k=2", "ok m=1 s=1 k=2", "ok m=2 s=0 k=2", "ok m=2 s=1 k=2"
    ]


def test_false_factorization_fails_only_the_closed_route(capsys, monkeypatch):
    # The literal route factors m itself: a lie about 15 fails verify as lhs != rhs,
    # and every command that reads only the literal route or the sieve prints what it would.
    argvs = (
        ("residues", "--m", "15", "--k", "1"),
        ("compute", "menon-lhs", "--m", "15", "--s", "0", "--k", "1"),
        ("table", "--n", "15", "--s", "0", "--k", "1"),
    )
    truths = [invoke(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(arith, "factorize", lambda n: ((15, 1),) if n == 15 else factor.factorize(n))
    code, out, _ = invoke(capsys, "verify", "--m", "14..16", "--s", "0..3", "--k", "1")
    assert code == EXIT_VERIFY_FAILED
    assert [line.split(":")[0] for line in out.splitlines() if "m=15" in line] == [
        f"FAIL m=15 s={s} k=1" for s in range(4)
    ]
    assert out.endswith("checked=12 passed=8 failed=4 skipped=0\n")
    for argv, truth in zip(argvs, truths):
        assert truth[0] == EXIT_OK, argv
        assert invoke(capsys, *argv) == truth, argv


def _plus_one_at(p0):
    def wrap(real):
        def factory(k):
            rule = real(k)
            return lambda p, v: rule(p, v) + (p == p0)

        return factory

    return wrap


def _lie_about(n, pairs):
    return lambda real: lambda m: pairs if m == n else real(m)


def _drop_last_prime_of_30(real):
    def lattice(m, k, cap):
        mk, primes, divisors, steps = real(m, k, cap)
        return mk, primes[:-1] if m == 30 else primes, divisors, steps

    return lattice


def _drop_last_step(real):
    def lattice(m, k, cap):
        mk, primes, divisors, steps = real(m, k, cap)
        return mk, primes, divisors, steps[:-1]

    return lattice


def _zero_class_1_mod_49(real):
    def mask_of(m, k, cap=None):
        mask, strides, weights = real(m, k, cap)
        if len(mask) % 49 == 0:
            mask[1::49] = bytes(len(mask) // 49)
        return mask, strides, weights

    return mask_of


def _last_stride_plus_one(real):
    def mask_of(m, k, cap=None):
        mask, strides, weights = real(m, k, cap)
        return mask, strides[:-1] + [q + 1 for q in strides[-1:]], weights

    return mask_of


_GRID = ("verify", "--m", "1..60", "--s", "-6..6", "--k", "1,2", "--verbose")
_POINT = re.compile(r"(?:ok|FAIL) m=(\d+) s=(-?\d+) k=(\d+):? lhs=(\d+) rhs=(\d+)")


def _route_columns(capsys, faulted):
    """(exit code, the faulted route's column, the other route's column) over the grid."""
    if faulted == "table":
        # The table's Pillai column takes the rules; arith.pillai takes the divisor sum.
        table, divisor_sum = {}, {}
        for k in (1, 2):
            code, out, _ = invoke(capsys, "table", "--n", "60", "--s", "0", "--k", str(k),
                                  "--format", "csv", "--no-bruteforce")
            assert code == EXIT_OK
            for row in out.splitlines()[1:]:
                cells = row.split(",")
                m = int(cells[0])
                table[m, k], divisor_sum[m, k] = int(cells[3]), arith.pillai(m, k)
        return code, table, divisor_sum
    code, out, _ = invoke(capsys, *_GRID)
    *lines, summary = out.splitlines()
    points = [_POINT.fullmatch(line).groups() for line in lines]
    assert len(points) == 60 * 13 * 2 and summary.startswith("checked=1560 ")
    lhs, rhs = ({p[:3]: p[i] for p in points} for i in (3, 4))
    return (code, rhs, lhs) if faulted == "closed" else (code, lhs, rhs)


# Each route is the other's oracle: a one-line fault in either must fail the grid,
# while the other route's column stays what a clean run gives.  Blind spot: the class
# gate keeps verify's m below 2^25 < 9973^2, so no grid here reaches ECM, the Lucas
# test or the perfect-power step of factorize; those are checked against sympy only.
@pytest.mark.parametrize(
    "faulted, module, name, wrap",
    [
        pytest.param("closed", menon, "d_s_k_rule", lambda real: lambda s, k: real(s, 1),
                     id="d_s_k_rule-tests-p-not-p^k"),
        pytest.param("closed", menon, "cohen_phi_rule", _plus_one_at(7), id="phi_k-plus-one-at-7"),
        pytest.param("closed", arith, "factorize", _lie_about(15, ((15, 1),)),
                     id="factorize-15-prime"),
        pytest.param("closed", arith, "factorize", _lie_about(16, ((2, 5),)),
                     id="factorize-16-as-2^5"),
        pytest.param("literal", arith, "_literal_lattice", _drop_last_prime_of_30,
                     id="lattice-drops-a-prime-of-30"),
        pytest.param("literal", menon, "kth_reduced_mask", _zero_class_1_mod_49,
                     id="mask-zeroes-1-mod-49"),
        pytest.param("literal", arith, "_literal_lattice", _drop_last_step,
                     id="weights-miss-the-last-step"),
        pytest.param("literal", menon, "kth_reduced_mask", _last_stride_plus_one,
                     id="last-stride-plus-one"),
        pytest.param("table", batch, "pillai_rule", _plus_one_at(5),
                     id="table-pillai-plus-one-at-5"),
    ],
)
def test_fault_matrix(capsys, monkeypatch, faulted, module, name, wrap):
    _, clean, clean_other = _route_columns(capsys, faulted)
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, column, other = _route_columns(capsys, faulted)
    assert other == clean_other and column != clean
    if faulted == "table":
        # The table checks its Pillai column against nothing: only this cross-check sees it.
        assert clean == clean_other and column != other
    else:
        assert code == EXIT_VERIFY_FAILED


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

    # P_16(20) is about 3.9e21, past 2^64, and 2^16 | s fires both d_s_k branches;
    # the stdlib encoder is an independent reference for every line.
    code, out, _ = invoke(
        capsys, "table", "--n", "20", "--s", "65536", "--k", "16",
        "--no-bruteforce", "--format", "json-lines",
    )
    assert code == EXIT_OK
    expected = [
        dict(zip(_CLOSED_COLUMNS, row, strict=True)) for row in batch.batch_table(20, 65536, 16)
    ]
    records = [json.loads(line) for line in out.splitlines()]
    assert records == expected
    assert [list(r) for r in records] == [list(r) for r in expected]
    assert max(r["pillai_k"] for r in records) > 2**64


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
    # The file carries the same bytes as stdout, in every format, absent cells included.
    for fmt in ("plain", "csv", "json-lines"):
        for bruteforce in ("--with-bruteforce", "--no-bruteforce"):
            argv = ("table", "--n", "6", "--s", "-3", "--k", "2", "--format", fmt, bruteforce)
            code, out, _ = invoke(capsys, *argv)
            assert code == EXIT_OK
            assert invoke(capsys, *argv, "--out", str(target)) == (EXIT_OK, "", "")
            assert target.read_bytes() == out.encode()
    # The file goes out in blocks of lines: 600 rows span several and end inside one.
    assert 600 > 2 * cli._TABLE_BLOCK and 600 % cli._TABLE_BLOCK not in (0, cli._TABLE_BLOCK - 1)
    for fmt in ("plain", "csv", "json-lines"):
        for bruteforce in ("--with-bruteforce", "--no-bruteforce"):
            argv = ("table", "--n", "600", "--s", "4", "--k", "1", "--format", fmt, bruteforce)
            code, out, _ = invoke(capsys, *argv)
            assert code == EXIT_OK and out.count("\n") in (600, 601)
            assert invoke(capsys, *argv, "--out", str(target)) == (EXIT_OK, "", "")
            assert target.read_bytes() == out.encode()


def test_table_renders_failed_rows(capsys, monkeypatch, tmp_path):
    # A literal sum of 0 must print as 0 and fail its row, not read as absent;
    # every row is still written, then the run exits 3.
    monkeypatch.setattr(batch, "menon_sum_bruteforce", lambda m, s, k, cap: 0)
    argv = ("table", "--n", "2", "--s", "1", "--k", "1", "--format")
    code, out, _ = invoke(capsys, *argv, "csv")
    assert code == EXIT_VERIFY_FAILED and out.splitlines()[2] == "2,1,2,3,0,2,false"
    code, out, _ = invoke(capsys, *argv, "plain")
    assert code == EXIT_VERIFY_FAILED and out.splitlines()[2] == "2 1 2 3 0 2 false"
    code, out, _ = invoke(capsys, *argv, "json-lines")
    record = json.loads(out.splitlines()[1])
    assert code == EXIT_VERIFY_FAILED and record["menon_lhs"] == 0 and record["verified"] is False
    # --out moves the whole table into place, the failed rows included, before the exit 3.
    target = tmp_path / "table.csv"
    assert invoke(capsys, *argv, "csv", "--out", str(target)) == (EXIT_VERIFY_FAILED, "", "")
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[1:] == ["1,1,1,1,0,1,false", "2,1,2,3,0,2,false"]
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    # Brute force off has no verdict to fail: exit 0.
    assert invoke(capsys, *argv, "csv", "--no-bruteforce")[0] == EXIT_OK


_COLUMNS = ("m", "phi_k", "d_s_k", "pillai_k", "menon_lhs", "menon_rhs", "verified")
_CLOSED_COLUMNS = ("m", "phi_k", "d_s_k", "pillai_k", "menon_rhs")  # a row with brute force off


def reference_table(rows, fmt):
    # Spelled from the rows alone, cell by cell, the way the stdlib JSON encoder spells them;
    # a five-cell row (brute force off) has no menon_lhs or verified.
    rows = [r if len(r) == len(_COLUMNS) else (*r[:4], None, r[4], None) for r in rows]
    if fmt == "json-lines":
        return "".join(
            json.dumps({c: v for c, v in zip(_COLUMNS, r) if v is not None}, separators=(",", ":"))
            + "\n"
            for r in rows
        )
    sep, absent = (",", "") if fmt == "csv" else (" ", "-")
    lines = [sep.join(absent if v is None else json.dumps(v) for v in r) for r in rows]
    return "".join(line + "\n" for line in [sep.join(_COLUMNS), *lines])


@pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
def test_table_spellings_match_a_json_reference(capsys, fmt):
    for n, s, k, bruteforce in (
        (40, -6, 1, True), (40, -6, 1, False), (20, 65536, 16, False),
    ):
        flag = "--with-bruteforce" if bruteforce else "--no-bruteforce"
        argv = ("table", "--n", str(n), "--s", str(s), "--k", str(k), "--format", fmt, flag)
        rows = list(batch.batch_table(n, s, k, with_bruteforce=bruteforce))
        assert invoke(capsys, *argv) == (EXIT_OK, reference_table(rows, fmt), ""), argv

    # At k = 16 the brute-force columns are refused before any row, so their
    # template is fed rows past 2^64 directly, with both verdicts.
    argv = ("table", "--n", "20", "--s", "65536", "--k", "16", "--format", fmt)
    code, out, _ = invoke(capsys, *argv, "--with-bruteforce")
    assert (code, out) == (EXIT_LIMIT, "")
    rows = [
        (m, phi_k, dsk, pillai_k, rhs + m % 2, rhs, m % 2 == 0)
        for m, phi_k, dsk, pillai_k, rhs in batch.batch_table(20, 65536, 16)
    ]
    assert max(r[4] for r in rows) > 2**64
    assert "".join(cli._render_rows(rows, fmt)) == reference_table(rows, fmt)

    # No rows: csv and plain still give their header, json-lines nothing.
    expected = [] if fmt == "json-lines" else [reference_table([], fmt)]
    assert list(cli._render_rows(iter(()), fmt)) == expected


def test_usage_refusals(capsys, monkeypatch):
    monkeypatch.setenv("MENONK_MAX_ITERATIONS", "0")
    code, _, err = invoke(capsys, "compute", "phi", "--m", "4")
    assert code == EXIT_USAGE and "--max-iterations" in err
    assert err.startswith("error: MENONK_MAX_ITERATIONS ")  # the variable, not a flag, is to blame
    monkeypatch.delenv("MENONK_MAX_ITERATIONS")
    code, _, err = invoke(capsys, "verify", "--m", "a..3", "--s", "0..0", "--k", "1")
    assert code == EXIT_USAGE and "--m bounds must be integers" in err
    # A repeated power would count each grid point once per repeat.
    code, out, err = invoke(capsys, "verify", "--m", "1..3", "--s", "0..1", "--k", "1,2,3,1")
    assert (code, out, err) == (EXIT_USAGE, "", "error: --k lists k = 1 more than once\n")


@pytest.mark.parametrize("bad", ["0", "-2", "x", "1.5", ""])
def test_every_integer_at_least_one_is_refused_in_one_wording(capsys, bad):
    # Each value that must be >= 1, including each power of verify's --k list.
    for flag, argv in (
        ("--max-iterations", ["--max-iterations", bad, "compute", "phi", "--m", "4"]),
        ("--m", ["compute", "phi", "--m", bad]),
        ("--k", ["compute", "pillai", "--m", "4", "--k", bad]),
        ("--n", ["table", "--n", bad, "--s", "1", "--k", "1"]),
        ("--k", ["table", "--n", "3", "--s", "1", "--k", bad]),
        ("--m", ["residues", "--m", bad, "--k", "1"]),
        ("--k", ["residues", "--m", "3", "--k", bad]),
        ("--k", ["verify", "--m", "1..3", "--s", "0..0", "--k", f"1,{bad},3"]),
    ):
        message = f"error: {flag} must be an integer >= 1, got {bad!r}\n"
        assert invoke(capsys, *argv) == (EXIT_USAGE, "", message), argv


def test_k_set_repeats_are_found_in_linear_time():
    # Checking each power against all those before it would take seconds here.
    text = ",".join(map(str, range(1, 40_001)))
    start = time.perf_counter()
    assert cli._parse_k_set(text) == list(range(1, 40_001))
    assert time.perf_counter() - start < 1
    with pytest.raises(cli.UsageError, match=r"^--k lists k = 1 more than once$"):
        cli._parse_k_set(text + ",1")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--n", "200000", "--s", "1", "--k", "1", "--no-bruteforce"),
        ("verify", "--m", "1..3000", "--s", "0..3", "--k", "1", "--verbose"),
        ("residues", "--m", "199999", "--k", "1"),
    ],
    ids=["table", "verify", "residues"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # Each command writes far more than a pipe holds; the reader takes its first
    # line (or its first 80 characters) and closes the pipe.
    with subprocess.Popen(
        [sys.executable, "-m", "menonk", *argv],
        cwd=SRC,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline(80)
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=30), err) == (cli.EXIT_BROKEN_PIPE, "")
    assert cli.EXIT_BROKEN_PIPE == 128 + signal.SIGPIPE


def test_table_out_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = invoke(
        capsys, "table", "--n", "3", "--s", "1", "--k", "1", "--out", str(target)
    )
    assert code == EXIT_USAGE and out == "" and "cannot write" in err
    # no *.tmp is left and no directory is created
    assert list(tmp_path.iterdir()) == []


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


def test_table_json_lines_overflow_after_streamed_rows():
    # As for csv: the 215 records before P_16(216) are out, each whole, then exit 2.
    argv = ("table", "--n", "255", "--s", "1", "--k", "16", "--no-bruteforce")
    proc = run_module(*argv, "--format", "json-lines", timeout=30)
    assert proc.returncode == EXIT_LIMIT
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["m"] for r in records] == list(range(1, 216))
    assert proc.stdout.splitlines()[-1].startswith('{"m":215,')
    assert "P_k" in proc.stderr


def test_residues_examples(capsys):
    assert invoke(capsys, "residues", "--m", "12", "--k", "1") == (EXIT_OK, "1 5 7 11\n", "")
    assert invoke(capsys, "residues", "--m", "1", "--k", "2") == (EXIT_OK, "1\n", "")
    code, out, _ = invoke(capsys, "residues", "--m", "4", "--k", "2")
    values = [int(x) for x in out.split()]
    assert len(values) == 12 and all(v % 4 != 0 for v in values)


def test_residues_text_spans_blocks(capsys):
    # 100002 members, so the text is written in many blocks: the same bytes as one joined line.
    expected = " ".join(map(str, range(1, 100003))) + "\n"
    assert invoke(capsys, "residues", "--m", "100003", "--k", "1") == (EXIT_OK, expected, "")


def test_residues_peak_memory():
    # The set's tuple of ints costs about 43 bytes a class; a str per member and one
    # joined line on top of it took about 110, which the block-wise text must not return to.
    m = 300007
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert run(["residues", "--m", str(m), "--k", "1"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 48 * m


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
    assert out.startswith("usage:")
    assert f"(default {DEFAULT_MAX_ITERATIONS};" in " ".join(out.split())
    # argparse ends --help with SystemExit(0); run returns that code instead of raising it
    code, out, _ = invoke(capsys, "table", "--help")
    assert code == EXIT_OK and out.startswith("usage:") and "--with-bruteforce" in out


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
