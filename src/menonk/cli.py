"""Command-line front door: single values, grid verification, tables, residues.

Exit codes: 0 success (and, for verify, zero failures); 1 usage error;
2 overflow or iteration/memory cap; 3 verification failure.  Output is
byte-deterministic for fixed inputs and format.
"""

from __future__ import annotations

import bisect
import json
import sys
from typing import Iterable, Iterator, Sequence

import click

from . import arith, batch, menon
from .limits import (
    MAX_ITERATIONS_ENV,
    ResourceLimitError,
    Uint128OverflowError,
    bounded_pow,
    classes_bound,
)
from .residues import standard_residue_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIMIT = 2
EXIT_VERIFY_FAILED = 3

# function name -> (required parameter names, evaluator)
_COMPUTE_FUNCTIONS = {
    "phi": (("m",), lambda m, s, k, cap: arith.euler_phi(m)),
    "cohen-phi": (("m", "k"), lambda m, s, k, cap: arith.cohen_phi(m, k)),
    "d": (("m",), lambda m, s, k, cap: arith.divisor_count(m)),
    "d-s": (("m", "s"), lambda m, s, k, cap: arith.d_s(m, s)),
    "d-s-k": (("m", "s", "k"), lambda m, s, k, cap: arith.d_s_k(m, s, k)),
    "pillai": (("m", "k"), lambda m, s, k, cap: arith.pillai(m, k)),
    "menon-lhs": (
        ("m", "s", "k"),
        lambda m, s, k, cap: menon.menon_sum_bruteforce(menon.MenonParams(m, s, k), cap),
    ),
    "menon-rhs": (
        ("m", "s", "k"),
        lambda m, s, k, cap: menon.menon_closed_form(menon.MenonParams(m, s, k)),
    ),
}


def _parse_range(text: str, name: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise click.UsageError(f"--{name} expects an inclusive range lo..hi, got {text!r}")
    try:
        lo_val, hi_val = int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"--{name} bounds must be integers, got {text!r}") from None
    if hi_val - lo_val >= sys.maxsize:
        raise click.UsageError(f"--{name} spans more than {sys.maxsize} values")
    return range(lo_val, hi_val + 1)


def _parse_k_set(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",")]
    except ValueError:
        raise click.UsageError(f"--k expects integers like 1 or 1,2,3, got {text!r}") from None
    if any(k < 1 for k in ks):
        raise click.UsageError("--k values must be positive")
    return ks


@click.group()
@click.option(
    "--max-iterations",
    type=int,
    default=None,
    envvar=MAX_ITERATIONS_ENV,
    help="Override the brute-force loop cap (default 10^7; "
    f"also read from ${MAX_ITERATIONS_ENV}).",
)
@click.pass_context
def cli(ctx: click.Context, max_iterations: int | None) -> None:
    """Exact Menon identities: k-th power gcd sums and their closed forms."""
    if max_iterations is not None and max_iterations < 1:
        raise click.UsageError("--max-iterations must be a positive integer")
    ctx.obj = {"max_iterations": max_iterations}


@cli.command("compute")
@click.argument("function", type=click.Choice(sorted(_COMPUTE_FUNCTIONS)))
@click.option("--m", type=int, default=None, help="Modulus (positive integer).")
@click.option("--s", type=int, default=None, help="Integer shift parameter.")
@click.option("--k", type=int, default=None, help="Gcd power (positive integer).")
@click.pass_context
def cmd_compute(ctx, function: str, m: int | None, s: int | None, k: int | None) -> None:
    """Print one exact function value.

    \b
    Examples:
      menonk compute cohen-phi --m 4 --k 2
      menonk compute d-s --m 12 --s 3
      menonk compute menon-lhs --m 12 --s 2 --k 1
    """
    required, evaluate = _COMPUTE_FUNCTIONS[function]
    given = {"m": m, "s": s, "k": k}
    for name in required:
        if given[name] is None:
            raise click.UsageError(f"{function} requires --{name}")
    for name, value in given.items():
        if value is not None and name not in required:
            raise click.UsageError(f"{function} does not take --{name}")
    click.echo(evaluate(m, s, k, ctx.obj["max_iterations"]))


@cli.command("verify")
@click.option("--m", "m_range", required=True, help="Inclusive modulus range lo..hi.")
@click.option("--s", "s_range", required=True, help="Inclusive shift range lo..hi.")
@click.option("--k", "k_set", required=True, help="Power or comma-separated powers, e.g. 1,2,3.")
@click.option("--verbose", is_flag=True, help="Print an ok line for every grid point.")
@click.pass_context
def cmd_verify(ctx, m_range: str, s_range: str, k_set: str, verbose: bool) -> None:
    """Check lhs = rhs over a (m, s, k) grid; nonzero exit on any failure.

    Grid points whose brute-force sum would exceed the iteration cap, or
    whose table would exceed the class bound, are skipped and counted.
    Every failure is printed in full (a failure means an implementation
    bug: the identity itself always holds).
    """
    cap = ctx.obj["max_iterations"]
    ms = _parse_range(m_range, "m")
    ss = _parse_range(s_range, "s")
    ks = _parse_k_set(k_set)
    if not ms or not ss or ms.start < 1:
        raise click.UsageError("empty or invalid grid: need m >= 1 and nonempty ranges")

    bound = classes_bound(cap)
    checked = passed = failed = skipped = 0
    for k in ks:
        # m**k grows with m, so the skipped moduli are a suffix of ms.
        over = bisect.bisect_left(ms, True, key=lambda m: bounded_pow(m, k, bound) is None)
        skipped += (len(ms) - over) * len(ss)
        for m in ms[:over]:
            for s, lhs in zip(ss, menon.menon_sums(m, k, ss, cap)):
                rhs = menon.menon_closed_form(menon.MenonParams(m, s, k))
                checked += 1
                if lhs == rhs:
                    passed += 1
                    if verbose:
                        click.echo(f"ok m={m} s={s} k={k} lhs={lhs} rhs={rhs}")
                else:
                    failed += 1
                    click.echo(f"FAIL m={m} s={s} k={k}: lhs={lhs} rhs={rhs}")
    click.echo(f"checked={checked} passed={passed} failed={failed} skipped={skipped}")
    if failed:
        ctx.exit(EXIT_VERIFY_FAILED)


_TABLE_COLUMNS = ("m", "phi_k", "d_s_k", "pillai_k", "menon_lhs", "menon_rhs", "verified")


def _format_cell(value, absent: str) -> str:
    if value is None:
        return absent
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_rows(rows: Iterable[batch.BatchRow], fmt: str) -> Iterator[str]:
    if fmt == "json-lines":
        for r in rows:
            record = {
                "m": r.m,
                "phi_k": r.phi_k,
                "d_s_k": r.d_s_k,
                "pillai_k": r.pillai_k,
            }
            if r.menon_lhs is not None:
                record["menon_lhs"] = r.menon_lhs
            record["menon_rhs"] = r.menon_rhs
            if r.verified is not None:
                record["verified"] = r.verified
            yield json.dumps(record, separators=(",", ":"))
        return
    sep, absent = (",", "") if fmt == "csv" else (" ", "-")
    yield sep.join(_TABLE_COLUMNS)
    for r in rows:
        yield sep.join(
            _format_cell(v, absent)
            for v in (r.m, r.phi_k, r.d_s_k, r.pillai_k, r.menon_lhs, r.menon_rhs, r.verified)
        )


@cli.command("table")
@click.option("--n", type=int, required=True, help="Tabulate m = 1..N.")
@click.option("--s", type=int, required=True, help="Integer shift parameter.")
@click.option("--k", type=int, required=True, help="Gcd power (positive integer).")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "csv", "json-lines"]),
    default="plain",
    show_default=True,
)
@click.option(
    "--with-bruteforce/--no-bruteforce",
    default=True,
    show_default=True,
    help="Fill menon_lhs/verified by direct summation.",
)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.pass_context
def cmd_table(ctx, n: int, s: int, k: int, fmt: str, with_bruteforce: bool, out: str | None) -> None:
    """Tabulate all functions for m = 1..N (sieve-backed, streamed)."""
    if n < 1 or k < 1:
        raise click.UsageError("--n and --k must be positive integers")
    rows = batch.batch_table(n, s, k, with_bruteforce, ctx.obj["max_iterations"])
    lines = _render_rows(rows, fmt)
    if out is None:
        for line in lines:
            click.echo(line)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
        except OSError as exc:
            raise click.ClickException(f"cannot write {out}: {exc}") from exc


@cli.command("residues")
@click.option("--m", type=int, required=True, help="Modulus (positive integer).")
@click.option("--k", type=int, required=True, help="Gcd power (positive integer).")
@click.pass_context
def cmd_residues(ctx, m: int, k: int) -> None:
    """Print the standard k-th power reduced residue set modulo m."""
    if m < 1 or k < 1:
        raise click.UsageError("--m and --k must be positive integers")
    residue_set = standard_residue_set(m, k, ctx.obj["max_iterations"])
    click.echo(" ".join(str(a) for a in residue_set.elements))


def run(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI and map every outcome onto the documented exit codes."""
    try:
        # In non-standalone mode click returns ctx.exit codes instead of
        # calling sys.exit, so thread them through.
        result = cli.main(args=argv, prog_name="menonk", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except (Uint128OverflowError, ResourceLimitError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_LIMIT
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    return result if isinstance(result, int) else EXIT_OK


def main() -> None:
    sys.exit(run())
