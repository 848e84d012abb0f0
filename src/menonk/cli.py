"""Command-line front door: single values, grid verification, tables, residues.

Exit codes: 0 success (and, for verify, zero failures); 1 usage error;
2 overflow or iteration/memory cap; 3 verification failure.  Output is
byte-deterministic for fixed inputs and format.  Lines are written with
``print``, not ``click.echo``: echo caches a wrapper per ``sys.stdout``
object in a ``WeakKeyDictionary`` whose value is the stream itself, so
every in-process ``run`` under a fresh redirected stream would keep
that stream, and all it captured, alive.
"""

from __future__ import annotations

import contextlib
import os
import sys
from itertools import chain
from typing import Iterable, Iterator, Sequence

import click

from . import arith, batch, menon
from .limits import MAX_ITERATIONS_ENV, ResourceLimitError, Uint128OverflowError
from .residues import standard_residue_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIMIT = 2
EXIT_VERIFY_FAILED = 3

_RESIDUE_BLOCK = 1 << 12  # members `residues` writes at a time

# function name -> (required parameter names, evaluator)
_COMPUTE_FUNCTIONS = {
    "phi": (("m",), lambda m, s, k, cap: arith.euler_phi(m)),
    "cohen-phi": (("m", "k"), lambda m, s, k, cap: arith.cohen_phi(m, k)),
    "d": (("m",), lambda m, s, k, cap: arith.divisor_count(m)),
    "d-s": (("m", "s"), lambda m, s, k, cap: arith.d_s(m, s)),
    "d-s-k": (("m", "s", "k"), lambda m, s, k, cap: arith.d_s_k(m, s, k)),
    "pillai": (("m", "k"), lambda m, s, k, cap: arith.pillai(m, k)),
    "menon-lhs": (("m", "s", "k"), lambda m, s, k, cap: menon.menon_sum_bruteforce(m, s, k, cap)),
    "menon-rhs": (("m", "s", "k"), lambda m, s, k, cap: menon.menon_closed_form(m, s, k)),
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
    type=click.IntRange(min=1),
    default=None,
    envvar=MAX_ITERATIONS_ENV,
    help="Override the brute-force loop cap (default 10^7; "
    f"also read from ${MAX_ITERATIONS_ENV}).",
)
@click.pass_context
def cli(ctx: click.Context, max_iterations: int | None) -> None:
    """Exact Menon identities: k-th power gcd sums and their closed forms."""
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
    print(evaluate(m, s, k, ctx.obj["max_iterations"]))


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

    checked = passed = failed = skipped = 0
    for k in ks:
        for i, m in enumerate(ms):
            try:
                lhss = menon.menon_sums(m, k, ss, cap)
            except (ResourceLimitError, Uint128OverflowError):
                # The class gate refuses m**k, which grows with m: skip the whole suffix.
                skipped += (len(ms) - i) * len(ss)
                break
            for s, lhs in zip(ss, lhss):
                rhs = menon.menon_closed_form(m, s, k)
                checked += 1
                if lhs == rhs:
                    passed += 1
                    if verbose:
                        print(f"ok m={m} s={s} k={k} lhs={lhs} rhs={rhs}")
                else:
                    failed += 1
                    print(f"FAIL m={m} s={s} k={k}: lhs={lhs} rhs={rhs}")
            del lhss  # frees this modulus' mask before the next one is built
    print(f"checked={checked} passed={passed} failed={failed} skipped={skipped}")
    if failed:
        ctx.exit(EXIT_VERIFY_FAILED)


_JSON_BOOLS = {True: "true", False: "false"}


def _render_rows(rows: Iterable[batch.BatchRow], fmt: str) -> Iterator[str]:
    """Yield the table's lines, each ending in a newline: csv and plain a header first.

    Every row is spelled by one ``%`` over a template picked once, from
    the first row, for the format and for brute force on or off (then
    ``menon_lhs`` and ``verified`` are None in every row).  A present cell
    is spelled as JSON spells it: ints in decimal, ``verified`` as
    true/false by lookup.  An absent cell is fixed text in the template:
    "" in csv and "-" in plain; json-lines leaves its key out.
    """
    columns = batch.BatchRow._fields
    rows = iter(rows)
    if fmt != "json-lines":
        sep, absent = (",", "") if fmt == "csv" else (" ", "-")
        yield sep.join(columns) + "\n"
    first = next(rows, None)
    if first is None:
        return
    if fmt == "json-lines":
        cells = [f'"{c}":%s' for c, v in zip(columns, first) if v is not None]
        template = "{" + ",".join(cells) + "}\n"
    else:
        template = sep.join(absent if v is None else "%s" for v in first) + "\n"
    rows = chain((first,), rows)
    if first.verified is None:
        for m, phi_k, d_s_k, pillai_k, _, rhs, _ in rows:
            yield template % (m, phi_k, d_s_k, pillai_k, rhs)
    else:
        spell = _JSON_BOOLS
        for m, phi_k, d_s_k, pillai_k, lhs, rhs, verified in rows:
            yield template % (m, phi_k, d_s_k, pillai_k, lhs, rhs, spell[verified])


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
        sys.stdout.writelines(lines)
    else:
        # A refused row must not leave a shorter table that looks whole, nor
        # clobber an existing file: write beside it and move it into place.
        tmp = f"{out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            os.replace(tmp, out)
        except OSError as exc:
            raise click.ClickException(f"cannot write {out}: {exc}") from exc
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


@cli.command("residues")
@click.option("--m", type=int, required=True, help="Modulus (positive integer).")
@click.option("--k", type=int, required=True, help="Gcd power (positive integer).")
@click.pass_context
def cmd_residues(ctx, m: int, k: int) -> None:
    """Print the standard k-th power reduced residue set modulo m."""
    if m < 1 or k < 1:
        raise click.UsageError("--m and --k must be positive integers")
    elements = standard_residue_set(m, k, ctx.obj["max_iterations"]).elements
    # The text goes out a block at a time, not as a str per member plus one joined line.
    sep = ""
    for o in range(0, len(elements), _RESIDUE_BLOCK):
        sys.stdout.write(sep + " ".join(map(str, elements[o : o + _RESIDUE_BLOCK])))
        sep = " "
    sys.stdout.write("\n")


def run(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI and map every outcome onto the documented exit codes."""
    try:
        # In non-standalone mode click returns ctx.exit codes (--help's 0,
        # verify's 3) instead of calling sys.exit, so thread them through.
        result = cli.main(args=argv, prog_name="menonk", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except (Uint128OverflowError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return result if isinstance(result, int) else EXIT_OK


def main() -> None:
    sys.exit(run())
