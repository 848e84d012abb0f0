"""Command-line front door: single values, grid verification, tables, residues.

Exit codes: 0 success (and, for verify and a brute-force table, zero
failures); 1 usage error; 2 overflow or iteration/memory cap; 3
verification failure; 141 (128 + SIGPIPE) when the reader closes
stdout early, with nothing on stderr.  Only ``main`` maps that last
one; ``run`` lets BrokenPipeError through.
Output is byte-deterministic for fixed inputs and format.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from . import arith, batch, menon
from .limits import DEFAULT_MAX_ITERATIONS, MAX_ITERATIONS_ENV, ResourceLimitError, Uint128OverflowError
from .residues import standard_residue_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIMIT = 2
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, from main only

_RESIDUE_BLOCK = 1 << 12  # members `residues` writes at a time
_TABLE_BLOCK = 1 << 8  # lines `table --out` writes at a time; 4096 raised the peak RSS

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


class UsageError(Exception):
    """A refused command line: ``run`` prints it and returns EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        # --help but no -h.  Stock argparse reads "--s -2..2" as two options; "-<digit>" is a value.
        self._negative_number_matcher = re.compile(r"-\d")
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise UsageError(f"{message} (see '{self.prog} --help')")


def _positive_int(name: str, text: str) -> int:
    """``text`` as an integer >= 1; any other text is refused in one wording naming ``name``."""
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise UsageError(f"{name} must be an integer >= 1, got {text!r}")


def _parse_range(text: str, name: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"--{name} expects an inclusive range lo..hi, got {text!r}")
    try:
        lo_val, hi_val = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--{name} bounds must be integers, got {text!r}") from None
    if hi_val - lo_val >= sys.maxsize:
        raise UsageError(f"--{name} spans more than {sys.maxsize} values")
    return range(lo_val, hi_val + 1)


def _parse_k_set(text: str) -> list[int]:
    ks = [_positive_int("--k", part) for part in text.split(",")]
    seen = set()
    for k in ks:
        if k in seen:
            raise UsageError(f"--k lists k = {k} more than once")
        seen.add(k)
    return ks


def cmd_compute(args: argparse.Namespace) -> None:
    """Print one exact function value."""
    required, evaluate = _COMPUTE_FUNCTIONS[args.function]
    given = {"m": args.m, "s": args.s, "k": args.k}
    for name in required:
        if given[name] is None:
            raise UsageError(f"{args.function} requires --{name}")
    for name, value in given.items():
        if value is not None and name not in required:
            raise UsageError(f"{args.function} does not take --{name}")
    print(evaluate(args.m, args.s, args.k, args.max_iterations))


def cmd_verify(args: argparse.Namespace) -> int:
    """Check lhs = rhs over a (m, s, k) grid; nonzero exit on any failure.

    Grid points whose brute-force sum would exceed the iteration cap, or
    whose table would exceed the class bound, are skipped and counted.
    Every failure is printed in full (a failure means an implementation
    bug: the identity itself always holds).
    """
    ms, ss = _parse_range(args.m, "m"), _parse_range(args.s, "s")
    ks = _parse_k_set(args.k)
    if not ms or not ss or ms.start < 1:
        raise UsageError("empty or invalid grid: need m >= 1 and nonempty ranges")

    verbose = args.verbose
    checked = failed = skipped = 0
    for k in ks:
        for i, m in enumerate(ms):
            try:
                lhss = menon.menon_sums(m, k, ss, args.max_iterations)
            except (ResourceLimitError, Uint128OverflowError):
                # The class gate refuses m**k, which grows with m: skip the whole suffix.
                skipped += (len(ms) - i) * len(ss)
                break
            # Outside the try: a refusal of the closed route ends the run, it is no skip.
            rhss = menon.menon_closed_forms(m, k, ss)
            for s, lhs, rhs in zip(ss, lhss, rhss):
                if lhs != rhs:
                    failed += 1
                    print(f"FAIL m={m} s={s} k={k}: lhs={lhs} rhs={rhs}")
                elif verbose:
                    print(f"ok m={m} s={s} k={k} lhs={lhs} rhs={rhs}")
            checked += len(ss)
            del lhss  # frees this modulus' mask before the next one is built
    print(f"checked={checked} passed={checked - failed} failed={failed} skipped={skipped}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


_JSON_BOOLS = {True: "true", False: "false"}


def _render_rows(rows: Iterable[tuple], fmt: str) -> Iterator[str]:
    """The table's lines, each ending in a newline: csv and plain a header first.

    Every row is spelled by one ``%`` over a template picked once, from
    the length of the first row: seven cells with brute force on, the
    five of ``batch.CLOSED_COLUMNS`` with it off.  A present cell is
    spelled as JSON spells it: ints in decimal, ``verified`` as
    true/false, looked up by a generator in front of the ``%``.  A cell
    the rows lack is fixed text in the template: "" in csv and "-" in
    plain; json-lines leaves its key out.  The lines are one C-level
    chain: a header tuple, then a ``map`` that fills the template with
    each row as it comes, so five-cell rows resume no Python frame here.
    The first row is pulled only once the header is out.
    """
    columns = batch.COLUMNS
    sep, absent = (",", "") if fmt == "csv" else (" ", "-")

    def parts() -> Iterator[Iterable[str]]:
        rest = iter(rows)
        if fmt != "json-lines":
            yield (sep.join(columns) + "\n",)
        first = next(rest, None)
        if first is None:
            return
        present = columns if len(first) == len(columns) else batch.CLOSED_COLUMNS
        if fmt == "json-lines":
            template = "{" + ",".join(f'"{c}":%s' for c in present) + "}\n"
        else:
            template = sep.join("%s" if c in present else absent for c in columns) + "\n"
        rest = chain((first,), rest)
        if present is columns:
            rest = ((m, phi_k, d_s_k, pillai_k, lhs, rhs, _JSON_BOOLS[verified])
                    for m, phi_k, d_s_k, pillai_k, lhs, rhs, verified in rest)
        yield map(template.__mod__, rest)

    return chain.from_iterable(parts())


def cmd_table(args: argparse.Namespace) -> int:
    """Tabulate all functions for m = 1..N (sieve-backed, streamed).

    With brute force on, the exit is 3 if any row reads verified=false,
    once every row is written.
    """
    rows = batch.batch_table(args.n, args.s, args.k, args.with_bruteforce, args.max_iterations)
    failed = False
    if args.with_bruteforce:
        def note_failures(rows: Iterable[tuple]) -> Iterator[tuple]:
            nonlocal failed
            for row in rows:
                if row[-1] is False:
                    failed = True
                yield row
        rows = note_failures(rows)
    lines = _render_rows(rows, args.fmt)
    if args.out is None:
        # A line at a time: the rows before a refused one are out before the exit 2.
        sys.stdout.writelines(lines)
        return EXIT_VERIFY_FAILED if failed else EXIT_OK
    # A refused row must not leave a shorter table that looks whole, nor
    # clobber an existing file: write beside it and move it into place.
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            # Joined blocks, not a write per line; every line ends in "\n", so "" means the end.
            handle.writelines(iter(lambda: "".join(islice(lines, _TABLE_BLOCK)), ""))
        os.replace(tmp, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_residues(args: argparse.Namespace) -> None:
    """Print the standard k-th power reduced residue set modulo m."""
    elements = standard_residue_set(args.m, args.k, args.max_iterations)
    # The text goes out a block at a time, not as a str per member plus one joined line.
    sep = ""
    for o in range(0, len(elements), _RESIDUE_BLOCK):
        sys.stdout.write(sep + " ".join(map(str, elements[o : o + _RESIDUE_BLOCK])))
        sep = " "
    sys.stdout.write("\n")


def _build_parser() -> _Parser:
    def positive(parser: _Parser, flag: str, **kwargs) -> None:
        parser.add_argument(flag, type=partial(_positive_int, flag), **kwargs)

    parser = _Parser(prog="menonk", description=__doc__.partition("\n")[0])
    positive(parser, "--max-iterations", help="Override the brute-force loop cap "
             f"(default {DEFAULT_MAX_ITERATIONS}; also read from ${MAX_ITERATIONS_ENV}).")
    commands = parser.add_subparsers(dest="command", required=True, prog="menonk")

    def command(fn, **kwargs) -> _Parser:
        summary = fn.__doc__.partition("\n")[0]
        sub = commands.add_parser(fn.__name__[4:], help=summary, description=fn.__doc__, **kwargs)
        sub.set_defaults(cmd=fn)
        return sub
    examples = ("cohen-phi --m 4 --k 2", "d-s --m 12 --s 3", "menon-lhs --m 12 --s 2 --k 1")
    epilog = "examples:" + "".join(f"\n  menonk compute {e}" for e in examples)
    sub = command(cmd_compute, epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub.add_argument("function", choices=sorted(_COMPUTE_FUNCTIONS))
    positive(sub, "--m", help="Modulus (positive integer).")
    sub.add_argument("--s", type=int, help="Integer shift parameter.")
    positive(sub, "--k", help="Gcd power (positive integer).")
    sub = command(cmd_verify)
    sub.add_argument("--m", required=True, help="Inclusive modulus range lo..hi.")
    sub.add_argument("--s", required=True, help="Inclusive shift range lo..hi.")
    sub.add_argument("--k", required=True, help="Power or comma-separated powers, e.g. 1,2,3.")
    sub.add_argument("--verbose", action="store_true", help="Print an ok line per grid point.")
    sub = command(cmd_table)
    positive(sub, "--n", required=True, help="Tabulate m = 1..N.")
    sub.add_argument("--s", type=int, required=True, help="Integer shift parameter.")
    positive(sub, "--k", required=True, help="Gcd power (positive integer).")
    sub.add_argument("--format", dest="fmt", choices=["plain", "csv", "json-lines"],
                     default="plain", help="Output format (default: plain).")
    sub.add_argument("--with-bruteforce", action="store_true", default=True,
                     help="Fill menon_lhs/verified by direct summation (the default).")
    sub.add_argument("--no-bruteforce", dest="with_bruteforce", action="store_false")
    sub.add_argument("--out", help="Write the table to this file, not to stdout.")
    sub = command(cmd_residues)
    positive(sub, "--m", required=True, help="Modulus (positive integer).")
    positive(sub, "--k", required=True, help="Gcd power (positive integer).")
    return parser


_PARSER = _build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI and map every outcome onto the documented exit codes."""
    try:
        args = _PARSER.parse_args(argv)
        # Read per call, not at import; an explicit --max-iterations wins.
        if args.max_iterations is None and (env := os.environ.get(MAX_ITERATIONS_ENV)):
            name = f"{MAX_ITERATIONS_ENV} (the default --max-iterations)"
            args.max_iterations = _positive_int(name, env)
        return args.cmd(args) or EXIT_OK
    except SystemExit as exc:  # --help, once its text is printed
        return exc.code
    except (Uint128OverflowError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: say nothing more, and exit as a process killed by SIGPIPE
        # would; devnull takes the interpreter's last flush of what is still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
