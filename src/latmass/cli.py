"""Command-line interface over the mass-formula pipeline.

Subcommands expose the main operations one to one: `mass` solves a full even
table, `coeff` evaluates a single Fourier coefficient, `reduce` converts a
table to odd-lattice masses, `bounds` reports class-number lower bounds,
`emb` counts root-system embeddings, `siegel` prints one local factor, and
`verify` runs quick cross-checks of the pipeline against itself.

Tables go to stdout in json (default), csv, or tsv; diagnostics go to
stderr.  All numbers are exact rationals rendered as "num/den"; decimal
columns are display-only.  Exit codes: 0 success, 2 bad configuration,
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import os
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from .embeddings import Targets, rep_count
from .exact import det, factorize
from .padic import jordan_decompose
from .reduction import class_lower_bound, even_class_bound, reduce_masses
from .roots import EMPTY, RootSystem, enumerate_systems
from .siegel import (
    coefficient_for_gram,
    eisenstein_coefficient,
    f_polynomial,
    f_value,
    scalar_coefficient,
)
from .solver import CheckpointMismatch, MassTable, genus_mass, solve_masses

EVEN_DIMS = (8, 16, 24, 32)


class UsageError(ValueError):
    """Bad flags or malformed input; maps to exit code 2."""


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _decimal_str(x: Fraction) -> str:
    """15 significant digits, display only."""
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 15
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _emit(columns, rows, args, kind: str, **meta) -> None:
    out = sys.stdout
    if args.format == "json":
        payload = {
            "version": 1,
            "kind": kind,
            **meta,
            "columns": list(columns),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        delim = "," if args.format == "csv" else "\t"
        writer = csv.writer(out, delimiter=delim, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Inputs


def _parse_gram(text: str, even: bool = True):
    """Accept '[[2,1],[1,2]]' or '(2 1; 1 2)' style matrices."""
    text = text.strip()
    try:
        if text.startswith("["):
            rows = json.loads(text)
        else:
            rows = [
                [int(tok) for tok in chunk.replace(",", " ").split()]
                for chunk in text.strip("()").split(";")
            ]
        gram = tuple(tuple(row) for row in rows)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse Gram matrix {text!r}: {exc}") from None
    # json reads 2.5 as a float and true as a bool: neither is an integer entry
    if any(type(v) is not int for row in gram for v in row):
        raise UsageError(f"Gram matrix entries must be integers, got {text!r}")
    n = len(gram)
    if n == 0 or any(len(row) != n for row in gram):
        raise UsageError("Gram matrix must be square and nonempty")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
        raise UsageError("Gram matrix must be symmetric")
    if even and any(gram[i][i] % 2 for i in range(n)):
        raise UsageError("Gram matrix must be even (even diagonal)")
    try:
        det(gram)
    except ValueError:
        raise UsageError("Gram matrix must be positive definite") from None
    return gram


def _parse_system(text: str) -> RootSystem:
    try:
        return RootSystem.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(text: str) -> int:
    n, limit = int(text), _usable_cpus()
    if not 1 <= n <= limit:
        raise argparse.ArgumentTypeError(f"must lie in 1..{limit}, got {n}")
    return n


def _check_dim(dim: int) -> int:
    if dim not in EVEN_DIMS:
        raise UsageError(f"--dim must be one of {EVEN_DIMS}, got {dim}")
    return dim


# ---------------------------------------------------------------------------
# Cached solving


def _cache_dir(args) -> str | None:
    return getattr(args, "cache", None) or os.environ.get("LATTICE_MASS_CACHE")


def _solve_cached(dim: int, args) -> MassTable:
    """Solve one even dimension; with a cache directory the table is saved
    there, checkpointed while solving and reused once finished."""
    cache = _cache_dir(args)
    path = None
    if cache:
        os.makedirs(cache, exist_ok=True)
        path = os.path.join(cache, f"masses_dim{dim}.json")
    start = time.perf_counter()
    first = None  # systems done before this process solved any
    nonzero = 0

    def progress(done: int, count: int, rs, m) -> None:
        nonlocal first, nonzero
        if first is None:
            first = done - 1
        if m:
            nonzero += 1
        if done % 2000 == 0 or done == count:
            # the rate counts only the systems solved in this process; a
            # system's back-substitution grows with the nonzero masses found
            # so far, so the systems left cost at least this rate: a lower bound
            rate = (done - first) / (time.perf_counter() - start)
            eta = datetime.timedelta(seconds=round((count - done) / rate))
            _note(
                f"dim {dim}: solved {done}/{count} root systems, {nonzero} nonzero, "
                f"ETA at least {eta}"
            )

    kwargs = dict(workers=getattr(args, "threads", None), checkpoint=path, progress=progress)
    try:
        table = solve_masses(dim, **kwargs)
    except CheckpointMismatch as exc:
        # another enumeration, or a file that fails its checks
        _note(f"discarding stale checkpoint: {exc}")
        os.remove(path)
        table = solve_masses(dim, **kwargs)
    if path:
        _note(f"{'loaded cached' if first is None else 'cached'} table {path}")
    return table


# ---------------------------------------------------------------------------
# Subcommands


def cmd_mass(args) -> None:
    dim = _check_dim(args.dim)
    max_rank = dim if args.max_rank is None else args.max_rank
    if not 0 <= max_rank <= dim:
        raise UsageError(f"--max-rank must lie in 0..{dim}")

    if max_rank < dim:
        # masses need full-rank systems; below that only coefficients exist,
        # for every system: the enumeration's filters are for the solve list
        columns = ("root_system", "coefficient", "decimal")
        rows = []
        for rs in enumerate_systems(max_rank):
            value = eisenstein_coefficient(rs, dim)
            rows.append((str(rs), str(value), _decimal_str(value)))
        _emit(columns, rows, args, "coefficients", dim=dim, max_rank=max_rank)
        return

    table = _solve_cached(dim, args)
    masses = dict(table.masses)
    # both lists are in solver order already
    systems = enumerate_systems(dim, dim=dim) if args.all else [rs for rs, _ in table.rows()]
    columns = ("root_system", "mass", "mass_times_weyl", "decimal")
    rows = []
    for rs in systems:
        m = masses.get(rs, Fraction(0))
        mw = m * rs.weyl_order
        rows.append((str(rs), str(m), str(mw), _decimal_str(mw)))
    _emit(columns, rows, args, "masses", dim=dim, genus_mass=str(genus_mass(dim)))


def cmd_coeff(args) -> None:
    dim = _check_dim(args.dim)
    form = args.form
    if os.path.exists(form):
        with open(form) as fh:
            form = fh.read()
    if form.lstrip().startswith(("[", "(")):
        gram = _parse_gram(form)
        label = json.dumps([list(r) for r in gram], separators=(",", ":"))
        value = coefficient_for_gram(gram, dim)
    else:
        rs = _parse_system(form)
        label = str(rs)
        value = eisenstein_coefficient(rs, dim)
    _emit(
        ("form", "dim", "coefficient"),
        [(label, dim, str(value))],
        args,
        "coefficient",
    )


def cmd_emb(args) -> None:
    source = _parse_system(args.source)
    target = _parse_system(args.target)
    count = rep_count(source, target)
    _emit(
        ("source", "target", "count"),
        [(str(source), str(target), count)],
        args,
        "embeddings",
    )


def cmd_siegel(args) -> None:
    if args.p < 2 or factorize(args.p) != {args.p: 1}:
        raise UsageError(f"--p must be prime, got {args.p}")
    # the matrix is the series argument itself, not an even lattice Gram;
    # its integer entries go straight to the elimination
    blocks = jordan_decompose(_parse_gram(args.gram, even=False), args.p)
    poly = f_polynomial(blocks, args.p)
    value = "" if args.x is None else str(f_value(blocks, args.p, _parse_rational(args.x)))
    _emit(
        ("p", "polynomial", "x", "value"),
        [(args.p, " ".join(str(c) for c in poly), args.x or "", value)],
        args,
        "siegel_series",
    )


def _base_table(args, low: int) -> MassTable:
    """The even table that `reduce` and `bounds` start from: the one saved at
    --from-table, which ignores --base, or a solve at --base; for `bounds`,
    an even --dim with neither flag is the base.  --dim names an odd-lattice
    table in low..base-2, or for `bounds` the base itself; it is checked
    before anything is solved."""
    bounds = args.command == "bounds"
    if args.from_table:
        table = MassTable.load(args.from_table)
        if table.dim not in EVEN_DIMS:
            raise UsageError(f"table {args.from_table} has unusable dimension {table.dim}")
        base = table.dim
    elif args.base is not None:
        base = _check_dim(args.base)
    elif bounds and args.dim in EVEN_DIMS:
        base = args.dim
    else:
        raise UsageError("need --base or --from-table")
    dim = args.dim
    if dim is not None and not (low <= dim <= base - 2 or bounds and dim == base):
        raise UsageError(f"--dim must lie in {low}..{base - 2} for base {base}")
    return table if args.from_table else _solve_cached(base, args)


def cmd_reduce(args) -> None:
    table = _base_table(args, 0)
    reduced = reduce_masses(table)
    dims = reduced.dimensions() if args.dim is None else [args.dim]
    columns = ("dimension", "root_system", "mass", "decimal")
    rows = []
    for n in dims:
        for rs in reduced.systems(n):
            m = reduced.mass(n, rs)
            rows.append((n, str(rs), str(m), _decimal_str(m)))
    _emit(columns, rows, args, "reduced_masses", base_dim=table.dim)


def cmd_bounds(args) -> None:
    table = _base_table(args, 1)
    base = table.dim
    dim = args.dim if args.dim is not None else base
    columns = ("dimension", "base", "genus", "bound", "root_system_count")
    if dim == base:
        bound = even_class_bound(table)
        rows = [(dim, base, "even", bound.bound, bound.root_system_count)]
    else:
        reduced = reduce_masses(table)
        even_tables = {dim: _solve_cached(dim, args)} if dim % 8 == 0 else {}
        bound = class_lower_bound(reduced, dim, even_tables)
        rows = [(dim, base, "odd", bound.bound, bound.root_system_count)]
    _emit(columns, rows, args, "class_bounds")


def cmd_verify(args) -> None:
    """Fast self-checks pitting independent parts of the pipeline against
    each other; any mismatch exits with code 3."""
    e8 = RootSystem.parse("E8")
    failures = []
    rows = []

    def check(name, fn):
        start = time.perf_counter()
        try:
            fn()
            status = "pass"
        except Exception as exc:  # noqa: BLE001 - report and keep going
            status = "fail"
            failures.append(f"{name}: {exc}")
        rows.append((name, status, f"{time.perf_counter() - start:.2f}"))
        _note(f"{status}: {name}")

    def expect(ok: bool, what) -> None:
        # a raise, not an assert, so that the checks also run under python -O
        if not ok:
            raise RuntimeError(f"mismatch at {what}")

    def scalar_oracle():
        for m in range(1, 11):
            sigma3 = sum(d**3 for d in range(1, m + 1) if m % d == 0)
            expect(scalar_coefficient(m, 8) == 240 * sigma3, f"m = {m}")

    def dim8_single_class():
        table = solve_masses(8)
        expect(table.masses == {e8: Fraction(1, 696729600)}, "the E8 mass")
        expect(table.verify_total(), "the genus total")

    @functools.cache
    def table16():
        # shared by the dim-16 checks: one solve, timed under the first
        return solve_masses(16)

    def dim16_total_and_bound():
        table = table16()
        expect(table.verify_total(), "the genus total")
        expect(even_class_bound(table)[:2] == (2, 2), "the class bound")

    def coeff_matches_embeddings():
        for name in ("A1", "A2", "A1^2", "D4", "A1 A3", "E8", "A1^8", "A2^4", "A4^2", "D4^2", "A1^4 D4"):
            rs = RootSystem.parse(name)
            expect(eisenstein_coefficient(rs, 8) == rep_count(rs, e8), name)

    def admit_filter_matches_rep_count():
        # every dim-16 system against the systems of rank 16: a target the
        # solve's filter rejects must count 0
        systems = enumerate_systems(16, dim=16)
        targets = [rs for rs in systems if rs.rank == 16]
        index = Targets()
        for t in targets:
            index.add(t, 1)
        for rs in systems:
            admitted = {t.name for t, _ in index.admit(rs)}
            missed = [str(t) for t in targets if t.name not in admitted and rep_count(rs, t)]
            expect(not missed, f"{rs} in {missed}")

    def reduction_identities():
        reduced = reduce_masses(table16())
        expect(reduced.mass(0, EMPTY) == 1, "dimension 0")
        expect(reduced.mass(8, e8) == Fraction(1, 696729600), "dimension 8")

    check("scalar_coefficients_dim8", scalar_oracle)
    check("dim8_single_class", dim8_single_class)
    check("dim16_total_and_bound", dim16_total_and_bound)
    check("coefficients_equal_embedding_counts", coeff_matches_embeddings)
    check("admit_filter_matches_rep_count", admit_filter_matches_rep_count)
    check("reduction_identities", reduction_identities)
    _emit(("check", "status", "seconds"), rows, args, "verify")
    if failures:
        raise RuntimeError("; ".join(failures))


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmass",
        description="Exact masses of unimodular lattices by root system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv", "tsv"), default="json")
        p.set_defaults(func=func)
        return p

    def add_solver_flags(p):
        p.add_argument("--cache", help="table cache directory (env LATTICE_MASS_CACHE)")
        p.add_argument("--threads", type=_thread_count, help="worker processes, 1..nproc")

    p = add("mass", cmd_mass, "solve an even unimodular mass table")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-rank", type=int, dest="max_rank")
    p.add_argument("--all", action="store_true", help="include zero-mass rows")
    add_solver_flags(p)

    p = add("coeff", cmd_coeff, "one Fourier coefficient a(N)")
    p.add_argument("form", help="root system, Gram matrix, or file with one")
    p.add_argument("--dim", type=int, required=True)

    p = add("emb", cmd_emb, "count embeddings of one root system in another")
    p.add_argument("source")
    p.add_argument("target")

    p = add("siegel", cmd_siegel, "one local Siegel series")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--gram", required=True)
    p.add_argument("--x", help="evaluate the series at this rational")

    p = add("reduce", cmd_reduce, "odd-lattice masses below an even table")
    p.add_argument("--base", type=int, help="even base dimension to solve")
    p.add_argument("--from-table", dest="from_table", help="load a saved mass table")
    p.add_argument("--dim", type=int, help="only this reduced dimension")
    add_solver_flags(p)

    p = add("bounds", cmd_bounds, "class-number lower bounds")
    p.add_argument("--dim", type=int, help="lattice dimension (default: the base)")
    p.add_argument("--base", type=int, help="even base dimension to solve")
    p.add_argument("--from-table", dest="from_table", help="load a saved mass table")
    add_solver_flags(p)

    add("verify", cmd_verify, "run quick internal cross-checks")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except (RuntimeError, ArithmeticError, AssertionError) as exc:
        _note(f"internal consistency failure: {exc}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
