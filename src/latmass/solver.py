"""Mass tables of even unimodular lattices organised by root system.

The masses m(R) of classes with root system exactly R satisfy a triangular
linear system: summing rep_count(R, R') m(R') over all root systems R'
(ordered by rank, then determinant descending, then name) reproduces the
Eisenstein coefficient times the total mass of the genus.  Solving from
the largest system downwards gives every m(R) in exact arithmetic; the
empty system comes out last and forces the table to sum to the genus mass.

The back-substitution runs in integers.  With the genus mass G/D in lowest
terms, each nonzero mass m is kept as M = m*D, an int: every mass at dims 8,
16, 24 and 32 has a denominator dividing D.  Nothing proves that it must,
so a mass whose M would not be an integer grows D to the lcm of D and its
denominator, and every stored M with it; exactness never rests on the
observation.  The pull loop asks rep_count only for the targets that
embeddings.Targets admits.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .embeddings import Targets, rep_count
from .exact import bernoulli
from .roots import RootSystem, _rank_counts, _walk, enumerate_systems
from .siegel import eisenstein_coefficient

CHECKPOINT_EVERY = 500  # systems solved between checkpoint saves
ZERO = Fraction(0)  # the mass progress is given for every system of mass 0


def genus_mass(dim: int) -> Fraction:
    """Mass of the genus of even unimodular lattices of the given dimension."""
    if dim <= 0 or dim % 8:
        raise ValueError(f"even unimodular lattices need a positive multiple of 8, got {dim!r}")
    half = dim // 2
    m = abs(bernoulli(half)) / dim
    for j in range(1, half):
        m *= abs(bernoulli(2 * j)) / (4 * j)
    return m


class CheckpointMismatch(ValueError):
    """Raised when a saved table was written by a run with other settings
    or fails the checks made before it is trusted."""


@dataclass
class MassTable:
    dim: int
    masses: dict  # RootSystem -> positive Fraction

    def mass(self, rs: RootSystem) -> Fraction:
        return self.masses.get(rs, Fraction(0))

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def rows(self):
        return sorted(self.masses.items(), key=lambda t: t[0].sort_key)

    def verify_total(self) -> bool:
        return self.total_mass == genus_mass(self.dim)

    def save(self, path: str, **run_header) -> None:
        """Write the table; a solve adds its run header (count, order_digest,
        done), and a file with done < count is a checkpoint.
        The masses digest lets a reader catch an edited mass even where the
        genus total cannot, in an unfinished solve.  The file is written in
        full and synced to disk before it replaces the old one, so a crash
        leaves one table or the other, not a truncated file."""
        masses = {str(rs): str(m) for rs, m in self.rows()}
        data = {
            "version": 1,
            "dim": self.dim,
            **run_header,
            "masses_digest": _masses_digest(masses),
            "masses": masses,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(data, fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "MassTable":
        """Read a finished table; checkpoints of unfinished solves are refused."""
        header, masses = _read_table(path)
        if header.get("done") != header.get("count"):
            raise CheckpointMismatch(
                f"{path} is an unfinished solve ({header['done']} of {header['count']} systems)"
            )
        return cls(header["dim"], masses)


def _read_table(path: str, **run) -> tuple[dict, dict]:
    """The header and masses of a saved table, checked before they are
    trusted: the format version, the header fields given in `run`, positive
    masses, for a finished table (done == count, or neither recorded) the
    genus-mass total, and the digest of the masses as written.  Every failed
    check raises CheckpointMismatch."""
    try:
        with open(path) as fh:
            header = json.load(fh)
        written = header.pop("masses")
        masses = {RootSystem.parse(k): Fraction(v) for k, v in written.items()}
        genus = genus_mass(header.get("dim"))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointMismatch(f"{path} is not a mass table: {exc}") from None
    if header.get("version") != 1:
        raise CheckpointMismatch(f"{path} has format version {header.get('version')!r}, not 1")
    if any(header.get(key) != value for key, value in run.items()):
        raise CheckpointMismatch(f"checkpoint {path} does not match this run")
    if not all(m > 0 for m in masses.values()):
        raise CheckpointMismatch(f"{path} holds a mass that is not positive")
    done, count = header.get("done"), header.get("count")
    if done == count:
        if sum(masses.values(), Fraction(0)) != genus:
            raise CheckpointMismatch(f"{path}: the masses do not sum to the genus mass")
    elif not (type(done) is int and type(count) is int and 0 <= done < count):
        raise CheckpointMismatch(f"{path}: {done!r} of {count!r} systems done")
    if header.get("masses_digest") != _masses_digest(written):
        raise CheckpointMismatch(f"{path}: the masses digest is missing or wrong")
    return header, masses


def _masses_digest(masses: dict) -> str:
    """Digest of the sorted name<TAB>mass lines of a table as written."""
    return _order_digest(sorted(f"{name}\t{mass}" for name, mass in masses.items()))


def _order_digest(names) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]


def _coefficient_job(rs, dim):
    # the pool pickles a job by its module-level name, and the worker then
    # reads this module's eisenstein_coefficient, which a patched global (a
    # tracer's wrapper) replaces; a closure cannot be pickled
    return eisenstein_coefficient(rs, dim)


def solve_masses(
    dim: int,
    workers: int | None = None,
    checkpoint: str | None = None,
    progress=None,
) -> MassTable:
    """Solve the whole mass table for one dimension (a multiple of 8).

    The systems are solved from the largest down, each after every system
    it can embed into.  The systems of full rank are built first and those
    of lower rank only when the solve reaches them, so a run stopped early
    never enumerates them; their number, which `progress` and the
    checkpoint header are given, is counted rank by rank without visiting
    them (`roots._rank_counts`).  A pool (`workers` > 1) computes every
    coefficient still to solve up front, and back-substitutes after.

    Each system's coefficient a = p/q gives its mass as (G*p - pull*q) /
    (D*q*|Aut|), where G/D is the genus mass and pull is the sum of
    rep_count times M = m*D over the nonzero masses found before it, all
    in integers.  A numerator of 0 is a mass of 0, found with no division.
    A nonzero mass whose M is not an integer grows D to the lcm of D and
    its denominator, and every stored M is rescaled; a resumed checkpoint's
    masses are converted the same way.  Each nonzero mass is made a
    Fraction once, for the checkpoints and the returned table.

    With `checkpoint`, the table so far is saved to that path every
    CHECKPOINT_EVERY systems and once finished, with a digest of the names
    of the systems solved so far, in enumeration order.  A file already
    there is checked against this run, its digest against the systems this
    run solves first, and resumed; a finished one is returned without
    solving anything.  Either path resumes a checkpoint the other wrote.
    """
    genus = genus_mass(dim)
    top = _walk(dim, dim, True)
    count = sum(_rank_counts(dim - 1, dim)) + len(top)
    todo = _largest_first(dim, top)  # the systems still to solve, largest first
    done = 0
    nonzero: list[tuple[RootSystem, Fraction]] = []
    targets = Targets()  # the same masses as M = m*D
    G, D = genus.numerator, genus.denominator
    solved: list[str] = []  # names in solve order, kept only for the checkpoint digest

    def cover(m: Fraction) -> int:
        """m*D, once D is grown to the lcm of D and m's denominator (with
        G and every stored M) if it is not a multiple of it already."""
        nonlocal G, D
        k = m.denominator // gcd(D, m.denominator)
        if k > 1:
            G, D = G * k, D * k
            targets.scale(k)
        return m.numerator * (D // m.denominator)

    if checkpoint and os.path.exists(checkpoint):
        header, masses = _read_table(checkpoint, dim=dim, count=count)
        done = header["done"]
        prefix = list(islice(todo, done))
        solved = [str(rs) for rs in prefix]
        if header.get("order_digest") != _order_digest(reversed(solved)):
            raise CheckpointMismatch(f"checkpoint {checkpoint} does not match this run")
        if not set(masses) <= set(prefix):
            raise CheckpointMismatch(f"checkpoint {checkpoint} has masses of unsolved systems")
        # the pull sums below are exact, so their order does not matter
        nonzero = list(masses.items())
        for rs, m in nonzero:
            targets.add(rs, cover(m))

    if workers and workers > 1 and done < count:
        # every coefficient is ready before back-substitution starts
        todo = list(todo)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(todo) // (workers * 8))
            values = list(pool.map(_coefficient_job, todo, [dim] * len(todo), chunksize=chunk))
        jobs = zip(todo, values)
    else:
        # todo is a generator, read once
        jobs = ((rs, eisenstein_coefficient(rs, dim)) for rs in todo)

    for rs, a in jobs:
        pull = 0
        for rs_j, M_j in targets.admit(rs):
            pull += rep_count(rs, rs_j) * M_j
        num = G * a.numerator - pull * a.denominator
        if num:
            if num < 0:
                raise RuntimeError(f"negative mass for root system {rs}")
            m = Fraction(num, D * a.denominator * rs.aut_order)
            targets.add(rs, cover(m))
            nonzero.append((rs, m))
        else:
            m = ZERO
        done += 1
        if checkpoint:
            solved.append(str(rs))
        # checkpoint first: a progress callback may stop the run by raising
        if checkpoint and (done % CHECKPOINT_EVERY == 0 or done == count):
            digest = _order_digest(reversed(solved))
            MassTable(dim, dict(nonzero)).save(
                checkpoint, count=count, order_digest=digest, done=done
            )
        if progress is not None:
            progress(done, count, rs, m)

    if done != count:
        raise RuntimeError(f"solved {done} of {count} root systems")
    return MassTable(dim, dict(nonzero))


def _largest_first(dim: int, top: list[RootSystem]):
    """The solve list of `dim` in reverse: the systems of full rank (`top`,
    in solve order), then those of lower rank, enumerated only when the
    first of them is asked for."""
    yield from reversed(top)
    yield from reversed(enumerate_systems(dim - 1, dim=dim))
