"""Mass tables of even unimodular lattices organised by root system.

The masses m(R) of classes with root system exactly R satisfy a triangular
linear system: summing rep_count(R, R') m(R') over all root systems R'
(ordered by rank, then determinant descending, then name) reproduces the
Eisenstein coefficient times the total mass of the genus.  Solving from
the largest system downwards gives every m(R) in exact arithmetic; the
empty system comes out last and forces the table to sum to the genus mass.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .embeddings import rep_count
from .exact import bernoulli
from .roots import RootSystem, enumerate_systems
from .siegel import eisenstein_coefficient


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
        """Write the table; a solve adds its run header (filters, count,
        order_digest, done), and a file with done < count is a checkpoint.
        The masses digest lets a reader catch an edited mass even where the
        genus total cannot, in an unfinished solve."""
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
    return eisenstein_coefficient(rs, dim)


def solve_masses(
    dim: int,
    filters: bool = True,
    workers: int | None = None,
    checkpoint: str | None = None,
    checkpoint_every: int | None = None,
    progress=None,
) -> MassTable:
    """Solve the whole mass table for one dimension (a multiple of 8).

    With `checkpoint`, the table so far is saved to that path every
    `checkpoint_every` systems (default 500) and once finished.  A file
    already there is checked against this run and resumed; a finished one
    is returned without solving anything.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, got {checkpoint_every}")
    systems = enumerate_systems(dim, dim=dim, filters=filters)
    genus = genus_mass(dim)
    count = len(systems)
    digest = _order_digest([str(rs) for rs in systems])
    done = 0
    nonzero: list[tuple[RootSystem, Fraction]] = []

    if checkpoint and os.path.exists(checkpoint):
        header, masses = _read_table(
            checkpoint, dim=dim, filters=filters, count=count, order_digest=digest
        )
        done = header["done"]
        if not set(masses) <= set(systems[count - done :]):
            raise CheckpointMismatch(f"checkpoint {checkpoint} has masses of unsolved systems")
        nonzero = sorted(masses.items(), key=lambda t: t[0].sort_key, reverse=True)

    # the systems still to solve, largest first
    todo = systems[: count - done][::-1]
    if workers and workers > 1 and todo:
        # every coefficient is ready before back-substitution starts
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(todo) // (workers * 8))
            values = list(pool.map(_coefficient_job, todo, [dim] * len(todo), chunksize=chunk))
    else:
        values = (eisenstein_coefficient(rs, dim) for rs in todo)

    if checkpoint and checkpoint_every is None:
        checkpoint_every = 500

    for rs, a in zip(todo, values):
        acc = genus * a
        for rs_j, m_j in nonzero:
            acc -= rep_count(rs, rs_j) * m_j
        m = acc / rs.aut_order
        if m < 0:
            raise RuntimeError(f"negative mass for root system {rs}")
        if m:
            nonzero.append((rs, m))
        done += 1
        # checkpoint first: a progress callback may stop the run by raising
        if checkpoint and (done % checkpoint_every == 0 or done == count):
            MassTable(dim, dict(nonzero)).save(
                checkpoint, filters=filters, count=count, order_digest=digest, done=done
            )
        if progress is not None:
            progress(done, count, rs, m)

    return MassTable(dim, dict(nonzero))
