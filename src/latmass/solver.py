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
    assert dim % 8 == 0 and dim > 0
    half = dim // 2
    m = abs(bernoulli(half)) / dim
    for j in range(1, half):
        m *= abs(bernoulli(2 * j)) / (4 * j)
    return m


class CheckpointMismatch(RuntimeError):
    """Raised when a checkpoint was written by a run with other settings."""


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

    def save(self, path: str) -> None:
        data = {
            "version": 1,
            "dim": self.dim,
            "masses": {str(rs): str(m) for rs, m in self.rows()},
        }
        _atomic_write_json(path, data)

    @classmethod
    def load(cls, path: str) -> "MassTable":
        with open(path) as fh:
            data = json.load(fh)
        assert data["version"] == 1
        masses = {RootSystem.parse(k): Fraction(v) for k, v in data["masses"].items()}
        assert all(m > 0 for m in masses.values())
        return cls(data["dim"], masses)


def _atomic_write_json(path: str, data) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")
    os.replace(tmp, path)


def _order_digest(names) -> str:
    return hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]


def _write_checkpoint(path, dim, filters, count, digest, done, nonzero) -> None:
    data = {
        "version": 1,
        "dim": dim,
        "filters": filters,
        "count": count,
        "order_digest": digest,
        "done": done,
        "masses": {str(rs): str(m) for rs, m in nonzero},
    }
    _atomic_write_json(path, data)


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
    """Solve the whole mass table for one dimension (a multiple of 8)."""
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, got {checkpoint_every}")
    systems = enumerate_systems(dim, dim=dim, filters=filters)
    genus = genus_mass(dim)
    count = len(systems)
    digest = _order_digest([str(rs) for rs in systems])
    done = 0
    nonzero: list[tuple[RootSystem, Fraction]] = []

    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            data = json.load(fh)
        if (
            data.get("version") != 1
            or data.get("dim") != dim
            or data.get("filters") != filters
            or data.get("count") != count
            or data.get("order_digest") != digest
        ):
            raise CheckpointMismatch(f"checkpoint {checkpoint} does not match this run")
        done = data["done"]
        nonzero = [(RootSystem.parse(k), Fraction(v)) for k, v in data["masses"].items()]
        nonzero.sort(key=lambda t: t[0].sort_key, reverse=True)

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
        if checkpoint and done % checkpoint_every == 0:
            _write_checkpoint(checkpoint, dim, filters, count, digest, done, nonzero)
        if progress is not None:
            progress(done, count, rs, m)

    if checkpoint:
        _write_checkpoint(checkpoint, dim, filters, count, digest, done, nonzero)
    return MassTable(dim, dict(nonzero))
