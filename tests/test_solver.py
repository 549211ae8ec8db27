"""Genus masses and the triangular solve in dimensions 8 and 16."""

import json
import math
import os
from fractions import Fraction

import pytest

from latmass import solver
from latmass.embeddings import rep_count
from latmass.roots import RootSystem, _rank_counts, _walk, enumerate_systems
from latmass.solver import (
    CheckpointMismatch,
    MassTable,
    _masses_digest,
    _order_digest,
    genus_mass,
    solve_masses,
)

parse = RootSystem.parse


def test_genus_mass_dimension_8():
    assert genus_mass(8) == Fraction(1, 696729600)


def test_genus_mass_magnitudes():
    for dim, approx in [(8, 1.435e-9), (16, 2.489e-18), (24, 7.937e-15), (32, 4.031e7)]:
        value = genus_mass(dim)
        assert math.isclose(float(value), approx, rel_tol=5e-3), dim


def test_solve_dimension_8():
    table = solve_masses(8)
    assert table.masses == {parse("E8"): Fraction(1, 696729600)}
    assert table.verify_total()


def test_solve_dimension_16():
    table = solve_masses(16)
    w_d16 = 2**15 * math.factorial(16)
    w_e8 = 696729600
    assert table.masses == {
        parse("D16"): Fraction(1, w_d16),
        parse("E8^2"): Fraction(1, 2 * w_e8**2),
    }
    assert table.total_mass == genus_mass(16)


def test_filters_drop_only_zero_masses(monkeypatch, table8, table16):
    # the solve enumerates with the square-determinant and Borcherds filters;
    # on the full list the dropped systems must come out with mass 0.  The
    # solve reads its top rank from the walk, its count of the lower ranks
    # from _rank_counts and their list from enumerate_systems, so all three
    # are patched
    def unfiltered(max_rank, dim=None):
        return enumerate_systems(max_rank, dim=dim, filters=False)

    def unfiltered_walk(max_rank, dim, top):
        return _walk(max_rank, None, top)

    def unfiltered_counts(max_rank, dim):
        return _rank_counts(max_rank, None)

    monkeypatch.setattr("latmass.solver.enumerate_systems", unfiltered)
    monkeypatch.setattr("latmass.solver._walk", unfiltered_walk)
    monkeypatch.setattr("latmass.solver._rank_counts", unfiltered_counts)
    for filtered in (table8, table16):
        d = filtered.dim
        counts, solved = set(), []

        def progress(done, count, rs, m):
            counts.add(count)
            solved.append(rs)

        table = solve_masses(d, progress=progress)
        assert counts == {len(unfiltered(d, dim=d))}
        assert solved == unfiltered(d, dim=d)[::-1]
        assert len(unfiltered(d, dim=d)) > len(enumerate_systems(d, dim=d))
        assert table.masses == filtered.masses


class Interrupted(Exception):
    pass


def stop_after(limit):
    """Progress callback that interrupts a solve once `limit` systems are done."""

    def progress(done, count, rs, m):
        if done >= limit:
            raise Interrupted

    return progress


def test_checkpoint_resume(tmp_path):
    path = str(tmp_path / "dim16.json")
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=path, progress=stop_after(750))
    with open(path) as fh:
        assert json.load(fh)["done"] == 500
    resumed = solve_masses(16, checkpoint=path)
    assert resumed.masses == solve_masses(16).masses


def test_checkpoint_written_before_progress(tmp_path):
    # a run stopped from its callback on a checkpoint step keeps that step
    path = str(tmp_path / "dim16.json")
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=path, progress=stop_after(500))
    with open(path) as fh:
        assert json.load(fh)["done"] == 500


def test_checkpoint_records_order_digest(tmp_path, table16):
    # only a checkpointed solve hashes the solve order; it must be the
    # digest of the enumeration's names, and the masses those of a solve
    # without a checkpoint
    path = tmp_path / "dim16.json"
    table = solve_masses(16, checkpoint=str(path))
    names = [str(rs) for rs in enumerate_systems(16, dim=16)]
    assert json.loads(path.read_text())["order_digest"] == _order_digest(names)
    assert table.masses == table16.masses
    # an unfinished file digests only the systems solved, the last of the
    # enumeration, in enumeration order
    path = tmp_path / "dim16-500.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(500))
    data = json.loads(path.read_text())
    assert (data["done"], data["order_digest"]) == (500, _order_digest(names[-500:]))
    # an unfinished file that digests the whole order is refused
    path.write_text(json.dumps({**data, "order_digest": _order_digest(names)}))
    with pytest.raises(CheckpointMismatch, match="does not match"):
        solve_masses(16, checkpoint=str(path))


# a dim-16 checkpoint as the solve that walked every lower-rank system to
# count it wrote it, stopped at 750 systems: saved at done = 500
OLD_CHECKPOINT_16 = {
    "version": 1,
    "dim": 16,
    "count": 2013,
    "order_digest": "c99a34ef27967090",
    "done": 500,
    "masses_digest": "07251b16d84fbe3a",
    "masses": {"D16": "1/685597979049984000", "E8^2": "1/970864271032320000"},
}


def test_old_checkpoint_resumes(tmp_path, table16):
    # the counted lower ranks give the count the walked ones gave, so a
    # file written before resumes to the serial table
    path = tmp_path / "dim16.json"
    path.write_text(json.dumps(OLD_CHECKPOINT_16))
    counts = set()
    resumed = solve_masses(
        16, checkpoint=str(path), progress=lambda done, count, rs, m: counts.add(count)
    )
    assert counts == {2013}
    assert resumed.masses == table16.masses
    data = json.loads(path.read_text())
    assert (data["done"], data["count"]) == (2013, 2013)


def test_checkpoint_mismatch_rejected(tmp_path):
    # a checkpoint written for another solve order
    path = tmp_path / "dim16.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(500))
    data = json.loads(path.read_text())
    path.write_text(json.dumps({**data, "order_digest": "0" * 16}))
    with pytest.raises(CheckpointMismatch, match="does not match"):
        solve_masses(16, checkpoint=str(path))


def test_save_syncs_before_replacing(tmp_path, monkeypatch):
    # the temp file is written in full and synced before it is renamed over
    # the table, so a crash cannot leave a truncated table behind
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        stat = os.fstat(fd)
        events.append(("fsync", stat.st_ino, stat.st_size))
        fsync(fd)

    def recording_replace(src, dst):
        stat = os.stat(src)
        events.append(("replace", stat.st_ino, stat.st_size))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    path = tmp_path / "table.json"
    solve_masses(8).save(str(path))
    stat = path.stat()
    assert events == [("fsync", stat.st_ino, stat.st_size), ("replace", stat.st_ino, stat.st_size)]


def test_mass_table_save_load(tmp_path):
    table = solve_masses(16)
    path = str(tmp_path / "table.json")
    table.save(path)
    loaded = MassTable.load(path)
    assert loaded.dim == 16
    assert loaded.masses == table.masses


def test_workers_match_serial(tmp_path):
    # serial or pool, with or without a checkpoint, a solve takes the same
    # solve list: it must give progress the same systems in the same order,
    # the enumeration's reversed, and solve them to one table
    tables, counts, orders = [], [], []
    for kwargs in (
        {},
        {"workers": 2},
        {"checkpoint": str(tmp_path / "serial.json")},
        {"workers": 2, "checkpoint": str(tmp_path / "pool.json")},
    ):
        seen, order = set(), []

        def progress(done, count, rs, m):
            seen.add(count)
            order.append(str(rs))

        tables.append(solve_masses(16, progress=progress, **kwargs))
        counts.append(seen)
        orders.append(order)
    assert all(table.masses == tables[0].masses for table in tables)
    assert counts == [{2013}] * 4
    names = [str(rs) for rs in enumerate_systems(16, dim=16)]
    assert orders == [names[::-1]] * 4


@pytest.mark.parametrize("first, then", [({}, {"workers": 2}), ({"workers": 2}, {})])
def test_checkpoint_resumes_on_the_other_path(tmp_path, table16, first, then):
    # a checkpoint written by the serial solve resumes under the pool and
    # the other way round, and the finished file digests the whole order
    path = str(tmp_path / "dim16.json")
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=path, progress=stop_after(750), **first)
    with open(path) as fh:
        assert json.load(fh)["done"] == 500
    resumed = solve_masses(16, checkpoint=path, **then)
    assert resumed.masses == table16.masses
    names = [str(rs) for rs in enumerate_systems(16, dim=16)]
    with open(path) as fh:
        data = json.load(fh)
    assert (data["done"], data["order_digest"]) == (2013, _order_digest(names))


def test_serial_solve_streams_lower_ranks(monkeypatch, tmp_path):
    # the first 250 systems of the serial dim-32 solve are all of rank 32,
    # so the solve must not enumerate the lower ranks to reach them, with
    # or without a checkpoint
    def refuse(*args, **kwargs):
        raise AssertionError("the lower ranks were enumerated")

    monkeypatch.setattr("latmass.solver.enumerate_systems", refuse)
    for checkpoint in (None, str(tmp_path / "dim32.json")):
        seen = []

        def progress(done, count, rs, m):
            seen.append((done, count, rs.rank))
            if done >= 250:
                raise Interrupted

        with pytest.raises(Interrupted):
            solve_masses(32, checkpoint=checkpoint, progress=progress)
        assert seen == [(i, 135443, 32) for i in range(1, 251)]


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("dim", [44, 36, 0, -8])
def test_bad_dimension_rejected_before_enumerating(monkeypatch, dim, workers):
    # the genus mass rejects the dimension before any system is built
    def refuse(*args, **kwargs):
        raise AssertionError("systems were enumerated")

    monkeypatch.setattr("latmass.solver._walk", refuse)
    monkeypatch.setattr("latmass.solver.enumerate_systems", refuse)
    with pytest.raises(ValueError, match="positive multiple of 8"):
        solve_masses(dim, workers=workers)


def test_saved_table_checks(tmp_path):
    path = tmp_path / "table.json"
    solve_masses(8, checkpoint=str(path))
    good = json.loads(path.read_text())
    assert good["done"] == good["count"]
    assert MassTable.load(str(path)).masses == {parse("E8"): Fraction(1, 696729600)}
    for key, value, message in [
        ("version", 2, "format version"),
        ("masses", {"E8": "-1/696729600"}, "not positive"),
        ("masses", {"E8": "1/3"}, "genus mass"),
        ("masses", {"E9": "1"}, "not a mass table"),
        ("done", good["count"] - 1, "unfinished"),
    ]:
        path.write_text(json.dumps({**good, key: value}))
        with pytest.raises(CheckpointMismatch, match=message):
            MassTable.load(str(path))


def test_checkpoint_with_unsolved_mass_rejected(tmp_path):
    path = tmp_path / "dim16.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(500))
    data = json.loads(path.read_text())
    data["masses"]["A1"] = "1/7"  # A1 is solved near the end
    # a matching digest, so that only the unsolved-system check can object
    data["masses_digest"] = _masses_digest(data["masses"])
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointMismatch, match="unsolved"):
        solve_masses(16, checkpoint=str(path))


def test_edited_checkpoint_mass_rejected(tmp_path):
    # D16 is among the first systems solved, so an unfinished checkpoint
    # holds its mass; 1/3 is positive and no genus total applies yet
    path = tmp_path / "dim16.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(1500))
    good = json.loads(path.read_text())
    assert (good["done"], good["count"]) == (1500, 2013)
    edited = {**good, "masses": {**good["masses"], "D16": "1/3"}}
    missing = {k: v for k, v in good.items() if k != "masses_digest"}
    for data in (edited, missing):
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointMismatch, match="masses digest"):
            solve_masses(16, checkpoint=str(path))


def test_mass_outside_the_genus_denominator(monkeypatch, tmp_path, table16):
    # coefficients as if D16 lost a mass eps to two systems of mass 0, eps/19
    # to one and 18 eps/19 to the other: their masses have denominators
    # outside the genus mass's (17 and 19 do not divide it), so the solve
    # grows its denominator at D16, rescaling E8^2's stored numerator, and
    # again at the first of the two.  Its table must equal a back-substitution
    # in Fractions, and so must a resume of a checkpoint holding D16's mass
    genus = genus_mass(16)
    eps = Fraction(1, 17 * 10**20)
    systems = enumerate_systems(16, dim=16)[::-1]
    moved = {parse("D16"): -eps, systems[600]: eps / 19, systems[1000]: eps * 18 / 19}
    coefficient = solver.eisenstein_coefficient

    def shifted(rs, dim):
        return coefficient(rs, dim) + sum(rep_count(rs, x) * d for x, d in moved.items()) / genus

    monkeypatch.setattr("latmass.solver.eisenstein_coefficient", shifted)
    want = {}
    for rs in systems:
        acc = genus * shifted(rs, 16) - sum(rep_count(rs, t) * m for t, m in want.items())
        m = acc / rs.aut_order
        assert m >= 0, rs
        if m:
            want[rs] = m
    assert want == {rs: table16.mass(rs) + moved.get(rs, 0) for rs in [*table16.masses, *moved]}
    assert all(genus.denominator % want[rs].denominator for rs in moved)
    assert solve_masses(16).masses == want
    path = tmp_path / "dim16.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(750))
    data = json.loads(path.read_text())
    assert data["done"] == 500 and Fraction(data["masses"]["D16"]) == want[parse("D16")]
    assert solve_masses(16, checkpoint=str(path)).masses == want
