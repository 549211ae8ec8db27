"""Genus masses and the triangular solve in dimensions 8 and 16."""

import json
import math
from fractions import Fraction

import pytest

from latmass.roots import RootSystem
from latmass.solver import (
    CheckpointMismatch,
    MassTable,
    _masses_digest,
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
        solve_masses(16, checkpoint=path, checkpoint_every=100, progress=stop_after(150))
    with open(path) as fh:
        assert json.load(fh)["done"] == 100
    resumed = solve_masses(16, checkpoint=path, checkpoint_every=100)
    assert resumed.masses == solve_masses(16).masses


def test_checkpoint_written_before_progress(tmp_path):
    # a run stopped from its callback on a checkpoint step keeps that step
    path = str(tmp_path / "dim16.json")
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=path, checkpoint_every=10, progress=stop_after(10))
    with open(path) as fh:
        assert json.load(fh)["done"] == 10


def test_checkpoint_mismatch_rejected(tmp_path):
    path = str(tmp_path / "dim16.json")
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=path, checkpoint_every=5, progress=stop_after(10))
    with pytest.raises(CheckpointMismatch, match="does not match"):
        solve_masses(16, checkpoint=path, filters=False)


def test_mass_table_save_load(tmp_path):
    table = solve_masses(16)
    path = str(tmp_path / "table.json")
    table.save(path)
    loaded = MassTable.load(path)
    assert loaded.dim == 16
    assert loaded.masses == table.masses


def test_workers_match_serial():
    assert solve_masses(16, workers=2).masses == solve_masses(16).masses


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
        solve_masses(16, checkpoint=str(path), checkpoint_every=5, progress=stop_after(10))
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
        solve_masses(16, checkpoint=str(path), checkpoint_every=500, progress=stop_after(1500))
    good = json.loads(path.read_text())
    assert (good["done"], good["count"]) == (1500, 2013)
    edited = {**good, "masses": {**good["masses"], "D16": "1/3"}}
    missing = {k: v for k, v in good.items() if k != "masses_digest"}
    for data in (edited, missing):
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointMismatch, match="masses digest"):
            solve_masses(16, checkpoint=str(path))
