"""End-to-end checks of the command-line surface."""

import json
import os
import re
from fractions import Fraction

import pytest

from conftest import run_python
from latmass.cli import _usable_cpus, main
from latmass.roots import enumerate_systems
from latmass.solver import _order_digest, genus_mass, solve_masses
from test_solver import Interrupted, stop_after


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_coeff_root_system(capsys):
    data = run_json(capsys, "coeff", "A2", "--dim", "8")
    assert data["kind"] == "coefficient"
    assert data["rows"] == [{"form": "A2", "dim": 8, "coefficient": "13440"}]


def test_coeff_weight_twelve(capsys):
    data = run_json(capsys, "coeff", "A1", "--dim", "24")
    assert Fraction(data["rows"][0]["coefficient"]) == Fraction(65520, 691)


def test_coeff_gram_matches_root_system(capsys, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text("[[2,1],[1,2]]")
    data = run_json(capsys, "coeff", str(path), "--dim", "8")
    assert data["rows"][0]["coefficient"] == "13440"


def test_mass_dim8(capsys):
    code, out, _ = run(capsys, "mass", "--dim", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "root_system,mass,mass_times_weyl,decimal"
    assert lines[1:] == ["E8,1/696729600,1,1"]


def test_mass_all_includes_zero_rows(capsys):
    code, out, _ = run(capsys, "mass", "--dim", "8", "--all", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 79
    nonzero = [line for line in lines if line.split("\t")[1] != "0"]
    assert len(nonzero) == 1 and nonzero[0].startswith("E8\t")


def test_mass_coefficient_mode(capsys):
    data = run_json(capsys, "mass", "--dim", "32", "--max-rank", "0")
    assert data["kind"] == "coefficients"
    assert data["rows"] == [{"root_system": "0", "coefficient": "1", "decimal": "1"}]


def test_mass_coefficient_listing_has_every_system(capsys):
    # the dim-32 solve list drops systems by Borcherds' root-count moduli,
    # but every system has a coefficient: E7's is not 0
    data = run_json(capsys, "mass", "--dim", "32", "--max-rank", "7")
    values = {row["root_system"]: row["coefficient"] for row in data["rows"]}
    assert len(data["rows"]) == len(values) == 62
    assert {"A1 D6", "A1 E6", "D7", "E7"} <= values.keys()
    coeff = run_json(capsys, "coeff", "E7", "--dim", "32")["rows"][0]["coefficient"]
    assert values["E7"] == coeff != "0"


def test_mass_progress_notes(capsys):
    code, _, err = run(capsys, "mass", "--dim", "16")
    assert code == 0
    notes = err.strip().splitlines()
    note = r"dim 16: solved 2000/2013 root systems, \d+ nonzero, ETA at least \d+:\d\d:\d\d"
    assert re.fullmatch(note, notes[0])
    assert notes[-1].startswith("dim 16: solved 2013/2013 root systems, 2 nonzero, ETA at least ")


def test_threads_out_of_range_exit_2(capsys, tmp_path):
    # rejected while parsing: no cache directory is made, no worker started
    cache = tmp_path / "unused"
    for threads in (0, -1, os.cpu_count() + 1):
        with pytest.raises(SystemExit) as exc:
            main(["mass", "--dim", "8", "--threads", str(threads), "--cache", str(cache)])
        assert exc.value.code == 2
        assert "--threads: must lie in 1.." in capsys.readouterr().err
    assert not cache.exists()


def test_threads_bounded_by_the_affinity_set(capsys, monkeypatch):
    # a process pinned to one CPU of many may not start two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["mass", "--dim", "8", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads: must lie in 1..1, got 2" in capsys.readouterr().err


@pytest.mark.skipif(_usable_cpus() < 2, reason="the pool needs two CPUs")
def test_threads_print_the_serial_table(capsys):
    # the pool computes the coefficients of the same solve list
    serial = run(capsys, "mass", "--dim", "16", "--format", "csv")
    pooled = run(capsys, "mass", "--dim", "16", "--threads", "2", "--format", "csv")
    assert serial[0] == pooled[0] == 0
    assert pooled[1] == serial[1]


def test_mass_json_round_trips_exactly(capsys):
    data = run_json(capsys, "mass", "--dim", "16")
    total = sum(Fraction(row["mass"]) for row in data["rows"])
    assert total == genus_mass(16) == Fraction(data["genus_mass"])


def test_emb(capsys):
    code, out, _ = run(capsys, "emb", "A1^2", "E8", "--format", "tsv")
    assert code == 0
    assert out.strip().splitlines() == ["source\ttarget\tcount", "A1^2\tE8\t30240"]


def test_siegel_example(capsys):
    data = run_json(capsys, "siegel", "--p", "2", "--gram", "(4)", "--x", "1/16")
    row = data["rows"][0]
    assert row["polynomial"] == "1 2 4"
    assert row["value"] == "73/64"


def test_siegel_polynomial_only(capsys):
    data = run_json(capsys, "siegel", "--p", "3", "--gram", "(6)")
    row = data["rows"][0]
    assert row["polynomial"] == "1 3"
    assert row["value"] == ""
    # binary quadratic form of determinant 3: the linear term vanishes
    data = run_json(capsys, "siegel", "--p", "3", "--gram", "(2 1; 1 2)")
    assert data["rows"][0]["polynomial"] == "1"


def test_reduce_and_bounds_from_saved_table(capsys, tmp_path, table24):
    table, _ = table24
    path = tmp_path / "dim24.json"
    table.save(str(path))

    data = run_json(capsys, "reduce", "--from-table", str(path), "--dim", "0")
    assert data["rows"] == [
        {"dimension": 0, "root_system": "0", "mass": "1", "decimal": "1"}
    ]
    assert run(capsys, "reduce", "--from-table", str(path), "--dim", "23")[0] == 2

    data = run_json(capsys, "bounds", "--from-table", str(path), "--dim", "22")
    assert data["rows"] == [
        {
            "dimension": 22,
            "base": 24,
            "genus": "odd",
            "bound": 68,
            "root_system_count": 68,
        }
    ]


def test_bounds_from_table_ignores_base(capsys, tmp_path, table16):
    # the loaded table's dimension is the base, so --base is not checked
    path = tmp_path / "t16.json"
    table16.save(str(path))
    args = ("bounds", "--from-table", str(path), "--dim", "12")
    data = run_json(capsys, *args, "--base", "8")
    assert data == run_json(capsys, *args)
    assert data["rows"][0]["dimension"] == 12 and data["rows"][0]["base"] == 16


def test_bounds_even_genus(capsys):
    code, out, _ = run(capsys, "bounds", "--dim", "16", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "16,16,even,2,2"


def test_cache_reuse(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, _, _ = run(capsys, "mass", "--dim", "8", "--cache", cache)
    assert code == 0
    assert os.path.exists(os.path.join(cache, "masses_dim8.json"))
    code, _, err = run(capsys, "mass", "--dim", "8", "--cache", cache)
    assert code == 0
    assert "loaded cached table" in err


def test_cache_env_variable(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("LATTICE_MASS_CACHE", cache)
    code, _, _ = run(capsys, "mass", "--dim", "8")
    assert code == 0
    assert os.path.exists(os.path.join(cache, "masses_dim8.json"))


def test_checkpoint_cleanup(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "ck")
    code, _, _ = run(capsys, "mass", "--dim", "16", "--cache", cache)
    assert code == 0
    # the finished checkpoint is the cache: one file per solve
    assert os.listdir(cache) == ["masses_dim16.json"]

    def no_coefficients(rs, dim):
        raise AssertionError(f"solved {rs} again")

    monkeypatch.setattr("latmass.solver.eisenstein_coefficient", no_coefficients)
    code, out, err = run(capsys, "mass", "--dim", "16", "--cache", cache)
    assert code == 0
    assert "loaded cached table" in err and "solved" not in err
    assert [row["root_system"] for row in json.loads(out)["rows"]] == ["D16", "E8^2"]


def test_stale_checkpoint_discarded(capsys, tmp_path):
    # a checkpoint written for another solve order
    cache = tmp_path / "stale"
    cache.mkdir()
    stale = cache / "masses_dim16.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(stale), progress=stop_after(500))
    data = json.loads(stale.read_text())
    stale.write_text(json.dumps({**data, "order_digest": "0" * 16}))
    code, out, err = run(capsys, "mass", "--dim", "16", "--cache", str(cache))
    assert code == 0
    assert "discarding stale checkpoint" in err
    rows = json.loads(out)["rows"]
    assert [row["root_system"] for row in rows] == ["D16", "E8^2"]
    data = json.loads(stale.read_text())
    names = [str(rs) for rs in enumerate_systems(16, dim=16)]
    assert data["order_digest"] == _order_digest(names) and data["done"] == data["count"]


def test_edited_checkpoint_discarded(capsys, tmp_path):
    # a mass edited in an unfinished checkpoint fails its digest; before the
    # digest, D16 = 1/3 resumed into a negative mass and exit code 3
    cache = tmp_path / "edited"
    cache.mkdir()
    path = cache / "masses_dim16.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(1500))
    data = json.loads(path.read_text())
    data["masses"]["D16"] = "1/3"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mass", "--dim", "16", "--cache", str(cache))
    assert code == 0
    assert "discarding stale checkpoint" in err and "masses digest" in err
    rows = json.loads(out)["rows"]
    assert [(row["root_system"], row["mass_times_weyl"]) for row in rows] == [
        ("D16", "1"),
        ("E8^2", "1/2"),
    ]


def test_tampered_cache_resolved_under_optimize(capsys, tmp_path):
    cache = tmp_path / "tampered"
    assert run(capsys, "mass", "--dim", "16", "--cache", str(cache))[0] == 0
    path = cache / "masses_dim16.json"
    data = json.loads(path.read_text())
    data["masses"]["D16"] = "1/3"
    path.write_text(json.dumps(data))
    # the checks are raises, not asserts, so they run under python -O
    result = run_python("-O", "-m", "latmass.cli", "mass", "--dim", "16", "--cache", str(cache))
    assert result.returncode == 0, result.stderr
    assert "discarding stale checkpoint" in result.stderr
    assert "do not sum to the genus mass" in result.stderr
    rows = json.loads(result.stdout)["rows"]
    assert [(row["root_system"], row["mass_times_weyl"]) for row in rows] == [
        ("D16", "1"),
        ("E8^2", "1/2"),
    ]
    assert genus_mass(16) == sum(Fraction(row["mass"]) for row in rows)
    assert json.loads(path.read_text())["masses"]["D16"] != "1/3"


def test_from_table_refuses_unfinished_checkpoint(capsys, tmp_path):
    path = tmp_path / "partial.json"
    with pytest.raises(Interrupted):
        solve_masses(16, checkpoint=str(path), progress=stop_after(500))
    code, _, err = run(capsys, "bounds", "--from-table", str(path), "--dim", "14")
    assert code == 2
    assert "unfinished" in err


def test_verify_subcommand(capsys, monkeypatch):
    solved = []

    def counting_solve(dim, *args, **kwargs):
        solved.append(dim)
        return solve_masses(dim, *args, **kwargs)

    monkeypatch.setattr("latmass.cli.solve_masses", counting_solve)
    code, out, err = run(capsys, "verify", "--format", "csv")
    assert code == 0
    assert solved == [8, 16]  # the dim-16 checks share one solve
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 6
    assert all(",pass," in line for line in lines)
    assert err.count("pass:") == 6


def test_verify_fails_under_optimize():
    # the checks are raises, not asserts, so a wrong coefficient fails its
    # check under python -O too
    script = (
        "import sys\n"
        "from latmass import cli\n"
        "cli.scalar_coefficient = lambda m, k: 0\n"
        "sys.exit(cli.main(['verify', '--format', 'csv']))\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 3, result.stderr
    assert "fail: scalar_coefficients_dim8" in result.stderr
    assert result.stderr.count("pass:") == 5


def test_verify_takes_no_solver_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "2"])
    assert exc.value.code == 2


def test_config_errors_exit_2(capsys):
    assert run(capsys, "mass", "--dim", "12")[0] == 2
    assert run(capsys, "coeff", "E9", "--dim", "8")[0] == 2
    # a Z component is refused by name before any arithmetic
    for form, dim in (("Z^2 E8", "16"), ("Z A1", "8"), ("Z", "8")):
        code, _, err = run(capsys, "coeff", form, "--dim", dim)
        assert code == 2 and "has a Z component" in err, (form, err)
    assert run(capsys, "emb", "A1^0", "E8")[0] == 2
    # packed embedding counts hold ranks up to 127
    assert run(capsys, "emb", "A1^128", "A1")[0] == 2
    assert run(capsys, "coeff", "(3)", "--dim", "8")[0] == 2
    assert run(capsys, "coeff", "(2 1; 1 1)", "--dim", "8")[0] == 2
    # leading minors 2, 3, -2: only the last pivot is negative
    assert run(capsys, "siegel", "--p", "3", "--gram", "[[2,1,0],[1,2,2],[0,2,2]]")[0] == 2
    assert run(capsys, "siegel", "--p", "4", "--gram", "(4)")[0] == 2
    assert run(capsys, "siegel", "--p", "9", "--gram", "(4)")[0] == 2
    assert run(capsys, "siegel", "--p", "1", "--gram", "(4)")[0] == 2
    assert run(capsys, "siegel", "--p", "2", "--gram", "(0)")[0] == 2
    assert run(capsys, "bounds", "--dim", "23", "--base", "24")[0] == 2
    assert run(capsys, "reduce", "--dim", "5")[0] == 2
    assert run(capsys, "reduce", "--base", "8", "--dim", "40")[0] == 2
    # JSON entries that are not integers are refused, not truncated
    assert run(capsys, "coeff", "[[2.5]]", "--dim", "8")[0] == 2
    assert run(capsys, "siegel", "--p", "3", "--gram", "[[2.9]]")[0] == 2
    assert run(capsys, "coeff", "[[2, true], [true, 2]]", "--dim", "8")[0] == 2


def test_dim_checked_before_base_solve(capsys, monkeypatch):
    def no_solve(dim, args):
        pytest.fail(f"solved dim {dim} before checking --dim")

    monkeypatch.setattr("latmass.cli._solve_cached", no_solve)
    assert run(capsys, "reduce", "--base", "8", "--dim", "40")[0] == 2
    assert run(capsys, "bounds", "--base", "24", "--dim", "23")[0] == 2
    assert run(capsys, "bounds", "--base", "16", "--dim", "0")[0] == 2


def test_console_script_help():
    result = run_python("-m", "latmass.cli", "--help")
    assert result.returncode == 0
    assert "mass" in result.stdout and "bounds" in result.stdout
