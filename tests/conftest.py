import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import latmass
from latmass.solver import solve_masses

# let test modules borrow each other's oracles regardless of import mode
sys.path.insert(0, str(Path(__file__).parent))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run this interpreter with the given arguments (e.g. "-O", "-c",
    script) in a child that imports latmass from where this process did,
    installed or not; its output is captured as text."""
    env = dict(os.environ, PYTHONPATH=str(Path(latmass.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.fixture(scope="session")
def table8():
    return solve_masses(8)


@pytest.fixture(scope="session")
def table16():
    return solve_masses(16)


@pytest.fixture(scope="session")
def table24():
    """Full dim-24 mass table plus the wall-clock seconds it took to solve."""
    start = time.perf_counter()
    table = solve_masses(24)
    return table, time.perf_counter() - start
