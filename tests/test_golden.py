"""Golden stdout: runs whose output must not move, compared byte for byte.

Each file under tests/golden/ is the stdout of one command, run in-process
through click's test runner; RUNS gives its arguments and exit code. After an
intended change of output, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and commit the diff with it.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from surfrep.cli import main

GOLDEN = Path(__file__).parent / "golden"

# file name: (command line, exit code); the README's commands first
RUNS = {
    "fox": (["fox", "x1*x2*x1^-1*x2^-1"], 0),
    "cohomology-torus-json": (["cohomology", "--rep", "torus:[0.7,1.1,-0.5,0.3]", "--json"], 0),
    "stratify-central": (["stratify", "--rep", "central:[+,-,+,-]"], 0),
    "cone-span-central": (["cone-span", "--rep", "central:[+,+,+,+]", "--samples", "120"], 0),
    "reduction-so3": (["reduction", "so3", "--samples", "500"], 0),
    "holonomy-check-su2": (["holonomy-check", "--group", "SU2"], 0),
    "genus2-su2-report-seed7-json": (["genus2-su2-report", "--seed", "7", "--json"], 0),
    "genus2-su2-report-seed0": (["genus2-su2-report", "--seed", "0"], 0),
    "cone-span-genus8": (["cone-span", "--genus", "8", "--rep", "random:1", "--samples", "100"], 0),
    "cohomology-genus16": (["cohomology", "--genus", "16", "--rep", "random:3"], 0),
    # edge paths: central points (identity slice basis), product and SO3
    # obstructions, a genus-1 cone and a too-tight rank cutoff (exit 2)
    "cone-span-genus3-central": (["cone-span", "--genus", "3", "--rep", "central:[+,+,+,+,+,+]",
                                  "--samples", "40"], 0),
    "cone-span-su2xu1": (["cone-span", "--group", "SU2xU1", "--samples", "200"], 0),
    "cone-span-so3": (["cone-span", "--group", "SO3", "--samples", "200"], 0),
    "cone-span-genus1": (["cone-span", "--group", "SU2", "--genus", "1", "--rep", "random:1"], 2),
    "cohomology-genus1-tight": (["cohomology", "--genus", "1", "--rep", "random:1",
                                 "--tol-rank", "1e-12"], 2),
    "stratify-genus1-tight": (["stratify", "--genus", "1", "--rep", "random:1",
                               "--tol-rank", "1e-12"], 2),
    "genus2-su2-report-seed3-json": (["genus2-su2-report", "--seed", "3", "--samples", "40",
                                      "--json"], 0),
    "fox-json": (["fox", "x1*x2*x1^-1*x2^-1", "--json"], 0),
    "reduction-so2-json": (["reduction", "so2", "--json"], 0),
    # the sample budget: the relation maximum over MAX_SAMPLES points
    "reduction-so3-10000-json": (["reduction", "so3", "--samples", "10000", "--json"], 0),
    "reduction-so2-10000": (["reduction", "so2", "--samples", "10000"], 0),
}


def run(args):
    return CliRunner().invoke(main, args)


@pytest.mark.parametrize("name", RUNS)
def test_stdout_matches_golden_file(name):
    args, code = RUNS[name]
    result = run(args)
    assert result.exit_code == code, result.stderr
    assert result.stdout_bytes == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    for name, (args, _) in RUNS.items():
        (GOLDEN / f"{name}.txt").write_bytes(run(args).stdout_bytes)
