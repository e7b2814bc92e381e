"""What a run loads.  scipy.linalg (LAPACK) is imported only by a run that
factors or splits a dense M, and hashlib (OpenSSL) only by `rep_seed`.

This test process has loaded both already, so each check runs a script in a
fresh interpreter that imports the mteq under test and prints, as its last
line, a JSON value.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mteq
from mteq.solvers import METHODS


def run_fresh(script, cwd):
    """Run `script` in a new interpreter that imports this mteq; return the
    JSON value on its last line of output."""
    env = {**os.environ, "PYTHONPATH": str(Path(mteq.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(body, cwd):
    """(results, heavy modules loaded) after `body`, which imports what it
    needs and leaves its results in a list `codes`."""
    script = body + (
        "\nimport json, sys"
        "\nprint(json.dumps([codes, [m for m in ('scipy.linalg', '_hashlib') if m in sys.modules]]))"
    )
    return run_fresh(script, cwd)


def test_import_loads_neither(tmp_path):
    codes, loaded = loaded_after("import mteq, mteq.cli, mteq.tensorio\ncodes = []", tmp_path)
    assert loaded == []


def test_coo_gen_solve_analyze_load_neither(tmp_path):
    # P3 is stored as COO and its M is diagonal, so no method factors a matrix
    body = """
from mteq import cli
from mteq.solvers import METHODS
files = ['--tensor', 'p3.tensor.json', '--rhs', 'p3.rhs.txt']
codes = [cli.main(['gen', '--problem', '3', '--n', '10', '--out', 'p3'])]
codes += [cli.main(['solve', *files, '--method', m]) for m in METHODS]
codes.append(cli.main(['analyze', *files]))
"""
    codes, loaded = loaded_after(body, tmp_path)
    assert codes == [0] * (len(METHODS) + 2)
    assert loaded == []


def test_dense_solve_loads_lapack(tmp_path):
    # positive control: ex22's M is dense, so it is factored
    body = "from mteq import cli\ncodes = [cli.main(['solve', '--problem', 'ex22', '--x0', '1.5,2'])]"
    codes, loaded = loaded_after(body, tmp_path)
    assert codes == [0]
    assert "scipy.linalg" in loaded


def test_rep_seed_loads_hashlib(tmp_path):
    # positive control for the _hashlib check
    codes, loaded = loaded_after("from mteq import cli\ncodes = [cli.rep_seed(0, '1', 10, 0)]", tmp_path)
    assert codes == [4730650220223680962]
    assert "_hashlib" in loaded


@pytest.mark.parametrize("method, digest", [
    ("smeqm", "676b8cea4d330cb7d43eba11c85d183bdbc9735c879b9fd18ab1f80e01466bc6"),
    ("gs", "c6ef3d534803001b417f236224e46bafb3462224a678d57a5b4a113f4e00e872"),
    ("anewton", "8d2d88afc850d440b5f19bdc4b7d0a1d41134c72490969f2f770c67fd81e468b"),
])
def test_first_use_lapack_gives_pinned_solution(tmp_path, method, digest):
    # P1 has a dense M, so this solve is where a fresh process loads LAPACK.
    # The digests are of x as LAPACK bound at import gave it (OpenBLAS,
    # numpy 2.4, scipy 1.17).
    script = f"""
import hashlib, json
from mteq import SolveConfig, gen_problem1, solve
inst = gen_problem1(6, 2)
out = solve(inst.tensor, inst.rhs, None, SolveConfig(method={method!r}))
print(json.dumps([out.status.value, hashlib.sha256(out.x.tobytes()).hexdigest()]))
"""
    status, got = run_fresh(script, tmp_path)
    assert status == "Converged"
    assert got == digest
