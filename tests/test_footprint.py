"""What a run loads.  No gen, solve or analyze run imports scipy.linalg
(LAPACK through scipy, about 28 MB) or scipy.sparse: a dense M is inverted
by numpy.  hashlib (OpenSSL) is imported only by `rep_seed`.

This test process has loaded all of them already, so each check runs a
script in a fresh interpreter that imports the mteq under test and prints,
as its last line, a JSON value.
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
        "\nprint(json.dumps([codes, [m for m in ('scipy.linalg', 'scipy.sparse', '_hashlib') if m in sys.modules]]))"
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


def test_dense_gen_solve_analyze_load_neither(tmp_path):
    # ex22 and P1 have a dense M: smeqm and anewton invert M, gs and sor its lower part
    body = """
from mteq import cli
from mteq.solvers import METHODS
p1 = ['--problem', '1', '--n', '12', '--seed', '3']
codes = [cli.main(['solve', '--problem', 'ex22', '--x0', '1.5,2'])]
codes += [cli.main(['solve', *p1, '--method', m]) for m in METHODS]
codes.append(cli.main(['gen', '--problem', '1', '--n', '6', '--out', 'p1']))
codes.append(cli.main(['analyze', '--tensor', 'p1.tensor.json', '--rhs', 'p1.rhs.txt', '--power']))
"""
    codes, loaded = loaded_after(body, tmp_path)
    assert codes == [0] * (len(METHODS) + 3)
    assert "scipy.linalg" not in loaded and "scipy.sparse" not in loaded  # P1's seeds go through rep_seed


def test_scipy_import_is_seen(tmp_path):
    # positive control for the scipy checks: a script that imports them itself
    body = "import scipy.linalg, scipy.sparse\ncodes = []"
    codes, loaded = loaded_after(body, tmp_path)
    assert loaded[:2] == ["scipy.linalg", "scipy.sparse"]


def test_rep_seed_loads_hashlib(tmp_path):
    # positive control for the _hashlib check
    codes, loaded = loaded_after("from mteq import cli\ncodes = [cli.rep_seed(0, '1', 10, 0)]", tmp_path)
    assert codes == [4730650220223680962]
    assert "_hashlib" in loaded


@pytest.mark.parametrize("method, digest", [
    ("smeqm", "98b266fa70cb6f2e9f2a38347aefc6cc21cecd8a89d30e1744b69ebdec67b4df"),
    ("gs", "6239a8f3fbd973307c7786321cbf7556ab20497586f4072f9a3f57e2c51a4751"),
    ("anewton", "b0af35d0c344ca30fe2f139fb3ba96cc96f2e8a79aec03046ebc1f6b84746db9"),
], ids=["smeqm", "gs", "anewton"])  # the method alone, so a re-pinned digest keeps the test's name
def test_first_use_lapack_gives_pinned_solution(tmp_path, method, digest):
    # P1 has a dense M, so this solve is a fresh process's first use of
    # LAPACK, through numpy.linalg.inv.  The digests are of x as numpy 2.4
    # with its OpenBLAS gives it, for P1 symmetrized on its packed matrix.
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
