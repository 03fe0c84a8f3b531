"""numpy is the only runtime dependency: scipy serves the tests and the
Qhull reference ``oracle.inscribed_radius`` alone."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsrbound

# The directory holding the package under test, so that the fresh
# interpreters below import the same code.
_PACKAGE_ROOT = str(Path(jsrbound.__file__).resolve().parents[1])

# Runs every subcommand on the files named in argv[2:] and prints one
# JSON document; argv[1] == "block" first makes every scipy import fail.
_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
import numpy as np
import jsrbound
from jsrbound.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [list(argv), code, out.getvalue()]

single2, single3, *sets = sys.argv[2:]
runs = [run("plan", "--nu", "3", "--r", "2")]
for path, single in zip(sets, (single2, single3)):
    runs += [
        run("bound", "--input", path, "--n-max", "3"),
        run("oracle", "--input", path, "--n-max", "3"),
        run("chi", "--input", path, "--mesh", "0.2"),
        run("irreducible", "--input", path, "--mesh", "0.2"),
        run("certify", "--input", path, "--mesh", "0.1", "--n", "3"),
        run("gamma", "--input", path, "--samples", "64", "--n", "2"),
        run("example", "p", "--input", single),
        run("zero-test", "--input", path),
        run("kronecker", "--input", single, "--n", "2"),
    ]
try:
    jsrbound.inscribed_radius(np.array([[1.0, 0.0], [0.0, 1.0],
                                        [-1.0, 0.0], [0.0, -1.0]]),
                              jsrbound.NormKind.L2)
    radius = "ok"
except ImportError:
    radius = "ImportError"
print(json.dumps({"runs": runs, "radius": radius, "scipy_loaded": sorted(
                      m for m in sys.modules if m.split(".")[0] == "scipy"
                      and sys.modules[m] is not None)}))
"""

_INPUTS = {
    "single2.json": [[[1, 2], [0, 1]]],
    "single3.json": [[[1, 2, 0], [0, 1, 1], [1, 0, 1]]],
    "pair2.json": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    "pair3.json": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                   [[1, 0, 0], [0, 0, -1], [0, 1, 0]]],
}


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True)


def test_cli_import_loads_no_scipy():
    proc = _fresh("-c", "import sys, jsrbound.cli; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.stdout.strip() == "[]"


def test_every_subcommand_runs_the_same_without_scipy(tmp_path):
    paths = []
    for name, mats in _INPUTS.items():
        path = tmp_path / name
        path.write_text(json.dumps({"dim": len(mats[0]), "matrices": mats}))
        paths.append(str(path))
    blocked = json.loads(_fresh("-c", _SCRIPT, "block", *paths).stdout)
    plain = json.loads(_fresh("-c", _SCRIPT, "plain", *paths).stdout)
    assert len(blocked["runs"]) == 19
    assert blocked["runs"] == plain["runs"]
    assert all(code == 0 for _, code, _ in blocked["runs"])
    assert blocked["scipy_loaded"] == []
    assert blocked["radius"] == "ImportError"
    assert plain["radius"] == "ok"
