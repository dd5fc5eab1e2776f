"""The import path: `import betareif.cli` loads no scipy module, nor
numpy.ma or numpy.polynomial, and a call of the engine imports no module.

Each test runs a fresh interpreter, since this pytest process has long
since imported scipy.  The child prints one JSON line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from betareif.spaces import NormedSpace

from conftest import l4_saddle_21, snowflake_sample

SRC = Path(__file__).resolve().parent.parent / "src"

COVER_ARGS = ["--k", "2", "--chi", "0.1", "--delta", "0.15", "--max-depth", "2"]
PACK_ARGS = ["--k", "2", "--M", "0.01", "--chi", "0.1", "--delta", "0.1",
             "--max-depth", "3", "--budget", "2"]

IMPORT_PATH = """
import json, os, sys
ARGS = json.loads(sys.argv[1])
from betareif import cli, geometry

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

doc = {"after_import": scipy_modules()}
doc["code"] = cli.run(["cover", ARGS["l4"], *ARGS["cover"], "--out", ARGS["out"]])
doc["after_cover"] = scipy_modules()
doc["kernel_loads"] = geometry._slsqp_kernel.cache_info().misses
kernel = geometry._slsqp_kernel()
import scipy.optimize._slsqplib as lib
doc["same_file"] = os.path.samefile(kernel.__file__, lib.__file__)
print(json.dumps(doc))
"""

CALL = """
import json, sys
import numpy as np
ARGS = json.loads(sys.argv[1])
from betareif import cli, cover
from betareif.spaces import NormedSpace

if ARGS["call"] == "pack":
    argv = ["pack", ARGS["l2"], *ARGS["pack"], "--out", ARGS["out"]]
    call = lambda: cli.run(argv)
elif ARGS["call"] == "cover":
    argv = ["cover", ARGS["l4"], *ARGS["cover"], "--out", ARGS["out"]]
    call = lambda: cli.run(argv)
elif ARGS["call"] == "nopowergain":
    argv = ["nopowergain", "--eps", "0.02", "--out", ARGS["out"]]
    call = lambda: cli.run(argv)
elif ARGS["call"] == "plane":
    from betareif.geometry import AffinePlane, distances_to_affine
    plane = AffinePlane(np.zeros(4), np.array([[1.0, 0.5, -0.2, 0.3], [0.1, 1.0, 0.4, -0.6]]))
    call = lambda: distances_to_affine(NormedSpace(4, 1.0), plane, [[1.0, 2.0, -1.0, 0.5]])
else:
    S = json.loads(open(ARGS["flake"]).read())
    call = lambda: cover.reifenberg_flat_map(NormedSpace(2, 2), S, 1, chi=1 / 3, delta=0.2,
                                             max_depth=7, pair_count=120)
doc = {"preloaded": sorted(m for m in ("numpy.ma", "numpy.polynomial") if m in sys.modules)}
before = set(sys.modules)
call()
doc["added"] = sorted(set(sys.modules) - before)
print(json.dumps(doc))
"""


def _inputs(tmp_path):
    mu = l4_saddle_21()
    paths = {"l4": tmp_path / "l4_saddle.json", "l2": tmp_path / "l2_saddle.json",
             "flake": tmp_path / "flake.json"}
    paths["l4"].write_text(json.dumps(mu.to_json(NormedSpace(3, 4))))
    paths["l2"].write_text(json.dumps(mu.to_json(NormedSpace(3, 2))))
    paths["flake"].write_text(json.dumps(snowflake_sample([0.08] * 12, 4, 2200).tolist()))
    args = {name: str(path) for name, path in paths.items()}
    args.update(out=str(tmp_path / "report.json"), cover=COVER_ARGS, pack=PACK_ARGS)
    return args


def _child(script, args):
    """Run `script` in a fresh interpreter, `args` as its JSON argument;
    the JSON line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_path_loads_no_scipy_module(tmp_path):
    # importing the CLI and running a Hahn-Banach cover at p = 4 (SLSQP
    # extensions at q = 4/3) load no scipy module: the SLSQP kernel comes
    # from scipy's own extension file, which a later import of
    # scipy.optimize loads as usual
    doc = _child(IMPORT_PATH, _inputs(tmp_path))
    assert doc["after_import"] == []
    assert doc["code"] == 0
    assert doc["after_cover"] == []
    assert doc["kernel_loads"] == 1
    assert doc["same_file"]


@pytest.mark.parametrize("call", ["pack", "cover", "flatmap", "nopowergain", "plane"])
def test_a_call_imports_no_module(tmp_path, call):
    # after `import betareif.cli`, a first l^2 pack, l^4 cover, depth-4
    # flat map, no-power-gain witness or 2-plane distance in (R^4, l^1)
    # (the exact vertex solver, no linear program) imports nothing: the modules that
    # numpy and argparse load on first use (numpy.random for default_rng,
    # locale for gettext) load with the package.  numpy.ma (which
    # np.median and np.unique import) and numpy.polynomial load neither
    # with the package nor on a call
    args = _inputs(tmp_path)
    args["call"] = call
    assert _child(CALL, args) == {"preloaded": [], "added": []}
