"""Golden reports: fixed inputs with the report values and bytes they
must keep.  A change that moves one of these on purpose updates the pin
and says why; a pin is never updated to hide a change."""

import hashlib
import json

import numpy as np
import pytest

from betareif.cli import run
from betareif.cover import CoverConfig, main_packing, reifenberg_flat_map
from betareif.report import emit_report
from betareif.spaces import NormedSpace

from conftest import graph_measure_200, snowflake_sample

FLAT_MAP_SNOWFLAKE_D4 = {
    "distortion": 1.0037366092148736,
    "holder_exponent": 0.9991439065461688,
    "q_alpha": 0.002937445123834383,
    "certified_delta": 0.037333333333333364,
}
FLAT_MAP_SNOWFLAKE_D4_SHA256 = (
    "cf569f41bb8147f488011c34ddcc13b1f2f87876381152b68ce8be01b1c77823")
FLAT_MAP_SNOWFLAKE_D6 = {
    "distortion": 1.0443837929664406,
    "holder_exponent": 0.9984449752487858,
    "q_alpha": 0.005490038074503392,
    "certified_delta": 0.03800690408893685,
}
FLAT_MAP_SNOWFLAKE_D6_SHA256 = (
    "f18c34effd35609d55d1a0585989946c40408fb67b19d04b00252458fa666db6")
PACK_GRAPH_MEASURE_SHA256 = (
    "8c2ea7182cd568023e99502b39da211f78b6dd6d76bf045dcd5bbdc9ccab5862")
BETA_CSV_L4_SADDLE_SHA256 = (
    "7c27ceeb81cc35db12c886306efbea70ca2ba588f118f721938d6a798c67d99b")
COVER_L4_SADDLE_SHA256 = (
    "ad77d8238ddf052f1f0d46c70e04682737be4ed2cc4d53b7de26d441f6c6dc53")
GOODBALL_L4_SADDLE_SHA256 = {
    "good": "cfc964418b19c486cb6ede8fa35a4fa39e1be81bf0a1e3c53e3329c1b7589271",
    "bad": "9cb4ed908505a07fe1a2b59c7b81f5854b39d3ea7981c5dc44759f4ca71fd86c",
}
SNOWFLAKE_SHA256 = {
    "rademacher": "1f7421bba2463fba8bf0f290fe70824b0716b5d3446f17f2e4c0aacc886ecf23",
    "plane": "6cc047c9896d974c04edc986956fd8864c23db3a7f3e2ee23db5ecc82e0a2ce0",
}
BETA_ATOM_L4_SADDLE_LINE_SHA256 = {
    # the l^4 saddle under --space l^p, k = 1: golden-section line distances,
    # whose descent moves with an ulp of the line search
    "inf": "bdf930791eba3e9cb444cdaa753457caf8eb8ba2153b1d0c50f8940c58c6865e",
    1: "7326431276b35085d45106c7787ec0534a5f34f4947c44a048fe07d742b1315c",
}
NOPOWERGAIN_SHA256 = (
    "6cdcce518f4df3fe43301b792abac3cd06d33921c28dd5a9d23f2f32ad602a46")


def _flat_map_report(space, depth):
    S = snowflake_sample([0.08] * 12, depth, 2200)
    _stages, rep = reifenberg_flat_map(space, S, 1, chi=1 / 3, delta=0.2,
                                       max_depth=7, pair_count=120)
    return rep.to_dict()


def test_flat_map_snowflake_depth4_golden(l2_plane):
    doc = _flat_map_report(l2_plane, 4)
    for key, want in FLAT_MAP_SNOWFLAKE_D4.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLAT_MAP_SNOWFLAKE_D4_SHA256


def test_flat_map_snowflake_depth6_golden(l2_plane):
    # 1,025 atoms: large beta_inf stacks whose grids span several blocks
    doc = _flat_map_report(l2_plane, 6)
    for key, want in FLAT_MAP_SNOWFLAKE_D6.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLAT_MAP_SNOWFLAKE_D6_SHA256


def _cli_sha256(argv, out):
    code = run(argv + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def test_beta_csv_l4_saddle_golden(l4_saddle_json, tmp_path):
    # scales 2, 0.2, 0.02: descent at 2 and 0.2, single-atom balls at 0.02
    code, sha = _cli_sha256(["beta", l4_saddle_json, "--k", "2", "--r-lo", "0.02",
                             "--seed", "5"], tmp_path / "beta.csv")
    assert code == 0
    assert sha == BETA_CSV_L4_SADDLE_SHA256


@pytest.mark.parametrize("p", ["inf", 1])
def test_beta_atom_l4_saddle_line_golden(l4_saddle_json, tmp_path, p):
    space = json.dumps({"dim": 3, "norm": {"type": "lp", "p": p}})
    code, sha = _cli_sha256(["beta", l4_saddle_json, "--k", "1", "--atom", "0",
                             "--r-lo", "0.2", "--seed", "5", "--space", space],
                            tmp_path / "beta.json")
    assert code == 0
    assert sha == BETA_ATOM_L4_SADDLE_LINE_SHA256[p]


def test_cover_l4_saddle_golden(l4_saddle_json, tmp_path):
    code, sha = _cli_sha256(["cover", l4_saddle_json, "--k", "2", "--chi", "0.1",
                             "--delta", "0.15", "--max-depth", "2"],
                            tmp_path / "cover.json")
    assert code == 0
    assert sha == COVER_L4_SADDLE_SHA256


def test_pack_graph_measure_golden():
    # the setup of test_cover.test_main_packing_graph_measure
    mu = graph_measure_200(kappa=0.01)
    res = main_packing(NormedSpace(3, 2), mu, np.arange(200), np.zeros(200), 2,
                       M=0.01, cfg=CoverConfig(chi=0.1, delta=0.1, max_depth=3),
                       budget=2)
    blob = emit_report(res, "json")
    assert hashlib.sha256(blob).hexdigest() == PACK_GRAPH_MEASURE_SHA256


@pytest.mark.parametrize("kind,argv", [
    ("good", ["--r", "1.0"]),
    ("bad", ["--r", "0.1", "--center", "[0.3, 0.2, 0.0]"]),
])
def test_goodball_l4_saddle_golden(l4_saddle_json, tmp_path, kind, argv):
    code, sha = _cli_sha256(["goodball", l4_saddle_json, "--k", "2"] + argv,
                            tmp_path / "goodball.json")
    assert code == 0
    assert json.loads((tmp_path / "goodball.json").read_text())["kind"] == kind
    assert sha == GOODBALL_L4_SADDLE_SHA256[kind]


@pytest.mark.parametrize("mode,argv", [
    ("rademacher", ["--p", "3", "--eta", "const:0.05", "--depth", "6"]),
    ("plane", ["--p", "4", "--mode", "plane", "--eta", "geom:0.5", "--depth", "5"]),
])
def test_snowflake_golden(tmp_path, mode, argv):
    code, sha = _cli_sha256(["snowflake"] + argv, tmp_path / "snowflake.json")
    assert code == 0
    assert sha == SNOWFLAKE_SHA256[mode]


def test_nopowergain_golden(tmp_path):
    code, sha = _cli_sha256(["nopowergain", "--eps", "0.02"],
                            tmp_path / "nopowergain.json")
    assert code == 0
    assert sha == NOPOWERGAIN_SHA256
