"""Golden reports: fixed inputs with the report values and bytes they
must keep.  A change that moves one of these on purpose updates the pin
and says why; a pin is never updated to hide a change."""

import dataclasses
import hashlib
import json

import math

import numpy as np
import pytest

from betareif import cover
from betareif.cli import run
from betareif.cover import (CoverConfig, build_sigma, covering_lemma, main_packing,
                            reifenberg_flat_map, squash_report, tilting_report)
from betareif.geometry import affine_plane, make_projection, pythagorean_report
from betareif.measures import PointMeasure
from betareif.report import emit_report
from betareif.spaces import NormedSpace

from conftest import gamma2_sample, graph_measure_200, snowflake_sample

# The flat-map pins below take beta_inf of lines in the plane as the least
# half-width over the hull-edge normals.  The earlier 2,000-angle grid and
# golden-section search ended within rounding of the same values, at most
# 4e-17 below and 2.4e-16 above them; the lines turned only at one-atom
# balls, from phi near pi/2000 to phi = 0.
# Depth 4: holder_exponent 0.9991439065461688 -> 0.999143906546169,
# q_alpha 0.002937445123834383 -> 0.002937445123834378, certified_delta
# 0.037333333333333364 -> 0.037333333333333336 (the float of 0.112/3) and
# lip_constant_fit 1.2696902496311657 -> 1.269690249631168.
FLAT_MAP_SNOWFLAKE_D4 = {
    "distortion": 1.0037366092148736,
    "holder_exponent": 0.999143906546169,
    "q_alpha": 0.002937445123834378,
    "certified_delta": 0.037333333333333336,
}
FLAT_MAP_SNOWFLAKE_D4_SHA256 = (
    "78ba3a0b1ca3c6fdd77400c44bfa64757b169d23e101d9c0dff06d181abe27ef")
# Depth 6: 63 one-atom balls at r = 3^-5 now get the vertical line instead
# of one turned by pi/2000, and the stage maps move with them: distortion
# 1.0443837929664406 -> 1.0443673206521908, holder_exponent
# 0.9984449752487858 -> 0.9984449645929427, lip_constant_fit
# 7.910152734862468 -> 7.907279821272065; q_alpha 0.005490038074503392 ->
# 0.0054900380745033835, certified_delta 0.03800690408893685 ->
# 0.03800690408893677.
FLAT_MAP_SNOWFLAKE_D6 = {
    "distortion": 1.0443673206521908,
    "holder_exponent": 0.9984449645929427,
    "q_alpha": 0.0054900380745033835,
    "certified_delta": 0.03800690408893677,
}
FLAT_MAP_SNOWFLAKE_D6_SHA256 = (
    "072ef1cc73e6f4da1eaa61e8bfdcccdfad2f6ae9b0ebb2b49e509b9541aa5799")
PACK_GRAPH_MEASURE_SHA256 = (
    "8c2ea7182cd568023e99502b39da211f78b6dd6d76bf045dcd5bbdc9ccab5862")
BETA_CSV_L4_SADDLE_SHA256 = (
    "7c27ceeb81cc35db12c886306efbea70ca2ba588f118f721938d6a798c67d99b")
COVER_L4_SADDLE_SHA256 = (
    "ad77d8238ddf052f1f0d46c70e04682737be4ed2cc4d53b7de26d441f6c6dc53")
GOODBALL_L4_SADDLE_SHA256 = {
    "good": "cfc964418b19c486cb6ede8fa35a4fa39e1be81bf0a1e3c53e3329c1b7589271",
    "bad": "9cb4ed908505a07fe1a2b59c7b81f5854b39d3ea7981c5dc44759f4ca71fd86c",
    # k = 1: the witness plane is the point (0.3, 0.2, 0) with an empty basis
    "bad_k1": "55aa65190ef0d01c209348505c6e23e061ffac87044f897d1b7edafcd6f920d6",
}
SNOWFLAKE_SHA256 = {
    "rademacher": "1f7421bba2463fba8bf0f290fe70824b0716b5d3446f17f2e4c0aacc886ecf23",
    "plane": "6cc047c9896d974c04edc986956fd8864c23db3a7f3e2ee23db5ecc82e0a2ce0",
}
BETA_ATOM_L4_SADDLE_LINE_SHA256 = {
    # the l^4 saddle under --space l^p, k = 1: exact breakpoint line
    # distances.  They differ from the earlier golden-section search by
    # ulps, and the descents on the non-smooth objective end in other local
    # minima: betas at p = inf [0.149147455358, 0.172901116007] ->
    # [0.137637768214, 0.172921971841], at p = 1 [0.189564868058,
    # 0.245140453154] -> [0.18975291126, same].  Each fitted line has the
    # same objective under both distance solvers to 12 digits.
    "inf": "acebb39a1682bda384e9a7e0e8408744593fa2b943ce319855fb2edb99fbbd18",
    1: "4339335e5482470543725e14c5f5a5b764792edf1e15c7499b85966b3ec1459d",
}
# cover --k 1 --max-depth 2 of the same inputs.  Under the exact line
# distances the top ball's descent ends at another T0, with objective
# 0.160276 -> 0.151553 at p = inf and 0.2597752 -> 0.2597374 at p = 1.
# The old T0 passed no atom of B_1 within r_1 / 30 = 1/300 (nearest 0.0120
# at p = inf, 0.0053 at p = 1); the new one passes one (0.0024, 0.0030),
# which becomes stage 1's net point.  At p = inf its ball is good:
# distortion 1.0 -> 1.45995681841, measured_delta 0.77244989729 ->
# 0.760754799443.  At p = 1 it is bad: measured_delta 1.12239891814 ->
# 1.12227484986.
COVER_K1_L4_SADDLE_LINE_SHA256 = {
    "inf": "47f95bb334cd1f5c9781136efd4adc8cc2fc2de3514899bf80f8a18af4dea6ae",
    1: "939c585b0029fd5596fc0022f0d728b3ded2919c462728d72afe00b47edb57c5",
}
# the k = 0 covering and packing of the l^4 saddle at --max-depth 2 (exit 3)
K0_L4_SADDLE_SHA256 = {
    "cover": "2be4436b39cb5abc739f3ae86e9a15f467e9e62b330e73665ba77822d4ab02c6",
    "pack": "6cf7419e24e4a784767c3893e47dc7b96ce95aed523d3e3aa34a2930eedf893a",
}
# results that no CLI command writes, serialized field by field
SQUASH_NOTES_SHA256 = (
    "7805a20ee3d21d35c0ec9a9aebc2df3f38f9471f5bd592c0850b32dd86dc653a")
TILTING_GRAPH_MEASURE_SHA256 = (
    "1955b497cd914eb24004b58d5fb03954a1b5a544e432c2e3d9e449587e69b16e")
PYTHAGOREAN_LINF_SHA256 = (
    "9166ada6c9645cebd9309ddf4f3414041d29cdaddece997f4e339eaeee88e3be")
# the exact witness keeps every digit of the grid scan's bound and c; only
# witness_pair moved, from the grid pair [[-0.6, -0.95, -0.35],
# [-0.5, -0.9, -0.4]] to (0, d*) with d* = (-2, -1, 1) / 18^(1/4)
NOPOWERGAIN_SHA256 = (
    "478523c8e750d9b015c6e715f23d487e95fede4eb6d26805c88ddc595b7226ce")
# the depth-4 snowflake of FLAT_MAP_SNOWFLAKE_D4 read in (R^2, l^p): the
# projection kind of both stages, then the report values.  Under the
# hull-edge beta_inf every value moves by ulps only:
# p = 1: distortion 1.077779466333747 -> 1.0777794663337468,
#   holder_exponent 0.98155897378716 -> 0.9815589737871602, q_alpha
#   0.08788898309344889 -> 0.08788898309344878, certified_delta
#   0.032000000000000035 -> 0.03200000000000001, lip_constant_fit
#   0.8522441862100503 -> 0.8522441862100489.
# p = 1.5: distortion 1.0153817599934463 -> 1.0153817599934476, q_alpha
#   0.016437082253652088 -> 0.016437082253652063, certified_delta
#   0.037333333333333364 -> 0.037333333333333336, lip_constant_fit
#   0.928672118543195 -> 0.9286721185432761.
# p = 4: q_alpha 0.002937445123834383 -> 0.002937445123834378,
#   certified_delta as at p = 1.5, lip_constant_fit 0.009169152745554285
#   -> 0.0091691527455543.
# p = inf: q_alpha 0.09374824863301214 -> 0.09374824863301204,
#   certified_delta as at p = 1.5, lip_constant_fit 1.184260016388409e-14
#   -> 1.1842600163884102e-14.
# Under the exact Hahn-Banach extension at p in {1, inf} (no linear program)
# only p = 1 moves: distortion 1.0777794663337468 -> 1.0726665785742204,
#   holder_exponent 0.9815589737871602 -> 0.9806752765485447 and
#   lip_constant_fit 0.8522441862100489 -> 0.7981395996216774; q_alpha,
#   certified_delta and n_stages keep every bit.  20 of the map's 22 LP
#   solutions were sign(w) / ||w||_1 bit for bit, as now.  The other 2 have
#   w = (1, -6.1e-17): there HiGHS returned phi = (1, 1), a vertex optimal
#   only to its feasibility tolerance; the least-l2 minimizer is (1, 0).
FLAT_MAP_SNOWFLAKE_D4_LP = {
    1: ("hahn_banach", {
        "distortion": 1.0726665785742204,
        "holder_exponent": 0.9806752765485447,
        "q_alpha": 0.08788898309344878,
        "certified_delta": 0.03200000000000001,
    }),
    1.5: ("j_projection", {
        "distortion": 1.0153817599934476,
        "holder_exponent": 0.9961426785716876,
        "q_alpha": 0.016437082253652063,
        "certified_delta": 0.037333333333333336,
    }),
    4: ("j_projection", {
        "distortion": 1.0000269342457424,
        "holder_exponent": 0.9999960006843425,
        "q_alpha": 0.002937445123834378,
        "certified_delta": 0.037333333333333336,
    }),
    math.inf: ("hahn_banach", {
        "distortion": 1.0,
        "holder_exponent": 0.9999999999999997,
        "q_alpha": 0.09374824863301204,
        "certified_delta": 0.037333333333333336,
    }),
}
FLAT_MAP_SNOWFLAKE_D4_LP_SHA256 = {
    1: "fa8aa6bcb67bd4426c2d855339b8383fc0d9be5bc4ad7bd19471d56c1bfefad1",
    1.5: "66ca44893f488db0132caad44e6ad9079fd10bbea9ebdecebc903eeeb7a9e461",
    4: "0b1369c8f9bf1d2c131974bc8e9c2fc91575139ef886da592a5a58e5982dc64d",
    math.inf: "421718bcbdf03f30a310e41b5d2f6e661b819839a180bcbe3ddcef98a42e334b",
}
# the depth-6 snowflake (1,025 atoms, five stages) read in (R^2, l^p) for
# p in {1, inf}, where every sigma is built from exact Hahn-Banach
# extensions: values from the extension's closed form.  At p = inf they
# equal those of the earlier LP extension; at p = 1 its distortion was
# 1.1085232297890695, with the same q_alpha and certified_delta.
FLAT_MAP_SNOWFLAKE_D6_LP = {
    1: ({
        "distortion": 1.0768642199189489,
        "holder_exponent": 0.9823421479172408,
        "q_alpha": 0.17464143261131632,
        "certified_delta": 0.03674074074074075,
    }, "0962a06d94f31b4bae1892c4841c01f804dd2022f5d78c3cb46f2af8145b3fda"),
    math.inf: ({
        "distortion": 1.0332192567567842,
        "holder_exponent": 0.999200455088443,
        "q_alpha": 0.1772779792313435,
        "certified_delta": 0.038507821901323715,
    }, "129967d40bb96c97c0700fe4260abf80ed03a443e8033b55fba00263c5ffd234"),
}
# k = 2 coverings in (R^3, l^2) that reach the branches no workload does:
# (kept originals, bad balls, stages, excess mass) and the report SHA-256
COVER_BRANCH = {
    "originals": ((34, 0, 1, 0.0),
                  "9ff03f87dedf98c6cb3faf76f263598b3f79b86719bd8bd58132c3578957e9fa"),
    "originals_and_bad": ((36, 123, 2, 0.0),
                          "ecf7a927a390e1bfb15bebf878fc33770abaaf008bbcde8d48df9cd7e7319a15"),
    "no_stage": ((0, 0, 0, 0.0),
                 "2cdc3e987cb3e5e551332fa328d16238dbfbeba1e33477b727d84f59dd683d1d"),
    "excess": ((0, 69, 2, 0.1375),
               "e05bce6ae46991ef5261599850388f593dcb6689ba618b4d27f0280793c08fe6"),
    "bad_top": ((0, 1, 0, 0.0),
                "a25f18e93fd968dfae72c805c89866c11bbb04c2c14c440ea5600e2b7e240a73"),
}
PACK_BAD_TOP_SHA256 = (
    "6b24c2cf4f442f8d4a402afe7412a96a67774b35e6b880133f8b60bf931026ea")
PACK_SUB_COVERING_SHA256 = (
    "6bd8bcf40a6018061a850cf9fbd8aa9b782d2fb7b434aa98dee2e1d6ccf847ff")


def _flat_map_report(space, depth):
    S = snowflake_sample([0.08] * 12, depth, 2200)
    stages, rep = reifenberg_flat_map(space, S, 1, chi=1 / 3, delta=0.2,
                                      max_depth=7, pair_count=120)
    return stages, dataclasses.asdict(rep)


def test_flat_map_snowflake_depth4_golden(l2_plane):
    _stages, doc = _flat_map_report(l2_plane, 4)
    for key, want in FLAT_MAP_SNOWFLAKE_D4.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLAT_MAP_SNOWFLAKE_D4_SHA256


def test_flat_map_snowflake_depth6_golden(l2_plane):
    # 1,025 atoms: large beta_inf stacks whose distance tables span
    # several blocks, and hull walks over up to 928 atoms
    _stages, doc = _flat_map_report(l2_plane, 6)
    for key, want in FLAT_MAP_SNOWFLAKE_D6.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLAT_MAP_SNOWFLAKE_D6_SHA256


@pytest.mark.parametrize("p", list(FLAT_MAP_SNOWFLAKE_D4_LP))
def test_flat_map_snowflake_depth4_lp_golden(p):
    stages, doc = _flat_map_report(NormedSpace(2, p), 4)
    kind, values = FLAT_MAP_SNOWFLAKE_D4_LP[p]
    assert doc["n_stages"] == len(stages) == 2
    assert {pj.kind for sg in stages for pj in sg.projections} == {kind}
    for key, want in values.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLAT_MAP_SNOWFLAKE_D4_LP_SHA256[p]


@pytest.mark.parametrize("p", list(FLAT_MAP_SNOWFLAKE_D6_LP))
def test_flat_map_snowflake_depth6_lp_golden(p):
    stages, doc = _flat_map_report(NormedSpace(2, p), 6)
    values, digest = FLAT_MAP_SNOWFLAKE_D6_LP[p]
    assert doc["n_stages"] == len(stages) == 5
    assert {pj.kind for sg in stages for pj in sg.projections} == {"hahn_banach"}
    for key, want in values.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_flat_map_snowflake_depth4_linf_keeps_first_coordinate():
    # at p = inf every Hahn-Banach projection's row functional is exactly
    # e_1, so each sigma moves points only along x_2 and the l^inf distance
    # of the near-horizontal pairs on T0 is kept: distortion exactly 1
    space = NormedSpace(2, math.inf)
    stages, doc = _flat_map_report(space, 4)
    for sg in stages:
        for pj in sg.projections:
            assert pj.row_functionals.tolist() == [[1.0, 0.0]]
    ticks = np.linspace(-1.2, 1.2, 25)
    X = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    X = np.concatenate([X, snowflake_sample([0.08] * 12, 4, 2200)])
    Y = X
    for sg in stages:
        Y = sg.apply_many(Y)
        assert Y[:, 0].tobytes() == X[:, 0].tobytes()
    assert np.abs(Y[:, 1] - X[:, 1]).max() > 0
    assert doc["distortion"] == 1.0


def _cover_branch_case(name):
    """(space, mu, r_s, cfg) of a COVER_BRANCH pin."""
    space = NormedSpace(3, 2)
    if name == "originals":
        uv = np.random.default_rng(1).uniform(-0.7, 0.7, (60, 2))
        mu = PointMeasure(np.concatenate([uv, np.zeros((60, 1))], axis=1), np.ones(60) / 60)
        return space, mu, np.full(60, 0.3), CoverConfig(max_depth=4)
    if name in ("originals_and_bad", "no_stage"):
        # every fourth atom carries an original ball of radius 0.02
        rs = np.zeros(200)
        rs[::4] = 0.02
        cfg = CoverConfig(chi=0.1, delta=0.1, max_depth=3 if name == "originals_and_bad" else 0)
        return space, graph_measure_200(kappa=0.01), rs, cfg
    if name == "excess":
        # every ninth atom lifted off the plane by 0.004
        uv = np.random.default_rng(7).uniform(-0.8, 0.8, (80, 2))
        z = np.zeros((80, 1))
        z[::9] = 0.004
        mu = PointMeasure(np.concatenate([uv, z], axis=1), np.ones(80) / 80)
        return space, mu, np.zeros(80), CoverConfig(max_depth=3)
    assert name == "bad_top"
    return space, PointMeasure(np.zeros((1, 3)), np.ones(1)), np.zeros(1), CoverConfig()


@pytest.mark.parametrize("name", list(COVER_BRANCH))
def test_covering_branch_golden(name):
    space, mu, rs, cfg = _cover_branch_case(name)
    res = covering_lemma(space, mu, rs, 2, cfg)
    (kept, bad, stages, excess), sha = COVER_BRANCH[name]
    assert (len(res.kept_originals), len(res.bad_balls), len(res.stages)) == (kept, bad, stages)
    assert res.excess_mass == excess
    if name == "originals_and_bad":
        # stage 2 retires original and bad balls together
        assert res.stages[1].n_original > 0 and res.stages[1].n_bad > 0
    assert hashlib.sha256(emit_report(res, "json")).hexdigest() == sha


def test_pack_bad_top_golden():
    # the one-atom measure of the bad_top covering: every level refines the
    # one bad ball, until the budget runs out
    space, mu, rs, cfg = _cover_branch_case("bad_top")
    res = main_packing(space, mu, rs, 2, M=0.0, cfg=cfg, budget=4)
    assert [lv.n_bad for lv in res.levels] == [1] * 5
    assert not res.valid
    assert hashlib.sha256(emit_report(res, "json")).hexdigest() == PACK_BAD_TOP_SHA256


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


@pytest.mark.parametrize("p", ["inf", 1])
def test_cover_l4_saddle_line_golden(l4_saddle_json, tmp_path, p):
    # a line fitted to a disk of atoms, far outside the theorem's regime:
    # the top ball's descent, and with it T0 and the distortion, turns on
    # ulp-level changes of the line distances
    space = json.dumps({"dim": 3, "norm": {"type": "lp", "p": p}})
    code, sha = _cli_sha256(["cover", l4_saddle_json, "--k", "1", "--max-depth", "2",
                             "--space", space], tmp_path / "cover.json")
    assert code == 0
    assert sha == COVER_K1_L4_SADDLE_LINE_SHA256[p]


def test_cover_l4_saddle_golden(l4_saddle_json, tmp_path):
    code, sha = _cli_sha256(["cover", l4_saddle_json, "--k", "2", "--chi", "0.1",
                             "--delta", "0.15", "--max-depth", "2"],
                            tmp_path / "cover.json")
    assert code == 0
    assert sha == COVER_L4_SADDLE_SHA256


def test_pack_graph_measure_golden():
    # the setup of test_cover.test_main_packing_graph_measure
    mu = graph_measure_200(kappa=0.01)
    res = main_packing(NormedSpace(3, 2), mu, np.zeros(200), 2,
                       M=0.01, cfg=CoverConfig(chi=0.1, delta=0.1, max_depth=3),
                       budget=2)
    blob = emit_report(res, "json")
    assert hashlib.sha256(blob).hexdigest() == PACK_GRAPH_MEASURE_SHA256


def test_pack_sub_covering_originals_golden(monkeypatch):
    # 71 atoms on the grid of step 0.02 in the disk of radius 0.1, every
    # fourth with r_s = 0.02: the top ball is bad, and the level-1
    # sub-coverings of radius chi = 0.1 keep original balls (r_s in
    # [chi^2, chi)) and return bad balls; main_packing maps both back from
    # B_1(0), and level 2 refines the bad balls
    subs = []

    def recording(*args, **kwargs):
        res = covering_lemma(*args, **kwargs)
        subs.append((len(res.kept_originals), len(res.bad_balls)))
        return res

    monkeypatch.setattr(cover, "covering_lemma", recording)
    t = np.arange(-0.1, 0.1 + 1e-12, 0.02)
    U, V = np.meshgrid(t, t)
    disk = U**2 + V**2 <= 0.01
    pts = np.stack([U[disk], V[disk], 0.001 * (U[disk]**2 - V[disk]**2)], axis=1)
    rs = np.zeros(len(pts))
    rs[::4] = 0.02
    res = main_packing(NormedSpace(3, 2), PointMeasure(pts, np.ones(len(pts)) / len(pts)),
                       rs, 2, M=0.0, cfg=CoverConfig(max_depth=2), budget=2)
    assert res.levels[0].n_bad == 1
    assert any(kept and bad for kept, bad in subs)
    assert hashlib.sha256(emit_report(res, "json")).hexdigest() == PACK_SUB_COVERING_SHA256


@pytest.mark.parametrize("case,argv", [
    ("good", ["--k", "2", "--r", "1.0"]),
    ("bad", ["--k", "2", "--r", "0.1", "--center", "[0.3, 0.2, 0.0]"]),
    ("bad_k1", ["--k", "1", "--r", "0.1", "--center", "[0.3, 0.2, 0.0]"]),
])
def test_goodball_l4_saddle_golden(l4_saddle_json, tmp_path, case, argv):
    code, sha = _cli_sha256(["goodball", l4_saddle_json] + argv, tmp_path / "goodball.json")
    assert code == 0
    assert json.loads((tmp_path / "goodball.json").read_text())["kind"] == case.split("_")[0]
    assert sha == GOODBALL_L4_SADDLE_SHA256[case]


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


@pytest.mark.parametrize("command", list(K0_L4_SADDLE_SHA256))
def test_k0_l4_saddle_golden(l4_saddle_json, tmp_path, command):
    # k = 0 reaches make_projection's and _plane_grid's point-plane branches
    code, sha = _cli_sha256([command, l4_saddle_json, "--k", "0", "--max-depth", "2"],
                            tmp_path / f"{command}.json")
    assert code == 3
    assert sha == K0_L4_SADDLE_SHA256[command]


def test_squash_report_golden(l2_plane):
    # the notes case of test_cover.test_squash_hypothesis_violations_reported
    pl = affine_plane(l2_plane, [0, 0], [[1, 0]])
    tilted = affine_plane(l2_plane, [0, 0.5], [[1, 0.4]])
    sg = build_sigma(l2_plane, [[0.5, 0.0]], 1.0, [tilted], 1)
    rep = squash_report(sg, gamma2_sample(0.05), pl, make_projection(l2_plane, pl, "orthogonal"),
                        delta=0.01, eps=0.05)
    assert rep.hypothesis_notes
    assert hashlib.sha256(emit_report(rep, "json")).hexdigest() == SQUASH_NOTES_SHA256


def test_tilting_report_golden():
    # the pairs of test_cover.test_tilting_graph_measure_stable
    pairs = [(((0.24, 0.0, 0.0), 0.35), ((-0.24, 0.0, 0.0), 0.35))]
    rep = tilting_report(NormedSpace(3, 2), graph_measure_200(kappa=0.01), pairs, 2, 0.05)
    assert len(rep.pairs) == 1
    assert hashlib.sha256(emit_report(rep, "json")).hexdigest() == TILTING_GRAPH_MEASURE_SHA256


def test_pythagorean_report_linf_golden():
    # p = inf has no duality map: every ratio is nan, written as "nan"
    space = NormedSpace(3, math.inf)
    V = affine_plane(space, np.zeros(3), [[1, 0, 0], [0, 1, 0.5]])
    rep = pythagorean_report(space, make_projection(space, V, "hahn_banach"),
                             samples=2000, seed=0)
    blob = emit_report(rep, "json")
    doc = json.loads(blob)
    assert doc["skipped_pairing"] is True and doc["max_ratio_general"] == "nan"
    assert hashlib.sha256(blob).hexdigest() == PYTHAGOREAN_LINF_SHA256
