import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betareif.cli import _build_parser, run
from betareif.cover import BallLabel, CoverConfig, classify_ball, covering_lemma, main_packing
from betareif.curves import dirac_example
from betareif.measures import PointMeasure, best_plane, beta_inf, dini_profile, restrict
from betareif.report import emit_report, profile_csv, to_jsonable
from betareif.spaces import NormedSpace


@pytest.fixture
def dirac_json(tmp_path):
    doc = dirac_example(0.05).to_json(NormedSpace(2, 2))
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def planar_json(tmp_path):
    rng = np.random.default_rng(1)
    uv = rng.uniform(-0.7, 0.7, (30, 2))
    pts = np.concatenate([uv, np.zeros((30, 1))], axis=1)
    doc = PointMeasure(pts, np.ones(30) / 30).to_json(NormedSpace(3, 2))
    for atom in doc["atoms"]:
        atom["r_s"] = 0.3
    path = tmp_path / "planar.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_beta_dirac_row_at_scale_one(dirac_json, capsys):
    from betareif.measures import dini_profile
    code = run(["beta", dirac_json, "--atom", "0", "--k", "1", "--r-lo", "0.9",
                "--r-hi", "1.0", "--alpha", "2", "--chi", "0.1", "--seed", "0",
                "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "scale,beta,beta_alpha,cumulative"
    row = out.splitlines()[1].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) ** 2 == pytest.approx(2 * 0.05**2, abs=1e-9)
    # the --atom CSV is the profile's own CSV, byte for byte
    space, mu, _rs = PointMeasure.from_json(json.loads(Path(dirac_json).read_text()))
    prof = dini_profile(space, mu, mu.points[0], 0.9, 1.0, 1, 2.0, 0.1, seed=0)
    assert out == profile_csv(prof)


def test_cover_planar_zero_leftover(planar_json, tmp_path):
    out = tmp_path / "cover.json"
    code = run(["cover", planar_json, "--k", "2", "--max-depth", "3",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["leftover_mass"] == 0.0
    assert doc["bad_balls"] == []
    assert "ledger" in doc and "c5" in doc["ledger"]


def test_pack_runs(planar_json, tmp_path):
    out = tmp_path / "pack.json"
    code = run(["pack", planar_json, "--k", "2", "--M", "0.0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["leftover_mass"] == 0.0


def test_snowflake_linf_length(capsys):
    code = run(["snowflake", "--p", "inf", "--eta", "const:0.05", "--depth", "7",
                "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[0] == "7"
    assert float(last[1]) == pytest.approx(1 + 6 * 0.05 / 3, abs=1e-9)


def test_smoothness_sweep(capsys):
    code = run(["smoothness", "--p-list", "2,inf", "--t-list", "0.1",
                "--samples", "500", "--dim", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,t,empirical,bound"
    for line in lines[1:]:
        p, t, emp, bound = line.split(",")
        assert float(emp) <= float(bound) * (1 + 1e-6) + 1e-9


def test_nopowergain_json(capsys):
    code = run(["nopowergain", "--eps", "0.02"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["row_normalized_det"]) < 1e-10   # the honest golden zero
    assert doc["witness_bound"] > 0.02 / 100


def test_goodball_json(dirac_json, capsys):
    code = run(["goodball", dirac_json, "--k", "1", "--chi", "0.1",
                "--theta", "0.001"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "good"


def test_exit_code_on_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = run(["beta", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_exit_code_on_unknown_flag():
    assert run(["beta", "x.json", "--bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["cover", "IN", "--k", "2", "--format", "csv"],
    ["pack", "IN", "--k", "2", "--format", "csv"],
    ["goodball", "IN", "--k", "2", "--format", "csv"],
    ["smoothness", "--samples", "10", "--format", "csv"],
    ["nopowergain", "--format", "csv"],
    ["beta", "IN", "--delta", "0.1"],
    ["beta", "IN", "--theta", "0.01"],
    ["beta", "IN", "--max-depth", "3"],
    ["goodball", "IN", "--k", "2", "--alpha", "2"],
    ["goodball", "IN", "--k", "2", "--delta", "0.1"],
    ["goodball", "IN", "--k", "2", "--max-depth", "3"],
    ["goodball", "IN", "--k", "2", "--seed", "1"],
])
def test_format_flag_only_where_it_acts(planar_json, tmp_path, capsys, argv):
    # a command takes only the flags it reads: the one-format commands have
    # no --format, beta's scale grid ends at --r-lo, and classify_ball is
    # deterministic and has no alpha, so the flag before the last value is
    # unknown to its command, whatever that value
    out = tmp_path / "out"
    argv = [planar_json if a == "IN" else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["beta", "--r-lo", "0"],
    ["beta", "--r-lo", "3"],
    ["beta", "--chi", "1.5"],
    ["cover", "--k", "3"],
    ["cover", "--k", "-1"],
    ["pack", "--M", "-1"],
    ["cover", "--k", "2", "--chi", "0.5"],
    ["pack", "--k", "2", "--chi", "0.11"],
    ["goodball", "--k", "2", "--chi", "0.5"],
    ["cover", "--k", "2", "--max-depth", "-1"],
    ["pack", "--k", "2", "--max-depth", "-1"],
    ["beta", "--r-hi", "inf"],      # the Dini scale grid grew without end
    ["pack", "--M", "inf"],         # the mass scale delta0^2/M was 0
    ["pack", "--budget", "-1"],
    ["cover", "--k", "2", "--max-depth", "400"],    # 0.1 ** 400 == 0.0
    ["pack", "--k", "2", "--max-depth", "400"],
])
def test_exit_code_on_out_of_range_flag(planar_json, argv, capsys):
    # planar_json lives in R^3, so k = 3 is out of range
    code = run([argv[0], planar_json] + argv[1:])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


_O = np.zeros(3)
_K = "k must satisfy 0 <= k < dim = 3, got {}"
_R = "r must be finite and positive, got {}"


def _k_rows(k):
    """k out of range for each of the six entry points that take it."""
    return [
        (f"best_plane-k{k}", None, lambda s, mu, rs: best_plane(s, mu, _O, 1.0, k)),
        (f"beta_inf-k{k}", None, lambda s, mu, rs: beta_inf(s, mu.points, _O, 1.0, k)),
        (f"dini_profile-k{k}", ["beta", "--k", str(k)],
         lambda s, mu, rs: dini_profile(s, mu, mu.points, 1 / 16, 2.0, k, 2.0, 0.1)),
        (f"classify_ball-k{k}", ["goodball", "--k", str(k)],
         lambda s, mu, rs: classify_ball(s, mu, _O, 1.0, k, 0.1)),
        (f"covering_lemma-k{k}", ["cover", "--k", str(k)],
         lambda s, mu, rs: covering_lemma(s, mu, rs, k, CoverConfig())),
        (f"main_packing-M0-k{k}", ["pack", "--k", str(k), "--M", "0"],
         lambda s, mu, rs: main_packing(s, mu, rs, k, M=0.0, cfg=CoverConfig())),
        (f"main_packing-k{k}", ["pack", "--k", str(k)],
         lambda s, mu, rs: main_packing(s, mu, rs, k, M=0.01, cfg=CoverConfig())),
    ]


def _r_rows(r):
    """A radius out of range for each entry point that takes one; no
    command passes it on (goodball's --r is an argparse type)."""
    return [
        (f"best_plane-r{r}", None, lambda s, mu, rs: best_plane(s, mu, _O, r, 1)),
        (f"beta_inf-r{r}", None, lambda s, mu, rs: beta_inf(s, mu.points, _O, r, 1)),
        (f"classify_ball-r{r}", None, lambda s, mu, rs: classify_ball(s, mu, _O, r, 1, 0.1)),
        (f"restrict-r{r}", None, lambda s, mu, rs: restrict(mu, _O, r, s)),
    ]


# (id, the CLI's argv or None, the library call that takes the value) and
# the message both give: the library raises ValueError with it, and the CLI
# prints it as its one error line
_OUT_OF_RANGE = [
    # the rows of test_exit_code_on_out_of_range_flag (its cover --k 3 and
    # --k -1 are rows of the k table below)
    *[(f"beta-r-lo-{lo}", ["beta", "--r-lo", lo],
       lambda s, mu, rs, lo=lo: dini_profile(s, mu, mu.points, float(lo), 2.0, 1, 2.0, 0.1),
       f"need 0 < r_lo < r_hi < inf, got r_lo={float(lo)}, r_hi=2.0") for lo in ("0", "3")],
    ("beta-chi", ["beta", "--chi", "1.5"],
     lambda s, mu, rs: dini_profile(s, mu, mu.points, 1 / 16, 2.0, 1, 2.0, 1.5),
     "chi must lie in (0, 1), got 1.5"),
    *[(f"pack-M{M}", ["pack", "--M", M],
       lambda s, mu, rs, M=M: main_packing(s, mu, rs, 1, M=float(M), cfg=CoverConfig()),
       f"M must be a finite number >= 0, got {float(M)}") for M in ("-1", "inf")],
    *[(f"{cmd}-chi{chi}", [cmd, "--k", "2", "--chi", chi],
       lambda s, mu, rs, chi=chi: CoverConfig(chi=float(chi)),
       f"chi must lie in (0, 1/10], got {chi}") for cmd, chi in (("cover", "0.5"), ("pack", "0.11"))],
    ("goodball-chi", ["goodball", "--k", "2", "--chi", "0.5"],
     lambda s, mu, rs: classify_ball(s, mu, _O, 1.0, 2, 0.5), "chi must lie in (0, 1/10], got 0.5"),
    *[(f"{cmd}-max-depth-1", [cmd, "--k", "2", "--max-depth", "-1"],
       lambda s, mu, rs: CoverConfig(max_depth=-1), "max-depth must be an integer >= 0, got -1")
      for cmd in ("cover", "pack")],
    ("beta-r-hi", ["beta", "--r-hi", "inf"],
     lambda s, mu, rs: dini_profile(s, mu, mu.points, 1 / 16, math.inf, 1, 2.0, 0.1),
     "need 0 < r_lo < r_hi < inf, got r_lo=0.0625, r_hi=inf"),
    ("pack-budget", ["pack", "--budget", "-1"],
     lambda s, mu, rs: main_packing(s, mu, rs, 1, M=0.01, cfg=CoverConfig(), budget=-1),
     "budget must be >= 0, got -1"),
    *[(f"{cmd}-max-depth400", [cmd, "--k", "2", "--max-depth", "400"],
       lambda s, mu, rs: CoverConfig(max_depth=400), "chi ** max-depth must be > 0, got 0.1 ** 400")
      for cmd in ("cover", "pack")],
    # the values the library took unchecked: k in {-1, dim}, a radius
    # that is not finite and positive, theta <= 0, and budget -1 at M = 0
    *[(name, argv, call, _K.format(k)) for k in (-1, 3) for name, argv, call in _k_rows(k)],
    *[(name, argv, call, _R.format(r)) for r in (0.0, -1.0, math.nan, math.inf)
      for name, argv, call in _r_rows(r)],
    *[(f"goodball-theta{theta}", ["goodball", "--theta", theta],
       lambda s, mu, rs, theta=theta: classify_ball(s, mu, _O, 1.0, 1, 0.1, float(theta)),
       f"theta must be a finite number > 0, got {float(theta)}") for theta in ("0", "-1", "nan")],
    ("pack-M0-budget", ["pack", "--M", "0", "--budget", "-1"],
     lambda s, mu, rs: main_packing(s, mu, rs, 1, M=0.0, cfg=CoverConfig(), budget=-1),
     "budget must be >= 0, got -1"),
]


@pytest.mark.parametrize("name,argv,call,message", _OUT_OF_RANGE,
                         ids=[row[0] for row in _OUT_OF_RANGE])
def test_library_refuses_out_of_range(planar_json, name, argv, call, message):
    # the entry point that takes the value refuses it, with the CLI's text
    space, mu, rs = PointMeasure.from_json(json.loads(Path(planar_json).read_text()))
    with pytest.raises(ValueError) as e:
        call(space, mu, rs)
    assert str(e.value) == message


@pytest.mark.parametrize("name,argv,call,message", [row for row in _OUT_OF_RANGE if row[1]],
                         ids=[row[0] for row in _OUT_OF_RANGE if row[1]])
def test_cli_refuses_out_of_range(planar_json, tmp_path, capsys, name, argv, call, message):
    # the CLI passes the value on and prints the library's message as its
    # one error line: exit 2 and no report
    out = tmp_path / "out"
    assert run([argv[0], planar_json, *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_each_command_keeps_its_options():
    # 51 options in all; a new one fails here until this pin is updated
    want = {
        "beta": ["--space", "--k", "--chi", "--out", "--alpha", "--seed", "--atom", "--r-lo",
                 "--r-hi", "--format"],
        "cover": ["--space", "--k", "--chi", "--out", "--alpha", "--delta", "--theta",
                  "--max-depth", "--seed"],
        "pack": ["--space", "--k", "--chi", "--out", "--alpha", "--delta", "--theta",
                 "--max-depth", "--seed", "--M", "--budget"],
        "snowflake": ["--p", "--mode", "--eta", "--depth", "--out", "--format"],
        "smoothness": ["--p-list", "--t-list", "--dim", "--samples", "--seed", "--out"],
        "nopowergain": ["--eps", "--out"],
        "goodball": ["--space", "--k", "--chi", "--out", "--theta", "--center", "--r"],
    }
    commands = _build_parser()._subparsers._group_actions[0].choices
    got = {name: [flag for a in sp._actions if a.dest != "help" for flag in a.option_strings]
           for name, sp in commands.items()}
    assert got == want
    assert sum(map(len, got.values())) == 51


@pytest.mark.parametrize("argv", [
    ["goodball", "IN", "--center", "[1,2"],
    ["goodball", "IN", "--center", "[1,2]"],
    ["goodball", "IN", "--center", "1"],
    ["goodball", "IN", "--center", "[NaN,0,0]"],
    ["goodball", "IN", "--r", "-1"],
    ["goodball", "IN", "--r", "nan"],
    ["goodball", "IN", "--r", "inf"],
    ["beta", "IN", "--atom", "99"],
    ["beta", "IN", "--atom", "-1"],
    ["snowflake", "--p", "abc"],
    ["snowflake", "--p", "0.5"],
    ["snowflake", "--eta", "geom:x"],
    ["snowflake", "--eta", "const:nan"],
    ["smoothness", "--p-list", "0.5"],
    ["smoothness", "--t-list", "-1"],
    ["smoothness", "--dim", "0"],
    ["smoothness", "--samples", "0"],
    ["nopowergain", "--eps", "-1"],
    ["nopowergain", "--eps", "inf"],
    ["nopowergain", "--eps", "nan"],
])
def test_exit_code_on_bad_flag_value(planar_json, tmp_path, capsys, argv):
    # each value is checked where it enters: exit 2 with an error line,
    # never a traceback and never a report
    out = tmp_path / "out"
    argv = [planar_json if a == "IN" else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


_SPACE2 = json.dumps({"dim": 2, "norm": {"type": "lp", "p": 2}})
_SPACE3 = json.dumps({"dim": 3, "norm": {"type": "lp", "p": 2}})


@pytest.mark.parametrize("argv,message", [
    *[([cmd, "IN3", "--k", "1", "--space", _SPACE2],
       "error: --space: dim 2 does not match the measure's dim 3")
      for cmd in ("beta", "cover", "pack", "goodball")],
    *[([cmd, "IN2", "--k", "1", "--space", _SPACE3],
       "error: --space: dim 3 does not match the measure's dim 2")
      for cmd in ("beta", "cover", "pack", "goodball")],
    *[([cmd, "IN3", "--k", "2", "--seed", "-10"], "argument --seed: must be an integer >= 0")
      for cmd in ("beta", "cover", "pack")],
    (["smoothness", "--samples", "10", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
    (["beta", "DIR"], "error: [Errno 21] Is a directory"),
    (["beta", "LATIN1"], "not UTF-8 text"),
    (["cover", "IN3", "--k", "2", "--max-depth", "0", "--out", "DIR"],
     "error: [Errno 21] Is a directory"),
])
def test_exit_code_names_the_bad_input(planar_json, dirac_json, tmp_path, capsys, argv, message):
    # a --space of another dim than the measure's, a negative seed, and an
    # input or --out path that cannot be read or written: exit 2 with one
    # error line that names it, never a traceback and never a report
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"space": "\xe9"}')
    paths = {"IN3": planar_json, "IN2": dirac_json, "DIR": str(tmp_path), "LATIN1": str(latin1)}
    out = tmp_path / "out"
    argv = [paths.get(a, a) for a in argv]
    assert run(argv if "--out" in argv else argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("error: ") == 1
    assert not out.exists()


def test_nopowergain_huge_eps_gives_a_finite_bound(tmp_path):
    # the exact witness bound is eps times a ratio <= 1 (Hoelder), so at
    # eps = 1e308 it is finite, with no numpy warning, and c = eps / bound
    # is the one of eps = 0.02
    import warnings
    docs = {}
    for eps in ("0.02", "1e308"):
        out = tmp_path / f"{eps}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["nopowergain", "--eps", eps, "--out", str(out)]) == 0
        docs[eps] = json.loads(out.read_text())
    assert 0 < docs["1e308"]["witness_bound"] <= 1e308
    assert docs["1e308"]["measured_c"] == docs["0.02"]["measured_c"]


@pytest.mark.parametrize("argv,message", [
    (["smoothness", "--t-list", "1e308"], "error: --t-list: t = 1e+308 overflows the modulus "
                                          "at p = 1.5"),
    (["smoothness", "--t-list", "1e200"], "error: --t-list: t = 1e+200 overflows the modulus "
                                          "at p = 2"),
    (["nopowergain", "--grid-step", "1e-300"],
     "error: unrecognized arguments: --grid-step 1e-300"),
    (["nopowergain", "--grid-step", "0.015"],
     "error: unrecognized arguments: --grid-step 0.015"),
], ids=["t-1e308", "t-1e200", "grid-step-1e-300", "grid-step-0.015"])
def test_sweeps_reject_a_value_that_overflows(tmp_path, capsys, argv, message):
    # a t whose bound overflows (t ** 1.5 raises OverflowError at 1e308, and
    # sqrt(1 + t^2) is inf at 1e200), and a grid step that once set a sample
    # grid numpy could not allocate or scan in time (the witness is exact
    # now, so --grid-step is an unknown option): exit 2 with one error line
    # that names the value, no numpy warning and no report
    import warnings
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--samples", "100"] * (argv[0] == "smoothness")
                   + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("error: ") == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["cover", "pack"])
@pytest.mark.parametrize("target,message", [
    ("DIR", "[Errno 21] Is a directory"),
    ("MISSING", "[Errno 2] No such file or directory"),
])
def test_out_path_is_checked_before_the_run(planar_json, tmp_path, capsys, monkeypatch,
                                            cmd, target, message):
    # an --out path that is a directory or lies in a missing directory
    # exits 2 before the analysis starts
    def never(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr("betareif.cli.covering_lemma", never)
    monkeypatch.setattr("betareif.cli.main_packing", never)
    out = {"DIR": tmp_path, "MISSING": tmp_path / "missing" / "out.json"}[target]
    assert run([cmd, planar_json, "--k", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and err.count("error: ") == 1


def test_existing_report_survives_a_failed_validation(planar_json, tmp_path, capsys):
    # the --out check does not open the file: a run that then fails
    # validation leaves an existing report as it was
    out = tmp_path / "report.json"
    out.write_text("earlier report")
    assert run(["cover", planar_json, "--k", "2", "--delta", "-1", "--out", str(out)]) == 2
    assert "error: delta must be" in capsys.readouterr().err
    assert out.read_text() == "earlier report"


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "foo"), ("--alpha", "0"), ("--alpha", "-1"), ("--alpha", "nan"),
    ("--alpha", "inf"), ("--delta", "-1"), ("--delta", "0"), ("--delta", "nan"),
    ("--delta", "inf"), ("--theta", "-1"), ("--theta", "0"), ("--theta", "nan"),
])
@pytest.mark.parametrize("cmd", ["beta", "cover", "pack", "goodball"])
def test_exit_code_on_bad_alpha_delta_theta(planar_json, tmp_path, capsys, cmd, flag, value):
    # a command checks the range of each of these flags that it takes; to
    # the others the flag is unknown
    takes = {"--alpha": ("beta", "cover", "pack"), "--delta": ("cover", "pack"),
             "--theta": ("cover", "pack", "goodball")}[flag]
    out = tmp_path / "out"
    assert run([cmd, planar_json, "--k", "2", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if cmd in takes:
        assert err.startswith(f"error: {flag[2:]} must be")
    else:
        assert f"unrecognized arguments: {flag} {value}" in err
    assert not out.exists()


def test_resolve_alpha_checks_its_value():
    space = NormedSpace(3, 4)
    assert CoverConfig().resolve_alpha(space) == 2.0
    assert CoverConfig(alpha="1.5").resolve_alpha(space) == 1.5
    for alpha in ("foo", "0", -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            CoverConfig(alpha=alpha).resolve_alpha(space)


@pytest.mark.parametrize("cmd", ["cover", "pack"])
def test_max_depth_zero_runs(planar_json, tmp_path, cmd):
    out = tmp_path / "out.json"
    assert run([cmd, planar_json, "--k", "2", "--max-depth", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())


def _six_atom_json(tmp_path, field, value):
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0],
                    [-0.1, 0.0, 0.0], [0.0, -0.1, 0.0], [0.05, 0.05, 0.0]])
    doc = PointMeasure(pts, np.full(6, 1 / 6)).to_json(NormedSpace(3, 2))
    if field == "x":
        doc["atoms"][2]["x"][2] = value
    else:
        doc["atoms"][2][field] = value
    path = tmp_path / "bad_measure.json"
    path.write_text(json.dumps(doc))      # NaN and Infinity tokens
    return str(path)


@pytest.mark.parametrize("field,value", [("x", math.nan), ("x", math.inf),
                                         ("w", math.nan), ("w", math.inf)])
@pytest.mark.parametrize("cmd", ["cover", "beta"])
def test_exit_code_on_non_finite_measure(tmp_path, capsys, cmd, field, value):
    path = _six_atom_json(tmp_path, field, value)
    assert run([cmd, path, "--k", "2", "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r_s", [1.5, math.nan, -1.0])
@pytest.mark.parametrize("cmd", ["cover", "pack"])
def test_exit_code_on_out_of_range_r_s(tmp_path, capsys, cmd, r_s):
    path = _six_atom_json(tmp_path, "r_s", r_s)
    assert run([cmd, path, "--k", "2", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: per-atom r_s")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r_s,message", [(1.5, "ball radius"), (math.nan, "finite"),
                                         (math.inf, "finite"), (-1.0, ">= 0")])
def test_covering_lemma_rejects_out_of_range_r_s(r_s, message):
    rs = np.zeros(6)
    rs[2] = r_s
    mu = PointMeasure(np.random.default_rng(0).uniform(-0.5, 0.5, (6, 3)), np.ones(6))
    with pytest.raises(ValueError, match=message):
        covering_lemma(NormedSpace(3, 2), mu, rs, 2)


def test_exit_code_on_missing_file():
    assert run(["beta", "/nonexistent/measure.json"]) == 2


def test_end_to_end_determinism(planar_json, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["cover", planar_json, "--k", "2", "--max-depth", "3",
                    "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_emit_report_byte_identical():
    doc = {"a": 0.1234567890123456789, "b": [1, 2.5, float("inf")],
           "z": {"nested": 3.0}}
    assert emit_report(doc) == emit_report(doc)
    assert emit_report(doc).startswith(b"{")


def test_to_jsonable_walks_fields_and_keeps_nested_to_dict():
    # a dataclass is its fields; a field that writes its own document
    # (BallLabel drops unset certificates) keeps that document
    @dataclasses.dataclass
    class Holder:
        label: BallLabel
        value: np.float64

    doc = to_jsonable(Holder(BallLabel(np.zeros(2), 0.5, "bad"), np.float64(1 / 3)))
    assert doc == {"label": {"center": [0.0, 0.0], "radius": 0.5, "kind": "bad"},
                   "value": 0.333333333333}


def test_emit_report_csv_profile(l2_plane):
    from betareif.measures import dini_profile
    prof = dini_profile(l2_plane, dirac_example(0.05), [0, 0], 0.5, 1.0, 1, 2.0, 0.5)
    data = emit_report(prof, "csv").decode()
    assert data.splitlines()[0] == "scale,beta,beta_alpha,cumulative"


def test_measure_json_roundtrip_idempotent(tmp_path):
    space = NormedSpace(2, 2)
    mu = dirac_example(0.05)
    doc1 = to_jsonable(mu.to_json(space))
    s2, mu2, rs = PointMeasure.from_json(doc1)
    doc2 = to_jsonable(mu2.to_json(s2))
    assert doc1 == doc2
    assert (rs == 0).all()


_NOT_NUMBER = st.one_of(st.booleans(), st.none(), st.text(max_size=3),
                        st.lists(st.integers(-3, 3), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_NOT_OBJECT = st.one_of(st.booleans(), st.none(), st.integers(), st.text(max_size=3),
                        st.lists(st.integers(-3, 3), max_size=3))


@st.composite
def _malformed_measure(draw):
    """A measure document with exactly one structural breach: a top-level
    value, `space`, `dim`, `p`, `atoms`, one atom, or one atom's x, w or
    r_s of the wrong JSON type or shape."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from([1, 2, 3.5, "inf"]))
    doc = {"space": {"dim": dim, "norm": {"type": "lp", "p": p}},
           "atoms": [{"x": draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim)),
                      "w": draw(st.floats(0.1, 2.0))} for _ in range(n)]}
    atom = doc["atoms"][draw(st.integers(0, n - 1))]
    breach = draw(st.sampled_from(["top", "space", "dim", "p", "atoms", "atom", "x_nested",
                                   "x_length", "x_entry", "w", "r_s"]))
    if breach == "top":
        return draw(st.one_of(_NOT_OBJECT, st.just([doc])))
    if breach == "space":
        doc["space"] = draw(_NOT_OBJECT)
    elif breach == "dim":
        doc["space"]["dim"] = draw(st.one_of(_NOT_NUMBER, st.floats(allow_nan=False)))
    elif breach == "p":
        doc["space"]["norm"]["p"] = draw(_NOT_NUMBER.filter(lambda v: v != "inf"))
    elif breach == "atoms":
        doc["atoms"] = draw(st.one_of(_NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
                                      st.just(doc["atoms"][0])))
    elif breach == "atom":
        doc["atoms"][doc["atoms"].index(atom)] = draw(st.one_of(_NOT_OBJECT, st.just(atom["x"])))
    elif breach == "x_nested":
        atom["x"] = draw(st.sampled_from([[atom["x"]], [[v] for v in atom["x"]]]))
    elif breach == "x_length":
        atom["x"] = draw(st.sampled_from([atom["x"][:-1], atom["x"] + [0.0]]))
    elif breach == "x_entry":
        atom["x"][draw(st.integers(0, dim - 1))] = draw(_NOT_NUMBER)
    else:
        atom[breach] = draw(_NOT_NUMBER)
    return doc


def _two_atom_doc(**atom0):
    doc = {"space": {"dim": 2, "norm": {"type": "lp", "p": 2}},
           "atoms": [{"x": [0.0, 0.1], "w": 1.0}, {"x": [0.1, 0.0], "w": 1.0}]}
    doc["atoms"][0].update(atom0)
    return doc


@pytest.mark.parametrize("doc", [
    [_two_atom_doc()],
    {"space": {"dim": 2, "norm": {"type": "lp", "p": 2}}, "atoms": 5},
    {"space": {"dim": 2, "norm": {"type": "lp", "p": 2}}, "atoms": [[0.0, 0.1]]},
    _two_atom_doc(x=[[0.0, 0.1]]),
    _two_atom_doc(x=[0.1]),
    _two_atom_doc(x=[True, 0.0]),
    _two_atom_doc(w=True),
    _two_atom_doc(r_s=False),
    {"space": {"dim": 2.5, "norm": {"type": "lp", "p": 2}}, "atoms": [{"x": [0, 0], "w": 1}]},
    {"space": {"dim": 2, "norm": {"type": "lp", "p": [2]}}, "atoms": []},
    {"space": [2], "atoms": []},
])
@pytest.mark.parametrize("cmd", ["cover", "beta", "pack"])
def test_structurally_malformed_measure_exits_2(tmp_path, capsys, cmd, doc):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(doc))
    assert run([cmd, str(path), "--k", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@settings(max_examples=150, deadline=None)
@given(_malformed_measure(), st.sampled_from(["cover", "beta", "pack"]))
def test_malformed_measure_exits_2(doc, cmd):
    # never a traceback with exit 1, never a report with "valid": true
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "measure.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([cmd, str(path), "--k", "0", "--out", str(Path(tmp) / "out")])
        assert code == 2
        assert err.getvalue().startswith("error: ")
        assert not (Path(tmp) / "out").exists()


@pytest.mark.parametrize("cmd", ["cover", "beta", "pack"])
def test_empty_measure_file_runs(tmp_path, cmd):
    doc = {"space": {"dim": 2, "norm": {"type": "lp", "p": 2}}, "atoms": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert run([cmd, str(path), "--k", "1", "--out", str(tmp_path / "out")]) == 0
