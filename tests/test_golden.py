"""Golden reports: fixed inputs with the report values and bytes they
must keep.  A change that moves one of these on purpose updates the pin
and says why; a pin is never updated to hide a change."""

import hashlib
import json

import pytest

from betareif.cover import reifenberg_flat_map

from conftest import snowflake_sample

FLAT_MAP_SNOWFLAKE_D4 = {
    "distortion": 1.0037366092148736,
    "holder_exponent": 0.9991439065461688,
    "q_alpha": 0.002937445123834383,
    "certified_delta": 0.037333333333333364,
}
FLAT_MAP_SNOWFLAKE_D4_SHA256 = (
    "cf569f41bb8147f488011c34ddcc13b1f2f87876381152b68ce8be01b1c77823")


def test_flat_map_snowflake_depth4_golden(l2_plane):
    S = snowflake_sample([0.08] * 12, 4, 2200)
    _stages, rep = reifenberg_flat_map(l2_plane, S, 1, chi=1 / 3, delta=0.2,
                                       max_depth=7, pair_count=120)
    doc = rep.to_dict()
    for key, want in FLAT_MAP_SNOWFLAKE_D4.items():
        assert doc[key] == pytest.approx(want, rel=1e-9), key
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == FLAT_MAP_SNOWFLAKE_D4_SHA256
