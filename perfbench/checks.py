"""Output checks: the invariants the repository's tests assert for each
input, and the headline numbers against a recorded reference.

Seed 0 is the test fixture and must match the reference to 1e-9 (reports
carry 12 significant digits).  Other seeds move the inputs a little, so
their headline numbers must match within the stated per-number tolerance.
"""

from __future__ import annotations

import math

PACK_FLAGS = [
    "configured chi violates c5*c_B*chi < 1/2 (proof-chain constants); "
    "claims asserted with measured sums",
    "recursion budget exhausted with bad balls remaining",
]

SEED0_TOL = 1e-9

# name -> (seed-0 value, absolute tolerance for other seeds).  The other-seed
# tolerances hold the range seen with room to spare: the snowflake over
# seeds 1-11; the l^4 graph has only the two quarter turns, which seeds 1-4
# cover; the l^2 graph is rotation invariant, so its report does not move.
REFERENCE = {
    "pack-l2-graph68": {
        "leftover_mass": (0.0, 1e-12),
        "packing_sum": (0.0, 1e-12),
        "kept_originals": (0, 0),
        "level0.n_bad": (67, 0),
        "level1.n_bad": (77, 0),
        "level2.n_bad": (77, 0),
        "level0.sum_bad": (0.0463, 1e-9),
        "level1.sum_bad": (0.001463, 1e-11),
        "level2.sum_bad": (1.463e-05, 1e-13),
    },
    "cover-l4-graph21": {
        "leftover_mass": (0.0, 0.0),
        "excess_mass": (0.0, 0.0),
        "packing_sum": (0.0021, 1e-12),
        "stage1.n_good": (21, 0),
        "stage1.n_bad": (0, 0),
        "stage2.n_good": (0, 0),
        "stage2.n_bad": (21, 0),
        "distortion": (1.00000488489, 1e-5),
        "measured_delta": (0.000156396365826, 1e-4),
        "item2_graph_height": (0.000236376688548, 3e-4),
    },
    "flatmap-snowflake-d4": {
        "n_stages": (2, 0),
        "distortion": (1.00373660921, 0.002),
        "holder_exponent": (0.999143906546, 0.001),
        "q_alpha": (0.00293744512383, 0.0015),
        "certified_delta": (0.0373333333333, 0.008),
    },
}


def headline(workload: str, doc: dict) -> dict:
    """The numbers a reader of the report looks at first."""
    if workload == "pack-l2-graph68":
        out = {"leftover_mass": doc["leftover_mass"], "packing_sum": doc["packing_sum"],
               "kept_originals": len(doc["kept_originals"])}
        for lv in doc["levels"]:
            out[f"level{lv['index']}.n_bad"] = lv["n_bad"]
            out[f"level{lv['index']}.sum_bad"] = lv["sum_bad"]
        return out
    if workload == "cover-l4-graph21":
        ic = doc["item_checks"]
        out = {"leftover_mass": doc["leftover_mass"], "packing_sum": doc["packing_sum"],
               "distortion": doc["distortion"], "measured_delta": doc["measured_delta"],
               "excess_mass": doc["excess_mass"], "item2_graph_height": ic["item2_graph_height"]}
        for st in doc["stages"]:
            out[f"stage{st['index']}.n_good"] = st["n_good"]
            out[f"stage{st['index']}.n_bad"] = st["n_bad"]
        return out
    return {"n_stages": doc["n_stages"], "distortion": doc["distortion"],
            "holder_exponent": doc["holder_exponent"], "q_alpha": doc["q_alpha"],
            "certified_delta": doc["certified_delta"]}


def invariants(workload: str, exit_code: int, doc: dict) -> list[str]:
    bad = []
    if workload == "pack-l2-graph68":
        if exit_code != 3:
            bad.append(f"exit code {exit_code}, expected 3")
        if doc["valid"]:
            bad.append("report claims valid")
        if doc["flags"] != PACK_FLAGS:
            bad.append(f"flags {doc['flags']}")
        for lv in doc["levels"]:
            if not (lv["claim_A_ok"] and lv["claim_B_S_ok"] and lv["claim_B_bad_ok"]):
                bad.append(f"claims A/B fail at level {lv['index']}")
    elif workload == "cover-l4-graph21":
        if exit_code != 0:
            bad.append(f"exit code {exit_code}, expected 0")
        ic = doc["item_checks"]
        for item in ("item4_disjoint", "item5_radius", "item6_ok", "item7_ok"):
            if ic.get(item) is not True:
                bad.append(f"{item} is {ic.get(item)}")
        if not doc["stages"] or doc["stages"][0]["n_good"] <= 0:
            bad.append("no good balls at stage 1")
        if doc["leftover_mass"] != 0.0:
            bad.append(f"leftover {doc['leftover_mass']}")
        taus = doc["tau_stages"]
        if not taus or taus[0]["projections"][0]["kind"] != "hahn_banach":
            bad.append("sigma stage 1 does not use Hahn-Banach projections")
    else:
        if exit_code != 0:
            bad.append(f"exit code {exit_code}, expected 0")
        if not 0.9 <= doc["holder_exponent"] <= 1.01:
            bad.append(f"Hoelder exponent {doc['holder_exponent']}")
        lip, q = doc["lip_constant_fit"], doc["q_alpha"]
        if lip is None or q is None or not q > 0:
            bad.append("no Q bound")
        elif not doc["distortion"] <= math.exp(lip * q) + 1e-9:
            bad.append(f"distortion {doc['distortion']} > exp(lip * Q^alpha)")
    return bad


def check(workload: str, seed: int, exit_code: int, doc: dict) -> list[str]:
    """Problems found in one run's output; empty when it passes."""
    bad = invariants(workload, exit_code, doc)
    got = headline(workload, doc)
    for name, (ref, tol) in REFERENCE[workload].items():
        v = got.get(name)
        lim = SEED0_TOL * max(1.0, abs(ref)) if seed == 0 else tol
        if v is None or not abs(v - ref) <= lim:
            bad.append(f"{name} = {v}, reference {ref} +- {lim:g}")
    return bad
