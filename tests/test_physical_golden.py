"""Golden physical-design numbers, pinned bit for bit.

``pdesign`` at seed 0 on the 12 bench circuits and the bundled ecc64:
the ``repr`` of the critical-path delay and of the total power, the
critical path, and a sha256 over the placed gates, routed segments and
vias.  Any drift in placement, routing, timing or power fails here.  It
matters beyond the numbers themselves: fault ids embed layout
coordinates (EXPERIMENTS.md), so a moved gate or wire would silently
rename faults everywhere downstream.

Re-record only for a change that is meant to move the physical design,
and say so in that change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench import build_benchmark
from repro.netlist.ingest import bundled_path, load_file
from repro.physical import pdesign

#: name -> (repr(delay), repr(total_power), critical_path, layout sha256)
GOLDEN = {
    "tv80": (
        "3478.92", "1583.321688232426",
        ("g_10", "g_202", "g_204", "g_208", "g_210", "g_290", "g_292",
         "g_380", "g_382", "g_442", "g_444", "g_524", "g_526", "g_528",
         "g_530", "g_532", "g_534", "g_536", "g_538", "g_540", "g_566",
         "g_594", "g_810", "g_812", "g_886"),
        "5c94ff59a7802705ed911cc9853b36069b8359fb8e14033250a448d3720fb1e7",
    ),
    "systemcaes": (
        "1857.7199999999998", "912.5689324951179",
        ("g_268", "g_272", "g_290", "g_292", "g_294", "g_308", "g_350",
         "g_352", "g_354", "g_356", "g_374", "g_376", "g_378"),
        "9b4a3d311c44f4438d4d92653ce844f7f6687e5a922433b10bed617c6425e82d",
    ),
    "aes_core": (
        "3574.0000000000005", "2259.5597576904293",
        ("g_40", "g_42", "g_44", "g_46", "g_62", "g_64", "g_136", "g_144",
         "g_146", "g_148", "g_164", "g_166", "g_174", "g_192", "g_210",
         "g_212"),
        "881cb1db244d793495bf9fdaf08fedd007446a2eccaed4fd0d7b0e8b69e45d95",
    ),
    "wb_conmax": (
        "1524.0400000000002", "524.2635510253906",
        ("g_10", "g_12", "g_14", "g_44", "g_84", "g_88", "g_94", "g_96",
         "g_98", "g_100"),
        "2f9e7d09509552cbd81aed159e21ea8eba8fe5827c6d6f4ec49d53bc3000f072",
    ),
    "des_perf": (
        "3071.2000000000003", "1307.1339181518604",
        ("g_198", "g_200", "g_206", "g_208", "g_240", "g_244", "g_246",
         "g_410", "g_414", "g_422", "g_432", "g_456", "g_458"),
        "3ec67285222a8ef1f35d9499aad93f559b740d0a70d3c740cd44679b87cf8efe",
    ),
    "sparc_spu": (
        "2989.32", "1164.3152584838883",
        ("g_2", "g_158", "g_168", "g_170", "g_256", "g_292", "g_294",
         "g_296", "g_298", "g_368", "g_370", "g_372", "g_442", "g_444",
         "g_446", "g_448"),
        "ca3e7a0921420ebf61b3d2d4a34bf9a6cca7c7a3b93a3ab860821e053bb22798",
    ),
    "sparc_ffu": (
        "2955.2000000000003", "906.866361694337",
        ("g_2", "g_38", "g_44", "g_48", "g_50", "g_86", "g_88", "g_224",
         "g_226", "g_228", "g_230", "g_246", "g_248", "g_264", "g_266",
         "g_278", "g_284", "g_294", "g_308", "g_310", "g_312", "g_314"),
        "4bced5c91132cbc6e03afb80146eb0ffba6997f9dc7511b1a9b076c51867903a",
    ),
    "sparc_exu": (
        "2545.9199999999996", "1462.0035205078166",
        ("g_18", "g_26", "g_28", "g_30", "g_32", "g_48", "g_50", "g_418",
         "g_420", "g_478", "g_480", "g_568", "g_570", "g_572", "g_574",
         "g_576", "g_578", "g_580", "g_582", "g_584", "g_614", "g_644",
         "g_740", "g_742", "g_812"),
        "20be784126c933ffc331082294e3d6215458c689f5630988097c2efe34e8e380",
    ),
    "sparc_ifu": (
        "3237.16", "882.8421270751973",
        ("g_30", "g_34", "g_50", "g_64", "g_66", "g_90", "g_92", "g_122",
         "g_124", "g_154", "g_156", "g_182", "g_184", "g_186", "g_188",
         "g_190", "g_192", "g_194", "g_208", "g_226", "g_370", "g_410",
         "g_412", "g_440", "g_442", "g_444", "g_446", "g_464"),
        "59d93b822f8c481d6d82da56b5bfa2d736b1821039f0ea0fc62ac101c6fa6f1b",
    ),
    "sparc_tlu": (
        "1084.56", "196.10626892089832",
        ("g_16", "g_18", "g_20", "g_46", "g_48", "g_50", "g_102", "g_104",
         "g_106", "g_108", "g_118", "g_144"),
        "f72b51036ca9e6eba7c65c22db4d944712cca98b54b29228c5dae2329eaf8773",
    ),
    "sparc_lsu": (
        "1102.1200000000001", "461.3101141357426",
        ("g_16", "g_70", "g_72", "g_74", "g_76", "g_84", "g_86", "g_96"),
        "f16f458d64b8dc058b9d6c1625882abed675639a0d879ec3b0c0b22635510c80",
    ),
    "sparc_fpu": (
        "4261.6", "1031.9345370483416",
        ("g_6", "g_8", "g_16", "g_22", "g_28", "g_112", "g_114", "g_184",
         "g_186", "g_188", "g_198", "g_200", "g_202", "g_204", "g_206",
         "g_208", "g_266", "g_268", "g_270", "g_272", "g_274", "g_276",
         "g_286", "g_356", "g_358", "g_360", "g_398", "g_422", "g_426"),
        "94adb243e8057690bf34d86bf7156fbc1db85cab67a1dce682449fa4768abfa6",
    ),
    "ecc64": (
        "904.68", "2133.2743170166013",
        ("u210", "u243", "u260", "u268", "u272", "u274", "u275"),
        "58222881d03f77fcd778441fc0b4f268f06e22d6ce16182db8ebd0acc0087ba7",
    ),
}


def layout_digest(layout):
    """sha256 over the placed gates, routed segments and vias, in order."""
    h = hashlib.sha256()
    h.update(json.dumps([[g.name, g.cell, g.x, g.y, g.width]
                         for g in layout.gates.values()]).encode())
    h.update(json.dumps([[s.net, s.layer, s.x1, s.y1, s.x2, s.y2]
                         for s in layout.segments]).encode())
    h.update(json.dumps([[v.net, v.x, v.y, v.lower, v.upper, v.owner]
                         for v in layout.vias]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pdesign_golden(library, cells, name):
    if name == "ecc64":
        circuit = load_file(bundled_path(name), cells=library)
    else:
        circuit = build_benchmark(name, library)
    pd = pdesign(circuit, cells, seed=0)
    got = (repr(pd.delay), repr(pd.total_power), pd.timing.critical_path,
           layout_digest(pd.layout))
    assert got == GOLDEN[name]
