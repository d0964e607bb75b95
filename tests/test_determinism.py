"""Seeded draws pinned across versions.

Each digest covers a 200-step ``sample_step`` chain and a 200-step
``coupled_step`` chain from fixed seeds and start states, at N = 8, 100 and
10^4.  A refactor of the kernels or couplers that keeps every draw must keep
every digest.  Exact kernels are pinned the same way, by their CSR arrays.
"""
import hashlib

import numpy as np
import pytest

from monochain import (
    CoupledPair,
    Ehrenfest,
    MoranGeneral,
    MoranStandard,
    PolyaDownUp,
    PolyaLevel,
    PolyaUpDown,
    build_matrix,
    coupled_step,
    sample_step,
    spec_from_json,
)
from helpers import delta_construction_matrix

STEPS = 200

FAMILIES = {
    "moran_general": lambda n: MoranGeneral(n, delta_construction_matrix(0.05)),
    "moran_standard": lambda n: MoranStandard(n, 0.3, (0.25, 0.35, 0.4)),
    "polya_level": lambda n: PolyaLevel(n, 2, (1.5, 2.0, 1.0)),
    "polya_updown": lambda n: PolyaUpDown(n, 2, (1.5, 2.0, 1.0)),
    "polya_downup": lambda n: PolyaDownUp(n, 2, (1.5, 2.0, 1.0)),
    "ehrenfest": lambda n: Ehrenfest(n, 2, (0.3, 0.3, 0.4)),
}

DIGESTS = {
    ("moran_general", 8):
        "fa66353bfed9efa4215267d7e4f5c6eee143f35a6e840d89de5dae6457737835",
    ("moran_general", 100):
        "42d6686490b6cb41863aad01c5f4db8dd54664973f9a449bb4e174e291120079",
    ("moran_standard", 8):
        "03ac6b2283d10123646da6bb894a1fbb694da67b0536869660ce06eed67aed6b",
    ("moran_standard", 100):
        "b0b98780de86d896bbded16f18cd8b807680b9638072ae5186da627f1991c6d3",
    ("polya_level", 8):
        "e72a93a52597c65510128309583cfaed550f3abe4e37d3ba89a4062400215bb2",
    ("polya_level", 100):
        "9afaa60889e62898892c58804716e1f54b0462156c51da6f109db7e2f6fe5d09",
    ("polya_updown", 8):
        "fbc77c49995bf5f456b048a6d811ae67c97563ec3051a320687beabb75fafdaf",
    ("polya_updown", 100):
        "d79111dd640bc6a5c7e2d83847ccda2b1e78f90065d1aea6a08de3911863f6d2",
    ("polya_downup", 8):
        "0c37fad34e0847c7303aae2c71519d089e17187c14eeeade6404b7b28b0567f2",
    ("polya_downup", 100):
        "a4112b98ecb1446ac239080a3403cce5fb752ab75488c9ef9e5fb858c15fb0fe",
    ("ehrenfest", 8):
        "f27711a5bf5ec1b63cc036a584145a3ba25e150d73c8f7785263d00dd38275ac",
    ("ehrenfest", 100):
        "082af1048c2d96509706c6f3bb77592fb4b251f7ce3d06614b1675002b8c6107",
    # N = 10^4.  Here the level and down-up chains make the same 200 steps:
    # their addition weights differ by only s/N, and no draw falls in between.
    ("moran_general", 10_000):
        "dcbf7c639c43bb9df603e517e54ccdf624c3bfc21fafd3aae9f54d2fd9b93fc8",
    ("moran_standard", 10_000):
        "6809a285aaf13b7137d0899e9fb53be44289c7a5a118c07f899dbb7696a25e32",
    ("polya_level", 10_000):
        "4b91f934c87e2217a03290e6192e24010167502a32e2d1839a024a0ac7335d6e",
    ("polya_updown", 10_000):
        "9d2caaa3f2cbe49e10775bb347e2a9b8168fa73f5bb7baea4ef3679e5163c4cb",
    ("polya_downup", 10_000):
        "4b91f934c87e2217a03290e6192e24010167502a32e2d1839a024a0ac7335d6e",
    ("ehrenfest", 10_000):
        "7c65e074e2bef3477457c9cb42af1fbaa0abe2bd9a69ba2e71f2f2114317906a",
}


def chain_digest(spec, n: int) -> str:
    rng = np.random.default_rng(20131)
    x = (n // 4, n // 4, n - 2 * (n // 4))
    sampled = [x]
    for _ in range(STEPS):
        x = sample_step(spec, x, rng)
        sampled.append(x)
    rng = np.random.default_rng(20132)
    pair = CoupledPair((0, 0, n), (n // 2, n - n // 2 - 1, 1))
    coupled = [pair]
    for _ in range(STEPS):
        pair = coupled_step(spec, pair, rng)
        coupled.append(pair)
    text = repr(([tuple(s) for s in sampled], [(tuple(p.x), tuple(p.y)) for p in coupled]))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,n", sorted(DIGESTS))
def test_seeded_chains_match_pinned_digests(family, n):
    assert chain_digest(FAMILIES[family](n), n) == DIGESTS[(family, n)]


# The six exact-solve specs of the benchmark's exact_desk workload at seed 1
# (1,035 or 1,140 states), then an Ehrenfest chain with s = 3 at d = 4 (680
# states), where up to 20 of a state's 400 paths merge into one successor,
# with the sha256 of csr.data, csr.indices and csr.indptr of their
# build_matrix kernels.  A change to how rows are built that keeps the
# arithmetic per entry must keep every digest.
CSR_DIGESTS = [
    ({"model": "moran_general", "N": 17, "mutation_matrix": [
        [0.21510811555188497, 0.35458298387052567, 0.3026512434653538, 0.12765765711223556],
        [0.5204535063412498, 0.0684302645003653, 0.10172829626967217, 0.30938793288871275],
        [0.34651307862361347, 0.3008863134572954, 0.12665881921256683, 0.22594178870652426],
        [0.1301234500055765, 0.045043706160898346, 0.0417457056878672, 0.7830871381456579]]},
     "9960d6ed57333ff10051e7f99d6bf2ce9b09a5bae18b0c21d897d283a75ef681"),
    ({"model": "moran_standard", "N": 44, "m": 0.5,
      "p": [0.47036781190201393, 0.09525047748162604, 0.43438171061636005]},
     "983f12c3440555467c8bac10ebf3570f2efb020a74b3d2fdd6f630b3d149d056"),
    ({"model": "polya_level", "N": 44, "s": 2,
      "alpha": [1.1858402870944753, 2.4400278426038833, 2.3741318703016416]},
     "611aeeb6e7cf0d57afdfbeb5110271a1151d5e7774f701ff45663a18802d105c"),
    ({"model": "polya_updown", "N": 44, "s": 2,
      "alpha": [1.5326795472878192, 2.9957160561934617, 1.4716043965187182]},
     "c2ecfa5f3492767f3d63ff209659ada8e861b4d6f2035026dd2a08eb471b7bdd"),
    ({"model": "polya_downup", "N": 44, "s": 2,
      "alpha": [2.167101854294588, 2.758580680737503, 1.0743174649679084]},
     "e29f43c3a6615d0ea0fd9bb9bf9e3112b111faf3a6876876367b8685514d6473"),
    ({"model": "ehrenfest", "N": 17, "s": 2,
      "p": [0.3738088741004123, 0.18744155389444347, 0.3748585291018144, 0.06389104290332981]},
     "fe7f4b28ee9fe29c7b3f1ac2710a50b494fe7f3ad556658e35a10f4e38d52896"),
    ({"model": "ehrenfest", "N": 14, "s": 3, "p": [0.3, 0.15, 0.4, 0.15]},
     "7336863ff2dbaac1ec3317e71d71840b8a2d5d5ee51c8133a5df1fa87e9cefb7"),
]


@pytest.mark.parametrize("doc,digest", CSR_DIGESTS, ids=[
    d["model"] + ("" if d.get("s", 2) == 2 else f"_s{d['s']}") for d, _ in CSR_DIGESTS])
def test_exact_kernels_match_pinned_digests(doc, digest):
    csr = build_matrix(spec_from_json(doc)).csr
    h = hashlib.sha256()
    for a in (csr.data, csr.indices, csr.indptr):
        h.update(a.tobytes())
    assert h.hexdigest() == digest
