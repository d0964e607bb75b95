"""Seeded draws pinned across versions.

Each digest covers a 200-step ``sample_step`` chain and a 200-step
``coupled_step`` chain from fixed seeds and start states, at N = 8, 100 and
10^4.  A refactor of the kernels or couplers that keeps every draw must keep
every digest.
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
    coupled_step,
    sample_step,
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
