"""Golden digests of the synthetic generators' packed output.

Every experiment replays traces the generators synthesise, and the trace
cache keys entries by ``(workload, seed, length, code_copies)`` alone: a
generator change that reorders one random draw would silently change
every published table while the cache kept serving the old traces.  Each
digest below is the sha256 of a trace's nine columns, in ``COLUMNS``
order and little-endian, so any change to an emitted field, to the order
of the instructions or to the packing fails here.

A deliberate generator change must update these literals, and say so.
"""

import hashlib
import sys
from array import array

import pytest

from repro.trace.packed import COLUMNS
from repro.trace.workloads import BENCHMARKS, adversarial, get

LENGTH = 3000

#: ``(workload, seed, code_copies) -> sha256``; a ``None`` seed is the
#: registry seed.
GOLDEN = {
    ("bzip2", None, 1): "185fca2793423e84f22317d3854d738903282928d30a3ac8beaf3a94af11fd78",
    ("bzip2", 1601, 1): "fec3c8d181cbeedf2da1017083e0f24e6445055cf7a1ffcdf9399aabc4facce6",
    ("gap", None, 1): "752e07b7e62bcbe3294678bb6120da2b8d4791f6b9eea763499a64cc45a1a8c4",
    ("gap", 1601, 1): "5218d9ea93bb8f600e6e80ee6bafe99228a8b646b7dcd95d945d5e1523f700ad",
    ("gcc", None, 1): "678b25f5223539dda71e12afdf6e76da3860af5942962f0ec4c63e819bb76b7c",
    ("gcc", 1601, 1): "a0395c9b625211bbcc55d8408af5da23a23d37bb3bc5634688e4c899ee9c5a7e",
    ("gzip", None, 1): "7cac96be9314e543873fcb19604c52c28dbbdb7ee256f720e139e8e4e6455806",
    ("gzip", 1601, 1): "a891ad560b5dd363db14f894b77454854e4437f8c61733b0342ae05aaef577d3",
    ("mcf", None, 1): "1fb7db4ccded73e8e1e803b15d32a23d3b72012c9d2cd9439ca9e2190df4f35c",
    ("mcf", 1601, 1): "488ece4e1b8990b77a04f1134e8b9bb88f8fa9d323a02e14a97976fe37027731",
    ("parser", None, 1): "f3726b72e4b6f5f07c3694388883df2e3014c930dc1ae43a6bd7c4379a161c6c",
    ("parser", 1601, 1): "1bd7bf3c995ae048809f14e08e053c44d9d991e8feca0c74cf9350170e010af3",
    ("perl", None, 1): "da3a5ce3d08ba78a1abf68b74160e3decf3fc645a667f72dd1137e49086466be",
    ("perl", 1601, 1): "1642720a14d6c5d8c5b4792ffd284378aa52130cb6ceffe5738251715f55df89",
    ("twolf", None, 1): "f4d0f31e274f19fe7a8b0b4b1b812ae732d776a00da99469fa13e812a31e8b13",
    ("twolf", 1601, 1): "b27b6bdf30403e7312ab765c618f67613b51f914f73a091e7a340d3b9d981a40",
    ("vortex", None, 1): "f8a690cf4d34d697e988eb01e16ffb1deaddb79222772d055e9a9f7fbf327343",
    ("vortex", 1601, 1): "a54d1ad1de192dfd63159884a217033e1cbfe698f411202b7e02f9183370dcec",
    ("vpr", None, 1): "798f7eac125baef7be1217687a659b0fb24def03734d65078e20130b76209a61",
    ("vpr", 1601, 1): "4ed0bc6b91f1c76b4f1aca0880e63b43305969a6c71c3b3ee8fd8b654826e1c1",
    ("gcc", None, 4): "88cc8b2761db2291f332abd5af58bd85e0d77a676976400390ca57939dd73fc8",
    ("adv-phase-shift", None, 1): "8c34951cb228b58ecf4f2fca19f34ee11a569588d372e17f6f50e9e6fe0d0540",
    ("adv-drift", None, 1): "d01aeda55f229ab72fa53c65353f3c5086ff8bfe74f18580707d874a26bf40e4",
    ("adv-burst", None, 1): "adf4051ed6e6b652a04686f5c90066b489b1b34956277f311fc2390aeab1660b",
    ("adv-entropy-ramp", None, 1): "b7ea2a0cc8959b8ba2d54aac5a81da77be58770fb828e699552e1fb14c795775",
}


def column_digest(trace):
    """sha256 of the trace's columns in ``COLUMNS`` order, little-endian."""
    digest = hashlib.sha256()
    view = trace.columns()
    for col, typecode in COLUMNS:
        data = array(typecode, view[col])
        if sys.byteorder != "little":  # pragma: no cover - BE hosts
            data.byteswap()
        digest.update(data.tobytes())
    return digest.hexdigest()


def test_golden_covers_suite_and_bank():
    names = {name for name, _seed, _copies in GOLDEN}
    assert names == set(BENCHMARKS) | set(adversarial.SCENARIOS)


@pytest.mark.parametrize("name,seed,copies", list(GOLDEN))
def test_generator_output_is_unchanged(name, seed, copies):
    trace = get(name).trace(LENGTH, seed=seed, code_copies=copies)
    assert len(trace) == LENGTH
    assert column_digest(trace) == GOLDEN[(name, seed, copies)]
