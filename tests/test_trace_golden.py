"""Golden digests of the synthetic generators' packed output.

Every experiment replays traces the generators synthesise, and the trace
cache keys entries by ``(workload, seed, length, code_copies)`` alone: a
generator change that reorders one random draw would silently change
every published table while the cache kept serving the old traces.  Each
digest below is the sha256 of a trace's eight columns, in ``COLUMNS``
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
    ("bzip2", None, 1): "adf89e9b0420d19f74ebdc2bc9d98ff56b98dcd7313c09f29459804b96fb849d",
    ("bzip2", 1601, 1): "5e3fd2a3dc18b727dac9ab9462edd50dc490dbf18920f7da2fe29df0e9dae795",
    ("gap", None, 1): "8490c3510f720097e02364b2719d9d271fa191abc88ec618afa71ceb0c01b941",
    ("gap", 1601, 1): "5ab47686397a5644705426d3e815b567d260e7ac4fb5ff9d22f7b3410ba5e42e",
    ("gcc", None, 1): "e59c02473c40cd0072972732b0671da5e64051f1b82af195262f9c671c24f2c8",
    ("gcc", 1601, 1): "d4313ac689ddc90c857f2727a05144638fdbff200b659cddfbfadc16f49c1fc4",
    ("gzip", None, 1): "d2ee3c60d92648dc07f4fbf01e0a40aae22bdf5cb1842ba6d8cd9aac11b33e42",
    ("gzip", 1601, 1): "3a7c61b58d2468211904c75c2f063c2f87ee67bee4b73964b90bb94caf393327",
    ("mcf", None, 1): "6990c02ed5a8b161f2a80cad3a7bd74b8c59a3770606ed11bdcee6b062a8e9d4",
    ("mcf", 1601, 1): "9ca6662c5d153505ba353ef8d4f1f487f2bcbd5fb8b1f85305c18eb329065965",
    ("parser", None, 1): "e9e98fd666ce1bb7b38596d123ee06f50a710ddabbec19c389d814da985a04cc",
    ("parser", 1601, 1): "fa0946adaaa50eeca5c793b63423c0870866de8e915cd86a46d2d8f6aced22b8",
    ("perl", None, 1): "0e291ab28c379b9e394ab101d4ae3af338800f21b16b50c6a96d938f54dd5b7a",
    ("perl", 1601, 1): "f78428d66fb53563bf8f89368bdb195529fef95230c9f4c27be57d755867c6d5",
    ("twolf", None, 1): "9124f7fb8fa65dd70f5fd46787f1352db4a1b3fedc38b12a0765fce5b9138e4a",
    ("twolf", 1601, 1): "48272074364250e595ba14e97cf4d3428c9a899554b11ef939840f18fce2f957",
    ("vortex", None, 1): "579f8929a98063306a132c5f0add14f869a41da272b40fa34a3558ff2b423111",
    ("vortex", 1601, 1): "8c2b6903cbb2fdea78da968bee4d65b819f848f6aeed4ee226c18cbbb483f2ce",
    ("vpr", None, 1): "1a78bfde47a61474b28280ff29d07f2f8b0e45aa41f2e02f7eb6bf90a1ddff02",
    ("vpr", 1601, 1): "177d338b90cb6c9a33e76d6a871340b261bea6f23ef4a972f05e2b0e0b8e61d6",
    ("gcc", None, 4): "b238c6845b3b03e41be62a55d29b00c814fda872130a059b0794cd1ddcc4c7fc",
    ("adv-phase-shift", None, 1): "a6844d4e2aac31ac7401c23402f9586dc18a4c3b15a560ac5595ba290e5f3179",
    ("adv-drift", None, 1): "5ef35af266ea929784255ccb9d1420d9e31769151942b580995ad6188753cf01",
    ("adv-burst", None, 1): "d916538f639eb7d4fc54647325c50827c9a08b8fcf798727433c78047e64402c",
    ("adv-entropy-ramp", None, 1): "1ee98d970829e3004b694ee078d359b3bfd46977c495ce3dc406fa187e4f6575",
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
