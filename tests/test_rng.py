"""The generator, pinned: an independent SplitMix64 written from the
specification in ``rsdlab/rng.py``'s docstring, and golden values that both
it and ``rsdlab.rng`` must reproduce.  Every sampled output of the package
depends on these words, so a change to any of them is a contract change.
"""

import sys
from types import SimpleNamespace

import pytest

from conftest import record_orderings
from rsdlab import rng, sd
from rsdlab.sd import _CHUNK

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_mix64(z):
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class RefGenerator:
    def __init__(self, state):
        self.state = state & MASK

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK
        return ref_mix64(self.state)

    def below(self, bound):
        return (self.next_u64() * bound) >> 64

    def permutation(self, n):
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def ref_substream(seed, run, index):
    return RefGenerator(ref_mix64(ref_mix64(ref_mix64(seed) + run) + index))


def ref_derive_seed(master, trial):
    return ref_mix64(ref_mix64(master) ^ ref_mix64(trial + GOLDEN))


MIX64 = {
    0: 0x0,
    1: 0x5692161D100B05E5,
    MASK: 0xB4D055FCF2CBBD7B,
    0x123456789ABCDEF: 0xB2C058E4EBB5112C,
}
NEXT_U64_FROM_42 = (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52)
BOUNDS = (1, 2, 3, 10, 1000, 2**40, 2**64)
BELOW_FROM_7 = (0, 0, 2, 5, 452, 274252859083, 8632209307422871798)
DERIVE_SEED = {
    (0, 0): 0x48218226FF3CD4BF,
    (1, 0): 0x48294F70CCF5E4FC,
    (7, 3): 0x3AD3A9C34041426B,
    (MASK, 5): 0x33C24FAE633BF0BC,
}
SUBSTREAM_STATE = {
    (0, 0, 0): 0x0,
    (7, 0, 1): 0x7DB44C282ED01572,
    (7, 1, 0): 0x50E3A6C7A37C0937,
    (99, 3, 4999): 0x7F13FFF0669F3369,
    (2**63, 0, 0): 0x768379D5C4E5713,
}
PERMUTATION_2024_1_3 = {
    1: [0],
    2: [1, 0],
    6: [4, 3, 1, 5, 0, 2],
    20: [14, 6, 16, 13, 4, 5, 3, 11, 2, 17, 1, 18, 10, 12, 15, 8, 19, 9, 0, 7],
}


@pytest.mark.parametrize("impl", ["reference", "package"])
def test_golden_values(impl):
    if impl == "reference":
        mix64, make, substream, derive_seed = ref_mix64, RefGenerator, ref_substream, ref_derive_seed
    else:
        mix64, make, substream, derive_seed = rng.mix64, rng.SplitMix64, rng.substream, rng.derive_seed
    assert {z: mix64(z) for z in MIX64} == MIX64
    gen = make(42)
    assert tuple(gen.next_u64() for _ in NEXT_U64_FROM_42) == NEXT_U64_FROM_42
    gen = make(7)
    assert tuple(gen.below(b) for b in BOUNDS) == BELOW_FROM_7
    assert {key: derive_seed(*key) for key in DERIVE_SEED} == DERIVE_SEED
    for key, state in SUBSTREAM_STATE.items():
        expected = RefGenerator(state)
        gen = substream(*key)
        assert [gen.next_u64() for _ in range(4)] == [expected.next_u64() for _ in range(4)]
    for n, perm in PERMUTATION_2024_1_3.items():
        assert substream(2024, 1, 3).permutation(n) == perm


def test_package_matches_reference_on_many_draws():
    for seed, run, index in ((5, 0, 0), (5, 2, 17), (2**64 + 3, 9, 123456)):
        ours, ref = rng.substream(seed, run, index), ref_substream(seed, run, index)
        for n in (1, 2, 3, 6, 9, 20, 64):
            assert ours.permutation(n) == ref.permutation(n)
        assert [ours.below(b) for b in range(1, 200)] == [ref.below(b) for b in range(1, 200)]


def scalar_orders(monkeypatch, seed, run, k, n):
    """The orderings of samples 0 .. k - 1 of ``(seed, run)`` that the
    scalar loop of ``sd.sd_total`` reads off the packed draws, up to
    ``_CHUNK`` samples at a time, and scores, in order."""
    orders = record_orderings(monkeypatch)
    sd._scalar_total(tuple(tuple(range(n)) for _ in range(n)), [[0] * n for _ in range(n)], seed, run, 0, k)
    return orders


@pytest.mark.parametrize("seed,run,k,n", [
    (0, 0, 1, 6),
    (7, 3, 50, 20),
    (2**64 - 1, 2**40, 20, 33),
    (-5, 1, 3, 2),
    (11, 2, _CHUNK - 1, 6),
    (11, 2, _CHUNK, 6),
    (11, 2, _CHUNK + 1, 6),
    (12, 0, 2 * _CHUNK + 5, 3),
    (13, 4, 9, 300),
    (14, 1, 5, 1),
    (15, 1, 5, 0),
])
def test_run_permutations_match_substreams(seed, run, k, n, monkeypatch):
    expected = [rng.substream(seed, run, i).permutation(n) for i in range(k)]
    # and the independent reference agrees
    assert expected[:5] == [ref_substream(seed, run, i).permutation(n) for i in range(min(k, 5))]
    if n < 2:
        # no draws, and a lane floor of 0: sd_total runs every batch on
        # lanes, and each ordering is the identity
        assert expected == [list(range(n))] * k
        assert sd.sd_total(tuple((0,) for _ in range(n)), [[1]] * n, seed, run, k) == k * n
        return
    assert scalar_orders(monkeypatch, seed, run, k, n) == expected
    assert scalar_orders(monkeypatch, seed, run, 0, n) == []


def test_run_permutations_wrap_the_lane_counter(monkeypatch):
    # the per-sample states base + i pass 2**64 inside one chunk and must wrap
    base = 2**64 - 3
    monkeypatch.setattr(rng, "_run_state", lambda seed, run: base)
    for n in (2, 6, 20):
        expected = [RefGenerator(ref_mix64(base + i)).permutation(n) for i in range(7)]
        assert [rng.substream(1, 0, i).permutation(n) for i in range(7)] == expected
        assert scalar_orders(monkeypatch, 1, 0, 7, n) == expected


def test_below_refuses_an_empty_range():
    with pytest.raises(ValueError):
        rng.SplitMix64(1).below(0)
    with pytest.raises(ValueError):
        rng.SplitMix64(1).below_many(0, 5)
    with pytest.raises(ValueError):
        rng.SplitMix64(1).below_many(-1, 0)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 8, 9, 904, 4096])
def test_the_lane_ramp_counts_the_slots(count):
    ramp = rng._lanes(count)[2]
    assert ramp == int.from_bytes(b"".join(i.to_bytes(rng.SLOT_BYTES, "little") for i in range(count)), "little")


@pytest.mark.parametrize("count", [1, 2, 7, 904, 3456, 4096])
def test_the_lane_step_is_the_golden_increment_in_every_slot(count):
    # the golden-ratio increment in the low half of each slot and zero above
    step = rng._lanes(count)[4]
    assert step == int.from_bytes(GOLDEN.to_bytes(rng.SLOT_BYTES, "little") * count, "little")


@pytest.mark.parametrize("byteorder", ["little", "big"])
@pytest.mark.parametrize("bound", [1, 1001, 10**6 + 1, 2**64, 2**64 + 1])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 500])
def test_below_many_is_the_scalar_loop(count, bound, byteorder, monkeypatch):
    # the byte order that is not this host's is read as such a host reads
    # it, so its native words come byte-swapped here and are swapped back;
    # past 2**64 the draws are the scalar loop's own, in either order
    for state in (7, MASK - 3):
        ref = RefGenerator(state)
        expected = [ref.below(bound) for _ in range(count)]
        gen = rng.SplitMix64(state)
        monkeypatch.setattr("rsdlab.rng.sys", SimpleNamespace(byteorder=byteorder))
        draws = gen.below_many(bound, count)
        monkeypatch.undo()
        if bound <= 2**64:
            draws = [int.from_bytes(w.to_bytes(8, sys.byteorder), byteorder) for w in draws]
        assert draws == expected
        assert gen._state == ref.state
        assert gen.next_u64() == ref.next_u64()
