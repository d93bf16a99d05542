import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbound.rng import _pcg64_states, derive_seed, normal_rows, spawn_rng

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)


def derive_seed_bytes_join(*parts):
    """derive_seed as it was first written, one encoded part at a time; the
    seeds of every saved run were derived this way."""
    payload = b"\x1f".join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") >> 1


class TestDeriveSeed:
    @given(st.lists(st.integers() | st.text(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    @example([-1, 2**63, 2**64 + 5, "", "probe", "\u00e9\u4e2d\U0001f600", 0])
    def test_equals_bytes_join_form(self, parts):
        assert derive_seed(*parts) == derive_seed_bytes_join(*parts)


class TestNormalRows:
    # If numpy ever changes SeedSequence or PCG64 seeding, this is what fails.
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=6), n=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    @example(seeds=list(EDGE_SEEDS), n=9)
    def test_rows_equal_spawn_rng_bit_for_bit(self, seeds, n):
        rows = normal_rows("probe-pair", seeds, n)
        assert rows.shape == (len(seeds), n)
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == spawn_rng("probe-pair", seed).standard_normal(n).tobytes()
        derived = [derive_seed("probe-pair", seed) for seed in seeds]
        # Raw seeds too, so that seeds below 2**32 (one entropy word) are covered.
        for seed, state in zip(derived + seeds, _pcg64_states(derived + seeds)):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_state_drops_a_buffered_uint32(self):
        # An odd number of 31-bit draws leaves half a 64-bit word buffered;
        # a generator moved to a batched state must not use it.
        gen = np.random.default_rng(5)
        gen.integers(2**31, size=3)
        assert gen.bit_generator.state["has_uint32"] == 1
        seeds = [derive_seed("label", s) for s in (3, 4)]
        for seed, state in zip(seeds, _pcg64_states(seeds)):
            gen.bit_generator.state = state
            fresh = np.random.default_rng(seed)
            assert gen.integers(2**31, size=5).tolist() == fresh.integers(2**31, size=5).tolist()
            assert gen.standard_normal(7).tobytes() == fresh.standard_normal(7).tobytes()

    def test_no_seeds_give_no_rows(self):
        assert normal_rows("probe-pair", [], 4).shape == (0, 4)
