import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbound.flsim import shuffle_states
from fedbound.rng import (
    _draw_rows,
    _seed_words,
    _SeedWords,
    derive_seed,
    derive_seeds,
    normal_rows,
    permutation_rows,
    permutations,
    seed_states,
    spawn_rng,
)

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)


def pcg64_states(seeds):
    """The ``np.random.PCG64`` state the batched seed words give each seed."""
    return [np.random.PCG64(_SeedWords(words)).state for words in _seed_words(seeds)]


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


PARTS = st.integers() | st.text()
ODD_LABEL = "\u00e9\u4e2d\U0001f600"


class TestDeriveSeeds:
    @given(head=st.lists(PARTS, max_size=5), tails=st.lists(PARTS, max_size=8))
    @settings(max_examples=300, deadline=None)
    @example(head=[0, "probe"], tails=[0, 2**63 - 1, -1, -(2**63), 2**64 + 5])
    @example(head=[2**63 - 1, -7, ODD_LABEL], tails=["", ODD_LABEL, 0])
    @example(head=[], tails=[0, "sgd", 2**63 - 1])
    def test_equals_one_derive_seed_per_tail(self, head, tails):
        assert derive_seeds(head, tails) == [derive_seed(*head, tail) for tail in tails]

    @given(label=st.text(), seeds=st.lists(SEEDS, max_size=6), n=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    @example(label=ODD_LABEL, seeds=list(EDGE_SEEDS), n=9)
    @example(label="", seeds=[0], n=1)
    def test_seeded_rows_hash_the_label_as_derive_seed(self, label, seeds, n):
        # Every label hash of a run, one per generator, goes through derive_seeds.
        derived = [derive_seed(label, seed) for seed in seeds]
        assert seed_states(label, seeds).tobytes() == _seed_words(derived).tobytes()
        normals, orders = normal_rows(label, seeds, n), permutation_rows(label, seeds, n)
        for seed, normal, order in zip(derived, normals, orders):
            assert normal.tobytes() == np.random.default_rng(seed).standard_normal(n).tobytes()
            assert order.tobytes() == np.random.default_rng(seed).permutation(n).tobytes()


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
        for seed, state in zip(derived + seeds, pcg64_states(derived + seeds)):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_state_drops_a_buffered_uint32(self):
        # An odd number of 31-bit draws leaves half a 64-bit word buffered;
        # the next row's generator must not use it.
        seeds = [derive_seed("label", s) for s in (3, 4, 5)]
        buffered = []

        def draw(gen, row):
            row[:3] = gen.integers(2**31, size=3)
            buffered.append(gen.bit_generator.state["has_uint32"])
            gen.standard_normal(out=row[3:])

        rows = _draw_rows(_seed_words(seeds), np.empty((len(seeds), 10)), draw)
        assert buffered == [1] * len(seeds)
        for row, seed in zip(rows, seeds):
            fresh = np.random.default_rng(seed)
            assert row[:3].tolist() == fresh.integers(2**31, size=3).tolist()
            assert row[3:].tobytes() == fresh.standard_normal(7).tobytes()

    def test_no_seeds_give_no_rows(self):
        assert normal_rows("probe-pair", [], 4).shape == (0, 4)


class TestPermutationRows:
    # The SGD shuffles of every saved run were drawn one default_rng at a time.
    @given(seeds=st.lists(SEEDS, min_size=1, max_size=6), n=st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    @example(seeds=list(EDGE_SEEDS), n=1)
    @example(seeds=list(EDGE_SEEDS), n=150)
    def test_rows_equal_spawn_rng_bit_for_bit(self, seeds, n):
        rows = permutation_rows("sgd", seeds, n)
        assert rows.shape == (len(seeds), n) and rows.dtype == np.int64
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == spawn_rng("sgd", seed).permutation(n).tobytes()

    @given(
        round_seeds=st.lists(st.lists(SEEDS, min_size=3, max_size=3), min_size=1, max_size=4),
        epochs=st.integers(1, 3),
        n=st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    @example(round_seeds=[list(EDGE_SEEDS[:3]), list(EDGE_SEEDS[2:])], epochs=3, n=1)
    def test_run_states_draw_each_epochs_shuffle(self, round_seeds, epochs, n):
        # A run seeds every shuffle at once; round r's epoch e of node i is
        # still spawn_rng("sgd", derive_seed(round seed, e)).permutation(n).
        states = shuffle_states(round_seeds, epochs)
        assert states.shape == (len(round_seeds), epochs, 3, 4)
        for seeds, round_states in zip(round_seeds, states):
            for epoch, epoch_states in enumerate(round_states):
                rows = permutations(epoch_states, n)
                for row, seed in zip(rows, seeds):
                    expected = spawn_rng("sgd", derive_seed(seed, epoch)).permutation(n)
                    assert row.tobytes() == expected.tobytes()

    def test_no_seeds_give_no_rows(self):
        assert permutation_rows("sgd", [], 4).shape == (0, 4)

    def test_strided_states_draw_as_c_ordered_ones(self):
        # PCG64 reads its seed words as raw memory: a strided row holding the
        # same four words would seed another state.
        states = seed_states("sgd", EDGE_SEEDS)
        wide = np.zeros((len(states), 8), dtype=np.uint64)
        wide[:, ::2] = states
        expected = permutations(states, 50).tobytes()
        assert permutations(np.asfortranarray(states), 50).tobytes() == expected
        assert permutations(wide[:, ::2], 50).tobytes() == expected


class TestSeedWords:
    @pytest.mark.parametrize("bit_generator", [np.random.SFC64, np.random.MT19937])
    def test_other_bit_generators_are_refused(self, bit_generator):
        # SFC64 asks for 3 uint64 words and MT19937 for 624 uint32 words.
        with pytest.raises(ValueError, match="seed words hold 4 uint64"):
            bit_generator(_SeedWords(seed_states("sgd", [0])[0]))
