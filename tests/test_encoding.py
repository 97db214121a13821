"""Tests for the sparse weight encoding (paper Figure 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.encoding import (
    KERNEL_HEADER_BYTES,
    MAX_ENTRY_COUNT,
    QT_ENTRY_BYTES,
    WT_ENTRY_BYTES,
    EncodedKernel,
    QTableEntry,
    decode_kernel,
    decode_layer,
    encode_kernel,
    encode_layer,
    encoded_model_bytes,
    pack_index,
    unpack_index,
)


class TestPackIndex:
    def test_roundtrip(self):
        for n in (0, 3, 100):
            for k in (0, 1, 2):
                for k2 in (0, 1, 2):
                    packed = pack_index(n, k, k2, kernel=3)
                    assert unpack_index(packed, kernel=3) == (n, k, k2)

    def test_matches_flat_order(self):
        """Packed index equals the position in the flattened (N,K,K) tensor."""
        shape = (4, 3, 3)
        flat = np.arange(np.prod(shape)).reshape(shape)
        for n in range(4):
            for k in range(3):
                for k2 in range(3):
                    assert pack_index(n, k, k2, 3) == flat[n, k, k2]


class TestQTableEntry:
    def test_rejects_zero_value(self):
        with pytest.raises(ValueError):
            QTableEntry(value=0, count=1)

    def test_rejects_oversize_count(self):
        with pytest.raises(ValueError):
            QTableEntry(value=1, count=MAX_ENTRY_COUNT + 1)


class TestEncodeKernel:
    def test_empty_kernel(self):
        encoded = encode_kernel(np.zeros((2, 3, 3), dtype=np.int64))
        assert encoded.nonzero_count == 0
        assert encoded.distinct_values == 0
        assert decode_kernel(encoded).tolist() == np.zeros((2, 3, 3)).tolist()

    def test_simple_roundtrip(self):
        kernel = np.array([[[0, 2, 0], [2, 0, -1], [0, 0, 3]]], dtype=np.int64)
        encoded = encode_kernel(kernel)
        assert encoded.nonzero_count == 4
        assert encoded.distinct_values == 3
        assert np.array_equal(decode_kernel(encoded), kernel)

    def test_stream_is_grouped_by_value(self):
        kernel = np.array([[[1, 2, 1], [2, 1, 0], [0, 2, 1]]], dtype=np.int64)
        encoded = encode_kernel(kernel)
        groups = list(encoded.value_groups())
        values = [value for value, _ in groups]
        assert values == sorted(values)
        # Indices inside a group are sorted (sequential buffer reads).
        for _, block in groups:
            assert np.all(np.diff(block) >= 0)

    def test_count_splitting_over_255(self):
        """A value with > 255 occurrences must split Q-Table entries."""
        kernel = np.zeros((300, 1, 1), dtype=np.int64)
        kernel[:260] = 7
        encoded = encode_kernel(kernel)
        assert encoded.qtable_entries == 2
        assert encoded.distinct_values == 1
        assert encoded.nonzero_count == 260
        assert np.array_equal(decode_kernel(encoded), kernel)

    def test_rejects_rectangular_kernel(self):
        with pytest.raises(ValueError):
            encode_kernel(np.zeros((2, 3, 2), dtype=np.int64))

    def test_rejects_float_kernel(self):
        with pytest.raises(TypeError):
            encode_kernel(np.zeros((2, 3, 3)))

    def test_rejects_index_overflow(self):
        # 66000 x 1 x 1 would need a 17-bit index.
        with pytest.raises(ValueError):
            encode_kernel(np.zeros((66000, 1, 1), dtype=np.int64))

    def test_encoded_bytes_formula(self):
        kernel = np.array([[[0, 2, 0], [2, 0, -1], [0, 0, 3]]], dtype=np.int64)
        encoded = encode_kernel(kernel)
        expected = (
            KERNEL_HEADER_BYTES + 3 * QT_ENTRY_BYTES + 4 * WT_ENTRY_BYTES
        )
        assert encoded.encoded_bytes == expected

    def test_mismatched_qtable_rejected(self):
        with pytest.raises(ValueError):
            EncodedKernel(
                qtable=(QTableEntry(1, 2),),
                indices=np.array([0], dtype=np.int64),
                kernel_shape=(1, 3, 3),
            )

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=st.tuples(
                st.integers(1, 6), st.just(3), st.just(3)
            ),
            elements=st.integers(-8, 8),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, kernel):
        """decode(encode(w)) == w for any integer kernel."""
        encoded = encode_kernel(kernel)
        assert np.array_equal(decode_kernel(encoded), kernel)
        assert encoded.nonzero_count == np.count_nonzero(kernel)
        nonzero = kernel[kernel != 0]
        assert encoded.distinct_values == np.unique(nonzero).size


class TestEncodeLayer:
    def test_layer_roundtrip(self, rng):
        codes = rng.integers(-4, 5, size=(6, 3, 3, 3))
        encoded = encode_layer("layer", codes)
        assert len(encoded.kernels) == 6
        assert np.array_equal(decode_layer(encoded), codes)

    def test_fc_2d_weights_accepted(self, rng):
        codes = rng.integers(-4, 5, size=(5, 16))
        encoded = encode_layer("fc", codes)
        decoded = decode_layer(encoded)
        assert decoded.shape == (5, 16, 1, 1)
        assert np.array_equal(decoded.reshape(5, 16), codes)

    def test_aggregates(self, rng):
        codes = rng.integers(-4, 5, size=(4, 2, 3, 3))
        encoded = encode_layer("layer", codes)
        assert encoded.nonzero_count == np.count_nonzero(codes)
        assert encoded.encoded_bytes == sum(k.encoded_bytes for k in encoded.kernels)
        assert encoded.max_wt_entries_per_kernel == max(
            np.count_nonzero(codes[m]) for m in range(4)
        )

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            encode_layer("bad", np.zeros((2, 2, 2, 2, 2), dtype=np.int64))

    def test_model_bytes(self, rng):
        layers = [
            encode_layer(f"l{i}", rng.integers(-3, 4, size=(2, 2, 3, 3)))
            for i in range(3)
        ]
        assert encoded_model_bytes(layers) == sum(l.encoded_bytes for l in layers)


class TestCacheThreadSafety:
    """The encode and plan caches are shared process-wide; hammer them
    from threads and check every caller sees one consistent entry."""

    def test_concurrent_encode_layer_cached(self, rng):
        import threading

        from repro.core.encoding import clear_encode_cache, encode_layer_cached

        clear_encode_cache()
        codes = rng.integers(-4, 5, size=(8, 4, 3, 3))
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def worker(i):
            barrier.wait()
            results[i] = encode_layer_cached("shared", codes)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # First insert wins: every thread gets the same cached object.
        assert all(r is results[0] for r in results)
        assert np.array_equal(decode_layer(results[0]), codes)
        clear_encode_cache()

    def test_concurrent_plan_compile(self, rng):
        import threading

        from repro.core.abm import ConvGeometry
        from repro.core.plan import clear_plan_cache, compile_layer_plan
        from repro.telemetry import cache_stats

        clear_plan_cache()
        encoded = encode_layer("shared", rng.integers(-4, 5, size=(6, 3, 3, 3)))
        geometry = ConvGeometry(kernel=3)
        plans = [None] * 8
        barrier = threading.Barrier(len(plans))

        def worker(i):
            barrier.wait()
            plans[i] = compile_layer_plan(encoded, geometry)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is plans[0] for p in plans)
        assert cache_stats()["core.plan"].size == 1
        clear_plan_cache()
