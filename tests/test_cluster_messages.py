"""Unit tests for repro.cluster.messages."""

import pytest

from repro.cluster.messages import (
    FLOAT_BYTES,
    MESSAGE_HEADER_BYTES,
    PARTIAL_ENTRY_BYTES,
    RESULT_ENTRY_BYTES,
    partial_result_bytes,
    query_chunk_bytes,
    result_set_bytes,
)


class TestSizeHelpers:
    def test_query_chunk_bytes(self):
        assert query_chunk_bytes(32) == MESSAGE_HEADER_BYTES + 32 * FLOAT_BYTES

    def test_partial_result_bytes(self):
        assert (
            partial_result_bytes(100)
            == MESSAGE_HEADER_BYTES + 100 * PARTIAL_ENTRY_BYTES
        )

    def test_result_set_bytes(self):
        assert result_set_bytes(10) == MESSAGE_HEADER_BYTES + 10 * RESULT_ENTRY_BYTES

    def test_zero_payload_still_has_header(self):
        assert query_chunk_bytes(0) == MESSAGE_HEADER_BYTES
        assert partial_result_bytes(0) == MESSAGE_HEADER_BYTES
        assert result_set_bytes(0) == MESSAGE_HEADER_BYTES

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            query_chunk_bytes(-1)
        with pytest.raises(ValueError):
            partial_result_bytes(-1)
        with pytest.raises(ValueError):
            result_set_bytes(-1)

    def test_partials_smaller_than_vectors(self):
        """Paper Section 1: intermediate results are much smaller than
        the vectors they describe for realistic dimensionalities."""
        dim = 128
        n = 1000
        assert partial_result_bytes(n) < n * dim * FLOAT_BYTES

