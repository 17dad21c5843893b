"""Tests for repro.codes.reed_solomon: encoding, error correction, batch encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.reed_solomon import DecodingFailure, ReedSolomonCode


CODE = ReedSolomonCode.for_domain(domain_size=1 << 20, num_chunks=10, rate=0.5)


class TestConstruction:
    def test_for_domain_dimensions(self):
        assert CODE.codeword_length == 10
        assert CODE.message_length == 5
        assert CODE.max_domain_size >= 1 << 20
        assert CODE.prime > CODE.codeword_length

    def test_rate_and_correction_budget(self):
        assert CODE.rate == pytest.approx(0.5)
        assert CODE.max_correctable_errors == 2

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(message_length=5, codeword_length=3, prime=101)
        with pytest.raises(ValueError):
            ReedSolomonCode(message_length=2, codeword_length=200, prime=101)
        with pytest.raises(ValueError):
            ReedSolomonCode.for_domain(100, 10, rate=0.0)


class TestEncodeDecode:
    def test_round_trip_no_errors(self):
        for value in [0, 1, 12345, (1 << 20) - 1]:
            codeword = CODE.encode_int(value)
            assert len(codeword) == CODE.codeword_length
            assert CODE.decode_int(codeword) == value

    def test_corrects_errors_within_budget(self):
        value = 987654
        codeword = CODE.encode_int(value)
        corrupted = list(codeword)
        corrupted[1] = (corrupted[1] + 5) % CODE.prime
        corrupted[7] = (corrupted[7] + 9) % CODE.prime
        assert CODE.decode_int(corrupted) == value

    def test_corrects_erasures(self):
        value = 271828
        codeword = CODE.encode_int(value)
        erased = list(codeword)
        erased[0] = None
        erased[3] = None
        erased[9] = None
        assert CODE.decode_int(erased) == value

    def test_corrects_mixed_error_and_erasure(self):
        value = 31415
        codeword = CODE.encode_int(value)
        received = list(codeword)
        received[2] = None
        received[5] = (received[5] + 1) % CODE.prime
        assert CODE.decode_int(received) == value

    def test_too_many_erasures_fails(self):
        value = 555
        codeword = CODE.encode_int(value)
        received = [None] * 6 + list(codeword[6:])
        with pytest.raises(DecodingFailure):
            CODE.decode(received)

    def test_message_length_validated(self):
        with pytest.raises(ValueError):
            CODE.encode([1, 2, 3])
        with pytest.raises(ValueError):
            CODE.decode([0] * 3)

    def test_distinct_values_have_distant_codewords(self):
        """Minimum distance of RS is M - k + 1 = 6 for this code."""
        a = CODE.encode_int(111)
        b = CODE.encode_int(222)
        distance = sum(1 for x, y in zip(a, b, strict=True) if x != y)
        assert distance >= CODE.codeword_length - CODE.message_length + 1

    @given(st.integers(min_value=0, max_value=(1 << 20) - 1),
           st.sets(st.integers(min_value=0, max_value=9), max_size=2),
           st.integers(min_value=1, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_error_correction_property(self, value, error_positions, shift):
        codeword = CODE.encode_int(value)
        corrupted = list(codeword)
        for position in error_positions:
            corrupted[position] = (corrupted[position] + shift) % CODE.prime
        assert CODE.decode_int(corrupted) == value


class TestBatchEncoding:
    def test_matches_scalar_encoding(self):
        values = np.array([0, 1, 500_000, (1 << 20) - 1])
        batch = CODE.encode_batch(values)
        assert batch.shape == (4, CODE.codeword_length)
        for row, value in zip(batch, values, strict=True):
            assert row.tolist() == CODE.encode_int(int(value))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            CODE.encode_batch(np.array([CODE.max_domain_size]))

    def test_empty_batch(self):
        batch = CODE.encode_batch(np.array([], dtype=np.int64))
        assert batch.shape == (0, CODE.codeword_length)

    def test_evaluate_at_picks_one_symbol_per_value(self):
        values = np.random.default_rng(0).integers(0, 1 << 20, size=300)
        points = np.random.default_rng(1).integers(0, CODE.codeword_length,
                                                   size=300)
        symbols = CODE.evaluate_at(values, points)
        assert symbols.dtype == np.int64
        assert np.array_equal(
            symbols, CODE.encode_batch(values)[np.arange(300), points])
        assert symbols[:5].tolist() == [CODE.encode_int(int(v))[int(m)]
                                        for v, m in zip(values[:5], points[:5],
                                                        strict=True)]

    def test_evaluate_at_rejects_points_outside_codeword(self):
        with pytest.raises(ValueError):
            CODE.evaluate_at([1, 2], [0, CODE.codeword_length])
        with pytest.raises(ValueError):
            CODE.evaluate_at([1], [-1])


class TestEvaluateAtKernel:
    """``evaluate_at`` (floor-division digits, one lazily reduced Horner
    pass) against ``encode_int``'s Python-int polynomial evaluation."""

    @pytest.mark.parametrize("k, m, p", [
        (4, 9, 37),                  # the expander's D = 2^20 outer code
        (5, 10, CODE.prime),         # reduced once at the end
        (1, 1, 2),                   # a single point, a single digit
        (3, 5, (1 << 31) + 11),      # digits near 2^31
        (8, 1000, 1048583),          # p * M^k past 2^63: reduce per step
    ])
    def test_matches_encode_int(self, k, m, p):
        code = ReedSolomonCode(message_length=k, codeword_length=m, prime=p)
        top = min(code.max_domain_size, 1 << 63) - 1
        rng = np.random.default_rng(k * m)
        values = np.array([0, 1, p - 1, min(p, top), top,
                           *rng.integers(0, top, size=12, endpoint=True)],
                          dtype=np.int64)
        table = code.encode_batch(values)
        assert table.dtype == np.int64 and table.shape == (values.size, m)
        for row, value in zip(table, values.tolist(), strict=True):
            assert row.tolist() == code.encode_int(value)
        points = rng.integers(0, m, size=values.size)
        assert np.array_equal(code.evaluate_at(values, points),
                              table[np.arange(values.size), points])

    @pytest.mark.parametrize("k, m, p, reductions", [
        (4, 9, 37, 1),               # p * M^k fits: once, at the end
        (8, 1000, 1048583, 2),       # once mid-loop, once at the end
    ])
    def test_reduction_schedule(self, monkeypatch, k, m, p, reductions):
        import repro.hashing.kwise as kwise

        moduli = []
        reduce = kwise._reduce

        def counting(vals, modulus, scratch):
            moduli.append(modulus)
            return reduce(vals, modulus, scratch)

        monkeypatch.setattr(kwise, "_reduce", counting)
        code = ReedSolomonCode(message_length=k, codeword_length=m, prime=p)
        code.encode_batch(np.arange(50))
        assert moduli == [p] * reductions

    def test_per_step_reduction_keeps_maximal_digits_exact(self):
        """Every digit p - 1 and every point M - 1 drive each intermediate
        to its bound; p = 2,097,143 is the largest prime with p^3 < 2^63."""
        code = ReedSolomonCode(message_length=3, codeword_length=1 << 20,
                               prime=2_097_143)
        value = code.max_domain_size - 1
        assert value < 1 << 63 <= code.prime * code.codeword_length ** 3
        points = np.array([0, 1, code.codeword_length - 1])
        expected = [code.field.poly_eval(code.message_from_int(value), int(x))
                    for x in points]
        assert code.evaluate_at(np.full(3, value), points).tolist() == expected

    def test_empty_values_broadcast_against_points(self):
        out = CODE.evaluate_at(np.zeros((0, 1), dtype=np.int64),
                               np.arange(CODE.codeword_length))
        assert out.shape == (0, CODE.codeword_length)
        assert out.dtype == np.int64


class TestSmallCode:
    def test_rate_one_code_has_zero_budget(self):
        code = ReedSolomonCode.for_domain(16, 4, rate=1.0)
        assert code.max_correctable_errors == 0
        value = 13
        assert code.decode_int(code.encode_int(value)) == value
