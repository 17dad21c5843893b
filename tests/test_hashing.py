"""Tests for repro.hashing: primes and k-wise independent hash families."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hashing.kwise import (
    KWiseHash,
    KWiseHashFamily,
    StackedKWiseHash,
    _int64_exact,
    kwise_hash,
    pairwise_hash,
    sign_hash,
    total_description_bits,
)
from repro.hashing.primes import is_prime, next_prime, previous_prime


class TestPrimes:
    def test_small_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 97, 101, 7919]
        for p in primes:
            assert is_prime(p)

    def test_small_composites(self):
        for c in [0, 1, 4, 6, 9, 91, 561, 7917]:
            assert not is_prime(c)

    def test_large_prime_and_composite(self):
        assert is_prime(2**31 - 1)          # Mersenne prime
        assert not is_prime(2**31 - 3)

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(1 << 20) == 1048583

    def test_previous_prime(self):
        assert previous_prime(17) == 17
        assert previous_prime(16) == 13
        with pytest.raises(ValueError):
            previous_prime(1)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=50)
    def test_next_prime_property(self, n):
        p = next_prime(n)
        assert p >= n
        assert is_prime(p)


class TestKWiseHash:
    def test_range_respected(self):
        h = pairwise_hash(10_000, 37, rng=0)
        values = h(np.arange(1000))
        assert values.min() >= 0 and values.max() < 37

    def test_scalar_and_vector_agree(self):
        h = pairwise_hash(10_000, 64, rng=1)
        xs = np.arange(50)
        vector = h(xs)
        scalars = np.array([h(int(x)) for x in xs])
        assert np.array_equal(vector, scalars)

    def test_determinism(self):
        h = pairwise_hash(1 << 20, 128, rng=3)
        assert h(123456) == h(123456)

    def test_different_samples_differ(self):
        family = KWiseHashFamily.create(1 << 16, 97, independence=2)
        h1, h2 = family.sample_many(2, rng=5)
        xs = np.arange(200)
        assert not np.array_equal(h1(xs), h2(xs))

    def test_rejects_negative_inputs(self):
        h = pairwise_hash(100, 10, rng=0)
        with pytest.raises(ValueError):
            h(np.array([-1, 3]))

    def test_description_bits_scale_with_independence(self):
        pair = pairwise_hash(1 << 20, 16, rng=0)
        eightwise = kwise_hash(1 << 20, 16, independence=8, rng=0)
        assert eightwise.description_bits == 4 * pair.description_bits
        assert total_description_bits([pair, eightwise]) == (
            pair.description_bits + eightwise.description_bits)

    def test_approximate_uniformity(self):
        """Bucket loads of a pairwise hash should be near-uniform."""
        h = pairwise_hash(1 << 20, 16, rng=11)
        values = h(np.arange(16_000))
        counts = np.bincount(values, minlength=16)
        assert counts.min() > 500
        assert counts.max() < 1500

    def test_pairwise_collision_rate(self):
        """Empirical collision probability of random pairs is close to 1/range."""
        rng = np.random.default_rng(0)
        collisions = 0
        trials = 400
        for seed in range(trials):
            h = pairwise_hash(1 << 16, 32, rng=seed)
            x, y = rng.integers(0, 1 << 16, size=2)
            while x == y:
                y = rng.integers(0, 1 << 16)
            collisions += int(h(int(x)) == h(int(y)))
        # Expected collision rate 1/32 = 0.03125; allow generous sampling slack.
        assert collisions / trials < 0.09

    def test_large_prime_path(self):
        """Domains above 2^31 exercise the object-dtype evaluation path."""
        h = pairwise_hash(1 << 40, 64, rng=2)
        values = h(np.array([0, 1, (1 << 40) - 1]))
        assert values.min() >= 0 and values.max() < 64

    def test_scalar_fast_path_matches_vector(self):
        """The allocation-free scalar Horner path must agree with the
        vectorized evaluation bit for bit, for both prime regimes."""
        for h in (kwise_hash(1 << 20, 97, independence=5, rng=7),
                  pairwise_hash(1 << 40, 64, rng=2)):
            xs = list(range(64)) + [h.prime - 1, h.prime, h.prime + 13]
            vector = h(np.asarray(xs, dtype=np.int64))
            for i, x in enumerate(xs):
                assert h(int(x)) == int(vector[i])     # python int scalar
                assert h(np.int64(x)) == int(vector[i])  # numpy int scalar

    def test_scalar_fast_path_rejects_negative(self):
        h = pairwise_hash(100, 10, rng=0)
        with pytest.raises(ValueError):
            h(-1)

    def test_cached_coefficients_survive_pickle(self):
        import pickle
        h = kwise_hash(1 << 16, 32, independence=4, rng=9)
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert clone(12345) == h(12345)
        assert np.array_equal(clone(np.arange(100)), h(np.arange(100)))


#: the heavy-hitter assignment hash's field (next prime above 2^31), the
#: largest prime with p * (p - 1) < 2^63, and the next prime above that
ASSIGNMENT_PRIME = next_prime(1 << 31)
LARGEST_INT64_PRIME = 3_037_000_493
SMALLEST_OBJECT_PRIME = 3_037_000_507


class TestInt64HornerGuard:
    def test_guard_boundary(self):
        assert ASSIGNMENT_PRIME == (1 << 31) + 11
        assert previous_prime(SMALLEST_OBJECT_PRIME - 1) == LARGEST_INT64_PRIME
        assert next_prime(LARGEST_INT64_PRIME + 1) == SMALLEST_OBJECT_PRIME
        assert _int64_exact(ASSIGNMENT_PRIME)
        assert _int64_exact(LARGEST_INT64_PRIME)
        assert not _int64_exact(SMALLEST_OBJECT_PRIME)

    @pytest.mark.parametrize("prime", [ASSIGNMENT_PRIME, LARGEST_INT64_PRIME,
                                       SMALLEST_OBJECT_PRIME])
    def test_vector_equals_python_int_scalar_path(self, prime):
        """Maximal coefficients and inputs drive every Horner intermediate
        to p * (p - 1): an int64 path past the guard would wrap."""
        rng = np.random.default_rng(prime)
        xs = [0, 1, prime - 1, prime, prime + 13,
              *rng.integers(0, 4 * prime, size=64).tolist()]
        for coefficients in ((prime - 1,) * 4,
                             tuple(int(c) for c in rng.integers(0, prime, 3))):
            h = KWiseHash(coefficients=coefficients, prime=prime,
                          range_size=1000)
            vector = h(np.asarray(xs, dtype=np.int64))
            assert vector.dtype == np.int64
            assert vector.tolist() == [h._evaluate_scalar(x) for x in xs]
            stacked = StackedKWiseHash([h])(np.zeros(len(xs), dtype=np.int64),
                                           xs)
            assert np.array_equal(stacked, vector)


#: the 2^20 domain's field, where the partition and coordinate hashes live
DOMAIN_PRIME = next_prime(1 << 20)


def _maximal_hash(prime, independence, range_size, seed):
    """A hash with random coefficients, or every coefficient ``p - 1`` (the
    values that drive each Horner intermediate to its bound) for seed 0."""
    if seed == 0:
        coefficients = (prime - 1,) * independence
    else:
        rng = np.random.default_rng(seed)
        coefficients = tuple(int(c) for c in
                             rng.integers(0, prime, size=independence))
    return KWiseHash(coefficients=coefficients, prime=prime,
                     range_size=range_size)


def _boundary_inputs(prime, size=200):
    """Zero, one, p - 1, multiples of p and inputs up to 4p (x >= p is
    reduced mod p before the Horner loop)."""
    rng = np.random.default_rng(prime % 1000)
    return np.array([0, 1, prime - 1, prime, prime + 1, 2 * prime - 1,
                     3 * prime, *rng.integers(0, 4 * prime, size=size)],
                    dtype=np.int64)


class TestLazyReductionKernel:
    """The int64 kernel against the Python-int scalar path, bit for bit."""

    @pytest.mark.parametrize("independence", [2, 4, 8, 20])
    @pytest.mark.parametrize("range_size", [2, 16, 1024, 7, 633, 97,
                                            DOMAIN_PRIME - 1, DOMAIN_PRIME,
                                            1 << 21])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_domain_prime(self, independence, range_size, seed):
        h = _maximal_hash(DOMAIN_PRIME, independence, range_size, seed)
        xs = _boundary_inputs(DOMAIN_PRIME)
        got = h(xs)
        assert got.dtype == np.int64
        assert got.tolist() == [h._evaluate_scalar(int(x)) for x in xs]

    @pytest.mark.parametrize("prime", [ASSIGNMENT_PRIME, LARGEST_INT64_PRIME,
                                       SMALLEST_OBJECT_PRIME])
    @pytest.mark.parametrize("independence", [1, 2, 4, 8])
    @pytest.mark.parametrize("range_size", [9, 1 << 10, 1 << 40])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_wide_primes(self, prime, independence, range_size, seed):
        """Past 2^31 every step needs a reduction; past the guard the
        object path runs."""
        h = _maximal_hash(prime, independence, range_size, seed)
        xs = _boundary_inputs(prime, size=50)
        assert h(xs).tolist() == [h._evaluate_scalar(int(x)) for x in xs]
        stacked = StackedKWiseHash([h])(np.zeros(xs.size, dtype=np.intp), xs)
        assert stacked.tolist() == h(xs).tolist()

    def test_empty_batch(self):
        for prime in (DOMAIN_PRIME, ASSIGNMENT_PRIME, SMALLEST_OBJECT_PRIME):
            h = _maximal_hash(prime, 4, 7, 1)
            out = h(np.zeros(0, dtype=np.int64))
            assert out.shape == (0,) and out.dtype == np.int64

    @pytest.mark.parametrize("prime", [DOMAIN_PRIME, ASSIGNMENT_PRIME])
    def test_broadcast_neighbour_shape(self, prime):
        """``stack(table[groups], x[:, None])``: an ``(n, d)`` table of hash
        indices against one input per row, as the expander client asks."""
        hashes = [_maximal_hash(prime, k, 16, seed)
                  for seed, k in enumerate((2, 2, 4, 8, 2, 20))]
        rng = np.random.default_rng(3)
        xs = _boundary_inputs(prime, size=60)
        which = rng.integers(0, len(hashes), size=(xs.size, 2))
        got = StackedKWiseHash(hashes)(which, xs[:, None])
        assert got.shape == (xs.size, 2) and got.dtype == np.int64
        for i, x in enumerate(xs.tolist()):
            for j in range(2):
                assert got[i, j] == hashes[which[i, j]]._evaluate_scalar(x)

    @pytest.mark.parametrize("prime, independence, reductions", [
        (DOMAIN_PRIME, 2, 1), (DOMAIN_PRIME, 8, 4), (DOMAIN_PRIME, 20, 10),
        (ASSIGNMENT_PRIME, 2, 1), (ASSIGNMENT_PRIME, 8, 7)])
    def test_reduction_schedule(self, monkeypatch, prime, independence,
                                reductions):
        """Reductions mod p fall on every second step at p = 1,048,583 and
        on every step at 2^31 + 11 (the last one after the loop)."""
        import repro.hashing.kwise as kwise

        moduli = []
        reduce = kwise._reduce

        def counting(vals, modulus, scratch):
            moduli.append(modulus)
            return reduce(vals, modulus, scratch)

        monkeypatch.setattr(kwise, "_reduce", counting)
        h = _maximal_hash(prime, independence, 7, 0)
        xs = _boundary_inputs(prime, size=10)
        assert h(xs).tolist() == [h._evaluate_scalar(int(x)) for x in xs]
        assert moduli == [prime] * reductions + [7]


class TestStackedKWiseHash:
    def _hashes(self, prime_domain=1 << 20, range_size=97):
        pairwise = KWiseHashFamily.create(prime_domain, range_size, 2)
        fourwise = KWiseHashFamily.create(prime_domain, range_size, 4)
        return [pairwise.sample(1), fourwise.sample(2), pairwise.sample(3),
                KWiseHashFamily.create(prime_domain, range_size, 1).sample(4)]

    @pytest.mark.parametrize("prime_domain", [1 << 20, 1 << 40])
    def test_matches_each_hash_with_mixed_independence(self, prime_domain):
        hashes = self._hashes(prime_domain)
        stack = StackedKWiseHash(hashes)
        rng = np.random.default_rng(0)
        x = rng.integers(0, prime_domain, size=500)
        which = rng.integers(0, len(hashes), size=500)
        got = stack(which, x)
        assert got.dtype == np.int64
        expected = np.array([hashes[w](int(v)) for w, v in zip(which, x,
                                                                  strict=True)])
        assert np.array_equal(got, expected)

    def test_broadcasts_which_against_x(self):
        hashes = self._hashes()
        x = np.arange(40)
        table = StackedKWiseHash(hashes)(np.arange(len(hashes))[:, None], x)
        assert table.shape == (len(hashes), 40)
        for j, h in enumerate(hashes):
            assert np.array_equal(table[j], h(x))

    def test_empty_batch(self):
        out = StackedKWiseHash(self._hashes())(np.zeros(0, dtype=np.int64),
                                               np.zeros(0, dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_rejects_mixed_prime_or_range(self):
        with pytest.raises(ValueError, match="one prime and range"):
            StackedKWiseHash(self._hashes() + self._hashes(range_size=96))
        with pytest.raises(ValueError, match="one prime and range"):
            StackedKWiseHash(self._hashes() + self._hashes(prime_domain=1 << 21))
        with pytest.raises(ValueError):
            StackedKWiseHash([])

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            StackedKWiseHash(self._hashes())([0, 1], [3, -1])


class TestSignHash:
    def test_values_are_signs(self):
        s = sign_hash(1 << 16, rng=0)
        values = s(np.arange(1000))
        assert set(np.unique(values)).issubset({-1, 1})

    def test_balance(self):
        s = sign_hash(1 << 16, rng=1)
        values = s(np.arange(10_000))
        assert abs(values.mean()) < 0.1

    def test_scalar(self):
        s = sign_hash(1 << 16, rng=2)
        assert s(5) in (-1, 1)


class TestFamilyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KWiseHashFamily.create(0, 10)
        with pytest.raises(ValueError):
            KWiseHashFamily.create(10, 0)
        with pytest.raises(ValueError):
            KWiseHashFamily.create(10, 10, independence=0)

    def test_prime_exceeds_domain_and_range(self):
        family = KWiseHashFamily.create(1000, 2000, independence=3)
        assert family.prime >= 2000
