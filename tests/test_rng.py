"""Counter-based streams: key layout, range checks, and the re-keyed generator."""

import threading

import numpy as np
import pytest

import soc_lab as sl
from soc_lab import _rng

_LAST_PATH = (1 << 48) - 1
_LAST_SEED = (1 << 64) - 1


def _fresh(seed, path_index, stream):
    """A generator built from the documented key layout, independently."""
    key = np.array([seed, (stream << 48) | path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(gen):
    return (gen.standard_normal(11), gen.integers(0, 2**31, size=3,
                                                  dtype=np.int32),
            gen.standard_normal(5))


def _assert_same_draws(gen, ref):
    for got, want in zip(_draws(gen), _draws(ref)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("stream", [_rng.BROWNIAN, _rng.INITIAL_STATE,
                                    _rng.PROBE, (1 << 16) - 1])
@pytest.mark.parametrize("seed, path_index", [(0, 0), (7, _LAST_PATH),
                                              (_LAST_SEED, 0),
                                              (_LAST_SEED, _LAST_PATH)])
def test_both_generators_follow_the_key_layout(seed, path_index, stream):
    _assert_same_draws(_rng.philox_generator(seed, path_index, stream),
                       _fresh(seed, path_index, stream))
    _assert_same_draws(_rng._rekeyed(seed, path_index, stream),
                       _fresh(seed, path_index, stream))


@pytest.mark.parametrize("leave", [
    lambda gen: gen.standard_normal(3),
    lambda gen: gen.integers(0, 2**31, dtype=np.int32),
])
def test_rekeying_discards_a_partly_used_block(leave):
    """Leftover buffered words or a cached 32-bit half never leak through."""
    leave(_rng._rekeyed(5, 3, _rng.BROWNIAN))
    _assert_same_draws(_rng._rekeyed(5, 4, _rng.BROWNIAN),
                       _fresh(5, 4, _rng.BROWNIAN))
    leave(_rng._rekeyed(5, 3, _rng.BROWNIAN))
    _assert_same_draws(_rng._rekeyed(5, 3, _rng.BROWNIAN),
                       _fresh(5, 3, _rng.BROWNIAN))


def test_rekeyed_generator_is_per_thread():
    seen = []
    thread = threading.Thread(target=lambda: seen.append(_rng._rekeyed(1)))
    thread.start()
    thread.join()
    assert seen[0] is not _rng._rekeyed(1)


def test_held_generators_are_not_rekeyed():
    held = _rng.philox_generator(4, 2, _rng.INITIAL_STATE)
    first = held.standard_normal(3)
    _rng._rekeyed(4, 2, _rng.INITIAL_STATE).standard_normal(100)
    ref = _fresh(4, 2, _rng.INITIAL_STATE)
    np.testing.assert_array_equal(first, ref.standard_normal(3))
    np.testing.assert_array_equal(held.standard_normal(7),
                                  ref.standard_normal(7))


@pytest.mark.parametrize("seed, path_index, stream", [
    (1 << 64, 0, 0), (-1, 0, 0), (0, 1 << 48, 0), (0, -1, 0),
    (0, 0, 1 << 16), (0, 0, -1), (1.0, 0, 0), (0, 2.5, 0),
])
def test_out_of_range_keys_are_refused(seed, path_index, stream):
    """Wrapping would alias streams: 2**64 would replay seed 0."""
    for make in (_rng.philox_generator, _rng._rekeyed):
        with pytest.raises(sl.ValidationError):
            make(seed, path_index, stream)


def test_numpy_integer_keys_are_accepted():
    _assert_same_draws(_rng._rekeyed(np.uint64(_LAST_SEED), np.int64(9)),
                       _fresh(_LAST_SEED, 9, _rng.BROWNIAN))
