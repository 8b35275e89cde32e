"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
(seed, stream tag, path index), so any path's noise can be regenerated in
isolation and results never depend on how paths are split into
blocks. Stream tags keep Brownian increments and initial-state draws
decorrelated under a single master seed.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_PATH_BITS = 48

# Stream tags.
BROWNIAN = 0
INITIAL_STATE = 1
PROBE = 2


def philox_generator(seed, path_index=0, stream=BROWNIAN):
    """Generator for one (seed, stream, path) cell.

    The Philox key packs the stream tag into the high bits of the second
    key word and the path index into the low 48 bits, so distinct
    (stream, path) pairs can never collide for a fixed seed.
    """
    if path_index < 0 or path_index >= (1 << _PATH_BITS):
        raise ValueError(f"path_index out of range: {path_index}")
    key = np.array(
        [seed & _MASK64, ((stream & 0xFFFF) << _PATH_BITS) | path_index],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
