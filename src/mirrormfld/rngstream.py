"""Counter-based random streams for reproducible parallel simulation.

Protocol ``philox4x64-lane-v1``: the draw for particle i at (iteration k,
substep s) comes from a Philox-4x64 generator keyed by the master seed with
its 256-bit counter preset to place k and s in the two high words.  Within
a block each particle owns a fixed lane of ``4 * ceil(dim / 4)`` 64-bit
words (Philox emits four words per counter tick, so lanes are aligned to
counter boundaries).  Uniforms are built from the top 53 bits of each word
and normals by the inverse normal CDF, so every value consumes exactly one
word -- which is what makes a block sliceable: any worker can reproduce
rows [lo, hi) of a block without generating the rest.

Blocks are returned coordinate-first, as C-contiguous (dim, rows) arrays
to match the mirror sampler's (m, N) state: column i holds particle lo + i's
values.  The lanes and the words are those of the row-major layout; only
the arrangement of the output differs.

Consequences: results depend only on (seed, particle index, iteration,
substep), never on how particles are partitioned across workers, and
permuting particle indices permutes the draws with them.

``uniform_block`` and ``normal_block`` pull the words from one generator in
pieces of about ``PIECE_WORDS`` words, whole lanes each, and convert every
piece into its columns of the output.  A generator continues its stream
across calls, so the pieces are the words of the one-shot ``raw_block``:
the protocol and every value are unchanged; only the (rows, lane) word
array is never held whole.
"""
from __future__ import annotations

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

PROTOCOL = "philox4x64-lane-v1"

# iteration word reserved for initial-condition draws; sampler iterations
# are validated to stay below it
INIT_ITERATION = 1 << 62
MAX_SEED = (1 << 64) - 1

# raw words drawn at a time by uniform_block: 64 KiB, or a few lanes short of it
PIECE_WORDS = 1 << 13


def _lane_words(dim: int) -> int:
    return 4 * ((dim + 3) // 4)


def _generator(seed: int, iteration: int, substep: int, lo: int, hi: int, dim: int) -> Philox:
    """The Philox generator of block (iteration, substep), advanced to particle lo."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must fit in 64 bits")
    if iteration < 0 or iteration > INIT_ITERATION or substep < 0 or substep >= (1 << 64):
        raise ValueError("iteration/substep outside the counter layout")
    if not 0 <= lo <= hi:
        raise ValueError("bad slice")
    bitgen = Philox(key=seed, counter=(substep << 128) | (iteration << 192))
    if lo:
        bitgen.advance(lo * _lane_words(dim) // 4)  # advance counts 4-word counter ticks
    return bitgen


def _lanes(bitgen: Philox, rows: int, dim: int) -> np.ndarray:
    """The next ``rows`` lanes of the stream, a C-contiguous (rows, lane) array."""
    # the raw words of Generator.integers(0, 2**64), without its dispatch
    return bitgen.random_raw(rows * _lane_words(dim)).reshape(rows, -1)


def raw_block(seed: int, iteration: int, substep: int, lo: int, hi: int, dim: int) -> np.ndarray:
    """Particles [lo, hi) of the uint64 block for (iteration, substep), as a
    (dim, hi - lo) view of their lanes (not contiguous)."""
    return _lanes(_generator(seed, iteration, substep, lo, hi, dim), hi - lo, dim)[:, :dim].T


def uniform_block(seed: int, iteration: int, substep: int, lo: int, hi: int, dim: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1):  ((word >> 11) + 0.5) * 2^-53, (dim, rows)."""
    bitgen = _generator(seed, iteration, substep, lo, hi, dim)
    u = np.empty((dim, hi - lo))
    step = max(1, PIECE_WORDS // _lane_words(dim))
    for a in range(0, hi - lo, step):
        # shifted whole: on the strided (dim, rows) view the shift would copy
        lanes = _lanes(bitgen, min(step, hi - lo - a), dim)
        lanes >>= np.uint64(11)
        u[:, a:a + len(lanes)] = lanes[:, :dim].T
        del lanes   # before the next piece is drawn
    u += 0.5      # exact: the words fit in 53 bits
    u *= 2.0 ** -53
    return u


def normal_block(seed: int, iteration: int, substep: int, lo: int, hi: int, dim: int) -> np.ndarray:
    """Standard normals via the inverse CDF (exactly one word per value), (dim, rows)."""
    u = uniform_block(seed, iteration, substep, lo, hi, dim)
    return ndtri(u, out=u)
