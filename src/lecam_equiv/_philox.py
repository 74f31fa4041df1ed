"""Philox keys as seed sequences, so a keyed stream draws no OS entropy.

`harness.stream_rng` imports this on use: it loads numpy.random, which
`import lecam_equiv` leaves out.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PhiloxKey(ISeedSequence):
    """The 128-bit Philox key (seed, 0) of a 64-bit seed as a seed sequence.

    Philox takes its key from generate_state(2, uint64) and starts its
    counter at 0, so Philox(PhiloxKey(seed)) has the state of
    Philox(key=seed) without the entropy-seeded SeedSequence that
    Philox(key=seed) builds and then overrides.
    """

    def __init__(self, seed: int):
        self.words = np.array([seed, 0], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words
