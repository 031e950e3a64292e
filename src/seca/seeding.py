"""Tagged random streams: every generator in seca is keyed here.

A stream's key is (seed, tag, *extra). Each component has its own tag, so
no two components share draws, and a stream is reproduced by its key
alone. The tag values are part of every key: changing one changes the
numbers of every run.
"""

from __future__ import annotations

import numpy as np

_TAGS = {"backbone": 1, "adapter": 2, "tokens": 3, "prompt": 4, "text": 5,
         "synth": 6, "split": 7, "theory": 8, "projectors": 9,
         "affinity": 10, "replay": 11, "order": 12, "replay_draw": 13}


def seed_sequence(seed: int, tag: str, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), _TAGS[tag], *extra])


def rng(seed: int, tag: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, tag, *extra))
