"""Reproducible random streams for parallel Monte Carlo.

Every draw comes from a Philox (counter-based) generator keyed by a tuple of
integers (seed, tag, ...).  A stream is a pure function of its key, so it
does not depend on how work is split across processes, block draws within
one stream happen in a fixed order, and two streams are independent when
their keys differ.  Keys of different length never collide.

The table below decides which stream each draw uses.  key[0] is always the
config seed, never a sum with it; key[1] is a role tag, and a role owns
every key that starts with it.  Functions reused under several roles take
their caller's key and append a tag of their own (the second block), so
(seed, 7, 41, r) is realization r of criterion 9's mass run.
"""

from __future__ import annotations

import numpy as np

# -- the stream-key table ----------------------------------------------------
# Role tags (key[1]) and the keys each role draws; c is a collision index,
# i an eps index, p a path, r a realization.  `draw_stationary`, the one
# factored pass that the coefficients and the covariance read, draws no
# stream: its nodes are a renewal law's atoms or the OU law's quadrature
# nodes, and their resolvent coordinates are closed forms.
GAUSSIAN_SHIFTS = 1      # criterion 1: (seed, 1)
RESOLVENT_FORMS = 2      # criterion 2: (seed, 2), one draw
MOMENT_PATH = 3          # criterion 3: (seed, 3, c)
MOMENT_PARTICLES = 4     # criterion 3: (seed, 4, c)
INVARIANT_PATHS = 5      # criterion 4: (seed, 5, c, p)
SYMPOS = 6               # criterion 5: (seed, 6, SYMPOS_*, .)
SPDE_MASS = 7            # criterion 9: (seed, 7, SPDE_NOISE, r)
SPDE_LINEARITY = 8       # criterion 9: (seed, 8, SPDE_NOISE, r)
SPDE_QV = 9              # criterion 9: (seed, 9, SPDE_NOISE, r)
MEAN_EQUATION = 10       # criterion 10: (seed, 10, SPDE_NOISE, r)
CONVERGE_KINETIC = 13    # converge, criterion 12:
#                          (seed, 13, i, PATH | PARTICLES, .)
CORRECTOR_SCALING = 14   # criterion 11: (seed, 14, i, PATH | PARTICLES, p)
SPDE_NOISE = 41          # converge, simulate-spde, criterion 12: (seed, 41, r)
KINETIC_PATH = 201       # simulate-kinetic: (seed, 201, i)
KINETIC_PARTICLES = 202  # simulate-kinetic: (seed, 202, i)
# Appended after the caller's key.
PATH, PARTICLES = 11, 12             # functional_samples: path r, block b;
#                                      check_corrector_scaling: run p
SYMPOS_LHS, SYMPOS_RHS = 21, 23      # check_sympos_identity: draw, path
# and SPDE_NOISE, r: run_ensemble and quadratic_variation_check


def substream(seed, *tags) -> np.random.Generator:
    """Generator for the stream keyed (seed, *tags); `seed` is the config
    seed or a key tuple that starts with it."""
    key = (*seed, *tags) if isinstance(seed, tuple) else (seed, *tags)
    ss = np.random.SeedSequence(int(key[0]),
                                spawn_key=tuple(int(k) for k in key[1:]))
    return np.random.Generator(np.random.Philox(ss))


def as_generator(seed) -> np.random.Generator:
    """An existing Generator as it is, else the stream of a seed or key."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(seed)


def parallel_map(fn, items, n_workers: int = 1):
    """Ordered lazy map, optionally across processes.

    Yields fn(item) in input order as the results arrive, so reductions
    downstream are deterministic for any worker count and the caller holds
    only the results it has not consumed yet.  `fn` must be picklable
    (module level, or a partial of one) when n_workers > 1.
    """
    items = list(items)
    if n_workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    from multiprocessing import get_context
    with get_context().Pool(processes=min(n_workers, len(items))) as pool:
        yield from pool.imap(fn, items)
