"""Counter-based random streams with per-path positions.

Path i of a batch owns a fixed window of the Philox stream keyed by the run
seed, so any chunking of paths across workers reproduces bit-identical
draws.  Philox advances in 4-word blocks, hence the stride is rounded up to
a multiple of 4.

Normals come from the inverse Gaussian CDF of raw uniforms (one 64-bit word
per variate), keeping consumption strictly positional.  ``path_normals``
works in two phases.  First it positions one Philox stream at its first
path and streams the consecutive path windows, as raw uniforms, through one
reused buffer of about 1 MiB into the caller's buffer, of any layout, so
disjoint path ranges of one buffer can be drawn on several threads at once.
Then it turns that buffer into normals in place, one tile of steps at a time
(about 1 MiB across its paths): the ``_U_MIN`` floor, ``ndtri`` and the
scaling, each elementwise, so the bytes do not depend on the tiling.  After
each tile an optional ``done(step_end)`` callback reports that the steps
before ``step_end`` are final, so a consumer can start on the first steps
while the rest are transformed.  None of the array work (Philox, the copy,
the floor, ``ndtri``, the scaling) holds the GIL, so the draws run beside
the thread that uses the paths.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import ndtri

_BLOCK = 4
_U_MIN = 2.0 ** -55  # Generator.random() can return exactly 0.0
_OUT_BLOCK_WORDS = 1 << 17  # 1 MiB of uniforms per block of a draw


def words_per_path(n_words: int) -> int:
    """Stream stride per path: n_words rounded up to a multiple of 4."""
    return -(-n_words // _BLOCK) * _BLOCK


def _to_normals(u: np.ndarray) -> np.ndarray:
    """Overwrite uniforms u (any view) by their standard normals; returns u."""
    np.maximum(u, _U_MIN, out=u)
    return ndtri(u, out=u)


def path_normals(
    seed: int, first_path: int, n_paths: int, n_steps: int, dim: int,
    out: np.ndarray | None = None, scale: float = 1.0,
    done: Callable[[int], None] | None = None,
) -> np.ndarray:
    """``scale`` times the Brownian-increment normals of paths
    [first_path, first_path + n_paths), of shape (n_paths, n_steps, dim).

    Independent of how the caller chunks the path range.  The draw fills
    ``out``, an array of that shape and any strides (say, a path-major view
    of a step-major buffer), or a new array, and returns it.  The uniforms
    go in first, in blocks of about ``_OUT_BLOCK_WORDS`` words; then ``out``
    becomes normals in tiles of about as many words across the paths.
    ``done(k)`` is called after each tile: steps below k then hold their
    final values, and the last call has k = n_steps.
    """
    words = n_steps * dim
    stride = words_per_path(words)
    if out is None:
        out = np.empty((n_paths, n_steps, dim))
    elif out.shape != (n_paths, n_steps, dim):
        raise ValueError(f"out has shape {out.shape}, need {(n_paths, n_steps, dim)}")
    gen = np.random.Generator(np.random.Philox(key=seed))
    gen.bit_generator.advance(first_path * stride // _BLOCK)
    block = max(1, _OUT_BLOCK_WORDS // stride)
    buf = np.empty(min(block, n_paths) * stride)
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        u = gen.random(out=buf[: (hi - lo) * stride])  # padding words included
        out[lo:hi] = u.reshape(hi - lo, stride)[:, :words].reshape(hi - lo, n_steps, dim)
    tile = max(1, _OUT_BLOCK_WORDS // max(1, n_paths * dim))
    for s0 in range(0, n_steps, tile):
        s1 = min(s0 + tile, n_steps)
        u = _to_normals(out[:, s0:s1])
        u *= scale
        if done is not None:
            done(s1)
    return out


def gaussian_sample(seed: int, n: int, dim: int, stream: int = 0) -> np.ndarray:
    """Standard Gaussian sample (n, dim) from an auxiliary jumped stream.

    ``stream`` selects independent substreams for unrelated estimators.
    """
    bg = np.random.Philox(key=seed).jumped(stream + 1)
    u = np.random.Generator(bg).random(n * dim)
    return _to_normals(u).reshape(n, dim)
