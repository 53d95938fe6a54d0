"""Counter-based random streams with per-path positions.

Path i of a batch owns a fixed window of the Philox stream keyed by the run
seed, so any chunking of paths across workers reproduces bit-identical
draws.  Philox advances in 4-word blocks, hence the stride is rounded up to
a multiple of 4.

Normals come from the inverse Gaussian CDF of raw uniforms (one 64-bit word
per variate), keeping consumption strictly positional.  ``path_normals``
positions one Philox stream at its first path and streams the consecutive
path windows through one reused buffer of about 1 MiB: each block is
floored at ``_U_MIN``, turned into normals by ``ndtri`` and scaled in
place, then copied into the caller's buffer, of any layout, so disjoint path
ranges of one buffer can be drawn on several threads at once.  None of the
steps (Philox, the floor, ``ndtri``, the scaling, the block copy) holds the
GIL, so the draws run beside the thread that uses the paths.
"""

from __future__ import annotations

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
) -> np.ndarray:
    """``scale`` times the Brownian-increment normals of paths
    [first_path, first_path + n_paths), of shape (n_paths, n_steps, dim).

    Independent of how the caller chunks the path range.  The normals are
    drawn in blocks of about ``_OUT_BLOCK_WORDS`` words and written into
    ``out``, an array of that shape and any strides (say, a path-major view
    of a step-major buffer), or into a new array; that array is returned.
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
        _to_normals(u)
        u *= scale
        out[lo:hi] = u.reshape(hi - lo, stride)[:, :words].reshape(hi - lo, n_steps, dim)
    return out


def gaussian_sample(seed: int, n: int, dim: int, stream: int = 0) -> np.ndarray:
    """Standard Gaussian sample (n, dim) from an auxiliary jumped stream.

    ``stream`` selects independent substreams for unrelated estimators.
    """
    bg = np.random.Philox(key=seed).jumped(stream + 1)
    u = np.random.Generator(bg).random(n * dim)
    return _to_normals(u).reshape(n, dim)
