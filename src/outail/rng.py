"""Counter-based random streams with per-path positions.

Path i of a batch owns a fixed window of the Philox stream keyed by the run
seed, so any chunking of paths across workers reproduces bit-identical
draws.  Philox advances in 4-word blocks, hence the stride is rounded up to
a multiple of 4.

Normals come from the inverse Gaussian CDF of raw uniforms (one 64-bit word
per variate), keeping consumption strictly positional.  The transform runs
in place: a block of paths costs one float64 buffer, filled with uniforms
and overwritten by their normals.  ``path_normals(..., out=)`` writes them
in 1 MiB blocks into a caller's buffer of any layout, so disjoint path
ranges of one buffer can be drawn on several threads at once.  None of the
steps (Philox, the floor at ``_U_MIN``, ``ndtri``, the block copy) holds the
GIL, so the draws run beside the thread that uses the paths.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_BLOCK = 4
_U_MIN = 2.0 ** -55  # Generator.random() can return exactly 0.0
_OUT_BLOCK_WORDS = 1 << 17  # 1 MiB of uniforms per block of an ``out=`` draw


def words_per_path(n_words: int) -> int:
    """Stream stride per path: n_words rounded up to a multiple of 4."""
    return -(-n_words // _BLOCK) * _BLOCK


def uniform_block(seed: int, start_word: int, n_words: int) -> np.ndarray:
    """Uniforms occupying words [start_word, start_word + n_words).

    ``start_word`` must be a multiple of 4 (block-aligned).
    """
    if start_word % _BLOCK:
        raise ValueError("start_word must be a multiple of 4")
    bg = np.random.Philox(key=seed)
    if start_word:
        bg.advance(start_word // _BLOCK)
    return np.random.Generator(bg).random(n_words)


def _to_normals(u: np.ndarray) -> np.ndarray:
    """Overwrite uniforms u (any view) by their standard normals; returns u."""
    np.maximum(u, _U_MIN, out=u)
    return ndtri(u, out=u)


def path_normals(
    seed: int, first_path: int, n_paths: int, n_steps: int, dim: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Brownian-increment normals for paths [first_path, first_path+n_paths).

    Returns shape (n_paths, n_steps, dim).  Independent of how the caller
    chunks the path range.  With ``out``, an array of that shape and any
    strides (say, a path-major view of a step-major buffer), the normals are
    drawn in blocks of about ``_OUT_BLOCK_WORDS`` words and written into it;
    ``out`` is returned.
    """
    stride = words_per_path(n_steps * dim)
    if out is not None:
        if out.shape != (n_paths, n_steps, dim):
            raise ValueError(f"out has shape {out.shape}, need {(n_paths, n_steps, dim)}")
        block = max(1, _OUT_BLOCK_WORDS // stride)
        for lo in range(0, n_paths, block):
            hi = min(lo + block, n_paths)
            out[lo:hi] = path_normals(seed, first_path + lo, hi - lo, n_steps, dim)
        return out
    u = uniform_block(seed, first_path * stride, n_paths * stride)
    u = u.reshape(n_paths, stride)[:, : n_steps * dim]
    return _to_normals(u).reshape(n_paths, n_steps, dim)


def gaussian_sample(seed: int, n: int, dim: int, stream: int = 0) -> np.ndarray:
    """Standard Gaussian sample (n, dim) from an auxiliary jumped stream.

    ``stream`` selects independent substreams for unrelated estimators.
    """
    bg = np.random.Philox(key=seed).jumped(stream + 1)
    u = np.random.Generator(bg).random(n * dim)
    return _to_normals(u).reshape(n, dim)
