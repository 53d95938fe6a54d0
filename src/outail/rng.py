"""Counter-based random streams with per-path positions.

Path i of a batch owns a fixed window of the Philox stream keyed by the run
seed, so any chunking of paths across workers reproduces bit-identical
draws.  Philox advances in 4-word blocks, hence the stride is rounded up to
a multiple of 4.

Normals come from the inverse Gaussian CDF of raw uniforms (one 64-bit word
per variate), keeping consumption strictly positional.  The transform runs
in place: a chunk of paths costs one float64 buffer, filled with uniforms
and overwritten by their normals, and none of the steps (Philox, the floor
at ``_U_MIN``, ``ndtri``) holds the GIL, so a chunk can be drawn on a second
thread while another is used.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_BLOCK = 4
_U_MIN = 2.0 ** -55  # Generator.random() can return exactly 0.0


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


def path_normals(seed: int, first_path: int, n_paths: int, n_steps: int, dim: int) -> np.ndarray:
    """Brownian-increment normals for paths [first_path, first_path+n_paths).

    Returns shape (n_paths, n_steps, dim).  Independent of how the caller
    chunks the path range.
    """
    stride = words_per_path(n_steps * dim)
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
