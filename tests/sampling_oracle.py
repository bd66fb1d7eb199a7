"""The reverse step's pieces as first written: the references that the
sampler's one-call guidance and ``catdiff.core.sample_rows`` are pinned
to, byte for byte.

``two_call_x_rows`` asks the denoiser twice per classifier-free guidance
step, once with the label and once with None, and combines the rows at
every gamma. ``cumsum_sample_rows`` draws with ``np.cumsum`` along the
rows and a count of the running sums below u.
"""

import numpy as np

from catdiff.core import check_row_totals
from catdiff.guidance import cfg_combine


def two_call_x_rows(denoiser, z, t, config):
    if config.mode == "cfg":
        cond = denoiser.rows_batch(z, t, config.target_class)
        uncond = denoiser.rows_batch(z, t, None)
        return cfg_combine(cond, uncond, config.gamma)
    condition = config.target_class if config.mode == "none" else None
    return denoiser.rows_batch(z, t, condition)


def cumsum_sample_rows(rows, rng):
    rows = np.asarray(rows, dtype=np.float64)
    cum = np.cumsum(rows, axis=-1)
    check_row_totals(cum[..., -1])
    u = rng.random(rows.shape[:-1] + (1,)) * cum[..., -1:]
    idx = (cum < u).sum(axis=-1)
    return np.minimum(idx, rows.shape[-1] - 1).astype(np.int64)
