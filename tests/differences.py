"""Central differences, the oracle the tests hold every closed-form
Jacobian to (the statistics', the design's and the profile residual's)."""

import numpy as np

FD_SCALE = 1e-6


def central_differences(fn, x: np.ndarray, cols=None):
    """Central-difference Jacobians of fn at each row of x.

    fn maps rows of parameters (N, K) to rows of values (N, S).  Only the
    columns `cols` (default all) are differenced, each with the step
    FD_SCALE * max(1, |x|).  Returns the Jacobians (P, S, len(cols)) and
    the steps (P, len(cols)).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cols = list(range(x.shape[1])) if cols is None else list(cols)
    p, k = x.shape[0], len(cols)
    steps = FD_SCALE * np.maximum(1.0, np.abs(x[:, cols]))
    probes = np.repeat(x[:, None, :], 2 * k, axis=1)
    for c, col in enumerate(cols):
        probes[:, 2 * c, col] += steps[:, c]
        probes[:, 2 * c + 1, col] -= steps[:, c]
    values = fn(probes.reshape(p * 2 * k, -1)).reshape(p, 2 * k, -1)
    jac = (values[:, 0::2] - values[:, 1::2]) / (2 * steps)[:, :, None]
    return jac.transpose(0, 2, 1), steps
