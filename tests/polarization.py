"""F's Gram matrix by polarization of ``evaluate_F_direct``.

The oracle of the package's unit-direction form, and the input of the
Jacobi kernel goldens, whose bits it fixes.
"""

import numpy as np

from bernstein_lab import optimal_region as opt


def pair_tensors(tensors):
    """The sums and differences b_p +- b_q (..., k, k, m, n, n) of every
    pair of ``tensors`` (..., k, m, n, n)."""
    t = np.asarray(tensors)
    left, right = t[..., :, None, :, :, :], t[..., None, :, :, :, :]
    return [left + right, left - right]


def gram_matrix(lams, pair):
    """Gram matrices by polarization, batched over leading axes of lams.

    ``pair`` holds the sums and differences b_p +- b_q (..., k, k, m, n, n)
    of the basis tensors to polarize; the result has shape
    lams.shape[:-1] + (..., k, k).
    """
    sums, diffs = pair
    lam = np.asarray(lams, dtype=float)
    lamb = lam.reshape(lam.shape[:-1] + (1,) * (sums.ndim - 3)
                       + lam.shape[-1:])
    g = 0.25 * (opt.evaluate_F_direct(lamb, sums)
                - opt.evaluate_F_direct(lamb, diffs))
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def full_gram(lams, basis):
    """F's whole Gram matrix over ``basis`` at each row of lams."""
    return gram_matrix(lams, pair_tensors(basis.tensors))
