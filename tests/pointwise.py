"""Pointwise oracles for the panel paths of primearcs: the counting
integrand at one alpha, a factor sum at arbitrary nodes, and the Fejér
kernel from np.sin.  The sums reduce each phase in extended precision
node by node, so they share none of grid_sum's phase sharing."""

import math

import numpy as np

from primearcs import expsums
from primearcs.numutil import e_of


def fejer_K(eta, alpha):
    """K_eta(alpha) with sin(pi eta alpha) from np.sin; a float for a
    scalar alpha."""
    arr = np.asarray(alpha, dtype=np.float64)
    sin = np.sin(math.pi * eta * np.where(arr == 0.0, 1.0, arr))
    vals = expsums.fejer_K(eta, arr, sin)
    return float(vals) if np.isscalar(alpha) else vals


def factor_values(factor, alphas):
    """sum_j w_j e(f_j alpha) of an ExpSumFactor at each alpha, in chunks
    of about 2^21 phases."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    out = np.empty(len(alphas), dtype=complex)
    chunk = max(1, (1 << 21) // max(1, len(factor.freqs)))
    for i in range(0, len(alphas), chunk):
        out[i:i + chunk] = (e_of(factor.freqs[None, :],
                                 alphas[i:i + chunk, None])
                            @ factor.weights.astype(complex))
    return out


def integrand(inst, table, w, eta, alpha):
    """S_1(l1 a) S_2(l2 a) S_k(l3 a) K_eta(a) e(varpi a) at one alpha."""
    lo, hi = w.delta * w.X, w.X
    s1 = expsums.eval_S_range(table, 1.0, lo, hi, inst.lambda1 * alpha)
    s2 = expsums.eval_S_range(table, 2.0, lo, hi, inst.lambda2 * alpha)
    sk = expsums.eval_S_range(table, inst.k, lo, hi, inst.lambda3 * alpha)
    return (s1 * s2 * sk * fejer_K(eta, alpha)
            * complex(e_of(inst.varpi, alpha)))
