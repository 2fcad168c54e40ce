import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from loewy.arith import cyclic_powers, qadic_expand  # noqa: E402


def exact_exponent_vector(q: int, n: int, z: int, k: int) -> list[int]:
    """Reference expansion of k*e computed with full-width integers."""
    e = (q**n - 1) // z
    digits = qadic_expand(k * e, q)
    return digits + [0] * (n - len(digits))


def residue_rows(alg) -> np.ndarray:
    """The residues k*q^i mod z, one row per 0 <= k < z and one column per
    power of q in a cycle: the position-wise form of the carry test."""
    powers = np.array(cyclic_powers(alg.q, alg.z), dtype=np.int64)
    return np.arange(alg.z, dtype=np.int64)[:, None] * powers % alg.z


def positionwise_product(rows, k: int, l: int) -> bool:
    """b_k * b_l != 0 for 1 <= k, l <= z-1 by the position-wise rule: no
    position has residue sum >= z, or every position sums to exactly z
    (complementary indices, product b_z)."""
    z = len(rows)
    sums = rows[k] + rows[l]
    return bool((sums < z).all() or (sums == z).all())


def quadratic_loewy_layers(alg) -> np.ndarray:
    """Validation oracle: the unrestricted O(z^2) DP over all splits
    lam[k] = max(1, max over valid (i, k-i) of lam[i] + lam[k-i]), with
    validity decided position-wise on the residue rows."""
    z = alg.z
    lam = np.zeros(z + 1, dtype=np.int64)
    if z == 1:
        lam[1] = 1
        return lam
    rows = residue_rows(alg)
    for k in range(1, z):
        lam[k] = 1
        if k >= 2:
            left = np.arange(1, k, dtype=np.int64)
            sums = rows[left] + rows[k - left]
            valid = sums.max(axis=1) < z
            if valid.any():
                pair = lam[left[valid]] + lam[(k - left)[valid]]
                lam[k] = max(1, int(pair.max()))
    left = np.arange(1, z, dtype=np.int64)
    lam[z] = int((lam[left] + lam[z - left]).max())
    return lam
