"""Isomorphism invariants over prime fields.

The structure constants of the algebra are 0/1, so reduction modulo p never
changes the multiplication table; only the linear algebra over F_p depends
on p.  Every subspace handled here (radical powers, socle members, Frobenius
kernels and images, their sums and products) is spanned by basis elements,
so dimensions reduce to cardinalities of index sets.  The tests certify that
reduction for small dimensions against dense F_p ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import INVARIANT_LINES_CAPACITY, Algebra, degree_test_rows
from .arith import is_prime
from .errors import CapacityError, DomainError

PAIR_COUNT_MAX_DIM = 24

# Reference pair counts at full dimension (z = 117, W = U + <b_z> over F_2):
# out of desk scale, kept for documentation only, never asserted.
FULL_SCALE_PAIR_COUNTS = {
    "not_desk_verifiable": True,
    (29, 6, 117): 2**221 * 119,
    (35, 6, 117): 2**216 * 1069,
}


@dataclass(frozen=True)
class FrobeniusMap:
    """Partial injection k -> p*k on basis indices, defined where the p-th
    power of b_k is nonzero; image[0] = 0."""

    p: int
    image: tuple[int | None, ...]

    def defined_on_radical(self) -> list[int]:
        return [k for k in range(1, len(self.image)) if self.image[k] is not None]

    def image_set(self) -> frozenset[int]:
        """Index set spanning {x^p : x in J} (dim = its cardinality)."""
        return frozenset(v for v in self.image[1:] if v is not None)

    def killed(self, k_max: int) -> list[frozenset[int]]:
        """V_k for k = 1..k_max: the radical basis indices whose k-fold
        composed p-th power vanishes (dim of {x in J : x^(p^k) = 0})."""
        radical = frozenset(range(1, len(self.image)))
        alive = {k: k for k in radical}  # index -> its current iterate
        out = []
        for _ in range(k_max):
            alive = {k: self.image[c] for k, c in alive.items()
                     if self.image[c] is not None}
            out.append(radical - alive.keys())
        return out


def frobenius(alg: Algebra, p: int) -> FrobeniusMap:
    """The p-th power map on basis elements, read off the degree array:
    b_k^p = b_{pk} iff pk <= z and the p-fold sum of b_k's exponent vector
    is carry-free, that is deg[pk] == p * deg[k], since every carry costs
    q - 1 of degree."""
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    image: list[int | None] = [0] + [None] * alg.z
    if p <= alg.z:  # otherwise pk > z for every k >= 1
        deg = alg.degrees
        ks = np.arange(1, alg.z // p + 1, dtype=np.int64)
        power = deg[p * ks]  # deg[pk] <= p * deg[k]: divide, never overflow
        carry_free = (power % p == 0) & (power // p == deg[ks])
        for k in ks[carry_free].tolist():
            image[k] = p * k
    return FrobeniusMap(p=p, image=tuple(image))


def frobenius_kernel_dims(alg: Algebra, p: int, k_max: int) -> list[int]:
    """dim of {x in J : x^(p^k) = 0} for k = 1..k_max."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    return [len(vk) for vk in frobenius(alg, p).killed(k_max)]


def frobenius_image_set(alg: Algebra, p: int) -> frozenset[int]:
    """Index set spanning {x^p : x in J} (dim = its cardinality)."""
    return frobenius(alg, p).image_set()


def radical_power(alg: Algebra, i: int) -> frozenset[int]:
    """Index set of J^i: the basis elements in layer >= i (J^0 = A)."""
    if i < 0:
        raise DomainError(f"power must be >= 0, got {i}")
    lam = alg.loewy_profile().lam
    if i == 0:
        return frozenset(range(alg.z + 1))
    return frozenset(int(k) for k in range(1, alg.z + 1) if lam[k] >= i)


def socle_series(alg: Algebra) -> list[frozenset[int]]:
    """S_j = ann(J^j) for j = 1..LL-1, as basis index sets.

    b_k lies in S_j iff it kills J^j, that is iff top[k] < j, where top[k]
    is the largest lam[l] over the l with b_k * b_l != 0, l = 0 included:
    row k of the degree test for 0 < k < z, only l = 0 for b_z, and every
    l for b_0, so top[0] = lam[z].
    """
    lam, z = alg.loewy_profile().lam, alg.z
    top = np.zeros_like(lam)
    top[0] = lam[z]  # LL - 1
    for k, row in enumerate(degree_test_rows(alg), start=1):
        top[k] = lam[1:z - k + 1][row].max(initial=0)
    series = [frozenset(np.flatnonzero(top < j).tolist()) for j in range(1, lam[z] + 1)]
    duality_check(alg, series)
    return series


def duality_check(alg: Algebra, series) -> None:
    """Symmetric-algebra duality: dim S_j + dim J^j = z + 1 for every j."""
    for j, s in enumerate(series, start=1):
        if len(s) + len(radical_power(alg, j)) != alg.z + 1:
            raise AssertionError(
                f"socle duality violated at q={alg.q} n={alg.n} z={alg.z} j={j}"
            )


def set_product(alg: Algebra, left, right) -> frozenset[int]:
    """Index span of the product of two basis-spanned subspaces."""
    out = set()
    for k in left:
        for l in right:
            t = alg.product_index(k, l)
            if t is not None:
                out.add(t)
    return frozenset(out)


def ideal_dims_profile(alg: Algebra, *, primes=(2, 3)) -> dict[str, int]:
    """Stable labelled dimensions: radical powers, socle members, their sums
    and products, Frobenius kernels/images and the ideals they generate."""
    ll = alg.loewy_length()
    if 2 * ll * ll > INVARIANT_LINES_CAPACITY:
        raise CapacityError(
            f"the invariant report of LL = {ll} has about {2 * ll * ll} lines, "
            f"over the capacity of {INVARIANT_LINES_CAPACITY}"
        )
    dims: dict[str, int] = {}
    # the socle series first: its validity table is the part that can be
    # refused for capacity, before the radical powers fill memory
    series = socle_series(alg)
    powers = {i: radical_power(alg, i) for i in range(1, ll + 1)}
    for i, members in powers.items():
        dims[f"dim_J^{i}"] = len(members)
    for j, members in enumerate(series, start=1):
        dims[f"dim_S_{j}"] = len(members)
    for i, ji in powers.items():
        for j, sj in enumerate(series, start=1):
            dims[f"dim_J^{i}+S_{j}"] = len(ji | sj)
            dims[f"dim_J^{i}*S_{j}"] = len(set_product(alg, ji, sj))
    everything = frozenset(range(alg.z + 1))
    for p in primes:
        frob = frobenius(alg, p)
        dims[f"dim_U_p{p}"] = len(frob.image_set())
        for k, vk in enumerate(frob.killed(max(1, ll)), start=1):
            dims[f"dim_V_{p},{k}"] = len(vk)
            dims[f"dim_V_{p},{k}*A"] = len(vk | set_product(alg, vk, everything))
    return dims


def invariant_report(alg: Algebra) -> str:
    """Sorted key=value lines; diffing two reports is the non-isomorphism
    evidence artifact."""
    entries = {
        "ll": alg.loewy_length(),
        "loewy_vector": "(" + ",".join(str(c) for c in alg.loewy_vector()) + ")",
    }
    entries.update(ideal_dims_profile(alg))
    lines = [f"{key}={entries[key]}" for key in sorted(entries)]
    return "\n".join(lines) + "\n"


def report_difference(report_a: str, report_b: str) -> str | None:
    """First key whose value differs between two invariant reports."""
    a = dict(line.split("=", 1) for line in report_a.strip().splitlines())
    b = dict(line.split("=", 1) for line in report_b.strip().splitlines())
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return None


# ---------------------------------------------------------------------------
# Exhaustive pair counting over F_2 (small dimensions only).
# ---------------------------------------------------------------------------

def _multiplication_rows(alg: Algebra) -> list[list[int]]:
    """rows[k][t] = bitmask over columns l with b_k * b_l = b_t."""
    dim = alg.z + 1
    rows = [[0] * dim for _ in range(dim)]
    for k in range(dim):
        for l in range(dim):
            t = alg.product_index(k, l)
            if t is not None:
                rows[k][t] |= 1 << l
    return rows


def _rank_gf2(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def pair_count(alg: Algebra, w_indices) -> int:
    """|{(x, y) in A_2 x A_2 : x*y in span{b_t : t in W}}| by summing
    2^(dim ker(y -> x*y mod W)) over all x in A_2; exact integer."""
    dim = alg.z + 1
    if dim > PAIR_COUNT_MAX_DIM:
        raise CapacityError(
            f"pair counting enumerates 2^dim states; dim={dim} exceeds "
            f"{PAIR_COUNT_MAX_DIM}"
        )
    w = frozenset(w_indices)
    if not w <= set(range(dim)):
        raise DomainError("W must be a set of basis indices")
    keep = [t for t in range(dim) if t not in w]
    mats = _multiplication_rows(alg)
    # Gray-code walk: flipping one basis coefficient XORs one matrix in.
    current = [0] * dim
    total = 0
    prev_code = 0
    for x in range(1 << dim):
        code = x ^ (x >> 1)
        delta = code ^ prev_code
        if delta:
            k = delta.bit_length() - 1
            row_k = mats[k]
            for t in range(dim):
                current[t] ^= row_k[t]
        prev_code = code
        rank = _rank_gf2([current[t] for t in keep])
        total += 1 << (dim - rank)
    return total

