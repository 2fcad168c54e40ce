"""Validation oracles: independent, slow, full-width implementations that
the tests compare the package against.  None of them is part of `loewy`."""

import json
import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from loewy.arith import cyclic_powers, cyclic_subgroups, is_prime, resolve_z  # noqa: E402
from loewy.errors import CapacityError, DomainError  # noqa: E402
from loewy.mfunc import MResult, m_bfs, m_value  # noqa: E402


def qadic_expand(x: int, q: int) -> list[int]:
    """Base-q digits of x, least significant first. x = 0 gives []."""
    if q < 2:
        raise DomainError(f"base must be >= 2, got {q}")
    if x < 0:
        raise DomainError(f"expansion needs a nonnegative value, got {x}")
    digits = []
    while x:
        x, r = divmod(x, q)
        digits.append(r)
    return digits


def digit_value(digits: list[int], q: int) -> int:
    """Reconstruct the integer with the given base-q digits (LSB first)."""
    if q < 2:
        raise DomainError(f"base must be >= 2, got {q}")
    value = 0
    for d in reversed(digits):
        value = value * q + d
    return value


def digit_sum(x: int, q: int) -> int:
    """Sum of the base-q digits of x."""
    if q < 2:
        raise DomainError(f"base must be >= 2, got {q}")
    if x < 0:
        raise DomainError(f"digit sum needs a nonnegative value, got {x}")
    total = 0
    while x:
        x, r = divmod(x, q)
        total += r
    return total


def m_digit_scan(q: int, n: int, e: int) -> MResult:
    """Minimum base-q digit sum of k*e over k = 1..z, z = (q^n - 1)/e.

    Works in full-width exact arithmetic; an independent oracle for the
    residue method.
    """
    z = resolve_z(q, n, e=e)
    best = None
    best_k = None
    for k in range(1, z + 1):
        s = digit_sum(k * e, q)
        if best is None or s < best:
            best, best_k = s, k
    digits = qadic_expand(best_k * e, q)
    witness = tuple(sorted(i for i, d in enumerate(digits) for _ in range(d)))
    return MResult(m=best, method="digit_scan", witness=witness, k_min=best_k)


def m_by_subgroup(e: int) -> dict[int, int]:
    """q_rep -> m(q_rep, e) for the smallest generator of every cyclic
    subgroup of (Z/e)^x, with e + 1 standing in for the trivial subgroup.
    Used by validation sweeps; m is constant on subgroups."""
    out = {e + 1: e if e > 1 else 1}
    if e <= 2:
        return out
    for q, sub in sorted(cyclic_subgroups(e)):
        if len(sub) > 1:
            out[q] = m_bfs(q, e).m
    return out


def m_groups_per_unit(e: int) -> dict[int, list[int]]:
    """Oracle for `m_groups_by_residue`: one m search per unit q != 1
    modulo e, grouped by value, each group ascending."""
    groups: dict[int, list[int]] = {}
    for q in range(2, e):
        if q % e != 1 and gcd(q, e) == 1:
            groups.setdefault(m_value(q, e).m, []).append(q)
    return {m: sorted(v) for m, v in sorted(groups.items())}


def json_line_oracle(record) -> str:
    """The JSON line of a `DbRecord` as a dict of its fields dumped by
    json.dumps: the encoder `DbRecord.to_json_line` must equal byte for
    byte."""
    payload = {
        "schema": 1,
        "z": record.key.z,
        "q": record.key.q_rep,
        "n": record.n,
        "subgroup": list(record.key.subgroup),
        "e": record.e_decimal,
        "m": record.m,
        "ll": record.ll,
        "bound": record.bound,
        "gap": record.gap,
        "loewy_vector": list(record.loewy_vector),
        "flags": record.flags,
        "runtime_ms": record.runtime_ms,
    }
    return json.dumps(payload, separators=(",", ":"))


def csv_row_oracle(record) -> str:
    """The CSV row of a `DbRecord` joined field by field, the vector cut to
    its first 32 entries: the row `DbRecord.to_csv_row` must equal."""
    return ",".join([
        str(record.key.z), str(record.key.q_rep), str(record.n),
        record.e_decimal, str(record.m), str(record.ll), str(record.bound),
        str(record.gap),
        *(str(int(record.flags[name])) for name in
          ("uniserial", "bound_attained", "ll_three", "spike_vector")),
        ";".join(str(c) for c in record.loewy_vector[:32]),
    ])


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


def residue_sum_degrees(q: int, n: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for `degrees_and_orbit_min`: (degrees, orbit_min) over
    0 <= k <= z from the z*nu cells k*q^i mod z, nu = ord_z(q), formed a
    block of rows at a time.  degrees[k] = (q-1)(n/nu) * (row sum) / z in
    exact integers, asserted to divide evenly; orbit_min[k] is the row
    minimum; index z is the all-(q-1) monomial, its own orbit."""
    powers = np.array(cyclic_powers(q, z), dtype=np.int64)
    nu = len(powers)
    sums = np.empty(z, dtype=np.int64)
    orbit_min = np.empty(z + 1, dtype=np.int64)
    rows = max(1, (1 << 20) // nu)
    for lo in range(0, z, rows):
        cells = np.arange(lo, min(lo + rows, z), dtype=np.int64)[:, None] * powers % z
        sums[lo:lo + len(cells)] = cells.sum(axis=1)
        orbit_min[lo:lo + len(cells)] = cells.min(axis=1)
    orbit_min[z] = z
    degrees = []
    for s in sums.tolist():
        degree, rem = divmod(s * (q - 1) * (n // nu), z)
        assert rem == 0, "digit-sum formula did not divide evenly"
        degrees.append(degree)
    degrees.append(n * (q - 1))
    return np.array(degrees, dtype=np.int64), orbit_min


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


def pair_count_brute(alg, w_indices) -> int:
    """Independent oracle: enumerate all pairs (x, y) directly."""
    dim = alg.z + 1
    if dim > 12:
        raise CapacityError("brute-force pair enumeration is 4^dim; dim > 12")
    w = frozenset(w_indices)
    not_w_mask = 0
    for t in range(dim):
        if t not in w:
            not_w_mask |= 1 << t
    product_of = [[None] * dim for _ in range(dim)]
    for k in range(dim):
        for l in range(dim):
            product_of[k][l] = alg.product_index(k, l)
    total = 0
    for x in range(1 << dim):
        xs = [k for k in range(dim) if (x >> k) & 1]
        for y in range(1 << dim):
            acc = 0
            for l in range(dim):
                if (y >> l) & 1:
                    for k in xs:
                        t = product_of[k][l]
                        if t is not None:
                            acc ^= 1 << t
            if acc & not_w_mask == 0:
                total += 1
    return total


def _rref_rank_mod_p(matrix: np.ndarray, p: int) -> int:
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank] = a[rank] * inv % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


class DenseOracle:
    """Explicit F_p linear algebra for an algebra of small dimension."""

    def __init__(self, alg, p: int):
        if alg.z > 60:
            raise CapacityError("dense oracle is meant for z <= 60")
        if not is_prime(p):
            raise DomainError(f"p must be prime, got {p}")
        self.alg = alg
        self.p = p
        self.dim = alg.z + 1

    def multiplication_matrix(self, k: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for l in range(self.dim):
            t = self.alg.product_index(k, l)
            if t is not None:
                out[t, l] = 1
        return out

    def frobenius_matrix(self) -> np.ndarray:
        """Matrix of x -> x^p on the radical (F_p-linear since the basis
        products are 0/1 and cross terms carry binomial coefficients
        divisible by p)."""
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for k in range(1, self.dim):
            cur = k
            ok = True
            for _ in range(self.p - 1):
                cur = self.alg.product_index(cur, k)
                if cur is None:
                    ok = False
                    break
            if ok:
                out[cur, k] = 1
        return out

    def span_dim(self, vectors: np.ndarray) -> int:
        if vectors.size == 0:
            return 0
        return _rref_rank_mod_p(vectors, self.p)

    def kernel_dim(self, matrix: np.ndarray, domain_indices) -> int:
        cols = sorted(domain_indices)
        if not cols:
            return 0
        sub = matrix[:, cols]
        return len(cols) - _rref_rank_mod_p(sub.T, self.p)

    def frobenius_kernel_dims(self, k_max: int) -> list[int]:
        frob = self.frobenius_matrix()
        radical = list(range(1, self.dim))
        dims = []
        power = np.eye(self.dim, dtype=np.int64)
        for _ in range(k_max):
            power = power @ frob % self.p
            dims.append(self.kernel_dim(power, radical))
        return dims

    def frobenius_image_dim(self) -> int:
        frob = self.frobenius_matrix()
        radical = list(range(1, self.dim))
        return len(radical) - self.kernel_dim(frob, radical)

    def annihilator_dim(self, index_set) -> int:
        """dim of {x in A : x * span(indices) = 0}."""
        blocks = [self.multiplication_matrix(l) for l in sorted(index_set)]
        if not blocks:
            return self.dim
        stacked = np.vstack(blocks)
        return self.dim - _rref_rank_mod_p(stacked.T, self.p)

    def product_span_dim(self, left, right) -> int:
        vecs = []
        for k in left:
            for l in right:
                t = self.alg.product_index(k, l)
                if t is not None:
                    row = np.zeros(self.dim, dtype=np.int64)
                    row[t] = 1
                    vecs.append(row)
        if not vecs:
            return 0
        return self.span_dim(np.array(vecs))
