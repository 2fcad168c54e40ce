"""The split local symmetric algebra with basis b_0..b_z indexed by
residues modulo z, where b_k carries the base-q expansion of k*e as its
exponent vector (e = (q^n - 1)/z).

All multiplication logic reads one array of degrees, deg[k] = digit sum of
k*e, computed from residues modulo z: the product b_k * b_l is b_{k+l}
exactly when adding the two exponent vectors is carry-free, and every carry
costs q - 1 of digit sum, so b_k * b_l != 0 iff k + l <= z and
deg[k] + deg[l] == deg[k+l].  e itself is materialized only for display and
for exact witness verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .arith import cyclic_powers, order_dividing
from .errors import CapacityError, DomainError
from .mfunc import digit_sum_blocks, exponent_digits, m_via_z, residue_powers

# The z-length int64 arrays degrees, lam, back_pointer and the irreducibles
# take 32 bytes per basis index; above this budget Algebra refuses.
ALGEBRA_CAPACITY_BYTES = 1 << 31
_BYTES_PER_INDEX = 32


@dataclass(frozen=True)
class LoewyProfile:
    """Per-index layer function and derived data.

    lam[k] is the maximal number of radical basis factors in a factorization
    of b_k (lam[0] = 0 for the identity).  loewy_vector = (1, c_1, ..., c_L)
    with c_t = #{k >= 1 : lam[k] = t}; ll = lam[z] + 1.  back_pointer[k] is
    the smallest irreducible left factor of a maximal factorization of b_k,
    or -1 when b_k is irreducible.
    """

    lam: np.ndarray
    loewy_vector: tuple[int, ...]
    ll: int
    back_pointer: np.ndarray
    irreducibles: tuple[int, ...]


@dataclass(frozen=True)
class BoundReport:
    ll: int
    bound: int
    gap: int
    m: int


@dataclass(frozen=True)
class OrbitRow:
    """One orbit of basis indices under k -> k*q mod z (equivalently, the
    cyclic shifts of one exponent vector)."""

    k: int
    vector: tuple[int, ...]
    orbit_length: int
    degree: int


@dataclass(frozen=True)
class Witness:
    """A factorization of a basis monomial into radical basis monomials,
    with full exponent vectors.  Verified on construction: indices sum to
    the target, the vectors add digit-wise without overflow to the target's
    vector, and every factor is admissible (its q-weighted value is a
    multiple of e, checked exactly)."""

    q: int
    n: int
    e: int
    target_index: int
    factor_indices: tuple[int, ...]
    factor_vectors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.factor_indices)

    def render(self) -> str:
        lines = []
        for k, vec in zip(self.factor_indices, self.factor_vectors):
            deg = sum(vec)
            lines.append(f"k={k} deg={deg} exp=[{','.join(str(v) for v in vec)}]")
        return "\n".join(lines) + "\n"


def verify_witness(q: int, n: int, e: int, factor_vectors, *,
                   target_vector=None) -> Witness:
    """Check the witness invariants and return the verified Witness.

    A failure here is an internal error: no code path may hand out an
    unverified factorization.
    """
    if not factor_vectors:
        raise AssertionError("empty witness")
    vectors = tuple(tuple(v) for v in factor_vectors)
    total = [0] * n
    indices = []
    for vec in vectors:
        if len(vec) != n:
            raise AssertionError("factor vector length mismatch")
        if any(c < 0 or c >= q for c in vec):
            raise AssertionError("factor exponent out of range")
        value = sum(c * q**j for j, c in enumerate(vec))
        idx, rem = divmod(value, e)
        if rem or idx == 0:
            raise AssertionError("factor is not an admissible radical monomial")
        indices.append(idx)
        for j, c in enumerate(vec):
            total[j] += c
    if any(c > q - 1 for c in total):
        raise AssertionError("digit-wise sum overflows q-1: zero product")
    if target_vector is not None and list(target_vector) != total:
        raise AssertionError("witness does not multiply to the target")
    target_value = sum(c * q**j for j, c in enumerate(total))
    target_index, rem = divmod(target_value, e)
    if rem:
        raise AssertionError("target is not admissible")
    if target_index != sum(indices):
        raise AssertionError("index sum mismatch")
    return Witness(
        q=q, n=n, e=e,
        target_index=target_index,
        factor_indices=tuple(indices),
        factor_vectors=vectors,
    )


class Algebra:
    """A[q, n, z]: dimension z + 1.  degrees[k] is the digit sum of k*e,
    computed from residues modulo z; it decides every product."""

    def __init__(self, q: int, n: int, z: int):
        if q < 2:
            raise DomainError(f"q must be >= 2, got {q}")
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if z < 1:
            raise DomainError(f"z must be >= 1, got {z}")
        if pow(q, n, z) != 1 % z:
            raise DomainError(f"q^n is not 1 modulo z (q={q}, n={n}, z={z})")
        if _BYTES_PER_INDEX * z > ALGEBRA_CAPACITY_BYTES:
            raise CapacityError(
                f"z={z} needs {_BYTES_PER_INDEX * z} bytes of per-index arrays, "
                f"over the capacity of {ALGEBRA_CAPACITY_BYTES} bytes"
            )
        self.q = q
        self.n = n
        self.z = z
        powers = residue_powers(q, n, z)
        self.nu = len(powers)
        self.degrees = np.empty(z + 1, dtype=np.int64)
        for lo, degrees in digit_sum_blocks(q, n, z, powers):
            self.degrees[lo:lo + len(degrees)] = degrees
        self.degrees[0] = 0
        self.degrees[z] = n * (q - 1)
        self._profile: LoewyProfile | None = None

    # -- parameters -------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.z + 1

    def e(self) -> int:
        """The modulus e = (q^n - 1)/z, materialized exactly."""
        return (self.q**self.n - 1) // self.z

    def ord_e(self) -> int:
        """Order of q modulo e (divides n; computed without factoring e)."""
        return order_dividing(self.q, self.e(), self.n)

    def m(self) -> int:
        """The least degree of a radical basis monomial."""
        return int(self.degrees[1:].min())

    def __repr__(self) -> str:
        return f"Algebra(q={self.q}, n={self.n}, z={self.z})"

    # -- exponent vectors and degrees -------------------------------------

    def exponent_vector(self, k: int) -> list[int]:
        """Base-q digits of k*e (LSB first, length n), from residues only."""
        if not 0 <= k <= self.z:
            raise DomainError(f"index must lie in 0..z, got {k}")
        return exponent_digits(self.q, self.n, self.z, k)

    def degree_of(self, k: int) -> int:
        """Digit sum of k*e (the total degree of the monomial b_k)."""
        if not 0 <= k <= self.z:
            raise DomainError(f"index must lie in 0..z, got {k}")
        return int(self.degrees[k])

    # -- multiplication ----------------------------------------------------

    def product_index(self, k: int, l: int) -> int | None:
        """Index of b_k * b_l, or None when the product is zero.

        The product is b_{k+l} iff k + l <= z and the exponent vectors add
        without a carry, that is deg[k] + deg[l] == deg[k+l].
        """
        z = self.z
        if not (0 <= k <= z and 0 <= l <= z):
            raise DomainError(f"indices must lie in 0..z, got {k}, {l}")
        deg = self.degrees
        if k + l > z or deg[k] + deg[l] != deg[k + l]:
            return None
        return k + l

    # -- Loewy structure ----------------------------------------------------

    def loewy_profile(self) -> LoewyProfile:
        if self._profile is None:
            self._profile = self._compute_profile()
        return self._profile

    def _compute_profile(self) -> LoewyProfile:
        z, deg = self.z, self.degrees
        lam = np.zeros(z + 1, dtype=np.int64)
        bp = np.full(z + 1, -1, dtype=np.int64)
        # DP ascending in k; it suffices to scan irreducible left factors,
        # since any factorization refines to one with all factors
        # irreducible without getting shorter (digit-wise sums unchanged).
        # For k = z every split is valid: deg[i] + deg[z-i] == deg[z].
        irr_idx = np.empty(z, dtype=np.int64)
        irr_deg = np.empty(z, dtype=np.int64)
        n_irr = 0
        for k in range(1, z + 1):
            right = k - irr_idx[:n_irr]
            valid = irr_deg[:n_irr] + deg[right] == deg[k]
            if valid.any():
                cand = lam[right[valid]]
                pos = int(cand.argmax())
                lam[k] = cand[pos] + 1
                bp[k] = irr_idx[:n_irr][valid][pos]
            else:
                lam[k] = 1
                irr_idx[n_irr] = k
                irr_deg[n_irr] = deg[k]
                n_irr += 1

        counts = np.bincount(lam[1:])
        top = int(lam[z])
        if top != int(lam.max()):
            raise AssertionError("socle index must attain the maximal layer")
        vector = (1,) + tuple(int(counts[t]) for t in range(1, top + 1))
        if sum(vector) != z + 1:
            raise AssertionError("Loewy vector does not sum to the dimension")
        irreducibles = tuple(int(i) for i in irr_idx[:n_irr])
        return LoewyProfile(lam, vector, top + 1, bp, irreducibles)

    def loewy_vector(self) -> tuple[int, ...]:
        return self.loewy_profile().loewy_vector

    def loewy_length(self) -> int:
        return self.loewy_profile().ll

    # -- bound -------------------------------------------------------------

    def upper_bound(self) -> int:
        return self.n * (self.q - 1) // self.m() + 1

    def bound_report(self) -> BoundReport:
        ll = self.loewy_length()
        bound = self.upper_bound()
        gap = bound - ll
        if gap < 0:
            raise AssertionError("Loewy length exceeded its upper bound")
        return BoundReport(ll=ll, bound=bound, gap=gap, m=self.m())

    # -- witnesses -----------------------------------------------------------

    def witness(self, k: int) -> Witness:
        """Factorization of b_k into lam[k] radical basis factors, unwound
        from the DP back-pointers and verified exactly."""
        if not 1 <= k <= self.z:
            raise DomainError(f"index must lie in 1..z, got {k}")
        profile = self.loewy_profile()
        factors = []
        cur = k
        while profile.back_pointer[cur] >= 0:
            i = int(profile.back_pointer[cur])
            factors.append(i)
            cur -= i
        factors.append(cur)
        if len(factors) != int(profile.lam[k]):
            raise AssertionError("back-pointer unwinding lost factors")
        vectors = [self.exponent_vector(i) for i in factors]
        return verify_witness(self.q, self.n, self.e(), vectors,
                              target_vector=self.exponent_vector(k))

    # -- degree statistics ---------------------------------------------------

    def degree_histogram(self) -> dict[int, int]:
        """Multiset of monomial degrees over k = 1..z."""
        degrees, counts = np.unique(self.degrees[1:], return_counts=True)
        return {int(d): int(c) for d, c in zip(degrees, counts)}

    def orbit_report(self) -> list[OrbitRow]:
        """Exponent vectors of b_1..b_{z-1} up to cyclic shift: smallest
        representative, vector, orbit length under k -> k*q, digit sum."""
        z, q = self.z, self.q
        rows = []
        seen = bytearray(z)
        for k in range(1, z):
            if seen[k]:
                continue
            orbit = []
            cur = k
            while not seen[cur]:
                seen[cur] = 1
                orbit.append(cur)
                cur = cur * q % z
            rows.append(OrbitRow(
                k=k,
                vector=tuple(self.exponent_vector(k)),
                orbit_length=len(orbit),
                degree=self.degree_of(k),
            ))
        return rows

    def render_orbit_report(self) -> str:
        lines = [
            f"k={row.k} exp=[{','.join(str(v) for v in row.vector)}] "
            f"orbit={row.orbit_length} s={row.degree}"
            for row in self.orbit_report()
        ]
        return "\n".join(lines) + "\n"

    def flags(self) -> dict[str, bool]:
        vector = self.loewy_vector()
        report = self.bound_report()
        return {
            "uniserial": all(c == 1 for c in vector),
            "bound_attained": report.gap == 0,
            "ll_three": report.ll == 3,
            "spike_vector": (
                len(vector) > 3
                and vector[0] == 1
                and all(c == 1 for c in vector[2:])
            ),
        }


# ---------------------------------------------------------------------------
# Witness transport between algebras.
# ---------------------------------------------------------------------------

def transport_witness(w: Witness, target_q: int) -> Witness:
    """Carry a factorization of a uniform-exponent monomial (x_1...x_n)^a
    over to parameter Q = target_q, provided q and Q generate the same
    subgroup modulo e, by permuting exponent positions.  The target algebra
    is never constructed; the result is verified exactly."""
    e, n = w.e, w.n
    if target_q < 2:
        raise DomainError(f"target q must be >= 2, got {target_q}")
    target_vec = [0] * n
    for vec in w.factor_vectors:
        for j, c in enumerate(vec):
            target_vec[j] += c
    a = target_vec[0]
    if any(c != a for c in target_vec):
        raise DomainError("transport needs a uniform-exponent target monomial")
    if not 1 <= a < min(w.q, target_q):
        raise DomainError(f"exponent {a} must be below min(q, Q)")
    # q^n = Q^n = 1 bounds both cycles by n; then pi(t) is the exponent
    # with Q^t = q^pi(t) (mod e).
    if pow(w.q, n, e) != 1 % e or pow(target_q, n, e) != 1 % e:
        raise DomainError("parameters do not generate the same subgroup mod e")
    source = cyclic_powers(w.q, e)
    target = cyclic_powers(target_q, e)
    if set(source) != set(target):
        raise DomainError("parameters do not generate the same subgroup mod e")
    position = {r: s for s, r in enumerate(source)}
    pi = [position[target[t % len(target)]] for t in range(n)]
    new_vectors = [tuple(vec[pi[t]] for t in range(n)) for vec in w.factor_vectors]
    return verify_witness(target_q, n, e, new_vectors)


def degree_m_vector(q: int, n: int, e: int) -> tuple[list[int], int]:
    """An admissible exponent vector of minimal degree m for A(q, n, e),
    read off the digit expansion of the minimizing multiple of e."""
    z = (q**n - 1) // e
    res = m_via_z(q, n, z)
    return exponent_digits(q, n, z, res.k_min or z), res.m


def shift_witness(w: Witness, l: int) -> Witness:
    """From a witness for the top monomial of A(q, n, e), build one for the
    top monomial of A(q+l, n, e) where l is a nonnegative multiple of
    lcm(e, m): the original factors survive unchanged (q+l = q mod e), and
    the extra all-l block is covered by n*l/m cyclic shifts of a degree-m
    admissible monomial."""
    if l < 0:
        raise DomainError(f"shift must be nonnegative, got {l}")
    if l == 0:
        return w
    q, n, e = w.q, w.n, w.e
    total = [0] * n
    for vec in w.factor_vectors:
        for j, c in enumerate(vec):
            total[j] += c
    if any(c != q - 1 for c in total):
        raise DomainError("shift needs a witness for the all-(q-1) monomial")
    base, m = degree_m_vector(q, n, e)
    if l % lcm(e, m):
        raise DomainError(f"l={l} must be a multiple of lcm(e, m) = {lcm(e, m)}")
    if (n * l) % m:
        raise AssertionError("n*l/m is not integral")
    reps = l // m  # each of the n cyclic shifts used l/m times
    vectors = [tuple(vec) for vec in w.factor_vectors]
    for shift in range(n):
        vec = tuple(base[(j - shift) % n] for j in range(n))
        vectors.extend([vec] * reps)
    return verify_witness(q + l, n, e, vectors)


def concat_witness(w1: Witness, w2: Witness) -> Witness:
    """Place two witnesses over disjoint variable blocks: a factorization in
    A(q, n1 + n2, e) with |w1| + |w2| factors."""
    if w1.q != w2.q:
        raise DomainError("witnesses have different q")
    if w1.e != w2.e:
        raise DomainError("witnesses have different e")
    if w1.n < 1 or w2.n < 1:
        raise DomainError("empty variable block")
    q, e = w1.q, w1.e
    n = w1.n + w2.n
    vectors = [tuple(vec) + (0,) * w2.n for vec in w1.factor_vectors]
    vectors += [(0,) * w1.n + tuple(vec) for vec in w2.factor_vectors]
    return verify_witness(q, n, e, vectors)


# ---------------------------------------------------------------------------
# Structure-table comparison.
# ---------------------------------------------------------------------------

def validity_table(alg: Algebra) -> np.ndarray:
    """Boolean matrix over 1 <= k, l <= z-1: True where b_k * b_l != 0.
    The index of a nonzero product is always k + l, so two algebras with
    the same z have equal multiplication tables iff these matrices agree."""
    z, deg = alg.z, alg.degrees
    valid = np.zeros((z - 1, z - 1), dtype=bool)
    for k in range(1, z):  # row k - 1 holds l = 1..z-k, the l with k + l <= z
        valid[k - 1, :z - k] = deg[k] + deg[1:z - k + 1] == deg[k + 1:]
    return valid


def same_table(a: Algebra, b: Algebra) -> bool:
    """True iff the two algebras have identical basis multiplication tables
    (requires equal z)."""
    if a.z != b.z:
        raise DomainError(f"dimensions differ: {a.z + 1} vs {b.z + 1}")
    if a.z <= 2:
        return True
    return bool(np.array_equal(validity_table(a), validity_table(b)))
