"""The split local symmetric algebra with basis b_0..b_z indexed by
residues modulo z, where b_k carries the base-q expansion of k*e as its
exponent vector (e = (q^n - 1)/z).

All multiplication logic runs in residues modulo z: the product b_k * b_l is
b_{k+l} exactly when adding the two exponent vectors is carry-free, and the
carry test needs only the orbits k*q^i mod z.  e itself is materialized only
for display and for exact witness verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .arith import cyclic_powers, order_dividing
from .errors import CapacityError, DomainError
from .mfunc import exponent_digits, m_via_z

# Residue tables above this many cells are not materialized; rows are
# recomputed on demand (same results, ~2x slower DP).
TABLE_CAP = 1 << 25
_CHUNK_CELLS = 1 << 22


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
    """A[q, n, z]: dimension z + 1, constructed and multiplied via residues
    modulo z."""

    def __init__(self, q: int, n: int, z: int):
        if q < 2:
            raise DomainError(f"q must be >= 2, got {q}")
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        if z < 1:
            raise DomainError(f"z must be >= 1, got {z}")
        if pow(q, n, z) != 1 % z:
            raise DomainError(f"q^n is not 1 modulo z (q={q}, n={n}, z={z})")
        self.q = q
        self.n = n
        self.z = z
        powers = cyclic_powers(q, z)
        self.nu = len(powers)
        self.q_pows = powers[1:] + powers[:1]  # q^1, ..., q^nu = 1
        self._pw = np.array(self.q_pows, dtype=np.int64)
        if z * self.nu <= TABLE_CAP:
            self._bar = np.arange(z, dtype=np.int64)[:, None] * self._pw[None, :] % z
        else:
            self._bar = None
        self._profile: LoewyProfile | None = None
        self._m: int | None = None

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
        if self._m is None:
            self._m = m_via_z(self.q, self.n, self.z).m
        return self._m

    def __repr__(self) -> str:
        return f"Algebra(q={self.q}, n={self.n}, z={self.z})"

    # -- residues and exponent vectors ------------------------------------

    def residue_row(self, k: int) -> np.ndarray:
        """Orbit (k*q^1, ..., k*q^nu) mod z."""
        if self._bar is not None:
            return self._bar[k % self.z]
        return (k % self.z) * self._pw % self.z

    def _rows(self, ks: np.ndarray) -> np.ndarray:
        if self._bar is not None:
            return self._bar[ks % self.z]
        return (ks % self.z)[:, None] * self._pw[None, :] % self.z

    def exponent_vector(self, k: int) -> list[int]:
        """Base-q digits of k*e (LSB first, length n), from residues only."""
        if not 0 <= k <= self.z:
            raise DomainError(f"index must lie in 0..z, got {k}")
        return exponent_digits(self.q, self.n, self.z, k)

    def degree_of(self, k: int) -> int:
        """Digit sum of k*e (the total degree of the monomial b_k)."""
        if not 0 <= k <= self.z:
            raise DomainError(f"index must lie in 0..z, got {k}")
        if k == self.z:
            return self.n * (self.q - 1)
        if k == 0:
            return 0
        row_sum = int(self.residue_row(k).sum())
        total = (self.q - 1) * (self.n // self.nu) * row_sum
        deg, rem = divmod(total, self.z)
        if rem:
            raise AssertionError("degree formula did not divide evenly")
        return deg

    # -- multiplication ----------------------------------------------------

    def product_index(self, k: int, l: int) -> int | None:
        """Index of b_k * b_l, or None when the product is zero.

        For 1 <= k, l <= z-1 the product is nonzero iff no orbit position
        has residue sum >= z, or all positions sum to exactly z
        (complementary indices, product = b_z).
        """
        z = self.z
        if not (0 <= k <= z and 0 <= l <= z):
            raise DomainError(f"indices must lie in 0..z, got {k}, {l}")
        if k == 0 or l == 0:
            return k + l
        if k == z or l == z:
            return None  # the socle annihilates the radical
        sums = self.residue_row(k) + self.residue_row(l)
        if (sums >= z).any() and not (sums == z).all():
            return None
        return k + l

    # -- Loewy structure ----------------------------------------------------

    def loewy_profile(self) -> LoewyProfile:
        if self._profile is None:
            self._profile = self._compute_profile()
        return self._profile

    def _compute_profile(self) -> LoewyProfile:
        z = self.z
        lam = np.zeros(z + 1, dtype=np.int64)
        bp = np.full(z + 1, -1, dtype=np.int64)
        if z == 1:
            lam[1] = 1
            return LoewyProfile(lam, (1, 1), 2, bp, (1,))

        # DP ascending in k; it suffices to scan irreducible left factors,
        # since any factorization refines to one with all factors
        # irreducible without getting shorter (digit-wise sums unchanged).
        irr_idx = np.empty(z, dtype=np.int64)
        irr_rows = np.empty((z, self.nu), dtype=np.int64)
        n_irr = 0
        chunk = max(1, _CHUNK_CELLS // self.nu)
        for k in range(1, z):
            best = 0
            best_i = -1
            for lo in range(0, n_irr, chunk):
                hi = min(lo + chunk, n_irr)
                left = irr_rows[lo:hi]
                js = k - irr_idx[lo:hi]
                # summed and reduced in one expression, so no block of sums
                # stays alive while the next step builds its own; all
                # positions summing to exactly z is impossible for k < z
                valid = (left + self._rows(js)).max(axis=1) < z
                if valid.any():
                    cand = lam[js[valid]]
                    pos = int(cand.argmax())
                    val = int(cand[pos]) + 1
                    if val > best:
                        best = val
                        best_i = int(irr_idx[lo:hi][valid][pos])
            if best:
                lam[k] = best
                bp[k] = best_i
            else:
                lam[k] = 1
                irr_idx[n_irr] = k
                irr_rows[n_irr] = self.residue_row(k)
                n_irr += 1
        # k = z: complementary pairs make every split (i, z - i) valid.
        cand = lam[z - irr_idx[:n_irr]]
        pos = int(cand.argmax())
        lam[z] = int(cand[pos]) + 1
        bp[z] = int(irr_idx[:n_irr][pos])

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

    def quadratic_loewy_layers(self) -> np.ndarray:
        """Validation oracle: the unrestricted O(z^2) DP over all splits
        lam[k] = max(1, max over valid (i, k-i) of lam[i] + lam[k-i])."""
        z = self.z
        lam = np.zeros(z + 1, dtype=np.int64)
        if z == 1:
            lam[1] = 1
            return lam
        for k in range(1, z):
            lam[k] = 1
            if k >= 2:
                left = np.arange(1, k, dtype=np.int64)
                sums = self._rows(left) + self._rows(k - left)
                valid = sums.max(axis=1) < z
                if valid.any():
                    pair = lam[left[valid]] + lam[(k - left)[valid]]
                    lam[k] = max(1, int(pair.max()))
        left = np.arange(1, z, dtype=np.int64)
        lam[z] = int((lam[left] + lam[z - left]).max())
        return lam

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
        z, q, n, nu = self.z, self.q, self.n, self.nu
        hist: dict[int, int] = {}
        if z == 1:
            return {n * (q - 1): 1}
        chunk = max(1, _CHUNK_CELLS // nu)
        for lo in range(1, z, chunk):
            ks = np.arange(lo, min(lo + chunk, z), dtype=np.int64)
            sums = self._rows(ks).sum(axis=1) * ((q - 1) * (n // nu))
            degs, rem = np.divmod(sums, z)
            if rem.any():
                raise AssertionError("degree formula did not divide evenly")
            for d, c in zip(*np.unique(degs, return_counts=True)):
                hist[int(d)] = hist.get(int(d), 0) + int(c)
        hist[n * (q - 1)] = hist.get(n * (q - 1), 0) + 1  # k = z
        return dict(sorted(hist.items()))

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
    z = alg.z
    if z <= 2:
        return np.ones((max(z - 1, 0), max(z - 1, 0)), dtype=bool)
    ks = np.arange(1, z, dtype=np.int64)
    rows = alg._rows(ks)
    acc = np.zeros((z - 1, z - 1), dtype=np.int64)
    for i in range(alg.nu):
        np.maximum(acc, np.add.outer(rows[:, i], rows[:, i]), out=acc)
    valid = acc < z
    np.fill_diagonal(valid[::-1], True)  # complementary pairs: k + l = z
    return valid


def same_table(a: Algebra, b: Algebra) -> bool:
    """True iff the two algebras have identical basis multiplication tables
    (requires equal z)."""
    if a.z != b.z:
        raise DomainError(f"dimensions differ: {a.z + 1} vs {b.z + 1}")
    if a.z <= 2:
        return True
    return bool(np.array_equal(validity_table(a), validity_table(b)))
