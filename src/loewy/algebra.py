"""The split local symmetric algebra with basis b_0..b_z indexed by
residues modulo z, where b_k carries the base-q expansion of k*e as its
exponent vector (e = (q^n - 1)/z).

All multiplication logic reads one array of degrees, deg[k] = digit sum of
k*e, computed from residues modulo z: the product b_k * b_l is b_{k+l}
exactly when adding the two exponent vectors is carry-free, and every carry
costs q - 1 of digit sum, so b_k * b_l != 0 iff k + l <= z and
deg[k] + deg[l] == deg[k+l].  e itself is materialized only for display and
for exact witness verification.

The cyclic shift x_i -> x_{i+1} is an automorphism sending b_k to
b_{kq mod z}, so the Loewy layer is constant on the orbits of k -> kq mod z.
The same pass that computes the degrees records each index's orbit minimum;
the Loewy DP runs once per orbit, at its minimum, and witnesses find their
factors on demand from the layers and degrees.

`loewy_profiles` runs that DP in lockstep for a batch of algebras: their
degrees and orbit minima are stacked into padded (batch, z_max + 1) arrays,
each minimum value k is visited once for the whole batch, and one 2-D step
scans the splits of every row with an orbit of minimum k.  A scan computes
hundreds of small algebras per batch this way; `Algebra.loewy_profile` is a
batch of one, which runs on views of its own arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .arith import cyclic_powers, mult_order, order_dividing, resolve_z
from .errors import CapacityError, DomainError
from .mfunc import (
    degrees_and_orbit_min,
    exponent_digits,
    m_via_z,
    require_index_capacity,
)

# validity_table refuses a (z - 1)^2 bool table above this many bytes.
VALIDITY_CAPACITY_BYTES = 1 << 30


@dataclass(frozen=True)
class LoewyProfile:
    """Per-index layer function and derived data.

    lam[k] is the maximal number of radical basis factors in a factorization
    of b_k (lam[0] = 0 for the identity); it is constant on the orbits of
    k -> kq mod z.  loewy_vector = (1, c_1, ..., c_L) with
    c_t = #{k >= 1 : lam[k] = t}; ll = lam[z] + 1.  irreducibles are the
    k >= 1 with lam[k] = 1, ascending.  Maximal factorizations are not
    stored: `Algebra.left_factor` finds each factor on demand.  Profiles
    come from `loewy_profiles`, one lockstep DP per batch of algebras;
    whatever the batch, each algebra gets the profile of its batch of one.
    """

    lam: np.ndarray
    loewy_vector: tuple[int, ...]
    ll: int
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
    computed from residues modulo z; it decides every product.
    orbit_min[k] is the smallest index of the orbit of k under
    k -> kq mod z (orbit_min[0] = 0, orbit_min[z] = z).  Both come from
    `degrees_and_orbit_min`, within the capacity that
    `require_index_capacity` states and shares with `m_via_z`."""

    def __init__(self, q: int, n: int, z: int):
        resolve_z(q, n, z=z)
        require_index_capacity(q, n, z)
        self.q = q
        self.n = n
        self.z = z
        self.degrees, self.orbit_min = degrees_and_orbit_min(q, n, z)
        self._m = int(self.degrees[1:].min())
        self._profile: LoewyProfile | None = None
        self._report: BoundReport | None = None

    # -- parameters -------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.z + 1

    @cached_property
    def nu(self) -> int:
        """Order of q modulo z: the length of the orbit of b_1."""
        return mult_order(self.q, self.z)

    def e(self) -> int:
        """The modulus e = (q^n - 1)/z, materialized exactly."""
        return (self.q**self.n - 1) // self.z

    def ord_e(self) -> int:
        """Order of q modulo e (divides n; computed without factoring e)."""
        return order_dividing(self.q, self.e(), self.n)

    def m(self) -> int:
        """The least degree of a radical basis monomial."""
        return self._m

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
        return _lockstep_dp([self])[0]

    def loewy_vector(self) -> tuple[int, ...]:
        return self.loewy_profile().loewy_vector

    def loewy_length(self) -> int:
        return self.loewy_profile().ll

    # -- bound -------------------------------------------------------------

    def upper_bound(self) -> int:
        return self.n * (self.q - 1) // self.m() + 1

    def bound_report(self) -> BoundReport:
        """Loewy length against its bound, computed once per algebra."""
        if self._report is None:
            ll = self.loewy_length()
            bound = self.upper_bound()
            gap = bound - ll
            if gap < 0:
                raise AssertionError("Loewy length exceeded its upper bound")
            self._report = BoundReport(ll=ll, bound=bound, gap=gap, m=self._m)
        return self._report

    # -- witnesses -----------------------------------------------------------

    def left_factor(self, k: int) -> int:
        """The smallest irreducible i < k with b_k = b_i * b_{k-i} and
        lam[k-i] = lam[k] - 1, the next factor `witness` takes off b_k; -1
        when b_k is irreducible."""
        if not 1 <= k <= self.z:
            raise DomainError(f"index must lie in 1..z, got {k}")
        lam, deg = self.loewy_profile().lam, self.degrees
        if lam[k] == 1:
            return -1
        split = ((lam[1:k] == 1) & (lam[k - 1:0:-1] == lam[k] - 1)
                 & (deg[1:k] + deg[k - 1:0:-1] == deg[k]))
        i = int(split.argmax())
        if not split[i]:
            raise AssertionError(f"no left factor attains lam[{k}]")
        return i + 1

    def witness(self, k: int) -> Witness:
        """Factorization of b_k into lam[k] radical basis factors, unwound
        by `left_factor` and verified exactly."""
        if not 1 <= k <= self.z:
            raise DomainError(f"index must lie in 1..z, got {k}")
        factors = []
        cur = k
        while (i := self.left_factor(cur)) > 0:
            factors.append(i)
            cur -= i
        factors.append(cur)
        if len(factors) != int(self.loewy_profile().lam[k]):
            raise AssertionError("left-factor unwinding lost factors")
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
        z = self.z
        inner = self.orbit_min[1:z]
        sizes = np.bincount(inner, minlength=z)
        reps = np.flatnonzero(inner == np.arange(1, z)) + 1
        return [
            OrbitRow(
                k=k,
                vector=tuple(self.exponent_vector(k)),
                orbit_length=int(sizes[k]),
                degree=self.degree_of(k),
            )
            for k in reps.tolist()
        ]

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
# The Loewy DP, run in lockstep over a batch of algebras.
# ---------------------------------------------------------------------------

def loewy_profiles(algs) -> list[LoewyProfile]:
    """The Loewy profiles of a batch of algebras, in order.  The algebras
    without a cached profile go through one lockstep DP together, and
    their profiles are cached."""
    todo = [alg for alg in algs if alg._profile is None]
    if todo:
        for alg, profile in zip(todo, _lockstep_dp(todo)):
            alg._profile = profile
    return [alg._profile for alg in algs]


def _stacked(arrays, width: int, fill: int) -> np.ndarray:
    """The arrays as the rows of one (len(arrays), width) int64 array,
    padded with fill; a single array is returned as a (1, z + 1) view."""
    if len(arrays) == 1:
        return arrays[0][None, :]
    out = np.full((len(arrays), width), fill, dtype=np.int64)
    for row, values in zip(out, arrays):
        row[:len(values)] = values
    return out


def _lockstep_dp(algs) -> list[LoewyProfile]:
    """Compute the Loewy profiles of a nonempty batch of algebras.

    lam[k] is the best lam[i] + lam[k-i] over the valid splits with
    i <= k/2, or 1 when there is none; refining both factors into
    irreducibles shows this equals the best over irreducible left factors.
    lam is constant on orbits, so the DP visits each orbit once, at its
    minimum, in ascending order: every index below the minimum lies in an
    orbit already done.  For k = z every split is valid.

    The batch shares one padded (rows, z_max + 1) array per quantity, and
    each minimum value k is visited once for all rows: the splits of the
    rows r0..r1 that hold orbits with minimum k are scanned in one step on
    a slice, and each such row's result is written over its orbits.  Rows
    in between without such an orbit compute a result nobody reads.  A
    step of one row runs on 1-D views, so a batch of one runs on views of
    its own degree array."""
    rows = len(algs)
    width = max(alg.z for alg in algs) + 1
    deg = _stacked([alg.degrees for alg in algs], width, 0)
    # padding sorts after every index, so the cells 1..z of all rows come
    # right after the rows' index 0 (orbit minimum 0)
    omin = _stacked([alg.orbit_min for alg in algs], width, width).reshape(-1)
    lam = np.zeros((rows, width), dtype=np.int64)
    flat = lam.reshape(-1)
    views = list(zip(deg, lam))

    # Sorted by orbit minimum, the cells with minimum k are one run
    # cells[start:stop] of flat indices, from the rows r0..r1.
    cells = np.argsort(omin)[rows:rows + sum(alg.z for alg in algs)]
    value = omin[cells]
    steps = np.flatnonzero(np.diff(value, prepend=0))
    minima = value[steps].tolist()
    del value
    row = cells // width
    r0 = np.minimum.reduceat(row, steps).tolist()
    r1 = np.maximum.reduceat(row, steps).tolist()
    del row
    stops = steps[1:].tolist() + [len(cells)]

    best = np.maximum.reduce
    for k, start, stop, lo, hi in zip(minima, steps.tolist(), stops, r0, r1):
        # d and l hold the indices 0..k along axis 0
        d, l = views[lo] if lo == hi else (deg[lo:hi + 1].T, lam[lo:hi + 1].T)
        h = k // 2
        valid = d[1:h + 1] + d[k - 1:k - h - 1:-1] == d[k]
        top = best(l[1:h + 1] + l[k - 1:k - h - 1:-1], axis=0, where=valid, initial=1)
        run = cells[start:stop]
        flat[run] = top if lo == hi else top[run // width - lo]
    return [_profile(lam[r, :alg.z + 1]) for r, alg in enumerate(algs)]


def _profile(lam: np.ndarray) -> LoewyProfile:
    z = len(lam) - 1
    counts = np.bincount(lam[1:])
    top = int(lam[z])
    if top != int(lam.max()):
        raise AssertionError("socle index must attain the maximal layer")
    vector = (1,) + tuple(int(counts[t]) for t in range(1, top + 1))
    if sum(vector) != z + 1:
        raise AssertionError("Loewy vector does not sum to the dimension")
    irreducibles = tuple((np.flatnonzero(lam[1:] == 1) + 1).tolist())
    return LoewyProfile(lam, vector, top + 1, irreducibles)


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
    the same z have equal multiplication tables iff these matrices agree.
    Tables above VALIDITY_CAPACITY_BYTES are refused before allocation."""
    z, deg = alg.z, alg.degrees
    if (z - 1) ** 2 > VALIDITY_CAPACITY_BYTES:
        raise CapacityError(
            f"the validity table of z={z} needs {(z - 1) ** 2} bytes, over the "
            f"capacity of {VALIDITY_CAPACITY_BYTES} bytes"
        )
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
