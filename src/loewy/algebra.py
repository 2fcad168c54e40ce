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

Most layers need no DP.  Every radical factor has degree at least m, the
least degree, so lam[k] <= deg[k] // m: the paper's bound at every index.
A chain of L factors b_{i*}, where i* is the smallest index of degree m,
proves lam[k] >= L, so wherever L[k] = deg[k] // m the layer is exact.  The
certificate computes the chains of a whole batch by pointer doubling and
certifies an orbit when any of its cells is certified; when q = 1 mod z it
certifies every index.

`loewy_profiles` runs this for a batch of algebras.  An `Algebra` checks
its parameters when it is made and computes its degrees and orbit minima
on first use, as a batch of one.  A batch makes one kernel call, which
lays its rows end to end in two flat arrays; each algebra gets its views
of them, and the certificate, the DP and the Loewy vectors run on those
same arrays.  The layers are the radical powers, so the DP takes each
open layer as one more than the best layer of b_{k-i} over the
irreducible left factors b_i of b_k, the rule by which witnesses are
unwound.  Both parts of such a split lie on a lower bound level deg // m,
so the DP steps through the levels in ascending order, all rows at once:
one level's open orbit minima are computed together, and each result is
copied over its orbit.  One bincount over the layers gives every row's
Loewy vector.  A scan computes hundreds of small algebras per batch this
way; `Algebra.loewy_profile` is a batch of one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm

import numpy as np

from .arith import (
    cyclic_powers,
    full_power,
    mult_order,
    order_dividing,
    resolve_z,
)
from .errors import CapacityError, DomainError
from .mfunc import (
    degrees_and_orbit_min,
    exponent_digits,
    m_via_z,
    per_cell,
    require_index_capacity,
)

# validity_table refuses a (z - 1)^2 bool table above this many bytes.
VALIDITY_CAPACITY_BYTES = 1 << 30
# The invariant report refuses an algebra whose report would have more than
# this many lines, about 2 LL^2, most of them a set product: on 2 vCPUs the
# report of LL = 121 took 10 s, and of LL = 241 159 s.
INVARIANT_LINES_CAPACITY = 1 << 15


# The flags of an algebra, in the order its records store them.
FLAG_NAMES = ("uniserial", "bound_attained", "ll_three", "spike_vector")


@dataclass(frozen=True)
class LoewyProfile:
    """The Loewy structure of an algebra against its bound.

    lam[k] is the maximal number of radical basis factors in a factorization
    of b_k (lam[0] = 0 for the identity); it is constant on the orbits of
    k -> kq mod z.  loewy_vector = (1, c_1, ..., c_L) with
    c_t = #{k >= 1 : lam[k] = t}; ll = lam[z] + 1.  m is the least degree
    of a radical basis monomial and bound = n(q - 1) // m + 1 the paper's
    bound on ll, which every profile is checked to respect.  irreducibles
    are the k >= 1 with lam[k] = 1, ascending, read off lam on first use.
    Maximal factorizations are not stored: `Algebra.left_factor` finds each
    factor on demand.  Profiles come from `loewy_profiles`: the layers the
    chain certificate proves equal to the bound deg[k] // m are taken from
    it, and the DP over irreducible left factors computes the others, level
    by level; whatever the batch, each algebra gets the profile of its
    batch of one.
    """

    lam: np.ndarray
    loewy_vector: tuple[int, ...]
    ll: int
    m: int
    bound: int

    @property
    def gap(self) -> int:
        return self.bound - self.ll

    @property
    def flags(self) -> dict[str, bool]:
        """The flags named in FLAG_NAMES, in that order."""
        vector = self.loewy_vector
        tail = vector[2:].count(1)
        return {
            "uniserial": vector[:2].count(1) + tail == len(vector),
            "bound_attained": self.ll == self.bound,
            "ll_three": len(vector) == 3,
            "spike_vector": len(vector) > 3 and tail == len(vector) - 2,
        }

    @cached_property
    def irreducibles(self) -> tuple[int, ...]:
        # lam[0] = 0, so every hit is some k >= 1
        return tuple(np.flatnonzero(self.lam == 1).tolist())


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
    `require_index_capacity` states and shares with `m_via_z`.  The
    constructor only checks the parameters; the first read of either array
    fills both, as a batch of one, and `loewy_profiles` fills them again
    from its batch's kernel call."""

    def __init__(self, q: int, n: int, z: int):
        resolve_z(q, n, z=z)
        require_index_capacity(q, n, z)
        self.q = q
        self.n = n
        self.z = z
        self._profile: LoewyProfile | None = None

    # -- the degree arrays, filled on first use ---------------------------

    # each read fills both arrays, where later reads find them without
    # calling these
    @cached_property
    def degrees(self) -> np.ndarray:
        self.degrees, self.orbit_min = degrees_and_orbit_min([(self.q, self.n, self.z)])
        return self.degrees

    @cached_property
    def orbit_min(self) -> np.ndarray:
        self.degrees, self.orbit_min = degrees_and_orbit_min([(self.q, self.n, self.z)])
        return self.orbit_min

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
        return (full_power(self.q, self.n) - 1) // self.z

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
        return loewy_profiles([self])[0]

    def loewy_vector(self) -> tuple[int, ...]:
        return self.loewy_profile().loewy_vector

    def loewy_length(self) -> int:
        return self.loewy_profile().ll

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
        return self.loewy_profile().flags


# ---------------------------------------------------------------------------
# Loewy profiles: the chain certificate, then the level DP on the orbits it
# leaves open.
# ---------------------------------------------------------------------------

def loewy_profiles(algs) -> list[LoewyProfile]:
    """The Loewy profiles of a batch of algebras, in order.

    The algebras without a cached profile run together: one kernel call
    gives their degrees and orbit minima, rows end to end, and each of
    them keeps its views of those flat arrays.  Every layer starts at the
    per-index bound deg[k] // m; `_certified` marks the cells where the
    bound is attained, and `_level_dp` fills in the others when there are
    any.  The profiles are cached."""
    todo = [alg for alg in algs if alg._profile is None]
    if todo:
        # arrays of an earlier read go first, so that no two copies are alive
        for alg in todo:
            vars(alg).pop("degrees", None)
            vars(alg).pop("orbit_min", None)
        deg, omin = degrees_and_orbit_min([(alg.q, alg.n, alg.z) for alg in todo])
        sizes = [alg.z + 1 for alg in todo]
        offsets = [0, *accumulate(sizes)]
        for alg, lo, hi in zip(todo, offsets, offsets[1:]):
            alg.degrees, alg.orbit_min = deg[lo:hi], omin[lo:hi]
        ms, steps = _least_degrees(deg, offsets)
        # each index's orbit minimum as a cell of the batch
        orbit = omin if len(todo) == 1 else omin + per_cell(offsets[:-1], sizes)
        cert = _certified(deg, orbit, offsets, ms, steps)
        lam = deg // per_cell(ms, sizes)
        if not cert.all():
            _level_dp(deg, lam, orbit, cert, offsets)
        del cert, orbit
        for alg, profile in zip(todo, _profiles(lam, offsets, ms, todo)):
            alg._profile = profile
    return [alg._profile for alg in algs]


def _least_degrees(deg, offsets) -> tuple[list[int], list[int]]:
    """Each row's least degree m over its indices 1..z, and i*, the
    smallest index of that degree."""
    # the segments 1..z of the rows, with each next row's index 0 between
    # them; index 0 has degree 0 < m, so it is never a hit
    bounds = [b for lo, hi in zip(offsets, offsets[1:]) for b in (lo + 1, hi)]
    ms = np.minimum.reduceat(deg, bounds[:-1])[::2]
    hits = np.flatnonzero(deg == np.repeat(ms, np.diff(offsets)))
    starts = offsets[:-1]
    return ms.tolist(), (hits[np.searchsorted(hits, starts)] - starts).tolist()


def _chain_roots(deg, offsets, ms, steps) -> np.ndarray:
    """The root of every cell's chain, for rows laid end to end in deg.

    In a row of least degree m = deg[i*], index k links to k - i* when
    k - i* >= 1 and deg[i*] + deg[k - i*] = deg[k]: b_k is b_{i*} times
    b_{k-i*}.  A chain follows the links down to its root, the first index
    without one, and its length L[k] = (k - root[k]) / i* + 1 counts the
    degree-m factors of one factorization of b_k, so L <= lam.  The roots
    come by pointer doubling, in log2 of the longest chain's length passes
    over the cells; that length is at most (z - 1) / i* + 1 and at most
    deg[z] / m, the bound on lam."""
    sizes = np.diff(offsets).tolist()
    m, step = per_cell(ms, sizes), per_cell(steps, sizes)
    jump = np.arange(offsets[-1], dtype=np.int64)
    jump -= step
    # deg[k - i*]; a target before the row is clipped or lies in the
    # previous row, and the test on the row start below drops it
    buf = np.take(deg, jump, mode="clip")
    np.subtract(deg, buf, out=buf)
    link = buf == m
    link &= jump > per_cell(offsets[:-1], sizes)
    np.invert(link, out=link)
    np.add(jump, step, out=jump, where=link)
    del link
    # deg[z] = n(q - 1) is a row's largest degree
    tops = deg[np.array(offsets[1:]) - 1].tolist()
    longest = max(min((size - 2) // i, top // m_row - 1)
                  for size, i, top, m_row in zip(sizes, steps, tops, ms))
    for _ in range(longest.bit_length()):
        np.take(jump, jump, out=buf, mode="clip")
        jump, buf = buf, jump
    return jump


def _certified(deg, orbit, offsets, ms, steps) -> np.ndarray:
    """True at the cells whose layer is the per-index bound deg[k] // m,
    for rows laid end to end in deg; orbit holds each cell's orbit minimum
    as a cell of the batch.

    Every radical factor has degree at least m, so L <= lam <= deg // m,
    and lam is exact wherever L = deg // m.  Each link adds m to the
    degree, so deg // m - L is constant along a chain, and L = deg // m
    exactly when the chain's root has degree below 2m.  lam and deg are
    constant on the orbits of k -> kq mod z, so one certified cell
    certifies its orbit.  Index 0 is its own root, of degree 0."""
    sizes = np.diff(offsets).tolist()
    m = per_cell(ms, sizes)
    roots = _chain_roots(deg, offsets, ms, steps)
    # deg[root] - m < m, where 2m may not fit in int64
    np.take(deg, roots, out=roots, mode="clip")
    roots -= m
    cert = roots < m
    del roots
    seen = np.zeros(len(deg), dtype=bool)
    seen[orbit[cert]] = True
    return seen[orbit]


def _level_dp(deg, lam, orbit, cert, offsets) -> None:
    """Fill in the open layers of rows laid end to end.  deg, lam and orbit
    (each index's orbit minimum as a cell of the batch) hold one cell per
    index, cert marks the certified cells, and lam holds the per-index
    bound deg // m in every cell.

    The layers are the radical powers, J^{t+1} = J * J^t, so lam[k] is
    1 + max lam[k - i] over the irreducible i < k with b_k = b_i * b_{k-i},
    or 1 when there is none; `Algebra.left_factor` unwinds witnesses by the
    same rule.  Both parts of such a split have degree at most deg[k] - m,
    so a lower bound level deg // m than b_k: the open cells of one level
    depend only on lower levels.  The levels run in ascending order.  Each
    takes the splits of its open orbit minima over the irreducibles found
    so far, copies each layer over its orbit and adds its new irreducibles
    to the candidates.  A row's index 0, the identity, stays in layer 0."""
    starts = np.array(offsets[:-1])
    # one sort puts the open cells in level order, and the certified cells
    # and each row's index 0 after them
    last = np.iinfo(np.int64).max
    key = np.where(cert, last, lam)
    key[starts] = last
    opened = len(key) - int(np.count_nonzero(key == last))
    order = key.argsort()
    del key
    # certified irreducibles; the open ones join at level 1
    irr = np.flatnonzero(cert & (lam == 1))
    # about five int64 temporaries per pair: at most 10 bytes per cell
    budget = len(lam) // 4 + 1
    pos = 0
    while pos < opened:
        # the cells from pos on still hold their bound, their sort key
        end = bisect_right(order, lam[order[pos]], pos, opened, key=lam.__getitem__)
        run = order[pos:end]
        pos = end
        source = orbit[run]
        mins = run[source == run]
        lam[mins] = 1 + _best_splits(deg, lam, irr, mins, starts, budget)
        layers = lam[source]
        lam[run] = layers
        new = run[layers == 1]
        if len(new):
            irr = np.sort(np.concatenate((irr, new)))


def _best_splits(deg, lam, irr, mins, starts, budget: int) -> np.ndarray:
    """max lam[k - i] over the irreducible i < k with b_k = b_i * b_{k-i},
    or 0 when there is none, for the cells `mins` of the rows that begin
    at `starts`; `irr` holds the irreducible cells found so far, ascending.
    The (k, i) pairs, minimum after minimum, are visited in chunks of at
    most `budget`."""
    base = starts[starts.searchsorted(mins, "right") - 1]
    lo = irr.searchsorted(base + 1)
    count = irr.searchsorted(mins) - lo
    ends = count.cumsum()
    shift, whole, top = lo - ends + count, mins + base, deg[mins]
    best = np.zeros(len(mins), dtype=np.int64)
    total = int(ends[-1])
    for start in range(0, total, budget):
        stop = min(start + budget, total)
        # the minima u..v-1 own the pairs start..stop-1
        u, v = ends.searchsorted((start, stop - 1), "right") + (0, 1)
        size = np.minimum(ends[u:v], stop) - np.maximum(ends[u:v] - count[u:v], start)
        owner = np.arange(u, v).repeat(size)
        left = irr[np.arange(start, stop) + shift[owner]]
        right = whole[owner] - left
        split = deg[left] + deg[right] == top[owner]
        np.maximum.at(best, owner[split], lam[right[split]])
    return best


def _profiles(lam: np.ndarray, offsets, ms, algs) -> list[LoewyProfile]:
    """The profiles of the rows laid end to end in lam, of least degrees
    ms, from one bincount of (row, layer) pairs read into one list.  Index
    0 holds layer 0, which no Loewy vector counts."""
    rows = len(algs)
    sizes = np.diff(offsets).tolist()
    peaks = np.maximum.reduceat(lam, offsets[:-1]).tolist()
    layers = max(peaks) + 1
    cells = lam if rows == 1 else lam + per_cell([r * layers for r in range(rows)], sizes)
    counts = np.bincount(cells, minlength=rows * layers).reshape(rows, layers).tolist()
    del cells
    tops = lam[[hi - 1 for hi in offsets[1:]]].tolist()
    out = []
    for r, alg in enumerate(algs):
        top = tops[r]
        if top != peaks[r]:
            raise AssertionError(f"socle index must attain the maximal layer ({alg})")
        vector = (1, *counts[r][1:top + 1])
        if sum(vector) != alg.z + 1:
            raise AssertionError(f"Loewy vector does not sum to the dimension ({alg})")
        bound = alg.n * (alg.q - 1) // ms[r] + 1
        if top >= bound:
            raise AssertionError(f"Loewy length exceeded its upper bound ({alg})")
        out.append(LoewyProfile(lam[offsets[r]:offsets[r + 1]], vector, top + 1,
                                ms[r], bound))
    return out


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

def degree_test_rows(alg: Algebra):
    """The rows k = 1..z-1 of `validity_table`, one at a time, each over
    l = 1..z-k; a table above VALIDITY_CAPACITY_BYTES is refused first."""
    z = alg.z
    if (z - 1) ** 2 > VALIDITY_CAPACITY_BYTES:
        raise CapacityError(
            f"the validity table of z={z} needs {(z - 1) ** 2} bytes, over the "
            f"capacity of {VALIDITY_CAPACITY_BYTES} bytes"
        )
    deg = alg.degrees
    return (deg[k] + deg[1:z - k + 1] == deg[k + 1:] for k in range(1, z))


def validity_table(alg: Algebra) -> np.ndarray:
    """Boolean matrix over 1 <= k, l <= z-1: True where b_k * b_l != 0.
    The index of a nonzero product is always k + l, so two algebras with
    the same z have equal multiplication tables iff these matrices agree.
    Tables above VALIDITY_CAPACITY_BYTES are refused before allocation."""
    rows = degree_test_rows(alg)
    valid = np.zeros((alg.z - 1, alg.z - 1), dtype=bool)
    for k, row in enumerate(rows, start=1):  # l = 1..z-k, the l with k + l <= z
        valid[k - 1, :alg.z - k] = row
    return valid


def same_table(a: Algebra, b: Algebra) -> bool:
    """True iff the two algebras (of equal z) have identical multiplication
    tables, compared row by row up to the first row that differs."""
    if a.z != b.z:
        raise DomainError(f"dimensions differ: {a.z + 1} vs {b.z + 1}")
    return all(map(np.array_equal, degree_test_rows(a), degree_test_rows(b)))
