"""Transcendental Brauer groups of quasi-trivial tori.

Given a Galois datum (a finite permutation-and-character action on r
coordinates mod M), the group of Galois-invariant classes is computed two
ways and compared:

* the explicit symbol basis: one corestricted cyclic-symbol generator per
  orbit of unordered coordinate pairs, of order n_ij (orbit with trivial
  pair-swap) or n'_ij = gcd(n_ij, 1 + chi(sigma_ij)) (orbit whose unordered
  stabilizer swaps the pair);
* a brute-force oracle: the fixed subgroup of the pair module under the
  twisted permutation action.

`BrauerAnalysis` computes both for one datum, each piece once, and runs the
checks that compare them.  Past the oracle they run no elimination: each
orbit sum is held sparse, on its own orbit, and spans are tested orbit block
by orbit block (`_span_test`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cohomology import cohomology
from .errors import RankTooSmallError
from .groups import GaloisDatum, pair_module
from .intlat import FinAbGroup, IntMatrix, _smith_reduce, invariant_factors


# ---------------------------------------------------------------------------
# orbits of unordered pairs and their local data
# ---------------------------------------------------------------------------


def _pair_str(pair) -> str:
    return f"({pair[0] + 1}, {pair[1] + 1})"


@dataclass(frozen=True)
class OrbitReport:
    pair: tuple  # the pair this report is about, (i, j) with i < j
    orbit: tuple  # all pairs in the orbit, sorted
    stabilizer_ordered: tuple  # H_ij element ids
    stabilizer_unordered: tuple  # H'_ij element ids
    quadratic: bool
    n: int
    sigma: int | None  # a swapping element, present iff quadratic
    n_prime: int | None
    m_o: int

    def describe(self) -> str:
        n_prime = self.n_prime if self.quadratic else "-"
        return (
            f"orbit of pair {_pair_str(self.pair)} with "
            f"n={self.n}, n'={n_prime}, m_o={self.m_o}"
        )


@dataclass(frozen=True)
class SymbolExpr:
    kind: str  # "I" or "II"
    pair: tuple
    second_argument: str  # "y_j" or "y_j - y_i"
    modulus: int


def _act_pair(datum: GaloisDatum, g: int, pair):
    i, j = pair
    a, b = datum.perm[g][i], datum.perm[g][j]
    return (a, b) if a < b else (b, a)


def pair_orbits(datum: GaloisDatum):
    """Orbit partition of the unordered coordinate pairs, with one
    lexicographically smallest representative per orbit."""
    if datum.r < 2:
        raise RankTooSmallError("need at least two coordinates")
    pairs = list(itertools.combinations(range(datum.r), 2))
    seen, orbits, reps = set(), [], []
    for p in pairs:  # in order: p is the least pair of its orbit
        if p in seen:
            continue
        orbit, frontier = {p}, [p]
        while frontier:
            q = frontier.pop()
            for g in datum.group.generators:  # the orbit under G
                q2 = _act_pair(datum, g, q)
                if q2 not in orbit:
                    orbit.add(q2)
                    frontier.append(q2)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
        reps.append(p)
    return orbits, reps


def n_value(datum: GaloisDatum, subgroup_ids) -> int:
    """Largest divisor d of M with chi identically 1 mod d on the subgroup."""
    g = 0
    for h in subgroup_ids:
        g = math.gcd(g, datum.chi[h] - 1)
    return math.gcd(datum.M, g) if g else datum.M


def _orbit_report(datum: GaloisDatum, pair, orbit) -> OrbitReport:
    i, j = pair
    h_ordered, h_unordered, sigma = [], [], None
    for g, p in enumerate(datum.perm):  # G in id order, once for both
        a = p[i]
        if a == i and p[j] == j:
            h_ordered.append(g)
            h_unordered.append(g)
        elif a == j and p[j] == i:
            h_unordered.append(g)
            sigma = g if sigma is None else sigma  # the least swapping element
    quadratic = sigma is not None
    n = n_value(datum, h_ordered)
    npr = math.gcd(n, 1 + datum.chi[sigma]) if quadratic else None
    m_o = npr if quadratic else n
    return OrbitReport(
        pair, orbit, tuple(h_ordered), tuple(h_unordered), quadratic, n, sigma, npr, m_o
    )


def _symbol(report: OrbitReport) -> SymbolExpr:
    if report.quadratic:
        return SymbolExpr("II", report.pair, "y_j - y_i", report.m_o)
    return SymbolExpr("I", report.pair, "y_j", report.m_o)


def _vector_order(v: dict, m: int) -> int:
    """The order mod m of the sparse vector v {index: entry}."""
    return m // math.gcd(m, *v.values())


def _dense(v: dict, rank: int) -> tuple:
    return tuple(v.get(t, 0) for t in range(rank))


def _span_test(columns, m: int, rank: int):
    """A test of w in the span mod m of the sparse vectors `columns`.  With
    disjoint supports, w is in it when it is c·v on the support of each v
    and 0 off them; c is read from a w_t whose v_t has the order of v, as
    each nonzero entry of an orbit sum has (M/m_o times a unit).  Where a
    premise fails (a zero column has no such t), the test is a solve on
    one elimination of the dense columns."""
    owner, pivots = {}, []
    for i, v in enumerate(columns):
        d = math.gcd(m, *v.values())
        t = next((t for t, x in v.items() if math.gcd(m, x) == d), None)
        pivots.append(None if t is None else (t, d, pow(v[t] // d, -1, m // d)))
        owner.update(dict.fromkeys(v, i))
    if len(owner) < sum(map(len, columns)) or None in pivots:
        matrix = IntMatrix.from_columns([_dense(v, rank) for v in columns], nrows=rank)
        solver = _smith_reduce(matrix, m, {"U", "V"})
        return lambda w: solver.solve(_dense(w, rank)) is not None

    def contains(w: dict) -> bool:
        blocks = {owner.get(t) for t, x in w.items() if x % m}
        if None in blocks:
            return False
        for i in blocks:
            t, d, u = pivots[i]
            c = w.get(t, 0) // d * u  # c·v_t = w_t exactly when d divides w_t
            if any((c * x - w.get(s, 0)) % m for s, x in columns[i].items()):
                return False
        return True

    return contains


# ---------------------------------------------------------------------------
# the analysis of one datum: symbol basis, oracle and the checks between them
# ---------------------------------------------------------------------------


class BrauerAnalysis:
    """Everything the quasi-trivial case needs about one Galois datum, each
    piece computed once: a report for every coordinate pair (`reports`) and
    for each orbit representative (`orbits`), the pair module at level M, its
    fixed subgroup (`oracle`, with its generators), a sparse orbit sum for
    every pair (`sums`), and the declared symbol basis (`group`, `symbols`)."""

    def __init__(self, datum: GaloisDatum):
        orbits, reps = pair_orbits(datum)
        self.datum = datum
        self.reports = {
            pair: _orbit_report(datum, pair, orbit) for orbit in orbits for pair in orbit
        }
        self.orbits = [self.reports[pair] for pair in reps]
        self.module = pair_module(datum, datum.M)
        self.oracle = cohomology(datum.group, self.module, 0).group
        # the pair module's basis: e_pair is basis vector t
        self._index = {pair: t for t, pair in enumerate(itertools.combinations(range(datum.r), 2))}
        self.sums = {pair: self._orbit_sum(self.reports[pair]) for pair in self._index}
        self.group = FinAbGroup(
            0, invariant_factors([o.m_o for o in self.orbits if o.m_o > 1])
        )
        self.symbols = [_symbol(o) for o in self.orbits]
        self.agreement = (
            self.group.torsion == self.oracle.torsion and self.oracle.free_rank == 0
        )

    def _orbit_sum(self, report: OrbitReport) -> dict:
        """The coset sum over G/H of the translates g.e_pair = ±chi(g)^-1
        e_{g.pair}, scaled into Z/M so that it has exact order m_o, as
        {basis index: nonzero entry}: it lies on the orbit's pairs.

        H, the stabilizer of the unordered pair, is also the ordered one when
        the orbit is not quadratic, and gH determines g.pair: walking G in id
        order, the first g to reach each pair of the orbit is the
        representative `left_coset_reps` picks for its coset."""
        m, (i, j) = self.datum.M, report.pair
        scale = m // report.m_o
        total = {}
        for p, u in zip(self.datum.perm, self.datum.chi):  # G in id order
            a, b = p[i], p[j]
            t = self._index[(a, b) if a < b else (b, a)]
            if t not in total:
                total[t] = (scale if a < b else -scale) * pow(u, -1, m) % m
        return {t: x for t, x in total.items() if x}

    def failures(self) -> dict[str, str]:
        """The checks that fail, by name, each with the first thing that
        failed; empty when the declared basis is verified.

        structure: the declared group has the oracle's invariant factors.
        generation: every orbit sum is fixed and the sums span the oracle.
        orders: each orbit sum has exact order m_o.
        representative_independence: every pair of an orbit gives the same
        m_o and an orbit sum generating the same cyclic subgroup."""
        found = {
            "structure": self._structure(),
            "generation": self._generation(),
            "orders": self._orders(),
            "representative_independence": self._representative_independence(),
        }
        return {name: detail for name, detail in found.items() if detail}

    def _structure(self) -> str | None:
        if self.agreement:
            return None
        return f"declared {self.group.describe()}, oracle {self.oracle.describe()}"

    def _generation(self) -> str | None:
        m, rank = self.datum.M, self.module.rank
        # g.v = (v^T g^T)^T; fixed by the generators is fixed by G
        moved = [self.module.action[g].transpose() for g in self.datum.group.generators]
        for o in self.orbits:
            v = self.sums[o.pair]
            if any(IntMatrix((v,), 1, rank).mul(gt, m).nonzeros[0] != v for gt in moved):
                return f"{o.describe()}: orbit sum {_dense(v, rank)} is not fixed"
        in_span = _span_test([self.sums[o.pair] for o in self.orbits], m, rank)
        for gen in self.oracle.generators:
            if not in_span(dict(enumerate(gen))):
                return f"oracle generator {gen} is not in the span of the orbit sums"
        return None

    def _orders(self) -> str | None:
        for o in self.orbits:
            order = _vector_order(self.sums[o.pair], self.datum.M)
            if order != o.m_o:
                return f"{o.describe()}: orbit sum has order {order}"
        return None

    def _representative_independence(self) -> str | None:
        """A subgroup of the finite cyclic group <base> with the order of
        <base> is all of it: <alt> = <base> when alt is in <base> and has
        the order of base."""
        m = self.datum.M
        for o in self.orbits:
            base = self.sums[o.pair]
            in_base = _span_test([base], m, self.module.rank)
            order = _vector_order(base, m)
            for pair in o.orbit:
                alt, alt_m_o = self.sums[pair], self.reports[pair].m_o
                if alt_m_o != o.m_o:
                    return f"{o.describe()}: pair {_pair_str(pair)} has m_o={alt_m_o}"
                if not in_base(alt) or _vector_order(alt, m) != order:
                    return f"{o.describe()}: pair {_pair_str(pair)} generates another subgroup"
        return None
