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
checks that compare them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cohomology import cohomology
from .errors import RankTooSmallError
from .groups import GaloisDatum, pair_module
from .intlat import FinAbGroup, IntMatrix, invariant_factors, smith, solve


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
    seen = set()
    orbits = []
    reps = []
    for p in pairs:
        if p in seen:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for g in datum.group.elements():
                q2 = _act_pair(datum, g, q)
                if q2 not in orbit:
                    orbit.add(q2)
                    frontier.append(q2)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
        reps.append(min(orbit))
    return orbits, reps


def n_value(datum: GaloisDatum, subgroup_ids) -> int:
    """Largest divisor d of M with chi identically 1 mod d on the subgroup."""
    g = 0
    for h in subgroup_ids:
        g = math.gcd(g, datum.chi[h] - 1)
    return math.gcd(datum.M, g) if g else datum.M


def _orbit_report(datum: GaloisDatum, pair, orbit) -> OrbitReport:
    i, j = pair
    G = datum.group
    h_ordered = tuple(
        g for g in G.elements() if datum.perm[g][i] == i and datum.perm[g][j] == j
    )
    h_unordered = tuple(
        g for g in G.elements() if _act_pair(datum, g, pair) == pair
    )
    quadratic = len(h_unordered) != len(h_ordered)
    sigma = None
    if quadratic:
        sigma = min(g for g in h_unordered if g not in h_ordered)
    n = n_value(datum, h_ordered)
    if quadratic:
        npr = math.gcd(n, (1 + datum.chi[sigma]) % n if n > 1 else 0)
        if npr == 0:
            npr = n
        m_o = npr
    else:
        npr = None
        m_o = n
    return OrbitReport(
        pair, orbit, h_ordered, h_unordered, quadratic, n, sigma, npr, m_o
    )


def _symbol(report: OrbitReport) -> SymbolExpr:
    if report.quadratic:
        return SymbolExpr("II", report.pair, "y_j - y_i", report.m_o)
    return SymbolExpr("I", report.pair, "y_j", report.m_o)


def _vector_order(v, m: int) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x % m)
    g = math.gcd(g, m)
    return m // g if g else 1


# ---------------------------------------------------------------------------
# the analysis of one datum: symbol basis, oracle and the checks between them
# ---------------------------------------------------------------------------


class BrauerAnalysis:
    """Everything the quasi-trivial case needs about one Galois datum, each
    piece computed once: a report for every coordinate pair (`reports`) and
    for each orbit representative (`orbits`), the pair module at level M, its
    fixed subgroup (`oracle`, with its generators), an orbit sum for every
    pair (`sums`), and the declared symbol basis (`group`, `symbols`)."""

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

    def _orbit_sum(self, report: OrbitReport):
        """The coset sum over G/H of the translates g.e_pair = ±chi(g)^-1
        e_{g.pair}, scaled into Z/M so that it has exact order m_o.

        H, the stabilizer of the unordered pair, is also the ordered one when
        the orbit is not quadratic, and gH determines g.pair: walking G in id
        order, the first g to reach each pair of the orbit is the
        representative `left_coset_reps` picks for its coset."""
        datum, m = self.datum, self.datum.M
        i, j = report.pair
        total = [0] * self.module.rank
        reached = set()
        for g in datum.group.elements():
            image = _act_pair(datum, g, report.pair)
            if image not in reached:
                reached.add(image)
                sign = 1 if datum.perm[g][i] < datum.perm[g][j] else -1
                total[self._index[image]] += sign * pow(datum.chi[g], -1, m)
        scale = m // report.m_o
        return tuple((scale * x) % m for x in total)

    @property
    def orbit_sums(self) -> list:
        """The orbit sum of each orbit representative: the declared basis."""
        return [self.sums[o.pair] for o in self.orbits]

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
        for o in self.orbits:
            v = self.sums[o.pair]
            # the stabilizer of v is a subgroup: fixed by generators is fixed
            if any(tuple(self.module.act(g, v)) != v for g in self.datum.group.generators):
                return f"{o.describe()}: orbit sum {v} is not fixed"
        m = self.datum.M
        sums = IntMatrix.from_columns(self.orbit_sums)
        snf = smith(sums, m)
        for gen in self.oracle.generators:
            if solve(sums, gen, m, snf=snf) is None:
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
            column = IntMatrix.from_columns([base])
            snf = smith(column, m)
            order = _vector_order(base, m)
            for pair in o.orbit:
                alt, alt_m_o = self.sums[pair], self.reports[pair].m_o
                if alt_m_o != o.m_o:
                    return f"{o.describe()}: pair {_pair_str(pair)} has m_o={alt_m_o}"
                if solve(column, alt, m, snf=snf) is None or _vector_order(alt, m) != order:
                    return f"{o.describe()}: pair {_pair_str(pair)} generates another subgroup"
        return None
