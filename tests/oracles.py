"""Brute-force references, kept apart from the package for cross-checks.

The package answers every submodule question from one lattice: sums, meets
and ideal products are table lookups and the predicates are lattice queries.
This file keeps the definitions on member sets, so the tests compare two
independent computations.  The submodules themselves come from
closure_submodules, the closure enumeration the package's structural one
replaced; every sum, meet, ideal product and hull here is computed from
their member sets.

ModuleOracle holds the definitions for one module.  The search references
are the exhaustive subset loops the package's pruned depth-first search
replaced: every combination of candidates is tried, by size, in
``itertools.combinations`` order, and kept when it sums to the module and
passes the minimality test written here from the definitions.
"""

import itertools

from hollowlat.modules import Submodule


def _closure(module, seed, gens):
    members = set(seed)
    queue = list(members)
    while queue:
        x = queue.pop()
        for g in gens:
            y = module.add(x, g)
            if y not in members:
                members.add(y)
                queue.append(y)
    return members


def _greedy_generators(module, members):
    """Each member, in ascending order, that the earlier ones do not generate."""
    gens = []
    current = {module.zero}
    for m in sorted(members):
        if m not in current:
            gens.append(m)
            current = _closure(module, current, (m,))
    return tuple(gens)


def closure_submodules(module):
    """All submodules by closure, in canonical order (order, then members).

    Every cyclic submodule <g> is closed from scratch, then every found
    submodule is closed with the generators of every other one until no new
    member set appears.
    """
    found = {}  # members -> generators

    def record(members):
        if members in found:
            return False
        found[members] = _greedy_generators(module, members)
        return True

    record(frozenset({module.zero}))
    for g in range(module.size):
        record(frozenset(_closure(module, {module.zero}, (g,))))
    work = list(found)
    while work:
        a = work.pop()
        for gens in list(found.values()):
            members = frozenset(_closure(module, a, gens))
            if record(members):
                work.append(members)
    ordered = sorted(found, key=lambda m: (len(m), sorted(m)))
    return tuple(Submodule(module, m, found[m], i) for i, m in enumerate(ordered))


class ModuleOracle:
    """Submodule arithmetic and predicates of one module, on member sets."""

    def __init__(self, module):
        self.module = module
        self.subs = closure_submodules(module)
        self.zero = frozenset({module.zero})
        self.whole = frozenset(range(module.size))
        self.divisors = module.ring.divisors
        self.images = {d: self.ideal_product(d, self.whole) for d in self.divisors}
        self._sums = {}

    # -- arithmetic -------------------------------------------------------------

    def add(self, a, b):
        """A + B: every sum of a member of A and a member of B."""
        got = self._sums.get((a, b))
        if got is None:
            got = frozenset(self.module.add(x, y) for x in a for y in b)
            self._sums[(a, b)] = got
        return got

    def sum(self, parts):
        total = self.zero
        for part in parts:
            total = self.add(total, part)
        return total

    def ideal_product(self, d, a):
        """(d)A: every d-fold multiple of a member of A."""
        return frozenset(self.module.smul(d, x) for x in a)

    def hull(self, n):
        """Intersection of the images IM over the minimal ideals I with N <= IM."""
        covers = [d for d in self.divisors if n <= self.images[d]]
        # (e) lies in (d) exactly when d divides e.
        minimal = [d for d in covers if not any(e != d and e % d == 0 for e in covers)]
        hull = self.whole
        for d in minimal:
            hull = hull & self.images[d]
        return hull

    # -- predicates ---------------------------------------------------------------

    def ps_hollow(self, n):
        """N <= IM + L forces N <= IM or N <= L, for every ideal I and submodule L."""
        return all(n <= img or n <= low.members or not n <= self.add(img, low.members)
                   for img in self.images.values() for low in self.subs)

    def second(self, n):
        """Every ideal acts on N as identity or as zero."""
        return all(self.ideal_product(d, n) in (n, self.zero) for d in self.divisors)

    def hollow(self, n):
        """No two proper submodules of N add up to N."""
        inside = [s.members for s in self.subs if s.members <= n]
        return all(a == n or b == n or self.add(a, b) != n
                   for a, b in itertools.product(inside, inside))

    def small(self, n, ambient=None):
        """N + L = ambient forces L = ambient, for L inside ambient (default M)."""
        ambient = self.whole if ambient is None else ambient
        return all(low.members == ambient or self.add(n, low.members) != ambient
                   for low in self.subs if low.members <= ambient)

    def _distributes(self, firsts):
        return all(low.members & self.add(k, m.members)
                   == self.add(low.members & k, low.members & m.members)
                   for k in firsts for m in self.subs for low in self.subs)

    def distributive(self):
        """L & (K + N) = (L & K) + (L & N) for all submodules K, N, L."""
        return self._distributes([s.members for s in self.subs])

    def pseudo_distributive(self):
        """The distributive law with K restricted to the ideal images IM."""
        return self._distributes(set(self.images.values()))

    # -- searches -------------------------------------------------------------------

    def irredundant(self, combo):
        return not any(combo[j].members <= self.sum(s.members for s in combo[:j] + combo[j + 1:])
                       for j in range(len(combo)))

    def hulls_pairwise_incomparable(self, combo):
        hulls = [self.hull(s.members) for s in combo]
        return not any(a <= b or b <= a for a, b in itertools.combinations(hulls, 2))

    def search(self, candidates, keep, cap):
        out = []
        for size in range(1, cap + 1):
            for combo in itertools.combinations(candidates, size):
                if self.sum(s.members for s in combo) == self.whole and keep(combo):
                    out.append(combo)
        return out


def minimal_representation_families(module, max_terms=None):
    """Summand tuples of all minimal hollow representations, as the search lists them."""
    oracle = ModuleOracle(module)
    hollows = [s for s in oracle.subs if not s.is_zero and oracle.ps_hollow(s.members)]
    cap = len(hollows) if max_terms is None else min(max_terms, len(hollows))
    return oracle.search(
        hollows,
        lambda c: oracle.hulls_pairwise_incomparable(c) and oracle.irredundant(c),
        cap)


def minimal_second_families(module):
    """All irredundant families of second submodules summing to the module."""
    oracle = ModuleOracle(module)
    seconds = [s for s in oracle.subs if not s.is_zero and oracle.second(s.members)]
    return oracle.search(seconds, oracle.irredundant, len(seconds))
