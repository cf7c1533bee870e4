"""Brute-force references, kept apart from the package for cross-checks.

The package answers every submodule question from one lattice: sums, meets
and ideal products are table lookups and the predicates are lattice queries.
This file keeps the definitions on member sets, so the tests compare two
independent computations.  The submodules themselves come from
closure_submodules, the closure enumeration the package's structural one
replaced; every sum, meet, ideal product and hull here is computed from
their member sets.

ModuleOracle holds the definitions for one module, among them the profile
(covers, minimal covers, hull), the annihilator and strong irreducibility
inside a submodule that the package reads off the ideal action, its
annihilator table and a lower interval.  The
hollow-ideal reference tries every pair of divisors.  The search references
are the exhaustive subset loops the package's pruned depth-first search
replaced: every combination of candidates is tried, by size, in
``itertools.combinations`` order, and kept when it sums to the module and
passes the minimality test written here from the definitions.  The lattice
search reference is the same loop over the elements of any lattice, with
joins and inclusion read one pair at a time.

The lifting reference is the loop the package ran before it read smallness
off the interval [K, M]: for each direct summand K inside N it builds the
coset module M/K and projects N into it.  Whether the image is small is then
decided here, from the member sets of the quotient's submodules: no proper
one adds up with it to the whole quotient.

The submodule lattice reference is the construction the bridge used before
it read the order rows off containment masks: every pair of submodules whose
member sets are nested, closed and checked by build_lattice.  The other
lattice references are the per-element quantifier loops that decided each
element kind before the package computed whole spectra from violation
bitmasks, the distributivity loops that called meet and join at each
instance before the package read table rows, and the class-based quotient
and the rebuilt lower interval that the package replaced by restrictions of
the lattice to an interval.

The order references are the definitions the lattice layer's kernels must
meet in any numbering: the closure of a set of pairs is what a search from
each element reaches, a closed order has a cycle exactly when two of its
rows are equal (the first such row is the one the package names), and a
cover is a pair x < y with nothing strictly between, listed in ascending
order.

The random action reference is the generator loop the package ran before it
read each lower bound off a row: it marks the entries assigned so far and
scans the poset order for the elements below s.

small_lattices lists every lattice up to a given size, one per isomorphism
class, as a corpus that no random draw can miss a case of.  It decides
lattice-ness from the definition, a least common upper and a greatest
common lower bound for every pair, not with build_lattice, so the tests can
check that build_lattice accepts each one.
"""

import functools
import itertools
import math

from hollowlat.lattice import _bits, build_lattice, make_action
from hollowlat.modules import (
    FiniteModule,
    Ring,
    Submodule,
    enumerate_submodules,
    image_in_quotient,
    is_direct_summand,
    quotient_module,
    submodule_lattice,
    submodules_within,
)
from hollowlat.spectra import UPPER_KINDS, random_instance


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

    def covers(self, n):
        """The divisors d with N <= (d)M, ascending."""
        return [d for d in self.divisors if n <= self.images[d]]

    def min_covers(self, n):
        """The covers d whose ideal contains no other cover's ideal."""
        covers = self.covers(n)
        # (e) lies in (d) exactly when d divides e.
        return [d for d in covers if not any(e != d and e % d == 0 for e in covers)]

    def hull(self, n):
        """Intersection of the images IM over the minimal ideals I with N <= IM."""
        hull = self.whole
        for d in self.min_covers(n):
            hull = hull & self.images[d]
        return hull

    def annihilator(self, n):
        """The first divisor d, ascending, with (d)N = 0; (d) is the annihilator of N."""
        return next(d for d in self.divisors if self.ideal_product(d, n) == self.zero)

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

    def strongly_irreducible_within(self, x, ambient):
        """A & B <= X forces A <= X or B <= X, for all submodules A, B inside ambient."""
        inside = [s.members for s in self.subs if s.members <= ambient]
        return all(a <= x or b <= x
                   for a, b in itertools.product(inside, inside) if a & b <= x)

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


def lifting_reference(module):
    """Every submodule N contains a direct summand K with (N + K)/K small in M/K."""
    def small_image(sub, part):
        quot = quotient_module(module, part)
        image = image_in_quotient(quot, sub).members
        # A sum of two member sets has at most the product of their sizes.
        return not any(len(image) * other.order >= quot.size > other.order
                       and len({quot.add(x, y) for x in image for y in other.members})
                       == quot.size
                       for other in enumerate_submodules(quot))

    return all(any(small_image(sub, part)
                   for part in submodules_within(sub) if is_direct_summand(part))
               for sub in enumerate_submodules(module))


def s_lifting_reference(module):
    """Lifting, with every maximal hollow submodule second, on member sets."""
    if not lifting_reference(module):
        return False
    oracle = ModuleOracle(module)
    hollows = [s.members for s in oracle.subs if not s.is_zero and oracle.hollow(s.members)]
    return all(oracle.second(h) for h in hollows if not any(h < g for g in hollows))


def hollow_ideal_reference(n, d):
    """(d) in Z/nZ is hollow: (a) + (b) = (d) forces (a) = (d) or (b) = (d).

    Every pair of divisors a, b of n is tried; (a) + (b) is (gcd(a, b)).
    """
    divs = [e for e in range(1, n + 1) if n % e == 0]
    return all(a == d or b == d
               for a, b in itertools.product(divs, divs) if math.gcd(a, b) == d)


# -- lattice references ----------------------------------------------------------

def submodule_lattice_reference(module):
    """The lattice of the enumerated submodules from the inclusions of their member sets."""
    subs = enumerate_submodules(module)
    return build_lattice(len(subs), [(a.index, b.index)
                                     for a in subs for b in subs if a.members <= b.members])


# Submodule lattices the lattice references are compared on, as (ring, factors):
# Z_12, Z_360, Z_2^3, Z_2^4, Z_6 + Z_6 and Z_8 + Z_4.
REFERENCE_MODULES = ((12, (12,)), (360, (360,)), (2, (2, 2, 2)), (2, (2, 2, 2, 2)),
                     (6, (6, 6)), (8, (8, 4)))
REFERENCE_SEEDS = range(150)


def reference_actions():
    """(label, action) pairs: random_instance(seed, 16, 6), then the module lattices."""
    for seed in REFERENCE_SEEDS:
        yield f"random_instance({seed}, 16, 6)", random_instance(seed, 16, 6)
    for ring, factors in REFERENCE_MODULES:
        module = FiniteModule(Ring(ring), factors)
        yield module.describe(), submodule_lattice(module)[1]

def is_kind_reference(action, x, kind):
    """Whether x has the kind, by exhausting the quantifiers of its definition at x."""
    lat = action.lattice
    rng = range(lat.size)
    srange = range(action.poset.size)
    top = action.top_image
    if kind == "irreducible":
        return all(a == x or b == x
                   for a, b in itertools.product(rng, rng) if lat.meet(a, b) == x)
    if kind == "strongly_irreducible":
        return all(lat.le(a, x) or lat.le(b, x)
                   for a, b in itertools.product(rng, rng) if lat.le(lat.meet(a, b), x))
    if kind == "ps_irreducible":
        return all(lat.le(top(s), x) or lat.le(y, x)
                   for s, y in itertools.product(srange, rng)
                   if lat.le(lat.meet(top(s), y), x))
    if kind == "prime":
        return all(lat.le(top(s), x) or lat.le(y, x)
                   for s, y in itertools.product(srange, rng)
                   if lat.le(action.apply(s, y), x))
    if kind == "coprime":
        return all(lat.le(top(s), x) or lat.join(top(s), x) == lat.top for s in srange)
    if kind == "hollow":
        return all(a == x or b == x
                   for a, b in itertools.product(rng, rng) if lat.join(a, b) == x)
    if kind == "strongly_hollow":
        return all(lat.le(x, a) or lat.le(x, b)
                   for a, b in itertools.product(rng, rng) if lat.le(x, lat.join(a, b)))
    if kind == "ps_hollow":
        return all(lat.le(x, top(s)) or lat.le(x, y)
                   for s, y in itertools.product(srange, rng)
                   if lat.le(x, lat.join(top(s), y)))
    if kind == "second":
        return all(action.apply(s, x) in (x, lat.bottom) for s in srange)
    assert kind == "first", kind
    return all(action.apply(s, x) == lat.bottom or y == lat.bottom
               for s, y in itertools.product(srange, rng)
               if action.apply(s, y) == lat.bottom and lat.le(y, x))


def spectrum_reference(action, kind):
    """Sorted elements of the kind, each decided on its own."""
    lat = action.lattice
    excluded = lat.top if kind in UPPER_KINDS else lat.bottom
    return tuple(x for x in range(lat.size)
                 if x != excluded and is_kind_reference(action, x, kind))


def join_distributive_reference(action):
    """s.(y join z) = (s.y) join (s.z) at every instance, through apply and join."""
    lat = action.lattice
    return all(action.apply(s, lat.join(y, z)) == lat.join(action.apply(s, y), action.apply(s, z))
               for s in range(action.poset.size)
               for y, z in itertools.combinations_with_replacement(lat.elements(), 2))


def meets_distribute_reference(lat, pairs):
    """low meet (k join n) = (low meet k) join (low meet n) at every pair and low."""
    return all(lat.meet(low, lat.join(k, n)) == lat.join(lat.meet(low, k), lat.meet(low, n))
               for k, n in pairs for low in lat.elements())


def axioms_hold(lattice, poset, table):
    """A1, A2 and A3 on every comparable pair, not only on covering pairs."""
    return (all(lattice.le(table[s][x], x) for s in range(poset.size) for x in lattice.elements())
            and all(lattice.le(table[s][x], table[s][y])
                    for s in range(poset.size) for x, y in lattice.pairs())
            and all(lattice.le(table[s1][x], table[s2][x])
                    for s1, s2 in poset.pairs() for x in lattice.elements()))


def lower_interval_reference(action, x):
    """{y : y <= x} rebuilt from its order pairs, with the action validated."""
    lat = action.lattice
    elems = sorted(_bits(lat.down[x]))
    index = {y: i for i, y in enumerate(elems)}
    sub = build_lattice(len(elems), [(index[y], index[z])
                                     for y in elems for z in elems if lat.le(y, z)])
    table = [[index[action.apply(s, y)] for y in elems] for s in range(action.poset.size)]
    return sub, make_action(sub, action.poset, table)


def _matches_below(lat, x, y, z):
    # Whether every y' <= y has some z' <= z with y' join x = z' join x.
    for yp in _bits(lat.down[y]):
        target = lat.join(yp, x)
        if not any(lat.join(zp, x) == target for zp in _bits(lat.down[z])):
            return False
    return True


def quotient_reference(action, x):
    """Quotient at x from its definition: classes, class order, induced action.

    y, z >= x are identified when each y' <= y matches some z' <= z with
    y' join x = z' join x, and symmetrically.  Classes are numbered by
    ascending least member.  Meets, joins and the action are checked to agree
    from every choice of representatives.
    """
    lat = action.lattice
    classes = []
    for y in sorted(_bits(lat.up[x])):
        for cls in classes:
            if _matches_below(lat, x, y, cls[0]) and _matches_below(lat, x, cls[0], y):
                cls.append(y)
                break
        else:
            classes.append([y])
    classes.sort(key=lambda cls: cls[0])
    class_map = {y: i for i, cls in enumerate(classes) for y in cls}
    count = range(len(classes))
    sub = build_lattice(len(classes), [
        (a, b) for a in count for b in count
        if _matches_below(lat, x, classes[a][0], classes[b][0])])
    for a, b in itertools.product(count, count):
        for ya, yb in itertools.product(classes[a], classes[b]):
            assert class_map[lat.meet(ya, yb)] == sub.meet(a, b), (a, b)
            assert class_map[lat.join(ya, yb)] == sub.join(a, b), (a, b)
    table = []
    for s in range(action.poset.size):
        images = [{class_map[lat.join(action.apply(s, y), x)] for y in cls} for cls in classes]
        assert all(len(image) == 1 for image in images), s
        table.append([image.pop() for image in images])
    return sub, make_action(sub, action.poset, table), class_map


def random_action_reference(rng, lattice, poset, star_shaped=False):
    """spectra.random_action as an assigned-entries scan; the same rng calls."""
    sorder = poset.linear_extension()
    lorder = sorted(range(lattice.size),
                    key=lambda x: (bin(lattice.down[x]).count("1"), x))
    if star_shaped:
        tops = {}
        for s in sorder:
            lower = lattice.bottom
            for t in sorder:
                if t == s:
                    break
                if poset.le(t, s):
                    lower = lattice.join(lower, tops[t])
            choices = sorted(_bits(lattice.up[lower]))
            tops[s] = rng.choice(choices)
        table = [[lattice.meet(tops[s], x) for x in range(lattice.size)]
                 for s in range(poset.size)]
        return make_action(lattice, poset, table)

    table = [[0] * lattice.size for _ in range(poset.size)]
    assigned = [[False] * lattice.size for _ in range(poset.size)]
    for s in sorder:
        for x in lorder:
            lower = lattice.bottom
            for xp in _bits(lattice.down[x]):
                if assigned[s][xp]:
                    lower = lattice.join(lower, table[s][xp])
            for t in sorder:
                if t == s:
                    break
                if poset.le(t, s) and assigned[t][x]:
                    lower = lattice.join(lower, table[t][x])
            choices = sorted(m for m in _bits(lattice.up[lower]) if lattice.le(m, x))
            table[s][x] = rng.choice(choices)
            assigned[s][x] = True
    return make_action(lattice, poset, table)


def closure_reference(size, pairs):
    """Up rows of the reflexive-transitive closure: what a search from each element reaches."""
    succ = [set() for _ in range(size)]
    for i, j in pairs:
        succ[i].add(j)
    rows = []
    for i in range(size):
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()] - seen:
                seen.add(j)
                stack.append(j)
        rows.append(sum(1 << j for j in seen))
    return rows


def cycle_message_reference(rows):
    """The antisymmetry error for closed rows, or None: the first row equal to an earlier one."""
    for i, row in enumerate(rows):
        if row in rows[:i]:
            return f"antisymmetry fails on {rows.index(row)} and {i}"
    return None


def covers_reference(order):
    """(x, y) with x < y and no z strictly between, ascending, from le alone."""
    elems = order.elements()
    return [(x, y) for x in elems for y in elems
            if x != y and order.le(x, y)
            and not any(order.le(x, z) and order.le(z, y) for z in elems if z not in (x, y))]


def irredundant_families_reference(lattice, candidates, compatible=None, max_terms=None):
    """Every combination of candidates, by size, that the search must list.

    A combination is kept when it joins to the top, no member lies below the
    join of the others, and compatible holds for every pair, earlier member
    first, when it is given.
    """
    def join(elems):
        return functools.reduce(lattice.join, elems, lattice.bottom)

    cap = len(candidates) if max_terms is None else min(max_terms, len(candidates))
    out = []
    for size in range(1, cap + 1):
        for combo in itertools.combinations(candidates, size):
            if join(combo) != lattice.top:
                continue
            if any(lattice.le(combo[j], join(combo[:j] + combo[j + 1:])) for j in range(size)):
                continue
            if compatible is None or all(compatible(a, b)
                                         for a, b in itertools.combinations(combo, 2)):
                out.append(combo)
    return out


def _is_lattice_reference(up):
    """Whether every pair has a least common upper and a greatest common lower bound."""
    size = len(up)
    down = [sum(1 << x for x in range(size) if up[x] >> y & 1) for y in range(size)]

    def has_least(bounds, rows):
        # Some bound lies below (above) every other one.
        return any(all(rows[c] >> b & 1 for b in _bits(bounds)) for c in _bits(bounds))

    return all(has_least(up[a] & up[b], up) and has_least(down[a] & down[b], down)
               for a in range(size) for b in range(a + 1, size))


def _canonical_rows(up):
    """The least tuple of up rows, relabelled along a linear extension, over all of them."""
    size = len(up)
    down = [sum(1 << x for x in range(size) if up[x] >> y & 1) for y in range(size)]
    best = []

    def extend(order, placed):
        if len(order) == size:
            position = {v: i for i, v in enumerate(order)}
            rows = tuple(sum(1 << position[w] for w in _bits(up[v])) for v in order)
            if not best or rows < best[0]:
                best[:] = [rows]
            return
        for v in range(size):
            if not placed >> v & 1 and down[v] & ~placed == 1 << v:
                extend(order + [v], placed | 1 << v)

    extend([], 0)
    return best[0]


def small_lattices(max_size):
    """Every lattice of 1 to max_size elements up to isomorphism, by size.

    Entry n lists the lattices of n elements, each as its tuple of up rows in
    a numbering along a linear extension, so 0 is the bottom.  A lattice of
    three or more elements less an atom is still a lattice, so each one is a
    smaller lattice with a new atom put below a nonempty up-set U that misses
    the bottom (Heitzig and Reinhold, "Counting finite lattices", Algebra
    Universalis 48, 2002).  Each is kept once, in the form _canonical_rows
    gives it.
    """
    corpus = [[], [(1,)], [(0b11, 0b10)]]
    for size in range(3, max_size + 1):
        atom, found = size - 1, set()
        for up in corpus[-1]:
            for mask in range(2, 1 << atom, 2):
                if any(up[x] & ~mask for x in _bits(mask)):
                    continue  # not an up-set
                rows = (up[0] | 1 << atom,) + up[1:] + (1 << atom | mask,)
                if _is_lattice_reference(rows):
                    found.add(_canonical_rows(rows))
        corpus.append(sorted(found))
    return corpus[:max_size + 1]
