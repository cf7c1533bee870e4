"""Finite modules over Z/nZ: arithmetic, submodules, and module-class predicates.

A module is a direct sum of cyclic groups Z/d_iZ with every d_i dividing the
ring modulus n, so scalars act as integer multiples and submodules coincide
with subgroups.  Elements are numbered in mixed radix over the factors, and
only FiniteModule knows the numbering: coordinates(i) gives the residues of
element i and element(coords) the index of a residue tuple, and addition,
scaling and element names go through the two.

The submodules are enumerated from the group structure: the module lists
its subgroups directly, one per basis in Hermite normal form over its own
factors (enumerate_submodules), which keeps containing[x], the mask of the
submodules that hold element x.  Canonical order sorts by order first, so
it is a linear extension of inclusion, and the least submodule holding some
elements is the lowest set bit of the AND of their masks.  Generators,
spans and the lattice (submodule_lattice) are read off these masks, and so
is the ideal action: for a prime p, pN is the least submodule holding
smul(p, g) for the generators g of N.  Everything
downstream is a query on that lattice: inclusion reads its order rows, sums
and intersections its join and meet tables, ideal products its action table,
and the class predicates are lattice and spectrum queries.  The annihilators
are a per-index table memoized on the module, read off the action table in
one pass, and each ring builds its ideals once, so callers that work on
lattice indices (the ps-hollow checkers) need no Submodule or Ideal per
query.  A quotient M/K is the interval [K, M] of that lattice, so the
lifting predicate reads smallness in upper intervals and builds no
quotient.  The explicit coset structure (CosetModule, quotient_module) stays
public for the tests to compare against; its submodules are the images of
the submodules of M that contain K (the correspondence theorem).  The
brute-force definitions on member sets live in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property

from .lattice import (
    FiniteLattice,
    PosetAction,
    _bits,
    build_poset,
    irredundant_families,
    is_multiplication,
    make_action,
    memo,
)
from .spectra import is_kind, spectrum, spectrum_mask

DEFAULT_ORDER_BOUND = 4096


class ModuleError(Exception):
    pass


class BoundExceeded(ModuleError):
    pass


class ZeroSubmodule(ModuleError):
    """A nonzero submodule was required."""


@cache
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, v_p(n)) by ascending prime p, by trial division up to sqrt(n)."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            out.append((p, v))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@cache
def _divisors(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, v in _factor(n):
        divs = [d * p ** k for d in divs for k in range(v + 1)]
    return tuple(sorted(divs))


@dataclass(frozen=True)
class Ring:
    """The ring Z/nZ.  Its ideals are (d) for the divisors d of n."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("modulus must be at least 2")

    @property
    def divisors(self) -> tuple[int, ...]:
        return _divisors(self.n)

    @property
    def primes(self) -> tuple[int, ...]:
        """The primes dividing n, ascending; their ideals generate all the others."""
        return tuple(p for p, _ in _factor(self.n))

    def ideals(self) -> tuple["Ideal", ...]:
        """The ideals (d) by ascending divisor d; ideal j is poset element j of an action."""
        return self._ideals

    @cached_property
    def _ideals(self) -> tuple["Ideal", ...]:
        # Built and validated once per ring; the profiles and annihilators
        # hand out these objects.
        return tuple(Ideal(self, d) for d in self.divisors)


@dataclass(frozen=True)
class Ideal:
    """The ideal dZ/nZ for a divisor d of n; d = n is the zero ideal."""

    ring: Ring
    d: int

    def __post_init__(self):
        if not (1 <= self.d <= self.ring.n and self.ring.n % self.d == 0):
            raise ValueError(f"{self.d} is not a divisor of {self.ring.n}")

    @property
    def is_zero(self) -> bool:
        return self.d == self.ring.n

    @property
    def name(self) -> str:
        return "(0)" if self.is_zero else f"({self.d})"


def ideal_set_names(ideals) -> str:
    return "{" + ",".join(i.name for i in sorted(ideals, key=lambda i: i.d)) + "}"


class FiniteModule:
    """A finite Z/nZ-module given as a direct sum of cyclic groups.

    Elements are residue tuples, identified by their index in the lexicographic
    enumeration (coordinates, element); index 0 is the zero element.
    """

    def __init__(self, ring: Ring, factors, bound: int = DEFAULT_ORDER_BOUND):
        factors = tuple(int(d) for d in factors)
        if not factors:
            raise ValueError("at least one cyclic factor is required")
        for d in factors:
            if d < 2:
                raise ValueError(f"cyclic factor {d} must be at least 2")
            if ring.n % d != 0:
                raise ValueError(f"cyclic factor {d} does not divide the modulus {ring.n}")
        order = math.prod(factors)
        if order > bound:
            raise BoundExceeded(f"module order {order} exceeds bound {bound}")
        self.ring = ring
        self.factors = factors
        self.size = order
        # Place values of the mixed radix: an element's index is the sum of its
        # coordinates times these.
        self._place = tuple(math.prod(factors[i + 1:]) for i in range(len(factors)))
        self.cache: dict = {}  # the values memoized on the module (see lattice.memo)

    zero = 0

    def coordinates(self, i: int) -> tuple[int, ...]:
        """The residues of element i, one per factor."""
        return tuple([i // w % d for d, w in zip(self.factors, self._place)])

    def element(self, coords) -> int:
        """The index of the element with these residues, each reduced mod its factor."""
        i = 0
        for c, d in zip(coords, self.factors):
            i = i * d + c % d
        return i

    def add(self, i: int, j: int) -> int:
        return self.element(map(operator.add, self.coordinates(i), self.coordinates(j)))

    def smul(self, r: int, i: int) -> int:
        return self.element([r * x for x in self.coordinates(i)])

    def element_name(self, i: int) -> str:
        coords = self.coordinates(i)
        if len(coords) == 1:
            return str(coords[0])
        return "(" + ",".join(map(str, coords)) + ")"

    def describe(self) -> str:
        return f"ring {self.ring.n} module {' '.join(str(d) for d in self.factors)}"

    def __repr__(self):
        return f"FiniteModule({self.describe()!r})"


class CosetModule:
    """Quotient of a module by a submodule, as an explicit coset structure.

    Cosets are numbered by ascending least member of the base module, so the
    zero coset has index 0.  The structure quacks like a FiniteModule for all
    the submodule machinery.
    """

    def __init__(self, base, kernel: "Submodule"):
        if kernel.module is not base:
            raise ValueError("kernel does not live in the given module")
        proj = [-1] * base.size
        reps = []
        for x in range(base.size):
            if proj[x] >= 0:
                continue
            idx = len(reps)
            reps.append(x)
            for k in kernel.members:
                proj[base.add(x, k)] = idx
        self.base = base
        self.kernel = kernel
        self.ring = base.ring
        self.size = len(reps)
        self.reps = tuple(reps)
        self._proj = tuple(proj)
        self.cache: dict = {}

    zero = 0

    def add(self, i: int, j: int) -> int:
        return self._proj[self.base.add(self.reps[i], self.reps[j])]

    def smul(self, r: int, i: int) -> int:
        return self._proj[self.base.smul(r, self.reps[i])]

    def project(self, x: int) -> int:
        return self._proj[x]

    def element_name(self, i: int) -> str:
        return self.base.element_name(self.reps[i]) + "~"

    def describe(self) -> str:
        return f"{self.base.describe()} / {self.kernel.name}"

    def __repr__(self):
        return f"CosetModule({self.describe()!r})"


@dataclass(frozen=True)
class Submodule:
    """A submodule: canonical member set, greedy generator list, lattice index.

    The index is the submodule's position in enumerate_submodules(module),
    which is also its element identifier in submodule_lattice(module).
    """

    module: object
    members: frozenset[int]
    generators: tuple[int, ...]
    index: int

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_zero(self) -> bool:
        return self.order == 1

    @cached_property
    def name(self) -> str:
        mod = self.module
        if isinstance(mod, FiniteModule) and len(mod.factors) == 1:
            return "(0)" if self.is_zero else f"({self.generators[0]})"
        if self.is_zero:
            return "0"
        return "<" + ",".join(mod.element_name(g) for g in self.generators) + ">"

    def __repr__(self):
        return f"Submodule({self.name})"


def _holding(containing: list[int], elements) -> int:
    # The mask of the submodules that hold all the elements; all hold zero.
    held = containing[0]
    for x in elements:
        held &= containing[x]
    return held


def _least(containing: list[int], elements) -> int:
    # The least submodule holding the elements lies in all the others, and
    # canonical order extends inclusion, so it is the lowest bit of the mask.
    held = _holding(containing, elements)
    return (held & -held).bit_length() - 1


def span(module, gens) -> Submodule:
    """Least submodule containing the given elements (additive closure)."""
    # enumerate_submodules runs first, so every first enumeration goes through it.
    return enumerate_submodules(module)[_least(_enumeration(module)[1], gens)]


def whole_module(module) -> Submodule:
    return enumerate_submodules(module)[-1]


def enumerate_submodules(module) -> tuple[Submodule, ...]:
    """All submodules, sorted by (order, member set).

    A FiniteModule lists its subgroups directly, one per basis in Hermite
    normal form over its factors (_subgroups), whatever primes divide its
    order.  The submodules of a quotient M/K are the images of the
    submodules of M that contain K.  The result is memoized on the module,
    with the masks containing[x] of the submodules holding each element x
    (_enumeration).
    """
    return _enumeration(module)[0]


@memo
def _enumeration(module) -> tuple[tuple[Submodule, ...], list[int]]:
    """The submodules in canonical order, and the masks containing[x].

    Each member set is sorted once, for its key and for its generator scan;
    two member sets never share a key, so the sets themselves are never
    compared.  The scan of submodule i stops once the generators span it:
    from then on every member lies in it and adds no generator.
    """
    ranked = sorted([(len(m), sorted(m), m) for m in _member_sets(module)])
    ordered = [members for *_, members in ranked]
    containing = [0] * module.size
    for i, members in enumerate(ordered):
        for x in members:
            containing[x] |= 1 << i
    subs = []
    for i, (_, ascending, members) in enumerate(ranked):
        # held is _holding(containing, gens), narrowed by one AND per generator.
        gens, held, least = [], containing[0], 0
        for m in ascending:
            if least == i:
                break
            if m not in ordered[least]:
                gens.append(m)
                held &= containing[m]
                least = (held & -held).bit_length() - 1
        subs.append(Submodule(module, members, tuple(gens), i))
    return tuple(subs), containing


def _member_sets(module) -> list[frozenset[int]]:
    """Member sets of all submodules, in no particular order."""
    if isinstance(module, CosetModule):
        # The correspondence theorem: the submodules of M/K are the images of
        # the submodules of M that contain K, the up row of K.
        subs, containing = _enumeration(module.base)
        return [frozenset(map(module.project, subs[i].members))
                for i in _bits(_holding(containing, module.kernel.generators))]
    return _subgroups(module.factors)


def _subgroups(factors) -> list[frozenset[int]]:
    """Member sets of all subgroups of Z/f_1 + ... + Z/f_k, one per Hermite normal form.

    A subgroup H is the image of the lattice L of integer vectors that map
    into it, and L holds every f_i e_i.  L has exactly one basis in Hermite
    normal form: upper-triangular rows, each h_ii dividing f_i, each entry
    right of the diagonal below the diagonal entry of its column (Cohen,
    GTM 138, 2.4).  The rows are chosen from the last up, and the rows below
    row i span the vectors of L that are zero up to position i.  So a row i
    extends them exactly when L holds f_i e_i, that is, when (f_i / h_ii)
    row_i, which differs from f_i e_i only right of position i, reduces to
    zero against them: one back-substitution.  Each subgroup is listed once,
    with no closure.

    The members of the rows from i on are the cosets of the rows below
    translated along c row_i for c < f_i / h_ii: position i holds c h_ii and
    each coset is one pass of the tail's translation map over the last.  The
    rows below are shared by every row chosen above them, so each member
    list is built once.  A translation acts on each coordinate on its own,
    so its map over the tail sums one rotated column per factor, in index
    order; the maps are built on first use and dropped when the call returns.
    Members are read out of one shared list of the element ints, so the
    sets share their members instead of each holding its own copies.
    """
    k = len(factors)
    place = [math.prod(factors[i + 1:]) for i in range(k)]
    elements = list(range(math.prod(factors)))
    found = []

    @cache
    def translation(i, tail):
        # add(x, tail) for every x that is zero up to position i.
        columns = [[(x + a) % f * w for x in range(f)]
                   for a, f, w in zip(tail, factors[i + 1:], place[i + 1:])]
        return list(map(sum, itertools.product(*columns)))

    def extend(i, rows, below):
        # rows: the Hermite rows i+1, ..., k-1, each from its diagonal on;
        # below: the members of their span.
        if i < 0:
            found.append(frozenset(below))
            return
        f = factors[i]
        for h in _divisors(f):
            for tail in itertools.product(*(range(row[0]) for row in rows)):
                v = [f // h * t for t in tail]
                for r, row in enumerate(rows):
                    q, rem = divmod(v[r], row[0])
                    if rem:
                        break
                    for s in range(r + 1, len(v)):
                        v[s] -= q * row[s - r]
                else:
                    cosets = [below]
                    if any(tail):
                        move = translation(i, tail).__getitem__
                        for _ in range(1, f // h):
                            cosets.append(list(map(move, cosets[-1])))
                    else:
                        cosets *= f // h
                    offsets = range(0, f * place[i], h * place[i])
                    extend(i - 1, ((h, *tail), *rows),
                           [elements[c + y] for c, coset in zip(offsets, cosets) for y in coset])

    extend(k - 1, (), [0])
    return found


def submodules_within(bound_sub: Submodule) -> tuple[Submodule, ...]:
    """All submodules of the ambient module contained in the given one."""
    subs, lat, _ = _bridge(bound_sub.module)
    return tuple(subs[i] for i in _bits(lat.down[bound_sub.index]))


def sum_of(a: Submodule, b: Submodule) -> Submodule:
    if a.module is not b.module:
        raise ValueError("submodules live in different modules")
    subs, lat, _ = _bridge(a.module)
    return subs[lat.join(a.index, b.index)]


def sum_all(module, summands) -> Submodule:
    subs, lat, _ = _bridge(module)
    return subs[_join_all(lat, [s.index for s in summands])]


def _join_all(lat: FiniteLattice, elements) -> int:
    """The join of the lattice elements; the bottom for none."""
    joins, total = lat.join_table, lat.bottom
    for x in elements:
        total = joins[total][x]
    return total


def _slot(module, ideal: Ideal) -> int:
    # The poset element of the ideal in the module's action.
    if ideal.ring != module.ring:
        raise ValueError("ideal and submodule have different rings")
    return module.ring.divisors.index(ideal.d)


def distinct_ideal_images(module) -> tuple[Submodule, ...]:
    subs, _, act = _bridge(module)
    return tuple(subs[x] for x in sorted({act.top_image(s) for s in act.poset.elements()}))


def annihilator(sub: Submodule) -> Ideal:
    """The ideal of scalars killing the submodule, generated by the least one."""
    return sub.module.ring.ideals()[_annihilator_slots(sub.module)[sub.index]]


@memo
def _annihilator_slots(module) -> tuple[int, ...]:
    """The slot of each submodule's annihilator, by lattice index.

    The annihilator of N is (d) for the first divisor d with (d)N = 0.  One
    pass over the action table, from the last row up, writes the slot of
    each row at every submodule the row kills, so the first such row is
    written last.  The last row, of n, is the zero ideal, which kills
    everything, so every slot is written.
    """
    _, lat, act = _bridge(module)
    slots = [0] * lat.size
    for s in reversed(range(len(act.table))):
        for x, image in enumerate(act.table[s]):
            if image == lat.bottom:
                slots[x] = s
    return tuple(slots)


def _kernel(lat: FiniteLattice, row) -> int:
    # The kernel contains every submodule the row kills, so it is the largest
    # of them, which comes last in canonical order.
    return max(x for x in lat.elements() if row[x] == lat.bottom)


def kernel_of_ideal(module, ideal: Ideal) -> Submodule:
    """The submodule {m : dm = 0} annihilated by the ideal."""
    subs, lat, act = _bridge(module)
    return subs[_kernel(lat, act.table[_slot(module, ideal)])]


@memo
def quotient_module(module, kernel: Submodule) -> CosetModule:
    return CosetModule(module, kernel)


def image_in_quotient(quot: CosetModule, sub: Submodule) -> Submodule:
    if sub.module is not quot.base:
        raise ValueError("submodule does not live in the quotient's base module")
    return span(quot, [quot.project(g) for g in sub.generators])


# -- smallness ----------------------------------------------------------------

def _small_in(lat: FiniteLattice, x: int, low: int, high: int) -> bool:
    # x is small in the interval [low, high]: x join y = high forces y = high
    # for every y in it.
    join = lat.join_table[x]
    return not any(join[y] == high for y in _bits(lat.up[low] & lat.down[high]) if y != high)


def is_small(sub: Submodule) -> bool:
    """N is small when N + L = M forces L = M."""
    return small_within(sub, whole_module(sub.module))


def small_within(sub: Submodule, ambient: Submodule) -> bool:
    """Smallness of sub inside the submodule ambient: in the interval [0, ambient]."""
    _, lat, _ = _bridge(sub.module)
    return _small_in(lat, sub.index, lat.bottom, ambient.index)


# -- module class predicates --------------------------------------------------

def is_second_submodule(sub: Submodule) -> bool:
    """Every ideal acts on the submodule as identity or as zero."""
    if sub.is_zero:
        raise ZeroSubmodule("second is undefined on the zero submodule")
    return is_kind(_bridge(sub.module)[2], sub.index, "second")


def _simples(lat: FiniteLattice) -> int:
    """The mask of the simple submodules: exactly zero and N lie in N, so
    they are the upper covers of zero."""
    return sum(1 << x for x in lat.upper[lat.bottom])


def is_simple(sub: Submodule) -> bool:
    """Exactly two submodules, zero and itself, lie in it."""
    return bool(_simples(_bridge(sub.module)[1]) >> sub.index & 1)


def is_semisimple_module(module) -> bool:
    """The sum of all simple submodules is everything."""
    lat = _bridge(module)[1]
    return _join_all(lat, _bits(_simples(lat))) == lat.top


def is_multiplication_module(module) -> bool:
    """Every submodule is an ideal multiple of the whole module."""
    return is_multiplication(_bridge(module)[2])


def is_comultiplication_module(module) -> bool:
    """Every submodule K equals the kernel of its own annihilator.

    Decided on lattice indices: the kernel of each annihilator slot is
    found once, and compared with the index of every K with that
    annihilator.
    """
    _, lat, act = _bridge(module)
    slots = _annihilator_slots(module)
    kernels = {s: _kernel(lat, act.table[s]) for s in set(slots)}
    return all(kernels[s] == k for k, s in enumerate(slots))


def _meets_distribute(lat: FiniteLattice, pairs) -> bool:
    # Whether low meet (k join n) = (low meet k) join (low meet n) for every
    # pair (k, n) and every element low, visited pair by pair, ending at the
    # first failure.  The meets are read from the meet rows of k, n and
    # k join n, the outer join from the join table.
    meets, joins = lat.meet_table, lat.join_table
    for k, n in pairs:
        meet_k, meet_n, meet_sum = meets[k], meets[n], meets[joins[k][n]]
        for low in range(lat.size):
            if meet_sum[low] != joins[meet_k[low]][meet_n[low]]:
                return False
    return True


def is_distributive_module(module) -> bool:
    """Intersection distributes over sums, for all submodule triples.

    A finite lattice is distributive exactly when every hollow
    (join-irreducible) element is strongly hollow (join-prime), so the two
    spectra decide it (Birkhoff; Davey and Priestley 2002, ch. 5).  In a distributive
    lattice a hollow x <= a join b is (x meet a) join (x meet b), so it is
    x meet a or x meet b, that is, x <= a or x <= b.  Conversely, if the two
    spectra agree, let J be the hollow elements and send each x to the set
    of elements of J below it.  That map takes meets to intersections, and
    joins to unions because every element of J is strongly hollow; it is
    injective because in a finite lattice every element is the join of the
    elements of J below it.  So the lattice is isomorphic to a lattice of
    subsets of J under union and intersection, which is distributive.
    """
    act = _bridge(module)[2]
    return spectrum_mask(act, "hollow") == spectrum_mask(act, "strongly_hollow")


def is_pseudo_distributive_module(module) -> bool:
    """Intersection distributes over sums whose first term is an ideal multiple."""
    _, lat, act = _bridge(module)
    images = {act.top_image(s) for s in act.poset.elements()}
    return _meets_distribute(lat, itertools.product(images, lat.elements()))


def is_hollow_module(sub: Submodule) -> bool:
    """No two proper submodules of sub add up to sub."""
    if sub.is_zero:
        raise ZeroSubmodule("hollow is undefined on the zero submodule")
    return is_kind(_bridge(sub.module)[2], sub.index, "hollow")


def is_direct_summand(sub: Submodule) -> bool:
    _, lat, _ = _bridge(sub.module)
    x = sub.index
    return any(lat.meet(x, y) == lat.bottom and lat.join(x, y) == lat.top
               for y in lat.elements())


def is_lifting_module(module) -> bool:
    """Every submodule N contains a direct summand K with N/K small in M/K.

    The submodules of M/K are the interval [K, M] (the correspondence
    theorem), so N/K is small in M/K exactly when N is small in [K, M]:
    every L >= K with N + L = M is M.
    """
    subs, lat, _ = _bridge(module)
    summands = sum(1 << k.index for k in subs if is_direct_summand(k))
    return all(any(_small_in(lat, n, k, lat.top) for k in _bits(lat.down[n] & summands))
               for n in lat.elements())


def _maximal(lat: FiniteLattice, mask: int) -> list[int]:
    """The elements of the mask whose up rows hold no other element of it, ascending."""
    return [x for x in _bits(mask) if lat.up[x] & mask == 1 << x]


def maximal_hollow_submodules(module) -> tuple[Submodule, ...]:
    subs, lat, act = _bridge(module)
    return tuple(subs[x] for x in _maximal(lat, spectrum_mask(act, "hollow")))


def is_s_lifting_module(module) -> bool:
    """Lifting, with every maximal hollow submodule second."""
    if not is_lifting_module(module):
        return False
    return all(is_second_submodule(h) for h in maximal_hollow_submodules(module))


# -- second representations ---------------------------------------------------

def find_second_submodules(module) -> tuple[Submodule, ...]:
    subs, _, act = _bridge(module)
    return tuple(subs[i] for i in spectrum(act, "second"))


@memo
def find_minimal_second_representations(module) -> tuple[tuple[Submodule, ...], ...]:
    """All irredundant families of second submodules summing to the module.

    Families are listed by size, then in ``itertools.combinations`` order over
    the second submodules in canonical order; lattice.irredundant_families
    finds them on the submodule lattice.  The result is memoized on the module.
    """
    subs, lat, act = _bridge(module)
    return tuple(tuple(subs[x] for x in family)
                 for family in irredundant_families(lat, spectrum(act, "second")))


def attached_annihilators(module) -> tuple[Ideal, ...]:
    """Annihilators of the summands of the first minimal second representation.

    Empty when the module is not second representable.
    """
    reps = find_minimal_second_representations(module)
    if not reps:
        return ()
    ideals = {annihilator(k) for k in reps[0]}
    return tuple(sorted(ideals, key=lambda i: i.d))


# -- bridge to the lattice layer ----------------------------------------------

def submodule_lattice(module) -> tuple[FiniteLattice, PosetAction]:
    """The submodule lattice under inclusion with its ideal action.

    Lattice element i is the i-th entry of enumerate_submodules(module); poset
    element j is the j-th divisor of n in ascending order, standing for the
    ideal it generates.  Built once per module; every submodule operation
    reads it.

    Both are read off the containment masks.  L holds N exactly when it
    holds N's generators, so N's up row is the AND of their masks.
    Canonical order extends inclusion, so the lowest submodule left in N's
    strict up row covers N; clearing its up row and repeating lists N's
    covers, and each cover takes in N's down row, which is whole by then.
    Submodules always form a lattice, so unlike build_lattice the bridge
    checks no meet or join, and the tables are derived when first read.  For
    each prime p dividing n the row of p maps N to pN, the least submodule
    holding smul(p, g) for each generator g of N.  Every ideal (d) of Z/nZ
    is a product of prime ideals, and (d)N = p((d/p)N) for a prime p
    dividing d, so the row of d is the row of d/p followed by the row of p;
    divisors ascend, so the row of d/p is ready first.  make_action still
    checks the three axioms on the result.
    """
    return _bridge(module)[1:]


@memo
def _bridge(module) -> tuple[tuple[Submodule, ...], FiniteLattice, PosetAction]:
    """The module's submodules, lattice and action (submodule_lattice)."""
    subs = enumerate_submodules(module)
    containing = _enumeration(module)[1]
    up = [_holding(containing, s.generators) for s in subs]
    # Canonical order extends inclusion, so every lower cover of x comes
    # before x, has pushed its down row into x's, and x's down row is whole.
    down = [1 << x for x in range(len(subs))]
    upper = []
    for x, row in enumerate(up):
        covers, strict = [], row ^ 1 << x
        while strict:
            m = (strict & -strict).bit_length() - 1
            covers.append(m)
            down[m] |= down[x]
            strict &= ~up[m]
        upper.append(tuple(covers))
    lat = FiniteLattice(len(subs), tuple(up), tuple(down), tuple(upper), 0, len(subs) - 1)
    n, divs, primes = module.ring.n, module.ring.divisors, module.ring.primes
    # (dp) lies in (d); these covers generate the divisibility order.
    slot = {d: j for j, d in enumerate(divs)}
    poset = build_poset(len(divs), [(slot[d * p], j) for j, d in enumerate(divs)
                                    for p in primes if n % (d * p) == 0])
    rows = {1: list(range(len(subs)))}
    for p in primes:
        rows[p] = [_least(containing, [module.smul(p, g) for g in s.generators]) for s in subs]
    table = []
    for d in divs:
        row = rows.get(d)
        if row is None:
            p = next(p for p in primes if d % p == 0)
            row = rows[d] = [rows[p][y] for y in rows[d // p]]
        table.append(row)
    return subs, lat, make_action(lat, poset, table)
