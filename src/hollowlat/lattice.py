"""Finite bounded lattices, finite posets, and poset actions.

A poset action is a map S x L -> L that is monotone in the poset argument,
monotone in the lattice argument, and deflationary (s.x <= x).  make_action
checks the three action axioms where a table comes from outside the package:
the spec parser, the module bridge and the random generator.  The derived
constructions (dual action, star action, lower intervals, quotients) satisfy
the axioms by construction, each for the reason its docstring gives, and
build their tables directly; the tests check them against make_action, and
the spectra's interval fold, which reads the lattice's own rows, against them.

Order relations are stored as bitmask rows, one int per element, which keeps
every predicate a couple of machine ops at desk scale.  There is one
representation of an order: every poset keeps its up and down rows and the
upper covers of each element, so its dual swaps the rows and takes the lower
covers, derived once when first asked for.  A lattice's meet and join
tables are derived from its own down and up rows by one builder,
_bound_table, when first read: an interval that no one asks for a meet or
a join builds neither, and a dual takes over, swapped, the tables its
lattice has already built.

The order kernels take one step per given pair or per cover, not one per
comparable pair, in any numbering of the elements: the pass that closes an
order along Kahn's topological order also reduces the given pairs to the
covers, and an interval hands the lattice's covers between its members to
the same pass, so one kernel closes every order.  build_lattice is the
lattice constructor for orders from outside, and checks every meet and
join.  Besides the derived constructions, only the module bridge builds a
FiniteLattice directly: submodules always form a lattice, so it needs no
such check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from operator import itemgetter


class LatticeError(Exception):
    """Base class for construction and validation failures."""


class NotAPartialOrder(LatticeError):
    pass


class MeetOrJoinMissing(LatticeError):
    pass


class Unbounded(LatticeError):
    pass


class AxiomViolation(LatticeError):
    """An action table breaks one of the three action axioms."""


_MISSING = object()  # what memo's lookup returns for a key not yet cached


def memo(fn):
    """fn(obj, *args), computed once per object and argument tuple.

    The value is kept in obj.cache under the key (fn, *args), so it lives
    exactly as long as obj: a process-wide cache would keep every object it
    has seen alive.  Falsy values are kept like any other: a hit is one
    dict lookup that returns anything but the _MISSING sentinel.  A miss
    costs no raised KeyError, which matters where misses outnumber hits, as
    on lattice specs, whose every request builds fresh actions.
    """
    @wraps(fn)
    def cached(obj, *args):
        key, cache = (fn, *args), obj.cache
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = fn(obj, *args)
        return value

    return cached


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_and_check(size: int, pairs) -> tuple[tuple[int, ...], tuple[int, ...],
                                                tuple[tuple[int, ...], ...]]:
    """Up rows, down rows and upper covers of the order the pairs generate; rejects cycles.

    Kahn's pass lists the elements so that every pair points forward; it
    reaches every element exactly when the pairs have no cycle.  Then each
    up row is its own bit joined with the up rows of its direct successors,
    visited in reverse, and each down row its own bit joined with the down
    rows of its direct predecessors: one OR per pair and per row set.  The
    upper covers of i are its direct successors outside every direct
    successor's strict up row (the transitive reduction): one more OR per
    pair, in any numbering, and read off a mask, so they come out ascending.
    """
    succ = [[] for _ in range(size)]
    preds = [0] * size
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise NotAPartialOrder(f"pair ({i}, {j}) out of range for size {size}")
        if i != j:
            succ[i].append(j)
            preds[j] += 1
    order = [i for i in range(size) if not preds[i]]
    for i in order:  # the list grows while it is read
        for j in succ[i]:
            preds[j] -= 1
            if not preds[j]:
                order.append(j)
    if len(order) < size:
        # The elements left with a predecessor are the ones Kahn's pass missed.
        rest = [i for i in range(size) if preds[i]]
        raise NotAPartialOrder("antisymmetry fails on {} and {}".format(*_cycle_pair(succ, rest)))
    up = [1 << i for i in range(size)]
    down = up[:]
    upper = [()] * size
    for i in reversed(order):
        row = own = up[i]
        beyond = 0
        for j in succ[i]:
            row |= up[j]
            beyond |= up[j] ^ 1 << j
        up[i] = row
        # row less its own bit is the direct successors and what lies beyond.
        upper[i] = tuple(_bits(row & ~beyond ^ own))
    for i in order:
        row = down[i]
        for j in succ[i]:
            down[j] |= row
    return tuple(up), tuple(down), tuple(upper)


def _cycle_pair(succ, rest) -> tuple[int, int]:
    """Two elements on a cycle of the pairs, given as successor lists.

    ``rest`` lists the elements Kahn's pass left unplaced: they hold every
    cycle, and every successor of one of them is one of them.  In the closed
    order i <= j <= i holds exactly when i and j lie in one strongly
    connected component, so the first element equal in the order to an
    earlier one is the second-least element of some component, the least
    such.  The pair is that element and the least of its component.

    Tarjan's pass finds the components in one step per pair.  It keeps its
    own stack of successor iterators instead of recursing, since a long
    chain is deeper than the recursion limit, and marks which elements are
    on the component stack instead of searching it.
    """
    size = len(succ)
    num, low = [-1] * size, [0] * size
    stack, on_stack = [], [False] * size
    best = (size, size)
    count = 0
    for root in rest:
        if num[root] >= 0:
            continue
        num[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        calls = [(root, iter(succ[root]))]
        while calls:
            v, successors = calls[-1]
            for w in successors:
                if num[w] < 0:
                    num[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    calls.append((w, iter(succ[w])))
                    break
                if on_stack[w] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] == num[v]:
                    # v is the root of a component: pop it, keeping its two least.
                    first = second = size
                    w = -1
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        if w < first:
                            first, second = w, first
                        elif w < second:
                            second = w
                    if second < best[1]:
                        best = (first, second)
    return best


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on elements 0..size-1."""

    size: int
    up: tuple[int, ...] = field(repr=False)  # up[i] = bitmask of {j : i <= j}
    down: tuple[int, ...] = field(repr=False)  # down[i] = bitmask of {j : j <= i}
    upper: tuple[tuple[int, ...], ...] = field(repr=False)  # the covers of i, ascending

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def elements(self) -> range:
        return range(self.size)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in _bits(self.up[i])]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y): x < y with nothing strictly between, ascending."""
        return [(x, y) for x, ys in enumerate(self.upper) for y in ys]

    @cached_property
    def lower(self) -> tuple[tuple[int, ...], ...]:
        """The elements each element covers, ascending; derived once, when asked."""
        lower = [[] for _ in range(self.size)]
        for x, ys in enumerate(self.upper):
            for y in ys:
                lower[y].append(x)
        return tuple(map(tuple, lower))

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.size, self.down, self.up, self.lower)

    def linear_extension(self) -> list[int]:
        """Elements ordered so that comparabilities point forward."""
        return sorted(range(self.size), key=lambda i: (self.up[i].bit_count(), i), reverse=True)


def build_poset(size: int, pairs) -> FinitePoset:
    if size < 1:
        raise NotAPartialOrder("poset must be non-empty")
    return FinitePoset(size, *_close_and_check(size, pairs))


@dataclass(frozen=True)
class FiniteLattice(FinitePoset):
    """A finite bounded lattice: a partial order with all binary meets and joins.

    Element identifiers are the integers 0..size-1.  ``bottom`` and ``top``
    are the global least and greatest elements.
    """

    bottom: int
    top: int

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        """meet_table[x][y] is the meet of x and y; derived once, when asked."""
        return _bound_table(self.down)

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        """join_table[x][y] is the join of x and y; derived once, when asked."""
        return _bound_table(self.up)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def dual(self) -> "FiniteLattice":
        dual = FiniteLattice(self.size, self.down, self.up, self.lower, self.top, self.bottom)
        # Hand over the tables built so far, swapped.
        built = vars(self)
        for name, swapped in (("meet_table", "join_table"), ("join_table", "meet_table")):
            if name in built:
                vars(dual)[swapped] = built[name]
        return dual


def _bound_table(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The meet table from the down rows, or the join table from the up rows.

    x and y have a meet exactly when their common lower bounds are the down
    row of some element, the meet; dually for joins.
    """
    owner = {row: m for m, row in enumerate(rows)}
    table = []
    for x, row in enumerate(rows):
        line = tuple([owner.get(row & other, -1) for other in rows])
        if -1 in line:
            raise MeetOrJoinMissing(f"no unique bound for pair ({x}, {line.index(-1)})")
        table.append(line)
    return tuple(table)


def build_lattice(size: int, leq_pairs) -> FiniteLattice:
    """The bounded lattice on the order the pairs generate.

    Raises Unbounded when size is below 1, NotAPartialOrder on a cycle, and
    MeetOrJoinMissing when some pair has no unique greatest lower or least
    upper bound.  An order without a global bottom or top has a pair of
    minimal or maximal elements with no meet or join, so the tables reject
    it too.
    """
    if size < 1:
        raise Unbounded("a lattice needs at least one element")
    up, down, upper = _close_and_check(size, leq_pairs)
    meet = _bound_table(down)
    join = _bound_table(up)
    # A finite partial order in which every pair has a unique meet and join
    # is a lattice, so the lattice laws need no check here; the tests check
    # them on random and submodule lattices.  The meet of all elements is
    # the bottom, the one element whose up row is full; dually the top.
    full = (1 << size) - 1
    lat = FiniteLattice(size, up, down, upper, up.index(full), down.index(full))
    vars(lat).update(meet_table=meet, join_table=join)
    return lat


def chain(size: int) -> FiniteLattice:
    return build_lattice(size, [(i, i + 1) for i in range(size - 1)])


def irredundant_families(lattice: FiniteLattice, candidates, compatible=None,
                         max_terms=None) -> tuple[tuple[int, ...], ...]:
    """Irredundant families of candidate elements that join to the top.

    A family is drawn from candidates in their given order, no member lies
    below the join of the others, ``compatible(a, b)`` holds for every pair
    of members when it is given, and there are at most ``max_terms`` members
    when that is given.  Families come out by size, then in the order of
    ``itertools.combinations`` over candidates.

    The search is depth first over index-increasing families and extends a
    family one member at a time.  Irredundancy and the pairwise condition
    are hereditary: a family that breaks one has no larger family that
    keeps it.  So a branch is cut as soon as its newest member lies below
    the running join, makes an earlier member redundant, or is incompatible
    with one; and a family is not extended once it joins to the top, since
    any further member would lie below that join.  Nothing valid is lost.
    """
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    up, joins, top = lattice.up, lattice.join_table, lattice.top
    found = []

    def extend(family, total, rests, start):
        # total is the join of family; rests[j] is the join of family without family[j].
        for i in range(start, len(candidates)):
            new = candidates[i]
            if up[new] >> total & 1:
                continue
            if compatible is not None and not all(compatible(old, new) for old in family):
                continue
            row = joins[new]
            grown_total = row[total]
            complete = grown_total == top
            if not complete and max_terms is not None and len(family) + 1 >= max_terms:
                continue
            grown_rests = [row[rest] for rest in rests]
            if any(up[old] >> rest & 1 for old, rest in zip(family, grown_rests)):
                continue
            if complete:
                found.append(family + (new,))
            else:
                extend(family + (new,), grown_total, grown_rests + [total], i + 1)

    extend((), lattice.bottom, [], 0)
    return tuple(sorted(found, key=len))


@dataclass(frozen=True)
class PosetAction:
    """An action of a finite poset on a finite bounded lattice.

    ``table[s][x]`` is the image of lattice element x under poset element s.
    Axioms, for all s, s1, s2 in S and x, y in L:

      A1:  s1 <= s2  implies  table[s1][x] <= table[s2][x]
      A2:  x <= y    implies  table[s][x] <= table[s][y]
      A3:  table[s][x] <= x

    """

    lattice: FiniteLattice
    poset: FinitePoset
    table: tuple[tuple[int, ...], ...] = field(repr=False)
    # The values memoized on the action (see memo), such as the spectra's
    # violation masks and the join-distributivity verdict.
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, s: int, x: int) -> int:
        return self.table[s][x]

    def top_image(self, s: int) -> int:
        return self.table[s][self.lattice.top]


def make_action(lattice: FiniteLattice, poset: FinitePoset, table) -> PosetAction:
    """Validate the three action axioms and freeze the table.

    A1 and A2 are checked on covering pairs only.  Every comparable pair is
    joined by a chain of covers, so by transitivity that is equivalent.  Each
    comparison y <= x is a bit test on the down row of x.
    """
    rows = tuple(tuple(row) for row in table)
    if len(rows) != poset.size or any(len(r) != lattice.size for r in rows):
        raise AxiomViolation("table shape does not match poset x lattice")
    size, down = lattice.size, lattice.down
    for s, row in enumerate(rows):
        for x, y in enumerate(row):
            if not (0 <= y < size):
                raise AxiomViolation(f"entry ({s}, {x}) out of range")
            if not down[x] >> y & 1:
                raise AxiomViolation(f"A3 fails: {s}.{x} = {y} is not <= {x}")
    for x, y in lattice.covers():
        for s, row in enumerate(rows):
            if not down[row[y]] >> row[x] & 1:
                raise AxiomViolation(f"A2 fails at s={s}, {x} <= {y}")
    for s1, s2 in poset.covers():
        low, high = rows[s1], rows[s2]
        for x in range(size):
            if not down[high[x]] >> low[x] & 1:
                raise AxiomViolation(f"A1 fails at {s1} <= {s2}, x={x}")
    return PosetAction(lattice, poset, rows)


def trivial_action(lattice: FiniteLattice, poset: FinitePoset | None = None) -> PosetAction:
    """The identity action s.x = x, on a one-element poset by default.

    The identity is deflationary, monotone in x and constant in s.
    """
    if poset is None:
        poset = build_poset(1, [])
    return PosetAction(lattice, poset, (tuple(range(lattice.size)),) * poset.size)


def _top_rows(action: PosetAction, join: bool) -> tuple[tuple[int, ...], ...]:
    # The join (or meet) row of s.top for every poset element s.
    lat = action.lattice
    rows = lat.join_table if join else lat.meet_table
    return tuple(rows[action.top_image(s)] for s in range(action.poset.size))


def dual_action(action: PosetAction) -> PosetAction:
    """Action of the dual poset on the dual lattice: s.x = (s.top) join x.

    The join is taken in the original lattice.  In the reversed orders the
    axioms hold: (s.top) join x lies above x, joining is monotone, and
    s1 >= s2 gives s1.top >= s2.top.
    """
    lat = action.lattice
    return PosetAction(lat.dual(), action.poset.dual(), _top_rows(action, True))


def star_action(action: PosetAction) -> PosetAction:
    """Replacement action on the same lattice: s.x = (s.top) meet x.

    Meeting with s.top is deflationary and monotone, and s.top is monotone in s.
    """
    return PosetAction(action.lattice, action.poset, _top_rows(action, False))


def _interval(action: PosetAction, low: int, high: int) -> tuple[FiniteLattice, PosetAction]:
    """The interval [low, high] as a lattice, with the action s.y -> (s.y) join low.

    Member i of the interval is its i-th element in ascending identifier
    order.  An interval is closed under meets and joins, so it is a lattice
    and needs no check; its meet and join tables, the restrictions of the
    lattice's, are derived from its own rows if something reads them.  The
    induced action satisfies the axioms: (s.y) join low <= y join low = y,
    and it is monotone in s and in y because s.y is and joining with low is.
    For low = bottom the join changes nothing.  Restricting an action row
    gathers its entries at the members in one ``itemgetter`` call and maps
    each through y -> y join low, renumbered, which is the renumbering on
    the interval itself.

    The order rows are closed along the lattice's covers.  An interval holds
    every element between two of its members, so a member's upper covers
    in the interval are its upper covers in the lattice that lie in it, and
    _close_and_check takes one step per such cover.
    """
    lat = action.lattice
    elems = list(_bits(lat.up[low] & lat.down[high]))
    index = [-1] * lat.size
    for i, y in enumerate(elems):
        index[y] = i
    renumber = list(map(index.__getitem__, lat.join_table[low])).__getitem__
    # itemgetter with a single key returns the entry itself, not a 1-tuple.
    pick = itemgetter(*elems) if len(elems) > 1 else lambda seq: (seq[low],)
    covers = [(i, index[z]) for i, y in enumerate(elems) for z in lat.upper[y] if index[z] >= 0]
    up, down, upper = _close_and_check(len(elems), covers)
    sub = FiniteLattice(len(elems), up, down, upper, index[low], index[high])
    table = tuple(tuple(map(renumber, pick(row))) for row in action.table)
    return sub, PosetAction(sub, action.poset, table)


def lower_interval(action: PosetAction, x: int) -> tuple[FiniteLattice, PosetAction]:
    """Sublattice on {y : y <= x} with the inherited action: the interval [bottom, x].

    Element i of the result is the i-th member of {y : y <= x} in ascending
    identifier order; the top of the interval is the image of x.  The action
    stays inside the interval because s.y <= y.
    """
    return _interval(action, action.lattice.bottom, x)


def quotient(action: PosetAction, x: int) -> tuple[FiniteLattice, PosetAction]:
    """Quotient lattice at x: the upper interval [x, top] with s.y -> (s.y) join x.

    The quotient identifies y, z >= x when {y' join x : y' <= y} and
    {z' join x : z' <= z} coincide.  For y >= x the first set has greatest
    element y join x = y, so two elements are identified only when they are
    equal: every class is a singleton, the class order is the lattice order,
    and the quotient is the interval itself, with no class map: the class of
    y >= x is its position in [x, top] in ascending identifier order, so the
    class of x is the bottom of the result.
    """
    return _interval(action, x, action.lattice.top)


def is_multiplication(action: PosetAction) -> bool:
    """Whether every lattice element is s.top for some poset element s."""
    hits = {action.top_image(s) for s in range(action.poset.size)}
    return all(x in hits for x in range(action.lattice.size))


@memo
def is_join_distributive(action: PosetAction) -> bool:
    """Whether s.(y join z) = (s.y) join (s.z) holds for all s, y, z.

    The verdict is memoized on the action, so each action is scanned once.
    The instances are visited s first, then the pairs y <= z in
    combinations_with_replacement order, and the first failure ends the
    search.  Both joins are read from rows of the join table: the row of y
    for y join z, the row of s.y for (s.y) join (s.z).
    """
    joins = action.lattice.join_table
    size = action.lattice.size
    for row in action.table:
        for y in range(size):
            join_y, join_image = joins[y], joins[row[y]]
            for z in range(y, size):
                if row[join_y[z]] != join_image[row[z]]:
                    return False
    return True
