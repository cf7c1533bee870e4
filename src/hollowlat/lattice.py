"""Finite bounded lattices, finite posets, and poset actions.

A poset action is a map S x L -> L that is monotone in the poset argument,
monotone in the lattice argument, and deflationary (s.x <= x).  make_action
checks the three action axioms where a table comes from outside the package:
the spec parser, the module bridge and the random generator.  The derived
constructions (dual action, star action, lower intervals, quotients) satisfy
the axioms by construction, each for the reason its docstring gives, and
build their tables directly; the tests check them against make_action.

Order relations are stored as bitmask rows, one int per element, which keeps
every predicate a couple of machine ops at desk scale.  There is one
representation of an order: every poset keeps both its up and its down rows,
so its dual swaps them, and every lattice, whatever its size, also keeps its
meet and join tables, so its dual swaps those too.

The order kernels take one step per given pair or per cover, not one per
comparable pair: the closure ORs rows along Kahn's topological order, the
covers are read off the lowest (or highest) set bits of the up rows in a
linear-extension (or reversed) numbering, and an interval's rows are closed
from the lattice's covers inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
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


def memo(fn):
    """fn(obj, *args), computed once per object and argument tuple.

    The value is kept in obj.cache under the key (fn, *args), so it lives
    exactly as long as obj: a process-wide cache would keep every object it
    has seen alive.  Falsy values are kept like any other.
    """
    @wraps(fn)
    def cached(obj, *args):
        key, cache = (fn, *args), obj.cache
        if key not in cache:
            cache[key] = fn(obj, *args)
        return cache[key]

    return cached


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_and_check(size: int, pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Up and down rows of the reflexive-transitive closure of the pairs; rejects cycles.

    Kahn's pass lists the elements so that every pair points forward; it
    reaches every element exactly when the pairs have no cycle.  Then each
    up row is its own bit joined with the up rows of its direct successors,
    visited in reverse, and each down row its own bit joined with the down
    rows of its direct predecessors: one OR per pair and per row set.
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
        raise NotAPartialOrder("antisymmetry fails on {} and {}".format(*_cycle_pair(succ)))
    up = [1 << i for i in range(size)]
    down = up[:]
    for i in reversed(order):
        row = up[i]
        for j in succ[i]:
            row |= up[j]
        up[i] = row
    for i in order:
        row = down[i]
        for j in succ[i]:
            down[j] |= row
    return tuple(up), tuple(down)


def _cycle_pair(succ) -> tuple[int, int]:
    """Two elements on a cycle of the pairs, given as successor lists with a cycle.

    Warshall's closure, then the first closed row equal to an earlier one: in
    a closed order, i <= j <= i holds exactly when rows i and j are equal.
    """
    size = len(succ)
    up = [1 << i for i in range(size)]
    for i, js in enumerate(succ):
        for j in js:
            up[i] |= 1 << j
    for k in range(size):
        bit = 1 << k
        for i in range(size):
            if up[i] & bit:
                up[i] |= up[k]
    first = {}
    for i, row in enumerate(up):
        earlier = first.setdefault(row, i)
        if earlier != i:
            return earlier, i


def _covers(up) -> list[tuple[int, int]]:
    """The covering pairs of the order with up rows ``up`` (FinitePoset.covers).

    In a linear extension (every up row starts at its own bit) the lowest
    element m left in x's strict up row is a cover: anything between x
    and m would come before m.  Clearing m's up row and repeating takes
    one step per cover.  In the reversed numbering (every up row ends at
    its own bit: duals, the divisor poset) the highest element is the
    cover, by the same argument.  Any other numbering takes one step per
    comparable pair.
    """
    out = []
    if all(row & -row == 1 << x for x, row in enumerate(up)):
        for x, row in enumerate(up):
            strict = row ^ 1 << x
            while strict:
                m = (strict & -strict).bit_length() - 1
                out.append((x, m))
                strict &= ~up[m]
    elif all(row.bit_length() == x + 1 for x, row in enumerate(up)):
        for x, row in enumerate(up):
            strict, found = row ^ 1 << x, []
            while strict:
                m = strict.bit_length() - 1
                found.append((x, m))
                strict &= ~up[m]
            out += reversed(found)
    else:
        for x, row in enumerate(up):
            strict = row ^ 1 << x
            beyond = 0
            for z in _bits(strict):
                beyond |= up[z] ^ 1 << z
            out.extend((x, y) for y in _bits(strict & ~beyond))
    return out


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on elements 0..size-1."""

    size: int
    up: tuple[int, ...] = field(repr=False)  # up[i] = bitmask of {j : i <= j}
    down: tuple[int, ...] = field(repr=False)  # down[i] = bitmask of {j : j <= i}

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def elements(self) -> range:
        return range(self.size)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in _bits(self.up[i])]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y): x < y with nothing strictly between, ascending."""
        return _covers(self.up)

    def dual(self) -> "FinitePoset":
        return FinitePoset(self.size, self.down, self.up)

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
    meet_table: tuple[tuple[int, ...], ...] = field(repr=False)
    join_table: tuple[tuple[int, ...], ...] = field(repr=False)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def dual(self) -> "FiniteLattice":
        return FiniteLattice(
            size=self.size,
            up=self.down,
            down=self.up,
            bottom=self.top,
            top=self.bottom,
            meet_table=self.join_table,
            join_table=self.meet_table,
        )


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
    """lattice_from_up on the closure of the pairs; NotAPartialOrder on cycles."""
    if size < 1:
        raise Unbounded("a lattice needs at least one element")
    return lattice_from_up(*_close_and_check(size, leq_pairs))


def lattice_from_up(up: tuple[int, ...], down: tuple[int, ...] | None = None) -> FiniteLattice:
    """The bounded lattice on a partial order given by its up rows.

    The down rows are closed from the covers when not given.  Raises
    Unbounded when a global least or greatest element is missing, and
    MeetOrJoinMissing when some pair has no unique greatest lower or least
    upper bound.
    """
    size = len(up)
    if down is None:
        down = _close_and_check(size, _covers(up))[1]
    meet = _bound_table(down)
    join = _bound_table(up)
    full = (1 << size) - 1
    bottoms = [i for i in range(size) if up[i] == full]
    tops = [i for i in range(size) if down[i] == full]
    if not bottoms or not tops:
        raise Unbounded("order has no global bottom or top")
    # A finite partial order in which every pair has a unique meet and join
    # is a lattice, so the lattice laws need no check here; the tests check
    # them on random and submodule lattices.
    return FiniteLattice(size, up, down, bottoms[0], tops[0], meet, join)


def chain(size: int) -> FiniteLattice:
    return build_lattice(size, [(i, i + 1) for i in range(size - 1)])


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


@memo
def _cover_lists(action: PosetAction) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The upper and the lower covers of each lattice element, and its down row's size.

    The sizes rise strictly along every chain, so sorting by them lists any
    set of elements in a linear extension.
    """
    lat = action.lattice
    upper = [[] for _ in range(lat.size)]
    lower = [[] for _ in range(lat.size)]
    for x, y in lat.covers():
        upper[x].append(y)
        lower[y].append(x)
    return upper, lower, [row.bit_count() for row in lat.down]


def _interval(action: PosetAction, low: int, high: int) -> tuple[FiniteLattice, PosetAction]:
    """The interval [low, high] as a lattice, with the action s.y -> (s.y) join low.

    Member i of the interval is its i-th element in ascending identifier
    order.  An interval is closed under meets and joins, so its order rows
    and its tables are restrictions of the lattice's and need no check.  The
    induced action satisfies the axioms: (s.y) join low <= y join low = y,
    and it is monotone in s and in y because s.y is and joining with low is.
    For low = bottom the join changes nothing.  Restricting a table row
    gathers its entries at the members in one ``itemgetter`` call and maps
    each through y -> y join low, renumbered, which is the renumbering on
    the interval itself.

    The order rows are built from the lattice's covers: every chain between
    two members runs inside the interval, so a member's up row is its own
    bit joined with the up rows of its upper covers in the interval, taken
    from the top of a linear extension down, and dually for the down rows.
    That is one step per cover in the interval.
    """
    lat = action.lattice
    elems = list(_bits(lat.up[low] & lat.down[high]))
    index = [-1] * lat.size
    for i, y in enumerate(elems):
        index[y] = i
    renumber = list(map(index.__getitem__, lat.join_table[low])).__getitem__
    # itemgetter with a single key returns the entry itself, not a 1-tuple.
    pick = itemgetter(*elems) if len(elems) > 1 else lambda seq: (seq[low],)

    def restrict_table(rows) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(renumber, pick(row))) for row in rows)

    upper, lower, height = _cover_lists(action)
    size = len(elems)
    order = sorted(range(size), key=list(map(height.__getitem__, elems)).__getitem__)

    def close(members, covers) -> tuple[int, ...]:
        # A cover outside the interval has index -1, which reads the extra
        # last slot: it stays 0 and adds nothing.
        rows = [0] * (size + 1)
        for i in members:
            row = 1 << i
            for z in covers[elems[i]]:
                row |= rows[index[z]]
            rows[i] = row
        return tuple(rows[:size])

    sub = FiniteLattice(size, close(reversed(order), upper), close(order, lower),
                        index[low], index[high],
                        restrict_table(pick(lat.meet_table)),
                        restrict_table(pick(lat.join_table)))
    return sub, PosetAction(sub, action.poset, restrict_table(action.table))


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
