"""Finite bounded lattices, finite posets, and poset actions.

A poset action is a map S x L -> L that is monotone in the poset argument,
monotone in the lattice argument, and deflationary (s.x <= x).  The derived
constructions (dual action, star action, lower intervals, quotients) all
re-validate the three action axioms, so an invalid table never survives
construction.

Order relations are stored as bitmask rows, one int per element, which keeps
every predicate a couple of machine ops at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# Meet/join tables are precomputed up to this size; beyond it lookups fall
# back to an on-demand scan.
TABLE_LIMIT = 512


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


class NotALattice(LatticeError):
    """A derived quotient failed its consistency validation (internal error)."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close_and_check(size: int, pairs) -> list[int]:
    """Reflexive-transitive closure of the given pairs; rejects cycles."""
    up = [1 << i for i in range(size)]
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise NotAPartialOrder(f"pair ({i}, {j}) out of range for size {size}")
        up[i] |= 1 << j
    for k in range(size):
        bit = 1 << k
        for i in range(size):
            if up[i] & bit:
                up[i] |= up[k]
    for i in range(size):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise NotAPartialOrder(f"antisymmetry fails on {i} and {j}")
    return up


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on elements 0..size-1."""

    size: int
    up: tuple[int, ...] = field(repr=False)  # up[i] = bitmask of {j : i <= j}

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def elements(self) -> range:
        return range(self.size)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in _bits(self.up[i])]

    def dual(self) -> "FinitePoset":
        down = [0] * self.size
        for i in range(self.size):
            for j in _bits(self.up[i]):
                down[j] |= 1 << i
        return FinitePoset(self.size, tuple(down))

    def linear_extension(self) -> list[int]:
        """Elements ordered so that comparabilities point forward."""
        return sorted(range(self.size), key=lambda i: (bin(self.up[i]).count("1"), i), reverse=True)


def build_poset(size: int, pairs) -> FinitePoset:
    if size < 1:
        raise NotAPartialOrder("poset must be non-empty")
    return FinitePoset(size, tuple(_close_and_check(size, pairs)))


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice: a partial order with all binary meets and joins.

    Element identifiers are the integers 0..size-1.  ``bottom`` and ``top``
    are the global least and greatest elements.
    """

    size: int
    bottom: int
    top: int
    up: tuple[int, ...] = field(repr=False)    # up[i] = {j : i <= j}
    down: tuple[int, ...] = field(repr=False)  # down[i] = {j : j <= i}
    meet_table: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)
    join_table: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)

    def le(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def elements(self) -> range:
        return range(self.size)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.size) for j in _bits(self.up[i])]

    def meet(self, x: int, y: int) -> int:
        if self.meet_table is not None:
            return self.meet_table[x][y]
        return _bound(self.down, x, y)

    def join(self, x: int, y: int) -> int:
        if self.join_table is not None:
            return self.join_table[x][y]
        return _bound(self.up, x, y)

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (x, y): x < y with nothing strictly between."""
        out = []
        for x in range(self.size):
            strict = self.up[x] & ~(1 << x)
            for y in _bits(strict):
                between = strict & self.down[y] & ~(1 << y)
                if not between:
                    out.append((x, y))
        return out

    def dual(self) -> "FiniteLattice":
        return FiniteLattice(
            size=self.size,
            bottom=self.top,
            top=self.bottom,
            up=self.down,
            down=self.up,
            meet_table=self.join_table,
            join_table=self.meet_table,
        )


def _bound(rows: tuple[int, ...], x: int, y: int) -> int:
    # With rows = down this is the meet, with rows = up the join.
    common = rows[x] & rows[y]
    for m in _bits(common):
        if common & ~rows[m] == 0:
            return m
    raise MeetOrJoinMissing(f"no unique bound for pair ({x}, {y})")


def build_lattice(size: int, leq_pairs) -> FiniteLattice:
    """Validate an order relation and derive the bounded lattice on it.

    The pairs are closed reflexively and transitively first.  Raises
    NotAPartialOrder on cycles, Unbounded when a global least or greatest
    element is missing, and MeetOrJoinMissing when some pair has no unique
    greatest lower or least upper bound.
    """
    if size < 1:
        raise Unbounded("a lattice needs at least one element")
    up = tuple(_close_and_check(size, leq_pairs))
    down = [0] * size
    for i in range(size):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    down = tuple(down)
    meet = join = None
    if size <= TABLE_LIMIT:
        meet = tuple(tuple(_bound(down, x, y) for y in range(size)) for x in range(size))
        join = tuple(tuple(_bound(up, x, y) for y in range(size)) for x in range(size))
    else:
        for x in range(size):
            for y in range(x, size):
                _bound(down, x, y)
                _bound(up, x, y)
    full = (1 << size) - 1
    bottoms = [i for i in range(size) if up[i] == full]
    tops = [i for i in range(size) if down[i] == full]
    if not bottoms or not tops:
        raise Unbounded("order has no global bottom or top")
    # A finite partial order in which every pair has a unique meet and join
    # is a lattice, so the lattice laws need no check here; the tests check
    # them on random and submodule lattices.
    return FiniteLattice(size, bottoms[0], tops[0], up, down, meet, join)


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

    def apply(self, s: int, x: int) -> int:
        return self.table[s][x]

    def top_image(self, s: int) -> int:
        return self.table[s][self.lattice.top]


def make_action(lattice: FiniteLattice, poset: FinitePoset, table) -> PosetAction:
    """Validate the three action axioms and freeze the table."""
    rows = tuple(tuple(row) for row in table)
    if len(rows) != poset.size or any(len(r) != lattice.size for r in rows):
        raise AxiomViolation("table shape does not match poset x lattice")
    for s, row in enumerate(rows):
        for x, y in enumerate(row):
            if not (0 <= y < lattice.size):
                raise AxiomViolation(f"entry ({s}, {x}) out of range")
            if not lattice.le(y, x):
                raise AxiomViolation(f"A3 fails: {s}.{x} = {y} is not <= {x}")
    for s in range(poset.size):
        for x in range(lattice.size):
            for y in _bits(lattice.up[x]):
                if not lattice.le(rows[s][x], rows[s][y]):
                    raise AxiomViolation(f"A2 fails at s={s}, {x} <= {y}")
    for s1 in range(poset.size):
        for s2 in _bits(poset.up[s1]):
            for x in range(lattice.size):
                if not lattice.le(rows[s1][x], rows[s2][x]):
                    raise AxiomViolation(f"A1 fails at {s1} <= {s2}, x={x}")
    return PosetAction(lattice, poset, rows)


def trivial_action(lattice: FiniteLattice, poset: FinitePoset | None = None) -> PosetAction:
    """The identity action s.x = x, on a one-element poset by default."""
    if poset is None:
        poset = build_poset(1, [])
    table = [[x for x in range(lattice.size)] for _ in range(poset.size)]
    return make_action(lattice, poset, table)


def dual_action(action: PosetAction) -> PosetAction:
    """Action of the dual poset on the dual lattice: s.x = (s.top) join x.

    The join is taken in the original lattice; the axioms are re-validated
    against the reversed orders.
    """
    lat = action.lattice
    table = [
        [lat.join(action.top_image(s), x) for x in range(lat.size)]
        for s in range(action.poset.size)
    ]
    return make_action(lat.dual(), action.poset.dual(), table)


def star_action(action: PosetAction) -> PosetAction:
    """Replacement action on the same lattice: s.x = (s.top) meet x."""
    lat = action.lattice
    table = [
        [lat.meet(action.top_image(s), x) for x in range(lat.size)]
        for s in range(action.poset.size)
    ]
    return make_action(lat, action.poset, table)


def lower_interval(action: PosetAction, x: int) -> tuple[FiniteLattice, PosetAction]:
    """Sublattice on {y : y <= x} with the inherited action.

    Element i of the result is the i-th member of {y : y <= x} in ascending
    identifier order; the top of the interval is the image of x.
    """
    lat = action.lattice
    elems = sorted(_bits(lat.down[x]))
    index = {y: i for i, y in enumerate(elems)}
    pairs = [(index[y], index[z]) for y in elems for z in elems if lat.le(y, z)]
    sub = build_lattice(len(elems), pairs)
    table = [
        [index[action.apply(s, y)] for y in elems]
        for s in range(action.poset.size)
    ]
    return sub, make_action(sub, action.poset, table)


def _matches_below(lat: FiniteLattice, x: int, y: int, z: int) -> bool:
    # Whether every y' <= y has some z' <= z with y' join x = z' join x.
    for yp in _bits(lat.down[y]):
        target = lat.join(yp, x)
        if not any(lat.join(zp, x) == target for zp in _bits(lat.down[z])):
            return False
    return True


def quotient(action: PosetAction, x: int) -> tuple[FiniteLattice, PosetAction, dict[int, int]]:
    """Quotient lattice on the equivalence classes of {y : y >= x}.

    Two elements y, z >= x are identified when each y' <= y matches some
    z' <= z with y' join x = z' join x, and symmetrically.  The class map
    sends every y >= x to its class identifier; classes are numbered by
    ascending least member.  The induced action sends the class of y to the
    class of (s.y) join x.  Any internal inconsistency (the class order not
    being a lattice, meets or joins or the action depending on the chosen
    representative) raises NotALattice.
    """
    lat = action.lattice
    ups = sorted(_bits(lat.up[x]))
    classes: list[list[int]] = []
    for y in ups:
        for cls in classes:
            rep = cls[0]
            if _matches_below(lat, x, y, rep) and _matches_below(lat, x, rep, y):
                cls.append(y)
                break
        else:
            classes.append([y])
    classes.sort(key=lambda cls: cls[0])
    class_map = {y: i for i, cls in enumerate(classes) for y in cls}

    def class_le(a: int, b: int) -> bool:
        return _matches_below(lat, x, classes[a][0], classes[b][0])

    try:
        pairs = [(a, b) for a in range(len(classes)) for b in range(len(classes)) if class_le(a, b)]
        sub = build_lattice(len(classes), pairs)
        # Meets and joins must agree with the defining formulas from every
        # choice of representatives.
        for a, b in itertools.product(range(len(classes)), repeat=2):
            for ya, yb in itertools.product(classes[a], classes[b]):
                if class_map[lat.meet(ya, yb)] != sub.meet(a, b):
                    raise NotALattice(f"quotient meet ill-defined at classes ({a}, {b})")
                if class_map[lat.join(ya, yb)] != sub.join(a, b):
                    raise NotALattice(f"quotient join ill-defined at classes ({a}, {b})")
        table = []
        for s in range(action.poset.size):
            row = []
            for cls in classes:
                images = {class_map[lat.join(action.apply(s, y), x)] for y in cls}
                if len(images) != 1:
                    raise NotALattice(f"quotient action ill-defined at s={s}, class of {cls[0]}")
                row.append(images.pop())
            table.append(row)
        quot_action = make_action(sub, action.poset, table)
    except NotALattice:
        raise
    except LatticeError as exc:
        raise NotALattice(f"quotient construction failed: {exc}") from exc
    return sub, quot_action, class_map


def is_multiplication(action: PosetAction) -> bool:
    """Whether every lattice element is s.top for some poset element s."""
    hits = {action.top_image(s) for s in range(action.poset.size)}
    return all(x in hits for x in range(action.lattice.size))


def is_join_distributive(action: PosetAction) -> bool:
    """Whether s.(y join z) = (s.y) join (s.z) holds for all s, y, z."""
    lat = action.lattice
    for s in range(action.poset.size):
        row = action.table[s]
        for y, z in itertools.combinations_with_replacement(range(lat.size), 2):
            if row[lat.join(y, z)] != lat.join(row[y], row[z]):
                return False
    return True
