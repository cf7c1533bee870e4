"""Primeness and coprimeness predicates for lattice elements under a poset action.

Ten element kinds are supported.  Five live on L minus the top element:

  irreducible            a meet b = x      implies a = x or b = x
  strongly_irreducible   a meet b <= x     implies a <= x or b <= x
  ps_irreducible         (s.top) meet y <= x  implies s.top <= x or y <= x
  prime                  s.y <= x          implies s.top <= x or y <= x
  coprime                s.top <= x  or  (s.top) join x = top

and five on L minus the bottom element:

  hollow                 x = a join b      implies x = a or x = b
  strongly_hollow        x <= a join b     implies x <= a or x <= b
  ps_hollow              x <= (s.top) join y  implies x <= s.top or x <= y
  second                 s.x = x  or  s.x = bottom
  first                  s.y = bottom and y <= x  implies s.x = bottom or y = bottom

The ps_ prefix abbreviates "pseudo strongly".  A spectrum is decided whole:
its quantifiers are exhausted once, for all x at a time as bitmasks, and
is_kind reads the same masks.  Hollow and irreducible are read off the
covers: x is a join (meet) of two elements other than x exactly when it has
two lower (upper) covers, as _violations proves, so no pair is visited.  The
other kinds are folded row by row over the meet, join and action tables and
the order rows, and every one of their quantifier instances is still
visited.  One fold per kind serves every interval [low, high] of the
lattice, on the lattice's own rows and numbering, and the whole lattice is
[bottom, top]: the interval laws of the checkers below build no interval.
tests/oracles.py keeps the per-element loops.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

from .lattice import (
    FiniteLattice,
    FinitePoset,
    MeetOrJoinMissing,
    PosetAction,
    build_lattice,
    build_poset,
    chain,
    dual_action,
    is_join_distributive,
    is_multiplication,
    make_action,
    memo,
    star_action,
    _bits,
)
from .report import Report

UPPER_KINDS = ("irreducible", "strongly_irreducible", "ps_irreducible", "prime", "coprime")
LOWER_KINDS = ("hollow", "strongly_hollow", "ps_hollow", "second", "first")
KINDS = UPPER_KINDS + LOWER_KINDS
PAIR_KINDS = ("strongly_irreducible", "strongly_hollow")

PS_HOLLOW_FLAG = (
    "ps_hollow evaluated as: x <= (s.top) join y implies x <= s.top or x <= y, "
    "for all s and y"
)
COPRIME_DOMAIN_FLAG = "coprime domain is every element except top; the bottom element is admitted"
MULTIPLICATION_COLLAPSE_FLAG = (
    "multiplication collapse compares the ps_hollow spectrum (not ps_irreducible, "
    "whose domain excludes the wrong endpoint) with strongly hollow and dual prime"
)


def _ids(xs) -> str:
    return "[" + ",".join(str(x) for x in xs) + "]"


class DomainError(Exception):
    """Element outside the domain of the requested kind."""


@memo
def _violations(action: PosetAction, kind: str, low: int, high: int) -> int:
    """Bitmask of the elements of [low, high] at which the kind's implication fails there.

    [low, high] is a lattice under s.y -> (s.y) join low (lattice._interval),
    and the whole lattice is [bottom, top].  The fold reads the lattice's own
    rows in its numbering: an interval is closed under meets and joins, so its
    table rows are the lattice's read at its members, the bits of up[low] &
    down[high], and its order rows are the lattice's ANDed with the members.

    Hollow and irreducible are decided from the covers.  x is refuted as
    hollow exactly when x = a join b for some a, b in [low, high] other than
    x, and that holds exactly when x has two lower covers in [low, high]:
    two distinct covers c, d are incomparable, so c < c join d <= x, and the
    join is x because x covers c; conversely a, b < x each lie below some
    lower cover of x, which is above low, so if x has only one, c, then
    a join b <= c < x.  An interval is convex, so x's covers in it are its
    lattice covers that lie above low (below high, for the upper covers).
    Irreducible is the dual, with upper covers.

    Every other quantifier instance (a, b) or (s, y) is visited once and
    marks every x it refutes: (a, b) refutes strongly hollow on
    down(a join b) minus down(a) minus down(b).  The instances are folded
    one table row at a time: a pair kind reads row a of the meet or join
    table, a kind of (s, y) row s of the action table or the row of s.top,
    so every term that depends on the row alone, such as the complement of
    down(a), is taken once per row.  What s refutes as coprime depends on
    s.top alone, so that fold visits each distinct s.top once.  Callers
    apply the domain.  Masks are memoized on the action.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    lat, table = action.lattice, action.table
    up, size = lat.up, lat.size
    span = up[low] & lat.down[high]
    members = range(size) if low == lat.bottom and high == lat.top else tuple(_bits(span))
    # The up row of a join is the AND of the up rows, so a join with low is
    # read off up[low], and it is low exactly when the other term is <= low.
    base, below = up[low], lat.down[low]
    got = 0
    if kind in ("irreducible", "hollow"):
        # x fails exactly when it has two lower (upper) covers in the span.
        covers, inside = (lat.upper, lat.down[high]) if kind == "irreducible" else (lat.lower, base)
        for x in members:
            if sum(inside >> c & 1 for c in covers[x]) > 1:
                got |= 1 << x
    elif kind == "coprime":
        # s refutes x unless t <= x or t join x = high, where t = (s.high)
        # join low has the up row up[s.high] & span in the interval, and high
        # has its own bit.
        only_high = 1 << high
        for row in dict.fromkeys(up[images[high]] & span for images in table):
            acc = 0
            for x in members:
                if row & up[x] != only_high:
                    acc |= 1 << x
            got |= acc & ~row
    elif kind == "second":
        # s refutes x unless (s.x) join low is x or the bottom, low.  The
        # cheap tests go first: the join is x when s.x is (x >= low), and low
        # when s.x <= low; only other images AND two up rows.
        for row in table:
            for x in members:
                image = row[x]
                if image != x and not below >> image & 1 and up[image] & base != up[x]:
                    got |= 1 << x
    elif kind == "first":
        # (s, y) with (s.y) join low = low != y refutes up(y) minus the kernel of s.
        for row in table:
            kernel = acc = 0
            for y in members:
                if below >> row[y] & 1:
                    kernel |= 1 << y
                    if y != low:
                        acc |= up[y]
            got |= acc & ~kernel
    else:
        # (p, q) refutes order(row_p[q]) minus order(p) minus order(q), where
        # row_p is row p of the meet or join table, or, for (s, y), the row
        # of s (prime) or of p = s.top.  (s.y) join low <= x exactly when
        # s.y <= x, since low <= x, so prime reads the action rows and s.high
        # unjoined.
        order = up if kind in UPPER_KINDS else lat.down
        outside = [~mask for mask in order]
        if kind in PAIR_KINDS:
            bounds = lat.meet_table if kind in UPPER_KINDS else lat.join_table
            rows = ((a, bounds[a]) for a in members)
        elif kind == "prime":
            rows = ((images[high], images) for images in table)
        else:
            # p = (s.high) join low is s.high when low <= s.high, as on every
            # interval [bottom, x], so only other lows read the join table.
            bounds = lat.meet_table if kind == "ps_irreducible" else lat.join_table
            tops = [images[high] for images in table]
            tops = [t if base >> t & 1 else lat.join_table[low][t] for t in tops]
            rows = zip(tops, map(bounds.__getitem__, tops))
        for p, row in rows:
            acc = 0
            for q in members:
                acc |= order[row[q]] & outside[q]
            got |= acc & outside[p]
    return got & span


def is_kind(action: PosetAction, x: int, kind: str) -> bool:
    """Decide whether element x has the given kind under the action."""
    lat = action.lattice
    if x == lat.top and kind in UPPER_KINDS:
        raise DomainError(f"{kind} is undefined on the top element")
    if x == lat.bottom and kind in LOWER_KINDS:
        raise DomainError(f"{kind} is undefined on the bottom element")
    return not _violations(action, kind, lat.bottom, lat.top) >> x & 1


def spectrum_mask(action: PosetAction, kind: str) -> int:
    """The elements of the given kind as one bitmask: bit x is set when x has it.

    The excluded endpoint's bit is clear, so a bit test on this mask is
    is_kind on every element of the kind's domain.
    """
    lat = action.lattice
    excluded = lat.top if kind in UPPER_KINDS else lat.bottom
    domain = ((1 << lat.size) - 1) & ~(1 << excluded)
    return domain & ~_violations(action, kind, lat.bottom, lat.top)


def spectrum(action: PosetAction, kind: str) -> tuple[int, ...]:
    """Sorted identifiers of all elements of the given kind."""
    return tuple(_bits(spectrum_mask(action, kind)))


def variety(lattice: FiniteLattice, designated: frozenset[int] | set[int],
            a: int) -> frozenset[int]:
    """Elements of the designated set lying above a."""
    if lattice.top in designated:
        raise DomainError("designated set may not contain the top element")
    return frozenset(p for p in designated if lattice.le(a, p))


def is_topological(lattice: FiniteLattice, designated: frozenset[int] | set[int]) -> bool:
    """Whether the varieties over the designated set are closed under pairwise union."""
    varieties = [variety(lattice, designated, a) for a in range(lattice.size)]
    distinct = set(varieties)
    return all(u | v in distinct for u, v in itertools.combinations_with_replacement(distinct, 2))


# -- duality theorem and identity checkers ----------------------------------

@memo
def _quotient_firsts(action: PosetAction, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first spectrum of the quotient at x, and every class but x's.

    The quotient is the interval [x, top] and its class i its i-th member in
    ascending identifier order (lattice.quotient), so the bits of the first
    mask of [x, top] are ranked.  The quotient at x is all first but the class
    of x exactly when the two agree.  Parts 3 and 4 both ask, so it is memoized.
    """
    violations = _violations(action, "first", x, action.lattice.top)
    classes = [(i, y) for i, y in enumerate(_bits(action.lattice.up[x])) if y != x]
    return tuple(i for i, y in classes if not violations >> y & 1), tuple(i for i, _ in classes)


def check_duality_theorem(action: PosetAction, report: Report) -> None:
    """Verify the four parts of the coprime/second duality law suite, in order.

    1: coprime spectrum equals the second spectrum of the dual action.
    2: coprime spectrum of the dual equals the second spectrum of the star action.
    3: for every prime x, all classes of the quotient at x except the class
       of x itself are first.
    4: under join distributivity, part 3 becomes an equivalence for every
       non-top x; gated when join distributivity fails.
    """
    lat = action.lattice
    lhs = spectrum(action, "coprime")
    rhs = spectrum(dual_action(action), "second")
    report.check("duality.coprime_equals_dual_second", lhs == rhs,
                 f"coprime={_ids(lhs)}", f"dual_second={_ids(rhs)}")
    lhs = spectrum(dual_action(action), "coprime")
    rhs = spectrum(star_action(action), "second")
    report.check("duality.dual_coprime_equals_star_second", lhs == rhs,
                 f"dual_coprime={_ids(lhs)}", f"star_second={_ids(rhs)}")
    primes = spectrum(action, "prime")
    if not primes:
        report.gate("duality.prime_quotient_all_first", "no-prime-elements")
    for x in primes:
        firsts, expected = _quotient_firsts(action, x)
        report.check(f"duality.prime_quotient_all_first.x{x}", firsts == expected,
                     f"first={_ids(firsts)}", f"expected={_ids(expected)}")
    if not is_join_distributive(action):
        report.gate("duality.prime_iff_quotient_first", "join-distributivity-fails")
        return
    for x in range(lat.size):
        if x == lat.top:
            continue
        firsts, expected = _quotient_firsts(action, x)
        report.check(f"duality.prime_iff_quotient_first.x{x}",
                     is_kind(action, x, "prime") == (firsts == expected))


def check_spectrum_identities(action: PosetAction, report: Report) -> None:
    """Verify the small identity suite tying the spectra together.

    1: bottom prime iff top first
    2: strongly hollow elements are prime in the dual
    3: under multiplication, ps_irreducible = strongly hollow = dual prime
    4: prime under the star action iff ps_irreducible
    5: coprime iff coprime under the star action
    6: x first iff bottom is prime in the interval below x
    7: x second iff bottom is coprime in the interval below x
    """
    lat = action.lattice
    report.flag(PS_HOLLOW_FLAG)
    report.flag(COPRIME_DOMAIN_FLAG)
    degenerate = lat.bottom == lat.top

    if degenerate:
        report.add("identity.bottom_prime_iff_top_first", "pass", "degenerate")
    else:
        report.check("identity.bottom_prime_iff_top_first",
                     is_kind(action, lat.bottom, "prime") == is_kind(action, lat.top, "first"))

    dual = dual_action(action)
    sh = set(spectrum(action, "strongly_hollow"))
    dual_prime = set(spectrum(dual, "prime"))
    report.check("identity.strongly_hollow_subset_dual_prime", sh <= dual_prime,
                 f"strongly_hollow={_ids(sorted(sh))}", f"dual_prime={_ids(sorted(dual_prime))}")

    if is_multiplication(action):
        psh = set(spectrum(action, "ps_hollow"))
        report.check("identity.multiplication_collapse", psh == sh == dual_prime,
                     f"ps_hollow={_ids(sorted(psh))}", f"strongly_hollow={_ids(sorted(sh))}",
                     f"dual_prime={_ids(sorted(dual_prime))}")
        report.flag(MULTIPLICATION_COLLAPSE_FLAG)
    else:
        report.gate("identity.multiplication_collapse", "not-multiplication")

    star = star_action(action)
    report.check("identity.star_prime_iff_ps_irreducible",
                 spectrum(star, "prime") == spectrum(action, "ps_irreducible"))
    report.check("identity.coprime_star_invariant",
                 spectrum(star, "coprime") == spectrum(action, "coprime"))

    # 6 and 7 read bit bottom of the masks of [bottom, x], the interval's bottom.
    bottom, first_ok, second_ok = lat.bottom, True, True
    for x in range(lat.size):
        if x != bottom:
            prime = not _violations(action, "prime", bottom, x) >> bottom & 1
            coprime = not _violations(action, "coprime", bottom, x) >> bottom & 1
            first_ok &= is_kind(action, x, "first") == prime
            second_ok &= is_kind(action, x, "second") == coprime
    report.check("identity.first_iff_interval_bottom_prime", first_ok)
    report.check("identity.second_iff_interval_bottom_coprime", second_ok)


def check_double_dual(action: PosetAction, report: Report) -> None:
    """The dual action applied twice must coincide with the star action."""
    twice = dual_action(dual_action(action))
    star = star_action(action)
    report.check("duality.double_dual_equals_star",
                 twice.table == star.table
                 and twice.lattice.up == star.lattice.up
                 and twice.poset.up == star.poset.up)


# -- seeded random instances -------------------------------------------------

def random_poset(rng: random.Random, max_size: int = 4) -> FinitePoset:
    n = rng.randint(1, max_size)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return build_poset(n, pairs)


def random_lattice(rng: random.Random, max_size: int = 8) -> FiniteLattice:
    """A random bounded lattice; rejection-samples orders until one is a lattice."""
    while True:
        n = rng.randint(1, max_size)
        if n <= 2:
            return chain(n)
        density = rng.uniform(0.15, 0.7)
        pairs = [(0, i) for i in range(n)] + [(i, n - 1) for i in range(n)]
        pairs += [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)
                  if rng.random() < density]
        try:
            return build_lattice(n, pairs)
        except MeetOrJoinMissing:
            continue


def random_action(rng: random.Random, lattice: FiniteLattice, poset: FinitePoset,
                  star_shaped: bool = False) -> PosetAction:
    """A random valid action.

    The star-shaped generator picks a monotone choice of s.top and sets
    s.x = (s.top) meet x.  The general generator fills the whole table
    elementwise, sampling each entry uniformly from the interval of values
    permitted by the axioms given the entries fixed so far.
    """
    # Both orders are linear extensions, so everything strictly below s (or
    # x) is assigned before it, and each lower bound is a join over a row.
    sorder = poset.linear_extension()
    lorder = sorted(range(lattice.size), key=lambda x: (lattice.down[x].bit_count(), x))
    if star_shaped:
        tops = [lattice.bottom] * poset.size
        for s in sorder:
            lower = reduce(lattice.join, (tops[t] for t in _bits(poset.down[s] ^ (1 << s))),
                           lattice.bottom)
            tops[s] = rng.choice(list(_bits(lattice.up[lower])))
        table = [[lattice.meet(tops[s], x) for x in range(lattice.size)]
                 for s in range(poset.size)]
        return make_action(lattice, poset, table)

    table = [[0] * lattice.size for _ in range(poset.size)]
    for s in sorder:
        row, below = table[s], [table[t] for t in _bits(poset.down[s] ^ (1 << s))]
        for x in lorder:
            lower = reduce(lattice.join, (row[xp] for xp in _bits(lattice.down[x] ^ (1 << x))),
                           lattice.bottom)
            lower = reduce(lattice.join, (r[x] for r in below), lower)
            row[x] = rng.choice(list(_bits(lattice.up[lower] & lattice.down[x])))
    return make_action(lattice, poset, table)


def random_instance(seed: int, max_lattice: int = 8, max_poset: int = 4) -> PosetAction:
    """Deterministic random (lattice, action) pair for property suites."""
    rng = random.Random(seed)
    lattice = random_lattice(rng, max_lattice)
    poset = random_poset(rng, max_poset)
    return random_action(rng, lattice, poset, star_shaped=rng.random() < 0.4)
