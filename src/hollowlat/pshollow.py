"""Pseudo strongly hollow submodules, their profiles, and representation theory.

A nonzero submodule N is pseudo strongly hollow (ps-hollow) when N <= IM + L
forces N <= IM or N <= L, for every ideal I and submodule L.  Everything is
read off the submodule lattice and its ideal action, in which poset element
s is the ideal I of the s-th divisor and s.top is IM.  The ps-hollow
submodules are a spectrum of the action, and the profile of N records its
covers {s : N <= s.top}, the poset-minimal covers, and the hull, the meet of
their tops.

A hollow representation writes the module as a finite sum of ps-hollow
submodules; it is minimal when the summand hulls are pairwise incomparable
and no summand is contained in the sum of the others.  minimize drops
redundant summands and then merges those that share a covering family; over
Z/nZ that always ends at the primary decomposition, the only minimal
representation, as its docstring proves.

The check_* and verify_* functions verify the structural laws of this
theory on concrete modules.  Each takes the Report it writes into as its last
argument and returns nothing.  Each first decides its hypotheses by brute
force, and an unmet hypothesis is a hypothesis-unmet finding, never an
exception; mathematical failures become fail verdicts with witnesses.  Only
misuse raises ValueError: inputs from two different modules, or an unknown
part.  The checkers take submodules, but decide every instance on lattice
indices: they read the module's lattice and action once, inclusion is one
bit of an up row, sums and intersections are join and meet table lookups,
zero is the bottom, annihilators are a per-index table, and ps-hollow and
second are one bit of a spectrum mask.  Names and ideals are built only for
the strings a report prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .lattice import _bits, irredundant_families, memo
from .modules import (
    Ideal,
    Submodule,
    ZeroSubmodule,
    _annihilator_slots,
    _bridge,
    _factor,
    _join_all,
    _maximal,
    _simples,
    _small_in,
    distinct_ideal_images,
    enumerate_submodules,
    find_minimal_second_representations,
    ideal_set_names,
    is_comultiplication_module,
    is_distributive_module,
    is_multiplication_module,
    is_semisimple_module,
    is_small,
    submodule_lattice,
)
from .report import Report
from .spectra import _violations, is_kind, spectrum, spectrum_mask

NONSMALL_READING_FLAG = (
    "non-small inheritance reads smallness of K inside N; the moreover clause "
    "is checked as equality of the full covering-ideal sets of K and N"
)
FAMILY_ORDER_FLAG = (
    "minimality between minimal-cover families is set inclusion of the ideal sets"
)
INNER_IRREDUCIBLE_FLAG = (
    "the summand-submodule alternative evaluates strong irreducibility inside "
    "the submodule lattice of the summand itself"
)


@dataclass(frozen=True)
class HollowProfile:
    """Covering data of a submodule N: ideals I with N <= IM.

    min_covers are the inclusion-minimal covering ideals; hull is the
    intersection of their images IM (the whole module when there are none,
    which cannot happen over Z/nZ).  ps_hollow records whether N passed the
    ps-hollow test; profiles of other submodules are diagnostic only.
    """

    submodule: Submodule
    covers: tuple[Ideal, ...]
    min_covers: tuple[Ideal, ...]
    hull: Submodule
    ps_hollow: bool

    @cached_property
    def family(self) -> frozenset[int]:
        """The divisors of the minimal covers; computed on first read."""
        return frozenset(i.d for i in self.min_covers)

    @property
    def family_name(self) -> str:
        return ideal_set_names(self.min_covers)

    def describe(self) -> str:
        return (f"covers={ideal_set_names(self.covers)} min={self.family_name} "
                f"hull={self.hull.name}")


def is_ps_hollow(sub: Submodule) -> bool:
    """Exhaustive test of: sub <= IM + L implies sub <= IM or sub <= L.

    This is the ps_hollow kind of the submodule lattice under the ideal
    action, whose violation mask is computed once per module.
    """
    if sub.is_zero:
        raise ZeroSubmodule("ps-hollow is undefined on the zero submodule")
    return is_kind(submodule_lattice(sub.module)[1], sub.index, "ps_hollow")


def profile(sub: Submodule) -> HollowProfile:
    """Covers, minimal covers and hull of sub, read from the ideal action.

    The covers are the poset elements s with sub <= s.top, in divisor order;
    the minimal ones have no other cover below them in the poset, which is
    ideal inclusion; the hull is the meet of their tops.
    """
    if sub.is_zero:
        raise ZeroSubmodule("profiles are undefined on the zero submodule")
    return _profile(sub.module, sub.index)


@memo
def _profile(module, x: int) -> HollowProfile:
    """The profile of the nonzero submodule with index x, memoized on the module."""
    subs, lat, act = _bridge(module)
    poset, row, meets = act.poset, lat.up[x], lat.meet_table
    tops = [images[lat.top] for images in act.table]
    covers = [s for s, t in enumerate(tops) if row >> t & 1]
    above = 0  # the covers with another cover strictly below them
    for s in covers:
        above |= poset.up[s] & ~(1 << s)
    min_covers = [s for s in covers if not above >> s & 1]
    hull = lat.top
    for s in min_covers:
        hull = meets[hull][tops[s]]
    ideals = module.ring.ideals()
    return HollowProfile(subs[x], tuple(ideals[s] for s in covers),
                         tuple(ideals[s] for s in min_covers), subs[hull],
                         bool(spectrum_mask(act, "ps_hollow") >> x & 1))


def find_ps_hollow_submodules(module) -> tuple[tuple[Submodule, HollowProfile], ...]:
    """All ps-hollow submodules with their profiles, in canonical order."""
    subs, _, act = _bridge(module)
    return tuple((subs[x], _profile(module, x)) for x in spectrum(act, "ps_hollow"))


def is_hollow_ideal(ideal: Ideal) -> bool:
    """No two proper sub-sums: (a) + (b) = (d) forces (a) = (d) or (b) = (d).

    That holds exactly when n/d is 1 or a prime power: the ideals between (d)
    and (n) then form a chain, and otherwise (dp) + (dq) = (d) for two primes
    p and q dividing n/d.
    """
    return len(_factor(ideal.ring.n // ideal.d)) <= 1


def check_min_cover_ideals(module, report: Report) -> None:
    """Minimal covering ideals of ps-hollow submodules must be hollow ideals."""
    found = find_ps_hollow_submodules(module)
    if not found:
        report.gate("min_covers_hollow", "no-ps-hollow-submodules")
    for sub, prof in found:
        bad = [i.name for i in prof.min_covers if not is_hollow_ideal(i)]
        report.check(f"min_covers_hollow.{sub.name}", not bad,
                     prof.family_name, *(f"not-hollow:{n}" for n in bad))


def check_profile_of_sum(n: Submodule, k: Submodule, family: frozenset[int],
                         report: Report) -> None:
    """N + K carries the covering family exactly when both summands do.

    Requires incomparable ps-hollow inputs and a family drawn from the
    associated hollow ideals of the module; otherwise the pair's claim is
    gated, with one witness per unmet hypothesis.
    """
    module = n.module
    if module is not k.module:
        raise ValueError("submodules live in different modules")
    _, lat, act = _bridge(module)
    x, y = n.index, k.index
    hollow = spectrum_mask(act, "ps_hollow")
    unmet = ["comparable"] if lat.up[x] >> y & 1 or lat.up[y] >> x & 1 else []
    unmet += [f"not-ps-hollow:{s.name}" for s in (n, k) if not hollow >> s.index & 1]
    outside = sorted(family - _associated_families(module))
    if outside:
        unmet.append("family-not-associated:" + ",".join(map(str, outside)))
    if unmet:
        report.gate(f"profile_sum.{n.name}+{k.name}", *unmet)
        return

    def is_family(z: int) -> bool:
        return bool(hollow >> z & 1) and _profile(module, z).family == family

    lhs = is_family(lat.join_table[x][y])
    rhs = is_family(x) and is_family(y)
    name = ideal_set_names(Ideal(module.ring, d) for d in family)
    report.check(f"profile_sum.{n.name}+{k.name}.{name}", lhs == rhs,
                 f"sum_matches={lhs}", f"parts_match={rhs}")


@memo
def _associated_families(module) -> frozenset[int]:
    """The union of the covering families of the ps-hollow submodules."""
    return frozenset().union(*(prof.family for _, prof in find_ps_hollow_submodules(module)))


# -- representations -----------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """An ordered hollow representation with profiles and minimality verdict."""

    module: object
    summands: tuple[Submodule, ...]
    profiles: tuple[HollowProfile, ...]
    minimal: bool

    def names(self) -> str:
        return "+".join(s.name for s in self.summands)


def _rest_joins(lat, xs) -> list[int]:
    """For each of the elements xs, the join of all the others."""
    return [_join_all(lat, xs[:j] + xs[j + 1:]) for j in range(len(xs))]


def minimality_witnesses(module, summands) -> tuple[str, ...]:
    """Violations of the two minimality conditions, empty when minimal.

    The summand hulls must be pairwise incomparable, and no summand may lie
    in the sum of the others.  Both are bit tests on up rows.
    """
    lat = _bridge(module)[1]
    up = lat.up
    out = []
    if len(summands) > 1:  # a lone summand has no pair of hulls to compare
        hulls = [profile(s).hull.index for s in summands]
        for (a, ha), (b, hb) in itertools.combinations(zip(summands, hulls), 2):
            if up[ha] >> hb & 1 or up[hb] >> ha & 1:
                out.append(f"hull({a.name})~hull({b.name})")
    xs = [s.index for s in summands]
    for s, x, rest in zip(summands, xs, _rest_joins(lat, xs)):
        if up[x] >> rest & 1:
            out.append(f"{s.name}<=rest")
    return tuple(out)


def is_minimal(rep: Representation) -> tuple[bool, tuple[str, ...]]:
    witnesses = minimality_witnesses(rep.module, rep.summands)
    return not witnesses, witnesses


def make_representation(module, summands) -> Representation:
    summands = tuple(summands)
    if not summands:
        raise ValueError("a representation needs at least one summand")
    _, lat, act = _bridge(module)
    hollow = spectrum_mask(act, "ps_hollow")
    for s in summands:
        if s.module is not module:
            raise ValueError("summand lives in a different module")
        if s.index == lat.bottom:
            raise ZeroSubmodule("zero cannot be a summand")
        if not hollow >> s.index & 1:
            raise ValueError(f"summand {s.name} is not ps-hollow")
    if _join_all(lat, [s.index for s in summands]) != lat.top:
        raise ValueError("summands do not sum to the whole module")
    profs = tuple(_profile(module, s.index) for s in summands)
    return Representation(module, summands, profs, not minimality_witnesses(module, summands))


def minimize(rep: Representation) -> Representation:
    """Reduce a hollow representation to a minimal one: drop, then merge.

    Redundant summands are dropped, the lowest index first, until none is
    left.  Then the summands that share a covering family are merged into
    their sum.  Over R = Z/nZ this always ends at the primary decomposition,
    the module's only minimal representation.  Let n = prod p^{k_p}, write
    M_p for the p-primary part of M and q^k for the q-part of n.

    1. A ps-hollow N lies in one M_p.  (q^k)M is the sum of the primary
       parts other than M_q.  If N had nonzero parts in both M_p and M_q,
       then N <= (q^k)M + M_q = M, yet N lies in neither summand.
    2. Take an irredundant family that sums to M.  Its p-primary summands
       sum to M_p.  pM_p is small in M_p (it is the Frattini subgroup), so
       no summand lies in pM_p, or the others would sum to M_p without it.
       A summand N <= M_p lies in (d)M exactly when it lies in p^v M_p, v
       the power of p in d, so its covers are the d prime to p.  So its
       only minimal cover is (n/p^{k_p}), and its family names its prime.
    3. So merging sums each prime's summands to M_p.  M_p is ps-hollow with
       that family: projecting M_p <= IM + L onto M_p gives
       M_p <= IM_p + (L meet M_p), and IM_p is M_p or lies in pM_p.  The M_p
       are independent and their hulls, the M_p again, are pairwise
       incomparable, so the result is minimal.  No collapse of comparable
       hulls is ever needed.
    """
    module = rep.module
    subs, lat, _ = _bridge(module)
    xs = sorted(s.index for s in rep.summands)
    while redundant := [j for j, rest in enumerate(_rest_joins(lat, xs))
                        if lat.up[xs[j]] >> rest & 1]:
        del xs[redundant[0]]
    groups: dict[frozenset[int], list[int]] = {}
    for x in xs:
        groups.setdefault(_profile(module, x).family, []).append(x)
    merged = sorted(_join_all(lat, group) for group in groups.values())
    return make_representation(module, [subs[x] for x in merged])


def enumerate_minimal_representations(module, max_terms: int | None = None
                                      ) -> tuple[Representation, ...]:
    """All minimal hollow representations with at most max_terms summands.

    Representations are listed by length, then in ``itertools.combinations``
    order over the ps-hollow submodules in canonical order.  The search is
    lattice.irredundant_families with incomparable hulls, by up rows, as its
    pairwise condition, so it prunes every family that breaks either
    minimality condition.  A minimal representation has at most as many
    summands as there are distinct hulls, since its hulls are pairwise
    distinct.  max_terms must be at least 1 when given.
    """
    subs, lat, act = _bridge(module)
    hollows = spectrum(act, "ps_hollow")
    hull = {x: _profile(module, x).hull.index for x in hollows}

    def incomparable(a, b):
        return not (lat.up[hull[a]] >> hull[b] & 1 or lat.up[hull[b]] >> hull[a] & 1)

    families = irredundant_families(lat, hollows, incomparable, max_terms)
    return tuple(make_representation(module, [subs[x] for x in f]) for f in families)


# -- uniqueness ----------------------------------------------------------------

def _unmet_minimal_pair(r1: Representation, r2: Representation) -> list[str]:
    """The witness that a pair of representations is not minimal, if it is not."""
    if r1.module is not r2.module:
        raise ValueError("representations are of different modules")
    return [] if r1.minimal and r2.minimal else ["representation-not-minimal"]


def verify_first_uniqueness(r1: Representation, r2: Representation, report: Report) -> None:
    """Minimal representations agree in length, families, and matching hulls."""
    unmet = _unmet_minimal_pair(r1, r2)
    if unmet:
        report.gate("first_uniqueness", *unmet)
        return
    report.check("first_uniqueness.count", len(r1.summands) == len(r2.summands),
                 str(len(r1.summands)), str(len(r2.summands)))
    fams1 = sorted(sorted(p.family) for p in r1.profiles)
    fams2 = sorted(sorted(p.family) for p in r2.profiles)
    report.check("first_uniqueness.families", fams1 == fams2,
                 *(ideal_set_names(Ideal(r1.module.ring, d) for d in f) for f in fams1))
    bad = []
    for p1 in r1.profiles:
        for p2 in r2.profiles:
            if p1.family == p2.family and p1.hull.index != p2.hull.index:
                bad.append(f"{p1.family_name}:{p1.hull.name}!={p2.hull.name}")
    report.check("first_uniqueness.hulls_match", not bad, *bad)


def _aligned(r1: Representation, r2: Representation, not_ps=()):
    """The profiles of r1 paired with those of r2 by family, and the unmet hypotheses.

    The hypotheses, in order: both representations are minimal, their lengths
    agree, no hull is named in not_ps, and the families of r2 are distinct and
    include every family of r1.  The witnesses are those of the first that
    fails, none when all hold; only then are the pairs read.
    """
    by_family = {p.family: p for p in r2.profiles}
    if len(by_family) != len(r2.profiles):
        unaligned = ["duplicate families in a minimal representation"]
    elif any(p1.family not in by_family for p1 in r1.profiles):
        unaligned = ["families do not match; first uniqueness fails"]
    else:
        unaligned = []
    unmet = (_unmet_minimal_pair(r1, r2)
             or (["lengths-differ"] if len(r1.summands) != len(r2.summands) else [])
             or [f"hull-not-ps-hollow:{n}" for n in not_ps]
             or unaligned)
    return [(p1, by_family.get(p1.family)) for p1 in r1.profiles], unmet


def verify_second_uniqueness(r1: Representation, r2: Representation, report: Report) -> None:
    """At family-minimal positions, summands coincide or the hull is not ps-hollow.

    The two representations are aligned by their covering families first;
    minimality between families is set inclusion of the ideal sets.
    """
    pairs, unmet = _aligned(r1, r2)
    if unmet:
        report.gate("second_uniqueness", *unmet)
        return
    families = [p1.family for p1, _ in pairs]
    hollow = spectrum_mask(_bridge(r1.module)[2], "ps_hollow")
    report.flag(FAMILY_ORDER_FLAG)
    for p1, p2 in pairs:
        if any(other < p1.family for other in families):
            continue
        same = p1.submodule.index == p2.submodule.index
        hull_ps = bool(hollow >> p1.hull.index & 1)
        report.check(f"second_uniqueness.{p1.family_name}", same or not hull_ps,
                     f"left={p1.submodule.name}", f"right={p2.submodule.name}",
                     f"hull_ps_hollow={hull_ps}")


def check_aligned_equality(r1: Representation, r2: Representation, report: Report) -> None:
    """When every summand hull is ps-hollow, aligned summands are identical."""
    hollow = spectrum_mask(_bridge(r1.module)[2], "ps_hollow")
    not_ps = [p.hull.name for p in r1.profiles + r2.profiles if not hollow >> p.hull.index & 1]
    pairs, unmet = _aligned(r1, r2, not_ps)
    if unmet:
        report.gate("aligned_equality", *unmet)
        return
    bad = [f"{p1.submodule.name}!={p2.submodule.name}"
           for p1, p2 in pairs if p1.submodule.index != p2.submodule.index]
    report.check("aligned_equality", not bad, *bad)


# -- structural theorem checkers ------------------------------------------------

@memo
def _nonsmall_outside_images(module) -> tuple[str, ...]:
    """Names of the non-small submodules that are not ideal multiples of the module.

    The hypothesis they refute is module-wide, so the list is memoized on the
    module.
    """
    images = {img.index for img in distinct_ideal_images(module)}
    return tuple(k.name for k in enumerate_submodules(module)
                 if k.index not in images and not is_small(k))


def check_nonsmall_inheritance(module, sub: Submodule, report: Report) -> None:
    """Non-small submodules of a ps-hollow submodule inherit its profile.

    Hypotheses: sub is ps-hollow, and every non-small submodule of the module
    is an ideal multiple of it.  Conclusion, for every K <= sub that is not
    small inside sub: K is ps-hollow with the same covering family, and its
    full covering-ideal set agrees with that of sub.
    """
    report.flag(NONSMALL_READING_FLAG)
    claim = f"nonsmall_inheritance.{sub.name}"
    subs, lat, act = _bridge(module)
    x = sub.index
    unmet = []
    if not spectrum_mask(act, "ps_hollow") >> x & 1:
        unmet.append(f"{sub.name}-not-ps-hollow")
    outside = _nonsmall_outside_images(module)
    if outside:
        unmet.append("non-small-not-ideal-multiple:" + ",".join(outside))
    if unmet:
        report.gate(claim, *unmet)
        return
    prof = _profile(module, x)
    for k in _bits(lat.down[x]):
        # Zero is small everywhere, so every k left is nonzero.
        if _small_in(lat, k, lat.bottom, x):
            continue
        kp = _profile(module, k)
        ok = kp.ps_hollow and kp.family == prof.family and kp.covers == prof.covers
        report.check(f"{claim}.{subs[k].name}", ok,
                     f"ps_hollow={kp.ps_hollow}", f"family={kp.family_name}",
                     f"covers={ideal_set_names(kp.covers)}")


def _four_equivalents(module) -> dict[str, bool]:
    _, lat, act = _bridge(module)
    simples = _simples(lat)
    return {
        "multiplication": is_multiplication_module(module),
        "ps_hollow_all_simple": not spectrum_mask(act, "ps_hollow") & ~simples,
        "second_all_simple": not spectrum_mask(act, "second") & ~simples,
        "comultiplication": is_comultiplication_module(module),
    }


def _annihilator_divisors(module, xs) -> list[int]:
    """The divisor d with annihilator (d) of each submodule index in xs."""
    slots, divs = _annihilator_slots(module), module.ring.divisors
    return [divs[slots[x]] for x in xs]


def check_semisimple_equivalences(module, report: Report) -> None:
    """For semisimple modules with separating annihilators, four conditions agree.

    The conditions: the module is multiplication; every ps-hollow submodule is
    simple; every second submodule is simple; the module is comultiplication.
    Separation means no maximal second submodule is redundant in the
    intersection of their annihilators.  The intersection of the ideals (d)
    is (lcm of the d).
    """
    unmet = []
    if not is_semisimple_module(module):
        unmet.append("not-semisimple")
    subs, lat, act = _bridge(module)
    maximal = _maximal(lat, spectrum_mask(act, "second"))
    anns = _annihilator_divisors(module, maximal)
    (ann_whole,) = _annihilator_divisors(module, [lat.top])
    for j, x in enumerate(maximal):
        if math.lcm(*anns[:j], *anns[j + 1:]) == ann_whole:
            unmet.append(f"annihilator-separation-fails-at:{subs[x].name}")
    if unmet:
        report.gate("semisimple_equivalences", *unmet)
        return
    values = _four_equivalents(module)
    report.check("semisimple_equivalences", len(set(values.values())) == 1,
                 *(f"{k}={v}" for k, v in values.items()))


def check_second_rep_equivalences(module, report: Report) -> None:
    """Same four-way agreement for semisimple second representable modules.

    Requires the attached annihilators to be pairwise incomparable; also
    verifies that every irredundant second representation yields the same
    attached set.
    """
    unmet = []
    if not is_semisimple_module(module):
        unmet.append("not-semisimple")
    reps = find_minimal_second_representations(module)
    if not reps:
        unmet.append("not-second-representable")
        report.gate("second_rep_equivalences", *unmet)
        return
    att_sets = [frozenset(_annihilator_divisors(module, [k.index for k in r])) for r in reps]
    report.check("second_rep_attached_consistent", len(set(att_sets)) == 1,
                 *(ideal_set_names(Ideal(module.ring, d) for d in s)
                   for s in sorted(set(att_sets), key=sorted)))
    if not _annihilators_incomparable(att_sets[0]):
        unmet.append("attached-annihilators-comparable")
    if unmet:
        report.gate("second_rep_equivalences", *unmet)
        return
    values = _four_equivalents(module)
    report.check("second_rep_equivalences", len(set(values.values())) == 1,
                 *(f"{k}={v}" for k, v in values.items()))


def _annihilators_incomparable(ds) -> bool:
    """Whether no two of the ideals (d), d in ds, are comparable unless equal."""
    return all(a == b or (a % b and b % a) for a, b in itertools.combinations(ds, 2))


def _is_direct(module, summands) -> bool:
    return math.prod(s.order for s in summands) == module.size


def _gate_or_check_direct(report: Report, claim: str, unmet, module, summands) -> None:
    """Gate the claim on the unmet hypotheses, or else check that the sum is direct."""
    if unmet:
        report.gate(claim, *unmet)
    else:
        report.check(claim, _is_direct(module, summands),
                     f"orders={'x'.join(str(s.order) for s in summands)}",
                     f"module={module.size}")


def check_direct_sum_criteria(module, summands, part: int, report: Report) -> None:
    """Two sufficient criteria for a representation to be a direct sum.

    Part 1 applies to an irredundant second representation with incomparable
    attached annihilators whose summand-vs-rest intersections are zero or
    ps-hollow; it checks that directness is equivalent to pairwise zero
    intersections.  Part 2 applies to a minimal hollow representation of a
    distributive module in which every submodule of a summand is zero,
    strongly irreducible inside the summand, or shares the summand's covering
    family; it checks that the sum is direct.

    Over Z/nZ, part 1's gates attached-annihilators-comparable and
    rest-intersection-not-ps-hollow never fire once the others pass; both stay
    as the theorem's hypotheses.  A second submodule is an elementary abelian
    p-group with annihilator (p), so attached annihilators are comparable only
    when equal.  Second summands summing to M make each p-part M_p elementary
    abelian, and X = N_i meet rest lies in the p-group N_i.  If p does not
    divide d, X <= M_p = dM_p <= dM; if it does, dM has no p-part, and
    projecting X <= dM + Y to M_p gives X <= Y.  So X is zero or ps-hollow.
    """
    summands = tuple(summands)
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    subs, lat, act = _bridge(module)
    up, meets, bottom = lat.up, lat.meet_table, lat.bottom
    xs = [s.index for s in summands]
    hollow = spectrum_mask(act, "ps_hollow")
    unmet = []
    if not summands or _join_all(lat, xs) != lat.top:
        unmet.append("summands-do-not-sum-to-module")
    if bottom in xs:
        unmet.append("zero-summand")

    if part == 1:
        claim = "direct_sum.second_route"
        rests = _rest_joins(lat, xs)
        if not unmet:
            second = spectrum_mask(act, "second")
            if not all(second >> x & 1 for x in xs):
                unmet.append("summands-not-all-second")
            if any(up[x] >> rest & 1 for x, rest in zip(xs, rests)):
                unmet.append("redundant-summand")
            if not _annihilators_incomparable(_annihilator_divisors(module, xs)):
                unmet.append("attached-annihilators-comparable")
        if not unmet:
            for s, x, rest in zip(summands, xs, rests):
                inter = meets[x][rest]
                if inter != bottom and not hollow >> inter & 1:
                    unmet.append(f"rest-intersection-not-ps-hollow:{s.name}")
        if unmet:
            report.gate(claim, *unmet)
            return
        direct = _is_direct(module, summands)
        pairwise = all(meets[a][b] == bottom for a, b in itertools.combinations(xs, 2))
        report.check(claim, direct == pairwise,
                     f"direct={direct}", f"pairwise_zero={pairwise}")
        return

    claim = "direct_sum.distributive_route"
    report.flag(INNER_IRREDUCIBLE_FLAG)
    if not unmet:
        if not is_distributive_module(module):
            unmet.append("not-distributive")
        if any(not hollow >> x & 1 for x in xs):
            unmet.append("summand-not-ps-hollow")
        elif minimality_witnesses(module, summands):
            unmet.append("representation-not-minimal")
    if not unmet:
        for s, x in zip(summands, xs):
            fam = _profile(module, x).family
            # The nonzero y <= s not strongly irreducible in the interval [0, s],
            # by submodule index, and s itself, its top, outside that domain.
            failing = _violations(act, "strongly_irreducible", bottom, x) | 1 << x
            for y in _bits(failing & ~(1 << bottom)):
                if hollow >> y & 1 and _profile(module, y).family == fam:
                    continue
                unmet.append(f"submodule-alternative-fails:{subs[y].name}-in-{s.name}")
    _gate_or_check_direct(report, claim, unmet, module, summands)


def check_hull_disjoint_directness(module, representation: Representation,
                                   report: Report) -> None:
    """Minimal representation with hereditary ps-hollow summands and disjoint hulls
    is a direct sum."""
    claim = "hull_disjoint_direct"
    subs, lat, act = _bridge(module)
    # Every nonzero submodule that is not ps-hollow: zero's bit is clear in the mask.
    not_hollow = ~spectrum_mask(act, "ps_hollow") & ~(1 << lat.bottom)
    unmet = []
    if not representation.minimal:
        unmet.append("representation-not-minimal")
    for s in representation.summands:
        bad = [subs[x].name for x in _bits(lat.down[s.index] & not_hollow)]
        if bad:
            unmet.append(f"submodules-of-{s.name}-not-all-ps-hollow:" + ",".join(bad))
    for p, q in itertools.combinations(representation.profiles, 2):
        if lat.meet_table[p.hull.index][q.hull.index] != lat.bottom:
            unmet.append(f"hulls-overlap:{p.hull.name}&{q.hull.name}")
    _gate_or_check_direct(report, claim, unmet, module, representation.summands)


def check_hull_inheritance_directness(module, representation: Representation,
                                      report: Report) -> None:
    """Minimal representation whose hulls pass their family to all nonzero
    submodules is a direct sum."""
    claim = "hull_inheritance_direct"
    subs, lat, act = _bridge(module)
    hollow = spectrum_mask(act, "ps_hollow")
    unmet = []
    if not representation.minimal:
        unmet.append("representation-not-minimal")
    for prof in representation.profiles:
        for x in _bits(lat.down[prof.hull.index]):
            if x == lat.bottom:
                continue
            if not hollow >> x & 1 or _profile(module, x).family != prof.family:
                unmet.append(f"hull-submodule-breaks-family:{subs[x].name}-in-{prof.hull.name}")
    _gate_or_check_direct(report, claim, unmet, module, representation.summands)
