import dataclasses
import itertools
import math

import oracles
from oracles import report_of
import pytest

from hollowlat.lattice import lower_interval
from hollowlat.modules import (
    FiniteModule,
    Ideal,
    Ring,
    ZeroSubmodule,
    annihilator,
    enumerate_submodules,
    find_minimal_second_representations,
    find_second_submodules,
    is_distributive_module,
    is_hollow_module,
    is_small,
    span,
    submodule_lattice,
    submodules_within,
    whole_module,
)
from hollowlat.pshollow import (
    check_aligned_equality,
    check_direct_sum_criteria,
    check_distributive_directness,
    check_hull_disjoint_directness,
    check_hull_inheritance_directness,
    check_min_cover_ideals,
    check_nonsmall_inheritance,
    check_profile_of_sum,
    check_second_rep_equivalences,
    check_semisimple_equivalences,
    enumerate_minimal_representations,
    find_ps_hollow_submodules,
    is_hollow_ideal,
    is_minimal,
    is_ps_hollow,
    make_representation,
    minimality_witnesses,
    minimize,
    profile,
    verify_first_uniqueness,
    verify_second_uniqueness,
)

PASS, FAIL, UNMET = "pass", "fail", "hypothesis-unmet"


def z(n):
    return FiniteModule(Ring(n), [n])


def klein():
    return FiniteModule(Ring(2), [2, 2])


def cyclic(module, d):
    gen = d % module.ring.n
    return span(module, (gen,) if gen else ())


def prime_power_complements(n):
    """Oracle for the canonical summands: n // p**multiplicity for each prime p."""
    out = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            out.append(n // q)
        p += 1
    if rest > 1:
        out.append(n // rest)
    return sorted(out)


class TestPsHollow:
    def test_four_in_z12(self):
        assert is_ps_hollow(cyclic(z(12), 4))

    def test_whole_z12_is_not(self):
        # witness: M <= (4)M + (3) with M in neither part
        assert not is_ps_hollow(whole_module(z(12)))

    def test_zero_rejected(self):
        with pytest.raises(ZeroSubmodule):
            is_ps_hollow(enumerate_submodules(z(12))[0])

    def test_all_nonzero_submodules_of_second_module(self):
        # the klein module is second, so everything nonzero is ps-hollow
        k = klein()
        assert whole_module(k) in find_second_submodules(k)
        for sub in enumerate_submodules(k):
            if not sub.is_zero:
                assert is_ps_hollow(sub)

    def test_klein_whole_ps_hollow_but_not_hollow(self):
        k = klein()
        whole = whole_module(k)
        assert is_ps_hollow(whole)
        assert not is_hollow_module(whole)

    def test_integer_oracle_for_cyclic_modules(self):
        # oracle in plain integer arithmetic: dZn <= eZn + fZn iff gcd(e,f) | d
        def oracle(n, d):
            divs = [x for x in range(1, n + 1) if n % x == 0]
            import math
            for e, f in itertools.product(divs, divs):
                if d % math.gcd(e, f) == 0 and d % e and d % f:
                    return False
            return True

        for n in (12, 30, 36, 60):
            module = z(n)
            got = {s.name for s, _ in find_ps_hollow_submodules(module)}
            expected = {f"({d})" for d in range(1, n) if n % d == 0 and oracle(n, d)}
            assert got == expected, n


class TestProfiles:
    def test_profile_of_four_in_z12(self):
        prof = profile(cyclic(z(12), 4))
        assert [i.name for i in prof.covers] == ["(1)", "(2)", "(4)"]
        assert [i.name for i in prof.min_covers] == ["(4)"]
        assert prof.hull.name == "(4)"
        assert prof.ps_hollow

    def test_profile_of_whole_module(self):
        prof = profile(whole_module(z(12)))
        assert [i.name for i in prof.min_covers] == ["(1)"]
        assert prof.hull.order == 12
        assert not prof.ps_hollow

    def test_canonical_families_are_singletons(self):
        for n in (12, 30, 60):
            module = z(n)
            for d in prime_power_complements(n):
                prof = profile(cyclic(module, d))
                assert prof.family == frozenset({d}), (n, d)

    def test_z30_ps_hollow_set(self):
        got = [s.name for s, _ in find_ps_hollow_submodules(z(30))]
        assert got == ["(15)", "(10)", "(6)"]

    def test_simple_module_single_ps_hollow(self):
        assert [s.name for s, _ in find_ps_hollow_submodules(z(7))] == ["(1)"]


class TestHollowIdeals:
    def test_four_hollow_in_z12(self):
        assert is_hollow_ideal(Ideal(Ring(12), 4))

    def test_two_not_hollow_in_z12(self):
        # (2) = (4) + (6) with both parts proper
        assert not is_hollow_ideal(Ideal(Ring(12), 2))

    def test_unit_ideal_hollow_in_prime_ring(self):
        assert is_hollow_ideal(Ideal(Ring(5), 1))

    def test_matches_pair_reference(self):
        # every divisor of every modulus below 1000 against the divisor-pair loop
        for n in range(2, 1000):
            ring = Ring(n)
            for d in ring.divisors:
                assert is_hollow_ideal(Ideal(ring, d)) == oracles.hollow_ideal_reference(n, d), (n, d)

    def test_min_cover_scan(self):
        for n in (12, 30, 60):
            rep = report_of(check_min_cover_ideals, z(n))
            assert rep.ok and rep.findings, rep.render_text()


class TestProfileOfSum:
    def test_comparable_inputs_rejected(self):
        m = z(12)
        rep = report_of(check_profile_of_sum, cyclic(m, 6), cyclic(m, 3), frozenset({3}))
        assert findings(rep) == [("profile_sum.(6)+(3)", UNMET, ("comparable",))]

    def test_klein_lines_share_family(self):
        k = klein()
        lines = [s for s in enumerate_submodules(k) if s.order == 2]
        rep = report_of(check_profile_of_sum, lines[0], lines[1], profile(lines[0]).family)
        assert rep.ok and rep.findings[0].verdict == PASS

    def test_z30_different_families(self):
        m = z(30)
        rep = report_of(check_profile_of_sum, cyclic(m, 6), cyclic(m, 10),
                        profile(cyclic(m, 6)).family)
        assert rep.ok, rep.render_text()

    def test_family_outside_associated_ideals_rejected(self):
        m = z(30)
        rep = report_of(check_profile_of_sum, cyclic(m, 6), cyclic(m, 10), frozenset({30}))
        assert findings(rep) == [("profile_sum.(6)+(10)", UNMET, ("family-not-associated:30",))]

    def test_non_ps_hollow_inputs_gate_with_every_unmet_hypothesis(self):
        # (2) and (3) of Z_12 are incomparable, and (2) is not ps-hollow.
        m = z(12)
        assert profile(cyclic(m, 3)).ps_hollow and not profile(cyclic(m, 2)).ps_hollow
        rep = report_of(check_profile_of_sum, cyclic(m, 2), cyclic(m, 3), frozenset({0, 5}))
        assert findings(rep) == [("profile_sum.(2)+(3)", UNMET,
                                  ("not-ps-hollow:(2)", "family-not-associated:0,5"))]

    def test_different_modules_rejected(self):
        with pytest.raises(ValueError, match="^submodules live in different modules$"):
            report_of(check_profile_of_sum, cyclic(z(30), 6), cyclic(z(30), 10), frozenset())


class TestRepresentations:
    def test_make_validates_sum(self):
        m = z(12)
        with pytest.raises(ValueError):
            make_representation(m, (cyclic(m, 4), cyclic(m, 6)))  # sums to (2)

    def test_make_validates_ps_hollow(self):
        m = z(12)
        with pytest.raises(ValueError):
            make_representation(m, (cyclic(m, 2), cyclic(m, 3)))  # (2) is not ps-hollow

    def test_minimality_witnesses_for_redundant_summand(self):
        m = z(12)
        rep = make_representation(m, (cyclic(m, 3), cyclic(m, 4), cyclic(m, 6)))
        ok, witnesses = is_minimal(rep)
        assert not ok
        assert any("(6)" in w for w in witnesses)

    def test_minimize_drops_redundant(self):
        m = z(12)
        rep = make_representation(m, (cyclic(m, 3), cyclic(m, 4), cyclic(m, 6)))
        out = minimize(rep)
        assert sorted(s.name for s in out.summands) == ["(3)", "(4)"]
        assert out.minimal

    def test_minimize_keeps_minimal_input(self):
        m = z(12)
        rep = make_representation(m, (cyclic(m, 4), cyclic(m, 3)))
        out = minimize(rep)
        assert sorted(s.name for s in out.summands) == ["(3)", "(4)"]

    def test_minimize_single_summand_untouched(self):
        # a second module is ps-hollow in itself, like a vector space
        k = klein()
        rep = make_representation(k, (whole_module(k),))
        assert minimize(rep).summands == rep.summands
        assert rep.minimal

    def test_minimize_merges_shared_family(self):
        # two klein lines both carry the unit-ideal family; they merge to the whole
        k = klein()
        lines = [s for s in enumerate_submodules(k) if s.order == 2]
        rep = make_representation(k, (lines[0], lines[1]))
        out = minimize(rep)
        assert [s.order for s in out.summands] == [4]
        assert out.minimal

    def test_enumerate_z12(self):
        reps = enumerate_minimal_representations(z(12))
        assert len(reps) == 1
        assert sorted(s.name for s in reps[0].summands) == ["(3)", "(4)"]

    def test_enumerate_prime_power(self):
        reps = enumerate_minimal_representations(z(8))
        assert len(reps) == 1 and reps[0].summands[0].order == 8

    def test_enumerate_respects_max_terms(self):
        reps = enumerate_minimal_representations(z(30), max_terms=2)
        assert reps == ()

    def test_enumerate_rejects_max_terms_below_one(self):
        with pytest.raises(ValueError):
            enumerate_minimal_representations(z(12), max_terms=0)

    def test_canonical_representation_found(self):
        for n in (12, 30, 60, 72, 180):
            reps = enumerate_minimal_representations(z(n))
            expected = sorted(f"({d})" for d in prime_power_complements(n))
            assert any(sorted(s.name for s in rep.summands) == expected
                       for rep in reps), n


ORACLE_SUMS = [(2, (2, 2)), (2, (2, 2, 2)), (3, (3, 3)), (4, (4, 2)), (4, (4, 4)),
               (6, (6, 2)), (6, (6, 6)), (7, (7, 7)), (8, (8, 2)), (9, (9, 3)),
               (10, (10, 10)), (12, (12, 6))]
ORACLE_MODULES = [(n, (n,)) for n in range(2, 61)] + ORACLE_SUMS


WITNESS_MODULES = [(12, (12,)), (30, (30,)), (2, (2, 2, 2)), (4, (4, 2)), (6, (6, 6))]


def module_id(case):
    ring, factors = case
    return f"ring{ring}-Z" + "x".join(map(str, factors))


def member_sets(families):
    return [tuple(s.members for s in family) for family in families]


class TestSearchAgainstOracle:
    """The pruned search lists exactly what the exhaustive subset loop lists."""

    @pytest.mark.parametrize("ring,factors", ORACLE_MODULES,
                             ids=[module_id(c) for c in ORACLE_MODULES])
    def test_minimal_representations_match(self, ring, factors):
        m = FiniteModule(Ring(ring), factors)
        for max_terms in (None, 1, 2, 3):
            got = [rep.summands for rep in enumerate_minimal_representations(m, max_terms)]
            assert member_sets(got) == member_sets(
                oracles.minimal_representation_families(m, max_terms)), max_terms

    @pytest.mark.parametrize("ring,factors", ORACLE_MODULES,
                             ids=[module_id(c) for c in ORACLE_MODULES])
    def test_second_representations_match(self, ring, factors):
        m = FiniteModule(Ring(ring), factors)
        assert member_sets(find_minimal_second_representations(m)) == member_sets(
            oracles.minimal_second_families(m))

    @pytest.mark.parametrize("ring,factors", WITNESS_MODULES,
                             ids=[module_id(c) for c in WITNESS_MODULES])
    def test_boolean_minimality_agrees_with_witnesses(self, ring, factors):
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        hollows = [s for s, _ in find_ps_hollow_submodules(m)]
        for size in (1, 2, 3):
            for family in itertools.combinations(hollows, size):
                expected = (oracle.irredundant(family)
                            and oracle.hulls_pairwise_incomparable(family))
                assert (not minimality_witnesses(m, family)) == expected, family


def primary_parts(module):
    """{p: (p^k, M_p)} for the p-parts p^k of n with M_p nonzero, as member sets.

    M_p is every element that p^k kills.
    """
    n, parts = module.ring.n, {}
    for p in range(2, n + 1):
        if n % p or any(p % q == 0 for q in range(2, p)):
            continue
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        part = frozenset(x for x in range(module.size) if module.smul(pk, x) == module.zero)
        if len(part) > 1:
            parts[p] = (pk, part)
    return parts


class TestPrimaryDecomposition:
    """The theorem in minimize's docstring, on member sets.

    Over Z/nZ every ps-hollow submodule lies in one primary part M_p, and
    from every ps-hollow family that sums to M minimize ends at the M_p.
    """

    @pytest.mark.parametrize("ring,factors", ORACLE_MODULES,
                             ids=[module_id(c) for c in ORACLE_MODULES])
    def test_ps_hollow_submodules_lie_in_one_primary_part(self, ring, factors):
        # Only a summand of an irredundant family must lie outside p M_p: in
        # Z_4, (2) is ps-hollow and is 2 M_2.  Each has one minimal cover all
        # the same.
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        parts = primary_parts(m).values()
        for sub in oracle.subs:
            if sub.is_zero or not oracle.ps_hollow(sub.members):
                continue
            assert sum(sub.members <= part for _, part in parts) == 1, sub.name
            assert len(oracle.min_covers(sub.members)) == 1, sub.name

    @pytest.mark.parametrize("ring,factors", ORACLE_MODULES,
                             ids=[module_id(c) for c in ORACLE_MODULES])
    def test_minimize_ends_at_the_primary_decomposition(self, ring, factors):
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        parts = primary_parts(m)
        want = {part for _, part in parts.values()}
        hollows = [s for s in enumerate_submodules(m)
                   if not s.is_zero and oracle.ps_hollow(s.members)]
        for size in (1, 2, 3):
            for family in itertools.combinations(hollows, size):
                if oracle.sum(s.members for s in family) != oracle.whole:
                    continue
                if oracle.irredundant(family):
                    # Each summand lies outside p M_p, so (n/p^k) is its one minimal cover.
                    for s in family:
                        p = next(p for p, (_, part) in parts.items() if s.members <= part)
                        pk, part = parts[p]
                        assert not s.members <= oracle.ideal_product(p, part), s.name
                        assert oracle.min_covers(s.members) == [ring // pk], s.name
                got = minimize(make_representation(m, family))
                assert {s.members for s in got.summands} == want, family
                assert got.minimal
        # It is the only minimal representation.
        reps = enumerate_minimal_representations(m)
        assert [{s.members for s in rep.summands} for rep in reps] == [want]


# Klein, Z_2^3 and Z_6 + Z_6: every finding the checkers below emit is
# recomputed on member sets.
CHECKER_MODULES = [(2, (2, 2)), (2, (2, 2, 2)), (6, (6, 6))]


# Every module of a scan for the two second-route gates that the theorem in
# check_direct_sum_criteria's docstring says never fire over Z/nZ.
SECOND_ROUTE_MODULES = [(2, (2, 2)), (2, (2, 2, 2)), (2, (2, 2, 2, 2)), (3, (3, 3)),
                        (3, (3, 3, 3)), (4, (4, 2)), (6, (6, 2)), (6, (6, 6)), (6, (6, 3, 2)),
                        (10, (10, 10)), (12, (12, 6)), (30, (30, 2)), (12, (12,)), (30, (30,))]


def ideal_set_name(n, ds):
    """The report's name of the ideals (d), d in ds, written from the divisors alone."""
    return "{" + ",".join("(0)" if d == n else f"({d})" for d in sorted(ds)) + "}"


def findings(report):
    return [(f.claim, f.verdict, f.witnesses) for f in report.findings]


def second_route_reference(oracle, summands):
    """The findings of direct-sum criterion 1 on the summands, from member sets."""
    claim, sets = "direct_sum.second_route", [s.members for s in summands]
    rests = [oracle.sum(sets[:j] + sets[j + 1:]) for j in range(len(sets))]
    unmet = []
    if not sets or oracle.sum(sets) != oracle.whole:
        unmet.append("summands-do-not-sum-to-module")
    if oracle.zero in sets:
        unmet.append("zero-summand")
    if not unmet:
        if not all(oracle.second(a) for a in sets):
            unmet.append("summands-not-all-second")
        if any(a <= rest for a, rest in zip(sets, rests)):
            unmet.append("redundant-summand")
        # (d) and (e) are comparable when one of d and e divides the other.
        anns = [oracle.annihilator(a) for a in sets]
        if any(d != e and (d % e == 0 or e % d == 0) for d, e in itertools.combinations(anns, 2)):
            unmet.append("attached-annihilators-comparable")
    if not unmet:
        for s, a, rest in zip(summands, sets, rests):
            if a & rest != oracle.zero and not oracle.ps_hollow(a & rest):
                unmet.append(f"rest-intersection-not-ps-hollow:{s.name}")
    if unmet:
        return [(claim, UNMET, tuple(unmet))]
    direct = math.prod(map(len, sets)) == oracle.module.size
    pairwise = all(a & b == oracle.zero for a, b in itertools.combinations(sets, 2))
    return [(claim, PASS if direct == pairwise else FAIL,
             (f"direct={direct}", f"pairwise_zero={pairwise}"))]


def directness_references(oracle, rep):
    """The findings of the three representation-directness checkers on rep, from member sets.

    Submodules are walked in index order and named as the package names them;
    every predicate, sum, hull and covering family is the oracle's.
    """
    named = [(s.name, s.members) for s in enumerate_submodules(oracle.module)[1:]]
    name_of = {a: name for name, a in named}
    sets = [s.members for s in rep.summands]
    hulls = [oracle.hull(a) for a in sets]

    def below(top):
        return [(name, a) for name, a in named if a <= top]

    def keeps_family(a, summand):
        return oracle.ps_hollow(a) and oracle.min_covers(a) == oracle.min_covers(summand)

    minimal = oracle.irredundant(rep.summands) and oracle.hulls_pairwise_incomparable(rep.summands)
    not_minimal = [] if minimal else ["representation-not-minimal"]
    distributive = ([] if oracle.distributive() else ["not-distributive"]) + not_minimal
    if not distributive:
        for s, top in zip(rep.summands, sets):
            for name, a in below(top):
                inner = a != top and oracle.strongly_irreducible_within(a, top)
                if not inner and not keeps_family(a, top):
                    distributive.append(f"submodule-alternative-fails:{name}-in-{s.name}")
    disjoint = list(not_minimal)
    for s, top in zip(rep.summands, sets):
        bad = [name for name, a in below(top) if not oracle.ps_hollow(a)]
        if bad:
            disjoint.append(f"submodules-of-{s.name}-not-all-ps-hollow:" + ",".join(bad))
    for h, k in itertools.combinations(hulls, 2):
        if h & k != oracle.zero:
            disjoint.append(f"hulls-overlap:{name_of[h]}&{name_of[k]}")
    inheritance = list(not_minimal)
    for top, h in zip(sets, hulls):
        inheritance += [f"hull-submodule-breaks-family:{name}-in-{name_of[h]}"
                        for name, a in below(h) if not keeps_family(a, top)]
    direct = math.prod(map(len, sets)) == oracle.module.size
    orders = ("orders=" + "x".join(str(len(a)) for a in sets), f"module={oracle.module.size}")

    def finding(claim, unmet):
        if unmet:
            return [(claim, UNMET, tuple(unmet))]
        return [(claim, PASS if direct else FAIL, orders)]

    return {check_distributive_directness: finding("direct_sum.distributive_route", distributive),
            check_hull_disjoint_directness: finding("hull_disjoint_direct", disjoint),
            check_hull_inheritance_directness: finding("hull_inheritance_direct", inheritance)}


# Every module whose representations the directness checkers are compared on:
# CHECKER_MODULES and Z_n for n <= 60.
DIRECTNESS_MODULES = CHECKER_MODULES + [(n, (n,)) for n in range(2, 61)]


class TestCheckersAgainstOracle:
    """The index-based checkers against their statements on member sets."""

    @pytest.mark.parametrize("ring,factors", DIRECTNESS_MODULES,
                             ids=[module_id(c) for c in DIRECTNESS_MODULES])
    def test_representation_directness_matches_member_sets(self, ring, factors):
        # Every minimal representation, then every family of one to three
        # ps-hollow submodules that sums to the module, most of them not
        # minimal, built with make_representation.
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        hollows = [s for s, _ in find_ps_hollow_submodules(m)]
        reps = list(enumerate_minimal_representations(m))
        reps += [make_representation(m, family)
                 for family in oracle.search(hollows, lambda family: True, 3)]
        for rep in reps:
            for checker, expected in directness_references(oracle, rep).items():
                got = report_of(checker, rep)
                assert findings(got) == expected, (checker.__name__, rep.names())
        assert reps

    def test_directness_gates_a_representation_that_is_not_minimal(self):
        # (6) lies in (3), so Z_12's (3)+(4)+(6) is redundant, and each
        # checker gates it representation-not-minimal first; Z_12 is
        # distributive, so the distributive route names nothing before it.
        m = z(12)
        rep = make_representation(m, [cyclic(m, d) for d in (3, 4, 6)])
        assert not rep.minimal
        for checker in (check_distributive_directness, check_hull_disjoint_directness,
                        check_hull_inheritance_directness):
            (finding,) = report_of(checker, rep).findings
            assert finding.verdict == UNMET
            assert finding.witnesses[0] == "representation-not-minimal", checker.__name__

    @pytest.mark.parametrize("ring,factors", CHECKER_MODULES,
                             ids=[module_id(c) for c in CHECKER_MODULES])
    def test_profile_of_sum_matches_member_sets(self, ring, factors):
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        nonzero = enumerate_submodules(m)[1:]
        hollow = {s.index: oracle.ps_hollow(s.members) for s in nonzero}
        family = {s.index: frozenset(oracle.min_covers(s.members))
                  for s in nonzero if hollow[s.index]}
        associated = frozenset().union(*family.values())

        def has_family(members, fam):
            return oracle.ps_hollow(members) and frozenset(oracle.min_covers(members)) == fam

        checked = 0
        for n, k in itertools.combinations(nonzero, 2):
            unmet = ("comparable",) if n.members <= k.members or k.members <= n.members else ()
            unmet += tuple(f"not-ps-hollow:{s.name}" for s in (n, k) if not hollow[s.index])
            if unmet:
                expected = [(f"profile_sum.{n.name}+{k.name}", UNMET, unmet)]
                assert findings(report_of(check_profile_of_sum, n, k, frozenset())) == expected
                continue
            expected = [(f"profile_sum.{n.name}+{k.name}", UNMET, ("family-not-associated:0",))]
            assert findings(report_of(check_profile_of_sum, n, k, associated | {0})) == expected
            for fam in {family[n.index], family[k.index]}:
                lhs = has_family(oracle.add(n.members, k.members), fam)
                rhs = has_family(n.members, fam) and has_family(k.members, fam)
                expected = [(f"profile_sum.{n.name}+{k.name}.{ideal_set_name(ring, fam)}",
                             PASS if lhs == rhs else FAIL,
                             (f"sum_matches={lhs}", f"parts_match={rhs}"))]
                rep = report_of(check_profile_of_sum, n, k, fam)
                assert findings(rep) == expected, (n, k, fam)
                checked += 1
        assert checked

    @pytest.mark.parametrize("ring,factors", SECOND_ROUTE_MODULES,
                             ids=[module_id(c) for c in SECOND_ROUTE_MODULES])
    def test_second_route_gates_never_fire(self, ring, factors):
        # Every 2- or 3-member irredundant family of second submodules that
        # sums to the module meets all of part 1's hypotheses: neither
        # attached-annihilators-comparable nor rest-intersection-not-ps-hollow
        # fires, and the check itself passes.
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        by_members = {s.members: s for s in enumerate_submodules(m)}
        seconds = [by_members[s.members] for s in oracle.subs
                   if not s.is_zero and oracle.second(s.members)]
        for family in oracle.search(seconds, oracle.irredundant, 3):
            if len(family) > 1:
                (finding,) = report_of(check_direct_sum_criteria, m, family).findings
                assert finding.verdict == PASS, (family, finding.witnesses)

    @pytest.mark.parametrize("ring,factors", CHECKER_MODULES,
                             ids=[module_id(c) for c in CHECKER_MODULES])
    def test_second_route_matches_member_sets(self, ring, factors):
        # Every second representation, then every pair of nonzero submodules
        # that sums to the module, which reaches the other gates too.
        m = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(m)
        subs = enumerate_submodules(m)
        by_members = {s.members: s for s in subs}
        families = [tuple(by_members[s.members] for s in family)
                    for family in oracles.minimal_second_families(m)]
        assert families
        families += [pair for pair in itertools.combinations(subs[1:], 2)
                     if oracle.add(pair[0].members, pair[1].members) == oracle.whole]
        verdicts = set()
        for family in families:
            expected = second_route_reference(oracle, family)
            assert findings(report_of(check_direct_sum_criteria, m, family)) == expected, family
            verdicts.add(expected[0][1])
        assert PASS in verdicts and UNMET in verdicts


class TestUniqueness:
    def test_self_pairs_for_small_moduli(self):
        for n in range(2, 40):
            reps = enumerate_minimal_representations(z(n))
            for r1, r2 in itertools.combinations_with_replacement(reps, 2):
                assert report_of(verify_first_uniqueness, r1, r2).ok
                assert report_of(verify_second_uniqueness, r1, r2).ok
                assert report_of(check_aligned_equality, r1, r2).ok

    def test_klein_representations_agree(self):
        reps = enumerate_minimal_representations(klein())
        assert len(reps) == 1  # the two-line splittings share comparable hulls
        assert reps[0].summands[0].order == 4

    def test_non_minimal_input_rejected(self):
        m = z(12)
        bloated = make_representation(m, (cyclic(m, 3), cyclic(m, 4), cyclic(m, 6)))
        good = enumerate_minimal_representations(m)[0]
        assert not bloated.minimal
        for check, claim, pair in (
                (verify_first_uniqueness, "first_uniqueness", (bloated, good)),
                (verify_second_uniqueness, "second_uniqueness", (good, bloated)),
                (check_aligned_equality, "aligned_equality", (good, bloated))):
            expected = [(claim, UNMET, ("representation-not-minimal",))]
            assert findings(report_of(check, *pair)) == expected

    def test_unaligned_pairs_gate(self):
        # Over Z/nZ a module has one minimal representation (minimize's
        # docstring), so no battery pair reaches these gates.  The pairs here
        # are Z_30's representation against copies of it with a summand cut,
        # a family repeated, or a family swapped for the whole module's.
        m = z(30)
        (good,) = enumerate_minimal_representations(m)
        shorter = dataclasses.replace(good, summands=good.summands[:2], profiles=good.profiles[:2])
        for check, claim in ((verify_second_uniqueness, "second_uniqueness"),
                             (check_aligned_equality, "aligned_equality")):
            expected = [(claim, UNMET, ("lengths-differ",))]
            assert findings(report_of(check, good, shorter)) == expected
        doubled = dataclasses.replace(good, profiles=good.profiles[:2] + good.profiles[:1])
        duplicate = ("duplicate_families_in_a_minimal_representation",)
        assert findings(report_of(verify_second_uniqueness, good, doubled)) == [
            ("second_uniqueness", UNMET, duplicate)]
        assert findings(report_of(check_aligned_equality, good, doubled)) == [
            ("aligned_equality", UNMET, duplicate)]
        # The whole module's hull is not ps-hollow, which aligned_equality
        # gates on before it aligns.
        moved = dataclasses.replace(good, profiles=good.profiles[1:] + (profile(whole_module(m)),))
        assert findings(report_of(verify_second_uniqueness, good, moved)) == [
            ("second_uniqueness", UNMET, ("families_do_not_match;_first_uniqueness_fails",))]
        assert findings(report_of(check_aligned_equality, good, moved)) == [
            ("aligned_equality", UNMET, ("hull-not-ps-hollow:(1)",))]

    def test_different_modules_rejected(self):
        r1 = enumerate_minimal_representations(z(12))[0]
        r2 = enumerate_minimal_representations(z(30))[0]
        for check in (verify_first_uniqueness, verify_second_uniqueness, check_aligned_equality):
            with pytest.raises(ValueError, match="^representations are of different modules$"):
                report_of(check, r1, r2)


# Z_n for n <= 120 and the 2- and 3-factor sums of order <= 256 from 2..12,
# over the ring of their exponent.
DISTRIBUTIVE_ROUTE_MODULES = [(n, (n,)) for n in range(2, 121)] + [
    (math.lcm(*factors), factors) for k in (2, 3)
    for factors in itertools.combinations_with_replacement(range(2, 13), k)
    if math.prod(factors) <= 256]


class TestTheoremCheckers:
    def test_nonsmall_inheritance_on_z12_instances(self):
        m = z(12)
        for d in (3, 4):
            rep = report_of(check_nonsmall_inheritance, cyclic(m, d))
            assert rep.ok, rep.render_text()
            assert all(f.verdict == PASS for f in rep.findings)

    def test_nonsmall_inheritance_gates_on_klein(self):
        # klein lines are not small and not ideal multiples
        k = klein()
        line = next(s for s in enumerate_submodules(k) if s.order == 2)
        rep = report_of(check_nonsmall_inheritance, line)
        assert rep.findings[0].verdict == UNMET

    def test_nonsmall_hypothesis_decided_once_per_module(self, monkeypatch):
        # Whether every non-small submodule is an ideal multiple is a question
        # about the module, so a second call on the same module asks no
        # smallness again, and every report equals a fresh module's.
        m = FiniteModule(Ring(12), [12, 6])
        calls = []
        monkeypatch.setattr("hollowlat.pshollow.is_small",
                            lambda k: calls.append(k.index) or is_small(k))
        subs = [s for s, _ in find_ps_hollow_submodules(m)]
        assert len(subs) > 1
        first = report_of(check_nonsmall_inheritance, subs[0])
        assert calls
        calls.clear()
        rest = [report_of(check_nonsmall_inheritance, s) for s in subs[1:]]
        assert calls == []
        assert first.findings[0].verdict == UNMET
        for sub, rep in zip(subs, [first, *rest]):
            fresh = FiniteModule(Ring(12), [12, 6])
            again = report_of(check_nonsmall_inheritance, enumerate_submodules(fresh)[sub.index])
            assert rep.render_text() == again.render_text()

    def test_semisimple_equivalences_z30(self):
        rep = report_of(check_semisimple_equivalences, z(30))
        assert rep.findings[0].verdict == PASS

    def test_semisimple_equivalences_gate_z12(self):
        rep = report_of(check_semisimple_equivalences, z(12))
        assert rep.findings[0].verdict == UNMET

    def test_semisimple_equivalences_klein(self):
        # one maximal second submodule (the whole), so separation holds
        # vacuously; all four conditions are false, which still agrees
        rep = report_of(check_semisimple_equivalences, klein())
        assert rep.findings[0].verdict == PASS
        assert all(w.endswith("False") for w in rep.findings[0].witnesses)

    def test_second_rep_equivalences_z30(self):
        rep = report_of(check_second_rep_equivalences, z(30))
        assert rep.ok
        assert rep.findings[-1].verdict == PASS

    def test_direct_sum_second_route_z30(self):
        m = z(30)
        summands = tuple(cyclic(m, d) for d in (10, 6, 15))
        rep = report_of(check_direct_sum_criteria, m, summands)
        assert rep.findings[0].verdict == PASS, rep.render_text()

    def test_direct_sum_second_route_gates_on_z12(self):
        m = z(12)
        rep = report_of(check_direct_sum_criteria, m, (cyclic(m, 3), cyclic(m, 4)))
        assert rep.findings[0].verdict == UNMET

    def test_direct_sum_distributive_route(self):
        for n in (12, 30, 60, 72, 180):
            m = z(n)
            summands = tuple(cyclic(m, d) for d in prime_power_complements(n))
            rep = report_of(check_distributive_directness, make_representation(m, summands))
            assert rep.findings[-1].verdict == PASS, (n, rep.render_text())

    def test_distributive_route_gates_on_klein(self):
        k = klein()
        rep = report_of(check_distributive_directness, make_representation(k, (whole_module(k),)))
        assert findings(rep) == [  # klein is not distributive
            ("direct_sum.distributive_route", UNMET, ("not-distributive",))]

    def test_distributive_route_passes_exactly_on_cyclic_modules(self):
        # The theorem in check_distributive_directness's docstring: over Z/nZ
        # each module here has one minimal representation, and the route
        # passes on it exactly when every p-part is cyclic, that is, when the
        # module is cyclic (Ore); every other module gates not-distributive.
        passed = 0
        for ring, factors in DISTRIBUTIVE_ROUTE_MODULES:
            m = FiniteModule(Ring(ring), factors)
            cyclic_module = all(sum(f % p == 0 for f in factors) <= 1
                                for p in range(2, ring + 1) if ring % p == 0)
            assert is_distributive_module(m) == cyclic_module, factors
            (rep,) = enumerate_minimal_representations(m)
            (finding,) = report_of(check_distributive_directness, rep).findings
            if cyclic_module:
                assert finding.verdict == PASS, (factors, finding.witnesses)
                passed += 1
            else:
                assert (finding.verdict, finding.witnesses) == (UNMET, ("not-distributive",))
        # 119 cyclic Z_n and 57 cyclic sums, such as Z_2 + Z_3, pass.
        assert (len(DISTRIBUTIVE_ROUTE_MODULES), passed) == (331, 176)

    def test_different_modules_rejected(self):
        # A family of Z_30 handed to the second route with Z_12 is misuse.
        m30 = z(30)
        with pytest.raises(ValueError, match="^summand lives in a different module$"):
            report_of(check_direct_sum_criteria, z(12), tuple(cyclic(m30, d) for d in (10, 6, 15)))

    def test_hull_disjoint_directness(self):
        for n in (12, 30, 60):
            rep = enumerate_minimal_representations(z(n))[0]
            out = report_of(check_hull_disjoint_directness, rep)
            assert out.findings[0].verdict == PASS, (n, out.render_text())

    def test_hull_inheritance_directness(self):
        m30 = z(30)
        rep30 = enumerate_minimal_representations(m30)[0]
        assert report_of(check_hull_inheritance_directness, rep30).findings[0].verdict == PASS
        m12 = z(12)
        rep12 = enumerate_minimal_representations(m12)[0]
        rep = report_of(check_hull_inheritance_directness, rep12)
        assert rep.findings[0].verdict == UNMET

    def test_lemma_properties_on_fixture_modules(self):
        # minimal covers are hollow ideals and every submodule sits in its hull
        for module in (z(12), z(30), z(36), klein(), FiniteModule(Ring(4), [4, 2])):
            for sub, prof in find_ps_hollow_submodules(module):
                assert sub.members <= prof.hull.members
                for ideal in prof.min_covers:
                    assert is_hollow_ideal(ideal)


class TestCrossLayerConsistency:
    """The lattice-backed package against the member-set definitions in oracles."""

    FIXTURES = ((12, (12,)), (30, (30,)), (36, (36,)), (2, (2, 2)), (4, (4, 2)))

    def modules(self):
        return [FiniteModule(Ring(n), factors) for n, factors in self.FIXTURES]

    ANNIHILATOR_MODULES = FIXTURES + ((2, (2, 2, 2)), (6, (6, 6)), (12, (12, 6)), (10, (10, 10)))

    @pytest.mark.parametrize("ring,factors", ANNIHILATOR_MODULES,
                             ids=[module_id(c) for c in ANNIHILATOR_MODULES])
    def test_annihilators_match_member_sets(self, ring, factors):
        module = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(module)
        for sub in enumerate_submodules(module):
            got = annihilator(sub)
            assert got.ring == module.ring
            assert got.d == oracle.annihilator(sub.members), sub.name

    def test_module_and_lattice_ps_hollow_agree(self):
        from hollowlat.modules import submodule_lattice
        from hollowlat.spectra import spectrum
        for module in self.modules():
            oracle = oracles.ModuleOracle(module)
            subs = enumerate_submodules(module)
            _, action = submodule_lattice(module)
            expected = {i for i, s in enumerate(subs)
                        if not s.is_zero and oracle.ps_hollow(s.members)}
            assert set(spectrum(action, "ps_hollow")) == expected, module.describe()
            assert {i for i, s in enumerate(subs)
                    if not s.is_zero and is_ps_hollow(s)} == expected, module.describe()

    def test_lattice_arithmetic_matches_member_sets(self):
        from hollowlat.modules import is_small, small_within, sum_of
        for module in self.modules():
            oracle = oracles.ModuleOracle(module)
            subs = enumerate_submodules(module)
            lat, act = submodule_lattice(module)
            assert is_distributive_module(module) == oracle.distributive()
            for a, b in itertools.product(subs, subs):
                assert sum_of(a, b).members == oracle.add(a.members, b.members)
                assert subs[lat.meet(a.index, b.index)].members == a.members & b.members
                assert small_within(a, b) == oracle.small(a.members, b.members)
            for a in subs:
                assert is_small(a) == oracle.small(a.members)
                for s, d in enumerate(module.ring.divisors):
                    assert subs[act.apply(s, a.index)].members == oracle.ideal_product(d, a.members)
                if not a.is_zero:
                    prof = profile(a)
                    assert [i.d for i in prof.covers] == oracle.covers(a.members)
                    assert [i.d for i in prof.min_covers] == oracle.min_covers(a.members)
                    assert prof.hull.members == oracle.hull(a.members)

    @pytest.mark.parametrize("ring,factors", WITNESS_MODULES,
                             ids=[module_id(c) for c in WITNESS_MODULES])
    def test_inner_strong_irreducibility_matches_reference(self, ring, factors):
        # the lower-interval verdict of the distributive route, at every x < s
        from hollowlat.spectra import is_kind
        module = FiniteModule(Ring(ring), factors)
        oracle = oracles.ModuleOracle(module)
        _, action = submodule_lattice(module)
        for s in enumerate_submodules(module):
            inner = lower_interval(action, s.index)[1]
            for i, x in enumerate(submodules_within(s)):
                if x.index != s.index:
                    assert (is_kind(inner, i, "strongly_irreducible")
                            == oracle.strongly_irreducible_within(x.members, s.members)), (
                        s.name, x.name)

    def test_pseudo_distributive_hollow_implies_ps_hollow(self):
        from hollowlat.modules import is_pseudo_distributive_module
        for module in self.modules():
            oracle = oracles.ModuleOracle(module)
            pseudo = is_pseudo_distributive_module(module)
            assert pseudo == oracle.pseudo_distributive(), module.describe()
            for sub in enumerate_submodules(module):
                if sub.is_zero:
                    continue
                hollow = is_hollow_module(sub)
                assert hollow == oracle.hollow(sub.members), (module.describe(), sub.name)
                if pseudo and hollow:
                    assert oracle.ps_hollow(sub.members), (module.describe(), sub.name)

    def test_s_lifting_maximal_hollows_are_ps_hollow(self):
        from hollowlat.modules import is_s_lifting_module, maximal_hollow_submodules
        hit = 0
        for module in self.modules():
            oracle = oracles.ModuleOracle(module)
            hollows = [s.members for s in enumerate_submodules(module)
                       if not s.is_zero and oracle.hollow(s.members)]
            maximal = [h for h in hollows if not any(h < other for other in hollows)]
            assert [s.members for s in maximal_hollow_submodules(module)] == maximal
            if not is_s_lifting_module(module):
                continue
            hit += 1
            for members in maximal:
                assert oracle.ps_hollow(members), module.describe()
        assert hit  # Z_30 at least is s-lifting
