import itertools
import math

import oracles
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
    is_hollow_module,
    is_small,
    span,
    submodule_lattice,
    submodules_within,
    whole_module,
)
from hollowlat.pshollow import (
    HypothesisUnmet,
    check_aligned_equality,
    check_direct_sum_criteria,
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
            rep = check_min_cover_ideals(z(n))
            assert rep.ok and rep.findings, rep.render_text()


class TestProfileOfSum:
    def test_comparable_inputs_rejected(self):
        m = z(12)
        with pytest.raises(HypothesisUnmet):
            check_profile_of_sum(cyclic(m, 6), cyclic(m, 3), frozenset({3}))

    def test_klein_lines_share_family(self):
        k = klein()
        lines = [s for s in enumerate_submodules(k) if s.order == 2]
        rep = check_profile_of_sum(lines[0], lines[1], profile(lines[0]).family)
        assert rep.ok and rep.findings[0].verdict == PASS

    def test_z30_different_families(self):
        m = z(30)
        rep = check_profile_of_sum(cyclic(m, 6), cyclic(m, 10),
                                   profile(cyclic(m, 6)).family)
        assert rep.ok, rep.render_text()

    def test_family_outside_associated_ideals_rejected(self):
        m = z(30)
        with pytest.raises(HypothesisUnmet):
            check_profile_of_sum(cyclic(m, 6), cyclic(m, 10), frozenset({30}))


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


class TestCheckersAgainstOracle:
    """The index-based checkers against their statements on member sets."""

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
            if n.members <= k.members or k.members <= n.members:
                with pytest.raises(HypothesisUnmet, match=r"are comparable$"):
                    check_profile_of_sum(n, k, frozenset())
                continue
            if not (hollow[n.index] and hollow[k.index]):
                with pytest.raises(HypothesisUnmet, match="^both submodules must be ps-hollow$"):
                    check_profile_of_sum(n, k, frozenset())
                continue
            with pytest.raises(HypothesisUnmet, match="^family is not drawn"):
                check_profile_of_sum(n, k, associated | {0})
            for fam in {family[n.index], family[k.index]}:
                lhs = has_family(oracle.add(n.members, k.members), fam)
                rhs = has_family(n.members, fam) and has_family(k.members, fam)
                expected = [(f"profile_sum.{n.name}+{k.name}.{ideal_set_name(ring, fam)}",
                             PASS if lhs == rhs else FAIL,
                             (f"sum_matches={lhs}", f"parts_match={rhs}"))]
                assert findings(check_profile_of_sum(n, k, fam)) == expected, (n, k, fam)
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
                (finding,) = check_direct_sum_criteria(m, family, 1).findings
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
            assert findings(check_direct_sum_criteria(m, family, 1)) == expected, family
            verdicts.add(expected[0][1])
        assert PASS in verdicts and UNMET in verdicts


class TestUniqueness:
    def test_self_pairs_for_small_moduli(self):
        for n in range(2, 40):
            reps = enumerate_minimal_representations(z(n))
            for r1, r2 in itertools.combinations_with_replacement(reps, 2):
                assert verify_first_uniqueness(r1, r2).ok
                assert verify_second_uniqueness(r1, r2).ok
                assert check_aligned_equality(r1, r2).ok

    def test_klein_representations_agree(self):
        reps = enumerate_minimal_representations(klein())
        assert len(reps) == 1  # the two-line splittings share comparable hulls
        assert reps[0].summands[0].order == 4

    def test_non_minimal_input_rejected(self):
        m = z(12)
        bloated = make_representation(m, (cyclic(m, 3), cyclic(m, 4), cyclic(m, 6)))
        good = enumerate_minimal_representations(m)[0]
        with pytest.raises(HypothesisUnmet):
            verify_first_uniqueness(bloated, good)
        with pytest.raises(HypothesisUnmet):
            verify_second_uniqueness(good, bloated)

    def test_different_modules_rejected(self):
        r1 = enumerate_minimal_representations(z(12))[0]
        r2 = enumerate_minimal_representations(z(30))[0]
        with pytest.raises(HypothesisUnmet):
            verify_first_uniqueness(r1, r2)


class TestTheoremCheckers:
    def test_nonsmall_inheritance_on_z12_instances(self):
        m = z(12)
        for d in (3, 4):
            rep = check_nonsmall_inheritance(m, cyclic(m, d))
            assert rep.ok, rep.render_text()
            assert all(f.verdict == PASS for f in rep.findings)

    def test_nonsmall_inheritance_gates_on_klein(self):
        # klein lines are not small and not ideal multiples
        k = klein()
        line = next(s for s in enumerate_submodules(k) if s.order == 2)
        rep = check_nonsmall_inheritance(k, line)
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
        first = check_nonsmall_inheritance(m, subs[0])
        assert calls
        calls.clear()
        rest = [check_nonsmall_inheritance(m, s) for s in subs[1:]]
        assert calls == []
        assert first.findings[0].verdict == UNMET
        for sub, rep in zip(subs, [first, *rest]):
            fresh = FiniteModule(Ring(12), [12, 6])
            again = check_nonsmall_inheritance(fresh, enumerate_submodules(fresh)[sub.index])
            assert rep.render_text() == again.render_text()

    def test_semisimple_equivalences_z30(self):
        rep = check_semisimple_equivalences(z(30))
        assert rep.findings[0].verdict == PASS

    def test_semisimple_equivalences_gate_z12(self):
        rep = check_semisimple_equivalences(z(12))
        assert rep.findings[0].verdict == UNMET

    def test_semisimple_equivalences_klein(self):
        # one maximal second submodule (the whole), so separation holds
        # vacuously; all four conditions are false, which still agrees
        rep = check_semisimple_equivalences(klein())
        assert rep.findings[0].verdict == PASS
        assert all(w.endswith("False") for w in rep.findings[0].witnesses)

    def test_second_rep_equivalences_z30(self):
        rep = check_second_rep_equivalences(z(30))
        assert rep.ok
        assert rep.findings[-1].verdict == PASS

    def test_direct_sum_second_route_z30(self):
        m = z(30)
        summands = tuple(cyclic(m, d) for d in (10, 6, 15))
        rep = check_direct_sum_criteria(m, summands, 1)
        assert rep.findings[0].verdict == PASS, rep.render_text()

    def test_direct_sum_second_route_gates_on_z12(self):
        m = z(12)
        rep = check_direct_sum_criteria(m, (cyclic(m, 3), cyclic(m, 4)), 1)
        assert rep.findings[0].verdict == UNMET

    def test_direct_sum_distributive_route(self):
        for n in (12, 30, 60, 72, 180):
            m = z(n)
            summands = tuple(cyclic(m, d) for d in prime_power_complements(n))
            rep = check_direct_sum_criteria(m, summands, 2)
            assert rep.findings[-1].verdict == PASS, (n, rep.render_text())

    def test_distributive_route_gates_on_klein(self):
        k = klein()
        rep = check_direct_sum_criteria(k, (whole_module(k),), 2)
        assert rep.findings[-1].verdict == UNMET  # klein is not distributive

    def test_hull_disjoint_directness(self):
        for n in (12, 30, 60):
            rep = enumerate_minimal_representations(z(n))[0]
            out = check_hull_disjoint_directness(rep.module, rep)
            assert out.findings[0].verdict == PASS, (n, out.render_text())

    def test_hull_inheritance_directness(self):
        m30 = z(30)
        rep30 = enumerate_minimal_representations(m30)[0]
        assert check_hull_inheritance_directness(m30, rep30).findings[0].verdict == PASS
        m12 = z(12)
        rep12 = enumerate_minimal_representations(m12)[0]
        assert check_hull_inheritance_directness(m12, rep12).findings[0].verdict == UNMET

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
        from hollowlat.modules import is_distributive_module, is_small, small_within, sum_of
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
