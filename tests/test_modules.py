import itertools
import math

import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from hollowlat.lattice import is_join_distributive, is_multiplication
from hollowlat.modules import (
    BoundExceeded,
    CosetModule,
    FiniteModule,
    Ideal,
    Ring,
    ZeroSubmodule,
    annihilator,
    attached_annihilators,
    enumerate_submodules,
    find_minimal_second_representations,
    find_second_submodules,
    ideal_apply,
    image_in_quotient,
    intersect,
    is_comultiplication_module,
    is_distributive_module,
    is_hollow_module,
    is_lifting_module,
    is_multiplication_module,
    is_pseudo_distributive_module,
    is_s_lifting_module,
    is_second_submodule,
    is_semisimple_module,
    is_simple,
    is_small,
    kernel_of_ideal,
    maximal_hollow_submodules,
    quotient_module,
    span,
    submodule_lattice,
    sum_of,
    whole_module,
    zero_submodule,
)
from hollowlat.spectra import spectrum


def z(n, bound=4096):
    return FiniteModule(Ring(n), [n], bound=bound)


def klein():
    return FiniteModule(Ring(2), [2, 2])


def tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def subspace_count(k, p):
    """Subspaces of F_p^k: the sum over j of the Gaussian binomials [k choose j]_p."""
    total = 0
    for j in range(k + 1):
        num = den = 1
        for i in range(j):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


# Direct sums and p-groups on which the enumeration is compared with the
# closure oracle, in addition to Z_n for n = 2..120.
ENUMERATION_MODULES = [
    (12, (12, 6)), (10, (10, 10)), (6, (6, 6)), (30, (6, 10)), (6, (2, 6, 3)),
    (2, (2, 2, 2, 2)), (3, (3, 3, 3)), (4, (4, 2)), (9, (9, 3)), (8, (8, 4)),
]


# Modules the bridge is compared with the member-set oracle on: the above, a
# chain, two cyclic modules with several primes, one on which the prime 2
# acts invertibly, and one whose factors share only part of the ring's primes.
BRIDGE_MODULES = ENUMERATION_MODULES + [
    (1024, (1024,)), (360, (360,)), (1260, (1260,)), (12, (3,)), (30, (6, 10)),
]

# Modules the lifting predicates are compared with the coset-module reference
# on: cyclic modules, which are all lifting, lifting direct sums with and
# without s-lifting, and 16 direct sums that are not lifting.
LIFTING_MODULES = [(n, (n,)) for n in (2, 4, 8, 12, 16, 27, 30, 36, 48, 60, 64, 72, 96)] + [
    (2, (2, 2)), (2, (2, 2, 2)), (2, (2, 2, 2, 2)), (3, (3, 3, 3)), (4, (4, 4)), (4, (4, 2)),
    (4, (4, 2, 2)), (6, (6, 6)), (6, (6, 2)), (6, (6, 3)), (6, (3, 3, 2)), (8, (8, 8)),
    (8, (8, 4)), (9, (9, 3)), (9, (9, 9)), (10, (10, 10)), (12, (12, 6)), (12, (12, 4)),
    (14, (14, 7)), (12, (6, 4)), (12, (12, 3)), (18, (18, 6)), (18, (18, 3)), (20, (20, 2)),
    (24, (24, 4)), (24, (12, 6)), (15, (15, 5)), (30, (6, 10)), (36, (36, 2)), (36, (12, 6)),
    (40, (20, 4)), (45, (15, 9)), (48, (12, 4)),
    (8, (8, 2)), (16, (8, 2)), (16, (16, 2)), (16, (16, 4)), (24, (8, 6)), (24, (24, 2)),
    (24, (24, 6)), (27, (27, 3)), (32, (32, 2)), (32, (32, 4)), (40, (8, 2)), (40, (10, 8)),
    (40, (40, 2)), (48, (16, 6)), (48, (16, 12)), (48, (48, 4)),
]

# Modules whose quotients by every submodule are checked too.
QUOTIENT_MODULES = [(12, (12,)), (4, (4, 2))]


def module_ids(specs):
    return [f"ring{r}-" + "x".join(map(str, f)) for r, f in specs]


def assert_matches_closure(module):
    got, want = enumerate_submodules(module), oracles.closure_submodules(module)
    # Submodule equality compares the module, members, generators and index.
    assert got == want, module.describe()
    assert [s.name for s in got] == [s.name for s in want], module.describe()


def assert_lattice_matches_reference(module):
    got, want = submodule_lattice(module)[0], oracles.submodule_lattice_reference(module)
    for name in ("up", "down", "meet_table", "join_table", "bottom", "top"):
        assert getattr(got, name) == getattr(want, name), (module.describe(), name)


class TestRingAndIdeals:
    def test_ideal_inclusion_is_reverse_divisibility(self):
        r = Ring(12)
        assert Ideal(r, 4).le(Ideal(r, 2))
        assert not Ideal(r, 2).le(Ideal(r, 4))

    def test_ideal_arithmetic(self):
        r = Ring(12)
        assert Ideal(r, 4).add(Ideal(r, 6)).d == 2
        assert Ideal(r, 4).intersect(Ideal(r, 6)).d == 12
        assert Ideal(r, 6).mul(Ideal(r, 4)).d == 12

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            Ideal(Ring(12), 5)

    def test_zero_ideal_name(self):
        assert Ring(12).zero_ideal().name == "(0)"

    def test_divisors_and_primes_match_a_scan(self):
        for n in range(2, 1000):
            divisors = tuple(d for d in range(1, n + 1) if n % d == 0)
            assert Ring(n).divisors == divisors
            assert Ring(n).primes == tuple(p for p in divisors[1:] if tau(p) == 2)
        assert Ring(7000000049).divisors == (1, 7, 1000000007, 7000000049)


class TestSpanAndEnumeration:
    def test_span_single_generator(self):
        assert sorted(span(z(12), (4,)).members) == [0, 4, 8]

    def test_span_empty(self):
        assert span(z(12), ()).order == 1

    def test_span_of_two_klein_lines_is_whole(self):
        k = klein()
        whole = span(k, (k.element((1, 0)), k.element((0, 1))))
        assert whole.order == 4

    def test_cyclic_submodule_counts_are_divisor_counts(self):
        for n in (12, 30, 36, 60, 1024, 1260, 3600, 4096):
            assert len(enumerate_submodules(z(n))) == tau(n)

    def test_elementary_abelian_counts_are_gaussian_binomial_sums(self):
        assert [subspace_count(k, 2) for k in range(1, 8)] == [2, 5, 16, 67, 374, 2825, 29212]
        assert subspace_count(4, 3) == 212
        for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4)]:
            module = FiniteModule(Ring(p), [p] * k)
            assert len(enumerate_submodules(module)) == subspace_count(k, p), (p, k)

    def test_part_orders_above_the_default_bound(self):
        # The 3-part of Z_13122 = Z_2 + Z_6561 has order 6561 > 4096; the
        # enumeration must not check it against the default bound.
        assert len(enumerate_submodules(z(13122, bound=13122))) == 18

    def test_cyclic_enumeration_matches_closure_oracle(self):
        for n in range(2, 121):
            assert_matches_closure(z(n))

    @pytest.mark.parametrize("ring,factors", ENUMERATION_MODULES,
                             ids=module_ids(ENUMERATION_MODULES))
    def test_enumeration_matches_closure_oracle(self, ring, factors):
        assert_matches_closure(FiniteModule(Ring(ring), factors))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27]), min_size=1,
                    max_size=4).filter(lambda factors: math.prod(factors) <= 48))
    @example([8, 4, 2])
    @example([9, 3])
    @example([2, 8, 4])
    @example([6, 4, 2])
    def test_enumeration_matches_closure_oracle_random(self, factors):
        # Random factor lists in random order: one prime with mixed exponents,
        # or several primes, which split into p-parts.
        assert_matches_closure(FiniteModule(Ring(math.lcm(*factors)), factors))

    @pytest.mark.parametrize("ring,factors", ENUMERATION_MODULES,
                             ids=module_ids(ENUMERATION_MODULES))
    def test_span_of_every_pair_matches_closure_oracle(self, ring, factors):
        module = FiniteModule(Ring(ring), factors)
        subs = enumerate_submodules(module)
        assert span(module, ()) is subs[0]
        for g, h in itertools.combinations_with_replacement(range(module.size), 2):
            got = span(module, (g, h))
            assert got is subs[got.index]
            assert got.members == oracles._closure(module, {module.zero}, (g, h)), (g, h)

    @pytest.mark.parametrize("ring,factors", QUOTIENT_MODULES, ids=module_ids(QUOTIENT_MODULES))
    def test_quotient_enumeration_matches_closure_oracle(self, ring, factors):
        module = FiniteModule(Ring(ring), factors)
        for kernel in enumerate_submodules(module):
            assert_matches_closure(quotient_module(module, kernel))

    def test_klein_has_five_submodules(self):
        assert len(enumerate_submodules(klein())) == 5

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceeded):
            FiniteModule(Ring(64), [64, 64], bound=1000)

    def test_canonical_names(self):
        subs = enumerate_submodules(z(12))
        assert [s.name for s in subs] == ["(0)", "(6)", "(4)", "(3)", "(2)", "(1)"]


class TestArithmeticOps:
    def test_ideal_apply_examples(self):
        m = z(12)
        assert sorted(ideal_apply(Ideal(Ring(12), 2), whole_module(m)).members) == [0, 2, 4, 6, 8, 10]
        assert ideal_apply(Ideal(Ring(12), 3), span(m, (4,))).is_zero
        assert ideal_apply(Ideal(Ring(12), 1), span(m, (4,))).name == "(4)"

    def test_sum_and_intersection(self):
        m = z(12)
        assert sum_of(span(m, (4,)), span(m, (6,))).name == "(2)"
        assert intersect(span(m, (4,)), span(m, (6,))).name == "(0)"

    def test_annihilators(self):
        m = z(12)
        assert annihilator(span(m, (4,))).name == "(3)"
        assert annihilator(whole_module(m)).name == "(0)"
        assert annihilator(zero_submodule(m)).d == 1

    def test_kernel_of_ideal(self):
        m = z(12)
        assert kernel_of_ideal(m, Ideal(Ring(12), 3)).name == "(4)"

    def test_annihilator_kills_and_is_maximal(self):
        for module in (z(12), z(30), klein(), FiniteModule(Ring(4), [4, 2])):
            for sub in enumerate_submodules(module):
                ann = annihilator(sub)
                assert ideal_apply(ann, sub).is_zero
                for d in module.ring.divisors:
                    bigger = Ideal(module.ring, d)
                    if ann.le(bigger) and bigger.d != ann.d:
                        assert not ideal_apply(bigger, sub).is_zero


class TestQuotients:
    def test_quotient_orders(self):
        m = z(12)
        assert quotient_module(m, span(m, (4,))).size == 4
        assert quotient_module(m, whole_module(m)).size == 1
        assert quotient_module(m, zero_submodule(m)).size == 12

    def test_quotient_is_a_module(self):
        m = z(12)
        q = quotient_module(m, span(m, (4,)))
        assert isinstance(q, CosetModule)
        # Z12/(4) behaves like Z4: the image of (2) has order 2
        img = image_in_quotient(q, span(m, (2,)))
        assert img.order == 2
        assert len(enumerate_submodules(q)) == 3

    @pytest.mark.parametrize("ring,factors", QUOTIENT_MODULES, ids=module_ids(QUOTIENT_MODULES))
    def test_image_in_quotient_matches_projected_members(self, ring, factors):
        module = FiniteModule(Ring(ring), factors)
        subs = enumerate_submodules(module)
        for kernel in subs:
            quot = quotient_module(module, kernel)
            for sub in subs:
                image = image_in_quotient(quot, sub)
                assert image is enumerate_submodules(quot)[image.index]
                assert image.members == frozenset(quot.project(x) for x in sub.members), \
                    (kernel.name, sub.name)

    def test_projection_is_additive(self):
        m = z(12)
        q = quotient_module(m, span(m, (6,)))
        for a in range(12):
            for b in range(12):
                assert q.add(q.project(a), q.project(b)) == q.project(m.add(a, b))


class TestSmallness:
    def test_zero_is_small_everywhere(self):
        for module in (z(12), klein()):
            assert is_small(zero_submodule(module))

    def test_small_in_z4(self):
        m = z(4)
        assert is_small(span(m, (2,)))

    def test_three_not_small_in_z12(self):
        # (3) + (4) is everything while (4) is proper
        assert not is_small(span(z(12), (3,)))

    def test_six_small_in_z12(self):
        assert is_small(span(z(12), (6,)))


class TestLifting:
    @pytest.mark.parametrize("ring,factors", LIFTING_MODULES, ids=module_ids(LIFTING_MODULES))
    def test_matches_coset_reference(self, ring, factors):
        module = FiniteModule(Ring(ring), factors)
        lifting = oracles.lifting_reference(module)
        assert is_lifting_module(module) == lifting
        assert is_s_lifting_module(module) == oracles.s_lifting_reference(module)

    def test_corpus_has_both_verdicts(self):
        verdicts = [(is_lifting_module(m), is_s_lifting_module(m))
                    for m in (FiniteModule(Ring(r), f) for r, f in LIFTING_MODULES)]
        assert verdicts.count((False, False)) >= 15
        assert (True, True) in verdicts and (True, False) in verdicts


class TestClassPredicates:
    def test_z30_is_mult_comult_semisimple(self):
        m = z(30)
        assert is_multiplication_module(m)
        assert is_comultiplication_module(m)
        assert is_semisimple_module(m)

    def test_z12_classes(self):
        m = z(12)
        assert is_multiplication_module(m)
        assert not is_semisimple_module(m)
        assert is_lifting_module(m)
        assert not is_s_lifting_module(m)
        assert is_distributive_module(m)

    def test_z12_maximal_hollows(self):
        # (3) and (4) are the maximal hollow submodules; (3) is not second
        m = z(12)
        tops = sorted(h.name for h in maximal_hollow_submodules(m))
        assert tops == ["(3)", "(4)"]
        assert not is_second_submodule(span(m, (3,)))

    def test_klein_pseudo_distributive_not_distributive(self):
        k = klein()
        assert is_pseudo_distributive_module(k)
        assert not is_distributive_module(k)

    def test_klein_whole_is_not_hollow(self):
        k = klein()
        assert not is_hollow_module(whole_module(k))

    def test_hollow_of_zero_rejected(self):
        with pytest.raises(ZeroSubmodule):
            is_hollow_module(zero_submodule(z(12)))

    def test_simplicity(self):
        m = z(12)
        assert is_simple(span(m, (4,)))
        assert is_simple(span(m, (6,)))
        assert not is_simple(span(m, (2,)))
        assert not is_simple(zero_submodule(m))


class TestSecondRepresentations:
    def test_z12_seconds(self):
        assert [s.name for s in find_second_submodules(z(12))] == ["(6)", "(4)"]

    def test_second_of_zero_rejected(self):
        with pytest.raises(ZeroSubmodule):
            is_second_submodule(zero_submodule(z(12)))

    def test_z12_not_second_representable(self):
        assert find_minimal_second_representations(z(12)) == ()
        assert attached_annihilators(z(12)) == ()

    def test_z30_attached_annihilators(self):
        atts = attached_annihilators(z(30))
        assert [i.name for i in atts] == ["(2)", "(3)", "(5)"]
        # already pairwise incomparable: distinct primes
        assert all(a.d != b.d for a in atts for b in atts if a is not b)

    def test_klein_seconds_include_whole(self):
        k = klein()
        seconds = find_second_submodules(k)
        assert whole_module(k) in seconds
        reps = find_minimal_second_representations(k)
        assert any(len(rep) == 1 for rep in reps)

    def test_simple_module_is_its_own_representation(self):
        m = z(5)
        reps = find_minimal_second_representations(m)
        assert ((whole_module(m),) in reps)
        assert [i.name for i in attached_annihilators(m)] == ["(0)"]


class TestBridge:
    def test_prime_cyclic_gives_two_chain(self):
        lat, act = submodule_lattice(z(5))
        assert lat.size == 2
        assert act.poset.size == 2

    def test_z12_lattice_is_divisor_lattice(self):
        lat, act = submodule_lattice(z(12))
        assert lat.size == 6
        assert is_multiplication(act)
        assert is_join_distributive(act)

    def test_klein_lattice_is_diamond(self):
        lat, act = submodule_lattice(klein())
        assert lat.size == 5
        assert not is_multiplication(act)

    def test_second_predicate_agrees_across_bridge(self):
        for module in (z(12), z(30), klein(), FiniteModule(Ring(4), [4, 2])):
            oracle = oracles.ModuleOracle(module)
            subs = enumerate_submodules(module)
            _, act = submodule_lattice(module)
            expected = {i for i, s in enumerate(subs)
                        if not s.is_zero and oracle.second(s.members)}
            assert set(spectrum(act, "second")) == expected
            assert {i for i, s in enumerate(subs)
                    if not s.is_zero and is_second_submodule(s)} == expected

    def test_bridge_action_matches_ideal_apply(self):
        # Every divisor's row, prime or composed, against the member images.
        for ring, factors in BRIDGE_MODULES:
            module = FiniteModule(Ring(ring), factors)
            oracle = oracles.ModuleOracle(module)
            subs = enumerate_submodules(module)
            _, act = submodule_lattice(module)
            for s, d in enumerate(module.ring.divisors):
                for x, sub in enumerate(subs):
                    image = oracle.ideal_product(d, sub.members)
                    assert subs[act.apply(s, x)].members == image
                    assert ideal_apply(Ideal(module.ring, d), sub).members == image

    @pytest.mark.parametrize("ring,factors", BRIDGE_MODULES + [(2, (2,) * 5)],
                             ids=module_ids(BRIDGE_MODULES + [(2, (2,) * 5)]))
    def test_lattice_matches_member_subset_reference(self, ring, factors):
        assert_lattice_matches_reference(FiniteModule(Ring(ring), factors))

    @pytest.mark.parametrize("ring,factors", QUOTIENT_MODULES, ids=module_ids(QUOTIENT_MODULES))
    def test_quotient_lattices_match_member_subset_reference(self, ring, factors):
        module = FiniteModule(Ring(ring), factors)
        for kernel in enumerate_submodules(module):
            assert_lattice_matches_reference(quotient_module(module, kernel))

    @pytest.mark.parametrize("ring,factors", BRIDGE_MODULES, ids=module_ids(BRIDGE_MODULES))
    def test_numbering_matches_lexicographic_product(self, ring, factors):
        # The numbering, addition and scaling against the residue tuples in
        # itertools.product order, with their sums and multiples reduced here.
        module = FiniteModule(Ring(ring), factors)
        tuples = list(itertools.product(*(range(d) for d in factors)))
        index = {t: i for i, t in enumerate(tuples)}
        assert module.size == len(tuples)
        for i, t in enumerate(tuples):
            assert module.coordinates(i) == t
            assert module.element(t) == i
            for shift in (-3, -1, 1, 2):
                assert module.element([x + shift * d for x, d in zip(t, factors)]) == i, (t, shift)
        scalars = module.ring.divisors + (0, -1, -ring - 5, ring + 1, 2 * ring - 1)
        others = tuples[::module.size // 64 or 1]
        for i, a in enumerate(tuples):
            for r in scalars:
                assert module.smul(r, i) == index[tuple(r * x % d for x, d in zip(a, factors))]
            for b in others:
                total = index[tuple((x + y) % d for x, y, d in zip(a, b, factors))]
                assert module.add(i, index[b]) == total, (a, b)
