import collections
import functools
import itertools
import random

import oracles
from oracles import report_of
import pytest
from hypothesis import given, settings, strategies as st

from hollowlat import spectra
from hollowlat import cli, lattice
from hollowlat.lattice import (
    _bits,
    _interval,
    build_lattice,
    build_poset,
    chain,
    dual_action,
    is_join_distributive,
    is_multiplication,
    lower_interval,
    make_action,
    quotient,
    star_action,
    trivial_action,
)
from hollowlat.modules import FiniteModule, Ring, enumerate_submodules, submodule_lattice
from hollowlat.report import Report
from hollowlat.spectra import (
    KINDS,
    UPPER_KINDS,
    DomainError,
    check_double_dual,
    check_duality_theorem,
    check_spectrum_identities,
    is_kind,
    is_topological,
    random_instance,
    spectrum,
    spectrum_mask,
    variety,
)

seeds = st.integers(min_value=0, max_value=10**9)

# The submodule lattices the interval fold is checked on besides the reference actions.
INTERVAL_MODULES = ((12, (12,)), (2, (2, 2, 2)), (6, (6, 6)), (12, (12, 6)), (360, (360,)))


def claims(report, prefix):
    """The findings of report whose claim starts with prefix."""
    return [f for f in report.findings if f.claim.startswith(prefix)]


def names(module, ids):
    subs = enumerate_submodules(module)
    return sorted(subs[i].name for i in ids)


class TestDomains:
    def test_prime_rejects_top(self):
        act = trivial_action(chain(2))
        with pytest.raises(DomainError):
            is_kind(act, act.lattice.top, "prime")

    def test_second_rejects_bottom(self):
        act = trivial_action(chain(2))
        with pytest.raises(DomainError):
            is_kind(act, act.lattice.bottom, "second")

    def test_unknown_kind_rejected(self):
        act = trivial_action(chain(2))
        with pytest.raises(ValueError):
            is_kind(act, 0, "bogus")

    def test_one_element_lattice_has_empty_spectra(self):
        act = trivial_action(chain(1))
        for kind in KINDS:
            assert spectrum(act, kind) == ()


class TestPredicates:
    def test_bottom_prime_on_trivial_two_chain(self):
        # s.y <= 0 can only happen for y = 0, so the implication always holds
        act = trivial_action(chain(2))
        assert is_kind(act, 0, "prime")

    def test_top_second_iff_top_image_extreme(self):
        # on a 3-chain, s.top = 1 is neither top nor bottom
        lat = chain(3)
        poset = build_poset(1, [])
        middling = make_action(lat, poset, [[0, 1, 1]])
        assert not is_kind(middling, lat.top, "second")
        extreme = make_action(lat, poset, [[0, 1, 2]])
        assert is_kind(extreme, lat.top, "second")

    def test_z12_second_elements_match_integer_oracle(self):
        # oracle: dZ12 is second iff e*N is N or 0 for every divisor e
        def subgroup(d):
            return frozenset(range(0, 12, d))

        def oracle_second(d):
            sub = subgroup(d)
            for e in (1, 2, 3, 4, 6, 12):
                image = frozenset(e * x % 12 for x in sub)
                if image != sub and image != {0}:
                    return False
            return True

        expected = sorted(f"({d})" for d in (1, 2, 3, 4, 6) if oracle_second(d))
        assert expected == ["(4)", "(6)"]  # frozen from the oracle
        module = FiniteModule(Ring(12), [12])
        _, act = submodule_lattice(module)
        assert names(module, spectrum(act, "second")) == expected

    def test_z12_ps_hollow_spectrum(self):
        module = FiniteModule(Ring(12), [12])
        _, act = submodule_lattice(module)
        got = names(module, spectrum(act, "ps_hollow"))
        assert "(3)" in got and "(4)" in got
        assert "(1)" not in got  # the whole module splits as (3) + (4)

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_strength_implications(self, seed):
        act = random_instance(seed)
        assert set(spectrum(act, "strongly_irreducible")) <= set(spectrum(act, "irreducible"))
        strongly_hollow = set(spectrum(act, "strongly_hollow"))
        assert strongly_hollow <= set(spectrum(act, "hollow"))
        assert strongly_hollow <= set(spectrum(act, "ps_hollow"))

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_multiplication_collapses_ps_hollow(self, seed):
        act = random_instance(seed)
        if is_multiplication(act):
            assert spectrum(act, "ps_hollow") == spectrum(act, "strongly_hollow")


class TestVarieties:
    def test_empty_designated_set_is_union_closed(self):
        lat = chain(3)
        assert is_topological(lat, frozenset())

    def test_chain_varieties_union_closed(self):
        lat = chain(4)
        assert is_topological(lat, frozenset({0, 1, 2}))

    def test_variety_members(self):
        lat = chain(3)
        assert variety(lat, frozenset({0, 1}), 1) == frozenset({1})

    def test_top_element_not_designatable(self):
        lat = chain(2)
        with pytest.raises(DomainError):
            variety(lat, frozenset({1}), 0)

    def test_multiplication_lattice_prime_top(self):
        module = FiniteModule(Ring(12), [12])
        lat, act = submodule_lattice(module)
        assert is_multiplication(act)
        assert is_topological(lat, frozenset(spectrum(act, "prime")))


class TestDualityChecks:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_coprime_second_duality(self, seed):
        rep = report_of(check_duality_theorem, random_instance(seed))
        for claim in ("duality.coprime_equals_dual_second",
                      "duality.dual_coprime_equals_star_second"):
            assert [f.verdict for f in claims(rep, claim)] == ["pass"], rep.render_text()

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_quotient_first_parts(self, seed):
        rep = report_of(check_duality_theorem, random_instance(seed))
        assert rep.ok, rep.render_text()

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_identities(self, seed):
        rep = report_of(check_spectrum_identities, random_instance(seed))
        assert rep.ok, rep.render_text()

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_double_dual(self, seed):
        assert report_of(check_double_dual, random_instance(seed)).ok

    def test_part4_gates_without_join_distributivity(self):
        m3 = build_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        act = make_action(m3, build_poset(1, []), [[0, 1, 0, 0, 1]])
        rep = report_of(check_duality_theorem, act)
        (part4,) = claims(rep, "duality.prime_iff_quotient_first")
        assert part4 == rep.findings[-1]
        assert part4.verdict == "hypothesis-unmet"
        assert part4.witnesses == ("join-distributivity-fails",)

    def test_parts_3_and_4_fold_each_quotient_once(self, monkeypatch):
        # Every non-top element of a chain under the identity action is prime,
        # and the action is join distributive, so both parts visit every x.
        # The quotient at x is the interval [x, top], and one memoized counter
        # stands in for the fold, so a first fold it counts is a memo miss.
        calls = collections.Counter()
        fold = spectra._violations.__wrapped__

        @lattice.memo
        def counting(action, kind, low, high):
            if kind == "first" and high == action.lattice.top:
                calls[low] += 1
            return fold(action, kind, low, high)

        monkeypatch.setattr(spectra, "_violations", counting)
        act = trivial_action(chain(12))
        rep = report_of(check_duality_theorem, act)
        assert rep.ok
        assert len(claims(rep, "duality.prime_quotient_all_first.")) == 11
        assert len(claims(rep, "duality.prime_iff_quotient_first.")) == 11
        assert calls == collections.Counter(range(11))

    @pytest.mark.parametrize("ring,factors", [(360, (360,)), (2, (2, 2, 2)), (8, (8, 4))])
    def test_part3_builds_no_bound_table(self, monkeypatch, ring, factors):
        # The prime and first folds read joins with low off the up rows, so
        # part 3 on a fresh bridge, whose tables are built on first read,
        # builds neither the meet nor the join table.  Part 3 is the prime
        # spectrum and one quotient fold per prime, asked here as the checker
        # asks them; parts 1 and 2 build the dual's tables.
        built, build = [], lattice._bound_table
        monkeypatch.setattr(lattice, "_bound_table",
                            lambda rows: built.append(len(rows)) or build(rows))
        act = submodule_lattice(FiniteModule(Ring(ring), factors))[1]
        for x in spectrum(act, "prime"):
            firsts, expected = spectra._quotient_firsts(act, x)
            assert firsts == expected
        assert built == []
        rep = report_of(check_duality_theorem, act)
        assert rep.ok and claims(rep, "duality.prime_quotient_all_first.")

    def test_module_verify_scans_join_distributivity_once(self, monkeypatch):
        # The bridge action is asked twice, for bridge.join_distributive and for
        # duality part 4; Z_12 is join distributive, so part 4 runs in full.
        # One memoized counter stands in for is_join_distributive in both
        # callers, so a scan it counts is a memo miss.
        scans = collections.Counter()
        scan = lattice.is_join_distributive.__wrapped__

        @lattice.memo
        def counting(action):
            scans[id(action)] += 1
            return scan(action)

        monkeypatch.setattr(cli, "is_join_distributive", counting)
        monkeypatch.setattr(spectra, "is_join_distributive", counting)
        module = FiniteModule(Ring(12), [12])
        report = cli.module_battery(module)
        bridge = submodule_lattice(module)[1]
        assert any(f.claim.startswith("duality.prime_iff_quotient_first.")
                   for f in report.findings)
        assert scans[id(bridge)] == 1

    def test_explicit_spectra_by_hand(self):
        # square with atoms 1 and 2, action s.x = 1 meet x.  By hand: 1 is
        # coprime via s.top <= 1, and 2 via (s.top) join 2 = top, but for 0
        # the join stops at the atom.  The dual action is x -> 1 join x whose
        # second elements are again exactly {1, 2}.
        square = build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        act = star_action(make_action(square, build_poset(1, []), [[0, 1, 0, 1]]))
        assert spectrum(act, "coprime") == (1, 2)
        assert spectrum(dual_action(act), "second") == (1, 2)


class TestAgainstReference:
    """Whole spectra against the per-element loops in tests/oracles.py."""

    @pytest.mark.parametrize("max_lattice,max_poset", [(8, 4), (16, 6)])
    def test_random_action_matches_reference(self, max_lattice, max_poset):
        # random_instance's draws, then both generators from the same rng state:
        # the same table, and the same rng calls made.
        for seed in range(200):
            rng = random.Random(seed)
            lat = spectra.random_lattice(rng, max_lattice)
            poset = spectra.random_poset(rng, max_poset)
            star = rng.random() < 0.4
            state = rng.getstate()
            want = oracles.random_action_reference(rng, lat, poset, star)
            after = rng.getstate()
            rng.setstate(state)
            got = spectra.random_action(rng, lat, poset, star)
            assert rng.getstate() == after, seed
            assert cli.emit_lattice_spec(got) == cli.emit_lattice_spec(want), seed
            assert (cli.emit_lattice_spec(random_instance(seed, max_lattice, max_poset))
                    == cli.emit_lattice_spec(want)), seed

    @pytest.mark.parametrize("act", [pytest.param(act, id=label)
                                     for label, act in oracles.reference_actions()])
    def test_spectra_and_is_kind_match(self, act):
        # Besides the dual and star actions, every lower interval and every
        # quotient, the one-element ones (below bottom, above top) included.
        derived = [act, dual_action(act), star_action(act)]
        for x in act.lattice.elements():
            derived += [lower_interval(act, x)[1], quotient(act, x)[1]]
        for other in derived:
            lat = other.lattice
            for kind in KINDS:
                want = oracles.spectrum_reference(other, kind)
                assert spectrum(other, kind) == want, kind
                excluded = lat.top if kind in UPPER_KINDS else lat.bottom
                got = tuple(x for x in lat.elements()
                            if x != excluded and is_kind(other, x, kind))
                assert got == want, kind


def interval_spectrum_mask(act, kind, low, high):
    """The fold's spectrum of the interval [low, high], in the lattice's numbering."""
    lat = act.lattice
    excluded = high if kind in UPPER_KINDS else low
    members = lat.up[low] & lat.down[high]
    return members & ~(1 << excluded) & ~spectra._violations(act, kind, low, high)


def interval_fold_cases():
    # The dual numbers every interval against its order, as a lattice spec may.
    for label, act in oracles.reference_actions():
        yield pytest.param(act, id=label)
        yield pytest.param(dual_action(act), id=f"dual {label}")
    for ring, factors in INTERVAL_MODULES:
        module = FiniteModule(Ring(ring), factors)
        yield pytest.param(submodule_lattice(module)[1], id=f"interval {module.describe()}")


class TestIntervalFold:
    """The fold on every interval [low, high] against the interval built whole."""

    @pytest.mark.parametrize("act", interval_fold_cases())
    def test_every_interval_matches_the_built_interval(self, act):
        # Member i of the built interval is its i-th member in ascending
        # identifier order, so its spectra map back through the members.  Lower
        # intervals and quotients are checked against the reference loops too.
        lat = act.lattice
        for low in lat.elements():
            for high in _bits(lat.up[low]):
                members = tuple(_bits(lat.up[low] & lat.down[high]))
                built = _interval(act, low, high)[1]
                for kind in KINDS:
                    got = interval_spectrum_mask(act, kind, low, high)
                    want = sum(1 << members[i] for i in spectrum(built, kind))
                    assert got == want, (low, high, kind)
                    if low == lat.bottom or high == lat.top:
                        reference = oracles.spectrum_reference(built, kind)
                        assert got == sum(1 << members[i] for i in reference), (low, high, kind)


@functools.cache
def lattice_corpus():
    return oracles.small_lattices(8)


def corpus_actions(up):
    """The lattice with these up rows under the identity and the meet action, and their duals.

    The meet action s.x = s meet x has the lattice's own order as its poset.
    """
    size = len(up)
    lat = build_lattice(size, [(x, y) for x in range(size) for y in _bits(up[x])])
    assert lat.up == up
    table = [[lat.meet(s, x) for x in range(size)] for s in range(size)]
    acts = [trivial_action(lat), make_action(lat, build_poset(size, lat.pairs()), table)]
    return acts + [dual_action(act) for act in acts]


class TestLatticeCorpus:
    """Every lattice of up to eight elements, under four actions each."""

    def test_counts(self):
        # OEIS A006966: the lattices of 1 to 8 elements up to isomorphism.
        assert [len(lattices) for lattices in lattice_corpus()[1:]] == [1, 1, 1, 2, 5, 15, 53, 222]

    @pytest.mark.parametrize("size", range(1, 9))
    def test_spectra_match_reference(self, size):
        for up in lattice_corpus()[size]:
            for act in corpus_actions(up):
                for kind in KINDS:
                    assert spectrum(act, kind) == oracles.spectrum_reference(act, kind), (up, kind)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_join_distributivity_matches_reference(self, size):
        for up in lattice_corpus()[size]:
            for act in corpus_actions(up):
                assert is_join_distributive(act) == oracles.join_distributive_reference(act), up

    @pytest.mark.parametrize("size", range(1, 9))
    def test_distributive_exactly_when_hollow_is_strongly_hollow(self, size):
        # Birkhoff's criterion, which modules.is_distributive_module reads,
        # against the distributive law at every triple.
        for up in lattice_corpus()[size]:
            act = corpus_actions(up)[0]
            lat = act.lattice
            criterion = spectrum_mask(act, "hollow") == spectrum_mask(act, "strongly_hollow")
            pairs = itertools.combinations_with_replacement(lat.elements(), 2)
            assert criterion == oracles.meets_distribute_reference(lat, pairs), up

    @pytest.mark.parametrize("size", range(1, 9))
    def test_lattice_battery_reports_no_fail(self, size):
        for up in lattice_corpus()[size]:
            for act in corpus_actions(up):
                report = Report(subject=str(up))
                cli.lattice_battery(act, report)
                assert report.failures == [], report.render_text()
