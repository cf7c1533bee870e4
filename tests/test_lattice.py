import gc
import itertools
import random
import re
import weakref

import oracles
from oracles import report_of
import pytest
from hypothesis import example, given, settings, strategies as st

from hollowlat import cli, lattice
from hollowlat.lattice import (
    AxiomViolation,
    _bits,
    MeetOrJoinMissing,
    NotAPartialOrder,
    build_lattice,
    build_poset,
    chain,
    dual_action,
    irredundant_families,
    is_join_distributive,
    is_multiplication,
    lower_interval,
    make_action,
    memo,
    quotient,
    star_action,
    trivial_action,
)
from hollowlat.modules import FiniteModule, Ring, _meets_distribute, submodule_lattice
from hollowlat.spectra import (
    check_duality_theorem,
    check_spectrum_identities,
    random_instance,
    random_lattice,
)

seeds = st.integers(min_value=0, max_value=10**9)


def module_lattice(ring, *factors):
    """The submodule lattice of the Z/ring-module with the given cyclic factors."""
    return submodule_lattice(FiniteModule(Ring(ring), factors))[0]


def diamond():
    # 0 < 1, 2 < 3 with 1 and 2 incomparable
    return build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def tables(lat):
    # Lattice equality compares the dataclass fields; the tables are derived
    # state, not fields, so every comparison of intervals names them too.
    return lat.meet_table, lat.join_table


class TestBuildLattice:
    def test_two_chain(self):
        lat = build_lattice(2, [(0, 1)])
        assert lat.bottom == 0 and lat.top == 1
        assert lat.le(0, 1) and not lat.le(1, 0)

    def test_diamond_meets_and_joins(self):
        lat = diamond()
        assert lat.meet(1, 2) == 0
        assert lat.join(1, 2) == 3
        assert lat.bottom == 0 and lat.top == 3

    def test_crown_is_not_a_lattice(self):
        # {0, 1} has the two minimal upper bounds 2 and 3
        with pytest.raises(MeetOrJoinMissing):
            build_lattice(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            build_lattice(3, [(0, 1), (1, 0), (0, 2)])

    def test_cycle_named_at_first_repeated_row(self):
        # Cycles {0, 3} and {1, 2}: elements on one cycle have equal closed
        # rows, and row 2 is the first to repeat an earlier row (row 1).  So
        # the message names 1 and 2, not the cycle through the least element.
        with pytest.raises(NotAPartialOrder, match="^antisymmetry fails on 1 and 2$"):
            build_poset(4, [(0, 3), (3, 0), (1, 2), (2, 1)])

    @pytest.mark.parametrize("size,pairs,message", [
        (2, [], "no unique bound for pair (0, 1)"),
        (3, [(0, 2), (1, 2)], "no unique bound for pair (0, 1)"),
        (3, [(0, 1), (0, 2)], "no unique bound for pair (1, 2)"),
    ], ids=["antichain", "bottomless", "topless"])
    def test_unbounded_order_has_a_pair_without_bound(self, size, pairs, message):
        # Two minimal (maximal) elements have no meet (join), so the tables
        # reject every order without a global bottom (top).
        with pytest.raises(MeetOrJoinMissing, match=f"^{re.escape(message)}$"):
            build_lattice(size, pairs)

    def test_transitive_closure_applied(self):
        lat = build_lattice(3, [(0, 1), (1, 2)])
        assert lat.le(0, 2)

    def test_grid_above_old_table_limit_keeps_both_tables(self):
        # The 24 x 24 grid, element 24 i + j for (i, j), ordered coordinatewise:
        # 576 elements, and its meet and join are the coordinatewise min and max.
        side = 24
        lat = build_lattice(side * side, [(side * i + j, side * i + j + 1)
                                          for i in range(side) for j in range(side - 1)]
                            + [(side * i + j, side * (i + 1) + j)
                               for i in range(side - 1) for j in range(side)])
        assert lat.size == 576 and lat.bottom == 0 and lat.top == 575
        assert len(lat.meet_table) == len(lat.join_table) == lat.size
        for a, b in itertools.product(lat.elements(), lat.elements()):
            (ai, aj), (bi, bj) = divmod(a, side), divmod(b, side)
            assert lat.meet_table[a][b] == side * min(ai, bi) + min(aj, bj)
            assert lat.join_table[a][b] == side * max(ai, bi) + max(aj, bj)
        dual = lat.dual()
        assert dual.meet_table is lat.join_table and dual.join_table is lat.meet_table
        assert dual.up is lat.down and dual.down is lat.up

    def test_identity_and_idempotence_laws(self):
        lat = diamond()
        for x in lat.elements():
            assert lat.meet(x, lat.top) == x
            assert lat.join(x, lat.bottom) == x
            assert lat.meet(x, x) == x
            assert lat.join(x, x) == x

    @settings(max_examples=40, deadline=None)
    @given(seeds.map(lambda seed: random_instance(seed).lattice))
    @example(module_lattice(12, 12))
    @example(module_lattice(30, 30))
    @example(module_lattice(2, 2, 2, 2))
    @example(module_lattice(6, 6, 6))
    def test_lattice_laws_random(self, lat):
        # build_lattice does not check these: unique meets and joins imply them.
        elements = lat.elements()
        for x in elements:
            assert lat.meet(x, x) == x and lat.join(x, x) == x
        for x, y in itertools.product(elements, elements):
            assert lat.meet(x, y) == lat.meet(y, x)
            assert lat.join(x, y) == lat.join(y, x)
            assert lat.join(x, lat.meet(x, y)) == x
            assert lat.meet(x, lat.join(x, y)) == x
        for x, y, z in itertools.product(elements, elements, elements):
            assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))
            assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))


class TestDual:
    def test_chain_dual_swaps_bounds(self):
        lat = chain(2)
        assert lat.dual().bottom == 1 and lat.dual().top == 0

    def test_dual_is_involution(self):
        lat = diamond()
        twice = lat.dual().dual()
        assert twice.up == lat.up and twice.bottom == lat.bottom

    def test_diamond_self_dual_shape(self):
        lat = diamond()
        dual = lat.dual()
        assert dual.meet(1, 2) == 3 and dual.join(1, 2) == 0

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_dual_involution_random(self, seed):
        lat = random_instance(seed).lattice
        assert lat.dual().dual().up == lat.up

    @pytest.mark.parametrize("act", [pytest.param(act, id=label)
                                     for label, act in oracles.reference_actions()])
    def test_down_rows_are_the_transposed_up_rows(self, act):
        # Every poset keeps both row sets, and its dual swaps them.
        for order in (act.poset, act.lattice):
            elements = order.elements()
            assert len(order.down) == order.size
            for i, j in itertools.product(elements, elements):
                assert order.down[j] >> i & 1 == order.up[i] >> j & 1, (i, j)
            dual = order.dual()
            assert type(dual) is type(order)
            assert dual.up == order.down and dual.down == order.up
            assert dual.dual() == order


class TestActions:
    def test_axiom_a3_rejected(self):
        lat = chain(2)
        poset = build_poset(1, [])
        with pytest.raises(AxiomViolation):
            make_action(lat, poset, [[1, 1]])  # 0 maps above itself

    def test_axiom_a2_rejected(self):
        lat = chain(3)
        poset = build_poset(1, [])
        with pytest.raises(AxiomViolation):
            make_action(lat, poset, [[0, 1, 0]])  # 1 <= 2 but images 1 > 0

    def test_axiom_a1_rejected(self):
        lat = chain(2)
        poset = build_poset(2, [(0, 1)])
        with pytest.raises(AxiomViolation):
            make_action(lat, poset, [[0, 1], [0, 0]])  # s0 <= s1 but s0.1 > s1.1

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.randoms(use_true_random=False))
    def test_cover_checks_agree_with_all_pairs(self, seed, rng):
        # make_action checks A1 and A2 on covering pairs only; one changed
        # entry of a valid table must be caught exactly when some pair breaks.
        act = random_instance(seed, 10, 4)
        lat = act.lattice
        table = [list(row) for row in act.table]
        s, x = rng.randrange(act.poset.size), rng.randrange(lat.size)
        table[s][x] = rng.choice(list(_bits(lat.down[x])))
        try:
            make_action(lat, act.poset, table)
            accepted = True
        except AxiomViolation:
            accepted = False
        assert accepted == oracles.axioms_hold(lat, act.poset, table)

    def test_dual_of_trivial_action_on_chain(self):
        # s.x = x has s.top = top, so the dual table is constantly the old top
        act = trivial_action(chain(2))
        dual = dual_action(act)
        assert dual.table == ((1, 1),)
        assert dual.lattice.bottom == 1

    def test_dual_action_when_top_image_is_bottom(self):
        # s.x = bottom gives s.top = bottom, so the dual action is the identity
        lat = chain(2)
        act = make_action(lat, build_poset(1, []), [[0, 0]])
        assert dual_action(act).table == ((0, 1),)

    def test_star_action_values(self):
        act = random_instance(11)
        star = star_action(act)
        lat = act.lattice
        for s in range(act.poset.size):
            assert star.apply(s, lat.top) == act.top_image(s)
            assert star.apply(s, lat.bottom) == lat.bottom

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_double_dual_equals_star(self, seed):
        act = random_instance(seed)
        twice = dual_action(dual_action(act))
        star = star_action(act)
        assert twice.table == star.table
        assert twice.lattice.up == star.lattice.up
        assert twice.poset.up == star.poset.up


class TestIntervalAndQuotient:
    def test_interval_at_top_is_whole(self):
        act = trivial_action(diamond())
        sub, sub_act = lower_interval(act, 3)
        assert sub.size == 4 and sub.up == act.lattice.up
        assert sub_act.table == act.table

    def test_interval_at_bottom_is_point(self):
        act = trivial_action(diamond())
        sub, _ = lower_interval(act, 0)
        assert sub.size == 1

    def test_interval_at_atom_is_chain(self):
        act = trivial_action(diamond())
        sub, _ = lower_interval(act, 1)
        assert sub.size == 2 and sub.bottom == 0 and sub.top == 1

    def test_quotient_of_three_chain(self):
        # The classes of 1 and 2 are positions 0 and 1 of [1, 2].
        act = trivial_action(chain(3))
        sub, sub_act = quotient(act, 1)
        assert sub.size == 2
        assert sub.bottom == 0 and sub.top == 1
        assert sub.le(0, 1) and not sub.le(1, 0)

    def test_quotient_by_bottom_is_isomorphic(self):
        # [0, top] is the whole lattice, each element its own position.
        act = trivial_action(diamond())
        sub, _ = quotient(act, 0)
        assert sub.size == 4
        assert sub == act.lattice

    def test_quotient_by_top_is_point(self):
        act = trivial_action(diamond())
        sub, _ = quotient(act, 3)
        assert sub.size == 1 and sub.bottom == sub.top == 0

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_quotient_well_defined_random(self, seed):
        # Every class is a singleton: the quotient at x is [x, top] in the
        # lattice order, with s.y -> (s.y) join x read in the lattice itself.
        act = random_instance(seed)
        lat = act.lattice
        for x in lat.elements():
            sub, sub_act = quotient(act, x)
            # The class of y >= x is its position in [x, top].
            cmap = {y: i for i, y in enumerate(_bits(lat.up[x]))}
            assert sub.size == len(cmap)
            assert sub.bottom == cmap[x] and sub.top == cmap[lat.top]
            assert sub_act.lattice is sub
            for y, i in cmap.items():
                assert all(sub.le(i, j) == lat.le(y, z) for z, j in cmap.items())
                for s in range(act.poset.size):
                    assert sub_act.apply(s, i) == cmap[lat.join(act.apply(s, y), x)]

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_derived_actions_validate_random(self, seed):
        # The derived constructions do not validate; make_action must accept them.
        act = random_instance(seed)
        derived = [dual_action(act), star_action(act), trivial_action(act.lattice, act.poset)]
        for x in act.lattice.elements():
            derived.append(lower_interval(act, x)[1])
            derived.append(quotient(act, x)[1])
        for d in derived:
            assert make_action(d.lattice, d.poset, d.table) == d


class TestAgainstReferences:
    """The interval constructions against the definitions in tests/oracles.py."""

    @pytest.mark.parametrize("act", [pytest.param(act, id=label)
                                     for label, act in oracles.reference_actions()])
    def test_intervals_and_derived_tables(self, act):
        lat = act.lattice
        derived = [dual_action(act), star_action(act), trivial_action(lat, act.poset)]
        for x in lat.elements():
            sub, sub_act = quotient(act, x)
            # Same size, order, tables and action table; the reference's
            # classes are the positions in [x, top].
            ref_sub, ref_act, class_map = oracles.quotient_reference(act, x)
            assert (sub, sub_act) == (ref_sub, ref_act), x
            assert tables(sub) == tables(ref_sub), x
            assert class_map == {y: i for i, y in enumerate(_bits(lat.up[x]))}, x
            low, ref_low = lower_interval(act, x), oracles.lower_interval_reference(act, x)
            assert low == ref_low and tables(low[0]) == tables(ref_low[0]), x
            derived += [sub_act, low[1]]
        for d in derived:
            assert make_action(d.lattice, d.poset, d.table) == d


def restricted(table, elems):
    """The parent's table on the members elems, renumbered by position."""
    index = {y: i for i, y in enumerate(elems)}
    return tuple(tuple(index[table[y][z]] for z in elems) for y in elems)


class TestDerivedTables:
    """A lattice derives its meet and join tables from its rows when first read."""

    def interval_tables(self, act):
        lat = act.lattice
        for x in lat.elements():
            for (sub, _), low, high in ((lower_interval(act, x), lat.bottom, x),
                                        (quotient(act, x), x, lat.top)):
                elems = list(_bits(lat.up[low] & lat.down[high]))
                assert "meet_table" not in vars(sub) and "join_table" not in vars(sub)
                assert sub.meet_table == restricted(lat.meet_table, elems), (low, high)
                assert sub.join_table == restricted(lat.join_table, elems), (low, high)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_interval_tables_are_the_restrictions_random(self, seed):
        act = random_instance(seed, 12, 3)
        for a in (act, dual_action(act)):
            self.interval_tables(a)

    @pytest.mark.parametrize("ring,factors", oracles.REFERENCE_MODULES)
    def test_interval_tables_are_the_restrictions_bridge(self, ring, factors):
        self.interval_tables(submodule_lattice(FiniteModule(Ring(ring), factors))[1])

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_dual_hands_over_built_tables(self, seed):
        act = random_instance(seed, 12, 3)
        lat = act.lattice
        dual = lat.dual()
        assert dual.meet_table is lat.join_table and dual.join_table is lat.meet_table
        for x in lat.elements():
            sub = quotient(act, x)[0]
            elems = list(_bits(lat.up[x]))
            # Only the meet table is built before the dual is taken: the dual
            # takes it over as its join table and derives its own meet table.
            meets = sub.meet_table
            sub_dual = sub.dual()
            assert sub_dual.join_table is meets and "meet_table" not in vars(sub_dual)
            assert sub_dual.meet_table == restricted(lat.join_table, elems), x
            assert sub_dual.dual() == sub and tables(sub_dual.dual()) == tables(sub), x

    @pytest.mark.parametrize("act", [
        pytest.param(random_instance(seed, 12, 4), id=f"random_instance({seed}, 12, 4)")
        for seed in range(20)] + [
        pytest.param(submodule_lattice(FiniteModule(Ring(ring), factors))[1],
                     id=f"ring {ring} module {factors}")
        for ring, factors in ((360, (360,)), (2, (2, 2, 2)), (8, (8, 4)))])
    def test_identities_and_quotient_duality_build_no_table(self, act, monkeypatch):
        # The identities read lower intervals and the duality theorem's parts
        # 3 and 4 quotients, by their order and action rows alone.  The whole
        # lattice's own tables, which a submodule lattice too derives on first
        # read, are read here first; the lattice then hands them to its dual,
        # which parts 1 and 2 read.
        lat = act.lattice
        lat.meet_table, lat.join_table
        calls = []
        bound_table = lattice._bound_table

        def counted(rows):
            calls.append(len(rows))
            return bound_table(rows)

        monkeypatch.setattr(lattice, "_bound_table", counted)
        report_of(check_spectrum_identities, act)
        report_of(check_duality_theorem, act)
        assert calls == []


def renumbered(action, perm):
    """The same action with lattice element x renamed perm[x]; any numbering of the order."""
    lat = action.lattice
    size = lat.size
    sub = build_lattice(size, [(perm[x], perm[y]) for x, y in lat.pairs()])
    table = [[0] * size for _ in action.table]
    for s, row in enumerate(action.table):
        for x, y in enumerate(row):
            table[s][perm[x]] = perm[y]
    return make_action(sub, action.poset, table)


def shuffled(seed, size):
    perm = list(range(size))
    random.Random(seed).shuffle(perm)
    return perm


class TestOrderKernels:
    """Closure, covers and interval rows against the definitions in tests/oracles.py.

    The covers come out of the pass that closes the order, whatever the
    numbering, and an interval takes its covers from the lattice's; every
    check runs under a random renumbering, on duals and on the bridge's
    orders, whose divisor poset is numbered against its order.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=12), seeds, st.floats(0.0, 0.6))
    def test_closure_and_covers_in_any_numbering(self, size, seed, density):
        rng = random.Random(seed)
        perm = shuffled(seed, size)
        pairs = [(perm[i], perm[j]) for i in range(size) for j in range(i + 1, size)
                 if rng.random() < density]
        poset = build_poset(size, pairs)
        assert list(poset.up) == oracles.closure_reference(size, pairs)
        assert poset.dual().up == poset.down
        assert list(poset.down) == oracles.closure_reference(size, [(j, i) for i, j in pairs])
        for order in (poset, poset.dual()):
            assert order.covers() == oracles.covers_reference(order)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=8), seeds)
    def test_cycles_name_the_first_repeated_row(self, size, seed):
        rng = random.Random(seed)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(1, 2 * size))]
        message = oracles.cycle_message_reference(oracles.closure_reference(size, pairs))
        if message is None:
            poset = build_poset(size, pairs)
            assert list(poset.up) == oracles.closure_reference(size, pairs)
            assert list(poset.down) == oracles.closure_reference(size, [(j, i) for i, j in pairs])
            assert poset.covers() == oracles.covers_reference(poset)
            return
        for build in (build_poset, build_lattice):
            with pytest.raises(NotAPartialOrder) as err:
                build(size, pairs)
            assert str(err.value) == message

    @pytest.mark.parametrize("size,pairs", [
        # Components {0, 9}, {1, 8}, {3, 5, 7} and {2, 4, 6}, some linked: the
        # least second-least element is 4, though 0 and 1 lie on cycles.
        (10, [(0, 9), (9, 0), (3, 5), (5, 7), (7, 3), (2, 6), (6, 4), (4, 2),
              (9, 3), (5, 2), (1, 8), (8, 1)]),
        # A two-cycle below a long chain, above one, and a cycle spanning its middle.
        (600, [(k, k + 1) for k in range(599)] + [(1, 0)]),
        (600, [(k, k + 1) for k in range(599)] + [(599, 598)]),
        (600, [(k, k + 1) for k in range(599)] + [(400, 200)]),
        # Two-cycles linked in a chain, numbered downward.
        (600, [(k, k + 1) for k in range(0, 600, 2)] + [(k + 1, k) for k in range(0, 600, 2)]
         + [(k + 2, k + 1) for k in range(0, 598, 2)]),
    ], ids=["several", "below-chain", "above-chain", "across-chain", "linked-two-cycles"])
    def test_cycles_name_the_first_repeated_row_in_long_orders(self, size, pairs):
        message = oracles.cycle_message_reference(oracles.closure_reference(size, pairs))
        assert message is not None
        for build in (build_poset, build_lattice):
            with pytest.raises(NotAPartialOrder) as err:
                build(size, pairs)
            assert str(err.value) == message

    @pytest.mark.parametrize("linked", [False, True], ids=["chain", "linked-two-cycles"])
    def test_cycle_below_a_4096_chain_needs_no_recursion(self, linked):
        # Deeper than the recursion limit; a search that recursed would fail.
        size = 4096
        if linked:
            pairs = [p for k in range(0, size, 2) for p in ((k, k + 1), (k + 1, k), (k + 1, k + 2))]
            pairs = [(i, j) for i, j in pairs if j < size]
        else:
            pairs = [(k, k + 1) for k in range(size - 1)] + [(1, 0)]
        with pytest.raises(NotAPartialOrder, match=r"^antisymmetry fails on 0 and 1$"):
            build_poset(size, pairs)

    @pytest.mark.parametrize("seed", range(40))
    def test_lattice_rows_covers_and_intervals_in_any_numbering(self, seed):
        act = random_instance(seed, 12, 4)
        for a in (act, renumbered(act, shuffled(seed, act.lattice.size)), dual_action(act)):
            lat = a.lattice
            assert lat.covers() == oracles.covers_reference(lat)
            assert lat.dual().covers() == oracles.covers_reference(lat.dual())
            for x in lat.elements():
                low, ref_low = lower_interval(a, x), oracles.lower_interval_reference(a, x)
                assert low == ref_low and tables(low[0]) == tables(ref_low[0]), x
                ref_sub, ref_act, _ = oracles.quotient_reference(a, x)
                high = quotient(a, x)
                assert high == (ref_sub, ref_act) and tables(high[0]) == tables(ref_sub), x

    @pytest.mark.parametrize("numbering", ["shuffled", "zigzag", "reversed"])
    def test_long_chain_covers_in_any_numbering(self, numbering):
        # Chain position k is element perm[k]; zigzag alternates low and high.
        size = 4096
        perm = {"shuffled": shuffled(0, size),
                "zigzag": [k // 2 if k % 2 == 0 else size - 1 - k // 2 for k in range(size)],
                "reversed": list(range(size))[::-1]}[numbering]
        poset = build_poset(size, [(perm[k], perm[k + 1]) for k in range(size - 1)])
        assert poset.covers() == sorted((perm[k], perm[k + 1]) for k in range(size - 1))
        above = 0
        for k in reversed(range(size)):
            above |= 1 << perm[k]
            assert poset.up[perm[k]] == above

    @pytest.mark.parametrize("ring,factors", oracles.REFERENCE_MODULES)
    def test_bridge_orders(self, ring, factors):
        # The divisor poset is numbered against its order: (dp) lies in (d).
        act = submodule_lattice(FiniteModule(Ring(ring), factors))[1]
        for order in (act.poset, act.lattice):
            for o in (order, order.dual()):
                assert o.covers() == oracles.covers_reference(o)
            assert list(order.up) == oracles.closure_reference(order.size, order.covers())


class TestIrredundantFamilies:
    """The pruned search lists exactly what the exhaustive combination loop lists."""

    def test_random_lattices_against_reference(self):
        for seed in range(100):
            lat = random_lattice(random.Random(seed))
            candidates = [x for x in lat.elements() if x != lat.bottom]
            # Members of an irredundant family are pairwise incomparable
            # already, so the condition compares their joins with a fixed
            # element instead, as the module search compares hulls.
            pivot = lat.size // 2

            def joins_incomparable(a, b):
                ja, jb = lat.join(a, pivot), lat.join(b, pivot)
                return not (lat.le(ja, jb) or lat.le(jb, ja))

            for compatible in (None, joins_incomparable):
                for max_terms in (None, 1, 2, 3):
                    got = irredundant_families(lat, candidates, compatible, max_terms)
                    assert list(got) == oracles.irredundant_families_reference(
                        lat, candidates, compatible, max_terms), (seed, compatible, max_terms)


class TestDistributivityAgainstReferences:
    """The distributivity loops against the per-instance definitions in tests/oracles.py."""

    @staticmethod
    def pair_sets(act):
        lat = act.lattice
        images = {act.top_image(s) for s in act.poset.elements()}
        return (list(itertools.combinations_with_replacement(lat.elements(), 2)),
                list(itertools.product(sorted(images), lat.elements())))

    @pytest.mark.parametrize("act", [pytest.param(act, id=label)
                                     for label, act in oracles.reference_actions()])
    def test_same_verdicts(self, act):
        want = oracles.join_distributive_reference(act)
        assert is_join_distributive(act) == want
        for pairs in self.pair_sets(act):
            want = oracles.meets_distribute_reference(act.lattice, pairs)
            assert _meets_distribute(act.lattice, pairs) == want

    def test_reference_actions_give_both_verdicts(self):
        joins, meets = set(), set()
        for _, act in oracles.reference_actions():
            joins.add(is_join_distributive(act))
            meets.update(_meets_distribute(act.lattice, pairs) for pairs in self.pair_sets(act))
        assert joins == meets == {True, False}


class TestActionPredicates:
    def test_trivial_action_on_chain_not_multiplication(self):
        # only the top is hit by s.top
        assert not is_multiplication(trivial_action(chain(2)))

    def test_one_element_lattice_is_multiplication(self):
        assert is_multiplication(trivial_action(chain(1)))

    def test_trivial_action_join_distributive(self):
        assert is_join_distributive(trivial_action(diamond()))

    def test_join_distributivity_can_fail(self):
        # three incomparable atoms; s.x = (atom 1) meet x breaks at join(2, 3)
        m3 = build_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        act = make_action(m3, build_poset(1, []), [[0, 1, 0, 0, 1]])
        assert not is_join_distributive(act)


class TestMemo:
    class Holder:
        def __init__(self):
            self.cache = {}

    @staticmethod
    def counted(value):
        """A memoized function of (obj, *args) returning value, and the list of its calls."""
        calls = []

        @memo
        def fn(obj, *args):
            calls.append((obj, args))
            return value

        return fn, calls

    def test_computed_once_per_object_and_arguments(self):
        fn, calls = self.counted("v")
        obj = self.Holder()
        for _ in range(3):
            assert fn(obj) == fn(obj, 1) == fn(obj, 1, 2) == fn(obj, 2) == "v"
        assert calls == [(obj, ()), (obj, (1,)), (obj, (1, 2)), (obj, (2,))]

    def test_objects_keep_separate_values(self):
        counter = iter(range(10))
        keyed = memo(lambda obj, x: (next(counter), x))
        a, b = self.Holder(), self.Holder()
        assert keyed(a, 5) == (0, 5)
        assert keyed(b, 5) == (1, 5)
        assert keyed(a, 5) == (0, 5) and keyed(b, 5) == (1, 5)
        assert len(a.cache) == len(b.cache) == 1

    @pytest.mark.parametrize("value", [False, 0, None, ()],
                             ids=["false", "zero", "none", "empty-tuple"])
    def test_falsy_values_are_kept(self, value):
        fn, calls = self.counted(value)
        obj = self.Holder()
        assert fn(obj, "k") is value
        assert fn(obj, "k") is value
        assert len(calls) == 1

    def test_module_is_freed_after_the_battery(self):
        module = FiniteModule(Ring(12), [12])
        assert cli.module_battery(module).findings
        ref = weakref.ref(module)
        del module
        gc.collect()
        assert ref() is None
