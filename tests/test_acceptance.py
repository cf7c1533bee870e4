"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and enforces the stated time budget.
"""

import itertools
import time

import oracles
from oracles import report_of

from hollowlat import pshollow as ph
from hollowlat import spectra
from hollowlat.cli import LATTICE_SIZE_LIMIT, RING_MODULUS_LIMIT, main
from hollowlat.lattice import is_join_distributive, quotient
from hollowlat.modules import (
    FiniteModule,
    Ring,
    enumerate_submodules,
    find_minimal_second_representations,
    find_second_submodules,
    is_distributive_module,
    is_hollow_module,
    is_pseudo_distributive_module,
    is_s_lifting_module,
    is_second_submodule,
    is_semisimple_module,
    submodule_lattice,
    whole_module,
)

FIXTURE_SPECS = [
    (12, (12,)),
    (30, (30,)),
    (36, (36,)),
    (8, (8,)),
    (2, (2, 2)),
    (4, (4, 2)),
    (6, (6, 2)),
]


def z(n):
    return FiniteModule(Ring(n), [n])


def prime_power_complements(n):
    out, rest, p = [], n, 2
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


def finish(label, started, budget):
    elapsed = time.perf_counter() - started
    ok = elapsed < budget
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"{label} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_canonical_representations(tmp_path, capsys):
    started = time.perf_counter()
    for n in (12, 30, 60, 72, 180):
        spec = tmp_path / f"z{n}.spec"
        spec.write_text(f"ring {n}\nmodule {n}\n", encoding="utf-8")
        expected = sorted(f"({d})" for d in prime_power_complements(n))
        code = main(["represent", "--in", str(spec), "--expect", ",".join(expected)])
        assert code == 0, (n, capsys.readouterr().out)
        reps = ph.enumerate_minimal_representations(z(n))
        match = [rep for rep in reps
                 if sorted(s.name for s in rep.summands) == expected]
        assert match, n
        for prof in match[0].profiles:
            single = min(x for x in prof.submodule.members if x)
            assert prof.family == frozenset({single}), (n, prof.describe())
    capsys.readouterr()
    with capsys.disabled():
        finish("1 canonical Z_n representations", started, 5.0)


def test_criterion_2_z12_facts(capsys):
    started = time.perf_counter()
    module = z(12)
    reps = ph.enumerate_minimal_representations(module)
    assert len(reps) == 1
    assert sorted(s.name for s in reps[0].summands) == ["(3)", "(4)"]
    assert [s.name for s in find_second_submodules(module)] == ["(6)", "(4)"]
    assert find_minimal_second_representations(module) == ()
    assert not is_semisimple_module(module)
    assert not is_s_lifting_module(module)
    with capsys.disabled():
        finish("2 Z_12 facts", started, 1.0)


def test_criterion_3_z30_facts(capsys):
    started = time.perf_counter()
    module = z(30)
    hollow_names = {s.name for s, _ in ph.find_ps_hollow_submodules(module)}
    assert hollow_names == {"(6)", "(10)", "(15)"}
    from hollowlat.modules import attached_annihilators, is_comultiplication_module, is_multiplication_module
    att = attached_annihilators(module)
    assert [i.name for i in att] == ["(2)", "(3)", "(5)"]
    assert all(a.d == b.d or (a.d % b.d and b.d % a.d)
               for a, b in itertools.product(att, att))
    assert is_multiplication_module(module)
    assert is_comultiplication_module(module)
    assert is_semisimple_module(module)
    sem = report_of(ph.check_semisimple_equivalences, module)
    assert sem.findings[0].verdict == "pass", sem.render_text()
    with capsys.disabled():
        finish("3 Z_30 facts", started, 1.0)


def test_criterion_4_uniqueness_sweep(capsys):
    started = time.perf_counter()
    failures = 0
    for n in range(2, 201):
        reps = ph.enumerate_minimal_representations(z(n))
        assert reps, n
        for r1, r2 in itertools.combinations_with_replacement(reps, 2):
            if not report_of(ph.verify_first_uniqueness, r1, r2).ok:
                failures += 1
            if not report_of(ph.verify_second_uniqueness, r1, r2).ok:
                failures += 1
    assert failures == 0
    with capsys.disabled():
        finish("4 uniqueness sweep n<=200", started, 60.0)


def test_criterion_5_duality_suite(capsys):
    started = time.perf_counter()
    failures = []
    for seed in range(200):
        action = spectra.random_instance(seed, max_lattice=8, max_poset=4)
        assert action.lattice.size <= 8 and action.poset.size <= 4
        rep = report_of(spectra.check_duality_theorem, action)
        for claim in ("duality.coprime_equals_dual_second",
                      "duality.dual_coprime_equals_star_second"):
            if any(f.verdict != "pass" for f in rep.findings if f.claim == claim):
                failures.append((seed, claim))
        if not report_of(spectra.check_double_dual, action).ok:
            failures.append((seed, "double-dual"))
        rep = report_of(spectra.check_spectrum_identities, action)
        if not rep.ok:
            failures.append((seed, "identities"))
    assert not failures, failures
    with capsys.disabled():
        finish("5 duality suite, 200 random instances", started, 30.0)


def test_criterion_6_quotient_prime_correspondence(capsys):
    started = time.perf_counter()
    for n in range(2, 61):
        lat, action = submodule_lattice(z(n))
        assert is_join_distributive(action)
        for x in range(lat.size):
            if x == lat.top:
                continue
            # The class of x is the bottom of the quotient at x.
            sub, qact = quotient(action, x)
            all_first = (set(spectra.spectrum(qact, "first"))
                         == set(range(sub.size)) - {sub.bottom})
            prime = spectra.is_kind(action, x, "prime")
            if prime:
                assert all_first, (n, x)
            # join distributivity holds, so the equivalence must too
            assert prime == all_first, (n, x)
    with capsys.disabled():
        finish("6 quotient-prime correspondence n<=60", started, 30.0)


def test_criterion_7_finite_analogs(capsys):
    started = time.perf_counter()
    klein = FiniteModule(Ring(2), [2, 2])
    assert is_pseudo_distributive_module(klein)
    assert not is_distributive_module(klein)
    whole = whole_module(klein)
    assert ph.is_ps_hollow(whole)
    assert not is_hollow_module(whole)
    # brute-force oracles straight from the definitions, on member sets
    oracle = oracles.ModuleOracle(klein)
    assert oracle.ps_hollow(whole.members) and not oracle.hollow(whole.members)
    assert oracle.pseudo_distributive() and not oracle.distributive()
    with capsys.disabled():
        finish("7 finite analogs on Z_2+Z_2", started, 1.0)


def test_criterion_8_verify_battery(tmp_path, capsys):
    started = time.perf_counter()
    for n in (12, 30):
        spec = tmp_path / f"z{n}.spec"
        spec.write_text(f"ring {n}\nmodule {n}\n", encoding="utf-8")
        report_path = tmp_path / f"z{n}.report"
        code = main(["verify", "--in", str(spec), "--report", str(report_path)])
        assert code == 0, capsys.readouterr().out
        lines = report_path.read_text().splitlines()
        assert not any(" fail" in line for line in lines if line.startswith("claim"))
        if n == 12:
            for name in ("(3)", "(4)"):
                claim = f"claim nonsmall_inheritance.{name}.{name} pass"
                assert any(line.startswith(claim) for line in lines), claim
    capsys.readouterr()
    with capsys.disabled():
        finish("8 verify battery on Z_12 and Z_30", started, 5.0)


def test_criterion_9_second_oracle_consistency(capsys):
    started = time.perf_counter()
    disagreements = 0
    for n, factors in FIXTURE_SPECS:
        module = FiniteModule(Ring(n), factors)
        subs = enumerate_submodules(module)
        _, action = submodule_lattice(module)
        oracle = oracles.ModuleOracle(module)
        expected = {i for i, s in enumerate(subs)
                    if not s.is_zero and oracle.second(s.members)}
        lattice_side = set(spectra.spectrum(action, "second"))
        module_side = {i for i, s in enumerate(subs)
                       if not s.is_zero and is_second_submodule(s)}
        if not lattice_side == module_side == expected:
            disagreements += 1
    assert disagreements == 0
    with capsys.disabled():
        finish("9 second predicate bridge consistency", started, 30.0)


def test_uncapped_verify_z3_cubed_terminates(tmp_path, capsys):
    # Uncapped, the ps-hollow submodules of Z_3^3 give 2^27 candidate families
    # to an exhaustive subset search; the pruned search must finish in budget.
    started = time.perf_counter()
    spec = tmp_path / "z3x3x3.spec"
    spec.write_text("ring 3\nmodule 3 3 3\n", encoding="utf-8")
    code = main(["verify", "--in", str(spec)])
    assert code in (0, 2), capsys.readouterr().out
    capsys.readouterr()
    with capsys.disabled():
        finish("uncapped verify on Z_3^3", started, 30.0)


def test_elementary_abelian_2_to_the_6_enumerates(capsys):
    # Z_2^6 has order 64, far under the order bound, and 2,825 submodules
    # (the Gaussian binomial sum); closing every found submodule with every
    # other one's generators did not finish in 110 s.
    started = time.perf_counter()
    assert len(enumerate_submodules(FiniteModule(Ring(2), [2] * 6))) == 2825
    with capsys.disabled():
        finish("Z_2^6 enumeration", started, 60.0)


def test_second_spectrum_above_old_table_limit(tmp_path, capsys):
    # Z_5^4 has 1,120 submodules, more than the 512 up to which lattices once
    # kept their meet and join tables; every lattice keeps them now.
    started = time.perf_counter()
    spec = tmp_path / "z5x4.spec"
    spec.write_text("ring 5\nmodule 5 5 5 5\n", encoding="utf-8")
    code = main(["spectra", "--in", str(spec), "--kind", "second"])
    out = capsys.readouterr().out
    assert code == 0, out[-500:]
    with capsys.disabled():
        finish("spectra --kind second on Z_5^4", started, 60.0)


def test_verify_chain_at_lattice_size_limit(tmp_path, capsys):
    # The largest chain a lattice spec may declare; the quotient and the
    # spectra at every element used to make a 64-chain take about a minute.
    started = time.perf_counter()
    size = LATTICE_SIZE_LIMIT
    lines = [f"lattice {size}"] + [f"leq {i} {i + 1}" for i in range(size - 1)]
    lines += ["poset 1"] + [f"act 0 {x} {x}" for x in range(size)]
    spec = tmp_path / "chain.spec"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["verify", "--in", str(spec)])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out, out[-500:]
    with capsys.disabled():
        finish(f"verify on a {size}-chain lattice spec", started, 60.0)


def test_verify_chain_poset_at_lattice_size_limit(tmp_path, capsys):
    # The documented worst case at the limit: a chain poset of the same size
    # acting by s.x = min(s, x), so every poset element has its own row.
    started = time.perf_counter()
    size = LATTICE_SIZE_LIMIT
    lines = [f"lattice {size}"] + [f"leq {i} {i + 1}" for i in range(size - 1)]
    lines += [f"poset {size}"] + [f"sleq {s} {s + 1}" for s in range(size - 1)]
    lines += [f"act {s} {x} {min(s, x)}" for s in range(size) for x in range(size)]
    spec = tmp_path / "chain-poset.spec"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["verify", "--in", str(spec)])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out, out[-500:]
    with capsys.disabled():
        finish(f"verify on a {size}-chain lattice spec with a {size}-chain poset",
               started, 60.0)


def verify_module_spec(tmp_path, capsys, ring, factors):
    spec = tmp_path / "ring.spec"
    spec.write_text(f"ring {ring}\nmodule {factors}\n", encoding="utf-8")
    code = main(["verify", "--in", str(spec)])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out, out[-500:]


def test_verify_on_large_ring_moduli(tmp_path, capsys):
    # The divisors used to come from a scan of 1..n: 7000000049 = 7 * 1000000007
    # did not finish in 30 s, and 20000000 took 1.5 s.
    for ring, factors in ((7000000049, "7"), (20000000, "2")):
        started = time.perf_counter()
        verify_module_spec(tmp_path, capsys, ring, factors)
        with capsys.disabled():
            finish(f"verify on ring {ring} module {factors}", started, 60.0)


def test_verify_on_most_divisors_below_ring_modulus_limit(tmp_path, capsys):
    # No modulus up to the limit has more divisors than 6983776800 (2304),
    # and verify's work grows with the number of ideals.
    ring = 6983776800
    assert ring <= RING_MODULUS_LIMIT and len(Ring(ring).divisors) == 2304
    started = time.perf_counter()
    verify_module_spec(tmp_path, capsys, ring, "2")
    with capsys.disabled():
        finish(f"verify on ring {ring} module 2", started, 60.0)
