import random

import oracles
import pytest

from hollowlat import cli
from hollowlat.cli import (
    LATTICE_SIZE_LIMIT,
    RING_MODULUS_LIMIT,
    ParseError,
    ValidationError,
    build_parser,
    emit_dot,
    emit_lattice_spec,
    main,
    parse_spec,
)
from hollowlat.modules import FiniteModule, Ring, enumerate_submodules, submodule_lattice

Z12 = "ring 12\nmodule 12\n"
Z30 = "ring 30\nmodule 30\n"
KLEIN = "ring 2\nmodule 2 2\n"

CHAIN_SPEC = """\
lattice 2
leq 0 1
poset 1
act 0 0 0
act 0 1 1
"""


def chain_spec(size):
    """A chain lattice spec with the identity action of a one-element poset."""
    lines = [f"lattice {size}"] + [f"leq {i} {i + 1}" for i in range(size - 1)]
    lines += ["poset 1"] + [f"act 0 {x} {x}" for x in range(size)]
    return "\n".join(lines) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_module_spec(self, tmp_path):
        parsed = parse_spec(write(tmp_path, "m.spec", Z12))
        assert isinstance(parsed, FiniteModule)
        assert parsed.ring.n == 12 and parsed.factors == (12,)

    def test_direct_sum_spec(self, tmp_path):
        parsed = parse_spec(write(tmp_path, "m.spec", KLEIN))
        assert parsed.factors == (2, 2)

    def test_bad_factor_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_spec(write(tmp_path, "m.spec", "ring 12\nmodule 5\n"))

    def test_unknown_directive(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_spec(write(tmp_path, "m.spec", "ring 12\nmodle 12\n"))
        assert err.value.line == 2

    def test_lattice_spec(self, tmp_path):
        lattice, action = parse_spec(write(tmp_path, "l.spec", CHAIN_SPEC))
        assert lattice.size == 2 and action.poset.size == 1

    def test_missing_act_entry(self, tmp_path):
        broken = "lattice 2\nleq 0 1\nposet 1\nact 0 0 0\n"
        with pytest.raises(ParseError) as err:
            parse_spec(write(tmp_path, "l.spec", broken))
        assert "act 0 1" in str(err.value)

    def test_duplicate_act_entry(self, tmp_path):
        broken = CHAIN_SPEC + "act 0 1 0\n"
        with pytest.raises(ParseError):
            parse_spec(write(tmp_path, "l.spec", broken))

    def test_action_axiom_violation(self, tmp_path):
        # s.0 = 1 is not deflationary
        broken = "lattice 2\nleq 0 1\nposet 1\nact 0 0 1\nact 0 1 1\n"
        with pytest.raises(ValidationError):
            parse_spec(write(tmp_path, "l.spec", broken))

    def test_order_cycle_rejected(self, tmp_path):
        broken = "lattice 2\nleq 0 1\nleq 1 0\nposet 1\nact 0 0 0\nact 0 1 1\n"
        with pytest.raises(ValidationError):
            parse_spec(write(tmp_path, "l.spec", broken))

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# a module\n\nring 12  # modulus\nmodule 12\n"
        assert parse_spec(write(tmp_path, "m.spec", text)).ring.n == 12

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_spec("/nonexistent/path.spec")


class TestRoundTrip:
    def test_lattice_round_trip(self, tmp_path):
        module = parse_spec(write(tmp_path, "m.spec", Z12))
        lat, act = submodule_lattice(module)
        text = emit_lattice_spec(act)
        lat2, act2 = parse_spec(write(tmp_path, "l.spec", text))
        assert lat2.up == lat.up and lat2.bottom == lat.bottom
        assert act2.table == act.table and act2.poset.up == act.poset.up


class TestDot:
    def test_two_chain(self):
        from hollowlat.lattice import chain
        dot = emit_dot(chain(2), ["0", "1"])
        assert dot == (
            "digraph hasse {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  n0 [label="0"];\n'
            '  n1 [label="1"];\n'
            "  n0 -> n1;\n"
            "}\n"
        )

    def test_z12_hasse_has_divisor_edges(self, tmp_path):
        from hollowlat.modules import enumerate_submodules
        module = parse_spec(write(tmp_path, "m.spec", Z12))
        lat, _ = submodule_lattice(module)
        dot = emit_dot(lat, [s.name for s in enumerate_submodules(module)])
        assert dot.count("->") == 7  # covering pairs of the divisor lattice of 12

    def test_highlight_marks_second_spectrum(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["hasse", "--in", spec, "--highlight", "second"]) == 0
        out = capsys.readouterr().out
        assert 'n1 [label="(6)", tooltip="second"' in out
        assert 'n2 [label="(4)", tooltip="second"' in out
        assert 'n3 [label="(3)"];' in out


    def test_hasse_edges_are_the_covers_in_any_numbering(self, tmp_path, capsys):
        # The Boolean lattice on three atoms, subset a numbered perm[a]: the
        # bottom gets 5 and the top 4, so the numbering runs neither along
        # nor against the order.  Every comparable pair is given, not only
        # the covers.
        perm = [5, 2, 7, 0, 3, 6, 1, 4]
        lines = ["lattice 8"]
        lines += [f"leq {perm[a]} {perm[b]}" for a in range(8) for b in range(8)
                  if a != b and a & b == a]
        lines += ["poset 1"] + [f"act 0 {x} {x}" for x in range(8)]
        spec = write(tmp_path, "l.spec", "\n".join(lines) + "\n")
        lat, _ = parse_spec(spec)
        assert main(["hasse", "--in", spec]) == 0
        edges = [line for line in capsys.readouterr().out.splitlines() if "->" in line]
        assert edges == [f"  n{x} -> n{y};" for x, y in oracles.covers_reference(lat)]
        assert len(edges) == 12


class TestExitCodes:
    def test_pass_case(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z30)
        assert main(["verify", "--in", spec]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "SKIP" not in out

    def test_fail_witness_case(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["represent", "--in", spec, "--expect", "(2),(6)"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("command,expect,line", [
        ("represent", "<(0,1),(1,0)>", "PASS  representation.expected  [<(0,1),(1,0)>]"),
        ("pshollow", "<(0,1)>, <(1,0)>,<(1,1)>,<(0,1),(1,0)>",
         "PASS  ps_hollow.expected  [expected=<(0,1),(1,0)>,<(0,1)>,<(1,0)>,<(1,1)> "
         "got=<(0,1),(1,0)>,<(0,1)>,<(1,0)>,<(1,1)>]"),
    ], ids=["represent", "pshollow"])
    def test_expect_keeps_commas_inside_names(self, tmp_path, capsys, command, expect, line):
        # A submodule of a direct sum is named by its generators, which hold
        # commas; --expect splits only at the commas between names.
        spec = write(tmp_path, "m.spec", KLEIN)
        assert main([command, "--in", spec, "--expect", expect]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_hypothesis_unmet_case(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        code = main(["verify", "--in", spec, "--claim", "semisimple_equivalences"])
        assert code == 2
        assert "SKIP" in capsys.readouterr().out

    def test_parse_error_case(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", "ring 12\nmodule 7\n")
        assert main(["submodules", "--in", spec]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["submodules", "pshollow", "represent", "minimize"])
    def test_lattice_command_mismatch(self, tmp_path, capsys, command):
        spec = write(tmp_path, "l.spec", CHAIN_SPEC)
        assert main([command, "--in", spec]) == 3
        assert capsys.readouterr().err == f"error: command {command!r} needs a module spec file\n"

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--bound", "abc"], "argument --bound: invalid int value: 'abc'"),
        (["represent", "--max-terms", "x"], "argument --max-terms: invalid int value: 'x'"),
        (["spectra", "--kind", "bogus"], "argument --kind: invalid choice: 'bogus'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["verify"], "the following arguments are required: --in"),
    ], ids=["bound", "max-terms", "kind", "command", "missing-in"])
    def test_bad_command_line_is_unusable_input(self, tmp_path, capsys, argv, message):
        spec = write(tmp_path, "m.spec", Z12)
        if argv != ["verify"]:
            argv = argv[:1] + ["--in", spec] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: hollowlat ")
        assert err.splitlines()[-1].startswith(f"hollowlat: error: {message}")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hollowlat ")


class TestMalformedInput:
    """Malformed input exits with code 3 and an error line, never a traceback."""

    def assert_rejected(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def test_minimize_non_integer_cyclic_summand(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        self.assert_rejected(["minimize", "--in", spec, "--summands", "(x)"], capsys)

    def test_minimize_non_integer_coordinate(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        self.assert_rejected(["minimize", "--in", spec, "--summands", "1:x"], capsys)

    def test_minimize_coordinate_of_wrong_arity(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", KLEIN)
        err = self.assert_rejected(["minimize", "--in", spec, "--summands", "1:0:0"], capsys)
        assert err == "error: element '1:0:0' has wrong arity\n"

    @pytest.mark.parametrize("summands,message", [
        ("<(0,1),(1,0,1)>", "element '(1,0,1)' has wrong arity"),
        ("<(1)>", "element '(1)' has wrong arity"),
        ("<(0,x)>", "summand '<(0,x)>': 'x' is not an integer"),
        ("<(0,1)", "summand '<(0,1)': '<(0,1)' is not an integer"),
        ("<>", "zero cannot be a summand"),
        ("<0:1>", "summand '<0:1>': '0:1' is not an element (a,b,...)"),
        ("<(0,1)>,,<(1,0)>", "empty summand token"),
        ("<(0,1)>,", "empty summand token"),
    ])
    def test_minimize_malformed_submodule_name(self, tmp_path, capsys, summands, message):
        spec = write(tmp_path, "m.spec", KLEIN)
        err = self.assert_rejected(["minimize", "--in", spec, "--summands", summands], capsys)
        assert err == f"error: {message}\n"

    def test_verify_claim_prefix_matching_nothing(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", KLEIN)
        err = self.assert_rejected(["verify", "--in", spec, "--claim", "nope"], capsys)
        assert err == "error: no battery claim starts with 'nope'\n"

    def test_hasse_unknown_highlight_kind(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        err = self.assert_rejected(["hasse", "--in", spec, "--highlight", "bogus"], capsys)
        assert "bogus" in err

    @pytest.mark.parametrize("text,line", [
        (CHAIN_SPEC + "act 7 0 0\n", 6),
        (CHAIN_SPEC + "act 0 3 0\n", 6),
        (CHAIN_SPEC + "act -1 0 0\n", 6),
        (CHAIN_SPEC.replace("act 0 1 1", "act 0 1 5"), 5),
        ("lattice 1\nposet 1\nact 0 0 0\nact 7 0 0\n", 4),
    ], ids=["poset-index", "lattice-index", "negative", "image", "one-element-poset"])
    def test_act_entry_out_of_range(self, tmp_path, capsys, text, line):
        spec = write(tmp_path, "l.spec", text)
        err = self.assert_rejected(["verify", "--in", spec], capsys)
        assert err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize("text,line", [
        (CHAIN_SPEC.replace("leq 0 1", "leq 0 5"), 2),
        (CHAIN_SPEC.replace("poset 1", "poset 1\nsleq 0 3"), 4),
    ], ids=["leq", "sleq"])
    def test_order_pair_out_of_range(self, tmp_path, capsys, text, line):
        spec = write(tmp_path, "l.spec", text)
        err = self.assert_rejected(["verify", "--in", spec], capsys)
        assert err.startswith(f"error: line {line}: ")

    def test_lattice_above_size_limit(self, tmp_path, capsys):
        # A well-formed chain, rejected only for its declared size.
        spec = write(tmp_path, "l.spec", "# too large\n" + chain_spec(LATTICE_SIZE_LIMIT + 1))
        err = self.assert_rejected(["verify", "--in", spec], capsys)
        assert err.startswith("error: line 2: ") and str(LATTICE_SIZE_LIMIT) in err

    def test_spec_not_utf8(self, tmp_path, capsys):
        spec = tmp_path / "m.spec"
        spec.write_bytes(b"ring 12\nmodule \xff\n")
        err = self.assert_rejected(["verify", "--in", str(spec)], capsys)
        assert err.count("\n") == 1 and str(spec) in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--report"], ["hasse", "--dot"]], ids=["report", "dot"])
    def test_unwritable_output(self, tmp_path, capsys, argv):
        spec = write(tmp_path, "m.spec", Z12)
        out = str(tmp_path / "missing" / "out")
        assert main([argv[0], "--in", spec, argv[1], out]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_ring_above_modulus_limit(self, tmp_path, capsys):
        # Module 2 divides the modulus: it is rejected only for its size.
        spec = write(tmp_path, "m.spec", f"# too large\nring {RING_MODULUS_LIMIT + 2}\nmodule 2\n")
        err = self.assert_rejected(["verify", "--in", spec], capsys)
        assert err.startswith("error: line 2: ") and str(RING_MODULUS_LIMIT) in err

    def test_ring_at_modulus_limit_parses(self, tmp_path):
        spec = write(tmp_path, "m.spec", f"ring {RING_MODULUS_LIMIT}\nmodule 2\n")
        assert parse_spec(spec).ring.n == RING_MODULUS_LIMIT

    @pytest.mark.parametrize("text,line", [
        ("lattice 0\nposet 1\n", 1),
        ("lattice -2\nposet -3\n", 1),
        ("lattice 1\nposet 0\nact 0 0 0\n", 2),
    ], ids=["empty-lattice", "negative-sizes", "empty-poset"])
    def test_nonpositive_sizes(self, tmp_path, capsys, text, line):
        spec = write(tmp_path, "l.spec", text)
        err = self.assert_rejected(["verify", "--in", spec], capsys)
        assert err.startswith(f"error: line {line}: ")

    def test_poset_above_size_limit(self, tmp_path, capsys):
        # A complete action table: the spec is rejected only for its poset size.
        acts = "".join(f"act {s} 0 0\n" for s in range(5000))
        spec = write(tmp_path, "l.spec", "lattice 1\nposet 5000\n" + acts)
        err = self.assert_rejected(["spectra", "--in", spec], capsys)
        assert err == (f"error: line 2: poset size must be at most "
                       f"{cli.POSET_SIZE_LIMIT}, got 5000\n")

    def test_emitted_spec_of_largest_divisor_poset_parses(self, tmp_path):
        # Below the ring limit, 6983776800 has the most divisors: 2304 ideals.
        module = FiniteModule(Ring(6983776800), [2])
        spec = write(tmp_path, "l.spec", emit_lattice_spec(submodule_lattice(module)[1]))
        lattice, action = parse_spec(spec)
        assert lattice.size == 2 and action.poset.size == 2304

    @pytest.mark.parametrize("max_terms", ["0", "-2"])
    def test_represent_max_terms_below_one(self, tmp_path, capsys, max_terms):
        spec = write(tmp_path, "m.spec", Z12)
        self.assert_rejected(["represent", "--in", spec, "--max-terms", max_terms], capsys)


class TestParserMessages:
    """The full error line for each parser fault, and which of several comes first."""

    @pytest.mark.parametrize("text,message", [
        ("ring 12\nmodle 12\n", "line 2: unknown directive 'modle' in module spec"),
        (CHAIN_SPEC + "acts 0 0 0\n", "line 6: unknown directive 'acts' in lattice spec"),
        ("ring 12\nmodule 12\nring 6\n", "line 3: duplicate ring directive"),
        ("ring 12\nmodule 12\nmodule 6\n", "line 3: duplicate module directive"),
        (CHAIN_SPEC.replace("poset 1", "poset 1\nlattice 2"),
         "line 4: duplicate lattice directive"),
        (CHAIN_SPEC + "poset 1\n", "line 6: duplicate poset directive"),
        ("ring 12\nmodule 1x\n", "line 2: expected integers, got 1x"),
        (CHAIN_SPEC.replace("leq 0 1", "leq 0 one"), "line 2: expected integers, got 0 one"),
        (CHAIN_SPEC.replace("act 0 1 1", "act 0 1"), "line 5: expected 3 integers, got 2"),
        ("ring 10000000002\nmodule 2\n",
         "line 1: ring modulus must be at most 10000000000, got 10000000002"),
        ("ring 12\nmodule\n", "line 2: module directive needs at least one factor"),
        ("ring 12\n", "module spec needs both 'ring' and 'module' directives"),
        ("lattice 1\nact 0 0 0\n", "lattice spec needs 'lattice' and 'poset' directives"),
        ("lattice 257\nposet 1\n", "line 1: lattice size must be between 1 and 256, got 257"),
        ("lattice 1\nposet 0\nact 0 0 0\n", "line 2: poset size must be at least 1, got 0"),
        (CHAIN_SPEC.replace("leq 0 1", "leq 0 5"), "line 2: leq 0 5 out of range for size 2"),
        (CHAIN_SPEC.replace("poset 1", "poset 1\nsleq 0 3"),
         "line 4: sleq 0 3 out of range for size 1"),
        (CHAIN_SPEC + "act 7 0 0\n",
         "line 6: act 7 0 0 out of range for poset size 1 and lattice size 2"),
        (CHAIN_SPEC + "act 0 1 0\n", "line 6: duplicate act entry for (0, 1)"),
        (CHAIN_SPEC.replace("poset 1", "poset 2") + "act 1 0 0\n",
         "action table incomplete; first missing entry act 1 1"),
        ("poset 1\nlattice 1\nact 0 0 0\n", "line 1: expected 'ring' or 'lattice', got 'poset'"),
        (CHAIN_SPEC + "leq 1 0\n", "antisymmetry fails on 0 and 1"),
        (CHAIN_SPEC.replace("poset 1", "poset 2\nsleq 0 1\nsleq 1 0") + "act 1 0 0\nact 1 1 1\n",
         "antisymmetry fails on 0 and 1"),
        # Several faults: the out-of-range leq pair comes before the repeated act entry.
        (CHAIN_SPEC.replace("leq 0 1", "leq 0 5") + "act 0 1 0\n",
         "line 2: leq 0 5 out of range for size 2"),
        # A bad ring or module value is reported at the line that gave it.
        ("ring 1\nmodule 2\n", "line 1: modulus must be at least 2"),
        ("ring 12\n\nmodule 0\n", "line 3: cyclic factor 0 must be at least 2"),
        ("ring 12\nmodule 5\n", "line 2: cyclic factor 5 does not divide the modulus 12"),
        ("ring 2\nmodule" + " 2" * 13 + "\n", "line 2: module order 8192 exceeds bound 4096"),
    ], ids=["unknown-module", "unknown-lattice", "duplicate-ring", "duplicate-module",
            "duplicate-lattice", "duplicate-poset", "integers-module", "integers-lattice",
            "integer-count", "ring-limit", "empty-module", "missing-module", "missing-poset",
            "lattice-size", "poset-zero", "leq-range", "sleq-range", "act-range",
            "duplicate-act", "incomplete", "first-directive", "leq-cycle", "sleq-cycle",
            "fault-order", "ring-one", "module-zero", "module-factor", "module-bound"])
    def test_error_line(self, tmp_path, capsys, text, message):
        spec = write(tmp_path, "s.spec", text)
        assert main(["spectra", "--in", spec]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        (CHAIN_SPEC + "act 0 1 1 1\n", "line 6: expected 3 integers, got 4"),
        (CHAIN_SPEC.replace("poset 1", "poset 1\nsleq 0"), "line 4: expected 2 integers, got 1"),
        (CHAIN_SPEC.replace("leq 0 1", "leq 0 x 1"), "line 2: expected integers, got 0 x 1"),
        (CHAIN_SPEC.replace("act 0 1 1", "act 0 1 1  # s.1 = 1"), None),
        (CHAIN_SPEC.replace("\n", "\r\n"), None),
        (CHAIN_SPEC.replace("\n", "\r\n") + "acts 0 0 0\r\n",
         "line 6: unknown directive 'acts' in lattice spec"),
        (CHAIN_SPEC.replace(" ", "\t"), None),
    ], ids=["act-four-words", "sleq-one-word", "leq-non-integer", "act-comment", "crlf",
            "crlf-line-number", "tabs"])
    def test_order_and_act_line_forms(self, tmp_path, capsys, text, message):
        # Each form of a leq/sleq/act line, with None for a spec that parses:
        # its output is then the plain chain spec's.
        assert main(["spectra", "--in", write(tmp_path, "plain.spec", CHAIN_SPEC)]) == 0
        plain = capsys.readouterr().out
        spec = tmp_path / "s.spec"
        spec.write_bytes(text.encode("utf-8"))
        if message is None:
            assert main(["spectra", "--in", str(spec)]) == 0
            assert capsys.readouterr() == (plain, "")
        else:
            assert main(["spectra", "--in", str(spec)]) == 3
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_comment_runs_to_the_newline(self, tmp_path, capsys, separator):
        # Only "\n" ends a line, so a form feed or another separator inside a
        # comment is part of the comment, and line numbers match grep -n.
        text = CHAIN_SPEC.replace("lattice 2", f"lattice 2 # a{separator}b")
        assert main(["spectra", "--in", write(tmp_path, "s.spec", text)]) == 0
        capsys.readouterr()
        assert main(["spectra", "--in", write(tmp_path, "t.spec", text + "acts 0 0 0\n")]) == 3
        assert capsys.readouterr().err == "error: line 6: unknown directive 'acts' in lattice spec\n"


class TestReports:
    def test_machine_report_deterministic(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        assert main(["verify", "--in", spec, "--report", str(out1)]) == 0
        assert main(["verify", "--in", spec, "--report", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_machine_report_format(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        out = tmp_path / "r.txt"
        assert main(["represent", "--in", spec, "--report", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "hollowlat-report 1"
        assert lines[1] == "subject ring 12 module 12"
        assert all(line.split()[2] in ("pass", "fail", "hypothesis-unmet")
                   for line in lines if line.startswith("claim"))

    def test_spectra_command_lists_kinds(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["spectra", "--in", spec, "--kind", "second"]) == 0
        out = capsys.readouterr().out
        assert "spectrum.second  [(6) (4)]" in out

    def test_spectra_on_lattice_input(self, tmp_path, capsys):
        spec = write(tmp_path, "l.spec", CHAIN_SPEC)
        assert main(["spectra", "--in", spec]) == 0
        assert "spectrum.prime" in capsys.readouterr().out

    def test_submodules_command_builds_no_lattice(self, tmp_path, capsys, monkeypatch):
        import hollowlat.modules

        def refuse(*args):
            raise AssertionError("the submodules command built the submodule lattice")

        monkeypatch.setattr(hollowlat.modules, "FiniteLattice", refuse)
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["submodules", "--in", spec]) == 0

    def test_submodules_command(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["submodules", "--in", spec]) == 0
        out = capsys.readouterr().out
        assert "submodules.count  [6]" in out

    def test_minimize_command(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["minimize", "--in", spec, "--summands", "(3),(4),(6)"]) == 0
        out = capsys.readouterr().out
        assert "minimize.result  [(4)+(3)]" in out

    def test_minimize_reads_cyclic_summands_modulo_the_factor(self, tmp_path, capsys):
        # Over Z/12, (8) in Z_6 is the submodule generated by 8 mod 6 = 2.
        spec = write(tmp_path, "m.spec", "ring 12\nmodule 6\n")
        assert main(["minimize", "--in", spec, "--summands", "(8),(3)"]) == 0
        assert "minimize.input  [(2)+(3)]" in capsys.readouterr().out

    @pytest.mark.parametrize("summands,code,line", [
        ("(0),(4)", 3, "error: zero cannot be a summand"),
        ("(12),(4)", 3, "error: zero cannot be a summand"),
        ("(-3),(4)", 0, "PASS  minimize.input  [(3)+(4)]"),
    ])
    def test_minimize_reduces_cyclic_summands_to_residues(self, tmp_path, capsys,
                                                          summands, code, line):
        # 12 and 0 are the zero element of Z_12, and -3 is 9, which generates (3).
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["minimize", "--in", spec, "--summands", summands]) == code
        captured = capsys.readouterr()
        assert line in (captured.out + captured.err).splitlines()

    @pytest.mark.parametrize("summands", ["1:0,0:1", "1:0+0:1"])
    def test_minimize_reads_coordinate_summands(self, tmp_path, capsys, summands):
        # Two lines of Z_2 + Z_2 share their family, so they merge into their sum.
        spec = write(tmp_path, "m.spec", KLEIN)
        assert main(["minimize", "--in", spec, "--summands", summands]) == 0
        assert "PASS  minimize.result  [<(0,1),(1,0)>]" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("summands,line", [
        ("<(0,1),(1,0)>", "PASS  minimize.input  [<(0,1),(1,0)>]"),
        ("<(0,1)>,<(1,0)>", "PASS  minimize.input  [<(0,1)>+<(1,0)>]"),
        ("<(0,1)>, 1:0", "PASS  minimize.input  [<(0,1)>+<(1,0)>]"),
    ])
    def test_minimize_reads_submodule_names(self, tmp_path, capsys, summands, line):
        # Names as represent and pshollow print them, commas and all.
        spec = write(tmp_path, "m.spec", KLEIN)
        assert main(["minimize", "--in", spec, "--summands", summands]) == 0
        out = capsys.readouterr().out.splitlines()
        assert line in out and "PASS  minimize.result  [<(0,1),(1,0)>]" in out

    @pytest.mark.parametrize("ring,factors", [(2, (2, 2)), (4, (4, 2)), (6, (6, 6)), (12, (12,))])
    def test_every_submodule_name_reads_back(self, ring, factors):
        # The zero submodule of a direct sum is named 0, and no summand is zero.
        module = FiniteModule(Ring(ring), factors)
        for sub in enumerate_submodules(module):
            if not sub.is_zero:
                assert cli._parse_summand_token(module, sub.name) == sub, sub.name

    def test_minimize_rejects_bad_summands(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z12)
        assert main(["minimize", "--in", spec, "--summands", "(4),(6)"]) == 3

    def test_bound_flag_enforced(self, tmp_path, capsys):
        spec = write(tmp_path, "m.spec", Z30)
        assert main(["submodules", "--in", spec, "--bound", "10"]) == 3

    def test_bound_flag_admits_large_prime_power_part(self, tmp_path, capsys):
        # Z_13122 = Z_2 + Z_6561: the 3-part alone is above the default bound.
        spec = write(tmp_path, "m.spec", "ring 13122\nmodule 13122\n")
        assert main(["submodules", "--in", spec, "--bound", "13122"]) == 0
        assert "PASS  submodules.count  [18]" in capsys.readouterr().out


class TestParserReuse:
    """One parser serves every main call in a process and keeps no state."""

    @staticmethod
    def outcome(argv, capsys, outputs):
        for path in outputs:
            if path.exists():
                path.unlink()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        return (code, out, err,
                *(path.read_bytes() if path.exists() else None for path in outputs))

    def test_later_calls_match_fresh_calls(self, tmp_path, capsys):
        z12 = write(tmp_path, "z12.spec", Z12)
        chain = write(tmp_path, "chain.spec", chain_spec(4))
        broken = write(tmp_path, "broken.spec", "ring 12\nmodule 7\n")
        report, dot = tmp_path / "out.report", tmp_path / "out.dot"
        out = ["--report", str(report)]
        calls = [
            ["spectra", "--in", z12, "--kind", "second", *out],
            ["spectra", "--in", chain, *out],
            ["verify", "--in", z12, "--claim", "duality", *out],
            ["verify", "--in", chain, *out],
            ["represent", "--in", z12, "--max-terms", "1", *out],
            ["represent", "--in", z12, *out],
            ["hasse", "--in", z12, "--highlight", "second,first,ps_hollow",
             "--dot", str(dot), *out],
            ["hasse", "--in", chain, *out],
            ["verify", "--in", broken, *out],
            ["spectra", "--in", z12, "--kind", "bogus", *out],
            ["verify", "--in", z12, "--claim", "semisimple_equivalences", *out],
        ]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(self.outcome(argv, capsys, (report, dot)))
        codes = [got[0] for got in fresh]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 3, ("SystemExit", 3), 2]
        assert "invalid choice: 'bogus'" in fresh[9][2]
        for _ in range(2):
            for argv, want in zip(calls, fresh):
                assert self.outcome(argv, capsys, (report, dot)) == want, argv
        assert build_parser() is build_parser()


class TestSpecMutations:
    """Seeded mutants of the spec texts above never make the CLI raise."""

    TOKENS = ("0", "1", "2", "3", "4", "6", "12", "-1", "x", "#", "ring", "module",
              "lattice", "leq", "poset", "sleq", "act")
    COMMANDS = ("verify", "spectra", "hasse", "submodules", "pshollow", "represent")

    def mutate(self, rng, text):
        lines = [line.split() for line in text.splitlines()]
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("drop", "duplicate", "alter", "swap"))
            i = rng.randrange(len(lines))
            if op == "drop" and len(lines) > 1:
                del lines[i]
            elif op == "duplicate":
                lines.insert(rng.randrange(len(lines) + 1), list(lines[i]))
            elif op == "alter" and lines[i]:
                lines[i][rng.randrange(len(lines[i]))] = rng.choice(self.TOKENS)
            elif op == "swap":
                j = rng.randrange(len(lines))
                if lines[i] and lines[j]:
                    a, b = rng.randrange(len(lines[i])), rng.randrange(len(lines[j]))
                    lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
        return "".join(" ".join(words) + "\n" for words in lines)

    def test_mutated_specs_exit_cleanly(self, tmp_path, capsys):
        module = FiniteModule(Ring(12), [12])
        texts = [Z12, Z30, KLEIN, CHAIN_SPEC, emit_lattice_spec(submodule_lattice(module)[1])]
        rng = random.Random(20261018)
        spec = tmp_path / "mutant.spec"
        for trial in range(1000):
            text = self.mutate(rng, texts[trial % len(texts)])
            spec.write_text(text, encoding="utf-8")
            command = self.COMMANDS[trial % len(self.COMMANDS)]
            code = main([command, "--in", str(spec)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (command, text)
            assert (code == 3) == err.startswith("error:"), (command, text, err)
