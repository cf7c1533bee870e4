"""Command line front end.

Input files come in two shapes.  A module file:

    ring 12
    module 12

and a generic lattice file:

    lattice 4
    leq 0 1
    ...
    poset 2
    sleq 0 1
    act 0 0 0
    ...

``leq``/``sleq`` lines are closed reflexively and transitively; every
``act s x y`` entry (meaning s.x = y) must be present exactly once, with s a
poset element and x, y lattice elements.  Blank lines and ``#`` comments are
ignored.  The first directive, ``ring`` or ``lattice``, decides the kind of
spec; later directives may come in any order, but a lattice spec that starts
with ``poset`` is rejected.  A lattice spec declares at most
LATTICE_SIZE_LIMIT lattice and POSET_SIZE_LIMIT poset elements.  Of several
faults, the one reported is the first of: a fault on one line (in line
order), a missing directive, a ``leq``/``sleq`` pair out of range, an ``act``
entry out of range or repeated (in file order), the first gap in the table.

Commands: submodules, spectra, pshollow, represent, minimize, verify, hasse.
Exit codes: 0 all pass, 1 any failing claim, 2 only hypothesis-unmet claims,
3 unusable input, a malformed command line included.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys

from . import pshollow as ph
from . import spectra
from .lattice import (
    FiniteLattice,
    LatticeError,
    PosetAction,
    build_lattice,
    build_poset,
    is_join_distributive,
    is_multiplication,
    make_action,
)
from .modules import (
    DEFAULT_ORDER_BOUND,
    FiniteModule,
    ModuleError,
    Ring,
    enumerate_submodules,
    find_minimal_second_representations,
    is_second_submodule,
    span,
    submodule_lattice,
)
from .report import Report

COMMANDS = ("submodules", "spectra", "pshollow", "represent", "minimize", "verify", "hasse")
# Largest lattice a lattice spec may declare: verify on a chain of this size
# takes about 2 s, and about 5 s with a poset that is a chain of the same size.
LATTICE_SIZE_LIMIT = 256
# Largest poset a lattice spec may declare.  It admits the 2304 divisors of
# 6983776800, so every spec emitted from an admitted module spec parses.  With
# one lattice element, spectra at this size takes 0.2 s, on a chain in any
# numbering or on an antichain.
POSET_SIZE_LIMIT = 4096
# Largest ring modulus a module spec may declare.  The ideals of Z/nZ are the
# poset of every module action, and verify's work grows with the square of
# their number: below this limit 6983776800 has the most divisors, 2304, and
# verify on it with module 2 takes about 0.2 s.
RING_MODULUS_LIMIT = 10 ** 10


class ParseError(Exception):
    def __init__(self, line: int | None, message: str):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


class ValidationError(Exception):
    """Parsed input that fails a mathematical validation, or an unwritable output."""


def _tokenize(text: str):
    # Lines end at "\n" alone, as for grep -n; open() has already folded "\r\n"
    # and "\r".  str.splitlines would also break at form feeds and other
    # separators, which may stand inside a comment.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_spec(path: str, bound: int = DEFAULT_ORDER_BOUND):
    """Parse a module or lattice spec file.

    Returns a FiniteModule, or a (FiniteLattice, PosetAction) pair.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(None, f"cannot read {path}: {exc}") from exc
    rows = list(_tokenize(text))
    if not rows:
        raise ParseError(None, "empty spec file")
    head = rows[0][1][0]
    if head == "ring":
        return _parse_module(rows, bound)
    if head == "lattice":
        return _parse_lattice(rows)
    raise ParseError(rows[0][0], f"expected 'ring' or 'lattice', got {head!r}")


def _ints(lineno, words, count=None):
    try:
        values = [int(w) for w in words]
    except ValueError:
        raise ParseError(lineno, f"expected integers, got {' '.join(words)}") from None
    if count is not None and len(values) != count:
        raise ParseError(lineno, f"expected {count} integers, got {len(values)}")
    return values


def _parse_module(rows, bound) -> FiniteModule:
    values, lines = {}, {}  # the integers and the line number of each directive
    for lineno, words in rows:
        key, rest = words[0], words[1:]
        if key not in ("ring", "module"):
            raise ParseError(lineno, f"unknown directive {key!r} in module spec")
        if key in values:
            raise ParseError(lineno, f"duplicate {key} directive")
        if key == "module" and not rest:
            raise ParseError(lineno, "module directive needs at least one factor")
        values[key] = _ints(lineno, rest, 1 if key == "ring" else None)
        lines[key] = lineno
        if key == "ring" and values[key][0] > RING_MODULUS_LIMIT:
            raise ParseError(lineno, f"ring modulus must be at most "
                                     f"{RING_MODULUS_LIMIT}, got {values[key][0]}")
    if len(values) < 2:
        raise ParseError(None, "module spec needs both 'ring' and 'module' directives")
    # A bad value is reported at the line of the directive that gave it.
    lineno = lines["ring"]
    try:
        ring = Ring(values["ring"][0])
        lineno = lines["module"]
        return FiniteModule(ring, values["module"], bound=bound)
    except (ValueError, ModuleError) as exc:
        raise ValidationError(f"line {lineno}: {exc}") from exc


def _parse_lattice(rows) -> tuple[FiniteLattice, PosetAction]:
    sizes = {}
    entries = {"leq": [], "sleq": [], "act": []}  # (line, *integers) per directive
    for lineno, words in rows:
        key = words[0]
        if key in entries:
            # One unpack and one int() per word; _ints only names the fault.
            try:
                if key == "act":
                    _, s, x, y = words
                    entries[key].append((lineno, int(s), int(x), int(y)))
                else:
                    _, i, j = words
                    entries[key].append((lineno, int(i), int(j)))
            except ValueError:
                _ints(lineno, words[1:], 3 if key == "act" else 2)
        elif key in ("lattice", "poset"):
            if key in sizes:
                raise ParseError(lineno, f"duplicate {key} directive")
            (size,) = _ints(lineno, words[1:], 1)
            limit = LATTICE_SIZE_LIMIT if key == "lattice" else POSET_SIZE_LIMIT
            if not 1 <= size <= limit:
                bound = (f"between 1 and {limit}" if key == "lattice"
                         else "at least 1" if size < 1 else f"at most {limit}")
                raise ParseError(lineno, f"{key} size must be {bound}, got {size}")
            sizes[key] = size
        else:
            raise ParseError(lineno, f"unknown directive {key!r} in lattice spec")
    if len(sizes) < 2:
        raise ParseError(None, "lattice spec needs 'lattice' and 'poset' directives")
    lat_size, pos_size = sizes["lattice"], sizes["poset"]
    for key, size in (("leq", lat_size), ("sleq", pos_size)):
        for lineno, i, j in entries[key]:
            if not (0 <= i < size and 0 <= j < size):
                raise ParseError(lineno, f"{key} {i} {j} out of range for size {size}")
    table = [[None] * lat_size for _ in range(pos_size)]  # None marks a gap
    for lineno, s, x, y in entries["act"]:
        if not (0 <= s < pos_size and 0 <= x < lat_size and 0 <= y < lat_size):
            raise ParseError(lineno, f"act {s} {x} {y} out of range for poset size "
                                     f"{pos_size} and lattice size {lat_size}")
        if table[s][x] is not None:
            raise ParseError(lineno, f"duplicate act entry for ({s}, {x})")
        table[s][x] = y
    for s, row in enumerate(table):
        if None in row:
            raise ParseError(None, f"action table incomplete; first missing entry "
                                   f"act {s} {row.index(None)}")
    try:
        lattice = build_lattice(lat_size, [(i, j) for _, i, j in entries["leq"]])
        poset = build_poset(pos_size, [(i, j) for _, i, j in entries["sleq"]])
        return lattice, make_action(lattice, poset, table)
    except LatticeError as exc:
        raise ValidationError(str(exc)) from exc


def emit_lattice_spec(action: PosetAction) -> str:
    lat, pos = action.lattice, action.poset
    lines = [f"lattice {lat.size}"]
    lines += [f"leq {i} {j}" for i, j in lat.pairs() if i != j]
    lines.append(f"poset {pos.size}")
    lines += [f"sleq {i} {j}" for i, j in pos.pairs() if i != j]
    for s in range(pos.size):
        for x in range(lat.size):
            lines.append(f"act {s} {x} {action.apply(s, x)}")
    return "\n".join(lines) + "\n"


def emit_dot(lattice: FiniteLattice, labels, highlights=None) -> str:
    """DOT digraph of the covering relation, bottom-up, byte-stable."""
    highlights = highlights or {}
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for i in range(lattice.size):
        attrs = [f'label="{labels[i]}"']
        tags = highlights.get(i)
        if tags:
            attrs.append(f'tooltip="{" ".join(tags)}"')
            attrs.append("style=filled")
            attrs.append('fillcolor="lightblue"')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for x, y in lattice.covers():
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- theorem batteries ---------------------------------------------------------

def lattice_battery(action: PosetAction, report: Report) -> None:
    for part in (1, 2, 3, 4):
        report.extend(spectra.check_duality_theorem(action, part))
    report.extend(spectra.check_double_dual(action))
    report.extend(spectra.check_spectrum_identities(action))
    if is_multiplication(action):
        primes = set(spectra.spectrum(action, "prime"))
        report.check("variety.prime_union_closed",
                     spectra.is_topological(action.lattice, primes))
    else:
        report.gate("variety.prime_union_closed", "not-multiplication")


def module_battery(module: FiniteModule) -> Report:
    report = Report(subject=module.describe())
    subs = enumerate_submodules(module)
    lat, act = submodule_lattice(module)
    report.check("bridge.action_axioms", True)
    report.check("bridge.join_distributive", is_join_distributive(act))
    lattice_seconds = set(spectra.spectrum(act, "second"))
    module_seconds = {i for i, s in enumerate(subs)
                      if not s.is_zero and is_second_submodule(s)}
    report.check("bridge.second_consistency", lattice_seconds == module_seconds,
                 "lattice=[" + ",".join(map(str, sorted(lattice_seconds))) + "]",
                 "module=[" + ",".join(map(str, sorted(module_seconds))) + "]")
    lattice_battery(act, report)

    report.extend(ph.check_min_cover_ideals(module))
    found = ph.find_ps_hollow_submodules(module)
    up = lat.up
    for (n, pn), (k, pk) in itertools.combinations(found, 2):
        if up[n.index] >> k.index & 1 or up[k.index] >> n.index & 1:
            continue
        for family in sorted({pn.family, pk.family}, key=sorted):
            report.extend(ph.check_profile_of_sum(n, k, family))

    reps = ph.enumerate_minimal_representations(module)
    report.add("representations.count", "pass", str(len(reps)),
               *(r.names() for r in reps))
    for r1, r2 in itertools.combinations_with_replacement(reps, 2):
        report.extend(ph.verify_first_uniqueness(r1, r2))
        report.extend(ph.verify_second_uniqueness(r1, r2))
        report.extend(ph.check_aligned_equality(r1, r2))

    for sub, _ in found:
        report.extend(ph.check_nonsmall_inheritance(module, sub))
    report.extend(ph.check_semisimple_equivalences(module))
    report.extend(ph.check_second_rep_equivalences(module))

    second_reps = find_minimal_second_representations(module)
    if second_reps:
        for sr in second_reps:
            report.extend(ph.check_direct_sum_criteria(module, sr, 1))
    else:
        report.gate("direct_sum.second_route", "not-second-representable")
    for rep in reps:
        report.extend(ph.check_direct_sum_criteria(module, rep.summands, 2))
        report.extend(ph.check_hull_disjoint_directness(module, rep))
        report.extend(ph.check_hull_inheritance_directness(module, rep))
    return report


# -- commands -------------------------------------------------------------------

def _summand_int(token: str, word: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise ValidationError(f"summand {token!r}: {word!r} is not an integer") from None


def _parse_summand_token(module: FiniteModule, token: str):
    """The submodule a summand token names.

    The forms are (k) on a cyclic module, generators a:b+c:d, and a name as
    submodule names print, such as <(0,1),(1,0)>.
    """
    token = token.strip()
    if not token:
        raise ValidationError("empty summand token")
    if token.startswith("(") and token.endswith(")") and len(module.factors) == 1:
        return span(module, [module.element([_summand_int(token, token[1:-1])])])
    if token.startswith("<") and token.endswith(">"):
        parts = _expected_names(token[1:-1])
        for part in parts:
            if not (part.startswith("(") and part.endswith(")")):
                raise ValidationError(f"summand {token!r}: {part!r} is not an element (a,b,...)")
        elements = [(part, part[1:-1].split(",")) for part in parts]
    else:
        elements = [(part, part.split(":")) for part in token.split("+")]
    gens = []
    for part, words in elements:
        coords = [_summand_int(token, c) for c in words]
        if len(coords) != len(module.factors):
            raise ValidationError(f"element {part!r} has wrong arity")
        gens.append(module.element(coords))
    return span(module, gens)


# A name: everything up to a comma outside (...) and <...>, which a name such
# as <(0,1),(1,0)> holds.
_NAME = re.compile(r"(?:<[^>]*>|\([^)]*\)|[^,])+")


def _expected_names(option: str) -> list[str]:
    return [tok.strip() for tok in _NAME.findall(option) if tok.strip()]


def cmd_submodules(module: FiniteModule, args) -> Report:
    report = Report(subject=module.describe())
    subs = enumerate_submodules(module)
    report.add("submodules.count", "pass", str(len(subs)))
    report.add("submodules.list", "pass", *(s.name for s in subs))
    for s in subs:
        report.add(f"submodules.order.{s.name}", "pass", str(s.order))
    return report


def _action_view(parsed):
    """The lattice, action, element labels and report subject of a parsed spec."""
    if isinstance(parsed, FiniteModule):
        lat, action = submodule_lattice(parsed)
        return lat, action, [s.name for s in enumerate_submodules(parsed)], parsed.describe()
    lat, action = parsed
    return (lat, action, [str(i) for i in range(lat.size)],
            f"lattice size {lat.size} poset size {action.poset.size}")


def cmd_spectra(parsed, args) -> Report:
    _, action, labels, subject = _action_view(parsed)
    report = Report(subject=subject)
    report.flag(spectra.PS_HOLLOW_FLAG)
    report.flag(spectra.COPRIME_DOMAIN_FLAG)
    kinds = [args.kind] if args.kind else list(spectra.KINDS)
    for kind in kinds:
        members = spectra.spectrum(action, kind)
        report.add(f"spectrum.{kind}", "pass", *(labels[i] for i in members))
    report.add("lattice.multiplication", "pass", str(is_multiplication(action)))
    report.add("lattice.join_distributive", "pass", str(is_join_distributive(action)))
    return report


def cmd_pshollow(module: FiniteModule, args) -> Report:
    report = Report(subject=module.describe())
    report.flag(spectra.PS_HOLLOW_FLAG)
    found = ph.find_ps_hollow_submodules(module)
    report.add("ps_hollow.list", "pass", *(s.name for s, _ in found))
    for s, prof in found:
        report.add(f"ps_hollow.profile.{s.name}", "pass",
                   f"covers={len(prof.covers)}", f"min={prof.family_name}",
                   f"hull={prof.hull.name}")
    if args.expect:
        expected = set(_expected_names(args.expect))
        got = {s.name for s, _ in found}
        report.check("ps_hollow.expected", expected == got,
                     "expected=" + ",".join(sorted(expected)),
                     "got=" + ",".join(sorted(got)))
    return report


def cmd_represent(module: FiniteModule, args) -> Report:
    if args.max_terms is not None and args.max_terms < 1:
        raise ValidationError(f"--max-terms must be at least 1, got {args.max_terms}")
    report = Report(subject=module.describe())
    reps = ph.enumerate_minimal_representations(module, args.max_terms)
    report.add("representations.count", "pass", str(len(reps)))
    for i, rep in enumerate(reps):
        report.add(f"representation.{i}", "pass", rep.names(),
                   *(f"{p.submodule.name}:min={p.family_name}:hull={p.hull.name}"
                     for p in rep.profiles))
    if args.expect:
        expected = sorted(_expected_names(args.expect))
        ok = any(sorted(s.name for s in rep.summands) == expected for rep in reps)
        report.check("representation.expected", ok, *expected)
    return report


def cmd_minimize(module: FiniteModule, args) -> Report:
    if not args.summands:
        raise ValidationError("minimize needs --summands")
    tokens = _NAME.findall(args.summands)
    # The names are split as _expected_names splits them.  What lies between
    # them is commas, so a comma too many, as in "(3),,(4)", leaves an empty token.
    if ",".join(tokens) != args.summands:
        raise ValidationError("empty summand token")
    summands = tuple(_parse_summand_token(module, tok) for tok in tokens)
    try:
        rep = ph.make_representation(module, summands)
    except (ValueError, ModuleError) as exc:
        raise ValidationError(str(exc)) from exc
    report = Report(subject=module.describe())
    report.add("minimize.input", "pass", rep.names())
    reduced = ph.minimize(rep)
    report.add("minimize.result", "pass", reduced.names())
    report.check("minimize.minimal", reduced.minimal)
    return report


def cmd_verify(parsed, args) -> Report:
    if isinstance(parsed, FiniteModule):
        report = module_battery(parsed)
    else:
        _, action, _, subject = _action_view(parsed)
        report = Report(subject=subject)
        lattice_battery(action, report)
    if args.claim:
        kept = [f for f in report.findings if f.claim.startswith(args.claim)]
        if not kept:
            raise ValidationError(f"no battery claim starts with {args.claim!r}")
        report.findings = kept
    return report


def cmd_hasse(parsed, args) -> Report:
    lat, action, labels, subject = _action_view(parsed)
    highlights: dict[int, tuple[str, ...]] = {}
    if args.highlight:
        for kind in _expected_names(args.highlight):
            if kind not in spectra.KINDS:
                raise ValidationError(f"unknown --highlight kind {kind!r}; "
                                      f"expected one of {', '.join(spectra.KINDS)}")
            for i in spectra.spectrum(action, kind):
                highlights[i] = highlights.get(i, ()) + (kind,)
    dot = emit_dot(lat, labels, highlights)
    if args.dot:
        _write(args.dot, dot)
    else:
        sys.stdout.write(dot)
    report = Report(subject=subject)
    report.add("hasse.nodes", "pass", str(lat.size))
    report.add("hasse.edges", "pass", str(len(lat.covers())))
    return report


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def run(args) -> Report:
    # Command name -> (handler, needs a module spec).  Built per call so that
    # it holds whatever the cmd_* names are bound to now, wrapped or not.
    commands = {"submodules": (cmd_submodules, True), "spectra": (cmd_spectra, False),
                "pshollow": (cmd_pshollow, True), "represent": (cmd_represent, True),
                "minimize": (cmd_minimize, True), "verify": (cmd_verify, False),
                "hasse": (cmd_hasse, False)}
    handler, module_only = commands[args.command]
    parsed = parse_spec(args.input, bound=args.bound)
    if module_only and not isinstance(parsed, FiniteModule):
        raise ValidationError(f"command {args.command!r} needs a module spec file")
    return handler(parsed, args)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is unusable input
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# One parser serves every call in a process: parse_args keeps no state on it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hollowlat",
        description="Spectra and hollow representation analysis for finite "
                    "lattices with poset actions and modules over Z/nZ.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="input", required=True, metavar="PATH",
                        help="module or lattice spec file")
    parser.add_argument("--max-terms", type=int, default=None,
                        help="cap on representation length (represent)")
    parser.add_argument("--bound", type=int, default=DEFAULT_ORDER_BOUND,
                        help=f"module order bound (default {DEFAULT_ORDER_BOUND})")
    parser.add_argument("--dot", metavar="PATH", help="write the Hasse diagram here")
    parser.add_argument("--report", metavar="PATH",
                        help="write the machine-readable report here")
    parser.add_argument("--kind", choices=spectra.KINDS, default=None,
                        help="restrict the spectra command to one kind")
    parser.add_argument("--highlight", default=None,
                        help="comma-separated kinds to mark in the Hasse diagram")
    parser.add_argument("--summands", default=None,
                        help="comma-separated summands for minimize, "
                             "e.g. \"(3),(4),(6)\" or \"1:0+0:1\"")
    parser.add_argument("--expect", default=None,
                        help="comma-separated expected names (pshollow, represent)")
    parser.add_argument("--claim", default=None,
                        help="keep only battery claims with this prefix (verify)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run(args)
        if args.report:
            _write(args.report, report.render_machine())
    except (ParseError, ValidationError, ModuleError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(report.render_text())
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
