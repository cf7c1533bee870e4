"""Structured pass/fail reports shared by the checkers and the CLI.

A report is an ordered list of findings, each a claim identifier with a
verdict and optional witnesses, plus a list of flags recording interpretive
decisions that affect how a claim was evaluated.  Rendering is deterministic:
identical inputs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNMET = "hypothesis-unmet"

SCHEMA_HEADER = "hollowlat-report 1"


def _token(text: str) -> str:
    # Witness tokens are space separated in the machine format.
    return str(text).replace(" ", "_")


@dataclass(frozen=True)
class Finding:
    claim: str
    verdict: str
    witnesses: tuple[str, ...] = ()


@dataclass
class Report:
    subject: str
    findings: list[Finding] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def add(self, claim: str, verdict: str, *witnesses) -> None:
        assert verdict in (PASS, FAIL, UNMET)
        self.findings.append(Finding(claim, verdict, tuple(_token(w) for w in witnesses)))

    def check(self, claim: str, ok: bool, *witnesses) -> None:
        self.add(claim, PASS if ok else FAIL, *witnesses)

    def gate(self, claim: str, *witnesses) -> None:
        self.add(claim, UNMET, *witnesses)

    def flag(self, text: str) -> None:
        if text not in self.flags:
            self.flags.append(text)

    @property
    def failures(self) -> list[Finding]:
        return [f for f in self.findings if f.verdict == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def exit_code(self) -> int:
        """0 all good, 1 any failure, 2 when nothing was applicable."""
        if self.failures:
            return 1
        if self.findings and all(f.verdict == UNMET for f in self.findings):
            return 2
        return 0

    def render_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for text in self.flags:
            lines.append(f"note: {text}")
        for f in self.findings:
            mark = {PASS: "PASS", FAIL: "FAIL", UNMET: "SKIP"}[f.verdict]
            tail = f"  [{' '.join(f.witnesses)}]" if f.witnesses else ""
            lines.append(f"{mark:4}  {f.claim}{tail}")
        counts = (
            sum(1 for f in self.findings if f.verdict == PASS),
            len(self.failures),
            sum(1 for f in self.findings if f.verdict == UNMET),
        )
        lines.append("total: %d pass, %d fail, %d hypothesis-unmet" % counts)
        return "\n".join(lines) + "\n"

    def render_machine(self) -> str:
        lines = [SCHEMA_HEADER, f"subject {self.subject}"]
        for text in self.flags:
            lines.append(f"flag {text}")
        for f in self.findings:
            parts = ["claim", f.claim, f.verdict, *f.witnesses]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"
