"""Deterministic rendering of verification reports, classifications, and
numeric residual panels.

Output is plain text: titled sections, provenance footnotes, then a flat
machine-readable key=value block after a ``---`` separator.  Equal inputs
render to byte-equal output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import _format_terms, format_rational
from .hauptmodul import Classification
from .modeq import VerificationReport
from .numeric import KappaSelection, ResidualPanel


def _with_machine_block(body: str, machine) -> str:
    """body, the ``---`` separator, then one key=value line per pair."""
    return f"{body}\n---\n" + "\n".join(f"{k}={v}" for k, v in machine) + "\n"


@dataclass(frozen=True)
class RenderedReport:
    sections: tuple[tuple[str, str], ...]
    footnotes: tuple[str, ...]
    machine: tuple[tuple[str, str], ...]

    def text(self) -> str:
        blocks = [f"== {title} ==\n{body}".rstrip() for title, body in self.sections]
        if self.footnotes:
            blocks.append("\n".join(f"[{i}] {note}" for i, note in enumerate(self.footnotes, 1)))
        return _with_machine_block("\n\n".join(blocks), self.machine)


def _verification(rep: VerificationReport):
    """The body and the machine pairs of one order's report."""
    lines = []
    if rep.status == "consistent":
        lines.append(f"CONSISTENT to q^{format_rational(rep.verified_to)}")
    elif rep.status == "inconsistent":
        e, expected, actual = rep.first_failure
        lines.append(f"INCONSISTENT at q^{format_rational(e)}")
        lines.append(f"  expected {expected.literal()}")
        lines.append(f"  actual   {actual.literal()}")
    else:
        lines.append("INSUFFICIENT DATA")
        lines.append(f"  determined only through q^{format_rational(rep.verified_to)};"
                     " supply a deeper expansion")
    pairs = [
        ("order", str(rep.order)),
        ("status", rep.status),
        ("verified_to", format_rational(rep.verified_to)),
    ]
    if rep.first_failure is not None:
        e, expected, actual = rep.first_failure
        pairs.append(("failure_exponent", format_rational(e)))
        pairs.append(("failure_expected", expected.literal()))
        pairs.append(("failure_actual", actual.literal()))
    return "\n".join(lines), pairs


def _classification(c: Classification):
    lines = [f"verdict: {c.verdict}"]
    if c.fiction_xi is not None:
        shape = _format_terms([("1", "q^{-1}"), (c.fiction_xi.literal(), "q")])
        lines.append(f"modular fiction: {shape}")
    sections = [("classification", "\n".join(lines))]
    for m, rep in c.orders_tested:
        sections.append((f"order {m}", _verification(rep)[0]))
    if c.notes:
        sections.append(("notes", c.notes))
    orders = ",".join(str(m) for m, _ in c.orders_tested)
    verified = [rep.verified_to for _, rep in c.orders_tested]
    machine = [
        ("verdict", c.verdict),
        ("xi", c.fiction_xi.literal() if c.fiction_xi is not None else "none"),
        ("orders", orders),
        ("verified_to", format_rational(min(verified)) if verified else ""),
    ]
    for m, rep in c.orders_tested:
        machine.append((f"order_{m}_status", rep.status))
    return sections, machine


def _panel(panel: ResidualPanel):
    width = max((len(r.label) for r in panel.rows), default=0)
    lines = []
    for row in panel.rows:
        verdict = "pass" if row.passed else "FAIL"
        lines.append(f"{row.label.ljust(width)}  residual {row.residual:.3e}"
                     f"  (tolerance {row.tolerance:.1e})  {verdict}")
    if panel.notes:
        lines.append(panel.notes)
    machine: list[tuple[str, str]] = [("rows", str(len(panel.rows)))]
    for i, row in enumerate(panel.rows, 1):
        machine.append((f"label_{i}", row.label))
        machine.append((f"residual_{i}", f"{row.residual:.6e}"))
        machine.append((f"pass_{i}", "true" if row.passed else "false"))
    return [(panel.title, "\n".join(lines))], machine


def render(obj, footnotes: tuple[str, ...] = ()) -> RenderedReport:
    """Render a report-like object; extra provenance strings become
    footnotes."""
    if isinstance(obj, VerificationReport):
        body, machine = _verification(obj)
        sections = [(f"order-{obj.order} modular equation", body)]
    elif isinstance(obj, Classification):
        sections, machine = _classification(obj)
    elif isinstance(obj, KappaSelection):
        sections, machine = _panel(obj.panel)
        machine.append(("winner", str(obj.winner) if obj.winner is not None else "none"))
    elif isinstance(obj, ResidualPanel):
        sections, machine = _panel(obj)
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    return RenderedReport(tuple(sections), tuple(footnotes), tuple(machine))


def provenance_footnotes(entry) -> tuple[str, ...]:
    """Human-readable provenance strings for a corpus entry."""
    notes = []
    for r in entry.provenance:
        span = f"q^{r.lo}..q^{r.hi}"
        if r.kind == "published":
            notes.append(f"{span}: published reference expansion")
        elif r.kind == "derived":
            notes.append(f"{span}: derived({r.oracle})")
        else:
            notes.append(f"{span}: external input, unverified provenance")
    return tuple(notes)
