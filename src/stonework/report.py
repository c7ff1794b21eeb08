"""Machine-readable reports for the workbench CLI.

The JSON rendering is canonical (sorted keys, fixed separators) and excludes
wall-clock timings so identical (config, seed, command) runs emit identical
bytes; the text rendering is the human summary and includes the timings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Report:
    command: str
    eps: float
    seed: int
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    properties: list = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The one verdict of a report: every listed property passed."""
        return all(p["passed"] for p in self.properties)

    def json_payload(self) -> dict:
        return {
            "command": self.command,
            "eps": self.eps,
            "seed": self.seed,
            "inputs": self.inputs,
            "results": self.results,
            "properties": self.properties,
            "passed": self.passed,
        }


def render_json(report: Report) -> str:
    # a payload is a tree of dicts, lists and scalars, so json's cycle check
    # (an id dict per container) cannot fire
    return json.dumps(report.json_payload(), sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def render_text(report: Report) -> str:
    lines = [
        f"command: {report.command}",
        f"eps:     {report.eps}",
        f"seed:    {report.seed}",
    ]
    if report.inputs:
        lines.append(f"inputs:  {json.dumps(report.inputs, sort_keys=True)}")
    for prop in report.properties:
        status = "pass" if prop.get("passed") else "FAIL"
        name = prop.get("name", "?")
        extra = ""
        if "max_residual" in prop:
            extra = f"  residual={prop['max_residual']:.3e} tol={prop.get('tolerance', 0.0):.1e}"
        lines.append(f"  [{status}] {name}{extra}")
    if report.results:
        lines.append("results:")
        lines.append(json.dumps(report.results, sort_keys=True, indent=2))
    for name, ms in report.timings_ms.items():
        lines.append(f"timing:  {name} {ms:.1f} ms")
    lines.append("overall: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str = "json", stream=None) -> None:
    """Write the report to the stream (stdout by default); IOError on failure."""
    import sys

    out = stream if stream is not None else sys.stdout
    text = render_json(report) if fmt == "json" else render_text(report)
    try:
        out.write(text)
        out.flush()
    except OSError as exc:
        raise IOError(f"cannot write report: {exc}") from exc
