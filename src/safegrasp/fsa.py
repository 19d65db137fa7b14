"""Functional-safety assessment from operational logs.

From a rollout (or a pre-recorded log) the assessment counts dangerous
failures -- workcell-collision steps plus joint-speed-violation steps --
and derives:

* ``MTTF``: total operational steps divided by the failure count,
* ``PFD``:  ``1 / MTTF``, which lies in (0, 1] since ``MTTF >= 1``,
* ``RRF``:  ``1 / PFD``,
* a safety integrity level from decade bands of the PFD
  (``SIL k``: ``10^-(k+1) <= PFD < 10^-k``), reported next to the SIL-2
  reference ranges.

Obstacle and object contacts are deliberately not counted as dangerous
failures: they are penalised interactions, not loss of the safety function.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .rollout import ASSESSMENT_SEED_STREAM  # re-exported: the assessment rollouts' stream
from .runlog import EpisodeRecord

SIL2_RANGES = {
    "mttf": "> 100 steps",
    "pfd": "0.01 to 0.001",
    "rrf": "100 to 1000",
}


@dataclass(frozen=True)
class FsaInput:
    """Aggregated operational evidence feeding the assessment."""

    total_steps: int
    failure_count: int

    def __post_init__(self):
        if self.total_steps < 0 or self.failure_count < 0:
            raise ValueError("counts must be non-negative")
        if self.failure_count > self.total_steps:
            raise ValueError("failure_count cannot exceed total_steps")


@dataclass(frozen=True)
class FsaReport:
    mttf: float  # steps
    pfd: float
    rrf: float
    sil: int
    mttf_is_lower_bound: bool
    inputs: FsaInput

    def as_dict(self) -> dict:
        return {**asdict(self), "sil2_ranges": dict(SIL2_RANGES)}


def compute_mttf(inputs: FsaInput) -> float:
    """Steps per dangerous failure; a failure-free log yields the lower
    bound ``total_steps`` (flagged in the report)."""
    if inputs.total_steps == 0:
        raise ValueError("total_steps must be positive")
    if inputs.failure_count == 0:
        return float(inputs.total_steps)
    return inputs.total_steps / inputs.failure_count


def compute_pfd(mttf: float) -> float:
    if not mttf > 0.0:
        raise ValueError("mttf must be positive")
    return 1.0 / mttf


def compute_rrf(pfd: float) -> float:
    if not pfd > 0.0:
        raise ValueError("pfd must be positive")
    return 1.0 / pfd


def assign_sil(pfd: float) -> int:
    """Decade banding of the probability of failure on demand.

    ``SIL k`` covers ``10^-(k+1) <= pfd < 10^-k`` (band floors inclusive,
    so pfd = 0.001 is SIL 2); pfd >= 0.1 earns no level (SIL 0) and
    anything below the SIL 4 floor is capped at SIL 4.
    """
    if not 0.0 < pfd <= 1.0:
        raise ValueError("pfd must lie in (0, 1]")
    if pfd >= 0.1:
        return 0
    if pfd >= 0.01:
        return 1
    if pfd >= 0.001:
        return 2
    if pfd >= 0.0001:
        return 3
    return 4


def build_report(inputs: FsaInput) -> FsaReport:
    mttf = compute_mttf(inputs)
    pfd = compute_pfd(mttf)
    return FsaReport(
        mttf=mttf,
        pfd=pfd,
        rrf=compute_rrf(pfd),
        sil=assign_sil(pfd),
        mttf_is_lower_bound=inputs.failure_count == 0,
        inputs=inputs,
    )


def inputs_from_episodes(records: list[EpisodeRecord]) -> FsaInput:
    """Classify failures from episode records: collisions + speed violations."""
    if not records:
        raise ValueError("at least one episode record is required")
    total = int(sum(r.steps for r in records))
    failures = int(
        sum(r.violations.collision + r.violations.speed for r in records)
    )
    return FsaInput(total_steps=total, failure_count=failures)


def format_report_text(report: FsaReport) -> str:
    """Human-readable table: metric, value, SIL-2 reference range."""
    mttf = f"{report.mttf:.2f}"
    if report.mttf_is_lower_bound:
        mttf = f">= {mttf} (no observed failures)"
    rows = [
        ("MTTF", mttf, SIL2_RANGES["mttf"]),
        ("PFD", f"{report.pfd:.6g}", SIL2_RANGES["pfd"]),
        ("RRF", f"{report.rrf:.2f}", SIL2_RANGES["rrf"]),
        ("SIL", str(report.sil), "2"),
    ]
    widths = [
        max(len(r[i]) for r in rows + [("Metrics", "Value", "SIL 2 Range")])
        for i in range(3)
    ]
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(("Metrics", "Value", "SIL 2 Range"), widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append("")
    lines.append(
        "failures counted: workcell-collision steps + speed-violation steps "
        f"({report.inputs.failure_count} over {report.inputs.total_steps} steps)"
    )
    return "\n".join(lines)
