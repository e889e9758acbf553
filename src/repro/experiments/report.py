"""One-shot report generation: every paper artifact into one document.

``python -m repro report [-o FILE]`` regenerates all experiments at the
chosen scale and writes a single markdown report with every table, so a
reviewer can diff two runs (or two machines) wholesale.
"""

from __future__ import annotations

import io
import time
from typing import Dict, Optional

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ExperimentResult

#: Regeneration order: paper artifacts first, extensions last.
REPORT_ORDER = (
    "tab_hw",
    "fig04",
    "tab04",
    "fig05",
    "fig06",
    "tab02",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "ext_metadata",
    "ext_ablations",
    "ext_phases",
)


def _render(result: ExperimentResult, out: io.StringIO) -> None:
    out.write(f"## {result.title}\n\n```\n")
    out.write(result.format_table())
    out.write("\n```\n\n")


#: Experiments whose ``run`` accepts a ``jobs`` parameter (they fan
#: independent simulations out over worker processes).
PARALLEL_EXPERIMENTS = ("fig15", "fig16", "fig17", "fig18", "fig20", "fig21")


def generate_report(
    duration_cycles: Optional[float] = None,
    sample: Optional[int] = None,
    seed: int = 0,
    experiments=REPORT_ORDER,
    progress=None,
    jobs: Optional[int] = None,
) -> str:
    """Run the chosen experiments and return the markdown report."""
    out = io.StringIO()
    out.write("# repro — full reproduction report\n\n")
    out.write(
        f"Scale: duration={duration_cycles or 'default'} cycles/device, "
        f"sweep sample={sample or 'default'}, seed={seed}.\n\n"
    )

    timings: Dict[str, float] = {}
    for key in experiments:
        module = ALL_EXPERIMENTS[key]
        if progress is not None:
            progress(key)
        kwargs = {}
        if key in ("fig15", "fig16", "fig17", "fig18"):
            kwargs["sample"] = sample
            kwargs["duration_cycles"] = duration_cycles
        elif key not in ("tab_hw", "ext_metadata"):
            kwargs["duration_cycles"] = duration_cycles
        if jobs is not None and key in PARALLEL_EXPERIMENTS:
            kwargs["jobs"] = jobs
        started = time.perf_counter()
        result = module.run(seed=seed, **kwargs)
        timings[key] = time.perf_counter() - started
        if isinstance(result, dict):  # fig19 panels
            for panel in result.values():
                _render(panel, out)
        else:
            _render(result, out)

    out.write("## Regeneration times\n\n```\n")
    for key, elapsed in timings.items():
        out.write(f"{key:14s} {elapsed:8.1f}s\n")
    out.write("```\n")

    # When the report ran under an explicit supervisor (--run-id,
    # --resume, --timeout), surface what the executor survived: a
    # resumed report should *say* how much work the store saved.
    from repro.sim.resilient import current_supervisor

    supervisor = current_supervisor()
    if supervisor.report.attempts or supervisor.report.resume_skips:
        out.write("\n## Supervision\n\n```\n")
        out.write(supervisor.report.summary() + "\n")
        for name, value in sorted(supervisor.report.as_dict().items()):
            out.write(f"{name:26s} {value}\n")
        out.write("```\n")
    return out.getvalue()
