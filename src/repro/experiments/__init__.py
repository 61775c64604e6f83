"""The evaluation harness: every table and figure of the paper.

* :mod:`~repro.experiments.runner` -- one task for every experiment:
  :func:`run_task` fits one registry detector on one pair and seed and
  scores the held-out cells; :func:`run_experiment`, the detector
  comparison and the error-family matrix build task lists for its
  durable executor (journal, retries, process pool, telemetry);
* :mod:`~repro.experiments.reference` -- the paper's published numbers
  (Tables 3-5), kept as constants for side-by-side reporting;
* :mod:`~repro.experiments.tables` -- renderers for Tables 2, 3, 4, 5;
* :mod:`~repro.experiments.curves` -- the Figure 6 / Figure 7 series;
* :mod:`~repro.experiments.scale` -- scaled-down vs paper-scale settings
  (``REPRO_FULL=1`` switches the benchmarks to full fidelity).
"""

from repro.experiments.fidelity import FidelityReport, fidelity_report, spearman_rho
from repro.experiments.curves import CurvePoint, LearningCurves, collect_curves
from repro.experiments.reference import PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5
from repro.experiments.analysis import (
    AttributeBreakdown,
    attribute_breakdown,
    error_type_recall,
    false_negatives,
    hardest_attributes,
    render_breakdown,
)
from repro.experiments.families import (
    FamilyCell,
    FamilyMatrix,
    default_family_specs,
    render_family_matrix,
    run_family_matrix,
    save_family_matrix,
)
from repro.experiments.comparison import (
    render_comparison,
    run_detector_comparison,
)
from repro.experiments.journal import TaskJournal, task_key
from repro.experiments.runner import (
    DETECTOR_LABELS,
    ExperimentResult,
    RunResult,
    TaskFailure,
    detector_config,
    run_experiment,
    run_experiment_matrix,
    run_task,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.tables import (
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)

__all__ = [
    "RunResult",
    "ExperimentResult",
    "TaskFailure",
    "TaskJournal",
    "task_key",
    "run_task",
    "run_experiment",
    "run_experiment_matrix",
    "detector_config",
    "DETECTOR_LABELS",
    "render_comparison",
    "run_detector_comparison",
    "FamilyCell",
    "FamilyMatrix",
    "default_family_specs",
    "render_family_matrix",
    "run_family_matrix",
    "save_family_matrix",
    "AttributeBreakdown",
    "attribute_breakdown",
    "error_type_recall",
    "false_negatives",
    "hardest_attributes",
    "render_breakdown",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "CurvePoint",
    "FidelityReport",
    "fidelity_report",
    "spearman_rho",
    "LearningCurves",
    "collect_curves",
    "ExperimentScale",
    "current_scale",
]
