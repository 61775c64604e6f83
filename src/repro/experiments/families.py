"""Per-error-family degradation matrix over the authentic taxonomy.

The paper's Section 5.5 explains dataset scores by their error mix; the
authentic-error taxonomy (:mod:`repro.datasets.taxonomy`) makes that
analysis causal: starting from one clean table, each corruption family
is injected *alone* at a fixed cell rate, and every system is trained
and scored on the single-family pair.  The resulting matrix shows which
families each detector degrades on -- keyboard typos and truncations
are character-visible (BiRNN territory), correlated errors and value
swaps put the evidence in *other* cells (hard for any per-cell model).

Target columns for each family are chosen by the ingestion analyzers
(:func:`repro.io.analyze.analyze_table`): format drift hits the columns
the profiler calls dates/numbers, typos hit text and identifiers, so
the matrix stays meaningful on any clean table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.datasets import taxonomy
from repro.errors import ExperimentError
from repro.experiments.runner import (
    ExperimentResult,
    detector_config,
    run_grid,
)
from repro.io.analyze import ColumnKind, analyze_table
from repro.table import Table


def default_family_specs(clean: Table,
                         rate: float = 0.1) -> dict[str, list[taxonomy.ErrorSpec]]:
    """Analyzer-guided single-family specs for ``clean``.

    Families whose natural targets are absent (e.g. no date or number
    column for ``format_drift``) fall back to all columns -- the drift
    rewrites simply bite less often there.
    """
    profiles = analyze_table(clean)
    by_kind: dict[ColumnKind, list[str]] = {}
    for name, profile in profiles.items():
        by_kind.setdefault(profile.kind, []).append(name)
    all_columns = list(clean.column_names)
    texty = (by_kind.get(ColumnKind.TEXT, [])
             + by_kind.get(ColumnKind.IDENTIFIER, [])) or all_columns
    drifty = (by_kind.get(ColumnKind.DATE, [])
              + by_kind.get(ColumnKind.NUMBER, [])) or all_columns
    specs: dict[str, list[taxonomy.ErrorSpec]] = {
        "keyboard_typo": [taxonomy.keyboard_typo(texty, rate)],
        "format_drift": [taxonomy.format_drift(drifty, rate)],
        "truncation": [taxonomy.truncation(all_columns, rate, min_keep=1)],
        "value_swap": [taxonomy.value_swap(all_columns, rate)],
        "missing": [taxonomy.missing(texty, rate)],
    }
    if clean.n_cols >= 2:
        specs["correlated"] = [taxonomy.correlated(all_columns[:2], rate)]
    return specs


@dataclass(frozen=True)
class FamilyCell:
    """One (family, system) entry of the matrix."""

    family: str
    system: str
    result: ExperimentResult
    n_errors: int
    error_rate: float

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {"family": self.family,
                                  "system": self.system,
                                  "n_errors": self.n_errors,
                                  "error_rate": round(self.error_rate, 4)}
        row.update({k: round(v, 4) for k, v in self.result.as_row().items()})
        return row


@dataclass(frozen=True)
class FamilyMatrix:
    """The full per-family comparison."""

    cells: tuple[FamilyCell, ...]
    families: tuple[str, ...]
    systems: tuple[str, ...]
    seed: int
    rate: float

    def cell(self, family: str, system: str) -> FamilyCell:
        for entry in self.cells:
            if entry.family == family and entry.system == system:
                return entry
        raise ExperimentError(f"no matrix cell ({family}, {system})")

    def as_rows(self) -> list[dict[str, object]]:
        return [cell.as_row() for cell in self.cells]


def run_family_matrix(clean: Table, *, systems: tuple[str, ...] = ("etsb",),
                      families: tuple[str, ...] | None = None,
                      rate: float = 0.1, n_runs: int = 2,
                      n_label_tuples: int = 20, epochs: int = 30,
                      seed: int = 0) -> FamilyMatrix:
    """Inject each family alone and evaluate every system on it.

    ``systems`` are registry names (``"tsb"``/``"etsb"``/``"attn"``,
    ``"raha"``, ``"augment"``, or ``"ensemble"`` for the calibrated
    fusion of the default members), each choosing its own labelled
    tuples per seed.  Each family's pair is built deterministically from
    ``(clean, rate, seed)``, so the matrix is reproducible run to run.
    """
    specs_by_family = default_family_specs(clean, rate=rate)
    if families is not None:
        unknown = [f for f in families if f not in specs_by_family]
        if unknown:
            raise ExperimentError(
                f"unknown families {unknown}; known: "
                f"{sorted(specs_by_family)}")
        specs_by_family = {f: specs_by_family[f] for f in families}
    pairs = {family: taxonomy.pair_from_taxonomy(
                 f"taxonomy-{family}", clean, specs, seed=seed)
             for family, specs in specs_by_family.items()}
    results = run_grid(
        {system: detector_config(system, n_label_tuples, {"epochs": epochs})
         for system in systems},
        list(pairs.values()), n_runs, base_seed=seed)
    cells = [FamilyCell(family=family, system=system,
                        result=results[system, pair.name],
                        n_errors=len(pair.errors),
                        error_rate=pair.measured_error_rate())
             for family, pair in pairs.items() for system in systems]
    return FamilyMatrix(cells=tuple(cells),
                        families=tuple(specs_by_family),
                        systems=tuple(systems), seed=seed, rate=rate)


def render_family_matrix(matrix: FamilyMatrix) -> str:
    """Fixed-width text table: one row per (family, system)."""
    header = (f"{'family':<16} {'system':<8} {'errors':>6} "
              f"{'P':>6} {'R':>6} {'F1':>6} {'F1 sd':>6}")
    lines = [header, "-" * len(header)]
    for cell in matrix.cells:
        row = cell.result.as_row()
        lines.append(
            f"{cell.family:<16} {cell.system:<8} {cell.n_errors:>6} "
            f"{row['P']:>6.3f} {row['R']:>6.3f} {row['F1']:>6.3f} "
            f"{row['F1_sd']:>6.3f}")
    return "\n".join(lines)


def save_family_matrix(matrix: FamilyMatrix, path: str | Path,
                       settings: dict[str, object] | None = None) -> None:
    """Write the matrix (plus run settings) as a JSON benchmark record."""
    payload = {
        "benchmark": "error_families",
        "seed": matrix.seed,
        "rate": matrix.rate,
        "families": list(matrix.families),
        "systems": list(matrix.systems),
        "settings": settings or {},
        "rows": matrix.as_rows(),
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
