"""Every measured figure README and DESIGN quote matches its results file.

A number in the docs must come from a command and a results file.  Each
case below rebuilds the quoted sentence from the file that records the
measurement, so regenerating a benchmark without updating the prose
fails here; EXPERIMENTS.md must be exactly the report rendered from the
results directory.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.report import generate_report

ROOT = Path(__file__).parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def _record(name: str) -> dict:
    return json.loads((RESULTS / name).read_text(encoding="utf-8"))


def _prose(doc: str) -> str:
    """The document with every run of whitespace (line wraps) as one space."""
    return " ".join((ROOT / doc).read_text(encoding="utf-8").split())


def _about(value: float) -> str:
    """Two decimals, marked ``~`` where the rounding changed the value."""
    text = f"{value:.2f}"
    return text if float(text) == value else f"~{text}"


def _quotes() -> list[tuple[str, str]]:
    ensemble = _record("BENCH_ensemble.json")
    dedup = _record("BENCH_dedup_infer.json")["backends"]["fused"]
    serve = _record("BENCH_serve.json")
    update = serve["incremental_update"]
    wins = f"{ensemble['wins']}/{ensemble['n_datasets']}"
    dedup_x = f"{dedup['median_speedup']:.2f}×"
    batch_x = f"{serve['throughput']['median_speedup']:.2f}×"
    one_cell = (f"{update['network_rows_for_one_update']}/"
                f"{update['n_feature_rows']}")
    f1 = {row["family"]: _about(row["F1"])
          for row in _record("BENCH_error_families.json")["rows"]
          if row["system"] == "etsb"}
    families = (
        f"character-visible families (missing {f1['missing']}, format "
        f"drift {f1['format_drift']}, truncation {f1['truncation']}) vs "
        f"cross-cell families (value swaps {f1['value_swap']}, correlated "
        f"{f1['correlated']}) for ETSB-RNN")
    return [
        ("README.md", f"beating the best member (measured {wins})"),
        ("README.md", f"(measured {dedup_x} on the fused backend"),
        ("DESIGN.md", f"measured median is {dedup_x} on the fused backend"),
        ("README.md", f"per-request baseline (measured {batch_x})"),
        ("DESIGN.md", f"per-request baseline (measured {batch_x},"),
        ("README.md", f"feature rows (measured {one_cell},"),
        ("DESIGN.md", f"feature rows (measured {one_cell},"),
        ("DESIGN.md", families),
    ]


@pytest.mark.parametrize("doc, quote", _quotes())
def test_quoted_figure_matches_results_file(doc, quote):
    assert quote in _prose(doc), (
        f"{doc} no longer says {quote!r}; update the prose from "
        f"benchmarks/results/ (or re-run the benchmark that writes it)")


def test_experiments_report_is_rendered_from_results():
    """EXPERIMENTS.md is ``make report``'s output, byte for byte."""
    assert (ROOT / "EXPERIMENTS.md").read_bytes() == \
        generate_report(RESULTS).encode("utf-8"), (
            "EXPERIMENTS.md differs from the report rendered from "
            "benchmarks/results/; re-run `make report`")
