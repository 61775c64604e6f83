"""Calibrated score fusion over registry detectors.

:class:`EnsembleDetector` runs any set of registered members over the
same labelled-tuples budget, maps each member's scores onto a common
probability scale with a per-member calibrator
(:mod:`repro.detectors.calibration`) fitted by two-fold cross-fitting on
the labelled rows, and fuses by averaging the calibrated scores.  The
cross-fit keeps calibration honest (no member is calibrated on cells it
trained on) while the *final* members are fitted on the full labelled
budget -- so a single-member ensemble degenerates to the bare detector,
byte for byte.

Out-of-fold F1 also arbitrates *whether* fusion helps: if a lone
calibrated or raw member beats the fused mean on the held-out cells, the
ensemble serves that member instead (ties prefer fusion, then
calibration).  Fusion itself is canonicalised by member fingerprint, so
the fused scores are bitwise invariant to the order members were listed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import forkpool
from repro.dataprep import prepare
from repro.datasets.base import DatasetPair
from repro.detectors.base import POINTWISE, TRANSDUCTIVE, Detector
from repro.detectors.calibration import IdentityCalibrator, fit_calibrator
from repro.detectors.registry import build, get, register
from repro.errors import ConfigurationError, NotFittedError
from repro.metrics import ClassificationReport
from repro.sampling import DiverSet
from repro.table import Table

MemberSpec = tuple[str, dict]


def _normalise_specs(members) -> tuple[MemberSpec, ...]:
    if not members:
        raise ConfigurationError("an ensemble needs at least one member")
    specs: list[MemberSpec] = []
    for entry in members:
        if isinstance(entry, str):
            specs.append((entry, {}))
        else:
            name, config = entry
            specs.append((str(name), dict(config)))
    for name, _ in specs:
        get(name)  # raises on unknown members at construction time
    return tuple(specs)


def _fold_fit_scores(spec: MemberSpec, pair: DatasetPair,
                     fit_rows: list[int]) -> np.ndarray:
    """Fit one member copy on a fold and score the dirty table.

    The copy is rebuilt from the spec wherever this runs (a forked
    worker or inline), so nothing fitted crosses a process boundary.
    """
    member = build(spec[0], **spec[1])
    member.fit(pair, labeled_rows=fit_rows)
    return member.score_cells(pair.dirty)


def _f1(labels: np.ndarray, scores: np.ndarray) -> float:
    predictions = (scores >= 0.5).astype(np.int64)
    return ClassificationReport.from_predictions(labels, predictions).f1


@register
class EnsembleDetector(Detector):
    """Fuse registered detectors with cross-fit calibrated averaging.

    Parameters
    ----------
    members:
        Member specs: registry names, or ``(name, config_dict)`` pairs.
    n_label_tuples:
        Labelled budget when ``fit`` picks its own rows (DiverSet).
    seed:
        Seeds DiverSet and every member whose spec sets no ``seed``.

    The cross-fit member fits run in forked workers, one per CPU the
    process may use (:func:`repro.forkpool.fork_map`), or inline on one
    CPU or while other threads are alive; the results are identical.
    """

    name = "ensemble"
    capabilities = frozenset({POINTWISE})

    def __init__(self, members=("etsb", "raha"), n_label_tuples: int = 20,
                 seed: int = 0):
        self._specs = _normalise_specs(members)
        self.n_label_tuples = n_label_tuples
        self.seed = seed
        self.capabilities = frozenset(
            {TRANSDUCTIVE} if any(TRANSDUCTIVE in get(name).capabilities
                                  for name, _ in self._specs)
            else {POINTWISE})
        self._members: list[Detector] | None = None
        self._calibrators: list = []
        self._mode: tuple | None = None
        self._order: list[int] = []

    # -- fitting ------------------------------------------------------------

    def _seeded(self, spec: MemberSpec) -> MemberSpec:
        """``spec`` with the ensemble's seed, unless the spec sets one."""
        name, config = spec
        return name, {"seed": self.seed, **config}

    def _cross_fit_scores(self, pair: DatasetPair,
                          folds: tuple[list[int], list[int]]) -> list[np.ndarray]:
        """Per-member full-table score grids, one per (member, fold)."""
        tasks = [(self._seeded(spec), fit_rows) for spec in self._specs
                 for fit_rows in folds]
        return list(forkpool.fork_map(
            lambda task: _fold_fit_scores(task[0], pair, task[1]), tasks,
            forkpool.cpu_count()))

    def fit(self, pair: DatasetPair,
            labeled_rows: list[int] | None = None) -> "EnsembleDetector":
        if labeled_rows is None:
            prepared = prepare(pair.dirty, pair.clean)
            rng = np.random.default_rng(self.seed)
            labeled_rows = DiverSet().select(self.n_label_tuples, prepared,
                                             rng)
        labeled_rows = [int(t) for t in labeled_rows]
        self.labeled_rows = tuple(labeled_rows)

        if len(self._specs) == 1:
            # Degenerate ensemble: serve the bare member, byte for byte.
            name, config = self._seeded(self._specs[0])
            member = build(name, **config)
            member.fit(pair, labeled_rows=labeled_rows)
            self._members = [member]
            self._calibrators = [IdentityCalibrator()]
            self._mode = ("identity",)
            self._order = [0]
            return self

        if len(labeled_rows) < 2:
            raise ConfigurationError(
                "cross-fit calibration needs at least 2 labelled tuples, "
                f"got {len(labeled_rows)}")
        folds = (labeled_rows[0::2], labeled_rows[1::2])
        mask = np.array(pair.error_mask())

        grids = self._cross_fit_scores(pair, folds)
        # Out-of-fold cells: fold A's model is judged on fold B's rows.
        eval_rows = np.array(folds[1] + folds[0], dtype=np.int64)
        oof_labels = mask[eval_rows].reshape(-1).astype(np.int64)
        oof_scores = []
        for m in range(len(self._specs)):
            fit_a, fit_b = grids[2 * m], grids[2 * m + 1]
            oof = np.concatenate([fit_a[folds[1]].reshape(-1),
                                  fit_b[folds[0]].reshape(-1)])
            oof_scores.append(oof)

        self._calibrators = [fit_calibrator(s, oof_labels) for s in oof_scores]
        calibrated = [c.transform(s)
                      for c, s in zip(self._calibrators, oof_scores)]
        fused = sum(calibrated) / len(calibrated)

        self._members = []
        for name, config in map(self._seeded, self._specs):
            member = build(name, **config)
            member.fit(pair, labeled_rows=labeled_rows)
            self._members.append(member)
        fingerprints = [m.fingerprint() for m in self._members]
        self._order = sorted(range(len(self._members)),
                             key=lambda i: fingerprints[i])

        # Candidate arbitration on out-of-fold F1; ties prefer fusion,
        # then the calibrated form of a member, then fingerprint order --
        # every key is invariant to the order members were listed.
        candidates: list[tuple[float, int, str, tuple]] = [
            (_f1(oof_labels, fused), 0, "", ("fused",))]
        for m in range(len(self._specs)):
            candidates.append((_f1(oof_labels, calibrated[m]), 1,
                               fingerprints[m], ("member", m, "calibrated")))
            candidates.append((_f1(oof_labels, oof_scores[m]), 2,
                               fingerprints[m], ("member", m, "raw")))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        self._mode = candidates[0][3]
        return self

    # -- scoring ------------------------------------------------------------

    def score_cells(self, table: Table) -> np.ndarray:
        if self._members is None or self._mode is None:
            raise NotFittedError("ensemble: fit() has not been called")
        kind = self._mode[0]
        if kind == "identity":
            return self._members[0].score_cells(table)
        if kind == "member":
            _, index, form = self._mode
            scores = self._members[index].score_cells(table)
            if form == "raw":
                return np.clip(scores, 0.0, 1.0)
            return self._calibrators[index].transform(scores)
        # Fused: sum in fingerprint order so the float accumulation is
        # bitwise invariant to the order members were listed.
        total: np.ndarray | None = None
        for i in self._order:
            scores = self._calibrators[i].transform(
                self._members[i].score_cells(table))
            total = scores if total is None else total + scores
        assert total is not None
        return total / len(self._members)

    # -- identity -----------------------------------------------------------

    def config(self) -> dict:
        return {
            "members": [[name, dict(config)] for name, config in self._specs],
            "n_label_tuples": self.n_label_tuples,
            "seed": self.seed,
        }

    def _state_digest(self) -> str | None:
        if self._members is None:
            return None
        payload = {
            "mode": list(self._mode or ()),
            "members": [m.fingerprint() for m in self._members],
            "calibrators": [c.state() for c in self._calibrators],
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def example(cls, seed: int = 0) -> "EnsembleDetector":
        return cls(members=[("etsb", get("etsb").example(seed).config()),
                            ("raha", get("raha").example(seed).config())],
                   n_label_tuples=6, seed=seed)
