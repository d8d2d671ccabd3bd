"""Synthetic meta-mining problem generator with known latent bilinear
structure, so recovery and cold-start claims are testable at desk scale."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .data_model import (DescriptorTable, IngestError, PerformanceMatrix,
                         PreferenceMatrix, _store)
from .preference import (OutcomeCube, build_preference_from_significance,
                         build_preference_matrix)

PERF_LOW = 0.5
PERF_HIGH = 0.95
TIE_EPS = 0.01


class SynthMode(str, Enum):
    EXACT_BILINEAR = "exact"
    NOISY_BILINEAR = "noisy"
    OUTCOME_LEVEL = "outcome"


@dataclass(frozen=True)
class SynthConfig:
    n: int = 30
    m: int = 12
    d: int = 10
    l: int = 8
    latent_t: int = 3
    noise_sigma: float = 0.0
    seed: int = 0
    mode: SynthMode = SynthMode.EXACT_BILINEAR
    instances_per_dataset: int = 200   # outcome-level mode only

    def __post_init__(self):
        _store(self, mode=SynthMode)
        if min(self.n, self.m, self.d, self.l) < 3:
            raise IngestError("all sizes must be at least 3")
        if not 1 <= self.latent_t <= min(self.d, self.l):
            raise IngestError("latent_t must be in [1, min(d, l)]")
        if not 0 <= self.noise_sigma < np.inf:  # nan fails too
            raise IngestError("noise_sigma must be finite and nonnegative")
        if self.seed < 0:
            raise IngestError("seed must be nonnegative")
        if self.mode is SynthMode.EXACT_BILINEAR and self.noise_sigma > 0:
            raise IngestError("noise_sigma applies to the noisy and outcome modes only")
        if self.mode is SynthMode.OUTCOME_LEVEL and self.instances_per_dataset < 1:
            raise IngestError("outcome-level mode needs at least one instance per dataset")


@dataclass(frozen=True)
class SynthResult:
    x: DescriptorTable
    a: DescriptorTable
    performance: PerformanceMatrix
    preferences: PreferenceMatrix
    u_true: np.ndarray
    v_true: np.ndarray
    scores: np.ndarray       # latent bilinear scores (noise included if any)
    cube: Optional[OutcomeCube] = None


def _squash_rows(s):
    """Rank-preserving per-row affine map into [PERF_LOW, PERF_HIGH]."""
    lo = s.min(axis=1, keepdims=True)
    hi = s.max(axis=1, keepdims=True)
    span = hi - lo
    mid = (PERF_LOW + PERF_HIGH) / 2.0
    out = np.full_like(s, mid)
    ok = (span > 0).ravel()
    out[ok] = PERF_LOW + (PERF_HIGH - PERF_LOW) * (s[ok] - lo[ok]) / span[ok]
    return out


def _compare_preferences(perf, dataset_ids, workflow_ids):
    """Deterministic pairwise comparison of performances: workflow k beats
    l when it performs better by more than TIE_EPS; closer pairs tie."""
    # one dataset at a time: the whole n x m x m float difference would
    # hold 8 n m^2 bytes where the boolean stack needs n m^2
    wins = np.array([row[:, None] - row > TIE_EPS for row in perf])
    return build_preference_from_significance(dataset_ids, workflow_ids, wins)


def generate(config: SynthConfig) -> SynthResult:
    """Draw a synthetic problem. ExactBilinear: preferences follow the
    latent scores exactly. NoisyBilinear: Gaussian noise (scaled by the
    latent score std) is added before squashing. OutcomeLevel: per-instance
    correctness is sampled with per-workflow accuracy equal to the
    performance entry, exercising the McNemar scoring path end to end."""
    rng = np.random.default_rng(config.seed)
    n, m, d, l, t = config.n, config.m, config.d, config.l, config.latent_t

    x_feat = rng.standard_normal((n, d))
    a_feat = rng.standard_normal((m, l))
    u_true = rng.standard_normal((d, t)) / np.sqrt(t)
    v_true = rng.standard_normal((l, t)) / np.sqrt(t)
    scores = x_feat @ u_true @ v_true.T @ a_feat.T
    if config.noise_sigma > 0:
        scores = scores + config.noise_sigma * scores.std() * rng.standard_normal((n, m))

    dataset_ids = tuple(f"ds{i:03d}" for i in range(n))
    workflow_ids = tuple(f"wf{j:03d}" for j in range(m))
    perf_values = _squash_rows(scores)

    x = DescriptorTable(entity_ids=dataset_ids, features=x_feat,
                        feature_names=tuple(f"feat{k:03d}" for k in range(d)))
    a = DescriptorTable(entity_ids=workflow_ids, features=a_feat,
                        feature_names=tuple(f"pat{k:03d}" for k in range(l)))
    perf = PerformanceMatrix(dataset_ids=dataset_ids, workflow_ids=workflow_ids,
                             values=perf_values)

    cube = None
    if config.mode is SynthMode.OUTCOME_LEVEL:
        # C order: dataset i gets the draw a loop of per-dataset draws gives it
        correct = (rng.random((n, config.instances_per_dataset, m))
                   < perf_values[:, None])
        cube = OutcomeCube(dataset_ids=dataset_ids, workflow_ids=workflow_ids,
                           matrices=tuple(correct))
        prefs = build_preference_matrix(cube)
    else:
        prefs = _compare_preferences(perf_values, dataset_ids, workflow_ids)

    return SynthResult(x=x, a=a, performance=perf, preferences=prefs,
                       u_true=u_true, v_true=v_true, scores=scores, cube=cube)


def centered_scores(result: SynthResult) -> np.ndarray:
    """Doubly-centered latent scores: the component of the score matrix
    expressible as a bilinear form in the standardized descriptors. This is
    the exact-recovery target for heterogeneous training on synthetic data."""
    s = result.scores
    return s - s.mean(axis=0, keepdims=True) - s.mean(axis=1, keepdims=True) + s.mean()
