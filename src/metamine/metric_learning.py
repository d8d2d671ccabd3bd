"""The four bilinear metric-learning objectives, their analytic gradients,
and a deterministic backtracking gradient-descent trainer.

All objectives are parametrized by two projections U (d x t) and V (l x t):

  f1: || S_X - X U U' X' ||_F^2 + mu1 ||U||_F^2          (dataset metric)
  f2: || S_A - A V V' A' ||_F^2 + mu2 ||V||_F^2          (workflow metric)
  f3: || R - X U V' A' ||_F^2 + mu1 ||U||^2 + mu2 ||V||^2
  f4: alpha*fit(f1) + beta*fit(f2) + gamma*fit(f3) + mu1 ||U||^2 + mu2 ||V||^2

where S_X / S_A are rank-correlation similarity targets over the rows /
columns of the preference matrix R, and X, A are the standardized
descriptor tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .data_model import (DescriptorTable, HyperParams, InitScheme,
                         ModelParams, PreferenceMatrix, numeric_rank,
                         standardize)
from .preference import SimilarityAxis, similarity_target

ARMIJO_ACCEPT = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60


class ObjectiveKind(str, Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"


class StopReason(str, Enum):
    REL_TOL = "rel_tol"
    MAX_ITERS = "max_iters"
    LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass(frozen=True)
class Objective:
    """Precomputed inputs of one training problem: standardized feature
    matrices plus whichever targets the objective kind needs."""

    kind: ObjectiveKind
    x: np.ndarray                       # n x d, standardized
    a: np.ndarray                       # m x l, standardized
    s_x: Optional[np.ndarray] = None    # n x n dataset similarity target
    s_a: Optional[np.ndarray] = None    # m x m workflow similarity target
    r: Optional[np.ndarray] = None      # n x m preference / score target

    def __post_init__(self):
        need = {
            ObjectiveKind.F1: ("s_x",),
            ObjectiveKind.F2: ("s_a",),
            ObjectiveKind.F3: ("r",),
            ObjectiveKind.F4: ("s_x", "s_a", "r"),
        }[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise ValueError(f"objective {self.kind.value} requires {name}")


@dataclass
class TrainTrace:
    objective_values: list
    step_sizes: list
    gradient_norms: list
    reason: StopReason

    @property
    def iterations(self):
        return len(self.step_sizes)


def _fit1(x, s_x, u):
    e = s_x - x @ u @ u.T @ x.T
    return float(np.sum(e * e))


def _fit2(a, s_a, v):
    e = s_a - a @ v @ v.T @ a.T
    return float(np.sum(e * e))


def _fit3(x, a, r, u, v):
    e = r - x @ u @ v.T @ a.T
    return float(np.sum(e * e))


def _sq(m):
    return float(np.sum(m * m))


def objective_value(obj: Objective, u: np.ndarray, v: np.ndarray,
                    hyper: HyperParams) -> float:
    k = obj.kind
    if k is ObjectiveKind.F1:
        return _fit1(obj.x, obj.s_x, u) + hyper.mu1 * _sq(u)
    if k is ObjectiveKind.F2:
        return _fit2(obj.a, obj.s_a, v) + hyper.mu2 * _sq(v)
    if k is ObjectiveKind.F3:
        return (_fit3(obj.x, obj.a, obj.r, u, v)
                + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v))
    # f4: the three data-fit terms weighted, regularizers applied once
    return (hyper.alpha * _fit1(obj.x, obj.s_x, u)
            + hyper.beta * _fit2(obj.a, obj.s_a, v)
            + hyper.gamma * _fit3(obj.x, obj.a, obj.r, u, v)
            + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v))


def _grad_fit1(x, s_x, u):
    e = s_x - x @ u @ u.T @ x.T
    return -4.0 * x.T @ e @ x @ u


def _grad_fit2(a, s_a, v):
    e = s_a - a @ v @ v.T @ a.T
    return -4.0 * a.T @ e @ a @ v


def _grad_fit3(x, a, r, u, v):
    e = r - x @ u @ v.T @ a.T
    gu = -2.0 * x.T @ e @ a @ v
    gv = -2.0 * a.T @ e.T @ x @ u
    return gu, gv


def gradient(obj: Objective, u: np.ndarray, v: np.ndarray,
             hyper: HyperParams):
    """Analytic gradients (gU, gV) of objective_value."""
    k = obj.kind
    if k is ObjectiveKind.F1:
        return _grad_fit1(obj.x, obj.s_x, u) + 2.0 * hyper.mu1 * u, np.zeros_like(v)
    if k is ObjectiveKind.F2:
        return np.zeros_like(u), _grad_fit2(obj.a, obj.s_a, v) + 2.0 * hyper.mu2 * v
    if k is ObjectiveKind.F3:
        gu, gv = _grad_fit3(obj.x, obj.a, obj.r, u, v)
        return gu + 2.0 * hyper.mu1 * u, gv + 2.0 * hyper.mu2 * v
    gu3, gv3 = _grad_fit3(obj.x, obj.a, obj.r, u, v)
    gu = (hyper.alpha * _grad_fit1(obj.x, obj.s_x, u)
          + hyper.gamma * gu3 + 2.0 * hyper.mu1 * u)
    gv = (hyper.beta * _grad_fit2(obj.a, obj.s_a, v)
          + hyper.gamma * gv3 + 2.0 * hyper.mu2 * v)
    return gu, gv


def _svd_warm_start(obj: Objective, t: int):
    """Closed-form starting point from a truncated factorization of the
    objective's main target, mapped back through pseudo-inverses."""
    x_pinv = np.linalg.pinv(obj.x)
    a_pinv = np.linalg.pinv(obj.a)
    d, l = obj.x.shape[1], obj.a.shape[1]
    u = np.zeros((d, t))
    v = np.zeros((l, t))
    if obj.kind in (ObjectiveKind.F3, ObjectiveKind.F4):
        m = x_pinv @ obj.r @ a_pinv.T          # d x l
        p, s, qt = np.linalg.svd(m, full_matrices=False)
        k = min(t, s.size)
        root = np.sqrt(s[:k])
        u[:, :k] = p[:, :k] * root
        v[:, :k] = qt[:k].T * root
        return u, v
    # f1 / f2: the top eigenpairs of the dataset / workflow metric target
    if obj.kind is ObjectiveKind.F1:
        pinv, target, out = x_pinv, obj.s_x, u
    else:
        pinv, target, out = a_pinv, obj.s_a, v
    w = pinv @ target @ pinv.T                 # d x d or l x l, symmetric
    w = 0.5 * (w + w.T)
    vals, vecs = np.linalg.eigh(w)
    order = np.argsort(vals)[::-1]
    k = min(t, out.shape[0])
    top = np.clip(vals[order[:k]], 0.0, None)
    out[:, :k] = vecs[:, order[:k]] * np.sqrt(top)
    return u, v


def initialize(obj: Objective, t: int, hyper: HyperParams):
    if hyper.init is InitScheme.SVD_WARM_START:
        return _svd_warm_start(obj, t)
    rng = np.random.default_rng(hyper.seed)
    d, l = obj.x.shape[1], obj.a.shape[1]
    u = rng.standard_normal((d, t)) / np.sqrt(t)
    v = rng.standard_normal((l, t)) / np.sqrt(t)
    return u, v


def minimize(obj: Objective, u0: np.ndarray, v0: np.ndarray,
             hyper: HyperParams):
    """Gradient descent with Armijo backtracking on the stacked (U, V).

    The accepted objective sequence is non-increasing by construction.
    Returns (u, v, TrainTrace).
    """
    u, v = u0.copy(), v0.copy()
    f = objective_value(obj, u, v, hyper)
    values = [f]
    steps = []
    grad_norms = []
    step = 1.0
    reason = StopReason.MAX_ITERS
    for _ in range(hyper.max_iters):
        gu, gv = gradient(obj, u, v, hyper)
        g_sq = _sq(gu) + _sq(gv)
        grad_norms.append(float(np.sqrt(g_sq)))
        if g_sq == 0.0:
            reason = StopReason.REL_TOL
            break
        # try growing the last accepted step before backtracking
        s = step * 2.0
        accepted = False
        for _bt in range(MAX_BACKTRACKS):
            f_new = objective_value(obj, u - s * gu, v - s * gv, hyper)
            if f_new <= f - ARMIJO_ACCEPT * s * g_sq:
                accepted = True
                break
            s *= ARMIJO_SHRINK
        if not accepted:
            reason = StopReason.LINE_SEARCH_FAILURE
            grad_norms.pop()
            break
        u -= s * gu
        v -= s * gv
        step = s
        steps.append(s)
        values.append(f_new)
        decrease = (f - f_new) / max(abs(f), np.finfo(float).tiny)
        f = f_new
        if decrease < hyper.rel_tol:
            reason = StopReason.REL_TOL
            break
    trace = TrainTrace(objective_values=values, step_sizes=steps,
                       gradient_norms=grad_norms, reason=reason)
    return u, v, trace


def build_objective(kind: ObjectiveKind, x_std: np.ndarray, a_std: np.ndarray,
                    r: PreferenceMatrix, fit_matrix=None) -> Objective:
    """Assemble an Objective from standardized features and the preference
    matrix, computing the rank-correlation targets the kind requires.

    fit_matrix optionally replaces R's scores as the heterogeneous target
    (e.g. a latent score matrix from the synthetic generator).
    """
    s_x = s_a = r_mat = None
    if kind in (ObjectiveKind.F1, ObjectiveKind.F4):
        s_x = similarity_target(r, SimilarityAxis.DATASETS).matrix
    if kind in (ObjectiveKind.F2, ObjectiveKind.F4):
        s_a = similarity_target(r, SimilarityAxis.WORKFLOWS).matrix
    if kind in (ObjectiveKind.F3, ObjectiveKind.F4):
        r_mat = r.scores if fit_matrix is None else np.asarray(fit_matrix, dtype=float)
    return Objective(kind=kind, x=x_std, a=a_std, s_x=s_x, s_a=s_a, r=r_mat)


def train(kind: ObjectiveKind, x: DescriptorTable, a: DescriptorTable,
          r: PreferenceMatrix, hyper: HyperParams, fit_matrix=None):
    """Full training pipeline: standardize, pick t, initialize, descend.

    Returns (ModelParams, TrainTrace). Deterministic for a fixed hyper
    (including seed). max_iters=0 returns the initialization unchanged.
    """
    x_std_table, x_record = standardize(x)
    a_std_table, a_record = standardize(a)
    x_std = x_std_table.features
    a_std = a_std_table.features
    t = hyper.t
    if t is None:
        t = max(1, min(numeric_rank(x_std), numeric_rank(a_std)))
    obj = build_objective(kind, x_std, a_std, r, fit_matrix=fit_matrix)
    u0, v0 = initialize(obj, t, hyper)
    u, v, trace = minimize(obj, u0, v0, hyper)
    params = ModelParams(u=u, v=v, t=t, hyper=hyper,
                         x_standardization=x_record,
                         a_standardization=a_record,
                         objective=kind.value,
                         x_feature_names=x.feature_names,
                         a_feature_names=a.feature_names)
    return params, trace
