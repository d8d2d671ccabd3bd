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
from functools import cached_property
from typing import Optional

import numpy as np

from .data_model import (DescriptorTable, HyperParams, InitScheme,
                         ModelParams, PreferenceMatrix, numeric_rank,
                         standardize)
from .preference import SimilarityAxis, similarity_target

ARMIJO_ACCEPT = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
_TINY = np.finfo(float).tiny


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

    @cached_property
    def reduced(self) -> ReducedObjective:
        """The QR-reduced form, computed on first use."""
        return _reduce(self)


@dataclass
class TrainTrace:
    objective_values: list
    step_sizes: list
    gradient_norms: list
    reason: StopReason

    @property
    def iterations(self):
        return len(self.step_sizes)


def _sq(m):
    # vdot skips the Python-level reduction wrapper of np.sum
    return float(np.vdot(m, m))


def _project(q_left, target, q_right):
    """The small target Q_l' T Q_r and the squared norm of what the
    projection drops, ||T - Q_l (Q_l' T Q_r) Q_r'||^2. The norm is taken
    of the direct residual, not as ||T||^2 - ||Q_l' T Q_r||^2, so it stays
    >= 0 and keeps its precision near 0. (None, 0.0) for no target."""
    if target is None:
        return None, 0.0
    small = q_left.T @ target @ q_right
    return small, _sq(target - q_left @ small @ q_right.T)


@dataclass(frozen=True)
class ReducedObjective:
    """An Objective in the space of the thin QRs X = Q_x R_x, A = Q_a R_a.

    Each fit term splits into a constant plus a small residual, e.g.
    ||R - X U V' A'||^2 = c_r + ||Q_x' R Q_a - R_x U V' R_a'||^2, so one
    evaluation costs O((d + l)^2 t) whatever n and m are. Targets the
    objective kind lacks stay None."""

    rx: np.ndarray                      # min(n, d) x d
    ra: np.ndarray                      # min(m, l) x l
    s_x: Optional[np.ndarray]           # Q_x' S_X Q_x
    s_a: Optional[np.ndarray]           # Q_a' S_A Q_a
    r: Optional[np.ndarray]             # Q_x' R Q_a
    c_x: float                          # the constants dropped by each
    c_a: float                          # projection, all >= 0
    c_r: float


def _reduce(obj: Objective) -> ReducedObjective:
    # numpy's reduced QR gives Q n x min(n, d), also when n < d
    qx, rx = np.linalg.qr(obj.x)
    qa, ra = np.linalg.qr(obj.a)
    s_x, c_x = _project(qx, obj.s_x, qx)
    s_a, c_a = _project(qa, obj.s_a, qa)
    r, c_r = _project(qx, obj.r, qa)
    return ReducedObjective(rx=rx, ra=ra, s_x=s_x, s_a=s_a, r=r,
                            c_x=c_x, c_a=c_a, c_r=c_r)


def _residuals(red: ReducedObjective, u: np.ndarray, v: np.ndarray):
    """P = R_x U, W = R_a V and the small residuals E1 = S~_X - P P',
    E2 = S~_A - W W', E3 = R~ - P W' (None where the target is)."""
    p = red.rx @ u
    w = red.ra @ v
    e1 = None if red.s_x is None else red.s_x - p @ p.T
    e2 = None if red.s_a is None else red.s_a - w @ w.T
    e3 = None if red.r is None else red.r - p @ w.T
    return p, w, e1, e2, e3


def objective_value(obj: Objective, u: np.ndarray, v: np.ndarray,
                    hyper: HyperParams) -> float:
    red = obj.reduced
    _, _, e1, e2, e3 = _residuals(red, u, v)
    k = obj.kind
    if k is ObjectiveKind.F1:
        return red.c_x + _sq(e1) + hyper.mu1 * _sq(u)
    if k is ObjectiveKind.F2:
        return red.c_a + _sq(e2) + hyper.mu2 * _sq(v)
    if k is ObjectiveKind.F3:
        return red.c_r + _sq(e3) + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v)
    # f4: the three data-fit terms weighted, regularizers applied once
    return (hyper.alpha * (red.c_x + _sq(e1))
            + hyper.beta * (red.c_a + _sq(e2))
            + hyper.gamma * (red.c_r + _sq(e3))
            + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v))


def gradient(obj: Objective, u: np.ndarray, v: np.ndarray,
             hyper: HyperParams):
    """Analytic gradients (gU, gV) of objective_value: the gradients in
    P and W mapped back through R_x' and R_a'."""
    red = obj.reduced
    p, w, e1, e2, e3 = _residuals(red, u, v)
    k = obj.kind
    if k is ObjectiveKind.F1:
        return red.rx.T @ (-4.0 * (e1 @ p)) + 2.0 * hyper.mu1 * u, np.zeros_like(v)
    if k is ObjectiveKind.F2:
        return np.zeros_like(u), red.ra.T @ (-4.0 * (e2 @ w)) + 2.0 * hyper.mu2 * v
    if k is ObjectiveKind.F3:
        return (red.rx.T @ (-2.0 * (e3 @ w)) + 2.0 * hyper.mu1 * u,
                red.ra.T @ (-2.0 * (e3.T @ p)) + 2.0 * hyper.mu2 * v)
    gp = -4.0 * hyper.alpha * (e1 @ p) - 2.0 * hyper.gamma * (e3 @ w)
    gw = -4.0 * hyper.beta * (e2 @ w) - 2.0 * hyper.gamma * (e3.T @ p)
    return (red.rx.T @ gp + 2.0 * hyper.mu1 * u,
            red.ra.T @ gw + 2.0 * hyper.mu2 * v)


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
        decrease = (f - f_new) / max(abs(f), _TINY)
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
