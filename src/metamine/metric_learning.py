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

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .data_model import (DescriptorTable, HyperParams, IngestError,
                         InitScheme, ModelParams, PreferenceMatrix, _store,
                         standardize_stack)
from .preference import similarity_stack

ARMIJO_ACCEPT = 1e-4
ARMIJO_SHRINK = 0.5
MAX_BACKTRACKS = 60
_TINY = np.finfo(float).tiny
# the most similarity-target cells one set-up stack holds: unbounded, LODO
# 160 x 10 took peak RSS from 112 to 209 MB and ran slower; bounded, 118 MB
_TARGET_CELLS = 2 ** 18


class ObjectiveKind(str, Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"


class StopReason(str, Enum):
    REL_TOL = "rel_tol"
    MAX_ITERS = "max_iters"
    LINE_SEARCH_FAILURE = "line_search_failure"


# the fit terms each kind weighs, S_X's, S_A's and R's: also the targets
# (s_x, s_a, r) an Objective of the kind requires and build_objective sets
_TERMS = {ObjectiveKind.F1: (True, False, False),
          ObjectiveKind.F2: (False, True, False),
          ObjectiveKind.F3: (False, False, True),
          ObjectiveKind.F4: (True, True, True)}


@dataclass(frozen=True)
class Objective:
    """Precomputed inputs of one training problem: standardized feature
    matrices plus whichever targets the objective kind needs; a stack of
    k problems of one shape when every array has a leading axis k."""

    kind: ObjectiveKind
    x: np.ndarray                       # n x d, standardized
    a: np.ndarray                       # m x l, standardized
    s_x: Optional[np.ndarray] = None    # n x n dataset similarity target
    s_a: Optional[np.ndarray] = None    # m x m workflow similarity target
    r: Optional[np.ndarray] = None      # n x m preference / score target

    def __post_init__(self):
        _store(self, kind=ObjectiveKind)
        for name, fits in zip(("s_x", "s_a", "r"), _TERMS[self.kind]):
            if fits and getattr(self, name) is None:
                raise ValueError(f"objective {self.kind.value} requires {name}")

    @cached_property
    def reduced(self) -> ReducedObjective:
        """The QR-reduced form, a stack of one, computed on first use."""
        return _reduce(_each(lambda field: field[None], self))


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
    """The squared Frobenius norm of each matrix of a stack (k x r x c):
    one vecdot per flattened matrix, the dot that np.vdot takes."""
    flat = m.reshape(len(m), -1)
    return np.vecdot(flat, flat)


def _each(change, *stacks):
    """The first of `stacks`, Objectives or ReducedObjectives of one kind,
    with each array field set to change(that field of every stack)."""
    return replace(stacks[0], **{
        name: change(*(vars(stack)[name] for stack in stacks))
        for name, value in vars(stacks[0]).items() if isinstance(value, np.ndarray)})


def _project(q_left, target, q_right):
    """Per problem of a stack, the small target Q_l' T Q_r and the squared
    norm of what the projection drops, ||T - Q_l (Q_l' T Q_r) Q_r'||^2,
    taken of the direct residual, not as ||T||^2 - ||Q_l' T Q_r||^2, so it
    stays >= 0 and precise near 0. (None, None) for no target."""
    if target is None:
        return None, None
    small = q_left.mT @ target @ q_right
    return small, _sq(target - q_left @ small @ q_right.mT)


@dataclass(frozen=True)
class ReducedObjective:
    """An Objective in the space of the thin QRs X = Q_x R_x, A = Q_a R_a.

    Each fit term splits into a constant plus a small residual, e.g.
    ||R - X U V' A'||^2 = c_r + ||Q_x' R Q_a - R_x U V' R_a'||^2, so one
    evaluation costs O((d + l)^2 t) whatever n and m are. It is a stack
    of k problems of one kind and shape, each field with a leading axis k
    (the constants k-vectors), None for a target the kind lacks."""

    rx: np.ndarray                      # k x min(n, d) x d
    ra: np.ndarray                      # k x min(m, l) x l
    s_x: Optional[np.ndarray]           # Q_x' S_X Q_x
    s_a: Optional[np.ndarray]           # Q_a' S_A Q_a
    r: Optional[np.ndarray]             # Q_x' R Q_a
    c_x: Optional[np.ndarray]           # the constants dropped by each
    c_a: Optional[np.ndarray]           # projection, all >= 0
    c_r: Optional[np.ndarray]


def _reduce(obj: Objective) -> ReducedObjective:
    """The ReducedObjective stack of an Objective stack, of its kind's targets."""
    fx, fa, fr = _TERMS[obj.kind]
    # numpy's reduced QR gives Q n x min(n, d), also when n < d
    qx, rx = np.linalg.qr(obj.x)
    qa, ra = np.linalg.qr(obj.a)
    s_x, c_x = _project(qx, obj.s_x if fx else None, qx)
    s_a, c_a = _project(qa, obj.s_a if fa else None, qa)
    r, c_r = _project(qx, obj.r if fr else None, qa)
    return ReducedObjective(rx=rx, ra=ra, s_x=s_x, s_a=s_a, r=r,
                            c_x=c_x, c_a=c_a, c_r=c_r)


def _residuals(kind, red: ReducedObjective, u: np.ndarray, v: np.ndarray):
    """P = R_x U, W = R_a V and the small residuals E1 = S~_X - P P',
    E2 = S~_A - W W', E3 = R~ - P W' of each problem of a stack (None
    where the kind does not use them)."""
    fx, fa, fr = _TERMS[kind]
    p = red.rx @ u if fx or fr else None
    w = red.ra @ v if fa or fr else None
    e1 = red.s_x - p @ p.mT if fx else None
    e2 = red.s_a - w @ w.mT if fa else None
    e3 = red.r - p @ w.mT if fr else None
    return p, w, e1, e2, e3


def _value(kind, red, u, v, res, hyper):
    """The objective at (u, v), whose residuals are res: a k-vector, one
    value per problem of the stack."""
    _, _, e1, e2, e3 = res
    if kind is ObjectiveKind.F1:
        return red.c_x + _sq(e1) + hyper.mu1 * _sq(u)
    if kind is ObjectiveKind.F2:
        return red.c_a + _sq(e2) + hyper.mu2 * _sq(v)
    if kind is ObjectiveKind.F3:
        return red.c_r + _sq(e3) + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v)
    # f4: the three data-fit terms weighted, regularizers applied once
    return (hyper.alpha * (red.c_x + _sq(e1))
            + hyper.beta * (red.c_a + _sq(e2))
            + hyper.gamma * (red.c_r + _sq(e3))
            + hyper.mu1 * _sq(u) + hyper.mu2 * _sq(v))


def _gradient(kind, red, u, v, res, hyper):
    """(gU, gV) of _value at (u, v), whose residuals are res: the
    gradients in P and W mapped back through R_x' and R_a'."""
    p, w, e1, e2, e3 = res
    if kind is ObjectiveKind.F1:
        return red.rx.mT @ (-4.0 * (e1 @ p)) + 2.0 * hyper.mu1 * u, np.zeros_like(v)
    if kind is ObjectiveKind.F2:
        return np.zeros_like(u), red.ra.mT @ (-4.0 * (e2 @ w)) + 2.0 * hyper.mu2 * v
    if kind is ObjectiveKind.F3:
        return (red.rx.mT @ (-2.0 * (e3 @ w)) + 2.0 * hyper.mu1 * u,
                red.ra.mT @ (-2.0 * (e3.mT @ p)) + 2.0 * hyper.mu2 * v)
    gp = -4.0 * hyper.alpha * (e1 @ p) - 2.0 * hyper.gamma * (e3 @ w)
    gw = -4.0 * hyper.beta * (e2 @ w) - 2.0 * hyper.gamma * (e3.mT @ p)
    return (red.rx.mT @ gp + 2.0 * hyper.mu1 * u,
            red.ra.mT @ gw + 2.0 * hyper.mu2 * v)


def objective_value(obj: Objective, u: np.ndarray, v: np.ndarray,
                    hyper: HyperParams) -> float:
    red, u, v = obj.reduced, u[None], v[None]
    return float(_value(obj.kind, red, u, v,
                        _residuals(obj.kind, red, u, v), hyper)[0])


def gradient(obj: Objective, u: np.ndarray, v: np.ndarray,
             hyper: HyperParams):
    """Analytic gradients (gU, gV) of objective_value."""
    red, u, v = obj.reduced, u[None], v[None]
    gu, gv = _gradient(obj.kind, red, u, v, _residuals(obj.kind, red, u, v), hyper)
    return gu[0], gv[0]


def initialize(obj: Objective, t: int, hyper: HyperParams):
    """The starting (U, V) of a problem, or the (U, V) stacks of an
    Objective stack: one seeded draw for all its problems, or each
    problem's closed form from a truncated factorization of its main
    target, mapped back through pseudo-inverses."""
    u = np.zeros((*obj.x.shape[:-2], obj.x.shape[-1], t))
    v = np.zeros((*obj.a.shape[:-2], obj.a.shape[-1], t))
    if hyper.init is InitScheme.SEEDED_GAUSSIAN:
        rng = np.random.default_rng(hyper.seed)
        u[...] = rng.standard_normal(u.shape[-2:]) / np.sqrt(t)
        v[...] = rng.standard_normal(v.shape[-2:]) / np.sqrt(t)
        return u, v
    fx, _, fr = _TERMS[obj.kind]
    if fr:                                     # f3 / f4: the fit of R
        m = np.linalg.pinv(obj.x) @ obj.r @ np.linalg.pinv(obj.a).mT  # d x l
        p, s, qt = np.linalg.svd(m, full_matrices=False)
        k = min(t, s.shape[-1])
        root = np.sqrt(s[..., None, :k])
        u[..., :k] = p[..., :k] * root
        v[..., :k] = qt[..., :k, :].mT * root
        return u, v
    # f1 / f2: the top eigenpairs of the dataset / workflow metric target
    features, target, out = (obj.x, obj.s_x, u) if fx else (obj.a, obj.s_a, v)
    pinv = np.linalg.pinv(features)
    w = pinv @ target @ pinv.mT                # d x d or l x l, symmetric
    w = 0.5 * (w + w.mT)
    vals, vecs = np.linalg.eigh(w)
    top_first = np.argsort(vals)[..., ::-1][..., :min(t, out.shape[-2])]
    top = np.clip(np.take_along_axis(vals, top_first, -1), 0.0, None)
    out[..., :top.shape[-1]] = (np.take_along_axis(vecs, top_first[..., None, :], -1)
                                * np.sqrt(top)[..., None, :])
    return u, v


@np.errstate(over="ignore", invalid="ignore")   # a trial that overflows is rejected
def _descend(kind, red: ReducedObjective, u, v, hyper):
    """Gradient descent with Armijo backtracking on the stacked (U, V) of
    each problem of a stack (red, u and v carry a leading problem axis),
    all in lock-step: one loop, each product taken once for the stack.

    Every problem keeps its own step size, backtracking and stop reason,
    and takes exactly the steps it would take alone. A problem that stops
    stays in the stack with step 0, its trials accepted, so the loop does
    no per-problem work until a problem stops. Each gradient reuses the
    residuals of the accepted trial. Returns the (U, V, TrainTrace) of
    each problem, in stack order."""
    k = len(u)
    res = _residuals(kind, red, u, v)
    f = _value(kind, red, u, v, res, hyper)
    if not np.isfinite(f).all():
        raise IngestError(f"objective {kind.value}: the starting value is not finite")
    step = np.ones(k)
    live = np.ones(k, dtype=bool)
    stops = [None] * k                      # what stop records, per problem
    values, steps, norms = [f], [], []      # per iteration, all problems

    def trial(s):
        """(u, v) - s (gU, gV), each problem moved by its own step, with
        its residuals and objective value."""
        s_col = s[:, None, None]
        u_new, v_new = u - s_col * gu, v - s_col * gv
        res_new = _residuals(kind, red, u_new, v_new)
        return u_new, v_new, res_new, _value(kind, red, u_new, v_new,
                                             res_new, hyper)

    def stop(mask, reason, n, flat=False):
        """Stop the problems of `mask` after n accepted steps, flat if at a
        zero gradient, keeping a copy of their current U and V (a later
        step-0 trial may turn a -0.0 into 0.0); returns how many are live."""
        for j in np.flatnonzero(mask).tolist():
            stops[j] = (u[j].copy(), v[j].copy(), reason, n, flat)
        live[mask] = False
        return np.count_nonzero(live)

    for it in range(hyper.max_iters):
        gu, gv = _gradient(kind, red, u, v, res, hyper)
        g_sq = _sq(gu) + _sq(gv)
        if not np.isfinite(g_sq).all():
            raise IngestError(f"objective {kind.value}: the squared gradient norm "
                              f"is not finite at iteration {it}")
        norms.append(np.sqrt(g_sq))
        if np.count_nonzero(g_sq) < k:          # a stationary point
            if not stop((g_sq == 0.0) & live, StopReason.REL_TOL, it, flat=True):
                break
        s = 2.0 * step * live       # try growing the last accepted step
        stopped = ~live
        for _bt in range(MAX_BACKTRACKS):
            u_new, v_new, res_new, f_new = trial(s)
            accepted = (f_new <= f - ARMIJO_ACCEPT * s * g_sq) | stopped
            if np.count_nonzero(accepted) == k:
                break
            # shrink only the steps not accepted: an accepted problem
            # repeats its trial and gets the same value back
            s = np.where(accepted, s, s * ARMIJO_SHRINK)
        else:
            if not stop(~accepted, StopReason.LINE_SEARCH_FAILURE, it):
                break
            s = s * live                # the failed problems stay put
            u_new, v_new, res_new, f_new = trial(s)
        u, v, res, step = u_new, v_new, res_new, s
        values.append(f_new)
        steps.append(s)
        decrease = (f - f_new) / np.maximum(np.abs(f), _TINY)
        f = f_new
        converged = (decrease < hyper.rel_tol) & live
        if (np.count_nonzero(converged)
                and not stop(converged, StopReason.REL_TOL, it + 1)):
            break
    stop(live.copy(), StopReason.MAX_ITERS, len(steps))
    columns = [np.reshape(table, (len(table), k)).T.tolist()
               for table in (values, steps, norms)]
    return [(uj, vj, TrainTrace(vals[:n + 1], sts[:n], nrm[:n + flat], reason))
            for (uj, vj, reason, n, flat), vals, sts, nrm in zip(stops, *columns)]


def minimize_many(obj: Objective, u0: np.ndarray, v0: np.ndarray,
                  hyper: HyperParams):
    """minimize for each problem of an Objective stack, its starts the
    stacks u0 and v0, descending as one stack. Returns the (u, v,
    TrainTrace) of each problem, in order; each equals what minimize
    gives for that problem alone."""
    return _descend(obj.kind, _reduce(obj), u0, v0, hyper)


def minimize(obj: Objective, u0: np.ndarray, v0: np.ndarray,
             hyper: HyperParams):
    """Gradient descent with Armijo backtracking on the stacked (U, V): a
    stack of one problem. The accepted objective sequence is
    non-increasing by construction. Returns (u, v, TrainTrace)."""
    return _descend(obj.kind, obj.reduced, u0[None], v0[None], hyper)[0]


def _objective_stack(kind: ObjectiveKind, x_std, a_std, rs) -> Objective:
    """The Objective stack of stacked standardized features, with the
    targets the kind requires from the preference matrices rs (S_X and
    S_A each in one call)."""
    fx, fa, fr = _TERMS[kind]
    scores = np.stack([r.scores for r in rs])
    return Objective(kind, x_std, a_std,
                     s_x=similarity_stack(scores)[0] if fx else None,
                     s_a=similarity_stack(scores.mT)[0] if fa else None,
                     r=scores if fr else None)


def build_objective(kind: ObjectiveKind, x_std: np.ndarray, a_std: np.ndarray,
                    r: PreferenceMatrix) -> Objective:
    """Assemble an Objective from standardized features and the preference
    matrix, with the targets the kind requires: _objective_stack of one."""
    return _each(lambda field: field[0], _objective_stack(
        ObjectiveKind(kind), x_std[None], a_std[None], [r]))


def train(kind: ObjectiveKind, x: DescriptorTable, a: DescriptorTable,
          r: PreferenceMatrix, hyper: HyperParams):
    """Full training pipeline: standardize, pick t, initialize, descend;
    train_many of one.

    Returns (ModelParams, TrainTrace). Deterministic for a fixed hyper
    (including seed). max_iters=0 returns the initialization unchanged.
    """
    return train_many([(kind, x, a, r)], hyper)[0]


def train_many(problems, hyper: HyperParams):
    """train for each (kind, x, a, r) of `problems`, grouped by kind and
    shapes of X and A, each group set up in stacks of one problem or at
    most _TARGET_CELLS target cells and descended once per t. Returns the
    (ModelParams, TrainTrace) of each, in order, as train gives it alone."""
    problems = [(ObjectiveKind(kind), x, a, r) for kind, x, a, r in problems]
    groups = {}
    for index, (kind, x, a, _) in enumerate(problems):
        groups.setdefault((kind, x.features.shape, a.features.shape), []).append(index)
    out = [None] * len(problems)
    for (kind, (n, _), (m, _)), members in groups.items():
        fx, fa, _ = _TERMS[kind]
        size = max(1, _TARGET_CELLS // max(1, fx * n * n + fa * m * m))
        by_t = {}   # t -> (index and records, red, u0, v0) of each set-up stack
        for start in range(0, len(members), size):
            stack = members[start:start + size]
            _, xs, as_, rs = zip(*(problems[i] for i in stack))
            x_std, x_records = standardize_stack(np.stack([x.features for x in xs]))
            a_std, a_records = standardize_stack(np.stack([a.features for a in as_]))
            ts = [hyper.t] * len(stack) if hyper.t else np.maximum(1, np.minimum(
                np.linalg.matrix_rank(x_std), np.linalg.matrix_rank(a_std))).tolist()
            obj = _objective_stack(kind, x_std, a_std, rs)
            red = _reduce(obj)
            for t in dict.fromkeys(ts):
                pick = [j for j, tj in enumerate(ts) if tj == t]
                by_t.setdefault(t, []).append((
                    [(stack[j], x_records[j], a_records[j]) for j in pick],
                    _each(lambda field: field[pick], red),
                    *initialize(_each(lambda field: field[pick], obj), t, hyper)))
        for t, pieces in by_t.items():
            picked, reds, us, vs = zip(*pieces)
            results = _descend(kind, _each(lambda *f: np.concatenate(f), *reds),
                               np.concatenate(us), np.concatenate(vs), hyper)
            for (i, x_record, a_record), (u, v, trace) in zip(chain(*picked), results):
                out[i] = (ModelParams(
                    u=u, v=v, t=t, hyper=hyper, objective=kind.value,
                    x_standardization=x_record, a_standardization=a_record,
                    x_feature_names=problems[i][1].feature_names,
                    a_feature_names=problems[i][2].feature_names), trace)
    return out
