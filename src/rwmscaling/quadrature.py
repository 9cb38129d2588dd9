"""Vectorized adaptive Gauss-Kronrod quadrature.

One adaptive core integrates many items at once: item i is a k-component
integrand over its own interval [a_i, b_i], first split at its own seed
points, and each round evaluates every open panel's 15 Kronrod nodes in one
numpy call, which is what makes the nested double integrals elsewhere in
this package affordable.  The rule is the classic 15-point Kronrod extension
of 7-point Gauss, with QUADPACK's error-scaling heuristic.  A panel is
accepted when its error (the largest over the components) fits a budget
proportional to its share of its item's interval, so the accepted errors of
item i sum to at most max(epsabs_i, epsrel * max_k |I_ik|).  Items fail
one at a time: a non-finite value, the round limit or an exhausted budget
(per item, or the run's total) stops only the items concerned, and the rest
run to completion.  ``adaptive_quad`` (one item) and ``stacked_quad`` (many
items) are thin front ends to the core; both raise on any failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureError", "QuadResult", "adaptive_quad", "stacked_quad"]

# Nodes and weights of the 15-point Kronrod rule on [-1, 1], and the weights
# of the embedded 7-point Gauss rule (QUADPACK dqk15 constants).
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_SLICE = slice(1, 15, 2)
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

_MIN_WIDTH = 50.0 * np.finfo(float).eps
_ROUNDOFF = 100.0 * np.finfo(float).eps
_BUDGET = "evaluation budget {} exhausted with {} panels open"
# Refinement rounds before giving up; each round halves every open panel.
_MAX_ROUNDS = 64
# Panels evaluated per integrand call, which bounds a round's temporaries
# whatever the number of items.  2048 panels make a multiple of 4 rows per
# matrix-vector product, so BLAS kernels that work in blocks of 4 rows sum
# each row as they would in one product over the whole round.
_CHUNK_PANELS = 2048


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be finished: a non-finite integrand,
    an exhausted evaluation budget or the round limit.

    When raised by the core, ``failures`` maps each failed item to its
    message and ``result`` is the run's (values, errors, n_evals), with NaN
    for the failed items and the other items complete.
    """

    def __init__(self, message: str, *, failures=None, result=None):
        super().__init__(message)
        self.failures = failures or {}
        self.result = result


@dataclass
class QuadResult:
    value: float | np.ndarray
    error: float
    n_evals: int
    nodes: np.ndarray
    weights: np.ndarray


def _panel_rule(vals: np.ndarray, half: np.ndarray):
    """Kronrod estimate, and QUADPACK-scaled error, for a batch of panels.

    vals has shape (n_panels, 15, k); half is the vector of panel
    half-widths.  Returns (integral, error, abs_integral): the integral per
    panel and component, shape (n_panels, k), and per panel the error and
    the integral of |f|, each the largest over the components.
    """
    n, _, k = vals.shape
    # One row of 15 node values per (panel, component), so each weighted sum
    # is a single matrix-vector product.
    rows = np.ascontiguousarray(vals.transpose(0, 2, 1)).reshape(n * k, 15)
    h = np.repeat(half, k)
    resk = rows @ _WGK
    resg = rows[:, _GAUSS_SLICE] @ _WG
    resabs = np.abs(rows) @ _WGK
    resasc = np.abs(rows - (resk / 2.0)[:, None]) @ _WGK
    raw = np.abs(resk - resg) * h
    resasc = resasc * h
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            raw,
        )
    return ((resk * h).reshape(n, k), scaled.reshape(n, k).max(axis=1),
            (resabs * h).reshape(n, k).max(axis=1))


def _gk15(f, a: np.ndarray, b: np.ndarray, epsabs,
          epsrel: float, points, max_evals, rule=None):
    """The adaptive loop behind both wrappers, over items x components.

    Arguments are those of stacked_quad, except that f(x, item) receives the
    item index of each open panel, not of each of its 15 nodes.  An item
    fails alone: when its integrand is not finite, when the round limit
    leaves it open, or when its evaluations so far plus its next round's
    nodes would pass its budget.  With a scalar ``max_evals`` the budget is
    the run's total, and every open item fails when it runs out.  Returns
    (values, errors, n_evals, failures): failures maps each failed item to
    its message, and the item's value and error are NaN.  A ``rule`` list
    receives the (centers, half-widths) of the panels accepted each round.
    """
    n_items = a.size
    edges = np.column_stack([a, b] if points is None else [a, b, points])
    edges = np.sort(np.where((edges >= a[:, None]) & (edges <= b[:, None]),
                             edges, np.nan), axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    is_panel = hi > lo  # drops repeated edges, NaN padding and empty items
    item = np.nonzero(is_panel)[0]
    lo, hi = lo[is_panel], hi[is_panel]
    width = b - a
    per_item = isinstance(max_evals, np.ndarray)
    item_evals = np.zeros(n_items, dtype=np.int64) if per_item else None
    values = None
    errors = np.zeros(n_items)
    failures: dict[int, str] = {}
    n_evals = 0

    def fail(failed, message):
        """Record each item of ``failed`` and drop its open panels."""
        for i in failed:
            failures[int(i)] = message(i)
        return ~np.isin(item, failed)

    for _ in range(_MAX_ROUNDS):
        if item.size == 0:
            break
        half = 0.5 * (hi - lo)
        center = 0.5 * (hi + lo)
        parts, bad = [], {}
        for start in range(0, item.size, _CHUNK_PANELS):
            c = slice(start, start + _CHUNK_PANELS)
            nodes = (center[c, None] + half[c, None] * _XGK).ravel()
            vals = np.asarray(f(nodes, item[c]), dtype=float)
            if values is None:
                scalar = vals.ndim == 1
                values = np.zeros((n_items, 1 if scalar else vals.shape[-1]))
            vals = vals.reshape(-1, 15, values.shape[1])
            if not np.isfinite(vals).all():
                finite = np.isfinite(vals).all(axis=2)
                nodes = nodes.reshape(-1, 15)
                for i in np.unique(item[c][~finite.all(axis=1)]):
                    mine = item[c] == i
                    bad.setdefault(int(i), []).extend(nodes[mine][~finite[mine]][:3])
                vals = np.where(finite[:, :, None], vals, 0.0)
            parts.append(_panel_rule(vals, half[c]))
        integral, err, absint = parts[0] if len(parts) == 1 else (
            np.concatenate(p) for p in zip(*parts))
        n_evals += 15 * item.size
        if per_item:
            item_evals += 15 * np.bincount(item, minlength=n_items)
        if bad:
            live = fail(list(bad), lambda i: (
                f"non-finite integrand near x={np.array(bad[i][:3])}"))
            item, lo, hi, center, half = (v[live] for v in (item, lo, hi, center, half))
            integral, err, absint = integral[live], err[live], absint[live]

        est = values.copy()
        np.add.at(est, item, integral)
        tol = np.maximum(epsabs, epsrel * np.abs(est).max(axis=1))
        budget = tol[item] * (hi - lo) / width[item]
        # A panel whose error sits at the round-off level of its own |f| mass
        # cannot be improved by splitting; retire it.
        floor = _ROUNDOFF * absint
        keep = (err <= np.maximum(budget, floor)) \
            | (hi - lo <= _MIN_WIDTH * np.maximum(1.0, np.abs(center)))
        np.add.at(values, item[keep], integral[keep])
        np.add.at(errors, item[keep], err[keep])
        if rule is not None:
            rule.append((center[keep], half[keep]))
        if keep.all():
            break
        item_s, lo_s, hi_s = item[~keep], lo[~keep], hi[~keep]
        mid = 0.5 * (lo_s + hi_s)
        item = np.concatenate([item_s, item_s])
        lo = np.concatenate([lo_s, mid])
        hi = np.concatenate([mid, hi_s])
        if per_item:
            n_open = np.bincount(item, minlength=n_items)
            over = (n_open > 0) & (item_evals + 15 * n_open > max_evals)
            if over.any():
                live = fail(np.nonzero(over)[0],
                            lambda i: _BUDGET.format(max_evals[i], n_open[i]))
                item, lo, hi = item[live], lo[live], hi[live]
        elif n_evals + 15 * item.size > max_evals:
            # One total for the run: every open item fails together.
            n_open = item.size
            fail(np.unique(item), lambda i: _BUDGET.format(max_evals, n_open))
            item = item[:0]
    else:
        fail(np.unique(item),
             lambda i: "subdivision did not converge (max rounds reached)")

    if values is None:
        return np.zeros(n_items), errors, 0, failures
    if failures:
        failed = list(failures)
        values[failed] = np.nan
        errors[failed] = np.nan
    return (values[:, 0] if scalar else values), errors, n_evals, failures


def _raise_on_failure(values, errors, n_evals, failures):
    """The result, or a QuadratureError naming the first failure and
    carrying the run."""
    if failures:
        raise QuadratureError(next(iter(failures.values())), failures=failures,
                              result=(values, errors, n_evals))
    return values, errors, n_evals


def adaptive_quad(f, a: float, b: float, *, epsabs: float = 1e-10,
                  epsrel: float = 0.0, points=None,
                  max_evals: int = 1_000_000) -> QuadResult:
    """Integrate a vectorized f over [a, b].

    f maps an array of abscissae (n,) to values of shape (n,) or (n, k); the
    k components share one panel subdivision (a panel is accepted only when
    every component meets its budget share), and the value is then a (k,)
    array with one error for all components.  Seed subdivision points may
    be supplied via ``points``.  The result also carries the composite rule
    accepted, its ``nodes`` and ``weights``: ``weights @ f(nodes)`` is the
    value up to rounding.  Raises QuadratureError if ``max_evals`` integrand
    evaluations do not suffice.
    """
    pts = None if points is None else np.asarray(points, dtype=float).reshape(1, -1)
    rule = [(np.empty(0), np.empty(0))]
    values, errors, n_evals = _raise_on_failure(*_gk15(
        lambda x, item: f(x), np.array([a], dtype=float),
        np.array([b], dtype=float), epsabs, epsrel, pts, max_evals, rule))
    center, half = (np.concatenate(part) for part in zip(*rule))
    return QuadResult(values[0], errors[0], n_evals,
                      nodes=(center[:, None] + half[:, None] * _XGK).ravel(),
                      weights=(half[:, None] * _WGK).ravel())


def stacked_quad(f, a, b, *, epsabs=1e-10, epsrel: float = 0.0, points=None,
                 max_evals: int = 20_000_000):
    """Integrate one parametric family over many intervals at once.

    Computes I_i = integral of f(x, i) over [a_i, b_i] for every item i.
    f receives flat arrays (x, item_index) and must evaluate vectorized,
    returning (n,) or (n, k) values.  ``points`` may be None, or an
    (n_items, m) array of per-item seed subdivision points (values outside
    an item's interval are ignored).  ``epsabs`` may be scalar or per-item.
    ``max_evals`` is a total for the run, or an (n_items,) numpy array that
    gives each item its own budget.  Returns (values, errors, n_evals); values
    has shape (n_items,) or (n_items, k).  Raises QuadratureError if any
    item fails; the other items still run to completion, and the error
    carries their results and every item's failure.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    pts = None if points is None else np.asarray(points, dtype=float).reshape(a.size, -1)
    return _raise_on_failure(*_gk15(
        lambda x, item: f(x, np.repeat(item, 15)), a, b,
        np.asarray(epsabs, dtype=float), epsrel, pts, max_evals))
