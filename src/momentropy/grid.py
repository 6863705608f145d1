"""Quadrature grids over the support of a matrix density.

Three support kinds are handled:

* ``interval1d`` — a closed interval, discretised by composite Gauss-Legendre
  panels so that smooth integrands are integrated to near machine precision;
* ``rectangle2d`` — a product of two intervals, discretised by the tensor
  product of two 1-D rules (node order is row-major over axis 1 then axis 2);
* ``discrete`` — a finite index set with unit weights, where integrals
  degenerate to plain sums.

Bounds and weights are finite.  Weights are strictly positive and sum to the
geometric measure of the support (interval length, rectangle area, or point
count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class SupportGrid:
    """Sampled support: nodes of shape (N, k) and positive weights of shape (N,).

    ``k`` is 1 for intervals and discrete sets, 2 for rectangles.  Instances
    are immutable; the arrays they hold must not be written to.
    """

    kind: str                 # "interval1d" | "rectangle2d" | "discrete"
    nodes: np.ndarray
    weights: np.ndarray
    bounds: tuple | None = None
    panels: int | None = None
    order: int | None = None

    def __post_init__(self):
        if self.kind not in ("interval1d", "rectangle2d", "discrete"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.nodes.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("nodes must be (N, k) and weights (N,)")
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights disagree on node count")
        if not np.all((self.weights > 0.0) & (self.weights < np.inf)):  # NaN fails both
            raise ValueError("quadrature weights must be finite and strictly positive")

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        """Geometric dimension of the support (0 for discrete sets)."""
        return 0 if self.kind == "discrete" else self.nodes.shape[1]

    @property
    def measure(self) -> float:
        """Total measure: sum of the weights."""
        return float(np.sum(self.weights))


def build_grid(kind: str, bounds, panels: int = 32, order: int = 5) -> SupportGrid:
    """Composite Gauss-Legendre grid on an interval or rectangle.

    Parameters
    ----------
    kind : "interval1d" or "rectangle2d"
    bounds : (lo, hi) for an interval; ((lo1, hi1), (lo2, hi2)) for a rectangle
    panels, order : panels per axis and Gauss-Legendre order per panel
        (order must lie in 2..10); an order-q rule integrates polynomials of
        degree 2q-1 exactly on each panel.
    """
    if not (2 <= int(order) <= 10):
        raise ValueError("quadrature order must be in 2..10")
    if int(panels) < 1:
        raise ValueError("need at least one panel")
    if not np.isfinite(np.asarray(bounds, dtype=float)).all():
        raise ValueError(f"grid bounds must be finite, not {bounds!r}")
    if kind == "interval1d":
        lo, hi = map(float, bounds)
        x, w = _panelised_gauss(lo, hi, int(panels), int(order))
        return SupportGrid("interval1d", x[:, None], w, (lo, hi), int(panels), int(order))
    if kind == "rectangle2d":
        (lo1, hi1), (lo2, hi2) = bounds
        x1, w1 = _panelised_gauss(float(lo1), float(hi1), int(panels), int(order))
        x2, w2 = _panelised_gauss(float(lo2), float(hi2), int(panels), int(order))
        nodes = np.column_stack(
            [np.repeat(x1, x2.size), np.tile(x2, x1.size)]
        )
        weights = np.repeat(w1, w2.size) * np.tile(w2, w1.size)
        return SupportGrid(
            "rectangle2d", nodes, weights,
            ((float(lo1), float(hi1)), (float(lo2), float(hi2))), int(panels), int(order),
        )
    raise ValueError(f"build_grid handles 'interval1d' and 'rectangle2d', not {kind!r}")


def discrete_grid(count: int) -> SupportGrid:
    """Discrete support {0, ..., count-1} with unit weights (measure = count)."""
    n = int(count)
    if n < 1:
        raise ValueError("discrete grid needs at least one point")
    return SupportGrid("discrete", np.arange(n, dtype=float)[:, None], np.ones(n))


def _panelised_gauss(lo: float, hi: float, panels: int, order: int):
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    w = (half[:, None] * ref_w[None, :]).ravel()
    return x, w
