"""Classification performance metrics over K x K confusion matrices.

Supported kinds:

==================  ================================================  ===========
kind                value on confusion C (classes 1-based)           notes
==================  ================================================  ===========
ordinal             sum_ij (1 - |i-j|/(K-1)) C_ij                     linear
micro_f1            2 sum_{i!=g} C_ii / (2 - sum_j C_gj - sum_i C_ig) fractional
macro_f1            mean_i 2 C_ii / (row_i + col_i)                   not fractional
weighted_exp        sum_i exp(-gamma*i) C_ii                          linear
min_max             min_i C_ii / row_i                                eval-only
polynomial          sum_i (1 - C_ii)^gamma                            eval-only
fractional_linear   <A, C> / <B, C>                                   explicit (A, B)
loss_based          1 - <L, C>                                        linear
==================  ================================================  ===========

Class g is the designated negative class of micro-F1 (default 1).  The
linear and fractional kinds admit an exact (A, B) representation with
value <A, C>/<B, C>; linear kinds take B = all-ones because confusions
carry unit mass.  Their values and gradients are computed from that form
alone, so the micro_f1 and loss_based expressions above hold on unit mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .confusion import _readonly
from .errors import GuardError

# Validation slack on the total mass of a confusion passed to eval_metric.
MASS_ATOL = 1e-6
# Hard floor for fractional-metric denominators.
DENOMINATOR_FLOOR = 1e-8

_KINDS = (
    "ordinal",
    "micro_f1",
    "macro_f1",
    "weighted_exp",
    "min_max",
    "polynomial",
    "fractional_linear",
    "loss_based",
)
_FRACTIONAL_KINDS = ("ordinal", "micro_f1", "weighted_exp", "fractional_linear", "loss_based")
_DIFFERENTIABLE_KINDS = tuple(k for k in _KINDS if k != "min_max")


@dataclass(frozen=True)
class FractionalLinearMetric:
    """Explicit ratio-of-linear representation psi(C) = <A, C> / <B, C>.

    The denominator must stay at or above ``denominator_floor_b`` on every
    confusion evaluated; falling below it is a hard error.
    """

    numerator_A: np.ndarray
    denominator_B: np.ndarray
    denominator_floor_b: float = DENOMINATOR_FLOOR

    def __post_init__(self):
        a = np.asarray(self.numerator_A, dtype=float)
        b = np.asarray(self.denominator_B, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"numerator must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"numerator shape {a.shape} != denominator shape {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("fractional-linear matrices must be finite")
        if not self.denominator_floor_b > 0:
            raise ValueError("denominator floor must be positive")
        object.__setattr__(self, "numerator_A", _readonly(a))
        object.__setattr__(self, "denominator_B", _readonly(b))

    @property
    def n_classes(self) -> int:
        return self.numerator_A.shape[0]

    @property
    def is_linear(self) -> bool:
        """True when B is all-ones, so the ratio reduces to <A, C> on unit mass."""
        return bool(np.all(self.denominator_B == 1.0))

    def evaluate(self, conf: np.ndarray) -> float:
        conf = np.asarray(conf, dtype=float)
        den = float(np.sum(self.denominator_B * conf))
        if den < self.denominator_floor_b:
            raise GuardError(
                f"degenerate denominator: <B, C> = {den:.3e} below floor "
                f"{self.denominator_floor_b:.1e}"
            )
        return float(np.sum(self.numerator_A * conf)) / den


@dataclass(frozen=True)
class LossTensor:
    """Loss weights in [0, 1]: one K x K matrix shared by every output, or an
    (M, K, K) stack with one slice per output.  L[..., i, j] is the cost of
    predicting class j when the true class is i."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (2, 3) or values.shape[-1] != values.shape[-2]:
            raise ValueError(f"loss must have shape (K, K) or (M, K, K), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("loss must be finite")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("loss entries must lie in [0, 1]")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def n_classes(self) -> int:
        return self.values.shape[-1]

    def to_dict(self) -> dict:
        """Document form of an (M, K, K) stack."""
        m_out, k, _ = self.values.shape
        return {"M": m_out, "K": k, "slices": self.values.tolist()}


@dataclass(frozen=True)
class MetricSpec:
    """A metric kind plus its parameters, bound to a class count K.

    Build instances through the classmethod constructors; they validate the
    parameters each kind needs.
    """

    kind: str
    n_classes: int
    gamma: float | None = None
    negative_class: int = 1
    numerator: np.ndarray | None = field(default=None, repr=False)
    denominator: np.ndarray | None = field(default=None, repr=False)
    loss: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.n_classes < 2:
            raise ValueError("metrics require at least 2 classes")

    @classmethod
    def ordinal(cls, n_classes: int) -> "MetricSpec":
        return cls("ordinal", n_classes)

    @classmethod
    def micro_f1(cls, n_classes: int, negative_class: int = 1) -> "MetricSpec":
        if not 1 <= negative_class <= n_classes:
            raise ValueError(f"negative class {negative_class} outside [1, {n_classes}]")
        return cls("micro_f1", n_classes, negative_class=negative_class)

    @classmethod
    def macro_f1(cls, n_classes: int) -> "MetricSpec":
        return cls("macro_f1", n_classes)

    @classmethod
    def weighted_exp(cls, n_classes: int, gamma: float) -> "MetricSpec":
        if not np.isfinite(gamma):
            raise ValueError("gamma must be finite")
        return cls("weighted_exp", n_classes, gamma=float(gamma))

    @classmethod
    def min_max(cls, n_classes: int) -> "MetricSpec":
        return cls("min_max", n_classes)

    @classmethod
    def polynomial(cls, n_classes: int, gamma: float) -> "MetricSpec":
        if not np.isfinite(gamma) or gamma <= 0:
            raise ValueError("polynomial exponent must be finite and positive")
        return cls("polynomial", n_classes, gamma=float(gamma))

    @classmethod
    def fractional_linear(cls, numerator, denominator) -> "MetricSpec":
        flm = FractionalLinearMetric(numerator, denominator)
        return cls(
            "fractional_linear",
            flm.n_classes,
            numerator=flm.numerator_A,
            denominator=flm.denominator_B,
        )

    @classmethod
    def loss_based(cls, loss) -> "MetricSpec":
        loss = LossTensor(loss)
        if loss.values.ndim != 2:
            raise ValueError(f"loss_based needs one K x K loss, got shape {loss.values.shape}")
        return cls("loss_based", loss.n_classes, loss=loss.values)


def _ordinal_weights(n_classes: int) -> np.ndarray:
    idx = np.arange(1, n_classes + 1, dtype=float)
    return 1.0 - np.abs(idx[:, None] - idx[None, :]) / (n_classes - 1)


def _exp_class_weights(n_classes: int, gamma: float) -> np.ndarray:
    return np.exp(-gamma * np.arange(1, n_classes + 1, dtype=float))


def _eval_batch(spec: MetricSpec, confs: np.ndarray) -> np.ndarray:
    """Evaluate the metric over stacked confusions of shape (..., K, K).

    No input validation; degenerate fractional denominators yield NaN instead
    of raising so batch callers (the brute-force oracle) can skip them.
    """
    confs = np.asarray(confs, dtype=float)
    kind = spec.kind
    if kind in _FRACTIONAL_KINDS:
        flm = as_fractional_linear(spec)
        num = np.einsum("...ij,ij->...", confs, flm.numerator_A)
        if flm.is_linear:
            return num
        den = np.einsum("...ij,ij->...", confs, flm.denominator_B)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den >= flm.denominator_floor_b, num / den, np.nan)
    if kind == "macro_f1":
        diag = np.einsum("...ii->...i", confs)
        den = confs.sum(axis=-1) + confs.sum(axis=-2)
        with np.errstate(divide="ignore", invalid="ignore"):
            # A class with no true and no predicted mass contributes 0.
            per_class = np.where(den > 0, 2.0 * diag / den, 0.0)
        return per_class.mean(axis=-1)
    if kind == "min_max":
        diag = np.einsum("...ii->...i", confs)
        rows = confs.sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # An absent true class counts as zero worst-case recall.
            recall = np.where(rows > 0, diag / rows, 0.0)
        return recall.min(axis=-1)
    if kind == "polynomial":
        diag = np.einsum("...ii->...i", confs)
        return ((1.0 - diag) ** spec.gamma).sum(axis=-1)
    raise AssertionError(f"unhandled kind {kind}")


def _validate_confusion(spec: MetricSpec, conf: np.ndarray, check_mass: bool) -> np.ndarray:
    conf = np.asarray(conf, dtype=float)
    k = spec.n_classes
    if conf.shape != (k, k):
        raise ValueError(f"confusion shape {conf.shape} does not match K={k}")
    if not np.all(np.isfinite(conf)):
        raise ValueError("confusion contains NaN or infinite entries")
    if conf.min() < -1e-12:
        raise ValueError("confusion contains negative entries")
    if check_mass:
        mass = float(conf.sum())
        if abs(mass - 1.0) > MASS_ATOL:
            raise ValueError(f"confusion mass {mass:.6f} must be 1 within {MASS_ATOL}")
    return conf


def eval_metric(spec: MetricSpec, conf: np.ndarray, *, check_mass: bool = True) -> float:
    """Evaluate a metric on one confusion matrix.

    Raises GuardError when a fractional denominator falls below the floor,
    ValueError on malformed input.  ``check_mass=False`` admits confusions of
    any total mass, such as the micro sum of unit-mass slices under output
    weights that do not sum to 1: linear kinds then scale with the mass, and
    fractional kinds, being scale-invariant, keep their value.
    """
    conf = _validate_confusion(spec, conf, check_mass)
    value = float(_eval_batch(spec, conf))
    if np.isnan(value):
        raise GuardError("degenerate denominator: metric undefined on this confusion")
    return value


def metric_gradient(spec: MetricSpec, conf: np.ndarray) -> np.ndarray:
    """Analytic gradient of the metric at ``conf`` as a K x K matrix.

    min_max is not differentiable and is rejected.
    """
    if spec.kind not in _DIFFERENTIABLE_KINDS:
        raise ValueError(f"gradient unavailable for {spec.kind}")
    conf = _validate_confusion(spec, conf, check_mass=False)
    if spec.kind in _FRACTIONAL_KINDS:
        flm = as_fractional_linear(spec)
        if flm.is_linear:
            return np.array(flm.numerator_A)
        den = float(np.sum(flm.denominator_B * conf))
        if den < flm.denominator_floor_b:
            raise GuardError(f"degenerate denominator: <B, C> = {den:.3e}")
        num = float(np.sum(flm.numerator_A * conf))
        return flm.numerator_A / den - (num / den**2) * flm.denominator_B
    if spec.kind == "polynomial":
        diag = np.diagonal(conf)
        return np.diag(-spec.gamma * (1.0 - diag) ** (spec.gamma - 1.0))
    if spec.kind == "macro_f1":
        diag = np.diagonal(conf)
        den = conf.sum(axis=1) + conf.sum(axis=0)
        if den.min() <= 0:
            raise GuardError("macro-F1 gradient undefined: some class has zero mass")
        grad = np.diag(2.0 / den)
        grad -= (2.0 * diag / den**2)[:, None]  # d(den_i)/dC_il = 1 for every l
        grad -= (2.0 * diag / den**2)[None, :]  # d(den_j)/dC_kj = 1 for every k
        return grad / spec.n_classes
    raise AssertionError(f"unhandled kind {spec.kind}")


def as_fractional_linear(spec: MetricSpec) -> FractionalLinearMetric:
    """Exact (A, B) representation with psi(C) = <A, C>/<B, C>.

    Linear kinds return B = all-ones.  macro_f1, min_max, and polynomial have
    no global fractional-linear form and are rejected.
    """
    k = spec.n_classes
    ones = np.ones((k, k))
    if spec.kind == "ordinal":
        return FractionalLinearMetric(_ordinal_weights(k), ones)
    if spec.kind == "weighted_exp":
        return FractionalLinearMetric(np.diag(_exp_class_weights(k, spec.gamma)), ones)
    if spec.kind == "loss_based":
        return FractionalLinearMetric(ones - spec.loss, ones)
    if spec.kind == "micro_f1":
        g = spec.negative_class - 1
        numer = 2.0 * np.eye(k)
        numer[g, g] = 0.0
        denom = np.full((k, k), 2.0)
        denom[g, :] -= 1.0
        denom[:, g] -= 1.0
        return FractionalLinearMetric(numer, denom)
    if spec.kind == "fractional_linear":
        return FractionalLinearMetric(spec.numerator, spec.denominator)
    raise ValueError(f"not fractional-linear: {spec.kind}")


def _rescale_unit(raw: np.ndarray) -> LossTensor:
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        return LossTensor(np.zeros_like(raw))
    return LossTensor((raw - lo) / (hi - lo))


def loss_from_gamma(flm: FractionalLinearMetric, gamma: float) -> LossTensor:
    """K x K loss gamma*B - A, rescaled into [0, 1].

    A constant raw matrix collapses to the zero matrix.  The rescaling never
    changes the induced weighted decision (it is a positive affine map).
    """
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    return _rescale_unit(gamma * flm.denominator_B - flm.numerator_A)


def loss_from_gradient(spec: MetricSpec, conf: np.ndarray) -> LossTensor:
    """K x K loss 1 - grad(psi)(conf), rescaled into [0, 1].

    For linear kinds the gradient is constant, so the result does not depend
    on ``conf``.
    """
    return _rescale_unit(1.0 - metric_gradient(spec, conf))


def metric_from_config(config: dict, n_classes: int | None = None) -> MetricSpec:
    """Build a MetricSpec from its document form.

    The document is ``{"kind": ..., "params": {...}}``; fractional_linear and
    loss_based carry their matrices inline as row-major nested lists ("A",
    "B", "L").  Class semantics are 1-based.  ``n_classes`` is required for
    kinds that do not embed a matrix.
    """
    if "kind" not in config:
        raise ValueError('metric config must have a "kind" field')
    kind = config["kind"]
    params = dict(config.get("params", {}))
    if kind == "fractional_linear":
        a = config.get("A", params.get("A"))
        b = config.get("B", params.get("B"))
        if a is None or b is None:
            raise ValueError('fractional_linear config requires "A" and "B" matrices')
        return MetricSpec.fractional_linear(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if kind == "loss_based":
        loss = config.get("L", params.get("L"))
        if loss is None:
            raise ValueError('loss_based config requires an "L" matrix')
        return MetricSpec.loss_based(np.asarray(loss, dtype=float))
    if n_classes is None:
        raise ValueError(f"metric kind {kind!r} requires n_classes")
    if kind == "ordinal":
        return MetricSpec.ordinal(n_classes)
    if kind == "micro_f1":
        return MetricSpec.micro_f1(n_classes, negative_class=int(params.get("negative_class", 1)))
    if kind == "macro_f1":
        return MetricSpec.macro_f1(n_classes)
    if kind == "weighted_exp":
        if "gamma" not in params:
            raise ValueError("weighted_exp config requires params.gamma")
        return MetricSpec.weighted_exp(n_classes, float(params["gamma"]))
    if kind == "min_max":
        return MetricSpec.min_max(n_classes)
    if kind == "polynomial":
        if "gamma" not in params:
            raise ValueError("polynomial config requires params.gamma")
        return MetricSpec.polynomial(n_classes, float(params["gamma"]))
    raise ValueError(f"unknown metric kind {kind!r}")
