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
value <A, C>/<B, C>; linear kinds take B = all-ones and value <A, C>, which
equals the ratio on unit mass.  Each such MetricSpec is built with its
FractionalLinearMetric, and ``FractionalLinearMetric.evaluate_batch`` is the
one place that computes a ratio: the bisection's candidate scores, every
averaged utility and the gradients all go through it.  ``_defined`` is the
one place that turns an undefined (NaN) value into GuardError.  The micro_f1
and loss_based expressions above hold on unit mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

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
_DIFFERENTIABLE_KINDS = tuple(k for k in _KINDS if k != "min_max")


def _defined(value, what: str) -> float:
    """``value`` as a float; a NaN, the mark of a degenerate denominator, is a
    GuardError ``degenerate denominator: <what>``."""
    value = float(value)
    if np.isnan(value):
        raise GuardError(f"degenerate denominator: {what}")
    return value


@dataclass(frozen=True)
class FractionalLinearMetric:
    """Explicit ratio-of-linear representation psi(C) = <A, C> / <B, C>.

    A linear metric (B all-ones) takes the value <A, C>, which scales with
    the mass of C.  Otherwise the denominator must stay at or above
    ``DENOMINATOR_FLOOR``: ``evaluate_batch`` marks confusions below it with
    NaN and ``evaluate`` raises GuardError on them.  Two representations are
    equal when their matrices are.
    """

    numerator_A: np.ndarray
    denominator_B: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.numerator_A, dtype=float)
        b = np.asarray(self.denominator_B, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"numerator must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"numerator shape {a.shape} != denominator shape {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("fractional-linear matrices must be finite")
        object.__setattr__(self, "numerator_A", _readonly(a))
        object.__setattr__(self, "denominator_B", _readonly(b))

    def __eq__(self, other):
        if not isinstance(other, FractionalLinearMetric):
            return NotImplemented
        return np.array_equal(self.numerator_A, other.numerator_A) and np.array_equal(
            self.denominator_B, other.denominator_B
        )

    def __hash__(self):
        return hash((tuple(self.numerator_A.ravel()), tuple(self.denominator_B.ravel())))

    @property
    def n_classes(self) -> int:
        return self.numerator_A.shape[0]

    @property
    def is_linear(self) -> bool:
        """True when B is all-ones, so the ratio reduces to <A, C>."""
        return bool(np.all(self.denominator_B == 1.0))

    def evaluate_batch(self, confs: np.ndarray) -> np.ndarray:
        """The metric over stacked confusions of shape (..., K, K), NaN where
        the denominator falls below the floor.  No input validation.  The
        einsum sums in stride order, so the input is made C-contiguous first:
        the same values give the same bits whatever their memory layout."""
        confs = np.ascontiguousarray(confs, dtype=float)
        num = np.einsum("...ij,ij->...", confs, self.numerator_A)
        if self.is_linear:
            return num
        den = np.einsum("...ij,ij->...", confs, self.denominator_B)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(den >= DENOMINATOR_FLOOR, num / den, np.nan)

    def evaluate(self, conf: np.ndarray) -> float:
        return _defined(self.evaluate_batch(conf), f"<B, C> below floor {DENOMINATOR_FLOOR:.1e}")


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

    def to_dict(self) -> dict:
        """Document form of an (M, K, K) stack; a K x K loss, shared by every output, has none."""
        if self.values.ndim != 3:
            raise ValueError(f"loss of shape {self.values.shape} is shared by every output")
        m_out, k, _ = self.values.shape
        return {"M": m_out, "K": k, "slices": self.values.tolist()}


@dataclass(frozen=True)
class MetricSpec:
    """A metric kind plus its parameters, bound to a class count K.

    Build instances through the classmethod constructors; they validate the
    parameters each kind needs.  The ratio-of-linear kinds carry their exact
    (A, B) form in ``ratio``, which every value and gradient of theirs is
    computed from; the other kinds leave it None.
    """

    kind: str
    n_classes: int
    gamma: float | None = None
    ratio: FractionalLinearMetric | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.n_classes < 2:
            raise ValueError("metrics require at least 2 classes")

    @classmethod
    def _linear(cls, kind: str, numerator: np.ndarray, gamma: float | None = None) -> "MetricSpec":
        k = numerator.shape[0]
        return cls(kind, k, gamma, FractionalLinearMetric(numerator, np.ones((k, k))))

    @classmethod
    def ordinal(cls, n_classes: int) -> "MetricSpec":
        idx = np.arange(1, n_classes + 1, dtype=float)
        # max() only spares K = 1 a division by zero; __post_init__ refuses K = 1
        distance = np.abs(idx[:, None] - idx[None, :]) / max(n_classes - 1, 1)
        return cls._linear("ordinal", 1.0 - distance)

    @classmethod
    def micro_f1(cls, n_classes: int, negative_class: int = 1) -> "MetricSpec":
        if not 1 <= negative_class <= n_classes:
            raise ValueError(f"negative class {negative_class} outside [1, {n_classes}]")
        g = negative_class - 1
        numer = 2.0 * np.eye(n_classes)
        numer[g, g] = 0.0
        denom = np.full((n_classes, n_classes), 2.0)
        denom[g, :] -= 1.0
        denom[:, g] -= 1.0
        return cls("micro_f1", n_classes, ratio=FractionalLinearMetric(numer, denom))

    @classmethod
    def macro_f1(cls, n_classes: int) -> "MetricSpec":
        return cls("macro_f1", n_classes)

    @classmethod
    def weighted_exp(cls, n_classes: int, gamma: float) -> "MetricSpec":
        if not np.isfinite(gamma):
            raise ValueError("gamma must be finite")
        gamma = float(gamma)
        weights = np.exp(-gamma * np.arange(1, n_classes + 1, dtype=float))
        return cls._linear("weighted_exp", np.diag(weights), gamma)

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
        return cls("fractional_linear", flm.n_classes, ratio=flm)

    @classmethod
    def loss_based(cls, loss) -> "MetricSpec":
        loss = LossTensor(loss)
        if loss.values.ndim != 2:
            raise ValueError(f"loss_based needs one K x K loss, got shape {loss.values.shape}")
        return cls._linear("loss_based", 1.0 - loss.values)


def _eval_batch(spec: MetricSpec, confs: np.ndarray) -> np.ndarray:
    """Evaluate the metric over stacked confusions of shape (..., K, K).

    No input validation; degenerate fractional denominators yield NaN instead
    of raising, so ``averaging.averaged`` can mark them in a batch.
    """
    if spec.ratio is not None:
        return spec.ratio.evaluate_batch(confs)
    confs = np.asarray(confs, dtype=float)
    kind = spec.kind
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
    any total mass, such as a finite-difference probe off the simplex: linear
    kinds then scale with the mass, and fractional kinds, being
    scale-invariant, keep their value.
    """
    conf = _validate_confusion(spec, conf, check_mass)
    return _defined(_eval_batch(spec, conf), "metric undefined on this confusion")


def metric_gradient(spec: MetricSpec, conf: np.ndarray) -> np.ndarray:
    """Analytic gradient of the metric at ``conf`` as a K x K matrix.

    min_max is not differentiable and is rejected.
    """
    if spec.kind not in _DIFFERENTIABLE_KINDS:
        raise ValueError(f"gradient unavailable for {spec.kind}")
    conf = _validate_confusion(spec, conf, check_mass=False)
    flm = spec.ratio
    if flm is not None:
        if flm.is_linear:
            return np.array(flm.numerator_A)
        value = flm.evaluate(conf)
        return (flm.numerator_A - value * flm.denominator_B) / np.sum(flm.denominator_B * conf)
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
    """The spec's exact (A, B) representation, psi(C) = <A, C>/<B, C>.

    Linear kinds have B = all-ones.  macro_f1, min_max, and polynomial have
    no global fractional-linear form and are rejected.
    """
    if spec.ratio is None:
        raise ValueError(f"not fractional-linear: {spec.kind}")
    return spec.ratio


def loss_from_gamma(flm: FractionalLinearMetric, gamma: float) -> LossTensor:
    """K x K loss gamma*B - A, rescaled into [0, 1].

    A constant raw matrix collapses to the zero matrix.  The rescaling never
    changes the induced weighted decision (it is a positive affine map).
    """
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    raw = gamma * flm.denominator_B - flm.numerator_A
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        return LossTensor(np.zeros_like(raw))
    return LossTensor((raw - lo) / (hi - lo))


# the params each kind reads; a document naming any other is refused
_PARAMS = {"micro_f1": ("negative_class",), "weighted_exp": ("gamma",), "polynomial": ("gamma",),
           "fractional_linear": ("A", "B"), "loss_based": ("L",)}


def _number(value, kind_of, field: str, what: str):
    if isinstance(value, kind_of) and not isinstance(value, bool):
        return value
    raise ValueError(f"metric {field} must be {what}, got {value!r}")


def _matrix(config: dict, params: dict, name: str) -> np.ndarray:
    """The matrix ``name`` of a document, given inline or in its params."""
    value = config.get(name, params.get(name))
    if value is None:
        raise ValueError(f'{config["kind"]} config requires matrix "{name}"')
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"metric {name} must be a numeric matrix, got {value!r}") from None


def metric_from_config(config: dict, n_classes: int | None = None) -> MetricSpec:
    """Build a MetricSpec from its document form.

    The document is ``{"kind": ..., "params": {...}}``; fractional_linear and
    loss_based carry their matrices inline as row-major nested lists ("A",
    "B", "L").  Class semantics are 1-based.  ``n_classes`` is required for
    kinds that do not embed a matrix.  A document or ``params`` that is not a
    JSON object, a parameter the kind does not read, a field that does not
    convert, or a bool or fractional value where a number or an integer is
    due, is a ValueError naming it.
    """
    if not isinstance(config, dict):
        raise ValueError(f"metric config must be a JSON object, got {config!r}")
    if "kind" not in config:
        raise ValueError('metric config must have a "kind" field')
    kind = config["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"metric params must be a JSON object, got {params!r}")
    unknown = [name for name in params if name not in _PARAMS.get(kind, ())]
    if unknown:
        raise ValueError(f"metric params.{unknown[0]} is not a parameter of {kind}")
    if kind == "fractional_linear":
        a, b = _matrix(config, params, "A"), _matrix(config, params, "B")
        return MetricSpec.fractional_linear(a, b)
    if kind == "loss_based":
        return MetricSpec.loss_based(_matrix(config, params, "L"))
    if n_classes is None:
        raise ValueError(f"metric kind {kind!r} requires n_classes")
    if kind == "ordinal":
        return MetricSpec.ordinal(n_classes)
    if kind == "micro_f1":
        g = _number(params.get("negative_class", 1), Integral, "params.negative_class", "an integer")
        return MetricSpec.micro_f1(n_classes, negative_class=g)
    if kind == "macro_f1":
        return MetricSpec.macro_f1(n_classes)
    if kind in ("weighted_exp", "polynomial"):
        if "gamma" not in params:
            raise ValueError(f"{kind} config requires params.gamma")
        try:
            gamma = float(_number(params["gamma"], Real, "params.gamma", "a number"))
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError("metric params.gamma is too large for a float") from None
        return getattr(MetricSpec, kind)(n_classes, gamma)
    # min_max is the one kind left
    return MetricSpec.min_max(n_classes)
