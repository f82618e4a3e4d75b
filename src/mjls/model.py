"""Problem data for jump-linear quadratic control.

A :class:`MjlsModel` bundles the per-mode system and weight matrices together
with the Markov chain that drives the mode switching:

    x(k+1) = A[i] x(k) + B[i] u(k)    while the chain is in mode i,

with stage cost x'Q[i]x + u'R[i]u.  The chain moves from mode i to mode j
with probability transition[i, j] (rows index the current mode), starts from
``initial_distribution`` and the state starts from ``x0``.

Per-mode data are read-only stacked arrays, ``A`` (L, n, n), ``B``
(L, n, m), ``Q`` (L, n, n) and ``R`` (L, m, m), so solvers treat all modes
at once; only the optional output factors ``C`` stay a per-mode list.

The lifted second-moment map T(X)[j] = sum_i transition[i, j] Abar[i] X[i]
Abar[i]' of a closed-loop stack and its adjoint T* are the kernel here:
:func:`lifted_apply`, :func:`lifted_adjoint` and the dense
:func:`lifted_matrix` (Costa, Fragoso & Marques 2005, ch. 3).

Everything downstream (Riccati recursions, stability tests, simulation,
brute-force verification) consumes a validated model.  Validation never
raises; it returns a report listing each invariant with its measured
residual.  Mode indices are 0-based throughout the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_json
from .errors import InvalidInput, NumericalFailure, PreconditionFailed

__all__ = [
    "MjlsModel",
    "Policy",
    "ValidationCheck",
    "ValidationReport",
    "validate",
    "load_model",
    "save_model",
]

# Tolerances of validation (see ValidationReport) and of every positive
# definiteness test (PD_TOL, see pd_floor).
ROW_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
FACTOR_TOL = 1e-10
PD_TOL = 1e-10
# Largest lifted size L n^2 at which the (L n^2)-square second-moment
# operator is formed densely: its eigenvalues (stability.is_mss) take under
# 0.5 ms, and the coupled Lyapunov solve of a Newton step
# (riccati.solve_care) adds well under 1 MB of resident memory.
DENSE_LIMIT = 32


def _as_matrix(value, name):
    try:
        arr = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be a matrix of numbers") from exc
    if arr.ndim != 2:
        raise InvalidInput(f"{name} must be a matrix, got ndim={arr.ndim}")
    return arr


def _as_stack(seq, name, shape=None):
    """Per-mode matrices as one (L, rows, cols) float array, ``seq`` itself
    when it is one already; shapes must agree, and equal ``shape`` if
    given."""
    if not (isinstance(seq, np.ndarray) and seq.ndim == 3):
        try:
            mats = [_as_matrix(mat, f"{name}[{i}]")
                    for i, mat in enumerate(seq)]
        except TypeError as exc:
            raise InvalidInput(f"{name} must be a list of matrices") from exc
        shapes = {mat.shape for mat in mats}
        if len(shapes) != 1:
            raise InvalidInput(f"{name} matrices differ in shape across "
                               f"modes: {sorted(shapes)}")
        seq = np.stack(mats)
    stack = np.asarray(seq, dtype=float)
    if shape is not None and stack.shape != shape:
        raise InvalidInput(f"{name} must be {shape[0]} matrices of "
                           f"{shape[1]}x{shape[2]}, got {stack.shape}")
    return stack


def sym(matrix):
    """Explicitly symmetrize a matrix or a stack of them (stops drift)."""
    return 0.5 * (matrix + matrix.swapaxes(-1, -2))


def pd_floor(mats):
    """Smallest eigenvalues of a finite stack of symmetric matrices (lower
    triangles read) and the floors ``PD_TOL * (1 + two-norm)`` they must
    exceed to certify definiteness; one ``eigvalsh`` serves both."""
    eig = np.linalg.eigvalsh(mats)
    return eig[..., 0], PD_TOL * (1.0 + np.abs(eig).max(axis=-1))


def require_finite(stack, what: str):
    """Raise :class:`NumericalFailure` naming the first mode (leading
    index) where ``stack`` is not finite."""
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
        raise NumericalFailure(
            f"{what} is not finite in mode {int(np.argmin(finite))}")


@dataclass
class ValidationCheck:
    name: str
    ok: bool
    residual: float
    detail: str = ""

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        line = f"{status}  {self.name}  residual={self.residual:.3e}"
        return line + (f"  ({self.detail})" if self.detail else "")


@dataclass
class ValidationReport:
    checks: list[ValidationCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.ok]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


@dataclass(eq=False)
class MjlsModel:
    """Markov jump linear system with quadratic stage weights.

    Parameters
    ----------
    A, B, Q, R : sequences of per-mode matrices or (L, ., .) arrays
        System matrices (n x n, n x m) and weights (n x n, m x m); stored as
        read-only stacked arrays.
    transition : (L, L) array
        Row-stochastic matrix; entry [i, j] is the probability of jumping
        from mode i to mode j.
    initial_distribution : (L,) array
        Distribution of the initial mode.
    x0 : (n,) array
        Known initial state.
    C : optional sequence of per-mode factors with C[i]'C[i] = Q[i]
        Output maps, checked against Q and kept in model files; no
        computation reads them.

    :meth:`terminal_weights` and :meth:`feedback_gains` are the one check
    of terminal weights and policies against the model.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    transition: np.ndarray
    initial_distribution: np.ndarray
    x0: np.ndarray
    C: list | None = None
    _validation: ValidationReport | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        lists = {"A": self.A, "B": self.B, "Q": self.Q, "R": self.R}
        lengths = {name: len(seq) for name, seq in lists.items()}
        if len(set(lengths.values())) != 1 or lengths["A"] == 0:
            raise InvalidInput(f"per-mode matrix lists disagree: {lengths}")
        for name, seq in lists.items():
            # A copy: the model freezes the arrays it holds.
            setattr(self, name, np.array(_as_stack(seq, name)))
        if self.C is not None:
            if len(self.C) != lengths["A"]:
                raise InvalidInput("C list length does not match mode count")
            self.C = [None if mat is None else _as_matrix(mat, f"C[{i}]")
                      for i, mat in enumerate(self.C)]
        self.transition = _as_matrix(self.transition, "transition")
        self.initial_distribution, self.x0 = (
            np.asarray(vec, dtype=float).reshape(-1)
            for vec in (self.initial_distribution, self.x0))
        for arr in self._all_arrays():
            arr.flags.writeable = False

    def _all_arrays(self):
        yield from (self.A, self.B, self.Q, self.R)
        yield from (mat for mat in self.C or [] if mat is not None)
        yield self.transition
        yield self.initial_distribution
        yield self.x0

    @property
    def mode_count(self) -> int:
        return len(self.A)

    @property
    def state_dim(self) -> int:
        return self.A.shape[1]

    @property
    def input_dim(self) -> int:
        return self.B.shape[2]

    def validate(self) -> ValidationReport:
        """Run every model invariant; cached after the first call."""
        if self._validation is None:
            self._validation = validate(self)
        return self._validation

    def ensure_valid(self):
        """Raise :class:`InvalidInput` unless every invariant passes."""
        report = self.validate()
        if not report.ok:
            lines = "; ".join(str(c) for c in report.failures)
            raise InvalidInput(f"model failed validation: {lines}")

    def require_pd_input_weights(self):
        """Raise :class:`PreconditionFailed` unless every R[i] is positive
        definite (smallest eigenvalue above ``PD_TOL * (1 + ||R[i]||)``)."""
        low, floor = pd_floor(sym(self.R))
        if (low <= floor).any():
            i = int(np.argmax(low <= floor))
            raise PreconditionFailed(
                f"R[{i}] must be positive definite "
                f"(min eigenvalue {low[i]:.3e})")

    def state_stack(self, mats, name: str) -> np.ndarray:
        """``mats`` as an (L, n, n) float stack, not copied if it is one;
        raises :class:`InvalidInput` for another count or shape."""
        return _as_stack(mats, name, self.A.shape)

    def terminal_weights(self, terminal) -> np.ndarray:
        """Terminal weights as the (L, n, n) stack of the values given
        (``None``: zero).  Raises :class:`InvalidInput` unless each is
        finite, symmetric within ``SYMMETRY_TOL`` and PSD: no eigenvalue of
        its symmetric part below minus its :func:`pd_floor`."""
        if terminal is None:
            return np.zeros(self.A.shape)
        term = self.state_stack(terminal, "terminal")
        # NaN from non-finite entries fails the symmetry test too.
        bad = ~(np.max(np.abs(term - term.transpose(0, 2, 1)), axis=(1, 2))
                <= SYMMETRY_TOL)
        if bad.any():
            raise InvalidInput(f"terminal[{int(np.argmax(bad))}] must be "
                               "finite and symmetric")
        low, floor = pd_floor(sym(term))
        if (low < -floor).any():
            raise InvalidInput(f"terminal[{int(np.argmax(low < -floor))}] "
                               "must be positive semi-definite")
        return term

    def feedback_gains(self, policy: "Policy | None",
                       stages: int | None = None) -> np.ndarray:
        """The (L, m, n) gains of ``policy`` (``None``: zero feedback) or,
        given ``stages``, the (stages, L, m, n) gains of stages 0..stages-1,
        a stationary policy repeated as a read-only view.  Raises
        :class:`InvalidInput` unless there is one m x n gain per mode and a
        staged policy gets ``stages`` within its horizon."""
        L, n, m = self.mode_count, self.state_dim, self.input_dim
        gains = np.zeros((L, m, n)) if policy is None else policy.gains
        if gains.shape[-3:] != (L, m, n):
            raise InvalidInput(f"gains must be {L} modes of {m}x{n}, "
                               f"got {gains.shape[-3:]}")
        if policy is not None and policy.staged:
            if stages is None:
                raise InvalidInput("a stationary policy is required here")
            if len(gains) < stages:
                raise InvalidInput(f"staged policy covers {len(gains)} "
                                   f"stages, {stages} needed")
            return gains[:stages]
        return gains if stages is None else \
            np.broadcast_to(gains, (stages,) + gains.shape)

    def to_dict(self) -> dict:
        modes = [{name: getattr(self, name)[i].tolist() for name in "ABQR"}
                 for i in range(self.mode_count)]
        for entry, c in zip(modes, self.C or []):
            if c is not None:
                entry["C"] = c.tolist()
        return {
            "modes": modes,
            "transition": self.transition.tolist(),
            "initial_distribution": self.initial_distribution.tolist(),
            "x0": self.x0.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MjlsModel":
        try:
            modes = data["modes"]
            if not isinstance(modes, list) or not modes:
                raise InvalidInput("'modes' must be a non-empty list")
            if not all(isinstance(mode, dict) for mode in modes):
                raise InvalidInput("every entry of 'modes' must be an object")
            C = [mode.get("C") for mode in modes]
            return cls(
                **{name: [mode[name] for mode in modes] for name in "ABQR"},
                transition=data["transition"],
                initial_distribution=data["initial_distribution"],
                x0=data["x0"],
                C=C if any(c is not None for c in C) else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed model data: {exc}") from exc


@dataclass(eq=False)
class Policy:
    """Mode-indexed linear state feedback u(k) = F[i] x(k).

    Stationary policies hold one m x n gain per mode, stored as a read-only
    (L, m, n) array; staged policies hold a (stages, L, m, n) table indexed
    as gains[k][i] for stages k = 0..horizon.
    """

    gains: np.ndarray
    staged: bool = False

    def __post_init__(self):
        stages = self.gains if self.staged else [self.gains]
        try:
            table = np.stack([_as_stack(per_mode, f"gain[{k}]")
                              for k, per_mode in enumerate(stages)])
        except ValueError as exc:
            raise InvalidInput("policy gains must share one shape") from exc
        if not np.all(np.isfinite(table)):
            raise InvalidInput("policy gains must be finite")
        table.flags.writeable = False
        self.gains = table if self.staged else table[0]

    @classmethod
    def stationary(cls, gains) -> "Policy":
        return cls(gains=gains, staged=False)

    @classmethod
    def from_stages(cls, staged_gains) -> "Policy":
        return cls(gains=staged_gains, staged=True)


def validate(model: MjlsModel) -> ValidationReport:
    """Check every model invariant and report measured residuals.

    Validation never aborts: each invariant contributes one entry whether it
    passes or fails, so a failing report lists everything that is wrong.
    """
    checks = []
    L, n, m = model.mode_count, model.state_dim, model.input_dim

    expected = {"A": (L, n, n), "B": (L, n, m), "Q": (L, n, n),
                "R": (L, m, m), "transition": (L, L),
                "initial_distribution": (L,), "x0": (n,)}
    mismatches = [f"{name}{getattr(model, name).shape}"
                  for name, shape in expected.items()
                  if getattr(model, name).shape != shape]
    mismatches += [f"C[{i}]{mat.shape}" for i, mat in enumerate(model.C or [])
                   if mat is not None and mat.shape[1] != n]
    checks.append(ValidationCheck(
        "dimensions", not mismatches, float(len(mismatches)),
        ", ".join(mismatches)))

    nonfinite = sum(int(np.sum(~np.isfinite(arr)))
                    for arr in model._all_arrays())
    checks.append(ValidationCheck(
        "finite entries", nonfinite == 0, float(nonfinite)))

    if model.transition.shape == (L, L):
        row_residual = float(np.max(np.abs(model.transition.sum(axis=1) - 1.0)))
        checks.append(ValidationCheck(
            "transition row-stochastic", row_residual <= ROW_SUM_TOL,
            row_residual))
        neg = float(min(0.0, model.transition.min(initial=0.0)))
        checks.append(ValidationCheck(
            "transition nonnegative", neg == 0.0, -neg))

    pi0 = model.initial_distribution
    if pi0.shape == (L,):
        sum_residual = float(abs(pi0.sum() - 1.0))
        checks.append(ValidationCheck(
            "initial distribution sums to one", sum_residual <= ROW_SUM_TOL,
            sum_residual))
        neg = float(min(0.0, pi0.min(initial=0.0)))
        checks.append(ValidationCheck(
            "initial distribution nonnegative", neg == 0.0, -neg))

    for name in ("Q", "R"):
        mats = getattr(model, name)
        asym, worst = 0.0, 0.0
        if mats.shape[1] == mats.shape[2]:
            asym = float(np.max(np.abs(mats - mats.transpose(0, 2, 1))))
            eig = np.linalg.eigvalsh(
                sym(mats[np.isfinite(mats).all(axis=(1, 2))]))
            floor = -PSD_TOL * np.abs(eig).max(axis=-1, initial=0.0)
            worst = float(np.max(floor - eig[..., 0], initial=0.0))
        checks.append(ValidationCheck(
            f"{name} symmetric", asym <= SYMMETRY_TOL, asym))
        checks.append(ValidationCheck(
            f"{name} positive semi-definite", worst == 0.0, worst))

    if model.C is not None:
        worst = 0.0
        for i, mat in enumerate(model.C):
            if mat is None or mat.shape[1] != n or model.Q.shape[1:] != (n, n):
                continue
            err = float(np.linalg.norm(mat.T @ mat - model.Q[i], "fro"))
            worst = max(worst, err / (1.0 + float(np.linalg.norm(model.Q[i], "fro"))))
        checks.append(ValidationCheck(
            "C'C matches Q", worst <= FACTOR_TOL, worst))

    return ValidationReport(checks)


def coupled_average(P, transition) -> np.ndarray:
    """Stacked W[i] = sum_j transition[i, j] * P[j] over an (L, n, n) stack,
    symmetrized; one matrix product serves every row of ``transition``."""
    return sym((transition @ P.reshape(len(P), -1)).reshape(-1, *P.shape[1:]))


def lifted_apply(abar, transition, X) -> np.ndarray:
    """T(X)[j] = sum_i transition[i, j] abar[i] X[i] abar[i]' on (..., L, n,
    n) stacks, leading axes batched; not symmetrized, so any X maps as
    :func:`lifted_matrix` times its row-major vectorization."""
    Y = (abar @ X @ abar.swapaxes(-1, -2)).swapaxes(0, -3)
    Z = transition.T @ Y.reshape(len(transition), -1)
    return Z.reshape(Y.shape).swapaxes(0, -3)


def lifted_adjoint(abar, transition, X) -> np.ndarray:
    """T*(X)[i] = abar[i]' (sum_j transition[i, j] X[j]) abar[i] on an
    (L, n, n) stack, the average symmetrized (:func:`coupled_average`);
    ``lifted_matrix(abar, transition).T`` is its dense matrix."""
    return abar.swapaxes(-1, -2) @ coupled_average(X, transition) @ abar


def lifted_matrix(abar, transition) -> np.ndarray:
    """Dense matrix of :func:`lifted_apply` for the closed-loop stack
    ``abar``, on row-major vectorized moments stacked by mode: block
    (target mode j, source mode i) is transition[i, j] * kron(abar[i],
    abar[i]).  Its transpose is the matrix of :func:`lifted_adjoint`."""
    L, n = abar.shape[:2]
    kron = np.einsum("iab,icd->iacbd", abar, abar).reshape(L, n * n, n * n)
    return np.einsum("ij,iab->jaib", transition, kron).reshape(
        L * n * n, L * n * n)


def load_model(path) -> MjlsModel:
    """Read a model from a JSON file (see README for the schema)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput("model file must contain a JSON object")
    return MjlsModel.from_dict(data)


def save_model(model: MjlsModel, path):
    """Write a model to a JSON file, with the bytes of
    :func:`mjls.artifacts.write_json`."""
    write_json(model.to_dict(), path)
