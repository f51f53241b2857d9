"""Hamiltonian constructors for the dimer exciton-phonon model families.

All energies are angular frequencies (hbar = 1). The electronic space is the
two-dimensional single-exciton manifold spanned by |1> and |2> (site basis);
phonon modes are truncated to their lowest ``n_max`` Fock levels.

Model families:

* shared anti-correlated: one mode per frequency, coupled through
  ``|1><1| - |2><2|``;
* independent local: one mode per site and frequency, coupled through the
  site projectors with a configurable coupling scale (default sqrt(2));
* transformed: the relative/center-of-mass rewriting of the independent
  model, with the center-of-mass mode coupled through the identity;
* correlated alpha: each site's mode also couples to the other site with
  weight alpha (alpha = 0 reduces to independent local at unit scale);
* reduced effective: the shared anti-correlated model with couplings
  rescaled by (1 - alpha)/sqrt(2).

``MODEL_KINDS`` is the one record of a family: its config name, which a
model keeps as ``TotalModel.kind``, gives its report label, the labels of
one mode's Fock factors and the parameter its builder takes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .spaces import (
    HERMITICITY_RTOL,
    Operator,
    SpaceLayout,
    occupation_basis,
)

SQRT2 = math.sqrt(2.0)

# The dense path peaks in eigh at 4 dim^2 float64: LAPACK's copy of H,
# dsyevd's 2 dim^2 workspace and the eigenvectors. H itself reaches eigh as
# Operator.lower_triangle, whose written diagonals take 4 KiB pages and the
# rest none. At dim 1250 the four are 47.7 MiB of pair_2mode's peak above
# its set-up, library pages the rest (numpy 2.4, one OpenBLAS thread). At
# this cap the four come to 537 MB.
DEFAULT_DIM_CAP = 4096


class DimensionCapError(RuntimeError):
    """Total dimension exceeds the configured dense-solver cap."""


class ModelBuildError(ValueError):
    """A builder rejected its parameters; names the model kind and why."""


# bath partition labels, one per Fock factor
SHARED = "shared"
LOCAL_SITE_1 = "local-site-1"
LOCAL_SITE_2 = "local-site-2"
RELATIVE_B = "relative-b"
CENTER_OF_MASS_B = "center-of-mass-B"


@dataclass(frozen=True)
class ModelKind:
    """What the config-facing name of a model family stands for."""

    label: str  # report label; its builder is build_<label>
    partition: tuple[str, ...]  # the labels of one mode's Fock factors
    parameter: str | None  # "alpha", "coupling_scale" or None


# config name -> model kind; the only place that knows the model families
MODEL_KINDS = {
    "shared": ModelKind("shared_anticorrelated", (SHARED,), None),
    "independent": ModelKind("independent_local",
                             (LOCAL_SITE_1, LOCAL_SITE_2), "coupling_scale"),
    "transformed": ModelKind("transformed", (RELATIVE_B, CENTER_OF_MASS_B),
                             None),
    "correlated": ModelKind("correlated_alpha", (LOCAL_SITE_1, LOCAL_SITE_2),
                            "alpha"),
    "reduced_effective": ModelKind("reduced_effective", (SHARED,), "alpha"),
}


@dataclass(frozen=True)
class ElectronicParams:
    """Site energies and electronic coupling of the dimer."""

    eps1: float
    eps2: float
    j: float

    def __post_init__(self):
        for name in ("eps1", "eps2", "j"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ModeSpec:
    """One phonon mode: frequency omega > 0 and exciton-phonon coupling g."""

    omega: float
    g: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"mode frequency must be positive, got {self.omega}")
        if not math.isfinite(self.g):
            raise ValueError("mode coupling must be finite")


@dataclass(frozen=True)
class TotalModel:
    """A total Hamiltonian plus the metadata needed to rebuild it.

    ``kind`` is the config name of the model family, a key of MODEL_KINDS.
    ``modes`` always stores the *unscaled* input modes so that :meth:`rebuild`
    can re-derive the Hamiltonian at a different truncation. ``n_max``,
    ``bath_partition`` and ``factor_frequencies`` are read from kind, modes
    and the layout, which has one Fock factor per partition label.
    """

    hamiltonian: Operator
    kind: str
    electronic: ElectronicParams
    modes: tuple[ModeSpec, ...]
    alpha: float | None = None
    coupling_scale: float | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if len(self.layout.dims) != 1 + len(self.bath_partition):
            raise ValueError("one Fock factor per partition label required")
        if not self.hamiltonian.is_hermitian(HERMITICITY_RTOL):
            raise ValueError("total Hamiltonian is not Hermitian")

    @property
    def layout(self) -> SpaceLayout:
        return self.hamiltonian.layout

    @property
    def n_max(self) -> int:
        return self.layout.dims[1]

    @property
    def bath_partition(self) -> tuple[str, ...]:
        return MODEL_KINDS[self.kind].partition * len(self.modes)

    @property
    def factor_frequencies(self) -> tuple[float, ...]:
        return tuple(m.omega for m in self.modes for _ in
                     MODEL_KINDS[self.kind].partition)

    def describe(self) -> str:
        s = MODEL_KINDS[self.kind].label
        if self.alpha is not None:
            s += f"(alpha={self.alpha:g})"
        if self.coupling_scale is not None and self.coupling_scale != SQRT2:
            s += f"(scale={self.coupling_scale:g})"
        return s + f"[M={len(self.modes)}, n_max={self.n_max}]"

    def rebuild(self, n_max: int, dim_cap: int = DEFAULT_DIM_CAP
                ) -> "TotalModel":
        """Same model family and parameters at a different Fock truncation."""
        return build(self.kind, self.electronic, self.modes, n_max,
                     self.alpha, self.coupling_scale, dim_cap)


def check_dim_cap(name: str, n_modes: int, n_max: int, dim_cap: int):
    """Raise DimensionCapError if the model of config kind ``name`` with
    ``n_modes`` modes at ``n_max`` levels has more than dim_cap states.

    The dimension 2 n_max^k of k Fock factors has more than k (b - 1) bits
    for an n_max of b bits. A model whose bound is over 64 bits past the
    cap's is rejected without forming the power, which is shown as
    2*n_max^k: thousands of modes would make it too long to print.
    """
    n_fock = len(MODEL_KINDS[name].partition) * n_modes
    if n_fock * (int(n_max).bit_length() - 1) <= dim_cap.bit_length() + 64:
        dim = 2 * n_max ** n_fock
        if dim <= dim_cap:
            return
    else:
        dim = f"2*{n_max}^{n_fock}"
    raise DimensionCapError(f"{name} model at n_max {n_max} has total "
                            f"dimension {dim}, over cap {dim_cap}")


def build(name: str, p: ElectronicParams, modes: Sequence[ModeSpec],
          n_max: int, alpha: float | None = None,
          coupling_scale: float | None = None,
          dim_cap: int = DEFAULT_DIM_CAP) -> TotalModel:
    """Model of config kind ``name``, checked against dim_cap before any
    assembly; its builder gets only the parameter that MODEL_KINDS names
    for the kind (alpha, coupling_scale or none), and a ValueError it raises
    becomes a ModelBuildError. The ``build_<label>`` builders below are the
    uncapped primitives."""
    check_dim_cap(name, len(modes), n_max, dim_cap)
    kind = MODEL_KINDS[name]
    # looked up at call time, so a wrapper set on the module attribute sees it
    builder = globals()["build_" + kind.label]
    given = {"alpha": alpha, "coupling_scale": coupling_scale}
    try:
        return builder(p, modes, n_max, **{
            k: v for k, v in given.items() if k == kind.parameter})
    except ValueError as exc:  # e.g. couplings that overflow the Hamiltonian
        raise ModelBuildError(f"cannot build the {name} model: {exc}") from exc


def _assemble(p: ElectronicParams, n_max: int, frequencies: Sequence[float],
              couplings: Sequence[tuple[float, tuple[float, float]]]
              ) -> Operator:
    """H_e + sum_k omega_k n_k + sum_k g_k (c1 |1><1| + c2 |2><2|)(b_k + b_k^dag).

    One (g_k, (c1, c2)) coupling per Fock factor k. H is emitted once as
    (row, col, value) triplets by index lookup in the occupation basis: the
    state at row e B + i is electronic state e with bath occupations
    basis[i]. Each (row, col) is written once. No dense H is kept: eigh
    reads the operator's ``lower_triangle``, other readers its ``matrix``.
    """
    dims = (n_max,) * len(frequencies)
    basis = occupation_basis(dims)
    n_bath = len(basis)
    rows, cols, values = [], [], []

    def emit(r, c, v):
        rows.append(r)
        cols.append(c)
        values.append(np.broadcast_to(v, r.shape))

    # H_e = [[eps1, j], [j, eps2]] in the site basis; integer params too
    h_e = np.array([[p.eps1, p.j], [p.j, p.eps2]], dtype=np.float64)
    bath = np.arange(n_bath)
    for e in (0, 1):
        energy = np.full(n_bath, h_e[e, e])
        for k, omega in enumerate(frequencies):
            energy += omega * basis[:, k]
        emit(e * n_bath + bath, e * n_bath + bath, energy)
        emit(e * n_bath + bath, (1 - e) * n_bath + bath, h_e[e, 1 - e])
    # (b + b^dag) connects occupation n of factor k with n - 1, amplitude sqrt(n)
    for k, (g, sites) in enumerate(couplings):
        if g == 0.0:
            continue
        upper = np.flatnonzero(basis[:, k])
        n = basis[upper, k]
        lowered = basis[upper]
        lowered[:, k] -= 1
        lower = np.ravel_multi_index(lowered.T, dims)
        for e, c in enumerate(sites):
            if c == 0.0:
                continue
            # 0.0 + v, as summed onto an empty entry: an underflowed -0.0
            # is stored as +0.0
            value = 0.0 + g * (c * np.sqrt(n))
            emit(e * n_bath + lower, e * n_bath + upper, value)
            emit(e * n_bath + upper, e * n_bath + lower, value)
    return Operator(SpaceLayout((2,) + dims),
                    np.concatenate(rows), np.concatenate(cols),
                    np.concatenate(values))


def _model(kind: str, p: ElectronicParams, modes: Sequence[ModeSpec],
           n_max: int, factors: Sequence[tuple[float, float]],
           g_scale: float = 1.0, **parameters) -> TotalModel:
    """Model of config kind ``kind``: per mode, one Fock factor per entry
    (c1, c2) of ``factors``, labelled by the kind's MODEL_KINDS partition and
    coupled to the exciton through c1 |1><1| + c2 |2><2| with strength
    g_scale g of its mode.
    """
    if not modes:
        raise ValueError("mode list must be non-empty")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    frequencies = tuple(m.omega for m in modes for _ in factors)
    couplings = [(g_scale * m.g, sites) for m in modes for sites in factors]
    # the extreme entries of H, in Python floats and in _assemble's order, so
    # an overflow is named before numpy meets it: g (c sqrt(n_max - 1)) off
    # the diagonal, eps_e + sum_k omega_k (n_max - 1) on it
    top = n_max - 1
    extremes = [g * (c * math.sqrt(top))
                for g, sites in couplings if g != 0.0 for c in sites if c != 0.0]
    extremes += [sum((w * top for w in frequencies), eps)
                 for eps in (p.eps1, p.eps2)]
    if not all(map(math.isfinite, extremes)):
        raise ValueError("a Hamiltonian entry overflows float64")
    h = _assemble(p, n_max, frequencies, couplings)
    return TotalModel(h, kind, p, tuple(modes), **parameters)


def build_shared_anticorrelated(p: ElectronicParams, modes: Sequence[ModeSpec],
                                n_max: int) -> TotalModel:
    """Shared bath: every mode couples through |1><1| - |2><2|."""
    return _model("shared", p, modes, n_max, [(1.0, -1.0)])


def build_independent_local(p: ElectronicParams, modes: Sequence[ModeSpec],
                            n_max: int,
                            coupling_scale: float | None = None) -> TotalModel:
    """Local baths: per mode frequency, one mode per site with scaled coupling.

    Fock factors are interleaved (site1, xi), (site2, xi) per mode xi.
    """
    scale = SQRT2 if coupling_scale is None else float(coupling_scale)
    return _model("independent", p, modes, n_max, [(1.0, 0.0), (0.0, 1.0)],
                  g_scale=scale, coupling_scale=scale)


def build_transformed(p: ElectronicParams, modes: Sequence[ModeSpec],
                      n_max: int) -> TotalModel:
    """Relative/center-of-mass rewriting of the independent local model.

    Per mode xi the relative factor couples through |1><1| - |2><2| and the
    center-of-mass factor through the electronic identity; factors are
    interleaved (relative, center-of-mass) per xi.
    """
    return _model("transformed", p, modes, n_max, [(1.0, -1.0), (1.0, 1.0)])


def build_correlated_alpha(p: ElectronicParams, modes: Sequence[ModeSpec],
                           n_max: int, alpha: float) -> TotalModel:
    """Correlated baths: site mode xi couples to the other site with weight alpha."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if abs(alpha) > 1:
        warnings.warn(f"|alpha| = {abs(alpha):g} > 1 is outside the usual range",
                      stacklevel=2)
    alpha = float(alpha)
    return _model("correlated", p, modes, n_max, [(1.0, alpha), (alpha, 1.0)],
                  alpha=alpha)


def build_reduced_effective(p: ElectronicParams, modes: Sequence[ModeSpec],
                            n_max: int, alpha: float) -> TotalModel:
    """Single-bath model with the alpha-dependent effective coupling.

    Entrywise equal to the shared anti-correlated model with every g
    replaced by g (1 - alpha)/sqrt(2).
    """
    scaled = tuple(replace(m, g=effective_coupling(m.g, alpha)) for m in modes)
    return replace(build_shared_anticorrelated(p, scaled, n_max),
                   kind="reduced_effective", modes=tuple(modes),
                   alpha=float(alpha))


def effective_coupling(g: float, alpha: float) -> float:
    """Effective anti-correlated coupling g (1 - alpha)/sqrt(2)."""
    if not (math.isfinite(g) and math.isfinite(alpha)):
        raise ValueError("g and alpha must be finite")
    return g * (1.0 - alpha) / SQRT2


def ohmic_drude_modes(lambda_reorg: float, gamma_cutoff: float, m: int,
                      omega_max: float) -> list[ModeSpec]:
    """Equally spaced discretization of an Ohmic Drude-Lorentz density.

    J(w) = 2 lambda gamma w / (w^2 + gamma^2) sampled at w_k = k dw on
    (0, omega_max], with g_k = sqrt(J(w_k) dw / pi). The reorganization sum
    sum_k g_k^2 / w_k converges to lambda as m and omega_max grow. Each g_k
    is formed in Python floats, so a g_k that overflows float64 is a
    ValueError, not a numpy RuntimeWarning.
    """
    if lambda_reorg < 0 or gamma_cutoff <= 0 or omega_max <= 0:
        raise ValueError("spectral density parameters must be positive")
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    dw = omega_max / m
    modes = []
    for k in range(1, m + 1):
        w = dw * k
        try:  # gamma^2 overflows, or w^2 + gamma^2 underflows to 0
            j_w = 2.0 * lambda_reorg * gamma_cutoff * w / (w * w + gamma_cutoff**2)
        except ArithmeticError:
            j_w = math.inf
        g = math.sqrt(j_w * dw / math.pi)
        if not math.isfinite(g):
            raise ValueError(f"coupling at omega {w:g} overflows float64")
        modes.append(ModeSpec(w, g))
    return modes
