"""The lattice core: model parameters, the window, its index maps, and the face of the window.

`evolve` builds its stencil straight from the model (`dynamics.model_stencil`)
on this core alone; `model` assembles the CSR operators and the S_N sectors
on top of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import specfun

N_MAX = 4  # the largest N of resolvent-check, whose chain enumeration it limits (`cli.load_config`)
# the largest N of the tasks that split by S_N symmetry, the largest the split is tested at:
# its orbit bases walk n! arrangements per orbit shape (`model._orbit_bases`), unbudgeted
SPLIT_N_MAX = 5
# bytes one step of a task may plan to hold: every capacity refusal compares an estimate with it
MEMORY_BUDGET = 2**32

# the PairPotential fields each kind reads
POTENTIAL_FIELDS = {
    "nearest_neighbor": {"strength"},
    "exponential": {"strength", "decay"},
    "power_law": {"strength", "decay"},
    "tabulated": {"table"},
}
POTENTIAL_KINDS = tuple(POTENTIAL_FIELDS)


@dataclass(frozen=True)
class PairPotential:
    """Bounded, decaying pair potential v(n)."""

    kind: str = "nearest_neighbor"
    strength: float = 1.0
    decay: float = 1.0
    table: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not (math.isfinite(self.strength) and math.isfinite(self.decay)):
            raise ValueError("potential strength and decay must be finite (v is bounded)")
        if self.kind == "power_law" and self.decay < 1.0:
            raise ValueError("power-law exponent must be >= 1")
        if self.kind == "exponential" and not self.decay > 0.0:
            raise ValueError("exponential decay rate must be > 0")
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated potential needs a table")
            if any(not math.isfinite(v) for v in self.table.values()):
                raise ValueError("tabulated potential must be bounded")

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n)
        a = np.abs(n)
        if self.kind == "nearest_neighbor":
            return np.where(a == 1, self.strength, 0.0)
        if self.kind == "exponential":
            return self.strength * np.exp(-self.decay * a)
        if self.kind == "power_law":
            return self.strength / (1.0 + a) ** self.decay
        out = np.zeros(n.shape, dtype=float)
        for k, v in self.table.items():
            out[n == int(k)] = v
        return out


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of H^(N)."""

    g: float
    h: float
    N: int
    potential: PairPotential = field(default_factory=PairPotential)
    statistics: str = "distinguishable"

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, not {self.g!r}")
        if not specfun.H_MIN <= abs(self.h) < math.inf:
            raise ValueError(f"|h| must be finite and >= {specfun.H_MIN:g} (Stark condition)")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.statistics != "distinguishable":
            raise ValueError(
                f"statistics {self.statistics!r} is not implemented; only 'distinguishable' "
                "runs (boson and fermion sectors are ROADMAP item 11)"
            )

    @property
    def x(self) -> float:
        return self.g / self.h

    def with_n(self, n: int) -> "ModelParams":
        return ModelParams(self.g, self.h, n, self.potential, self.statistics)


@dataclass(frozen=True)
class Window:
    """Single-particle truncation window [-L, L] plus the interior margin."""

    L: int
    interior_margin: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("window too small")
        if not (0 <= self.interior_margin <= self.L):
            raise ValueError("interior_margin must be in [0, L]")

    @property
    def n_sites(self) -> int:
        return 2 * self.L + 1


def site_range(window: Window) -> np.ndarray:
    return np.arange(-window.L, window.L + 1)


def flat_to_tuples(window: Window, n_particles: int) -> np.ndarray:
    """(dim, N) array of index tuples in lexicographic flat order."""
    d = window.n_sites
    dim = d**n_particles
    idx = np.arange(dim)
    out = np.empty((dim, n_particles), dtype=np.int64)
    for k in range(n_particles - 1, -1, -1):
        out[:, k] = idx % d - window.L
        idx //= d
    return out


class CapacityError(ValueError):
    """A problem size above a fixed capacity limit: a configuration error, not a failed check.

    `estimate` is the refused byte estimate (`within_budget`), None for any other limit.
    """

    def __init__(self, message: str, estimate: Optional[int] = None):
        super().__init__(message)
        self.estimate = estimate


def within_budget(need: int, what: str) -> int:
    """need, the bytes `what` is estimated to hold, checked against MEMORY_BUDGET before it is made.

    Returns need; raises CapacityError, naming the estimate and the budget, above it.
    """
    if need > MEMORY_BUDGET:
        raise CapacityError(
            f"{what} would hold about {need / 2**30:.2f} GiB, above the memory budget of "
            f"{MEMORY_BUDGET / 2**30:g} GiB",
            need,
        )
    return need


def potential_matrix(params: ModelParams, half_width: int) -> np.ndarray:
    """v(j1 - j2) on [-half_width, half_width]^2."""
    j = np.arange(-half_width, half_width + 1)
    return params.potential.values(j[:, None] - j[None, :])


def pairs(n_particles: int) -> list:
    return list(itertools.combinations(range(n_particles), 2))


def _frobenius(x: np.ndarray) -> float:
    # an einsum over the real view; a BLAS dot (np.vdot, np.linalg.norm) of a
    # sector block ran 25x slower with two OpenBLAS threads than with one
    v = x.ravel().view(np.float64)
    return math.sqrt(np.einsum("i,i->", v, v))


def _face_rows(window: Window, n_particles: int) -> np.ndarray:
    """Flat indices of the outermost index shell, max_i |m_i| = L."""
    d, edge = window.n_sites, np.abs(site_range(window)) == window.L
    face = np.zeros((d,) * n_particles, dtype=bool)
    for k in range(n_particles):
        face |= edge.reshape((d,) + (1,) * (n_particles - 1 - k))  # |m_k| = L
    return np.flatnonzero(face)


def boundary_shell_mass(vectors: np.ndarray, window: Window, n_particles: int) -> np.ndarray:
    """Squared-norm mass on the outermost index shell (max_i |m_i| = L), per column."""
    v = vectors[:, None] if vectors.ndim == 1 else vectors
    return (np.abs(v[_face_rows(window, n_particles)]) ** 2).sum(axis=0)
