"""Finite occupation-number bases and ladder operators.

Bosonic modes are truncated by a per-mode cutoff and, optionally, by a cap
on the total boson occupation; fermionic modes are two-valued.  States are
enumerated lexicographically with the boson digits first, so operator
matrices factor as Kronecker products of a boson block and a fermion block.
The grade of a state is its total boson occupation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graded import GradedSpace, LinOp, _diagonal_op


@dataclass(frozen=True)
class BosonMode:
    label: str
    energy: float
    cutoff: int

    def __post_init__(self):
        if self.energy < 0:
            raise ValueError(f"boson mode {self.label!r} needs energy >= 0")
        if self.cutoff < 1:
            raise ValueError(f"boson mode {self.label!r} needs cutoff >= 1")


@dataclass(frozen=True)
class FermionMode:
    label: str
    energy: float


@dataclass(frozen=True)
class ModeSpec:
    """Declared mode content of a Fock model.

    ``scalar_modes`` lists the boson labels whose occupation flips the sign
    of the indefinite metric.
    """

    bosons: tuple[BosonMode, ...]
    fermions: tuple[FermionMode, ...] = ()
    scalar_modes: frozenset[str] = frozenset()

    def __post_init__(self):
        labels = [m.label for m in self.bosons] + [m.label for m in self.fermions]
        if len(set(labels)) != len(labels):
            raise ValueError("mode labels must be unique")
        boson_labels = {m.label for m in self.bosons}
        unknown = set(self.scalar_modes) - boson_labels
        if unknown:
            raise ValueError(f"scalar_modes not among boson labels: {sorted(unknown)}")


def _boson_occupations(
    cutoffs: Sequence[int], total_cap: int | None
) -> list[tuple[int, ...]]:
    """All admissible boson occupation tuples in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], used: int):
        if len(prefix) == len(cutoffs):
            out.append(prefix)
            return
        top = cutoffs[len(prefix)]
        if total_cap is not None:
            top = min(top, total_cap - used)
        for n in range(top + 1):
            rec(prefix + (n,), used + n)

    rec((), 0)
    return out


class FockBasis:
    """Enumerated occupation basis for a ModeSpec.

    Without a total cap the dimension is the product of (cutoff + 1) over
    boson modes times 2 per fermion mode.  A total cap keeps only states
    whose summed boson occupation stays at or below it.
    """

    def __init__(self, spec: ModeSpec, total_boson_cap: int | None = None):
        if total_boson_cap is not None and total_boson_cap < 0:
            raise ValueError("total_boson_cap must be >= 0")
        self.spec = spec
        self.total_boson_cap = total_boson_cap
        cutoffs = [m.cutoff for m in spec.bosons]
        self.boson_states = _boson_occupations(cutoffs, total_boson_cap)
        nf = len(spec.fermions)
        self.fermion_states = [
            tuple((i >> (nf - 1 - k)) & 1 for k in range(nf)) for i in range(2**nf)
        ]
        self.states: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
            (b, f) for b in self.boson_states for f in self.fermion_states
        ]
        self._index = {s: i for i, s in enumerate(self.states)}
        self._boson_index = {m.label: i for i, m in enumerate(spec.bosons)}
        self._fermion_index = {m.label: i for i, m in enumerate(spec.fermions)}
        # Occupation of each mode per state, shape (dim, modes), read-only.
        n_b, n_f = len(self.boson_states), len(self.fermion_states)
        self.boson_occ = np.repeat(
            np.array(self.boson_states, dtype=int).reshape(n_b, -1), n_f, axis=0
        )
        self.fermion_occ = np.tile(
            np.array(self.fermion_states, dtype=int).reshape(n_f, -1), (n_b, 1)
        )
        self._grades = self.boson_occ.sum(axis=1).astype(float)
        for arr in (self.boson_occ, self.fermion_occ, self._grades):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, boson_occ: Sequence[int], fermion_occ: Sequence[int]) -> int:
        return self._index[(tuple(boson_occ), tuple(fermion_occ))]

    def boson_slot(self, label: str) -> int:
        return self._boson_index[label]

    def fermion_slot(self, label: str) -> int:
        return self._fermion_index[label]

    def grades(self) -> np.ndarray:
        """Total boson occupation of each basis state (read-only, shared)."""
        return self._grades

    def graded_space(self) -> GradedSpace:
        return GradedSpace(tuple(self.grades()))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index_of((0,) * len(self.spec.bosons), (0,) * len(self.spec.fermions))] = 1.0
        return v


def boson_ops(basis: FockBasis, label: str) -> tuple[LinOp, LinOp]:
    """Annihilator and creator for one boson mode on the full basis.

    The annihilator lowers the occupation with weight sqrt(n); the creator
    is its conjugate transpose, truncated wherever a raise would leave the
    enumerated basis.
    """
    slot = basis.boson_slot(label)
    space = basis.graded_space()
    a = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, (bocc, focc) in enumerate(basis.states):
        n = bocc[slot]
        if n == 0:
            continue
        lowered = bocc[:slot] + (n - 1,) + bocc[slot + 1 :]
        a[basis.index_of(lowered, focc), col] = np.sqrt(n)
    ann = LinOp(space, a)
    return ann, ann.H


def fermion_ops(basis: FockBasis, label: str) -> tuple[LinOp, LinOp]:
    """Annihilator and creator for one fermion mode.

    The sign convention counts occupied modes declared before this one, so
    anticommutation relations hold exactly.
    """
    slot = basis.fermion_slot(label)
    space = basis.graded_space()
    b = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, (bocc, focc) in enumerate(basis.states):
        if focc[slot] == 0:
            continue
        sign = (-1) ** sum(focc[:slot])
        lowered = focc[:slot] + (0,) + focc[slot + 1 :]
        b[basis.index_of(bocc, lowered), col] = sign
    ann = LinOp(space, b)
    return ann, ann.H


def second_quantize(basis: FockBasis, energies: Mapping[str, float]) -> LinOp:
    """Diagonal operator  sum_modes occupation * energy, stored as CSR.

    ``energies`` maps mode labels (boson or fermion) to one-particle
    energies; omitted modes contribute nothing.
    """
    unknown = set(energies) - (
        set(basis._boson_index) | set(basis._fermion_index)
    )
    if unknown:
        raise ValueError(f"unknown mode labels: {sorted(unknown)}")
    # Modes added one at a time in declaration order, bosons first, so each
    # entry is the left-to-right sum over the state's modes.
    diag = np.zeros(basis.dim)
    for modes, occ in ((basis.spec.bosons, basis.boson_occ),
                       (basis.spec.fermions, basis.fermion_occ)):
        for k, m in enumerate(modes):
            diag += occ[:, k] * energies.get(m.label, 0.0)
    return _diagonal_op(basis.graded_space(), diag.astype(complex))


def eta_metric(basis: FockBasis) -> LinOp:
    """Indefinite metric  (-1)^(total occupation of the basis's scalar modes).

    Diagonal, involutive and self-adjoint by construction; stored as CSR.
    """
    slots = [basis.boson_slot(lb) for lb in basis.spec.scalar_modes]
    odd = basis.boson_occ[:, slots].sum(axis=1) % 2 == 1
    return _diagonal_op(basis.graded_space(), np.where(odd, -1.0, 1.0).astype(complex))


def top_sector_fraction(basis: FockBasis, vec: np.ndarray) -> float:
    """Fraction of squared norm sitting at the highest boson occupation.

    This is the truncation health metric: evolved states should stay below
    the cap, so values above roughly 1e-6 mean the cap is distorting them.
    A (dim, m) block gives the largest fraction over its columns; a zero
    column counts 0.
    """
    v = np.asarray(vec, dtype=complex)
    g = basis.grades()
    # One contiguous row per column, so each column is summed in the order
    # a single vector is.
    weights = np.abs(np.ascontiguousarray(v.reshape(v.shape[0], -1).T)) ** 2
    total = weights.sum(axis=1)
    top = np.ascontiguousarray(weights[:, g == g.max()]).sum(axis=1)
    fractions = np.divide(top, total, out=np.zeros_like(total), where=total != 0.0)
    return float(fractions.max(initial=0.0))


LEAKAGE_WARN_THRESHOLD = 1e-6
