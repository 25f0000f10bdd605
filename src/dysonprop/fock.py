"""Finite occupation-number bases and ladder operators.

Bosonic modes are truncated by a per-mode cutoff and, optionally, by a cap
on the total boson occupation; fermionic modes are two-valued.  States are
enumerated lexicographically with the boson digits first, so operator
matrices factor as Kronecker products of a boson block and a fermion block.
The grade of a state is its total boson occupation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graded import GradedSpace, LinOp


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

    def to_json(self) -> dict:
        return {
            "bosons": [
                {"label": m.label, "energy": m.energy, "cutoff": m.cutoff}
                for m in self.bosons
            ],
            "fermions": [
                {"label": m.label, "energy": m.energy} for m in self.fermions
            ],
            "scalar_modes": sorted(self.scalar_modes),
        }

    @staticmethod
    def from_json(doc: dict | str) -> "ModeSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        bosons = tuple(
            BosonMode(str(m["label"]), float(m["energy"]), int(m["cutoff"]))
            for m in doc.get("bosons", [])
        )
        fermions = tuple(
            FermionMode(str(m["label"]), float(m["energy"]))
            for m in doc.get("fermions", [])
        )
        return ModeSpec(bosons, fermions, frozenset(doc.get("scalar_modes", [])))


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
        self._grades = np.array([float(sum(b)) for b, _ in self.states])
        self._grades.flags.writeable = False

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
    """Diagonal operator  sum_modes occupation * energy.

    ``energies`` maps mode labels (boson or fermion) to one-particle
    energies; omitted modes contribute nothing.
    """
    unknown = set(energies) - (
        set(basis._boson_index) | set(basis._fermion_index)
    )
    if unknown:
        raise ValueError(f"unknown mode labels: {sorted(unknown)}")
    diag = np.zeros(basis.dim)
    for idx, (bocc, focc) in enumerate(basis.states):
        e = 0.0
        for m, n in zip(basis.spec.bosons, bocc):
            e += n * energies.get(m.label, 0.0)
        for m, n in zip(basis.spec.fermions, focc):
            e += n * energies.get(m.label, 0.0)
        diag[idx] = e
    return LinOp(basis.graded_space(), np.diag(diag.astype(complex)))


def number_operator(basis: FockBasis) -> LinOp:
    """Total boson number; its diagonal equals the grading."""
    return second_quantize(basis, {m.label: 1.0 for m in basis.spec.bosons})


def eta_metric(basis: FockBasis, scalar_modes: Iterable[str] | None = None) -> LinOp:
    """Indefinite metric  (-1)^(total occupation of the scalar modes).

    Diagonal, involutive and self-adjoint by construction.
    """
    labels = set(scalar_modes if scalar_modes is not None else basis.spec.scalar_modes)
    slots = [basis.boson_slot(lb) for lb in labels]
    diag = np.array(
        [(-1.0) ** sum(bocc[s] for s in slots) for bocc, _ in basis.states],
        dtype=complex,
    )
    return LinOp(basis.graded_space(), np.diag(diag))


def top_sector_fraction(basis: FockBasis, vec: np.ndarray) -> float:
    """Fraction of squared norm sitting at the highest boson occupation.

    This is the truncation health metric: evolved states should stay below
    the cap, so values above roughly 1e-6 mean the cap is distorting them.
    """
    v = np.asarray(vec, dtype=complex)
    total = float(np.sum(np.abs(v) ** 2))
    if total == 0.0:
        return 0.0
    g = basis.grades()
    top = g.max()
    return float(np.sum(np.abs(v[g == top]) ** 2) / total)


LEAKAGE_WARN_THRESHOLD = 1e-6
