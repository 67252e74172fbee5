"""Pole table of the impurity model, computed apart from greenspec.

The two site qubits carry the ground-sector Hamiltonian
U/4 ZZ + V (XI + IX) and the excited-sector Hamiltonian U/4 ZZ + V IX.
Both are built here from dense Pauli matrices with numpy ``kron`` and
diagonalized with ``eigh``.  Exciting the ground state with X on site 1 and
expanding in the excited-sector eigenbasis gives one pole per distinct
excitation energy E_l - E_0, weighted by the overlap |<l|X_1|GS>|^2.  The
checks compare the program's simulated signals and its own oracle against
this table, so a fault shared by both cannot hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])

# the table at the printed three-decimal precision: (weight, frequency)
PRINTED_TABLE = ((0.525, 0.548), (0.475, 3.042))


@dataclass(frozen=True)
class PoleTable:
    weights: np.ndarray
    omegas: np.ndarray  # positive excitation energies, ascending
    z: np.ndarray  # weight-averaged <Z_1> per line

    def one_sided(self, t: np.ndarray) -> np.ndarray:
        """sum_l |a_l|^2 exp(i w_l t), the symmetric (one-sided) assembly."""
        return np.exp(1j * np.outer(t, self.omegas)) @ self.weights

    def two_sided(self, t: np.ndarray) -> np.ndarray:
        """sum_l 2 |a_l|^2 cos(w_l t), the general assembly when <Z>_l = 0."""
        return np.cos(np.outer(t, self.omegas)) @ (2.0 * self.weights)

    def fourier_span(self) -> float:
        """2 pi over the smallest gap between signed poles +-w_l."""
        signed = np.sort(np.concatenate([-self.omegas, self.omegas]))
        return 2.0 * math.pi / float(np.min(np.diff(signed)))


def pole_table(u: float, v: float) -> PoleTable:
    h_gs = u / 4.0 * np.kron(_Z, _Z) + v * (np.kron(_X, _I) + np.kron(_I, _X))
    h_ex = u / 4.0 * np.kron(_Z, _Z) + v * np.kron(_I, _X)
    e_gs, v_gs = np.linalg.eigh(h_gs)
    psi = np.kron(_X, _I) @ v_gs[:, 0]
    z_psi = np.kron(_Z, _I) @ psi
    energies, vecs = np.linalg.eigh(h_ex)
    coeffs = vecs.T @ psi
    levels: dict[float, list[int]] = {}
    for k, energy in enumerate(energies):
        levels.setdefault(round(float(energy - e_gs[0]), 9), []).append(k)
    weights, omegas, zs = [], [], []
    for _, idx in sorted(levels.items()):
        weight = float(np.sum(coeffs[idx] ** 2))
        if weight < 1e-12:
            continue
        projected = vecs[:, idx] @ coeffs[idx]
        weights.append(weight)
        omegas.append(float(np.mean(energies[idx])) - e_gs[0])
        zs.append(float(z_psi @ projected) / weight)
    return PoleTable(np.array(weights), np.array(omegas), np.array(zs))


def table_problems(table: PoleTable, oracle) -> list[str]:
    """Disagreements with the printed table and with greenspec's oracle."""
    problems = []
    got = [(float(w), float(o)) for w, o in zip(table.weights, table.omegas)]
    if len(got) != len(PRINTED_TABLE) or any(
        abs(w - ew) > 1e-3 or abs(o - eo) > 1e-3 for (w, o), (ew, eo) in zip(got, PRINTED_TABLE)
    ):
        problems.append(f"pole table {got} is not {PRINTED_TABLE} at 1e-3")
    if np.max(np.abs(table.z)) > 1e-9:
        problems.append(f"per-line <Z_1> {table.z} is not zero")
    program = [(abs(p.amplitude), p.frequency) for p in oracle.sorted_by_frequency().poles]
    if len(program) != len(got) or any(
        abs(w - pw) > 1e-9 or abs(o - po) > 1e-9 for (w, o), (pw, po) in zip(got, program)
    ):
        problems.append(f"greenspec oracle {program} differs from the dense table {got}")
    return problems
