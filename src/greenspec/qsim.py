"""Statevector simulation of the one-bath-site impurity model.

The model lives on two site qubits plus one ancilla.  Three Hamiltonians
matter: the two-qubit ground-sector Hamiltonian (U/4) Z1 Z2 + V (X1 + X2),
the excited-sector Hamiltonian (U/4) Z1 Z2 + V X2, and the three-qubit
effective Hamiltonian that applies one or the other depending on the
ancilla via a (1 + Z_a)/2 projector term.  Time evolution is available
exactly (dense eigendecomposition) or through a second-order symmetric
product formula, to one time or to a whole 1-D array of times at once: a
batch of states is an ``(n_t, 2^q)`` array with one row per time.

Every gate acts as a dense matrix M built from ``PauliString.matrix()``, as
psi @ M^T on a batch of rows psi; each product-formula factor is
cos(a) psi - i sin(a) psi @ P^T, with P built once per Hamiltonian.

Interferometry expectations are evaluated by direct linear algebra on the
three-qubit state: Hadamard on the ancilla, ancilla-controlled Pauli
(the block matrix diag(I_4, P (x) I)), evolution under the effective
Hamiltonian, controlled Pauli again, then a Z- or (rotated) Y-basis
ancilla readout.  The state before the evolution does not depend on t, so
a sample grid costs one batched evolution per prepared Pauli: one for the
one-sided assembly, two for the two-sided one.  Finite-shot readout draws
Bernoulli outcomes with the exact probability as bias, with an
independent, reproducible substream per (time, seed, observable).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import block_diag

from .spectrum import LineSpectrum, Pole, SamplingGrid, TimeSignal

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, one letter per qubit.

    Letter 0 acts on the most significant qubit of the state index.
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        for c in self.letters:
            if c not in _PAULI_MATS:
                raise ValueError(f"invalid Pauli letter {c!r}")

    def __str__(self) -> str:
        return "".join(self.letters)

    @property
    def qubit_count(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        out = np.array([[1.0 + 0.0j]])
        for c in self.letters:
            out = np.kron(out, _PAULI_MATS[c])
        return out


@dataclass(frozen=True)
class PauliHamiltonian:
    """Real-weighted sum of Pauli strings on a fixed-size register."""

    terms: tuple[tuple[float, PauliString], ...]
    qubit_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((float(c), s) for c, s in self.terms))
        for c, s in self.terms:
            if s.qubit_count != self.qubit_count:
                raise ValueError(
                    f"term {s} acts on {s.qubit_count} qubits, register has {self.qubit_count}"
                )

    @property
    def dim(self) -> int:
        return 2**self.qubit_count

    def matrix(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c, s in self.terms:
            out += c * s.matrix()
        return out


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitudes over computational basis states.

    The last axis indexes basis states; leading axes, if any, index a batch
    of states (one per evolution time), and every state must have unit norm.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        deviation = np.abs(np.linalg.norm(amps, axis=-1) - 1.0)
        if np.any(deviation > 1e-12):
            raise ValueError(
                f"state norm deviates from 1 by {np.max(deviation)}, more than 1e-12"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class ModelParams:
    """Impurity interaction strength U and impurity-bath hopping V."""

    u: float
    v: float


@dataclass(frozen=True)
class ShotConfig:
    """Finite-shot readout: ``shots`` Bernoulli draws per expectation value."""

    shots: int | None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 when given")


EXACT_SHOTS = ShotConfig(shots=None)


def _ps(letters: str) -> PauliString:
    return PauliString(tuple(letters))


# X or Y on site qubit 1, controlled on the ancilla (MSB): C = diag(I_4, P (x) I),
# kept as C^T so that psi @ C^T applies C to each row of a batch of states
_CONTROLLED_SITE1_T = {c: block_diag(np.eye(4), _ps(c + "I").matrix()).T for c in "XY"}


def build_hamiltonians(params: ModelParams) -> tuple[PauliHamiltonian, PauliHamiltonian, PauliHamiltonian]:
    """Ground-sector, excited-sector, and ancilla-conditioned Hamiltonians.

    Qubit order of the three-qubit Hamiltonian is (ancilla, site 1, site 2),
    ancilla most significant.  The projector (1 + Z_a)/2 on the hopping term
    is expanded into an identity part and a Z_a part, and the term order is
    the one used by the product-formula circuit: Z_a X_1, X_2, Z_1 Z_2, X_1.
    """
    u, v = params.u, params.v
    h_gs = PauliHamiltonian(
        terms=(
            (u / 4.0, _ps("ZZ")),
            (v, _ps("XI")),
            (v, _ps("IX")),
        ),
        qubit_count=2,
    )
    h_ex = PauliHamiltonian(
        terms=(
            (u / 4.0, _ps("ZZ")),
            (v, _ps("IX")),
        ),
        qubit_count=2,
    )
    h_eff = PauliHamiltonian(
        terms=(
            (v / 2.0, _ps("ZXI")),
            (v, _ps("IIX")),
            (u / 4.0, _ps("IZZ")),
            (v / 2.0, _ps("IXI")),
        ),
        qubit_count=3,
    )
    return h_gs, h_ex, h_eff


def prepare_ground_state(params: ModelParams) -> StateVector:
    """Closed-form two-qubit ground state of the ground-sector Hamiltonian.

    The state is cos(theta/2) (|00> + |11>)/sqrt2 + sin(theta/2)
    (|01> + |10>)/sqrt2 with theta = -2 arccos(1/sqrt(1 + a^2)) and
    a = (U + sqrt(U^2 + (8V)^2)) / (8V).  Hopping V = 0 makes the angle
    formula singular (the model decouples), so it is rejected, and so is a
    model whose U^2 or (8V)^2 overflows a float.
    """
    u, v = params.u, params.v
    if v == 0:
        raise ValueError("V = 0: ground-state angle undefined (decoupled sites)")
    try:
        a = (u + np.sqrt(u**2 + (8.0 * v) ** 2)) / (8.0 * v)
        theta = -2.0 * np.arccos(1.0 / np.sqrt(1.0 + a**2))
    except OverflowError as exc:
        raise ValueError(f"U = {u}, V = {v}: ground-state angle overflows a float") from exc
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    amps = np.array([c, s, s, c], dtype=complex) / np.sqrt(2.0)
    return StateVector(amps)


@lru_cache(maxsize=64)
def _eigendecomposition(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(h.matrix())
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=64)
def _term_matrices(h: PauliHamiltonian) -> tuple[tuple[float, np.ndarray], ...]:
    # (coefficient, P^T) per term, in term order: psi @ P^T applies P to each row
    terms = tuple((c, s.matrix().T) for c, s in h.terms)
    for _, pt in terms:
        pt.flags.writeable = False
    return terms


def _check_state(h: PauliHamiltonian, state: StateVector) -> None:
    if state.amplitudes.shape != (h.dim,):
        raise ValueError("state dimension does not match Hamiltonian")


def exact_evolve(h: PauliHamiltonian, t: float | np.ndarray, state: StateVector) -> StateVector:
    """Apply exp(-i H t) through the dense eigendecomposition of H.

    ``t`` is one time or a 1-D array of times; an array gives one evolved
    row per time, all from one projection of the state onto the eigenbasis.
    """
    _check_state(h, state)
    w, v = _eigendecomposition(h)
    phase = np.exp(-1j * w * np.asarray(t, dtype=float)[..., None])
    amps = (v * phase[..., None, :]) @ (v.conj().T @ state.amplitudes)
    return StateVector(amps)


def _apply_pauli_exponential(
    coeff: float, pt: np.ndarray, angle: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    # exp(-i angle coeff P) psi = cos(a) psi - i sin(a) P psi, since P^2 = I;
    # ``pt`` is P^T and ``angle`` holds one value per row of psi, as a
    # trailing length-1 axis
    a = angle * coeff
    return np.cos(a) * psi - 1j * np.sin(a) * (psi @ pt)


def trotter2_evolve(
    h: PauliHamiltonian, t: float | np.ndarray, steps: int, state: StateVector
) -> StateVector:
    """Second-order symmetric product formula for exp(-i H t).

    Each step applies the term exponentials at half the step size in list
    order, then again in reversed order, so single-step error is third order
    in t/steps and the total error scales as steps^-2.  ``t`` is one time or
    a 1-D array of times; every exponential acts on all rows at once.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_state(h, state)
    psi = state.amplitudes
    half = np.asarray(t, dtype=float)[..., None] / steps / 2.0
    terms = _term_matrices(h)
    for _ in range(steps):
        for c, pt in terms:
            psi = _apply_pauli_exponential(c, pt, half, psi)
        for c, pt in reversed(terms):
            psi = _apply_pauli_exponential(c, pt, half, psi)
    return StateVector(psi)


def _evolve(
    h: PauliHamiltonian, t: np.ndarray, state: StateVector, evolver: str, trotter_steps: int
) -> StateVector:
    if evolver == "exact":
        return exact_evolve(h, t, state)
    if evolver == "trotter2":
        return trotter2_evolve(h, t, trotter_steps, state)
    raise ValueError(f"unknown evolver {evolver!r}")


def _ancilla_p0(psi: np.ndarray, basis: str) -> np.ndarray:
    """P(ancilla=0) of each row after rotating into the readout basis.

    ``basis`` 'z' applies a Hadamard; 'y' applies S-dagger then Hadamard, so
    that 2 P(0) - 1 gives the real or imaginary interference term.
    """
    a0, a1 = psi[..., :4], psi[..., 4:]
    if basis == "y":
        a1 = -1j * a1
    b0 = (a0 + a1) / np.sqrt(2.0)
    return np.sum(np.abs(b0) ** 2, axis=-1)


def _shot_rng(seed: int, t: float, tag: int) -> np.random.Generator:
    # independent substream per (seed, time, observable); keyed on the exact
    # float bits of t so a cell's draws do not depend on which cells ran
    # before it
    t_bits = int(np.float64(t).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence((seed, t_bits, tag)))


def _estimate(p0: np.ndarray, shot: ShotConfig, times: np.ndarray, tag: int) -> np.ndarray:
    if shot.shots is None:
        return 2.0 * p0 - 1.0
    k = np.array(
        [
            _shot_rng(shot.seed, t, tag).binomial(shot.shots, min(max(p, 0.0), 1.0))
            for t, p in zip(times, p0)
        ]
    )
    return 2.0 * k / shot.shots - 1.0


_COMBO_TAGS = {("X", "X"): 0, ("Y", "Y"): 1, ("X", "Y"): 2, ("Y", "X"): 3}


def _times(t: float | np.ndarray) -> np.ndarray:
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1:
        raise ValueError("t must be a time or a 1-D array of times")
    return times


def _evolved_probe(
    h_eff: PauliHamiltonian,
    gs: StateVector,
    alpha: str,
    times: np.ndarray,
    evolver: str,
    trotter_steps: int,
) -> np.ndarray:
    """Rows (one per time) after the Hadamard, controlled alpha and evolution."""
    if len(gs.amplitudes) != 4:
        raise ValueError("ground state must live on the two site qubits")
    psi = np.zeros(8, dtype=complex)
    psi[:4] = gs.amplitudes
    # Hadamard on the ancilla
    psi = np.concatenate([(psi[:4] + psi[4:]), (psi[:4] - psi[4:])]) / np.sqrt(2.0)
    psi = psi @ _CONTROLLED_SITE1_T[alpha]
    return _evolve(h_eff, times, StateVector(psi), evolver, trotter_steps).amplitudes


def hadamard_test(
    h_eff: PauliHamiltonian,
    gs: StateVector,
    alpha: str,
    beta: str,
    t: float | np.ndarray,
    evolver: str = "exact",
    trotter_steps: int = 2,
    shot: ShotConfig = EXACT_SHOTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla interferometry expectations for one (alpha, beta) Pauli pair.

    Returns (e_z, e_minus_y), the real and imaginary parts of the sandwich
    <U+ sigma_beta U sigma_alpha> on the ground state, where U is the
    evolution conditioned through the effective Hamiltonian.  With finite
    shots each value is the mean of independent +/-1 draws whose bias is the
    exact expectation.  ``t`` is one time or a 1-D array of times; either
    way both values are arrays, one entry per time, from one batched
    evolution.
    """
    if alpha not in ("X", "Y") or beta not in ("X", "Y"):
        raise ValueError("alpha and beta must be 'X' or 'Y'")
    times = _times(t)
    psi = _evolved_probe(h_eff, gs, alpha, times, evolver, trotter_steps)
    psi = psi @ _CONTROLLED_SITE1_T[beta]
    tag = _COMBO_TAGS[(alpha, beta)]
    e_z = _estimate(_ancilla_p0(psi, "z"), shot, times, 2 * tag)
    e_minus_y = _estimate(_ancilla_p0(psi, "y"), shot, times, 2 * tag + 1)
    return e_z, e_minus_y


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    # set the parts directly: real + 1j * imag can flip the sign of a zero
    out = np.empty(len(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def green_sym(
    h_eff: PauliHamiltonian,
    gs: StateVector,
    t: float | np.ndarray,
    evolver: str = "exact",
    trotter_steps: int = 2,
    shot: ShotConfig = EXACT_SHOTS,
) -> np.ndarray:
    """One-sided Green's-function sample sum_l |a_l|^2 exp(i w_l t).

    Valid when every per-line Z expectation vanishes (true for this model by
    particle-hole symmetry), so a single (X, X) interferometry pair suffices.
    Returns one sample per time; a single time gives an array of one.
    """
    e_z, e_my = hadamard_test(h_eff, gs, "X", "X", t, evolver, trotter_steps, shot)
    return _complex(e_z, -e_my)


def green_general(
    h_eff: PauliHamiltonian,
    gs: StateVector,
    t: float | np.ndarray,
    evolver: str = "exact",
    trotter_steps: int = 2,
    shot: ShotConfig = EXACT_SHOTS,
) -> np.ndarray:
    """Two-sided Green's-function sample, valid for positive and negative t.

    Assembles sum_l |a_l|^2 [(1 + <Z>_l) e^{-i w_l t} + (1 - <Z>_l) e^{i w_l t}]
    from the real parts of the four (alpha, beta) interferometry pairs, using
    that the (X, X) and (Y, Y) sandwiches agree and the cross terms carry
    opposite signs.  Both pairs with the same alpha share one evolution, so
    a 1-D array of times costs two evolutions.  Returns one sample per time.
    """
    times = _times(t)
    e_z = {}
    for alpha in ("X", "Y"):
        psi = _evolved_probe(h_eff, gs, alpha, times, evolver, trotter_steps)
        for beta in ("X", "Y"):
            p0 = _ancilla_p0(psi @ _CONTROLLED_SITE1_T[beta], "z")
            e_z[alpha + beta] = _estimate(p0, shot, times, 2 * _COMBO_TAGS[(alpha, beta)])
    return _complex(e_z["XX"] + e_z["YY"], e_z["YX"] - e_z["XY"])


# oracle pole weights below this are dropped
_ORACLE_PRUNE = 1e-12


def spectral_oracle(params: ModelParams) -> LineSpectrum:
    """Exact pole table by diagonalizing the excited-sector Hamiltonian.

    Expands X_1 |GS> in the eigenbasis: each distinct excitation energy
    E_l - E_0 becomes one pole with weight sum |a_l|^2 over the (possibly
    degenerate) eigenspace, and z_expect the weight-averaged Z_1 expectation.
    Poles with weight below ``_ORACLE_PRUNE`` are dropped.
    """
    h_gs, h_ex, _ = build_hamiltonians(params)
    gs = prepare_ground_state(params)
    e0 = float(_eigendecomposition(h_gs)[0][0])
    w, v = _eigendecomposition(h_ex)
    psi = _ps("XI").matrix() @ gs.amplitudes
    coeffs = v.conj().T @ psi
    weights = np.abs(coeffs) ** 2
    z_psi = _ps("ZI").matrix() @ psi

    groups: dict[float, list[int]] = {}
    for idx, energy in enumerate(w):
        key = round(float(energy - e0), 9)
        groups.setdefault(key, []).append(idx)
    poles = []
    for _, idxs in sorted(groups.items()):
        weight = float(np.sum(weights[idxs]))
        if weight < _ORACLE_PRUNE:
            continue
        omega = float(np.mean(w[idxs])) - e0
        # weight-averaged Z_1 expectation over the (degenerate) eigenspace
        projected = v[:, idxs] @ coeffs[idxs]
        znum = float(np.real(np.vdot(z_psi, projected)))
        poles.append(Pole(complex(weight), omega, znum / weight))
    return LineSpectrum(tuple(poles), "physical")


def zero_time_index(grid: SamplingGrid) -> int:
    """Index of the sample at t = 0, which mitigation reads; ValueError if there is none."""
    times = grid.times()
    k = int(np.argmin(np.abs(times)))
    if abs(times[k]) > 1e-6 * grid.dt:  # beyond rounding of t0 + k dt
        raise ValueError(f"mitigation needs a sample at t = 0; the nearest is at t = {times[k]}")
    return k


def mitigate_gate_error(signal: TimeSignal, reference: float = 1.0) -> tuple[TimeSignal, float]:
    """Undo a uniform amplitude-damping factor using the known t=0 value.

    Gate errors are modeled as a flat rescaling 0 < alpha <= 1 of every pole
    weight.  alpha is estimated as the magnitude of the sample at t = 0
    divided by its known noiseless value (one for the one-sided assembly,
    two for the two-sided one), clamped to (0, 1], and divided out of every
    sample.  A grid with no sample at t = 0 is rejected.
    """
    k = zero_time_index(signal.grid)
    alpha = float(np.abs(signal.samples[k])) / reference
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"gate-error scale estimate {alpha} is not usable")
    alpha = min(alpha, 1.0)
    return TimeSignal(signal.grid, signal.samples / alpha, signal.domain), alpha
