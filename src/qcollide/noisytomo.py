"""NISQ-style noise injection, shot-based Pauli tomography, readout-error
mitigation, and state reconstruction.

Noise model (per native gate):
* a depolarizing channel on the gate's qubits (``depol_1q`` / ``depol_2q``),
* thermal relaxation on each touched qubit for the gate duration: amplitude
  damping with gamma = 1 - exp(-d/T1), then phase damping with
  lam = 1 - exp(-2d(1/T2 - 1/2T1)).  Meant to decay off-diagonals as
  exp(-d/T2), this decays them as exp(d/2T1 - 2d/T2), since phase damping
  scales them by 1 - lam (a known defect: T2 = 180 us acts as ~107 us),
* RZ is virtual: zero duration and noiseless.

Each noisy native kind has one exact superoperator
(``NoiseConfig.native_superop``): the depolarized gate, relaxed on each
output qubit, with no Kraus set or eigenvalue cutoff in between.

A circuit runs as a few fused local superoperators, not one contraction per
gate: ``_fused_superops`` hands the gates' superoperators (a virtual RZ as
the diagonal (1, e^{-iθ}, e^{iθ}, 1)) to ``circuit._fused_blocks``, the
gate-clustering fold that ``circuit.unitary_of_circuit`` uses for unitaries:
each qubit's run of 1-qubit gates becomes one 4x4 superoperator, folded into
the next multi-qubit gate on that qubit.  This only composes
superoperators, so it is exact.  ``_apply_blocks`` then applies the blocks
with ``channel._superop_at`` to a matrix or a stack of matrices.  The one
circuit-channel read-off, ``_channel_series``, runs circuits in turn on the
stack of all inputs |i><j| and traces every kept image stack out at once.

Tomography is linear, and both of its maps factor into one small map per
measured qubit (``_FORWARD`` and ``_INVERSE``), applied by ``_apply_per_qubit``
along one axis per qubit; no 4^k-sized table is built.  With
E[s, o] = (I + (1 - 2o) σ_s)/2 the projector on outcome o of setting
s ∈ (X, Y, Z), sampling maps ρ's (a, b) axes to the (setting, outcome) axes by
F[(s, o), (a, b)] = E[s, o][b, a], which gives the (3^k settings × 2^k
outcomes) table of every setting at once.  With noise, F first takes one 2x2
readout matrix per qubit on its outcome: relaxation for the measurement
duration, then the confusion flips (p01 = P(read 1 | true 0),
p10 = P(read 0 | true 1)).  A count table is drawn in one multinomial call
from one generator, so sampling is deterministic given the generator; outcome
bitstrings follow the ``measured`` order.

Reconstruction runs the other way: D[(a, b), (s, o)] = E[s, o][a, b] - δ_ab/3
maps a frequency table to the linear-inversion estimate Σ_P <P> P / 2^k,
where each Pauli-string expectation <P> is the mean over the settings
compatible with P (1/3 per identity factor, which is where the δ_ab/3 comes
from).  The estimate is projected onto the density matrices
(Smolin–Gambetta–Smith).  Many frequency tables, such as bootstrap replicas,
go through the same maps in one call.

Count data has one form, the (settings × outcomes) count table that
``ShotCounts`` holds.  ``_sample_state`` is the one draw: it selects the rows
of the requested settings from ``_measurement_probs`` and draws them in one
``multinomial`` call.  ``_frequencies`` normalises a table's rows,
``_mitigate_table`` mitigates a frequency table with the per-qubit inverses of
``_confusion_inverses``, and ``_reconstruct_frequencies`` reconstructs it,
rows in ``all_settings`` order.  ``mitigate_readout`` and ``reconstruct`` run
these on the whole table of a ``ShotCounts``.

``tomography_estimates`` is the estimator.  Its draws come from named streams,
``_stream(seed, purpose, n)`` = ``default_rng(SeedSequence(seed,
spawn_key=(purpose, n)))``: state n of a stack draws its count table from
(``_TOMOGRAPHY``, n) and its 20 bootstrap replicas (``_estimate``) from
(``_BOOTSTRAP``, n); the all-|0> and all-|1> calibration runs, on the measured
qubits, are ``sample`` of the all-Z setting alone, drawing from
(``_CALIBRATION``, 0) and (``_CALIBRATION``, 1).  Distinct (seed, purpose, n)
give distinct streams for any seed: ``SeedSequence`` pads the seed's 32-bit
words with zeros to at least four and appends the spawn key, so no other seed
and key give the same words.  (A longer entropy list such as
``[seed, purpose, n]`` is padded too, so it collides once the seed reaches
2^32.)  The public ``sample(job)`` draws from ``default_rng(job.seed)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import circuit as circ
from .channel import (
    Channel,
    _superop,
    _superop_at,
    amplitude_damping_channel,
    phase_damping_channel,
)
from .qmat import (
    DensityMatrix,
    PAULIS,
    QubitRegister,
    partial_trace,
    partial_trace_mat,
)

__all__ = [
    "NoiseConfig",
    "TomographyJob",
    "ShotCounts",
    "noisy_channel_of_circuit",
    "apply_noisy_circuit",
    "sample",
    "calibration_jobs",
    "mitigate_readout",
    "tomography_estimates",
    "reconstruct",
    "ReconstructionResult",
    "all_settings",
]

DEFAULT_DURATIONS_NS = {"SX": 57.0, "X": 57.0, "ECR": 533.0, "RZ": 0.0, "MEASURE": 1216.0}
DEFAULT_READOUT = {"default": (0.01, 0.01)}


@dataclass(frozen=True)
class NoiseConfig:
    """Per-gate error parameters, relaxation times, and readout flips.  The
    given durations and readout flips are merged over ``DEFAULT_DURATIONS_NS``
    and ``DEFAULT_READOUT``: a key not given keeps its default.  RZ is
    virtual, so its duration must stay 0: nothing would read another value."""

    t1_us: float = 280.0
    t2_us: float = 180.0
    gate_duration_ns: dict = field(default_factory=dict)
    depol_1q: float = 2e-4
    depol_2q: float = 7e-3
    readout: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gate_duration_ns",
                           DEFAULT_DURATIONS_NS | self.gate_duration_ns)
        object.__setattr__(self, "readout", DEFAULT_READOUT | self.readout)
        if not (self.t1_us > 0 and 0 < self.t2_us <= 2 * self.t1_us + 1e-12):
            raise ValueError("t1 and t2 must be positive, and t2 must not exceed 2*t1")
        for p in (self.depol_1q, self.depol_2q):
            if not 0.0 <= p <= 1.0:
                raise ValueError("depolarizing probabilities must be in [0, 1]")
        for v in self.readout.values():
            if not (0.0 <= v[0] <= 1.0 and 0.0 <= v[1] <= 1.0):
                raise ValueError("readout probabilities must be in [0, 1]")
        for kind, d in self.gate_duration_ns.items():
            if kind not in DEFAULT_DURATIONS_NS:
                raise ValueError(f"unknown gate duration kind {kind!r}")
            if not (np.isfinite(d) and d >= 0):
                raise ValueError("durations must be finite and nonnegative")
        if self.gate_duration_ns["RZ"] != 0:
            raise ValueError("duration.RZ must be 0: RZ is virtual, a noiseless frame change "
                             "that takes no time")

    def readout_probs(self, label: str) -> tuple[float, float]:
        return tuple(self.readout.get(label, self.readout["default"]))

    def check_readout_labels(self, labels) -> None:
        """Reject a per-label readout entry that names none of ``labels``;
        ``readout.default`` applies to every qubit."""
        stray = sorted(set(self.readout) - {"default", *labels})
        if stray:
            raise ValueError(", ".join(f"readout.{q}" for q in stray)
                             + f" names no qubit of the register ({', '.join(labels)})")

    def check_mitigable(self, labels) -> None:
        """Reject a qubit of ``labels`` whose readout mitigation would amplify
        shot noise more than 5x: its confusion matrix's |det| = |1 - p01 - p10| < 0.2."""
        for q in labels:
            p01, p10 = self.readout_probs(q)
            if abs(1 - p01 - p10) < 0.2:
                raise ValueError(f"qubit {q} reads out with p01 = {p01!r}, p10 = {p10!r}, "
                                 "and |1 - p01 - p10| below 0.2 cannot be mitigated")

    def duration(self, kind: str) -> float:
        return float(self.gate_duration_ns[kind])

    @cached_property
    def native_superop(self) -> dict:
        """Superoperator of each noisy native kind on the gate's own qubits
        (RZ is virtual and noiseless), built once per config."""
        return {kind: _noisy_gate_superop(self, kind, circ.GATE_MATRICES[kind])
                for kind in circ.NATIVE_KINDS - {"RZ"}}

    def to_text(self) -> str:
        lines = [
            f"t1_us = {self.t1_us!r}",
            f"t2_us = {self.t2_us!r}",
            f"depol_1q = {self.depol_1q!r}",
            f"depol_2q = {self.depol_2q!r}",
        ]
        for k, v in sorted(self.gate_duration_ns.items()):
            lines.append(f"duration.{k} = {v!r}")
        for k, v in sorted(self.readout.items()):
            lines.append(f"readout.{k} = {v[0]!r},{v[1]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NoiseConfig":
        kwargs: dict = {"gate_duration_ns": {}, "readout": {}}
        seen = set()
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in seen:
                raise ValueError(f"repeated noise config key {key!r}")
            seen.add(key)
            if key in ("t1_us", "t2_us", "depol_1q", "depol_2q"):
                kwargs[key] = float(val)
            elif key.startswith("duration."):
                kwargs["gate_duration_ns"][key.split(".", 1)[1]] = float(val)
            elif key.startswith("readout."):
                probs = val.split(",")
                if len(probs) != 2:
                    raise ValueError(f"{key} needs two comma-separated probabilities")
                kwargs["readout"][key.split(".", 1)[1]] = (float(probs[0]), float(probs[1]))
            else:
                raise ValueError(f"unknown noise config key {key!r}")
        return cls(**kwargs)


def _thermal_superop(noise: NoiseConfig, duration_ns: float):
    """Superoperator of amplitude damping then extra dephasing on one qubit
    over a duration (None for a duration <= 0; see the T2 defect above)."""
    if duration_ns <= 0:
        return None
    t1 = noise.t1_us * 1000.0
    t2 = noise.t2_us * 1000.0
    gamma = 1.0 - np.exp(-duration_ns / t1)
    rate_phi = 1.0 / t2 - 1.0 / (2.0 * t1)
    lam = 1.0 - np.exp(-2.0 * duration_ns * max(rate_phi, 0.0))
    return phase_damping_channel(lam).superop @ amplitude_damping_channel(gamma).superop


def _gate_superop(gate: circ.Gate, noise: NoiseConfig | None) -> np.ndarray:
    """Superoperator (on the gate's own qubits) of the noisy gate."""
    if noise is None or gate.kind == "RZ":
        return _superop([gate.unitary()])
    return noise.native_superop[gate.kind]


def _noisy_gate_superop(noise: NoiseConfig, kind: str, u: np.ndarray) -> np.ndarray:
    """The gate u depolarized, (1 - p) u⊗ū + (p/d) vec(I) vec(I)ᵀ, then
    relaxed on each output qubit of its (d², d, d) stack of images."""
    d = u.shape[0]
    nq = d.bit_length() - 1
    p = noise.depol_1q if nq == 1 else noise.depol_2q
    vec_i = np.eye(d).reshape(-1)
    s = (1 - p) * np.kron(u, u.conj()) + (p / d) * np.outer(vec_i, vec_i)
    thermal = _thermal_superop(noise, noise.duration(kind))
    if thermal is None:
        return s
    images = s.T.reshape(d * d, d, d)  # images[b*d + e] is the image of |b><e|
    for pos in range(nq):
        images = _superop_at(thermal, images, [pos], nq)
    return images.reshape(d * d, d * d).T


def _fused_superops(c: circ.Circuit, noise: NoiseConfig | None) -> list:
    """The (noisy) circuit channel as the ``circuit._fused_blocks`` of its
    gates' superoperators, [superoperator, labels] blocks to be applied in
    order; a virtual RZ enters as the diagonal (1, e^{-iθ}, e^{iθ}, 1).  A
    noisy circuit with a non-native gate is transpiled first."""
    if noise is not None and any(g.kind not in circ.NATIVE_KINDS for g in c.gates):
        c = circ.transpile(c)

    def superop_of(g):
        if g.kind != "RZ":
            return _gate_superop(g, noise)
        phase = np.exp(-1j * g.theta)
        return np.array([1.0, phase, phase.conjugate(), 1.0])
    return circ._fused_blocks(c.gates, superop_of)


def _apply_blocks(blocks, reg: QubitRegister, mat: np.ndarray) -> np.ndarray:
    """Apply ``_fused_superops`` blocks in order to a matrix or a stack of
    matrices on the register ``reg``."""
    out = np.asarray(mat, dtype=complex)
    for s, labels in blocks:
        out = _superop_at(s, out, reg.indices(labels), reg.n)
    return out


def _apply_circuit_to_matrix(c: circ.Circuit, mat: np.ndarray,
                             noise: NoiseConfig | None) -> np.ndarray:
    """Propagate an arbitrary matrix through the (noisy) circuit channel."""
    return _apply_blocks(_fused_superops(c, noise), c.register, mat)


def apply_noisy_circuit(c: circ.Circuit, rho: DensityMatrix | None = None,
                        noise: NoiseConfig | None = None) -> DensityMatrix:
    """Run the circuit channel on rho (default |0...0>) and return the state."""
    if rho is None:
        mat = np.zeros((c.register.dim, c.register.dim), dtype=complex)
        mat[0, 0] = 1.0
        rho = DensityMatrix(c.register, mat, validate=False)
    if rho.register.labels != c.register.labels:
        raise ValueError("state register does not match circuit register")
    out = _apply_circuit_to_matrix(c, rho.mat, noise)
    return DensityMatrix(c.register, out, validate=False)


def noisy_channel_of_circuit(c: circ.Circuit, noise: NoiseConfig | None,
                             keep=None) -> Channel:
    """The circuit's CPT map on the ``keep`` qubits (default: all, at most 3,
    in register order), the others starting in |0> and traced out: the last
    superoperator of ``_channel_series`` of the one circuit."""
    return Channel(_channel_series(c.register, [c], noise, keep)[-1])


def _channel_series(reg: QubitRegister, circuits, noise: NoiseConfig | None,
                    keep=None) -> np.ndarray:
    """The C-contiguous (N+1, d², d²) superoperators of the first n = 0..N
    ``circuits`` on the ``keep`` qubits of ``reg``: the ``_channel_inputs``
    stack runs through them in order, each distinct circuit (by identity)
    fused once, and one partial trace reads all N+1 image stacks."""
    pos, stack = _channel_inputs(reg, keep)
    fused = {}
    images = np.empty((len(circuits) + 1,) + stack.shape, complex)
    images[0] = stack
    for n, c in enumerate(circuits, start=1):
        if id(c) not in fused:
            fused[id(c)] = _fused_superops(c, noise)
        images[n] = _apply_blocks(fused[id(c)], reg, images[n - 1])
    out = partial_trace_mat(images, pos, reg.n).reshape(len(images), len(stack), len(stack))
    # out[n, i*d + j] is Λ_n(|i><j|), whose row-major vec is superoperator column i*d + j.
    return np.ascontiguousarray(out.swapaxes(-1, -2))


def _channel_inputs(reg: QubitRegister, keep=None) -> tuple[list[int], np.ndarray]:
    """Sorted positions of the ``keep`` qubits (default: all, at most 3) and
    the (d², D, D) stack of inputs |i><j| on them, the other qubits in |0>."""
    pos = sorted(reg.indices(reg.labels if keep is None else keep))
    k = len(pos)
    if k > 3:
        raise ValueError(f"the circuit channel read-off keeps at most 3 qubits, not {k}")
    d = 2**k
    # Register index of kept basis state i, the other qubits in |0>.
    full = [sum(((i >> (k - 1 - b)) & 1) << (reg.n - 1 - p) for b, p in enumerate(pos))
            for i in range(d)]
    inputs = np.zeros((d * d, reg.dim, reg.dim), dtype=complex)
    inputs[np.arange(d * d), np.repeat(full, d), np.tile(full, d)] = 1.0
    return pos, inputs


# --------------------------------------------------------------------------
# Tomography
# --------------------------------------------------------------------------

def all_settings(k: int) -> tuple[str, ...]:
    """All 3^k Pauli settings in canonical order (X < Y < Z per qubit)."""
    return tuple("".join(s) for s in itertools.product("XYZ", repeat=k))


@dataclass(frozen=True)
class TomographyJob:
    """A complete Pauli tomography job over the measured labels."""

    circuit: circ.Circuit
    measured: tuple[str, ...]
    shots: int = 4096
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "measured", tuple(str(q) for q in self.measured))
        for q in self.measured:
            if q not in self.circuit.register:
                raise ValueError(f"measured label {q!r} not in circuit register")
        if self.shots <= 0:
            raise ValueError("shots must be positive")

    @property
    def settings(self) -> tuple[str, ...]:
        return all_settings(len(self.measured))


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """The (settings × outcomes) count table of a tomography run: row i holds
    ``settings[i]`` and column b the outcome bits b, in ``measured`` order.
    Drawn counts are ints, mitigated counts real.  ``counts`` is a read-only
    copy of the table; a table of another shape, or a repeated setting, is
    rejected."""

    measured: tuple[str, ...]
    shots: int
    settings: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "measured", tuple(self.measured))
        object.__setattr__(self, "settings", tuple(self.settings))
        table = np.array(self.counts)
        shape = (len(self.settings), 2 ** len(self.measured))
        if table.shape != shape:
            raise ValueError(f"count table of shape {table.shape}, not {shape}")
        if len(set(self.settings)) != len(self.settings):
            raise ValueError(f"repeated settings in {self.settings}")
        table.setflags(write=False)
        object.__setattr__(self, "counts", table)

    def frequencies(self, setting: str) -> np.ndarray:
        if setting not in self.settings:
            raise ValueError(f"no counts for setting {setting!r}")
        return _frequencies(self.counts[self.settings.index(setting)])


def _frequencies(table: np.ndarray) -> np.ndarray:
    """A count table (..., 2^k) divided by its row sums; a row that does not
    sum to a positive number is left as it is."""
    table = np.asarray(table, dtype=float)
    total = table.sum(axis=-1, keepdims=True)
    return np.divide(table, total, out=table.copy(), where=total > 0)


def _apply_per_qubit(mats, table: np.ndarray) -> np.ndarray:
    """Apply one matrix per qubit along the last axis of a (..., Π in_i)
    table, whose index is one factor per qubit, most significant first:
    ``mats[i]`` (out_i × in_i) maps factor i.  Returns (..., Π out_i).

    Each step maps the leading factor and appends its image as the last
    one, so after all of them the factors are back in order; a step is one
    matrix product over the whole table.  A complex map on a real table
    multiplies it by the map's real and imaginary parts in one real
    product, read back as complex, so the table is never copied to complex."""
    rows = int(np.prod(table.shape[:-1]))
    out = table.reshape(rows, -1)
    for m in mats:
        x = out.reshape(rows, m.shape[1], -1).transpose(0, 2, 1)
        if np.iscomplexobj(m) and not np.iscomplexobj(x):
            parts = np.stack([m.real.T, m.imag.T], axis=-1)  # (in_i, out_i, re/im)
            out = (x @ parts.reshape(m.shape[1], -1)).view(complex)
        else:
            out = x @ m.T
        out = out.reshape(rows, -1)
    return out.reshape(table.shape[:-1] + (-1,))


def _pauli_maps():
    """The per-qubit maps of Pauli tomography (module docstring):
    ``_FORWARD`` (6, 4) from ρ's (a, b) to (setting, outcome), and
    ``_INVERSE`` (4, 6) back to the estimate's (a, b)."""
    sigma = np.stack([PAULIS[c] for c in "XYZ"])
    # proj[s, o] = E[s, o] = (I + (1 - 2o) σ_s)/2
    proj = (np.eye(2) + np.array([1.0, -1.0])[:, None, None] * sigma[:, None]) / 2
    forward = proj.transpose(0, 1, 3, 2).reshape(6, 4)
    inverse = (proj - np.eye(2) / 3).reshape(6, 4).T
    for m in (forward, inverse):
        m.setflags(write=False)
    return forward, inverse


_FORWARD, _INVERSE = _pauli_maps()


def _interleave(k: int, lead: int = 0) -> list[int]:
    """Axis order taking (lead axes, x_1..x_k, y_1..y_k) to (lead axes,
    x_1, y_1, ..., x_k, y_k); its ``np.argsort`` undoes it."""
    return list(range(lead)) + [lead + j for i in range(k) for j in (i, k + i)]


def _measurement_probs(rho: DensityMatrix, measured, noise: NoiseConfig | None) -> np.ndarray:
    """Outcome table (3^k, 2^k) of every setting, rows in ``all_settings(k)``
    order and outcome bits in ``measured`` order: ``_FORWARD`` on each
    measured qubit.  With noise a qubit's map first takes its readout matrix
    on the outcome: its confusion times the population block [0, 3] × [0, 3]
    of the measurement relaxation's superoperator, which is exact: amplitude
    damping plus dephasing never feeds coherences into populations."""
    k = len(measured)
    marg = partial_trace(rho, list(measured))
    order = marg.register.indices(measured)
    # ρ's axes as (a_1, b_1, ..., a_k, b_k), qubits in ``measured`` order.
    mat = marg.mat.reshape((2,) * (2 * k)).transpose([ax for i in order for ax in (i, k + i)])
    maps = [_FORWARD] * k
    if noise is not None:
        thermal = _thermal_superop(noise, noise.duration("MEASURE"))
        pop = np.eye(2) if thermal is None else thermal[np.ix_([0, 3], [0, 3])].real
        maps = [(np.array([[1 - p01, p10], [p01, 1 - p10]]) @ pop
                 @ _FORWARD.reshape(3, 2, 4)).reshape(6, 4)
                for p01, p10 in map(noise.readout_probs, measured)]
    probs = _apply_per_qubit(maps, mat.reshape(-1)).real.reshape((3, 2) * k)
    probs = probs.transpose(np.argsort(_interleave(k))).reshape(3**k, 2**k)
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


_TOMOGRAPHY, _CALIBRATION, _BOOTSTRAP = range(3)


def _stream(seed: int, purpose: int, n: int) -> np.random.Generator:
    """The generator of draw n of a purpose (``_TOMOGRAPHY``,
    ``_CALIBRATION`` or ``_BOOTSTRAP``) under a nonnegative seed."""
    return default_rng(SeedSequence(seed, spawn_key=(purpose, n)))


def sample(job: TomographyJob, noise: NoiseConfig | None = None,
           settings=None, rng: np.random.Generator | None = None) -> ShotCounts:
    """Simulate the tomography job (default: every setting) on the state its
    circuit prepares from |0...0> (``apply_noisy_circuit``); the count table
    draws from ``rng``, by default ``default_rng(job.seed)``."""
    rng = default_rng(job.seed) if rng is None else rng
    return _sample_state(apply_noisy_circuit(job.circuit, noise=noise), job.measured,
                         job.shots, rng, noise, settings)


def _sample_state(rho: DensityMatrix, measured, shots: int, rng: np.random.Generator,
                  noise: NoiseConfig | None, settings=None) -> ShotCounts:
    """Shot counts of the given settings (default: all of them, in
    ``all_settings`` order) on rho: their rows of ``_measurement_probs``,
    drawn in one ``multinomial`` call from ``rng``."""
    k = len(measured)
    probs = _measurement_probs(rho, measured, noise)
    if settings is None:
        settings = all_settings(k)
    else:
        settings = tuple(settings)
        row = {s: i for i, s in enumerate(all_settings(k))}
        if not set(settings) <= row.keys():
            raise ValueError(f"{sorted(set(settings) - row.keys())} are not {k}-qubit settings")
        probs = probs[[row[s] for s in settings]]
    return ShotCounts(measured, shots, settings, rng.multinomial(shots, probs))


def calibration_jobs(register, measured, shots: int = 4096, seed: int = 0):
    """The two 'empty' readout-calibration circuits: all-|0> and all-|1>."""
    reg = register if isinstance(register, QubitRegister) else QubitRegister(register)
    zero = circ.Circuit(reg, [])
    one = circ.Circuit(reg, [circ.Gate("X", (q,)) for q in measured])
    return (
        TomographyJob(zero, measured, shots, seed),
        TomographyJob(one, measured, shots, seed + 1),
    )


def sample_calibration(job: TomographyJob, noise: NoiseConfig | None = None,
                       rng: np.random.Generator | None = None) -> ShotCounts:
    """Sample a calibration circuit: ``sample`` of the all-Z setting alone."""
    return sample(job, noise, ("Z" * len(job.measured),), rng)


def mitigate_readout(counts: ShotCounts, calib0: ShotCounts, calib1: ShotCounts) -> ShotCounts:
    """Invert per-qubit confusion matrices estimated from the two calibration
    runs; negative entries are clipped and frequencies renormalized."""
    if calib0.measured != counts.measured or calib1.measured != counts.measured:
        raise ValueError("calibration runs must measure the same qubits")
    zkey = "Z" * len(counts.measured)
    invs = _confusion_inverses(calib0.frequencies(zkey), calib1.frequencies(zkey))
    table = _mitigate_table(_frequencies(counts.counts), invs, counts.shots)
    return ShotCounts(counts.measured, counts.shots, counts.settings, table)


def _confusion_inverses(f0: np.ndarray, f1: np.ndarray) -> list:
    """Inverse 2x2 confusion matrix of each measured qubit, from the Z-basis
    frequency vectors (2^k,) of the all-|0> and all-|1> calibration runs."""
    k = f0.size.bit_length() - 1
    f0, f1 = (np.reshape(f, [2] * k) for f in (f0, f1))
    invs = []
    for axis in range(k):
        other = tuple(a for a in range(k) if a != axis)
        m0 = f0.sum(axis=other)  # P(read b | prepared 0)
        m1 = f1.sum(axis=other)  # P(read b | prepared 1)
        conf = np.column_stack([m0, m1])
        if abs(np.linalg.det(conf)) < 1e-9:
            raise ValueError("singular confusion matrix (flip probability >= 0.5)")
        invs.append(np.linalg.inv(conf))
    return invs


def _mitigate_table(freqs: np.ndarray, invs, shots: int) -> np.ndarray:
    """Mitigated (real-valued) count table of a (rows, 2^k) frequency table:
    the inverse confusion matrices applied per qubit, negative entries
    clipped, each row renormalised and scaled to ``shots``."""
    table = np.clip(_apply_per_qubit(invs, freqs), 0.0, None)
    table = table / table.sum(axis=1, keepdims=True)
    # Clipped entries are exact (+0.0) zeros, and a row clipped to all zeros
    # stays zero rather than 0/0.
    return np.where(table > 0, table * shots, 0.0)


def tomography_estimates(states, measured, shots: int, seed: int,
                         noise: NoiseConfig | None = None,
                         mitigate: bool = False) -> np.ndarray:
    """(N+1, 21, 2^k, 2^k) stack of each DensityMatrix in ``states`` estimated
    on the ``measured`` qubits from ``shots`` per setting, [:, 0], and its 20
    bootstrap replicas, [:, 1:]; ``mitigate`` runs the calibration circuits
    and mitigates every count table.  Without shots: the exact states,
    (N+1, 1, D, D).  Streams as in the module docstring."""
    if shots <= 0:
        return np.stack([rho.mat for rho in states])[:, None]
    invs = None
    if mitigate:
        zkey = "Z" * len(measured)
        jobs = calibration_jobs(QubitRegister(measured), measured, shots)
        invs = _confusion_inverses(*(
            sample_calibration(job, noise, _stream(seed, _CALIBRATION, n)).frequencies(zkey)
            for n, job in enumerate(jobs)))
    # Per state: one call over all states would hold all their replica tables.
    return np.stack([_estimate(rho, measured, shots, seed, n, noise, invs)
                     for n, rho in enumerate(states)])


def _estimate(rho: DensityMatrix, measured, shots: int, seed: int, n: int,
              noise: NoiseConfig | None, invs) -> np.ndarray:
    """(21, 2^k, 2^k): rho reconstructed from one count table drawn from the
    tomography stream n (mitigated with ``invs`` unless None), then 20
    reconstructed bootstrap resamples of its frequencies, drawn from the
    bootstrap stream n; each made Hermitian, (m + m†)/2."""
    freqs = _frequencies(_sample_state(rho, measured, shots, _stream(seed, _TOMOGRAPHY, n),
                                       noise).counts)
    if invs is not None:
        freqs = _frequencies(_mitigate_table(freqs, invs, shots))
    tables = np.concatenate([freqs[None],
                             _bootstrap_tables(freqs, shots, _stream(seed, _BOOTSTRAP, n))])
    mats, _ = _reconstruct_frequencies(tables)
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def _bootstrap_tables(freqs, shots, rng: np.random.Generator, reps=20):
    """(reps, rows, 2^k) multinomial resamples of a (rows, 2^k) frequency
    table, divided by ``shots``: one draw per row from ``rng``, replica
    after replica, rows in table order."""
    return rng.multinomial(shots, freqs, size=(reps, len(freqs))) / shots


@dataclass(frozen=True)
class ReconstructionResult:
    state: DensityMatrix
    projection_distance: float


def reconstruct(counts: ShotCounts) -> ReconstructionResult:
    """Linear-inversion tomography followed by PSD/trace-1 projection.

    Each Pauli-string expectation is the mean over the settings compatible
    with it; the estimate Σ_P <P> P / 2^k is projected onto the density
    matrices by the eigenvalue simplex projection of Smolin, Gambetta and
    Smith (PRL 108, 070502 (2012)).  The linear inversion is one 4x6 map per
    qubit (``_INVERSE``, see ``_reconstruct_frequencies``)."""
    settings = all_settings(len(counts.measured))
    missing = [s for s in settings if s not in counts.settings]
    if missing:
        raise ValueError(f"incomplete settings, missing {missing[:3]}...")
    rows = [counts.settings.index(s) for s in settings]
    mat, dist = _reconstruct_frequencies(_frequencies(counts.counts[rows]))
    return ReconstructionResult(
        DensityMatrix(QubitRegister(counts.measured), mat, validate=False), float(dist)
    )


def _reconstruct_frequencies(freqs: np.ndarray):
    """Projected states and projection distances for a frequency table of
    shape (..., 3^k, 2^k): one matrix of shape (..., 2^k, 2^k) and one
    distance per table.

    ``_INVERSE`` on each qubit's (setting, outcome) axes gives every
    table's linear-inversion estimate in one call.  <I...I> is 1 exactly,
    whatever the frequency sums round to, so the estimate's trace is put
    back to 1 with a multiple of I; that leaves the projected state as it is
    but not the projection distance.  The largest temporaries are the
    table in (s_1, o_1, ..., s_k, o_k) order and the first qubit's complex
    (..., 6^(k-1)·4) image of it."""
    freqs = np.asarray(freqs, dtype=float)
    dim = freqs.shape[-1]
    k = dim.bit_length() - 1
    batch = freqs.shape[:-2]
    lead = len(batch)
    table = freqs.reshape(batch + (3,) * k + (2,) * k).transpose(_interleave(k, lead))
    est = _apply_per_qubit([_INVERSE] * k, table.reshape(batch + (6**k,)))
    est = est.reshape(batch + (2,) * (2 * k)).transpose(np.argsort(_interleave(k, lead)))
    est = est.reshape(batch + (dim, dim))
    trace = np.trace(est, axis1=-2, axis2=-1).real
    est = est + ((1.0 - trace) / dim)[..., None, None] * np.eye(dim)
    est = (est + est.conj().swapaxes(-1, -2)) / 2
    ev, vecs = np.linalg.eigh(est)
    projected = _project_simplex(ev)
    mats = (vecs * projected[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return mats, np.abs(projected - ev).sum(axis=-1)


def _project_simplex(ev: np.ndarray) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {x >= 0, sum x = 1}, along
    the last axis."""
    u = np.sort(ev, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    size = u.shape[-1]
    feasible = u + (1.0 - css) / np.arange(1, size + 1) > 0
    # The last feasible index of each row (index 0 always is).
    rho_idx = size - 1 - np.argmax(feasible[..., ::-1], axis=-1)[..., None]
    theta = (1.0 - np.take_along_axis(css, rho_idx, axis=-1)) / (rho_idx + 1)
    return np.clip(ev + theta, 0.0, None)
