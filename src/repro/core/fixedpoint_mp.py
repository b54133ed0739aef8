"""Bit-accurate fixed-point Matching Pursuits.

Models the arithmetic the FPGA IP core actually performs: the signal matrices
and the received vector are quantised to a configurable word length with
power-of-two dynamic-range scaling (Section IV.C), and every intermediate
result of the datapath (matched-filter accumulators, temporary coefficients,
decision variables) is re-quantised to the width the hardware would carry.

The word length is the design axis of experiment E6: the paper, citing Meng
et al. [21], states that 8-10 bits suffice for accurate channel estimation.
:class:`FixedPointMatchingPursuit` lets that claim be checked by sweeping
``word_length`` and measuring estimation error against the floating-point
reference.

Two datapaths are provided, pinned against each other on **raw integer
codes**:

* :meth:`FixedPointMatchingPursuit.estimate` — the scalar executable
  specification, one receive vector at a time;
* :meth:`FixedPointMatchingPursuit.estimate_batch` — the same datapath
  carried for a whole stack of receive vectors at once: the matched-filter
  accumulator, every re-quantisation and the path-cancellation updates run
  as array operations over a leading trial axis.

Because fixed-point arithmetic is exact integer math, the two paths are
required to agree with ``==`` on the raw integer codes of every output (not
merely to float tolerance).  Two design rules make that possible: every
datapath step is either an *element-wise* float64 expression (IEEE 754
element-wise arithmetic is deterministic, so evaluating it per trial or per
batch gives identical bits) or the *same* matrix-vector product call per
trial (the batched path evaluates the matched filter ``S_q^T r_q`` with the
identical per-trial call, never a re-associated matmul, because BLAS kernels
may sum in a different order).  ``tests/core/test_fixedpoint_batch_equivalence.py``
pins the contract across word lengths, rounding modes and overflow modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.matching_pursuit import MatchingPursuitResult
from repro.dsp.signal_matrix import SignalMatrices
from repro.fixedpoint.fmt import FixedPointFormat
from repro.fixedpoint.metrics import dynamic_range_scale, dynamic_range_scale_batch
from repro.fixedpoint.quantize import OverflowMode, RoundingMode, quantize, quantize_batch
from repro.telemetry.tracing import span
from repro.utils.validation import check_integer, ensure_1d_array, ensure_2d_array

__all__ = [
    "FixedPointEstimate",
    "BatchFixedPointEstimate",
    "FixedPointMatchingPursuit",
]


def _integer_codes(values: np.ndarray, resolution: float, scale) -> np.ndarray:
    """Recover raw integer codes from re-quantised float values.

    ``values`` entries are (floats of) ``raw * resolution * scale`` with
    ``|raw|`` bounded by the accumulator range (< 2**48), so dividing by
    ``resolution * scale`` lands within a quarter LSB of the integer code and
    rounding recovers it exactly.  ``scale`` may be a scalar or a per-trial
    column for batched values; all-zero inputs can carry a zero scale, which
    maps to code 0.
    """
    denominator = resolution * np.asarray(scale, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        codes = np.where(denominator > 0.0, values / denominator, 0.0)
    return np.round(codes).astype(np.int64)


def _integer_state_equal(left, right) -> bool:
    """Exact equality of two estimates' integer state (see ``__eq__`` docs)."""
    return (
        np.array_equal(left.path_indices, right.path_indices)
        and np.array_equal(left.raw_real, right.raw_real)
        and np.array_equal(left.raw_imag, right.raw_imag)
        and np.array_equal(left.raw_decisions, right.raw_decisions)
        and np.array_equal(left.coefficient_scale, right.coefficient_scale)
        and np.array_equal(left.decision_scale, right.decision_scale)
        and np.array_equal(left.input_scale, right.input_scale)
        and left.accumulator_format == right.accumulator_format
    )


@dataclass(eq=False)
class FixedPointEstimate(MatchingPursuitResult):
    """A scalar fixed-point MP estimate plus its raw integer codes.

    Extends :class:`~repro.core.matching_pursuit.MatchingPursuitResult` with
    the exact integer state of the datapath: the coefficient raw codes (real
    and imaginary, in units of ``accumulator_format.resolution *
    coefficient_scale``) and the decision-variable raw codes.  ``==``
    compares exactly that integer state (plus the scales and format that
    give it meaning) — no float tolerance involved; the float fields are
    fully determined by it.
    """

    raw_real: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    raw_imag: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    raw_decisions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    coefficient_scale: float = 1.0
    decision_scale: float = 1.0
    input_scale: float = 1.0
    accumulator_format: FixedPointFormat | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedPointEstimate):
            return NotImplemented
        return _integer_state_equal(self, other)


@dataclass(eq=False)
class BatchFixedPointEstimate:
    """Fixed-point MP estimates for a whole stack of receive vectors.

    Same layout as :class:`FixedPointEstimate` with a leading ``(trials,)``
    axis on every array and per-trial scales; ``result[t]`` recovers the
    scalar view of one trial.  ``==`` compares the exact integer state per
    trial, like :class:`FixedPointEstimate`.
    """

    coefficients: np.ndarray
    path_indices: np.ndarray
    path_gains: np.ndarray
    decision_history: np.ndarray
    raw_real: np.ndarray
    raw_imag: np.ndarray
    raw_decisions: np.ndarray
    coefficient_scale: np.ndarray
    decision_scale: np.ndarray
    input_scale: np.ndarray
    accumulator_format: FixedPointFormat

    @property
    def num_trials(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def num_paths(self) -> int:
        return int(self.path_indices.shape[1])

    def __len__(self) -> int:
        return self.num_trials

    def __getitem__(self, trial: int) -> FixedPointEstimate:
        return FixedPointEstimate(
            coefficients=self.coefficients[trial],
            path_indices=self.path_indices[trial],
            path_gains=self.path_gains[trial],
            decision_history=self.decision_history[trial],
            raw_real=self.raw_real[trial],
            raw_imag=self.raw_imag[trial],
            raw_decisions=self.raw_decisions[trial],
            coefficient_scale=float(self.coefficient_scale[trial]),
            decision_scale=float(self.decision_scale[trial]),
            input_scale=float(self.input_scale[trial]),
            accumulator_format=self.accumulator_format,
        )

    def unbatch(self) -> list[FixedPointEstimate]:
        return [self[t] for t in range(self.num_trials)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchFixedPointEstimate):
            return NotImplemented
        return _integer_state_equal(self, other)


@dataclass
class FixedPointMatchingPursuit:
    """Fixed-point Matching Pursuits estimator.

    Parameters
    ----------
    matrices:
        The floating-point signal matrices; they are quantised once at
        construction (they are static in hardware, stored in block RAM).
    word_length:
        Datapath width in bits (8, 12 or 16 in the paper's exploration).
    num_paths:
        Number of paths ``Nf`` to estimate.
    accumulator_growth_bits:
        Extra bits carried by the matched-filter accumulator beyond the input
        word length (DSP48 accumulators are wide; default 16).
    rounding, overflow:
        Rounding and overflow behaviour of every quantiser in the datapath
        (the System Generator block parameters): round-to-nearest vs
        truncation, saturation vs two's-complement wrap-around.
    """

    matrices: SignalMatrices
    word_length: int = 8
    num_paths: int = 6
    accumulator_growth_bits: int = 16
    rounding: RoundingMode = RoundingMode.NEAREST
    overflow: OverflowMode = OverflowMode.SATURATE

    def __post_init__(self) -> None:
        check_integer("word_length", self.word_length, minimum=2, maximum=32)
        check_integer("num_paths", self.num_paths, minimum=1,
                      maximum=self.matrices.num_delays)
        check_integer("accumulator_growth_bits", self.accumulator_growth_bits,
                      minimum=0, maximum=32)
        self.rounding = RoundingMode(self.rounding)
        self.overflow = OverflowMode(self.overflow)

        # --- quantise the static matrices with power-of-two scaling -------
        s_scale = dynamic_range_scale(self.matrices.S)
        a_mat_scale = dynamic_range_scale(self.matrices.A)
        a_vec_scale = dynamic_range_scale(self.matrices.a)

        self._input_fmt = FixedPointFormat.for_unit_range(self.word_length)
        self.S_q = self._quantize(self.matrices.S / s_scale, self._input_fmt) * s_scale
        self.A_q = self._quantize(self.matrices.A / a_mat_scale, self._input_fmt) * a_mat_scale
        self.a_q = self._quantize(self.matrices.a / a_vec_scale, self._input_fmt) * a_vec_scale

        # datapath formats: products/accumulators carry extra bits
        self._acc_fmt = FixedPointFormat(
            min(self.word_length + self.accumulator_growth_bits, 48),
            self._input_fmt.fraction_length,
        )
        # fixed factor of the per-trial coefficient scale (see estimate())
        self._a_peak = float(np.max(np.abs(self.a_q)))

        # Whether the matched-filter accumulation is *exact* in float64: every
        # product of raw codes is <= 2**(2w-2) and the window sums at most
        # 2**ceil(log2(window)) of them, so when that stays within the 53-bit
        # integer mantissa every partial sum is exactly representable and any
        # summation order — matvec, matmul, FMA — yields identical bits.
        # estimate_batch then uses one matmul for the whole batch; outside the
        # bound it falls back to the scalar path's per-trial matvec call.
        product_bits = 2 * (self.word_length - 1) + math.ceil(
            math.log2(self.matrices.window_length)
        )
        self._matched_filter_exact = product_bits <= 52

    # ------------------------------------------------------------------ #
    # datapath building blocks
    #
    # These are public because they are *shared*: the scalar IP-core
    # simulator (`repro.core.ipcore`) runs the identical quantisation points —
    # the same calls, in the same order — so that the partitioned FC-block
    # datapath can be pinned against this estimator with ``==`` on raw
    # integer codes.
    # ------------------------------------------------------------------ #
    @property
    def input_format(self) -> FixedPointFormat:
        """Format of the stored matrices and the quantised receive vector."""
        return self._input_fmt

    @property
    def accumulator_format(self) -> FixedPointFormat:
        """Format every intermediate result is re-quantised to."""
        return self._acc_fmt

    @property
    def matched_filter_exact(self) -> bool:
        """True when the matched-filter accumulation is exact in float64.

        Inside this bound any summation order — matvec, matmul, per-block
        MAC — yields identical bits, which is what lets the batched paths
        use one matmul for a whole trial stack.
        """
        return self._matched_filter_exact

    def _quantize(self, values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
        """Quantise with this datapath's rounding and overflow modes."""
        return quantize(values, fmt, self.rounding, self.overflow)

    def quantize_received(self, received: np.ndarray) -> tuple[np.ndarray, float]:
        """Quantise the received vector with its own power-of-two scale."""
        scale = dynamic_range_scale(received)
        r_q = self._quantize(received / scale, self._input_fmt) * scale
        return r_q, scale

    def quantize_received_batch(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-trial :meth:`quantize_received` over a leading batch axis."""
        scales = dynamic_range_scale_batch(received)
        r_q = quantize_batch(
            received, self._input_fmt, self.rounding, self.overflow, scales=scales
        )
        return r_q, scales

    def matched_filter(self, r_q: np.ndarray) -> np.ndarray:
        """The canonical matched-filter call ``S_q^T r_q`` for one trial.

        Every datapath (scalar, batched outside the exactness bound, and the
        IP-core simulators) evaluates the matched filter through this very
        call, so BLAS summation order can never differ between them.
        """
        return self.S_q.T @ r_q

    def matched_filter_batch(self, r_q: np.ndarray) -> np.ndarray:
        """Matched filter for a ``(trials, window)`` stack, bit-identically.

        One exact matmul when every summation order gives the same bits (see
        :attr:`matched_filter_exact`), else the identical per-trial
        :meth:`matched_filter` call the scalar path makes.
        """
        if self._matched_filter_exact:
            return (r_q.real @ self.S_q) + 1j * (r_q.imag @ self.S_q)
        matched = np.empty(
            (r_q.shape[0], self.matrices.num_delays), dtype=np.complex128
        )
        for t in range(r_q.shape[0]):
            matched[t] = self.matched_filter(r_q[t])
        return matched

    def requantize(self, values: np.ndarray, scale: float) -> np.ndarray:
        """Re-quantise one trial's intermediates to the accumulator format.

        Element-wise, so an FC block's slice of an array re-quantises to the
        same bits as the whole array.
        """
        return self._quantize(values / scale, self._acc_fmt) * scale

    def _requant_batch(self, values: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Per-trial :meth:`requantize` over a leading batch axis, bit-identically."""
        return quantize_batch(
            values, self._acc_fmt, self.rounding, self.overflow, scales=scales
        )

    def coefficient_scales(self, v_scale):
        """The (per-trial) scales of the temporary coefficients and decisions.

        The temporary coefficients ``G = V * a`` live at the matched-filter
        scale times the peak magnitude of the quantised ``a`` vector; the
        decision variables ``Q = Re(G^* V)`` at the product of the two.  A
        degenerate all-zero ``a`` (possible only at the narrowest word
        lengths under truncation) falls back to the matched-filter scale so
        no zero-scale division enters the datapath.
        """
        g_scale = v_scale * self._a_peak if self._a_peak > 0 else v_scale
        q_scale = g_scale * v_scale
        return g_scale, q_scale

    def assemble_estimate(
        self,
        coefficients: np.ndarray,
        path_indices: np.ndarray,
        path_gains: np.ndarray,
        decision_history: np.ndarray,
        input_scale: float,
        g_scale: float,
        q_scale: float,
    ) -> FixedPointEstimate:
        """Package one trial's datapath outputs with their raw integer codes."""
        resolution = self._acc_fmt.resolution
        return FixedPointEstimate(
            coefficients=coefficients,
            path_indices=path_indices,
            path_gains=path_gains,
            decision_history=decision_history,
            raw_real=_integer_codes(coefficients.real, resolution, g_scale),
            raw_imag=_integer_codes(coefficients.imag, resolution, g_scale),
            raw_decisions=_integer_codes(decision_history, resolution, q_scale),
            coefficient_scale=g_scale,
            decision_scale=q_scale,
            input_scale=input_scale,
            accumulator_format=self._acc_fmt,
        )

    def assemble_estimate_batch(
        self,
        coefficients: np.ndarray,
        path_indices: np.ndarray,
        path_gains: np.ndarray,
        decision_history: np.ndarray,
        input_scales: np.ndarray,
        g_scales: np.ndarray,
        q_scales: np.ndarray,
    ) -> BatchFixedPointEstimate:
        """Package a whole batch's datapath outputs with their raw codes."""
        resolution = self._acc_fmt.resolution
        g_column = np.asarray(g_scales, dtype=np.float64)[:, np.newaxis]
        q_column = np.asarray(q_scales, dtype=np.float64)[:, np.newaxis]
        return BatchFixedPointEstimate(
            coefficients=coefficients,
            path_indices=path_indices,
            path_gains=path_gains,
            decision_history=decision_history,
            raw_real=_integer_codes(coefficients.real, resolution, g_column),
            raw_imag=_integer_codes(coefficients.imag, resolution, g_column),
            raw_decisions=_integer_codes(decision_history, resolution, q_column),
            coefficient_scale=np.asarray(g_scales, dtype=np.float64),
            decision_scale=np.asarray(q_scales, dtype=np.float64),
            input_scale=np.asarray(input_scales, dtype=np.float64),
            accumulator_format=self._acc_fmt,
        )

    # ------------------------------------------------------------------ #
    def estimate(self, received: np.ndarray) -> FixedPointEstimate:
        """Run fixed-point MP on a received vector (scalar executable spec).

        The control flow is identical to the floating-point reference; only
        the arithmetic precision differs.
        """
        received = ensure_1d_array(
            "received", received, dtype=np.complex128,
            length=self.matrices.window_length,
        )
        r_q, r_scale = self.quantize_received(received)
        num_delays = self.matrices.num_delays

        # scale of the matched-filter outputs: |S^T r| <= window * max|S| * max|r|
        matched = self.matched_filter(r_q)
        v_scale = dynamic_range_scale(matched)

        V = self.requantize(matched, v_scale)
        F = np.zeros(num_delays, dtype=np.complex128)
        selected = np.zeros(num_delays, dtype=bool)

        path_indices = np.empty(self.num_paths, dtype=np.int64)
        path_gains = np.empty(self.num_paths, dtype=np.complex128)
        decision_history = np.empty(self.num_paths, dtype=np.float64)

        g_scale, q_scale = self.coefficient_scales(v_scale)

        previous: int | None = None
        for j in range(self.num_paths):
            if previous is not None:
                V = self.requantize(V - self.A_q[:, previous] * F[previous], v_scale)
            G = self.requantize(V * self.a_q, g_scale)
            Q = self.requantize(np.real(np.conj(G) * V), q_scale)
            Q_masked = np.where(selected, -np.inf, Q)
            q = int(np.argmax(Q_masked))
            F[q] = G[q]
            selected[q] = True
            path_indices[j] = q
            path_gains[j] = G[q]
            decision_history[j] = Q[q]
            previous = q

        return self.assemble_estimate(
            F, path_indices, path_gains, decision_history, r_scale, g_scale, q_scale
        )

    # ------------------------------------------------------------------ #
    def estimate_batch(self, received: np.ndarray) -> BatchFixedPointEstimate:
        """Run fixed-point MP on a ``(trials, window)`` stack of receive vectors.

        Bit-identical to calling :meth:`estimate` on each row: the dynamic
        range scaling, every re-quantisation and the cancellation updates are
        the same element-wise float64 expressions evaluated over the whole
        batch, and the matched filter runs as one matmul only at word
        lengths where its accumulation is exact integer math in float64
        (any summation order gives the same bits); at wider word lengths —
        where a matmul could re-associate the accumulation and change the
        last bit — it applies the identical per-trial ``S_q.T @ r`` call.
        An empty batch is valid and yields empty result arrays.
        """
        received = ensure_2d_array(
            "received", received, dtype=np.complex128,
            shape=(None, self.matrices.window_length),
        )
        trials = received.shape[0]
        num_delays = self.matrices.num_delays

        with span("engine.fixedpoint.matched_filter", trials=trials):
            r_q, r_scales = self.quantize_received_batch(received)
            matched = self.matched_filter_batch(r_q)
            v_scales = dynamic_range_scale_batch(matched)
            V = self._requant_batch(matched, v_scales)

        F = np.zeros((trials, num_delays), dtype=np.complex128)
        selected = np.zeros((trials, num_delays), dtype=bool)

        path_indices = np.empty((trials, self.num_paths), dtype=np.int64)
        path_gains = np.empty((trials, self.num_paths), dtype=np.complex128)
        decision_history = np.empty((trials, self.num_paths), dtype=np.float64)

        g_scales, q_scales = self.coefficient_scales(v_scales)

        rows = np.arange(trials)
        with span("engine.fixedpoint.iterations", trials=trials, num_paths=self.num_paths):
            previous: np.ndarray | None = None
            for j in range(self.num_paths):
                if previous is not None:
                    # column q of A per trial, taken as a row of A^T so no
                    # symmetry of A is assumed (mirrors matching_pursuit_batch)
                    cancelled = V - self.A_q.T[previous] * F[rows, previous][:, np.newaxis]
                    V = self._requant_batch(cancelled, v_scales)
                G = self._requant_batch(V * self.a_q, g_scales)
                Q = self._requant_batch(np.real(np.conj(G) * V), q_scales)
                Q_masked = np.where(selected, -np.inf, Q)
                q = np.argmax(Q_masked, axis=1)
                F[rows, q] = G[rows, q]
                selected[rows, q] = True
                path_indices[:, j] = q
                path_gains[:, j] = G[rows, q]
                decision_history[:, j] = Q[rows, q]
                previous = q

        return self.assemble_estimate_batch(
            F, path_indices, path_gains, decision_history, r_scales, g_scales, q_scales
        )

    # ------------------------------------------------------------------ #
    @property
    def storage_bits(self) -> int:
        """Total bits needed to store S, A and a at this word length.

        Section IV.C quotes 1208 kbit for 32-bit storage of the 224x112,
        112x112 and 1x112 matrices; this property generalises that count.
        """
        n_values = self.matrices.S.size + self.matrices.A.size + self.matrices.a.size
        return int(n_values) * self.word_length
