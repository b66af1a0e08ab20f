"""Closed-form FLOP/byte math for every layer type.

The serving simulator times hundreds of thousands of stages, so layer costs
are computed in closed form per *representative layer* and scaled by layer
counts, instead of materialising a graph of thousands of operators.  All
functions return :class:`~repro.models.ops.Operator` values for **one
device**, parameterised by that device's shard fractions.

Accounting conventions (consistent across layers so totals balance):

* Weights are streamed once per operator (no cross-layer caching — they are
  far too large for SRAM).
* Activations are charged one read of the input and one write of the output
  per fused operator; attention scores are never materialised to DRAM
  (FlashAttention-style).
* KV vectors are written where they are produced (the QKV projection) and
  read where they are consumed (the attention operator).
* Light layers (LayerNorm, residual adds) ride along as extra activation
  bytes inside the FC operator, as in the paper's breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.models.config import ModelConfig
from repro.models.ops import OpCategory, Operator

#: FLOPs charged per attention score for softmax (max, sub, exp, sum, div).
SOFTMAX_FLOPS_PER_SCORE = 5.0


@dataclass(frozen=True)
class DeviceShard:
    """Shard fractions of one device.

    Attributes:
        fc_fraction: tensor-parallel share of non-expert weights and heads.
        expert_fraction: share of each *resident* expert's weights
            (1.0 under expert parallelism, 1/N under expert tensor
            parallelism).
        kv_fraction: share of each request's KV heads this device processes.
    """

    fc_fraction: float = 1.0
    expert_fraction: float = 1.0
    kv_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("fc_fraction", "expert_fraction", "kv_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"shard fraction {name} must be in (0, 1], got {value}")


class LayerMath:
    """Per-layer operator math for one model.

    Args:
        model: the model configuration the math describes.
    """

    def __init__(self, model: ModelConfig) -> None:
        self.model = model

    # ------------------------------------------------------------------
    # FC side (QKV generation + projection + light layers)
    # ------------------------------------------------------------------
    def qkv_and_projection(self, n_tokens: float, fc_fraction: float = 1.0) -> Operator:
        """QKV generation and output projection of one block (plus light layers).

        KV-cache appends for the ``n_tokens`` processed tokens are charged
        here as writes (this is where K and V are produced).
        """
        self._check_tokens(n_tokens)
        m = self.model
        params = m.attention_params_per_layer * fc_fraction
        flops = 2.0 * n_tokens * params
        act = n_tokens * m.hidden * m.dtype_bytes
        kv_append = n_tokens * m.kv_bytes_per_token_per_layer * fc_fraction
        # Input read for QKV and for projection, plus LayerNorm/residual traffic.
        bytes_read = params * m.dtype_bytes + 4.0 * act
        bytes_written = 2.0 * act + kv_append
        return Operator("qkv_proj", OpCategory.FC, flops, bytes_read, bytes_written)

    def dense_ffn(self, n_tokens: float, fc_fraction: float = 1.0) -> Operator:
        """One conventional FFN (GLaM's dense blocks, OPT, Llama3)."""
        self._check_tokens(n_tokens)
        m = self.model
        params = m.dense_ffn_params * fc_fraction
        flops = 2.0 * n_tokens * params + n_tokens * m.intermediate * fc_fraction
        act = n_tokens * m.hidden * m.dtype_bytes
        return Operator(
            "dense_ffn",
            OpCategory.FC,
            flops,
            params * m.dtype_bytes + act,
            act,
        )

    def embedding(self, n_tokens: float) -> Operator:
        """Token-embedding lookups for one stage (whole device group)."""
        self._check_tokens(n_tokens)
        m = self.model
        act = n_tokens * m.hidden * m.dtype_bytes
        return Operator("embedding", OpCategory.FC, 0.0, act, act)

    def lm_head(self, n_tokens: float, fc_fraction: float = 1.0) -> Operator:
        """LM head projection for the tokens that produce an output."""
        self._check_tokens(n_tokens)
        m = self.model
        params = m.vocab_size * m.hidden * fc_fraction
        flops = 2.0 * n_tokens * params
        act = n_tokens * m.hidden * m.dtype_bytes
        out = n_tokens * m.vocab_size * m.dtype_bytes * fc_fraction
        return Operator("lm_head", OpCategory.FC, flops, params * m.dtype_bytes + act, out)

    # ------------------------------------------------------------------
    # attention
    # ------------------------------------------------------------------
    def attention_decode(
        self, context_lengths: np.ndarray | Sequence[int], kv_fraction: float = 1.0
    ) -> Operator:
        """Decode attention of one block for a batch of ongoing requests.

        Each request multiplies its (deggrp x d_head) query slice with its
        own cached K and V — a GEMV for MHA, a narrow GEMM for GQA — so the
        work is a sum over requests; the operator's Op/B works out to
        ~deggrp regardless of context length, the paper's core observation.

        Args:
            context_lengths: per-request KV lengths (tokens already cached).
            kv_fraction: share of KV heads this device holds.
        """
        flops, bytes_read, bytes_written = self.attention_decode_fields(
            context_lengths, kv_fraction
        )
        return Operator(
            "attention_decode", OpCategory.ATTENTION_DECODE, flops, bytes_read, bytes_written
        )

    def attention_decode_fields(
        self,
        context_lengths: np.ndarray | Sequence[int],
        kv_fraction: float = 1.0,
        *,
        validate: bool = True,
    ) -> tuple[float, float, float]:
        """Decode-attention (flops, bytes read, bytes written), no Operator.

        The stage executor prices decode attention every stage (contexts
        grow each token, so nothing caches); returning the raw fields skips
        the per-stage operator construction.  ``validate=False`` skips the
        negativity check for callers whose contexts are non-negative by
        construction (the scheduler's state machine).
        """
        lengths = np.asarray(context_lengths)
        # add.reduce is ndarray.sum without the method-dispatch wrapper —
        # same pairwise reduction, so the value is bit-identical.
        total_ctx = float(np.add.reduce(lengths)) if lengths.size else 0.0
        if total_ctx == 0.0:
            return 0.0, 0.0, 0.0
        if validate and (lengths < 0).any():
            raise ConfigError("context lengths must be non-negative")
        m = self.model
        n_requests = float(lengths.size)
        # QK^T and PV: 2 GEMMs of (deggrp x d_head x L) per KV head.
        flops = 4.0 * m.n_heads * m.d_head * total_ctx * kv_fraction
        flops += SOFTMAX_FLOPS_PER_SCORE * m.n_heads * total_ctx * kv_fraction
        kv_read = total_ctx * m.kv_bytes_per_token_per_layer * kv_fraction
        q_read = n_requests * m.n_heads * m.d_head * m.dtype_bytes * kv_fraction
        out_write = n_requests * m.n_heads * m.d_head * m.dtype_bytes * kv_fraction
        return flops, kv_read + q_read, out_write

    def attention_prefill(
        self,
        prefill_lengths: Iterable[int],
        kv_fraction: float = 1.0,
        context_lengths: Iterable[int] | None = None,
    ) -> Operator:
        """Prefill (summarisation) attention of one block.

        Causal attention over each new request's full input: L^2-scaled
        compute against L-scaled traffic, i.e. high Op/B.

        Args:
            prefill_lengths: new input tokens per request this stage.
            kv_fraction: share of KV heads this device holds.
            context_lengths: per-request tokens already prefilled in earlier
                chunks (chunked prefill); each new query also attends to
                that cached context, so a chunk of ``c`` tokens after ``p``
                cached ones scores ``p*c + c^2/2`` pairs and re-reads the
                cached KV.  None means no prior context.
        """
        m = self.model
        lengths = np.array(list(prefill_lengths), dtype=np.float64)
        if context_lengths is None:
            contexts = np.zeros_like(lengths)
        else:
            contexts = np.array(list(context_lengths), dtype=np.float64)
            if contexts.shape != lengths.shape:
                raise ConfigError("context_lengths must parallel prefill_lengths")
        if lengths.size == 0:
            return Operator("attention_prefill", OpCategory.ATTENTION_PREFILL, 0.0, 0.0, 0.0)
        if (lengths < 0).any() or (contexts < 0).any():
            raise ConfigError("prefill lengths must be non-negative")
        # Elementwise terms mirror the scalar per-request formulas in the
        # same floating-point operation order; zero-length requests (which
        # the scalar loop skipped) are masked to contribute exactly nothing.
        causal_scores = contexts * lengths + 0.5 * lengths * lengths
        qk_flops = 4.0 * m.n_heads * m.d_head * causal_scores * kv_fraction
        softmax_flops = SOFTMAX_FLOPS_PER_SCORE * m.n_heads * causal_scores * kv_fraction
        q_bytes = lengths * m.n_heads * m.d_head * m.dtype_bytes * kv_fraction
        kv_bytes = (contexts + lengths) * m.kv_bytes_per_token_per_layer * kv_fraction
        empty = lengths == 0
        if empty.any():
            kv_bytes[empty] = 0.0
        # The scalar loop interleaved the two flop terms per request; a
        # cumulative sum over the interleaved terms reproduces that exact
        # left-to-right accumulation bit-for-bit (np.sum would reassociate).
        interleaved = np.empty(2 * lengths.size)
        interleaved[0::2] = qk_flops
        interleaved[1::2] = softmax_flops
        flops = float(interleaved.cumsum()[-1])
        bytes_read = float((q_bytes + kv_bytes).cumsum()[-1])
        bytes_written = float(q_bytes.cumsum()[-1])  # attention output, same shape as Q
        return Operator(
            "attention_prefill", OpCategory.ATTENTION_PREFILL, flops, bytes_read, bytes_written
        )

    # ------------------------------------------------------------------
    # MoE
    # ------------------------------------------------------------------
    def gate(self, n_tokens: float, fc_fraction: float = 1.0) -> Operator:
        """The MoE router of one block."""
        self._check_tokens(n_tokens)
        m = self.model
        if not m.is_moe:
            raise ConfigError(f"{m.name} has no MoE layers")
        params = m.gate_params * fc_fraction
        act = n_tokens * m.hidden * m.dtype_bytes
        scores = n_tokens * m.n_experts * m.dtype_bytes * fc_fraction
        return Operator(
            "gate", OpCategory.MOE, 2.0 * n_tokens * params, params * m.dtype_bytes + act, scores
        )

    def expert_ffn(self, expert_id: int, n_tokens: float, expert_fraction: float = 1.0) -> Operator:
        """One expert FFN processing ``n_tokens`` routed tokens.

        A zero-token expert costs nothing: its weights are never streamed.
        """
        self._check_tokens(n_tokens)
        m = self.model
        if not m.is_moe:
            raise ConfigError(f"{m.name} has no MoE layers")
        if n_tokens == 0:
            return Operator(f"expert[{expert_id}]", OpCategory.MOE, 0.0, 0.0)
        params = m.expert_params * expert_fraction
        flops = 2.0 * n_tokens * params + n_tokens * m.intermediate * expert_fraction
        act = n_tokens * m.hidden * m.dtype_bytes
        return Operator(
            f"expert[{expert_id}]",
            OpCategory.MOE,
            flops,
            params * m.dtype_bytes + act,
            act * expert_fraction,
        )

    def expert_ffns(
        self, tokens_per_expert: dict[int, int] | np.ndarray, expert_fraction: float = 1.0
    ) -> list[Operator]:
        """Expert FFN operators for all resident experts with routed tokens."""
        if isinstance(tokens_per_expert, np.ndarray):
            items: Iterable[tuple[int, int]] = enumerate(tokens_per_expert.tolist())
        else:
            items = sorted(tokens_per_expert.items())
        return [
            self.expert_ffn(expert_id, count, expert_fraction)
            for expert_id, count in items
            if count > 0
        ]

    def expert_ffn_arrays(
        self,
        tokens_per_expert: np.ndarray | Sequence[int],
        expert_fraction: float = 1.0,
        *,
        validate: bool = True,
        idle: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`expert_ffn`: per-expert (flops, bytes read, bytes written).

        One numpy pass over all resident experts replaces the per-expert
        operator loop; each element is bit-identical to the corresponding
        scalar :meth:`expert_ffn` field.  Zero-token experts cost exactly
        nothing (their weights are never streamed).

        Args:
            tokens_per_expert: routed token count per resident expert.
            expert_fraction: weight share of each expert on this device.
            validate: skip the non-negativity check when the caller already
                guarantees it (the stage executor's per-stage hot path).
            idle: precomputed ``tokens == 0`` mask, if the caller has one.
        """
        m = self.model
        if not m.is_moe:
            raise ConfigError(f"{m.name} has no MoE layers")
        tokens = np.asarray(tokens_per_expert, dtype=np.float64)
        if validate and (tokens < 0).any():
            raise ConfigError("token count must be non-negative")
        params = m.expert_params * expert_fraction
        flops = 2.0 * tokens * params + tokens * m.intermediate * expert_fraction
        act = tokens * m.hidden * m.dtype_bytes
        bytes_read = params * m.dtype_bytes + act
        bytes_written = act * expert_fraction
        if idle is None:
            idle = tokens == 0
        if idle.any():
            flops[idle] = 0.0
            bytes_read[idle] = 0.0
            bytes_written[idle] = 0.0
        return flops, bytes_read, bytes_written

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_tokens(n_tokens: float) -> None:
        if n_tokens < 0:
            raise ConfigError("token count must be non-negative")
