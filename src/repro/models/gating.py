"""Expert routing.

The paper chooses target experts per token with a uniform distribution
(Section VI, citing Switch Transformers); Section VIII-B discusses skewed
("hot expert") routing, which we model with a Zipf-weighted distribution.

The router returns *token counts per expert* for a whole stage — what the
MoE layer math and the co-processing assignment actually consume.  Counts
always conserve tokens: they sum to ``n_tokens * top_k``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigError


class ExpertRouter:
    """Samples how many tokens land on each expert.

    Args:
        n_experts: experts per MoE layer.
        top_k: experts each token routes to.
        skew: 0.0 for the paper's uniform routing; larger values make a
            Zipf-weighted distribution with hot experts (Section VIII-B).
        seed: RNG seed for reproducibility.
    """

    def __init__(self, n_experts: int, top_k: int, skew: float = 0.0, seed: int | None = None) -> None:
        if n_experts < 1:
            raise ConfigError("router needs at least one expert")
        if not 1 <= top_k <= n_experts:
            raise ConfigError("top_k must be within 1..n_experts")
        if skew < 0:
            raise ConfigError("skew must be non-negative")
        self.n_experts = n_experts
        self.top_k = top_k
        self.skew = skew
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, n_experts + 1, dtype=float)
        weights = ranks ** (-skew) if skew > 0 else np.ones(n_experts)
        self._probabilities = weights / weights.sum()

    @property
    def probabilities(self) -> np.ndarray:
        """Per-expert selection probabilities (copy)."""
        return self._probabilities.copy()

    def route(self, n_tokens: int) -> np.ndarray:
        """Sample token counts per expert for ``n_tokens`` tokens.

        Each token notionally selects ``top_k`` experts; we sample the
        aggregate multinomially, which matches the uniform-routing setup the
        paper simulates while conserving the total assignment count exactly.

        Returns:
            int64 array of length ``n_experts`` summing to
            ``n_tokens * top_k``.
        """
        if n_tokens < 0:
            raise ConfigError("token count must be non-negative")
        if n_tokens == 0:
            return np.zeros(self.n_experts, dtype=np.int64)
        counts = self._rng.multinomial(n_tokens * self.top_k, self._probabilities)
        return counts.astype(np.int64, copy=False)

    def route_stages(self, tokens: Sequence[int], lengths: Sequence[int]) -> np.ndarray:
        """Sample one routing per stage over consecutive stretches of
        stages: ``lengths[j]`` stages at ``tokens[j]`` (positive) tokens
        each.

        Row ``k`` is bit-identical to the ``k``-th of the sequential
        :meth:`route` calls: each stretch is one ``size=`` multinomial
        draw, whose rows numpy draws in stream order (an array-``n`` draw
        over every stage would match too, at several times the fixed
        cost).  That is what lets the columnar decode fast path route a
        whole run of stages — its batch shrinking at in-batch completions
        — without perturbing the random stream.

        Returns:
            int64 array of shape ``(sum(lengths), n_experts)``.
        """
        counts = np.concatenate(
            [
                self._rng.multinomial(n_tokens * self.top_k, self._probabilities, size=n_stages)
                for n_tokens, n_stages in zip(tokens, lengths, strict=True)
            ]
        )
        return counts.astype(np.int64, copy=False)

    def state_snapshot(self) -> dict:
        """Snapshot of the RNG stream position (for batched-draw rewind)."""
        return self._rng.bit_generator.state

    def state_restore(self, state: dict) -> None:
        """Rewind the RNG stream to a prior :meth:`state_snapshot`."""
        self._rng.bit_generator.state = state

    def expected_counts(self, n_tokens: int) -> np.ndarray:
        """Expected token count per expert (deterministic runs and tests)."""
        if n_tokens < 0:
            raise ConfigError("token count must be non-negative")
        return n_tokens * self.top_k * self._probabilities
