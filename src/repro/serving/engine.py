"""The fleet-batched Monte-Carlo inference engine.

:class:`FleetForecaster` drives a trained sequence backbone
(:class:`~repro.models.deep.rankmodel.RankSeqModel`-style recurrent models,
or :class:`~repro.models.deep.transformer.TransformerSeqModel`) over many
forecast requests at once.  The model is duck-typed: a recurrent backbone
exposes ``lstm`` (a ``StackedLSTM`` or ``StackedGRU``), a fused
multi-dimension Gaussian ``head``, ``target_dim`` and ``num_covariates``;
a Transformer backbone exposes ``_encode`` / ``_decode`` instead of
``lstm``.

Batching strategy
-----------------
* Requests are grouped by ``(history length, horizon)`` and each group is
  flattened to a single ``sum(n_samples)``-row batch for the decode loop,
  so one recurrent ``step`` advances every trajectory of every car at once.
* Warm-up (teacher forcing over the observed history) runs with **one row
  per request**, not per sample — the state is deterministic, so it is
  computed once and replicated across the Monte-Carlo trajectories.
* Requests sharing ``(key, origin, length)`` (e.g. the several pit-stop
  plans of one RankNet-MLP forecast) share a single warm-up computation.
* In ``carry`` mode the engine additionally caches each car's recurrent
  state per origin and advances it incrementally between consecutive
  origins instead of re-running teacher forcing from the window start.
  Each round of that warm-up works on whole arrays: one pack of the
  cache entries' states, one ``export_state`` of the advanced states, and
  cache entries sliced from that one export.
  The target scale is frozen per car when its cache entry is created, so
  carried states are self-consistent; forecasts therefore match a
  from-scratch replay *with that frozen scale* exactly, but may differ
  slightly from ``exact`` mode (which re-scales at every origin).
  Transformer backbones have no step-wise state and always run ``exact``.

Decode engine
-------------
The Monte-Carlo decode loop runs on one fused, allocation-free path:

* **block RNG** — NumPy ``Generator`` streams are call-size invariant, so
  each request's entire noise tensor is drawn in a single
  ``standard_normal(horizon * target_dim * n_samples)`` call before the
  lap loop and reshaped to replay the per-lap (step, dim, request) draw
  order byte-identically, replacing the nested per-dim/per-request
  sampling loops with one vectorised ``mu + sigma * noise[h]`` per step;
* **one recurrent kernel** — the warm-up, lap 1 and laps 2..H all run the
  cells' ``step_decode`` kernel (:mod:`repro.nn.recurrent` /
  :mod:`repro.nn.gru`: permuted contiguous gate blocks, one dense sigmoid
  pass) through one :class:`~repro.nn.inference.StackInference` driver; the
  warm-up runs its ``sequence_decode`` form, one input-projection GEMM per
  layer over the history in time chunks of at most ``max_batch_rows``
  rows.  The masked-sigmoid reference the kernel
  is gated bitwise against lives in ``tests/reference/recurrent.py``;
* **first lap once per request** — all samples of a request enter lap 1
  with the same state, target and covariates, so lap 1 steps one row per
  request and only the head's ``(mu, sigma)`` is repeated over the samples;
* **lap 2's recurrent products once per request** — every sample of a
  request also starts lap 2 from the request's lap-1 state, so loading
  those states into the sample rows (``driver.load(states, rows=...)``)
  computes each layer's ``h @ w_h`` (the GRU's gate and candidate
  products) on one row per request and gathers them into the sample rows;
  only lap 2's input projection runs per sample;
* **a workspace that outlives the submit** — the driver owns one context
  per layer (decode scratch plus the warm-up's ``(B*T)``-row projection and
  output buffers) and the engine the sampled-target and step-input rows,
  all grown to the largest batch so far (see ``max_batch_rows``).  Each
  submit runs on leading-row views of them and gathers every request's
  lap-1 state straight into its sample rows, so a steady stream of submits
  stops allocating — and page-faulting on — megabytes of fresh scratch per
  call.  Weights are re-read into the workspace on every submit; returned
  samples and cached warm-up states are always freshly allocated, never
  workspace views;
* **hoisted covariates** — the later laps' future-covariate rows are
  expanded once into a ``(horizon - 1, total, C)`` tensor instead of an
  ``np.repeat`` per lap.

The per-lap loop the fused path replaced (the same kernel, with per-lap
allocations and per-request RNG loops) is kept in
``tests/reference/decode.py``; the fused loop is gated byte-identical
against it (``benchmarks/test_bench_decode.py``,
``tests/serving/test_decode_parity.py``).

One engine runs one :meth:`FleetForecaster.submit` at a time, since every
submit shares the workspace: an overlapping call from another thread
raises ``RuntimeError`` instead of racing on the buffers (the gateway
already serialises engine work per model).

Because every recurrent matmul goes through
:func:`repro.nn.inference.stable_matmul`, results are independent of batch
composition: given per-request RNG streams, a fleet-batched submit is
byte-identical to submitting each request on its own.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.inference import MultiGaussianHeadInference, StackInference, slice_states
from ..nn.precision import (
    DEFAULT_PRECISION,
    RowWorkspace,
    assert_dtype,
    compute_dtype,
    convert_module,
    normalize_precision,
)
from .cache import CachedWarmup, WarmupStateCache
from .requests import ForecastRequest

__all__ = ["FleetForecaster"]

_MODES = ("exact", "carry")


def _dedupe_warmups(
    requests: Sequence[ForecastRequest], stats: Dict[str, int]
) -> Tuple[List[int], List[ForecastRequest]]:
    """Map each request to a warm-up slot shared by identical warm-ups.

    Requests with the same :meth:`ForecastRequest.warmup_key` (same car,
    origin and history length — e.g. the several pit-stop plans of one
    RankNet-MLP forecast) compute their deterministic warm-up only once.
    """
    slot_of: Dict[Hashable, int] = {}
    owners: List[int] = []
    uniques: List[ForecastRequest] = []
    for request in requests:
        key = request.warmup_key()
        slot = slot_of.get(key)
        if slot is None:
            slot = len(uniques)
            slot_of[key] = slot
            uniques.append(request)
        else:
            stats["warmup_shared"] += 1
        owners.append(slot)
    stats["warmup_unique"] += len(uniques)
    return owners, uniques


def _pack_entries(entries: Sequence[CachedWarmup]) -> np.ndarray:
    """The packed states of cache entries side by side on the batch axis."""
    return np.concatenate([entry.packed_state for entry in entries], axis=-2)


class FleetForecaster:
    """Batch scheduler turning forecast requests into Monte-Carlo samples.

    Parameters
    ----------
    model:
        A fitted sequence backbone (recurrent or Transformer, see module
        docstring).  Parameters are shared by reference; refitting the
        model is picked up automatically, but call :meth:`reset_cache`
        after changing weights when running in ``carry`` mode.
    mode:
        ``"exact"`` recomputes the warm-up at every origin (bitwise
        reference behaviour); ``"carry"`` advances cached per-car states
        between consecutive origins (fastest for rolling-origin loops).
    cache_size:
        Maximum number of per-car state entries kept in ``carry`` mode.
    max_batch_rows:
        Upper bound on the flattened ``sum(n_samples)`` rows per decode
        batch; larger groups are split (results are unaffected — the
        kernels are batch-size invariant).  It also bounds the rows of the
        workspace the engine keeps between submits: the decode rows, except
        that a single request with more samples is decoded whole, and the
        warm-up's sequence rows, which run in time chunks of
        ``max(1, max_batch_rows // B)`` steps for ``B`` distinct warm-ups.
    precision:
        ``"float64"`` (default) is the exact reference tier — bitwise
        unchanged behaviour.  ``"float32"`` runs the whole warm-up and
        decode in single precision on a converted weight replica;
        ``"int8"`` additionally quantises the replica's weights
        per-output-channel to int8 and dequantises them once into the f32
        GEMM operands.  Low-precision tiers require a recurrent backbone;
        their contract is *error-bounded* rank-forecast parity against the
        float64 reference (gated in ``benchmarks/test_bench_precision.py``),
        not byte identity.
        Returned sample arrays are always float64 — the tier changes the
        arithmetic, not the wire/result dtype.  The replica's weights are
        snapshotted at construction; changing the weights requires a fresh
        engine (the deep forecasters drop their engines on ``fit`` and
        ``fine_tune``).
    """

    def __init__(
        self,
        model,
        mode: str = "exact",
        cache_size: int = 512,
        max_batch_rows: int = 8192,
        precision: str = DEFAULT_PRECISION,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.precision = normalize_precision(precision)
        self.dtype = compute_dtype(self.precision)
        self.model = model
        self.mode = mode
        self.max_batch_rows = int(max_batch_rows)
        self.cache = WarmupStateCache(cache_size)
        if hasattr(model, "lstm"):
            self._backend = _RecurrentBackend(self)
        elif hasattr(model, "_encode") and hasattr(model, "_decode"):
            if self.precision != "float64":
                raise ValueError(
                    f"precision={self.precision!r} is not available for the "
                    "Transformer backbone: it decodes through the float64 "
                    "training modules; request the float64 reference tier"
                )
            self._backend = _TransformerBackend(self)
        else:
            raise TypeError(
                f"unsupported backbone {type(model).__name__}: expected a recurrent "
                "model (with .lstm) or a Transformer model (with ._encode/._decode)"
            )
        self._stats: Dict[str, int] = {
            "submits": 0,
            "requests": 0,
            "groups": 0,
            "warmup_unique": 0,
            "warmup_shared": 0,
            "warmup_steps": 0,
            "decode_steps": 0,
        }
        self._timings: Dict[str, float] = {"warmup_s": 0.0, "decode_s": 0.0}
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------------
    def submit(self, requests: Sequence[ForecastRequest]) -> List[np.ndarray]:
        """Run every request; returns one ``(n_samples, horizon)`` array each.

        Samples are trajectories of the first target dimension on the
        original scale, in the order the requests were submitted.  Raises
        ``RuntimeError`` when another thread is inside ``submit`` on this
        engine (the decode workspace is shared by every submit).
        """
        if not self._submit_lock.acquire(blocking=False):
            raise RuntimeError(
                "FleetForecaster.submit is already running on this engine; "
                "one engine serves one submit at a time"
            )
        try:
            return self._submit(requests)
        finally:
            self._submit_lock.release()

    def _submit(self, requests: Sequence[ForecastRequest]) -> List[np.ndarray]:
        requests = list(requests)
        if not requests:
            return []
        for request in requests:
            self._backend.validate(request)
        self._stats["submits"] += 1
        self._stats["requests"] += len(requests)

        groups: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
        for i, request in enumerate(requests):
            groups.setdefault((request.length, request.horizon), []).append(i)

        outputs: List[Optional[np.ndarray]] = [None] * len(requests)
        for indices in groups.values():
            for chunk in self._row_chunks(requests, indices):
                self._stats["groups"] += 1
                results = self._backend.run_group([requests[i] for i in chunk])
                for i, samples in zip(chunk, results):
                    outputs[i] = samples
        return outputs  # type: ignore[return-value]

    def _row_chunks(
        self, requests: Sequence[ForecastRequest], indices: List[int]
    ) -> List[List[int]]:
        """Split one group so each chunk stays under ``max_batch_rows``."""
        chunks: List[List[int]] = []
        current: List[int] = []
        rows = 0
        for i in indices:
            n = requests[i].n_samples
            if current and rows + n > self.max_batch_rows:
                chunks.append(current)
                current, rows = [], 0
            current.append(i)
            rows += n
        if current:
            chunks.append(current)
        return chunks

    # ------------------------------------------------------------------
    def reset_cache(self) -> None:
        """Drop all carried warm-up states (call after refitting weights)."""
        self.cache.invalidate()

    @property
    def stats(self) -> Dict[str, int]:
        """Engine counters merged with the state-cache statistics."""
        merged = dict(self._stats)
        for name, value in self.cache.stats().items():
            merged[f"cache_{name}"] = value
        return merged

    @property
    def timings(self) -> Dict[str, float]:
        """Accumulated warm-up / decode wall-clock of all submits."""
        return dict(self._timings)

    def reset_timings(self) -> None:
        for key in self._timings:
            self._timings[key] = 0.0


# ----------------------------------------------------------------------
# recurrent backend (StackedLSTM / StackedGRU backbones)
# ----------------------------------------------------------------------
class _RecurrentBackend:
    def __init__(self, engine: FleetForecaster) -> None:
        self.engine = engine
        self.model = engine.model
        self.dtype = engine.dtype
        # low-precision tiers run on a converted weight replica (float32
        # cast, or int8-quantised-then-dequantised); the float64 reference
        # shares the training parameters by reference, exactly as before
        self.stack_module = convert_module(self.model.lstm, engine.precision)
        # the one recurrent inference path: warm-up, first lap and later
        # laps all run on its per-layer contexts, reused by every submit
        self.driver = StackInference(
            self.stack_module, dtype=self.dtype, max_rows=engine.max_batch_rows
        )
        if not hasattr(self.model, "head"):
            raise TypeError(f"recurrent backbone {type(self.model).__name__} has no fused .head")
        self.head = MultiGaussianHeadInference(
            convert_module(self.model.head, engine.precision), dtype=self.dtype
        )
        # the fused decode's sampled-target and step-input rows
        target_dim = self.model.target_dim
        self.io_rows = RowWorkspace(
            (target_dim, target_dim + self.model.num_covariates), dtype=self.dtype
        )

    # -- validation ----------------------------------------------------
    def validate(self, request: ForecastRequest) -> None:
        model = self.model
        if request.target_dim != model.target_dim:
            raise ValueError(
                f"expected target_dim={model.target_dim}, got {request.target_dim}"
            )
        for covariates in (request.history_covariates, request.future_covariates):
            if covariates.shape[-1] != model.num_covariates:
                raise ValueError(
                    f"expected {model.num_covariates} covariates, got {covariates.shape[-1]}"
                )

    # -- warm-up -------------------------------------------------------
    def _full_warmup(self, uniques: Sequence[ForecastRequest]):
        """Teacher-forced warm-up with one batch row per unique request.

        Runs on the driver's ``forward_sequence`` (one input-projection
        GEMM per layer over the whole history, into the driver's buffers) —
        bitwise identical to stepping lap by lap, since every
        ``stable_matmul`` row depends only on its own contents.
        """
        length = uniques[0].length
        scales = np.stack([np.abs(u.target).mean(axis=0) + 1.0 for u in uniques])
        z = np.stack([u.target for u in uniques]) / scales[:, None, :]
        covariates = np.stack([u.history_covariates for u in uniques])
        states = self.driver.zero_state(len(uniques))
        if length > 1:
            x = np.concatenate([z[:, :-1, :], covariates[:, 1:, :]], axis=2)
            _, states = self.driver.forward_sequence(x, states)
        self.engine._stats["warmup_steps"] += max(length - 1, 0)
        return scales, states, z[:, -1, :]

    def _warmup_exact(self, requests: Sequence[ForecastRequest]):
        owners, uniques = _dedupe_warmups(requests, self.engine._stats)
        scales, states, z_last = self._full_warmup(uniques)
        return owners, scales, states, z_last

    def _warmup_carry(self, requests: Sequence[ForecastRequest]):
        """Warm-up that carries cached states between consecutive origins."""
        owners, uniques = _dedupe_warmups(requests, self.engine._stats)
        cache = self.engine.cache
        stack_module = self.stack_module

        # order cache-keyed slots per key by origin, so several origins of
        # the same car inside one submit advance the state sequentially
        rounds: List[List[int]] = []
        keyed: "OrderedDict[Hashable, List[int]]" = OrderedDict()
        unkeyed: List[int] = []
        for slot, request in enumerate(uniques):
            if request.key is not None and request.origin is not None:
                keyed.setdefault(request.key, []).append(slot)
            else:
                unkeyed.append(slot)
        for slots in keyed.values():
            slots.sort(key=lambda s: uniques[s].origin)
            for depth, slot in enumerate(slots):
                while len(rounds) <= depth:
                    rounds.append([])
                rounds[depth].append(slot)
        if unkeyed:
            if not rounds:
                rounds.append([])
            rounds[0].extend(unkeyed)

        n_slots = len(uniques)
        target_dim = self.model.target_dim
        scales = np.empty((n_slots, target_dim))
        z_last = np.empty((n_slots, target_dim))
        # the group's packed states; every slot's state is written into its
        # batch column (the batch axis of ``export_state`` is -2 for both
        # backbones)
        packed_all = stack_module.export_state(
            stack_module.zero_state(n_slots, dtype=self.dtype)
        )

        def settle(slots, slot_scales, states, slot_z_last) -> None:
            """Write one batch of fresh warm-ups into ``slots`` and cache
            each cacheable one as a batch-1 slice of a single export."""
            packed = stack_module.export_state(states)
            scales[slots] = slot_scales
            z_last[slots] = slot_z_last
            packed_all[..., slots, :] = packed
            for row, slot in enumerate(slots):
                request = uniques[slot]
                if request.key is not None and request.origin is not None:
                    cache.put(
                        request.key,
                        CachedWarmup(
                            origin=request.origin,
                            scale=slot_scales[row],
                            packed_state=packed[..., row : row + 1, :],
                            z_last=slot_z_last[row],
                        ),
                    )

        for round_slots in rounds:
            full: List[int] = []
            reuse: List[Tuple[int, CachedWarmup]] = []
            advance: Dict[int, List[Tuple[int, CachedWarmup]]] = {}
            for slot in round_slots:
                request = uniques[slot]
                # only consult the cache when the request can be positioned
                # on the lap axis — a key without an origin is uncacheable
                cacheable = request.key is not None and request.origin is not None
                entry = cache.get(request.key) if cacheable else None
                if entry is None:
                    full.append(slot)
                    continue
                delta = request.origin - entry.origin
                if delta == 0:
                    reuse.append((slot, entry))
                elif 0 < delta <= request.length:
                    advance.setdefault(delta, []).append((slot, entry))
                else:
                    full.append(slot)  # gap too large (or origin went backwards)

            if reuse:
                slots = [slot for slot, _ in reuse]
                scales[slots] = [entry.scale for _, entry in reuse]
                z_last[slots] = [entry.z_last for _, entry in reuse]
                packed_all[..., slots, :] = _pack_entries([entry for _, entry in reuse])

            if full:
                f_scales, f_states, f_z_last = self._full_warmup([uniques[s] for s in full])
                settle(full, f_scales, f_states, f_z_last)

            for delta, slot_entries in advance.items():
                slots = [slot for slot, _ in slot_entries]
                entries = [entry for _, entry in slot_entries]
                frozen = np.stack([entry.scale for entry in entries])
                # the delta new laps on the frozen scale; step j consumes
                # [z_{j-1}, cov_j], the last one is the next z_last
                scaled = np.stack([uniques[s].target[-delta:] for s in slots]) / frozen[:, None, :]
                x = np.empty((len(slots), delta, target_dim + self.model.num_covariates))
                x[:, 0, :target_dim] = [entry.z_last for entry in entries]
                x[:, 1:, :target_dim] = scaled[:, :-1]
                x[:, :, target_dim:] = [uniques[s].history_covariates[-delta:] for s in slots]
                states = stack_module.import_state(_pack_entries(entries), dtype=self.dtype)
                _, states = self.driver.forward_sequence(x, states)
                self.engine._stats["warmup_steps"] += delta
                cache.carries += len(slots)
                settle(slots, frozen, states, scaled[:, -1])

        return owners, scales, stack_module.import_state(packed_all, dtype=self.dtype), z_last

    # -- decode --------------------------------------------------------
    def run_group(self, requests: Sequence[ForecastRequest]) -> List[np.ndarray]:
        t0 = time.perf_counter()
        if self.engine.mode == "carry":
            owners, scales, slot_states, slot_z_last = self._warmup_carry(requests)
        else:
            owners, scales, slot_states, slot_z_last = self._warmup_exact(requests)
        t1 = time.perf_counter()
        self.engine._timings["warmup_s"] += t1 - t0

        owner_index = np.asarray(owners, dtype=np.int64)
        counts = np.array([request.n_samples for request in requests], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        horizon = requests[0].horizon
        total = int(counts.sum())

        # one row per request (a shared warm-up slot's requests may differ in covariates)
        states = slice_states(slot_states, owner_index)
        z_prev = slot_z_last[owner_index]
        scale0_rows = np.repeat(scales[owner_index][:, 0], counts)
        future = np.stack([request.future_covariates for request in requests])
        rngs = [
            request.rng if request.rng is not None else self.model.rng
            for request in requests
        ]

        samples = self._decode_fused(
            counts, offsets, horizon, total, states, z_prev, scale0_rows, future, rngs
        )
        self.engine._stats["decode_steps"] += horizon
        self.engine._timings["decode_s"] += time.perf_counter() - t1
        return [samples[offsets[i] : offsets[i + 1]] for i in range(len(requests))]

    def _block_noise(
        self,
        rngs: Sequence[np.random.Generator],
        counts: np.ndarray,
        offsets: np.ndarray,
        horizon: int,
        target_dim: int,
        total: int,
    ) -> np.ndarray:
        """The whole decode's Gaussian noise, one ``Generator`` call per stream.

        NumPy ``Generator.standard_normal`` fills its output sequentially
        from the bit stream, so one draw of ``H * D * n`` values equals the
        concatenation of the ``H * D`` per-step draws of ``n`` values a
        per-lap loop makes.  Each distinct Generator's block is reshaped
        to ``(horizon, target_dim, rows)`` — exactly the legacy
        (step, dim, request) draw order — and scattered into the flattened
        batch rows, so the returned ``(horizon, total, target_dim)`` tensor
        replays the per-lap draws byte-identically, including when several
        requests share one RNG stream (their draws interleave in submit
        order within each (step, dim) slot, as before).
        """
        noise = np.empty((horizon, total, target_dim), dtype=np.float64)
        groups: "OrderedDict[int, List[int]]" = OrderedDict()
        for i, gen in enumerate(rngs):
            groups.setdefault(id(gen), []).append(i)
        for indices in groups.values():
            gen = rngs[indices[0]]
            g_total = int(counts[indices].sum())
            block = gen.standard_normal(horizon * target_dim * g_total).reshape(
                horizon, target_dim, g_total
            )
            if len(indices) == 1:
                i = indices[0]
                noise[:, offsets[i] : offsets[i + 1], :] = block.transpose(0, 2, 1)
            else:
                rows = np.concatenate(
                    [np.arange(offsets[i], offsets[i + 1]) for i in indices]
                )
                noise[:, rows, :] = block.transpose(0, 2, 1)
        return noise

    def _decode_fused(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        horizon: int,
        total: int,
        states,
        z_prev: np.ndarray,
        scale0_rows: np.ndarray,
        future: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Fused allocation-free Monte-Carlo decode (block RNG + step_decode).

        ``states``/``z_prev`` hold one row per request: lap 1 steps them
        through the driver's ``step`` and repeats its ``(mu, sigma)`` over
        the samples; laps 2..H run on all ``total`` rows through
        ``step_decode``.  Byte-identical to the per-lap reference loop in
        ``tests/reference/decode.py`` (both run the same kernel,
        ``stable_matmul`` rows are batch-size invariant; gated in
        ``benchmarks/test_bench_decode.py``).
        """
        target_dim = self.model.target_dim
        dtype = self.dtype
        guarded = dtype != np.float64  # assert-guard the low-precision tiers
        noise = self._block_noise(rngs, counts, offsets, horizon, target_dim, total)
        if guarded:
            # noise is always drawn float64 so every tier consumes the RNG
            # streams identically; only the arithmetic downcasts
            noise = noise.astype(dtype)
        samples = np.empty((total, horizon), dtype=np.float64)
        z, x_buf = self.io_rows.take(total)

        def mu_sigma(h_t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            if guarded:
                assert_dtype(h_t, dtype, "decode hidden state")
            mu_all, sigma_all = self.head(h_t)  # one (H, 2D) GEMM for all dims
            if guarded:
                assert_dtype(mu_all, dtype, "head mu")
                assert_dtype(sigma_all, dtype, "head sigma")
            return mu_all, sigma_all

        def draw(h: int, mu_all: np.ndarray, sigma_all: np.ndarray) -> None:
            np.multiply(sigma_all, noise[h], out=z)
            np.add(z, mu_all, out=z)
            # samples stay float64 on every tier (the result contract)
            np.multiply(z[:, 0], scale0_rows, out=samples[:, h])

        x_first = np.concatenate([z_prev, future[:, 0, :]], axis=1)
        h_t, states = self.driver.step(x_first, states)  # casts to the tier
        mu, sigma = mu_sigma(h_t)
        draw(0, np.repeat(mu, counts, axis=0), np.repeat(sigma, counts, axis=0))
        if horizon == 1:
            return samples

        # later laps' covariates expanded once: (horizon - 1, total, C),
        # contiguous per-step slices — replaces one np.repeat per lap
        cov_all = np.ascontiguousarray(
            np.repeat(future[:, 1:, :], counts, axis=0).transpose(1, 0, 2), dtype=dtype
        )
        # each request's lap-1 state goes straight into its sample rows, and
        # lap 2's recurrent products are computed once per request
        self.driver.load(states, rows=np.repeat(np.arange(len(counts)), counts))
        for h in range(1, horizon):
            x_buf[:, :target_dim] = z
            x_buf[:, target_dim:] = cov_all[h - 1]
            draw(h, *mu_sigma(self.driver.step_decode(x_buf)))
        return samples


# ----------------------------------------------------------------------
# Transformer backend (memory batched across requests, no carried state)
# ----------------------------------------------------------------------
class _TransformerBackend:
    def __init__(self, engine: FleetForecaster) -> None:
        self.engine = engine
        self.model = engine.model

    def validate(self, request: ForecastRequest) -> None:
        model = self.model
        if request.target_dim != model.target_dim:
            raise ValueError(
                f"expected target_dim={model.target_dim}, got {request.target_dim}"
            )
        if request.length < 2:
            raise ValueError("Transformer forecasting needs a history of at least 2 laps")
        for covariates in (request.history_covariates, request.future_covariates):
            if covariates.shape[-1] != model.num_covariates:
                raise ValueError(
                    f"expected {model.num_covariates} covariates, got {covariates.shape[-1]}"
                )

    def run_group(self, requests: Sequence[ForecastRequest]) -> List[np.ndarray]:
        model = self.model
        engine = self.engine
        t0 = time.perf_counter()
        # deduplicate the (deterministic) encoder pass across identical warm-ups
        owners, uniques = _dedupe_warmups(requests, engine._stats)

        length = uniques[0].length
        horizon = requests[0].horizon
        target_dim = model.target_dim
        scales = np.stack([np.abs(u.target).mean(axis=0) + 1.0 for u in uniques])
        z = np.stack([u.target for u in uniques]) / scales[:, None, :]
        covariates = np.stack([u.history_covariates for u in uniques])

        was_training = model.training
        model.eval()
        try:
            enc_tokens = np.concatenate(
                [z[:, : length - 1, :], covariates[:, 1:length, :]], axis=2
            )
            memory = model._encode(enc_tokens)
            model._clear_all_caches()
            engine._stats["warmup_steps"] += max(length - 1, 0)
            t1 = time.perf_counter()
            engine._timings["warmup_s"] += t1 - t0

            owner_index = np.asarray(owners, dtype=np.int64)
            counts = np.array([request.n_samples for request in requests], dtype=np.int64)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            total = int(counts.sum())
            memory_rows = np.repeat(memory[owner_index], counts, axis=0)
            scale0_rows = np.repeat(scales[owner_index][:, 0], counts)
            future = np.stack([request.future_covariates for request in requests])
            rngs = [
                request.rng if request.rng is not None else model.rng
                for request in requests
            ]

            samples = np.empty((total, horizon), dtype=np.float64)
            z_generated = [np.repeat(z[owner_index][:, -1, :], counts, axis=0)]
            for h in range(horizon):
                tokens = []
                for step in range(h + 1):
                    cov_rows = np.repeat(future[:, step, :], counts, axis=0)
                    tokens.append(np.concatenate([z_generated[step], cov_rows], axis=1))
                dec_tokens = np.stack(tokens, axis=1)
                dec_out = model._decode(dec_tokens, memory_rows)
                h_last = dec_out[:, -1, :]
                z_next = np.empty((total, target_dim))
                for d, head in enumerate(model.heads):
                    params = head.forward(h_last)
                    for i in range(len(requests)):
                        rows = slice(offsets[i], offsets[i + 1])
                        z_next[rows, d] = params.mu[rows] + params.sigma[
                            rows
                        ] * rngs[i].standard_normal(int(counts[i]))
                model._clear_all_caches()
                samples[:, h] = z_next[:, 0] * scale0_rows
                z_generated.append(z_next)
            engine._stats["decode_steps"] += horizon
            engine._timings["decode_s"] += time.perf_counter() - t1
        finally:
            model.train(was_training)
        return [samples[offsets[i] : offsets[i + 1]] for i in range(len(requests))]
