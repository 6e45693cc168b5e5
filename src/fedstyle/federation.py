"""Two-stage federated protocol over the frozen encoder.

Stage one is entirely local: every client trains one style transform per
other available domain description and pushes its own embeddings through
them.  Its entry refuses local sets of mixed or zero length
(``ConfigurationError``) and a class label outside [0, C) or domain label
outside [0, K) (``DataError``) before anything trains.  The result is one
read-only (K, N, d) train stack in ``numerics.TRAIN_DTYPE`` (float32),
each client's local set followed by its copies as ``transform_jobs`` lays
them out, normalized per client; every stage-two pool is a view of its
leading rows, and the copies styled toward the held-out description come
last.  Nothing crosses the wire.

Stage two runs ``rounds`` federated rounds.  In each round every client
starts from the adopted broadcast, refines it locally (the global prompt on
its augmented pool, the domain head on the rows of it that carry a
source-domain label), uploads it, and the server broadcasts the anchored
mean back, each upload weighted 1/K.  Server and clients all adopt the
value that crossed the wire.  After the final round each client uploads
its locally trained domain prompt once and the server broadcasts the full
stack, which is what unseen-domain inference blends.

The run keeps ``shared``, the adopted broadcast keyed by wire name
(``global_prompt``, ``head_weight``, ``head_bias``), and the domain
prompts as one (K, L, d) stack in client order, all float64; the losses
score the float32 rows of the train stack.  Every local step is SGD with
decoupled decay, taken in place on each stacked array its loss gives a
gradient for; both prompts' gradient terms are scaled to token units and
the head's by 1 / T^2.  Wire traffic is float32: per round and client
the upload holds ``prompt_length * dim`` prompt and ``dim * K + K`` head
parameters.  Every message is framed, CRC-checked and recorded in a
``CommunicationLedger``.

Everything is seeded and runs in one thread, and each stage-two pass takes
one stacked step per batch for all K clients.  A pass reads either the
(K, n, d) local-set view whole, with a column copy made once per run
(``UnitRows.with_column_copy``), when its pool is the local set and
``batch_size`` is at least n, or a read-only n-row sample per (round,
client, epoch) from the client's own stream: in a global epoch one
permutation of the train pool (``global-shuffle``) serves both passes,
each taking the first n indices below its pool's length; a domain epoch
draws from ``domain-shuffle``.  Scoring follows the layout rule of
``prompts``: only the whole-set passes carry a column copy and read it;
a drawn sample and its slices carry none and are scored rows-left.  A
stacked step makes exactly one ``global_loss``, ``domain_loss`` or
``classifier_loss`` call, with the batch first (the benchmark counts
train samples from its length), and gives every client the bits it would
get alone.  The losses' constants, the class term and each domain pass's
pooled global slot, are prepared read-only once they are fixed, so a bad
one fails before the first step.
Uploads, ledger records and each round's loss means follow ascending
client order, so a run is a pure function of its inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data import TARGET_KEY, EvaluationSplit, require_labels
from .encoder import FrozenEncoder
from .errors import ConfigurationError, NonFiniteLossError, ProtocolError
from .numerics import TRAIN_DTYPE, Array, require_finite_fields, sgd_step
from .prompts import (
    DomainClassifier,
    PromptConfig,
    UnitRows,
    _normalized_rows,
    classifier_loss,
    domain_loss,
    global_loss,
    init_prompt,
    predict_unseen_batch,
)
from .seeding import rng
from .style_transfer import (
    TransferConfig,
    TransformJob,
    TransformNetwork,
    build_augmentation_bank,
    train_transform,
)
from .wire import (
    KIND_DOMAIN_BROADCAST,
    KIND_DOMAIN_UPLOAD,
    KIND_GLOBAL_BROADCAST,
    KIND_GLOBAL_UPLOAD,
    SERVER_ID,
    FederatedMessage,
    decode_message,
    encode_message,
    protocol_message,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# method switches and round configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodToggles:
    """Which parts of the method run; invalid combinations are rejected.

    The domain-prompt path and the prompt generator come and go together:
    collected domain prompts are only ever consumed by the generator, and
    the generator has nothing to blend without them.  A style target for
    the held-out domain only exists when style transfer runs at all.
    """

    use_global_prompt: bool = True
    use_domain_prompt: bool = True
    use_contrastive: bool = True  # unread; fdgbench's workloads still pass it
    use_prompt_generator: bool = True  # unread, equals use_domain_prompt; fdgbench's workloads still pass it
    use_style_transfer: bool = True
    include_target_description: bool = False

    def __post_init__(self):
        require_finite_fields(self)
        if not (self.use_global_prompt or self.use_domain_prompt):
            raise ConfigurationError("at least one prompt path must be enabled")
        if self.use_domain_prompt != self.use_prompt_generator:
            raise ConfigurationError(
                "domain prompts and the prompt generator must be toggled together"
            )
        if self.include_target_description and not self.use_style_transfer:
            raise ConfigurationError("a target style description needs style transfer")


@dataclass(frozen=True)
class FederationConfig:
    """Round counts and learning rates; every upload is weighted 1/K."""

    rounds: int = 10
    global_epochs: int = 10
    domain_epochs: int = 1
    global_lr: float = 3e-3
    head_lr: float = 0.01
    domain_lr: float = 1e-3
    # decoupled decay of every locally trained parameter, a factor of
    # 1 - lr * weight_decay per step, kept positive for each rate
    weight_decay: float = 0.5
    lr_decay: float = 0.7  # per-round multiplier on all three learning rates
    batch_size: int = 2000
    weighting: str = "uniform"  # the only value; fdgbench's workloads still pass it

    def __post_init__(self):
        require_finite_fields(self)
        if self.rounds < 1:
            raise ConfigurationError("at least one round is required")
        if self.global_epochs < 1 or self.domain_epochs < 1:
            raise ConfigurationError("epoch counts must be at least 1")
        for name in ("global_lr", "head_lr", "domain_lr"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight_decay must be non-negative")
        # the per-round decay only lowers the rates
        for name in ("global_lr", "head_lr", "domain_lr"):
            if getattr(self, name) * self.weight_decay >= 1:
                raise ConfigurationError(f"{name} * weight_decay must be below 1 to keep the decay factor positive")
        if not 0 < self.lr_decay <= 1:
            raise ConfigurationError("lr_decay must be in (0, 1]")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.weighting != "uniform":
            raise ConfigurationError(f"weighting must be 'uniform', got {self.weighting!r}")


# ---------------------------------------------------------------------------
# communication ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerRecord:
    """One message on one client/server link."""

    round_index: int
    client: int
    kind_name: str
    parameter_count: int
    payload_bytes: int


class CommunicationLedger:
    """Append-only record of every framed message, per link."""

    def __init__(self):
        self.records: list[LedgerRecord] = []

    def record(self, message: FederatedMessage, endpoint: int) -> None:
        self.records.append(
            LedgerRecord(
                round_index=message.round_index,
                client=endpoint,
                kind_name=message.kind_name,
                parameter_count=message.parameter_count,
                payload_bytes=message.payload_bytes,
            )
        )

    def total_payload_bytes(self) -> int:
        return sum(record.payload_bytes for record in self.records)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def aggregate_anchored(uploads: dict[int, dict[str, Array]]) -> dict[str, Array]:
    """Mean of the uploads written as anchor + sum_i (x_i - anchor) / K.

    The anchor is the lowest client id's upload and accumulation runs in
    ascending id order, so the result is reproducible to the bit.  Every
    client must upload the anchor's array names and shapes
    (``ProtocolError`` otherwise).  Uploads that are all bit-equal give that
    shared value back exactly, except that a -0.0 entry comes back as +0.0.
    """
    if not uploads:
        raise ProtocolError("nothing to aggregate")
    ids = sorted(uploads)
    names = list(uploads[ids[0]])
    for i in ids:
        if list(uploads[i]) != names:
            raise ProtocolError(f"client {i} uploaded arrays {list(uploads[i])}, expected {names}")
    weight = 1.0 / len(ids)
    out: dict[str, Array] = {}
    for name in names:
        anchor = np.asarray(uploads[ids[0]][name], dtype=np.float64)
        acc = np.zeros_like(anchor)
        for i in ids:
            upload = np.asarray(uploads[i][name], dtype=np.float64)
            if upload.shape != anchor.shape:
                raise ProtocolError(f"client {i} uploaded {name!r} of shape {upload.shape}, not {anchor.shape}")
            acc += weight * (upload - anchor)
        out[name] = anchor + acc
    return out


# ---------------------------------------------------------------------------
# stage one: local style transfer
# ---------------------------------------------------------------------------


@dataclass
class ClientData:
    """One client's views of the three ``StageOneResult`` stacks."""

    client_id: int
    local_set: UnitRows
    train_pool: UnitRows
    head_pool: UnitRows


@dataclass
class StageOneResult:
    """Every client's pools as read-only stacks: (K, N, d) ``TRAIN_DTYPE``
    unit rows with (K, N) labels and domains, normalized and validated once.

    ``train_pool`` is each local set followed by its style-transferred
    copies, laid out as ``transform_jobs`` states; it trains the global
    prompt.  The other two pools are views of its leading rows:
    ``local_set``, the first n, trains the domain prompt, and
    ``head_pool``, the first ``head_rows``, trains the domain head.
    ``clients[i]`` holds client i's views of the three stacks.
    """

    train_pool: UnitRows
    n: InitVar[int]
    head_rows: int
    transforms: dict[int, dict[int, TransformNetwork]]
    local_set: UnitRows = field(init=False)
    head_pool: UnitRows = field(init=False)
    clients: list[ClientData] = field(init=False)

    def __post_init__(self, n: int):
        for array in (self.train_pool.rows, self.train_pool.labels, self.train_pool.domains):
            array.flags.writeable = False
        # after the flags: a view taken earlier would stay writeable
        self.local_set = self.train_pool.select(np.s_[:, :n])
        self.head_pool = self.train_pool.select(np.s_[:, : self.head_rows])
        self.clients = [
            ClientData(i, self.local_set.select(i), self.train_pool.select(i), self.head_pool.select(i))
            for i in range(self.train_pool.labels.shape[0])
        ]


def transform_jobs(split: EvaluationSplit, include_target_description: bool) -> list[TransformJob]:
    """Every (client, target) transform of stage one, in the order that lays
    out the pools: client by client, each client's source-domain targets in
    ascending order, then ``TARGET_KEY`` (-1, the held-out description) when
    included.  Client i's train pool is its n local rows, then one n-row copy
    per target in this order, with the local labels and the target's key as
    domain; its head pool is the rows before the ``TARGET_KEY`` block."""
    targets = list(enumerate(split.source_domain_tokens))
    if include_target_description:
        targets.append((TARGET_KEY, split.target_domain_token))
    return [
        TransformJob(local, i, key, split.source_domain_tokens[i], token)
        for i, local in enumerate(split.clients)
        for key, token in targets
        if key != i
    ]


def run_stage_one(
    split: EvaluationSplit,
    encoder: FrozenEncoder,
    transfer_config: TransferConfig,
    temperature: float,
    toggles: MethodToggles,
    seed: int,
) -> StageOneResult:
    """Train per-target transforms locally and assemble the client pools.

    The local sets must share one non-empty length (``ConfigurationError``)
    and carry class labels in [0, C) and domain labels in [0, K)
    (``DataError``), all checked before anything trains.  All transforms
    train in one stacked ``train_transform`` call (none without style
    transfer), and only then is the train stack allocated, in
    ``TRAIN_DTYPE`` and laid out as ``transform_jobs`` states.  Once the
    local sets and the copies are in it, each client's pool is normalized
    and validated there, in place.
    No message is produced; stage one is upload-free by construction.
    """
    lengths = sorted({len(local) for local in split.clients})
    if len(lengths) > 1:
        raise ConfigurationError(f"client local sets mix lengths {lengths}")
    n, k, dim = lengths[0], split.num_clients, encoder.config.dim
    if n == 0:
        raise ConfigurationError("client local sets are empty")
    for i, local in enumerate(split.clients):
        require_labels(local.labels, split.class_tokens.shape[0], f"client {i}: class label")
        require_labels(local.domains, k, f"client {i}: domain index")
    transforms: dict[int, dict[int, TransformNetwork]] = {i: {} for i in range(k)}
    jobs = []
    if toggles.use_style_transfer:
        jobs = transform_jobs(split, toggles.include_target_description)
        result = train_transform(jobs, encoder, split.class_tokens, transfer_config, temperature, seed)
        for net in result.networks():
            transforms[net.source][net.target] = net
    styled = len(jobs) // k
    labels = np.empty((k, n * (1 + styled)), dtype=np.int64)
    train = UnitRows(np.empty((*labels.shape, dim), dtype=TRAIN_DTYPE), labels, np.empty_like(labels))
    # each client's (1 + S, n) blocks: its local set, then one copy per target
    rows = train.rows.reshape(k, 1 + styled, n, dim)
    labels, domains = (part.reshape(k, 1 + styled, n) for part in (train.labels, train.domains))
    if jobs:
        build_augmentation_bank(result, rows[:, 1:])
    domains[:, 1:] = np.reshape([job.target for job in jobs], (k, styled, 1))
    for i, local in enumerate(split.clients):
        rows[i, 0], labels[i], domains[i, 0] = local.embeddings, local.labels, local.domains
        # one client's (N, d) pool at a time: the norm's temporaries are one
        # pool in size, not the stack's
        _normalized_rows(train.rows[i], out=train.rows[i])
        log.info("client %d: %d local, %d augmented toward %s", i, n, n * styled, list(transforms[i]))
    # the TARGET_KEY block, the only rows without a source-domain label, is last
    head_rows = n * (1 + styled - toggles.include_target_description)
    return StageOneResult(train, n, head_rows, transforms)


# ---------------------------------------------------------------------------
# stage two: federated prompt tuning
# ---------------------------------------------------------------------------


@dataclass
class ProtocolResult:
    """Canonical post-run state plus everything needed to audit the run."""

    global_prompt: Array | None
    classifier: DomainClassifier | None
    domain_prompts: Array | None  # (K, L, d) in client order
    ledger: CommunicationLedger
    round_metrics: list[dict[str, float]]


class _RoundLosses:
    """The stacked steps' batch losses of one round, by kind."""

    def __init__(self, round_index: int):
        self.round_index = round_index
        self.entries: dict[str, list[tuple[list[float], int]]] = {}

    def add(self, kind: str, values: Array, rows: int) -> None:
        """Record one stacked step of ``rows`` rows per client, ``values``
        in client order; a diverged loss raises ``NonFiniteLossError``
        naming the round and the client."""
        step = values.tolist()
        for i, value in enumerate(step):
            if not math.isfinite(value):
                what = kind.replace("_", " ")
                raise NonFiniteLossError(f"{what} (round {self.round_index}, client {i}) diverged to {value!r}")
        self.entries.setdefault(kind, []).append((step, rows))

    def means(self) -> dict[str, float]:
        """Row-weighted mean of each kind that ran, summed client by client
        in ascending order and each client's batches in step order."""
        out = {}
        for kind, steps in self.entries.items():
            total, clients = 0.0, len(steps[0][0])
            for i in range(clients):
                for values, rows in steps:
                    total += values[i] * rows
            out[kind] = total / (clients * sum(rows for _, rows in steps))
        return out


def _exchange(ledger: CommunicationLedger, message: FederatedMessage, endpoints) -> FederatedMessage:
    """Send ``message`` once: encode it, decode the frame and record the
    received copy on the link of every endpoint, in the given order."""
    received = decode_message(encode_message(message))
    for endpoint in endpoints:
        ledger.record(received, endpoint)
    return received


def run_protocol(
    stage_one: StageOneResult,
    split: EvaluationSplit,
    encoder: FrozenEncoder,
    prompt_config: PromptConfig,
    fed_config: FederationConfig,
    toggles: MethodToggles,
    seed: int,
) -> ProtocolResult:
    """Run stage two end to end and return the canonical shared state.

    Client and server prompt state starts from the same seeded draw, so no
    initial broadcast is needed; every later adoption goes through encoded
    bytes.  Per round the wire carries exactly one upload and one broadcast
    per client, and the final domain-prompt exchange adds one more pair.
    A stage-one result for other than the split's K clients raises
    ``ConfigurationError`` before any message is sent.
    """
    (k, n), width = stage_one.local_set.labels.shape, stage_one.train_pool.labels.shape[1]
    if k != split.num_clients:
        raise ConfigurationError(f"stage one covered {k} of {split.num_clients} clients")
    dim, temperature = encoder.config.dim, prompt_config.temperature
    ledger = CommunicationLedger()
    # the run's constant, validated once: the class tokens' term after both
    # prompt slots
    classes = encoder.class_term(split.class_tokens, 2 * prompt_config.length)
    # one step rule, the factor on each array's gradient term: a prompt
    # steps in token units, scaled by s^2, the class tokens' mean squared
    # norm, the same as storing it as s * u and stepping u; the head takes
    # 1 / T^2, the same as giving its logits the class path's scale 1 / T
    token_unit = float(np.mean(np.sum(split.class_tokens * split.class_tokens, axis=-1)))
    head_unit = 1.0 / temperature**2
    step_units = {"global_prompt": token_unit, "domain_prompt": token_unit,
                  "head_weight": head_unit, "head_bias": head_unit}

    # the adopted broadcast by wire name; a round's working copy stacks it
    shared: dict[str, Array] = {}
    if toggles.use_global_prompt:
        shared["global_prompt"] = init_prompt(prompt_config, dim, seed, "global-prompt-init")
    if toggles.use_domain_prompt:
        head = DomainClassifier.init(k, dim)
        shared["head_weight"], shared["head_bias"] = head.weight, head.bias
    domain = None  # (K, L, d) in client order, sent only after the last round
    if toggles.use_domain_prompt:
        domain = np.stack([init_prompt(prompt_config, dim, seed, "domain-prompt-init", i) for i in range(k)])
    # the domain pass's constant, set once per round from the adopted
    # global prompt: its slot pooled
    global_slot = None

    # each loss as (batch, params) -> (values, grads of the arrays it
    # trains); a step calls its loss once, with the batch first, since the
    # benchmark counts train samples from the length of that argument
    def global_step(batch, params):
        values, grad = global_loss(batch, params["global_prompt"], encoder, classes, temperature)
        return values, {"global_prompt": grad}

    def head_step(batch, params):
        values, grads = classifier_loss(batch, DomainClassifier(params["head_weight"], params["head_bias"]))
        return values, {"head_weight": grads["weight"], "head_bias": grads["bias"]}

    def domain_step(batch, params):
        values, grad = domain_loss(batch, params["domain_prompt"], global_slot, encoder, classes, temperature)
        return values, {"domain_prompt": grad}

    # the local set with its column copy, read by every whole-set pass
    local_set = stage_one.local_set.with_column_copy() if fed_config.batch_size >= n else None
    # the (order, length) of the last gathered sample, and the sample
    held = (None, None, None)

    def draw(stream, round_index, epoch, size):
        """Each client's permutation of its leading ``size`` rows from its own
        (``stream``, round, client, epoch) generator, as (K, size) indices;
        None for a pass that reads ``local_set`` whole instead."""
        if size == n and local_set is not None:
            return None
        return np.stack([rng(seed, stream, round_index, i, epoch).permutation(size) for i in range(k)])

    def local_pass(name, step, params, length, order, losses):
        """One epoch of the ``name`` pass ("global", "head" or "domain")
        over each client's pool, the leading ``length`` rows of its slice
        of the train stack.  With ``order`` None the pass reads
        ``local_set``; otherwise a read-only sample of each client's first
        n indices of its row of ``order`` below ``length``, gathered unless
        the last pass gathered it from the same ``order`` and ``length``.
        The n-row source is the one batch when ``batch_size`` is at least
        n, else it is cut into slices.  Each stacked batch takes one
        ``step``, records its losses as ``<name>_loss`` and steps, in
        place, each array of ``params`` that the step returned a gradient
        for, at ``<name>_lr`` decayed by the round, its gradient scaled by
        the array's factor in ``step_units``."""
        nonlocal held
        rate = getattr(fed_config, f"{name}_lr") * fed_config.lr_decay**losses.round_index
        if order is None:
            source = local_set
        elif held[0] is order and held[1] == length:
            source = held[2]
        else:
            # a permutation holds each index below ``length`` once
            picked = order if length == order.shape[1] else order[order < length].reshape(k, length)
            # one gather per array from the contiguous stack seen as K * N rows
            flat = picked[:, :n] + np.arange(0, k * width, width)[:, None]
            pool = stage_one.train_pool
            source = UnitRows(*(np.take(a.reshape(k * width, *a.shape[2:]), flat, axis=0)
                                for a in (pool.rows, pool.labels, pool.domains)))
            for array in (source.rows, source.labels, source.domains):
                array.flags.writeable = False
            held = order, length, source
        size = fed_config.batch_size
        batches = [source] if size >= n else [source.select(np.s_[:, s : s + size]) for s in range(0, n, size)]
        for batch in batches:
            values, grads = step(batch, params)
            losses.add(f"{name}_loss", values, batch.labels.shape[-1])
            for key, grad in grads.items():
                grad *= step_units[key]
                sgd_step(params[key], grad, rate, fed_config.weight_decay)

    round_metrics: list[dict[str, float]] = []
    for round_index in range(fed_config.rounds):
        losses = _RoundLosses(round_index)

        # local refinement of the shared state, all clients in one stack
        params = {name: np.stack([value] * k) for name, value in shared.items()}
        for epoch in range(fed_config.global_epochs):
            # an epoch is one pass over a local-set-sized sample of the
            # pool, whatever its length; the head pass samples its pool
            # from the same one draw
            order = draw("global-shuffle", round_index, epoch, width)
            if toggles.use_global_prompt:
                local_pass("global", global_step, params, width, order, losses)
            if toggles.use_domain_prompt:
                local_pass("head", head_step, params, stage_one.head_rows, order, losses)

        # upload in client order, aggregate, and adopt the broadcast bytes
        uploads = {}
        for i in range(k):
            refined = {name: stack[i] for name, stack in params.items()}
            upload = protocol_message(KIND_GLOBAL_UPLOAD, round_index, i, refined)
            uploads[i] = _exchange(ledger, upload, [i]).arrays
        aggregated = aggregate_anchored(uploads)
        broadcast = protocol_message(KIND_GLOBAL_BROADCAST, round_index, SERVER_ID, aggregated)
        adopted = _exchange(ledger, broadcast, range(k))
        shared = {name: array.astype(np.float64) for name, array in adopted.arrays.items()}

        # local domain-prompt epochs against the frozen adopted state
        if domain is not None:
            params = {"domain_prompt": domain}
            if toggles.use_global_prompt:
                global_slot = encoder.pool_prefix(np.stack([shared["global_prompt"]] * k))
            for epoch in range(fed_config.domain_epochs):
                local_pass("domain", domain_step, params, n, draw("domain-shuffle", round_index, epoch, n), losses)

        metrics = {"round": float(round_index), **losses.means()}
        round_metrics.append(metrics)
        log.info("round %d: %s", round_index, metrics)

    # final domain-prompt collection and broadcast
    if domain is not None:
        collected = []
        for i in range(k):
            upload = protocol_message(KIND_DOMAIN_UPLOAD, fed_config.rounds, i, {"domain_prompt": domain[i]})
            collected.append(_exchange(ledger, upload, [i]).arrays["domain_prompt"])
        stack = {"domain_prompts": np.stack(collected)}
        broadcast = protocol_message(KIND_DOMAIN_BROADCAST, fed_config.rounds, SERVER_ID, stack)
        domain = _exchange(ledger, broadcast, range(k)).arrays["domain_prompts"].astype(np.float64)

    head = None
    if toggles.use_domain_prompt:
        head = DomainClassifier(shared["head_weight"], shared["head_bias"])
    return ProtocolResult(shared.get("global_prompt"), head, domain, ledger, round_metrics)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_accuracy(
    result: ProtocolResult,
    split: EvaluationSplit,
    encoder: FrozenEncoder,
    prompt_config: PromptConfig,
    toggles: MethodToggles,
) -> float:
    """Accuracy on the held-out domain's test set.

    With domain prompts available each test embedding gets a generated
    prompt from the collected stack; otherwise the global path classifies
    alone.  Ties resolve to the lowest class index, so the number is a
    pure function of the run state.  An empty test set is a
    ``ConfigurationError``, and a test label outside [0, C) a
    ``DataError``, raised before anything is scored.
    """
    test = split.test_set
    if len(test) == 0:
        raise ConfigurationError("empty test set")
    require_labels(test.labels, split.class_tokens.shape[0], "test set: class label")
    domain = toggles.use_domain_prompt
    probs = predict_unseen_batch(
        test.embeddings,
        result.global_prompt,
        result.domain_prompts if domain else None,
        result.classifier if domain else None,
        split.class_tokens,
        encoder,
        prompt_config.temperature,
    )
    predicted = np.argmax(probs, axis=1)
    return float(np.mean(predicted == test.labels))
