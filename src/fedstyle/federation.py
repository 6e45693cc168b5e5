"""Two-stage federated protocol over the frozen encoder.

Stage one is entirely local: every client trains one style transform per
other available domain description and pushes its own embeddings through
them, producing an augmentation pool laid out as ``transform_jobs``
states.  Nothing crosses the wire.

Stage two runs ``rounds`` federated rounds.  In each round every client
starts from the adopted broadcast, refines it locally (the global prompt on
its augmented pool, the domain head on the pool without target-styled
entries), uploads it, and the server broadcasts the anchored mean back,
each upload weighted 1/K: the clients of a split hold local sets of one
length, so this is FedAvg's sample-count-weighted mean, and no sample count
crosses the wire.  The broadcast bytes
are canonical: server and clients all adopt the value that crossed the
wire, so their states match bit for bit.  After the
final round each client uploads its locally trained domain prompt once and
the server broadcasts the full stack, which is what unseen-domain
inference blends.

No per-client object outlives a round; client state is held as stacks.
The run keeps ``shared``, the adopted broadcast keyed by wire name
(``global_prompt``, ``head_weight``, ``head_bias``), and the domain
prompts, the only state a client keeps across rounds, as one (K, L, d)
stack in client order.  A round's working copy of the shared state stacks
it once per client.

Wire traffic is float32; per round and client the upload totals
``prompt_length * dim`` prompt parameters plus ``dim * K + K`` head
parameters.  Every message is framed, CRC-checked, and recorded in a
``CommunicationLedger``.

Everything is seeded and runs in one thread.  Stage one checks on entry
that the local sets of a split all have the same length and hold rows
(``ConfigurationError`` otherwise), so the K clients of a split step as one
stack in both stages: stage one trains every transform in one
``train_transform`` call and always hands stage two its pools as read-only
(K, N, d) stacks, and each stage-two pass takes one stacked step per batch
for all clients.  A pass whose one batch is a whole local-set-sized pool
reads the local set as it is: its losses are batch means, which a shuffle
would only sum in another order.  Every pool leads with the local set, so
such a pass reads the (K, n, d) local-set stack, which ``run_protocol``
gives, once per run, a column copy (``UnitRows.with_column_copy``) that
the class-major score products read faster; the copy is made only when
``batch_size`` is at least n, the one case in which a pass reads the local
set whole.  Every other pass draws each client's shuffle from its own
per-(round, client, epoch) stream and gathers all clients' rows with one
``take`` per array; a drawn batch carries no copy, since a transposed
gather costs more than the products save.  A stacked step
gives every client the bits it would get alone.  It makes exactly one
``global_loss``, ``domain_loss`` or ``classifier_loss`` call, with the
batch first: the benchmark counts train samples by summing the length of
that argument.  The losses' constants are prepared read-only where they
become fixed, so a bad one fails before the first step: once per run the
class term and the unit own-description rows, once per domain pass the
pooled global slot and its unit contrast anchor.  Uploads, ledger records
and each round's loss means follow ascending client order, so a run is a
pure function of its inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .data import TARGET_KEY, EvaluationSplit, LabeledEmbeddings
from .encoder import FrozenEncoder
from .errors import ConfigurationError, NonFiniteLossError, ProtocolError
from .numerics import Array, require_finite_fields, sgd_step
from .prompts import (
    DomainClassifier,
    PromptConfig,
    UnitRows,
    classifier_loss,
    contrast_anchor,
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
    the generator has nothing to blend without them.  The contrastive term
    compares a domain prompt against the global prompt, so it needs both.
    A style target for the held-out domain only exists when style transfer
    runs at all.
    """

    use_global_prompt: bool = True
    use_domain_prompt: bool = True
    use_contrastive: bool = True
    use_prompt_generator: bool = True  # unread, equals use_domain_prompt; the benchmark still passes it
    use_style_transfer: bool = True
    include_target_description: bool = False

    def __post_init__(self):
        if not (self.use_global_prompt or self.use_domain_prompt):
            raise ConfigurationError("at least one prompt path must be enabled")
        if self.use_domain_prompt != self.use_prompt_generator:
            raise ConfigurationError(
                "domain prompts and the prompt generator must be toggled together"
            )
        if self.use_contrastive and not (self.use_domain_prompt and self.use_global_prompt):
            raise ConfigurationError("the contrastive term needs both prompt paths")
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
    # decoupled decay applied to every locally trained parameter; without it
    # the prompt norm ratchets upward long after the fit has saturated and the
    # final state depends heavily on where training happens to stop, whereas a
    # small pull toward zero gives the dynamics a stationary point
    weight_decay: float = 0.5
    # per-round multiplier on all three learning rates; at sharp softmax
    # temperatures a fixed step size oscillates around minima instead of
    # entering them, so later rounds need smaller steps for the run to end
    # at a reproducible point rather than a random phase of the oscillation
    lr_decay: float = 0.7
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
    """Every client's pools as read-only stacks: (K, N, d) unit rows with
    (K, N) labels and domains, normalized and validated once.

    ``train_pool`` is each local set followed by its style-transferred
    copies, laid out as ``transform_jobs`` states; it trains the global
    prompt.  ``local_set``, the original embeddings, is a view of its
    leading n rows and trains the domain prompt.  ``head_pool`` trains the domain head: it is the train stack
    itself unless some rows are styled toward the held-out domain, which
    have no valid source-domain label; then it holds the other rows.
    ``clients[i]`` holds client i's views of the three stacks.
    """

    train_pool: UnitRows
    head_pool: UnitRows
    n: InitVar[int]
    transforms: dict[int, dict[int, TransformNetwork]]
    local_set: UnitRows = field(init=False)
    clients: list[ClientData] = field(init=False)

    def __post_init__(self, n: int):
        for stack in (self.train_pool, self.head_pool):
            for array in (stack.rows, stack.labels, stack.domains):
                array.flags.writeable = False
        # after the flags: a view taken earlier would stay writeable
        self.local_set = self.train_pool.select(np.s_[:, :n])
        self.clients = [
            ClientData(i, self.local_set.select(i), self.train_pool.select(i), self.head_pool.select(i))
            for i in range(self.train_pool.labels.shape[0])
        ]


def _empty_stack(k: int, n: int, dim: int) -> UnitRows:
    labels = np.empty((k, n), dtype=np.int64)
    return UnitRows(np.empty((k, n, dim)), labels, np.empty_like(labels))


def transform_jobs(split: EvaluationSplit, include_target_description: bool) -> list[TransformJob]:
    """Every (client, target) transform of stage one, in the order that lays
    out the pools: client by client, each client's targets in ascending key
    order, so ``TARGET_KEY`` (-1, the held-out description, when included)
    leads.  Client i's train pool is its n local rows, then one n-row copy
    per target in this order, with the local labels and the target's key as
    domain; its head pool is the same without the ``TARGET_KEY`` block."""
    targets = list(enumerate(split.source_domain_tokens))
    if include_target_description:
        targets.insert(0, (TARGET_KEY, split.target_domain_token))
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

    The local sets must share one non-empty length (``ConfigurationError``
    before anything trains).  All transforms train in one stacked
    ``train_transform`` call and move the local sets in one stacked forward;
    with style transfer disabled there are none, and every pool is just the
    local set.  No message is produced either way; stage one is upload-free
    by construction.  Each local set and block of copies is normalized and
    validated here, once, against the split's class and client counts,
    straight into the stack, laid out as ``transform_jobs`` states.
    """
    lengths = sorted({len(local) for local in split.clients})
    if len(lengths) > 1:
        raise ConfigurationError(f"client local sets mix lengths {lengths}")
    n, k, dim = lengths[0], split.num_clients, encoder.config.dim
    if n == 0:
        raise ConfigurationError("client local sets are empty")
    classes = split.class_tokens.shape[0]
    transforms: dict[int, dict[int, TransformNetwork]] = {i: {} for i in range(k)}
    jobs, copies = [], np.empty((0, n, dim))
    if toggles.use_style_transfer:
        jobs = transform_jobs(split, toggles.include_target_description)
        result = train_transform(jobs, encoder, split.class_tokens, transfer_config, temperature, seed)
        for net in result.networks():
            transforms[net.source][net.target] = net
        copies = build_augmentation_bank(result)
    styled = len(jobs) // k
    train = _empty_stack(k, n * (1 + styled), dim)
    # target-styled copies carry TARGET_KEY, outside the domain range
    copy_domains = None if toggles.include_target_description else k
    for i, local in enumerate(split.clients):
        own = slice(i * styled, (i + 1) * styled)
        keys = np.repeat([job.target for job in jobs[own]], n)
        block = LabeledEmbeddings(copies[own].reshape(-1, dim), np.tile(local.labels, styled), keys)
        UnitRows.prepare(local, classes, k, out=train.select(np.s_[i, :n]))
        UnitRows.prepare(block, classes, copy_domains, out=train.select(np.s_[i, n:]))
        log.info("client %d: %d local, %d augmented toward %s", i, n, len(block), list(transforms[i]))
    head = train
    if toggles.include_target_description:
        # every client's TARGET_KEY block sits at the same rows
        head = train.select(np.s_[:, np.flatnonzero(train.domains[0] != TARGET_KEY)])
    return StageOneResult(train, head, n, transforms)


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
    k, n = stage_one.local_set.labels.shape
    if k != split.num_clients:
        raise ConfigurationError(f"stage one covered {k} of {split.num_clients} clients")
    dim, temperature = encoder.config.dim, prompt_config.temperature
    ledger = CommunicationLedger()
    # the run's constants, validated once: the class tokens' term after
    # both prompt slots, and the unit own-description rows
    classes = encoder.class_term(split.class_tokens, 2 * prompt_config.length)
    own = None
    if toggles.use_contrastive:
        own = contrast_anchor(
            np.stack([encoder.encode_text(token[None, :]) for token in split.source_domain_tokens]),
            "own description embedding",
        )

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
    # the domain pass's constants, set once per round from the adopted
    # global prompt: its slot pooled and the contrast's anchor pair
    global_slot = anchors = None

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
        values, grad, _ = domain_loss(
            batch, params["domain_prompt"], global_slot, encoder, classes, anchors, temperature
        )
        return values, {"domain_prompt": grad}

    # room for one (K, n, ...) draw, reused by every pass that draws: a
    # fresh one per pass costs more in page faults than the gather; it is
    # made on the first draw, so a cell whose passes all read their whole
    # pool makes none
    drawn = None
    # the local set with its column copy, read by every whole-set pass
    local_set = stage_one.local_set.with_column_copy() if fed_config.batch_size >= n else None

    def local_pass(name, step, params, stack, epoch, losses, length=None):
        """One epoch of the ``name`` pass ("global", "head" or "domain").
        Each client's pool is the leading ``length`` rows (all by default)
        of its slice of ``stack``.  A pool of exactly n rows with
        ``batch_size`` at least n makes one batch of every row: each loss
        is a batch mean, so a shuffle would only reorder its sum, and the
        pass reads ``local_set``, the local set that leads every pool, with
        the column copy made for it once per run.  Otherwise each client draws
        a local-set-sized sample of its pool from its own ``<name>-shuffle``
        stream into its row of ``drawn``, which carries no column copy:
        transposing the gather would cost more than the scores save.  Each
        stacked batch then takes
        one ``step``, records its losses as ``<name>_loss`` and updates, in
        ``params``, the arrays the step returned gradients for, at
        ``<name>_lr`` decayed by the round."""
        nonlocal drawn
        rate = getattr(fed_config, f"{name}_lr") * fed_config.lr_decay**losses.round_index
        width = stack.labels.shape[1]
        length = width if length is None else length
        if length == n and local_set is not None:
            source = local_set
        else:
            if drawn is None:
                drawn = _empty_stack(k, n, dim)
            order = np.stack([
                rng(seed, f"{name}-shuffle", losses.round_index, i, epoch).permutation(length)[:n]
                for i in range(k)
            ])
            # one gather per array from the contiguous stack seen as K * N
            # rows; every index is in range, so "clip" only spares take a
            # buffered copy
            order += np.arange(0, k * width, width)[:, None]
            for part in ("rows", "labels", "domains"):
                whole = getattr(stack, part)
                flat = whole.reshape(k * width, *whole.shape[2:])
                np.take(flat, order, axis=0, out=getattr(drawn, part), mode="clip")
            source = drawn
        for start in range(0, n, fed_config.batch_size):
            batch = source.select(np.s_[:, start : start + fed_config.batch_size])
            values, grads = step(batch, params)
            losses.add(f"{name}_loss", values, batch.labels.shape[-1])
            trained = {key: params[key] for key in grads}
            params.update(sgd_step(trained, grads, rate, fed_config.weight_decay))

    round_metrics: list[dict[str, float]] = []
    for round_index in range(fed_config.rounds):
        losses = _RoundLosses(round_index)

        # local refinement of the shared state, all clients in one stack
        params = {name: np.stack([value] * k) for name, value in shared.items()}
        for epoch in range(fed_config.global_epochs):
            # an epoch is one pass over a local-set-sized draw from the
            # pool: augmentation banks triple the pool, and without the
            # cap a bank-holding client would take three times as many
            # steps per epoch, so variant comparisons would mix the
            # effect of the banks with the effect of extra optimization;
            # the head pass draws the same way for the same reason
            if toggles.use_global_prompt:
                local_pass("global", global_step, params, stage_one.train_pool, epoch, losses)
            if toggles.use_domain_prompt:
                local_pass("head", head_step, params, stage_one.head_pool, epoch, losses)

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
                frozen = np.stack([shared["global_prompt"]] * k)
                global_slot = encoder.pool_prefix([frozen])
                if own is not None:
                    anchors = (own, contrast_anchor(frozen.mean(axis=-2), "pooled global prompt"))
            # the local set is the train stack's leading n rows; a draw
            # indexes that contiguous parent, since flattening the strided
            # local-set view would copy it
            for epoch in range(fed_config.domain_epochs):
                local_pass("domain", domain_step, params, stage_one.train_pool, epoch, losses, n)
            domain = params["domain_prompt"]

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
    pure function of the run state.
    """
    test = split.test_set
    if len(test) == 0:
        raise ConfigurationError("empty test set")
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
