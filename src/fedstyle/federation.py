"""Two-stage federated protocol over the frozen encoder.

Stage one is entirely local: every client trains one style transform per
other available domain description and pushes its own embeddings through
them, producing an augmentation pool.  Nothing crosses the wire.

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

Everything is seeded and runs in one thread.  The local sets of a split
must all have the same length (``ConfigurationError`` otherwise), so the
K clients of a split step as one stack in both stages: stage one trains
every transform in one ``train_transform`` call, and each stage-two pass
takes one stacked step per batch for all clients, each client's shuffle
still drawn from its own per-(round, client, epoch) stream.  A stacked step
gives every client the bits it would get alone.  Uploads, ledger records
and each round's loss means follow ascending client order, so a run is a
pure function of its inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import TARGET_KEY, EvaluationSplit, description_set
from .encoder import FrozenEncoder
from .errors import ConfigurationError, NonFiniteLossError, ProtocolError
from .numerics import Array, require_finite_fields, sgd_step
from .prompts import (
    DomainClassifier,
    PromptConfig,
    UnitRows,
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

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.kind_name] = out.get(record.kind_name, 0) + 1
        return out

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
    """One client's pools after stage one, as prepared unit rows.

    ``train_pool`` is the local set followed by every style-transferred
    copy, normalized and validated once; it trains the global prompt.
    ``local_set`` is a view of its leading rows, the original embeddings,
    and trains the domain prompt.  ``head_pool`` trains the domain head: it
    is the train pool itself unless some entries are styled toward the
    held-out domain, which have no valid source-domain label; then it holds
    the other rows, gathered once.
    """

    client_id: int
    local_set: UnitRows
    train_pool: UnitRows
    head_pool: UnitRows


@dataclass
class StageOneResult:
    clients: list[ClientData]
    transforms: dict[int, dict[int, TransformNetwork]] = field(default_factory=dict)


def transform_jobs(split: EvaluationSplit, include_target_description: bool) -> list[TransformJob]:
    """Every (client, other description) transform of stage one, by client
    and then description order."""
    tokens, keys = description_set(split, include_target_description)
    return [
        TransformJob(local, i, key, split.source_domain_tokens[i], tokens[row])
        for i, local in enumerate(split.clients)
        for row, key in enumerate(keys)
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

    With style transfer disabled every pool is just the local set and no
    transform is trained.  No message is produced either way; stage one is
    upload-free by construction.  Each pool is normalized and validated
    here, once, against the split's class and client counts.  All
    transforms train in one stacked ``train_transform`` call, which rejects
    local sets of different lengths.
    """
    classes, k = split.class_tokens.shape[0], split.num_clients
    if not toggles.use_style_transfer:
        pools = [UnitRows.prepare(ds, classes, k) for ds in split.clients]
        return StageOneResult(clients=[ClientData(i, pool, pool, pool) for i, pool in enumerate(pools)])

    jobs = transform_jobs(split, toggles.include_target_description)
    result = train_transform(jobs, encoder, split.class_tokens, transfer_config, temperature, seed)
    trained = {(net.source, net.target): net for net in result.networks()}
    clients = []
    transforms: dict[int, dict[int, TransformNetwork]] = {}
    for i, local in enumerate(split.clients):
        nets = {job.target: trained[i, job.target] for job in jobs if job.source == i}
        pool = build_augmentation_bank(local, i, nets)
        head = np.flatnonzero(pool.domains != TARGET_KEY)
        if len(head) == len(pool):
            train_pool = head_pool = UnitRows.prepare(pool, classes, k)
        else:
            train_pool = UnitRows.prepare(pool, classes)
            head_pool = UnitRows.prepare(pool.subset(head), classes, k)
        clients.append(ClientData(i, train_pool.select(slice(0, len(local))), train_pool, head_pool))
        transforms[i] = nets
        log.info(
            "client %d: %d local, %d augmented toward %s",
            i, len(local), len(train_pool) - len(local), list(nets),
        )
    return StageOneResult(clients=clients, transforms=transforms)


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
            if not np.isfinite(value):
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
    Local sets of different lengths raise ``ConfigurationError`` before any
    message is sent.
    """
    clients = stage_one.clients
    k = split.num_clients
    if len(clients) != k:
        raise ConfigurationError(f"stage one covered {len(clients)} of {k} clients")
    lengths = sorted({len(client.local_set) for client in clients})
    if len(lengths) > 1:
        raise ConfigurationError(f"client local sets mix lengths {lengths}")
    dim = encoder.config.dim
    class_tokens, temperature = split.class_tokens, prompt_config.temperature
    ledger = CommunicationLedger()

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
    own_text = None
    if toggles.use_contrastive:
        own_text = np.stack([encoder.encode_text(token[None, :]) for token in split.source_domain_tokens])

    # each loss as (batch, params) -> (values, grads of the arrays it trains)
    def global_step(batch, params):
        values, grad = global_loss(batch, params["global_prompt"], encoder, class_tokens, temperature)
        return values, {"global_prompt": grad}

    def head_step(batch, params):
        values, grads = classifier_loss(batch, DomainClassifier(params["head_weight"], params["head_bias"]))
        return values, {"head_weight": grads["weight"], "head_bias": grads["bias"]}

    def domain_step(batch, params):
        values, grad, _ = domain_loss(
            batch, params["domain_prompt"], params.get("global_prompt"), encoder, class_tokens,
            params.get("own_text"), temperature, use_contrastive=toggles.use_contrastive,
        )
        return values, {"domain_prompt": grad}

    # room for one (K, n, ...) draw, reused by every pass: a fresh one per
    # pass costs more in page faults than the gather
    n = lengths[0]
    labels = np.empty((k, n), dtype=np.int64)
    drawn = UnitRows(np.empty((k, n, dim)), labels, np.empty_like(labels))

    def local_pass(name, step, params, pool, epoch, losses):
        """One epoch of the ``name`` pass ("global", "head" or "domain").
        Each client draws a local-set-sized sample of its ``pool`` from its
        own ``<name>-shuffle`` stream into its row of ``drawn``; each
        stacked batch then takes one ``step``, records its losses as
        ``<name>_loss`` and updates, in ``params``, the arrays the step
        returned gradients for, at ``<name>_lr`` decayed by the round."""
        rate = getattr(fed_config, f"{name}_lr") * fed_config.lr_decay**losses.round_index
        for i, client in enumerate(clients):
            rows = getattr(client, pool)
            order = rng(seed, f"{name}-shuffle", losses.round_index, i, epoch).permutation(len(rows))[:n]
            for part in ("rows", "labels", "domains"):
                # every index is in range, so "clip" only spares take a buffered copy
                np.take(getattr(rows, part), order, axis=0, out=getattr(drawn, part)[i], mode="clip")
        for start in range(0, n, fed_config.batch_size):
            batch = drawn.select(np.s_[:, start : start + fed_config.batch_size])
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
                local_pass("global", global_step, params, "train_pool", epoch, losses)
            if toggles.use_domain_prompt:
                local_pass("head", head_step, params, "head_pool", epoch, losses)

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
                params["global_prompt"] = np.stack([shared["global_prompt"]] * k)
            if own_text is not None:
                params["own_text"] = own_text
            for epoch in range(fed_config.domain_epochs):
                local_pass("domain", domain_step, params, "local_set", epoch, losses)
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
