"""Two-stage federated protocol over the frozen encoder.

Stage one is entirely local: every client trains one style transform per
other available domain description and pushes its own embeddings through
them, producing an augmentation pool.  Nothing crosses the wire.

Stage two runs ``rounds`` federated rounds.  In each round every client
refines the shared state locally (the global prompt on its augmented pool,
the domain head on the pool without target-styled entries), uploads it,
and the server broadcasts the anchored weighted mean back.  The broadcast
bytes are canonical: server and clients all adopt the value that crossed
the wire, so their states match bit for bit.  After the final round each
client uploads its locally trained domain prompt once and the server
broadcasts the full stack, which is what unseen-domain inference blends.

Wire traffic is float32; per round and client the upload totals
``prompt_length * dim`` prompt parameters plus ``dim * K + K`` head
parameters, which ``comm_cost`` reports.  Every message is framed,
CRC-checked, and recorded in a ``CommunicationLedger``.

Everything is serial and seeded: client loops run in ascending client
order and shuffles come from the per-(round, client, epoch) stream, so a
run is a pure function of its inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import TARGET_KEY, EvaluationSplit, LabeledEmbeddings, description_set
from .encoder import FrozenEncoder
from .errors import ConfigurationError, NonFiniteLossError, ProtocolError
from .numerics import Array, SgdState, sgd_step
from .prompts import (
    DomainClassifier,
    PromptConfig,
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
    use_prompt_generator: bool = True
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
    """Round counts, learning rates, and upload weighting."""

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
    weighting: str = "uniform"  # or "samples"

    def __post_init__(self):
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
        if self.weighting not in ("uniform", "samples"):
            raise ConfigurationError(f"unknown weighting {self.weighting!r}")


def comm_cost(prompt_length: int, dim: int, num_domains: int) -> int:
    """Per-client, per-round upload size in parameters.

    One (prompt_length, dim) prompt block plus a (num_domains, dim) domain
    head with its bias.  Domain prompts do not recur per round; their single
    final exchange is the same prompt_length * dim on top of this.
    """
    if prompt_length < 1 or dim < 1 or num_domains < 1:
        raise ConfigurationError("comm_cost arguments must be positive")
    return prompt_length * dim + dim * num_domains + num_domains


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
    sample_count: int


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
                sample_count=message.sample_count,
            )
        )

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.kind_name] = out.get(record.kind_name, 0) + 1
        return out

    def total_payload_bytes(self) -> int:
        return sum(record.payload_bytes for record in self.records)

    def to_rows(self) -> list[str]:
        rows = ["round,client,kind,parameters,payload_bytes,samples"]
        for r in self.records:
            rows.append(
                f"{r.round_index},{r.client},{r.kind_name},{r.parameter_count},"
                f"{r.payload_bytes},{r.sample_count}"
            )
        return rows


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def aggregate_anchored(
    uploads: dict[int, dict[str, Array]], weights: dict[int, float]
) -> dict[str, Array]:
    """Weighted mean written as anchor + sum_i w_i * (x_i - anchor).

    The anchor is the lowest client id's upload and accumulation runs in
    ascending id order, so the result is reproducible to the bit.  With
    weights summing to one this equals the plain weighted mean; uploads
    that are all bit-equal short-circuit to that shared value exactly.
    """
    if not uploads:
        raise ProtocolError("nothing to aggregate")
    if set(weights) != set(uploads):
        raise ProtocolError("weights do not cover the uploads")
    total = sum(weights.values())
    if abs(total - 1.0) > 1e-9:
        raise ProtocolError(f"weights sum to {total!r}, expected 1")
    ids = sorted(uploads)
    names = list(uploads[ids[0]])
    for i in ids:
        if list(uploads[i]) != names:
            raise ProtocolError(f"client {i} uploaded arrays {list(uploads[i])}, expected {names}")
    out: dict[str, Array] = {}
    for name in names:
        anchor = np.asarray(uploads[ids[0]][name], dtype=np.float64)
        if all(np.array_equal(uploads[i][name], anchor) for i in ids):
            out[name] = anchor.copy()
            continue
        acc = np.zeros_like(anchor)
        for i in ids:
            contribution = np.asarray(uploads[i][name], dtype=np.float64) - anchor
            acc += weights[i] * contribution
        out[name] = anchor + acc
    return out


def _upload_weights(messages: dict[int, FederatedMessage], mode: str) -> dict[int, float]:
    ids = sorted(messages)
    if mode == "uniform":
        return {i: 1.0 / len(ids) for i in ids}
    counts = {i: messages[i].sample_count for i in ids}
    total = sum(counts.values())
    if total == 0:
        raise ProtocolError("sample-count weighting with zero reported samples")
    return {i: counts[i] / total for i in ids}


# ---------------------------------------------------------------------------
# stage one: local style transfer
# ---------------------------------------------------------------------------


@dataclass
class ClientData:
    """One client's pools after stage one.

    ``local_set`` holds the original embeddings only and trains the domain
    prompt.  ``train_pool`` adds every style-transferred copy and trains
    the global prompt.  ``head_pool`` drops entries styled toward the
    held-out domain, which have no valid source-domain label.
    """

    client_id: int
    local_set: LabeledEmbeddings
    train_pool: LabeledEmbeddings
    head_pool: LabeledEmbeddings


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
    upload-free by construction.
    """
    if not toggles.use_style_transfer:
        clients = [
            ClientData(client_id=i, local_set=ds, train_pool=ds, head_pool=ds)
            for i, ds in enumerate(split.clients)
        ]
        return StageOneResult(clients=clients)

    jobs = transform_jobs(split, toggles.include_target_description)
    trained: dict[tuple[int, int], TransformNetwork] = {}
    # train_transform steps its jobs together, so they must share a length
    for length in sorted({len(job.dataset) for job in jobs}):
        group = [job for job in jobs if len(job.dataset) == length]
        result = train_transform(group, encoder, split.class_tokens, transfer_config, temperature, seed)
        for net in result.networks():
            trained[net.source, net.target] = net
    clients = []
    transforms: dict[int, dict[int, TransformNetwork]] = {}
    for i, local in enumerate(split.clients):
        nets = {job.target: trained[i, job.target] for job in jobs if job.source == i}
        targets = list(nets)
        bank = build_augmentation_bank(local, i, nets, targets)
        train_pool = LabeledEmbeddings.concat([local, bank.combined()])
        head_pool = train_pool.subset(np.flatnonzero(train_pool.domains != TARGET_KEY))
        clients.append(
            ClientData(client_id=i, local_set=local, train_pool=train_pool, head_pool=head_pool)
        )
        transforms[i] = nets
        log.info(
            "client %d: %d local, %d augmented toward %s",
            i, len(local), len(train_pool) - len(local), targets,
        )
    return StageOneResult(clients=clients, transforms=transforms)


# ---------------------------------------------------------------------------
# stage two: federated prompt tuning
# ---------------------------------------------------------------------------


@dataclass
class ClientRuntime:
    """Mutable per-client training state during stage two."""

    data: ClientData
    global_prompt: Array | None
    classifier: DomainClassifier | None
    domain_prompt: Array | None
    domain_stack: Array | None = None  # adopted final broadcast, (K, L, d)


@dataclass
class ProtocolResult:
    """Canonical post-run state plus everything needed to audit the run."""

    global_prompt: Array | None
    classifier: DomainClassifier | None
    domain_prompts: Array | None  # (K, L, d) in client order
    clients: list[ClientRuntime]
    ledger: CommunicationLedger
    round_metrics: list[dict[str, float]]


def _batches(dataset: LabeledEmbeddings, order: Array, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield dataset.subset(order[start : start + batch_size])


def _decayed(param: Array, fed_config: FederationConfig, learning_rate: float) -> Array:
    if fed_config.weight_decay == 0.0:
        return param
    return param * (1.0 - learning_rate * fed_config.weight_decay)


def _require_finite_loss(value: float, what: str) -> float:
    if not np.isfinite(value):
        raise NonFiniteLossError(f"{what} diverged to {value!r}")
    return value


class _MeanTracker:
    def __init__(self):
        self.total = 0.0
        self.count = 0

    def add(self, value: float, weight: int) -> None:
        self.total += value * weight
        self.count += weight

    def mean(self) -> float | None:
        return self.total / self.count if self.count else None


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
    """
    clients_data = stage_one.clients
    k = split.num_clients
    if len(clients_data) != k:
        raise ConfigurationError(f"stage one covered {len(clients_data)} of {k} clients")
    dim = encoder.config.dim
    class_tokens = split.class_tokens
    temperature = prompt_config.temperature
    ledger = CommunicationLedger()

    shared_global = (
        init_prompt(prompt_config, dim, seed, "global-prompt-init")
        if toggles.use_global_prompt
        else None
    )
    shared_head = DomainClassifier.init(k, dim) if toggles.use_prompt_generator else None
    clients = [
        ClientRuntime(
            data=data,
            global_prompt=None if shared_global is None else shared_global.copy(),
            classifier=None
            if shared_head is None
            else DomainClassifier(shared_head.weight.copy(), shared_head.bias.copy()),
            domain_prompt=(
                init_prompt(prompt_config, dim, seed, "domain-prompt-init", data.client_id)
                if toggles.use_domain_prompt
                else None
            ),
        )
        for data in clients_data
    ]
    own_text = (
        [encoder.encode_text(token[None, :]) for token in split.source_domain_tokens]
        if toggles.use_contrastive
        else [None] * k
    )

    round_metrics: list[dict[str, float]] = []
    for round_index in range(fed_config.rounds):
        scale = fed_config.lr_decay**round_index
        global_rate = fed_config.global_lr * scale
        head_rate = fed_config.head_lr * scale
        domain_rate = fed_config.domain_lr * scale
        global_mean = _MeanTracker()
        head_mean = _MeanTracker()
        domain_mean = _MeanTracker()

        # local refinement of the shared state, then upload
        messages: dict[int, FederatedMessage] = {}
        for client in clients:
            i = client.data.client_id
            for epoch in range(fed_config.global_epochs):
                if toggles.use_global_prompt:
                    # an epoch is one pass over a local-set-sized draw from the
                    # pool: augmentation banks triple the pool, and without the
                    # cap a bank-holding client would take three times as many
                    # steps per epoch, so variant comparisons would mix the
                    # effect of the banks with the effect of extra optimization
                    order = rng(seed, "global-shuffle", round_index, i, epoch).permutation(
                        len(client.data.train_pool)
                    )[: len(client.data.local_set)]
                    for batch in _batches(client.data.train_pool, order, fed_config.batch_size):
                        value, grad = global_loss(
                            batch, client.global_prompt, encoder, class_tokens, temperature
                        )
                        _require_finite_loss(value, f"global loss (round {round_index}, client {i})")
                        global_mean.add(value, len(batch))
                        client.global_prompt = sgd_step(
                            SgdState(global_rate),
                            {"prompt": _decayed(client.global_prompt, fed_config, global_rate)},
                            {"prompt": grad},
                        )["prompt"]
                if toggles.use_prompt_generator:
                    # same local-set-sized draw as the global pass, and for the
                    # same reason
                    order = rng(seed, "head-shuffle", round_index, i, epoch).permutation(
                        len(client.data.head_pool)
                    )[: len(client.data.local_set)]
                    for batch in _batches(client.data.head_pool, order, fed_config.batch_size):
                        value, grads = classifier_loss(batch, client.classifier)
                        _require_finite_loss(value, f"head loss (round {round_index}, client {i})")
                        head_mean.add(value, len(batch))
                        decayed = {
                            name: _decayed(param, fed_config, head_rate)
                            for name, param in client.classifier.params().items()
                        }
                        new = sgd_step(SgdState(head_rate), decayed, grads)
                        client.classifier = DomainClassifier(new["weight"], new["bias"])
            arrays: dict[str, Array] = {}
            if toggles.use_global_prompt:
                arrays["global_prompt"] = client.global_prompt
            if toggles.use_prompt_generator:
                arrays["head_weight"] = client.classifier.weight
                arrays["head_bias"] = client.classifier.bias
            blob = encode_message(
                protocol_message(
                    KIND_GLOBAL_UPLOAD, round_index, i, len(client.data.train_pool), arrays
                )
            )
            received = decode_message(blob)
            ledger.record(received, endpoint=i)
            messages[i] = received

        # aggregate and broadcast; everyone adopts the broadcast bytes
        weights = _upload_weights(messages, fed_config.weighting)
        aggregated = aggregate_anchored(
            {i: {n: a for n, a in m.arrays.items()} for i, m in messages.items()}, weights
        )
        blob = encode_message(
            protocol_message(KIND_GLOBAL_BROADCAST, round_index, SERVER_ID, 0, aggregated)
        )
        adopted = decode_message(blob)
        canonical = {name: arr.astype(np.float64) for name, arr in adopted.arrays.items()}
        if toggles.use_global_prompt:
            shared_global = canonical["global_prompt"]
        if toggles.use_prompt_generator:
            shared_head = DomainClassifier(canonical["head_weight"], canonical["head_bias"])
        for client in clients:
            ledger.record(adopted, endpoint=client.data.client_id)
            if toggles.use_global_prompt:
                client.global_prompt = canonical["global_prompt"].copy()
            if toggles.use_prompt_generator:
                client.classifier = DomainClassifier(
                    canonical["head_weight"].copy(), canonical["head_bias"].copy()
                )

        # local domain-prompt epochs against the frozen adopted state
        if toggles.use_domain_prompt:
            for client in clients:
                i = client.data.client_id
                for epoch in range(fed_config.domain_epochs):
                    order = rng(seed, "domain-shuffle", round_index, i, epoch).permutation(
                        len(client.data.local_set)
                    )
                    for batch in _batches(client.data.local_set, order, fed_config.batch_size):
                        value, grad, _ = domain_loss(
                            batch,
                            client.domain_prompt,
                            client.global_prompt,
                            encoder,
                            class_tokens,
                            own_text[i],
                            temperature,
                            use_contrastive=toggles.use_contrastive,
                        )
                        _require_finite_loss(value, f"domain loss (round {round_index}, client {i})")
                        domain_mean.add(value, len(batch))
                        client.domain_prompt = sgd_step(
                            SgdState(domain_rate),
                            {"prompt": _decayed(client.domain_prompt, fed_config, domain_rate)},
                            {"prompt": grad},
                        )["prompt"]

        metrics = {"round": float(round_index)}
        for name, tracker in (
            ("global_loss", global_mean),
            ("head_loss", head_mean),
            ("domain_loss", domain_mean),
        ):
            mean = tracker.mean()
            if mean is not None:
                metrics[name] = mean
        round_metrics.append(metrics)
        log.info("round %d: %s", round_index, metrics)

    # final domain-prompt collection and broadcast
    shared_stack = None
    if toggles.use_domain_prompt:
        collected: dict[int, Array] = {}
        for client in clients:
            i = client.data.client_id
            blob = encode_message(
                protocol_message(
                    KIND_DOMAIN_UPLOAD,
                    fed_config.rounds,
                    i,
                    len(client.data.local_set),
                    {"domain_prompt": client.domain_prompt},
                )
            )
            received = decode_message(blob)
            ledger.record(received, endpoint=i)
            collected[i] = received.arrays["domain_prompt"]
        stack = np.stack([collected[i] for i in sorted(collected)])
        blob = encode_message(
            protocol_message(
                KIND_DOMAIN_BROADCAST, fed_config.rounds, SERVER_ID, 0, {"domain_prompts": stack}
            )
        )
        adopted = decode_message(blob)
        shared_stack = adopted.arrays["domain_prompts"].astype(np.float64)
        for client in clients:
            ledger.record(adopted, endpoint=client.data.client_id)
            client.domain_stack = shared_stack.copy()

    return ProtocolResult(
        global_prompt=shared_global,
        classifier=shared_head,
        domain_prompts=shared_stack,
        clients=clients,
        ledger=ledger,
        round_metrics=round_metrics,
    )


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
        mode=prompt_config.generator_mode,
    )
    predicted = np.argmax(probs, axis=1)
    return float(np.mean(predicted == test.labels))
