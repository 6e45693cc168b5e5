"""Workloads of the benchmark: pinned hyperparameters and the cell pipeline.

A *cell* is one (seed, holdout, variant) run from the leave-one-out split
to held-out accuracy:

    run_stage_one -> run_protocol -> evaluate_accuracy

Every hyperparameter is passed by keyword, pinned to the experiment
defaults of ``fedstyle.config._KEYS`` as they stood when the benchmark was
written.  A later change to either copy of the package defaults therefore
leaves the workloads unchanged.

``fedstyle`` is imported inside the functions, never at module level: the
set-up time the benchmark reports includes the first import of the package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

WORLD = dict(
    classes=10, domains=4, samples_per_cell=200, noise=0.1, dim=64,
    shift_scale=2.0, token_scale=0.01, shots=0,
)
ENCODER = dict(dim=64, max_tokens=16, normalize=True)
TRANSFER = dict(
    alignment_weight=0.5, learning_rate=1e-3, weight_decay=0.05,
    epochs=20, batch_size=32, hidden=0,
)
PROMPT = dict(length=4, temperature=0.15, generator_mode="soft", init_scale=0.0)
ROUNDS = dict(
    rounds=10, global_epochs=10, domain_epochs=1, global_lr=3e-3, head_lr=0.01,
    domain_lr=1e-3, weight_decay=0.5, lr_decay=0.7, batch_size=2000,
    weighting="uniform",
)

_ALL_PARTS = dict(
    use_global_prompt=True, use_domain_prompt=True, use_contrastive=True,
    use_prompt_generator=True, include_target_description=False,
)
VARIANTS = {
    "full": dict(_ALL_PARTS, use_style_transfer=True),
    "dual-prompt": dict(_ALL_PARTS, use_style_transfer=False),
}


@dataclass(frozen=True)
class Workload:
    """Keyword arguments of every config object, plus the variant."""

    name: str
    variant: str
    world: dict = field(default_factory=lambda: dict(WORLD))
    encoder: dict = field(default_factory=lambda: dict(ENCODER))
    transfer: dict = field(default_factory=lambda: dict(TRANSFER))
    prompt: dict = field(default_factory=lambda: dict(PROMPT))
    rounds: dict = field(default_factory=lambda: dict(ROUNDS))


WORKLOADS = {
    w.name: w
    for w in (
        # about 75% of a cell is stage one: 7,560 Adam steps on 32-row batches
        Workload("cell-full", "full"),
        # stage one is skipped; stage two takes 2000-row steps, so row
        # arithmetic dominates and a stage-one change must not move it
        Workload("prompt-fullbatch", "dual-prompt"),
        # the same calls about 1,900 times per kind per cell on 32-row
        # batches, so per-call overhead dominates
        Workload("prompt-minibatch", "dual-prompt", rounds=dict(ROUNDS, batch_size=32, global_epochs=1)),
    )
}


@dataclass
class Setup:
    """Everything a cell needs, built once per run from the seed."""

    workload: Workload
    seed: int
    encoder: object
    splits: list
    transfer: object
    prompt: object
    federation: object
    toggles: object


def build_setup(workload: Workload, seed: int) -> Setup:
    """Import the package, build the encoder and world, make every split."""
    from fedstyle.data import WorldSpec, generate_world, leave_one_out
    from fedstyle.encoder import EncoderConfig, FrozenEncoder
    from fedstyle.federation import FederationConfig, MethodToggles
    from fedstyle.prompts import PromptConfig
    from fedstyle.style_transfer import TransferConfig

    encoder = FrozenEncoder(EncoderConfig(seed=seed, **workload.encoder))
    world = generate_world(WorldSpec(seed=seed, **workload.world), encoder)
    return Setup(
        workload=workload,
        seed=seed,
        encoder=encoder,
        splits=[leave_one_out(world, h) for h in range(workload.world["domains"])],
        transfer=TransferConfig(**workload.transfer),
        prompt=PromptConfig(**workload.prompt),
        federation=FederationConfig(**workload.rounds),
        toggles=MethodToggles(**VARIANTS[workload.variant]),
    )


@dataclass
class CellOutput:
    stage_one: object
    result: object
    accuracy: float
    stage_s: dict[str, float]


def run_cell(setup: Setup, holdout: int) -> CellOutput:
    """The timed operation: split -> stage one -> stage two -> accuracy."""
    from fedstyle import federation

    split = setup.splits[holdout]
    t0 = time.perf_counter()
    stage_one = federation.run_stage_one(
        split, setup.encoder, setup.transfer, setup.prompt.temperature, setup.toggles, setup.seed
    )
    t1 = time.perf_counter()
    result = federation.run_protocol(
        stage_one, split, setup.encoder, setup.prompt, setup.federation, setup.toggles, setup.seed
    )
    t2 = time.perf_counter()
    accuracy = federation.evaluate_accuracy(result, split, setup.encoder, setup.prompt, setup.toggles)
    t3 = time.perf_counter()
    return CellOutput(
        stage_one=stage_one,
        result=result,
        accuracy=accuracy,
        stage_s={"run_stage_one": t1 - t0, "run_protocol": t2 - t1, "evaluate_accuracy": t3 - t2},
    )


# ---------------------------------------------------------------------------
# counts derived from the pinned hyperparameters and pool sizes
# ---------------------------------------------------------------------------


def expected_train_samples(setup: Setup, holdout: int) -> int:
    """Rows that pass through a gradient step in one cell.

    Stage one: every transform sees its client's local set once per epoch.
    Stage two, per round and client: each global-prompt and domain-head
    epoch draws a local-set-sized sample of its pool, and each domain-prompt
    epoch passes over the local set.
    """
    split = setup.splits[holdout]
    k = split.num_clients
    fed = setup.federation
    toggles = setup.toggles
    total = 0
    for local in split.clients:
        n = len(local)
        if toggles.use_style_transfer:
            targets = k - 1 + int(toggles.include_target_description)
            total += targets * setup.transfer.epochs * n
        per_round = 0
        if toggles.use_global_prompt:
            per_round += fed.global_epochs * n
        if toggles.use_prompt_generator:
            per_round += fed.global_epochs * n
        if toggles.use_domain_prompt:
            per_round += fed.domain_epochs * n
        total += fed.rounds * per_round
    return total


def expected_encode_calls(setup: Setup, holdout: int) -> int:
    """Frames encoded per cell: K uploads and one broadcast per round, plus
    the same again for the final domain-prompt exchange."""
    k = setup.splits[holdout].num_clients
    exchanges = setup.federation.rounds + int(setup.toggles.use_domain_prompt)
    return exchanges * (k + 1)
