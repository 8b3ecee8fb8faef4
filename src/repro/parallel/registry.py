"""Strategy plugin registry.

Every scheduling strategy — the six the paper evaluates and any user-defined
one — is an object satisfying the :class:`Strategy` protocol, registered under
a unique name.  The registry is the single source of truth consulted by the
:class:`~repro.core.session.Session` facade, config validation, benchmarks
and analysis, so a new scheduler plugs in without editing core code:

    from repro.parallel.registry import register_strategy

    @register_strategy
    class MyScheduler:
        name = "MY-SCHED"
        requires_profile = False

        def build(self, pair, server, batch_size, dataset, profile=None):
            ...return a SchedulePlan...

    ExperimentConfig(strategy="MY-SCHED")   # now valid everywhere

Registration order is preserved; the built-in strategies register below in
the order the paper plots them, so ``registry.names()`` starts with
``("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD")``.

Documented in ``docs/API.md`` (strategy registry) and ``docs/ARCHITECTURE.md``
(the registries).
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple, runtime_checkable

from repro.data.dataset import DatasetSpec
from repro.errors import ConfigurationError, ScheduleError
from repro.registry import NamedRegistry, make_register
from repro.hardware.server import ServerSpec
from repro.models.pairs import DistillationPair
from repro.parallel.baseline_dp import build_dp_plan
from repro.parallel.baseline_ls import build_ls_plan
from repro.parallel.hybrid import build_ahd_plan
from repro.parallel.internal_relay import build_ir_plan
from repro.parallel.plan import SchedulePlan
from repro.parallel.profiler import ProfileTable
from repro.parallel.teacher_relay import build_tr_plan


@runtime_checkable
class Strategy(Protocol):
    """A pluggable scheduling strategy.

    ``name`` is the registry key (and the string used in configs, result
    mappings and report tables); ``requires_profile`` tells callers whether
    :meth:`build` needs a non-``None`` profile table.  Strategies may also
    declare ``decoupled_recovery: bool`` — whether their sub-pipelines
    checkpoint and recover independently on a fault (DPU/LS-style) — which
    the cluster fault layer's :class:`~repro.cluster.faults.RecoveryModel`
    consults; omitting it means coupled (whole-gang critical-path replay).
    """

    name: str
    requires_profile: bool

    def build(
        self,
        pair: DistillationPair,
        server: ServerSpec,
        batch_size: int,
        dataset: DatasetSpec,
        profile: Optional[ProfileTable] = None,
    ) -> SchedulePlan:
        """Produce the schedule plan for one experiment cell."""
        ...


class StrategyRegistry(NamedRegistry[Strategy]):
    """Ordered name -> :class:`Strategy` mapping with validated registration.

    Example:
        >>> from repro.parallel.registry import REGISTRY
        >>> REGISTRY.get("DP").requires_profile
        False
        >>> "TR+DPU+AHD" in REGISTRY
        True
    """

    kind = "strategy"
    kind_plural = "strategies"

    def validate(self, name: str, strategy: Strategy) -> None:
        if not isinstance(getattr(strategy, "requires_profile", None), bool):
            raise ConfigurationError(
                f"strategy {name!r} must expose a boolean 'requires_profile'"
            )
        if not callable(getattr(strategy, "build", None)):
            raise ConfigurationError(f"strategy {name!r} must expose a callable 'build'")


#: The process-wide registry every subsystem consults.
REGISTRY = StrategyRegistry()


#: Register a strategy class or instance (usable as a decorator); see
#: :func:`repro.registry.make_register`.
register_strategy = make_register(REGISTRY)

#: The ablation points shown in Fig. 4 / Fig. 5 / Fig. 6 (the paper sometimes
#: omits TR+IR, which it discusses only for the A6000 NAS ablation).
ABLATION_STRATEGIES: Tuple[str, ...] = ("DP", "LS", "TR", "TR+DPU", "TR+DPU+AHD")

#: The strategy called "Pipe-BD" in Table II.
PIPE_BD_STRATEGY: str = "TR+DPU+AHD"


def _require_profile(name: str, profile: Optional[ProfileTable]) -> ProfileTable:
    if profile is None:
        raise ScheduleError(
            f"strategy {name!r} requires a profile table; profile the pair first "
            "(see Session.profile) or go through Session.run"
        )
    return profile


# ---------------------------------------------------------------------- #
# Built-in strategies, registered in the order the paper plots them.
# ---------------------------------------------------------------------- #
@register_strategy
class DPStrategy:
    """Data-parallel baseline (DNA; §II-B, Fig. 3a)."""

    name = "DP"
    requires_profile = False
    decoupled_recovery = False  # synchronous all-reduce gang

    def build(self, pair, server, batch_size, dataset, profile=None) -> SchedulePlan:
        return build_dp_plan(pair, server, batch_size)


@register_strategy
class LSStrategy:
    """Layerwise-scheduling baseline (Blakeney et al.; §II-B)."""

    name = "LS"
    requires_profile = True
    decoupled_recovery = True  # devices train independent students

    def build(self, pair, server, batch_size, dataset, profile=None) -> SchedulePlan:
        return build_ls_plan(pair, server, batch_size, _require_profile(self.name, profile))


@register_strategy
class TRStrategy:
    """Teacher relaying (§IV-A, Fig. 3b)."""

    name = "TR"
    requires_profile = True
    decoupled_recovery = False  # per-step barrier couples the gang

    def build(self, pair, server, batch_size, dataset, profile=None) -> SchedulePlan:
        return build_tr_plan(
            pair,
            server,
            batch_size,
            _require_profile(self.name, profile),
            dataset,
            decoupled_update=False,
        )


@register_strategy
class TRDPUStrategy:
    """Teacher relaying + decoupled parameter update (§IV-B, Fig. 3c).

    With teacher relaying alone, every device waits at a step barrier until
    all devices have finished their backward pass before updating weights
    and starting the next step; the wait for the relayed activation at the
    start of each step therefore shows up as a bubble.  Decoupled parameter
    update removes the barrier: as soon as a device's backward pass finishes
    it updates its own student blocks and immediately begins the next step's
    teacher execution.

    This is safe because student blocks have no dependency on each other's
    weight parameters — a property specific to blockwise distillation that
    :mod:`repro.distill.trainer` verifies numerically.

    At the plan level DPU is simply the ``decoupled_update`` flag on a
    teacher-relaying plan; the executor turns the flag into the presence or
    absence of cross-device step-barrier dependencies.
    """

    name = "TR+DPU"
    requires_profile = True
    decoupled_recovery = True  # decoupled updates, per-stage checkpoints

    def build(self, pair, server, batch_size, dataset, profile=None) -> SchedulePlan:
        return build_tr_plan(
            pair,
            server,
            batch_size,
            _require_profile(self.name, profile),
            dataset,
            decoupled_update=True,
        )


@register_strategy
class TRIRStrategy:
    """Internal relaying (§VII-A)."""

    name = "TR+IR"
    requires_profile = False
    decoupled_recovery = True  # internal relay keeps devices independent

    def build(self, pair, server, batch_size, dataset, profile=None) -> SchedulePlan:
        return build_ir_plan(pair, server, batch_size)


@register_strategy
class PipeBDStrategy:
    """Full Pipe-BD: TR + DPU + automatic hybrid distribution (§IV-C, Fig. 3d)."""

    name = "TR+DPU+AHD"
    requires_profile = True
    decoupled_recovery = True  # decoupled updates, per-stage checkpoints

    def build(self, pair, server, batch_size, dataset, profile=None) -> SchedulePlan:
        return build_ahd_plan(
            pair, server, batch_size, _require_profile(self.name, profile), dataset
        )
