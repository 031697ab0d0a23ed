"""Fault injection plan and scriptable chaos schedules.

Section 4.1: "catastrophic failures may occur which cannot be masked ...
a computer may fail for an extended period; a critical network link may be
broken".  The fault plan is the single place where crashes, partitions and
probabilistic message loss are declared, so experiments can script failure
scenarios explicitly.

Two layers of scripting are offered:

* imperative toggles on :class:`FaultPlan` — crash/restart, cut/heal,
  partition, global and per-link drop probabilities, one-shot losses
  and "gray" (degraded-latency) links;
* declarative :class:`FaultSchedule`\\ s — failure scenarios as *data*:
  timed windows (flaky link, crash-then-restart, gray link, link cut)
  attached to a plan once and applied automatically as the virtual
  clock passes each window boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple


#: What :meth:`FaultPlan.leg_verdict` answers when the message does not
#: leave; neither can be a latency factor, which is at least 1.0.
UNREACHABLE = 0.0
LOST = -1.0


class FaultPlan:
    """Mutable fault state consulted by the network on every transmit."""

    def __init__(self, drop_probability: float = 0.0) -> None:
        #: Told ``watcher(time)`` before each change but a one-shot loss
        #: or a stall: what fell due by *time* met the state until then
        #: (``None``: by the watcher's clock).
        self.watchers: List[Callable[[Optional[float]], None]] = []
        self._applying: Optional[float] = None  # a window transition's time
        self._drop_probability = 0.0
        self.drop_probability = drop_probability
        self._crashed: Set[str] = set()
        self._cut_links: Set[Tuple[str, str]] = set()
        self._partition_of: Dict[str, int] = {}
        #: Node names the network has registered; used to validate
        #: partition declarations (empty = standalone plan, no checks).
        self.known_nodes: Set[str] = set()
        #: Directional asymmetric-partition blocks: (src, dst) pairs.
        self._asym_blocked: Set[Tuple[str, str]] = set()
        #: Directional per-link drop probabilities: (src, dst) -> p.
        self._link_drop: Dict[Tuple[str, str], float] = {}
        #: Directional one-shot losses: (src, dst) -> messages to drop.
        self._lose_next: Dict[Tuple[str, str], int] = {}
        #: Directional latency inflation for gray links: (src, dst) -> factor.
        self._gray: Dict[Tuple[str, str], float] = {}
        #: Per-node compute slowdown factors (stall windows): node -> x.
        self._stall: Dict[str, float] = {}
        self._schedule: Optional["FaultSchedule"] = None
        self._clock = None
        self.drops = 0

    def _changing(self) -> None:
        """A toggle holds from after what fell due by now (the windows
        passed come first); a window from its own time on."""
        if self.watchers:
            when = self._applying
            if when is None:
                self._sync()
            else:
                when = math.nextafter(when, -math.inf)
            for watcher in tuple(self.watchers):
                watcher(when)

    # -- probabilistic loss ----------------------------------------------------

    @property
    def drop_probability(self) -> float:
        """Base probability that any single message leg is lost."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self._changing()
        self._drop_probability = probability

    def set_link_drop(self, source: str, destination: str,
                      probability: float) -> None:
        """Give the directed link source -> destination its own loss rate."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self._changing()
        if probability == 0.0:
            self._link_drop.pop((source, destination), None)
        else:
            self._link_drop[(source, destination)] = probability

    def link_drop(self, source: str, destination: str) -> float:
        return self._link_drop.get((source, destination), 0.0)

    def clear_link_drop(self, source: str, destination: str) -> None:
        self._changing()
        self._link_drop.pop((source, destination), None)

    def lose_next(self, source: str, destination: str,
                  count: int = 1) -> None:
        """Deterministically drop the next *count* messages on a link.

        This is how tests target a specific leg — e.g. the *reply* leg
        of an interrogation — without relying on probabilities.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        key = (source, destination)
        self._lose_next[key] = self._lose_next.get(key, 0) + count

    def should_drop(self, source: str, destination: str, rng) -> bool:
        """Decide (and account) whether this message leg is lost."""
        self._sync()
        return self._lost((source, destination), rng)

    def _lost(self, key: Tuple[str, str], rng) -> bool:
        """The loss rule, for a plan already synced to the clock."""
        pending = self._lose_next.get(key, 0)
        if pending > 0:
            if pending == 1:
                del self._lose_next[key]
            else:
                self._lose_next[key] = pending - 1
            self.drops += 1
            return True
        probability = self._drop_probability
        link = self._link_drop.get(key, 0.0)
        if link:
            # Independent loss processes: survive both to get through.
            probability = 1.0 - (1.0 - probability) * (1.0 - link)
        if probability and rng.chance(probability):
            self.drops += 1
            return True
        return False

    # -- gray (degraded) links -------------------------------------------------

    def degrade_link(self, source: str, destination: str,
                     factor: float) -> None:
        """Inflate latency on a directed link (gray failure, not loss)."""
        if not factor >= 1.0:  # NaN too: it would reach the event heap
            raise ValueError("latency factor must be >= 1.0")
        self._changing()
        if factor == 1.0:
            self._gray.pop((source, destination), None)
        else:
            self._gray[(source, destination)] = factor

    def restore_link(self, source: str, destination: str) -> None:
        self._changing()
        self._gray.pop((source, destination), None)

    def latency_factor(self, source: str, destination: str) -> float:
        self._sync()
        return self._gray.get((source, destination), 1.0)

    # -- compute stalls --------------------------------------------------------

    def stall_node(self, node: str, factor: float) -> None:
        """Slow a node's *compute* by ``factor`` (GC pause, noisy
        neighbour, page-cache thrash): every processing charge its
        nucleus makes is inflated, while its links stay healthy — the
        overload trigger, distinct from a gray link's latency."""
        if not factor >= 1.0:
            raise ValueError("stall factor must be >= 1.0")
        if factor == 1.0:
            self._stall.pop(node, None)
        else:
            self._stall[node] = factor

    def unstall_node(self, node: str) -> None:
        self._stall.pop(node, None)

    def compute_factor(self, node: str) -> float:
        self._sync()
        return self._stall.get(node, 1.0)

    # -- node crash / restart ------------------------------------------------

    def crash_node(self, node: str) -> None:
        self._changing()
        self._crashed.add(node)

    def restart_node(self, node: str) -> None:
        self._changing()
        self._crashed.discard(node)

    def is_crashed(self, node: str) -> bool:
        self._sync()
        return node in self._crashed

    @property
    def crashed_nodes(self) -> Set[str]:
        return set(self._crashed)

    # -- link cuts -----------------------------------------------------------

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def cut_link(self, a: str, b: str) -> None:
        self._changing()
        self._cut_links.add(self._key(a, b))

    def heal_link(self, a: str, b: str) -> None:
        self._changing()
        self._cut_links.discard(self._key(a, b))

    # -- partitions ----------------------------------------------------------

    def register_node(self, node: str) -> None:
        """Teach the plan a node name exists (called by the network)."""
        self.known_nodes.add(node)

    def _validate_nodes(self, nodes) -> None:
        """Partitioning a typo'd node silently partitions *nothing*
        (the real node keeps its links), so unknown names are rejected
        whenever the plan knows the topology at all."""
        if not self.known_nodes:
            return  # standalone plan: no topology to validate against
        unknown = sorted(set(nodes) - self.known_nodes)
        if unknown:
            raise ValueError(
                f"partition names unknown node(s) {unknown}; known "
                f"nodes: {sorted(self.known_nodes)}")

    def partition(self, *groups) -> None:
        """Split nodes into groups that cannot reach each other.

        ``partition(["a", "b"], ["c"])`` isolates c from a and b.  Nodes
        not mentioned remain reachable from everyone.  Calls are
        *incremental*: a later ``partition`` reassigns only the nodes it
        names (into fresh sides), leaving every unmentioned node on the
        side it already had — so overlapping chaos windows compose
        instead of silently erasing each other.  Node names are
        validated against the network's known nodes.
        """
        mentioned: Set[str] = set()
        for group in groups:
            for node in group:
                if node in mentioned:
                    raise ValueError(f"node {node} in two partition groups")
                mentioned.add(node)
        self._validate_nodes(mentioned)
        self._changing()
        base = max(self._partition_of.values(), default=-1) + 1
        for index, group in enumerate(groups):
            for node in group:
                self._partition_of[node] = base + index

    def asym_partition(self, sources, destinations) -> None:
        """Block the *directed* links source -> destination only.

        Models one-way reachability loss (a router dropping egress, an
        asymmetric firewall): a sequencer that can still *hear* its
        replicas but cannot reach them, or vice versa.  Replies travel
        the reverse direction and are unaffected.
        """
        sources, destinations = list(sources), list(destinations)
        self._validate_nodes(set(sources) | set(destinations))
        self._changing()
        for src in sources:
            for dst in destinations:
                if src != dst:
                    self._asym_blocked.add((src, dst))

    def heal_asym_partition(self, sources=None, destinations=None) -> None:
        """Unblock directed links; with no arguments, all of them."""
        self._changing()
        if sources is None and destinations is None:
            self._asym_blocked.clear()
            return
        sources = None if sources is None else set(sources)
        destinations = None if destinations is None else set(destinations)
        self._asym_blocked = {
            (src, dst) for (src, dst) in self._asym_blocked
            if not ((sources is None or src in sources)
                    and (destinations is None or dst in destinations))}

    def heal_partition(self, node: Optional[str] = None) -> None:
        """Heal partitions; with *node*, rejoin that single node only.

        ``heal_partition("a")`` removes a from its symmetric side,
        leaving every other partition assignment — and all asymmetric
        blocks, which have their own :meth:`heal_asym_partition` — in
        place, so overlapping chaos windows compose instead of healing
        each other.  Without arguments everything is healed.
        """
        self._changing()
        if node is None:
            self._partition_of.clear()
            self._asym_blocked.clear()
            return
        self._partition_of.pop(node, None)

    # -- chaos schedules -------------------------------------------------------

    def attach_schedule(self, schedule: "FaultSchedule", clock) -> None:
        """Drive this plan from a declarative schedule.

        The schedule is consulted lazily: every fault verdict first
        applies all window transitions the virtual clock has passed, so
        both the synchronous request path (which advances the clock
        directly) and scheduler-driven deliveries see a consistent
        failure timeline.
        """
        self._schedule = schedule
        self._clock = clock
        self._sync()

    def pump(self) -> None:
        """Apply any schedule transitions the clock has already passed.

        The lazy sync only fires when a fault verdict is requested; a
        run that ends with a plain clock advance calls this to make the
        failure timeline catch up before inspecting fault state.
        """
        self._sync()

    def clear_lose_next(self) -> None:
        """Forget pending one-shot losses (end-of-scenario cleanup)."""
        self._lose_next.clear()

    def _sync(self) -> None:
        # One float compare on the hot path: only enter the full sync
        # when the clock has actually crossed the next unapplied window
        # boundary.  ``link_blocked`` and ``leg_verdict`` write it out.
        schedule = self._schedule
        if schedule is not None and self._clock.now >= schedule._next_at:
            schedule.sync(self._clock.now, self)

    # -- the verdict ---------------------------------------------------------

    def link_blocked(self, source: str, destination: str) -> bool:
        """True when no message can currently pass source -> destination."""
        schedule = self._schedule
        if schedule is not None and self._clock.now >= schedule._next_at:
            schedule.sync(self._clock.now, self)
        if source in self._crashed or destination in self._crashed:
            return True
        # Empty on 97% of asks and more (measured, CHANGES.md PR 18):
        # ask that before building a key to look up.
        if self._cut_links and \
                self._key(source, destination) in self._cut_links:
            return True
        if self._asym_blocked and \
                (source, destination) in self._asym_blocked:
            return True
        if not self._partition_of:
            return False
        side_a = self._partition_of.get(source)
        side_b = self._partition_of.get(destination)
        return side_a is not None and side_b is not None and side_a != side_b

    def leg_verdict(self, source: str, destination: str, rng,
                    one_way: bool = False) -> float:
        """Everything the network asks about one leg at send time, from
        one sync: the clock does not move between the questions.

        Returns the latency factor (1.0, more on a gray link) when the
        message leaves, :data:`UNREACHABLE` when it cannot and
        :data:`LOST` when it is lost (and accounted), drawing from *rng*
        as :meth:`should_drop` would.  A *one_way* message is held back
        only by its own sender's crash: what the link and the
        destination do to it is decided when it arrives.
        """
        if one_way:
            schedule = self._schedule
            if schedule is not None and self._clock.now >= schedule._next_at:
                schedule.sync(self._clock.now, self)
            if source in self._crashed:
                return UNREACHABLE
        elif self.link_blocked(source, destination):
            return UNREACHABLE
        key = (source, destination)
        # With no loss declared ``_lost`` neither draws nor counts.
        if (self._lose_next or self._drop_probability or self._link_drop) \
                and self._lost(key, rng):
            return LOST
        return self._gray.get(key, 1.0)


# ---------------------------------------------------------------------------
# Declarative chaos windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlakyWindow:
    """Probabilistic loss during [start_ms, end_ms).

    With ``source``/``destination`` set the loss is confined to that
    directed link; otherwise the plan's base drop probability is raised
    for the window (and restored afterwards).
    """

    start_ms: float
    end_ms: float
    drop: float
    source: Optional[str] = None
    destination: Optional[str] = None


@dataclass(frozen=True)
class CrashWindow:
    """Crash a node at start_ms; restart it at end_ms (None = forever)."""

    node: str
    start_ms: float
    end_ms: Optional[float] = None


@dataclass(frozen=True)
class GrayWindow:
    """Inflate latency on a directed link during [start_ms, end_ms)."""

    start_ms: float
    end_ms: float
    factor: float
    source: str
    destination: str


@dataclass(frozen=True)
class StallWindow:
    """Slow a node's compute by ``factor`` during [start_ms, end_ms).

    The server keeps answering — slowly.  Unlike a crash nothing trips
    breakers or failure detectors immediately; unlike a gray link the
    slowdown is in the *dispatch* path, so queues build behind it.  The
    canonical trigger for metastable retry storms (benchmark C26).
    """

    node: str
    start_ms: float
    end_ms: float
    factor: float


@dataclass(frozen=True)
class CutWindow:
    """Cut the (undirected) link a--b at start_ms; heal at end_ms."""

    a: str
    b: str
    start_ms: float
    end_ms: Optional[float] = None


@dataclass(frozen=True)
class PartitionWindow:
    """Split the network into *groups* at start_ms; rejoin at end_ms.

    ``groups`` is a tuple of tuples of node names (tuples, not lists,
    so the window's repr stays a valid literal for pinned plans).  On
    exit every named node is rejoined individually via
    :meth:`FaultPlan.heal_partition`, so overlapping partition windows
    compose: healing this window leaves sides declared by others
    intact.  ``end_ms=None`` leaves the split in place forever.
    """

    groups: Tuple[Tuple[str, ...], ...]
    start_ms: float
    end_ms: Optional[float] = None


@dataclass(frozen=True)
class AsymPartitionWindow:
    """Block the directed links sources -> destinations for a window.

    Models one-way reachability loss; replies travelling the reverse
    direction are unaffected.  ``end_ms=None`` never heals.
    """

    sources: Tuple[str, ...]
    destinations: Tuple[str, ...]
    start_ms: float
    end_ms: Optional[float] = None


class FaultSchedule:
    """A failure scenario as data: an ordered set of chaos windows.

    Attach to a world with :meth:`repro.runtime.World.apply_chaos` (or
    ``plan.attach_schedule(schedule, clock)``); each window's enter/exit
    transition fires exactly once as the virtual clock passes it.
    ``install`` additionally registers no-op pump events with a
    scheduler so purely event-driven runs cross window boundaries even
    if nothing consults the plan in between.
    """

    def __init__(self, *windows) -> None:
        for window in windows:
            self._validate_window(window)
        self.windows: List[object] = list(windows)
        self._transitions: Optional[
            List[Tuple[float, int, Callable[[FaultPlan], None]]]] = None
        self._applied = 0
        #: Virtual time of the next unapplied transition — ``-inf``
        #: until first sync (forces compilation), ``inf`` when drained.
        #: Lets the per-verdict sync check become one float compare.
        self._next_at = float("-inf")
        #: Window transitions applied so far (enter + exit).
        self.activations = 0

    @staticmethod
    def _validate_window(window) -> None:
        """Reject malformed windows up front, not at sync time.

        A negative boundary or an end before its start would silently
        compile into transitions that never fire (or fire immediately),
        which makes a chaos scenario lie about what it injected.  So
        would a NaN one, which every comparison below lets through.
        """
        start = getattr(window, "start_ms", None)
        end = getattr(window, "end_ms", None)
        for name, value in (("start_ms", start), ("end_ms", end)):
            if value is not None and math.isnan(value):
                raise ValueError(
                    f"{type(window).__name__}: {name} is not a number")
        if start is not None and start < 0:
            raise ValueError(
                f"{type(window).__name__}: start_ms {start} is negative")
        if end is not None:
            if end < 0:
                raise ValueError(
                    f"{type(window).__name__}: end_ms {end} is negative")
            if start is not None and end < start:
                raise ValueError(
                    f"{type(window).__name__}: end_ms {end} precedes "
                    f"start_ms {start}")

    # -- compilation -----------------------------------------------------------

    def _compile(self) -> None:
        transitions: List[Tuple[float, int,
                                Callable[[FaultPlan], None]]] = []
        seq = 0
        for window in self.windows:
            for when, action in self._window_transitions(window):
                transitions.append((when, seq, action))
                seq += 1
        transitions.sort(key=lambda t: (t[0], t[1]))
        self._transitions = transitions

    def _window_transitions(self, window):
        if isinstance(window, FlakyWindow):
            if window.source is not None and window.destination is not None:
                src, dst, drop = window.source, window.destination, \
                    window.drop

                def enter(plan, src=src, dst=dst, drop=drop):
                    plan.set_link_drop(src, dst, drop)

                def leave(plan, src=src, dst=dst):
                    plan.clear_link_drop(src, dst)
            else:
                saved: Dict[str, float] = {}
                drop = window.drop

                def enter(plan, drop=drop, saved=saved):
                    saved["prior"] = plan.drop_probability
                    plan.drop_probability = drop

                def leave(plan, saved=saved):
                    plan.drop_probability = saved.pop("prior", 0.0)
            return [(window.start_ms, enter), (window.end_ms, leave)]

        if isinstance(window, CrashWindow):
            node = window.node
            steps = [(window.start_ms,
                      lambda plan, node=node: plan.crash_node(node))]
            if window.end_ms is not None:
                steps.append((window.end_ms,
                              lambda plan, node=node:
                              plan.restart_node(node)))
            return steps

        if isinstance(window, GrayWindow):
            src, dst, factor = window.source, window.destination, \
                window.factor
            return [
                (window.start_ms,
                 lambda plan, src=src, dst=dst, factor=factor:
                 plan.degrade_link(src, dst, factor)),
                (window.end_ms,
                 lambda plan, src=src, dst=dst:
                 plan.restore_link(src, dst)),
            ]

        if isinstance(window, StallWindow):
            node, factor = window.node, window.factor
            return [
                (window.start_ms,
                 lambda plan, node=node, factor=factor:
                 plan.stall_node(node, factor)),
                (window.end_ms,
                 lambda plan, node=node: plan.unstall_node(node)),
            ]

        if isinstance(window, CutWindow):
            a, b = window.a, window.b
            steps = [(window.start_ms,
                      lambda plan, a=a, b=b: plan.cut_link(a, b))]
            if window.end_ms is not None:
                steps.append((window.end_ms,
                              lambda plan, a=a, b=b:
                              plan.heal_link(a, b)))
            return steps

        if isinstance(window, PartitionWindow):
            groups = tuple(tuple(group) for group in window.groups)
            steps = [(window.start_ms,
                      lambda plan, groups=groups:
                      plan.partition(*groups))]
            if window.end_ms is not None:
                nodes = tuple(n for group in groups for n in group)

                def leave(plan, nodes=nodes):
                    for node in nodes:
                        plan.heal_partition(node)
                steps.append((window.end_ms, leave))
            return steps

        if isinstance(window, AsymPartitionWindow):
            srcs = tuple(window.sources)
            dsts = tuple(window.destinations)
            steps = [(window.start_ms,
                      lambda plan, srcs=srcs, dsts=dsts:
                      plan.asym_partition(srcs, dsts))]
            if window.end_ms is not None:
                steps.append((window.end_ms,
                              lambda plan, srcs=srcs, dsts=dsts:
                              plan.heal_asym_partition(srcs, dsts)))
            return steps

        raise TypeError(f"unknown chaos window {window!r}")

    # -- application -----------------------------------------------------------

    def sync(self, now: float, plan: FaultPlan) -> int:
        """Apply every transition with time <= *now* not yet applied."""
        if self._transitions is None:
            self._compile()
        applied = 0
        # A watcher's own verdicts, asked while a transition applies,
        # must not start a sync of their own.
        self._next_at = float("inf")
        try:
            while self._applied < len(self._transitions):
                when, _, action = self._transitions[self._applied]
                if when > now:
                    break
                self._applied += 1
                self.activations += 1
                applied += 1
                plan._applying = when
                action(plan)
        finally:
            plan._applying = None
            if self._applied < len(self._transitions):
                self._next_at = self._transitions[self._applied][0]
        return applied

    def install(self, scheduler, plan: FaultPlan) -> None:
        """Pump the schedule from scheduler events at window boundaries.

        Only needed for purely event-driven runs; the lazy sync in
        :class:`FaultPlan` already covers the request/reply path.  Note
        that draining the scheduler (``world.settle()``) will then run
        the clock forward to the last boundary.
        """
        if self._transitions is None:
            self._compile()
        for when, _, _action in self._transitions:
            scheduler.at(when,
                         lambda when=when: self.sync(when, plan),
                         label=f"chaos@{when}")
