"""Iterative-improvement core-version selection (paper Section 5.2).

The optimizer starts from the minimum-area selection (version 1 of every
core) and repeatedly replaces one core with its next more expensive
version, scored by ``C = w1 * dTAT + w2 * dA``:

* objective (i), minimize TAT under an area budget: w1=1, w2=0 -- take
  the replacement with the largest test-time improvement;
* objective (ii), minimize area under a TAT budget: w1=0, w2=1 -- take
  the *cheapest* replacement that still has a non-zero improvement.

dTAT is the paper's latency-number heuristic: count how often each
transparency path is used in the current test solution, multiply by its
latency, and compare against the same counts with the candidate version's
latencies.  When upgrading versions stops paying (or no versions remain),
the optimizer escalates to *system-level test multiplexers* on the most
critical port of the core dominating the global TAT -- in the limit the
solution degenerates into a test-bus-like architecture with the minimum
possible test time, exactly as the paper notes.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import InfeasibleConstraintError
from repro.obs import METRICS, profile_section
from repro.obs.attrib import ATTRIB
from repro.soc.plan import SocTestPlan, plan_soc_test
from repro.soc.system import Soc
from repro.transparency.versions import CoreVersion

logger = logging.getLogger("repro.soc.optimizer")

_ACCEPTED = METRICS.counter("optimizer.moves.accepted")
_REJECTED = METRICS.counter("optimizer.moves.rejected")
_ESCALATIONS = METRICS.counter("optimizer.mux.escalations")


@dataclass
class DesignPoint:
    """One evaluated (selection, plan) pair of the design space."""

    index: int
    selection: Dict[str, int]
    tat: int
    chip_cells: int
    plan: SocTestPlan = field(repr=False, default=None)  # type: ignore[assignment]

    def label(self) -> str:
        parts = [f"{core}=V{v + 1}" for core, v in sorted(self.selection.items())]
        return ", ".join(parts)


def design_space(
    soc: Soc,
    forced_muxes: Optional[Set[Tuple[str, str]]] = None,
    use_cache: bool = True,
) -> List[DesignPoint]:
    """Evaluate every combination of core versions (Figure 10's points).

    Points are sorted by chip-level DFT cells (ascending), so point 1 is
    the minimum-area design and the last point uses the minimum-latency
    version of every core.
    """
    with profile_section("chiplevel.design_space"):
        cores = soc.testable_cores()
        points: List[DesignPoint] = []
        for combo in itertools.product(*(range(core.version_count) for core in cores)):
            selection = {core.name: index for core, index in zip(cores, combo)}
            plan = plan_soc_test(
                soc, selection, forced_muxes=forced_muxes, use_cache=use_cache
            )
            points.append(
                DesignPoint(
                    index=0,
                    selection=selection,
                    tat=plan.total_tat,
                    chip_cells=plan.chip_dft_cells,
                    plan=plan,
                )
            )
        points.sort(key=lambda p: (p.chip_cells, p.tat))
        for i, point in enumerate(points):
            point.index = i + 1
        return points


class SocetOptimizer:
    """Greedy iterative improvement over core versions and test muxes.

    With ``use_schedule=True`` the optimizer scores plans by the
    concurrent-session makespan (:attr:`SocTestPlan.scheduled_tat`)
    instead of the paper's serial sum; the default keeps the serial
    objective so the paper's tables reproduce unchanged.  An optional
    ``power_budget`` caps concurrent scan activity during scheduling.
    """

    def __init__(
        self,
        soc: Soc,
        use_schedule: bool = False,
        power_budget: Optional[int] = None,
    ) -> None:
        self.soc = soc
        self.use_schedule = use_schedule
        self.power_budget = power_budget

    def _tat(self, plan: SocTestPlan) -> int:
        """The objective TAT: serial sum or scheduled makespan."""
        if self.use_schedule:
            return plan.schedule(power_budget=self.power_budget).makespan
        return plan.total_tat

    def _record_move(
        self,
        move: Optional[Tuple[str, str, int, int]],
        before_plan: SocTestPlan,
        after_plan: Optional[SocTestPlan],
        outcome: str,
        forced: Set[Tuple[str, str]],
    ) -> None:
        """Log one candidate move to the attribution trajectory.

        Objective values are the side-effect-free serial TAT
        (``total_tat``) even under ``use_schedule``, so recording never
        perturbs scheduler counters; ``after_plan`` is ``None`` for
        candidates rejected before a plan was evaluated.
        """
        if not ATTRIB.enabled or move is None:
            return
        kind, subject, version_from, version_to = move
        point = None
        if after_plan is not None:
            point = (
                tuple(sorted(after_plan.selection.items())),
                tuple(sorted(forced)),
            )
        ATTRIB.move_event(
            kind=kind,
            subject=subject,
            version_from=version_from,
            version_to=version_to,
            tat_before=before_plan.total_tat,
            tat_after=None if after_plan is None else after_plan.total_tat,
            outcome=outcome,
            point=point,
        )

    # ------------------------------------------------------------------
    # the paper's latency-number heuristic
    # ------------------------------------------------------------------
    def latency_number(self, plan: SocTestPlan, core_name: str, version: CoreVersion) -> int:
        """Sum over the core's used paths of (use count x latency)."""
        total = 0
        for (used_core, kind, key), count in plan.usage_counts().items():
            if used_core != core_name:
                continue
            latency = _path_latency(version, kind, key)
            if latency is not None:
                total += count * latency
        return total

    def replacement_gain(
        self, plan: SocTestPlan, core_name: str
    ) -> Optional[Tuple[int, int]]:
        """(dTAT, dA) for replacing the core with its next version."""
        core = self.soc.cores[core_name]
        current_index = plan.selection.get(core_name, 0)
        if current_index + 1 >= core.version_count:
            return None
        current = core.version(current_index)
        candidate = core.version(current_index + 1)
        delta_tat = self.latency_number(plan, core_name, current) - self.latency_number(
            plan, core_name, candidate
        )
        delta_area = candidate.extra_cells - current.extra_cells
        return delta_tat, delta_area

    # ------------------------------------------------------------------
    # escalation: a system-level test mux on the most critical port
    # ------------------------------------------------------------------
    def most_critical_port(self, plan: SocTestPlan) -> Optional[Tuple[str, str]]:
        """The slowest delivery/observation of the slowest core."""
        slowest = max(plan.core_plans.values(), key=lambda p: p.tat, default=None)
        if slowest is None:
            return None
        best: Optional[Tuple[int, str, str]] = None
        for delivery in slowest.deliveries:
            if delivery.via_test_mux:
                continue
            if best is None or delivery.latency > best[0]:
                best = (delivery.latency, slowest.core, delivery.port)
        for observation in slowest.observations:
            if observation.via_test_mux:
                continue
            if best is None or observation.latency > best[0]:
                best = (observation.latency, slowest.core, observation.port)
        if best is None or best[0] == 0:
            return None
        return (best[1], best[2])

    # ------------------------------------------------------------------
    # objective (i): minimize TAT subject to an area budget
    # ------------------------------------------------------------------
    def minimize_tat(self, max_chip_cells: int) -> Tuple[SocTestPlan, List[DesignPoint]]:
        with profile_section("optimizer.minimize_tat"):
            return self._minimize_tat(max_chip_cells)

    def _minimize_tat(self, max_chip_cells: int) -> Tuple[SocTestPlan, List[DesignPoint]]:
        selection = {core.name: 0 for core in self.soc.testable_cores()}
        forced: Set[Tuple[str, str]] = set()
        plan = plan_soc_test(self.soc, selection, forced_muxes=forced)
        if plan.chip_dft_cells > max_chip_cells:
            raise InfeasibleConstraintError(
                f"minimum-area design needs {plan.chip_dft_cells} cells > budget {max_chip_cells}"
            )
        trajectory = [self._point(0, plan)]
        step = 1
        while True:
            best_core, best_gain = None, 0
            for core in self.soc.testable_cores():
                gain = self.replacement_gain(plan, core.name)
                if gain is None:
                    continue
                delta_tat, _ = gain
                if delta_tat > best_gain:
                    best_core, best_gain = core.name, delta_tat
            candidate_plan = None
            move: Optional[Tuple[str, str, int, int]] = None
            if best_core is not None:
                new_selection = dict(plan.selection)
                new_selection[best_core] += 1
                move = (
                    "upgrade", best_core,
                    plan.selection[best_core] + 1, new_selection[best_core] + 1,
                )
                candidate_plan = plan_soc_test(self.soc, new_selection, forced_muxes=forced)
                if candidate_plan.chip_dft_cells > max_chip_cells:
                    _REJECTED.inc()
                    self._record_move(
                        move, plan, candidate_plan, "reject-budget", forced
                    )
                    logger.debug(
                        "reject upgrade %s: %d cells over budget %d",
                        best_core, candidate_plan.chip_dft_cells, max_chip_cells,
                    )
                    candidate_plan = None
            if candidate_plan is None:
                # escalate: test mux on the most critical port
                critical = self.most_critical_port(plan)
                if critical is None:
                    break
                new_forced = forced | {critical}
                version = plan.selection.get(critical[0], 0) + 1
                move = ("mux", f"{critical[0]}.{critical[1]}", version, version)
                mux_plan = plan_soc_test(self.soc, plan.selection, forced_muxes=new_forced)
                if (
                    mux_plan.chip_dft_cells > max_chip_cells
                    or self._tat(mux_plan) >= self._tat(plan)
                ):
                    _REJECTED.inc()
                    self._record_move(
                        move, plan, mux_plan,
                        "reject-budget"
                        if mux_plan.chip_dft_cells > max_chip_cells
                        else "reject-no-gain",
                        new_forced,
                    )
                    break
                forced = new_forced
                candidate_plan = mux_plan
                _ESCALATIONS.inc()
                logger.info("escalate: test mux on %s.%s", *critical)
            if self._tat(candidate_plan) >= self._tat(plan) and candidate_plan.selection == plan.selection:
                _REJECTED.inc()
                self._record_move(move, plan, candidate_plan, "reject-no-gain", forced)
                break
            previous = plan
            plan = candidate_plan
            _ACCEPTED.inc()
            self._record_move(move, previous, candidate_plan, "accept", forced)
            logger.debug(
                "accept move %d: TAT %d, %d cells",
                step, self._tat(plan), plan.chip_dft_cells,
            )
            trajectory.append(self._point(step, plan))
            step += 1
        return plan, trajectory

    # ------------------------------------------------------------------
    # objective (ii): minimize area subject to a TAT budget
    # ------------------------------------------------------------------
    def minimize_area(self, max_tat_cycles: int) -> Tuple[SocTestPlan, List[DesignPoint]]:
        with profile_section("optimizer.minimize_area"):
            return self._minimize_area(max_tat_cycles)

    def _minimize_area(self, max_tat_cycles: int) -> Tuple[SocTestPlan, List[DesignPoint]]:
        selection = {core.name: 0 for core in self.soc.testable_cores()}
        forced: Set[Tuple[str, str]] = set()
        plan = plan_soc_test(self.soc, selection, forced_muxes=forced)
        trajectory = [self._point(0, plan)]
        step = 1
        while self._tat(plan) > max_tat_cycles:
            best: Optional[Tuple[int, str]] = None  # (delta_area, core)
            for core in self.soc.testable_cores():
                gain = self.replacement_gain(plan, core.name)
                if gain is None:
                    continue
                delta_tat, delta_area = gain
                if delta_tat <= 0:
                    _REJECTED.inc()
                    version = plan.selection.get(core.name, 0) + 1
                    self._record_move(
                        ("upgrade", core.name, version, version + 1),
                        plan, None, "reject-no-gain", forced,
                    )
                    continue
                if best is None or delta_area < best[0]:
                    best = (delta_area, core.name)
            if best is not None:
                new_selection = dict(plan.selection)
                new_selection[best[1]] += 1
                previous = plan
                plan = plan_soc_test(self.soc, new_selection, forced_muxes=forced)
                _ACCEPTED.inc()
                self._record_move(
                    ("upgrade", best[1],
                     previous.selection[best[1]] + 1, new_selection[best[1]] + 1),
                    previous, plan, "accept", forced,
                )
                logger.debug(
                    "accept move %d: upgrade %s, TAT %d", step, best[1], self._tat(plan)
                )
            else:
                critical = self.most_critical_port(plan)
                if critical is None:
                    raise InfeasibleConstraintError(
                        f"TAT budget {max_tat_cycles} unreachable; floor is {self._tat(plan)}"
                    )
                forced = forced | {critical}
                previous = plan
                plan = plan_soc_test(self.soc, plan.selection, forced_muxes=forced)
                _ESCALATIONS.inc()
                version = previous.selection.get(critical[0], 0) + 1
                self._record_move(
                    ("mux", f"{critical[0]}.{critical[1]}", version, version),
                    previous, plan, "accept", forced,
                )
                logger.info("escalate: test mux on %s.%s", *critical)
            trajectory.append(self._point(step, plan))
            step += 1
        return plan, trajectory

    # ------------------------------------------------------------------
    def _point(self, index: int, plan: SocTestPlan) -> DesignPoint:
        return DesignPoint(
            index=index,
            selection=dict(plan.selection),
            tat=self._tat(plan),
            chip_cells=plan.chip_dft_cells,
            plan=plan,
        )


def _path_latency(version: CoreVersion, kind: str, key) -> Optional[int]:
    if kind == "justify":
        path = version.justify_paths.get(tuple(key))
        if path is not None:
            return path.latency
        # slice partition changed across versions: combine overlapping slices
        port, lo, width = key
        overlapping = [
            k for k in version.justify_paths if k[0] == port and k[1] < lo + width and lo < k[1] + k[2]
        ]
        if not overlapping:
            return None
        return version.combined_justify_latency(overlapping)
    path = version.propagate_paths.get(key)
    return None if path is None else path.latency
