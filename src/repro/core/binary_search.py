"""Binary search stage: slide the merge node to null the delay difference
(Sec. 4.2.3, Fig. 4.5).

After routing, the two "last fixed nodes" v1 and v2 (the topmost inserted
buffers, or the sub-tree roots when no buffer was inserted) bound an
unbuffered span through the tentative meeting point. The merge node M is
parameterized by the ratio ``r`` of its arc position along that span
(``r = 0`` at v1) and moved by bisection until the library-timing delay
difference between the two sides converges — the paper's "top-down timing
analysis" refinement that out-performs closed-form merge-point formulas.

The search itself is a resumable state machine (:class:`MergeSearchState`,
phase ∈ {bracket, bisect, clamp, done}): it *requests* probes and consumes
their results rather than evaluating the library inline. The scalar driver
(:func:`binary_search_merge`) answers each probe immediately; the lockstep
commit scheduler (:mod:`repro.core.batch_commit`) collects one probe per
active merge pair of a topology level and answers them all with a single
vectorized library round per step. Because batched fit evaluation is bit
for bit the scalar evaluation, both drivers walk identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.geom.point import Point
from repro.geom.segment import PathPolyline
from repro.timing.analysis import LibraryTimingEngine, SubtreeBounds
from repro.tree.nodes import NodeKind, TreeNode

#: Bisection steps of the slew-window clamp (matches the seed's fixed 16).
CLAMP_STEPS = 16


@dataclass
class MergePosition:
    """Chosen merge-node position and the resulting wire lengths."""

    ratio: float
    location: Point
    left_length: float  # wire M -> v1
    right_length: float  # wire M -> v2
    delay_difference: float  # estimated at the chosen ratio
    iterations: int


class ProbeRequest(NamedTuple):
    """One library evaluation a search state is waiting on.

    ``kind`` is ``"diff"`` (full split evaluation, answered with the
    ``(difference, left slew, right slew)`` triple) or ``"slews"``
    (answered with the ``(left, right)`` branch-slew pair).
    """

    kind: str
    ratio: float


class MergeSearchState:
    """Resumable bisection over one merge span.

    Call :meth:`requests` for the probes the search needs next, evaluate
    them (scalar or batched), then :meth:`advance` with the results in
    request order; repeat until :attr:`done`. The probe/advance protocol
    reproduces the scalar loop exactly, including the iteration counts
    recorded in :class:`MergePosition` — the post-clamp re-evaluation is
    counted too (the seed forgot it, undercounting exactly the
    slew-clamped merges).

    "diff" probes answer with the ``(difference, left slew, right slew)``
    triple — the branch slews fall out of the split evaluation anyway,
    and keeping them lets the clamp check and the post-clamp
    re-evaluation reuse the already-evaluated values whenever the ratio
    has not moved since (no probe round, same floats, counted as
    iterations all the same). :attr:`last_eval` exposes the values of
    the accepted ratio so the commit's first slew-repair check can reuse
    them too.
    """

    def __init__(
        self,
        total: float,
        max_iters: int = 24,
        tolerance: float = 0.05e-12,
        enabled: bool = True,
        slew_target: float | None = None,
    ):
        self.total = total
        self.max_iters = max_iters
        self.tolerance = tolerance
        self.slew_target = slew_target
        self.iterations = 0
        self.ratio = 0.5
        self.diff: float | None = None
        self.phase = "bracket"
        self._midpoint_only = not enabled or total <= 0
        self._lo = 0.0
        self._hi = 1.0
        self._steps = 0
        self._clamp_side: str | None = None  # "left" | "right"
        self._clamp_lo = 0.0
        self._clamp_hi = 1.0
        self._clamp_steps = 0
        self._final = False  # awaiting the post-clamp diff re-evaluation
        #: (ratio, diff, left slew, right slew) of the last evaluated
        #: "diff" probe; reused when the same ratio is queried again.
        self.last_eval: tuple[float, float, float, float] | None = None

    @property
    def done(self) -> bool:
        return self.phase == "done"

    # ------------------------------------------------------------------

    def requests(self) -> list[ProbeRequest]:
        """The probes to evaluate before the next :meth:`advance`."""
        if self.phase == "bracket":
            if self._midpoint_only:
                return [ProbeRequest("diff", 0.5)]
            return [ProbeRequest("diff", 0.0), ProbeRequest("diff", 1.0)]
        if self.phase == "bisect":
            return [ProbeRequest("diff", (self._lo + self._hi) / 2.0)]
        if self.phase == "clamp":
            if self._final:
                return [ProbeRequest("diff", self.ratio)]
            if self._clamp_side is None:
                return [ProbeRequest("slews", self.ratio)]
            return [
                ProbeRequest("slews", (self._clamp_lo + self._clamp_hi) / 2.0)
            ]
        return []

    def advance(self, results: list) -> None:
        """Consume probe results (aligned with the last :meth:`requests`)."""
        if self.phase == "bracket":
            self._advance_bracket(results)
        elif self.phase == "bisect":
            self._advance_bisect(results[0])
        elif self.phase == "clamp":
            self._advance_clamp(results[0])

    # ------------------------------------------------------------------

    def _advance_bracket(self, results: list) -> None:
        if self._midpoint_only:
            # Search disabled or zero-length span: midpoint, no clamp.
            d, left_slew, right_slew = results[0]
            self.ratio, self.diff = 0.5, d
            self.last_eval = (0.5, d, left_slew, right_slew)
            self.phase = "done"
            return
        (f_lo, ls_lo, rs_lo), (f_hi, ls_hi, rs_hi) = results
        self.iterations = 2
        if f_lo >= 0:
            # Left side slower even with zero left wire: pin at v1.
            self.ratio, self.diff = 0.0, f_lo
            self.last_eval = (0.0, f_lo, ls_lo, rs_lo)
            self._after_search()
        elif f_hi <= 0:
            self.ratio, self.diff = 1.0, f_hi
            self.last_eval = (1.0, f_hi, ls_hi, rs_hi)
            self._after_search()
        elif self.max_iters <= 0:
            self.ratio, self.diff = 0.5, None
            self._after_search()
        else:
            self.phase = "bisect"

    def _advance_bisect(self, result) -> None:
        r = (self._lo + self._hi) / 2.0
        d, left_slew, right_slew = result
        self.iterations += 1
        self._steps += 1
        self.ratio, self.diff = r, d
        self.last_eval = (r, d, left_slew, right_slew)
        if abs(d) < self.tolerance or self._steps >= self.max_iters:
            self._after_search()
            return
        if d < 0:
            self._lo = r
        else:
            self._hi = r

    def _after_search(self) -> None:
        if self.slew_target is None:
            self.phase = "done"
            return
        self.phase = "clamp"
        self._clamp_side = None
        self._final = False
        # The accepted ratio's branch slews (and difference) were just
        # evaluated; consume them without further probe rounds.
        if self.last_eval is not None and self.last_eval[0] == self.ratio:
            __, __, left_slew, right_slew = self.last_eval
            self._clamp_check(left_slew, right_slew)
            self._try_finish_from_last_eval()

    def _clamp_check(self, left_slew: float, right_slew: float) -> None:
        """The clamp's feasibility check at the current ratio."""
        target = self.slew_target
        self.iterations += 1
        if left_slew <= target and right_slew <= target:
            self._final = True
        elif left_slew > target:
            # Find r_max: largest r with left slew within target.
            self._clamp_side = "left"
            self._clamp_lo, self._clamp_hi = 0.0, self.ratio
            self._clamp_steps = 0
        else:
            # Right slew violated: find the smallest feasible r.
            self._clamp_side = "right"
            self._clamp_lo, self._clamp_hi = self.ratio, 1.0
            self._clamp_steps = 0

    def _try_finish_from_last_eval(self) -> None:
        """Skip the post-clamp re-evaluation when the ratio has not moved.

        The re-evaluation at an unchanged ratio would reproduce the
        stored values bit for bit; it still counts as an iteration so
        the accounting matches the probing path.
        """
        if (
            self._final
            and self.last_eval is not None
            and self.last_eval[0] == self.ratio
        ):
            self.diff = self.last_eval[1]
            self.iterations += 1
            self.phase = "done"

    def _advance_clamp(self, result) -> None:
        """One step of the slew-window clamp (Sec. 4.2.3 refinement).

        Left-branch slew grows with r (longer left wire), right-branch
        slew shrinks, so the feasible window is an interval; the balanced
        ratio is clamped into it by bisection on the violated side, then
        the delay difference is re-evaluated at the clamped ratio.
        """
        target = self.slew_target
        if self._final:
            d, left_slew, right_slew = result
            self.diff = d
            self.last_eval = (self.ratio, d, left_slew, right_slew)
            self.iterations += 1
            self.phase = "done"
            return
        left_slew, right_slew = result
        if self._clamp_side is None:
            self._clamp_check(left_slew, right_slew)
            self._try_finish_from_last_eval()
            return
        mid = (self._clamp_lo + self._clamp_hi) / 2.0
        self.iterations += 1
        self._clamp_steps += 1
        if self._clamp_side == "left":
            if left_slew <= target:
                self._clamp_lo = mid
            else:
                self._clamp_hi = mid
            if self._clamp_steps >= CLAMP_STEPS:
                self.ratio = self._clamp_lo
                self._final = True
        else:
            if right_slew <= target:
                self._clamp_hi = mid
            else:
                self._clamp_lo = mid
            if self._clamp_steps >= CLAMP_STEPS:
                self.ratio = self._clamp_hi
                self._final = True

    # ------------------------------------------------------------------

    def position(self, span: PathPolyline) -> MergePosition:
        """The chosen merge position (valid once :attr:`done`)."""
        total = self.total
        return MergePosition(
            ratio=self.ratio,
            location=span.point_at_length(self.ratio * total),
            left_length=self.ratio * total,
            right_length=(1.0 - self.ratio) * total,
            delay_difference=self.diff,
            iterations=self.iterations,
        )


def _side_bounds(
    engine: LibraryTimingEngine, node: TreeNode, input_slew: float
) -> SubtreeBounds:
    if node.kind is NodeKind.BUFFER:
        return engine.buffer_subtree_bounds(node, input_slew)
    return engine.subtree_bounds(node, input_slew)


def _load_cap(engine: LibraryTimingEngine, node: TreeNode) -> float:
    soa = getattr(engine, "_soa", None)
    if soa is not None:
        # Collapsed cap folded from the byte-cached buffer codes —
        # bit-identical to the object walk, and O(depth) instead of
        # O(subtree) on cache misses. None for BUFFER/SINK roots.
        cap = soa.load_cap(engine, node)
        if cap is not None:
            return cap
    return engine._load_cap_of(node)


def evaluate_split(
    engine: LibraryTimingEngine,
    drive: str,
    input_slew: float,
    v1: TreeNode,
    v2: TreeNode,
    left_length: float,
    right_length: float,
    caps: tuple[float, float] | None = None,
) -> tuple[SubtreeBounds, SubtreeBounds, object]:
    """Per-side delay bounds of the would-be merge, via the branch fits.

    Returns (left bounds, right bounds, branch timing); the bounds are
    measured from the merge point M (virtual driver at M, its intrinsic
    delay excluded, consistent with sub-tree delay bookkeeping). ``caps``
    lets bisection callers pass the two (loop-invariant) side load caps.
    """
    if caps is None:
        caps = (_load_cap(engine, v1), _load_cap(engine, v2))
    timing = engine.library.branch_component(
        drive,
        input_slew,
        0.0,
        left_length,
        right_length,
        caps[0],
        caps[1],
    )
    below1 = _side_bounds(engine, v1, timing.left_slew)
    below2 = _side_bounds(engine, v2, timing.right_slew)
    left = SubtreeBounds(
        timing.left_delay + below1.min_delay,
        timing.left_delay + below1.max_delay,
        max(timing.left_slew, below1.worst_slew),
    )
    right = SubtreeBounds(
        timing.right_delay + below2.min_delay,
        timing.right_delay + below2.max_delay,
        max(timing.right_slew, below2.worst_slew),
    )
    return left, right, timing


def evaluate_probe(
    engine: LibraryTimingEngine,
    drive: str,
    input_slew: float,
    kind: str,
    v1: TreeNode | None,
    v2: TreeNode | None,
    left_length: float,
    right_length: float,
    caps: tuple[float, float],
):
    """Answer one probe (``"diff"`` or ``"slews"``) with scalar calls.

    The single scalar implementation both probe drivers share — the
    search loop below and the commit state machine's scalar path
    (:mod:`repro.core.batch_commit`) — so the bit-identity contract with
    the batched evaluators has exactly one scalar counterpart.
    """
    if kind == "diff":
        left, right, timing = evaluate_split(
            engine, drive, input_slew, v1, v2, left_length, right_length, caps=caps
        )
        return (
            left.max_delay - right.max_delay,
            timing.left_slew,
            timing.right_slew,
        )
    # Slew-window clamping needs only the two branch slews; skip the
    # three delay fits and the per-side subtree bounds entirely.
    return engine.library.branch_slews(
        drive, input_slew, 0.0, left_length, right_length, caps[0], caps[1]
    )


def evaluate_search_probe(
    engine: LibraryTimingEngine,
    drive: str,
    input_slew: float,
    v1: TreeNode,
    v2: TreeNode,
    total: float,
    caps: tuple[float, float],
    request: ProbeRequest,
):
    """Answer one :class:`ProbeRequest` with scalar library calls."""
    return evaluate_probe(
        engine,
        drive,
        input_slew,
        request.kind,
        v1,
        v2,
        request.ratio * total,
        (1.0 - request.ratio) * total,
        caps,
    )


def binary_search_merge(
    engine: LibraryTimingEngine,
    drive: str,
    input_slew: float,
    v1: TreeNode,
    v2: TreeNode,
    span: PathPolyline,
    max_iters: int = 24,
    tolerance: float = 0.05e-12,
    enabled: bool = True,
    slew_target: float | None = None,
) -> MergePosition:
    """Find the ratio ``r`` that nulls the side-delay difference.

    ``span`` runs from v1 to v2 through the routed meeting point. The delay
    difference f(r) = left(r) - right(r) is monotonically increasing in r
    (more wire on the left side), so plain bisection applies; when even the
    extremes cannot null the difference the best extreme is returned (the
    balance stage should have prevented this).

    When ``slew_target`` is given, the chosen ratio is clamped into the
    window where both branch slews stay within it (slew has priority over
    residual skew; corrective insertion handles the rare infeasible spans).

    This is the scalar driver of :class:`MergeSearchState`; the batched
    commit scheduler drives the same machine with vectorized probes.
    """
    total = span.length
    caps = (_load_cap(engine, v1), _load_cap(engine, v2))
    state = MergeSearchState(total, max_iters, tolerance, enabled, slew_target)
    while not state.done:
        results = [
            evaluate_search_probe(
                engine, drive, input_slew, v1, v2, total, caps, request
            )
            for request in state.requests()
        ]
        state.advance(results)
    return state.position(span)
