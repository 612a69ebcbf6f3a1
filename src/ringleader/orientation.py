"""Self-stabilizing ring orientation on undirected rings.

Agents carry a fixed two-hop coloring (distance-2 agents never share a
color, so every agent can tell its two neighbors apart) and an orientation
guess: ``dir`` holds the color of the neighbor the agent points at.  Heads
of oppositely-directed runs fight where they meet; the winner absorbs the
loser's head, so directed runs merge until one direction rules the ring.
The ``strong`` flag gives the side that just won momentum.

The coloring itself is supplied by a generator here (the upstream coloring
protocol is out of scope).  Orientation never writes ``color``, and writes
the memories ``c1``/``c2`` only when they are wrong.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import length_hint

import numpy as np

from .core.params import InvalidSizeError, require_count

XI = 5  # colors used by the generator; plenty for any ring size >= 3


@dataclass(slots=True)
class OrientAgentState:
    """One agent: own color, memorized neighbor colors, direction, strength.

    Mutable and compared by value, so not hashable."""

    color: int
    c1: int | None
    c2: int | None
    dir: int
    strong: int

    def copy(self) -> "OrientAgentState":
        return OrientAgentState(self.color, self.c1, self.c2, self.dir, self.strong)


class OrientConfiguration:
    """Undirected ring of orientation agents."""

    __slots__ = ("agents",)

    def __init__(self, agents):
        self.agents = list(agents)
        if len(self.agents) < 3:
            raise InvalidSizeError("orientation needs a ring of at least 3 agents")

    def __len__(self) -> int:
        return len(self.agents)

    def copy(self) -> "OrientConfiguration":
        return OrientConfiguration([a.copy() for a in self.agents])


def generate_two_hop_coloring(n: int, seed: int) -> OrientConfiguration:
    """Greedy seeded two-hop coloring with 5 colors plus adversarial dir/strong.

    Colors and the memorized neighbor colors (c1 = left, c2 = right) satisfy
    the generator's postcondition exactly; ``dir`` points at a uniformly
    random neighbor and ``strong`` is a uniform bit.

    Agent i, in index order, takes a uniform pick among the colors not yet
    used by agents i - 2 and i + 2 (mod n).  Draw order:
    one array call for the picks of agents 0 .. n - 3, whose choice counts
    are fixed (5 for i < 2, else 4, since agent i + 2 is not colored yet);
    one scalar call each for agents n - 2 and n - 1, whose count depends on
    the colors they wrap onto; then one array of 2n bits, read as (dir,
    strong) per agent.  Every bounded draw below 2**32 consumes the same
    32-bit outputs whether it is made alone or in an array, so this is the
    stream of one call per value in that order.  An interior agent's pick p
    among the colors other than c = colors[i - 2], in increasing order, is
    the color ``p + (p >= c)``.
    """
    require_count("n", n, 3)
    require_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.full(n - 2, XI - 1)
    counts[:2] = XI
    picks = rng.integers(0, counts).tolist()
    colors: list[int | None] = picks[:2]
    for p in picks[2:]:
        colors.append(p + (p >= colors[-2]))
    colors += [None, None]  # the two wrap agents, not colored yet
    for i in (n - 2, n - 1):
        banned = (colors[i - 2], colors[(i + 2) % n])
        choices = [c for c in range(XI) if c not in banned]
        colors[i] = choices[rng.integers(0, len(choices))]
    bits = rng.integers(0, 2, size=2 * n).tolist()
    left, right = _neighbor_colors(colors)  # the postcondition: two-hop
    dirs = [r if b else l for l, r, b in zip(left, right, bits[::2])]
    return OrientConfiguration(map(OrientAgentState, colors, left, right, dirs, bits[1::2]))


def oriented_configuration(n: int, seed: int) -> OrientConfiguration:
    """A coloring with every agent already pointing clockwise, at its right
    neighbour."""
    config = generate_two_hop_coloring(n, seed)
    agents = config.agents
    for i, a in enumerate(agents):
        a.dir = agents[(i + 1) % n].color
    return config


def _interact_or_inplace(u: OrientAgentState, v: OrientAgentState) -> None:
    for a, seen in ((u, v.color), (v, u.color)):  # observation, see interact_or
        if seen != a.c1 and seen != a.c2:
            a.c1, a.c2 = seen, a.c1
        if a.dir != a.c1 and a.dir != a.c2:
            a.dir = seen
    if u.dir == v.color:
        if v.dir == u.color:
            # two heads point at each other; the loser is redirected and
            # marked strong, carrying the winning front forward
            if u.strong == 0 and v.strong == 1:
                u.dir = u.c1 if u.c1 != v.color else u.c2
                u.strong = 1
                v.strong = 0
            else:
                v.dir = v.c1 if v.c1 != u.color else v.c2
                u.strong = 0
                v.strong = 1
        else:
            u.strong = 0  # one-sided pointing demotes a stray strong flag
    elif v.dir == u.color:
        v.strong = 0


def interact_or(
    u: OrientAgentState, v: OrientAgentState
) -> tuple[OrientAgentState, OrientAgentState]:
    """Transition for one interaction, initiator ``u``; pure.

    Both sides first observe the partner: a color not in ``{c1, c2}`` is
    shifted in (``c1, c2 = color, c1``), and a ``dir`` naming neither
    remembered color turns to the partner.  Correct memories are never
    written, so legal agents run the bare orientation rules.
    """
    u2, v2 = u.copy(), v.copy()
    _interact_or_inplace(u2, v2)
    return u2, v2


def _sides_and_legality(agents, left: list[int], right: list[int]) -> tuple[list[int], list[bool]]:
    """Per agent, with ``left``/``right`` its neighbors' colors: its side,
    +1 if ``dir`` names the right neighbor's color, -1 the left's, 0 neither;
    and whether it is legal: it remembers exactly its neighbors' colors and
    points at one.  The one statement of both rules, for the predicates,
    the reference step and the fast path's set-up."""
    sides, legal = [], []
    for a, l, r in zip(agents, left, right):
        d, c1, c2 = a.dir, a.c1, a.c2
        side = 1 if d == r else (-1 if d == l else 0)
        sides.append(side)
        legal.append(side != 0 and (c1 == l and c2 == r or c1 == r and c2 == l))
    return sides, legal


def _around(values: list) -> tuple[list, list]:
    """Per agent i, the entries of agents i - 1 and i + 1 in ``values``."""
    return values[-1:] + values[:-1], values[1:] + values[:1]


def _neighbor_colors(colors: list[int]) -> tuple[list[int], list[int]]:
    """``_around(colors)``, checked two-hop.  Raises ValueError naming the
    agents that see one color on both sides: they cannot tell their
    neighbors apart."""
    left, right = _around(colors)
    if blind := [i for i in range(len(colors)) if left[i] == right[i]]:
        raise ValueError(f"not a two-hop coloring: agents {blind} see one color on both sides")
    return left, right


def _boundaries(sides: list[int], edges) -> int:
    """Edges e in ``edges`` whose agents e and e + 1 differ in side, or
    both point at neither neighbor: a stray ``dir`` is a boundary each side."""
    n = len(sides)
    return sum(sides[e] != sides[(e + 1) % n] or not sides[e] for e in edges)


def is_oriented(config: OrientConfiguration) -> bool:
    """True iff every agent is legal and all point the same way
    (``_sides_and_legality``).  ValueError as in ``_neighbor_colors``."""
    agents = config.agents
    sides, legal = _sides_and_legality(agents, *_neighbor_colors([a.color for a in agents]))
    return all(legal) and len(set(sides)) == 1


def segment_count(config: OrientConfiguration) -> int:
    """Number of ``_boundaries``; 1 exactly when all agents point one way.
    ValueError as in ``_neighbor_colors``."""
    agents = config.agents
    sides = _sides_and_legality(agents, *_neighbor_colors([a.color for a in agents]))[0]
    return max(_boundaries(sides, range(len(sides))), 1)


@dataclass
class OrientationTrial:
    """Outcome of one instrumented orientation run."""

    seed: int
    n: int
    steps_to_oriented: int | None
    converged: bool
    monotone_violations: int
    post_dir_changes: int
    final_segment_count: int


_FIGHT = -1  # ``act`` entry of an edge whose two agents point at each other


class _ArcRing:
    """Flat state and a per-edge action table for the part of a
    ``run_orientation`` call in which every agent is legal
    (``_sides_and_legality``).

    Edge ``e`` joins agents e and e + 1 (mod n); of the 2n ordered arcs,
    arc ``2e`` has initiator e and arc ``2e + 1`` initiator e + 1.  Both
    arcs of an edge do the same thing unless its agents fight, so
    ``act[e]`` is what edge ``e`` does now: ``_FIGHT``, or the agent whose
    ``strong`` it clears (n, the scratch slot at the end of ``strong``, if
    neither points at the other).

    Legal agents stay legal: the transition writes no correct memory, and a
    head fight turns the loser to its other neighbor.  So a legal agent's
    side, which ``sides`` holds (+1 or -1), fixes its ``dir``, and a
    draw needs no memory or color.  An edge is one of the ``_boundaries``
    exactly when its agents' sides differ, that is when its ``act`` is
    ``_FIGHT`` or n, so ``boundaries`` is counted from ``act``.
    """

    __slots__ = ("n", "strong", "act", "sides", "boundaries")

    def __init__(self, sides: list[int], strong: list[int]):
        n = self.n = len(sides)
        self.sides = sides
        self.strong = strong + [0]
        # agent x points at x + 1 iff sx is +1, x + 1 points at x iff sy is -1
        act = self.act = [
            (_FIGHT if sy == -1 else x) if sx == 1 else ((x + 1) % n if sy == -1 else n)
            for x, sx, sy in zip(range(n), sides, _around(sides)[1])
        ]
        self.boundaries = act.count(_FIGHT) + act.count(n)

    def drive(self, chunk: np.ndarray) -> int | None:
        """Apply the arcs of ``chunk``, a ``_draw_chunks`` array or a tail
        of one, in order, keeping ``sides``, ``act`` and ``boundaries`` up
        to date.

        The loop reads each arc's edge, arc // 2, as a Python int: edges
        run below n, and CPython caches the ints up to 256, so up to
        n = 257 the conversion allocates none.  The head fight is inline:
        the arc, read back with ``chunk.item`` only there, names the
        initiator, which wins unless it is weak and the responder strong;
        the loser turns to the winner's side and becomes strong, and the
        winner weak.  So the fought edge stops being a boundary, and the
        loser's other edge becomes one (a new fight) unless its neighbor
        already points the new way, in which case the count falls by two.
        A fight between legal agents never raises the count, so the fast
        path finds no monotonicity violation.  Stop at the draw that leaves
        the ring oriented and return its 1-based position in ``chunk``;
        return None when no draw does so.
        """
        n, act, strong, sides = self.n, self.act, self.strong, self.sides
        edges = (chunk >> 1).tolist()
        rest = iter(edges)
        for e in rest:
            a = act[e]
            if a >= 0:
                strong[a] = 0
                continue
            # a list iterator's length hint is the exact number left
            pos = len(edges) - length_hint(rest)
            y = (e + 1) % n  # e points at y (side +1), y at e (side -1)
            u, v = (y, e) if chunk.item(pos - 1) & 1 else (e, y)
            if strong[u] == 0 and strong[v] == 1:
                u, v = v, u
            strong[u], strong[v] = 0, 1  # u won, v lost
            if v == e:
                # e turns to -1; edge e - 1 (index -1 is edge n - 1) fights
                # unless agent e - 1 also points at -1
                sides[e] = -1
                act[e] = y
                if sides[e - 1] == 1:
                    act[e - 1] = _FIGHT
                    continue
                act[e - 1] = e
            else:
                # y turns to +1; edge y fights unless agent y + 1 points at +1
                sides[y] = 1
                act[e] = e
                if sides[(y + 1) % n] == -1:
                    act[y] = _FIGHT
                    continue
                act[y] = y
            self.boundaries -= 2
            if self.boundaries == 0:
                return pos
        return None


class _ReferenceRing:
    """The reference's working ring: ``agents`` and, per agent, its
    side and legality (``_sides_and_legality``), with the count of illegal
    agents, the ``_boundaries`` count and the monotonicity violations and
    ``dir`` changes so far, all kept up to date by ``step``."""

    __slots__ = (
        "agents", "left", "right", "sides", "legal",
        "illegal", "boundaries", "violations", "dir_changes",
    )

    def __init__(
        self, agents, left: list[int], right: list[int], sides: list[int], legal: list[bool]
    ):
        self.agents, self.left, self.right = agents, left, right
        self.sides, self.legal = sides, legal
        self.illegal = legal.count(False)
        self.boundaries = _boundaries(sides, range(len(sides)))
        self.violations = self.dir_changes = 0

    def step(self, t: int) -> None:
        """Apply arc ``t`` with one ``_interact_or_inplace`` call.  Arc t
        joins agents i = t // 2 and i + 1, with i as the initiator for even
        t and as the responder for odd t.  The two agents' side and
        legality and the ``_boundaries`` of the three edges around them
        are recomputed; a step between legal agents that raises that count
        is a monotonicity violation."""
        agents, sides, legal = self.agents, self.sides, self.legal
        left, right = self.left, self.right
        n = len(agents)
        i, j = t >> 1, ((t >> 1) + 1) % n
        edges = ((i - 1) % n, i, j)
        before, was_legal = _boundaries(sides, edges), legal[i] and legal[j]
        dirs = agents[i].dir, agents[j].dir
        _interact_or_inplace(*((agents[j], agents[i]) if t & 1 else (agents[i], agents[j])))
        pair = (agents[i], agents[j]), (left[i], left[j]), (right[i], right[j])
        for k, d, side, now in zip((i, j), dirs, *_sides_and_legality(*pair)):
            self.dir_changes += agents[k].dir != d
            sides[k] = side
            self.illegal += legal[k] - now
            legal[k] = now
        after = _boundaries(sides, edges)
        self.violations += was_legal and after > before
        self.boundaries += after - before

    def walk(self, draws, oriented: bool) -> int | None:
        """``step`` through ``draws`` in order.  Stop at the first draw
        that leaves every agent legal and, if ``oriented``, the ring
        oriented, and return its 1-based position; None if none does."""
        for pos, t in enumerate(draws, 1):
            self.step(t)
            if not self.illegal and not (oriented and self.boundaries):
                return pos
        return None


def _draw_chunks(rng: np.random.Generator, n: int, budget: int):
    """Up to ``budget`` uniform draws of the 2n arcs, as int64 arrays of at
    most 4096: the stream both orientation runs read, so their trials
    agree."""
    for done in range(0, budget, 4096):
        yield rng.integers(0, 2 * n, size=min(4096, budget - done))


def run_orientation(
    config: OrientConfiguration,
    seed: int,
    max_steps: int,
    post_steps: int = 0,
) -> OrientationTrial:
    """Drive one ring until oriented (or cutoff), checking every step.

    The coloring must be two-hop: no agent's two neighbors share a color.
    Any memories and directions are accepted, ``None`` memories included;
    the transition repairs them.  The ring is oriented at the first step
    after which ``is_oriented`` holds.  The scheduler draws uniformly among
    the 2n ordered arcs (``_draw_chunks``).  The segment count is kept
    incrementally; a head fight between legal agents that raises it is a
    monotonicity violation.  The input configuration is not mutated.
    Raises InvalidSizeError for a ``seed``, ``max_steps`` or ``post_steps``
    that is not an int >= 0, and ValueError, naming the agents, for a
    coloring that is not two-hop; both before any draw.

    One pass reads every agent's side and legality.  While some agent is
    not legal (a wrong or ``None`` memory, a stray ``dir``), each draw
    is the reference's ``_ReferenceRing.step``, as in
    ``run_orientation_reference``.  Legality is absorbing, so from the draw
    that makes the last agent legal (at once, on a ring that
    ``generate_two_hop_coloring`` or ``oriented_configuration`` built) the
    rest of the same draw stream goes to the fast path, ``_ArcRing``: it
    keeps no memories or directions, only each agent's side and ``strong``
    flag, a draw is one lookup by its edge and a demotion one store, and
    only a head fight, the one event that changes a legal agent's ``dir``,
    runs the fight rule.  Each agent's ``dir`` is written back from its
    side at the end.  The tests hold the trial and the final ring equal to
    the reference's.
    The ``post_steps`` stretch after orientation is worked out, not drawn:
    on an oriented two-hop ring no arc is a head fight (neighbors x and
    x + 1 point at each other only if agents x and x + 2 share a color), so
    no post step changes a ``dir``.  ``post_dir_changes`` is 0, and
    ``monotone_violations`` and ``final_segment_count`` are what they were
    at orientation.  The reference draws every post step.
    """
    require_count("seed", seed, 0)
    require_count("max_steps", max_steps, 0)
    require_count("post_steps", post_steps, 0)
    work = config.copy()
    agents = work.agents
    left, right = _neighbor_colors([a.color for a in agents])
    sides, legal = _sides_and_legality(agents, left, right)
    chunks = _draw_chunks(np.random.Generator(np.random.PCG64(seed)), len(agents), max_steps)
    step_no = violations = 0
    if not all(legal):
        prefix = _ReferenceRing(agents, left, right, sides, legal)
        for chunk in chunks:
            pos = prefix.walk(chunk.tolist(), oriented=False)
            if pos is not None:
                break
            step_no += len(chunk)
        else:
            return _trial(work, seed, None, prefix.violations, 0)
        step_no += pos
        chunks = chain([chunk[pos:]], chunks)
        violations = prefix.violations
    ring = _ArcRing(sides, [a.strong for a in agents])
    steps_to_oriented = step_no if ring.boundaries == 0 else None

    while steps_to_oriented is None and (chunk := next(chunks, None)) is not None:
        pos = ring.drive(chunk)
        if pos is not None:
            steps_to_oriented = step_no + pos
        step_no += len(chunk)

    for a, side, s, l, r in zip(agents, ring.sides, ring.strong, left, right):
        a.dir, a.strong = (r if side == 1 else l), s
    return _trial(work, seed, steps_to_oriented, violations, 0)


def run_orientation_reference(
    config: OrientConfiguration, seed: int, max_steps: int, post_steps: int = 0
) -> OrientationTrial:
    """``run_orientation`` with one ``_interact_or_inplace`` call per draw.

    The one reference orientation run: the same arguments, input checks,
    draws up to orientation and result, with every draw a
    ``_ReferenceRing.step``, whose bookkeeping shares nothing with
    ``_ArcRing``.  ``run_orientation`` runs the same step while some agent
    is not legal, and hands the rest of the draws to ``_ArcRing``; this
    run steps every draw.  A step between legal agents that raises the
    ``_boundaries`` count is a monotonicity violation, before orientation
    or after it.  Every one of the ``post_steps`` draws is applied (the
    fast path draws none), and ``post_dir_changes`` counts each ``dir``
    they change.  The POR closure suite runs this.
    """
    require_count("seed", seed, 0)
    require_count("max_steps", max_steps, 0)
    require_count("post_steps", post_steps, 0)
    work = config.copy()
    agents = work.agents
    left, right = _neighbor_colors([a.color for a in agents])
    ring = _ReferenceRing(agents, left, right, *_sides_and_legality(agents, left, right))
    rng = np.random.Generator(np.random.PCG64(seed))

    def draws(budget: int):
        return chain.from_iterable(c.tolist() for c in _draw_chunks(rng, len(agents), budget))

    steps_to_oriented = 0
    if ring.illegal or ring.boundaries:
        steps_to_oriented = ring.walk(draws(max_steps), oriented=True)
    ring.dir_changes = 0  # only the post-orientation steps count
    if steps_to_oriented is not None:
        for t in draws(post_steps):
            ring.step(t)
    return _trial(work, seed, steps_to_oriented, ring.violations, ring.dir_changes)


def _trial(
    work: OrientConfiguration, seed: int, steps: int | None, violations: int, dir_changes: int
) -> OrientationTrial:
    """The one ending of both orientation runs: recount ``work``'s
    segments, and count one more violation when a converged ring does not
    recount to one segment (the run's own count disagreed)."""
    final_count = segment_count(work)
    converged = steps is not None
    if converged and final_count != 1:
        violations += 1
    return OrientationTrial(
        seed, len(work), steps, converged, violations, dir_changes, final_count
    )
