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


def _side(d: int | None, left: int, right: int) -> int:
    """+1 if ``d`` names the right neighbor's color, -1 the left's, 0 neither."""
    return 1 if d == right else (-1 if d == left else 0)


def _legal(a: OrientAgentState, left: int, right: int) -> bool:
    """True iff ``a`` remembers exactly its neighbors' colors and points at one."""
    c1, c2 = a.c1, a.c2
    return (c1 == left and c2 == right or c1 == right and c2 == left) and a.dir in (left, right)


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
    """Edges e in ``edges`` whose agents e and e + 1 differ in ``_side``, or
    both point at neither neighbor: a stray ``dir`` is a boundary each side."""
    n = len(sides)
    return sum(sides[e] != sides[(e + 1) % n] or not sides[e] for e in edges)


def _directions(config: OrientConfiguration) -> list[int]:
    """``_side`` of every agent: +1 right, -1 left, 0 at neither neighbor."""
    agents = config.agents
    return list(map(_side, [a.dir for a in agents], *_around([a.color for a in agents])))


def is_oriented(config: OrientConfiguration) -> bool:
    """True iff every agent is ``_legal`` and all point the same way."""
    agents = config.agents
    legal = map(_legal, agents, *_around([a.color for a in agents]))
    return all(legal) and len(set(_directions(config))) == 1


def segment_count(config: OrientConfiguration) -> int:
    """Number of ``_boundaries``; 1 exactly when all agents point one way."""
    dirs = _directions(config)
    return max(_boundaries(dirs, range(len(dirs))), 1)


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
    """Flat state and a per-edge action table for one ``run_orientation``
    call on a ring whose agents are all ``_legal``.

    Edge ``e`` joins agents e and e + 1 (mod n); of the 2n ordered arcs,
    arc ``2e`` has initiator e and arc ``2e + 1`` initiator e + 1.  Both
    arcs of an edge do the same thing unless its agents fight, so
    ``act[e]`` is what edge ``e`` does now: ``_FIGHT``, or the agent whose
    ``strong`` it clears (n, the scratch slot at the end of ``strong``, if
    neither points at the other).

    Legal agents stay legal: the transition writes no correct memory, and a
    head fight turns the loser to its other neighbor.  So a legal agent's
    ``_side``, which ``sides`` holds (+1 or -1), fixes its ``dir``, and a
    draw needs no memory or color.  Only ``_fight`` needs the arc, to know
    which agent initiated.  ``boundaries`` counts the ``_boundaries`` of
    ``sides`` and ``violations`` the head fights that raised it.
    """

    __slots__ = ("n", "strong", "act", "sides", "boundaries", "violations")

    def __init__(self, sides: list[int], strong: list[int]):
        n = self.n = len(sides)
        self.sides = sides
        self.strong = strong + [0]
        self.act = list(map(self._act, range(n), sides, _around(sides)[1]))
        self.boundaries = _boundaries(sides, range(n))
        self.violations = 0

    def _act(self, x: int, sx: int, sy: int) -> int:
        """``act`` entry of edge x, whose agents x and x + 1 have sides
        ``sx`` and ``sy``: x points at x + 1 iff sx is +1, x + 1 at x iff
        sy is -1."""
        if sx == 1:
            return _FIGHT if sy == -1 else x
        return (x + 1) % self.n if sy == -1 else self.n

    def _fight(self, e: int, arc: int) -> bool:
        """Head fight on edge ``e``, drawn as ``arc``: turn the loser and
        flip its side.  Return True once the ring is oriented."""
        n, strong, sides, act = self.n, self.strong, self.sides, self.act
        y = (e + 1) % n
        u, v = (y, e) if arc & 1 else (e, y)
        if strong[u] == 0 and strong[v] == 1:
            k = u
            strong[u], strong[v] = 1, 0
        else:
            k = v
            strong[u], strong[v] = 0, 1
        # the loser turns away from the winner, to its other neighbor
        x, z = (k - 1) % n, (k + 1) % n
        left, right = sides[x], sides[z]
        before = (left != sides[k]) + (sides[k] != right)
        sides[k] = -sides[k]
        after = (left != sides[k]) + (sides[k] != right)
        act[x] = self._act(x, left, sides[k])
        act[k] = self._act(k, sides[k], right)
        if after > before:
            self.violations += 1
        self.boundaries += after - before
        return self.boundaries == 0

    def drive(self, chunk: np.ndarray) -> int | None:
        """Apply the arcs of ``chunk``, one ``_draw_chunks`` array, in
        order, keeping ``sides``, ``boundaries`` and ``violations`` up to
        date.

        The loop reads each arc's edge, arc // 2, as a Python int: edges
        run below n, and CPython caches the ints up to 256, so up to
        n = 257 the conversion allocates none.  The arc itself is read back
        from ``chunk`` only at a head fight.  Stop at the draw that leaves
        the ring oriented and return its 1-based position in ``chunk``;
        return None when no draw does so.
        """
        act, strong = self.act, self.strong
        edges = (chunk >> 1).tolist()
        rest = iter(edges)
        for e in rest:
            a = act[e]
            if a >= 0:
                strong[a] = 0
            else:
                # a list iterator's length hint is the exact number left
                pos = len(edges) - length_hint(rest)
                if self._fight(e, int(chunk[pos - 1])):
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

    This is the fast path for rings whose agents are all ``_legal``, as
    ``generate_two_hop_coloring`` and ``oriented_configuration`` build
    them; any other ring is handed to ``run_orientation_reference`` with
    the same arguments, and its trial is returned.  The tests hold the two
    runs equal.  A legal ring stays legal, so the fast path keeps no
    memories or directions, only each agent's side: ``_ArcRing`` holds flat
    lists and a per-edge action table, a draw is one lookup by its edge and
    a demotion one store, and only a head fight, the one event that changes
    a legal agent's ``dir``, runs the fight rule.  Each agent's ``dir`` is
    written back from its side at the end.
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
    left, right = _neighbor_colors([a.color for a in config.agents])
    if not all(map(_legal, config.agents, left, right)):
        return run_orientation_reference(config, seed, max_steps, post_steps)
    work = config.copy()
    n = len(work)
    agents = work.agents
    ring = _ArcRing(
        list(map(_side, [a.dir for a in agents], left, right)), [a.strong for a in agents]
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    steps_to_oriented = 0 if ring.boundaries == 0 else None

    step_no = 0
    chunks = _draw_chunks(rng, n, max_steps)
    while steps_to_oriented is None and (chunk := next(chunks, None)) is not None:
        pos = ring.drive(chunk)
        if pos is not None:
            steps_to_oriented = step_no + pos
        step_no += len(chunk)

    for a, side, s, l, r in zip(agents, ring.sides, ring.strong, left, right):
        a.dir, a.strong = (r if side == 1 else l), s
    return _trial(work, seed, steps_to_oriented, ring.violations, 0)


def run_orientation_reference(
    config: OrientConfiguration, seed: int, max_steps: int, post_steps: int = 0
) -> OrientationTrial:
    """``run_orientation`` with one ``_interact_or_inplace`` call per draw.

    The one reference orientation run: the same arguments, input checks,
    draws up to orientation and result, with bookkeeping that shares
    nothing with ``_ArcRing``.  ``run_orientation`` hands it every ring
    with an agent that is not ``_legal``.  Draw t joins agents i = t // 2 and i + 1,
    with i as the initiator for even t and as the responder for odd t.  After each step
    the two agents' ``_side`` and ``_legal`` and the ``_boundaries`` of the
    three edges around them are recomputed; a step between legal agents
    that raises that count is a monotonicity violation, before orientation
    or after it.  Every one of the ``post_steps`` draws is applied (the
    fast path draws none), and ``post_dir_changes`` counts each ``dir``
    they change.  The POR closure suite runs this.
    """
    require_count("seed", seed, 0)
    require_count("max_steps", max_steps, 0)
    require_count("post_steps", post_steps, 0)
    work = config.copy()
    agents = work.agents
    n = len(agents)
    left, right = _neighbor_colors([a.color for a in agents])
    rng = np.random.Generator(np.random.PCG64(seed))
    sides = list(map(_side, [a.dir for a in agents], left, right))
    legal = list(map(_legal, agents, left, right))
    boundaries = _boundaries(sides, range(n))
    violations = dir_changes = 0

    def draws(budget: int):
        return chain.from_iterable(c.tolist() for c in _draw_chunks(rng, n, budget))

    def step(t: int) -> None:
        nonlocal boundaries, violations, dir_changes
        i, j = t >> 1, ((t >> 1) + 1) % n
        edges = ((i - 1) % n, i, j)
        before, was_legal = _boundaries(sides, edges), legal[i] and legal[j]
        dirs = agents[i].dir, agents[j].dir
        _interact_or_inplace(*((agents[j], agents[i]) if t & 1 else (agents[i], agents[j])))
        for k, d in zip((i, j), dirs):
            dir_changes += agents[k].dir != d
            sides[k] = _side(agents[k].dir, left[k], right[k])
            legal[k] = _legal(agents[k], left[k], right[k])
        after = _boundaries(sides, edges)
        violations += was_legal and after > before
        boundaries += after - before

    steps_to_oriented = 0 if boundaries == 0 and all(legal) else None
    if steps_to_oriented is None:
        for step_no, t in enumerate(draws(max_steps), 1):
            step(t)
            if boundaries == 0 and all(legal):
                steps_to_oriented = step_no
                break
    dir_changes = 0  # only the post-orientation steps count
    if steps_to_oriented is not None:
        for t in draws(post_steps):
            step(t)
    return _trial(work, seed, steps_to_oriented, violations, dir_changes)


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
