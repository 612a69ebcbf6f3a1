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
    stream of one call per value in that order.
    """
    require_count("n", n, 3)
    require_count("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    colors: list[int | None] = [None] * n
    picks = rng.integers(0, [XI if i < 2 else XI - 1 for i in range(n - 2)]).tolist()
    for i in range(n):
        banned = (colors[i - 2], colors[(i + 2) % n])  # None: not colored yet
        choices = [c for c in range(XI) if c not in banned]
        colors[i] = choices[picks[i] if i < n - 2 else rng.integers(0, len(choices))]
    bits = rng.integers(0, 2, size=2 * n).tolist()
    left, right = _neighbor_colors(colors)  # the postcondition: two-hop
    return OrientConfiguration(
        OrientAgentState(
            color=colors[i],
            c1=left[i],
            c2=right[i],
            dir=right[i] if bits[2 * i] else left[i],
            strong=bits[2 * i + 1],
        )
        for i in range(n)
    )


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


def _interleave(a: list, b: list) -> list:
    """``[a[0], b[0], a[1], b[1], ...]``: one entry per arc from two per edge."""
    out = a + b
    out[::2], out[1::2] = a, b
    return out


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


_FIGHT = -1  # ``act`` entry of an arc whose two agents point at each other
_REPAIR = -2  # ``act`` entry of an arc that touches an agent that is not legal


class _ArcRing:
    """Flat state and per-arc tables for one ``run_orientation`` call.

    ``color``, ``dir`` and ``strong`` are per-agent lists; ``strong`` has one
    scratch slot at index n.  Arc ``t`` of the 2n ordered arcs has initiator
    ``us[t]`` and responder ``vs[t]`` (arc ``2i`` is ``(i, i + 1)``, arc
    ``2i + 1`` is ``(i + 1, i)``); a side that loses a head fight on it
    turns to ``redirect_u[t]`` or ``redirect_v[t]``, its other neighbor.

    ``act[t]`` is what arc ``t`` does now: ``_REPAIR`` when an agent of it
    is not ``_legal`` (``bad``), else ``_FIGHT`` or the agent whose
    ``strong`` it clears (n, the scratch slot, if neither points at the
    other).  A repair runs the reference transition on the two ``agents``,
    which hold the memories, then refreshes their ``bad``, ``sides`` and
    edges; a head fight refreshes the edges of the agent it redirects.
    ``boundaries`` counts the ``_boundaries`` of ``sides`` and
    ``violations`` the head fights that raised it.  Raises ValueError for a
    coloring that is not two-hop, where a loser could not turn away.
    """

    __slots__ = (
        "n", "agents", "color", "dir", "strong", "us", "vs", "redirect_u",
        "redirect_v", "act", "sides", "bad", "boundaries", "violations",
    )

    def __init__(self, agents: list[OrientAgentState]):
        n = self.n = len(agents)
        self.agents = agents
        c = self.color = [a.color for a in agents]
        self.dir = [a.dir for a in agents]
        self.strong = [a.strong for a in agents] + [0]
        left, right = _neighbor_colors(c)
        far = _around(right)[1]  # color of agent i + 2
        idx = list(range(n))
        nxt = _around(idx)[1]
        # the loser of a fight on edge (i, i + 1) turns to i - 1 or i + 2
        self.us, self.vs = _interleave(idx, nxt), _interleave(nxt, idx)
        self.redirect_u, self.redirect_v = _interleave(left, far), _interleave(far, left)
        self.sides = list(map(_side, self.dir, left, right))
        self.bad = [not ok for ok in map(_legal, agents, left, right)]
        self.act = [0] * (2 * n)
        for e in range(n):
            self._set_edge(e)
        self.boundaries = _boundaries(self.sides, range(n))
        self.violations = 0

    def _set_edge(self, e: int) -> None:
        # both arcs of edge (e, e + 1) repair, demote the same agent or fight
        x, y = e, (e + 1) % self.n
        d, c = self.dir, self.color
        if self.bad[x] or self.bad[y]:
            a = _REPAIR
        elif d[x] == c[y]:
            a = _FIGHT if d[y] == c[x] else x
        elif d[y] == c[x]:
            a = y
        else:
            a = self.n
        self.act[2 * e] = self.act[2 * e + 1] = a

    def _fight(self, t: int) -> int:
        """Head fight on arc ``t``; return the redirected agent."""
        u, v = self.us[t], self.vs[t]
        strong = self.strong
        if strong[u] == 0 and strong[v] == 1:
            k, new = u, self.redirect_u[t]
            strong[u], strong[v] = 1, 0
        else:
            k, new = v, self.redirect_v[t]
            strong[u], strong[v] = 0, 1
        self.dir[k] = new
        self._set_edge((k - 1) % self.n)
        self._set_edge(k)
        return k

    def _flip_side(self, k: int) -> bool:
        """Flip legal agent ``k``'s side; return True once the ring is oriented."""
        sides, n = self.sides, self.n
        left, right = sides[(k - 1) % n], sides[(k + 1) % n]
        before = (left != sides[k]) + (sides[k] != right)
        sides[k] = -sides[k]
        after = (left != sides[k]) + (sides[k] != right)
        if after > before:
            self.violations += 1
        self.boundaries += after - before
        return self.boundaries == 0 and not any(self.bad)

    def _repair(self, t: int) -> bool:
        """Reference transition on arc ``t``; True once the ring is oriented."""
        n, d, s, c = self.n, self.dir, self.strong, self.color
        u, v = self.us[t], self.vs[t]
        a, b = self.agents[u], self.agents[v]
        a.dir, a.strong, b.dir, b.strong = d[u], s[u], d[v], s[v]
        _interact_or_inplace(a, b)
        d[u], s[u], d[v], s[v] = a.dir, a.strong, b.dir, b.strong
        e = t >> 1
        edges = ((e - 1) % n, e, (e + 1) % n)
        self.boundaries -= _boundaries(self.sides, edges)
        for k in (e, (e + 1) % n):
            left, right = c[k - 1], c[(k + 1) % n]
            self.sides[k] = _side(d[k], left, right)
            self.bad[k] = not _legal(self.agents[k], left, right)
        self.boundaries += _boundaries(self.sides, edges)
        for f in edges:
            self._set_edge(f)
        return self.boundaries == 0 and not any(self.bad)

    def drive(self, draws: list[int]) -> int | None:
        """Apply the arcs ``draws`` in order, keeping ``sides``,
        ``boundaries`` and ``violations`` up to date.

        Stop at the draw that leaves the ring oriented and return its
        1-based position in ``draws``; return None when no draw does so.
        """
        act, strong = self.act, self.strong
        rest = iter(draws)
        for t in rest:
            a = act[t]
            if a >= 0:
                strong[a] = 0
                continue
            if a == _FIGHT:
                if not self._flip_side(self._fight(t)):
                    continue
            elif not self._repair(t):
                continue
            # a list iterator's length hint is the exact number left
            return len(draws) - length_hint(rest)
        return None

    def write_back(self) -> None:
        for a, d, s in zip(self.agents, self.dir, self.strong):
            a.dir = d
            a.strong = s


def _draw_chunks(rng: np.random.Generator, n: int, budget: int):
    """Up to ``budget`` uniform draws of the 2n arcs, as lists of at most
    4096: the stream both orientation runs read, so their trials agree."""
    for done in range(0, budget, 4096):
        yield rng.integers(0, 2 * n, size=min(4096, budget - done)).tolist()


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

    This is the fast path; ``run_orientation_reference`` is the reference
    run, and the tests hold the two trials equal.  The run keeps flat
    lists and a per-arc action table (``_ArcRing``): a draw is one lookup
    and a demotion one store.  Only a head fight, the one event that changes
    a legal agent's ``dir``, runs the fight rule; an arc touching an agent
    that is not legal runs the reference transition (generated rings have
    none).  The ``post_steps`` stretch after orientation is worked out, not
    drawn: on an oriented two-hop ring no arc is a head fight (neighbors x
    and x + 1 point at each other only if agents x and x + 2 share a
    color), so no post step changes a ``dir``.  ``post_dir_changes`` is 0,
    and ``monotone_violations`` and ``final_segment_count`` are what they
    were at orientation.  The reference draws every post step.
    """
    require_count("seed", seed, 0)
    require_count("max_steps", max_steps, 0)
    require_count("post_steps", post_steps, 0)
    work = config.copy()
    n = len(work)
    ring = _ArcRing(work.agents)
    rng = np.random.Generator(np.random.PCG64(seed))
    steps_to_oriented = 0 if ring.boundaries == 0 and not any(ring.bad) else None

    step_no = 0
    chunks = _draw_chunks(rng, n, max_steps)
    while steps_to_oriented is None and (draws := next(chunks, None)):
        pos = ring.drive(draws)
        if pos is not None:
            steps_to_oriented = step_no + pos
        step_no += len(draws)

    converged = steps_to_oriented is not None
    ring.write_back()
    final_count = segment_count(work)
    monotone_violations = ring.violations
    if converged and final_count != 1:
        monotone_violations += 1  # incremental counter disagreed with recount
    return OrientationTrial(
        seed=seed,
        n=n,
        steps_to_oriented=steps_to_oriented,
        converged=converged,
        monotone_violations=monotone_violations,
        post_dir_changes=0,
        final_segment_count=final_count,
    )


def run_orientation_reference(
    config: OrientConfiguration, seed: int, max_steps: int, post_steps: int = 0
) -> OrientationTrial:
    """``run_orientation`` with one ``_interact_or_inplace`` call per draw.

    The one reference orientation run: the same arguments, input checks,
    draws up to orientation and result, with bookkeeping that shares
    nothing with ``_ArcRing``.  Draw t joins agents i = t // 2 and i + 1,
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
        return chain.from_iterable(_draw_chunks(rng, n, budget))

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
    converged = steps_to_oriented is not None
    dir_changes = 0  # only the post-orientation steps count
    if converged:
        for t in draws(post_steps):
            step(t)
    final_count = segment_count(work)
    if converged and final_count != 1:
        violations += 1  # the recount, as in ``run_orientation``
    return OrientationTrial(
        seed, n, steps_to_oriented, converged, violations, dir_changes, final_count
    )
