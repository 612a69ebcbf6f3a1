"""Self-stabilizing ring orientation on undirected rings.

Agents carry a fixed two-hop coloring (distance-2 agents never share a
color, so every agent can tell its two neighbors apart) and an orientation
guess: ``dir`` holds the color of the neighbor the agent points at.  Heads
of oppositely-directed runs fight where they meet; the winner absorbs the
loser's head, so directed runs merge until one direction rules the ring.
The ``strong`` flag gives the side that just won momentum.

The coloring itself is supplied by a generator here (the upstream coloring
protocol is out of scope); orientation never writes ``color``/``c1``/``c2``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import length_hint

import numpy as np

from .core.params import InvalidSizeError

XI = 5  # colors used by the generator; plenty for any ring size >= 3


class OrientAgentState:
    """One agent: own color, memorized neighbor colors, direction, strength."""

    __slots__ = ("color", "c1", "c2", "dir", "strong")

    def __init__(self, color: int, c1: int | None, c2: int | None, dir: int, strong: int):
        self.color = color
        self.c1 = c1
        self.c2 = c2
        self.dir = dir
        self.strong = strong

    def copy(self) -> "OrientAgentState":
        return OrientAgentState(self.color, self.c1, self.c2, self.dir, self.strong)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientAgentState):
            return NotImplemented
        return (
            self.color == other.color
            and self.c1 == other.c1
            and self.c2 == other.c2
            and self.dir == other.dir
            and self.strong == other.strong
        )

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return (
            f"OrientAgentState(color={self.color}, c1={self.c1}, c2={self.c2}, "
            f"dir={self.dir}, strong={self.strong})"
        )


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

    def check_two_hop(self) -> None:
        n = len(self.agents)
        for i in range(n):
            if self.agents[i].color == self.agents[(i + 2) % n].color:
                raise ValueError(f"two-hop violation at agents {i} and {(i + 2) % n}")


def generate_two_hop_coloring(n: int, seed: int) -> OrientConfiguration:
    """Greedy seeded two-hop coloring with 5 colors plus adversarial dir/strong.

    Colors and the memorized neighbor colors (c1 = left, c2 = right) satisfy
    the generator's postcondition exactly; ``dir`` points at a uniformly
    random neighbor and ``strong`` is a uniform bit.  Directions must point
    at an actual neighbor: the transition redirects an agent only when the
    agent and a neighbor point at each other, so a direction value naming
    neither neighbor could never be corrected.

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
    if n < 3:
        raise InvalidSizeError(f"need n >= 3 for a two-hop coloring, got n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    colors: list[int | None] = [None] * n
    picks = rng.integers(0, [XI if i < 2 else XI - 1 for i in range(n - 2)]).tolist()
    for i in range(n):
        banned = (colors[i - 2], colors[(i + 2) % n])  # None: not colored yet
        choices = [c for c in range(XI) if c not in banned]
        colors[i] = choices[picks[i] if i < n - 2 else rng.integers(0, len(choices))]
    bits = rng.integers(0, 2, size=2 * n).tolist()
    agents = []
    for i in range(n):
        left = colors[(i - 1) % n]
        right = colors[(i + 1) % n]
        agents.append(
            OrientAgentState(
                color=colors[i],
                c1=left,
                c2=right,
                dir=right if bits[2 * i] else left,
                strong=bits[2 * i + 1],
            )
        )
    config = OrientConfiguration(agents)
    config.check_two_hop()
    return config


def oriented_configuration(n: int, seed: int, clockwise: bool = True) -> OrientConfiguration:
    """A coloring with every agent already pointing the same way."""
    config = generate_two_hop_coloring(n, seed)
    agents = config.agents
    for i, a in enumerate(agents):
        a.dir = agents[(i + 1) % n].color if clockwise else agents[(i - 1) % n].color
    return config


def _interact_or_inplace(u: OrientAgentState, v: OrientAgentState) -> None:
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
    """Transition for one interaction, initiator ``u``; pure."""
    u2, v2 = u.copy(), v.copy()
    _interact_or_inplace(u2, v2)
    return u2, v2


def _directions(config: OrientConfiguration) -> list[int]:
    """+1 per agent pointing at its right neighbor, -1 at its left."""
    agents = config.agents
    n = len(agents)
    dirs = []
    for i, a in enumerate(agents):
        if a.dir == agents[(i + 1) % n].color:
            dirs.append(1)
        elif a.dir == agents[(i - 1) % n].color:
            dirs.append(-1)
        else:
            raise ValueError(f"agent {i} points at neither neighbor")
    return dirs


def is_oriented(config: OrientConfiguration) -> bool:
    """True iff all agents point clockwise or all point counter-clockwise."""
    dirs = _directions(config)
    return all(d == 1 for d in dirs) or all(d == -1 for d in dirs)


def segment_count(config: OrientConfiguration) -> int:
    """Number of maximal same-direction runs; 1 exactly when oriented."""
    dirs = _directions(config)
    n = len(dirs)
    boundaries = sum(1 for i in range(n) if dirs[i] != dirs[(i + 1) % n])
    return 1 if boundaries == 0 else boundaries


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
    initial_segment_count: int = field(default=0)


_FIGHT = -1  # ``act`` entry of an arc whose two agents point at each other


class _ArcRing:
    """Flat state and per-arc tables for one ``run_orientation`` call.

    ``color``, ``dir`` and ``strong`` are per-agent lists; ``strong`` has one
    scratch slot at index n.  Arc ``t`` of the 2n ordered arcs has initiator
    ``us[t]`` and responder ``vs[t]`` (arc ``2i`` is ``(i, i + 1)``, arc
    ``2i + 1`` is ``(i + 1, i)``); ``redirect_u[t]`` and ``redirect_v[t]``
    are where each side turns when it loses a head fight on that arc.
    Colors and memories never change, so these tables are fixed.

    ``act[t]`` is what arc ``t`` does under the current ``dir`` values: the
    index of the agent whose ``strong`` it clears (n, the scratch slot, when
    neither agent points at the other) or ``_FIGHT``.  Only a head fight
    changes a ``dir``, and it then recomputes the four entries of the arcs
    touching that agent.  ``sides`` holds +1/-1 per agent as
    ``_directions`` does, ``boundaries`` the number of adjacent agents whose
    sides differ and ``violations`` how often a flip raised that number.
    """

    __slots__ = (
        "n", "color", "dir", "strong", "us", "vs", "redirect_u", "redirect_v",
        "act", "sides", "boundaries", "violations",
    )

    def __init__(self, agents: list[OrientAgentState], sides: list[int]):
        n = len(agents)
        self.n = n
        self.color = [a.color for a in agents]
        self.dir = [a.dir for a in agents]
        self.strong = [a.strong for a in agents] + [0]
        self.us, self.vs, self.redirect_u, self.redirect_v = [], [], [], []
        for t in range(2 * n):
            i, j = t >> 1, ((t >> 1) + 1) % n
            u, v = (j, i) if t & 1 else (i, j)
            a, b = agents[u], agents[v]
            self.us.append(u)
            self.vs.append(v)
            self.redirect_u.append(a.c1 if a.c1 != b.color else a.c2)
            self.redirect_v.append(b.c1 if b.c1 != a.color else b.c2)
        self.act = [0] * (2 * n)
        for e in range(n):
            self._set_edge(e)
        self.sides = sides
        self.boundaries = sum(1 for i in range(n) if sides[i] != sides[(i + 1) % n])
        self.violations = 0

    def _set_edge(self, e: int) -> None:
        # both arcs of edge (e, e + 1) demote the same agent or both fight
        x, y = e, (e + 1) % self.n
        d, c = self.dir, self.color
        if d[x] == c[y]:
            a = _FIGHT if d[y] == c[x] else x
        elif d[y] == c[x]:
            a = y
        else:
            a = self.n
        self.act[2 * e] = self.act[2 * e + 1] = a

    def _fight(self, t: int) -> int | None:
        """Head fight on arc ``t``; return the agent whose ``dir`` changed,
        or None if none did."""
        u, v = self.us[t], self.vs[t]
        strong = self.strong
        if strong[u] == 0 and strong[v] == 1:
            k, new = u, self.redirect_u[t]
            strong[u], strong[v] = 1, 0
        else:
            k, new = v, self.redirect_v[t]
            strong[u], strong[v] = 0, 1
        if self.dir[k] == new:
            return None  # corrupted memories can turn a loser to where it points
        self.dir[k] = new
        self._set_edge((k - 1) % self.n)
        self._set_edge(k)
        return k

    def _flip_side(self, k: int) -> bool:
        """Flip agent ``k``'s side; return True once no boundary is left."""
        sides, n = self.sides, self.n
        left, right = sides[(k - 1) % n], sides[(k + 1) % n]
        before = (left != sides[k]) + (sides[k] != right)
        sides[k] = -sides[k]
        after = (left != sides[k]) + (sides[k] != right)
        if after > before:
            self.violations += 1
        self.boundaries += after - before
        return self.boundaries == 0

    def drive(self, draws: list[int], track: bool) -> int | None:
        """Apply the arcs ``draws`` in order.

        With ``track``, keep ``sides``, ``boundaries`` and ``violations`` up
        to date and stop at the draw that leaves no boundary, returning its
        1-based position in ``draws``.  Return None when no draw does so
        (always, without ``track``).
        """
        act, strong = self.act, self.strong
        rest = iter(draws)
        for t in rest:
            a = act[t]
            if a >= 0:
                strong[a] = 0
                continue
            k = self._fight(t)
            if k is not None and track and self._flip_side(k):
                # a list iterator's length hint is the exact number left
                return len(draws) - length_hint(rest)
        return None

    def can_demote(self) -> bool:
        """True while some agent that an arc demotes still has ``strong`` 1."""
        strong, n = self.strong, self.n
        return any(strong[a] for a in self.act if a < n)

    def demote_all(self, draws: np.ndarray) -> None:
        """Apply ``draws`` when no ``act`` entry is a head fight.

        No draw can then change a ``dir``, so ``act`` stays as it is and the
        draws only clear ``strong`` flags, in any order: one scatter.  Once
        ``can_demote`` is False, further draws change nothing at all.
        """
        strong = np.array(self.strong)
        strong[np.array(self.act)[draws]] = 0
        self.strong = strong.tolist()

    def write_back(self, agents: list[OrientAgentState]) -> None:
        for a, d, s in zip(agents, self.dir, self.strong):
            a.dir = d
            a.strong = s


def run_orientation(
    config: OrientConfiguration,
    seed: int,
    max_steps: int,
    post_steps: int = 0,
) -> OrientationTrial:
    """Drive one ring until oriented (or cutoff), checking every step.

    The scheduler draws uniformly among the 2n ordered arcs, in chunks of
    4096 draws.  The directed segment count is maintained incrementally and
    asserted non-increasing at every step; after orientation, ``post_steps``
    further interactions are applied and any change to any ``dir`` is
    counted.  The input configuration is not mutated.  Raises ValueError for
    a negative ``max_steps`` or ``post_steps``.

    This is the fast path; ``_interact_or_inplace`` is the reference
    transition, and the tests hold the two bit-exact.  The run keeps flat
    lists and a per-arc action table (``_ArcRing``): each draw is one table
    lookup, a demotion is one store, and only a head fight, the one event
    that can change a ``dir``, runs the transition and updates the table and
    the segment count.  If no arc is a head fight once the ring is oriented,
    no post-step can change a ``dir`` and demotions commute, so the
    post-orientation stretch is a numpy scatter of zeros into ``strong`` per
    4096-draw chunk, and it stops drawing once no agent that an arc demotes
    is still strong, as every further draw would change nothing; otherwise
    it goes through the same per-draw loop.
    """
    if max_steps < 0 or post_steps < 0:
        raise ValueError(
            f"need max_steps >= 0 and post_steps >= 0, got {max_steps} and {post_steps}"
        )
    work = config.copy()
    agents = work.agents
    n = len(agents)
    rng = np.random.Generator(np.random.PCG64(seed))
    ring = _ArcRing(agents, _directions(work))
    initial_count = max(ring.boundaries, 1)
    steps_to_oriented: int | None = 0 if ring.boundaries == 0 else None

    step_no = 0
    chunk = 4096
    while steps_to_oriented is None and step_no < max_steps:
        draws = rng.integers(0, 2 * n, size=min(chunk, max_steps - step_no)).tolist()
        pos = ring.drive(draws, track=True)
        if pos is not None:
            steps_to_oriented = step_no + pos
        step_no += len(draws)

    converged = steps_to_oriented is not None
    post_dir_changes = 0
    if converged and post_steps > 0:
        if _FIGHT in ring.act:
            frozen = list(ring.dir)
            ring.drive(rng.integers(0, 2 * n, size=post_steps).tolist(), track=False)
            post_dir_changes = sum(1 for d, f in zip(ring.dir, frozen) if d != f)
        else:
            # the chunks are a prefix of one size=post_steps draw, and the
            # draws left once nothing can be demoted are no-ops
            drawn = 0
            while drawn < post_steps and ring.can_demote():
                draws = rng.integers(0, 2 * n, size=min(chunk, post_steps - drawn))
                ring.demote_all(draws)
                drawn += len(draws)

    ring.write_back(agents)
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
        post_dir_changes=post_dir_changes,
        final_segment_count=final_count,
        initial_segment_count=initial_count,
    )


# --- optional start mode: blank neighbor memories, learn them on the fly ---

def blank_memories(config: OrientConfiguration) -> OrientConfiguration:
    """Copy of ``config`` with all memorized neighbor colors forgotten."""
    out = config.copy()
    for a in out.agents:
        a.c1 = None
        a.c2 = None
    return out


def _observe(agent: OrientAgentState, color: int) -> None:
    # keep the two most recently seen distinct colors, newest in c1
    if agent.c1 is None:
        agent.c1 = color
    elif color != agent.c1:
        agent.c2 = agent.c1
        agent.c1 = color


def run_orientation_amnesiac(
    config: OrientConfiguration, seed: int, max_steps: int
) -> tuple[OrientConfiguration, int | None]:
    """Orientation run that first relearns neighbor colors from observations.

    Each interaction both participants memorize the partner's color; the
    orientation rules apply only once both participants know two distinct
    neighbor colors.  Returns the final ring and the step at which it was
    first seen oriented (checked every n steps), or None.
    """
    work = config.copy()
    agents = work.agents
    n = len(agents)
    rng = np.random.Generator(np.random.PCG64(seed))
    done = 0
    while done < max_steps:
        block = min(n, max_steps - done)
        for t in rng.integers(0, 2 * n, size=block).tolist():
            i = t >> 1
            if t & 1:
                u, v = agents[(i + 1) % n], agents[i]
            else:
                u, v = agents[i], agents[(i + 1) % n]
            _observe(u, v.color)
            _observe(v, u.color)
            if u.c2 is not None and v.c2 is not None:
                _interact_or_inplace(u, v)
        done += block
        if all(a.c2 is not None for a in agents):
            try:
                if is_oriented(work):
                    return work, done
            except ValueError:
                pass  # some direction still names a forgotten color
    return work, None
