"""The two backward-iteration engines.

Full method: expand every preimage word of a fixed length n, weighting the
atom of word (i_1, ..., i_n) by the product of its branch probabilities;
the d^n weighted atoms form a probability measure converging (weakly, in n)
to the canonical invariant measure on the Julia set.

Random method: a Markov chain that at each step recomputes all d preimages
of the current point and jumps to one of them drawn from the branch
distribution; the chain's time-average (empirical measure, after a burn-in)
converges to the same limit almost surely.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .ratmap import preimage_walk, preimages_batch, quadratic_level
from .semigroup import (
    Semigroup,
    build_index_distribution,
    make_rng,
    sample_branch_block,
    validate_assumptions,
)
from .sphere import SpherePoint, ensure_point, from_arrays, point_arrays, to_arrays
from .workers import run_tasks, shared_array

__all__ = [
    "EmptyTail",
    "WeightedPointCloud",
    "BackwardOrbit",
    "DEFAULT_BURN_IN",
    "expand_level",
    "full_backward_tree",
    "tree_atoms",
    "tree_subtrees",
    "subtree_blocks",
    "random_backward_orbit",
    "empirical_measure",
    "run_chains",
]

DEFAULT_BURN_IN = 100


class EmptyTail(ValueError):
    """Burn-in swallowed the whole orbit."""


class _PointArrays:
    """Points as arrays: point k is ``zs[k]`` (complex), or the point at
    infinity where ``at_inf[k]`` is set (checked by :func:`point_arrays`)."""

    @cached_property
    def points(self) -> list[SpherePoint]:
        """The points as a list (``INF`` at infinity), built on first use."""
        return from_arrays(self.zs, self.at_inf)

    def __len__(self) -> int:
        return self.zs.size


@dataclass(eq=False)
class WeightedPointCloud(_PointArrays):
    """Finite atomic measure: atom k is point k with the nonnegative mass
    ``masses[k]``.  ``masses`` may be a read-only view: a cloud of equal
    masses (a chain's) holds one value repeated with stride 0, so nothing
    may write into it."""

    zs: np.ndarray
    at_inf: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        self.zs, self.at_inf = point_arrays(self.zs, self.at_inf)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != self.zs.shape:
            raise ValueError(f"{self.zs.size} points vs masses {self.masses.shape}")
        # a NaN fails both comparisons
        if self.masses.size and not 0 <= float(self.masses.min()) <= float(self.masses.max()) < np.inf:
            raise ValueError("masses must be finite and nonnegative")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(eq=False)
class BackwardOrbit(_PointArrays):
    """One realization of the random backward chain.

    Point m is the chain state after m+1 steps; it is the branch
    ``symbols[m]`` preimage of point m-1 (of ``start`` for m = 0).
    """

    start: SpherePoint
    symbols: list[int]
    zs: np.ndarray
    at_inf: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.zs, self.at_inf = point_arrays(self.zs, self.at_inf)
        if len(self.symbols) != self.zs.size:
            raise ValueError("symbols and points must have equal length")


# ---------------------------------------------------------------------------
# full backward tree


def expand_level(
    sg: Semigroup, zs: np.ndarray, at_inf: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All d preimages of every point, branch-major, as ``(kids, kids_inf)``
    of shape (d, n): row i holds branch i of every point, in point order.
    Branch i is (j, r) = ``build_index_distribution(sg).decode[i]``, root r
    of generator j; the tree and the transfer operator weight it b_j / d_j.

    Under polynomials of degree 2, a finite point takes the closed form of
    :func:`quadratic_level` where that marks it done, and every other point
    :func:`preimages_batch`; both decide each point alone, so a point's
    preimages do not depend on the other points of its level."""
    gens = sg.generators
    if not all(g.denominator.degree == 0 and g.degree == 2 for g in gens):
        return _batch_level(gens, zs, at_inf)
    kids, done = quadratic_level(gens, zs)
    kids_inf = np.zeros(kids.shape, dtype=bool)
    rest = ~done | at_inf
    if rest.any():
        kids[:, rest], kids_inf[:, rest] = _batch_level(gens, zs[rest], at_inf[rest])
    return kids, kids_inf


def _batch_level(gens, zs: np.ndarray, at_inf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`preimages_batch` of every point under each generator, as
    branch-major ``(kids, kids_inf)``."""
    fibres = [preimages_batch(g, zs, at_inf) for g in gens]
    return tuple(np.hstack(parts).T for parts in zip(*fibres))


# A subtree: its root points as ``(zs, at_inf, masses)`` and the number of
# levels still to expand below them.
Subtree = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _branches(
    kids: np.ndarray, kids_inf: np.ndarray, masses: np.ndarray, pi: np.ndarray, left: int
) -> list[Subtree]:
    """One branch-major level of children split per branch, in branch order:
    subtree i roots at row i (branch i of every parent), with no copy."""
    return [(kids[i], kids_inf[i], masses * pi[i], left) for i in range(pi.size)]


def tree_subtrees(
    sg: Semigroup, start: SpherePoint, depth: int, chunk: int
) -> list[Subtree]:
    """The full backward tree cut into subtrees, in branch order.  Levels are
    expanded whole while they fit within ``chunk`` points; the first level
    wider than that is split per branch into d subtrees.  A tree that never
    grows wider is one subtree with no levels left (all its atoms)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    d = sg.total_degree
    pi = np.asarray(build_index_distribution(sg).probabilities)
    (zs, at_inf), masses, left = to_arrays([start]), np.array([1.0]), depth
    while left:
        size = masses.size
        kids, kids_inf = expand_level(sg, zs, at_inf)
        left -= 1
        if size * d > chunk:
            return _branches(kids, kids_inf, masses, pi, left)
        # a whole level is parent-major: the children of a point are contiguous
        zs, at_inf = kids.T.reshape(-1), kids_inf.T.reshape(-1)
        masses = np.repeat(masses, d) * np.tile(pi, size)
    return [(zs, at_inf, masses, 0)]


def subtree_blocks(
    sg: Semigroup, subtree: Subtree
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The atoms of one subtree of :func:`tree_subtrees` as ``(zs, at_inf,
    masses)`` blocks as wide as its root level: every level is expanded
    branch-major and descended depth-first, one row (branch) at a time, so
    live memory stays O(width * d * n) if each block is dropped before the
    next is asked for.  A block lists its atoms in root order, and the blocks
    come in word order below the root level."""
    pi = np.asarray(build_index_distribution(sg).probabilities)
    stack = [subtree]
    while stack:
        zs, at_inf, masses, left = stack.pop()  # left: levels still to expand
        if left == 0:
            yield zs, at_inf, masses
            continue
        kids, kids_inf = expand_level(sg, zs, at_inf)
        stack.extend(reversed(_branches(kids, kids_inf, masses, pi, left - 1)))


def tree_atoms(
    sg: Semigroup, start: SpherePoint, depth: int, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms ``idx`` of :func:`full_backward_tree` as ``(zs, at_inf)``, without
    building the tree.  Atom k is the preimage word spelled by the base-d
    digits of k, most significant first.  Each level expands every distinct
    prefix of the asked words once and keeps the children those words name;
    the atoms are gathered from the full words at the end."""
    d, idx = sg.total_degree, np.asarray(idx, dtype=np.int64)
    if depth < 0 or (idx.size and not 0 <= idx.min() <= idx.max() < d**depth):
        raise ValueError(f"need depth >= 0 and atom indices in [0, {d}^{depth})")
    zs, at_inf = to_arrays([ensure_point(start)])
    words = np.zeros(1, dtype=np.int64)  # row r holds the point of prefix words[r]
    for level in reversed(range(depth)):
        kids, kids_inf = expand_level(sg, zs, at_inf)
        prefixes = np.unique(idx // d**level)
        # child (prefix mod d) of the parent prefix // d
        at = prefixes % d, np.searchsorted(words, prefixes // d)
        zs, at_inf, words = kids[at], kids_inf[at], prefixes
    row = np.searchsorted(words, idx)
    return zs[row], at_inf[row]


def full_backward_tree(
    sg: Semigroup,
    start: SpherePoint,
    depth: int,
    *,
    check_start: bool = True,
) -> WeightedPointCloud:
    """All d^depth preimage words of the start point, built level by level:
    each level is the full set of d preimages of every point of the previous
    one.  The atom of word (i_1, ..., i_n) carries mass prod_m pi(i_m); atoms
    are listed parent-major so children of one parent are contiguous in
    branch order.  All d^depth atoms are held at once; :func:`tree_atoms`
    and :func:`~semijulia.measure.full_tree_grid` stay in bounded memory.
    """
    start = ensure_point(start)
    if check_start:
        validate_assumptions(sg, start)
    # with chunk = d^depth no level is cut: one subtree with no levels left
    zs, at_inf, masses, _ = tree_subtrees(sg, start, depth, sg.total_degree**depth)[0]
    return WeightedPointCloud(zs, at_inf, masses)


# ---------------------------------------------------------------------------
# random backward chain


def random_backward_orbit(
    sg: Semigroup,
    start: SpherePoint,
    n: int,
    seed: int,
    *,
    check_start: bool = True,
) -> BackwardOrbit:
    """Length-n random backward orbit: symbols drawn i.i.d. from the branch
    distribution, each step recomputing all preimages of the current point
    and selecting the decoded branch.  Deterministic given the seed.
    """
    start = ensure_point(start)
    if check_start:
        validate_assumptions(sg, start)
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    dist = build_index_distribution(sg)
    symbols = sample_branch_block(dist, make_rng(seed), n).tolist()
    pts = preimage_walk(sg.generators, dist.decode, symbols, start)
    return BackwardOrbit(start, symbols, *to_arrays(pts), seed)


def empirical_measure(orbit: BackwardOrbit, burn_in: int) -> WeightedPointCloud:
    """Uniform mass on the orbit points after dropping the first ``burn_in``
    of them; with burn_in = 0 this is exactly the orbit's time average."""
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    n = len(orbit)
    if burn_in >= n:
        raise EmptyTail(f"burn_in {burn_in} >= orbit length {n}")
    tail = n - burn_in
    return WeightedPointCloud(
        orbit.zs[burn_in:], orbit.at_inf[burn_in:], np.broadcast_to(1.0 / tail, (tail,))
    )


def run_chains(
    sg: Semigroup,
    start: SpherePoint,
    n_per_chain: int,
    n_chains: int,
    burn_in: int = DEFAULT_BURN_IN,
    seeds: Sequence[int] | None = None,
    *,
    check_start: bool = True,
) -> WeightedPointCloud:
    """Average of the empirical measures of independent chains, merged in
    seed order regardless of execution order.  With one chain this is exactly
    :func:`empirical_measure` of that chain.

    The chains run as tasks of :func:`~semijulia.workers.run_tasks`, in
    forked workers where it can; each writes its tail into its own rows of a
    shared array.  The result is the same, bit for bit, for any number of
    CPUs.
    """
    if seeds is None:
        seeds = list(range(n_chains))
    seeds = [int(s) for s in seeds]
    if n_chains < 1:
        raise ValueError(f"need at least one chain, got {n_chains}")
    if len(seeds) != n_chains:
        raise ValueError(f"{n_chains} chains need {n_chains} seeds, got {len(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be pairwise distinct, got {seeds}")
    start = ensure_point(start)
    if check_start:
        validate_assumptions(sg, start)
    if n_per_chain < 1:
        raise ValueError("orbit length must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if burn_in >= n_per_chain:
        raise EmptyTail(f"burn_in {burn_in} >= orbit length {n_per_chain}")
    tail = n_per_chain - burn_in
    # row k: the post-burn-in tail of chain seeds[k]
    zs = shared_array((n_chains, tail), complex)
    at_inf = shared_array((n_chains, tail), bool)

    def run_chain(k: int) -> None:
        orbit = random_backward_orbit(sg, start, n_per_chain, seeds[k], check_start=False)
        zs[k] = orbit.zs[burn_in:]
        at_inf[k] = orbit.at_inf[burn_in:]

    run_tasks(n_chains, run_chain)
    # each chain's empirical_measure masses, divided by the number of chains,
    # as one read-only value repeated (a zero-stride view, no array)
    masses = np.broadcast_to((1.0 / tail) / n_chains, (n_chains * tail,))
    return WeightedPointCloud(zs.reshape(-1), at_inf.reshape(-1), masses)
