"""Tower of Hanoi world model and the propose / symbolic-check / repair loop.

The ontology side: a state renders to an RDF graph (disks, pegs, onPeg,
smallerThan) that conforms to the shipped Hanoi shapes exactly when the state
is legal. The planning side: pluggable proposers stand in for a language
model; the verifier is the symbolic check, and its violations are the repair
feedback channel.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from enum import Enum

from .namespaces import HANOI_NS, RDF_TYPE, XSD_INTEGER
from .rdf_core import Graph, Iri, Literal, Triple

PEGS = (0, 1, 2)

DISK_CLASS = Iri(HANOI_NS + "Disk")
PEG_CLASS = Iri(HANOI_NS + "Peg")
ON_PEG = Iri(HANOI_NS + "onPeg")
SIZE = Iri(HANOI_NS + "size")
SMALLER_THAN = Iri(HANOI_NS + "smallerThan")


class TranscriptError(ValueError):
    """A transcript the caller named cannot be read or replayed."""


@dataclass(frozen=True)
class HanoiState:
    """peg_of[i] is the peg of disk i (disk 0 smallest). Because stacking
    order is forced by size, this encoding cannot express an illegal state."""
    n: int
    peg_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.peg_of) != self.n or any(p not in PEGS for p in self.peg_of):
            raise ValueError(f"invalid state: n={self.n}, peg_of={self.peg_of}")

    @staticmethod
    def initial(n: int, peg: int = 0) -> HanoiState:
        return HanoiState(n, (peg,) * n)

    def top(self, peg: int) -> int | None:
        """Smallest disk on the peg, or None when empty."""
        for disk, p in enumerate(self.peg_of):
            if p == peg:
                return disk
        return None


@dataclass(frozen=True)
class Move:
    from_peg: int
    to_peg: int

    def notation(self) -> str:
        return f"{self.from_peg}->{self.to_peg}"


# The six moves between distinct pegs, shared by every plan built here; a
# transcript may still name others, so Move stays a class.
_MOVES = {(f, t): Move(f, t) for f in PEGS for t in PEGS if f != t}


class ViolationReason(Enum):
    EMPTY_SOURCE = "EMPTY_SOURCE"
    LARGER_ON_SMALLER = "LARGER_ON_SMALLER"
    SAME_PEG = "SAME_PEG"
    MALFORMED = "MALFORMED"
    GOAL_MISS = "GOAL_MISS"  # reported at index == plan length


@dataclass(frozen=True)
class Violation:
    move_index: int
    reason: ViolationReason
    detail: str


def legal_moves(state: HanoiState) -> list[Move]:
    tops = [state.n] * len(PEGS)  # an empty peg's top reads as n, above every disk
    for disk in reversed(range(state.n)):
        tops[state.peg_of[disk]] = disk
    return [move for (f, t), move in _MOVES.items() if tops[f] < tops[t]]


def apply_move(state: HanoiState, move: Move, index: int = 0) -> HanoiState | Violation:
    """New state when the move is legal, otherwise the violation; the input
    state is never mutated."""
    if move.from_peg not in PEGS or move.to_peg not in PEGS:
        return Violation(index, ViolationReason.MALFORMED, f"peg out of range in {move}")
    if move.from_peg == move.to_peg:
        return Violation(index, ViolationReason.SAME_PEG, f"move {move.notation()} does not change pegs")
    disk = state.top(move.from_peg)
    if disk is None:
        return Violation(index, ViolationReason.EMPTY_SOURCE, f"peg {move.from_peg} is empty")
    dest_top = state.top(move.to_peg)
    if dest_top is not None and dest_top < disk:
        return Violation(index, ViolationReason.LARGER_ON_SMALLER,
                         f"disk {disk} cannot sit on smaller disk {dest_top}")
    pegs = list(state.peg_of)
    pegs[disk] = move.to_peg
    return HanoiState(state.n, tuple(pegs))


def verify_plan(start: HanoiState, plan: list[Move], goal: HanoiState) -> HanoiState | Violation:
    """Fold apply over the plan; first violation wins; reaching the end in a
    non-goal state is GOAL_MISS at index len(plan)."""
    state = start
    for i, move in enumerate(plan):
        outcome = apply_move(state, move, i)
        if isinstance(outcome, Violation):
            return outcome
        state = outcome
    if state != goal:
        return Violation(len(plan), ViolationReason.GOAL_MISS,
                         f"plan ends at {state.peg_of}, goal is {goal.peg_of}")
    return state


def solve_optimal(n: int, from_peg: int = 0, to_peg: int = 2) -> list[Move]:
    """Classical recursion: exactly 2^n - 1 moves."""
    if n < 1:
        raise ValueError("n must be >= 1")
    plan: list[Move] = []
    _tower(n, from_peg, to_peg, 3 - from_peg - to_peg, plan)
    return plan


# The recursions below are module-level rather than nested: a self-recursive
# closure is a reference cycle that would keep `plan` alive until a cyclic
# collection.
def _tower(k: int, src: int, dst: int, via: int, plan: list[Move]) -> None:
    """Append the moves of a tower of disks 0..k-1 from `src` to `dst`."""
    if k == 0:
        return
    _tower(k - 1, src, via, dst, plan)
    plan.append(_MOVES[src, dst])
    _tower(k - 1, via, dst, src, plan)


def solve_from(start: HanoiState, goal: HanoiState) -> list[Move]:
    """Shortest plan from any state to a perfect tower, largest disk first:
    the largest disk off the goal peg moves there once, after the smaller
    disks are gathered on the third peg, and the tower of smaller disks then
    follows it (Hinz, L'Enseignement Math. 35, 1989). What the optimal and
    corrupted proposers plan from, at the start and mid-episode alike."""
    if goal.n != start.n or len(set(goal.peg_of)) != 1:
        raise ValueError(f"goal must be a perfect tower of {start.n} disks, got {goal.peg_of}")
    plan: list[Move] = []
    _gather(start.peg_of, start.n, goal.peg_of[0], plan)
    return plan


def _gather(peg_of: tuple[int, ...], k: int, dst: int, plan: list[Move]) -> None:
    """Append the moves that bring disks 0..k-1 from `peg_of` onto `dst`."""
    for disk in reversed(range(k)):
        src = peg_of[disk]
        if src != dst:
            via = 3 - src - dst
            _gather(peg_of, disk, via, plan)
            plan.append(_MOVES[src, dst])
            _tower(disk, via, dst, src, plan)
            return


def graph_move(graph: Graph, move: Move) -> Graph | Violation:
    """Execute one move purely at the graph level: the moving disk, the
    stacking rule, and the destination check all come from onPeg/smallerThan
    triples. Succeeds exactly when the state-level move is legal."""
    if move.from_peg not in PEGS or move.to_peg not in PEGS:
        return Violation(0, ViolationReason.MALFORMED, f"peg out of range in {move}")
    if move.from_peg == move.to_peg:
        return Violation(0, ViolationReason.SAME_PEG, f"move {move.notation()} does not change pegs")
    src = Iri(f"{HANOI_NS}peg{move.from_peg}")
    dst = Iri(f"{HANOI_NS}peg{move.to_peg}")

    def top_of(peg: Iri) -> Iri | None:
        disks = [t.subject for t in graph.match(None, ON_PEG, peg)]
        top = None
        for d in disks:
            if top is None or Triple(d, SMALLER_THAN, top) in graph:
                top = d
        return top

    moving = top_of(src)
    if moving is None:
        return Violation(0, ViolationReason.EMPTY_SOURCE, f"peg {move.from_peg} is empty")
    dest_top = top_of(dst)
    if dest_top is not None and Triple(dest_top, SMALLER_THAN, moving) in graph:
        return Violation(0, ViolationReason.LARGER_ON_SMALLER,
                         f"{moving.value} cannot sit on smaller {dest_top.value}")
    out = graph.copy()
    out.remove(Triple(moving, ON_PEG, src))
    out.insert(Triple(moving, ON_PEG, dst))
    return out


def state_to_graph(state: HanoiState) -> Graph:
    """World-model rendering: typed disks and pegs, onPeg placement, size
    literals, pairwise smallerThan."""
    g = Graph()
    rdf_type = Iri(RDF_TYPE)
    pegs = [Iri(f"{HANOI_NS}peg{p}") for p in PEGS]
    for peg_iri in pegs:
        g.insert(Triple(peg_iri, rdf_type, PEG_CLASS))
    disks = [Iri(f"{HANOI_NS}disk{d}") for d in range(state.n)]
    for d, disk_iri in enumerate(disks):
        g.insert(Triple(disk_iri, rdf_type, DISK_CLASS))
        g.insert(Triple(disk_iri, SIZE, Literal(str(d), XSD_INTEGER)))
        g.insert(Triple(disk_iri, ON_PEG, pegs[state.peg_of[d]]))
    for i in range(state.n):
        for j in range(i + 1, state.n):
            g.insert(Triple(disks[i], SMALLER_THAN, disks[j]))
    return g


# ---------------------------------------------------------------------------
# Proposers
# ---------------------------------------------------------------------------


class Proposer:
    """Interface: (n, start, goal, feedback so far, episode rng) -> plan."""

    proposer_id = "abstract"

    def propose(self, n: int, start: HanoiState, goal: HanoiState,
                feedback: list[Violation], rng: random.Random) -> list[Move]:
        raise NotImplementedError


class OptimalProposer(Proposer):
    proposer_id = "optimal"

    def propose(self, n, start, goal, feedback, rng):
        return solve_from(start, goal)


class RandomLegalProposer(Proposer):
    """Seeded random legal walk; legal moves only, goal only by luck."""

    proposer_id = "random_legal"

    def propose(self, n, start, goal, feedback, rng):
        state = start
        plan: list[Move] = []
        for _ in range(2 ** n * 2):
            if state == goal:
                break
            options = legal_moves(state)
            move = options[rng.randrange(len(options))]
            plan.append(move)
            state = apply_move(state, move)
        return plan


class CorruptedProposer(Proposer):
    """Optimal plan with each move independently replaced by a uniformly
    random move with probability p: a controllable stand-in for a fallible
    planner."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("corruption probability must be in [0,1]")
        self.p = p
        self.proposer_id = f"corrupted:{p}"

    def propose(self, n, start, goal, feedback, rng):
        all_moves = list(_MOVES.values())
        plan = solve_from(start, goal)
        out = []
        for move in plan:
            if rng.random() < self.p:
                out.append(all_moves[rng.randrange(len(all_moves))])
            else:
                out.append(move)
        return out


_MOVE_TOKEN_RE = re.compile(r"^(\d+)->(\d+)$")


def parse_plan_line(line: str) -> list[Move]:
    """One plan per line, moves in from->to notation separated by whitespace."""
    moves = []
    for token in line.split():
        m = _MOVE_TOKEN_RE.match(token)
        if m is None:
            raise TranscriptError(f"unparsable move token {token!r}")
        moves.append(Move(int(m.group(1)), int(m.group(2))))
    return moves


class TranscriptProposer(Proposer):
    """Replays recorded plans: line r of the transcript is the proposal for
    repair round r. A directory reads all its .txt files in name order."""

    def __init__(self, path: str):
        self.proposer_id = f"transcript:{path}"
        lines = []
        try:
            files = ([os.path.join(path, name) for name in sorted(os.listdir(path)) if name.endswith(".txt")]
                     if os.path.isdir(path) else [path])
            for file in files:
                with open(file, encoding="utf-8") as fh:
                    lines.extend(line.strip() for line in fh if line.strip())
        except OSError as e:
            raise TranscriptError(f"cannot read transcript {path}: {e}") from e
        if not lines:
            raise TranscriptError(f"transcript {path} contains no plans")
        self.plans = [parse_plan_line(line) for line in lines]

    def propose(self, n, start, goal, feedback, rng):
        round_index = len(feedback)
        if round_index >= len(self.plans):
            raise TranscriptError(
                f"transcript exhausted: round {round_index} but only {len(self.plans)} plans recorded")
        return self.plans[round_index]


def make_proposer(spec: str) -> Proposer:
    """Parse a proposer spec: optimal | random | corrupted:P | transcript:PATH."""
    if spec == "optimal":
        return OptimalProposer()
    if spec == "random":
        return RandomLegalProposer()
    if spec.startswith("corrupted:"):
        return CorruptedProposer(float(spec.split(":", 1)[1]))
    if spec.startswith("transcript:"):
        return TranscriptProposer(spec.split(":", 1)[1])
    raise ValueError(f"unknown proposer spec {spec!r}")


# ---------------------------------------------------------------------------
# Episodes and benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeResult:
    success: bool
    moves_executed: int
    repair_rounds_used: int
    violations: tuple[Violation, ...]
    proposer_id: str


def run_episode(n: int, proposer: Proposer, max_repairs: int, seed: int,
                move_level: bool = False) -> EpisodeResult:
    """Propose -> execute -> (repair with violation feedback)* up to max_repairs.

    A plan-level (default) round restarts from the start state and succeeds
    only where its plan ends; a move-level round continues from the state
    the last one reached and succeeds as soon as it reaches the goal.
    """
    rng = random.Random(seed)
    start = HanoiState.initial(n, 0)
    goal = HanoiState.initial(n, 2)
    state, executed = start, 0
    feedback: list[Violation] = []
    for round_index in range(max_repairs + 1):
        if not move_level:
            state, executed = start, 0
        violation = None
        for move in proposer.propose(n, state, goal, list(feedback), rng):
            outcome = apply_move(state, move, executed)
            if isinstance(outcome, Violation):
                violation = outcome
                break
            state, executed = outcome, executed + 1
            if move_level and state == goal:
                break
        if violation is None and state == goal:
            return EpisodeResult(True, executed, round_index, tuple(feedback), proposer.proposer_id)
        feedback.append(violation or Violation(executed, ViolationReason.GOAL_MISS,
                                               f"stopped at {state.peg_of}, goal is {goal.peg_of}"))
    return EpisodeResult(False, executed, max_repairs, tuple(feedback), proposer.proposer_id)


def aggregate_cell(disks: int, proposer_id: str, max_repairs: int,
                   episodes: list[EpisodeResult]) -> dict:
    successes = [e for e in episodes if e.success]
    mean_moves = round(sum(e.moves_executed for e in successes) / len(successes), 3) if successes else None
    return {
        "disks": disks,
        "proposer": proposer_id,
        "max_repairs": max_repairs,
        "episodes": len(episodes),
        "successes": len(successes),
        "success_rate": round(len(successes) / len(episodes), 6),
        "mean_moves_on_success": mean_moves,
        "mean_repair_rounds": round(sum(e.repair_rounds_used for e in episodes) / len(episodes), 3),
    }


MAX_BENCH_DISKS = 20
MAX_BENCH_EPISODES = 10_000
MAX_BENCH_REPAIRS = 100


def run_benchmark(disks: list[int], proposers: list[str], episodes: int,
                  repairs: list[int], seed: int, move_level: bool = False) -> dict:
    """Per-(disk count, proposer, repair budget) cells; per-episode seeds are
    `seed` + episode index, so the same seeds pair across repair budgets.
    The params are those of `bench.hanoi.run`, which the report's `config`
    echoes."""
    if episodes < 1 or episodes > MAX_BENCH_EPISODES:
        raise ValueError(f"episodes must be in [1, {MAX_BENCH_EPISODES}]")
    if not disks or any(n < 1 or n > MAX_BENCH_DISKS for n in disks):
        raise ValueError(f"disk counts must be in [1, {MAX_BENCH_DISKS}]")
    if not repairs or any(r < 0 or r > MAX_BENCH_REPAIRS for r in repairs):
        raise ValueError(f"repair budgets must be in [0, {MAX_BENCH_REPAIRS}]")
    cells = []
    for spec in proposers:
        for n in disks:
            for budget in repairs:
                proposer = make_proposer(spec)
                results = [run_episode(n, proposer, budget, seed + i, move_level)
                           for i in range(episodes)]
                cells.append(aggregate_cell(n, proposer.proposer_id, budget, results))
    return {
        "config": {
            "disks": disks,
            "proposers": proposers,
            "episodes": episodes,
            "repairs": repairs,
            "seed": seed,
            "move_level": move_level,
        },
        "cells": cells,
        "table": format_benchmark_table(cells),
    }


def format_benchmark_table(cells: list[dict]) -> str:
    header = f"{'disks':>5}  {'proposer':<18} {'repairs':>7}  {'success':>8}  {'moves':>7}  {'rounds':>6}"
    lines = [header, "-" * len(header)]
    for c in cells:
        moves = f"{c['mean_moves_on_success']:.1f}" if c["mean_moves_on_success"] is not None else "-"
        rate = c["successes"] / c["episodes"]
        lines.append(f"{c['disks']:>5}  {c['proposer']:<18} {c['max_repairs']:>7}  "
                     f"{_pct(rate):>8}  {moves:>7}  {c['mean_repair_rounds']:>6.2f}")
    return "\n".join(lines)


def _pct(rate: float) -> str:
    return f"{rate * 100:.1f}%"


def format_comparison_table(rows: list[tuple[int, list[EpisodeResult], list[EpisodeResult]]]) -> str:
    """Paper-style baseline/augmented comparison rendered from episode logs.

    Each row is (disk count, baseline episodes, augmented episodes); rates are
    shown to one decimal with the absolute change in percentage points.
    """
    lines = ["Number of disks\tBaseline\tOntology-augmented\tAbsolute change"]
    for disks, baseline, augmented in rows:
        b = sum(e.success for e in baseline) / len(baseline)
        a = sum(e.success for e in augmented) / len(augmented)
        # change is computed between the displayed (rounded) percentages
        delta = round(a * 100, 1) - round(b * 100, 1)
        sign = "+" if delta > 0 else ""
        lines.append(f"{disks} disks\t{_pct(b)}\t{_pct(a)}\t{sign}{delta:.1f} p.p.")
    return "\n".join(lines)


def report_to_json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)
