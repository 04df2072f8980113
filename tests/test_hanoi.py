import random
import tracemalloc

import pytest

from ontomem.hanoi import (
    CorruptedProposer,
    EpisodeResult,
    HanoiState,
    Move,
    OptimalProposer,
    RandomLegalProposer,
    TranscriptError,
    TranscriptProposer,
    Violation,
    ViolationReason,
    apply_move,
    format_comparison_table,
    graph_move,
    legal_moves,
    make_proposer,
    parse_plan_line,
    report_to_json_text,
    run_benchmark,
    run_episode,
    solve_from,
    solve_optimal,
    state_to_graph,
    verify_plan,
)
from ontomem.shacl import parse_shapes, validate
from ontomem.turtle_io import parse_turtle
from ontomem.rdf_core import isomorphic
from conftest import DATA
from oracles import (
    all_states,
    oracle_apply,
    oracle_bfs_distance,
    oracle_distances_from,
    oracle_legal_moves,
    oracle_solve_from,
)


def hanoi_shapes():
    graph, _ = parse_turtle((DATA / "hanoi_shapes.ttl").read_text(encoding="utf-8"))
    shapes, _ = parse_shapes(graph)
    return shapes


class TestWorldModel:
    def test_initial_state_two_moves(self):
        state = HanoiState.initial(3)
        assert {(m.from_peg, m.to_peg) for m in legal_moves(state)} == {(0, 1), (0, 2)}

    def test_single_disk_two_moves(self):
        for peg in range(3):
            assert len(legal_moves(HanoiState(1, (peg,)))) == 2

    def test_apply_legal_move(self):
        state = HanoiState.initial(3)
        nxt = apply_move(state, Move(0, 2))
        assert nxt.peg_of == (2, 0, 0)
        assert state.peg_of == (0, 0, 0)  # input untouched

    def test_larger_on_smaller(self):
        state = apply_move(HanoiState.initial(3), Move(0, 2))
        bad = apply_move(state, Move(0, 2))
        assert isinstance(bad, Violation)
        assert bad.reason is ViolationReason.LARGER_ON_SMALLER

    def test_empty_source(self):
        out = apply_move(HanoiState.initial(2), Move(1, 2))
        assert isinstance(out, Violation) and out.reason is ViolationReason.EMPTY_SOURCE

    def test_same_peg_and_malformed(self):
        state = HanoiState.initial(2)
        assert apply_move(state, Move(1, 1)).reason is ViolationReason.SAME_PEG
        assert apply_move(state, Move(0, 7)).reason is ViolationReason.MALFORMED

    def test_exhaustive_vs_oracle_small(self):
        for n in (1, 2, 3, 4):
            for peg_of in all_states(n):
                state = HanoiState(n, peg_of)
                ours = {(m.from_peg, m.to_peg) for m in legal_moves(state)}
                assert ours == oracle_legal_moves(peg_of)
                for move in ours:
                    got = apply_move(state, Move(*move))
                    assert got.peg_of == oracle_apply(peg_of, move)


class TestVerifyPlan:
    def test_optimal_plan_ok(self):
        start, goal = HanoiState.initial(3, 0), HanoiState.initial(3, 2)
        plan = solve_optimal(3)
        final = verify_plan(start, plan, goal)
        assert isinstance(final, HanoiState) and final == goal

    def test_first_violation_reported(self):
        start, goal = HanoiState.initial(3, 0), HanoiState.initial(3, 2)
        outcome = verify_plan(start, [Move(0, 2), Move(0, 2)], goal)
        assert isinstance(outcome, Violation)
        assert outcome.move_index == 1
        assert outcome.reason is ViolationReason.LARGER_ON_SMALLER

    def test_goal_miss_at_plan_length(self):
        start, goal = HanoiState.initial(2, 0), HanoiState.initial(2, 2)
        outcome = verify_plan(start, [Move(0, 1)], goal)
        assert outcome.reason is ViolationReason.GOAL_MISS
        assert outcome.move_index == 1


class TestSolveOptimal:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_length_and_validity(self, n):
        plan = solve_optimal(n)
        assert len(plan) == 2 ** n - 1
        final = verify_plan(HanoiState.initial(n, 0), plan, HanoiState.initial(n, 2))
        assert isinstance(final, HanoiState)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_bfs_distance(self, n):
        assert len(solve_optimal(n)) == oracle_bfs_distance(n, (0,) * n, (2,) * n)


class TestSolveFrom:
    def test_equals_bfs_plan_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for peg_of in all_states(n):
                for peg in range(3):
                    start, goal = HanoiState(n, peg_of), HanoiState.initial(n, peg)
                    assert solve_from(start, goal) == oracle_solve_from(start, goal), (peg_of, peg)

    def test_legal_and_shortest_exhaustive(self):
        # 9,837 (state, goal peg) pairs; one reverse BFS per (n, goal)
        for n in range(1, 8):
            for peg in range(3):
                goal = HanoiState.initial(n, peg)
                distance = oracle_distances_from(n, goal.peg_of)
                for peg_of in all_states(n):
                    start = HanoiState(n, peg_of)
                    plan = solve_from(start, goal)
                    assert verify_plan(start, plan, goal) == goal, (peg_of, peg)
                    assert len(plan) == distance[peg_of], (peg_of, peg)

    def test_from_perfect_tower_is_classical_recursion(self):
        for n in range(1, 9):
            assert solve_from(HanoiState.initial(n, 0), HanoiState.initial(n, 2)) == solve_optimal(n)

    def test_goal_must_be_perfect_tower(self):
        start = HanoiState.initial(3, 0)
        with pytest.raises(ValueError):
            solve_from(start, HanoiState(3, (2, 2, 1)))
        with pytest.raises(ValueError):
            solve_from(start, HanoiState.initial(4, 2))

    def test_16_disk_plans_share_move_values(self):
        # 65,535 moves as references to six shared values take about 0.5 MiB;
        # one Move object per step would take about 6 MiB.
        plan = solve_optimal(16)
        mid = HanoiState.initial(16)
        for move in plan[:40_000]:
            mid = apply_move(mid, move)
        del plan
        goal = HanoiState.initial(16, 2)
        for solve in (lambda: solve_optimal(16), lambda: solve_from(mid, goal)):
            tracemalloc.start()
            try:
                solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20


class TestStateToGraph:
    def test_counts_n1(self):
        g = state_to_graph(HanoiState.initial(1))
        from ontomem.hanoi import DISK_CLASS, ON_PEG, PEG_CLASS, SMALLER_THAN
        from ontomem.namespaces import RDF_TYPE
        from ontomem.rdf_core import Iri
        assert len(g.match(None, Iri(RDF_TYPE), DISK_CLASS)) == 1
        assert len(g.match(None, Iri(RDF_TYPE), PEG_CLASS)) == 3
        assert len(g.match(None, ON_PEG, None)) == 1
        assert len(g.match(None, SMALLER_THAN, None)) == 0

    def test_smaller_than_pairs_n3(self):
        from ontomem.hanoi import SMALLER_THAN
        g = state_to_graph(HanoiState.initial(3))
        assert len(g.match(None, SMALLER_THAN, None)) == 3  # C(3,2)

    def test_any_state_conforms(self):
        shapes = hanoi_shapes()
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            peg_of = tuple(rng.randrange(3) for _ in range(n))
            report = validate(state_to_graph(HanoiState(n, peg_of)), shapes)
            assert report.conforms

    def test_representation_soundness_exhaustive(self):
        # state-level legality == graph-level executability; outputs agree and conform
        shapes = hanoi_shapes()
        all_moves = [Move(f, t) for f in range(3) for t in range(3) if f != t]
        for n in (1, 2, 3, 4):
            for peg_of in all_states(n):
                state = HanoiState(n, peg_of)
                g = state_to_graph(state)
                legal = {(m.from_peg, m.to_peg) for m in legal_moves(state)}
                for move in all_moves:
                    graph_out = graph_move(g, move)
                    state_out = apply_move(state, move)
                    if (move.from_peg, move.to_peg) in legal:
                        assert not isinstance(graph_out, Violation)
                        assert isomorphic(graph_out, state_to_graph(state_out))
                        assert validate(graph_out, shapes).conforms
                    else:
                        assert isinstance(graph_out, Violation)
                        assert graph_out.reason is state_out.reason


class TestProposers:
    def test_optimal_episodes_succeed_without_repairs(self):
        for n in range(1, 9):
            result = run_episode(n, OptimalProposer(), max_repairs=0, seed=0)
            assert result.success and result.repair_rounds_used == 0
            assert result.moves_executed == 2 ** n - 1

    def test_fully_corrupted_fails_without_repairs(self):
        failures = 0
        for seed in range(100):
            result = run_episode(3, CorruptedProposer(1.0), max_repairs=0, seed=seed)
            failures += 0 if result.success else 1
        assert failures >= 95  # all-random plans essentially never verify

    def test_corrupted_determinism(self):
        a = run_episode(4, CorruptedProposer(0.3), max_repairs=2, seed=11)
        b = run_episode(4, CorruptedProposer(0.3), max_repairs=2, seed=11)
        assert a == b

    def test_random_legal_proposer_moves_are_legal(self):
        result = run_episode(3, RandomLegalProposer(), max_repairs=0, seed=5)
        # only possible failure mode is a goal miss
        assert result.success or all(
            v.reason is ViolationReason.GOAL_MISS for v in result.violations)

    def test_transcript_replay_repairs(self, tmp_path):
        good = " ".join(m.notation() for m in solve_optimal(3))
        path = tmp_path / "plans.txt"
        path.write_text("0->1 0->1\n" + good + "\n", encoding="utf-8")
        result = run_episode(3, TranscriptProposer(str(path)), max_repairs=1, seed=0)
        assert result.success and result.repair_rounds_used == 1
        assert result.violations[0].reason is ViolationReason.LARGER_ON_SMALLER

    def test_transcript_directory_reads_files_in_order(self, tmp_path):
        (tmp_path / "a_round0.txt").write_text("0->1 0->1\n", encoding="utf-8")
        good = " ".join(m.notation() for m in solve_optimal(3))
        (tmp_path / "b_round1.txt").write_text(good + "\n", encoding="utf-8")
        result = run_episode(3, TranscriptProposer(str(tmp_path)), max_repairs=1, seed=0)
        assert result.success and result.repair_rounds_used == 1

    def test_transcript_missing_file(self):
        with pytest.raises(TranscriptError):
            TranscriptProposer("/nonexistent/plans.txt")

    def test_transcript_unparsable(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0->1 junk 2->0\n", encoding="utf-8")
        with pytest.raises(TranscriptError):
            TranscriptProposer(str(path))

    def test_parse_plan_line(self):
        assert parse_plan_line("0->2 1->0") == [Move(0, 2), Move(1, 0)]

    def test_make_proposer_specs(self):
        assert isinstance(make_proposer("optimal"), OptimalProposer)
        assert isinstance(make_proposer("corrupted:0.25"), CorruptedProposer)
        with pytest.raises(ValueError):
            make_proposer("llm")


class TestMoveLevel:
    def test_optimal_succeeds(self):
        result = run_episode(3, OptimalProposer(), max_repairs=0, seed=0, move_level=True)
        assert result.success and result.moves_executed == 7

    def test_solve_from_arbitrary_state(self):
        start = HanoiState(3, (2, 0, 1))
        goal = HanoiState.initial(3, 2)
        plan = solve_from(start, goal)
        assert isinstance(verify_plan(start, plan, goal), HanoiState)
        assert len(plan) == oracle_bfs_distance(3, start.peg_of, goal.peg_of)

    def test_repairs_resume_from_reached_state(self):
        # heavily corrupted proposer: move-level repair keeps legal prefixes
        result = run_episode(3, CorruptedProposer(0.5), max_repairs=40, seed=2, move_level=True)
        assert result.success
        assert result.repair_rounds_used <= 40

    def test_deterministic(self):
        a = run_episode(4, CorruptedProposer(0.3), max_repairs=5, seed=9, move_level=True)
        b = run_episode(4, CorruptedProposer(0.3), max_repairs=5, seed=9, move_level=True)
        assert a == b

    def test_failure_when_budget_exhausted(self):
        result = run_episode(4, CorruptedProposer(1.0), max_repairs=1, seed=0, move_level=True)
        assert not result.success
        assert len(result.violations) == 2  # initial proposal + one repair


class TestBenchmark:
    def test_optimal_row_always_succeeds(self):
        report = run_benchmark([1, 2, 3], ["optimal"], episodes=5, repairs=[0], seed=0)
        assert all(cell["success_rate"] == 1.0 for cell in report["cells"])

    def test_config_bounds_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([49], ["optimal"], episodes=1, repairs=[0], seed=0)
        with pytest.raises(ValueError):
            run_benchmark([3], ["optimal"], episodes=0, repairs=[0], seed=0)
        with pytest.raises(ValueError):
            run_benchmark([3], ["optimal"], episodes=1, repairs=[-1], seed=0)

    def test_deterministic_report_bytes(self):
        kwargs = dict(disks=[3], proposers=["corrupted:0.2"], episodes=30,
                      repairs=[0, 2], seed=9)
        a = report_to_json_text(run_benchmark(**kwargs))
        b = report_to_json_text(run_benchmark(**kwargs))
        assert a == b

    def test_repair_monotone_with_paired_seeds(self):
        rates = {}
        for budget in (0, 1, 3):
            report = run_benchmark([3, 4], ["corrupted:0.1"], episodes=60,
                                   repairs=[budget], seed=100)
            for cell in report["cells"]:
                rates[(cell["disks"], budget)] = cell["success_rate"]
        for n in (3, 4):
            assert rates[(n, 0)] <= rates[(n, 1)] <= rates[(n, 3)]

    def test_comparison_table_renders_fixture_rates(self):
        def synthetic(successes, total):
            return [EpisodeResult(i < successes, 7, 0, (), "synthetic") for i in range(total)]

        rows = [
            (3, synthetic(5, 19), synthetic(7, 21)),    # 26.3% -> 33.3%
            (4, synthetic(7, 21), synthetic(7, 21)),    # 33.3% -> 33.3%
            (5, synthetic(5, 11), synthetic(5, 11)),    # 45.5% -> 45.5%
            (6, synthetic(0, 10), synthetic(0, 10)),    # 0.0% -> 0.0%
        ]
        table = format_comparison_table(rows)
        assert "26.3%" in table and "33.3%" in table and "45.5%" in table and "0.0%" in table
