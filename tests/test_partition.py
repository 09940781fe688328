"""Tests for the partition subsystem: partitioner, Schur reduction, the
hierarchical engine and its wiring."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Analysis, engine_names, solver_names
from repro.cli import main as cli_main
from repro.errors import AnalysisError, SolverError
from repro.grid import GridSpec, generate_power_grid, stamp
from repro.grid.generator import spec_for_node_count
from repro.partition import (
    GridPartition,
    SchurComplement,
    SchurSolver,
    augment_partition,
    coordinate_bisection,
    default_atom_count,
    graph_bisection,
    node_coordinates,
    partition_matrix,
    partition_system,
    split_groups,
    system_partition,
    union_structure,
)
from repro.sim.linear import DirectSolver, make_solver
from repro.sweep import SweepPlan, SweepRunner


@pytest.fixture(scope="module")
def medium_stamped():
    """A 20x20 two-layer grid: big enough for meaningful 8-way partitions."""
    return stamp(generate_power_grid(GridSpec(nx=20, ny=20, seed=3, calibrate=False)))


@pytest.fixture(scope="module")
def partition_session():
    """A small shared analysis session for engine-level comparisons."""
    return Analysis.from_spec(500, seed=5).with_transient(t_stop=1.6e-9, dt=0.2e-9)


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------
class TestPartitioner:
    def test_coordinate_bisection_balances_and_is_deterministic(self):
        coords = np.array([(i, j) for i in range(10) for j in range(10)], dtype=float)
        first = coordinate_bisection(coords, 4)
        second = coordinate_bisection(coords, 4)
        assert np.array_equal(first, second)
        counts = np.bincount(first, minlength=4)
        assert counts.sum() == 100
        assert counts.min() >= 20

    def test_graph_bisection_covers_all_nodes(self, medium_stamped):
        structure = union_structure(medium_stamped.conductance, medium_stamped.capacitance)
        assignments = graph_bisection(structure, 3)
        assert assignments.shape == (medium_stamped.num_nodes,)
        assert set(np.unique(assignments)) == {0, 1, 2}

    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4, 8])
    def test_partition_system_is_a_separator(self, medium_stamped, num_parts):
        partition = partition_system(medium_stamped, num_parts)
        assert partition.num_parts == num_parts
        structure = union_structure(medium_stamped.conductance, medium_stamped.capacitance)
        partition.validate_against(structure)  # raises on a bad separator
        covered = np.sort(np.concatenate([partition.boundary, *partition.interiors]))
        assert np.array_equal(covered, np.arange(medium_stamped.num_nodes))

    def test_single_part_has_empty_interface(self, medium_stamped):
        partition = partition_system(medium_stamped, 1)
        assert partition.boundary.size == 0
        assert partition.interior_sizes == (medium_stamped.num_nodes,)

    def test_node_coordinates_parses_generator_names(self):
        coords = node_coordinates(("n0_1_2", "n1_0_5"))
        assert np.array_equal(coords, np.array([[1.0, 2.0], [0.0, 5.0]]))
        assert node_coordinates(("n0_1_2", "other")) is None

    def test_graph_fallback_for_unparseable_names(self):
        # A ring graph with opaque node names exercises the BFS path.
        n = 24
        rows = np.arange(n)
        cols = (rows + 1) % n
        matrix = sp.coo_matrix((np.ones(n), (rows, cols)), shape=(n, n)) + sp.eye(n)
        matrix = matrix + matrix.T
        partition = partition_matrix(matrix.tocsr(), 2)
        assert partition.num_parts == 2
        partition.validate_against(matrix.tocsr())

    def test_partition_rejects_bad_part_counts(self, medium_stamped):
        with pytest.raises(AnalysisError):
            partition_system(medium_stamped, 0)

    def test_augment_partition_lifts_every_chaos_block(self, medium_stamped):
        partition = partition_system(medium_stamped, 2)
        lifted = augment_partition(partition, 3)
        n = medium_stamped.num_nodes
        assert lifted.num_nodes == 3 * n
        assert lifted.boundary.size == 3 * partition.boundary.size
        expected = np.sort(np.concatenate([partition.boundary + j * n for j in range(3)]))
        assert np.array_equal(lifted.boundary, expected)

    def test_partition_stats_are_json_friendly(self, medium_stamped):
        import json

        stats = partition_system(medium_stamped, 4).stats()
        assert json.loads(json.dumps(stats)) == stats

    def test_default_atom_count_scales_with_size(self):
        assert default_atom_count(50) == 1
        assert default_atom_count(500) == 2
        assert default_atom_count(2000) == 4
        assert default_atom_count(50_000) == 8

    def test_grid_partition_rejects_partial_cover(self):
        with pytest.raises(AnalysisError):
            GridPartition(
                num_nodes=4,
                interiors=(np.array([0, 1]),),
                boundary=np.array([2]),
                assignments=np.zeros(4, dtype=int),
            )

    def test_split_groups_is_contiguous_and_even(self):
        assert split_groups([0, 1, 2, 3, 4], 2) == [[0, 1, 2], [3, 4]]
        assert split_groups([0, 1], 8) == [[0], [1]]
        assert split_groups([0, 1, 2], 1) == [[0, 1, 2]]


# ---------------------------------------------------------------------------
# Schur complement reduction
# ---------------------------------------------------------------------------
class TestSchur:
    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4, 8])
    def test_matches_direct_solver(self, medium_stamped, num_parts):
        conductance = medium_stamped.conductance
        rhs = medium_stamped.rhs(1.0e-9)
        reference = DirectSolver(conductance).solve(rhs)
        partition = partition_system(medium_stamped, num_parts)
        solution = SchurComplement(conductance.tocsr(), partition).solve(rhs)
        assert np.max(np.abs(solution - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_solve_many_matches_column_solves(self, medium_stamped):
        conductance = medium_stamped.conductance
        rhs = medium_stamped.rhs(0.0)
        columns = np.column_stack([rhs, 0.5 * rhs, rhs**2])
        solver = SchurSolver(conductance, num_parts=4)
        expected = DirectSolver(conductance).solve_many(columns)
        assert np.allclose(solver.solve_many(columns), expected, rtol=0, atol=1e-12)

    def test_registered_backend_and_stats(self, medium_stamped):
        assert "schur" in solver_names()
        solver = make_solver(medium_stamped.conductance, method="schur", num_parts=2)
        assert solver.stats["num_parts"] == 2
        assert solver.stats["interface_nodes"] > 0
        assert solver.stats["factor_time_s"] >= 0

    def test_rejects_non_square_and_mismatched_partition(self, medium_stamped):
        with pytest.raises(SolverError):
            SchurSolver(sp.csr_matrix(np.ones((3, 4))))
        partition = partition_system(medium_stamped, 2)
        with pytest.raises(SolverError):
            SchurComplement(sp.eye(3, format="csr"), partition)

    def test_validates_supplied_partition(self):
        # A dense 4x4 matrix couples everything; two fake interiors violate
        # the separator property and must be rejected.
        matrix = sp.csr_matrix(np.eye(4) * 4 + np.ones((4, 4)))
        bad = GridPartition(
            num_nodes=4,
            interiors=(np.array([0, 1]), np.array([2, 3])),
            boundary=np.empty(0, dtype=int),
            assignments=np.array([0, 0, 1, 1]),
        )
        with pytest.raises(AnalysisError):
            SchurSolver(matrix, partition=bad)

    def test_ten_thousand_node_grid_matches_direct_to_1e9(self):
        """Acceptance: nominal Schur solve on a >=10k-node grid, <=1e-9 rel."""
        spec = spec_for_node_count(10_000, seed=1, calibrate=False)
        stamped = stamp(generate_power_grid(spec))
        assert stamped.num_nodes >= 10_000
        conductance = stamped.conductance
        rhs = stamped.rhs(0.0)
        reference = DirectSolver(conductance).solve(rhs)
        for num_parts in (4, 8):
            partition = partition_system(stamped, num_parts)
            solution = SchurSolver(conductance, partition=partition).solve(rhs)
            relative = np.max(np.abs(solution - reference)) / np.max(np.abs(reference))
            assert relative <= 1e-9


# ---------------------------------------------------------------------------
# The hierarchical engine
# ---------------------------------------------------------------------------
class TestHierarchicalEngine:
    def test_registered(self):
        assert "hierarchical" in engine_names()

    def test_matches_opera_with_matrix_variation(self, partition_session):
        opera = partition_session.run("opera", order=2)
        hier = partition_session.run("hierarchical", order=2)
        assert np.allclose(hier.mean(), opera.mean(), rtol=1e-6, atol=0)
        assert np.allclose(hier.std(), opera.std(), rtol=1e-6, atol=1e-12)
        assert hier.engine == "hierarchical"
        assert hier.partition_stats["num_parts"] >= 1

    def test_matches_opera_rhs_only_corner(self):
        from repro.sweep.plan import corner_spec

        session = Analysis.from_spec(
            400, seed=9, variation=corner_spec("rhs-only")
        ).with_transient(t_stop=1.2e-9, dt=0.2e-9)
        opera = session.run("opera", order=2)
        hier = session.run("hierarchical", order=2)
        assert np.allclose(hier.mean(), opera.mean(), rtol=1e-6, atol=0)
        assert np.allclose(hier.std(), opera.std(), rtol=1e-6, atol=1e-12)

    def test_bit_identical_across_partition_counts(self, partition_session):
        reference = None
        for partitions in (1, 2, 4, 8):
            result = partition_session.run("hierarchical", order=2, partitions=partitions)
            stats = (result.mean(), result.std())
            if reference is None:
                reference = stats
            else:
                assert np.array_equal(reference[0], stats[0])
                assert np.array_equal(reference[1], stats[1])

    def test_bit_identical_with_worker_pool(self, partition_session):
        serial = partition_session.run("hierarchical", order=1, partitions=2)
        pooled = partition_session.run("hierarchical", order=1, partitions=2, workers=2)
        assert np.array_equal(serial.mean(), pooled.mean())
        assert np.array_equal(serial.std(), pooled.std())

    def test_dc_mode_matches_opera_dc(self, partition_session):
        opera = partition_session.run("opera", mode="dc", order=2)
        hier = partition_session.run("hierarchical", mode="dc", order=2)
        assert np.allclose(hier.mean(), opera.mean(), rtol=1e-9, atol=0)
        assert np.allclose(hier.std(), opera.std(), rtol=1e-6, atol=1e-14)

    def test_store_coefficients_round_trip(self, partition_session):
        full = partition_session.run("hierarchical", order=1, store_coefficients=True)
        lean = partition_session.run("hierarchical", order=1)
        assert np.allclose(full.mean(), lean.mean(), rtol=0, atol=1e-14)
        assert np.allclose(full.std(), lean.std(), rtol=0, atol=1e-14)
        assert full.raw.coefficients is not None

    def test_to_dict_reports_partition(self, partition_session):
        summary = partition_session.run("hierarchical", order=1).to_dict()
        assert summary["engine"] == "hierarchical"
        assert summary["partition"]["interface_nodes"] > 0
        assert summary["partition"]["groups"] >= 1

    def test_atoms_override_changes_tiling(self, partition_session):
        result = partition_session.run("hierarchical", order=1, atoms=3)
        assert result.partition_stats["num_parts"] == 3

    def test_dc_mode_rejects_schedule_options(self, partition_session):
        with pytest.raises(AnalysisError):
            partition_session.run("hierarchical", mode="dc", partitions=2)
        with pytest.raises(AnalysisError):
            partition_session.run("hierarchical", mode="dc", workers=2)

    def test_rejects_unknown_options_and_bad_values(self, partition_session):
        with pytest.raises(AnalysisError):
            partition_session.run("hierarchical", bogus=1)
        with pytest.raises(AnalysisError):
            partition_session.run("hierarchical", partitions=0)
        with pytest.raises(AnalysisError):
            partition_session.run("hierarchical", workers=0)
        with pytest.raises(AnalysisError):
            partition_session.run("hierarchical", mode="nonsense")

    def test_system_partition_respects_sensitivity_structure(self, partition_session):
        partition = system_partition(partition_session.system, 2)
        structure = union_structure(
            partition_session.system.g_nominal, partition_session.system.c_nominal
        )
        partition.validate_against(structure)


# ---------------------------------------------------------------------------
# Sweep and CLI wiring
# ---------------------------------------------------------------------------
class TestWiring:
    def test_sweep_plan_builds_hierarchical_cases(self):
        plan = SweepPlan.grid([200], engines=("opera", "hierarchical"), orders=(2,), partitions=2)
        names = [case.name for case in plan]
        assert "hierarchical-n200-o2-p2-paper" in names
        hier = next(c for c in plan if c.engine == "hierarchical")
        assert hier.run_options()["partitions"] == 2
        assert hier.key()[-1] == 2

    def test_sweep_runs_hierarchical_case(self):
        plan = SweepPlan.grid([200], engines=("opera", "hierarchical"), orders=(1,), partitions=2)
        outcome = SweepRunner(keep_statistics=True).run(plan)
        opera = outcome.case(engine="opera")
        hier = outcome.case(engine="hierarchical")
        assert hier.partitions == 2
        assert np.allclose(hier.mean, opera.mean, rtol=1e-6, atol=0)
        record = hier.to_record()
        assert record["partitions"] == 2

    def test_partitions_rejected_for_other_engines(self):
        from repro.sweep import SweepCase

        with pytest.raises(AnalysisError):
            SweepCase(engine="opera", nodes=100, partitions=2)

    def test_record_round_trip_keeps_partitions(self, tmp_path):
        from repro.sweep import BenchRecord, record_from_outcome

        plan = SweepPlan.grid([200], engines=("hierarchical",), orders=(1,), partitions=2)
        outcome = SweepRunner().run(plan)
        record = record_from_outcome(outcome)
        path = record.write(tmp_path / "record.json")
        loaded = BenchRecord.load(path)
        (key,) = loaded.case_map().keys()
        assert key[-1] == 2

    def test_old_records_without_partitions_still_match(self):
        from repro.sweep import BenchRecord

        legacy_case = {
            "name": "opera-n100-o2-paper",
            "engine": "opera",
            "nodes": 100,
            "num_nodes": 104,
            "corner": "paper",
            "order": 2,
            "samples": None,
            "seed": 1,
            "wall_time_s": 0.1,
            "worst_drop_v": 0.05,
            "max_std_v": 0.01,
            "speedup_vs_mc": None,
        }
        record = BenchRecord(cases=(legacy_case,))
        (key,) = record.case_map().keys()
        assert key == ("opera", 100, 2, None, "paper", None)

    def test_cli_analyze_hierarchical(self, capsys):
        exit_code = cli_main(
            [
                "analyze",
                "--synthetic-nodes",
                "200",
                "--engine",
                "hierarchical",
                "--partitions",
                "2",
                "--t-stop",
                "1.2e-9",
            ]
        )
        assert exit_code == 0
        assert "worst node" in capsys.readouterr().out

    def test_cli_sweep_with_partitions(self, tmp_path, capsys):
        output = tmp_path / "record.json"
        exit_code = cli_main(
            [
                "sweep",
                "--nodes",
                "200",
                "--engines",
                "hierarchical",
                "--steps",
                "4",
                "--partitions",
                "2",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert "hierarchical-n200-o2-p2-paper" in capsys.readouterr().out
        assert output.exists()
