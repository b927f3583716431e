"""Unit tests for 2-D geometry and the spatial grid (repro.sim.space)."""

from __future__ import annotations

import math

import pytest

from repro.sim.space import SpatialGrid, Vec2


class TestVec2:
    def test_distance(self):
        assert Vec2(1, 1).distance_to(Vec2(4, 5)) == 5.0

    def test_lerp_endpoints_and_midpoint(self):
        a, b = Vec2(0, 0), Vec2(10, 20)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Vec2(5, 10)

    def test_immutability(self):
        v = Vec2(1, 2)
        with pytest.raises(Exception):
            v.x = 5


class TestSpatialGrid:
    def test_insert_and_query(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(0, 0))
        grid.insert(2, Vec2(5, 0))
        grid.insert(3, Vec2(50, 50))
        assert grid.query_radius(Vec2(0, 0), 10.0) == [1, 2]

    def test_query_excludes_requested_id(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(0, 0))
        grid.insert(2, Vec2(1, 1))
        assert grid.query_radius(Vec2(0, 0), 10.0, exclude=1) == [2]

    def test_query_radius_larger_than_cell(self):
        grid = SpatialGrid(cell_size=1.0)
        for i in range(10):
            grid.insert(i, Vec2(float(i), 0.0))
        found = grid.query_radius(Vec2(0, 0), 5.0)
        assert found == [0, 1, 2, 3, 4, 5]

    def test_boundary_is_inclusive(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(10, 0))
        assert grid.query_radius(Vec2(0, 0), 10.0) == [1]

    def test_move_between_cells(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(0, 0))
        grid.insert(1, Vec2(100, 100))
        assert grid.query_radius(Vec2(0, 0), 15.0) == []
        assert grid.query_radius(Vec2(100, 100), 15.0) == [1]
        assert len(grid) == 1

    def test_move_within_cell(self):
        grid = SpatialGrid(cell_size=100.0)
        grid.insert(1, Vec2(1, 1))
        grid.insert(1, Vec2(2, 2))
        assert grid.position(1) == Vec2(2, 2)
        assert len(grid) == 1

    def test_remove(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(0, 0))
        grid.remove(1)
        assert 1 not in grid
        assert grid.query_radius(Vec2(0, 0), 100.0) == []
        grid.remove(1)   # idempotent

    def test_negative_coordinates(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(-5, -5))
        grid.insert(2, Vec2(-95, -95))
        assert grid.query_radius(Vec2(0, 0), 10.0) == [1]

    def test_results_sorted(self):
        grid = SpatialGrid(cell_size=10.0)
        for i in reversed(range(20)):
            grid.insert(i, Vec2(0.1 * i, 0))
        assert grid.query_radius(Vec2(0, 0), 5.0) == list(range(20))

    def test_matches_brute_force(self):
        import random
        rng = random.Random(3)
        grid = SpatialGrid(cell_size=25.0)
        points = {}
        for i in range(200):
            p = Vec2(rng.uniform(-500, 500), rng.uniform(-500, 500))
            points[i] = p
            grid.insert(i, p)
        for _ in range(20):
            center = Vec2(rng.uniform(-500, 500), rng.uniform(-500, 500))
            radius = rng.uniform(0, 300)
            expected = sorted(
                i for i, p in points.items()
                if math.hypot(p.x - center.x, p.y - center.y) <= radius)
            assert grid.query_radius(center, radius) == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=0.0)
        grid = SpatialGrid(cell_size=1.0)
        with pytest.raises(ValueError):
            grid.query_radius(Vec2(0, 0), -1.0)

    def test_items_and_ids(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(1, Vec2(0, 0))
        grid.insert(2, Vec2(5, 5))
        assert sorted(grid.ids()) == [1, 2]
        assert dict(grid.items())[2] == Vec2(5, 5)


# --------------------------------------------------------------------------
# Property suites: randomized oracles for the grid and the shard partition
# --------------------------------------------------------------------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.shard.partition import ShardPlan  # noqa: E402

#: Coordinates stay well inside float-exact territory so the brute-force
#: oracle and the grid see literally the same arithmetic.
_COORD = st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False)
_IDS = st.integers(min_value=0, max_value=15)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _IDS, _COORD, _COORD),
        st.tuples(st.just("remove"), _IDS),
        st.tuples(st.just("query"), _COORD, _COORD,
                  st.floats(0.0, 500.0, allow_nan=False))),
    max_size=60)


class TestSpatialGridProperties:
    """Randomized op sequences vs a brute-force O(N) dict oracle."""

    @settings(max_examples=50, deadline=None)
    @given(ops=_OPS, cell=st.floats(1.0, 100.0, allow_nan=False))
    # 4.8e-257 squared underflows to 0.0: a squared-distance predicate
    # admits the point at radius 0, the distance itself does not.
    @example(ops=[("insert", 0, 0.0, 4.8e-257), ("query", 0.0, 0.0, 0.0)],
             cell=1.0)
    def test_op_sequences_match_brute_force(self, ops, cell):
        grid = SpatialGrid(cell_size=cell)
        oracle = {}
        for op in ops:
            if op[0] == "insert":        # insert *or* move, like the medium
                _, obj_id, x, y = op
                oracle[obj_id] = Vec2(x, y)
                grid.insert(obj_id, Vec2(x, y))
            elif op[0] == "remove":
                _, obj_id = op
                oracle.pop(obj_id, None)
                grid.remove(obj_id)
            else:
                _, x, y, radius = op
                center = Vec2(x, y)
                want = sorted(i for i, p in oracle.items()
                              if p.distance_to(center) <= radius)
                assert grid.query_radius(center, radius) == want
        assert len(grid) == len(oracle)
        assert sorted(grid.ids()) == sorted(oracle)
        for obj_id, pos in oracle.items():
            assert grid.position(obj_id) == pos

    @settings(max_examples=50, deadline=None)
    @given(ops=_OPS, cell=st.floats(1.0, 100.0, allow_nan=False),
           exclude=_IDS)
    def test_exclusion_never_changes_other_results(self, ops, cell,
                                                   exclude):
        grid = SpatialGrid(cell_size=cell)
        present = set()
        for op in ops:
            if op[0] == "insert":
                grid.insert(op[1], Vec2(op[2], op[3]))
                present.add(op[1])
            elif op[0] == "remove":
                grid.remove(op[1])
                present.discard(op[1])
            else:
                center = Vec2(op[1], op[2])
                full = grid.query_radius(center, op[3])
                thinned = grid.query_radius(center, op[3], exclude=exclude)
                assert thinned == [i for i in full if i != exclude]


class TestShardPlanProperties:
    """The partition invariants the sharded engine's exactness rests on.

    Worlds are generated at least K cells wide so every stripe is
    non-empty — the regime ``compute_ownership`` always produces (the
    extent spans the real node positions).
    """

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           shards=st.integers(1, 6),
           cell=st.floats(10.0, 200.0, allow_nan=False),
           min_x=st.floats(-2000.0, 2000.0, allow_nan=False))
    def test_every_position_has_exactly_one_owner(self, data, shards,
                                                  cell, min_x):
        plan = ShardPlan(min_x=min_x, max_x=min_x + shards * cell + 1.0,
                         shards=shards, cell_size=cell)
        lo = plan.stripe(0)[0]
        hi = plan.stripe(shards - 1)[1]
        xs = data.draw(st.lists(
            st.floats(lo, hi, allow_nan=False, exclude_max=True),
            min_size=1, max_size=20))
        for x in xs:
            pos = Vec2(x, data.draw(_COORD))
            containing = [s for s in range(shards)
                          if plan.stripe(s)[0] <= x < plan.stripe(s)[1]]
            assert len(containing) == 1, \
                f"x={x} owned by {containing}, stripes must partition"
            assert plan.shard_of(pos) == containing[0]

    @settings(max_examples=50, deadline=None)
    @given(shards=st.integers(1, 6),
           cell=st.floats(10.0, 200.0, allow_nan=False),
           min_x=st.floats(-2000.0, 2000.0, allow_nan=False))
    def test_stripes_tile_the_extent_contiguously(self, shards, cell,
                                                  min_x):
        plan = ShardPlan(min_x=min_x, max_x=min_x + shards * cell + 1.0,
                         shards=shards, cell_size=cell)
        for s in range(shards):
            start, stop = plan.columns[s]
            assert start < stop, "wide-enough worlds leave no shard empty"
            if s:
                assert plan.columns[s - 1][1] == start
        # Coverage stated in exact column-index arithmetic (the float
        # multiply-back ``start * cell`` may round past a subnormal
        # min_x, which compute_ownership's metre-scale extents never
        # produce): the extent's first and last grid columns fall
        # inside the stripes.
        assert plan.columns[0][0] == math.floor(plan.min_x
                                                / plan.cell_size)
        assert plan.columns[-1][1] > math.floor(plan.max_x
                                                / plan.cell_size)


class TestShardPlanTiles:
    """The 2-D generalisation: R x C tile grids against brute oracles."""

    @staticmethod
    def _plan(data, rows, cols, cell, min_x, min_y):
        return ShardPlan(min_x=min_x, max_x=min_x + cols * cell + 1.0,
                         shards=rows * cols, cell_size=cell, rows=rows,
                         min_y=min_y, max_y=min_y + rows * cell + 1.0)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           rows=st.integers(1, 4), cols=st.integers(1, 4),
           cell=st.floats(10.0, 200.0, allow_nan=False),
           min_x=st.floats(-2000.0, 2000.0, allow_nan=False),
           min_y=st.floats(-2000.0, 2000.0, allow_nan=False))
    def test_every_position_has_exactly_one_owning_tile(
            self, data, rows, cols, cell, min_x, min_y):
        plan = self._plan(data, rows, cols, cell, min_x, min_y)
        x_lo = plan.tile(0)[0]
        y_lo = plan.tile(0)[1] if rows > 1 else min_y
        x_hi = plan.tile(plan.shards - 1)[2]
        y_hi = plan.tile(plan.shards - 1)[3] if rows > 1 else min_y + 1.0
        for _ in range(10):
            pos = Vec2(
                data.draw(st.floats(x_lo, x_hi, allow_nan=False,
                                    exclude_max=True)),
                data.draw(st.floats(y_lo, y_hi, allow_nan=False,
                                    exclude_max=True)))
            containing = [
                s for s in range(plan.shards)
                if plan.tile(s)[0] <= pos.x < plan.tile(s)[2]
                and plan.tile(s)[1] <= pos.y < plan.tile(s)[3]]
            assert len(containing) == 1, \
                f"{pos} owned by {containing}, tiles must partition"
            assert plan.shard_of(pos) == containing[0]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           shards=st.integers(1, 6),
           cell=st.floats(10.0, 200.0, allow_nan=False),
           min_x=st.floats(-2000.0, 2000.0, allow_nan=False))
    def test_single_row_plan_is_bit_identical_to_the_stripe_plan(
            self, data, shards, cell, min_x):
        """rows=1 must reproduce the historical stripe ownership
        exactly — including never consulting y."""
        stripe_plan = ShardPlan(min_x=min_x,
                                max_x=min_x + shards * cell + 1.0,
                                shards=shards, cell_size=cell)
        tiled = ShardPlan(min_x=min_x, max_x=min_x + shards * cell + 1.0,
                          shards=shards, cell_size=cell, rows=1,
                          min_y=-123.0, max_y=456.0)
        assert tiled.columns == stripe_plan.columns
        pos = Vec2(data.draw(st.floats(min_x - 500.0, min_x + 3000.0,
                                       allow_nan=False)),
                   data.draw(st.floats(-1e6, 1e6, allow_nan=False)))
        assert tiled.shard_of(pos) == stripe_plan.shard_of(pos)

    def test_rows_must_divide_the_shard_count(self):
        with pytest.raises(ValueError):
            ShardPlan(min_x=0.0, max_x=1000.0, shards=4, cell_size=100.0,
                      rows=3, min_y=0.0, max_y=1000.0)

    def test_tall_plans_need_a_y_extent(self):
        with pytest.raises(ValueError):
            ShardPlan(min_x=0.0, max_x=1000.0, shards=4, cell_size=100.0,
                      rows=2)

    def test_row_major_tile_layout(self):
        plan = ShardPlan(min_x=0.0, max_x=400.0, shards=4,
                         cell_size=100.0, rows=2, min_y=0.0, max_y=400.0)
        assert plan.cols == 2
        # Shards 0,1 share the low row band; 2,3 the high one.
        assert plan.row_bands[0] == plan.row_bands[1]
        assert plan.row_bands[2] == plan.row_bands[3]
        assert plan.row_bands[0] != plan.row_bands[2]
        # Shards 0,2 share the low column band; 1,3 the high one.
        assert plan.columns[0] == plan.columns[2]
        assert plan.columns[1] == plan.columns[3]
        assert plan.shard_of(Vec2(50.0, 50.0)) == 0
        assert plan.shard_of(Vec2(350.0, 50.0)) == 1
        assert plan.shard_of(Vec2(50.0, 350.0)) == 2
        assert plan.shard_of(Vec2(350.0, 350.0)) == 3
