"""Instance model: geometry, cost breakpoints, big-M sizing, block sets."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from valign.bench import ROAD_TEMPLATES, generate_instance
from valign.instance import (
    Block,
    HaulClass,
    InstanceError,
    Pit,
    big_m,
    block_access_sets,
    cheapest_haul,
    cheapest_haul_costs,
    default_cost_model,
    evaluate_grade,
    evaluate_profile,
    global_big_m,
    sealed_regions,
)

from conftest import make_instance


def test_default_cost_model_values():
    cm = default_cost_model()
    assert [m.excavation for m in cm.materials] == [4.0, 4.0, 20.0, 4.0]
    assert [m.embankment for m in cm.materials] == [2.0, 2.0, 1.8, 2.0]
    assert [(h.loading_cost, h.unit_haul_cost) for h in cm.hauls] == [
        (0.0, 0.008), (0.6, 0.004), (2.6, 0.002)]


def test_cheapest_haul_breakpoints():
    cm = default_cost_model()
    # short below 150 m, middle between, long above 1000 m
    assert cheapest_haul(cm, 100.0)[0] == 0
    assert cheapest_haul(cm, 500.0)[0] == 1
    assert cheapest_haul(cm, 2000.0)[0] == 2
    # crossover arithmetic is exact
    assert 0.008 * 150 == 0.6 + 0.004 * 150
    assert 0.6 + 0.004 * 1000 == 2.6 + 0.002 * 1000


def test_cheapest_haul_cost_value():
    cm = default_cost_model()
    idx, cost = cheapest_haul(cm, 40.0)
    assert idx == 0
    assert cost == pytest.approx(0.008 * 40.0)


def test_cheapest_haul_costs_match_the_scalar_form():
    # Same doubles as cheapest_haul, the crossovers (exact ties) included.
    cm = default_cost_model()
    rng = random.Random(3)
    distances = [0.0, 150.0, 1000.0, 149.99999999999997, 1e7] + [
        rng.uniform(0.0, 3000.0) for _ in range(500)]
    costs = cheapest_haul_costs(cm, np.array(distances))
    assert costs.tolist() == [cheapest_haul(cm, d)[1] for d in distances]


def test_profile_and_grade():
    inst = make_instance([100] * 6, segments=[3, 3])
    coeffs = [(2.0, -0.05, 0.001), (2.0, -0.05, 0.001)]
    sigma = 7.0
    assert inst.profile(coeffs, sigma) == pytest.approx(
        2.0 - 0.05 * sigma + 0.001 * sigma * sigma)
    # finite-difference check of the grade, away from the segment joint
    rng = random.Random(5)
    for _ in range(20):
        c = [(rng.uniform(-5, 5), rng.uniform(-0.1, 0.1),
              rng.uniform(-0.001, 0.001)) for _ in range(2)]
        s = rng.uniform(1.0, 55.0)
        eps = 1e-5
        fd = (inst.profile(c, s + eps) - inst.profile(c, s - eps)) / (2 * eps)
        assert inst.grade(c, s) == pytest.approx(fd, rel=1e-6, abs=1e-9)
    # A joint belongs to the later segment, and the road's far end to the
    # last one; the exported forms agree with the instance's.
    c = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]
    layout, stations = inst.segment_layout, inst.stations
    for station, value, grade in ((60.0, 4.0, 5.0),
                                  (100.0, 4.0 + 5.0 * 40 + 6.0 * 1600,
                                   5.0 + 12.0 * 40)):
        assert inst.profile(c, station) == value
        assert evaluate_profile(c, layout, stations, station) == value
        assert inst.grade(c, station) == grade
        assert evaluate_grade(c, layout, stations, station) == grade
    for station in (-0.5, 100.5):
        for evaluate in (inst.profile, inst.grade):
            with pytest.raises(ValueError, match=r"outside road extent "
                               r"\[0\.0, 100\.0\]"):
                evaluate(c, station)
        with pytest.raises(ValueError, match="outside road extent"):
            evaluate_profile(c, layout, stations, station)
        with pytest.raises(ValueError, match="outside road extent"):
            evaluate_grade(c, layout, stations, station)


def spelled_out_frame(sizes, stations):
    """Per section (segment, sigma) and per segment (start, end), walked
    segment by segment."""
    segment, sigma, start, end = [], [], [], []
    first = 0
    for g, size in enumerate(sizes):
        start.append(stations[first])
        end.append(stations[first + size] if g < len(sizes) - 1
                   else stations[-1])
        for i in range(first, first + size):
            segment.append(g)
            sigma.append(stations[i] - start[g])
        first += size
    return segment, sigma, start, end


def test_local_coordinate_and_spans():
    inst = make_instance([100] * 6, segments=[3, 3])
    frame = inst.frame
    # a segment's polynomial covers up to the next segment's first station
    assert frame.start.tolist() == [0.0, 60.0]
    assert frame.end.tolist() == [60.0, 100.0]
    # segment-local coordinates restart at each segment start
    assert frame.segment.tolist() == [0, 0, 0, 1, 1, 1]
    assert frame.sigma.tolist() == [0.0, 20.0, 40.0, 0.0, 20.0, 40.0]
    assert not frame.sigma.flags.writeable
    # The same on every generated road, bit for bit.
    for template in "ABCDEFG":
        for variant in (1, 2, 3):
            road = generate_instance(1, ROAD_TEMPLATES[template], variant)
            expected = spelled_out_frame(road.segment_layout.segment_sizes,
                                         road.stations)
            got = (road.frame.segment, road.frame.sigma, road.frame.start,
                   road.frame.end)
            assert [values.tolist() for values in got] == list(expected)


def test_distance_symmetry():
    inst = make_instance([100] * 4)
    assert inst.distance(1, 4) == 60.0
    assert inst.distance(4, 1) == 60.0
    assert inst.distance(2, 2) == 0.0


def test_big_m_from_area_and_offsets():
    inst = make_instance([100] * 3, areas=[10, 20, 30], offset=2.0)
    assert big_m(inst, 2) == pytest.approx(20 * 2.0)
    total = sum(big_m(inst, i) for i in range(1, 4))
    assert global_big_m(inst) == pytest.approx(total)


def test_global_big_m_includes_borrow_capacity():
    pit = Pit(kind="borrow", attached_section=2, capacity=77.0,
              dead_haul=10.0)
    base = make_instance([100] * 3, areas=[10, 10, 10], offset=1.0)
    with_pit = make_instance([100] * 3, areas=[10, 10, 10], offset=1.0,
                             borrow=[pit])
    assert global_big_m(with_pit) == pytest.approx(global_big_m(base) + 77.0)


def test_block_access_sets_pairs_and_sides():
    inst = make_instance([100] * 9, blocks=[3, 6], access=[4])
    pairs, left, right = block_access_sets(inst)
    # access road sits strictly between the two blocks: pair is broken
    assert pairs == ()
    # no access left of block at 3, none right of block at 6
    assert left == (1,)
    assert right == (2,)
    # as (blocks, lo, hi): sections 1..3 behind block 1, 6..9 behind block 2
    assert sealed_regions(inst) == (((1,), 1, 3), ((2,), 6, 9))


def test_block_access_sets_gated_pair():
    inst = make_instance([100] * 9, blocks=[3, 6], access=[2, 8])
    pairs, left, right = block_access_sets(inst)
    assert pairs == ((1, 2),)
    assert left == ()
    assert right == ()
    region, = sealed_regions(inst)
    assert region == ((1, 2), 3, 6)
    # a pit strictly between the two blocks is inside
    assert [section for section in range(1, 10)
            if region.admits(section)] == [4, 5]


def test_block_access_sets_order_invariance():
    a = make_instance([100] * 9, blocks=[6, 3], access=[2, 8])
    b = make_instance([100] * 9, blocks=[3, 6], access=[8, 2])
    assert block_access_sets(a) == block_access_sets(b)
    assert sealed_regions(a) == sealed_regions(b) == (((1, 2), 3, 6),)


def test_invalid_instances_rejected():
    with pytest.raises(InstanceError):
        make_instance([100] * 3, blocks=[1])  # block on a boundary section
    with pytest.raises(InstanceError):
        make_instance([100] * 3, borrow=[Pit("borrow", 3, 10.0, 5.0)])
    with pytest.raises(InstanceError):
        make_instance([100] * 4, segments=[2, 3])  # sizes exceed sections
    with pytest.raises(InstanceError):
        make_instance([100, 100], slope=(0.1, -0.1))  # inverted bounds
    # A copy is made, so it is checked too.
    inst = make_instance([100] * 3)
    with pytest.raises(InstanceError, match="block must sit on an interior"):
        replace(inst, blocks=(Block(section=1),))
    with pytest.raises(InstanceError, match="slope_lo must be < slope_hi"):
        replace(inst, slope_lo=0.2)


def test_volume_curve_interpolation():
    from valign.instance import VolumeCurve
    curve = VolumeCurve(section=1, offsets=(-1.0, 0.0, 1.0),
                        cut=(0.0, 0.0, 50.0), fill=(40.0, 0.0, 0.0))
    assert curve.cut_at(0.5) == pytest.approx(25.0)
    assert curve.fill_at(-0.25) == pytest.approx(10.0)
    assert curve.cut_at(-0.7) == 0.0


def test_haul_class_is_hashable_value():
    h = HaulClass("short", loading_cost=0.0, unit_haul_cost=0.008)
    assert h == HaulClass("short", 0.0, 0.008)
