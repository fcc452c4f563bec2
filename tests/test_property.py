"""Property-based cross-check: the CTG reference against MH-QNF.

Random block-free single-segment roads of at most six sections, with at most
one pit, are solved in-process with the bundled adapter's own functions. The
two models must reach the same optimum, both solutions must validate, their
offsets must re-price by the transport oracle to the objective, and the CTG
solution must re-price to its objective.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from valign import milp_solve
from valign.builder import build, named_config
from valign.gateway import Solution, decode
from valign.instance import Pit
from valign.mps import emit_mps_text
from valign.oracle import allocation_cost
from valign.validate import recompute_cost, validate

from conftest import make_instance

GAP = 1e-6


@st.composite
def block_free_roads(draw):
    n = draw(st.integers(min_value=4, max_value=6))
    spacing = draw(st.floats(min_value=20.0, max_value=500.0))
    level = st.floats(min_value=97.0, max_value=103.0)
    elevations = draw(st.lists(level, min_size=n, max_size=n))
    areas = draw(st.lists(st.floats(min_value=5.0, max_value=50.0),
                          min_size=n, max_size=n))
    materials = draw(st.lists(st.integers(min_value=1, max_value=4),
                              min_size=n, max_size=n))
    pits = []
    if draw(st.booleans()):
        pits.append(Pit(kind=draw(st.sampled_from(("borrow", "waste"))),
                        attached_section=draw(st.integers(2, n - 1)),
                        capacity=draw(st.floats(50.0, 500.0)),
                        dead_haul=draw(st.floats(5.0, 100.0))))
    # The flat road at 100 m lies inside the +-4 m offset window, and no
    # quadratic follows the terrain, so some earthwork is forced. The
    # optimum seldom uses the pit; test_validate prices CTG pit arcs.
    return make_instance(
        elevations, spacing=spacing, areas=areas, materials=materials,
        offset=4.0,
        borrow=[p for p in pits if p.kind == "borrow"],
        waste=[p for p in pits if p.kind == "waste"])


def solve_in_process(instance, config_name):
    config = named_config(config_name)
    model = build(instance, config)
    parsed = milp_solve.parse_mps(emit_mps_text(model))
    status, objective, x = milp_solve.solve_parsed(parsed, 60.0, GAP)
    assert status == "optimal", status
    values = {name: float(x[parsed.col_index[name]])
              for name in parsed.columns}
    solution = Solution(status, objective, values, 0.0)
    return config, decode(solution, instance, config, model=model)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(block_free_roads())
def test_ctg_matches_mhqnf_and_reprices(instance):
    ctg_config, ctg = solve_in_process(instance, "CTG-B")
    mqn_config, mqn = solve_in_process(instance, "MQN-B")
    scale = max(1.0, abs(ctg.objective))
    assert abs(mqn.objective - ctg.objective) <= 2.0 * GAP * scale

    for config, result in ((ctg_config, ctg), (mqn_config, mqn)):
        # x itself, not only the objective: another optimal vertex must
        # still be an optimal allocation at its own offsets.
        oracle_cost = allocation_cost(instance, result.offsets)
        assert abs(oracle_cost - result.objective) <= GAP * scale
        report = validate(instance, config, result, tolerance=1e-6,
                          relative=True)
        assert report.passed, report.summary()
    recomputed = recompute_cost(instance, ctg_config, ctg)
    assert abs(recomputed - ctg.objective) <= 1e-5 * scale
