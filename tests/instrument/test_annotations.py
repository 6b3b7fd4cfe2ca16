"""Manual-annotation tests."""

from repro.diagnostics import ReasonCode
from repro.frontend.parser import parse_source
from repro.instrument import select_sensors
from repro.instrument.annotations import Annotations, SnippetRef, apply_annotations
from repro.sensors import SensorType, identify_vsensors


SRC = """
global int c = 0;
int main() {
    int n; int k; int m;
    for (n = 0; n < 20; n = n + 1) {
        m = rand() % 4;
        for (k = 0; k < m + 3; k = k + 1) c = c + 1;
        for (k = 0; k < 8; k = k + 1) c = c + 1;
        MPI_Barrier();
    }
    return 0;
}
"""


def lines_of(src):
    """line numbers of the two inner loops and the barrier (7, 8, 9)."""
    return 7, 8, 9


def test_exclude_drops_identified_sensor():
    mod = parse_source(SRC)
    result = identify_vsensors(mod)
    fixed_loop_line = 8
    assert any(s.loc.line == fixed_loop_line for s in result.sensors)
    result, _notes = apply_annotations(result, Annotations(exclude=[SnippetRef("main", fixed_loop_line)]))
    assert not any(s.loc.line == fixed_loop_line for s in result.sensors)


def test_include_forces_rejected_snippet():
    mod = parse_source(SRC)
    result = identify_vsensors(mod)
    variant_loop_line = 7
    assert not any(s.loc.line == variant_loop_line for s in result.sensors)
    result, _notes = apply_annotations(result, Annotations(include=[SnippetRef("main", variant_loop_line)]))
    forced = [s for s in result.sensors if s.loc.line == variant_loop_line]
    assert len(forced) == 1
    assert forced[0].is_global
    assert forced[0].sensor_type is SensorType.COMPUTATION


def test_forced_sensor_is_selectable():
    mod = parse_source(SRC)
    result = identify_vsensors(mod)
    result, _notes = apply_annotations(result, Annotations(include=[SnippetRef("main", 7)]))
    plan = select_sensors(result)
    assert any(s.loc.line == 7 for s in plan.selected)


def test_include_of_already_identified_is_noop():
    mod = parse_source(SRC)
    result = identify_vsensors(mod)
    before = len(result.sensors)
    result, _notes = apply_annotations(result, Annotations(include=[SnippetRef("main", 8)]))
    assert len(result.sensors) == before


def test_include_of_unknown_location_ignored():
    mod = parse_source(SRC)
    result = identify_vsensors(mod)
    before = len(result.sensors)
    result, _notes = apply_annotations(result, Annotations(include=[SnippetRef("main", 999)]))
    assert len(result.sensors) == before


def test_forced_network_snippet_classified():
    src = """
    int main() {
        int n; int sz;
        for (n = 0; n < 5; n = n + 1) {
            sz = rand() % 8;
            MPI_Allreduce(sz + 1);
        }
        return 0;
    }
    """
    mod = parse_source(src)
    result = identify_vsensors(mod)
    # The allreduce's size varies: rejected (rand() itself is a fixed-cost
    # call and legitimately remains a sensor).
    assert not any(s.loc.line == 6 for s in result.sensors)
    result, _notes = apply_annotations(result, Annotations(include=[SnippetRef("main", 6)]))
    forced = [s for s in result.sensors if s.loc.line == 6]
    assert len(forced) == 1
    assert forced[0].sensor_type is SensorType.NETWORK


def test_annotation_step_leaves_its_input_unchanged():
    result = identify_vsensors(parse_source(SRC))
    before = list(result.sensors)
    marks = Annotations(
        include=[SnippetRef("main", 7)], exclude=[SnippetRef("main", 8)]
    )
    view, notes = apply_annotations(result, marks)
    assert result.sensors == before
    assert [s.loc.line for s in view.sensors if s.loc.line in (7, 8)] == [7]
    assert view.summaries is result.summaries
    assert [n.code for n in notes] == [ReasonCode.ANNOTATION_EXCLUDED]
