"""Static-rule tests (§3.1, Fig. 5)."""

from repro.diagnostics import ReasonCode
from repro.frontend.parser import parse_source
from repro.sensors import FixedDestinationRule, SensorType, identify_vsensors
from repro.sensors.rules import TypeFilterRule


NET_SRC = """
int main() {
    int n; int peer;
    peer = MPI_Comm_rank() + 1;
    for (n = 0; n < 5; n = n + 1) {
        MPI_Send(3, 64);
        MPI_Send(peer, 64);
    }
    return 0;
}
"""


def test_fixed_destination_rule_keeps_constant_dest():
    result = identify_vsensors(parse_source(NET_SRC), static_rules=[FixedDestinationRule()])
    dests = [s.snippet.node.args[0] for s in result.sensors]
    from repro.frontend import ast_nodes as A

    assert len(result.sensors) == 1
    assert isinstance(dests[0], A.IntLit)


def test_without_rule_both_sends_are_sensors():
    result = identify_vsensors(parse_source(NET_SRC))
    # Both sends have fixed size; destination is not a default workload factor.
    assert len(result.sensors) == 2


def test_more_strict_rules_produce_fewer_sensors():
    """Fig. 5: stricter static rules -> fewer sensors."""
    plain = identify_vsensors(parse_source(NET_SRC))
    strict = identify_vsensors(parse_source(NET_SRC), static_rules=[FixedDestinationRule()])
    assert len(strict.sensors) < len(plain.sensors)


def test_stacked_rules_veto_what_either_vetoes():
    src = """
    global int c = 0;
    int main() {
        int n; int k; int peer;
        peer = MPI_Comm_rank() + 1;
        for (n = 0; n < 5; n = n + 1) {
            for (k = 0; k < 4; k = k + 1) c = c + 1;
            MPI_Send(3, 64);
            MPI_Send(peer, 64);
        }
        return 0;
    }
    """
    net_only = TypeFilterRule({SensorType.NETWORK})
    stacked = identify_vsensors(
        parse_source(src), static_rules=[net_only, FixedDestinationRule()]
    )
    # The compute loop falls to the type filter, the rank-relative send to
    # the destination rule: only the constant-destination send is left.
    assert [s.loc.line for s in stacked.sensors] == [8]
    vetoed = {
        r.snippet.loc.line
        for r in stacked.rejections
        if r.code is ReasonCode.STATIC_RULE_VETO
    }
    assert vetoed == {7, 9}


def test_type_filter_rule():
    src = """
    global int c = 0;
    int main() {
        int n; int k;
        for (n = 0; n < 5; n = n + 1) {
            for (k = 0; k < 4; k = k + 1) c = c + 1;
            MPI_Barrier();
        }
        return 0;
    }
    """
    only_net = identify_vsensors(
        parse_source(src), static_rules=[TypeFilterRule({SensorType.NETWORK})]
    )
    assert all(s.sensor_type is SensorType.NETWORK for s in only_net.sensors)
    assert len(only_net.sensors) >= 1


def test_rule_does_not_touch_non_network_sensors():
    src = """
    global int c = 0;
    int main() {
        int n; int k;
        for (n = 0; n < 5; n = n + 1) { for (k = 0; k < 4; k = k + 1) c = c + 1; }
        return 0;
    }
    """
    plain = identify_vsensors(parse_source(src))
    ruled = identify_vsensors(parse_source(src), static_rules=[FixedDestinationRule()])
    assert len(plain.sensors) == len(ruled.sensors)
