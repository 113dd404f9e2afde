import copy
import json

import pytest

from sdnsim.cli import plan_row
from sdnsim.mitigation import (
    LOOP_PRIORITY,
    REDIRECT_PRIORITY,
    RETURN_PRIORITY,
    SCRUBBER_CAPACITY_BPS,
    MitigationError,
    MitigationPlan,
    RuleEdit,
    apply,
    plan_scrubber,
)
from sdnsim.routing import BASE_PRIORITY, FlowKey, FlowRule, RuleTable, handle_packet_in
from sdnsim.simnet import SimConfig, run
from sdnsim.topology import NodeId, NodeKind, build_grid

from rule_paths import trace_path


def attack_state(suspicious_hosts, legit_hosts=("h1s1",)):
    topo = build_grid(3, 4, 3)
    server = NodeId.host(0, 0)
    topo.server = server
    rules = RuleTable()
    server_ip = topo.ip_of[server]
    suspicious_ips = []
    for name in suspicious_hosts:
        slot, _, edge = name[1:].partition("s")
        host = NodeId.host(int(edge), int(slot))
        ip = topo.ip_of[host]
        suspicious_ips.append(ip)
        handle_packet_in(rules, topo, FlowKey(ip, server_ip))
    legit_ips = []
    for name in legit_hosts:
        slot, _, edge = name[1:].partition("s")
        ip = topo.ip_of[NodeId.host(int(edge), int(slot))]
        legit_ips.append(ip)
        handle_packet_in(rules, topo, FlowKey(ip, server_ip))
    return topo, rules, server_ip, suspicious_ips, legit_ips


def test_single_flow_plan_shape():
    topo, rules, server_ip, (attacker_ip,), _ = attack_state(["h1s3"])
    plan = plan_scrubber(server_ip, [attacker_ip], topo, rules)
    assert plan.scrubber == NodeId.scrubber(0)
    assert plan.scrubber.name == "s200"
    assert plan.attach_to == topo.edge_of_host(topo.server)

    deletes = [e for e in plan.rule_edits if e.op == "delete"]
    adds = [e for e in plan.rule_edits if e.op == "add"]
    assert len(deletes) == 1 and len(adds) == 3
    assert [e.rule.priority for e in adds] == [
        REDIRECT_PRIORITY,
        RETURN_PRIORITY,
        LOOP_PRIORITY,
    ]
    redirect, turn, loop = (e.rule for e in adds)
    assert deletes[0].rule.priority == BASE_PRIORITY
    assert redirect.out_port == 200
    assert turn.in_port == 201
    assert turn.match_src is None
    assert turn.out_port == deletes[0].rule.out_port  # original server port
    assert loop.switch.kind is NodeKind.SCRUBBER
    assert loop.out_port == 201


def test_throttled_return_link_parameters():
    topo, rules, server_ip, suspicious_ips, _ = attack_state(["h1s3"])
    plan = plan_scrubber(server_ip, suspicious_ips, topo, rules)
    unconstrained, throttled = plan.links
    assert not unconstrained.constrained
    assert throttled.capacity == 12_500.0
    assert throttled.queue_cap == 1000


def test_plan_requires_suspicious_sources():
    topo, rules, server_ip, _, _ = attack_state(["h1s3"])
    with pytest.raises(MitigationError, match="no suspicious sources"):
        plan_scrubber(server_ip, [], topo, rules)


def test_five_flows_one_scrubber_and_single_detour_each():
    names = ["h1s3", "h2s5", "h0s7", "h1s9", "h2s2"]
    topo, rules, server_ip, suspicious_ips, legit_ips = attack_state(names)
    plan = plan_scrubber(server_ip, suspicious_ips, topo, rules)
    assert len([e for e in plan.rule_edits if e.op == "delete"]) == 5
    # 5 redirects + 5 loops + 1 shared return rule
    assert len([e for e in plan.rule_edits if e.op == "add"]) == 11

    apply(plan, topo, rules)
    assert len(topo.by_kind(NodeKind.SCRUBBER)) == 1
    for ip in suspicious_ips:
        path = trace_path(topo, rules, FlowKey(ip, server_ip))
        assert sum(1 for n in path if n.kind is NodeKind.SCRUBBER) == 1
        assert path[-1] == topo.server


def test_legit_paths_and_reverse_paths_untouched():
    topo, rules, server_ip, suspicious_ips, legit_ips = attack_state(
        ["h1s3", "h2s5"], legit_hosts=("h1s1", "h0s4")
    )
    legit_keys = [FlowKey(ip, server_ip) for ip in legit_ips]
    reverse_keys = [FlowKey(server_ip, ip) for ip in suspicious_ips + legit_ips]
    before = {k: trace_path(topo, rules, k) for k in legit_keys + reverse_keys}
    plan = plan_scrubber(server_ip, suspicious_ips, topo, rules)
    apply(plan, topo, rules)
    for key, path in before.items():
        assert trace_path(topo, rules, key) == path


def test_same_edge_attacker_detours_once():
    topo, rules, server_ip, (attacker_ip,), _ = attack_state(["h2s0"])
    plan = plan_scrubber(server_ip, [attacker_ip], topo, rules)
    apply(plan, topo, rules)
    path = trace_path(topo, rules, FlowKey(attacker_ip, server_ip))
    names = [n.name for n in path]
    assert names == ["h2s0", "e0", "s200", "e0", "h0s0"]


def test_apply_is_atomic_on_bad_plan():
    topo, rules, server_ip, suspicious_ips, _ = attack_state(["h1s3"])
    plan = plan_scrubber(server_ip, suspicious_ips, topo, rules)
    plan.rule_edits.append(
        RuleEdit(
            "delete",
            FlowRule(NodeId.edge(1), "10.0.9.9", server_ip, 1, BASE_PRIORITY),
        )
    )
    topo_before, rules_before = copy.deepcopy(topo), copy.deepcopy(rules)
    # The message names the rule: its switch, its match and its priority.
    with pytest.raises(MitigationError, match=(
            rf"cannot delete missing rule \(10\.0\.9\.9, {server_ip}, prio 20001\) on e1$")):
        apply(plan, topo, rules)
    assert (topo, topo.version) == (topo_before, topo_before.version)
    assert rules == rules_before


def test_apply_rejects_double_scrubber():
    # A second plan on the server's edge switch, for a source that still has
    # its base rule there, is made; applying it fails and changes nothing,
    # whether its shared return rule clashes or only its scrubber does.
    topo, rules, server_ip, (attacker_ip,), (legit_ip,) = attack_state(["h1s3"])
    apply(plan_scrubber(server_ip, [attacker_ip], topo, rules), topo, rules)
    second = plan_scrubber(server_ip, [legit_ip], topo, rules)
    assert second.attach_to == topo.edge_of_host(topo.server)
    topo_before, rules_before = copy.deepcopy(topo), copy.deepcopy(rules)
    with pytest.raises(MitigationError, match="duplicate rule"):
        apply(second, topo, rules)
    second.rule_edits = [e for e in second.rule_edits if e.rule.priority != RETURN_PRIORITY]
    with pytest.raises(MitigationError, match="duplicate node s200$"):
        apply(second, topo, rules)
    assert (topo, topo.version) == (topo_before, topo_before.version)
    assert rules == rules_before


def test_redirect_inherits_deleted_rule_counters():
    topo, rules, server_ip, (attacker_ip,), _ = attack_state(["h1s3"])
    edge = topo.edge_of_host(topo.server)
    entry = rules.find(edge, attacker_ip, server_ip)
    entry.packets, entry.bytes = 123, 45_600
    plan = plan_scrubber(server_ip, [attacker_ip], topo, rules)
    apply(plan, topo, rules)
    redirect = rules.find(edge, attacker_ip, server_ip)
    assert redirect.priority == REDIRECT_PRIORITY
    assert (redirect.packets, redirect.bytes) == (123, 45_600)


def test_apply_rejects_an_add_onto_a_match_taken_at_another_priority():
    # A dst-only rule toward the server on its edge takes the match of the
    # plan's shared return rule, at another priority: a match holds one rule,
    # so the dry run fails before the topology or any rule changes.
    topo, rules, server_ip, suspicious_ips, _ = attack_state(["h1s3"])
    plan = plan_scrubber(server_ip, suspicious_ips, topo, rules)
    edge = plan.attach_to
    rules.install(FlowRule(edge, None, server_ip, topo.port_toward(edge, topo.server),
                           BASE_PRIORITY))
    topo_before, rules_before = copy.deepcopy(topo), copy.deepcopy(rules)
    with pytest.raises(MitigationError, match=(
            rf"^cannot add duplicate rule \(None, {server_ip}, prio {RETURN_PRIORITY}\) "
            rf"on {edge}$")):
        apply(plan, topo, rules)
    assert (topo, topo.version) == (topo_before, topo_before.version)
    assert rules == rules_before


def test_plan_refuses_a_flow_whose_match_holds_a_redirect():
    # After one detour the attacker's match on the server's edge holds the
    # redirect, not the base rule, so a second plan for it is refused.
    topo, rules, server_ip, (attacker_ip,), _ = attack_state(["h1s3"])
    apply(plan_scrubber(server_ip, [attacker_ip], topo, rules), topo, rules)
    edge = topo.edge_of_host(topo.server)
    assert rules.find(edge, attacker_ip, server_ip).priority == REDIRECT_PRIORITY
    with pytest.raises(MitigationError, match=(
            rf"^no base rule for suspicious flow {attacker_ip}->{server_ip} on {edge}$")):
        plan_scrubber(server_ip, [attacker_ip], topo, rules)


def test_mitigated_attacker_is_throttled_while_legit_flows_match_control():
    def scenario():
        topo = build_grid(3, 4, 3)
        server = NodeId.host(0, 0)
        topo.server = server
        attacker = NodeId.host(3, 1)
        legit = NodeId.host(1, 1)
        topo.attackers = {attacker}
        rates = {attacker: 100.0, legit: 5.0}
        cfg = SimConfig(duration=10.0, poll_interval=5.0, attack_start=0.0,
                        request_bytes=1000, response_bytes=1000)
        rules = RuleTable()
        server_ip = topo.ip_of[server]
        a_ip, l_ip = topo.ip_of[attacker], topo.ip_of[legit]
        handle_packet_in(rules, topo, FlowKey(a_ip, server_ip))
        handle_packet_in(rules, topo, FlowKey(l_ip, server_ip))
        return topo, rules, rates, cfg, server_ip, a_ip, l_ip

    # control: no mitigation
    topo, rules, rates, cfg, server_ip, a_ip, l_ip = scenario()
    control = run(topo, rules, rates, cfg)
    assert control.flows[(a_ip, server_ip)].delivered_bytes == 100_000 * 10

    # mitigated: scrubber applied before traffic starts
    topo, rules, rates, cfg, server_ip, a_ip, l_ip = scenario()
    apply(plan_scrubber(server_ip, [a_ip], topo, rules), topo, rules)
    mitigated = run(topo, rules, rates, cfg)

    throttled = mitigated.flows[(a_ip, server_ip)]
    assert throttled.delivered_bytes <= SCRUBBER_CAPACITY_BPS * cfg.duration
    assert throttled.delivered_bytes < control.flows[(a_ip, server_ip)].delivered_bytes
    # the legitimate flow is byte-for-byte identical to the control run
    for key in ((l_ip, server_ip), (server_ip, l_ip)):
        assert mitigated.flows[key] == control.flows[key]


def test_plan_serialization_is_stable():
    topo, rules, server_ip, suspicious_ips, _ = attack_state(["h1s3", "h2s5"])
    plan = plan_scrubber(server_ip, suspicious_ips, topo, rules)
    assert json.dumps(plan_row(plan)) == json.dumps(plan_row(plan))
    assert plan_row(plan)["scrubber"] == "s200"


def test_plan_for_an_unknown_target_is_refused():
    topo = build_grid(2, 2, 1)
    rules = RuleTable()
    handle_packet_in(rules, topo, FlowKey("10.0.1.0", topo.ip_of[topo.server]))
    before = copy.deepcopy((topo, rules))
    with pytest.raises(MitigationError, match="unknown target 10.9.9.9"):
        plan_scrubber("10.9.9.9", ["10.0.1.0"], topo, rules)
    assert (topo, rules) == before
