// Package progs holds the benchmark suite of §8.1 (Table 3): P4lite
// replicas of the open-source programs the paper verifies, plus accessors
// for the generated production-scale programs. Each program carries at
// least one seeded invalid-header-access bug, the benchmarking property
// the paper borrows from p4v.
package progs

import (
	"fmt"
	"sort"
	"strings"

	"aquila/internal/p4"
)

// Benchmark bundles a program with the component call order its spec uses.
type Benchmark struct {
	Name   string
	Source string
	// Calls is the LPI program-block call order.
	Calls []string
	// Meta mirrors Table 3's structural columns.
	Pipes        int
	ParserStates int
	Tables       int
}

// SimpleRouter is the classic ipv4 forwarding example (Table 3 row 1).
// Seeded bug: ipv4_lpm is applied without an ipv4.isValid() guard.
const SimpleRouter = `
// simple_router.p4 — L3 forwarding with TTL decrement.
header ethernet_t { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
header ipv4_t {
	bit<8>  versionIhl;
	bit<8>  diffserv;
	bit<16> totalLen;
	bit<16> identification;
	bit<16> fragOffset;
	bit<8>  ttl;
	bit<8>  protocol;
	bit<16> hdrChecksum;
	bit<32> srcAddr;
	bit<32> dstAddr;
}
struct routing_metadata_t { bit<32> nhop_ipv4; }

ethernet_t ethernet;
ipv4_t ipv4;
routing_metadata_t routing_metadata;

parser RouterParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 { extract(ipv4); transition accept; }
}

control RouterIngress {
	action set_nhop(bit<32> nhop_ipv4, bit<9> port) {
		routing_metadata.nhop_ipv4 = nhop_ipv4;
		std_meta.egress_spec = port;
		ipv4.ttl = ipv4.ttl - 1;
	}
	action set_dmac(bit<48> dmac) { ethernet.dstAddr = dmac; }
	action rewrite_mac(bit<48> smac) { ethernet.srcAddr = smac; }
	action a_drop() { drop(); }
	table ipv4_lpm {
		key = { ipv4.dstAddr : lpm; }
		actions = { set_nhop; a_drop; }
		default_action = a_drop;
	}
	table forward {
		key = { routing_metadata.nhop_ipv4 : exact; }
		actions = { set_dmac; a_drop; }
		default_action = a_drop;
	}
	table send_frame {
		key = { std_meta.egress_port : exact; }
		actions = { rewrite_mac; a_drop; }
		default_action = a_drop;
	}
	table acl {
		key = { ipv4.srcAddr : ternary; }
		actions = { a_drop; }
	}
	apply {
		// BUG(seeded): ipv4_lpm reads ipv4.dstAddr without checking
		// ipv4.isValid() — a non-IPv4 packet reaches the table.
		ipv4_lpm.apply();
		if (ipv4.isValid()) {
			forward.apply();
			acl.apply();
		}
		send_frame.apply();
	}
}

deparser RouterDeparser {
	emit(ethernet);
	emit(ipv4);
	update_checksum(ipv4.hdrChecksum, ipv4.versionIhl, ipv4.ttl, ipv4.protocol, ipv4.srcAddr, ipv4.dstAddr);
}

pipeline router { parser = RouterParser; control = RouterIngress; deparser = RouterDeparser; }
`

// NetPaxosAcceptor replicates the SOSR'15 NetPaxos acceptor (row 2).
// Seeded bug: paxos fields accessed when only the UDP branch guarantees
// extraction.
const NetPaxosAcceptor = `
// netpaxos_acceptor.p4 — Paxos acceptor logic in the data plane.
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> src; bit<32> dst; }
header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> length_; bit<16> checksum; }
header paxos_t {
	bit<32> inst;
	bit<16> proposal;
	bit<16> vproposal;
	bit<8>  msgtype;
	bit<32> acpt;
	bit<32> val;
}
struct local_md_t { bit<16> round; bit<1> set_drop; }

ethernet_t ethernet;
ipv4_t ipv4;
udp_t udp;
paxos_t paxos;
local_md_t local_md;

register<bit<16>>(64000) rounds_register;
register<bit<16>>(64000) vproposals_register;
register<bit<32>>(64000) vals_register;

parser AcceptorParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			17: parse_udp;
			default: accept;
		}
	}
	state parse_udp {
		extract(udp);
		transition select(udp.dstPort) {
			0x8888: parse_paxos;
			default: accept;
		}
	}
	state parse_paxos { extract(paxos); transition accept; }
}

control AcceptorIngress {
	action read_round() {
		rounds_register.read(local_md.round, 0);
		local_md.set_drop = 1;
	}
	action handle_1a() {
		rounds_register.write(0, paxos.proposal);
		vproposals_register.read(paxos.vproposal, 0);
		vals_register.read(paxos.val, 0);
		paxos.msgtype = 2;
	}
	action handle_2a() {
		rounds_register.write(0, paxos.proposal);
		vproposals_register.write(0, paxos.proposal);
		vals_register.write(0, paxos.val);
		paxos.msgtype = 4;
	}
	action a_drop() { drop(); }
	action forward(bit<9> port) { std_meta.egress_spec = port; }
	table round_tbl {
		key = { }
		actions = { read_round; }
		default_action = read_round;
	}
	table paxos_tbl {
		key = { paxos.msgtype : exact; }
		actions = { handle_1a; handle_2a; a_drop; }
		default_action = a_drop;
	}
	table fwd_tbl {
		key = { std_meta.ingress_port : exact; }
		actions = { forward; a_drop; }
		default_action = a_drop;
	}
	table drop_tbl {
		key = { local_md.set_drop : exact; }
		actions = { a_drop; }
	}
	apply {
		// BUG(seeded): paxos_tbl keyed on paxos.msgtype is reachable for
		// non-Paxos packets (no udp/paxos validity guard).
		round_tbl.apply();
		if (paxos.msgtype < 8) {
			paxos_tbl.apply();
		}
		fwd_tbl.apply();
		drop_tbl.apply();
	}
}

deparser AcceptorDeparser { emit(ethernet); emit(ipv4); emit(udp); emit(paxos); }
pipeline acceptor { parser = AcceptorParser; control = AcceptorIngress; deparser = AcceptorDeparser; }
`

// NetPaxosCoordinator replicates the NetPaxos coordinator (row 3).
const NetPaxosCoordinator = `
// netpaxos_coordinator.p4 — assigns Paxos instance numbers.
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> src; bit<32> dst; }
header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> length_; bit<16> checksum; }
header paxos_t { bit<32> inst; bit<16> proposal; bit<8> msgtype; }

ethernet_t ethernet;
ipv4_t ipv4;
udp_t udp;
paxos_t paxos;

register<bit<32>>(1) instance_register;

parser CoordParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			17: parse_udp;
			default: accept;
		}
	}
	state parse_udp {
		extract(udp);
		transition select(udp.dstPort) {
			0x8888: parse_paxos;
			default: accept;
		}
	}
	state parse_paxos { extract(paxos); transition accept; }
}

control CoordIngress {
	action increase_instance() {
		// BUG(seeded): paxos.inst written without a validity guard on the
		// paxos header.
		instance_register.read(paxos.inst, 0);
		paxos.inst = paxos.inst + 1;
		instance_register.write(0, paxos.inst);
	}
	action forward(bit<9> port) { std_meta.egress_spec = port; }
	table seq_tbl {
		key = { paxos.msgtype : exact; }
		actions = { increase_instance; }
	}
	table fwd_tbl {
		key = { std_meta.ingress_port : exact; }
		actions = { forward; }
	}
	apply {
		seq_tbl.apply();
		fwd_tbl.apply();
	}
}

deparser CoordDeparser { emit(ethernet); emit(ipv4); emit(udp); emit(paxos); }
pipeline coordinator { parser = CoordParser; control = CoordIngress; deparser = CoordDeparser; }
`

// NDP replicates the SIGCOMM'17 NDP switch component (row 4): trimming
// and priority queueing for a receiver-driven transport.
const NDP = `
// ndp.p4 — NDP switch: trim payloads under congestion, bounce headers.
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> tos; bit<16> totalLen; bit<8> ttl; bit<8> protocol; bit<32> src; bit<32> dst; }
header ndp_t { bit<16> flags; bit<16> pull; bit<32> seq; }
struct ndp_md_t { bit<1> trimmed; bit<1> bounced; bit<8> qdepth; }

ethernet_t ethernet;
ipv4_t ipv4;
ndp_t ndp;
ndp_md_t ndp_md;

parser NDPParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			0x99: parse_ndp;
			default: accept;
		}
	}
	state parse_ndp { extract(ndp); transition accept; }
}

control NDPIngress {
	action route(bit<9> port) { std_meta.egress_spec = port; ipv4.ttl = ipv4.ttl - 1; }
	action trim() { ndp_md.trimmed = 1; ipv4.totalLen = 64; }
	action bounce() {
		ndp_md.bounced = 1;
		ipv4.dst = ipv4.src;
		ipv4.src = ipv4.dst;
	}
	action set_prio_high() { ipv4.tos = 1; }
	action set_prio_low() { ipv4.tos = 0; }
	action a_drop() { drop(); }
	action mark_pull() { ndp.pull = ndp.pull + 1; }
	table route_tbl {
		key = { ipv4.dst : lpm; }
		actions = { route; a_drop; }
		default_action = a_drop;
	}
	table trim_tbl {
		key = { ndp_md.qdepth : range; }
		actions = { trim; a_drop; }
	}
	table bounce_tbl {
		key = { ndp.flags : ternary; }
		actions = { bounce; }
	}
	table prio_tbl {
		key = { ndp_md.trimmed : exact; }
		actions = { set_prio_high; set_prio_low; }
		default_action = set_prio_low;
	}
	table pull_tbl {
		key = { ndp.flags : exact; }
		actions = { mark_pull; }
	}
	table ctrl_tbl {
		key = { std_meta.ingress_port : exact; }
		actions = { a_drop; }
	}
	table dbg_tbl {
		key = { ipv4.ttl : exact; }
		actions = { a_drop; }
	}
	apply {
		if (ipv4.isValid()) {
			route_tbl.apply();
			trim_tbl.apply();
			// BUG(seeded): bounce_tbl and pull_tbl key on the ndp header
			// without ndp.isValid() — ipv4 packets that are not NDP reach
			// them.
			bounce_tbl.apply();
			pull_tbl.apply();
			prio_tbl.apply();
		}
		ctrl_tbl.apply();
		dbg_tbl.apply();
	}
}

deparser NDPDeparser { emit(ethernet); emit(ipv4); emit(ndp); }
pipeline ndp_switch { parser = NDPParser; control = NDPIngress; deparser = NDPDeparser; }
`

// FlowletSwitching replicates the flowlet load-balancing example (row 5).
const FlowletSwitching = `
// flowlet_switching.p4 — hash-based flowlet ECMP.
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> src; bit<32> dst; }
header tcp_t { bit<16> srcPort; bit<16> dstPort; bit<32> seqNo; }
struct flowlet_md_t {
	bit<16> flowlet_id;
	bit<16> flowlet_map_index;
	bit<32> flowlet_lasttime;
	bit<16> ecmp_offset;
}

ethernet_t ethernet;
ipv4_t ipv4;
tcp_t tcp;
flowlet_md_t flowlet_md;

register<bit<16>>(8192) flowlet_id_reg;
register<bit<32>>(8192) flowlet_lasttime_reg;

parser FlowletParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			6: parse_tcp;
			default: accept;
		}
	}
	state parse_tcp { extract(tcp); transition accept; }
}

control FlowletIngress {
	action lookup_flowlet_map() {
		hash(flowlet_md.flowlet_map_index, ipv4.src, ipv4.dst, tcp.srcPort, tcp.dstPort);
		flowlet_id_reg.read(flowlet_md.flowlet_id, 0);
		flowlet_lasttime_reg.read(flowlet_md.flowlet_lasttime, 0);
	}
	action update_flowlet_id() {
		flowlet_md.flowlet_id = flowlet_md.flowlet_id + 1;
		flowlet_id_reg.write(0, flowlet_md.flowlet_id);
	}
	action set_ecmp_select(bit<16> base, bit<16> count) {
		hash(flowlet_md.ecmp_offset, ipv4.src, ipv4.dst);
		flowlet_md.ecmp_offset = flowlet_md.ecmp_offset & (count - 1);
		flowlet_md.ecmp_offset = flowlet_md.ecmp_offset + base;
	}
	action set_nhop(bit<9> port) { std_meta.egress_spec = port; ipv4.ttl = ipv4.ttl - 1; }
	action a_drop() { drop(); }
	table flowlet_tbl {
		key = { }
		actions = { lookup_flowlet_map; }
		default_action = lookup_flowlet_map;
	}
	table new_flowlet_tbl {
		key = { flowlet_md.flowlet_lasttime : range; }
		actions = { update_flowlet_id; }
	}
	table ecmp_group {
		key = { ipv4.dst : lpm; }
		actions = { set_ecmp_select; a_drop; }
		default_action = a_drop;
	}
	table ecmp_nhop {
		key = { flowlet_md.ecmp_offset : exact; }
		actions = { set_nhop; a_drop; }
		default_action = a_drop;
	}
	table forward_tbl {
		key = { ethernet.dst : exact; }
		actions = { set_nhop; }
	}
	table dbg_tbl {
		key = { ipv4.ttl : exact; }
		actions = { a_drop; }
	}
	apply {
		// BUG(seeded): flowlet hashing reads tcp ports without tcp
		// validity.
		flowlet_tbl.apply();
		new_flowlet_tbl.apply();
		if (ipv4.isValid()) {
			ecmp_group.apply();
			ecmp_nhop.apply();
		}
		forward_tbl.apply();
		dbg_tbl.apply();
	}
}

deparser FlowletDeparser { emit(ethernet); emit(ipv4); emit(tcp); }
pipeline flowlet { parser = FlowletParser; control = FlowletIngress; deparser = FlowletDeparser; }
`

// DCGateway is a larger hand-written program modelled on a data-center
// VXLAN gateway: VLAN-aware underlay, VXLAN termination, VNI translation,
// inner-Ethernet forwarding and ECMP over an L4 hash. With 10 tables
// touching 6 header instances it yields 13 invalid-header-access
// obligations — enough per-assertion work to exercise the parallel
// verification engine (it backs BENCH_parallel.json).
// Seeded bugs: vtep_tbl/vni_xlate_tbl read vxlan without vxlan.isValid(),
// ecmp_tbl hashes udp ports without udp validity, inner_fwd_tbl keys on
// the inner Ethernet header unguarded, and vlan_xlate_tbl rewrites the
// vlan tag without vlan.isValid().
const DCGateway = `
// dc_gateway.p4 — VXLAN data-center gateway: terminate tunnels, translate
// VNIs, forward on the inner Ethernet header, ECMP on an L4 hash.
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header vlan_t { bit<3> pcp; bit<12> vid; bit<16> etherType; }
header ipv4_t { bit<8> tos; bit<16> totalLen; bit<8> ttl; bit<8> protocol; bit<32> src; bit<32> dst; }
header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> length; }
header vxlan_t { bit<8> flags; bit<24> vni; }
header inner_ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct gw_md_t {
	bit<1> terminated;
	bit<16> l4_hash;
	bit<16> ecmp_offset;
	bit<16> conn_seen;
	bit<24> dst_vni;
}

ethernet_t ethernet;
vlan_t vlan;
ipv4_t ipv4;
udp_t udp;
vxlan_t vxlan;
inner_ethernet_t inner_ethernet;
gw_md_t gw_md;

register<bit<16>>(4096) conn_reg;

parser GatewayParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x8100: parse_vlan;
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_vlan {
		extract(vlan);
		transition select(vlan.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			17: parse_udp;
			default: accept;
		}
	}
	state parse_udp {
		extract(udp);
		transition select(udp.dstPort) {
			4789: parse_vxlan;
			default: accept;
		}
	}
	state parse_vxlan { extract(vxlan); transition parse_inner; }
	state parse_inner { extract(inner_ethernet); transition accept; }
}

control GatewayIngress {
	action terminate() {
		gw_md.terminated = 1;
		gw_md.dst_vni = vxlan.vni;
	}
	action set_out_vni(bit<24> vni) { vxlan.vni = vni; }
	action compute_hash() {
		hash(gw_md.l4_hash, ipv4.src, ipv4.dst, udp.srcPort, udp.dstPort);
		gw_md.ecmp_offset = gw_md.l4_hash & 7;
		conn_reg.read(gw_md.conn_seen, 0);
		conn_reg.write(0, gw_md.conn_seen + 1);
	}
	action set_nhop(bit<9> port) { std_meta.egress_spec = port; ipv4.ttl = ipv4.ttl - 1; }
	action inner_nhop(bit<9> port) { std_meta.egress_spec = port; }
	action rewrite_vlan(bit<12> vid) { vlan.vid = vid; }
	action set_pcp(bit<3> p) { vlan.pcp = p; }
	action a_drop() { drop(); }
	table vtep_tbl {
		key = { ipv4.dst : lpm; }
		actions = { terminate; a_drop; }
	}
	table vni_xlate_tbl {
		key = { vxlan.vni : exact; }
		actions = { set_out_vni; }
	}
	table ecmp_tbl {
		key = { ipv4.protocol : exact; }
		actions = { compute_hash; }
	}
	table ecmp_nhop_tbl {
		key = { gw_md.ecmp_offset : exact; }
		actions = { set_nhop; a_drop; }
		default_action = a_drop;
	}
	table ttl_tbl {
		key = { ipv4.ttl : exact; }
		actions = { a_drop; }
	}
	table acl_tbl {
		key = { ipv4.src : ternary; udp.dstPort : ternary; }
		actions = { a_drop; }
	}
	table inner_fwd_tbl {
		key = { inner_ethernet.dst : exact; }
		actions = { inner_nhop; a_drop; }
		default_action = a_drop;
	}
	table vlan_xlate_tbl {
		key = { vlan.vid : exact; }
		actions = { rewrite_vlan; }
	}
	table qos_tbl {
		key = { vlan.pcp : exact; }
		actions = { set_pcp; }
	}
	table dbg_tbl {
		key = { ethernet.etherType : exact; }
		actions = { a_drop; }
	}
	apply {
		if (ipv4.isValid()) {
			// BUG(seeded): vtep_tbl copies vxlan.vni and vni_xlate_tbl
			// rewrites it without vxlan.isValid() — plain ipv4 packets
			// reach both.
			vtep_tbl.apply();
			vni_xlate_tbl.apply();
			// BUG(seeded): ecmp hashing reads udp ports without udp
			// validity.
			ecmp_tbl.apply();
			ecmp_nhop_tbl.apply();
			ttl_tbl.apply();
			if (udp.isValid()) {
				acl_tbl.apply();
			}
		}
		// BUG(seeded): inner_fwd_tbl keys on inner_ethernet with no guard
		// — only the vxlan path parses it.
		inner_fwd_tbl.apply();
		// BUG(seeded): vlan rewrite without vlan.isValid().
		vlan_xlate_tbl.apply();
		if (vlan.isValid()) {
			qos_tbl.apply();
		}
		dbg_tbl.apply();
	}
}

deparser GatewayDeparser { emit(ethernet); emit(vlan); emit(ipv4); emit(udp); emit(vxlan); emit(inner_ethernet); }
pipeline dc_gateway { parser = GatewayParser; control = GatewayIngress; deparser = GatewayDeparser; }
`

// SkewedTelemetry is a deliberately load-imbalanced benchmark for the
// parallel experiments: a dozen cheap table obligations (tag/ethernet
// lookups whose validity proofs close in a handful of conflicts) plus one
// heavy one — stats_tbl is applied only when the carry-recurrence adder
// identity (a^b) + ((a&b)<<1) == a+b fails on two independent 32-bit field
// pairs, so proving it unreachable forces the SAT core to refute the
// identity bit-by-bit twice. On a worker pool the worker that draws
// stats_tbl grinds while the rest idle (a high obs straggler index).
// Seeded bug: ttl_tbl reads
// tag.ttl without a tag.isValid() guard.
const SkewedTelemetry = `
// skewed_telemetry.p4 — INT-style telemetry with one pathological check.
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header tag_t { bit<16> id; bit<16> cls; bit<8> ttl; bit<8> hop; }
header probe_t { bit<32> a; bit<32> b; bit<32> c; bit<32> d; }
struct skew_md_t { bit<16> bucket; bit<16> zone; }

ethernet_t ethernet;
tag_t tag;
probe_t probe;
skew_md_t skew_md;

parser SkewParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x8100: parse_tag;
			0x9100: parse_probe;
			default: accept;
		}
	}
	state parse_tag { extract(tag); transition accept; }
	state parse_probe { extract(probe); transition accept; }
}

control SkewIngress {
	action set_bucket(bit<16> b) { skew_md.bucket = b; }
	action set_zone(bit<16> z) { skew_md.zone = z; }
	action mark(bit<8> m) { tag.hop = m; }
	action decay() { tag.ttl = tag.ttl - 1; }
	action note(bit<32> v) { probe.d = v; }
	action fwd(bit<9> port) { std_meta.egress_spec = port; }
	action a_drop() { drop(); }
	table cls_tbl { key = { tag.cls : exact; } actions = { set_bucket; a_drop; } default_action = a_drop; }
	table id_tbl { key = { tag.id : exact; } actions = { set_zone; a_drop; } default_action = a_drop; }
	table hop_tbl { key = { tag.hop : exact; } actions = { mark; a_drop; } default_action = a_drop; }
	table zone_tbl { key = { tag.id : ternary; } actions = { set_zone; a_drop; } default_action = a_drop; }
	table bucket_tbl { key = { tag.cls : ternary; } actions = { set_bucket; a_drop; } default_action = a_drop; }
	table ttl_tbl { key = { tag.ttl : exact; } actions = { decay; a_drop; } default_action = a_drop; }
	table stats_tbl { key = { probe.c : exact; } actions = { note; a_drop; } default_action = a_drop; }
	table l2_tbl { key = { ethernet.dst : exact; } actions = { fwd; a_drop; } default_action = a_drop; }
	table punt_tbl { key = { ethernet.etherType : exact; } actions = { fwd; a_drop; } default_action = a_drop; }
	apply {
		if (tag.isValid()) {
			cls_tbl.apply();
			id_tbl.apply();
			hop_tbl.apply();
			zone_tbl.apply();
			bucket_tbl.apply();
		}
		// BUG(seeded): ttl_tbl reads tag.ttl without checking tag.isValid().
		ttl_tbl.apply();
		// The adder identity (x ^ y) + ((x & y) << 1) == x + y holds for
		// every bit pattern, so stats_tbl is dead code — but proving that
		// means refuting the identity over two independent 32-bit pairs,
		// the one expensive obligation in an otherwise cheap program.
		if ((((probe.a ^ probe.b) + ((probe.a & probe.b) << 1)) != (probe.a + probe.b)) ||
		    (((probe.c ^ probe.d) + ((probe.c & probe.d) << 1)) != (probe.c + probe.d))) {
			stats_tbl.apply();
		}
		l2_tbl.apply();
		punt_tbl.apply();
	}
}

deparser SkewDeparser { emit(ethernet); emit(tag); emit(probe); }
pipeline skew { parser = SkewParser; control = SkewIngress; deparser = SkewDeparser; }
`

// DCGatewayBench returns the DC gateway as a benchmark. It is not part of
// HandWrittenSuite — Table 3 pins exactly five rows — but backs the
// parallel-engine experiment, which needs a program with many independent
// assertion obligations.
func DCGatewayBench() *Benchmark {
	return &Benchmark{Name: "DC Gateway", Source: DCGateway, Calls: []string{"dc_gateway"}}
}

// SkewedBench returns the skewed-telemetry program as a benchmark. Like
// the DC gateway it sits outside HandWrittenSuite: it exists to make
// load imbalance measurable (one assertion dominates total solve time even
// on a single-CPU host) in the parallel sweep's straggler column.
func SkewedBench() *Benchmark {
	return &Benchmark{Name: "Skewed Telemetry", Source: SkewedTelemetry, Calls: []string{"skew"}}
}

// HandWrittenSuite lists the manually-written benchmarks (Table 3 rows
// 1-5).
func HandWrittenSuite() []*Benchmark {
	return []*Benchmark{
		{Name: "Simple Router", Source: SimpleRouter, Calls: []string{"router"}},
		{Name: "NetPaxos Acceptor", Source: NetPaxosAcceptor, Calls: []string{"acceptor"}},
		{Name: "NetPaxos Coordinator", Source: NetPaxosCoordinator, Calls: []string{"coordinator"}},
		{Name: "NDP", Source: NDP, Calls: []string{"ndp_switch"}},
		{Name: "Flowlet Switching", Source: FlowletSwitching, Calls: []string{"flowlet"}},
	}
}

// Parse compiles a benchmark's source.
func (b *Benchmark) Parse() (*p4.Program, error) {
	prog, err := p4.ParseAndCheck(b.Name, b.Source)
	if err != nil {
		return nil, err
	}
	b.Pipes = len(prog.Pipelines)
	b.Tables = 0
	for _, ctl := range prog.Controls {
		for _, n := range ctl.Order {
			if _, ok := ctl.Tables[n]; ok {
				b.Tables++
			}
		}
	}
	b.ParserStates = 0
	for _, pr := range prog.Parsers {
		b.ParserStates += len(pr.States)
	}
	return prog, nil
}

// InvalidHeaderAccessSpec builds the §8.1 benchmark property for a
// program: every table that reads a header (in its keys or actions) must
// only be applied when that header is valid. The seeded bugs violate it.
func InvalidHeaderAccessSpec(prog *p4.Program, calls []string) string {
	var items []string
	for _, ctlName := range sortedNames(prog.Controls) {
		ctl := prog.Controls[ctlName]
		for _, tn := range ctl.Order {
			tbl, ok := ctl.Tables[tn]
			if !ok {
				continue
			}
			for _, h := range TableHeaders(prog, ctl, tbl) {
				items = append(items, fmt.Sprintf("!applied(%s.%s) || valid(%s);", ctlName, tn, h))
			}
		}
	}
	var b strings.Builder
	b.WriteString("assertion {\n\tno_invalid_access = {\n")
	for _, it := range items {
		b.WriteString("\t\t" + it + "\n")
	}
	b.WriteString("\t}\n}\nprogram {\n")
	for _, c := range calls {
		fmt.Fprintf(&b, "\tcall(%s);\n", c)
	}
	b.WriteString("\tassert(no_invalid_access);\n}\n")
	return b.String()
}

// TableHeaders lists the header instances a table's keys and actions read
// or write.
func TableHeaders(prog *p4.Program, ctl *p4.Control, tbl *p4.Table) []string {
	set := map[string]bool{}
	addExpr := func(e p4.Expr) {
		for _, name := range exprHeaderRefs(prog, e) {
			set[name] = true
		}
	}
	for _, k := range tbl.Keys {
		addExpr(k.Expr)
	}
	for _, an := range tbl.Actions {
		act := ctl.Actions[an]
		if act == nil {
			continue
		}
		var walk func(stmts []p4.Stmt)
		walk = func(stmts []p4.Stmt) {
			for _, s := range stmts {
				switch st := s.(type) {
				case *p4.AssignStmt:
					addExpr(st.LHS)
					addExpr(st.RHS)
				case *p4.IfStmt:
					addExpr(st.Cond)
					walk(st.Then)
					walk(st.Else)
				case *p4.RegReadStmt:
					addExpr(st.Dst)
					addExpr(st.Index)
				case *p4.RegWriteStmt:
					addExpr(st.Index)
					addExpr(st.Val)
				case *p4.HashStmt:
					addExpr(st.Dst)
					for _, in := range st.Inputs {
						addExpr(in)
					}
				}
			}
		}
		walk(act.Body)
	}
	var out []string
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func exprHeaderRefs(prog *p4.Program, e p4.Expr) []string {
	var out []string
	var walk func(p4.Expr)
	walk = func(x p4.Expr) {
		switch v := x.(type) {
		case *p4.FieldRef:
			if inst := prog.Instance(v.Instance); inst != nil && inst.IsHeader {
				out = append(out, v.Instance)
			}
		case *p4.UnaryExpr:
			walk(v.X)
		case *p4.BinaryExpr:
			walk(v.X)
			walk(v.Y)
		case *p4.CastExpr:
			walk(v.X)
		case *p4.SliceExpr:
			walk(v.X)
		}
	}
	walk(e)
	return out
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
