//! Cycle-based routing with link reservation.
//!
//! The model charges [`Network::hop_latency`] cycles per hop and allows one
//! message to *enter* each directed link per cycle. Distance-proportional
//! latency and congestion-induced queueing both fall out of this single
//! mechanism: an uncontended message from `s` to `d` is delivered after
//! `distance(s, d) × hop_latency` cycles, while messages competing for a
//! link serialize at one per cycle.

use serde::{Deserialize, Serialize};

use crate::stats::NetStats;
use crate::topology::Topology;

/// The interconnection network of one machine.
///
/// Link and module occupancy live in flat vectors indexed by the
/// topology's dense [`link_id`](Topology::link_id)s and node ids, and
/// every pair's deterministic route is precomputed at construction — the
/// steady-state routing path performs no topology arithmetic, no hashing
/// and no allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    topology: Topology,
    hop_latency: u64,
    /// Earliest cycle at which each directed link accepts its next
    /// message, indexed by [`Topology::link_id`].
    link_free: Vec<u64>,
    /// Earliest cycle at which each node's memory module accepts its next
    /// reference (modules are pipelined with an initiation interval of
    /// one reference per cycle), indexed by node.
    service_free: Vec<u64>,
    /// All-pairs route table: the directed-link ids of route `src -> dst`
    /// in traversal order are
    /// `route_links[route_start[p]..route_start[p + 1]]`, `p = src·n + dst`.
    route_links: Vec<u32>,
    /// Offsets into `route_links`, one per ordered pair plus an end mark.
    route_start: Vec<u32>,
    stats: NetStats,
}

/// A precomputed unidirectional route: a window of the network's route
/// table holding the dense directed-link ids from a source to a
/// destination in traversal order, plus the contention-free one-way
/// latency. Looked up once per lane run by [`Network::route_to`], then
/// replayed per message by [`Network::send_on`] on the same network (or
/// one over the same topology).
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Offset of the first link in the route table.
    start: u32,
    hops: u32,
    /// Contention-free one-way latency (distance × hop latency).
    base: u64,
}

impl Route {
    /// Hop count of the route (0 for a same-node pair).
    #[inline]
    pub fn hops(&self) -> usize {
        self.hops as usize
    }

    /// The route's directed-link ids in traversal order, from the route
    /// table `table` of the network that built it.
    #[inline]
    fn links<'t>(&self, table: &'t [u32]) -> &'t [u32] {
        let start = self.start as usize;
        &table[start..start + self.hops()]
    }
}

/// A route-table offset or link id as stored in the table.
fn table_offset(x: usize) -> u32 {
    u32::try_from(x).expect("route table exceeds u32 offsets")
}

impl Network {
    /// Creates a network over `topology` charging `hop_latency` cycles per
    /// hop (must be ≥ 1), precomputing every pair's route. The table holds
    /// one link id per hop of every ordered pair — 640 for the paper's
    /// 4×4 mesh, about `n³/4` for an `n`-node ring.
    pub fn new(topology: Topology, hop_latency: u64) -> Network {
        assert!(hop_latency >= 1, "hop latency must be at least one cycle");
        let n = topology.nodes();
        let mut route_links = Vec::new();
        let mut route_start = Vec::with_capacity(n * n + 1);
        for src in 0..n {
            for dst in 0..n {
                route_start.push(table_offset(route_links.len()));
                let mut prev = src;
                while prev != dst {
                    let next = topology.next_hop(prev, dst);
                    route_links.push(table_offset(topology.link_id(prev, next)));
                    prev = next;
                }
            }
        }
        route_start.push(table_offset(route_links.len()));
        Network {
            topology,
            hop_latency,
            link_free: vec![0; topology.link_count()],
            service_free: vec![0; n],
            route_links,
            route_start,
            stats: NetStats::default(),
        }
    }

    /// Reserves the memory module at `node` for one reference arriving at
    /// `arrive`; returns the cycle its reply is ready. The module accepts
    /// one reference per cycle (pipelined) and serves each in
    /// `service_latency` cycles, so a module hammered by concurrent
    /// references serializes — the congestion that randomized placement
    /// ([`tcf_mem`-style hashing]) exists to avoid.
    ///
    /// [`tcf_mem`-style hashing]: crate
    pub fn service(&mut self, node: usize, arrive: u64, service_latency: u64) -> u64 {
        let slot = &mut self.service_free[node];
        let start = arrive.max(*slot);
        *slot = start + 1;
        start + service_latency
    }

    /// The cycle at which the directed link `from -> to` (a one-hop
    /// neighbour pair) accepts its next message. Observability hook used
    /// by congestion diagnostics and the router conformance tests.
    pub fn link_busy_until(&self, from: usize, to: usize) -> u64 {
        self.link_free[self.topology.link_id(from, to)]
    }

    /// The network's topology.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Cycles per hop.
    #[inline]
    pub fn hop_latency(&self) -> u64 {
        self.hop_latency
    }

    /// Hop distance between two nodes.
    #[inline]
    pub fn distance(&self, from: usize, to: usize) -> usize {
        self.topology.distance(from, to)
    }

    /// Minimum (contention-free) one-way latency between two nodes.
    #[inline]
    pub fn base_latency(&self, from: usize, to: usize) -> u64 {
        self.distance(from, to) as u64 * self.hop_latency
    }

    /// Routes one message injected at cycle `now`; returns its delivery
    /// cycle. Same-node messages are delivered immediately (the memory
    /// module is co-located with the processor group).
    pub fn send(&mut self, src: usize, dst: usize, now: u64) -> u64 {
        let route = self.route(src, dst);
        self.walk(&route, now)
    }

    /// Routes a batch in order; returns per-message delivery cycles and the
    /// cycle by which all are delivered.
    pub fn send_batch(&mut self, msgs: &[(usize, usize)], now: u64) -> (Vec<u64>, u64) {
        let deliveries: Vec<u64> = msgs.iter().map(|&(s, d)| self.send(s, d, now)).collect();
        let done = deliveries.iter().copied().max().unwrap_or(now);
        (deliveries, done)
    }

    /// The deterministic route `src -> dst`, looked up in the route
    /// table.
    #[inline]
    pub fn route(&self, src: usize, dst: usize) -> Route {
        let n = self.topology.nodes();
        assert!(
            src < n && dst < n,
            "route {src}->{dst} out of range for {:?}",
            self.topology
        );
        let pair = src * n + dst;
        let start = self.route_start[pair];
        let hops = self.route_start[pair + 1] - start;
        Route {
            start,
            hops,
            base: hops as u64 * self.hop_latency,
        }
    }

    /// The route `src -> dst` for repeated [`send_on`](Network::send_on)
    /// calls over the same pair — the bulk-multioperation shape, where a
    /// whole lane run targets one module. Always `Some`: every pair has a
    /// route-table entry ([`route`](Network::route) is the infallible
    /// form).
    pub fn route_to(&self, src: usize, dst: usize) -> Option<Route> {
        Some(self.route(src, dst))
    }

    /// Routes one message along a precomputed [`Route`]: identical link
    /// reservations, delivery cycle, and statistics to
    /// [`send`](Network::send) over the same pair, and counted in
    /// [`NetStats::route_sends`].
    pub fn send_on(&mut self, route: &Route, now: u64) -> u64 {
        self.stats.route_sends += 1;
        self.walk(route, now)
    }

    /// Walks one message along `route` from cycle `now`: reserves each
    /// link in turn and records the message's statistics.
    #[inline]
    fn walk(&mut self, route: &Route, now: u64) -> u64 {
        self.stats.messages += 1;
        if route.hops == 0 {
            self.stats.local_deliveries += 1;
            return now;
        }
        self.stats.hops += route.hops();
        let mut t = now;
        for &link in route.links(&self.route_links) {
            let slot = &mut self.link_free[link as usize];
            let enter = t.max(*slot);
            *slot = enter + 1;
            t = enter + self.hop_latency;
        }
        let queued = t - (now + route.base);
        self.stats.queue_cycles += queued;
        self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(queued);
        self.stats.queue.record(queued);
        t
    }

    /// Replays messages `1..=tail` of a same-route round-trip run in
    /// closed form, after the caller has walked message 0 exactly
    /// (fwd [`send_on`](Network::send_on) → [`service`](Network::service)
    /// → rev [`send_on`](Network::send_on)).
    ///
    /// Every directed link and the module are rate-1 FIFO servers, and
    /// the issue cadence `s_k = s0 + ⌊(c + k)/width⌋` never advances
    /// faster than one message per cycle, so message `k`'s whole
    /// trajectory is message 0's shifted by exactly `k` cycles: each
    /// touched resource's next-free slot moves by `tail`, deliveries are
    /// `back0 + k`, and the per-message queueing delays are cadence
    /// ramps (forward leg) or constant (return leg — the module emits
    /// exactly one reply per cycle). Field for field identical to
    /// issuing the `tail` messages one by one, at O(log tail) cost.
    ///
    /// `(arrive0, served0, back0)` is message 0's trajectory as returned
    /// by the three calls above; `s0` is its issue cycle and `c < width`
    /// the number of messages the caller had already issued in cycle
    /// `s0` before it.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_roundtrip_tail(
        &mut self,
        fwd: &Route,
        rev: &Route,
        node: usize,
        tail: u64,
        s0: u64,
        arrive0: u64,
        served0: u64,
        back0: u64,
        c: u64,
        width: u64,
    ) {
        if tail == 0 {
            return;
        }
        // Occupancy: every server's next-free slot advances one cycle per
        // trailing message.
        let table = &self.route_links;
        for &link in fwd.links(table).iter().chain(rev.links(table)) {
            self.link_free[link as usize] += tail;
        }
        self.service_free[node] += tail;
        // Statistics, exactly as per-message `send_on` calls would have
        // accumulated them (the histogram is order-independent, so the
        // interleaving of forward and return samples does not matter).
        self.stats.messages += 2 * tail as usize;
        self.stats.route_sends += 2 * tail as usize;
        if fwd.hops == 0 {
            self.stats.local_deliveries += tail as usize;
        } else {
            self.stats.hops += fwd.hops() * tail as usize;
            // queued_k = arrive_k − (s_k + base) ramps with the cadence.
            let q0 = arrive0 - (s0 + fwd.base);
            let (sum, last) = self.stats.queue.record_ramp(q0, c, width, 1, tail + 1);
            self.stats.queue_cycles += sum;
            self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(last);
        }
        if rev.hops == 0 {
            self.stats.local_deliveries += tail as usize;
        } else {
            self.stats.hops += rev.hops() * tail as usize;
            let q0 = back0 - (served0 + rev.base);
            let (sum, last) = self.stats.queue.record_ramp(q0, 0, 1, 1, tail + 1);
            self.stats.queue_cycles += sum;
            self.stats.max_queue_cycles = self.stats.max_queue_cycles.max(last);
        }
    }

    /// Traffic statistics since construction or the last [`reset`].
    ///
    /// [`reset`]: Network::reset
    #[inline]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Clears link and module reservations and statistics.
    pub fn reset(&mut self) {
        self.link_free.fill(0);
        self.service_free.fill(0);
        self.stats = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, lat: u64) -> Network {
        Network::new(Topology::Ring { nodes: n }, lat)
    }

    #[test]
    fn uncontended_latency_proportional_to_distance() {
        let mut net = ring(8, 3);
        assert_eq!(net.send(0, 1, 10), 13);
        net.reset();
        assert_eq!(net.send(0, 4, 10), 10 + 4 * 3);
    }

    #[test]
    fn same_node_is_free() {
        let mut net = ring(8, 3);
        assert_eq!(net.send(5, 5, 42), 42);
        assert_eq!(net.stats().local_deliveries, 1);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut net = ring(8, 1);
        // Two messages over the same first link (0 -> 1) at the same cycle.
        let d1 = net.send(0, 2, 0);
        let d2 = net.send(0, 2, 0);
        assert_eq!(d1, 2);
        assert_eq!(d2, 3); // one cycle behind on every link
        assert!(net.stats().queue_cycles > 0);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut net = ring(8, 1);
        let d1 = net.send(0, 1, 0);
        let d2 = net.send(4, 5, 0);
        assert_eq!(d1, 1);
        assert_eq!(d2, 1);
        assert_eq!(net.stats().queue_cycles, 0);
    }

    #[test]
    fn crossbar_serializes_at_destination_port() {
        let mut net = Network::new(Topology::Crossbar { nodes: 8 }, 1);
        // All nodes hammer node 0: the (n, 0) links are distinct, so an
        // ideal crossbar delivers them all in one cycle.
        let msgs: Vec<(usize, usize)> = (1..8).map(|s| (s, 0)).collect();
        let (_, done) = net.send_batch(&msgs, 0);
        assert_eq!(done, 1);
        // But one node sending many messages serializes on its own link.
        net.reset();
        let msgs = vec![(3, 0); 5];
        let (deliveries, done) = net.send_batch(&msgs, 0);
        assert_eq!(deliveries, vec![1, 2, 3, 4, 5]);
        assert_eq!(done, 5);
    }

    #[test]
    fn batch_reports_completion() {
        let mut net = ring(6, 2);
        let (deliveries, done) = net.send_batch(&[(0, 1), (0, 2), (3, 3)], 100);
        assert_eq!(deliveries.len(), 3);
        assert_eq!(done, *deliveries.iter().max().unwrap());
    }

    #[test]
    fn reset_clears_reservations() {
        let mut net = ring(8, 1);
        net.send(0, 2, 0);
        net.reset();
        assert_eq!(net.send(0, 2, 0), 2);
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    fn module_service_serializes_one_per_cycle() {
        let mut net = ring(4, 1);
        // Three references arriving at the same module in the same cycle:
        // service starts pipeline at one per cycle.
        assert_eq!(net.service(0, 10, 2), 12);
        assert_eq!(net.service(0, 10, 2), 13);
        assert_eq!(net.service(0, 10, 2), 14);
        // A later arrival at an idle moment starts immediately.
        assert_eq!(net.service(0, 100, 2), 102);
        // Another module is independent.
        assert_eq!(net.service(1, 10, 2), 12);
    }

    #[test]
    fn reset_clears_service_reservations() {
        let mut net = ring(4, 1);
        net.service(0, 0, 1);
        net.reset();
        assert_eq!(net.service(0, 0, 1), 1);
    }

    /// The pre-flat-vector router, verbatim: link and service occupancy
    /// in hash maps keyed by `(prev, next)` pairs and node ids. Kept as
    /// the reference model for the dense-id rewrite.
    struct HashMapRouter {
        topology: Topology,
        hop_latency: u64,
        link_free: std::collections::HashMap<(usize, usize), u64>,
        service_free: std::collections::HashMap<usize, u64>,
    }

    impl HashMapRouter {
        fn new(topology: Topology, hop_latency: u64) -> HashMapRouter {
            HashMapRouter {
                topology,
                hop_latency,
                link_free: Default::default(),
                service_free: Default::default(),
            }
        }

        fn send(&mut self, src: usize, dst: usize, now: u64) -> u64 {
            if src == dst {
                return now;
            }
            let route = self.topology.route(src, dst);
            let mut t = now;
            let mut prev = src;
            for next in route {
                let slot = self.link_free.entry((prev, next)).or_insert(0);
                let enter = t.max(*slot);
                *slot = enter + 1;
                t = enter + self.hop_latency;
                prev = next;
            }
            t
        }

        fn service(&mut self, node: usize, arrive: u64, service_latency: u64) -> u64 {
            let slot = self.service_free.entry(node).or_insert(0);
            let start = arrive.max(*slot);
            *slot = start + 1;
            start + service_latency
        }
    }

    /// Topologies of the reference twins: all three kinds, plus a ring
    /// whose longest routes (32 hops) exceed any small fixed-size route
    /// handle.
    const TWIN_TOPOLOGIES: [Topology; 4] = [
        Topology::Ring { nodes: 8 },
        Topology::Mesh2D {
            width: 4,
            height: 4,
        },
        Topology::Crossbar { nodes: 8 },
        Topology::Ring { nodes: 64 },
    ];

    #[test]
    fn flat_occupancy_matches_hashmap_reference_trace() {
        // The reference walks `Topology::route` hop by hop, so this is
        // also the message-by-message twin of the table-driven `send`.
        for topology in TWIN_TOPOLOGIES {
            let n = topology.nodes();
            let mut net = Network::new(topology, 3);
            let mut reference = HashMapRouter::new(topology, 3);
            // A recorded trace of pseudo-random messages and module
            // reservations (deterministic LCG so the trace is stable).
            let mut state = 0x2545F4914F6CDD1Du64;
            let mut rng = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            for i in 0..500 {
                let src = rng() % n;
                let dst = rng() % n;
                let now = (i / 3) as u64;
                assert_eq!(
                    net.send(src, dst, now),
                    reference.send(src, dst, now),
                    "{topology:?}: delivery diverged for {src}->{dst} @ {now}"
                );
                if i % 5 == 0 {
                    let node = rng() % n;
                    assert_eq!(
                        net.service(node, now, 2),
                        reference.service(node, now, 2),
                        "{topology:?}: service diverged at node {node}"
                    );
                }
            }
            // Every link the reference trace touched shows the same
            // per-link busy-until time in the flat table.
            for (&(from, to), &busy) in &reference.link_free {
                assert_eq!(
                    net.link_busy_until(from, to),
                    busy,
                    "{topology:?}: busy-until diverged on link {from}->{to}"
                );
            }
        }
    }

    #[test]
    fn send_on_matches_send_exactly() {
        for topology in TWIN_TOPOLOGIES {
            let n = topology.nodes();
            let mut by_pair = Network::new(topology, 3);
            let mut by_route = Network::new(topology, 3);
            for src in 0..n {
                for dst in 0..n {
                    let route = by_route.route_to(src, dst).expect("every pair has a route");
                    assert_eq!(route.hops(), topology.distance(src, dst));
                    // The table entry is the per-hop walk's link sequence.
                    let mut walked = Vec::new();
                    let mut prev = src;
                    while prev != dst {
                        let next = topology.next_hop(prev, dst);
                        walked.push(topology.link_id(prev, next) as u32);
                        prev = next;
                    }
                    assert_eq!(
                        route.links(&by_route.route_links),
                        &walked[..],
                        "{topology:?}: route table diverged for {src}->{dst}"
                    );
                    // Repeated messages exercise both the uncontended and
                    // the link-queued cases.
                    for i in 0..4u64 {
                        assert_eq!(
                            by_pair.send(src, dst, i / 2),
                            by_route.send_on(&route, i / 2),
                            "{topology:?}: delivery diverged for {src}->{dst}"
                        );
                    }
                }
            }
            // `send_on` additionally counts its route-handle reuse; every
            // timing/congestion statistic must still agree exactly.
            let mut route_stats = by_route.stats().clone();
            assert_eq!(route_stats.route_sends, n * n * 4);
            route_stats.route_sends = 0;
            assert_eq!(by_pair.stats(), &route_stats);
            for from in 0..n {
                for to in 0..n {
                    if topology.distance(from, to) == 1 {
                        assert_eq!(
                            by_pair.link_busy_until(from, to),
                            by_route.link_busy_until(from, to)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replay_roundtrip_tail_matches_per_message_loop() {
        let topologies = [
            Topology::Ring { nodes: 8 },
            Topology::Mesh2D {
                width: 4,
                height: 4,
            },
            Topology::Crossbar { nodes: 8 },
        ];
        for topology in topologies {
            // (group, node) pairs: remote, fully local, and reversed-remote.
            for &(group, node) in &[(0usize, 5usize), (3, 3), (2, 0)] {
                for &width in &[1usize, 4] {
                    for initial_issued in [0, width - 1] {
                        for &count in &[1u64, 2, 7, 64] {
                            for &warm in &[false, true] {
                                let mut looped = Network::new(topology, 2);
                                let mut bulk = Network::new(topology, 2);
                                if warm {
                                    // Pre-load links and the module so the
                                    // run starts against congestion.
                                    for i in 0..6 {
                                        looped.send(i % 8, node, 0);
                                        bulk.send(i % 8, node, 0);
                                        looped.service(node, 0, 3);
                                        bulk.service(node, 0, 3);
                                    }
                                }
                                let fwd = looped.route_to(group, node).unwrap();
                                let rev = looped.route_to(node, group).unwrap();
                                // Per-message reference, pipeline cadence.
                                let (mut t, mut issued) = (10u64, initial_issued);
                                let mut last_back = 0u64;
                                for _ in 0..count {
                                    if issued >= width {
                                        t += 1;
                                        issued = 0;
                                    }
                                    issued += 1;
                                    let arrive = looped.send_on(&fwd, t);
                                    let served = looped.service(node, arrive, 3);
                                    last_back = looped.send_on(&rev, served);
                                }
                                // Closed form: message 0 exact, tail bulk.
                                let (mut t, mut issued) = (10u64, initial_issued);
                                if issued >= width {
                                    t += 1;
                                    issued = 0;
                                }
                                issued += 1;
                                let s0 = t;
                                let arrive0 = bulk.send_on(&fwd, s0);
                                let served0 = bulk.service(node, arrive0, 3);
                                let back0 = bulk.send_on(&rev, served0);
                                bulk.replay_roundtrip_tail(
                                    &fwd,
                                    &rev,
                                    node,
                                    count - 1,
                                    s0,
                                    arrive0,
                                    served0,
                                    back0,
                                    (issued - 1) as u64,
                                    width as u64,
                                );
                                let ctx = format!(
                                    "{topology:?} {group}->{node} width {width} \
                                     phase {initial_issued} count {count} warm {warm}"
                                );
                                assert_eq!(back0 + (count - 1), last_back, "{ctx}: delivery");
                                assert_eq!(looped.stats(), bulk.stats(), "{ctx}: stats");
                                assert_eq!(looped.link_free, bulk.link_free, "{ctx}: links");
                                assert_eq!(
                                    looped.service_free, bulk.service_free,
                                    "{ctx}: modules"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn route_to_covers_paths_of_any_length() {
        let net = Network::new(Topology::Ring { nodes: 64 }, 1);
        // The diameter, 32 hops, has a table entry like every other pair.
        assert_eq!(net.route_to(0, 32).map(|r| r.hops()), Some(32));
        assert_eq!(net.route(0, 16).hops(), 16);
    }

    #[test]
    fn mean_hops_tracks_topology() {
        let mut net = Network::new(
            Topology::Mesh2D {
                width: 3,
                height: 3,
            },
            1,
        );
        net.send(0, 8, 0); // distance 4
        net.send(0, 1, 0); // distance 1
        assert_eq!(net.stats().hops, 5);
        assert!((net.stats().mean_hops() - 2.5).abs() < 1e-9);
    }
}
