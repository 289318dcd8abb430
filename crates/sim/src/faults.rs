//! Deterministic fault injection: node crash/reboot windows and link
//! blackout windows.
//!
//! A fault plan is pure data — a set of time windows queried by the
//! system driver each epoch — so the same plan replays identically under
//! any seed and composes with the stochastic frame-loss models in
//! `presto-net` (a blackout suppresses a link *entirely*, on top of
//! whatever the loss process would have done). Crash semantics follow
//! the PRESTO hardware model: a crashed node stops sampling,
//! transmitting, and receiving; on reboot its RAM state (model replica,
//! pending batch) is gone but its flash archive survives, which is
//! exactly why archive-backed recovery works.

use crate::time::SimTime;

/// One node-down window: the node is dead in `[down_from, up_at)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// Index of the crashed node (global sensor id in system drivers).
    pub node: usize,
    /// First instant the node is down.
    pub down_from: SimTime,
    /// First instant the node is back up (reboot completes).
    pub up_at: SimTime,
}

/// One link blackout window: affected links deliver nothing in
/// `[from, to)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// First instant of the blackout.
    pub from: SimTime,
    /// First instant after the blackout.
    pub to: SimTime,
    /// Affected nodes; `None` blacks out every link.
    pub nodes: Option<Vec<usize>>,
}

/// One shared-fading burst window: the common loss state near every
/// proxy is pinned *bad* in `[from, to)`. Only meaningful when the
/// deployment runs correlated loss (a shared Gilbert–Elliott state);
/// drivers without one ignore these windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedBurst {
    /// First instant of the burst.
    pub from: SimTime,
    /// First instant after the burst.
    pub to: SimTime,
}

/// One split-brain window: every proxy↔proxy mesh link crossing the
/// `group` boundary is cut (both directions) in `[from, to)`, while
/// sensor downlinks stay up. The cut is *asymmetric with respect to the
/// fleet* — proxies on each side keep talking among themselves and keep
/// serving their sensors, but heartbeats and forwards across the
/// boundary die — which is exactly the failure a single omniscient
/// membership observer cannot distinguish from a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshPartition {
    /// Proxies on one side of the cut (the complement is the other).
    pub group: Vec<usize>,
    /// First instant of the partition.
    pub from: SimTime,
    /// First instant after the partition heals.
    pub to: SimTime,
}

/// One single-link mesh cut: only the `a`↔`b` proxy link is severed
/// (both directions) in `[from, to)`. Unlike a [`MeshPartition`], no
/// proxy loses contact with a majority, so quorum membership must keep
/// everyone alive — the discriminating case for pairwise suspicion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshLinkCut {
    /// One endpoint proxy.
    pub a: usize,
    /// The other endpoint proxy.
    pub b: usize,
    /// First instant of the cut.
    pub from: SimTime,
    /// First instant after the cut heals.
    pub to: SimTime,
}

/// One fault instance for attribution: a structured name for an
/// injected window, carried by observability incidents so an alarm
/// raised during a fault is *blamed* on it (and an alarm outside every
/// window is an unexplained regression).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActiveFault {
    /// A sensor-node crash window ([`CrashWindow`]).
    NodeCrash {
        /// The crashed node.
        node: usize,
        /// Window start.
        from: SimTime,
        /// Window end (first instant back up).
        to: SimTime,
    },
    /// A link blackout window ([`Blackout`]); `nodes` empty means all.
    LinkBlackout {
        /// Affected nodes (empty = every link).
        nodes: Vec<usize>,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// A shared-fading burst ([`SharedBurst`]).
    SharedBurst {
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// A proxy-process crash window.
    ProxyCrash {
        /// The crashed proxy.
        proxy: usize,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
    /// A split-brain mesh partition ([`MeshPartition`]).
    MeshPartition {
        /// Proxies on the minority side of the cut.
        group: Vec<usize>,
        /// Window start.
        from: SimTime,
        /// Window end (heal).
        to: SimTime,
    },
    /// A single-link mesh cut ([`MeshLinkCut`]).
    MeshLinkCut {
        /// One endpoint proxy.
        a: usize,
        /// The other endpoint proxy.
        b: usize,
        /// Window start.
        from: SimTime,
        /// Window end.
        to: SimTime,
    },
}

impl ActiveFault {
    /// The fault's injection window `[from, to)`.
    pub fn window(&self) -> (SimTime, SimTime) {
        match self {
            ActiveFault::NodeCrash { from, to, .. }
            | ActiveFault::LinkBlackout { from, to, .. }
            | ActiveFault::SharedBurst { from, to }
            | ActiveFault::ProxyCrash { from, to, .. }
            | ActiveFault::MeshPartition { from, to, .. }
            | ActiveFault::MeshLinkCut { from, to, .. } => (*from, *to),
        }
    }

    /// A short stable label for reports (`mesh_partition`, `proxy_crash`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            ActiveFault::NodeCrash { .. } => "node_crash",
            ActiveFault::LinkBlackout { .. } => "link_blackout",
            ActiveFault::SharedBurst { .. } => "shared_burst",
            ActiveFault::ProxyCrash { .. } => "proxy_crash",
            ActiveFault::MeshPartition { .. } => "mesh_partition",
            ActiveFault::MeshLinkCut { .. } => "mesh_link_cut",
        }
    }
}

/// A deterministic schedule of crashes and blackouts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<CrashWindow>,
    blackouts: Vec<Blackout>,
    shared_bursts: Vec<SharedBurst>,
    /// Proxy-tier blackouts: the *proxy* process is down in the window
    /// (reusing [`CrashWindow`] with `node` = proxy index). A down
    /// proxy consumes no uplinks, pumps no queries, trains nothing, and
    /// its RAM-resident query state dies; its sensors keep archiving
    /// and become reachable again when they re-home to a survivor or
    /// the proxy reboots.
    proxy_crashes: Vec<CrashWindow>,
    /// Split-brain windows over the proxy↔proxy mesh.
    mesh_partitions: Vec<MeshPartition>,
    /// Single-link mesh cuts.
    mesh_link_cuts: Vec<MeshLinkCut>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.blackouts.is_empty()
            && self.shared_bursts.is_empty()
            && self.proxy_crashes.is_empty()
            && self.mesh_partitions.is_empty()
            && self.mesh_link_cuts.is_empty()
    }

    /// Adds a crash/reboot window for one node (builder style).
    pub fn with_crash(mut self, node: usize, down_from: SimTime, up_at: SimTime) -> Self {
        assert!(down_from <= up_at, "crash window must not be inverted");
        self.crashes.push(CrashWindow {
            node,
            down_from,
            up_at,
        });
        self
    }

    /// Adds a blackout of every link (builder style).
    pub fn with_blackout(mut self, from: SimTime, to: SimTime) -> Self {
        assert!(from <= to, "blackout window must not be inverted");
        self.blackouts.push(Blackout {
            from,
            to,
            nodes: None,
        });
        self
    }

    /// Adds a blackout of specific nodes' links (builder style).
    pub fn with_blackout_of(mut self, nodes: Vec<usize>, from: SimTime, to: SimTime) -> Self {
        assert!(from <= to, "blackout window must not be inverted");
        self.blackouts.push(Blackout {
            from,
            to,
            nodes: Some(nodes),
        });
        self
    }

    /// The scheduled crash windows.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The scheduled blackouts.
    pub fn blackouts(&self) -> &[Blackout] {
        &self.blackouts
    }

    /// Adds a shared-fading burst window (builder style): while active,
    /// a correlated-loss deployment pins its common channel state bad,
    /// so every channel near the proxy fades at once.
    pub fn with_shared_burst(mut self, from: SimTime, to: SimTime) -> Self {
        assert!(from <= to, "burst window must not be inverted");
        self.shared_bursts.push(SharedBurst { from, to });
        self
    }

    /// The scheduled shared-fading bursts.
    pub fn shared_bursts(&self) -> &[SharedBurst] {
        &self.shared_bursts
    }

    /// True while a shared-fading burst is active at `t`.
    pub fn shared_burst_active(&self, t: SimTime) -> bool {
        self.shared_bursts.iter().any(|b| b.from <= t && t < b.to)
    }

    /// True when `node` is crashed at `t`.
    pub fn is_down(&self, node: usize, t: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.down_from <= t && t < c.up_at)
    }

    /// True when `node`'s link is blacked out at `t`.
    pub fn in_blackout(&self, node: usize, t: SimTime) -> bool {
        self.blackouts.iter().any(|b| {
            b.from <= t
                && t < b.to
                && b.nodes.as_ref().is_none_or(|ns| ns.contains(&node))
        })
    }

    /// True when `node` can neither transmit nor receive at `t`
    /// (crashed, or its link is blacked out).
    pub fn is_unreachable(&self, node: usize, t: SimTime) -> bool {
        self.is_down(node, t) || self.in_blackout(node, t)
    }

    /// True when a reboot of `node` completed in the half-open interval
    /// `(since, until]` — the driver's cue to wipe the node's RAM state.
    pub fn rebooted_within(&self, node: usize, since: SimTime, until: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && since < c.up_at && c.up_at <= until)
    }

    /// Adds a proxy blackout window (builder style): the proxy process
    /// is dead in `[down_from, up_at)`.
    pub fn with_proxy_crash(mut self, proxy: usize, down_from: SimTime, up_at: SimTime) -> Self {
        assert!(down_from <= up_at, "proxy crash window must not be inverted");
        self.proxy_crashes.push(CrashWindow {
            node: proxy,
            down_from,
            up_at,
        });
        self
    }

    /// The scheduled proxy blackouts.
    pub fn proxy_crashes(&self) -> &[CrashWindow] {
        &self.proxy_crashes
    }

    /// True when `proxy` is down at `t`.
    pub fn proxy_down(&self, proxy: usize, t: SimTime) -> bool {
        self.proxy_crashes
            .iter()
            .any(|c| c.node == proxy && c.down_from <= t && t < c.up_at)
    }

    /// Adds a split-brain window (builder style): every mesh link
    /// between `group` and its complement is cut in `[from, to)`.
    pub fn with_mesh_partition(mut self, group: Vec<usize>, from: SimTime, to: SimTime) -> Self {
        assert!(from <= to, "partition window must not be inverted");
        self.mesh_partitions.push(MeshPartition { group, from, to });
        self
    }

    /// Adds a single-link mesh cut (builder style): only the `a`↔`b`
    /// proxy link is severed in `[from, to)`.
    pub fn with_mesh_link_cut(mut self, a: usize, b: usize, from: SimTime, to: SimTime) -> Self {
        assert!(from <= to, "link-cut window must not be inverted");
        self.mesh_link_cuts.push(MeshLinkCut { a, b, from, to });
        self
    }

    /// The scheduled split-brain windows.
    pub fn mesh_partitions(&self) -> &[MeshPartition] {
        &self.mesh_partitions
    }

    /// The scheduled single-link mesh cuts.
    pub fn mesh_link_cuts(&self) -> &[MeshLinkCut] {
        &self.mesh_link_cuts
    }

    /// True when the mesh link between proxies `a` and `b` is cut at
    /// `t` — either a single-link cut names the pair, or a split-brain
    /// window puts `a` and `b` on opposite sides of the boundary. The
    /// cut is symmetric: `mesh_link_cut(a, b, t) == mesh_link_cut(b, a, t)`.
    /// Every scheduled fault whose window `[from, to)` overlaps the
    /// query interval `[lo, hi]` — the attribution set an observability
    /// incident in that interval carries. Stable order: plan insertion
    /// order within each fault class, classes in declaration order.
    pub fn active_in(&self, lo: SimTime, hi: SimTime) -> Vec<ActiveFault> {
        let mut out = Vec::new();
        self.extend_active_in(lo, hi, &mut out);
        out
    }

    /// [`FaultPlan::active_in`], appended to `out`: a caller that reuses
    /// one buffer pays no allocation per call.
    pub fn extend_active_in(&self, lo: SimTime, hi: SimTime, out: &mut Vec<ActiveFault>) {
        let overlaps = |from: SimTime, to: SimTime| from <= hi && lo < to;
        for c in &self.crashes {
            if overlaps(c.down_from, c.up_at) {
                out.push(ActiveFault::NodeCrash {
                    node: c.node,
                    from: c.down_from,
                    to: c.up_at,
                });
            }
        }
        for b in &self.blackouts {
            if overlaps(b.from, b.to) {
                out.push(ActiveFault::LinkBlackout {
                    nodes: b.nodes.clone().unwrap_or_default(),
                    from: b.from,
                    to: b.to,
                });
            }
        }
        for s in &self.shared_bursts {
            if overlaps(s.from, s.to) {
                out.push(ActiveFault::SharedBurst {
                    from: s.from,
                    to: s.to,
                });
            }
        }
        for c in &self.proxy_crashes {
            if overlaps(c.down_from, c.up_at) {
                out.push(ActiveFault::ProxyCrash {
                    proxy: c.node,
                    from: c.down_from,
                    to: c.up_at,
                });
            }
        }
        for p in &self.mesh_partitions {
            if overlaps(p.from, p.to) {
                out.push(ActiveFault::MeshPartition {
                    group: p.group.clone(),
                    from: p.from,
                    to: p.to,
                });
            }
        }
        for c in &self.mesh_link_cuts {
            if overlaps(c.from, c.to) {
                out.push(ActiveFault::MeshLinkCut {
                    a: c.a,
                    b: c.b,
                    from: c.from,
                    to: c.to,
                });
            }
        }
    }

    /// Every scheduled fault active at the instant `t`.
    pub fn active_at(&self, t: SimTime) -> Vec<ActiveFault> {
        self.active_in(t, t)
    }

    pub fn mesh_link_cut(&self, a: usize, b: usize, t: SimTime) -> bool {
        self.mesh_partitions.iter().any(|p| {
            p.from <= t && t < p.to && (p.group.contains(&a) != p.group.contains(&b))
        }) || self.mesh_link_cuts.iter().any(|c| {
            c.from <= t
                && t < c.to
                && ((c.a == a && c.b == b) || (c.a == b && c.b == a))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.is_down(0, t(100)));
        assert!(!p.in_blackout(0, t(100)));
        assert!(!p.is_unreachable(3, t(0)));
    }

    #[test]
    fn crash_windows_are_half_open() {
        let p = FaultPlan::none().with_crash(2, t(10), t(20));
        assert!(!p.is_down(2, t(9)));
        assert!(p.is_down(2, t(10)));
        assert!(p.is_down(2, t(19)));
        assert!(!p.is_down(2, t(20)));
        // Other nodes untouched.
        assert!(!p.is_down(1, t(15)));
    }

    #[test]
    fn blackouts_scope_to_nodes_or_all() {
        let p = FaultPlan::none()
            .with_blackout(t(100), t(110))
            .with_blackout_of(vec![1, 3], t(200), t(210));
        assert!(p.in_blackout(7, t(105)));
        assert!(!p.in_blackout(7, t(205)));
        assert!(p.in_blackout(1, t(205)));
        assert!(p.in_blackout(3, t(209)));
        assert!(!p.in_blackout(3, t(210)));
    }

    #[test]
    fn reboot_detection_is_edge_triggered() {
        let p = FaultPlan::none().with_crash(0, t(10), t(20));
        assert!(p.rebooted_within(0, t(15), t(20)));
        assert!(p.rebooted_within(0, t(19), t(25)));
        assert!(!p.rebooted_within(0, t(20), t(30)), "already up at `since`");
        assert!(!p.rebooted_within(0, t(5), t(15)), "still down");
        assert!(!p.rebooted_within(1, t(15), t(25)), "different node");
    }

    #[test]
    fn shared_bursts_are_half_open_windows() {
        let p = FaultPlan::none().with_shared_burst(t(50), t(60));
        assert!(!p.is_empty());
        assert!(!p.shared_burst_active(t(49)));
        assert!(p.shared_burst_active(t(50)));
        assert!(p.shared_burst_active(t(59)));
        assert!(!p.shared_burst_active(t(60)));
        // Bursts alone make no node unreachable.
        assert!(!p.is_unreachable(0, t(55)));
    }

    #[test]
    fn proxy_crash_windows_are_half_open_and_scoped() {
        let p = FaultPlan::none().with_proxy_crash(1, t(100), t(200));
        assert!(!p.is_empty());
        assert!(!p.proxy_down(1, t(99)));
        assert!(p.proxy_down(1, t(100)));
        assert!(p.proxy_down(1, t(199)));
        assert!(!p.proxy_down(1, t(200)));
        assert!(!p.proxy_down(0, t(150)), "other proxies untouched");
        // A proxy blackout alone makes no *sensor* unreachable (the
        // driver derives sensor reachability from its serving proxy).
        assert!(!p.is_unreachable(1, t(150)));
    }

    #[test]
    fn mesh_partition_cuts_exactly_the_boundary_links() {
        let p = FaultPlan::none().with_mesh_partition(vec![2], t(100), t(200));
        assert!(!p.is_empty());
        // Boundary links are cut, symmetrically, only inside the window.
        assert!(p.mesh_link_cut(0, 2, t(100)));
        assert!(p.mesh_link_cut(2, 0, t(150)));
        assert!(p.mesh_link_cut(1, 2, t(199)));
        assert!(!p.mesh_link_cut(0, 2, t(99)));
        assert!(!p.mesh_link_cut(0, 2, t(200)), "healed at `to`");
        // Same-side links stay up — downlinks are untouched by design.
        assert!(!p.mesh_link_cut(0, 1, t(150)));
        assert!(!p.is_unreachable(2, t(150)), "partitioned proxy is alive");
    }

    #[test]
    fn single_link_cut_severs_one_pair_only() {
        let p = FaultPlan::none().with_mesh_link_cut(0, 2, t(10), t(20));
        assert!(!p.is_empty());
        assert!(p.mesh_link_cut(0, 2, t(10)));
        assert!(p.mesh_link_cut(2, 0, t(19)), "cut is symmetric");
        assert!(!p.mesh_link_cut(0, 2, t(20)));
        assert!(!p.mesh_link_cut(0, 1, t(15)));
        assert!(!p.mesh_link_cut(1, 2, t(15)));
    }

    #[test]
    fn active_in_names_exactly_the_overlapping_faults() {
        let p = FaultPlan::none()
            .with_crash(3, t(10), t(20))
            .with_shared_burst(t(50), t(60))
            .with_proxy_crash(1, t(100), t(200))
            .with_mesh_partition(vec![2], t(150), t(250))
            .with_mesh_link_cut(0, 1, t(300), t(310));
        assert!(p.active_in(t(25), t(45)).is_empty(), "gap between faults");
        assert_eq!(
            p.active_at(t(15)),
            vec![ActiveFault::NodeCrash {
                node: 3,
                from: t(10),
                to: t(20),
            }]
        );
        // A query spanning the proxy crash and the partition names both,
        // in class-declaration order.
        let both = p.active_in(t(190), t(210));
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].kind(), "proxy_crash");
        assert_eq!(both[1].kind(), "mesh_partition");
        assert_eq!(both[1].window(), (t(150), t(250)));
        // Half-open windows: the heal instant is out, the start is in.
        assert!(p.active_at(t(250)).is_empty());
        assert_eq!(p.active_at(t(300)).len(), 1);
    }

    #[test]
    fn unreachable_merges_crash_and_blackout() {
        let p = FaultPlan::none()
            .with_crash(0, t(10), t(20))
            .with_blackout_of(vec![0], t(30), t(40));
        assert!(p.is_unreachable(0, t(15)));
        assert!(p.is_unreachable(0, t(35)));
        assert!(!p.is_unreachable(0, t(25)));
    }
}
