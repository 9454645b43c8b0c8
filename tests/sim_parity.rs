//! Full-pipeline fault parity: `exact_mincut` under the fault-injecting
//! executor — message drops, duplication, bounded delay with in-window
//! reordering, all seeded and deterministic — returns **bit-identical**
//! results to the serial executor: same cut value, same side, same tree
//! counts, same arg-min node, same virtual rounds and payload traffic.
//! The α-synchronizer (`congest::sim`) is what makes dozens of
//! heterogeneous phases (elections, MST levels, fragment floods,
//! pipelined keyed-stream aggregations) survive an adversarial network
//! without a single algorithm change; this suite pins that on the whole
//! paper pipeline. The congest-level randomized suite lives in
//! `crates/congest/tests/sim_determinism.rs`. The transport's exact
//! frame schedule, which parity alone does not fix, is pinned by digest
//! in `transport_schedule_matches_pinned_digests`.

use mincut_repro::congest::sim::FaultPlan;
use mincut_repro::congest::ExecutorKind;
use mincut_repro::graphs::generators;
use mincut_repro::mincut::dist::driver::{exact_mincut, ExactConfig};

/// The fault grid of the acceptance criteria: drop p ∈ {0, 0.05, 0.2},
/// delay window ≤ 3, fixed seeds (plus duplication on the lossiest
/// plan, so all three fault species run against the full pipeline).
fn plans() -> [FaultPlan; 4] {
    [
        FaultPlan::lossless(),
        FaultPlan::with_drop(50, 0xFA_07).delayed(1),
        FaultPlan::with_drop(200, 0xFA_11).delayed(3),
        FaultPlan::with_drop(200, 0xFA_13)
            .delayed(2)
            .duplicated(100),
    ]
}

#[test]
fn exact_mincut_under_faults_matches_serial_on_planted_graphs() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let cases = [
        ("clique_pair8", planted.graph),
        ("torus5x4", generators::torus2d(5, 4).unwrap()),
    ];
    for (name, g) in &cases {
        let serial = exact_mincut(g, &ExactConfig::default()).expect("serial run succeeds");
        for plan in plans() {
            let tag = format!("{name} plan {plan:?}");
            let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan));
            let faulty = exact_mincut(g, &cfg).expect("faulty run succeeds");
            assert_eq!(faulty.cut.value, serial.cut.value, "{tag}");
            assert_eq!(faulty.cut.side, serial.cut.side, "{tag}");
            assert_eq!(faulty.trees_packed, serial.trees_packed, "{tag}");
            assert_eq!(faulty.trees_to_best, serial.trees_to_best, "{tag}");
            assert_eq!(faulty.best_node, serial.best_node, "{tag}");
            assert_eq!(faulty.rounds, serial.rounds, "{tag}");
            assert_eq!(faulty.messages, serial.messages, "{tag}");
            // Phase by phase, the payload-level metrics match the serial
            // ledger exactly; only the transport-layer `sim` block may
            // (and, whenever frames moved, must) differ.
            assert_eq!(
                faulty.ledger.phases().len(),
                serial.ledger.phases().len(),
                "{tag}"
            );
            for (f, s) in faulty.ledger.phases().iter().zip(serial.ledger.phases()) {
                let mut payload = f.clone();
                payload.sim = s.sim;
                assert_eq!(&payload, s, "{tag}: phase {} diverged", s.name);
                if f.messages > 0 {
                    assert!(
                        f.sim.phys_rounds > f.rounds,
                        "{tag}: phase {} paid no synchronizer overhead",
                        f.name
                    );
                }
            }
            // The overhead is measured, not hidden.
            assert!(faulty.ledger.total_phys_rounds() > serial.rounds, "{tag}");
            assert!(faulty.ledger.sim_overhead_factor() > 1.0, "{tag}");
        }
    }
}

/// Lossy runs with the same plan are byte-identical end to end —
/// including every transport counter — and the planted cut is found.
#[test]
fn faulty_runs_are_deterministic_per_plan() {
    let planted = generators::clique_pair(8, 3).unwrap();
    let plan = FaultPlan::with_drop(150, 77).delayed(2).duplicated(50);
    let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan));
    let a = exact_mincut(&planted.graph, &cfg).unwrap();
    let b = exact_mincut(&planted.graph, &cfg).unwrap();
    assert_eq!(a.cut.value, planted.planted_value);
    assert_eq!(a.cut.value, b.cut.value);
    assert_eq!(a.cut.side, b.cut.side);
    assert_eq!(
        a.ledger.phases(),
        b.ledger.phases(),
        "ledger must be byte-identical"
    );
    assert_eq!(a.ledger.total_dropped(), b.ledger.total_dropped());
    assert!(a.ledger.total_dropped() > 0, "the adversary was not idle");
}

/// A starved channel reports *where* it starved: the typed
/// `RetransmitExhausted` names both endpoints of the directed edge
/// (`node` → `peer`) and the virtual round of the stuck payload, and the
/// diagnosis is deterministic.
#[test]
fn retransmit_exhaustion_names_the_starved_edge() {
    use mincut_repro::congest::CongestError;
    use mincut_repro::mincut::MinCutError;

    let g = generators::torus2d(4, 4).unwrap();
    // Total frame loss: the first scheduled payload retransmission
    // budget to run out aborts the phase.
    let plan = FaultPlan::with_drop(1000, 0xDEAD);
    let run = || {
        let cfg = ExactConfig::default().with_executor(ExecutorKind::Faulty(plan.clone()));
        exact_mincut(&g, &cfg).expect_err("total loss cannot complete")
    };
    let err = run();
    let MinCutError::Congest(CongestError::RetransmitExhausted {
        phase,
        node,
        peer,
        round,
        attempts,
        ..
    }) = &err
    else {
        panic!("expected RetransmitExhausted, got {err:?}");
    };
    assert_eq!(phase, "leader_bfs", "the very first phase starves");
    assert_ne!(node, peer, "a directed edge has distinct endpoints");
    assert!(
        g.neighbors(*node).iter().any(|a| a.neighbor == *peer),
        "the reported pair is an actual edge of the graph"
    );
    assert_eq!(*attempts, 64, "the plan's budget is echoed back");
    assert_eq!(*round, 0, "the stuck payload was sent at boot");
    assert_eq!(err, run(), "the starvation diagnosis is deterministic");
}

/// 64-bit FNV-1a, computed inline: `DefaultHasher` is not stable across
/// Rust releases, and a pinned digest must move only when the transport
/// does.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every field of every phase, `sim` included. The destructuring is
    /// exhaustive, so a new metrics field fails to compile here instead
    /// of silently escaping the digest.
    fn ledger(&mut self, ledger: &mincut_repro::congest::MetricsLedger) {
        use mincut_repro::congest::{PhaseMetrics, SimPhaseStats};
        self.u64(ledger.phases().len() as u64);
        for p in ledger.phases() {
            let PhaseMetrics {
                name,
                rounds,
                messages,
                bits,
                max_message_bits,
                max_edge_load_bits,
                sim,
            } = p;
            let SimPhaseStats {
                phys_rounds,
                data_frames,
                ctrl_frames,
                retransmitted,
                dropped,
                duplicated,
                suspicions,
                false_suspicions,
                partitioned,
                corrupted,
            } = sim;
            self.str(name);
            for v in [
                *rounds,
                *messages,
                *bits,
                *max_message_bits as u64,
                *max_edge_load_bits as u64,
                *phys_rounds,
                *data_frames,
                *ctrl_frames,
                *retransmitted,
                *dropped,
                *duplicated,
                *suspicions,
                *false_suspicions,
                *partitioned,
                *corrupted,
            ] {
                self.u64(v);
            }
        }
    }

    /// The sink's full virtual event stream; the ring must not have
    /// overwritten anything, or the digest would cover only a suffix.
    fn stream(&mut self, obs: &mincut_repro::congest::ObsHandle) {
        let stream = obs.sink().virtual_stream();
        assert_eq!(
            stream.lines().nth(1),
            Some("dropped=0"),
            "the sink must retain every event"
        );
        self.str(&stream);
    }
}

/// Large enough that no pinned run overwrites an event.
const GOLDEN_RING: usize = 1 << 24;

/// The transport's exact schedule, pinned. The other suites compare a
/// build only with itself or with the serial executor, so a transport
/// rewrite that moved frames between ticks — same payloads, different
/// schedule — would pass them all. Here every run's full virtual event
/// stream (each send, drop, duplicate, ack, retransmission, keepalive,
/// suspicion, with its tick) and every ledger field is folded into one
/// FNV-1a digest per run and compared with values captured before the
/// executor's scheduling was last rewritten. Runs: the election on
/// three topologies under six fault plans at three retransmission
/// timeouts, plus one self-healing min-cut session.
#[test]
fn transport_schedule_matches_pinned_digests() {
    use mincut_repro::congest::primitives::leader_bfs::LeaderBfs;
    use mincut_repro::congest::{Network, NetworkConfig, ObsHandle};
    use mincut_repro::mincut::dist::{recover_mincut, RecoverConfig};
    use mincut_repro::mincut::seq::tree_packing::PackingConfig;

    let graphs = [
        ("torus6x6", generators::torus2d(6, 6).unwrap()),
        ("cycle13", generators::cycle(13).unwrap()),
        ("complete9", generators::complete(9, 2).unwrap()),
    ];
    let plans = |resend_after: u16| {
        let timed = |p: FaultPlan| FaultPlan { resend_after, ..p };
        [
            (
                "lossy",
                timed(
                    FaultPlan::with_drop(150, 0x60_1D)
                        .delayed(2)
                        .duplicated(80)
                        .corrupted(40),
                ),
            ),
            (
                "crash_continue",
                timed(
                    FaultPlan::with_drop(40, 0x60_2D)
                        .delayed(1)
                        .with_crash(4, 3)
                        .continue_on_suspicion(),
                ),
            ),
            (
                "crash_abort",
                timed(
                    FaultPlan::with_drop(40, 0x60_3D)
                        .delayed(1)
                        .with_crash(4, 3),
                ),
            ),
            (
                "partition",
                timed(FaultPlan::with_drop(30, 0x60_4D).delayed(1).with_partition(
                    vec![(0, 1), (2, 3), (4, 5)],
                    2,
                    6,
                )),
            ),
            ("exhausted", timed(FaultPlan::with_drop(1000, 0x60_5D))),
            ("lossless", timed(FaultPlan::lossless())),
        ]
    };

    let mut got: Vec<(String, u64)> = Vec::new();
    for (gname, g) in &graphs {
        let n = g.node_count();
        for resend_after in [1u16, 4, 9] {
            for (pname, plan) in plans(resend_after) {
                let obs = ObsHandle::with_capacity(GOLDEN_RING);
                let cfg = NetworkConfig::default()
                    .with_executor(ExecutorKind::Faulty(plan))
                    .with_obs(obs.clone());
                let mut net = Network::new(g, cfg).unwrap();
                let mut h = Fnv::new();
                match net.run("leader_bfs", &LeaderBfs::new(), vec![(); n]) {
                    Ok(out) => {
                        for o in &out.outputs {
                            h.u64(u64::from(o.leader.raw()));
                            h.u64(o.parent.map_or(u64::MAX, |p| u64::from(p.0)));
                            h.u64(u64::from(o.depth));
                        }
                    }
                    Err(e) => h.str(&e.to_string()),
                }
                h.ledger(net.ledger());
                h.stream(&obs);
                got.push((format!("{gname}/{pname}/r{resend_after}"), h.0));
            }
        }
    }

    let g = generators::torus2d(12, 12).unwrap();
    let obs = ObsHandle::with_capacity(GOLDEN_RING);
    let plan = FaultPlan::with_drop(50, 0x60_6D)
        .delayed(2)
        .duplicated(25)
        .with_crash(0, 60);
    let cfg = RecoverConfig {
        base: ExactConfig {
            packing: PackingConfig::fixed(2),
            ..Default::default()
        },
        ..Default::default()
    }
    .with_plan(plan)
    .with_obs(obs.clone());
    let r = recover_mincut(&g, &cfg).expect("the crash is recoverable");
    let mut h = Fnv::new();
    h.u64(r.cut.value);
    h.bytes(&r.cut.side.iter().map(|&b| u8::from(b)).collect::<Vec<_>>());
    for v in &r.dead {
        h.u64(u64::from(v.raw()));
    }
    h.ledger(&r.ledger);
    h.stream(&obs);
    got.push(("torus12x12/recover".to_string(), h.0));

    let table: String = got
        .iter()
        .map(|(k, d)| format!("    (\"{k}\", 0x{d:016X}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "run count changed; got:\n{table}");
    for ((k, d), (wk, wd)) in got.iter().zip(GOLDEN) {
        assert_eq!(k, wk, "run order changed; got:\n{table}");
        assert_eq!(*d, wd, "{k}: the transport schedule moved; got:\n{table}");
    }
}

/// Digests of [`transport_schedule_matches_pinned_digests`], captured
/// with the executor that sorted its active-channel list every tick.
/// The min-cut session's row is re-captured whenever a deliberate
/// change to the pipeline moves the session's phases or traffic; the 54
/// election rows have moved only when the digest's field set did: when
/// `PhaseMetrics::violations` was deleted, every row was recomputed on
/// the previous commit's transport with just that term dropped, and
/// the rows whose runs err before any phase lands in the ledger kept
/// their values.
const GOLDEN: [(&str, u64); 55] = [
    ("torus6x6/lossy/r1", 0xDCFBC6F292BB9DF4),
    ("torus6x6/crash_continue/r1", 0xF54A137E57016AE4),
    ("torus6x6/crash_abort/r1", 0xFA900DADE6B4261D),
    ("torus6x6/partition/r1", 0x5D7DE55C97A716EF),
    ("torus6x6/exhausted/r1", 0x5616609A1F44D93E),
    ("torus6x6/lossless/r1", 0xB4AF3BED5BF3E19A),
    ("torus6x6/lossy/r4", 0x1397DFAEB6E51FB2),
    ("torus6x6/crash_continue/r4", 0x644AF1EDC634CDA9),
    ("torus6x6/crash_abort/r4", 0x2C6416F208E0B708),
    ("torus6x6/partition/r4", 0x3DCDD204DE0E88ED),
    ("torus6x6/exhausted/r4", 0x9279C22F4E990841),
    ("torus6x6/lossless/r4", 0x27C08CD1D292BB2F),
    ("torus6x6/lossy/r9", 0x445F5717D0B3C806),
    ("torus6x6/crash_continue/r9", 0x48488CD822D34EBF),
    ("torus6x6/crash_abort/r9", 0x1B43B6CF94704E62),
    ("torus6x6/partition/r9", 0x01380E5AF8034127),
    ("torus6x6/exhausted/r9", 0x30D494A6E8FC47F1),
    ("torus6x6/lossless/r9", 0x27C08CD1D292BB2F),
    ("cycle13/lossy/r1", 0x69B7A61550D41475),
    ("cycle13/crash_continue/r1", 0xAC5765784C43F8E6),
    ("cycle13/crash_abort/r1", 0xE0F877A4514C9305),
    ("cycle13/partition/r1", 0x232F38873C4D338F),
    ("cycle13/exhausted/r1", 0x8AA0373921DA1839),
    ("cycle13/lossless/r1", 0xDFDDD8FE1D341AF5),
    ("cycle13/lossy/r4", 0x766DE671C73A2493),
    ("cycle13/crash_continue/r4", 0x80D81AB34C4523D2),
    ("cycle13/crash_abort/r4", 0x7E0BA2ECBD3E8E9F),
    ("cycle13/partition/r4", 0x8FB5EBCAAC164991),
    ("cycle13/exhausted/r4", 0x011DD3EF612B036C),
    ("cycle13/lossless/r4", 0xCC2B5E811291CA25),
    ("cycle13/lossy/r9", 0xAE2177DD8E91A2F7),
    ("cycle13/crash_continue/r9", 0x07A05B8FDF291465),
    ("cycle13/crash_abort/r9", 0x74B842A1C6FBC5F0),
    ("cycle13/partition/r9", 0x4A77053F7FAFBF73),
    ("cycle13/exhausted/r9", 0xFE48E7EA6BF76EA3),
    ("cycle13/lossless/r9", 0xCC2B5E811291CA25),
    ("complete9/lossy/r1", 0x64862CDE37B9C84D),
    ("complete9/crash_continue/r1", 0x1A5A35EBA96735A9),
    ("complete9/crash_abort/r1", 0x8D57439E6A92776A),
    ("complete9/partition/r1", 0xAAA8B69262CF2D12),
    ("complete9/exhausted/r1", 0xAE08490519DD87BA),
    ("complete9/lossless/r1", 0xFC92D984898AEB4A),
    ("complete9/lossy/r4", 0xF4F0E9580986497C),
    ("complete9/crash_continue/r4", 0xDC4A9507DE422875),
    ("complete9/crash_abort/r4", 0x2F81084C30993BCC),
    ("complete9/partition/r4", 0xCB9A3B9CD33FF1FD),
    ("complete9/exhausted/r4", 0x84F76EE18D3E0FD4),
    ("complete9/lossless/r4", 0x7F61B19A4CB3E3DF),
    ("complete9/lossy/r9", 0xC8F74AA3067B7BF2),
    ("complete9/crash_continue/r9", 0xB1199A2C5A6C7553),
    ("complete9/crash_abort/r9", 0x94D90F61A16AE954),
    ("complete9/partition/r9", 0x880B7EB3EADFEA01),
    ("complete9/exhausted/r9", 0xF9F0387AD359676D),
    ("complete9/lossless/r9", 0x7F61B19A4CB3E3DF),
    ("torus12x12/recover", 0x640360465400AD93),
];
