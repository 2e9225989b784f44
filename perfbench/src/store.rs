//! `kvs-heavy` and `pdes-2w`: the Dynamo-style store under open-loop
//! Poisson load, driven window by window through `drain_window_into`.
//!
//! One round builds a fresh 8-node cluster (N=3, R=W=1, Pareto legs),
//! adds shared-source clients and arms their first arrivals (the set-up,
//! repeated [`SETUP_REPS`] times), drains an untimed warm-up longer than
//! the op timeout and the ground-truth GC lag, then drains fixed simulated
//! windows for a fixed simulated length (the timed work). After the
//! warm-up every issued op's timeout timer is due within the timed part,
//! the wheel holds its steady rate × timeout dead timers, and watermark GC
//! trims the hot keys. The rates pool the timed drains of every round.
//! Rounds are whole, so every run attempts the same operations per round
//! whatever its length.

use crate::measure::{
    end_to_end, median, metric, mix, pooled_rates, with_rss, Checks, Gauge, Interval, Outcome,
    Stopwatch,
};
use crate::Params;
use pbs_core::ReplicaConfig;
use pbs_dist::Pareto;
use pbs_kvs::network::Leg;
use pbs_kvs::staleness::{GroundTruth, ReadLabel, MAX_TRACKED_STALENESS};
use pbs_kvs::{
    ClientOptions, Cluster, ClusterOptions, CompletedOp, EngineKind, NetworkModel, WindowDrain,
};
use pbs_sim::{PdesStats, SimTime};
use pbs_workload::{OpKind, OpMix, Poisson, SharedOpSource, SharedStream, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Client (and cluster) operation timeout, ms.
const OP_TIMEOUT_MS: f64 = 2_000.0;

/// Storage nodes.
const NODES: u32 = 8;

/// Messages per operation: N=3 requests out and 3 responses back, on a
/// fault-free network without read repair.
const MSGS_PER_OP: f64 = 6.0;

/// Simulated drain window, ms: short enough that no client table fills
/// its 65,536-slot result buffer between drains at 200k ops/s.
const WINDOW_MS: f64 = 100.0;

/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 0.99;

/// Set-ups per round; the last one's cluster runs the round.
pub const SETUP_REPS: usize = 8;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Engine the cluster runs on.
    pub engine: EngineKind,
    /// Shared-source open-loop clients.
    pub clients: u32,
    /// Offered load over all clients, ops/s.
    pub rate: f64,
    /// Key universe (Zipf).
    pub keys: u64,
    /// Untimed simulated warm-up of one round, ms.
    pub warmup_ms: f64,
    /// Timed simulated length of one round, ms.
    pub timed_ms: f64,
}

impl Shape {
    /// ROADMAP's heavy shape on the serial engine.
    pub const KVS_HEAVY: Shape = Shape {
        engine: EngineKind::Serial,
        clients: 100_000,
        rate: 200_000.0,
        keys: 1_000_000,
        warmup_ms: 2_500.0,
        timed_ms: 2_500.0,
    };
    /// The parallel engine with two workers.
    pub const PDES_2W: Shape = Shape {
        engine: EngineKind::Parallel { workers: 2 },
        clients: 1_000,
        rate: 100_000.0,
        keys: 100_000,
        warmup_ms: 2_500.0,
        timed_ms: 2_500.0,
    };

    /// A test-sized version of `self`.
    pub fn smoke(self) -> Shape {
        Shape {
            clients: self.clients.min(2_000),
            rate: self.rate / 20.0,
            keys: self.keys / 100,
            timed_ms: 300.0,
            ..self
        }
    }

    fn warmup_windows(&self) -> usize {
        (self.warmup_ms / WINDOW_MS).round() as usize
    }

    /// Drain windows of one round, warm-up included.
    fn windows(&self) -> usize {
        self.warmup_windows() + (self.timed_ms / WINDOW_MS).round() as usize
    }
}

/// The network: W ~ Pareto(1.5, 1.2), A = R = S ~ Pareto(0.8, 2.0). The
/// positive support minimum gives the parallel engine its lookahead.
pub fn network() -> NetworkModel {
    NetworkModel::w_ars(
        Arc::new(Pareto::new(1.5, 1.2)),
        Arc::new(Pareto::new(0.8, 2.0)),
    )
}

fn cluster_options(seed: u64) -> ClusterOptions {
    let mut o = ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).expect("valid"), seed);
    o.nodes = NODES;
    o.op_timeout_ms = OP_TIMEOUT_MS;
    o
}

/// The shared op source: Poisson arrivals per client, Zipf keys, the
/// LinkedIn 60/40 read/write mix.
pub fn source(shape: &Shape) -> SharedStream<Poisson, Zipf> {
    SharedStream::new(
        Poisson::per_second(shape.rate / shape.clients as f64),
        Zipf::new(shape.keys, ZIPF_S),
        OpMix::linkedin(),
    )
}

/// A drained read, as the reference labeller needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadRecord {
    /// Key.
    pub key: u64,
    /// Start, ns.
    pub start: u64,
    /// Returned sequence (`None` = empty read).
    pub seq: Option<u64>,
    /// The cluster's label.
    pub label: ReadLabel,
}

/// What one round recorded.
#[derive(Debug, Default)]
pub struct Round {
    /// Cluster construction, s, per set-up.
    pub build_s: Vec<f64>,
    /// `add_clients_shared` + `start_clients` + arming, s, per set-up.
    pub add_s: Vec<f64>,
    /// One interval per timed window.
    pub windows: Vec<Interval>,
    /// Ops drained (completed or timed out), warm-up included.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Timed-out ops, uncommitted writes and shed arrivals.
    pub failed: u64,
    /// Order-sensitive digest of each window's drained ops, warm-up
    /// included.
    pub digests: Vec<u64>,
    /// Every committed write `(key, commit ns, seq)`, with the index of its
    /// window in `commit_window`.
    pub commits: Vec<(u64, u64, u64)>,
    /// Window index of each commit.
    pub commit_window: Vec<u32>,
    /// Every labelled read.
    pub labelled: Vec<ReadRecord>,
    /// Window index of each labelled read.
    pub read_window: Vec<u32>,
    /// Arrivals shed at the client in-flight cap.
    pub shed: u64,
    /// Ops issued to coordinators.
    pub issued: u64,
    /// Ops still in flight when the round ended.
    pub in_flight: u64,
    /// Completed ops lost to full result buffers (must be 0).
    pub dropped_results: u64,
    /// Reads whose label presence disagrees with completion.
    pub label_shape_errors: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Scheduler cascades.
    pub cascaded: u64,
    /// Scheduler peak queue length.
    pub peak_pending: u64,
    /// Session-state entries at the end.
    pub session_entries: u64,
    /// Ground-truth commits retained at the end.
    pub retained_commits: u64,
    /// Sum of per-client in-flight peaks.
    pub peak_in_flight: u64,
    /// Parallel-engine counters.
    pub pdes: Option<PdesStats>,
}

impl Round {
    /// Drop the per-op records, which only the checks and replays read.
    pub fn without_records(self) -> Round {
        Round {
            commits: Vec::new(),
            commit_window: Vec::new(),
            labelled: Vec::new(),
            read_window: Vec::new(),
            ..self
        }
    }

    /// The round's timed drains as one interval.
    pub fn drain(&self) -> Interval {
        self.windows
            .iter()
            .fold(Interval::default(), |a, w| Interval {
                items: a.items + w.items,
                wall: a.wall + w.wall,
                cpu: a.cpu + w.cpu,
            })
    }
}

/// Fold one value into an order-sensitive digest.
fn fold(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn digest_op(mut h: u64, op: &CompletedOp, label: Option<ReadLabel>) -> u64 {
    let opt = |t: Option<u64>| t.map_or(u64::MAX, |v| v);
    for x in [
        op.op_id,
        op.client as u64,
        matches!(op.kind, OpKind::Write) as u64,
        op.key,
        op.start.as_nanos(),
        opt(op.finish.map(|t| t.as_nanos())),
        opt(op.seq),
        opt(op.commit.map(|t| t.as_nanos())),
        opt(op.writer.map(u64::from)),
        opt(op.source.map(u64::from)),
        op.quorum_mask,
        opt(label.map(|l| l.versions_behind * 2 + l.consistent as u64)),
    ] {
        h = fold(h, x);
    }
    h
}

/// The set-up: a cluster with its clients added, started and armed.
fn set_up(shape: &Shape, engine: EngineKind, seed: u64, out: &mut Round) -> Cluster {
    let t = Instant::now();
    let mut cluster = Cluster::with_engine(cluster_options(seed), network(), engine)
        .expect("Pareto legs have a positive support minimum");
    out.build_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let src: Arc<dyn SharedOpSource> = Arc::new(source(shape));
    let copts = ClientOptions {
        op_timeout_ms: OP_TIMEOUT_MS,
        ..ClientOptions::default()
    };
    cluster.add_clients_shared(shape.clients, src, copts);
    cluster.start_clients();
    // Process the start events: every client draws and arms its first
    // arrival; no operation is issued yet.
    let mut drain = WindowDrain::default();
    cluster.drain_window_into(SimTime::from_ms(1e-3), &mut drain);
    out.add_s.push(t.elapsed().as_secs_f64());
    assert!(
        drain.writes.is_empty() && drain.reads.is_empty(),
        "nothing completes while arming"
    );
    cluster
}

/// Run one round on `engine` with `seed`, sampling `gauge` between
/// drains.
pub fn round(shape: &Shape, engine: EngineKind, seed: u64, gauge: &mut Gauge) -> Round {
    let mut out = Round::default();
    let mut cluster = set_up(shape, engine, seed, &mut out);
    for _ in 1..SETUP_REPS {
        drop(cluster);
        cluster = set_up(shape, engine, seed, &mut out);
    }
    let mut drain = WindowDrain::default();
    for w in 1..=shape.windows() {
        let until = SimTime::from_ms(1e-3 + w as f64 * WINDOW_MS);
        let sw = Stopwatch::start();
        cluster.drain_window_into(until, &mut drain);
        let (wall, cpu) = sw.stop();
        gauge.sample();
        let items = (drain.writes.len() + drain.reads.len()) as u64;
        if w > shape.warmup_windows() {
            out.windows.push(Interval { items, wall, cpu });
        }
        out.ops += items;
        out.reads += drain.reads.len() as u64;
        let window = w as u32 - 1;
        let mut h = 0u64;
        for op in &drain.writes {
            h = digest_op(h, op, None);
            match (op.seq, op.commit) {
                (Some(seq), Some(ct)) => {
                    out.commits.push((op.key, ct.as_nanos(), seq));
                    out.commit_window.push(window);
                }
                _ => out.failed += 1,
            }
        }
        for r in &drain.reads {
            h = digest_op(h, &r.op, r.label);
            match (r.op.finish, r.label) {
                (Some(_), Some(label)) => {
                    out.labelled.push(ReadRecord {
                        key: r.op.key,
                        start: r.op.start.as_nanos(),
                        seq: r.op.seq,
                        label,
                    });
                    out.read_window.push(window);
                }
                (None, None) => out.failed += 1,
                _ => out.label_shape_errors += 1,
            }
        }
        out.digests.push(h);
    }
    let stats = cluster.client_stats();
    out.shed = stats.shed;
    out.failed += stats.shed;
    out.issued = stats.issued;
    out.in_flight = cluster.in_flight_total() as u64;
    out.dropped_results = stats.dropped_results;
    out.events = cluster.events_processed();
    let sched = cluster.scheduler_stats();
    out.cascaded = sched.cascaded;
    out.peak_pending = sched.peak_pending as u64;
    out.session_entries = cluster.session_entries_total() as u64;
    out.retained_commits = cluster.ground_truth().retained_commits() as u64;
    out.peak_in_flight = stats.peak_in_flight;
    out.pdes = cluster.pdes_stats();
    out
}

/// The reference labeller: a read is consistent iff it returned at least
/// the newest sequence committed at or before its start; otherwise it is
/// behind by the number of such commits with a newer sequence, capped at
/// `MAX_TRACKED_STALENESS`. Returns the reads whose label disagrees.
pub fn reference_mismatches(commits: &[(u64, u64, u64)], reads: &[ReadRecord]) -> u64 {
    let mut sorted = commits.to_vec();
    sorted.sort_unstable();
    let mut mismatches = 0;
    for r in reads {
        let lo = sorted.partition_point(|c| c.0 < r.key);
        let hi = sorted.partition_point(|c| c.0 < r.key || (c.0 == r.key && c.1 <= r.start));
        let returned = r.seq.unwrap_or(0);
        let newer = sorted[lo..hi].iter().filter(|c| c.2 > returned).count() as u64;
        let want = ReadLabel {
            consistent: newer == 0,
            versions_behind: newer.min(MAX_TRACKED_STALENESS),
        };
        mismatches += (want != r.label) as u64;
    }
    mismatches
}

/// The round's accounting and labelling checks.
pub fn check_round(r: &Round, reference_labels: bool, checks: &mut Checks) {
    checks.expect(r.issued == r.ops + r.in_flight, || {
        format!(
            "{} ops issued, but {} drained + {} in flight",
            r.issued, r.ops, r.in_flight
        )
    });
    checks.expect(r.dropped_results == 0, || {
        format!("{} results dropped", r.dropped_results)
    });
    checks.expect(r.label_shape_errors == 0, || {
        format!(
            "{} reads carry a label without completing, or the reverse",
            r.label_shape_errors
        )
    });
    checks.expect(r.ops > 0, || "no operation completed".into());
    if reference_labels {
        let bad = reference_mismatches(&r.commits, &r.labelled);
        checks.expect(bad == 0, || {
            format!(
                "{bad} of {} reads disagree with the reference labeller",
                r.labelled.len()
            )
        });
    }
}

/// Replay the round's commits and reads into a fresh `GroundTruth`,
/// window by window as the cluster fed its own; returns the seconds spent
/// and the labels that differ from the cluster's.
pub fn replay_labels(shape: &Shape, r: &Round) -> (f64, u64) {
    let mut gt = GroundTruth::new();
    gt.enable_gc(OP_TIMEOUT_MS);
    let (mut c, mut rd, mut differ) = (0, 0, 0);
    let t = Instant::now();
    for w in 0..shape.windows() as u32 {
        while c < r.commits.len() && r.commit_window[c] == w {
            let (key, ct, seq) = r.commits[c];
            gt.ingest_commit(key, seq, SimTime::from_ms(ct as f64 / 1e6));
            c += 1;
        }
        gt.advance_watermark(SimTime::from_ms(1e-3 + (w + 1) as f64 * WINDOW_MS));
        while rd < r.labelled.len() && r.read_window[rd] == w {
            let read = &r.labelled[rd];
            let label = gt.label_read(
                read.key,
                SimTime::from_ms(read.start as f64 / 1e6),
                read.seq,
            );
            differ += (label != read.label) as u64;
            rd += 1;
        }
    }
    (t.elapsed().as_secs_f64(), differ)
}

/// Replay `n` draws of the round's op source; seconds spent.
pub fn replay_draws(shape: &Shape, n: u64, seed: u64) -> f64 {
    let src = source(shape);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0.0;
    let mut sink = 0u64;
    let t = Instant::now();
    for _ in 0..n {
        let op = src.next_op_after(now, &mut rng);
        now = op.at_ms;
        sink = sink.wrapping_add(op.key);
    }
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    s
}

/// Replay `writes` write fan-outs (W and A legs) and `reads` read fan-outs
/// (R and S legs) of N=3 messages each through `NetworkModel::transmit`;
/// seconds spent.
pub fn replay_transmits(writes: u64, reads: u64, seed: u64) -> f64 {
    let net = network();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sink = 0.0;
    let t = Instant::now();
    for (ops, legs) in [(writes, [Leg::W, Leg::A]), (reads, [Leg::R, Leg::S])] {
        for i in 0..ops {
            let coord = (i % NODES as u64) as usize;
            for k in 0..3usize {
                let replica = (coord + k) % NODES as usize;
                sink += net
                    .transmit(legs[0], coord, replica, &mut rng)
                    .unwrap_or(0.0);
                sink += net
                    .transmit(legs[1], replica, coord, &mut rng)
                    .unwrap_or(0.0);
            }
        }
    }
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    s
}

/// Run `kvs-heavy` (serial) or `pdes-2w` (parallel).
pub fn run(p: &Params, shape: &Shape) -> Outcome {
    let mut checks = Checks::default();
    let reference_labels = matches!(shape.engine, EngineKind::Serial);
    // Untraced rounds give the end-to-end figures. In traced mode each is
    // followed by a traced round under the same seed, so both see the same
    // host conditions.
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut gauge = Gauge::default();
    let clock = Instant::now();
    while rounds.is_empty() || clock.elapsed().as_secs_f64() < p.seconds {
        let seed = mix(p.seed, rounds.len() as u64);
        let r = round(shape, shape.engine, seed, &mut gauge);
        check_round(&r, reference_labels, &mut checks);
        rounds.push(r.without_records());
        if p.trace {
            let r = round(shape, shape.engine, seed, &mut gauge);
            check_round(&r, false, &mut checks);
            // Only the first traced round is replayed layer by layer.
            traced.push(if traced.is_empty() {
                r
            } else {
                r.without_records()
            });
        }
    }
    if let EngineKind::Parallel { workers } = shape.engine {
        // The engine's contract: the parallel run drains exactly the op
        // stream of a one-thread run over the same partition plan.
        let reference = round(
            shape,
            EngineKind::SerialPartitioned { workers },
            mix(p.seed, 0),
            &mut gauge,
        );
        let same = rounds[0].digests == reference.digests;
        checks.expect(same, || {
            "parallel drain stream differs from SerialPartitioned".into()
        });
    }
    let drains: Vec<Interval> = rounds.iter().map(Round::drain).collect();
    let setup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.build_s.iter().zip(&r.add_s).map(|(b, a)| b + a))
        .collect();
    let all = || rounds.iter().chain(&traced);
    let attempted: u64 = all().map(|r| r.ops + r.shed).sum();
    let failed: u64 = all().map(|r| r.failed).sum();

    let metrics = if p.trace {
        let first = &traced[0];
        let (label_s, differ) = replay_labels(shape, first);
        checks.expect(differ == 0, || {
            format!("{differ} replayed labels differ from the cluster's")
        });
        let ops = first.ops as f64;
        let draw_ns = replay_draws(shape, first.ops, mix(p.seed, 0xD5A)) * 1e9 / ops;
        let transmit_s = replay_transmits(first.ops - first.reads, first.reads, mix(p.seed, 0x7E7));
        let transmit_ns = transmit_s * 1e9 / (ops * MSGS_PER_OP);
        let labelled = first.labelled.len().max(1) as f64;
        let label_ns = label_s * 1e9 / labelled;
        let layer_ns = draw_ns + transmit_ns * MSGS_PER_OP + label_ns * labelled / ops;
        let traced_windows: Vec<Interval> = traced
            .iter()
            .flat_map(|r| r.windows.iter().copied())
            .collect();
        let drain_wall: f64 = traced_windows.iter().map(|i| i.wall).sum();
        let drain_cpu: f64 = traced_windows.iter().map(|i| i.cpu).sum();
        let drain_ops: u64 = traced_windows.iter().map(|i| i.items).sum();
        let untraced_ns = 1e9 / pooled_rates(&drains).0;
        let traced_ns = 1e9 / pooled_rates(&traced.iter().map(Round::drain).collect::<Vec<_>>()).0;
        let med = |f: fn(&Round) -> &Vec<f64>| {
            median(&traced.iter().flat_map(f).copied().collect::<Vec<_>>())
        };
        let mut layers = vec![
            metric("cluster.build_s", med(|r| &r.build_s), "s"),
            metric("client.add_s", med(|r| &r.add_s), "s"),
            metric(
                "cluster.drain_ns_per_op",
                drain_wall * 1e9 / drain_ops as f64,
                "ns",
            ),
            metric("cluster.residual_ns_per_op", untraced_ns - layer_ns, "ns"),
            metric("workload.draw_ns_per_op", draw_ns, "ns"),
            metric("network.transmit_ns_per_msg", transmit_ns, "ns"),
            metric("staleness.label_ns_per_read", label_ns, "ns"),
            metric("sim.events_per_op", first.events as f64 / ops, "count"),
            metric("sim.cascaded_per_op", first.cascaded as f64 / ops, "count"),
            metric("sim.peak_pending", first.peak_pending as f64, "count"),
            metric(
                "client.session_entries",
                first.session_entries as f64,
                "count",
            ),
            metric(
                "staleness.retained_commits",
                first.retained_commits as f64,
                "count",
            ),
            metric(
                "client.peak_in_flight",
                first.peak_in_flight as f64,
                "count",
            ),
            metric(
                "trace.overhead_pct",
                (traced_ns - untraced_ns) / untraced_ns * 100.0,
                "%",
            ),
        ];
        if let Some(pdes) = &first.pdes {
            let windows = pdes.windows() as f64;
            let sent: u64 = pdes.workers.iter().map(|w| w.sent_remote).sum();
            let yields: u64 = pdes.workers.iter().map(|w| w.barrier_yields).sum();
            layers.extend([
                metric(
                    "pdes.events_per_window",
                    pdes.total_events() as f64 / windows,
                    "count",
                ),
                metric("pdes.sent_remote_per_op", sent as f64 / ops, "count"),
                metric(
                    "pdes.barrier_yields_per_window",
                    yields as f64 / windows,
                    "count",
                ),
                metric("pdes.cpu_per_wall", drain_cpu / drain_wall, "ratio"),
                metric(
                    "pdes.mean_horizon_ms",
                    pdes.mean_horizon_ms().unwrap_or(0.0),
                    "ms",
                ),
            ]);
        }
        layers
    } else {
        end_to_end(&drains, &setup, &gauge)
    };
    Outcome {
        checks,
        attempted,
        failed,
        metrics: with_rss(metrics, p.trace),
    }
}
