//! `audit-storm`: the offline checker stack over a hot-key history.
//!
//! Set-up records one history: 8 nodes, N=3, R=W=1, 64 shared-source
//! clients at 2k ops/s in total, a 50/50 mix over Zipf(0.99) keys, under a
//! calm–storm–calm fault schedule with one node crash. The timed work is
//! one audit of that history per round: `replay_sessions`,
//! `relabel_reads`, `check_order` and the per-key WGL search.
//!
//! The history is recorded from a fixed seed, not from `--seed`: the
//! hottest keys exhaust the WGL node budget, and those operations count
//! as failed audits. A seeded history would change how many operations
//! sit on exhausted keys, and the failed share must be the same in every
//! run. The run's `--seed` has no effect on this workload.

use crate::measure::{
    end_to_end, median, metric, with_rss, Checks, Gauge, Interval, Outcome, Stopwatch,
};
use crate::store::network;
use crate::Params;
use pbs_core::ReplicaConfig;
use pbs_kvs::checker::lin::check_lin_keys;
use pbs_kvs::checker::{check_order, relabel_reads, replay_sessions};
use pbs_kvs::{
    ClientOptions, ClientStats, Cluster, ClusterOptions, FaultProfile, FaultSchedule,
    KeyLinVerdict, LinOptions, OpHistory, WindowDrain,
};
use pbs_sim::SimTime;
use pbs_workload::{OpMix, Poisson, SharedStream, Zipf};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The seed the audited history is recorded from.
pub const HISTORY_SEED: u64 = 7;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Clients.
    pub clients: u32,
    /// Offered load over all clients, ops/s.
    pub rate: f64,
    /// Zipf key universe.
    pub keys: u64,
    /// Simulated load, ms.
    pub duration_ms: f64,
    /// Storm window, ms.
    pub storm: (f64, f64),
    /// Crash `(node, at ms, down ms)`.
    pub crash: (usize, f64, f64),
}

impl Shape {
    /// The benchmark's shape: 20 s of load, the storm in the middle.
    pub const FULL: Shape = Shape {
        clients: 64,
        rate: 2_000.0,
        keys: 10_000,
        duration_ms: 20_000.0,
        storm: (5_000.0, 15_000.0),
        crash: (3, 9_000.0, 1_500.0),
    };
    /// A quick shape for tests.
    pub const SMOKE: Shape = Shape {
        clients: 16,
        rate: 1_000.0,
        keys: 1_000,
        duration_ms: 3_000.0,
        storm: (500.0, 2_000.0),
        crash: (3, 1_000.0, 500.0),
    };
}

/// Record the audited history; returns it with the streaming session
/// counters and the node count.
pub fn record(shape: &Shape) -> (OpHistory, ClientStats, u32) {
    let mut opts =
        ClusterOptions::validation(ReplicaConfig::new(3, 1, 1).expect("valid"), HISTORY_SEED);
    opts.nodes = 8;
    opts.op_timeout_ms = 2_000.0;
    let mut cluster = Cluster::new(opts, network());
    cluster.enable_history();
    cluster
        .network()
        .set_fault_schedule(FaultSchedule::calm_storm_calm(
            FaultProfile::storm(HISTORY_SEED),
            shape.storm.0,
            shape.storm.1,
        ))
        .expect("the storm profile is valid");
    let (node, at, down) = shape.crash;
    cluster.crash_node_at(node, SimTime::from_ms(at), down);
    cluster.add_clients_shared(
        shape.clients,
        Arc::new(SharedStream::new(
            Poisson::per_second(shape.rate / shape.clients as f64),
            Zipf::new(shape.keys, 0.99),
            OpMix::new(0.5),
        )),
        ClientOptions {
            op_timeout_ms: 2_000.0,
            ..ClientOptions::default()
        },
    );
    cluster.start_clients();
    let mut drain = WindowDrain::default();
    let window = 500.0;
    let mut t = window;
    while t <= shape.duration_ms {
        cluster.drain_window_into(SimTime::from_ms(t), &mut drain);
        t += window;
    }
    cluster.stop_clients();
    // Settle: every op still in flight completes or times out.
    cluster.drain_window_into(
        SimTime::from_ms(shape.duration_ms + 2.0 * opts.op_timeout_ms),
        &mut drain,
    );
    let stats = cluster.client_stats();
    (cluster.take_history(), stats, opts.nodes)
}

/// One audit's verdicts and per-stage seconds.
#[derive(Debug)]
pub struct Audit {
    /// Seconds in `replay_sessions`, `relabel_reads`, `check_order` and
    /// WGL (zero when untraced).
    pub spans: [f64; 4],
    /// Whole-audit wall and CPU seconds.
    pub wall: f64,
    /// Whole-audit CPU seconds.
    pub cpu: f64,
    /// Keys whose WGL search ran out of budget.
    pub exhausted: Vec<u64>,
    /// WGL DFS nodes explored.
    pub nodes: u64,
    /// Failures of the audit's own checks.
    pub checks: Checks,
}

/// Audit `history` once; with `traced`, time each stage on its own.
pub fn audit(history: &OpHistory, streaming: &ClientStats, nodes: u32, traced: bool) -> Audit {
    let mut marks = [None; 5];
    let mut mark = |i: usize| {
        if traced {
            marks[i] = Some(Instant::now());
        }
    };
    let sw = Stopwatch::start();
    mark(0);
    let sessions = replay_sessions(history, streaming);
    mark(1);
    let labels = relabel_reads(history);
    mark(2);
    let order = check_order(history, nodes);
    mark(3);
    let lin = check_lin_keys(history, &LinOptions::default());
    mark(4);
    let (wall, cpu) = sw.stop();
    let span = |i: usize| match (marks[i], marks[i + 1]) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let mut checks = Checks::default();
    checks.expect(sessions.agrees(), || {
        format!("session replay disagrees with streaming: {sessions:?}")
    });
    checks.expect(labels.mismatches == 0, || {
        format!("{} relabelled reads mismatch", labels.mismatches)
    });
    checks.expect(order.violations() == 0, || {
        format!("order oracle: {} violations", order.violations())
    });
    let violated = lin.iter().any(|k| k.verdict == KeyLinVerdict::Violation);
    checks.expect(violated, || {
        "WGL found no violation under R=W=1 and a storm".into()
    });
    Audit {
        spans: [span(0), span(1), span(2), span(3)],
        wall,
        cpu,
        exhausted: lin
            .iter()
            .filter(|k| k.verdict == KeyLinVerdict::Exhausted)
            .map(|k| k.key)
            .collect(),
        nodes: lin.iter().map(|k| k.nodes).sum(),
        checks,
    }
}

/// History ops per key.
pub fn ops_per_key(history: &OpHistory) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for h in history.ops() {
        *counts.entry(h.op.key).or_insert(0) += 1;
    }
    counts
}

/// Run the workload.
pub fn run(p: &Params, shape: &Shape) -> Outcome {
    let mut checks = Checks::default();
    // Every round records the history afresh, so the set-up times sample
    // the host over the whole run, as the rates do; the recordings must all
    // be identical.
    let mut setup_times = Vec::new();
    let mut recorded: Option<(OpHistory, ClientStats, u32)> = None;
    // Untraced audits give the end-to-end figures; in traced mode each is
    // followed by a traced audit, so both see the same host conditions.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut gauge = Gauge::default();
    let clock = Instant::now();
    while untraced.is_empty() || clock.elapsed().as_secs_f64() < p.seconds {
        let t = Instant::now();
        let rec = record(shape);
        setup_times.push(t.elapsed().as_secs_f64());
        match &recorded {
            Some(first) => checks.expect(first.0.ops() == rec.0.ops(), || {
                "re-recorded history differs".into()
            }),
            None => recorded = Some(rec),
        }
        let (history, streaming, nodes) = recorded.as_ref().expect("recorded above");
        untraced.push(audit(history, streaming, *nodes, false));
        gauge.sample();
        if p.trace {
            traced.push(audit(history, streaming, *nodes, true));
        }
    }
    let (history, _, _) = recorded.expect("at least one round");
    let per_key = ops_per_key(&history);
    let total = history.len() as u64;
    let audits: Vec<&Audit> = untraced.iter().chain(&traced).collect();
    let failed_per_round: u64 = audits[0].exhausted.iter().map(|k| per_key[k]).sum();
    for a in &audits {
        for f in a.checks.failures() {
            checks.expect(false, || f.clone());
        }
        checks.expect(a.exhausted == audits[0].exhausted, || {
            "exhausted keys differ between audits".into()
        });
    }
    let items = total - failed_per_round;
    let attempted = total * audits.len() as u64;
    let failed = failed_per_round * audits.len() as u64;

    let metrics = if p.trace {
        let ns = |secs: Vec<f64>| median(&secs) * 1e9 / total as f64;
        let stage = |i: usize| ns(traced.iter().map(|a| a.spans[i]).collect());
        let untraced_ns = ns(untraced.iter().map(|a| a.wall).collect());
        let traced_ns = ns(traced.iter().map(|a| a.wall).collect());
        let spans: f64 = (0..4).map(stage).sum();
        vec![
            metric("cluster.history_run_s", median(&setup_times), "s"),
            metric("checker.sessions_ns_per_op", stage(0), "ns"),
            metric("checker.labels_ns_per_op", stage(1), "ns"),
            metric("checker.order_ns_per_op", stage(2), "ns"),
            metric("checker.lin_ns_per_op", stage(3), "ns"),
            metric("checker.residual_ns_per_op", untraced_ns - spans, "ns"),
            metric(
                "lin.nodes_per_op",
                audits[0].nodes as f64 / total as f64,
                "count",
            ),
            metric(
                "lin.exhausted_keys",
                audits[0].exhausted.len() as f64,
                "count",
            ),
            metric(
                "trace.overhead_pct",
                (traced_ns - untraced_ns) / untraced_ns * 100.0,
                "%",
            ),
        ]
    } else {
        let rounds: Vec<Interval> = untraced
            .iter()
            .map(|a| Interval {
                items,
                wall: a.wall,
                cpu: a.cpu,
            })
            .collect();
        end_to_end(&rounds, &setup_times, &gauge)
    };
    Outcome {
        checks,
        attempted,
        failed,
        metrics: with_rss(metrics, p.trace),
    }
}
