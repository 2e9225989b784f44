//! The PBS workspace benchmark: four workloads that each stress different
//! layers, their end-to-end figures, a traced mode with per-layer figures,
//! and independent checks of every workload's outputs.
//!
//! See `README.md` in this directory for the layer-to-metric map.

pub mod audit;
pub mod measure;
pub mod store;
pub mod wars;

use measure::Outcome;

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed the generated inputs derive from.
    pub seed: u64,
    /// Measured seconds (split evenly between the untraced and the traced
    /// passes in traced mode).
    pub seconds: f64,
    /// Traced mode: print the per-layer metrics.
    pub trace: bool,
    /// Test-sized inputs.
    pub smoke: bool,
}

/// The benchmark's workloads, by their command-line names.
pub const WORKLOADS: [&str; 4] = ["wars-table4", "kvs-heavy", "audit-storm", "pdes-2w"];

/// Every per-layer metric with its unit; a traced run prints all of them.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("dist.fit_s", "s"),
    ("wars.sample_ns_per_trial", "ns"),
    ("wars.trial_ns_per_trial", "ns"),
    ("mc.record_ns_per_trial", "ns"),
    ("wars.residual_ns_per_trial", "ns"),
    ("cluster.build_s", "s"),
    ("client.add_s", "s"),
    ("cluster.drain_ns_per_op", "ns"),
    ("cluster.residual_ns_per_op", "ns"),
    ("workload.draw_ns_per_op", "ns"),
    ("network.transmit_ns_per_msg", "ns"),
    ("staleness.label_ns_per_read", "ns"),
    ("sim.events_per_op", "count"),
    ("sim.cascaded_per_op", "count"),
    ("sim.peak_pending", "count"),
    ("client.session_entries", "count"),
    ("staleness.retained_commits", "count"),
    ("client.peak_in_flight", "count"),
    ("pdes.events_per_window", "count"),
    ("pdes.sent_remote_per_op", "count"),
    ("pdes.barrier_yields_per_window", "count"),
    ("pdes.cpu_per_wall", "ratio"),
    ("pdes.mean_horizon_ms", "ms"),
    ("cluster.history_run_s", "s"),
    ("checker.sessions_ns_per_op", "ns"),
    ("checker.labels_ns_per_op", "ns"),
    ("checker.order_ns_per_op", "ns"),
    ("checker.lin_ns_per_op", "ns"),
    ("checker.residual_ns_per_op", "ns"),
    ("lin.nodes_per_op", "count"),
    ("lin.exhausted_keys", "count"),
    ("trace.overhead_pct", "%"),
];

/// Run `workload` (one of [`WORKLOADS`]); `None` for an unknown name.
///
/// A traced run prints every per-layer metric. The layers its workload
/// does not call are measured by one untraced and one traced round, at
/// the same size, of the workload that owns them. Those rounds add their
/// check failures, but not their operations.
pub fn run(workload: &str, p: &Params) -> Option<Outcome> {
    let mut out = run_one(workload, p)?;
    if p.trace {
        let one_round = Params { seconds: 0.0, ..*p };
        let mut owners: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(name, _)| out.get(name).is_none())
            .map(|(name, _)| owner(name))
            .collect();
        owners.sort_unstable();
        owners.dedup();
        for owner in owners {
            let extra = run_one(owner, &one_round).expect("listed workload");
            for failure in extra.checks.failures() {
                out.checks
                    .expect(false, || format!("{owner} round: {failure}"));
            }
            for m in extra.metrics {
                if out.get(m.name).is_none() {
                    out.metrics.push(m);
                }
            }
        }
    }
    Some(out)
}

/// The workload whose traced run measures the per-layer metric `name`.
fn owner(name: &str) -> &'static str {
    match name.split('.').next() {
        Some("dist" | "wars" | "mc") => "wars-table4",
        Some("checker" | "lin") => "audit-storm",
        _ if name == "cluster.history_run_s" => "audit-storm",
        Some("pdes") => "pdes-2w",
        _ => "kvs-heavy",
    }
}

fn run_one(workload: &str, p: &Params) -> Option<Outcome> {
    let store_shape = |s: store::Shape| if p.smoke { s.smoke() } else { s };
    let wars_shape = if p.smoke {
        wars::Shape::SMOKE
    } else {
        wars::Shape::FULL
    };
    let audit_shape = if p.smoke {
        audit::Shape::SMOKE
    } else {
        audit::Shape::FULL
    };
    Some(match workload {
        "wars-table4" => wars::run(p, &wars_shape),
        "kvs-heavy" => store::run(p, &store_shape(store::Shape::KVS_HEAVY)),
        "audit-storm" => audit::run(p, &audit_shape),
        "pdes-2w" => store::run(p, &store_shape(store::Shape::PDES_2W)),
        _ => return None,
    })
}
