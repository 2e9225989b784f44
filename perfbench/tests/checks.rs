//! The benchmark's own tests: every workload runs at test size with its
//! checks passing, every check fails on a corrupted input, and `--seed`
//! changes the generated inputs.

use pbs_kvs::staleness::ReadLabel;
use pbs_kvs::OpHistory as History;
use perfbench::measure::{Checks, Gauge};
use perfbench::{audit, store, wars, Params, PER_LAYER, WORKLOADS};

fn smoke(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        seconds: 0.01,
        trace,
        smoke: true,
    }
}

#[test]
fn every_workload_passes_its_checks_at_test_size() {
    const END_TO_END: [&str; 4] = ["work_per_s", "work_per_cpu_s", "setup_s", "peak_rss_mb"];
    for w in WORKLOADS {
        let out = perfbench::run(w, &smoke(3, false)).expect("known workload");
        assert!(out.checks.passed(), "{w}: {:?}", out.checks.failures());
        assert!(out.attempted > 0 && out.failed < out.attempted, "{w}");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END, "{w}");
        for m in &out.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{w}: {m:?}");
        }
    }
    assert!(perfbench::run("no-such-workload", &smoke(3, false)).is_none());
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        let out = perfbench::run(w, &smoke(5, true)).expect("known workload");
        assert!(out.checks.passed(), "{w}: {:?}", out.checks.failures());
        let mut names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want, "{w}");
        for m in out
            .metrics
            .iter()
            .filter(|m| matches!(m.unit, "s" | "ms" | "ns"))
        {
            assert!(
                m.value != 0.0 && m.value.is_finite(),
                "{w}: {m:?} must be measured"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
}

// ---- wars-table4 ---------------------------------------------------------

fn wars_round(seed: u64) -> (Vec<wars::Cell>, Vec<pbs_wars::TVisibility>) {
    let (_, cells, _) = wars::setup();
    let tvs = cells
        .iter()
        .map(|c| pbs_wars::TVisibility::simulate(c.model.as_ref(), 4_000, seed))
        .collect();
    (cells, tvs)
}

fn index(cells: &[wars::Cell], profile: &str, r: u32, w: u32) -> usize {
    cells
        .iter()
        .position(|c| c.profile == profile && c.cfg.r() == r && c.cfg.w() == w)
        .unwrap()
}

#[test]
fn wars_checks_pass_and_fail_on_misattributed_curves() {
    let (cells, mut tvs) = wars_round(9);
    let mut ok = Checks::default();
    wars::check_round(&cells, &tvs, &mut ok);
    assert!(ok.passed(), "{:?}", ok.failures());

    // A partial quorum's curve filed under a strict pair: P_c(0) < 1 there.
    let strict = index(&cells, "LNKD-DISK", 2, 2);
    let partial = index(&cells, "LNKD-DISK", 1, 1);
    tvs.swap(strict, partial);
    let mut bad = Checks::default();
    wars::check_round(&cells, &tvs, &mut bad);
    assert!(
        bad.failures().iter().any(|f| f.contains("strict quorum")),
        "{:?}",
        bad.failures()
    );
    tvs.swap(strict, partial);

    // R=3 read latencies filed under R=1: latency falls as R grows.
    let r1 = index(&cells, "YMMR", 1, 1);
    let r3 = index(&cells, "YMMR", 3, 1);
    tvs.swap(r1, r3);
    let mut bad = Checks::default();
    wars::check_round(&cells, &tvs, &mut bad);
    assert!(
        bad.failures().iter().any(|f| f.contains("read p")),
        "{:?}",
        bad.failures()
    );
}

#[test]
fn wars_eq1_bound_fails_on_a_curve_below_it() {
    // WAN is not i.i.d., so its R=W=1 curve sits near 1/3 at t=0: filed
    // under an i.i.d. R=2, W=1 cell (bound 2/3) it must fail.
    let (cells, mut tvs) = wars_round(10);
    let wan = index(&cells, "WAN", 1, 1);
    let iid = index(&cells, "LNKD-SSD", 2, 1);
    tvs.swap(wan, iid);
    let mut bad = Checks::default();
    wars::check_round(&cells, &tvs, &mut bad);
    assert!(
        bad.failures().iter().any(|f| f.contains("Eq. 1")),
        "{:?}",
        bad.failures()
    );
}

#[test]
fn refit_check_fails_on_a_perturbed_fit() {
    let (mut refit, _, _) = wars::setup();
    let mut ok = Checks::default();
    wars::check_refit(&refit, 400_000, 1, &mut ok);
    assert!(ok.passed(), "{:?}", ok.failures());
    refit.read.xm *= 1.1;
    let mut bad = Checks::default();
    wars::check_refit(&refit, 400_000, 1, &mut bad);
    assert!(!bad.passed());
}

// ---- kvs-heavy / pdes-2w -------------------------------------------------

fn small_round(seed: u64) -> (store::Shape, store::Round) {
    let shape = store::Shape::KVS_HEAVY.smoke();
    let r = store::round(&shape, shape.engine, seed, &mut Gauge::default());
    (shape, r)
}

#[test]
fn reference_labeller_agrees_and_catches_a_flipped_label() {
    let (_, mut r) = small_round(4);
    let mut ok = Checks::default();
    store::check_round(&r, true, &mut ok);
    assert!(ok.passed(), "{:?}", ok.failures());
    assert!(
        r.labelled.iter().any(|x| !x.label.consistent),
        "the load must produce stale reads"
    );

    let i = r.labelled.iter().position(|x| x.label.consistent).unwrap();
    r.labelled[i].label = ReadLabel {
        consistent: false,
        versions_behind: 1,
    };
    assert_eq!(store::reference_mismatches(&r.commits, &r.labelled), 1);
}

#[test]
fn reference_labeller_catches_a_dropped_commit() {
    let (_, r) = small_round(6);
    let stale = r.labelled.iter().find(|x| !x.label.consistent).unwrap();
    let commits: Vec<_> = r
        .commits
        .iter()
        .copied()
        .filter(|c| c.0 != stale.key)
        .collect();
    assert!(store::reference_mismatches(&commits, &r.labelled) > 0);
}

#[test]
fn accounting_check_catches_a_dropped_op() {
    let (_, mut r) = small_round(8);
    r.ops -= 1;
    let mut bad = Checks::default();
    store::check_round(&r, false, &mut bad);
    assert!(
        bad.failures().iter().any(|f| f.contains("in flight")),
        "{:?}",
        bad.failures()
    );
}

#[test]
fn label_replay_reproduces_the_clusters_labels() {
    let (shape, mut r) = small_round(12);
    assert_eq!(store::replay_labels(&shape, &r).1, 0);
    let i = r.labelled.iter().position(|x| !x.label.consistent).unwrap();
    r.labelled[i].label = ReadLabel {
        consistent: true,
        versions_behind: 0,
    };
    assert_eq!(store::replay_labels(&shape, &r).1, 1);
}

#[test]
fn parallel_stream_matches_serial_partitioned_and_digests_see_differences() {
    let shape = store::Shape::PDES_2W.smoke();
    let par = store::round(&shape, shape.engine, 21, &mut Gauge::default());
    let ser = store::round(
        &shape,
        pbs_kvs::EngineKind::SerialPartitioned { workers: 2 },
        21,
        &mut Gauge::default(),
    );
    assert_eq!(par.digests, ser.digests);
    let other = store::round(&shape, shape.engine, 22, &mut Gauge::default());
    assert_ne!(
        par.digests, other.digests,
        "another seed must change the op stream"
    );
}

#[test]
fn seed_changes_the_generated_inputs() {
    let (_, a) = small_round(31);
    let (_, b) = small_round(32);
    assert_ne!(a.digests, b.digests);
    let (_, a2) = small_round(31);
    assert_eq!(a.digests, a2.digests, "the same seed gives the same inputs");
    let (c1, t1) = wars_round(perfbench::measure::mix(31, 0));
    let (_, t2) = wars_round(perfbench::measure::mix(32, 0));
    let i = index(&c1, "YMMR", 1, 1);
    assert_ne!(
        t1[i].read_latency_percentile(50.0),
        t2[i].read_latency_percentile(50.0)
    );
}

// ---- audit-storm ---------------------------------------------------------

fn relabelled(history: &History, flip: usize) -> History {
    let mut out = History::new();
    let mut seen = 0;
    for h in history.ops() {
        let mut label = h.label;
        if let Some(l) = label.as_mut() {
            if seen == flip {
                l.consistent = !l.consistent;
            }
            seen += 1;
        }
        out.push(h.op, label);
    }
    out.set_crashes(history.crashes().to_vec());
    out
}

#[test]
fn audit_checks_pass_and_fail_on_corrupted_histories() {
    let (history, streaming, nodes) = audit::record(&audit::Shape::SMOKE);
    let ok = audit::audit(&history, &streaming, nodes, true);
    assert!(ok.checks.passed(), "{:?}", ok.checks.failures());
    assert!(ok.spans.iter().all(|&s| s > 0.0));

    let flipped = relabelled(&history, 3);
    let bad = audit::audit(&flipped, &streaming, nodes, false);
    assert!(
        bad.checks
            .failures()
            .iter()
            .any(|f| f.contains("relabelled")),
        "{:?}",
        bad.checks.failures()
    );

    let mut counters = streaming;
    counters.monotonic_violations += 1;
    let bad = audit::audit(&history, &counters, nodes, false);
    assert!(
        bad.checks.failures().iter().any(|f| f.contains("session")),
        "{:?}",
        bad.checks.failures()
    );

    // Writes alone cannot contradict linearizability: no violation to find.
    let mut writes = History::new();
    for h in history
        .ops()
        .iter()
        .filter(|h| h.label.is_none() && h.op.kind == pbs_workload::OpKind::Write)
    {
        writes.push(h.op, None);
    }
    let bad = audit::audit(&writes, &Default::default(), nodes, false);
    assert!(
        bad.checks.failures().iter().any(|f| f.contains("WGL")),
        "{:?}",
        bad.checks.failures()
    );
}
