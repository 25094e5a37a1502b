//! Self-tests of the benchmark: the oracle rejects a wrong expectation,
//! and tracing does not change what a run does.

use std::path::PathBuf;

use septic_perfbench::{run, Config, Workload};

fn config(workload: Workload, trace: bool, ops: u64) -> Config {
    let mut cfg = Config::new(workload, 7, 1.0, trace);
    cfg.fixed_ops = Some(ops);
    // One directory per test and workload: the tests run in parallel, and
    // a durable run clears its directory when it starts.
    cfg.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}-{ops}",
        workload.name(),
        u8::from(trace)
    ));
    cfg
}

#[test]
fn every_workload_passes_its_oracle() {
    for workload in Workload::ALL {
        let report = run(&config(workload, false, 60));
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 120);
    }
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    for workload in Workload::ALL {
        let mut cfg = config(workload, false, 20);
        cfg.sabotage = true;
        let report = run(&cfg);
        assert!(
            !report.correct,
            "{}: sabotage went unnoticed",
            workload.name()
        );
        assert_eq!(report.failed, 1, "{}: {:?}", workload.name(), report.notes);
        assert!(report.notes.iter().any(|n| n.starts_with("deviation:")));
    }
}

#[test]
fn traced_and_untraced_runs_of_one_seed_have_identical_outcomes() {
    for workload in Workload::ALL {
        let plain = run(&config(workload, false, 150));
        let traced = run(&config(workload, true, 150));
        assert!(plain.correct && traced.correct, "{}", workload.name());
        // A traced run measures an untraced phase, then a traced one.
        assert_eq!(traced.phase_outcomes.len(), 2);
        for phase in &traced.phase_outcomes {
            assert_eq!(*phase, plain.phase_outcomes[0], "{}", workload.name());
        }
        let o = plain.phase_outcomes[0];
        assert!(o.reads > 0);
        if workload == Workload::WebWire {
            assert!(o.attacks > 0 && o.blocked == o.attacks);
        }
    }
}
