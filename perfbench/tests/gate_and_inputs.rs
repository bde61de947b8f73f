//! The correctness gate and the seeded inputs.

use stramash_perfbench::gate::{Gate, Pins};
use stramash_perfbench::measure::attempt;
use stramash_perfbench::metrics::Tally;
use stramash_perfbench::ops::{serve_config, Op, Sample, Workload, SERVE_LOADS};
use stramash_repro::sim::HardwareModel;
use stramash_repro::workloads::driver::Configuration;
use stramash_repro::workloads::npb::{Class, NpbKind};
use stramash_repro::workloads::serve::{generate_schedule, schedule_fingerprint};
use stramash_repro::workloads::target::SystemKind;

fn tiny_is() -> Op {
    Op::Npb {
        kind: NpbKind::Is,
        config: Configuration {
            kind: SystemKind::Stramash,
            model: HardwareModel::Shared,
        },
        class: Class::Tiny,
        traced: false,
    }
}

#[test]
fn serve_schedule_is_byte_identical_for_a_seed() {
    for load in SERVE_LOADS {
        let a = generate_schedule(&serve_config(7, load));
        let b = generate_schedule(&serve_config(7, load));
        assert_eq!(a, b);
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        let other = generate_schedule(&serve_config(8, load));
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&other));
    }
}

#[test]
fn operation_order_is_a_function_of_the_seed() {
    for w in Workload::ALL {
        assert_eq!(w.ops(3), w.ops(3));
        let mut labels: Vec<String> = w.ops(3).iter().map(Op::label).collect();
        let mut others: Vec<String> = w.ops(4).iter().map(Op::label).collect();
        labels.sort();
        others.sort();
        assert_eq!(
            labels,
            others,
            "{}: every seed runs the same operations",
            w.name()
        );
    }
}

#[test]
fn a_tampered_pin_is_a_failed_operation() {
    let op = tiny_is();
    let mut tally = Tally::default();
    let (sample, _) = attempt(&op, &mut Gate::new(Pins::default()), &mut tally, false)
        .expect("an unpinned run passes");
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 0
        }
    );

    let mut tampered = sample.fingerprint;
    tampered[0] += 1;
    let mut tally = Tally::default();
    let passed = attempt(
        &op,
        &mut Gate::new(Pins::default().with(&op, tampered)),
        &mut tally,
        false,
    );
    assert!(passed.is_none());
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 1
        }
    );

    let mut tally = Tally::default();
    let pins = Pins::default().with(&op, sample.fingerprint);
    assert!(attempt(&op, &mut Gate::new(pins), &mut tally, false).is_some());
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 0
        }
    );
}

#[test]
fn a_rerun_that_differs_or_an_audit_finding_fails() {
    let op = tiny_is();
    let mut gate = Gate::new(Pins::default());
    let first = Sample {
        fingerprint: [1, 2, 3, 1],
        ..Sample::default()
    };
    assert!(gate.check(&op, &first).is_ok());
    assert!(gate.check(&op, &first).is_ok());
    let drifted = Sample {
        fingerprint: [1, 2, 4, 1],
        ..Sample::default()
    };
    assert!(gate.check(&op, &drifted).is_err());
    let unsound = Sample {
        violations: vec!["ring cursor".into()],
        ..first
    };
    assert!(gate.check(&op, &unsound).is_err());
}

#[test]
fn recorded_pins_cover_every_operation_of_the_default_seed() {
    let pins = Pins::recorded();
    for w in Workload::ALL {
        for op in w.ops(stramash_perfbench::ops::DEFAULT_SEED) {
            assert!(pins.get(&op).is_some(), "{} has no pin", op.label());
        }
    }
}
