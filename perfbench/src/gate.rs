//! The correctness gate every operation passes through.
//!
//! Simulated statistics are exact and host-independent, so they are
//! checks here, not metrics. An operation fails when it returns an
//! `OsError` or panics, when the invariant auditor (run after the
//! operation, outside its timed region) reports anything, when its
//! fingerprint differs from the pinned value, or when it differs from
//! an earlier run of the same operation in the same process.

use crate::ops::{Op, Sample, DEFAULT_SEED};
use std::collections::BTreeMap;
use stramash_repro::sim::HardwareModel;
use stramash_repro::workloads::driver::Configuration;
use stramash_repro::workloads::npb::{Class, NpbKind};
use stramash_repro::workloads::target::SystemKind;

/// Field names of an NPB fingerprint.
pub const NPB_FIELDS: [&str; 4] = ["runtime_cycles", "messages", "replicated_pages", "verified"];
/// Field names of a serving fingerprint.
pub const SERVE_FIELDS: [&str; 4] = ["schedule_fp", "run_fp", "completed", "requests"];

/// Pinned fingerprints, keyed by [`Op::fingerprint_key`]. Without a pin
/// an operation is checked only against its own reruns and the auditor.
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<String, [u64; 4]>);

impl Pins {
    /// Pins `fingerprint` for `op`, replacing any earlier pin.
    #[must_use]
    pub fn with(mut self, op: &Op, fingerprint: [u64; 4]) -> Pins {
        self.0.insert(op.fingerprint_key(), fingerprint);
        self
    }

    /// The pin for `op`, if any.
    #[must_use]
    pub fn get(&self, op: &Op) -> Option<&[u64; 4]> {
        self.0.get(&op.fingerprint_key())
    }

    /// The committed fingerprints of the default release build.
    ///
    /// NPB runs: `[runtime cycles, messages, replicated pages,
    /// verified]` for IS at Class::Small on every Figure 9 configuration;
    /// their inputs do not depend on the seed, so they hold on every
    /// seed. Serving runs: `[schedule fingerprint, run fingerprint,
    /// completed, requests]` at [`DEFAULT_SEED`].
    #[must_use]
    pub fn recorded() -> Pins {
        use HardwareModel::{FullyShared, Separated, Shared};
        use SystemKind::{PopcornShm, PopcornTcp, Stramash, Vanilla};
        let is: [(SystemKind, HardwareModel, [u64; 4]); 8] = [
            (Vanilla, Shared, [0x13b7_d79e, 0, 0, 1]),
            (PopcornTcp, Shared, [0x350d_9b81, 6_234, 3_092, 1]),
            (PopcornShm, Separated, [0x285f_19df, 6_234, 3_092, 1]),
            (PopcornShm, Shared, [0x2c88_5c6f, 6_234, 3_092, 1]),
            (PopcornShm, FullyShared, [0x2251_97f2, 6_234, 3_092, 1]),
            (Stramash, Separated, [0x1e55_bc16, 18, 3, 1]),
            (Stramash, Shared, [0x1e57_9f86, 18, 3, 1]),
            (Stramash, FullyShared, [0x1355_ee80, 18, 3, 1]),
        ];
        let serve: [(SystemKind, f64, [u64; 4]); 8] = [
            (
                Stramash,
                10.0,
                [0x239e_de74_66a4_5513, 0x158a_6c0a_0f78_b6d4, 5_000, 5_000],
            ),
            (
                Stramash,
                40.0,
                [0x1e8f_157a_3a7c_b75f, 0xf8df_b7cc_5d95_82db, 5_000, 5_000],
            ),
            (
                PopcornShm,
                10.0,
                [0x239e_de74_66a4_5513, 0xc8dc_2035_5826_2d46, 5_000, 5_000],
            ),
            (
                PopcornShm,
                40.0,
                [0x1e8f_157a_3a7c_b75f, 0xe545_fa94_bff7_2230, 5_000, 5_000],
            ),
            (
                PopcornTcp,
                10.0,
                [0x239e_de74_66a4_5513, 0x3dae_a15b_2580_8720, 5_000, 5_000],
            ),
            (
                PopcornTcp,
                40.0,
                [0x1e8f_157a_3a7c_b75f, 0x38e6_0b8b_7504_e208, 5_000, 5_000],
            ),
            (
                Vanilla,
                10.0,
                [0x239e_de74_66a4_5513, 0xd942_df20_70a3_8679, 5_000, 5_000],
            ),
            (
                Vanilla,
                40.0,
                [0x1e8f_157a_3a7c_b75f, 0xa163_4734_9fa4_65d3, 5_000, 5_000],
            ),
        ];
        let mut pins = Pins::default();
        for (design, model, fp) in is {
            let op = Op::Npb {
                kind: NpbKind::Is,
                config: Configuration {
                    kind: design,
                    model,
                },
                class: Class::Small,
                traced: false,
            };
            pins = pins.with(&op, fp);
        }
        for (kind, load, fp) in serve {
            pins = pins.with(
                &Op::Serve {
                    kind,
                    load,
                    seed: DEFAULT_SEED,
                },
                fp,
            );
        }
        pins
    }
}

/// Checks samples against the pins and against earlier samples of the
/// same operation.
#[derive(Debug)]
pub struct Gate {
    pins: Pins,
    first: BTreeMap<String, [u64; 4]>,
}

impl Gate {
    /// A gate over `pins`.
    #[must_use]
    pub fn new(pins: Pins) -> Gate {
        Gate {
            pins,
            first: BTreeMap::new(),
        }
    }

    /// Checks one sample of `op`; `Err` carries the reason it failed.
    ///
    /// # Errors
    ///
    /// A description of the first broken check.
    pub fn check(&mut self, op: &Op, sample: &Sample) -> Result<(), String> {
        if !sample.violations.is_empty() {
            return Err(format!("audit: {}", sample.violations.join("; ")));
        }
        let fields = fields(op);
        if let Some(pin) = self.pins.get(op) {
            mismatch(fields, pin, &sample.fingerprint, "pinned")?;
        }
        match self.first.get(&op.fingerprint_key()) {
            Some(first) => mismatch(fields, first, &sample.fingerprint, "first run")?,
            None => {
                self.first.insert(op.fingerprint_key(), sample.fingerprint);
            }
        }
        Ok(())
    }
}

fn fields(op: &Op) -> [&'static str; 4] {
    match op {
        Op::Npb { .. } => NPB_FIELDS,
        Op::Serve { .. } => SERVE_FIELDS,
    }
}

fn mismatch(
    fields: [&str; 4],
    want: &[u64; 4],
    got: &[u64; 4],
    against: &str,
) -> Result<(), String> {
    match (0..4).find(|&i| want[i] != got[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{} is {:#x}, {against} value is {:#x}",
            fields[i], got[i], want[i]
        )),
    }
}

/// Renders a fingerprint for the per-operation log.
#[must_use]
pub fn render(op: &Op, fingerprint: &[u64; 4]) -> String {
    let parts: Vec<String> = fields(op)
        .iter()
        .zip(fingerprint)
        .map(|(f, v)| format!("{f}={v:#x}"))
        .collect();
    parts.join(" ")
}
