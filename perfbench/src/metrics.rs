//! Metric definitions and the result line.
//!
//! Every metric the command prints is declared here, with its unit and
//! direction; `BENCHMARK.json` declares the same set (a test checks
//! that). The result line is built from the declarations, so a metric
//! that is not declared cannot be printed and a declared one cannot be
//! left out.

use crate::ops::config_slug;
use std::collections::BTreeMap;
use stramash_repro::workloads::driver::Configuration;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which way is better.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("run_s", "s", "lower"),
        def("sim_maccess_per_s", "Maccess/s", "higher"),
        def("peak_rss_mb", "MB", "lower"),
    ]
}

/// The per-layer metrics, printed with `--trace 1`. Counts come from
/// the program's statistics and repeat exactly; `_ns` and `_s` metrics
/// are host time. A metric whose layer a workload does not exercise
/// reads 0 on that workload.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("mem.accesses", "count", "lower"),
        def("mem.l1d.hit_rate", "ratio", "higher"),
        def("mem.l2.hit_rate", "ratio", "higher"),
        def("mem.l3.hit_rate", "ratio", "higher"),
        def("mem.remote_mem_hits", "count", "lower"),
        def("mem.snoop_data_hits", "count", "lower"),
        def("mem.snoop_invalidations", "count", "lower"),
        def("mem.writebacks", "count", "lower"),
        def("mem.access_ns", "ns", "lower"),
        def("mem.plan_ns", "ns", "lower"),
        def("isa.walk_ns", "ns", "lower"),
        def("kernel.tlb_hits", "count", "higher"),
        def("kernel.tlb_miss_rate", "ratio", "lower"),
        def("kernel.msg.sent", "count", "lower"),
        def("kernel.msg.bytes", "B", "lower"),
        def("kernel.msg.backpressure_stalls", "count", "lower"),
        def("kernel.msg.roundtrip_ns", "ns", "lower"),
        def("kernel.boot_s", "s", "lower"),
        def("core.direct_remote_faults", "count", "higher"),
        def("core.remote_vma_walks", "count", "lower"),
        def("core.ptl_acquisitions", "count", "lower"),
        def("core.pte_reconfigurations", "count", "lower"),
        def("popcorn.replicated_pages", "count", "lower"),
    ];
    defs.extend(
        Configuration::figure9_set()
            .into_iter()
            .map(|c| def(npb_span_name(c), "s", "lower")),
    );
    defs.extend([
        def("sim.instructions", "count", "lower"),
        def("sim.ipi", "count", "lower"),
        def("sim.trace.events", "count", "lower"),
        def("sim.trace.dropped", "count", "lower"),
        def("sim.trace.emit_s", "s", "lower"),
        def("sim.trace.export_s", "s", "lower"),
        def("workloads.serve.schedule_s", "s", "lower"),
        def("workloads.serve.window_stalls", "count", "lower"),
        def("workloads.serve.utilization", "ratio", "higher"),
        def("bench.unattributed_s", "s", "lower"),
    ]);
    defs
}

/// The per-configuration host-time span name, `npb.run_s.<slug>`.
#[must_use]
pub fn npb_span_name(config: Configuration) -> String {
    format!("npb.run_s.{}", config_slug(config))
}

/// A measured value: host time or a ratio as a float, or an exact count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured or derived real number.
    Real(f64),
    /// An exact count.
    Count(u64),
}

impl Value {
    fn render(self) -> Result<String, String> {
        match self {
            Value::Count(n) => Ok(n.to_string()),
            Value::Real(x) if x.is_finite() => Ok(format!("{x}")),
            Value::Real(x) => Err(format!("non-finite value {x}")),
        }
    }
}

/// Operation tally of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
}

/// Builds the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in declaration order.
///
/// # Errors
///
/// A declared metric without a value, a value for an undeclared name,
/// or a non-finite value.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<String, Value>,
    tally: &Tally,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} has no value", d.name))?;
        let v = v.render().map_err(|e| format!("metric {}: {e}", d.name))?;
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}
