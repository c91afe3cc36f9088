//! The metric vocabulary: every name the ledger prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two equal.

use serde_json::Value;
use std::collections::BTreeMap;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "registry_run",
    "sweep_campaign",
    "sweep_small_cells",
    "daemon_serve",
    "analyze_corpus",
];

/// End-to-end metrics. Every workload reports all of them; what each means
/// on each workload is tabulated in the README.
pub const END_TO_END: [Def; 5] = [
    lower("setup_s", "s"),
    lower("full_ms", "ms"),
    lower("floor_ms", "ms"),
    lower("par2_ms", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: the shares of the traced pass, then
/// each layer's unit costs on fixed inputs.
pub const PER_LAYER: [Def; 87] = [
    lower("trace.pass_ms", "ms"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.spans", "count"),
    lower("trace.kernels_pct", "%"),
    lower("trace.suite_pct", "%"),
    lower("trace.sweep_ranks_pct", "%"),
    lower("trace.caliper_pct", "%"),
    lower("trace.rajaperfd_pct", "%"),
    lower("trace.thicket_pct", "%"),
    lower("trace.hierclust_pct", "%"),
    lower("trace.harness_pct", "%"),
    lower("kernels.timed_s.Base_Seq", "s"),
    lower("kernels.timed_s.RAJA_Seq", "s"),
    lower("kernels.timed_s.RAJA_Par", "s"),
    lower("kernels.timed_s.RAJA_SimGpu", "s"),
    lower("kernels.untimed_s.Base_Seq", "s"),
    lower("kernels.untimed_s.RAJA_Seq", "s"),
    lower("kernels.untimed_s.RAJA_Par", "s"),
    lower("kernels.untimed_s.RAJA_SimGpu", "s"),
    lower("kernels.flops", "count"),
    lower("kernels.bytes_computed", "count"),
    lower("kernels.comm.halo_packing_ms", "ms"),
    lower("kernels.comm.halo_packing_fused_ms", "ms"),
    lower("raja.seq_over_base", "ratio"),
    lower("raja.forall_seq_ns_per_elem", "ns"),
    lower("raja.forall_par_ns_per_elem", "ns"),
    higher("rayon.par_speedup", "ratio"),
    lower("gpusim.launch_empty_ns", "ns"),
    lower("gpusim.launch_1d_ns_per_thread", "ns"),
    lower("gpusim.launch_generic_ns_per_thread", "ns"),
    lower("gpusim.launches", "count"),
    lower("gpusim.threads", "count"),
    lower("caliper.region_ns", "ns"),
    lower("caliper.set_metric_ns", "ns"),
    lower("caliper.profile_build_ms", "ms"),
    lower("caliper.to_json_ms", "ms"),
    lower("caliper.from_json_ms", "ms"),
    lower("caliper.profile_bytes", "count"),
    lower("caliper.write_atomic_p50_ms", "ms"),
    lower("caliper.write_atomic_tail_ms", "ms"),
    lower("suite.run_suite_small_ms", "ms"),
    lower("suite.framework_ms_per_kernel", "ms"),
    lower("suite.exec_guarded_us", "us"),
    lower("suite.params_roundtrip_us", "us"),
    lower("suite.sweep.cell_overhead_ms", "ms"),
    lower("suite.sweep.cache_scan_ms_per_cell", "ms"),
    lower("suite.sweep.warm_ms", "ms"),
    lower("suite.sweep.cells_executed", "count"),
    higher("suite.sweep.cells_cached", "count"),
    lower("sweep.ranks.threads_ms", "ms"),
    lower("sweep.ranks.process_ms", "ms"),
    higher("sweep.ranks.threads_efficiency", "ratio"),
    higher("sweep.ranks.process_efficiency", "ratio"),
    lower("sweep.ranks.idle_frac", "ratio"),
    lower("sweep.ranks.gather_messages", "count"),
    lower("sweep.ranks.gather_bytes_per_cell", "count"),
    lower("sweep.process.restarts", "count"),
    lower("simcomm.transport.frame_roundtrip_us", "us"),
    lower("simcomm.transport.frame_bytes", "count"),
    lower("simcomm.msg_roundtrip_us", "us"),
    lower("simcomm.run_spawn_us", "us"),
    lower("rajaperfd.miss_p50_ms", "ms"),
    lower("rajaperfd.miss_tail_ms", "ms"),
    lower("rajaperfd.hit_p50_ms", "ms"),
    lower("rajaperfd.hit_tail_ms", "ms"),
    lower("rajaperfd.ping_p50_ms", "ms"),
    lower("rajaperfd.analyze_store_miss_ms", "ms"),
    lower("rajaperfd.analyze_store_hit_ms", "ms"),
    lower("rajaperfd.store.get_us", "us"),
    lower("rajaperfd.store.put_us", "us"),
    lower("rajaperfd.store.key_hash_us", "us"),
    lower("rajaperfd.protocol.parse_us", "us"),
    lower("rajaperfd.reply_bytes", "count"),
    higher("rajaperfd.store.hit_ratio", "ratio"),
    lower("rajaperfd.rejected", "count"),
    lower("thicket.parse_ms_per_profile", "ms"),
    higher("thicket.parse_mb_per_s", "MB/s"),
    lower("thicket.ingest_us_per_profile", "us"),
    lower("thicket.groupby_ms", "ms"),
    lower("thicket.stats_ms", "ms"),
    lower("thicket.write_tkt_ms", "ms"),
    lower("thicket.read_tkt_ms", "ms"),
    lower("thicket.tkt_bytes", "count"),
    lower("thicket.rows", "count"),
    lower("hierclust.ward_ms", "ms"),
    lower("perfmodel.simulate_all_ms", "ms"),
    lower("micro.wall_s", "s"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

fn unit_of(defs: &[Def], name: &str) -> &'static str {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the vocabulary"))
        .unit
}

/// Insert `name`, taking its unit from `defs` so no call site can drift
/// from the vocabulary.
pub fn put(metrics: &mut Metrics, defs: &[Def], name: &str, value: f64, samples: usize) {
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit: unit_of(defs, name),
            samples,
        },
    );
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, every digit as measured, with
/// each metric's sample count too when `samples` is set (result files).
pub fn to_value(metrics: &Metrics, samples: bool) -> Value {
    let fields = metrics.iter().map(|(name, m)| {
        // JSON has no NaN or infinity; a metric that could not be measured
        // must fail the run before it gets here.
        assert!(m.value.is_finite(), "metric '{name}' is not finite");
        let mut o = BTreeMap::new();
        o.insert("value".to_string(), Value::Float(m.value));
        o.insert("unit".to_string(), Value::from(m.unit));
        if samples {
            o.insert("samples".to_string(), Value::from(m.samples));
        }
        (name.clone(), Value::Object(o))
    });
    Value::Object(fields.collect())
}

/// Aligned table of metrics for people.
pub fn render(metrics: &Metrics) -> String {
    let width = metrics.keys().map(String::len).max().unwrap_or(0);
    metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "  {name:<width$}  {:>14.6} {:<6} n={}\n",
                m.value, m.unit, m.samples
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("array")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let m = manifest();
        assert_eq!(listed(&m["end_to_end"]), defined(&END_TO_END));
        assert_eq!(listed(&m["per_layer"]), defined(&PER_LAYER));
        let workloads: Vec<&str> = m["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::new();
        put(&mut m, &END_TO_END, "full_ms", 1.2034567891, 7);
        put(&mut m, &END_TO_END, "peak_rss_mb", 12.0, 1);
        let v: Value = serde_json::from_str(&to_value(&m, false).to_string()).expect("valid JSON");
        assert!(v["full_ms"]["samples"].is_null());
        assert_eq!(v["full_ms"]["value"].as_f64(), Some(1.2034567891));
        assert_eq!(v["full_ms"]["unit"].as_str(), Some("ms"));
        assert_eq!(v["peak_rss_mb"]["value"].as_f64(), Some(12.0));
    }
}
