//! Result of one workload run and its rendering: readable lines for a
//! person, and the one-line JSON result that ends every run.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports with tracing off (the keys
/// of `end_to_end` in `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("spmv_busy_ms_p10", "ms"),
    ("task_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports (the keys of `per_layer`
/// in `BENCHMARK.json`). A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("mesh.elem_imbalance", "ratio"),
    ("fem.emat_s", "s"),
    ("fem.emat_us_per_elem", "us"),
    ("core.operator_setup_s", "s"),
    ("core.setup_overhead_s", "s"),
    ("core.storage_bytes_per_dof", "B/dof"),
    ("core.slab_bytes_per_dof", "B/dof"),
    ("core.apply_ms_p50", "ms"),
    ("core.apply_ms_p95", "ms"),
    ("core.apply_samples", "count"),
    ("core.apply_share", "fraction"),
    ("core.flops_per_apply", "flop"),
    ("core.bytes_per_apply", "B"),
    ("core.gflops", "GFLOP/s"),
    ("core.gbytes_s", "GB/s"),
    ("core.flop_per_byte", "flop/B"),
    ("core.apply_mv_ms_per_col", "ms"),
    ("core.update_ms_p50", "ms"),
    ("core.refresh_ms_p50", "ms"),
    ("comm.msgs_per_apply", "count"),
    ("comm.bytes_per_apply", "B"),
    ("comm.msgs_per_iter", "count"),
    ("comm.bytes_per_iter", "B"),
    ("comm.wait_share_vt", "fraction"),
    ("comm.retries", "count"),
    ("comm.vt_over_wall", "ratio"),
    ("la.cg_iterations", "count"),
    ("la.precond_ms_per_iter", "ms"),
    ("la.cg_self_ms_per_iter", "ms"),
    ("la.block_cg_iters_per_batch", "count"),
    ("la.block_cg_self_ms_per_iter", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.wait_ms_p50", "vms"),
    ("serve.wait_ms_p99", "vms"),
    ("serve.batch_solve_ms_p50", "vms"),
    ("serve.batch_width_mean", "count"),
    ("serve.width_changes", "count"),
    ("serve.gen_lag_ms_p99", "vms"),
    ("serve.backlog_max", "count"),
    ("serve.failed_batches", "count"),
    ("serve.requests", "count"),
    ("adapt.band_elems", "count"),
    ("adapt.steps", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("host.steal_share", "fraction"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples the value summarizes (1 for a count or a single reading).
    pub n: usize,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (solves, applies, requests, steps, checks).
    pub attempted: u64,
    /// Operations that failed (unconverged, faulted or over tolerance).
    pub failed: u64,
    /// The workload's own metrics, under the names of the metric table
    /// in `perfbench/README.md`.
    pub workload: Vec<Metric>,
    /// The gated end-to-end metrics ([`END_TO_END`]).
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, Metric>,
    /// Free-form lines: spreads, checks, provenance.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a workload metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.workload.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
        });
    }

    /// Record a gated end-to-end metric.
    pub fn gated(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = END_TO_END
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
            .1;
        self.end_to_end.insert(
            name,
            Metric {
                name: name.into(),
                value,
                unit: unit.into(),
                n,
            },
        );
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1;
        self.layers.insert(
            name,
            Metric {
                name: name.into(),
                value,
                unit: unit.into(),
                n,
            },
        );
    }

    /// Report 0 for every per-layer metric this workload does not
    /// exercise (the serving metrics of a solve workload, say).
    pub fn zero_unused_layers(&mut self) {
        for (name, unit) in PER_LAYER {
            self.layers.entry(name).or_insert_with(|| Metric {
                name: name.into(),
                value: 0.0,
                unit: unit.into(),
                n: 0,
            });
        }
    }

    /// Record the spread of timing series as `spread <name>` notes,
    /// each value times its scale.
    pub fn spreads(&mut self, series: &[(&str, crate::stats::Summary, f64)]) {
        for (name, summary, scale) in series {
            self.notes
                .push(format!("spread {name} {}", summary.describe(*scale)));
        }
    }

    /// Count one attempted operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a correctness check: a failed check fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempt(ok);
        self.correct &= ok;
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    /// Readable lines: `metric` lines for the workload's metrics and
    /// `gated` lines for the end-to-end ones (or `layer` lines when
    /// traced), then the notes.
    pub fn lines(&self, trace: bool) -> Vec<String> {
        let shown: Vec<(&str, &Metric)> = if trace {
            self.layers.values().map(|m| ("layer", m)).collect()
        } else {
            let workload = self.workload.iter().map(|m| ("metric", m));
            workload
                .chain(self.end_to_end.values().map(|m| ("gated", m)))
                .collect()
        };
        let mut out: Vec<String> = shown
            .into_iter()
            .map(|(kind, m)| {
                format!(
                    "{kind} {:<30} {:>20} {:<9} n={}",
                    m.name,
                    fmt_value(m.value),
                    m.unit,
                    m.n
                )
            })
            .collect();
        out.extend(self.notes.iter().cloned());
        out
    }

    /// The final result line: `correct`, `attempted`, `failed` and
    /// every end-to-end (untraced) or per-layer (traced) metric. A metric
    /// the run did not produce, or a value that is not finite, makes the
    /// run incorrect.
    pub fn json_line(&self, trace: bool) -> String {
        let (names, found): (Vec<(&str, &str)>, &BTreeMap<&str, Metric>) = if trace {
            (PER_LAYER.to_vec(), &self.layers)
        } else {
            (END_TO_END.to_vec(), &self.end_to_end)
        };
        let mut correct = self.correct && self.attempted > 0;
        let mut parts = Vec::new();
        for (name, unit) in names {
            let value = match found.get(name) {
                Some(m) if m.value.is_finite() => fmt_value(m.value),
                _ => {
                    correct = false;
                    "null".into()
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// A value as measured, in a form JSON accepts (Rust's shortest
/// round-trip rendering keeps every significant digit).
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
