//! `perf compare BASE NEW`: for each workload and metric, both medians,
//! their ratio, the bound and a verdict. It only reports; a regression
//! never makes it fail.
//!
//! Each file holds `run` record lines, or is a baseline written by
//! `perf baseline`, whose untraced and traced records all count.

use std::collections::BTreeMap;

use maeri_telemetry::json::{self, JsonValue};

use crate::stats::{median, spread};
use crate::{Spec, Workload};

/// Metric values across records, keyed by (workload, metric); per-layer
/// metrics sit under the workload `layers`.
pub fn values(records: &[JsonValue]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut add = |group: &str, result: &JsonValue| {
        if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(JsonValue::as_f64) {
                    out.entry((group.to_owned(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    };
    for record in records {
        if let Some(JsonValue::Object(workloads)) = record.get("workloads") {
            for (name, result) in workloads {
                add(name, result);
            }
        }
        if let Some(layers) = record.get("layers") {
            add("layers", layers);
        }
    }
    out
}

fn records(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if let Ok(doc) = json::parse(text.trim()) {
        if let Some(sets) = doc.get("sets").and_then(JsonValue::as_array) {
            let mut out: Vec<JsonValue> = sets
                .iter()
                .filter_map(JsonValue::as_array)
                .flatten()
                .cloned()
                .collect();
            out.extend(doc.get("traced").cloned());
            return Ok(out);
        }
    }
    Ok(text
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|doc| doc.get("workloads").is_some())
        .collect())
}

/// How much worse `new` is than `base` as a share (negative: better).
fn worse_by(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let (from, to) = if higher_is_better {
        (new, base)
    } else {
        (base, new)
    };
    if from == to {
        0.0
    } else {
        to / from - 1.0
    }
}

pub fn main(args: &[String], spec: &Spec) -> Result<(), String> {
    let [base, new] = args else {
        return Err("usage: perf compare BASE NEW".to_owned());
    };
    let (base, new) = (values(&records(base)?), values(&records(new)?));
    println!(
        "{:<13} {:<34} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let groups = Workload::ALL.iter().map(|w| w.name()).chain(["layers"]);
    for group in groups {
        let metrics = if group == "layers" {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        for metric in metrics {
            let key = (group.to_owned(), metric.name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let (bm, nm) = (median(b), median(n));
            let worse = worse_by(bm, nm, metric.higher_is_better);
            // Noise is the base's own quartile spread; one base run
            // resolves nothing.
            let noise = spread(b).unwrap_or(f64::INFINITY);
            let verdict = if worse > noise && worse > metric.bound.unwrap_or(0.0) {
                "worse"
            } else if -worse > noise {
                "better"
            } else {
                "unresolved"
            };
            println!(
                "{:<13} {:<34} {:>12.6} {:>12.6} {:>7.3} {:>6}  {verdict}",
                group,
                metric.name,
                bm,
                nm,
                if bm == 0.0 { f64::NAN } else { nm / bm },
                metric
                    .bound
                    .map_or_else(|| "-".to_owned(), |b| format!("{b:.2}")),
            );
        }
    }
    Ok(())
}
