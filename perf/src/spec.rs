//! The benchmark's definition, read from the repository's `BENCHMARK.json`
//! at build time: it is the one list of workload and metric names, units,
//! directions and regression bounds that the runs, the result lines and
//! `compare` all use.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Worst allowed change of the median, as a share of the base median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The parsed `BENCHMARK.json` this binary was built with.
pub fn spec() -> Spec {
    parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = Json::parse(text)?;
    let list = |key: &str| {
        root.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: missing list {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("BENCHMARK.json: {key} entry lacks {f}"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    higher_is_better: field("better")? == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("BENCHMARK.json: workload lacks name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
