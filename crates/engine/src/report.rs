//! CSV and JSON emission for [`EngineReport`]s, and the JSON records
//! the wire documents share.
//!
//! Both writers are hand-rolled (the environment has no serde): CSV for
//! the plotting pipeline behind `results/*.csv`, JSON for
//! downstream tooling. The CSV fragments (`csv_header`, `csv_row`) and
//! the shared JSON records (`write_topology`, `write_labels`,
//! `write_estimate` and their readers) are also what the shard partial
//! report and the service's streams are built from. Every row of a report carries the same label keys
//! (guaranteed by [`crate::queue::compile`]), so the label keys become the
//! CSV columns directly.

use crate::json::{self, Json, Kind};
use crate::runner::{EngineReport, SweepRow, TopologySummary};
use std::fmt::Write as _;

/// The CSV header line (newline included) for rows carrying `keys` label
/// columns. Shared by [`to_csv`] and the service's streaming
/// `POST /run?format=csv` writer so the two dialects cannot diverge.
pub(crate) fn csv_header(keys: &[&str]) -> String {
    let mut out = String::from("topology");
    for k in keys {
        let _ = write!(out, ",{k}");
    }
    out.push_str(",mean_accuracy,std_dev,moe95,iterations,stopped_early\n");
    out
}

/// One CSV data line (newline included) of `row` under `keys` columns.
pub(crate) fn csv_row(row: &SweepRow, keys: &[&str]) -> String {
    let mut out = String::new();
    out.push_str(&row.topology);
    for key in keys {
        let _ = write!(out, ",{}", row.label(key).unwrap_or(""));
    }
    let _ = writeln!(
        out,
        ",{:.6},{:.6},{:.6},{},{}",
        row.mean, row.std_dev, row.moe95, row.iterations, row.stopped_early
    );
    out
}

/// The label keys a report's rows carry (every row of a report shares
/// them; the first row is authoritative).
pub(crate) fn label_keys(row: &SweepRow) -> Vec<&str> {
    row.labels.iter().map(|(k, _)| k.as_str()).collect()
}

/// Serializes a report as CSV:
/// `topology,<label columns…>,mean_accuracy,std_dev,moe95,iterations,stopped_early`.
pub fn to_csv(report: &EngineReport) -> String {
    let keys: Vec<&str> = report.rows.first().map(label_keys).unwrap_or_default();
    let mut out = csv_header(&keys);
    for row in &report.rows {
        out.push_str(&csv_row(row, &keys));
    }
    out
}

/// Serializes a report as pretty-printed JSON.
pub fn to_json(report: &EngineReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"scenario\": \"{}\",",
        json::escape(&report.scenario)
    );
    out.push_str("  \"topologies\": [\n");
    for (i, t) in report.topologies.iter().enumerate() {
        out.push_str("    {");
        write_topology(&mut out, t);
        out.push_str(if i + 1 < report.topologies.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"rows\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"topology\": \"{}\"",
            json::escape(&row.topology)
        );
        for (k, v) in &row.labels {
            // Emit numeric-looking labels as numbers for friendlier JSON.
            if v.parse::<f64>().is_ok() {
                let _ = write!(out, ", \"{}\": {}", json::escape(k), v);
            } else {
                let _ = write!(out, ", \"{}\": \"{}\"", json::escape(k), json::escape(v));
            }
        }
        out.push_str(", ");
        write_estimate(&mut out, row);
        out.push_str(if i + 1 < report.rows.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Records shared by the wire documents
// ---------------------------------------------------------------------------
//
// The final report, the shard partial report and the `POST /run` NDJSON
// events each lay out their own document, but the records they share are
// written and read here, once: a topology summary, a point's label pairs
// and a row's estimate. Every float goes through [`json::num`], every
// string through [`json::escape`].

/// Writes a topology summary's members:
/// `"topology": …, "software_accuracy": …, "nominal_accuracy": …`.
pub(crate) fn write_topology(out: &mut String, t: &TopologySummary) {
    let _ = write!(
        out,
        "\"topology\": \"{}\", \"software_accuracy\": {}, \"nominal_accuracy\": {}",
        json::escape(&t.topology),
        json::num(t.software_accuracy),
        json::num(t.nominal_accuracy)
    );
}

/// Reads the members [`write_topology`] writes.
pub(crate) fn read_topology(v: &Json) -> Result<TopologySummary, String> {
    Ok(TopologySummary {
        topology: v.field("topology")?,
        software_accuracy: v.field("software_accuracy")?,
        nominal_accuracy: v.field("nominal_accuracy")?,
    })
}

/// Writes a point's labels as the member `"labels": [["key", "value"], …]`.
pub(crate) fn write_labels(out: &mut String, labels: &[(String, String)]) {
    out.push_str("\"labels\": [");
    for (j, (k, v)) in labels.iter().enumerate() {
        let _ = write!(
            out,
            "{}[\"{}\", \"{}\"]",
            if j == 0 { "" } else { ", " },
            json::escape(k),
            json::escape(v)
        );
    }
    out.push(']');
}

/// A label pair as [`write_labels`] writes it: `["key", "value"]`.
impl Kind<'_> for (String, String) {
    const NAME: &'static str = "a [key, value] string pair";
    fn read(v: &Json) -> Option<Self> {
        match v.to::<&[Json]>()? {
            [k, val] => Some((k.to()?, val.to()?)),
            _ => None,
        }
    }
}

/// Writes a row's estimate members: `"mean_accuracy": …, "std_dev": …,
/// "moe95": …, "iterations": …, "stopped_early": …`.
pub(crate) fn write_estimate(out: &mut String, row: &SweepRow) {
    let _ = write!(
        out,
        "\"mean_accuracy\": {}, \"std_dev\": {}, \"moe95\": {}, \"iterations\": {}, \
         \"stopped_early\": {}",
        json::num(row.mean),
        json::num(row.std_dev),
        json::num(row.moe95),
        row.iterations,
        row.stopped_early
    );
}

/// Reads a row from a record holding its `topology`, its
/// [`write_labels`] member and its [`write_estimate`] members.
pub(crate) fn read_row(v: &Json) -> Result<SweepRow, String> {
    Ok(SweepRow {
        topology: v.field("topology")?,
        labels: v.items("labels")?,
        mean: v.field("mean_accuracy")?,
        std_dev: v.field("std_dev")?,
        moe95: v.field("moe95")?,
        iterations: v.field("iterations")?,
        stopped_early: v.field("stopped_early")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> EngineReport {
        EngineReport {
            scenario: "demo".into(),
            topologies: vec![TopologySummary {
                topology: "clements".into(),
                software_accuracy: 0.9,
                nominal_accuracy: 0.89,
            }],
            rows: vec![
                SweepRow {
                    topology: "clements".into(),
                    labels: vec![
                        ("mode".into(), "both".into()),
                        ("sigma".into(), "0.05".into()),
                    ],
                    mean: 0.31,
                    std_dev: 0.02,
                    moe95: 0.004,
                    iterations: 100,
                    stopped_early: true,
                },
                SweepRow {
                    topology: "clements".into(),
                    labels: vec![("mode".into(), "both".into()), ("sigma".into(), "0".into())],
                    mean: 0.89,
                    std_dev: 0.0,
                    moe95: 0.0,
                    iterations: 32,
                    stopped_early: true,
                },
            ],
        }
    }

    #[test]
    fn csv_has_header_and_one_line_per_row() {
        let csv = to_csv(&sample_report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "topology,mode,sigma,mean_accuracy,std_dev,moe95,iterations,stopped_early"
        );
        assert!(lines[1].starts_with("clements,both,0.05,0.310000"));
        assert!(lines[1].ends_with(",100,true"));
    }

    #[test]
    fn empty_report_csv_is_just_the_base_header() {
        let report = EngineReport {
            scenario: "empty".into(),
            topologies: vec![],
            rows: vec![],
        };
        let csv = to_csv(&report);
        assert_eq!(
            csv,
            "topology,mean_accuracy,std_dev,moe95,iterations,stopped_early\n"
        );
    }

    #[test]
    fn json_mentions_every_field_and_quotes_strings() {
        let json = to_json(&sample_report());
        assert!(json.contains("\"scenario\": \"demo\""));
        assert!(json.contains("\"mode\": \"both\""));
        assert!(json.contains("\"sigma\": 0.05"), "numeric label unquoted");
        assert!(json.contains("\"stopped_early\": true"));
        assert!(json.contains("\"nominal_accuracy\": 0.89"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::num(f64::NAN).to_string(), "null");
        assert_eq!(json::num(0.25).to_string(), "0.25");
    }
}
