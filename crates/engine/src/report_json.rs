//! Deterministic JSON views of the engine's reports.
//!
//! These `serde::Serialize` impls define the *golden schema* of the
//! engine's outputs: every field they emit is a pure function of the
//! run's spec (bit-identical at any thread count, pinned by the
//! fixtures in `tests/fixtures/`), and every nondeterministic field — the
//! reports' `wall` totals, the template build's `cached` flag and stage
//! profile, the solver's `profile` — is deliberately excluded. Timings
//! are `ssor_graph::obs` values read in process, never serialized;
//! reports that flow through the sweep journal must serialize to the
//! same bytes on every run, or crash-resume and steal-order invariance
//! would be unverifiable.
//!
//! The impls build `serde::Value` trees by hand rather than deriving:
//! the vendored derive macro only handles plain named-field structs,
//! and nested foreign types (`ssor_flow::SolverStats`) cannot receive
//! impls from this crate anyway.

use crate::pipeline::{EvalRecord, RunReport};
use crate::stream::{FailureSweepReport, FailureTrial, StreamReport, StreamStep};
use serde::{Serialize, Value};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn solver_stats_value(stats: &ssor_flow::SolverStats) -> Value {
    // The wall-clock `profile` is intentionally dropped: iteration
    // structure is deterministic, timings are not.
    obj(vec![
        ("iterations", stats.iterations.to_value()),
        ("oracle_calls", stats.oracle_calls.to_value()),
        (
            "stages",
            Value::Array(
                stats
                    .stages
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("eps", s.eps.to_value()),
                            ("iterations", s.iterations.to_value()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl Serialize for EvalRecord {
    fn to_value(&self) -> Value {
        obj(vec![
            ("name", self.name.to_value()),
            ("alpha", self.alpha.to_value()),
            ("congestion", self.congestion.to_value()),
            ("dilation", self.dilation.to_value()),
            ("opt_lower_bound", self.opt_lower_bound.to_value()),
            ("opt_upper_bound", self.opt_upper_bound.to_value()),
            ("ratio", self.ratio.to_value()),
            ("makespan", self.makespan.to_value()),
            ("converged", self.converged.to_value()),
            (
                "stats",
                match &self.stats {
                    Some(s) => solver_stats_value(s),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        // `wall` and `template` (a Duration and a cache-dependent flag)
        // are excluded: the JSON view carries only spec-determined data.
        obj(vec![
            ("records", self.records.to_value()),
            ("mean_ratio", self.mean_ratio().to_value()),
            ("worst_ratio", self.worst_ratio().to_value()),
        ])
    }
}

impl Serialize for FailureTrial {
    fn to_value(&self) -> Value {
        obj(vec![
            ("trial", self.trial.to_value()),
            ("demand", self.demand.to_value()),
            ("failed_edges", self.failed_edges.to_value()),
            ("attempts", self.attempts.to_value()),
            ("coverage", self.coverage.to_value()),
            ("stranded", self.stranded.to_value()),
            ("congestion", self.congestion.to_value()),
            ("iterations", self.iterations.to_value()),
            ("cold_congestion", self.cold_congestion.to_value()),
            ("opt_lower_bound", self.opt_lower_bound.to_value()),
            ("ratio", self.ratio.to_value()),
        ])
    }
}

impl Serialize for FailureSweepReport {
    fn to_value(&self) -> Value {
        obj(vec![
            ("trials", self.trials.to_value()),
            ("mean_coverage", self.mean_coverage().to_value()),
            ("worst_ratio", self.worst_ratio().to_value()),
            ("total_stranded", self.total_stranded().to_value()),
        ])
    }
}

impl Serialize for StreamStep {
    fn to_value(&self) -> Value {
        obj(vec![
            ("step", self.step.to_value()),
            ("size", self.size.to_value()),
            ("congestion", self.congestion.to_value()),
            ("lower_bound", self.lower_bound.to_value()),
            ("iterations", self.iterations.to_value()),
            ("converged", self.converged.to_value()),
            ("cold_congestion", self.cold_congestion.to_value()),
            ("cold_iterations", self.cold_iterations.to_value()),
            ("vs_cold", self.vs_cold.to_value()),
            ("makespan", self.makespan.to_value()),
        ])
    }
}

impl Serialize for StreamReport {
    fn to_value(&self) -> Value {
        obj(vec![
            ("steps", self.steps.to_value()),
            ("total_iterations", self.total_iterations().to_value()),
            ("all_converged", self.all_converged().to_value()),
            ("mean_vs_cold", self.mean_vs_cold().to_value()),
            ("worst_vs_cold", self.worst_vs_cold().to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TemplateBuildStats;
    use ssor_graph::obs::StageProfile;
    use std::time::Duration;

    #[test]
    fn eval_record_schema_is_stable() {
        let rec = EvalRecord {
            name: "d".into(),
            alpha: 2,
            congestion: 1.5,
            dilation: 3,
            opt_lower_bound: Some(1.0),
            opt_upper_bound: Some(1.05),
            ratio: Some(1.5),
            makespan: None,
            converged: Some(true),
            stats: None,
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert_eq!(
            json,
            "{\"name\":\"d\",\"alpha\":2,\"congestion\":1.5,\"dilation\":3,\
             \"opt_lower_bound\":1,\"opt_upper_bound\":1.05,\"ratio\":1.5,\
             \"makespan\":null,\"converged\":true,\"stats\":null}"
        );
    }

    #[test]
    fn failure_trial_schema_is_stable() {
        let t = FailureTrial {
            trial: 1,
            demand: "d".into(),
            failed_edges: vec![2, 5],
            attempts: 0,
            coverage: 1.0,
            stranded: 0.0,
            congestion: Some(2.0),
            iterations: 7,
            cold_congestion: None,
            opt_lower_bound: None,
            ratio: None,
        };
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.starts_with("{\"trial\":1,\"demand\":\"d\",\"failed_edges\":[2,5]"));
        assert!(json.ends_with("\"ratio\":null}"));
    }

    /// Every object key anywhere in `v`.
    fn field_names(v: &Value, out: &mut Vec<String>) {
        match v {
            Value::Object(fields) => {
                for (k, v) in fields {
                    out.push(k.clone());
                    field_names(v, out);
                }
            }
            Value::Array(items) => items.iter().for_each(|v| field_names(v, out)),
            _ => {}
        }
    }

    #[test]
    fn run_report_excludes_wall_clock_fields() {
        // A build with a cache flag and a non-empty stage profile, and a
        // solve with an oracle profile: none of it may reach the bytes.
        let template = || {
            let mut profile = StageProfile::default();
            profile.add("metric", Duration::from_millis(2));
            profile.add_total(Duration::from_millis(3));
            Some(TemplateBuildStats {
                cached: true,
                profile,
            })
        };
        let mut solver = ssor_flow::SolverStats::default();
        solver.profile.add("oracle", Duration::from_millis(1));
        solver.stages.push(ssor_flow::solver::StageIters {
            eps: 0.1,
            iterations: 4,
        });
        let record = EvalRecord {
            name: "d".into(),
            alpha: 2,
            congestion: 1.5,
            dilation: 3,
            opt_lower_bound: None,
            opt_upper_bound: None,
            ratio: None,
            makespan: None,
            converged: None,
            stats: Some(solver),
        };
        let step = StreamStep {
            step: 0,
            size: 1.0,
            congestion: 1.5,
            lower_bound: 1.0,
            iterations: 3,
            converged: true,
            cold_congestion: Some(1.5),
            cold_iterations: Some(6),
            vs_cold: Some(1.0),
            makespan: Some(4),
        };
        let trial = FailureTrial {
            trial: 0,
            demand: "d".into(),
            failed_edges: vec![1],
            attempts: 0,
            coverage: 1.0,
            stranded: 0.0,
            congestion: Some(2.0),
            iterations: 7,
            cold_congestion: Some(2.0),
            opt_lower_bound: Some(1.0),
            ratio: Some(2.0),
        };
        let wall = Duration::from_secs(1);
        // One record, step and trial each, so every object this file
        // builds is reached.
        let reports = [
            RunReport {
                records: vec![record],
                wall,
                template: template(),
            }
            .to_value(),
            StreamReport {
                steps: vec![step],
                wall,
                template: template(),
            }
            .to_value(),
            FailureSweepReport {
                trials: vec![trial],
                wall,
                template: template(),
            }
            .to_value(),
        ];
        let mut names = Vec::new();
        for report in &reports {
            let json = serde_json::to_string(report).unwrap();
            for key in ["wall", "template", "cached", "profile", "metric"] {
                assert!(!json.contains(key), "{key} leaked into {json}");
            }
            field_names(report, &mut names);
        }
        for deep in ["eps", "cold_iterations", "failed_edges"] {
            assert!(names.iter().any(|n| n == deep), "{deep} was not reached");
        }
        // Reports are a pure function of the spec, so no serialized field
        // may even be named like a timing.
        for name in &names {
            let lower = name.to_lowercase();
            for word in ["wall", "elapsed", "duration", "secs", "nanos", "timestamp"] {
                assert!(!lower.contains(word), "field `{name}` looks like a timing");
            }
        }
    }
}
