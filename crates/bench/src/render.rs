//! Figure-panel rendering for `experiments`.

use vr_metrics::comparison::MetricComparison;
use vr_metrics::table::{fmt_f, TextTable};

use crate::paper::{quoted_cell, Quoted};
use crate::PolicyPair;

/// Renders one figure panel: a metric measured under both policies across
/// the five traces, with the measured reduction next to the paper's quoted
/// reduction.
///
/// `metric` extracts the panel's comparison from a pair; `digits` controls
/// value formatting.
pub fn figure_panel(
    title: &str,
    pairs: &[PolicyPair],
    paper: &[Quoted; 5],
    digits: usize,
    metric: impl Fn(&PolicyPair) -> MetricComparison,
) -> String {
    let mut table = TextTable::new(vec![
        "trace",
        "G-Loadsharing",
        "V-Reconfiguration",
        "measured reduction",
        "paper reduction",
    ]);
    for (pair, quoted) in pairs.iter().zip(paper.iter()) {
        let c = metric(pair);
        table.row(vec![
            pair.trace_name.clone(),
            fmt_f(c.baseline, digits),
            fmt_f(c.candidate, digits),
            format!("{:.1}%", c.reduction()),
            quoted_cell(*quoted),
        ]);
    }
    format!("{title}\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Group;
    use vrecon::config::SimConfig;
    use vrecon::policy::PolicyKind;
    use vrecon::sim::Simulation;

    #[test]
    fn panel_renders_five_rows() {
        // Build a cheap fake: reuse one tiny real run for all five rows.
        let trace = vr_workload::synth::light_load(3, &mut vr_simcore::rng::SimRng::seed_from(1));
        let config = SimConfig::new(Group::App.cluster(), PolicyKind::GLoadSharing)
            .with_seed(crate::SIM_SEED);
        let report = Simulation::new(config).run(&trace);
        let pairs: Vec<PolicyPair> = (0..5)
            .map(|i| PolicyPair {
                trace_name: format!("T{i}"),
                gls: report.clone(),
                vr: report.clone(),
            })
            .collect();
        let text = figure_panel("left: demo", &pairs, &crate::paper::FIG1_EXEC, 0, |p| {
            p.execution_time()
        });
        assert!(text.contains("left: demo"));
        assert_eq!(text.lines().count(), 8); // title + header + rule + 5 rows
        assert!(text.contains("T4"));
        assert!(text.contains("29.3%"));
    }
}
