//! The eight figures, in paper order, and the series helpers they share.

use rocksteady_cluster::Cluster;
use rocksteady_common::Nanos;
use rocksteady_metrics::timeline;

use crate::Report;

mod day_in_the_life;
mod fig03;
mod fig04;
mod fig05;
mod fig09_10_11;
mod fig12;
mod fig13_14;
mod fig15;

/// A figure's name on the command line and the function regenerating it.
pub type Figure = (&'static str, fn(&mut Report));

/// Every figure, in paper order (DESIGN.md §4).
pub const FIGURES: [Figure; 8] = [
    ("fig03", fig03::figure),
    ("fig04", fig04::figure),
    ("fig05", fig05::figure),
    ("fig09_10_11", fig09_10_11::figure),
    ("fig12", fig12::figure),
    ("fig13_14", fig13_14::figure),
    ("fig15", fig15::figure),
    ("day_in_the_life", day_in_the_life::figure),
];

/// The figures `names` asks for, in the order it asks; all eight when it
/// asks for none. An unknown name is an error that lists the known ones.
pub fn select(names: &[String]) -> Result<Vec<Figure>, String> {
    if names.is_empty() {
        return Ok(FIGURES.to_vec());
    }
    let find = |name: &String| {
        let figure = FIGURES.iter().find(|(known, _)| known == name);
        figure.copied().ok_or_else(|| {
            let known: Vec<&str> = FIGURES.iter().map(|(known, _)| *known).collect();
            format!("unknown figure `{name}`; one of: {}", known.join(", "))
        })
    };
    names.iter().map(find).collect()
}

/// Regenerates the selected figures over one [`Report`] and returns the
/// process exit code: 1 if any check failed, 2 for an unknown name.
pub fn run(names: &[String]) -> i32 {
    let selected = match select(names) {
        Ok(selected) => selected,
        Err(unknown) => {
            eprintln!("{unknown}");
            return 2;
        }
    };
    let mut report = Report::default();
    for (_, figure) in selected {
        figure(&mut report);
    }
    i32::from(report.failed())
}

/// Mean of a slice (0.0 for empty).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Per-bucket (median, p999) read latency merged across all of a
/// cluster's clients — the exact series Figures 10 and 13 plot.
fn merged_latency_rows(cluster: &Cluster, from: Nanos, to: Nanos) -> Vec<(Nanos, u64, u64)> {
    let borrows: Vec<_> = cluster.client_stats.iter().map(|s| s.borrow()).collect();
    timeline::merged_latency_timeline(borrows.iter().map(|s| &s.read_latency), from, to)
        .into_iter()
        .map(|p| (p.at, p.p50, p.p999))
        .collect()
}

/// Total completed ops/s per bucket summed across all of a cluster's
/// clients — the series Figures 9 and 14 plot.
fn total_throughput_rows(cluster: &Cluster, from: Nanos, to: Nanos) -> Vec<(Nanos, f64)> {
    let borrows: Vec<_> = cluster.client_stats.iter().map(|s| s.borrow()).collect();
    timeline::merged_throughput_timeline(borrows.iter().map(|s| &s.objects), from, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_is_the_eight_figures_in_paper_order() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        let paper_order = [
            "fig03",
            "fig04",
            "fig05",
            "fig09_10_11",
            "fig12",
            "fig13_14",
            "fig15",
            "day_in_the_life",
        ];
        assert_eq!(names, paper_order);
        let all = select(&[]).unwrap();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn names_select_in_the_order_given_and_an_unknown_one_lists_them_all() {
        let asked = ["fig12".to_string(), "fig05".to_string()];
        let picked: Vec<&str> = select(&asked).unwrap().iter().map(|(n, _)| *n).collect();
        assert_eq!(picked, ["fig12", "fig05"]);

        let unknown = select(&["fig05".to_string(), "fig99".to_string()]).unwrap_err();
        assert!(unknown.contains("`fig99`"), "{unknown}");
        for (name, _) in FIGURES {
            assert!(unknown.contains(name), "{unknown} does not list {name}");
        }
        assert_eq!(run(&["fig99".to_string()]), 2);
    }
}
