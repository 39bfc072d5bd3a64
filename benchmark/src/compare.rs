//! `--compare`: verdicts between two sets of benchmark runs.
//!
//! Each input file holds the standard output of one or more runs; the lines
//! `<workload> <metric> <value> <unit>` are the samples. For every
//! (workload, metric) pair present in both sets the comparison prints each
//! set's median and quartiles and, for end-to-end metrics, a verdict: exact
//! metrics must hold the same samples, the others stay within their bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{find, Better, Metric, WORKLOADS};
use crate::stats::{median, quartiles};

/// Samples per (workload, metric).
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Adds the samples in one run output to `set`.
pub fn parse(text: &str, set: &mut RunSet) {
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, _unit] = f[..] else {
            continue;
        };
        if !WORKLOADS.iter().any(|w| w.name == workload) || find(metric).is_none() {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            set.entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(v);
        }
    }
}

/// How set B compares with set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// An exact metric with the same samples in both sets.
    Identical,
    /// An exact metric whose samples differ between the sets, by however
    /// little: a simulated result changed.
    Changed,
    /// B is better by more than A's and B's spread, and every B run beats
    /// every A run.
    Better,
    /// B's median is worse than A's by more than the bound, and the spread
    /// is within the bound or the runs separate.
    Worse,
    /// The medians differ by no more than the bound, which the spread
    /// resolves.
    Within,
    /// The spread is wider than the bound and the runs do not separate.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Changed => "changed",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative interquartile range.
fn spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict of B against A for metric `m` under `bound`. Exact metrics
/// are compared exactly; `bound` applies to the others.
pub fn verdict(m: &Metric, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if m.exact {
        let sorted = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(f64::total_cmp);
            s
        };
        return if sorted(a) == sorted(b) {
            Verdict::Identical
        } else {
            Verdict::Changed
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse = |x: f64, y: f64| match m.better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    // Positive when B is worse, as a share of A's median.
    let worse_by = match (ma == 0.0, mb == 0.0) {
        (true, true) => 0.0,
        (true, false) => f64::INFINITY * if worse(mb, ma) { 1.0 } else { -1.0 },
        _ => {
            let rel = (mb - ma) / ma.abs();
            if m.better == Better::Lower {
                rel
            } else {
                -rel
            }
        }
    };
    let spread = spread(a).max(spread(b));
    let b_worse_always = b.iter().all(|&y| a.iter().all(|&x| worse(y, x)));
    let b_better_always = b.iter().all(|&y| a.iter().all(|&x| worse(x, y)));
    let separated = b_worse_always || b_better_always;
    if worse_by > bound {
        if separated || spread <= bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if b_better_always && -worse_by > spread {
        Verdict::Better
    } else if spread > bound && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// Compares run set `b` against run set `a` and renders the report.
pub fn report(a: &RunSet, b: &RunSet) -> String {
    let mut out = String::new();
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    let fmt = |v: &[f64]| {
        let [q1, q2, q3] = quartiles(v);
        format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", v.len())
    };
    for ((workload, metric), va) in a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let m = find(metric).expect("parsed metrics are known");
        let label = match m.bound {
            Some(bound) => {
                let v = verdict(m, bound, va, vb).label();
                *tally.entry(v).or_default() += 1;
                v
            }
            None => "-",
        };
        let _ = writeln!(
            out,
            "{workload} {metric} {} | A {} | B {} | {label}",
            m.unit,
            fmt(va),
            fmt(vb)
        );
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    let _ = writeln!(out, "# verdicts: {}", summary.join(", "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        find(name).expect("known metric")
    }

    #[test]
    fn parses_metric_lines_only() {
        let mut set = RunSet::new();
        parse(
            "# host nproc=2\nring16_isa cycles_per_s 100.5 1/s\nnoise line\n\
             ring16_isa not_a_metric 1 s\n{\"correct\": true}\n",
            &mut set,
        );
        assert_eq!(set.len(), 1);
        assert_eq!(
            set[&("ring16_isa".into(), "cycles_per_s".into())],
            vec![100.5]
        );
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let speed = metric("cycles_per_s"); // higher is better, bound 10%
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(speed, 0.10, &a, &a), Verdict::Within);
        let slower = a.map(|x| x * 0.8);
        assert_eq!(verdict(speed, 0.10, &a, &slower), Verdict::Worse);
        let faster = a.map(|x| x * 1.3);
        assert_eq!(verdict(speed, 0.10, &a, &faster), Verdict::Better);
        let noisy = [60.0, 140.0, 80.0, 120.0, 100.0];
        assert_eq!(verdict(speed, 0.10, &a, &noisy), Verdict::Unresolved);
        // A time: lower is better.
        let p90 = metric("cycle_ns_p90");
        assert_eq!(verdict(p90, 0.10, &a, &faster), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let lat = metric("sim_latency_p99");
        assert_eq!(
            verdict(lat, 0.01, &[255.0, 255.0], &[255.0, 255.0]),
            Verdict::Identical
        );
        assert_eq!(
            verdict(lat, 0.01, &[255.0, 255.0], &[511.0, 511.0]),
            Verdict::Changed
        );
        // A change far inside the bound is still a change.
        let goodput = metric("goodput_pm");
        assert_eq!(
            verdict(goodput, 0.01, &[5.0, 5.0, 5.0], &[5.0, 4.97, 5.0]),
            Verdict::Changed
        );
        assert_eq!(
            verdict(goodput, 0.01, &[5.0, 4.97], &[4.97, 5.0]),
            Verdict::Identical
        );
    }

    #[test]
    fn report_lists_pairs_present_in_both_sets() {
        let (mut a, mut b) = (RunSet::new(), RunSet::new());
        parse(
            "coll16_storm setup_s 0.5 s\ncoll16_storm cycles_per_s 10 1/s\n",
            &mut a,
        );
        parse("coll16_storm setup_s 0.5 s\n", &mut b);
        let text = report(&a, &b);
        assert!(
            text.contains("coll16_storm setup_s s | A 0.500000"),
            "{text}"
        );
        assert!(!text.contains("cycles_per_s"), "{text}");
        assert!(text.contains("# verdicts: 1 within bound"), "{text}");
    }
}
