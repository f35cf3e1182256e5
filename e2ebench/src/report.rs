//! `e2ebench compare A.tsv B.tsv`: a side-by-side report of two result
//! sets, per workload and metric, with each side's median and quartiles.
//!
//! A metric is "unresolved" where either side's spread (inter-quartile
//! distance over median) exceeds the metric's bound, unless every run of
//! one side beats every run of the other. Sets whose host stamps differ
//! (cores, SIMD tier, pool threads, `IMDIFF_*` variables) are not
//! compared at all.

use std::collections::BTreeMap;

use crate::metrics::{def, Better};
use crate::stats::{median, quartiles, spread};

/// One result line of a `runs.tsv` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub host: String,
    pub commit: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub metric: String,
    pub value: f64,
}

pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let f: Vec<&str> = l.split('\t').collect();
            let bad = |what: &str| format!("line {}: bad {what}", i + 1);
            if f.len() != 8 {
                return Err(bad("field count"));
            }
            Ok(Row {
                host: f[0].into(),
                commit: f[1].into(),
                workload: f[2].into(),
                seed: f[3].parse().map_err(|_| bad("seed"))?,
                trace: f[4] == "1",
                metric: f[5].into(),
                value: f[6].parse().map_err(|_| bad("value"))?,
            })
        })
        .collect()
}

/// How side B compares with side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No bound (a per-layer metric): reported, never judged.
    Unjudged,
    Unresolved,
    Within,
    Worse,
    Better,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unjudged => "-",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
        }
    }
}

/// Judges B against A: worse or better only beyond `bound` (a share of
/// A's median), and unresolved when either side spreads wider than the
/// bound — unless every B run beats every A run, or the reverse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Unjudged;
    };
    let gain = |x: f64, y: f64| match better {
        Better::Higher => y - x,
        Better::Lower => x - y,
    };
    let all_better = a.iter().all(|&x| b.iter().all(|&y| gain(x, y) > 0.0));
    let all_worse = a.iter().all(|&x| b.iter().all(|&y| gain(x, y) < 0.0));
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 {
        0.0
    } else {
        gain(ma, mb) / ma.abs()
    };
    if spread(a) > bound || spread(b) > bound {
        return if all_better {
            Verdict::Better
        } else if all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change < -bound {
        Verdict::Worse
    } else if change > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

type Groups = BTreeMap<(String, bool, String), Vec<f64>>;

fn group(rows: &[Row]) -> (Groups, BTreeMap<String, Vec<String>>) {
    let mut values: Groups = BTreeMap::new();
    let mut hosts: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for r in rows {
        values
            .entry((r.workload.clone(), r.trace, r.metric.clone()))
            .or_default()
            .push(r.value);
        let h = hosts.entry(r.workload.clone()).or_default();
        if !h.contains(&r.host) {
            h.push(r.host.clone());
        }
    }
    (values, hosts)
}

/// The report text for sets `a` and `b`.
pub fn compare(a: &[Row], b: &[Row]) -> String {
    let (va, ha) = group(a);
    let (vb, hb) = group(b);
    let mut out = String::new();
    let commits = |rows: &[Row]| {
        let mut c: Vec<&str> = rows.iter().map(|r| r.commit.as_str()).collect();
        c.sort_unstable();
        c.dedup();
        c.join(",")
    };
    out.push_str(&format!("A: {}\nB: {}\n", commits(a), commits(b)));
    let mut refused: Vec<String> = Vec::new();
    for (w, hosts) in &ha {
        let other = hb.get(w);
        if hosts.len() != 1 || other.is_some_and(|o| o != hosts) {
            out.push_str(&format!(
                "{w}: not compared, host stamps differ (A: {}; B: {})\n",
                hosts.join(" | "),
                other.map_or("-".into(), |o| o.join(" | "))
            ));
            refused.push(w.clone());
        }
    }
    out.push_str(&format!(
        "{:<14} {:<34} {:>3} {:>12} {:>25} {:>3} {:>12} {:>25} {:>8}  {}\n",
        "workload",
        "metric",
        "nA",
        "median A",
        "[q1, q3] A",
        "nB",
        "median B",
        "[q1, q3] B",
        "change",
        "verdict"
    ));
    for (key, xa) in &va {
        let (w, trace, m) = key;
        if refused.contains(w) {
            continue;
        }
        let Some(xb) = vb.get(key) else {
            continue;
        };
        let d = def(m);
        let better = d.map_or(Better::Higher, |d| d.better);
        let bound = d.and_then(|d| d.bound).filter(|_| !trace);
        let (a1, a3) = quartiles(xa);
        let (b1, b3) = quartiles(xb);
        let (ma, mb) = (median(xa), median(xb));
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        out.push_str(&format!(
            "{:<14} {:<34} {:>3} {:>12.5} {:>25} {:>3} {:>12.5} {:>25} {:>+7.1}%  {}\n",
            w,
            m,
            xa.len(),
            ma,
            format!("[{a1:.5}, {a3:.5}]"),
            xb.len(),
            mb,
            format!("[{b1:.5}, {b3:.5}]"),
            change * 100.0,
            judge(xa, xb, better, bound).name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_bound_direction_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&a, &slower, Better::Lower, Some(0.1)), Verdict::Worse);
        assert_eq!(
            judge(&a, &slower, Better::Higher, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(judge(&a, &a, Better::Lower, Some(0.1)), Verdict::Within);
        assert_eq!(judge(&a, &slower, Better::Lower, None), Verdict::Unjudged);
        // Wider than the bound and overlapping: unresolved.
        let wide = [60.0, 150.0, 90.0, 130.0, 70.0];
        assert_eq!(
            judge(&a, &wide, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Wide but every run worse than every run of A: still a verdict.
        let wide_worse = [150.0, 300.0, 200.0, 250.0, 160.0];
        assert_eq!(
            judge(&a, &wide_worse, Better::Lower, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn rows_round_trip_and_differing_hosts_are_not_compared() {
        let line = |host: &str, seed: u64, v: f64| {
            format!("{host}\tabc\tserve_light\t{seed}\t0\tscore_p50_ms\t{v}\tms\n")
        };
        let a = parse(&(line("nproc=2", 1, 2.0) + &line("nproc=2", 2, 2.2))).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[1].value, 2.2);
        let b = parse(&line("nproc=2", 1, 4.0)).unwrap();
        assert!(compare(&a, &b).contains("WORSE"));
        let c = parse(&line("nproc=8", 1, 2.0)).unwrap();
        let r = compare(&a, &c);
        assert!(r.contains("not compared, host stamps differ"));
        assert!(!r.contains("score_p50_ms"));
        assert!(parse("a\tb\n").is_err());
    }
}
