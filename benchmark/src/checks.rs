//! Correctness checks on the simulated outputs.
//!
//! Every run checks invariants that hold for any seed. Runs whose inputs the
//! stored expectations cover also compare a fingerprint of every simulated
//! output against `expected.txt`, whose lines read
//! `<workload> <seed> <key> <value>`; seed `*` marks a workload whose
//! inputs do not depend on the seed.

use std::fmt::Display;

/// Checks attempted, and the description of each that failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; a failure is also reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            let what = what.to_string();
            eprintln!("check failed: {what}");
            self.failures.push(what);
        }
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Named simulated outputs, in a fixed order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(Vec<(String, u64)>);

impl Fingerprint {
    /// Appends one output.
    pub fn push(&mut self, key: impl Display, value: u64) {
        self.0.push((key.to_string(), value));
    }

    /// The `expected.txt` lines that would pin this fingerprint.
    pub fn lines(&self, workload: &str, seed: &str) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{workload} {seed} {k} {v}\n"))
            .collect()
    }
}

/// The stored expectations, compiled into the binary.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// The expected fingerprint of `workload` at `seed`, if `expected` pins it.
fn expected_for(expected: &str, workload: &str, seed: u64) -> Option<Fingerprint> {
    let seed = seed.to_string();
    let mut fp = Fingerprint::default();
    for line in expected.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, s, key, value] = f[..] {
            if w == workload && (s == "*" || s == seed) {
                fp.push(
                    key,
                    value.parse().expect("expected.txt values are integers"),
                );
            }
        }
    }
    (!fp.0.is_empty()).then_some(fp)
}

/// Compares `fp` against the expectations for `workload` at `seed`, as one
/// check, when there are any; returns whether a comparison was made.
pub fn check_expected(
    checks: &mut Checks,
    expected: &str,
    workload: &str,
    seed: u64,
    fp: &Fingerprint,
) -> bool {
    let Some(want) = expected_for(expected, workload, seed) else {
        return false;
    };
    let mut diffs = Vec::new();
    for (key, w) in &want.0 {
        match fp.0.iter().find(|(k, _)| k == key) {
            Some((_, g)) if g == w => {}
            Some((_, g)) => diffs.push(format!("{key}: got {g}, expected {w}")),
            None => diffs.push(format!("{key}: not produced")),
        }
    }
    for (key, _) in &fp.0 {
        if !want.0.iter().any(|(k, _)| k == key) {
            diffs.push(format!("{key}: no expected value"));
        }
    }
    checks.check(
        diffs.is_empty(),
        format!(
            "{workload} seed {seed}: simulated outputs differ from expected.txt ({})",
            diffs.join("; ")
        ),
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        let mut fp = Fingerprint::default();
        fp.push("net.delivered", 42);
        fp.push("cycle", 1000);
        fp
    }

    #[test]
    fn matching_fingerprint_passes() {
        let expected = fp().lines("w", "1");
        let mut checks = Checks::default();
        assert!(check_expected(&mut checks, &expected, "w", 1, &fp()));
        assert_eq!((checks.attempted(), checks.failed()), (1, 0));
    }

    #[test]
    fn perturbed_expected_value_is_a_failure() {
        let expected = fp()
            .lines("w", "1")
            .replace("net.delivered 42", "net.delivered 43");
        let mut checks = Checks::default();
        assert!(check_expected(&mut checks, &expected, "w", 1, &fp()));
        assert_eq!((checks.attempted(), checks.failed()), (1, 1));
    }

    #[test]
    fn missing_and_extra_keys_are_failures() {
        let mut checks = Checks::default();
        let mut short = fp();
        short.0.pop();
        assert!(check_expected(
            &mut checks,
            &fp().lines("w", "1"),
            "w",
            1,
            &short
        ));
        assert!(check_expected(
            &mut checks,
            &short.lines("w", "1"),
            "w",
            1,
            &fp()
        ));
        assert_eq!(checks.failed(), 2);
    }

    #[test]
    fn seed_column_selects_the_expectation() {
        let mut checks = Checks::default();
        let expected = fp().lines("w", "1");
        assert!(!check_expected(&mut checks, &expected, "w", 2, &fp()));
        assert!(!check_expected(&mut checks, &expected, "other", 1, &fp()));
        assert!(check_expected(
            &mut checks,
            &fp().lines("w", "*"),
            "w",
            7,
            &fp()
        ));
        assert_eq!(checks.attempted(), 1);
    }
}
