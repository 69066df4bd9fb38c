//! Stored reference results, one set per workload seed, and their
//! re-derivation from the simulator.
//!
//! `refs.txt` holds one line per reference:
//!
//! ```text
//! detail  <wseed> <kernel> <config> <SimStats digest>
//! sampled <wseed> <program length> <full-detail IPC, f64 bits> <IPC>
//! served  <wseed> <kernel> <config> <budget> <digest of seed 0>,<seed 1>,...
//! ```
//!
//! Digests are hexadecimal FNV-1a values. A served digest folds a job's
//! `SimResult::stats_digest` and `commit_digest`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The references the benchmark checks simulated output against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Refs {
    /// `(wseed, kernel, config)` → digest of the full `SimStats`.
    pub detail: BTreeMap<(u64, String, String), u64>,
    /// `wseed` → (program length, full-detail IPC).
    pub sampled: BTreeMap<u64, (u64, f64)>,
    /// `(wseed, kernel, config, budget)` → digest per spec seed index.
    pub served: BTreeMap<(u64, String, String, u64), Vec<u64>>,
}

/// The stored references, compiled into the benchmark.
pub const STORED: &str = include_str!("../refs.txt");

/// Where `refs --write` puts them, relative to the repository root.
pub const PATH: &str = "perfbench/refs.txt";

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad digest {s}: {e}"))
}

impl Refs {
    /// Parses the `refs.txt` format.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut r = Refs::default();
        for (n, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.is_empty() || f[0].starts_with('#') {
                continue;
            }
            let bad = |e: String| format!("{PATH}:{}: {e}", n + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|e| bad(format!("{s}: {e}")));
            match (f[0], f.len()) {
                ("detail", 5) => {
                    r.detail.insert(
                        (num(f[1])?, f[2].into(), f[3].into()),
                        hex(f[4]).map_err(bad)?,
                    );
                }
                ("sampled", 5) => {
                    let ipc = f64::from_bits(hex(f[3]).map_err(bad)?);
                    r.sampled.insert(num(f[1])?, (num(f[2])?, ipc));
                }
                ("served", 6) => {
                    let digests = f[5]
                        .split(',')
                        .map(hex)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(bad)?;
                    r.served
                        .insert((num(f[1])?, f[2].into(), f[3].into(), num(f[4])?), digests);
                }
                _ => return Err(bad(format!("unrecognised line: {line}"))),
            }
        }
        Ok(r)
    }

    /// The stored references.
    ///
    /// # Panics
    ///
    /// If the compiled-in file does not parse (a build of a broken tree).
    #[must_use]
    pub fn stored() -> Refs {
        Refs::parse(STORED).expect("refs.txt must parse")
    }

    /// Renders the `refs.txt` format (sorted, so rewriting is stable).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Reference results for the perfbench workloads, by workload seed.\n\
             # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- refs --workload-seed <s> --write\n",
        );
        for ((w, k, c), d) in &self.detail {
            let _ = writeln!(out, "detail {w} {k} {c} {d:016x}");
        }
        for (w, (len, ipc)) in &self.sampled {
            let _ = writeln!(out, "sampled {w} {len} {:016x} {ipc:.6}", ipc.to_bits());
        }
        for ((w, k, c, b), ds) in &self.served {
            let ds: Vec<String> = ds.iter().map(|d| format!("{d:016x}")).collect();
            let _ = writeln!(out, "served {w} {k} {c} {b} {}", ds.join(","));
        }
        out
    }

    /// Replaces every reference of workload seed `wseed` with `fresh`'s.
    pub fn replace_seed(&mut self, wseed: u64, fresh: &Refs) {
        self.detail.retain(|k, _| k.0 != wseed);
        self.sampled.remove(&wseed);
        self.served.retain(|k, _| k.0 != wseed);
        self.detail.extend(
            fresh
                .detail
                .iter()
                .filter(|(k, _)| k.0 == wseed)
                .map(|(k, v)| (k.clone(), *v)),
        );
        self.sampled
            .extend(fresh.sampled.get(&wseed).map(|v| (wseed, *v)));
        self.served.extend(
            fresh
                .served
                .iter()
                .filter(|(k, _)| k.0 == wseed)
                .map(|(k, v)| (k.clone(), v.clone())),
        );
    }

    /// Human-readable differences between `self` (stored) and `fresh` for
    /// workload seed `wseed`; empty when they agree.
    #[must_use]
    pub fn diff_seed(&self, wseed: u64, fresh: &Refs) -> Vec<String> {
        let mut out = Vec::new();
        let mut note = |what: String, a: String, b: String| {
            if a != b {
                out.push(format!("{what}: stored {a}, recomputed {b}"));
            }
        };
        for (k, v) in fresh.detail.iter().filter(|(k, _)| k.0 == wseed) {
            let stored = self
                .detail
                .get(k)
                .map_or("none".into(), |d| format!("{d:016x}"));
            note(
                format!("detail {} {}", k.1, k.2),
                stored,
                format!("{v:016x}"),
            );
        }
        if let Some((len, ipc)) = fresh.sampled.get(&wseed) {
            let stored = self
                .sampled
                .get(&wseed)
                .map_or("none".into(), |(l, i)| format!("{l} {:016x}", i.to_bits()));
            note(
                "sampled".into(),
                stored,
                format!("{len} {:016x}", ipc.to_bits()),
            );
        }
        for (k, v) in fresh.served.iter().filter(|(k, _)| k.0 == wseed) {
            let stored = self
                .served
                .get(k)
                .map_or("none".into(), |d| format!("{d:x?}"));
            note(
                format!("served {} {} {}", k.1, k.2, k.3),
                stored,
                format!("{v:x?}"),
            );
        }
        out
    }

    /// Whether references of all three workloads exist for workload seed
    /// `wseed`.
    #[must_use]
    pub fn has_seed(&self, wseed: u64) -> bool {
        self.sampled.contains_key(&wseed)
            && self.detail.keys().any(|k| k.0 == wseed)
            && self.served.keys().any(|k| k.0 == wseed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_replace() {
        let mut r = Refs::default();
        r.detail
            .insert((1, "gemm_like".into(), "age_ioc".into()), 0xdead_beef);
        r.sampled.insert(1, (20_000_000, 0.214_123));
        r.served.insert(
            (1, "gemm_like".into(), "orinoco".into(), 5000),
            vec![1, 2, 3],
        );
        let back = Refs::parse(&r.render()).unwrap();
        assert_eq!(back, r);

        let mut fresh = r.clone();
        fresh
            .detail
            .insert((1, "gemm_like".into(), "age_ioc".into()), 7);
        let diff = r.diff_seed(1, &fresh);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].starts_with("detail gemm_like age_ioc"));
        r.replace_seed(1, &fresh);
        assert!(r.diff_seed(1, &fresh).is_empty());
    }

    #[test]
    fn stored_references_parse() {
        let r = Refs::stored();
        assert!(r.has_seed(crate::DEFAULT_WSEED) && r.has_seed(crate::HELD_OUT_WSEED));
    }

    #[test]
    fn malformed_lines_are_rejected_with_their_line_number() {
        let err = Refs::parse("# ok\ndetail 1 gemm_like\n").unwrap_err();
        assert!(err.contains(":2:"), "{err}");
    }
}
