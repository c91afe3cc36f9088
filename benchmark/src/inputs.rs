//! Seeded inputs: the daemon's request plan and the analysis corpus.
//!
//! `--seed` decides these and nothing else; the programs under test see only
//! what is generated here. Each generator returns an FNV digest of what it
//! made, so two runs with one seed can be shown to have had the same inputs.

use crate::stats::{Fnv, Rng};
use serde_json::Value;
use std::io;
use std::path::Path;

/// One request of the daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `run` of the full registry at `--size <size> --reps 1`; `repeat` says
    /// the same request was sent before, so the store must answer it.
    Run {
        size: usize,
        repeat: bool,
    },
    Ping,
}

/// The requests of one pass: a single closed-loop client, then two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonPass {
    pub solo: Vec<Op>,
    pub duo: [Vec<Op>; 2],
}

/// Sizes are `BASE_SIZE + k` for distinct `k` below this.
const SIZE_SPAN: usize = 4096;
const BASE_SIZE: usize = 2000;

/// The request plan for pass `pass`. A pass owns `keys + keys / 2` sizes
/// nobody else uses, drawn through a seeded permutation: `keys` of them are
/// missed and then hit by the solo client, in a seeded interleaving where
/// every hit follows its miss; the rest are the duo clients' misses, mixed
/// with hits on the solo keys and pings.
pub fn daemon_pass(seed: u64, pass: usize, keys: usize) -> DaemonPass {
    let mut perm: Vec<usize> = (0..SIZE_SPAN).collect();
    Rng::new(seed).shuffle(&mut perm);
    let per_pass = keys + keys / 2;
    assert!(
        (pass + 1) * per_pass <= SIZE_SPAN,
        "request plan ran out of distinct sizes"
    );
    let own = &perm[pass * per_pass..(pass + 1) * per_pass];
    let (solo_keys, duo_keys) = own.split_at(keys);
    let mut rng = Rng::new(seed ^ (pass as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));

    let mut solo = Vec::with_capacity(2 * keys + 1);
    let mut missed: Vec<usize> = Vec::new();
    let mut next_miss = 0;
    while next_miss < keys || !missed.is_empty() {
        let miss = missed.is_empty() || (next_miss < keys && rng.below(2) == 0);
        if miss {
            solo.push(Op::Run {
                size: BASE_SIZE + solo_keys[next_miss],
                repeat: false,
            });
            missed.push(solo_keys[next_miss]);
            next_miss += 1;
        } else {
            let k = missed.swap_remove(rng.below(missed.len()));
            solo.push(Op::Run {
                size: BASE_SIZE + k,
                repeat: true,
            });
        }
    }
    solo.insert(rng.below(solo.len() + 1), Op::Ping);

    let mut duo = [Vec::new(), Vec::new()];
    for (c, list) in duo.iter_mut().enumerate() {
        for &k in duo_keys.iter().skip(c).step_by(2) {
            list.push(Op::Run {
                size: BASE_SIZE + k,
                repeat: false,
            });
        }
        for _ in 0..keys {
            list.push(Op::Run {
                size: BASE_SIZE + solo_keys[rng.below(keys)],
                repeat: true,
            });
        }
        list.push(Op::Ping);
        rng.shuffle(list);
    }
    DaemonPass { solo, duo }
}

/// Digest of the first `passes` passes of the plan.
pub fn daemon_plan_digest(seed: u64, passes: usize, keys: usize) -> String {
    let mut f = Fnv::new();
    for p in 0..passes {
        f.update(format!("{:?}", daemon_pass(seed, p, keys)).as_bytes());
    }
    f.hex()
}

const MACHINES: [&str; 4] = ["SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"];

/// One corpus profile: the shape of `template` (call tree, metric columns,
/// sizes, counts and checksums, all of which repeat exactly) with seeded run
/// metadata and seeded time values. The times the template measured are not
/// used: they differ from run to run, and the corpus must be a function of
/// the seed alone. A node's time is drawn around its computed bytes and
/// flops, one factor per node and a smaller one per metric column.
pub fn corpus_profile(template: &Value, seed: u64, index: usize) -> Value {
    let mut rng = Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut profile = template.clone();
    let Value::Object(top) = &mut profile else {
        panic!("profile template is not a JSON object");
    };
    if let Some(Value::Object(globals)) = top.get_mut("globals") {
        globals.insert(
            "machine".into(),
            Value::from(MACHINES[rng.below(MACHINES.len())]),
        );
        globals.insert("trial".into(), Value::Int(index as i64));
        globals.insert("corpus_seed".into(), Value::Int(seed as i64));
        globals.insert("ranks".into(), Value::Int(1 << rng.below(7)));
    }
    if let Some(Value::Array(records)) = top.get_mut("records") {
        for record in records {
            let Some(Value::Object(metrics)) = (match record {
                Value::Object(r) => r.get_mut("metrics"),
                _ => None,
            }) else {
                continue;
            };
            let computed = |name: &str| metrics.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            let work = (computed("Bytes/Rep") + computed("Flops/Rep")) * computed("Reps").max(1.0);
            let node_time = (1e-6 + work * 1e-10) * (0.8 + 0.4 * rng.unit());
            for (name, value) in metrics.iter_mut() {
                if name.to_ascii_lowercase().contains("time") {
                    *value = Value::Float(node_time * (0.98 + 0.04 * rng.unit()));
                }
            }
        }
    }
    profile
}

/// Write `count` profiles into `dir`, cycling through `templates`, and
/// return the digest of every byte written, in file order.
pub fn write_corpus(
    dir: &Path,
    templates: &[Value],
    seed: u64,
    count: usize,
) -> io::Result<String> {
    assert!(!templates.is_empty(), "corpus needs at least one template");
    std::fs::create_dir_all(dir)?;
    let mut digest = Fnv::new();
    for i in 0..count {
        let profile = corpus_profile(&templates[i % templates.len()], seed, i);
        let text = serde_json::to_string_pretty(&profile).map_err(io::Error::other)?;
        digest.update(text.as_bytes());
        std::fs::write(dir.join(format!("p{i:05}.cali.json")), text)?;
    }
    Ok(digest.hex())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::collections::BTreeSet;

    #[test]
    fn request_plan_is_a_function_of_the_seed() {
        assert_eq!(daemon_pass(5, 3, 16), daemon_pass(5, 3, 16));
        assert_ne!(daemon_pass(5, 3, 16), daemon_pass(6, 3, 16));
        assert_ne!(daemon_pass(5, 3, 16), daemon_pass(5, 4, 16));
        assert_eq!(daemon_plan_digest(9, 8, 16), daemon_plan_digest(9, 8, 16));
        assert_ne!(daemon_plan_digest(9, 8, 16), daemon_plan_digest(10, 8, 16));
    }

    #[test]
    fn every_repeat_follows_its_first_send_and_sizes_never_collide() {
        let mut all_first = BTreeSet::new();
        for pass in 0..20 {
            let plan = daemon_pass(11, pass, 16);
            let mut stored = BTreeSet::new();
            let mut runs = 0;
            for op in &plan.solo {
                if let Op::Run { size, repeat } = *op {
                    runs += 1;
                    if repeat {
                        assert!(stored.contains(&size), "hit before miss");
                    } else {
                        assert!(stored.insert(size));
                        assert!(all_first.insert(size), "size reused across passes");
                    }
                }
            }
            assert_eq!(runs, 32);
            assert_eq!(plan.solo.len(), 33, "one ping per solo phase");
            for list in &plan.duo {
                for op in list {
                    if let Op::Run { size, repeat } = *op {
                        if repeat {
                            assert!(
                                stored.contains(&size),
                                "duo hit on a key the solo phase never stored"
                            );
                        } else {
                            assert!(all_first.insert(size), "duo miss reuses a size");
                        }
                    }
                }
            }
        }
    }

    fn template() -> Value {
        let metrics =
            json!({"avg#time.duration": 0.5, "Time/Rep": 0.01, "Checksum": 42.0, "Reps": 50.0});
        let path = vec!["RAJAPerf", "Stream", "Stream_TRIAD"];
        let record = json!({"path": path, "metrics": metrics});
        json!({"globals": json!({"variant": "Base_Seq"}), "records": vec![record]})
    }

    #[test]
    fn corpus_noise_is_seeded_and_leaves_identity_metrics_alone() {
        let a = corpus_profile(&template(), 1, 0);
        assert_eq!(a, corpus_profile(&template(), 1, 0));
        assert_ne!(a, corpus_profile(&template(), 2, 0));
        assert_ne!(a, corpus_profile(&template(), 1, 1));
        let m = &a["records"].as_array().expect("records")[0]["metrics"];
        assert_eq!(m["Checksum"].as_f64(), Some(42.0));
        assert_eq!(m["Reps"].as_f64(), Some(50.0));
        let t = m["avg#time.duration"].as_f64().expect("time");
        assert!(
            t > 0.0 && t != 0.5,
            "times are drawn, not copied from the template"
        );
        assert_eq!(a["globals"]["variant"].as_str(), Some("Base_Seq"));
        assert!(a["globals"]["machine"].as_str().is_some());
    }

    #[test]
    fn corpus_ignores_the_times_the_template_measured() {
        let mut slower = template();
        if let Value::Object(top) = &mut slower {
            if let Some(Value::Array(records)) = top.get_mut("records") {
                if let Value::Object(r) = &mut records[0] {
                    if let Some(Value::Object(m)) = r.get_mut("metrics") {
                        m.insert("avg#time.duration".into(), Value::Float(0.75));
                    }
                }
            }
        }
        assert_eq!(
            corpus_profile(&template(), 1, 0),
            corpus_profile(&slower, 1, 0)
        );
    }

    #[test]
    fn corpus_digest_repeats_for_one_seed() {
        let dir = std::env::temp_dir().join(format!("ledger_corpus_{}", std::process::id()));
        let one = write_corpus(&dir.join("a"), &[template()], 4, 5).unwrap();
        let two = write_corpus(&dir.join("b"), &[template()], 4, 5).unwrap();
        let other = write_corpus(&dir.join("c"), &[template()], 5, 5).unwrap();
        assert_eq!(one, two);
        assert_ne!(one, other);
        assert_eq!(std::fs::read_dir(dir.join("a")).unwrap().count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
