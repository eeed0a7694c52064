//! Seeded request schedules of the two serve workloads.

use std::collections::HashSet;

use afp_circuits::from_spec_ref;
use afp_runtime::Key128;
use approxfpgas::RequestConfig;

use crate::stats::SplitMix;

/// The characterize vocabulary of `serve_hot`: the `serve_load` specs.
pub const SPECS: [&str; 13] = [
    "add8:rca",
    "add8:cla",
    "add8:csel",
    "add8:cskip",
    "add8:loa:2",
    "add8:trunc:3",
    "add8:nocarry:2",
    "add8:gear:2:2",
    "mul8:array",
    "mul8:wallace",
    "mul8:trunc:4",
    "mul8:broken:6:4",
    "mul8:compressor:3",
];

/// Every device profile of the target registry, pinned so that a new
/// profile does not silently change the workloads.
pub const TARGETS: [&str; 4] = [
    "lut4-ice40",
    "lut6-7series",
    "lut6-ultrascale",
    "alm-stratix",
];

/// The request configuration the daemon derives for `target`.
pub fn request_config(target: &str) -> RequestConfig {
    let profile = afp_fpga::target::named(target).expect("pinned targets are registered");
    RequestConfig::for_target_config(profile.apply(&afp_fpga::FpgaConfig::default()))
}

/// One `serve_hot` request: a `/characterize` pair or an `/estimate` spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hot {
    Characterize { spec: usize, target: usize },
    Estimate { spec: usize },
}

impl Hot {
    /// Every distinct hot request: 52 characterize pairs, then 13
    /// estimates on the zoos' target.
    pub fn all() -> Vec<Hot> {
        let mut all: Vec<Hot> = (0..SPECS.len())
            .flat_map(|spec| {
                (0..TARGETS.len()).map(move |target| Hot::Characterize { spec, target })
            })
            .collect();
        all.extend((0..SPECS.len()).map(|spec| Hot::Estimate { spec }));
        all
    }

    pub fn path(&self) -> String {
        match *self {
            Hot::Characterize { spec, target } => {
                format!(
                    "/characterize?spec={}&target={}",
                    SPECS[spec], TARGETS[target]
                )
            }
            Hot::Estimate { spec } => format!(
                "/estimate?spec={}&target={}",
                SPECS[spec],
                afp_fpga::DEFAULT_TARGET
            ),
        }
    }
}

/// The `serve_hot` schedule: `len` indices into [`Hot::all`], three in
/// four a characterize pair and one in four an estimate.
pub fn hot_schedule(seed: u64, len: usize) -> Vec<usize> {
    let pairs = SPECS.len() * TARGETS.len();
    let mut rng = SplitMix::new(seed);
    (0..len)
        .map(|_| {
            if rng.below(4) == 0 {
                pairs + rng.below(SPECS.len())
            } else {
                rng.below(pairs)
            }
        })
        .collect()
}

/// One never-seen `serve_cold` key.
#[derive(Clone, Debug)]
pub struct Cold {
    pub spec: String,
    pub target: &'static str,
}

impl Cold {
    pub fn path(&self) -> String {
        format!("/characterize?spec={}&target={}", self.spec, self.target)
    }
}

/// The parameterized spec families of one `(kind, width)` group.
fn family_group(kind: &str, width: usize) -> Vec<String> {
    let mut out = Vec::new();
    if kind == "add" {
        for family in ["loa", "trunc", "nocarry", "afa-sic", "afa-ign", "afa-cib"] {
            out.extend((1..width).map(|k| format!("add{width}:{family}:{k}")));
        }
        for r in 1..width.min(6) {
            out.extend((0..=4.min(width - r)).map(|p| format!("add{width}:gear:{r}:{p}")));
        }
    } else {
        for family in ["trunc", "compressor"] {
            out.extend((1..2 * width - 1).map(|k| format!("mul{width}:{family}:{k}")));
        }
        for vbl in 0..2 * width {
            out.extend(
                (0..=width)
                    .filter(|&hbl| vbl + hbl > 0)
                    .map(|hbl| format!("mul{width}:broken:{vbl}:{hbl}")),
            );
        }
    }
    out
}

/// Every 16th cold key comes from the parameterized families; the rest
/// are 8-bit underdesigned multipliers with a random block mask.
const FAMILY_EVERY: usize = 16;

/// The `serve_cold` schedule: `n` keys, pairwise distinct by
/// [`RequestConfig::key`], each valid for the daemon. Family picks
/// rotate over the six `(kind, width)` groups in a fixed order, so the
/// share of expensive 16-bit circuits does not depend on the seed; the
/// seed picks the member, the mask and the target.
pub fn cold_schedule(seed: u64, n: usize) -> Vec<Cold> {
    let mut rng = SplitMix::new(seed);
    let configs: Vec<RequestConfig> = TARGETS.iter().map(|t| request_config(t)).collect();
    let groups: Vec<Vec<String>> = [
        ("add", 8),
        ("add", 12),
        ("add", 16),
        ("mul", 8),
        ("mul", 12),
        ("mul", 16),
    ]
    .iter()
    .map(|&(kind, width)| family_group(kind, width))
    .collect();
    let mut seen: HashSet<Key128> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut families = 0usize;
    // Bounded retries: duplicates are rare, and the vocabulary has far
    // more than `n` members for any size the benchmark uses.
    for _ in 0..n.saturating_mul(4).max(64) {
        if out.len() == n {
            break;
        }
        let (spec, t) = if out.len() % FAMILY_EVERY == FAMILY_EVERY - 1 {
            let group = &groups[families % groups.len()];
            families += 1;
            (
                group[rng.below(group.len())].clone(),
                rng.below(TARGETS.len()),
            )
        } else {
            let mask = 1 + rng.below(0xFFFF);
            (format!("mul8:udm:{mask:x}"), rng.below(TARGETS.len()))
        };
        let circuit = from_spec_ref(&spec).expect("generated specs are valid");
        let key = configs[t].key(&circuit);
        if seen.insert(key) {
            out.push(Cold {
                spec,
                target: TARGETS[t],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(hot_schedule(1, 500), hot_schedule(1, 500));
        assert_ne!(hot_schedule(1, 500), hot_schedule(2, 500));
        let specs = |seed| -> Vec<String> {
            cold_schedule(seed, 200)
                .into_iter()
                .map(|c| c.path())
                .collect()
        };
        assert_eq!(specs(1), specs(1));
        assert_ne!(specs(1), specs(2));
    }

    #[test]
    fn hot_mix_is_a_quarter_estimates() {
        let sched = hot_schedule(7, 40_000);
        let all = Hot::all();
        let estimates = sched
            .iter()
            .filter(|&&i| matches!(all[i], Hot::Estimate { .. }))
            .count();
        assert!((9_000..11_000).contains(&estimates), "{estimates}");
        for hot in &all {
            let spec = match hot {
                Hot::Characterize { spec, .. } | Hot::Estimate { spec } => SPECS[*spec],
            };
            from_spec_ref(spec).expect("hot specs parse");
        }
    }

    #[test]
    fn every_cold_spec_parses_and_every_cold_key_is_distinct() {
        let sched = cold_schedule(3, 600);
        assert_eq!(sched.len(), 600);
        let mut keys = HashSet::new();
        for cold in &sched {
            let circuit = from_spec_ref(&cold.spec).expect("cold spec parses");
            let key = request_config(cold.target).key(&circuit);
            assert!(keys.insert(key), "duplicate key for {}", cold.path());
        }
        // The family share is fixed by construction.
        let families = sched
            .iter()
            .filter(|c| !c.spec.starts_with("mul8:udm:"))
            .count();
        assert!(families >= 600 / FAMILY_EVERY - 1, "{families}");
    }
}
