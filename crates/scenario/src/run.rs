//! One run as one value: [`RunSpec`] says everything a run is, and its
//! one-line form is `diag`'s argument list:
//!
//! ```text
//! APP PROTOCOL BLOCK [KEY=VALUE ...] [check] [spans]
//! barnes-original hlrc 256 notify=interrupt check
//! kv-zipf hlrc 1024 size=small seed=1001 keys=512 fabric=faulty,seed=42,drop=10000 check
//! ```
//!
//! The keys are `size` (`small` or `standard`), `seed`, an application
//! parameter (any key that is no other, so [`dsm_apps::build_app`] refuses
//! an unknown one), `nodes` (1 to [`MAX_NODES`]), `notify`, `homes`
//! (`first-touch` or `static`), `fabric` (a [`FabricConfig::parse`] spec),
//! `region=NAME:PROTOCOL@BLOCK` (once per region policy) and any
//! [`CostModel`] field; the switch `check` installs the race detector and
//! invariant checker, `spans` records causal spans. Words come in any
//! order; `Display` writes only what differs from [`RunSpec::new`], in the
//! order above. What needs the program, its blocks and region names, is
//! checked by [`RunSpec::program`].

use std::fmt;

use dsm_adapt::{choose_policies, profile_run, AdaptPlan};
use dsm_apps::AppSize;
use dsm_core::runner::planned_regions;
use dsm_core::{
    CostModel, FabricConfig, Notify, Program, Protocol, RegionPolicy, RunConfig, GRANULARITIES,
};

use crate::spec::AppSpec;

/// The largest cluster a run (or a scenario plan) may ask for.
pub const MAX_NODES: usize = 64;

/// Everything one run is: [`RunSpec::to_config`] is its configuration,
/// [`RunSpec::program`] its program, and `Display`/`FromStr` its line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// The application and its shape.
    pub app: AppSpec,
    /// The program's seed (only a modern workload reads it).
    pub seed: u64,
    /// Protocol of every region no policy names.
    pub protocol: Protocol,
    /// Granularity of every region no policy names, in bytes.
    pub block: usize,
    /// Per-region policies, each naming one of the program's regions.
    pub regions: Vec<RegionPolicy>,
    /// Notification mechanism.
    pub notify: Notify,
    /// Cluster size.
    pub nodes: usize,
    /// Static round-robin homes instead of first-touch migration.
    pub static_homes: bool,
    /// Fabric spec, as [`fabric_arg`] checked and wrote it.
    pub fabric: String,
    /// The run's costs.
    pub cost: CostModel,
    /// Install the race detector and protocol invariant checker.
    pub check: bool,
    /// Record causal spans (zero virtual-time cost).
    pub spans: bool,
}

macro_rules! cost_fields {
    ($($field:ident),*) => {
        /// Every [`CostModel`] field by its name: a field added there does
        /// not compile here until a run line can say it.
        fn cost_fields(cost: &mut CostModel) -> Vec<(&'static str, &mut u64)> {
            let CostModel { $($field),* } = cost;
            vec![$((stringify!($field), $field)),*]
        }
    };
}

cost_fields! {
    fault_exception_ns, handler_ns, per_byte_copy_ns_x100, diff_scan_ns_x100, diff_apply_ns_x100,
    twin_copy_ns_x100, local_access_ns, poll_service_delay_ns, intr_signal_ns, intr_grace_ns,
    sync_handler_ns, delayed_inval_ns
}

/// A coherence granularity in bytes for a program of `shared_bytes`: what
/// `Layout::new` accepts, checked before a layout is built, and at most twice
/// the shared space rounded up to a power of two. One block already holds
/// the whole space there; a larger one would only make every node allocate
/// a copy of it.
pub fn block_arg(text: &str, shared_bytes: usize) -> Result<usize, String> {
    let most = shared_bytes.max(8).next_power_of_two().saturating_mul(2);
    text.parse()
        .ok()
        .filter(|b: &usize| b.is_power_of_two() && (8..=most).contains(b))
        .ok_or_else(|| {
            format!(
                "bad block size {text:?} (a power of two from 8 to {most}, twice the \
                 program's shared space rounded up to a power of two; the study uses \
                 {GRANULARITIES:?})"
            )
        })
}

/// A fabric spec [`FabricConfig::parse`] accepts, without the blanks around
/// its parts that it ignores, so a run line holds it as one word.
pub fn fabric_arg(text: &str) -> Result<String, String> {
    FabricConfig::parse(text)?;
    Ok(text.split(',').map(str::trim).collect::<Vec<_>>().join(","))
}

/// A block size as a run line writes it; [`RunSpec::program`] checks it.
fn bytes(text: &str) -> Result<usize, String> {
    text.parse().map_err(|_| format!("bad block size {text:?}"))
}

/// A region policy as a run line writes it.
fn region_word(r: &RegionPolicy) -> String {
    let protocol = r.protocol.name().to_lowercase();
    format!("region={}:{protocol}@{}", r.name, r.block)
}

impl RunSpec {
    /// `app` at the standard size under `protocol` at `block`, every other
    /// setting at its default.
    pub fn new(app: &str, protocol: Protocol, block: usize) -> RunSpec {
        let app = AppSpec {
            name: app.to_string(),
            size: AppSize::Standard,
            params: Vec::new(),
        };
        RunSpec {
            app,
            seed: 1,
            protocol,
            block,
            regions: Vec::new(),
            notify: Notify::Polling,
            nodes: 16,
            static_homes: false,
            fabric: "ideal".to_string(),
            cost: CostModel::default(),
            check: false,
            spans: false,
        }
    }

    /// The program this run executes, once the run is checked against it:
    /// the cluster fits the application's layout, every block is one
    /// [`block_arg`] takes for it, and every region policy names a region
    /// the runner carves the program into.
    pub fn program(&self) -> Result<Program, String> {
        let program = self.app.build(self.seed)?;
        if let Some(most) = program.max_nodes().filter(|&m| self.nodes > m) {
            let name = &self.app.name;
            return Err(format!(
                "nodes={}: {name} runs on at most {most} nodes",
                self.nodes
            ));
        }
        let fits = |b: usize| block_arg(&b.to_string(), program.shared_bytes());
        fits(self.block)?;
        // The runner's carving, at the largest block in play.
        let align = self.regions.iter().map(|r| r.block);
        let align = align.chain([self.block, 4096]).max().unwrap_or(4096);
        for r in &self.regions {
            let word = region_word(r);
            fits(r.block).map_err(|e| format!("{word}: {e}"))?;
            let names = planned_regions(program.as_ref(), align).into_iter();
            let names: Vec<String> = names.map(|(name, ..)| name).collect();
            if !names.contains(&r.name) {
                let names = names.join(", ");
                return Err(format!("{word}: no such region (one of: {names})"));
            }
        }
        Ok(program)
    }

    /// The run's configuration: the one place a tool makes a `RunConfig`.
    /// Output-only settings (recording, series, the trace view) are set on
    /// what it returns.
    pub fn to_config(&self) -> RunConfig {
        let mut cfg = RunConfig {
            region_policies: self.regions.clone(),
            notify: self.notify,
            nodes: self.nodes,
            first_touch: !self.static_homes,
            fabric: FabricConfig::parse(&self.fabric).expect("a run's fabric spec is checked"),
            check: self.check,
            cost: self.cost.clone(),
            ..RunConfig::new(self.protocol, self.block)
        };
        cfg.obs.spans = self.spans;
        cfg
    }

    /// Profile `program`, let the planner pin a protocol × granularity per
    /// region, and write the plan into this run: the uniform winner as the
    /// default and one policy per region. This is the one place a plan
    /// becomes a run.
    pub fn adapt(&mut self, program: &Program) -> AdaptPlan {
        let plan = choose_policies(program, &profile_run(program), &self.to_config());
        (self.protocol, self.block) = plan.uniform;
        self.regions = plan.policies();
        plan
    }

    /// Parse a run line given as words (`diag`'s arguments). An error is one
    /// line naming the word at fault.
    pub fn parse_words<'a>(words: impl IntoIterator<Item = &'a str>) -> Result<RunSpec, String> {
        let mut words = words.into_iter();
        let (Some(app), Some(protocol), Some(block)) = (words.next(), words.next(), words.next())
        else {
            return Err("a run is APP PROTOCOL BLOCK [KEY=VALUE ...] [check] [spans]".to_string());
        };
        let mut run = RunSpec::new(app, protocol.parse()?, bytes(block)?);
        for word in words {
            run.set(word).map_err(|e| format!("{word}: {e}"))?;
        }
        Ok(run)
    }

    /// Apply one word after APP PROTOCOL BLOCK.
    fn set(&mut self, word: &str) -> Result<(), String> {
        let Some((key, value)) = word.split_once('=') else {
            match word {
                "check" => self.check = true,
                "spans" => self.spans = true,
                _ => return Err("not KEY=VALUE, check or spans".to_string()),
            }
            return Ok(());
        };
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{key} takes a non-negative integer"))
        };
        match (key, value) {
            ("size", "small") => self.app.size = AppSize::Small,
            ("size", "standard") => self.app.size = AppSize::Standard,
            ("size", _) => return Err("size takes small or standard".to_string()),
            ("seed", _) => self.seed = num()?,
            ("nodes", _) => {
                self.nodes = Some(num()?)
                    .filter(|n| (1..=MAX_NODES as u64).contains(n))
                    .ok_or(format!("nodes takes 1 to {MAX_NODES}"))?
                    as usize
            }
            ("notify", _) => self.notify = value.parse()?,
            ("homes", "static" | "first-touch") => self.static_homes = value == "static",
            ("homes", _) => return Err("homes takes first-touch or static".to_string()),
            ("fabric", _) => self.fabric = fabric_arg(value)?,
            ("region", _) => {
                let (name, policy) = value.split_once(':').unwrap_or_default();
                let (protocol, block) = (policy.split_once('@'))
                    .filter(|_| !name.is_empty())
                    .ok_or("region takes NAME:PROTOCOL@BLOCK")?;
                let policy = RegionPolicy::new(name, protocol.parse()?, bytes(block)?);
                self.regions.push(policy);
            }
            _ => match cost_fields(&mut self.cost).into_iter().find(|f| f.0 == key) {
                Some((_, field)) => *field = num()?,
                None => self.app.params.push((key.to_string(), num()?)),
            },
        }
        Ok(())
    }
}

impl std::str::FromStr for RunSpec {
    type Err = String;

    /// Parse a run line: whitespace-separated words.
    fn from_str(line: &str) -> Result<RunSpec, String> {
        RunSpec::parse_words(line.split_whitespace())
    }
}

impl fmt::Display for RunSpec {
    /// The canonical run line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let default = RunSpec::new(&self.app.name, self.protocol, self.block);
        let protocol = self.protocol.name().to_lowercase();
        write!(f, "{} {protocol} {}", self.app.name, self.block)?;
        let mut key = |on: bool, key: &str, value: &dyn fmt::Display| {
            if on {
                write!(f, " {key}={value}")
            } else {
                Ok(())
            }
        };
        key(self.app.size == AppSize::Small, "size", &"small")?;
        key(self.seed != default.seed, "seed", &self.seed)?;
        for (name, value) in &self.app.params {
            key(true, name, value)?;
        }
        key(self.nodes != default.nodes, "nodes", &self.nodes)?;
        key(self.notify != default.notify, "notify", &self.notify)?;
        key(self.static_homes, "homes", &"static")?;
        key(self.fabric != default.fabric, "fabric", &self.fabric)?;
        let (mut cost, mut base) = (self.cost.clone(), default.cost);
        let base = cost_fields(&mut base);
        for r in &self.regions {
            write!(f, " {}", region_word(r))?;
        }
        for ((name, value), (_, base)) in cost_fields(&mut cost).into_iter().zip(base) {
            if value != base {
                write!(f, " {name}={value}")?;
            }
        }
        for (on, switch) in [(self.check, " check"), (self.spans, " spans")] {
            if on {
                f.write_str(switch)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_apps::util::XorShift;

    /// Canonical lines: every key and switch, defaults left out.
    const CANONICAL: [&str; 9] = [
        "lu sc 64",
        "barnes-original hlrc 256 notify=interrupt check",
        "barnes-partree hlrc 256 notify=interrupt intr_grace_ns=250000 check",
        "barnes-original hlrc 1024 notify=interrupt intr_signal_ns=80000 check",
        "kv-zipf hlrc 1024 size=small seed=1001 keys=512 fabric=faulty,seed=42,drop=10000 check",
        "kv-zipf hlrc 4096 size=small seed=5 ops=3000 epochs=3 \
         region=values:sw-lrc@256 region=counts:sc@64 check",
        "lu sw-lrc 4096 size=small fabric=contended check spans",
        "ocean-rowwise tardis 1024 nodes=8 homes=static intr_grace_ns=0 delayed_inval_ns=100000",
        "random-drf hlrc 1024 size=small seed=11 words=64 phases=3 locks=2 \
         fabric=faulty,seed=42,drop=10000,reorder=20000 check",
    ];

    fn parse(line: &str) -> RunSpec {
        line.parse().unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn canonical_lines_print_as_themselves_and_build() {
        for line in CANONICAL {
            let run = parse(line);
            assert_eq!(run.to_string(), line);
            assert_eq!(parse(&run.to_string()), run);
            run.program().unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn defaults_are_left_out_and_words_come_in_any_order() {
        let run =
            parse("lu sc 64 check nodes=16 intr_grace_ns=200000 fabric=ideal homes=first-touch");
        assert_eq!(
            run,
            RunSpec {
                check: true,
                ..RunSpec::new("lu", Protocol::Sc, 64)
            }
        );
        assert_eq!(run.to_string(), "lu sc 64 check");
        let run = parse("lu hlrc 1024 spans intr_grace_ns=0 fabric=contended nodes=8");
        assert_eq!(
            run.to_string(),
            "lu hlrc 1024 nodes=8 fabric=contended intr_grace_ns=0 spans"
        );
        // A fabric spec given as one argument keeps no blank in its line.
        let run = RunSpec::parse_words(["lu", "sc", "64", "fabric=faulty, seed=3"]).unwrap();
        assert_eq!(run.to_string(), "lu sc 64 fabric=faulty,seed=3");
    }

    #[test]
    fn the_config_is_the_line() {
        let run = parse(
            "kv-zipf hlrc 1024 size=small nodes=8 notify=interrupt homes=static \
             fabric=contended region=values:sc@64 intr_grace_ns=0 check spans",
        );
        let cfg = run.to_config();
        assert_eq!(
            (cfg.protocol, cfg.block_size, cfg.nodes),
            (Protocol::Hlrc, 1024, 8)
        );
        assert_eq!(
            cfg.region_policies,
            vec![RegionPolicy::new("values", Protocol::Sc, 64)]
        );
        assert_eq!(cfg.notify, Notify::Interrupt);
        assert!(!cfg.first_touch && cfg.check && cfg.obs.spans);
        assert_eq!(cfg.fabric, FabricConfig::contended());
        assert_eq!(cfg.cost.intr_grace_ns, 0);
        assert_eq!(cfg.cost.intr_signal_ns, CostModel::default().intr_signal_ns);
        let plain = RunSpec::new("fft", Protocol::Sc, 64).to_config();
        assert!(plain.first_touch && !plain.check && !plain.obs.spans);
        assert!(plain.fabric.is_ideal() && plain.region_policies.is_empty());
    }

    /// Every error is one line naming the word at fault and what it takes.
    #[test]
    fn errors_name_the_word_at_fault_and_what_it_takes() {
        for (line, needles) in [
            ("lu", &["APP PROTOCOL BLOCK"][..]),
            ("nosuchapp sc 64", &["nosuchapp", "water-spatial"]),
            ("lu mesi 64", &["mesi", "tardis"]),
            ("lu sc sixty", &["sixty"]),
            ("lu sc 100", &["100", "power of two"]),
            ("lu sc 1099511627776", &["1099511627776"]),
            ("lu sc 64 chek", &["chek", "check"]),
            ("lu sc 64 size=huge", &["size=huge", "small"]),
            ("lu sc 64 seed=-1", &["seed=-1", "integer"]),
            ("lu sc 64 nodes=0", &["nodes=0", "1 to 64"]),
            ("lu sc 64 nodes=65", &["nodes=65"]),
            (
                "lu sc 64 notify=sometimes",
                &["notify=sometimes", "interrupt"],
            ),
            ("lu sc 64 homes=moving", &["homes=moving", "static"]),
            ("lu sc 64 fabric=warp", &["fabric=warp"]),
            ("lu sc 64 fabric=faulty,drop=4294967297", &["drop"]),
            ("lu sc 64 region=a", &["region=a", "NAME:PROTOCOL@BLOCK"]),
            ("lu sc 64 region=:sc@64", &["region=:sc@64"]),
            ("lu sc 64 region=a:mesi@64", &["mesi", "tardis"]),
            (
                "kv-zipf sc 64 region=values:sc@100",
                &["region=values:sc@100"],
            ),
            ("kv-zipf sc 64 region=vals:hlrc@4096", &["vals", "values"]),
            ("lu sc 64 intr_grace_ns=soon", &["intr_grace_ns=soon"]),
            ("lu sc 64 bogus=3", &["bogus"]),
        ] {
            let e = line
                .parse::<RunSpec>()
                .and_then(|run| run.program())
                .err()
                .unwrap_or_else(|| panic!("{line} was accepted"));
            for needle in needles {
                assert!(e.contains(needle), "{line}: {e} (wanted {needle:?})");
            }
            assert_eq!(e.lines().count(), 1, "{line}: {e}");
        }
    }

    #[test]
    fn block_arg_takes_powers_of_two_up_to_twice_the_space() {
        assert_eq!(block_arg("4096", 4096), Ok(4096));
        assert_eq!(block_arg("8192", 4096), Ok(8192));
        for bad in ["sixty", "100", "4", "0", "-64", "16384"] {
            assert!(block_arg(bad, 4096).unwrap_err().contains(bad), "{bad}");
        }
    }

    /// A fixed-seed byte-mutation fuzzer: a mangled line is an error or a
    /// run whose own line parses back to it, never a panic.
    #[test]
    fn mutated_lines_never_panic() {
        let mut rng = XorShift::new(0x5eed);
        let mut accepted = 0;
        for _ in 0..5000 {
            let mut bytes = CANONICAL[rng.below(CANONICAL.len())].as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bytes.len());
                match rng.below(4) {
                    0 => bytes[i] = rng.next_u64() as u8,
                    1 => bytes[i] = b"0123456789=@:, -"[rng.below(16)],
                    2 => drop(bytes.remove(i)),
                    _ => bytes.insert(i, bytes[rng.below(bytes.len())]),
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            if let Ok(run) = line.parse::<RunSpec>() {
                accepted += 1;
                assert_eq!(parse(&run.to_string()), run, "{line:?}");
            }
        }
        assert!(accepted > 100, "only {accepted} mutants parsed");
    }
}
