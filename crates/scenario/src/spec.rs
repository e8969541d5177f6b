//! The declarative scenario specification: what to run, under which
//! coherence policy, over which fabric, how many times.
//!
//! A scenario is one JSON object, hand-written and checked strictly:
//! unknown keys, out-of-range blocks, and malformed sub-objects are errors
//! with positions (the `dsm-json` parser reports line/column). The parsed
//! form is canonical — [`ScenarioSpec::to_json`] emits a normalized
//! document whose re-parse is structurally identical, which the round-trip
//! tests and the `scenario --print-spec` flag rely on.
//!
//! ```json
//! {
//!   "name": "kv-hot",
//!   "app": {"name": "kv-zipf", "size": "small", "params": {"keys": 512}},
//!   "nodes": 16,
//!   "mode": {"kind": "fixed", "protocol": "hlrc", "block": 1024},
//!   "fabric": "faulty,seed=42,drop=10000",
//!   "check": true,
//!   "reps": 3,
//!   "seed": 1000
//! }
//! ```

use std::sync::Arc;

use dsm_core::{FabricConfig, Notify, Program, Protocol};
use dsm_json::Value;

use dsm_apps::{app_sized, AppSize, KvZipf, PageRank, RandomDrf};

/// Version of the plan format and of every record the engine emits: the
/// `"scenario"` records' version in [`dsm_core::schema`], which keeps the
/// history. Bump it there when the JSONL shapes change incompatibly. (Wall
/// clock never enters the JSONL, so records stay byte-identical across
/// hosts and job widths.)
pub const SCHEMA: u32 = dsm_core::schema::SCENARIO.1;

/// Legal coherence granularities (the study's four).
pub const LEGAL_BLOCKS: [usize; 4] = [64, 256, 1024, 4096];

/// Which application to run and how to shape it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Registry name: one of the twelve kernels or a modern workload
    /// (`kv-zipf`, `pagerank`, `random-drf`).
    pub name: String,
    /// Base problem-size class the parameters default from.
    pub size: AppSize,
    /// Parameter overrides for the modern workloads, in spec order.
    /// Classic kernels accept no parameters (their shapes are the paper's).
    pub params: Vec<(String, u64)>,
}

impl AppSpec {
    /// Parameter `key` as a `T`, or `default` when the spec leaves it out;
    /// an error naming it when its value does not fit a `T`.
    fn param<T: TryFrom<u64>>(&self, key: &str, default: T) -> Result<T, String> {
        match self.params.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => T::try_from(*v).map_err(|_| {
                format!(
                    "app {}: parameter {key:?} = {v} does not fit in {}",
                    self.name,
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// The modern workload this spec names, built for `seed` with its
    /// parameters checked against their types and the constructor's ranges;
    /// `None` for a classic kernel (which takes no parameters).
    fn modern(&self, seed: u64) -> Result<Option<Program>, String> {
        let small = self.size == AppSize::Small;
        let known: &[&str] = match self.name.as_str() {
            "kv-zipf" => &["keys", "ops", "epochs", "theta_x100", "read_pct"],
            "pagerank" => &["vertices", "max_out", "iters"],
            "random-drf" => &["words", "phases", "locks"],
            _ => &[],
        };
        if let Some((k, _)) = self
            .params
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            return Err(format!(
                "app {}: unknown parameter {k:?} (known: {})",
                self.name,
                if known.is_empty() {
                    "none — classic kernels take no parameters".to_string()
                } else {
                    known.join(", ")
                }
            ));
        }
        let named = |e: String| format!("app {}: {e}", self.name);
        let program: Program = match self.name.as_str() {
            "kv-zipf" => {
                let (keys, ops, epochs) = if small {
                    (256, 4_000, 4)
                } else {
                    (2048, 48_000, 6)
                };
                Arc::new(
                    KvZipf::try_new(
                        seed,
                        self.param("keys", keys)?,
                        self.param("ops", ops)?,
                        self.param("epochs", epochs)?,
                        self.param("theta_x100", 99)?,
                        self.param("read_pct", 70)?,
                    )
                    .map_err(named)?,
                )
            }
            "pagerank" => {
                let (v, m, it) = if small { (96, 4, 3) } else { (768, 8, 8) };
                Arc::new(
                    PageRank::try_new(
                        seed,
                        self.param("vertices", v)?,
                        self.param("max_out", m)?,
                        self.param("iters", it)?,
                    )
                    .map_err(named)?,
                )
            }
            "random-drf" => {
                let (w, ph, l) = if small { (64, 3, 2) } else { (256, 6, 4) };
                Arc::new(
                    RandomDrf::try_new(
                        seed,
                        self.param("words", w)?,
                        self.param("phases", ph)?,
                        self.param("locks", l)?,
                    )
                    .map_err(named)?,
                )
            }
            _ => return Ok(None),
        };
        Ok(Some(program))
    }

    /// Instantiate the program for one repetition. Modern workloads are
    /// seeded per repetition; the classic kernels are deterministic fixed
    /// problems and ignore the seed.
    pub fn build(&self, seed: u64) -> Result<Program, String> {
        match self.modern(seed)? {
            Some(program) => Ok(program),
            None => app_sized(&self.name, self.size)
                .ok_or_else(|| format!("unknown application: {}", self.name)),
        }
    }
}

/// Coherence policy selection for the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// One (protocol, granularity) everywhere.
    Fixed {
        /// The protocol.
        protocol: Protocol,
        /// The granularity in bytes.
        block: usize,
    },
    /// Per-region overrides on top of a default combination — the regions
    /// name the program's `RegionHints`.
    Mixed {
        /// Default protocol for unnamed regions.
        protocol: Protocol,
        /// Default granularity for unnamed regions.
        block: usize,
        /// `(region, protocol, block)` overrides in spec order.
        regions: Vec<(String, Protocol, usize)>,
    },
    /// Let the adaptive planner profile the program and pin a combination
    /// per region (fresh plan every repetition, since the seed reshapes
    /// the program).
    Adaptive,
}

/// How repetition seeds are produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedSeq {
    /// Repetition `r` uses `base + r`.
    Base(u64),
    /// Explicit per-repetition seeds (length must equal `reps`).
    List(Vec<u64>),
}

impl SeedSeq {
    /// Seed of repetition `rep`.
    pub fn seed_for(&self, rep: usize) -> u64 {
        match self {
            SeedSeq::Base(b) => b + rep as u64,
            SeedSeq::List(v) => v[rep],
        }
    }
}

/// A complete parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reported in every output record).
    pub name: String,
    /// What to run.
    pub app: AppSpec,
    /// Cluster size.
    pub nodes: usize,
    /// Coherence policy.
    pub mode: Mode,
    /// Fabric spec in the `diag --fabric` grammar (`ideal`, `contended`,
    /// `faulty[,k=v,...]`). Stored as written; validated at parse time.
    pub fabric: String,
    /// Install the race detector + invariant checker on every repetition.
    pub check: bool,
    /// Record causal spans (zero virtual-time cost; enables critical-path
    /// extraction downstream).
    pub spans: bool,
    /// Notification mechanism.
    pub notify: Notify,
    /// Repetitions.
    pub reps: usize,
    /// Seed sequence over repetitions.
    pub seeds: SeedSeq,
}

fn proto_of(v: &Value, ctx: &str) -> Result<Protocol, String> {
    v.as_str()
        .ok_or_else(|| format!("{ctx}: protocol must be a string"))?
        .parse()
        .map_err(|e| format!("{ctx}: {e}"))
}

fn block_of(v: &Value, ctx: &str) -> Result<usize, String> {
    let b = v
        .as_u64()
        .ok_or_else(|| format!("{ctx}: block must be an integer"))? as usize;
    if !LEGAL_BLOCKS.contains(&b) {
        return Err(format!(
            "{ctx}: block {b} not in the study's granularities {LEGAL_BLOCKS:?}"
        ));
    }
    Ok(b)
}

impl ScenarioSpec {
    /// Parse a scenario document; errors carry the JSON position for
    /// syntax problems and a field path for shape problems.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let v = Value::parse(text).map_err(|e| format!("scenario: {e}"))?;
        Self::from_value(&v)
    }

    /// Build a spec from a parsed JSON value (strict: unknown keys are
    /// errors so typos in hand-written plans fail loudly).
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, String> {
        let Value::Obj(fields) = v else {
            return Err("scenario: document must be an object".to_string());
        };
        const KNOWN: [&str; 11] = [
            "schema", "name", "app", "nodes", "mode", "fabric", "check", "spans", "notify", "reps",
            "seed",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) && k != "seeds" {
                return Err(format!("scenario: unknown key {k:?}"));
            }
        }
        if let Some(s) = v.get("schema") {
            let got = s.as_u64().unwrap_or(0) as u32;
            if got != SCHEMA {
                return Err(format!(
                    "scenario: schema {got} unsupported (expected {SCHEMA})"
                ));
            }
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("scenario: missing \"name\"")?
            .to_string();

        // App: a bare string ("lu") or an object with name/size/params.
        let app = match v.get("app").ok_or("scenario: missing \"app\"")? {
            Value::Str(s) => AppSpec {
                name: s.clone(),
                size: AppSize::Small,
                params: Vec::new(),
            },
            Value::Obj(afields) => {
                for (k, _) in afields {
                    if !["name", "size", "params"].contains(&k.as_str()) {
                        return Err(format!("scenario app: unknown key {k:?}"));
                    }
                }
                let aname = v
                    .get("app")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or("scenario app: missing \"name\"")?
                    .to_string();
                let size = match v
                    .get("app")
                    .and_then(|a| a.get("size"))
                    .and_then(Value::as_str)
                {
                    None | Some("small") => AppSize::Small,
                    Some("standard") => AppSize::Standard,
                    Some(other) => {
                        return Err(format!(
                            "scenario app: size must be \"small\" or \"standard\", got {other:?}"
                        ))
                    }
                };
                let mut params = Vec::new();
                if let Some(p) = v.get("app").and_then(|a| a.get("params")) {
                    let Value::Obj(pf) = p else {
                        return Err("scenario app: \"params\" must be an object".to_string());
                    };
                    for (k, pv) in pf {
                        let n = pv.as_u64().ok_or_else(|| {
                            format!("scenario app param {k:?}: must be a non-negative integer")
                        })?;
                        params.push((k.clone(), n));
                    }
                }
                AppSpec {
                    name: aname,
                    size,
                    params,
                }
            }
            _ => return Err("scenario: \"app\" must be a string or object".to_string()),
        };

        // A modern workload's parameters are checked here, so a plan that
        // would panic or truncate fails before anything runs. Construction is
        // cheap: nothing is generated until the first run.
        app.modern(0).map_err(|e| format!("scenario {e}"))?;

        let nodes = match v.get("nodes") {
            None => 16,
            Some(n) => {
                let n = n.as_u64().ok_or("scenario: \"nodes\" must be an integer")? as usize;
                if !(1..=64).contains(&n) {
                    return Err(format!("scenario: nodes {n} out of range 1..=64"));
                }
                n
            }
        };

        let mode = match v.get("mode").ok_or("scenario: missing \"mode\"")? {
            m @ Value::Obj(mfields) => {
                for (k, _) in mfields {
                    if !["kind", "protocol", "block", "regions"].contains(&k.as_str()) {
                        return Err(format!("scenario mode: unknown key {k:?}"));
                    }
                }
                match m.get("kind").and_then(Value::as_str) {
                    Some("fixed") => Mode::Fixed {
                        protocol: proto_of(
                            m.get("protocol").ok_or("scenario mode: missing protocol")?,
                            "scenario mode",
                        )?,
                        block: block_of(
                            m.get("block").ok_or("scenario mode: missing block")?,
                            "scenario mode",
                        )?,
                    },
                    Some("mixed") => {
                        let mut regions = Vec::new();
                        for (i, r) in m
                            .get("regions")
                            .and_then(Value::as_arr)
                            .ok_or("scenario mode: mixed requires a \"regions\" array")?
                            .iter()
                            .enumerate()
                        {
                            let ctx = format!("scenario mode region {i}");
                            let rname = r
                                .get("name")
                                .and_then(Value::as_str)
                                .ok_or_else(|| format!("{ctx}: missing name"))?
                                .to_string();
                            let rp = proto_of(
                                r.get("protocol")
                                    .ok_or_else(|| format!("{ctx}: missing protocol"))?,
                                &ctx,
                            )?;
                            let rb = block_of(
                                r.get("block")
                                    .ok_or_else(|| format!("{ctx}: missing block"))?,
                                &ctx,
                            )?;
                            regions.push((rname, rp, rb));
                        }
                        if regions.is_empty() {
                            return Err("scenario mode: mixed requires at least one region".into());
                        }
                        Mode::Mixed {
                            protocol: proto_of(
                                m.get("protocol").ok_or("scenario mode: missing protocol")?,
                                "scenario mode",
                            )?,
                            block: block_of(
                                m.get("block").ok_or("scenario mode: missing block")?,
                                "scenario mode",
                            )?,
                            regions,
                        }
                    }
                    Some("adaptive") => Mode::Adaptive,
                    Some(other) => {
                        return Err(format!(
                            "scenario mode: kind must be fixed|mixed|adaptive, got {other:?}"
                        ))
                    }
                    None => return Err("scenario mode: missing \"kind\"".to_string()),
                }
            }
            _ => return Err("scenario: \"mode\" must be an object".to_string()),
        };

        let fabric = v
            .get("fabric")
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or("scenario: \"fabric\" must be a spec string")
            })
            .transpose()?
            .unwrap_or_else(|| "ideal".to_string());
        FabricConfig::parse(&fabric).map_err(|e| format!("scenario fabric: {e}"))?;

        let check = match v.get("check") {
            None => false,
            Some(b) => b.as_bool().ok_or("scenario: \"check\" must be a bool")?,
        };
        let spans = match v.get("spans") {
            None => false,
            Some(b) => b.as_bool().ok_or("scenario: \"spans\" must be a bool")?,
        };
        let notify = match v.get("notify") {
            None => Notify::Polling,
            Some(n) => n
                .as_str()
                .ok_or("scenario: \"notify\" must be a string")?
                .parse()
                .map_err(|e| format!("scenario: {e}"))?,
        };

        let reps = match v.get("reps") {
            None => 1,
            Some(n) => {
                let n = n.as_u64().ok_or("scenario: \"reps\" must be an integer")? as usize;
                if n < 1 {
                    return Err("scenario: reps must be >= 1".to_string());
                }
                n
            }
        };
        let seeds = match (v.get("seed"), v.get("seeds")) {
            (Some(_), Some(_)) => {
                return Err("scenario: give either \"seed\" or \"seeds\", not both".to_string())
            }
            (Some(s), None) => {
                SeedSeq::Base(s.as_u64().ok_or("scenario: \"seed\" must be an integer")?)
            }
            (None, Some(list)) => {
                let arr = list
                    .as_arr()
                    .ok_or("scenario: \"seeds\" must be an array of integers")?;
                let seeds: Option<Vec<u64>> = arr.iter().map(Value::as_u64).collect();
                let seeds = seeds.ok_or("scenario: \"seeds\" must be an array of integers")?;
                if seeds.len() != reps {
                    return Err(format!("scenario: {} seeds for {reps} reps", seeds.len()));
                }
                SeedSeq::List(seeds)
            }
            (None, None) => SeedSeq::Base(1),
        };

        Ok(ScenarioSpec {
            name,
            app,
            nodes,
            mode,
            fabric,
            check,
            spans,
            notify,
            reps,
            seeds,
        })
    }

    /// Canonical JSON form: parsing the emitted document yields an equal
    /// spec, and emitting again yields the identical document.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("schema", SCHEMA);
        v.set("name", self.name.as_str());
        let mut app = Value::obj();
        app.set("name", self.app.name.as_str());
        app.set(
            "size",
            if self.app.size == AppSize::Small {
                "small"
            } else {
                "standard"
            },
        );
        if !self.app.params.is_empty() {
            let mut p = Value::obj();
            for (k, val) in &self.app.params {
                p.set(k, *val);
            }
            app.set("params", p);
        }
        v.set("app", app);
        v.set("nodes", self.nodes);
        let mut mode = Value::obj();
        match &self.mode {
            Mode::Fixed { protocol, block } => {
                mode.set("kind", "fixed");
                mode.set("protocol", protocol.name().to_lowercase());
                mode.set("block", *block);
            }
            Mode::Mixed {
                protocol,
                block,
                regions,
            } => {
                mode.set("kind", "mixed");
                mode.set("protocol", protocol.name().to_lowercase());
                mode.set("block", *block);
                let rs: Vec<Value> = regions
                    .iter()
                    .map(|(n, p, b)| {
                        let mut r = Value::obj();
                        r.set("name", n.as_str());
                        r.set("protocol", p.name().to_lowercase());
                        r.set("block", *b);
                        r
                    })
                    .collect();
                mode.set("regions", Value::Arr(rs));
            }
            Mode::Adaptive => {
                mode.set("kind", "adaptive");
            }
        }
        v.set("mode", mode);
        v.set("fabric", self.fabric.as_str());
        v.set("check", self.check);
        v.set("spans", self.spans);
        v.set("notify", self.notify.name());
        v.set("reps", self.reps);
        match &self.seeds {
            SeedSeq::Base(b) => {
                v.set("seed", *b);
            }
            SeedSeq::List(list) => {
                v.set(
                    "seeds",
                    Value::Arr(list.iter().map(|&s| Value::from(s)).collect()),
                );
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "name": "smoke",
        "app": "lu",
        "mode": {"kind": "fixed", "protocol": "hlrc", "block": 1024}
    }"#;

    #[test]
    fn minimal_spec_defaults() {
        let s = ScenarioSpec::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "smoke");
        assert_eq!(s.app.name, "lu");
        assert_eq!(s.app.size, AppSize::Small);
        assert_eq!(s.nodes, 16);
        assert_eq!(s.fabric, "ideal");
        assert!(!s.check);
        assert_eq!(s.reps, 1);
        assert_eq!(s.seeds.seed_for(0), 1);
    }

    #[test]
    fn round_trip_is_identity() {
        let full = r#"{
            "name": "kv-chaos",
            "app": {"name": "kv-zipf", "size": "small",
                    "params": {"keys": 512, "theta_x100": 120}},
            "nodes": 8,
            "mode": {"kind": "mixed", "protocol": "hlrc", "block": 4096,
                     "regions": [{"name": "values", "protocol": "sc", "block": 256}]},
            "fabric": "faulty,seed=42,drop=10000",
            "check": true,
            "spans": false,
            "reps": 3,
            "seeds": [5, 6, 9]
        }"#;
        let a = ScenarioSpec::parse(full).unwrap();
        let emitted = a.to_json().to_string();
        let b = ScenarioSpec::parse(&emitted).unwrap();
        assert_eq!(a, b);
        // Emit is canonical: a second emit is byte-identical.
        assert_eq!(emitted, b.to_json().to_string());
    }

    #[test]
    fn strictness_catches_typos() {
        for (doc, needle) in [
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"hlrc","block":1024},"bogus":1}"#,
                "unknown key",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"hlrc","block":512}}"#,
                "granularities",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"mesi","block":1024}}"#,
                "unknown protocol",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"mixed","protocol":"sc","block":64,"regions":[]}}"#,
                "at least one region",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"sc","block":64},"fabric":"warp"}"#,
                "fabric",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"sc","block":64},"reps":2,"seeds":[1]}"#,
                "seeds for 2 reps",
            ),
            (
                r#"{"name":"x","app":{"name":"kv-zipf","params":{"noexist":3}},"mode":{"kind":"fixed","protocol":"sc","block":64}}"#,
                "unknown parameter",
            ),
        ] {
            let e = ScenarioSpec::parse(doc).unwrap_err();
            assert!(e.contains(needle), "{doc}: {e} (wanted {needle:?})");
        }
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let e = ScenarioSpec::parse("{\n \"name\": oops\n}").unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn seed_sequences() {
        let s = SeedSeq::Base(100);
        assert_eq!((s.seed_for(0), s.seed_for(2)), (100, 102));
        let l = SeedSeq::List(vec![7, 9]);
        assert_eq!((l.seed_for(0), l.seed_for(1)), (7, 9));
    }

    #[test]
    fn builds_every_registered_app() {
        for name in dsm_apps::all_app_names()
            .into_iter()
            .chain(dsm_apps::modern_app_names())
        {
            let spec = AppSpec {
                name: name.to_string(),
                size: AppSize::Small,
                params: Vec::new(),
            };
            let p = spec.build(3).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.name(), name);
        }
        assert!(AppSpec {
            name: "nope".into(),
            size: AppSize::Small,
            params: Vec::new()
        }
        .build(1)
        .is_err());
    }
}
