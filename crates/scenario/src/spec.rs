//! The declarative scenario specification: what to run, under which
//! coherence policy, over which fabric, how many times.
//!
//! A scenario is one JSON object, hand-written and checked strictly:
//! unknown keys, keys the mode's kind does not read, out-of-range blocks,
//! unknown applications or parameters, and malformed sub-objects are errors
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

use dsm_core::{FabricConfig, Notify, Program, Protocol, RegionPolicy, GRANULARITIES};
use dsm_json::Value;

use dsm_apps::{build_app, AppSize};

/// Version of the plan format and of every record the engine emits: the
/// `"scenario"` records' version in [`dsm_core::schema`], which keeps the
/// history. Bump it there when the JSONL shapes change incompatibly. (Wall
/// clock never enters the JSONL, so records stay byte-identical across
/// hosts and job widths.)
pub const SCHEMA: u32 = dsm_core::schema::SCENARIO.1;

/// Which application to run and how to shape it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Registry name: one of the twelve kernels or a modern workload
    /// (`kv-zipf`, `pagerank`, `random-drf`).
    pub name: String,
    /// Base problem-size class the parameters default from.
    pub size: AppSize,
    /// Shape-parameter overrides, in spec order: any application's
    /// registered parameters (a classic kernel's problem shape, a modern
    /// workload's knobs).
    pub params: Vec<(String, u64)>,
}

impl AppSpec {
    /// Instantiate the program for one repetition ([`build_app`]): every
    /// application takes the parameter overrides; modern workloads are also
    /// seeded per repetition, while the classic kernels ignore the seed.
    pub fn build(&self, seed: u64) -> Result<Program, String> {
        build_app(&self.name, self.size, seed, &self.params)
    }
}

/// Coherence policy selection for the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// A default (protocol, granularity) with per-region overrides naming
    /// the program's `RegionHints`. With no overrides the run is uniform,
    /// written `"kind": "fixed"`; with some it is `"kind": "mixed"`.
    Policy {
        /// Protocol of every region no override names.
        protocol: Protocol,
        /// Granularity of every region no override names.
        block: usize,
        /// Overrides in spec order.
        regions: Vec<RegionPolicy>,
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
    if !GRANULARITIES.contains(&b) {
        return Err(format!(
            "{ctx}: block {b} not in the study's granularities {GRANULARITIES:?}"
        ));
    }
    Ok(b)
}

/// A mixed mode's `"regions"`: a non-empty array of `{name, protocol,
/// block}` objects, each checked strictly.
fn regions_of(v: &Value) -> Result<Vec<RegionPolicy>, String> {
    let items = v
        .as_arr()
        .ok_or("scenario mode: mixed requires a \"regions\" array")?;
    if items.is_empty() {
        return Err("scenario mode: mixed requires at least one region".into());
    }
    let mut regions = Vec::new();
    for (i, r) in items.iter().enumerate() {
        let ctx = format!("scenario mode region {i}");
        let Value::Obj(rfields) = r else {
            return Err(format!("{ctx}: must be an object"));
        };
        if let Some((k, _)) = rfields
            .iter()
            .find(|(k, _)| !["name", "protocol", "block"].contains(&k.as_str()))
        {
            return Err(format!("{ctx}: unknown key {k:?}"));
        }
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing name"))?;
        let protocol = proto_of(
            r.get("protocol")
                .ok_or_else(|| format!("{ctx}: missing protocol"))?,
            &ctx,
        )?;
        let block = block_of(
            r.get("block")
                .ok_or_else(|| format!("{ctx}: missing block"))?,
            &ctx,
        )?;
        regions.push(RegionPolicy::new(name, protocol, block));
    }
    Ok(regions)
}

/// One region policy as the canonical spec and the repetition records
/// write it.
pub(crate) fn policy_json(p: &RegionPolicy) -> Value {
    let mut v = Value::obj();
    v.set("name", p.name.as_str());
    v.set("protocol", p.protocol.name().to_lowercase());
    v.set("block", p.block);
    v
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
            if s.as_u64() != Some(u64::from(SCHEMA)) {
                return Err(format!(
                    "scenario: schema {s} unsupported (expected {SCHEMA})"
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
        app.build(0).map_err(|e| format!("scenario {e}"))?;

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
                let kind = m
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("scenario mode: missing \"kind\"")?;
                let reads: &[&str] = match kind {
                    "fixed" => &["kind", "protocol", "block"],
                    "mixed" => &["kind", "protocol", "block", "regions"],
                    "adaptive" => &["kind"],
                    other => {
                        return Err(format!(
                            "scenario mode: kind must be fixed|mixed|adaptive, got {other:?}"
                        ))
                    }
                };
                if let Some((k, _)) = mfields.iter().find(|(k, _)| !reads.contains(&k.as_str())) {
                    return Err(format!(
                        "scenario mode: kind {kind:?} reads no key {k:?} (only {})",
                        reads.join(", ")
                    ));
                }
                if kind == "adaptive" {
                    Mode::Adaptive
                } else {
                    Mode::Policy {
                        protocol: proto_of(
                            m.get("protocol").ok_or("scenario mode: missing protocol")?,
                            "scenario mode",
                        )?,
                        block: block_of(
                            m.get("block").ok_or("scenario mode: missing block")?,
                            "scenario mode",
                        )?,
                        regions: if kind == "mixed" {
                            regions_of(m.get("regions").unwrap_or(&Value::Null))?
                        } else {
                            Vec::new()
                        },
                    }
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
            Mode::Policy {
                protocol,
                block,
                regions,
            } => {
                mode.set("kind", if regions.is_empty() { "fixed" } else { "mixed" });
                mode.set("protocol", protocol.name().to_lowercase());
                mode.set("block", *block);
                if !regions.is_empty() {
                    mode.set(
                        "regions",
                        Value::Arr(regions.iter().map(policy_json).collect()),
                    );
                }
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
            // A schema number past u32 is not read modulo 2^32.
            (
                r#"{"schema":4294967299,"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"sc","block":64}}"#,
                "schema 4294967299 unsupported",
            ),
            // A key the mode's kind does not read is an error, never dropped.
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"fixed","protocol":"sc","block":64,"regions":[{"name":"a","protocol":"sc","block":64}]}}"#,
                "reads no key \"regions\"",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"adaptive","protocol":"sc"}}"#,
                "reads no key \"protocol\"",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"adaptive","block":64}}"#,
                "reads no key \"block\"",
            ),
            (
                r#"{"name":"x","app":"lu","mode":{"kind":"mixed","protocol":"sc","block":64,"regions":[{"name":"a","protocol":"sc","block":64,"blok":256}]}}"#,
                "unknown key \"blok\"",
            ),
            (
                r#"{"name":"x","app":"nosuchapp","mode":{"kind":"fixed","protocol":"sc","block":64}}"#,
                "unknown application",
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
